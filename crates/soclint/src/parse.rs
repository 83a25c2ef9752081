//! The tree the per-file pass ([`crate::facts::analyze_file`]) walks: a
//! lightweight recursive-descent layer over the token stream from
//! [`crate::lexer`].
//!
//! This is deliberately **not** a Rust parser. It recovers exactly the
//! structure the taint and job-thunk walks ([`crate::taint`],
//! [`crate::captures`]) need, and nothing more:
//!
//! - every `fn` item (free, inherent, trait) with its name, parameter
//!   binding names, and body token range;
//! - every `let` binding inside a body, **flattened** in source order —
//!   bindings inside `if`/`for`/`match` arms appear in the enclosing
//!   function's table (block scoping is intentionally ignored: for a lint,
//!   a binding that leaks a few lines past its block costs a possible
//!   false positive, never a missed flow);
//! - every closure, as a tree: `move`-ness, arity-zero detection (the
//!   job-thunk signature `FnOnce() -> T` submitted to `parpool`), closure
//!   parameter names, and the closure's own flattened `let` table.
//!
//! Everything else (types, generics, attributes, expressions) stays as
//! raw token ranges into the significant-token stream, which the walks
//! scan linearly. Like the lexer, the parser never fails: on any
//! input — including byte garbage `rustc` would reject — it produces
//! *some* tree with in-bounds spans (the property suite in
//! `tests/lint_prop.rs` holds it to that).

use crate::lexer::{at, Token, TokenKind, Tokens};

/// One parsed function item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter binding names (`self` excluded; pattern parameters
    /// contribute the idents directly followed by `:`).
    pub params: Vec<String>,
    /// Body as a half-open range into the significant-token index list
    /// (the tokens strictly inside the outermost braces).
    pub body: SigRange,
    /// `let` bindings in the body, flattened in source order. Bindings
    /// inside nested closures are *not* listed here — they live on the
    /// closure node.
    pub lets: Vec<LetBinding>,
    /// Closures in the body, outermost first, in source order.
    pub closures: Vec<Closure>,
}

/// One `let` binding (possibly a pattern binding several names).
#[derive(Debug)]
pub struct LetBinding {
    /// All names the pattern binds (`let (a, b) = …` lists both).
    pub names: Vec<String>,
    /// 1-based line of the `let` keyword.
    pub line: u32,
    /// Initializer token range (empty for `let x;`). For `let … else`,
    /// the range covers the initializer *and* the else block — the flow
    /// rules only scan it for idents, so the over-approximation is safe.
    pub init: SigRange,
}

/// One closure expression.
#[derive(Debug)]
pub struct Closure {
    /// 1-based line of the opening `|` (or of `move`).
    pub line: u32,
    /// Whether the closure is a `move` closure.
    pub is_move: bool,
    /// Parameter binding names.
    pub params: Vec<String>,
    /// True for `||` closures — the `FnOnce() -> T` job-thunk shape.
    pub nullary: bool,
    /// Body token range (inside braces for block bodies, the bare
    /// expression otherwise).
    pub body: SigRange,
    /// Flattened `let` bindings inside the body.
    pub lets: Vec<LetBinding>,
    /// Nested closures inside the body.
    pub closures: Vec<Closure>,
}

/// Half-open `[start, end)` range of *significant-token indices* (indices
/// into the `sig` vector, not into `Tokens::all`).
pub type SigRange = (usize, usize);

/// The parsed file: functions plus the shared significant-token index
/// list every range points into.
#[derive(Debug)]
pub struct Ast {
    /// All functions, in source order (nested fns are hoisted to this
    /// list like everything else — flow analysis is per-function).
    pub fns: Vec<FnItem>,
    /// Indices of non-comment tokens, shared by all ranges.
    pub sig: Vec<usize>,
}

/// Every closure in `closures` and below, pre-order (each closure before
/// the ones nested in it) — the one closure-tree traversal the flow
/// passes share.
pub(crate) fn closure_tree(closures: &[Closure]) -> Vec<&Closure> {
    let mut out = Vec::new();
    for c in closures {
        out.push(c);
        out.extend(closure_tree(&c.closures));
    }
    out
}

/// Parses `tokens` into the item/closure tree. Never fails; see module
/// docs for the guarantees.
pub fn parse(tokens: &Tokens) -> Ast {
    let sig = tokens.significant();
    let toks = &tokens.all;
    let mut fns = Vec::new();
    let mut s = 0usize;
    while s < sig.len() {
        if toks[sig[s]].is_ident("fn") {
            let (item, next) = parse_fn(toks, &sig, s);
            if let Some(item) = item {
                fns.push(item);
            }
            s = next;
        } else {
            s += 1;
        }
    }
    Ast { fns, sig }
}

/// Parses a `fn` item starting at `s` (which points at the `fn` ident).
/// Returns the item (None for signatures without a body, e.g. trait
/// method declarations) and the index to resume scanning from. The
/// resume index is always *inside or just past the signature*, never past
/// the body — nested fns inside the body are found by the caller's scan.
fn parse_fn(toks: &[Token], sig: &[usize], s: usize) -> (Option<FnItem>, usize) {
    let line = toks[sig[s]].line;
    let mut j = s + 1;
    let Some(name) = sig
        .get(j)
        .and_then(|&t| toks[t].ident().map(str::to_string))
    else {
        return (None, s + 1);
    };
    j += 1;
    // Generics: `<` … `>` with `->` arrows inside (`fn f<F: Fn(u32) -> u64>`)
    // not closing the list.
    if at(toks, sig, j, '<') {
        j = skip_angle_group(toks, sig, j);
    }
    // Parameters.
    if !at(toks, sig, j, '(') {
        return (None, j);
    }
    let params_start = j + 1;
    let params_end = match_group(toks, sig, j, '(', ')');
    let params = param_names(toks, sig, params_start, params_end.saturating_sub(1));
    j = params_end;
    // Return type / where clause: run to the body `{` or a terminating `;`
    // (trait declarations). Angle groups are skipped so a `Result<… {0} …>`
    // const-generic brace cannot be mistaken for the body.
    while j < sig.len() {
        match toks[sig[j]].kind {
            TokenKind::Punct('{') => break,
            TokenKind::Punct(';') => return (None, j + 1),
            TokenKind::Punct('<') => {
                j = skip_angle_group(toks, sig, j);
            }
            _ => j += 1,
        }
    }
    if j >= sig.len() {
        return (None, j);
    }
    let body_start = j + 1;
    let body_close = match_group(toks, sig, j, '{', '}');
    let body = (body_start, body_close.saturating_sub(1).max(body_start));
    let mut lets = Vec::new();
    let mut closures = Vec::new();
    scan_block(toks, sig, body, &mut lets, &mut closures);
    (
        Some(FnItem {
            name,
            line,
            params,
            body,
            lets,
            closures,
        }),
        // Resume after the signature, not after the body: nested `fn`
        // items inside the body must be seen by the top-level scan.
        body_start,
    )
}

/// Collects `let` bindings and closures in `range`, flattening nested
/// blocks but *descending into closures separately* (their bindings land
/// on the closure node, not on the enclosing function).
fn scan_block(
    toks: &[Token],
    sig: &[usize],
    range: SigRange,
    lets: &mut Vec<LetBinding>,
    closures: &mut Vec<Closure>,
) {
    let (start, end) = range;
    let mut j = start;
    while j < end.min(sig.len()) {
        let t = &toks[sig[j]];
        match &t.kind {
            TokenKind::Ident(name) if name == "let" => {
                let (binding, next) = parse_let(toks, sig, j, end);
                // The initializer may itself contain closures.
                let init = binding.init;
                lets.push(binding);
                scan_for_closures(toks, sig, init, closures);
                j = next;
            }
            TokenKind::Ident(name) if name == "fn" => {
                // Nested fn: skip its signature; its body is scanned when
                // `parse` reaches it. Avoid double-counting its lets here.
                let close = skip_fn_item(toks, sig, j, end);
                j = close;
            }
            TokenKind::Punct('|') if closure_starts_here(toks, sig, j) => {
                let (closure, next) = parse_closure(toks, sig, j, end, false);
                closures.push(closure);
                j = next;
            }
            TokenKind::Ident(name) if name == "move" && at(toks, sig, j + 1, '|') => {
                let (closure, next) = parse_closure(toks, sig, j + 1, end, true);
                closures.push(closure);
                j = next;
            }
            _ => j += 1,
        }
    }
}

/// Like [`scan_block`] but only collects closures (used on `let`
/// initializer ranges, whose `let`s were already recorded).
fn scan_for_closures(toks: &[Token], sig: &[usize], range: SigRange, closures: &mut Vec<Closure>) {
    let (start, end) = range;
    let mut j = start;
    while j < end.min(sig.len()) {
        match &toks[sig[j]].kind {
            TokenKind::Punct('|') if closure_starts_here(toks, sig, j) => {
                let (closure, next) = parse_closure(toks, sig, j, end, false);
                closures.push(closure);
                j = next;
            }
            TokenKind::Ident(name) if name == "move" && at(toks, sig, j + 1, '|') => {
                let (closure, next) = parse_closure(toks, sig, j + 1, end, true);
                closures.push(closure);
                j = next;
            }
            _ => j += 1,
        }
    }
}

/// Parses `let <pattern> [: ty] [= init] …;` starting at the `let` ident.
fn parse_let(toks: &[Token], sig: &[usize], s: usize, limit: usize) -> (LetBinding, usize) {
    let line = toks[sig[s]].line;
    let mut names = Vec::new();
    let mut j = s + 1;
    // Pattern + optional type: everything up to the top-level `=` (not
    // `==`, `=>`, `<=`, `>=`, `!=`) or the statement end.
    let mut depth = 0i32;
    let mut eq: Option<usize> = None;
    while j < limit.min(sig.len()) {
        match &toks[sig[j]].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') => break, // `let x = loop {`? no: brace before `=` ends pattern scan defensively
            TokenKind::Punct(';') if depth <= 0 => break,
            TokenKind::Punct('=') if depth <= 0 => {
                let next_eq = at(toks, sig, j + 1, '=') || at(toks, sig, j + 1, '>');
                let prev = j
                    .checked_sub(1)
                    .map(|p| &toks[sig[p]].kind)
                    .cloned()
                    .unwrap_or(TokenKind::Punct(' '));
                let prev_cmp = matches!(
                    prev,
                    TokenKind::Punct('=')
                        | TokenKind::Punct('<')
                        | TokenKind::Punct('>')
                        | TokenKind::Punct('!')
                );
                if !next_eq && !prev_cmp {
                    eq = Some(j);
                    break;
                }
            }
            TokenKind::Ident(name) if !matches!(name.as_str(), "mut" | "ref" | "let") => {
                // In the pattern section (before the `:` type annotation /
                // `=` initializer), idents are binding names — unless they
                // are path segments (`Some`, `Ok`, enum/struct names
                // followed by `(`/`{`/`::`).
                let is_path = at(toks, sig, j + 1, '(')
                    || at(toks, sig, j + 1, '{')
                    || (at(toks, sig, j + 1, ':') && at(toks, sig, j + 2, ':'));
                if !is_path {
                    names.push(name.clone());
                }
            }
            _ => {}
        }
        // A single `:` at depth 0 starts the type annotation — nothing
        // after it binds a name.
        if depth <= 0
            && toks[sig[j]].is_punct(':')
            && !at(toks, sig, j + 1, ':')
            && !(j > s + 1 && toks[sig[j - 1]].is_punct(':'))
        {
            // Fast-forward to the `=` / `;`.
            let mut k = j + 1;
            let mut d = 0i32;
            while k < limit.min(sig.len()) {
                match &toks[sig[k]].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => d -= 1,
                    TokenKind::Punct('<') => {
                        k = skip_angle_group(toks, sig, k);
                        continue;
                    }
                    TokenKind::Punct(';') if d <= 0 => break,
                    TokenKind::Punct('=') if d <= 0 && !at(toks, sig, k + 1, '=') => break,
                    TokenKind::Punct('{') if d <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            j = k;
            if at(toks, sig, j, '=') {
                eq = Some(j);
            }
            break;
        }
        j += 1;
    }
    // Initializer: from after `=` to the statement-ending `;` at depth 0
    // (braces from `match`/`if`/`else` blocks raise the depth, so the
    // terminator of `let … else { … };` and `let x = match … { … };` is
    // found correctly).
    let (init, next) = match eq {
        Some(e) => {
            let mut k = e + 1;
            let mut d = 0i32;
            while k < limit.min(sig.len()) {
                match &toks[sig[k]].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => d += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => d -= 1,
                    TokenKind::Punct(';') if d <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            ((e + 1, k), k + 1)
        }
        None => ((j, j), j + 1),
    };
    (LetBinding { names, line, init }, next)
}

/// Decides whether the `|` at `s` opens a closure (vs bitwise/boolean or,
/// or a pattern alternative). A closure `|` follows an expression
/// *opener*: `(`, `,`, `=`, `{`, `;`, `:`, `return`, `=>`, `.method(`…
/// anything that cannot end an operand. A `|` after an operand
/// (ident/literal/`)`/`]`) is an operator.
fn closure_starts_here(toks: &[Token], sig: &[usize], s: usize) -> bool {
    let Some(p) = s.checked_sub(1) else {
        return true;
    };
    match &toks[sig[p]].kind {
        TokenKind::Ident(name) => matches!(
            name.as_str(),
            "return" | "move" | "else" | "in" | "break" | "match" | "if" | "while"
        ),
        TokenKind::Literal | TokenKind::Lifetime => false,
        TokenKind::Punct(c) => !matches!(c, ')' | ']' | '}'),
        TokenKind::Comment(_) => true,
    }
}

/// Parses a closure starting at the opening `|` (caller already consumed
/// a `move` if present).
fn parse_closure(
    toks: &[Token],
    sig: &[usize],
    bar: usize,
    limit: usize,
    is_move: bool,
) -> (Closure, usize) {
    let line = toks[sig[bar]].line;
    let mut params = Vec::new();
    let nullary = at(toks, sig, bar + 1, '|');
    let mut j;
    if nullary {
        j = bar + 2;
    } else {
        // Parameter list to the closing `|` (skipping over any type
        // annotations and their bracket groups).
        j = bar + 1;
        let mut depth = 0i32;
        let mut in_type = false;
        while j < limit.min(sig.len()) {
            match &toks[sig[j]].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('<') => {
                    j = skip_angle_group(toks, sig, j);
                    continue;
                }
                TokenKind::Punct('|') if depth <= 0 => {
                    j += 1;
                    break;
                }
                TokenKind::Punct(':') if depth <= 0 => in_type = true,
                TokenKind::Punct(',') if depth <= 0 => in_type = false,
                TokenKind::Ident(name) if !in_type && !matches!(name.as_str(), "mut" | "ref") => {
                    params.push(name.clone());
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Body: a block `{ … }`, or a bare expression up to `,` / `)` / `;`
    // at depth 0.
    let (body, next) = if at(toks, sig, j, '{') {
        let close = match_group(toks, sig, j, '{', '}');
        ((j + 1, close.saturating_sub(1).max(j + 1)), close)
    } else {
        let start = j;
        let mut k = j;
        let mut d = 0i32;
        while k < limit.min(sig.len()) {
            match &toks[sig[k]].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => d += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                }
                TokenKind::Punct(',') | TokenKind::Punct(';') if d <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        ((start, k), k)
    };
    let mut lets = Vec::new();
    let mut closures = Vec::new();
    scan_block(toks, sig, body, &mut lets, &mut closures);
    (
        Closure {
            line,
            is_move,
            params,
            nullary,
            body,
            lets,
            closures,
        },
        next,
    )
}

/// Skips a nested `fn` item's signature inside a body scan; returns the
/// index of its body-opening `{` + 1 (so the nested body is scanned as
/// part of the *nested* fn when `parse` reaches it, not double-counted
/// here). The nested body is skipped entirely.
fn skip_fn_item(toks: &[Token], sig: &[usize], s: usize, limit: usize) -> usize {
    let mut j = s + 1;
    while j < limit.min(sig.len()) {
        match toks[sig[j]].kind {
            TokenKind::Punct('{') => return match_group(toks, sig, j, '{', '}'),
            TokenKind::Punct(';') => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Parameter names between `start..end` (the inside of the parens):
/// idents directly followed by `:` (excluding `self` and path `::`).
fn param_names(toks: &[Token], sig: &[usize], start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = start;
    while j < end.min(sig.len()) {
        if let TokenKind::Ident(name) = &toks[sig[j]].kind {
            let single_colon = at(toks, sig, j + 1, ':') && !at(toks, sig, j + 2, ':');
            let prev_colon = j > start && toks[sig[j - 1]].is_punct(':');
            if single_colon && !prev_colon && name != "self" {
                out.push(name.clone());
            }
        }
        j += 1;
    }
    out
}

/// Index just past the matching `close` for the `open` at `s`. Returns
/// `sig.len()` when unbalanced (truncated input).
pub(crate) fn match_group(
    toks: &[Token],
    sig: &[usize],
    s: usize,
    open: char,
    close: char,
) -> usize {
    let mut depth = 0i32;
    let mut j = s;
    while j < sig.len() {
        if toks[sig[j]].is_punct(open) {
            depth += 1;
        } else if toks[sig[j]].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    sig.len()
}

/// Skips a `<` … `>` group starting at `s`, treating `->`'s `>` as not
/// closing (function-trait sugar inside generics). Returns the index just
/// past the closing `>`, or the first position where the group cannot
/// continue (unbalanced input).
fn skip_angle_group(toks: &[Token], sig: &[usize], s: usize) -> usize {
    let mut depth = 0i32;
    let mut j = s;
    while j < sig.len() {
        match toks[sig[j]].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                let arrow = j > 0 && toks[sig[j - 1]].is_punct('-');
                if !arrow {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
            }
            // A `;` or `{` at angle depth means this wasn't a generic
            // list after all (e.g. `a < b` comparison): bail out.
            TokenKind::Punct(';') | TokenKind::Punct('{') => return j,
            _ => {}
        }
        j += 1;
    }
    sig.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    #[test]
    fn fn_names_params_and_lets() {
        let ast = parse_src(
            "fn add(a: u32, b: u32) -> u32 { let sum = a + b; sum }\n\
             fn other(x: &str) { let (p, q) = split(x); }\n",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].name, "add");
        assert_eq!(ast.fns[0].params, ["a", "b"]);
        assert_eq!(ast.fns[0].lets.len(), 1);
        assert_eq!(ast.fns[0].lets[0].names, ["sum"]);
        assert_eq!(ast.fns[1].lets[0].names, ["p", "q"]);
    }

    #[test]
    fn generic_fn_with_fn_trait_bound() {
        let ast = parse_src("fn run<F: Fn(u32) -> u64>(task: F) -> u64 { task(1) }\n");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].params, ["task"]);
    }

    #[test]
    fn lets_inside_control_flow_are_flattened() {
        let ast = parse_src(
            "fn f(v: &[u32]) { for x in v { let y = x + 1; use_it(y); } if t { let z = 2; } }\n",
        );
        let names: Vec<_> = ast.fns[0]
            .lets
            .iter()
            .flat_map(|l| l.names.clone())
            .collect();
        assert_eq!(names, ["y", "z"]);
    }

    #[test]
    fn let_with_type_annotation_and_match_init() {
        let ast = parse_src(
            "fn f(s: &str) { let n: usize = s.parse().ok()?; let m = match n { 0 => 1, _ => n };\n}\n",
        );
        let l = &ast.fns[0].lets;
        assert_eq!(l[0].names, ["n"]);
        assert_eq!(l[1].names, ["m"]);
        // The init ranges are non-empty and in bounds.
        for b in l {
            assert!(b.init.0 <= b.init.1 && b.init.1 <= ast.sig.len());
        }
    }

    #[test]
    fn closures_move_nullary_and_captures() {
        let ast = parse_src(
            "fn f() { let tasks: Vec<_> = (0..9).map(|k| move || { let local = k; work(local) }).collect(); }\n",
        );
        let outer = &ast.fns[0].closures;
        assert_eq!(outer.len(), 1, "{outer:?}");
        assert_eq!(outer[0].params, ["k"]);
        assert!(!outer[0].nullary);
        let inner = &outer[0].closures;
        assert_eq!(inner.len(), 1);
        assert!(inner[0].nullary && inner[0].is_move);
        assert_eq!(inner[0].lets[0].names, ["local"]);
        // The tree walk visits the outer closure before the nested one.
        let tree = closure_tree(&ast.fns[0].closures);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].params, ["k"]);
        assert!(tree[1].nullary && tree[1].is_move);
    }

    #[test]
    fn or_operator_is_not_a_closure() {
        let ast = parse_src("fn f(a: bool, b: bool) -> bool { a | b }\n");
        assert!(ast.fns[0].closures.is_empty());
    }

    #[test]
    fn nested_fn_lets_stay_on_the_nested_fn() {
        let ast = parse_src("fn outer() { fn inner() { let x = 1; } let y = 2; }\n");
        assert_eq!(ast.fns.len(), 2);
        let outer = ast.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = ast.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_names: Vec<_> = outer.lets.iter().flat_map(|l| l.names.clone()).collect();
        let inner_names: Vec<_> = inner.lets.iter().flat_map(|l| l.names.clone()).collect();
        assert_eq!(outer_names, ["y"]);
        assert_eq!(inner_names, ["x"]);
    }

    #[test]
    fn let_else_init_spans_the_else_block() {
        let ast =
            parse_src("fn f(o: Option<u32>) { let Some(v) = o else { return; }; use_it(v); }\n");
        assert_eq!(ast.fns[0].lets.len(), 1);
        assert_eq!(ast.fns[0].lets[0].names, ["v"]);
    }

    #[test]
    fn garbage_never_panics_and_spans_stay_in_bounds() {
        for src in [
            "fn",
            "fn (",
            "fn f(",
            "fn f() {",
            "let | = |;",
            "fn f() { |x { } }",
            "}}}}((((",
            "fn f<T(] { let = ; }",
        ] {
            let ast = parse_src(src);
            for f in &ast.fns {
                assert!(f.body.0 <= ast.sig.len() && f.body.1 <= ast.sig.len());
                for l in &f.lets {
                    assert!(l.init.1 <= ast.sig.len());
                }
            }
        }
    }
}
