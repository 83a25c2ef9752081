//! The dataflow half of the per-fn walk in [`crate::facts::analyze_file`]:
//! which calls introduce and sanitize taint, how `let` bindings carry it,
//! and what a tainted value reaching a sink means.
//!
//! The robustness contract (DESIGN.md §9) says malformed ITC'02 / plan /
//! pattern / vector input must surface as typed errors. The token rules
//! (`panic-path`, `unchecked-index`, `as-narrowing`) ban the *syntactic*
//! crash sites; the taint walk closes the flow gap: a value that
//! **originates from a reader or parse call** must not reach
//!
//! - an arithmetic sink (`+`, `-`, `*`, including compound assignment)
//!   outside a `checked_*`/`saturating_*`/`wrapping_*`/`try_from`
//!   construction → `taint-arith`;
//! - an indexing sink (`expr[…]`, `copy_from_slice`, `split_at`,
//!   `split_off`) without a *preceding bounds guard on the same binding*
//!   → `taint-index`.
//!
//! Sources are the direct reader calls (`read_*`, `from_str`, `.parse()`,
//! `from_le_bytes`-family byte loads) **plus a same-file call summary**:
//! any function in the file whose body calls a source becomes a source
//! itself (computed to fixpoint), so `planfile::num` — a thin wrapper
//! around `str::parse` — taints its callers' bindings exactly like a bare
//! `.parse()` would. Taint then propagates through `let` bindings in
//! source order, and every diagnostic renders the full chain
//! (`sink ← binding ← source call at line N`) so a finding is auditable
//! without re-running the analysis.
//!
//! Each binding carries up to two taint roots, so neither masks the
//! other: **source-rooted** (it derives from a source call — the
//! `taint-*` rules, in the untrusted-parser scope) and
//! **parameter-rooted** (it derives from the enclosing fn's parameter —
//! the sink summaries the interprocedural `cross-taint` rule in
//! [`crate::graph`] consumes). Call arguments carry either kind into the
//! argument flows.
//!
//! Known false-negative classes are documented in DESIGN.md §13 (taint
//! through struct fields, through collections, and across files).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{at, ident_at, Token, TokenKind};
use crate::parse::{Ast, LetBinding};

/// Method/function names that introduce taint when called.
pub(crate) fn is_source_name(name: &str) -> bool {
    name == "parse"
        || name == "from_str"
        || name.starts_with("read_")
        || name == "from_le_bytes"
        || name == "from_be_bytes"
        || name == "from_ne_bytes"
}

/// Names whose call *sanitizes* its result: a binding built through one
/// of these is range-checked (or explicitly wrapping) and no longer
/// attacker-steerable into a panic/overflow.
pub(crate) fn is_sanitizer_name(name: &str) -> bool {
    name == "try_from"
        || name == "try_into"
        || name == "clamp"
        || name == "min"
        || name == "len"
        || name.starts_with("checked_")
        || name.starts_with("saturating_")
        || name.starts_with("wrapping_")
}

/// Call sinks that panic on out-of-range lengths/indices.
pub(crate) const SLICE_SINKS: &[&str] =
    &["copy_from_slice", "split_at", "split_at_mut", "split_off"];

/// One root of a binding's taint: the enclosing fn's parameter it derives
/// from (`None`: a source call), with the rendered chain back to it.
#[derive(Debug, Clone)]
pub(crate) struct Root {
    pub(crate) param: Option<String>,
    pub(crate) chain: String,
}

/// A binding's taint: its roots in arrival order, at most one
/// source-rooted and one parameter-rooted, so neither masks the other.
/// Empty means clean.
pub(crate) type Taint = Vec<Root>;

/// A sink a tainted value can reach.
pub(crate) enum Sink<'a> {
    /// Raw `+`/`-`/`*` (the operator).
    Arith(char),
    /// `expr[…]` indexing.
    Index,
    /// A [`SLICE_SINKS`] call (the method name).
    Slice(&'a str),
}

impl Sink<'_> {
    /// The rule a source-rooted hit reports under.
    pub(crate) fn rule(&self) -> &'static str {
        match self {
            Sink::Arith(_) => "taint-arith",
            Sink::Index | Sink::Slice(_) => "taint-index",
        }
    }

    fn message(&self, a: &str, chain: &str) -> String {
        match self {
            Sink::Arith(op) => {
                let name = match op {
                    '+' => "add",
                    '-' => "sub",
                    _ => "mul",
                };
                format!(
                    "`{a}` reaches raw `{op}` ({chain}): untrusted arithmetic can overflow; use \
                     `checked_{name}`/`saturating_{name}` or widen via `try_from`"
                )
            }
            Sink::Index => format!(
                "`{a}` indexes a slice unguarded ({chain}): a corrupt input can push it out of \
                 bounds; check it against the length or use `.get({a})`"
            ),
            Sink::Slice(name) => format!(
                "`{a}` reaches `{name}(…)` unguarded ({chain}): a corrupt input can make the \
                 length panic; bounds-check `{a}` first or use a fallible split"
            ),
        }
    }
}

/// One fn's dataflow state as the walk advances through its body in
/// source order. Flow sensitivity comes for free: a guard recognized at
/// token *i* protects every sink at tokens *> i*.
#[derive(Debug, Default)]
pub(crate) struct FlowState {
    /// Tainted bindings (parameters start parameter-rooted).
    pub(crate) tainted: BTreeMap<String, Taint>,
    /// Bindings bounds-guarded since their last tainting `let`.
    pub(crate) guarded: BTreeSet<String>,
    /// Parameter → first raw-arithmetic and first unguarded-index line.
    pub(crate) sinks: BTreeMap<String, (Option<u32>, Option<u32>)>,
}

impl FlowState {
    /// Fresh state for a fn with these parameters.
    pub(crate) fn new(params: &[String]) -> Self {
        let tainted = params
            .iter()
            .map(|p| {
                let chain = format!("parameter `{p}`");
                (
                    p.clone(),
                    vec![Root {
                        param: Some(p.clone()),
                        chain,
                    }],
                )
            })
            .collect();
        FlowState {
            tainted,
            ..FlowState::default()
        }
    }

    /// Applies a `let` whose initializer the walk has fully passed.
    /// Re-binding a name to a clean value clears its taint
    /// (`let n = usize::try_from(n)?;`).
    pub(crate) fn bind(
        &mut self,
        l: &LetBinding,
        toks: &[Token],
        sig: &[usize],
        sources: &BTreeSet<String>,
    ) {
        let t = init_taint(l, toks, sig, sources, &self.tainted);
        for name in &l.names {
            if t.is_empty() {
                self.tainted.remove(name);
            } else {
                self.tainted.insert(name.clone(), t.clone());
                self.guarded.remove(name);
            }
        }
    }

    /// Records binding `a` reaching `sink` at `line` (index and slice
    /// sinks respect guards): a parameter root extends that parameter's
    /// sink summary, and a source root yields the `taint-*` message when
    /// `report` is set.
    pub(crate) fn reach(
        &mut self,
        a: &str,
        sink: &Sink,
        line: u32,
        report: bool,
    ) -> Option<String> {
        let roots = self.tainted.get(a)?;
        let arith = matches!(sink, Sink::Arith(_));
        if !arith && self.guarded.contains(a) {
            return None;
        }
        let mut message = None;
        for root in roots {
            match &root.param {
                Some(p) => {
                    let (first_arith, first_index) = self.sinks.entry(p.clone()).or_default();
                    if arith { first_arith } else { first_index }.get_or_insert(line);
                }
                None if report => message = Some(sink.message(a, &root.chain)),
                None => {}
            }
        }
        message
    }
}

/// Same-file source summary: seed with the builtin source names, then a
/// fixpoint over function bodies — a fn that calls a source is a source.
pub(crate) fn derived_sources(ast: &Ast, toks: &[Token]) -> BTreeSet<String> {
    let mut sources: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for f in &ast.fns {
            if sources.contains(&f.name) {
                continue;
            }
            let (start, end) = f.body;
            let calls_source = (start..end.min(ast.sig.len())).any(|j| {
                ident_at(toks, &ast.sig, j).is_some_and(|name| {
                    (is_source_name(name) || sources.contains(name)) && is_call(toks, &ast.sig, j)
                })
            });
            if calls_source {
                sources.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            return sources;
        }
    }
}

/// True when the ident at sig index `j` is called: followed by `(`,
/// optionally through a turbofish (`parse::<u32>(`).
pub(crate) fn is_call(toks: &[Token], sig: &[usize], j: usize) -> bool {
    call_open(toks, sig, j).is_some()
}

/// The sig index of the call's opening `(` for the callee name at `j`,
/// stepping over a turbofish.
pub(crate) fn call_open(toks: &[Token], sig: &[usize], j: usize) -> Option<usize> {
    if at(toks, sig, j + 1, '(') {
        return Some(j + 1);
    }
    // `name::<…>(`
    if !(at(toks, sig, j + 1, ':') && at(toks, sig, j + 2, ':') && at(toks, sig, j + 3, '<')) {
        return None;
    }
    let mut depth = 0i32;
    for k in j + 3..sig.len() {
        match toks[sig[k]].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return at(toks, sig, k + 1, '(').then_some(k + 1);
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct('{') => return None,
            _ => {}
        }
    }
    None
}

/// Taint for a `let` initializer. A sanitizer call anywhere cleans the
/// binding. Otherwise a source call makes it source-rooted only — the
/// call yields a *parsed* value, whatever its receiver was — and without
/// one, it inherits the roots of its tainted idents in token order, the
/// first of each kind.
fn init_taint(
    l: &LetBinding,
    toks: &[Token],
    sig: &[usize],
    sources: &BTreeSet<String>,
    tainted: &BTreeMap<String, Taint>,
) -> Taint {
    let (start, end) = l.init;
    let mut call: Option<String> = None;
    let mut via = Taint::new();
    for j in start..end.min(sig.len()) {
        let Some(name) = ident_at(toks, sig, j) else {
            continue;
        };
        if is_call(toks, sig, j) {
            if is_sanitizer_name(name) {
                return Taint::new();
            }
            if call.is_none() && (is_source_name(name) || sources.contains(name)) {
                call = Some(format!("← `{name}(…)` at line {}", toks[sig[j]].line));
            }
        } else if let Some(roots) = tainted.get(name) {
            for r in roots {
                if !via.iter().any(|v| v.param.is_some() == r.param.is_some()) {
                    let chain = format!("← `{name}` {}", truncate_chain(&r.chain));
                    via.push(Root {
                        param: r.param.clone(),
                        chain,
                    });
                }
            }
        }
    }
    match call {
        Some(chain) => vec![Root { param: None, chain }],
        None => via,
    }
}

/// Keeps at most two links of a chain so messages stay readable.
pub(crate) fn truncate_chain(chain: &str) -> String {
    let mut parts: Vec<&str> = chain.split(" ← ").collect();
    if parts.len() > 2 {
        parts.truncate(2);
        format!("{} ← …", parts.join(" ← "))
    } else {
        chain.to_string()
    }
}

/// True when the token adjacent to `j` (either side) is a comparison
/// operator (`<`, `>`, `<=`, `>=`, `==`, `!=`).
pub(crate) fn is_comparison_neighbor(toks: &[Token], sig: &[usize], j: usize) -> bool {
    let cmp_at = |k: usize| -> bool {
        let Some(&t) = sig.get(k) else { return false };
        match toks[t].kind {
            TokenKind::Punct('<') | TokenKind::Punct('>') => true,
            TokenKind::Punct('=') => {
                // `==` only (a bare `=` is assignment): one neighbor must
                // also be `=` or `!`.
                (k > 0
                    && matches!(
                        toks[sig[k - 1]].kind,
                        TokenKind::Punct('=') | TokenKind::Punct('!')
                    ))
                    || sig.get(k + 1).is_some_and(|&n| toks[n].is_punct('='))
            }
            _ => false,
        }
    };
    (j > 0 && cmp_at(j - 1)) || cmp_at(j + 1)
}

/// Idents inside the group opened at sig index `open` (a `(`).
pub(crate) fn idents_in_group(toks: &[Token], sig: &[usize], open: usize) -> Vec<String> {
    idents_in_matched(toks, sig, open, '(', ')')
}

/// Idents inside the bracket group opened at sig index `open` (a `[`).
pub(crate) fn idents_in_bracket_group(toks: &[Token], sig: &[usize], open: usize) -> Vec<String> {
    idents_in_matched(toks, sig, open, '[', ']')
}

fn idents_in_matched(
    toks: &[Token],
    sig: &[usize],
    open: usize,
    oc: char,
    cc: char,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < sig.len() {
        match &toks[sig[j]].kind {
            TokenKind::Punct(c) if *c == oc => depth += 1,
            TokenKind::Punct(c) if *c == cc => {
                depth -= 1;
                if depth == 0 {
                    return out;
                }
            }
            TokenKind::Ident(name) if depth > 0 => out.push(name.clone()),
            _ => {}
        }
        j += 1;
    }
    out
}

/// True when the `+`/`-`/`*` at `j` is a binary operator (an operand on
/// the left) rather than a unary minus, deref, arrow, or attribute
/// position. Compound assignment (`x += y`) counts: it is arithmetic.
pub(crate) fn is_binary_arith(toks: &[Token], sig: &[usize], j: usize) -> bool {
    let Some(p) = j.checked_sub(1) else {
        return false;
    };
    let left_operand = match &toks[sig[p]].kind {
        TokenKind::Ident(name) => !is_keywordish(name),
        TokenKind::Literal => true,
        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
        _ => false,
    };
    if !left_operand {
        return false;
    }
    // `->` is not arithmetic.
    if toks[sig[j]].is_punct('-') && at(toks, sig, j + 1, '>') {
        return false;
    }
    // `*` immediately followed by another operator is not a multiply.
    if toks[sig[j]].is_punct('*') && sig.get(j + 1).is_none() {
        return false;
    }
    true
}

fn is_keywordish(name: &str) -> bool {
    matches!(
        name,
        "return" | "break" | "in" | "if" | "while" | "match" | "else" | "as" | "let" | "move"
    )
}

/// The right-hand operand ident of the operator at `j`: the next ident,
/// stepping over a compound-assign `=`.
pub(crate) fn arith_rhs<'t>(toks: &'t [Token], sig: &[usize], j: usize) -> Option<&'t str> {
    let mut k = j + 1;
    if at(toks, sig, k, '=') {
        k += 1;
    }
    ident_at(toks, sig, k)
}

#[cfg(test)]
mod tests {
    /// The `taint-*` findings of the per-file pass at an untrusted-parser
    /// path.
    fn run(src: &str) -> Vec<(String, u32, String)> {
        crate::lint_source("crates/tdcsoc/src/planfile.rs", src)
            .into_iter()
            .filter(|d| d.rule.starts_with("taint-"))
            .map(|d| (d.rule, d.line, d.message))
            .collect()
    }

    #[test]
    fn parse_to_raw_add_is_flagged_with_chain() {
        let hits = run("fn f(s: &str) -> u64 { let n: u64 = s.parse().ok()?; n + 1 }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "taint-arith");
        assert!(hits[0].2.contains("`n`"), "{}", hits[0].2);
        assert!(hits[0].2.contains("parse"), "{}", hits[0].2);
    }

    #[test]
    fn checked_construction_is_clean() {
        assert!(run(
            "fn f(s: &str) -> Option<u64> { let n: u64 = s.parse().ok()?; n.checked_add(1) }\n"
        )
        .is_empty());
    }

    #[test]
    fn try_from_sanitizes_the_binding() {
        assert!(run(
            "fn f(s: &str) -> usize { let n: u64 = s.parse().ok()?; let i = usize::try_from(n).ok()?; i + 1 }\n"
        )
        .iter()
        .all(|(r, _, _)| r != "taint-arith"));
    }

    #[test]
    fn taint_propagates_through_bindings() {
        let hits = run(
            "fn f(s: &str) { let n: u64 = s.parse().ok()?; let m = n; let v = m * 2; keep(v); }\n",
        );
        assert!(
            hits.iter()
                .any(|(r, _, m)| r == "taint-arith" && m.contains("`m`")),
            "{hits:?}"
        );
    }

    #[test]
    fn unguarded_index_flagged_guarded_clean() {
        let bad = "fn f(s: &str, v: &[u8]) { let i: usize = s.parse().ok()?; use_it(v[i]); }\n";
        let hits = run(bad);
        assert!(hits.iter().any(|(r, _, _)| r == "taint-index"), "{hits:?}");
        let good = "fn f(s: &str, v: &[u8]) { let i: usize = s.parse().ok()?; \
                    if i < v.len() { use_it(v[i]); } }\n";
        assert!(
            run(good).iter().all(|(r, _, _)| r != "taint-index"),
            "guard must clear the index sink"
        );
    }

    #[test]
    fn slice_call_sinks_flagged() {
        let bad = "fn f(s: &str, v: &[u8]) { let n: usize = s.parse().ok()?; \
                   let (a, b) = v.split_at(n); use_it(a, b); }\n";
        let hits = run(bad);
        assert!(hits
            .iter()
            .any(|(r, _, m)| r == "taint-index" && m.contains("split_at")));
    }

    #[test]
    fn derived_source_functions_taint_their_callers() {
        let src = "fn num(tok: &str) -> u64 { tok.parse().unwrap_or(0) }\n\
                   fn f(s: &str) -> u64 { let t = num(s); t + 1 }\n";
        let hits = run(src);
        assert!(
            hits.iter()
                .any(|(r, _, m)| r == "taint-arith" && m.contains("num")),
            "{hits:?}"
        );
    }

    #[test]
    fn untainted_arithmetic_is_clean() {
        assert!(run("fn f(a: u64, b: u64) -> u64 { a + b * 2 }\n").is_empty());
    }

    #[test]
    fn closure_lets_bind_in_the_enclosing_walk() {
        // Bindings inside closures carry taint like the fn's own.
        let hits = run(
            "fn f(s: &str) { each(|| { let n: u64 = s.parse().unwrap_or(0); \
                        keep(n + 1); }); }\n",
        );
        assert!(
            hits.iter()
                .any(|(r, _, m)| r == "taint-arith" && m.contains("`n`")),
            "{hits:?}"
        );
    }

    #[test]
    fn a_source_call_outranks_an_earlier_tainted_ident() {
        // `m`'s chain names the call it was parsed by, not the tainted
        // `n` that precedes the call in its initializer.
        let hits = run("fn f(s: &str) -> u64 {\n let n: u64 = s.parse().ok()?;\n \
                        let m: u64 = n.pow(s.parse().ok()?);\n m * 2\n}\n");
        let m = hits
            .iter()
            .find(|(_, _, msg)| msg.contains("`m`"))
            .expect("m reaches `*`");
        assert!(m.2.contains("(← `parse(…)` at line 3)"), "{}", m.2);
    }

    #[test]
    fn parameter_roots_do_not_mask_source_roots() {
        // `m` derives from parameter `p` first and from parsed `n` second:
        // the source root still reports, and the parameter root still
        // lands in `p`'s sink summary.
        let src = "fn f(p: u64, s: &str) -> u64 { let n: u64 = s.parse().ok()?; \
                   let m = combine(p, n); m * 2 }\n";
        let hits = run(src);
        assert!(
            hits.iter()
                .any(|(r, _, m)| r == "taint-arith" && m.contains("`m` reaches raw `*`")),
            "{hits:?}"
        );
        let facts = crate::facts::analyze_file("crates/tdcsoc/src/planfile.rs", src).facts;
        let sink = facts.fns[0].param_sinks.iter().find(|s| s.param == "p");
        assert!(sink.is_some_and(|s| s.arith.is_some()), "{facts:?}");
    }
}
