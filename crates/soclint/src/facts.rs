//! The per-file pass: [`analyze_file`] lexes and parses a file once and
//! produces everything soclint knows about it — the single-file
//! diagnostics and the **facts** the workspace call-graph analyses in
//! [`crate::graph`] consume. The result depends only on the path and the
//! contents, so [`crate::cache`] stores it by content fingerprint while
//! the cheap global fixpoints re-run every time.
//!
//! Over the one token stream and tree, the pass runs:
//!
//! - the token-pattern rules ([`crate::rules`]);
//! - one **job-thunk walk** per closure tree ([`crate::captures`]:
//!   `capture-mut` and `dsan-escape`, capture crates only);
//! - one **taint walk** per `fn` (dataflow in [`crate::taint`]). It
//!   reports source-rooted sinks as `taint-arith`/`taint-index` in the
//!   untrusted-parser scope, and extracts the fn's facts:
//!   - every **call site** (free, path-qualified, and method calls, with
//!     receiver names for the resolution heuristics);
//!   - every `loop`/`while`/`for` with the call sites inside its body and
//!     whether the body polls `Deadline::expired` / `CancelToken`
//!     directly;
//!   - the first **panic site** (`unwrap`/`expect`, `panic!`-family
//!     macros, unguarded `expr[…]` indexing — the `panic-path` /
//!     `unchecked-index` predicates);
//!   - per-parameter **sink summaries** (parameter reaches raw arithmetic
//!     or an unguarded index locally) plus **argument flows**: which
//!     call-site argument positions carry a parameter onward or carry
//!     same-file source taint (`parse`/`read_*`), with the rendered chain.
//!
//! The file's `use` imports (crate hints for call resolution) and its
//! suppression table complete the facts. Facts exclude test-span code
//! entirely, so the global analyses never need span information. Like the
//! front end, the pass never panics on garbage input.

use std::collections::BTreeSet;

use crate::captures;
use crate::lexer::{at, ident_at, lex, Token, TokenKind};
use crate::parse::{closure_tree, match_group, parse, Closure, FnItem, LetBinding};
use crate::rules::{check_tokens, is_index_expr, panic_site, parse_allows, Allows, Diagnostic};
use crate::scope::{classify, test_spans, TestSpans};
use crate::taint::{self, FlowState, Root, Sink};

/// Method names whose call counts as polling the cancellation contract
/// (`robust::Deadline::expired`, `CancelToken::is_cancelled` /
/// `cancel_requested`).
pub const POLL_NAMES: &[&str] = &["expired", "is_cancelled", "cancel_requested"];

/// One call site inside a function body (test spans excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Callee name (the ident directly before the argument list).
    pub name: String,
    /// Path qualifier for `Qual::name(…)` calls.
    pub qual: Option<String>,
    /// True for method calls (`recv.name(…)`).
    pub method: bool,
    /// Receiver ident for method calls whose receiver is a plain name.
    pub recv: Option<String>,
}

/// Loop kinds; the cancellation rule only audits `loop` and `while`
/// (`for` iterates a bounded iterator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// A bare `loop { … }`.
    Loop,
    /// `while …` / `while let …`.
    While,
    /// `for … in …`.
    For,
}

impl LoopKind {
    /// The keyword, for messages and serialization.
    pub fn keyword(self) -> &'static str {
        match self {
            LoopKind::Loop => "loop",
            LoopKind::While => "while",
            LoopKind::For => "for",
        }
    }
}

/// One loop statement and what its body contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFact {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Which loop form.
    pub kind: LoopKind,
    /// The body polls a cancellation primitive directly.
    pub polls: bool,
    /// Indices into the owning [`FnFact::calls`] for call sites whose
    /// name token sits inside the loop body.
    pub calls: Vec<u32>,
}

/// The first panic-capable site in a function (outside test spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFact {
    /// 1-based line of the site.
    pub line: u32,
    /// Human-readable description (`` `.unwrap()` ``, `` `panic!` ``,
    /// `slice indexing`).
    pub what: String,
}

/// Local sink summary for one parameter: the first line where the
/// parameter (or a binding derived from it) reaches a raw arithmetic or
/// unguarded index sink in this function's own body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSink {
    /// Parameter name.
    pub param: String,
    /// First raw `+`/`-`/`*` line, if any.
    pub arith: Option<u32>,
    /// First unguarded index / slice-sink line, if any.
    pub index: Option<u32>,
}

/// One tainted argument at a call site: either a parameter being
/// forwarded (`root = Some(param)`) or same-file source taint reaching the
/// call (`root = None`, with the rendered chain for diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgFlow {
    /// Index into the owning [`FnFact::calls`].
    pub call: u32,
    /// 0-based argument position.
    pub pos: u32,
    /// `Some(param)` when the taint root is the enclosing function's
    /// parameter; `None` when it originates from a source call.
    pub root: Option<String>,
    /// Rendered taint chain (`` `n` ← `parse(…)` at line 12 ``).
    pub chain: String,
    /// The carrying binding was bounds-guarded before the call.
    pub guarded: bool,
}

/// Everything the global analyses know about one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter binding names, in order.
    pub params: Vec<String>,
    /// The body polls a cancellation primitive directly.
    pub polls: bool,
    /// First panic-capable site, if any.
    pub panic: Option<PanicFact>,
    /// Call sites, in source order.
    pub calls: Vec<CallFact>,
    /// Loop statements, in source order.
    pub loops: Vec<LoopFact>,
    /// Per-parameter local sink summaries (parameters with no sink are
    /// omitted).
    pub param_sinks: Vec<ParamSink>,
    /// Tainted call arguments, in source order.
    pub arg_flows: Vec<ArgFlow>,
}

/// All facts for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Functions outside test spans (empty for all-test files).
    pub fns: Vec<FnFact>,
    /// `use` imports as (root segment, leaf name) pairs — crate hints for
    /// call resolution.
    pub uses: Vec<(String, String)>,
    /// The file's suppressions; the workspace rules consult them.
    pub allows: Allows,
}

/// One file's complete per-file analysis: the local diagnostics plus the
/// facts for the global passes. This is the unit the incremental cache
/// stores and restores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAnalysis {
    /// Local (single-file) diagnostics from [`crate::rules`].
    pub diags: Vec<Diagnostic>,
    /// Findings an `allow` directive suppressed — surfaced as
    /// `note`-level SARIF results so suppressions stay auditable.
    pub allowed: Vec<Diagnostic>,
    /// Facts for [`crate::graph`].
    pub facts: FileFacts,
}

/// The per-file pass: lex, classify, find test spans and allows, parse
/// and summarize same-file sources once each, then run every per-file
/// rule and extract the facts over that one result.
pub fn analyze_file(path: &str, source: &str) -> FileAnalysis {
    let tokens = lex(source);
    let toks = &tokens.all;
    let scope = classify(path);
    let spans = test_spans(&tokens);
    let (allows, allow_errors) = parse_allows(&tokens);
    let ast = parse(&tokens);
    let sig = &ast.sig;

    let mut diags = Vec::new();
    let mut allowed = Vec::new();
    let mut push = |rule: &str, line: u32, message: String| {
        let d = Diagnostic {
            file: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        };
        if allows.permits(rule, line) {
            allowed.push(d);
        } else {
            diags.push(d);
        }
    };
    for (line, message) in allow_errors {
        push("allow-syntax", line, message);
    }
    check_tokens(&scope, toks, sig, &spans, &mut push);

    let mut fns = Vec::new();
    if !scope.all_test {
        let cx = FileCx {
            toks,
            sig,
            spans: &spans,
            sources: taint::derived_sources(&ast, toks),
            report_taint: scope.untrusted_parser,
        };
        // Per fn: its closure tree, and its `let`s merged with its
        // closures' in source order.
        let trees: Vec<(Vec<&Closure>, Vec<&LetBinding>)> = ast
            .fns
            .iter()
            .map(|f| {
                let tree = closure_tree(&f.closures);
                let mut lets: Vec<_> = f
                    .lets
                    .iter()
                    .chain(tree.iter().flat_map(|c| &c.lets))
                    .collect();
                lets.sort_by_key(|l| l.init.0);
                (tree, lets)
            })
            .collect();
        let bound = if scope.capture_checked {
            let lets = trees.iter().flat_map(|(_, lets)| lets.iter().copied());
            captures::dsan_bound_names(lets, toks, sig)
        } else {
            BTreeSet::new()
        };
        let in_test = |line: u32| spans.contains(line);
        for (f, (tree, lets)) in ast.fns.iter().zip(&trees) {
            // A fn inside a test span lies wholly in test code: no rule
            // applies and it contributes no facts.
            if in_test(f.line) {
                continue;
            }
            if scope.capture_checked {
                captures::check_thunks(tree, toks, sig, &bound, &in_test, &mut push);
            }
            fns.push(walk_fn(f, lets, &cx, &mut push));
        }
    }
    diags.sort();
    allowed.sort();
    FileAnalysis {
        diags,
        allowed,
        facts: FileFacts {
            path: path.to_string(),
            fns,
            uses: extract_uses(toks, sig),
            allows,
        },
    }
}

/// What every fn walk in one file shares.
struct FileCx<'a> {
    toks: &'a [Token],
    sig: &'a [usize],
    spans: &'a TestSpans,
    /// Builtin plus same-file derived source names.
    sources: BTreeSet<String>,
    /// Source-rooted sinks report `taint-*` (untrusted-parser scope).
    report_taint: bool,
}

/// Control-flow keywords that can directly precede `(` without being a
/// call.
fn is_ctrl_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "move"
            | "else"
            | "let"
            | "fn"
            | "where"
    )
}

/// The one taint walk per fn: a linear pass over the body range, binding
/// `lets` (the fn's and its closures', in source order) as it passes
/// them. Closures are included — their calls and sinks are attributed to
/// the enclosing fn, which is exactly what the job-thunk analyses want.
fn walk_fn(
    f: &FnItem,
    lets: &[&LetBinding],
    cx: &FileCx,
    push: &mut dyn FnMut(&str, u32, String),
) -> FnFact {
    let (toks, sig) = (cx.toks, cx.sig);
    let (start, end) = f.body;
    let end = end.min(sig.len());

    let mut flow = FlowState::new(&f.params);
    let mut calls: Vec<CallFact> = Vec::new();
    let mut call_sigs: Vec<usize> = Vec::new();
    let mut loop_heads: Vec<(u32, LoopKind, usize, usize)> = Vec::new(); // line, kind, body sig range
    let mut polls = false;
    let mut first_explicit: Option<PanicFact> = None;
    let mut first_index: Option<PanicFact> = None;
    let mut arg_flows: Vec<ArgFlow> = Vec::new();

    let mut lets = lets.iter().peekable();
    // Source-rooted hits report; parameter-rooted ones land in `flow.sinks`.
    let mut reach = |flow: &mut FlowState, a: &str, sink: &Sink, line: u32| {
        if let Some(message) = flow.reach(a, sink, line, cx.report_taint) {
            push(sink.rule(), line, message);
        }
    };

    for j in start..end {
        while let Some(l) = lets.next_if(|l| l.init.1 <= j) {
            flow.bind(l, toks, sig, &cx.sources);
        }

        let t = &toks[sig[j]];
        let line = t.line;
        let test_line = cx.spans.contains(line);
        if let TokenKind::Ident(name) = &t.kind {
            // Guard recognition: a comparison adjacent to the binding
            // (`n <= cap`, `cap > n`, `n == 0`), or a checked lookup
            // (`get(n)`, `n.min(…)`) guarding its arguments.
            if taint::is_comparison_neighbor(toks, sig, j) {
                flow.guarded.insert(name.clone());
            }
            if matches!(name.as_str(), "get" | "min" | "max") && at(toks, sig, j + 1, '(') {
                flow.guarded
                    .extend(taint::idents_in_group(toks, sig, j + 1));
            }
        }
        if test_line {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(name) => {
                let kind = match name.as_str() {
                    "loop" => Some(LoopKind::Loop),
                    "while" => Some(LoopKind::While),
                    // `for<'a>` higher-ranked bounds are not loops.
                    "for" if !at(toks, sig, j + 1, '<') => Some(LoopKind::For),
                    _ => None,
                };
                if let Some(kind) = kind {
                    if let Some((bs, be)) = loop_body(toks, sig, j, end) {
                        loop_heads.push((line, kind, bs, be));
                    }
                }
                if POLL_NAMES.contains(&name.as_str()) && taint::is_call(toks, sig, j) {
                    polls = true;
                }
                if first_explicit.is_none() {
                    first_explicit =
                        panic_site(toks, sig, j).map(|(what, _)| PanicFact { line, what });
                }
                if taint::SLICE_SINKS.contains(&name.as_str()) && at(toks, sig, j + 1, '(') {
                    for a in taint::idents_in_group(toks, sig, j + 1) {
                        reach(&mut flow, &a, &Sink::Slice(name), line);
                    }
                }
                if let Some(open) = taint::call_open(toks, sig, j)
                    .filter(|_| !is_ctrl_keyword(name) && !name.starts_with(char::is_uppercase))
                {
                    let ci = calls.len() as u32;
                    // Arguments of a sanitizer call are sanitized by
                    // definition — no flow to record.
                    if !taint::is_sanitizer_name(name) {
                        scan_call_args(toks, sig, open, ci, &cx.sources, &flow, &mut arg_flows);
                    }
                    calls.push(call_fact(toks, sig, j, name));
                    call_sigs.push(j);
                }
            }
            TokenKind::Punct('[') if is_index_expr(toks, sig, j) => {
                first_index.get_or_insert_with(|| PanicFact {
                    line,
                    what: "slice indexing".to_string(),
                });
                for a in taint::idents_in_bracket_group(toks, sig, j) {
                    reach(&mut flow, &a, &Sink::Index, line);
                }
            }
            TokenKind::Punct(op @ ('+' | '-' | '*')) if taint::is_binary_arith(toks, sig, j) => {
                let operands = [
                    ident_at(toks, sig, j.wrapping_sub(1)),
                    taint::arith_rhs(toks, sig, j),
                ];
                for a in operands.into_iter().flatten() {
                    reach(&mut flow, a, &Sink::Arith(*op), line);
                }
            }
            _ => {}
        }
    }

    // Associate loops with the calls and polls inside their body ranges.
    let loops = loop_heads
        .into_iter()
        .map(|(line, kind, bs, be)| LoopFact {
            line,
            kind,
            polls: (bs..be.min(sig.len())).any(|k| {
                ident_at(toks, sig, k).is_some_and(|name| POLL_NAMES.contains(&name))
                    && taint::is_call(toks, sig, k)
            }),
            calls: (0..call_sigs.len() as u32)
                .filter(|&i| (bs..be).contains(&call_sigs[i as usize]))
                .collect(),
        })
        .collect();

    FnFact {
        name: f.name.clone(),
        line: f.line,
        params: f.params.clone(),
        polls,
        panic: first_explicit.or(first_index),
        calls,
        loops,
        param_sinks: flow
            .sinks
            .into_iter()
            .map(|(param, (arith, index))| ParamSink {
                param,
                arith,
                index,
            })
            .collect(),
        arg_flows,
    }
}

/// The call site whose callee name sits at sig index `j`.
fn call_fact(toks: &[Token], sig: &[usize], j: usize, name: &str) -> CallFact {
    let method = j > 0 && at(toks, sig, j - 1, '.');
    let mut qual = None;
    let mut recv = None;
    if method {
        // `recv.name(` — only a plain-ident receiver that is not itself a
        // call result.
        let chained = j >= 3 && at(toks, sig, j - 3, '.');
        if j >= 2 && !chained {
            recv = ident_at(toks, sig, j - 2).map(str::to_string);
        }
    } else if j >= 3 && at(toks, sig, j - 1, ':') && at(toks, sig, j - 2, ':') {
        qual = ident_at(toks, sig, j - 3).map(str::to_string);
    }
    CallFact {
        line: toks[sig[j]].line,
        name: name.to_string(),
        qual,
        method,
        recv,
    }
}

/// The body range (inside the braces, half-open sig range) of the loop
/// whose keyword sits at `j`. `None` when no `{` is found before the
/// statement breaks (garbage input).
fn loop_body(toks: &[Token], sig: &[usize], j: usize, end: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = j + 1;
    while k < end.min(sig.len()) {
        match toks[sig[k]].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            TokenKind::Punct('{') if depth == 0 => {
                let close = match_group(toks, sig, k, '{', '}');
                return Some((k + 1, close.saturating_sub(1).max(k + 1)));
            }
            TokenKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

/// One call argument as [`scan_call_args`] reads it.
#[derive(Default)]
struct ArgScan<'a> {
    /// Chain of the first source call inside the argument.
    source_call: Option<String>,
    /// The first tainted ident inside the argument, with the root its
    /// taint arrived by first.
    ident: Option<(&'a str, &'a Root)>,
    /// A sanitizer call wraps (part of) the argument.
    sanitized: bool,
}

/// Scans the argument list opened at `open`, recording one [`ArgFlow`]
/// per tainted, unsanitized argument position: a source call in the
/// argument wins; otherwise the first tainted ident's first root.
fn scan_call_args(
    toks: &[Token],
    sig: &[usize],
    open: usize,
    call: u32,
    sources: &BTreeSet<String>,
    flow: &FlowState,
    out: &mut Vec<ArgFlow>,
) {
    let mut flush = |pos: u32, arg: ArgScan| {
        let (root, chain, guarded) = match (arg.sanitized, arg.source_call, arg.ident) {
            (false, Some(chain), _) => (None, chain, false),
            (false, None, Some((name, root))) => (
                root.param.clone(),
                format!("`{name}` {}", taint::truncate_chain(&root.chain)),
                flow.guarded.contains(name),
            ),
            _ => return,
        };
        out.push(ArgFlow {
            call,
            pos,
            root,
            chain,
            guarded,
        });
    };
    let mut arg = ArgScan::default();
    let mut pos = 0u32;
    let mut depth = 0i32;
    for k in open..sig.len() {
        match &toks[sig[k]].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Punct(',') if depth == 1 => {
                flush(pos, std::mem::take(&mut arg));
                pos += 1;
            }
            TokenKind::Ident(name) if depth >= 1 => {
                if taint::is_call(toks, sig, k) {
                    if taint::is_sanitizer_name(name) {
                        arg.sanitized = true;
                    } else if arg.source_call.is_none()
                        && (taint::is_source_name(name) || sources.contains(name))
                    {
                        arg.source_call =
                            Some(format!("`{name}(…)` at line {}", toks[sig[k]].line));
                    }
                } else if arg.ident.is_none() {
                    arg.ident = flow
                        .tainted
                        .get_key_value(name.as_str())
                        .and_then(|(n, t)| Some((n.as_str(), t.first()?)));
                }
            }
            _ => {}
        }
    }
    flush(pos, std::mem::take(&mut arg));
}

/// Extracts `use` imports as (root segment, leaf name) pairs. Renames
/// (`use a::b as c`) record the local name; brace groups contribute one
/// leaf per element. Non-crate roots (`std`, `super`, …) are filtered by
/// the graph, not here.
fn extract_uses(toks: &[Token], sig: &[usize]) -> Vec<(String, String)> {
    let mut out: BTreeSet<(String, String)> = BTreeSet::new();
    let mut j = 0usize;
    while j < sig.len() {
        if !toks[sig[j]].is_ident("use") {
            j += 1;
            continue;
        }
        let mut root: Option<String> = None;
        let mut last: Option<String> = None;
        let mut k = j + 1;
        while k < sig.len() {
            match &toks[sig[k]].kind {
                TokenKind::Ident(n) if n == "as" => {
                    if let Some(TokenKind::Ident(r)) = sig.get(k + 1).map(|&t| toks[t].kind.clone())
                    {
                        last = Some(r);
                        k += 1;
                    }
                }
                TokenKind::Ident(n) => {
                    if root.is_none() {
                        root = Some(n.clone());
                    }
                    last = Some(n.clone());
                }
                TokenKind::Punct(',') | TokenKind::Punct('}') => {
                    if let (Some(r), Some(l)) = (&root, last.take()) {
                        out.insert((r.clone(), l));
                    }
                }
                TokenKind::Punct(';') => {
                    if let (Some(r), Some(l)) = (&root, last.take()) {
                        out.insert((r.clone(), l));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        j = k + 1;
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(path: &str, src: &str) -> FileFacts {
        analyze_file(path, src).facts
    }

    fn facts(src: &str) -> FileFacts {
        extract("crates/tam/src/search.rs", src)
    }

    #[test]
    fn calls_loops_and_polls_extracted() {
        let f = facts(
            "fn search(d: &Deadline) {\n\
             while improving() {\n\
               if d.expired() { return; }\n\
               step(1);\n\
             }\n\
             }\n",
        );
        assert_eq!(f.fns.len(), 1);
        let g = &f.fns[0];
        assert!(g.polls);
        assert_eq!(g.loops.len(), 1);
        assert_eq!(g.loops[0].kind, LoopKind::While);
        assert!(g.loops[0].polls);
        let names: Vec<_> = g.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names.contains(&"improving") && names.contains(&"step"),
            "{names:?}"
        );
        // Calls inside the loop body are associated with the loop.
        assert!(!g.loops[0].calls.is_empty());
    }

    #[test]
    fn qualified_and_method_calls_keep_resolution_keys() {
        let f = facts("fn f(p: &Planner) { let s = planfile::parse_plan(x); p.plan_with(y); }\n");
        let g = &f.fns[0];
        let parse = g
            .calls
            .iter()
            .find(|c| c.name == "parse_plan")
            .expect("call");
        assert_eq!(parse.qual.as_deref(), Some("planfile"));
        assert!(!parse.method);
        let m = g
            .calls
            .iter()
            .find(|c| c.name == "plan_with")
            .expect("method");
        assert!(m.method);
        assert_eq!(m.recv.as_deref(), Some("p"));
    }

    #[test]
    fn panic_sites_prefer_explicit_over_indexing() {
        let f = facts("fn f(v: &[u32], i: usize) -> u32 { let x = v[0]; v.get(i).unwrap() + x }\n");
        let p = f.fns[0].panic.as_ref().expect("panic site");
        assert_eq!(p.what, "`.unwrap()`");
        let f2 = facts("fn f(v: &[u32]) -> u32 { v[0] }\n");
        assert_eq!(
            f2.fns[0].panic.as_ref().map(|p| p.what.as_str()),
            Some("slice indexing")
        );
    }

    #[test]
    fn param_sinks_and_forwarding_recorded() {
        let f = facts("fn f(n: usize, v: &[u8]) -> u8 { helper(n); v[n] }\n");
        let g = &f.fns[0];
        let sink = g.param_sinks.iter().find(|s| s.param == "n").expect("sink");
        assert!(sink.index.is_some());
        let fwd = g
            .arg_flows
            .iter()
            .find(|a| a.root.as_deref() == Some("n"))
            .expect("forward edge");
        assert_eq!(fwd.pos, 0);
        assert_eq!(g.calls[fwd.call as usize].name, "helper");
    }

    #[test]
    fn source_taint_reaches_call_args_with_chain() {
        let f = extract(
            "crates/tdcsoc/src/planfile.rs",
            "fn f(s: &str) { let n: usize = s.parse().ok()?; helper(n); }\n",
        );
        let g = &f.fns[0];
        let flow = g
            .arg_flows
            .iter()
            .find(|a| a.root.is_none())
            .expect("source flow");
        assert!(flow.chain.contains("parse"), "{}", flow.chain);
        assert!(!flow.guarded);
    }

    #[test]
    fn sanitized_and_guarded_args_are_marked() {
        let f = extract(
            "crates/tdcsoc/src/planfile.rs",
            "fn f(s: &str, v: &[u8]) { let n: usize = s.parse().ok()?; \
             helper(usize::try_from(n).ok()?); \
             if n < v.len() { helper(n); } }\n",
        );
        let g = &f.fns[0];
        // First call's arg is sanitized (no flow); second is guarded.
        let flows: Vec<_> = g.arg_flows.iter().filter(|a| a.root.is_none()).collect();
        assert_eq!(flows.len(), 1, "{flows:?}");
        assert!(flows[0].guarded);
    }

    #[test]
    fn test_spans_and_test_files_are_excluded() {
        let f = facts("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn real() {}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
        let t = extract("tests/smoke.rs", "fn main() { x.unwrap(); }\n");
        assert!(t.fns.is_empty());
    }

    #[test]
    fn uses_extracted_with_renames_and_groups() {
        let f = facts(
            "use tdcsoc::planfile;\nuse robust::{Deadline, CancelToken as Tok};\nfn f() {}\n",
        );
        assert!(f.uses.contains(&("tdcsoc".into(), "planfile".into())));
        assert!(f.uses.contains(&("robust".into(), "Deadline".into())));
        assert!(f.uses.contains(&("robust".into(), "Tok".into())));
    }

    #[test]
    fn workspace_allows_captured() {
        let f = facts(
            "fn f() {\n while x() { } // soclint: allow(cancel-coverage) -- bounded by input\n}\n",
        );
        assert!(f.allows.permits("cancel-coverage", 2));
        assert!(!f.allows.permits("cancel-coverage", 3));
        assert!(!f.allows.permits("panic-reach", 2));
    }

    #[test]
    fn garbage_never_panics() {
        for src in [
            "fn",
            "fn f( { while ( {",
            "}}}}((((",
            "use ;;; as as",
            "fn f() { for < }",
        ] {
            let _ = extract("crates/tam/src/x.rs", src);
            let _ = extract("crates/tdcsoc/src/planfile.rs", src);
        }
    }
}
