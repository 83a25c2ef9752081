//! Closure-capture determinism analysis: the job-thunk walk of the
//! per-file pass ([`crate::facts::analyze_file`]) plus two token rules.
//!
//! The determinism contract (DESIGN.md §5) requires bit-identical plans
//! at any worker count. Jobs submitted to `parpool` run in an arbitrary
//! interleaving, so the only safe shapes are *pure thunks* (capture by
//! value or shared immutable reference, return the result) reduced **by
//! job index** with a fixed tie-break. Four rules police that; one walk
//! over each job thunk (`check_thunks`) reports the first and the
//! last:
//!
//! - `capture-mut` — inside a nullary `move ||` closure (the job-thunk
//!   shape `FnOnce() -> T`), a captured binding reached through a
//!   shared-mutation API (`lock`, `borrow_mut`, `store`, `fetch_*`, …),
//!   assigned to, compound-assigned, deref-assigned, or borrowed `&mut`.
//!   Mutating shared state from a job makes the outcome depend on worker
//!   interleaving.
//! - `relaxed-ordering` — `Ordering::Relaxed` in a determinism-scoped
//!   crate. A relaxed atomic that feeds a result can observe stale values
//!   differently per run; advisory-only uses (claim counters, pruning
//!   bounds) carry an `allow` explaining why the value never reaches the
//!   plan.
//! - `order-sensitive-reduce` — a reduction (`min`, `max`, `fold`,
//!   `reduce`, `*_by`, `*_by_key`) whose receiver chain drains a
//!   completion-order stream (`recv`, `try_recv`, `try_iter`, `steal`).
//!   This is the exact bug class the index-ordered reduction in
//!   `tam::optimize` was built to prevent.
//! - `dsan-escape` — a captured binding reached from a job thunk through
//!   a shared-access method (the mutation set above plus the read side:
//!   `load`, `borrow`, `read`) whose declaration does not flow through
//!   the `parpool::dsan` instrumented accessors (`dsan::Cell`,
//!   `dsan::AtomicCell`, `dsan::Shadow`). Uninstrumented shared state is
//!   invisible to the determinism sanitizer, so its races escape the
//!   shadow log.
//!
//! Diagnostics render the capture chain (which closure, which line, how
//! it is mutated) so a finding is auditable from the message alone.
//! Known false-negative classes are documented in DESIGN.md §13.

use std::collections::BTreeSet;

use crate::lexer::{at, ident_at, Token, TokenKind};
use crate::parse::{closure_tree, match_group, Closure, LetBinding};

/// Method names whose receiver is (or guards) shared mutable state.
const SHARED_MUTATION_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_min",
    "fetch_max",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "get_mut",
    "write",
    "send",
];

/// Reduction adapters whose result depends on element order (or on a
/// running accumulator).
const REDUCERS: &[&str] = &[
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "reduce",
    "fold",
];

/// Read-side shared-access methods: they don't mutate, but an
/// uninstrumented read still races with a concurrent writer, so
/// `dsan-escape` checks them alongside [`SHARED_MUTATION_METHODS`].
const SHARED_READ_METHODS: &[&str] = &["load", "borrow", "read"];

/// Channel/deque drains that yield in completion order, not job order.
const COMPLETION_ORDER_SOURCES: &[&str] = &[
    "recv",
    "try_recv",
    "recv_timeout",
    "recv_deadline",
    "try_iter",
    "steal",
];

/// The job-thunk walk over one fn's closure tree (pre-order, from
/// [`crate::parse::closure_tree`]): every nullary `move ||` closure — the
/// `FnOnce() -> T` job shape — is checked once for both rules. A name is
/// a capture unless it is a method name, a path segment, or local to the
/// thunk (a parameter or `let` of the thunk or of any closure nested in
/// it: the flattening over-approximates scope, which can only suppress,
/// never invent, a finding). On a capture:
///
/// - `capture-mut`: borrowed `&mut`, reached through a
///   [`SHARED_MUTATION_METHODS`] call, assigned, or compound-assigned;
/// - `dsan-escape`: unless dsan-bound (see [`dsan_bound_names`]), reached
///   through a mutation or [`SHARED_READ_METHODS`] call.
pub(crate) fn check_thunks(
    tree: &[&Closure],
    toks: &[Token],
    sig: &[usize],
    bound: &BTreeSet<&str>,
    in_test: &dyn Fn(u32) -> bool,
    push: &mut dyn FnMut(&str, u32, String),
) {
    for &c in tree.iter().filter(|c| c.is_move && c.nullary) {
        let mut locals: BTreeSet<&str> = BTreeSet::new();
        for n in closure_tree(std::slice::from_ref(c)) {
            locals.extend(n.params.iter().map(String::as_str));
            locals.extend(n.lets.iter().flat_map(|l| &l.names).map(String::as_str));
        }
        let (start, end) = c.body;
        for j in start..end.min(sig.len()) {
            let Some(name) = ident_at(toks, sig, j) else {
                continue;
            };
            let line = toks[sig[j]].line;
            let after_dot = j > 0 && (at(toks, sig, j - 1, '.') || at(toks, sig, j - 1, ':'));
            let before_path = at(toks, sig, j + 1, ':') && at(toks, sig, j + 2, ':');
            if after_dot || before_path || locals.contains(name) || in_test(line) {
                continue;
            }
            // Step over index groups: `queue[i].lock()` reaches `queue`.
            let mut k = j + 1;
            while at(toks, sig, k, '[') {
                k = match_group(toks, sig, k, '[', ']');
            }
            let method = ident_at(toks, sig, k + 1)
                .filter(|_| at(toks, sig, k, '.') && at(toks, sig, k + 2, '('));
            let mutation = method.filter(|m| SHARED_MUTATION_METHODS.contains(m));

            let borrowed_mut =
                j >= 2 && ident_at(toks, sig, j - 1) == Some("mut") && at(toks, sig, j - 2, '&');
            let how = if borrowed_mut {
                Some("borrowed `&mut`".to_string())
            } else if let Some(m) = mutation {
                Some(format!("mutated via `.{m}(…)`"))
            } else if !is_assignment(toks, sig, k) {
                None
            } else if j > 0 && at(toks, sig, j - 1, '*') {
                Some("deref-assigned (`*… = …`)".to_string())
            } else {
                Some("assigned".to_string())
            };
            if let Some(how) = how {
                push(
                    "capture-mut",
                    line,
                    format!(
                        "`{name}` is captured by the `move ||` job closure at line {} and {how} \
                         at line {line}: shared mutable state in a submitted job makes the outcome \
                         depend on worker interleaving; return a value and reduce by job index \
                         instead",
                        c.line
                    ),
                );
            }
            if let Some(m) = method.filter(|m| {
                !bound.contains(name) && (mutation.is_some() || SHARED_READ_METHODS.contains(m))
            }) {
                push(
                    "dsan-escape",
                    line,
                    format!(
                        "`{name}` is captured by the `move ||` job closure at line {} and \
                         reached via `.{m}(…)` at line {line} without dsan instrumentation: \
                         shared state touched from pool jobs must flow through `dsan::Cell` / \
                         `dsan::AtomicCell` / `dsan::Shadow` so the determinism sanitizer can \
                         order-check the access; wrap the binding, or `allow` with a reason \
                         explaining why the access cannot race",
                        c.line
                    ),
                );
            }
        }
    }
}

/// Names declared through the `parpool::dsan` instrumented accessors
/// anywhere in the file — resolved by name, with no scope resolution, so
/// a binding covers that name everywhere (the over-approximation only
/// suppresses findings): `let` bindings whose initializer mentions `dsan`
/// (`lets`: every fn's and closure's), and `name: [&]dsan::…` type
/// ascriptions (fn params, struct fields, annotated lets).
pub(crate) fn dsan_bound_names<'a>(
    lets: impl Iterator<Item = &'a LetBinding>,
    toks: &'a [Token],
    sig: &[usize],
) -> BTreeSet<&'a str> {
    let mut bound = BTreeSet::new();
    for l in lets {
        let (s, e) = l.init;
        if (s..e.min(sig.len())).any(|j| ident_at(toks, sig, j) == Some("dsan")) {
            bound.extend(l.names.iter().map(String::as_str));
        }
    }
    // `name : dsan :: …` / `name : & dsan :: …` ascriptions.
    for j in 0..sig.len() {
        if ident_at(toks, sig, j) != Some("dsan")
            || !at(toks, sig, j + 1, ':')
            || !at(toks, sig, j + 2, ':')
        {
            continue;
        }
        let mut p = j;
        if p >= 1 && at(toks, sig, p - 1, '&') {
            p -= 1;
        }
        // A single `:` before (not `::` — that is a path like
        // `parpool::dsan`), preceded by the ascribed name.
        if p >= 2 && at(toks, sig, p - 1, ':') && !at(toks, sig, p.wrapping_sub(2), ':') {
            if let Some(name) = ident_at(toks, sig, p - 2) {
                bound.insert(name);
            }
        }
    }
    bound
}

/// Assignment detection at `k` (first token after the ident/index
/// groups): `=` (not `==`), or a compound `+=`-family operator.
fn is_assignment(toks: &[Token], sig: &[usize], k: usize) -> bool {
    let Some(&t) = sig.get(k) else { return false };
    match toks[t].kind {
        TokenKind::Punct('=') => !at(toks, sig, k + 1, '='),
        TokenKind::Punct('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^') => {
            at(toks, sig, k + 1, '=')
        }
        TokenKind::Punct('<') | TokenKind::Punct('>') => {
            // `<<=` / `>>=`
            let c = toks[t].kind.clone();
            sig.get(k + 1).is_some_and(|&n| toks[n].kind == c) && at(toks, sig, k + 2, '=')
        }
        _ => false,
    }
}

/// `relaxed-ordering`: flags `Ordering::Relaxed` (any path prefix).
pub fn check_orderings(
    toks: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    push: &mut dyn FnMut(&str, u32, String),
) {
    for j in 3..sig.len() {
        if ident_at(toks, sig, j) == Some("Relaxed")
            && at(toks, sig, j - 1, ':')
            && at(toks, sig, j - 2, ':')
            && ident_at(toks, sig, j - 3) == Some("Ordering")
        {
            let line = toks[sig[j]].line;
            if !in_test(line) {
                push(
                    "relaxed-ordering",
                    line,
                    "`Ordering::Relaxed` on an atomic in a determinism-scoped crate: a relaxed \
                     read/update that feeds a result can differ across runs and worker counts; \
                     use `SeqCst`, or `allow` with a reason documenting why the value is \
                     advisory-only and never reaches the plan"
                        .to_string(),
                );
            }
        }
    }
}

/// `order-sensitive-reduce`: a reducer whose receiver chain contains a
/// completion-order drain. The chain is walked *backwards* from the
/// reducer through method calls, index groups, `?`, and path segments to
/// its head; idents inside receiver-side argument groups count (so
/// `results_of(rx.try_iter()).min()` is caught).
pub fn check_reductions(
    toks: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    push: &mut dyn FnMut(&str, u32, String),
) {
    for j in 1..sig.len() {
        let Some(r) = ident_at(toks, sig, j) else {
            continue;
        };
        if !REDUCERS.contains(&r) || !at(toks, sig, j - 1, '.') || !at(toks, sig, j + 1, '(') {
            continue;
        }
        let line = toks[sig[j]].line;
        if in_test(line) {
            continue;
        }
        if let Some(src) = chain_completion_source(toks, sig, j - 1) {
            push(
                "order-sensitive-reduce",
                line,
                format!(
                    "`.{r}(…)` folds a completion-order stream (`{src}` in its receiver chain): \
                     worker finish order leaks into the result; collect results by job index and \
                     reduce with a fixed tie-break instead"
                ),
            );
        }
    }
}

/// Walks the method chain backwards from the `.` at sig index `dot`,
/// returning the first completion-order source ident found in the chain
/// (including inside receiver-side argument/index groups).
fn chain_completion_source<'t>(toks: &'t [Token], sig: &[usize], dot: usize) -> Option<&'t str> {
    let mut p = dot.checked_sub(1)?;
    loop {
        let t = &toks[sig[p]];
        match &t.kind {
            TokenKind::Punct(')') => {
                let (open, found) = skip_group_back(toks, sig, p, '(', ')');
                if found.is_some() {
                    return found;
                }
                p = open.checked_sub(1)?;
            }
            TokenKind::Punct(']') => {
                let (open, found) = skip_group_back(toks, sig, p, '[', ']');
                if found.is_some() {
                    return found;
                }
                p = open.checked_sub(1)?;
            }
            TokenKind::Punct('?') => p = p.checked_sub(1)?,
            TokenKind::Ident(name) => {
                if COMPLETION_ORDER_SOURCES.contains(&name.as_str()) {
                    // Only a *call* drains: `recv(`-shape just ahead.
                    if at(toks, sig, p + 1, '(') {
                        return Some(name);
                    }
                }
                // Continue through `.` / `::` chain links; stop at the head.
                if p >= 1 && toks[sig[p - 1]].is_punct('.') {
                    p = p.checked_sub(2)?;
                } else if p >= 2 && toks[sig[p - 1]].is_punct(':') && toks[sig[p - 2]].is_punct(':')
                {
                    p = p.checked_sub(3)?;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

/// Skips backwards over the balanced group *closing* at `close`,
/// returning the index of the opening token and any completion-order
/// source call found inside.
fn skip_group_back<'t>(
    toks: &'t [Token],
    sig: &[usize],
    close: usize,
    oc: char,
    cc: char,
) -> (usize, Option<&'t str>) {
    let mut depth = 0i32;
    let mut found = None;
    let mut p = close;
    loop {
        match &toks[sig[p]].kind {
            TokenKind::Punct(c) if *c == cc => depth += 1,
            TokenKind::Punct(c) if *c == oc => {
                depth -= 1;
                if depth == 0 {
                    return (p, found);
                }
            }
            TokenKind::Ident(name)
                if found.is_none()
                    && COMPLETION_ORDER_SOURCES.contains(&name.as_str())
                    && at(toks, sig, p + 1, '(') =>
            {
                found = Some(name.as_str());
            }
            _ => {}
        }
        match p.checked_sub(1) {
            Some(prev) => p = prev,
            None => return (0, found),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The findings of `rule` from the per-file pass at a capture-crate
    /// path.
    fn run_rule(rule: &str, src: &str) -> Vec<(String, u32, String)> {
        crate::lint_source("crates/parpool/src/fixture.rs", src)
            .into_iter()
            .filter(|d| d.rule == rule)
            .map(|d| (d.rule, d.line, d.message))
            .collect()
    }

    fn run_captures(src: &str) -> Vec<(String, u32, String)> {
        run_rule("capture-mut", src)
    }

    fn run_reductions(src: &str) -> Vec<(String, u32, String)> {
        let tokens = lex(src);
        let sig = tokens.significant();
        let mut out = Vec::new();
        check_reductions(&tokens.all, &sig, &|_| false, &mut |rule, line, msg| {
            out.push((rule.to_string(), line, msg))
        });
        out
    }

    #[test]
    fn lock_in_job_thunk_flagged_with_chain() {
        let src = "fn f() { let shared = x(); pool.submit(move || { shared.lock().push(1); }); }\n";
        let hits = run_captures(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "capture-mut");
        assert!(hits[0].2.contains("`shared`"), "{}", hits[0].2);
        assert!(hits[0].2.contains("lock"), "{}", hits[0].2);
    }

    #[test]
    fn indexed_capture_mutation_flagged() {
        let src = "fn f() { s.spawn(move || { *results[i].lock().unwrap() = Some(v); }); }\n";
        let hits = run_captures(src);
        assert!(
            hits.iter()
                .any(|(r, _, m)| r == "capture-mut" && m.contains("`results`")),
            "{hits:?}"
        );
    }

    #[test]
    fn pure_thunk_is_clean() {
        let src = "fn f() { let input = y(); pool.submit(move || { let v = work(&input); \
                   v.len() }); }\n";
        assert!(run_captures(src).is_empty());
    }

    #[test]
    fn closure_locals_are_not_captures() {
        let src = "fn f() { pool.submit(move || { let mut acc = Vec::new(); acc.push(1); \
                   acc.len() }); }\n";
        assert!(run_captures(src).is_empty());
    }

    #[test]
    fn non_move_or_unary_closures_are_skipped() {
        let src = "fn f() { items.iter().map(|x| shared.lock().use_it(x)).count(); }\n";
        assert!(run_captures(src).is_empty());
    }

    #[test]
    fn captured_assignment_flagged() {
        let src = "fn f() { s.spawn(move || { counter += 1; }); }\n";
        let hits = run_captures(src);
        assert!(hits
            .iter()
            .any(|(r, _, m)| r == "capture-mut" && m.contains("assigned")));
    }

    #[test]
    fn relaxed_ordering_detected_with_path_prefix() {
        for src in [
            "fn f() { n.fetch_add(1, Ordering::Relaxed); }\n",
            "fn f() { n.load(std::sync::atomic::Ordering::Relaxed); }\n",
        ] {
            let tokens = lex(src);
            let sig = tokens.significant();
            let mut out = Vec::new();
            check_orderings(&tokens.all, &sig, &|_| false, &mut |r, l, m| {
                out.push((r.to_string(), l, m))
            });
            assert_eq!(out.len(), 1, "{src}");
            assert_eq!(out[0].0, "relaxed-ordering");
        }
    }

    #[test]
    fn seqcst_is_clean() {
        let tokens = lex("fn f() { n.fetch_add(1, Ordering::SeqCst); }\n");
        let sig = tokens.significant();
        let mut out = Vec::new();
        check_orderings(&tokens.all, &sig, &|_| false, &mut |r, l, m| {
            out.push((r.to_string(), l, m))
        });
        assert!(out.is_empty());
    }

    #[test]
    fn completion_order_reduce_flagged() {
        let hits = run_reductions("fn f() { let best = rx.try_iter().min_by_key(|r| r.cost); }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "order-sensitive-reduce");
        assert!(hits[0].2.contains("try_iter"), "{}", hits[0].2);
    }

    #[test]
    fn receiver_arg_drain_is_caught() {
        let hits = run_reductions("fn f() { let best = costs_of(rx.recv().unwrap()).min(); }\n");
        assert!(hits.iter().any(|(_, _, m)| m.contains("recv")), "{hits:?}");
    }

    #[test]
    fn index_ordered_reduce_is_clean() {
        let hits = run_reductions(
            "fn f() { let best = results.iter().enumerate().min_by_key(|(i, r)| (r.cost, *i)); }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn plain_fold_without_drain_is_clean() {
        assert!(
            run_reductions("fn f() { let s = v.iter().fold(0u64, |a, b| a + b); }\n").is_empty()
        );
    }

    fn run_dsan(src: &str) -> Vec<(String, u32, String)> {
        run_rule("dsan-escape", src)
    }

    #[test]
    fn uninstrumented_load_in_thunk_flagged() {
        let src = "fn f() { let best = AtomicU64::new(0); pool.submit(move || { \
                   best.load(Ordering::SeqCst) }); }\n";
        let hits = run_dsan(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "dsan-escape");
        assert!(hits[0].2.contains("`best`"), "{}", hits[0].2);
        assert!(hits[0].2.contains("load"), "{}", hits[0].2);
    }

    #[test]
    fn dsan_bound_let_is_clean() {
        let src = "fn f() { let best = dsan::AtomicCell::new(\"best\", dsan::Policy::Advisory, \
                   0); pool.submit(move || { best.load(Ordering::SeqCst) }); }\n";
        assert!(run_dsan(src).is_empty(), "{:?}", run_dsan(src));
    }

    #[test]
    fn dsan_bound_param_ascription_is_clean() {
        let src = "fn f(best: &dsan::AtomicCell) { pool.submit(move || { \
                   best.load(Ordering::SeqCst) }); }\n";
        assert!(run_dsan(src).is_empty(), "{:?}", run_dsan(src));
    }

    #[test]
    fn path_prefixed_dsan_type_does_not_bind_other_names() {
        // `parpool::dsan` in a use-path must not mark anything bound.
        let src = "use parpool::dsan;\nfn f() { let best = AtomicU64::new(0); \
                   pool.submit(move || { best.load(Ordering::SeqCst) }); }\n";
        assert_eq!(run_dsan(src).len(), 1);
    }

    #[test]
    fn thunk_locals_and_mutation_methods_covered() {
        // Locals stay exempt; mutation-set methods trip dsan-escape too.
        let clean = "fn f() { pool.submit(move || { let n = AtomicU64::new(0); \
                     n.load(Ordering::SeqCst) }); }\n";
        assert!(run_dsan(clean).is_empty());
        let dirty = "fn f() { let n = AtomicU64::new(0); pool.submit(move || { \
                     n.fetch_min(1, Ordering::SeqCst) }); }\n";
        assert_eq!(run_dsan(dirty).len(), 1);
    }
}
