//! The contract rules and the engine that applies them to one file.
//!
//! Every rule has a stable kebab-case id — the name used in suppression
//! comments, `--json` output, and the fixture suite:
//!
//! | id | scope | contract |
//! |----|-------|----------|
//! | `hash-collections` | determinism crates | no `HashMap`/`HashSet` & friends — iteration order may reach decisions |
//! | `wall-clock` | all but `robust`/bench | no `Instant::now` / `SystemTime::now` |
//! | `os-entropy` | all but `robust`/bench | no thread ids, `RandomState`, OS RNGs |
//! | `nan-compare` | determinism crates | no `partial_cmp` — use `total_cmp` / integer keys |
//! | `panic-path` | untrusted parsers | no `unwrap`/`expect`/`panic!`-family |
//! | `unchecked-index` | untrusted parsers | no `expr[...]` indexing — use `get` |
//! | `as-narrowing` | untrusted parsers | no narrowing `as` casts — use `try_from` |
//! | `taint-arith` | untrusted parsers | parsed values must not reach raw `+`/`-`/`*` — use `checked_*` |
//! | `taint-index` | untrusted parsers | parsed values must not reach index/`split_at` sinks unguarded |
//! | `capture-mut` | capture crates | job thunks must not mutate captured shared state |
//! | `relaxed-ordering` | determinism crates | no `Ordering::Relaxed` — results may vary per run |
//! | `order-sensitive-reduce` | capture crates | no reductions over completion-order streams |
//! | `dsan-escape` | capture crates | shared state captured by job thunks flows through `dsan::` accessors |
//! | `deny-header` | crate/bin/test roots | root carries the agreed `#![forbid]`(/`#![deny]`) header |
//! | `cfg-test-gate` | all library code | `mod tests` must be `#[cfg(test)]`-gated |
//! | `allow-syntax` | everywhere | suppressions must name known rules and carry `-- <reason>` |
//!
//! The first seven, `relaxed-ordering`, `order-sensitive-reduce` and the
//! hygiene rules are token patterns, run by `check_tokens`. `taint-*`
//! come from the per-fn taint walk and `capture-mut`/`dsan-escape` from
//! the job-thunk walk, both in the per-file pass
//! [`crate::facts::analyze_file`] (see [`crate::taint`] and
//! [`crate::captures`]). The last three are workspace rules
//! ([`crate::graph`]).
//!
//! Suppression: `// soclint: allow(rule-a, rule-b) -- reason`. A trailing
//! comment suppresses its own line; a comment alone on a line suppresses
//! the next code line; `allow-file(rule) -- reason` anywhere in the file
//! suppresses the whole file. The reason is mandatory — an allow without
//! one is itself a violation, so every exception stays auditable.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{at, ident_at, Token, TokenKind, Tokens};
use crate::scope::{FileScope, TestSpans};

/// Identifiers of every rule, in reporting order.
pub const RULE_IDS: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "os-entropy",
    "nan-compare",
    "panic-path",
    "unchecked-index",
    "as-narrowing",
    "taint-arith",
    "taint-index",
    "capture-mut",
    "relaxed-ordering",
    "order-sensitive-reduce",
    "dsan-escape",
    "deny-header",
    "cfg-test-gate",
    "allow-syntax",
    "cross-taint",
    "cancel-coverage",
    "panic-reach",
];

/// The workspace-level (interprocedural) rules: they run on the call
/// graph in [`crate::graph`], not on a single file, so `--workspace` (or
/// [`crate::lint_workspace`]) is the only mode that reports them.
pub const WORKSPACE_RULE_IDS: &[&str] = &["cross-taint", "cancel-coverage", "panic-reach"];

/// One-line description per rule id, for `--list-rules` and the SARIF
/// `tool.driver.rules` metadata. Kept 1:1 with [`RULE_IDS`] (pinned by a
/// test).
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "hash-collections",
        "no hash-ordered collections in determinism-scoped crates",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime::now outside robust/bench code",
    ),
    (
        "os-entropy",
        "no OS entropy or thread identity in library code",
    ),
    (
        "nan-compare",
        "no NaN-unsafe partial_cmp in determinism-scoped crates",
    ),
    (
        "panic-path",
        "no unwrap/expect/panic! in untrusted-input parsers",
    ),
    (
        "unchecked-index",
        "no expr[..] indexing in untrusted-input parsers",
    ),
    (
        "as-narrowing",
        "no narrowing as casts in untrusted-input parsers",
    ),
    (
        "taint-arith",
        "parsed values must not reach raw +/-/* unchecked",
    ),
    (
        "taint-index",
        "parsed values must not reach index sinks unguarded",
    ),
    (
        "capture-mut",
        "job thunks must not mutate captured shared state",
    ),
    (
        "relaxed-ordering",
        "no Ordering::Relaxed in determinism-scoped crates",
    ),
    (
        "order-sensitive-reduce",
        "no reductions over completion-order streams",
    ),
    (
        "dsan-escape",
        "shared state captured by job thunks must flow through the dsan \
         instrumented accessors",
    ),
    (
        "deny-header",
        "crate/bin/test roots carry the agreed lint header",
    ),
    ("cfg-test-gate", "mod tests must be #[cfg(test)]-gated"),
    (
        "allow-syntax",
        "suppressions must name known rules and carry a reason",
    ),
    (
        "cross-taint",
        "parsed values must not flow into callees whose parameters reach \
         arithmetic/index sinks (interprocedural)",
    ),
    (
        "cancel-coverage",
        "loops reachable from the cascade/serve request path must poll \
         Deadline/CancelToken transitively",
    ),
    (
        "panic-reach",
        "untrusted-input parsers must not transitively call panic-capable \
         functions",
    ),
];

/// Hash-ordered collection types banned in determinism crates
/// (`hash-collections`). `clippy.toml`'s `disallowed-types` must stay a
/// subset of this list — `tests/clippy_sync.rs` pins the two layers
/// together.
pub const BANNED_HASH_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "IndexMap",
    "IndexSet",
    "DefaultHasher",
];

/// Types whose `::now` constructor is banned outside `robust`/bench code
/// (`wall-clock`). Mirrored by `clippy.toml`'s `disallowed-methods`.
pub const BANNED_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Entropy / scheduler-identity sources banned outside `robust`/bench
/// code (`os-entropy`).
pub const BANNED_ENTROPY_SOURCES: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "getrandom",
    "OsRng",
    "ThreadId",
    "RandomState",
];

/// One finding: file, 1-based line, rule id, human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule id (see [`RULE_IDS`]).
    pub rule: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Parsed suppressions for one file. The per-file rules consult it as
/// they report; [`crate::facts::FileFacts`] carries it on to the
/// workspace rules in [`crate::graph`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allows {
    /// Rule id → lines on which it is suppressed.
    pub lines: BTreeMap<String, BTreeSet<u32>>,
    /// Rule ids suppressed for the whole file.
    pub file_wide: BTreeSet<String>,
}

impl Allows {
    /// True when `rule` is suppressed on `line`.
    pub fn permits(&self, rule: &str, line: u32) -> bool {
        self.file_wide.contains(rule)
            || self
                .lines
                .get(rule)
                .is_some_and(|lines| lines.contains(&line))
    }
}

/// Lints one file's source text under the scope its path implies: the
/// reported diagnostics of [`crate::facts::analyze_file`].
///
/// `path` must be workspace-relative with `/` separators — rule scoping
/// is path-based, so the same source text can lint differently at
/// different paths (the fixture suite leans on this).
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    crate::facts::analyze_file(path, source).diags
}

/// The token-pattern rules over one file's significant tokens, plus the
/// header check for compilation roots. The flow rules run in the per-fn
/// walks of [`crate::facts::analyze_file`].
pub(crate) fn check_tokens(
    scope: &FileScope,
    toks: &[Token],
    sig: &[usize],
    spans: &TestSpans,
    push: &mut dyn FnMut(&str, u32, String),
) {
    let in_test = |line: u32| scope.all_test || spans.contains(line);
    for (si, &ti) in sig.iter().enumerate() {
        let t = &toks[ti];
        if in_test(t.line) {
            continue;
        }
        check_determinism(scope, toks, sig, si, t, push);
        check_robustness(scope, toks, sig, si, t, push);
        check_test_gate(scope, toks, sig, si, t, spans, push);
    }
    if scope.capture_checked {
        crate::captures::check_reductions(toks, sig, &in_test, push);
    }
    if scope.determinism {
        crate::captures::check_orderings(toks, sig, &in_test, push);
    }
    if scope.lib_root || scope.bin_root {
        check_deny_header(toks, sig, scope.lib_root, push);
    }
}

/// Determinism rules: hash collections, wall clock, entropy, NaN-unsafe
/// comparisons.
fn check_determinism(
    scope: &FileScope,
    toks: &[Token],
    sig: &[usize],
    si: usize,
    t: &Token,
    push: &mut dyn FnMut(&str, u32, String),
) {
    let Some(name) = t.ident() else { return };
    if scope.determinism {
        if BANNED_HASH_TYPES.contains(&name) {
            push(
                "hash-collections",
                t.line,
                format!(
                    "`{name}` in a determinism-scoped crate: iteration order can reach \
                     search decisions; use `BTreeMap`/`BTreeSet` or a sorted drain"
                ),
            );
        }
        if name == "partial_cmp" {
            push(
                "nan-compare",
                t.line,
                "`partial_cmp` is NaN-unsafe in a determinism-scoped crate; use \
                 `total_cmp` or compare integer keys"
                    .to_string(),
            );
        }
    }
    if scope.wall_clock_banned {
        if BANNED_CLOCK_TYPES.contains(&name) && followed_by_path(toks, sig, si, "now") {
            push(
                "wall-clock",
                t.line,
                format!(
                    "`{name}::now` outside `robust`/bench code: wall-clock reads make \
                     results machine-dependent; thread a `robust::Deadline` instead"
                ),
            );
        }
        if BANNED_ENTROPY_SOURCES.contains(&name) {
            push(
                "os-entropy",
                t.line,
                format!("`{name}` draws OS entropy or thread identity; derive state from the run's seed"),
            );
        }
        if name == "thread" && followed_by_path(toks, sig, si, "current") {
            push(
                "os-entropy",
                t.line,
                "`thread::current()` leaks scheduler identity into library code".to_string(),
            );
        }
    }
}

/// Robustness rules for untrusted-input parsers: panic paths, unguarded
/// indexing, narrowing casts.
fn check_robustness(
    scope: &FileScope,
    toks: &[Token],
    sig: &[usize],
    si: usize,
    t: &Token,
    push: &mut dyn FnMut(&str, u32, String),
) {
    if !scope.untrusted_parser {
        return;
    }
    if let Some((what, remedy)) = panic_site(toks, sig, si) {
        push(
            "panic-path",
            t.line,
            format!("{what} on an untrusted-input path: {remedy}"),
        );
    }
    if is_index_expr(toks, sig, si) {
        push(
            "unchecked-index",
            t.line,
            "indexing can panic on untrusted input; use `.get(..)` and handle `None`".to_string(),
        );
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "isize"];
    if t.is_ident("as") {
        if let Some(target) = ident_at(toks, sig, si + 1).filter(|target| NARROW.contains(target)) {
            push(
                "as-narrowing",
                t.line,
                format!(
                    "`as {target}` can silently truncate untrusted values; use \
                     `{target}::try_from` and report the failure"
                ),
            );
        }
    }
}

/// An explicit panic site at significant token `j` — `.unwrap()`-family
/// method calls and `panic!`-family macros — as (what, remedy). Shared by
/// `panic-path` and the per-fn panic facts.
pub(crate) fn panic_site(
    toks: &[Token],
    sig: &[usize],
    j: usize,
) -> Option<(String, &'static str)> {
    const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let name = ident_at(toks, sig, j)?;
    if PANIC_METHODS.contains(&name)
        && j > 0
        && at(toks, sig, j - 1, '.')
        && at(toks, sig, j + 1, '(')
    {
        Some((
            format!("`.{name}()`"),
            "malformed input must surface as a typed error, never a panic",
        ))
    } else if PANIC_MACROS.contains(&name) && at(toks, sig, j + 1, '!') {
        Some((format!("`{name}!`"), "return a typed error instead"))
    } else {
        None
    }
}

/// `expr[...]`: an open bracket right after an identifier, `)`, or `]` is
/// an index expression (attributes arrive after `#`, macros after `!`,
/// types after `:`/`<`/`&`, and keywords such as `let [a, b] = …` or
/// `return [..]` open slice patterns and array literals — none match).
pub(crate) fn is_index_expr(toks: &[Token], sig: &[usize], j: usize) -> bool {
    if !at(toks, sig, j, '[') || j == 0 {
        return false;
    }
    match &toks[sig[j - 1]].kind {
        TokenKind::Ident(prev) => !matches!(
            prev.as_str(),
            "as" | "let"
                | "for"
                | "return"
                | "break"
                | "in"
                | "if"
                | "while"
                | "match"
                | "else"
                | "move"
                | "mut"
                | "dyn"
        ),
        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
        _ => false,
    }
}

/// Hygiene: `mod tests` must be gated.
fn check_test_gate(
    scope: &FileScope,
    toks: &[Token],
    sig: &[usize],
    si: usize,
    t: &Token,
    spans: &TestSpans,
    push: &mut dyn FnMut(&str, u32, String),
) {
    if scope.all_test {
        return;
    }
    if t.is_ident("mod")
        && sig
            .get(si + 1)
            .is_some_and(|&j| toks[j].is_ident("tests") || toks[j].is_ident("test"))
        && !spans.contains(t.line)
    {
        push(
            "cfg-test-gate",
            t.line,
            "`mod tests` without `#[cfg(test)]`: test-only code must not ship in the \
             library build"
                .to_string(),
        );
    }
}

/// Hygiene: compilation roots must carry the agreed lint header. Library
/// crate roots (`require_docs`) need both attributes; binary/test/example
/// roots need `#![forbid(unsafe_code)]` only (doc coverage is not
/// enforced on harnesses).
fn check_deny_header(
    toks: &[Token],
    sig: &[usize],
    require_docs: bool,
    push: &mut dyn FnMut(&str, u32, String),
) {
    let mut has_forbid_unsafe = false;
    let mut has_deny_missing_docs = false;
    for si in 0..sig.len() {
        match ident_at(toks, sig, si) {
            Some("forbid") => has_forbid_unsafe |= attr_args_contain(toks, sig, si, "unsafe_code"),
            Some("deny") => {
                has_deny_missing_docs |= attr_args_contain(toks, sig, si, "missing_docs")
            }
            _ => {}
        }
    }
    let kind = if require_docs {
        "library crate root"
    } else {
        "binary/test root"
    };
    if !has_forbid_unsafe {
        push(
            "deny-header",
            1,
            format!("{kind} lacks `#![forbid(unsafe_code)]`"),
        );
    }
    if require_docs && !has_deny_missing_docs {
        push(
            "deny-header",
            1,
            format!("{kind} lacks `#![deny(missing_docs)]`"),
        );
    }
}

/// True when the ident at `si` is followed by `(... wanted ...)`.
fn attr_args_contain(toks: &[Token], sig: &[usize], si: usize, wanted: &str) -> bool {
    let mut j = si + 1;
    if j >= sig.len() || !toks[sig[j]].is_punct('(') {
        return false;
    }
    let mut depth = 0i32;
    while j < sig.len() {
        match &toks[sig[j]].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokenKind::Ident(name) if name == wanted => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// True when the significant tokens after `si` are `:: name`.
fn followed_by_path(toks: &[Token], sig: &[usize], si: usize, name: &str) -> bool {
    at(toks, sig, si + 1, ':')
        && at(toks, sig, si + 2, ':')
        && ident_at(toks, sig, si + 3) == Some(name)
}

/// Extracts `soclint: allow(...)` directives from comment tokens, plus
/// the malformed ones as (line, message) for `allow-syntax`.
pub(crate) fn parse_allows(tokens: &Tokens) -> (Allows, Vec<(u32, String)>) {
    let mut allows = Allows::default();
    let mut errors = Vec::new();
    // Per code line: the first and last significant token, to decide
    // whether a directive is trailing (suppresses its own line) or
    // standalone (suppresses the next code line), and to step over
    // attribute-only lines (`#[allow(...)]`) when binding forward.
    let mut line_tokens: BTreeMap<u32, (TokenKind, TokenKind)> = BTreeMap::new();
    for t in &tokens.all {
        if matches!(t.kind, TokenKind::Comment(_)) {
            continue;
        }
        line_tokens
            .entry(t.line)
            .and_modify(|(_, last)| *last = t.kind.clone())
            .or_insert_with(|| (t.kind.clone(), t.kind.clone()));
    }
    let code_lines: BTreeSet<u32> = line_tokens.keys().copied().collect();
    // A line holding nothing but an attribute: starts with `#`, ends with
    // `]`. Standalone allows bind *through* these to the item they gate.
    let attr_only = |line: u32| -> bool {
        line_tokens.get(&line).is_some_and(|(first, last)| {
            matches!(first, TokenKind::Punct('#')) && matches!(last, TokenKind::Punct(']'))
        })
    };

    for t in &tokens.all {
        let TokenKind::Comment(text) = &t.kind else {
            continue;
        };
        // Doc comments are prose — a directive only counts in a plain
        // `//` / `/* */` comment (lets docs *talk about* the syntax).
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = text.find("soclint:") else {
            continue;
        };
        let directive = text[pos + "soclint:".len()..].trim();
        let (rules, file_wide) = match parse_directive(directive) {
            Ok(parsed) => parsed,
            Err(msg) => {
                errors.push((t.line, msg));
                continue;
            }
        };
        let target = if code_lines.contains(&t.line) {
            t.line
        } else {
            // Standalone comment: bind to the next line that has code,
            // stepping over attribute-only lines so an allow above
            // `#[allow(clippy::…)]` still reaches the gated item.
            match code_lines.range(t.line + 1..).find(|&&l| !attr_only(l)) {
                Some(&next) => next,
                None => continue,
            }
        };
        for rule in rules {
            if file_wide {
                allows.file_wide.insert(rule);
            } else {
                allows.lines.entry(rule).or_default().insert(target);
            }
        }
    }
    (allows, errors)
}

/// Parses the text after `soclint:` — `allow(rule, …) -- reason` or
/// `allow-file(rule, …) -- reason`.
fn parse_directive(text: &str) -> Result<(Vec<String>, bool), String> {
    let (file_wide, rest) = if let Some(rest) = text.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = text.strip_prefix("allow") {
        (false, rest)
    } else {
        return Err(format!(
            "unknown soclint directive `{text}`; expected `allow(<rule>) -- <reason>`"
        ));
    };
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.split_once(')'))
        .ok_or_else(|| "allow directive needs `(<rule, …>)`".to_string())?;
    let (list, tail) = inner;
    let mut rules = Vec::new();
    for rule in list.split(',') {
        let rule = rule.trim();
        if rule.is_empty() {
            return Err("allow directive lists an empty rule name".to_string());
        }
        if !RULE_IDS.contains(&rule) {
            return Err(format!(
                "allow directive names unknown rule `{rule}` (known: {})",
                RULE_IDS.join(", ")
            ));
        }
        rules.push(rule.to_string());
    }
    if rules.is_empty() {
        return Err("allow directive lists no rules".to_string());
    }
    let reason = tail
        .trim()
        .strip_prefix("--")
        .map(str::trim)
        .unwrap_or_default();
    if reason.is_empty() {
        return Err(
            "allow directive is missing its mandatory `-- <reason>`: every exception \
             must say why it is sound"
                .to_string(),
        );
    }
    Ok((rules, file_wide))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEARCH_PATH: &str = "crates/tam/src/example.rs";
    const PARSER_PATH: &str = "crates/tdcsoc/src/planfile.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_map_flagged_in_search_crate_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_hit(SEARCH_PATH, src), ["hash-collections"]);
        assert!(rules_hit("crates/robust/src/util.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn f() { x.unwrap(); }\n}\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
        assert!(rules_hit(PARSER_PATH, src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_robust() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_hit(SEARCH_PATH, src), ["wall-clock"]);
        assert!(rules_hit("crates/robust/src/x.rs", src).is_empty());
        // Bench bins may read clocks (they still owe the bin-root header,
        // checked separately).
        assert!(!rules_hit("src/bin/bench_profile.rs", src).contains(&"wall-clock".to_string()));
    }

    #[test]
    fn panic_paths_only_in_parser_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit(PARSER_PATH, src), ["panic-path"]);
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn free_function_named_expect_is_not_a_panic_path() {
        // planfile.rs has a local helper `expect(tok, kw, idx)`; only the
        // *method* `.expect(` panics.
        let src = "fn f() { expect(a, b, c)?; }\n";
        assert!(rules_hit(PARSER_PATH, src).is_empty());
    }

    #[test]
    fn indexing_flagged_with_get_exempt() {
        assert_eq!(
            rules_hit(PARSER_PATH, "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n"),
            ["unchecked-index"]
        );
        assert!(rules_hit(
            PARSER_PATH,
            "fn f(v: &[u32], i: usize) -> Option<&u32> { v.get(i) }\n"
        )
        .is_empty());
        // Attributes, macro brackets and types are not index expressions.
        assert!(rules_hit(
            PARSER_PATH,
            "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> Vec<u32> { vec![0; 4] }\n"
        )
        .is_empty());
        // Slice patterns destructure without panicking.
        assert!(rules_hit(
            PARSER_PATH,
            "fn f(v: &[u32]) { for w in v.windows(2) { let [a, b] = w else { return }; g(a, b); } }\n"
        )
        .is_empty());
    }

    #[test]
    fn narrowing_casts_flagged() {
        assert_eq!(
            rules_hit(PARSER_PATH, "fn f(x: u64) -> u32 { x as u32 }\n"),
            ["as-narrowing"]
        );
        assert!(rules_hit(PARSER_PATH, "fn f(x: u32) -> u64 { x as u64 }\n").is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "use std::collections::HashMap; // soclint: allow(hash-collections) -- keys never iterated\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn standalone_allow_binds_to_next_code_line() {
        let src = "// soclint: allow(hash-collections) -- lookup only, never iterated\nuse std::collections::HashMap;\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn standalone_allow_skips_attribute_lines() {
        let src = "// soclint: allow(hash-collections) -- lookup-only memo\n\
                   #[allow(clippy::disallowed_types)]\n\
                   use std::collections::HashMap;\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        // Docs may *describe* the syntax without activating it.
        let src = "/// Suppress with `// soclint: allow(bogus-rule)` and a reason.\nfn f() {}\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "use std::collections::HashMap; // soclint: allow(hash-collections)\n";
        let hits = rules_hit(SEARCH_PATH, src);
        assert!(hits.contains(&"allow-syntax".to_string()), "{hits:?}");
        assert!(hits.contains(&"hash-collections".to_string()), "{hits:?}");
    }

    #[test]
    fn allow_unknown_rule_is_a_violation() {
        let src = "fn f() {} // soclint: allow(made-up) -- because\n";
        assert_eq!(rules_hit(SEARCH_PATH, src), ["allow-syntax"]);
    }

    #[test]
    fn allow_file_spans_whole_file() {
        let src =
            "// soclint: allow-file(hash-collections) -- audit 2026-08: maps are lookup-only\n\
                   use std::collections::HashMap;\nfn f() { let x: HashMap<u32, u32>; }\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_other_lines() {
        let src = "use std::collections::HashMap; // soclint: allow(hash-collections) -- r\n\
                   use std::collections::HashSet;\n";
        let hits = lint_source(SEARCH_PATH, src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn deny_header_required_on_lib_roots() {
        let bare = "pub fn f() {}\n";
        let hits = rules_hit("crates/tam/src/lib.rs", bare);
        assert_eq!(hits, ["deny-header", "deny-header"]);
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert!(rules_hit("crates/tam/src/lib.rs", good).is_empty());
        // Non-root files don't need it.
        assert!(rules_hit("crates/tam/src/other.rs", bare).is_empty());
    }

    #[test]
    fn ungated_mod_tests_flagged() {
        assert_eq!(
            rules_hit(SEARCH_PATH, "mod tests { fn t() {} }\n"),
            ["cfg-test-gate"]
        );
        assert!(rules_hit(SEARCH_PATH, "#[cfg(test)]\nmod tests { fn t() {} }\n").is_empty());
    }

    #[test]
    fn entropy_sources_flagged() {
        let hits = rules_hit(SEARCH_PATH, "fn f() { let id = thread::current().id(); }\n");
        assert_eq!(hits, ["os-entropy"]);
        assert_eq!(
            rules_hit(
                SEARCH_PATH,
                "use std::collections::hash_map::RandomState;\n"
            ),
            ["os-entropy"]
        );
    }

    #[test]
    fn nan_compare_flagged() {
        assert_eq!(
            rules_hit(SEARCH_PATH, "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n"),
            ["nan-compare"]
        );
    }

    #[test]
    fn diagnostics_carry_location_and_sort_stably() {
        let src = "use std::collections::HashSet;\nuse std::collections::HashMap;\n";
        let hits = lint_source(SEARCH_PATH, src);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 2);
        assert_eq!(
            hits[0].to_string(),
            format!("{SEARCH_PATH}:1: [hash-collections] {}", hits[0].message)
        );
    }

    #[test]
    fn taint_rules_scope_to_parser_files_only() {
        let src = "fn f(s: &str) -> u64 { let n: u64 = s.parse().ok()?; n + 1 }\n";
        assert_eq!(rules_hit(PARSER_PATH, src), ["taint-arith"]);
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
        assert!(rules_hit("crates/robust/src/x.rs", src).is_empty());
    }

    #[test]
    fn capture_rules_scope_to_capture_crates_only() {
        // An uninstrumented `.lock()` on a capture trips both the mutation
        // rule and the sanitizer-coverage rule; outside capture crates,
        // neither applies.
        let src = "fn f() { s.spawn(move || { shared.lock().push(1); }); }\n";
        assert_eq!(
            rules_hit("crates/parpool/src/pool.rs", src),
            ["capture-mut", "dsan-escape"]
        );
        assert_eq!(rules_hit(SEARCH_PATH, src), ["capture-mut", "dsan-escape"]);
        assert!(rules_hit("crates/robust/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_ordering_scopes_to_determinism_crates() {
        let src = "fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(rules_hit(SEARCH_PATH, src), ["relaxed-ordering"]);
        // `robust` owns cancellation flags; relaxed there is fine.
        assert!(rules_hit("crates/robust/src/cancel.rs", src).is_empty());
    }

    #[test]
    fn order_sensitive_reduce_flagged_in_capture_crates() {
        let src = "fn f(rx: Receiver<R>) { let best = rx.try_iter().min_by_key(|r| r.cost); }\n";
        assert_eq!(
            rules_hit("crates/tam/src/example.rs", src),
            ["order-sensitive-reduce"]
        );
        assert!(rules_hit("crates/robust/src/x.rs", src).is_empty());
    }

    #[test]
    fn taint_allow_suppresses_with_reason() {
        let src = "fn f(s: &str) -> u64 { let n: u64 = s.parse().ok()?; \
                   n + 1 // soclint: allow(taint-arith) -- n parsed from a 3-digit field\n }\n";
        assert!(rules_hit(PARSER_PATH, src).is_empty());
    }

    #[test]
    fn bin_roots_need_forbid_unsafe_only() {
        let bare = "fn main() { run(); }\n";
        assert_eq!(rules_hit("src/bin/soc_tdc.rs", bare), ["deny-header"]);
        assert_eq!(rules_hit("tests/smoke.rs", bare), ["deny-header"]);
        assert_eq!(rules_hit("crates/tam/tests/prop.rs", bare), ["deny-header"]);
        let good = "#![forbid(unsafe_code)]\nfn main() { run(); }\n";
        assert!(rules_hit("src/bin/soc_tdc.rs", good).is_empty());
        assert!(rules_hit("tests/smoke.rs", good).is_empty());
        // Missing docs is NOT required on bin roots.
        assert!(!rules_hit("tests/smoke.rs", good).contains(&"deny-header".to_string()));
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src =
            "fn f() -> &'static str { \"HashMap Instant::now .unwrap()\" }\n// HashMap in prose\n";
        assert!(rules_hit(SEARCH_PATH, src).is_empty());
        assert!(rules_hit(PARSER_PATH, src).is_empty());
    }
}
