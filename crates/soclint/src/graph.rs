//! Pass 3: the workspace symbol table, call graph, and the three
//! interprocedural analyses (`cross-taint`, `cancel-coverage`,
//! `panic-reach`).
//!
//! The graph is built from the per-file facts of [`crate::facts`] — no
//! re-lexing — so a warm incremental run pays only for edited files and
//! re-runs these (cheap, pure in-memory) fixpoints over the full fact
//! set every time.
//!
//! ## Resolution heuristics, honestly
//!
//! soclint has no type information, so call resolution is name-based and
//! deliberately biased toward **under**-resolution: a missed edge costs a
//! missed finding (documented limitation), a fabricated edge costs a
//! false alarm in someone's CI. In order:
//!
//! - free calls: same-file definitions win, then `use`-imported crate
//!   hints, then a unique definition in the caller's crate, then a unique
//!   definition workspace-wide;
//! - `Qual::name(…)`: a file whose stem matches the qualifier
//!   (`planfile::num` → `planfile.rs`, `Planner::plan` → `planner.rs` via
//!   snake-case), then `use`-hints, then a unique workspace definition;
//!   known std/primitive qualifiers are skipped as external;
//! - `recv.name(…)`: a blocklist of ubiquitous std method names is
//!   skipped outright; otherwise a file stem matching the receiver ident,
//!   then a unique workspace definition.
//!
//! Everything that does not resolve lands in an auditable *unresolved
//! bucket* ([`GraphStats`]) printed by `soclint --graph-stats`, so the
//! blind spots are measurable instead of silent.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::{FileFacts, FnFact, LoopKind};
use crate::rules::Diagnostic;
use crate::scope::UNTRUSTED_PARSER_FILES;

/// Root functions of the cancellation contract: the planning cascade
/// entry and the serve request path. Loops in [`CANCEL_CRATES`] reachable
/// from any of these must transitively poll.
const CANCEL_ROOTS: &[(&str, &str)] = &[
    ("crates/tdcsoc/src/cascade.rs", "solve"),
    ("crates/tdcsoc/src/planner.rs", "plan"),
    ("crates/tdcsoc/src/planner.rs", "plan_with"),
    ("crates/tdcsoc/src/planner.rs", "plan_with_stats"),
    ("crates/serve/src/server.rs", "handle_stdio"),
    ("crates/serve/src/server.rs", "handle_http_connection"),
];

/// Crates whose loops the cancellation rule audits.
const CANCEL_CRATES: &[&str] = &["tam", "tdcsoc", "selenc"];

/// Ubiquitous std/core method names: method calls with these names are
/// never resolved to workspace functions (a collision here would
/// fabricate edges wholesale).
const STD_METHODS: &[&str] = &[
    "abs",
    "abs_diff",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_millis",
    "as_micros",
    "as_ref",
    "as_secs",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "by_ref",
    "bytes",
    "ceil",
    "chain",
    "chars",
    "char_indices",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exists",
    "expect",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert",
    "hash",
    "insert",
    "into_iter",
    "is_ascii_digit",
    "is_dir",
    "is_empty",
    "is_err",
    "is_file",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "map_err",
    "map_or",
    "map_or_else",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "next_back",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "pow",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "read_line",
    "read_to_string",
    "recv",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "send",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splice",
    "split",
    "split_at",
    "split_at_mut",
    "split_off",
    "split_once",
    "split_whitespace",
    "splitn",
    "spawn",
    "sqrt",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "take_while",
    "to_le_bytes",
    "to_be_bytes",
    "to_lowercase",
    "to_owned",
    "to_string",
    "to_uppercase",
    "to_vec",
    "total_cmp",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_into",
    "try_iter",
    "try_recv",
    "unwrap",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "write",
    "write_all",
    "zip",
];

/// Path qualifiers that denote std/primitive types or modules — calls
/// through these are external by construction.
const EXTERNAL_QUALS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "str",
    "char",
    "bool",
    "Vec",
    "String",
    "Option",
    "Result",
    "Box",
    "Self",
    "Ordering",
    "Duration",
    "Instant",
    "SystemTime",
    "Path",
    "PathBuf",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "Arc",
    "Mutex",
    "RwLock",
    "Cell",
    "RefCell",
    "Cow",
    "Default",
    "TryFrom",
    "From",
    "ExitCode",
    "Command",
    "OsStr",
    "OsString",
    "TcpListener",
    "TcpStream",
    "IpAddr",
    "fmt",
    "mem",
    "cmp",
    "iter",
    "slice",
    "process",
    "thread",
    "fs",
    "io",
    "env",
    "ptr",
    "f32x",
    "char",
];

/// Free-call names never resolved (std free functions / prelude
/// constructors that slip past the uppercase filter).
const FREE_SKIP: &[&str] = &["drop", "min", "max", "matches"];

/// Aggregate call-resolution counters — the auditable unresolved bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Functions in the symbol table.
    pub fns: usize,
    /// Call sites considered.
    pub calls: usize,
    /// Call sites resolved to at least one workspace definition.
    pub resolved: usize,
    /// Call sites matching several files — left unresolved.
    pub ambiguous: usize,
    /// Call sites matching nothing in the workspace.
    pub unknown: usize,
    /// Calls through std/primitive qualifiers.
    pub external: usize,
    /// Method calls skipped by the std-name blocklist.
    pub std_filtered: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "call graph: {} fns, {} calls — {} resolved, {} ambiguous, {} unknown, \
             {} external, {} std-filtered",
            self.fns,
            self.calls,
            self.resolved,
            self.ambiguous,
            self.unknown,
            self.external,
            self.std_filtered
        )
    }
}

/// (file index, fn index) — the node id of the call graph.
type FnId = (usize, usize);

/// Sink kinds the cross-taint fixpoint distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sink {
    Arith,
    Index,
}

/// Why a (fn, param, sink) triple is dangerous.
#[derive(Debug, Clone)]
enum FlowWhy {
    Local { line: u32 },
    Via { callee: FnId, pos: usize },
}

/// Why a function can panic.
#[derive(Debug, Clone)]
enum PanicWhy {
    Local,
    Via(FnId),
}

/// Runs the three workspace analyses over the fact set. Returns the
/// (sorted, allow-filtered) diagnostics plus resolution stats.
pub fn analyze(files: &[FileFacts]) -> (Vec<Diagnostic>, GraphStats) {
    let g = Graph::build(files);
    let mut out = Vec::new();
    g.check_panic_reach(&mut out);
    g.check_cancel_coverage(&mut out);
    g.check_cross_taint(&mut out);
    out.sort();
    out.dedup();
    (out, g.stats)
}

struct Graph<'a> {
    files: &'a [FileFacts],
    crates: Vec<String>,
    /// Per-fn resolved call edges: call index → candidate definitions.
    fn_edges: BTreeMap<FnId, Vec<(usize, Vec<FnId>)>>,
    stats: GraphStats,
    pan: BTreeMap<FnId, PanicWhy>,
    polls: BTreeSet<FnId>,
    danger: BTreeMap<(FnId, usize, Sink), FlowWhy>,
    /// BFS parents for the cancellation reachability set.
    reach_parent: BTreeMap<FnId, Option<FnId>>,
}

/// The crate owning a workspace-relative path (the root package is
/// `soc-tdc`).
fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("soc-tdc")
        .to_string()
}

/// The file stem used by the qualifier/receiver heuristics: the file name
/// without `.rs`, with crate roots (`lib`, `mod`, `main`) aliased to the
/// crate name in identifier form.
fn stem_of(path: &str, crate_name: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if matches!(stem, "lib" | "mod" | "main") {
        crate_name.replace('-', "_")
    } else {
        stem.to_string()
    }
}

/// CamelCase → snake_case for type-qualifier file matching.
fn to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

impl<'a> Graph<'a> {
    fn build(files: &'a [FileFacts]) -> Self {
        let crates: Vec<String> = files.iter().map(|f| crate_of(&f.path)).collect();
        let crate_set: BTreeSet<&str> = crates.iter().map(String::as_str).collect();
        let stems: Vec<String> = files
            .iter()
            .zip(&crates)
            .map(|(f, c)| stem_of(&f.path, c))
            .collect();

        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_stem: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut fns = 0usize;
        for (fi, file) in files.iter().enumerate() {
            by_stem.entry(stems[fi].as_str()).or_default().push(fi);
            for (gi, f) in file.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
                fns += 1;
            }
        }

        // `use` hints per file: imported leaf name → source crate.
        let mut hints: Vec<BTreeMap<&str, String>> = Vec::with_capacity(files.len());
        for (fi, file) in files.iter().enumerate() {
            let mut h = BTreeMap::new();
            for (root, leaf) in &file.uses {
                let root_norm = if root == "crate" || root == "self" {
                    crates[fi].clone()
                } else {
                    root.replace('_', "-")
                };
                if crate_set.contains(root_norm.as_str()) {
                    h.insert(leaf.as_str(), root_norm);
                }
            }
            hints.push(h);
        }

        let mut g = Graph {
            files,
            crates,
            fn_edges: BTreeMap::new(),
            stats: GraphStats {
                fns,
                ..GraphStats::default()
            },
            pan: BTreeMap::new(),
            polls: BTreeSet::new(),
            danger: BTreeMap::new(),
            reach_parent: BTreeMap::new(),
        };

        // Resolve every call site.
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut edges = Vec::new();
                for (ci, call) in f.calls.iter().enumerate() {
                    g.stats.calls += 1;
                    let res = resolve(&g.crates, &by_name, &by_stem, &hints, files, fi, call);
                    match res {
                        Res::Hit(cands) => {
                            g.stats.resolved += 1;
                            edges.push((ci, cands));
                        }
                        Res::Std => g.stats.std_filtered += 1,
                        Res::External => g.stats.external += 1,
                        Res::Ambiguous => g.stats.ambiguous += 1,
                        Res::Unknown => g.stats.unknown += 1,
                    }
                }
                if !edges.is_empty() {
                    g.fn_edges.insert((fi, gi), edges);
                }
            }
        }

        g.fix_panics();
        g.fix_polls();
        g.fix_danger();
        g.fix_reach();
        g
    }

    fn fn_at(&self, id: FnId) -> &FnFact {
        &self.files[id.0].fns[id.1]
    }

    fn is_parser_file(&self, fi: usize) -> bool {
        UNTRUSTED_PARSER_FILES.contains(&self.files[fi].path.as_str())
    }

    /// May-panic fixpoint: a fn panics if it has a local panic site or
    /// calls (any candidate of) a panicking fn.
    fn fix_panics(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.panic.is_some() {
                    self.pan.insert((fi, gi), PanicWhy::Local);
                }
            }
        }
        loop {
            let mut changed = false;
            for (&id, edges) in &self.fn_edges {
                if self.pan.contains_key(&id) {
                    continue;
                }
                let hit = edges.iter().find_map(|(_, cands)| {
                    cands.iter().find(|c| self.pan.contains_key(c)).copied()
                });
                if let Some(callee) = hit {
                    self.pan.insert(id, PanicWhy::Via(callee));
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Transitive-poll fixpoint: a fn polls if its body polls directly or
    /// it calls a fn that polls (all resolution candidates must agree —
    /// ambiguity must not fabricate coverage).
    fn fix_polls(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.polls {
                    self.polls.insert((fi, gi));
                }
            }
        }
        loop {
            let mut changed = false;
            for (&id, edges) in &self.fn_edges {
                if self.polls.contains(&id) {
                    continue;
                }
                let covered = edges.iter().any(|(_, cands)| {
                    !cands.is_empty() && cands.iter().all(|c| self.polls.contains(c))
                });
                if covered {
                    self.polls.insert(id);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Parameter-danger fixpoint: (fn, param, sink) is dangerous if the
    /// parameter reaches the sink locally or is forwarded into a
    /// dangerous parameter position of a callee.
    fn fix_danger(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                for s in &f.param_sinks {
                    let Some(pi) = f.params.iter().position(|p| p == &s.param) else {
                        continue;
                    };
                    if let Some(line) = s.arith {
                        self.danger
                            .insert(((fi, gi), pi, Sink::Arith), FlowWhy::Local { line });
                    }
                    if let Some(line) = s.index {
                        self.danger
                            .insert(((fi, gi), pi, Sink::Index), FlowWhy::Local { line });
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            for (fi, file) in self.files.iter().enumerate() {
                for (gi, f) in file.fns.iter().enumerate() {
                    let id: FnId = (fi, gi);
                    let Some(edges) = self.fn_edges.get(&id) else {
                        continue;
                    };
                    let mut inserts = Vec::new();
                    for af in &f.arg_flows {
                        let Some(root) = &af.root else { continue };
                        let Some(pi) = f.params.iter().position(|p| p == root) else {
                            continue;
                        };
                        let Some((_, cands)) = edges.iter().find(|(ci, _)| *ci == af.call as usize)
                        else {
                            continue;
                        };
                        for sink in [Sink::Arith, Sink::Index] {
                            if sink == Sink::Index && af.guarded {
                                continue;
                            }
                            if self.danger.contains_key(&(id, pi, sink)) {
                                continue;
                            }
                            let hit = cands
                                .iter()
                                .find(|c| self.danger.contains_key(&(**c, af.pos as usize, sink)));
                            if let Some(&callee) = hit {
                                inserts.push((
                                    (id, pi, sink),
                                    FlowWhy::Via {
                                        callee,
                                        pos: af.pos as usize,
                                    },
                                ));
                            }
                        }
                    }
                    for (k, v) in inserts {
                        if self.danger.insert(k, v).is_none() {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// BFS over resolved edges from the cancellation roots, recording
    /// parents for chain rendering.
    fn fix_reach(&mut self) {
        let mut queue: Vec<FnId> = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let is_root = CANCEL_ROOTS
                    .iter()
                    .any(|(p, n)| *p == file.path && *n == f.name);
                if is_root {
                    self.reach_parent.insert((fi, gi), None);
                    queue.push((fi, gi));
                }
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let Some(edges) = self.fn_edges.get(&id) else {
                continue;
            };
            for (_, cands) in edges {
                for &c in cands {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        self.reach_parent.entry(c)
                    {
                        e.insert(Some(id));
                        queue.push(c);
                    }
                }
            }
        }
    }

    /// Renders the panic provenance chain starting at `id`.
    fn render_panic(&self, mut id: FnId) -> String {
        let mut parts = Vec::new();
        for _ in 0..4 {
            match self.pan.get(&id) {
                Some(PanicWhy::Local) => {
                    let f = self.fn_at(id);
                    let (line, what) = f
                        .panic
                        .as_ref()
                        .map(|p| (p.line, p.what.clone()))
                        .unwrap_or((f.line, "a panic site".to_string()));
                    parts.push(format!("{what} at {}:{line}", self.files[id.0].path));
                    return parts.join(" ← via ");
                }
                Some(PanicWhy::Via(next)) => {
                    let f = self.fn_at(id);
                    parts.push(format!(
                        "`{}` ({}:{})",
                        f.name, self.files[id.0].path, f.line
                    ));
                    id = *next;
                }
                None => break,
            }
        }
        parts.push("…".to_string());
        parts.join(" ← via ")
    }

    /// Renders the reachability chain from a cancellation root to `id`.
    fn render_reach(&self, id: FnId) -> String {
        let mut names = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            names.push(format!("`{}`", self.fn_at(c).name));
            cur = self.reach_parent.get(&c).copied().flatten();
            if names.len() >= 4 && cur.is_some() {
                names.push("…".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" → ")
    }

    /// Renders the danger chain for (fn, param, sink), ending at the
    /// concrete local sink.
    fn render_danger(&self, mut id: FnId, mut pos: usize, sink: Sink) -> String {
        let mut parts = Vec::new();
        for _ in 0..4 {
            match self.danger.get(&(id, pos, sink)) {
                Some(FlowWhy::Local { line }) => {
                    let what = match sink {
                        Sink::Arith => "raw arithmetic",
                        Sink::Index => "an unguarded index",
                    };
                    parts.push(format!("{what} at {}:{line}", self.files[id.0].path));
                    return parts.join(" ← via ");
                }
                Some(FlowWhy::Via { callee, pos: p }) => {
                    let f = self.fn_at(*callee);
                    let pname = f.params.get(*p).map(String::as_str).unwrap_or("_");
                    parts.push(format!(
                        "`{}` parameter `{pname}` ({}:{})",
                        f.name, self.files[callee.0].path, f.line
                    ));
                    id = *callee;
                    pos = *p;
                }
                None => break,
            }
        }
        parts.push("…".to_string());
        parts.join(" ← via ")
    }

    /// `panic-reach`: untrusted-parser files must not call (transitively)
    /// panic-capable functions outside the parser file set.
    fn check_panic_reach(&self, out: &mut Vec<Diagnostic>) {
        for (fi, file) in self.files.iter().enumerate() {
            if !self.is_parser_file(fi) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                let Some(edges) = self.fn_edges.get(&(fi, gi)) else {
                    continue;
                };
                for (ci, cands) in edges {
                    let call = &f.calls[*ci];
                    let Some(&callee) = cands
                        .iter()
                        .find(|c| !self.is_parser_file(c.0) && self.pan.contains_key(c))
                    else {
                        continue;
                    };
                    if file.allows.permits("panic-reach", call.line) {
                        continue;
                    }
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: call.line,
                        rule: "panic-reach".to_string(),
                        message: format!(
                            "`{}(…)` can panic on this untrusted-input path ({}); make the \
                             callee fallible or validate before calling",
                            call.name,
                            self.render_panic(callee)
                        ),
                    });
                }
            }
        }
    }

    /// `cancel-coverage`: `loop`/`while` in the search crates reachable
    /// from the cascade/serve roots must poll transitively.
    fn check_cancel_coverage(&self, out: &mut Vec<Diagnostic>) {
        for (fi, file) in self.files.iter().enumerate() {
            if !CANCEL_CRATES.contains(&self.crates[fi].as_str()) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                let id: FnId = (fi, gi);
                if !self.reach_parent.contains_key(&id) {
                    continue;
                }
                let edges = self.fn_edges.get(&id);
                for l in &f.loops {
                    if l.kind == LoopKind::For {
                        continue;
                    }
                    let covered = l.polls
                        || l.calls.iter().any(|&ci| {
                            edges
                                .and_then(|e| e.iter().find(|(ei, _)| *ei == ci as usize))
                                .is_some_and(|(_, cands)| {
                                    !cands.is_empty()
                                        && cands.iter().all(|c| self.polls.contains(c))
                                })
                        });
                    if covered || file.allows.permits("cancel-coverage", l.line) {
                        continue;
                    }
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: l.line,
                        rule: "cancel-coverage".to_string(),
                        message: format!(
                            "`{}` runs under the cascade/serve request path ({}) without \
                             polling `Deadline::expired`/`CancelToken`; poll in the loop \
                             body or justify an allow",
                            l.kind.keyword(),
                            self.render_reach(id)
                        ),
                    });
                }
            }
        }
    }

    /// `cross-taint`: source-tainted arguments in parser files must not
    /// flow into callee parameters that reach arithmetic/index sinks.
    fn check_cross_taint(&self, out: &mut Vec<Diagnostic>) {
        for (fi, file) in self.files.iter().enumerate() {
            if !self.is_parser_file(fi) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                let Some(edges) = self.fn_edges.get(&(fi, gi)) else {
                    continue;
                };
                for af in &f.arg_flows {
                    if af.root.is_some() {
                        continue; // parameter forwards feed the fixpoint, not reports
                    }
                    let Some((_, cands)) = edges.iter().find(|(ci, _)| *ci == af.call as usize)
                    else {
                        continue;
                    };
                    let call = &f.calls[af.call as usize];
                    for sink in [Sink::Arith, Sink::Index] {
                        if sink == Sink::Index && af.guarded {
                            continue;
                        }
                        let Some(&callee) = cands
                            .iter()
                            .find(|c| self.danger.contains_key(&(**c, af.pos as usize, sink)))
                        else {
                            continue;
                        };
                        if file.allows.permits("cross-taint", call.line) {
                            continue;
                        }
                        let cf = self.fn_at(callee);
                        let pname = cf
                            .params
                            .get(af.pos as usize)
                            .map(String::as_str)
                            .unwrap_or("_");
                        out.push(Diagnostic {
                            file: file.path.clone(),
                            line: call.line,
                            rule: "cross-taint".to_string(),
                            message: format!(
                                "untrusted value ({}) is passed to `{}` parameter `{pname}` \
                                 ({}:{}), which reaches {}; sanitize before the call or \
                                 bounds-check in the callee",
                                af.chain,
                                call.name,
                                self.files[callee.0].path,
                                cf.line,
                                self.render_danger(callee, af.pos as usize, sink)
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Resolution outcome for one call site.
enum Res {
    Hit(Vec<FnId>),
    Std,
    External,
    Ambiguous,
    Unknown,
}

/// Groups candidate fns by file and applies the "one file wins" rule.
fn one_file(cands: &[FnId]) -> Res {
    if cands.is_empty() {
        return Res::Unknown;
    }
    let first = cands[0].0;
    if cands.iter().all(|c| c.0 == first) {
        Res::Hit(cands.to_vec())
    } else {
        Res::Ambiguous
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    crates: &[String],
    by_name: &BTreeMap<&str, Vec<FnId>>,
    by_stem: &BTreeMap<&str, Vec<usize>>,
    hints: &[BTreeMap<&str, String>],
    files: &[FileFacts],
    fi: usize,
    call: &crate::facts::CallFact,
) -> Res {
    let name = call.name.as_str();
    let named = |fis: &[usize]| -> Vec<FnId> {
        let mut out = Vec::new();
        for &f in fis {
            for (gi, g) in files[f].fns.iter().enumerate() {
                if g.name == name {
                    out.push((f, gi));
                }
            }
        }
        out
    };
    let in_crate = |krate: &str| -> Vec<FnId> {
        let mut out = Vec::new();
        for (f, c) in crates.iter().enumerate() {
            if c == krate {
                for (gi, g) in files[f].fns.iter().enumerate() {
                    if g.name == name {
                        out.push((f, gi));
                    }
                }
            }
        }
        out
    };

    if call.method {
        if STD_METHODS.contains(&name) {
            return Res::Std;
        }
        if let Some(recv) = &call.recv {
            if let Some(fis) = by_stem.get(recv.as_str()) {
                let cands = named(fis);
                if !cands.is_empty() {
                    return one_file(&cands);
                }
            }
        }
        return match by_name.get(name) {
            Some(cands) => one_file(cands),
            None => Res::Unknown,
        };
    }

    if let Some(q) = &call.qual {
        if EXTERNAL_QUALS.contains(&q.as_str()) {
            return Res::External;
        }
        let stem_key = if q.starts_with(char::is_uppercase) {
            to_snake(q)
        } else {
            q.clone()
        };
        if let Some(fis) = by_stem.get(stem_key.as_str()) {
            // Prefer a stem match inside the caller's crate.
            let local: Vec<usize> = fis
                .iter()
                .copied()
                .filter(|&f| crates[f] == crates[fi])
                .collect();
            for set in [&local, fis] {
                let cands = named(set);
                if !cands.is_empty() {
                    return one_file(&cands);
                }
            }
        }
        // Module path equal to a crate name (`tdcsoc::plan(…)`).
        let crate_key = q.replace('_', "-");
        if crates.contains(&crate_key) {
            let cands = in_crate(&crate_key);
            if !cands.is_empty() {
                return one_file(&cands);
            }
        }
        // A `use`-imported type: search the hinted crate.
        if let Some(krate) = hints[fi].get(q.as_str()) {
            let cands = in_crate(krate);
            if !cands.is_empty() {
                return one_file(&cands);
            }
        }
        if STD_METHODS.contains(&name) {
            return Res::Std;
        }
        return match by_name.get(name) {
            Some(cands) => one_file(cands),
            None => Res::Unknown,
        };
    }

    // Free call.
    if FREE_SKIP.contains(&name) {
        return Res::Std;
    }
    let same_file = named(&[fi]);
    if !same_file.is_empty() {
        return Res::Hit(same_file);
    }
    if let Some(krate) = hints[fi].get(name) {
        let cands = in_crate(krate);
        if !cands.is_empty() {
            return one_file(&cands);
        }
        return Res::Unknown;
    }
    let crate_cands = in_crate(&crates[fi]);
    if !crate_cands.is_empty() {
        return one_file(&crate_cands);
    }
    match by_name.get(name) {
        Some(cands) => one_file(cands),
        None => Res::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::analyze_file;

    fn ws(files: &[(&str, &str)]) -> Vec<FileFacts> {
        files
            .iter()
            .map(|(p, s)| analyze_file(p, s).facts)
            .collect()
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn cross_taint_flags_cross_file_flow_with_chain() {
        let facts = ws(&[
            (
                "crates/tdcsoc/src/planfile.rs",
                "fn read(s: &str) { let n: usize = s.parse().ok()?; helper(n); }\n",
            ),
            (
                "crates/soc-model/src/table.rs",
                "pub fn helper(n: usize) -> u8 { DATA[n] }\n",
            ),
        ]);
        let (diags, stats) = analyze(&facts);
        assert!(rules_of(&diags).contains(&"cross-taint"), "{diags:?}");
        let d = diags.iter().find(|d| d.rule == "cross-taint").expect("hit");
        assert_eq!(d.file, "crates/tdcsoc/src/planfile.rs");
        assert!(d.message.contains("helper"), "{}", d.message);
        assert!(
            d.message.contains("crates/soc-model/src/table.rs"),
            "{}",
            d.message
        );
        assert!(stats.resolved >= 1, "{stats}");
    }

    #[test]
    fn cross_taint_transitive_and_sanitized() {
        let facts = ws(&[
            (
                "crates/tdcsoc/src/planfile.rs",
                "fn read(s: &str) { let n: usize = s.parse().ok()?; outer(n); \
                 outer(n.min(9)); }\n",
            ),
            (
                "crates/soc-model/src/table.rs",
                "pub fn outer(k: usize) -> u8 { inner(k) }\n\
                 fn inner(i: usize) -> u8 { DATA[i] }\n",
            ),
        ]);
        let (diags, _) = analyze(&facts);
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "cross-taint").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("inner"), "{}", hits[0].message);
    }

    #[test]
    fn cancel_coverage_flags_unpolled_loop_and_accepts_polled() {
        let facts = ws(&[
            (
                "crates/tdcsoc/src/cascade.rs",
                "pub fn solve(d: &Deadline) { search(d); polite(d); }\n",
            ),
            (
                "crates/tam/src/search.rs",
                "pub fn search(d: &Deadline) { while improving() { step(); } }\n\
                 pub fn polite(d: &Deadline) { while improving() { if d.expired() { break; } } }\n\
                 fn improving() -> bool { true }\nfn step() {}\n",
            ),
        ]);
        let (diags, _) = analyze(&facts);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "cancel-coverage")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].file, "crates/tam/src/search.rs");
        assert!(hits[0].message.contains("solve"), "{}", hits[0].message);
    }

    #[test]
    fn cancel_coverage_covered_by_transitive_poll_and_skips_unreachable() {
        let facts = ws(&[
            (
                "crates/tdcsoc/src/cascade.rs",
                "pub fn solve(d: &Deadline) { search(d); }\n",
            ),
            (
                "crates/tam/src/search.rs",
                "pub fn search(d: &Deadline) { while improving() { check(d); } }\n\
                 fn check(d: &Deadline) { if d.expired() { give_up(); } }\n\
                 fn improving() -> bool { true }\nfn give_up() {}\n\
                 pub fn offline() { while spin() {} }\nfn spin() -> bool { false }\n",
            ),
        ]);
        let (diags, _) = analyze(&facts);
        assert!(
            !rules_of(&diags).contains(&"cancel-coverage"),
            "transitive poll must cover; unreachable loops must not fire: {diags:?}"
        );
    }

    #[test]
    fn panic_reach_flags_cross_file_unwrap() {
        let facts = ws(&[
            (
                "crates/soc-model/src/itc02.rs",
                "fn parse_line(s: &str) { decode(s); }\n",
            ),
            (
                "crates/selenc/src/code.rs",
                "pub fn decode(s: &str) -> u32 { s.bytes().next().unwrap() as u32 }\n",
            ),
        ]);
        let (diags, _) = analyze(&facts);
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "panic-reach").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].file, "crates/soc-model/src/itc02.rs");
        assert!(
            hits[0].message.contains("`.unwrap()`"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn panic_reach_clean_callee_and_allow() {
        let facts = ws(&[
            (
                "crates/soc-model/src/itc02.rs",
                "fn a(s: &str) { safe(s); }\n\
                 fn b(s: &str) { boom(s); // soclint: allow(panic-reach) -- input pre-validated\n }\n",
            ),
            (
                "crates/selenc/src/code.rs",
                "pub fn safe(s: &str) -> Option<u32> { s.bytes().next().map(u32::from) }\n\
                 pub fn boom(s: &str) -> u32 { s.bytes().next().unwrap() as u32 }\n",
            ),
        ]);
        let (diags, _) = analyze(&facts);
        assert!(!rules_of(&diags).contains(&"panic-reach"), "{diags:?}");
    }

    #[test]
    fn method_and_qualified_resolution() {
        let facts = ws(&[
            (
                "crates/tdcsoc/src/planfile.rs",
                "fn read(s: &str) { let n: usize = s.parse().ok()?; \
                 table::lookup(n); }\n",
            ),
            (
                "crates/soc-model/src/table.rs",
                "pub fn lookup(n: usize) -> u8 { DATA[n] }\n",
            ),
        ]);
        let (diags, stats) = analyze(&facts);
        assert!(
            rules_of(&diags).contains(&"cross-taint"),
            "{diags:?} {stats}"
        );
    }

    #[test]
    fn std_methods_and_externals_filtered() {
        let facts = ws(&[(
            "crates/tam/src/search.rs",
            "fn f(v: &[u32]) -> usize { v.iter().map(|x| x.min(&3)).count() + \
             usize::try_from(3u64).unwrap_or(0) }\n",
        )]);
        let (_, stats) = analyze(&facts);
        assert!(stats.std_filtered > 0, "{stats}");
        assert!(stats.external > 0, "{stats}");
        assert_eq!(stats.resolved, 0, "{stats}");
    }

    #[test]
    fn empty_workspace_is_clean() {
        let (diags, stats) = analyze(&[]);
        assert!(diags.is_empty());
        assert_eq!(stats.fns, 0);
    }
}
