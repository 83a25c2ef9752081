//! Fixture suite: every rule has one failing and one passing fixture under
//! `tests/fixtures/<rule>/`, linted at an emulated workspace-relative path
//! (scoping is path-based, so the path picks which contracts apply). The
//! final test self-applies the linter to the shipped workspace.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

use soclint::facts::analyze_file;
use soclint::lexer::lex;
use soclint::parse::parse;
use soclint::{lint_source, lint_workspace, RULE_IDS, WORKSPACE_RULE_IDS};

/// The workspace-relative path each rule's fixtures pretend to live at.
fn emulated_path(rule: &str) -> &'static str {
    match rule {
        "hash-collections" | "wall-clock" | "allow-syntax" => "crates/tam/src/fixture.rs",
        "os-entropy" => "crates/parpool/src/fixture.rs",
        "nan-compare" => "crates/selenc/src/fixture.rs",
        "panic-path" | "unchecked-index" | "taint-arith" => "crates/tdcsoc/src/planfile.rs",
        "taint-index" => "crates/tdcsoc/src/vectors.rs",
        "capture-mut" | "relaxed-ordering" | "dsan-escape" => "crates/parpool/src/fixture.rs",
        "order-sensitive-reduce" => "crates/tam/src/fixture.rs",
        "as-narrowing" => "crates/soc-model/src/itc02.rs",
        "deny-header" => "crates/tam/src/lib.rs",
        "cfg-test-gate" => "crates/wrapper/src/fit.rs",
        other => panic!("no fixture path mapped for rule {other:?}"),
    }
}

fn fixture(rule: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(format!("{which}.rs"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_rule_has_a_tripping_fixture() {
    for &rule in RULE_IDS {
        if WORKSPACE_RULE_IDS.contains(&rule) {
            continue; // interprocedural rules use workspace fixture trees below
        }
        let diags = lint_source(emulated_path(rule), &fixture(rule, "fail"));
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "fixtures/{rule}/fail.rs must trip `{rule}`, got: {diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.rule == rule),
            "fixtures/{rule}/fail.rs must trip only `{rule}`, got: {diags:?}"
        );
    }
}

#[test]
fn every_rule_has_a_clean_fixture() {
    for &rule in RULE_IDS {
        if WORKSPACE_RULE_IDS.contains(&rule) {
            continue; // interprocedural rules use workspace fixture trees below
        }
        let diags = lint_source(emulated_path(rule), &fixture(rule, "pass"));
        assert!(
            diags.is_empty(),
            "fixtures/{rule}/pass.rs must lint clean, got: {diags:?}"
        );
    }
}

#[test]
fn diagnostics_carry_file_line_and_known_rule() {
    let diags = lint_source(emulated_path("panic-path"), &fixture("panic-path", "fail"));
    let d = diags.first().expect("fail fixture trips");
    assert_eq!(d.file, "crates/tdcsoc/src/planfile.rs");
    assert!(d.line >= 1);
    assert!(RULE_IDS.contains(&d.rule.as_str()));
    assert_eq!(
        d.to_string(),
        format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message)
    );
}

/// Interprocedural rules need more than one file, so their fixtures are
/// miniature workspace trees under `fixtures/<rule>/{trip,clean,allowed}/`,
/// linted with the full pipeline rooted at the fixture directory.
#[test]
fn every_workspace_rule_has_trip_clean_and_allowed_trees() {
    for &rule in WORKSPACE_RULE_IDS {
        for which in ["trip", "clean", "allowed"] {
            let root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures")
                .join(rule)
                .join(which);
            assert!(root.is_dir(), "missing fixture tree {}", root.display());
            let diags =
                lint_workspace(&root).unwrap_or_else(|e| panic!("lint {}: {e}", root.display()));
            if which == "trip" {
                assert!(
                    diags.iter().any(|d| d.rule == rule),
                    "fixtures/{rule}/trip must trip `{rule}`, got: {diags:?}"
                );
                assert!(
                    diags.iter().all(|d| d.rule == rule),
                    "fixtures/{rule}/trip must trip only `{rule}`, got: {diags:?}"
                );
            } else {
                assert!(
                    diags.is_empty(),
                    "fixtures/{rule}/{which} must lint clean, got: {diags:?}"
                );
            }
        }
    }
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/soclint sits two levels under the workspace root")
}

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The token rules and the facts share one panic-site predicate, so for
/// every non-test fn of every workspace and fixture file, linted as an
/// untrusted parser, `FnFact::panic` is the fn's first `panic-path`
/// finding, or failing that its first `unchecked-index` finding
/// (reported and allowed alike). Findings carry only a line, so a fn that
/// shares its first or last line with a fn it does not contain is skipped.
#[test]
fn token_rules_and_facts_agree_on_panic_sites() {
    const AT: &str = "crates/tdcsoc/src/planfile.rs";
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rs_files(&workspace_root().join(dir), &mut files);
    }
    files.sort();
    let mut checked = 0usize;
    for file in &files {
        let src =
            fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let analysis = analyze_file(AT, &src);
        let tokens = lex(&src);
        let ast = parse(&tokens);
        let line_of = |si: usize| ast.sig.get(si).map_or(u32::MAX, |&t| tokens.all[t].line);
        let spans: Vec<(&str, u32, u32)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.line, line_of(f.body.1)))
            .collect();
        for fact in &analysis.facts.fns {
            let &(_, start, end) = spans
                .iter()
                .find(|(name, line, _)| *name == fact.name && *line == fact.line)
                .expect("every fact is a parsed fn");
            let shares_a_line = spans.iter().any(|&(_, s, e)| {
                let nested = start <= s && e <= end && (s, e) != (start, end);
                !nested
                    && (s, e) != (start, end)
                    && ((s..=e).contains(&start) || (s..=e).contains(&end))
            });
            if shares_a_line {
                continue;
            }
            let first = |rule: &str| {
                analysis
                    .diags
                    .iter()
                    .chain(&analysis.allowed)
                    .filter(|d| d.rule == rule && (start..=end).contains(&d.line))
                    .map(|d| d.line)
                    .min()
            };
            assert_eq!(
                fact.panic.as_ref().map(|p| p.line),
                first("panic-path").or_else(|| first("unchecked-index")),
                "{}: fn `{}` at line {}",
                file.display(),
                fact.name,
                fact.line
            );
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} fns checked");
}

/// The acceptance gate: the tree as shipped carries zero violations, so any
/// regression shows up as a test failure, not just a CI lint step.
#[test]
fn shipped_workspace_is_violation_free() {
    let diags = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
