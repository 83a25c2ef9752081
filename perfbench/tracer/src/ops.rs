//! The benchmark's op script: one `soctdc` invocation per line.
//!
//! Only the flags the benchmark passes are accepted, with the CLI's
//! defaults for everything else, so a replayed op cannot silently drift
//! from the command the untraced run spawned.

use soc_model::benchmarks::Design;
use soc_model::format::parse_soc;
use soc_model::generator::synthesize_missing_test_sets;
use soc_model::Soc;
use tam::ArchitectureOptions;
use tdcsoc::{DecisionConfig, PlanRequest};

/// The CLI's `--seed` default.
const CLI_SEED: u64 = 2008;
/// The CLI's `--density` default, part of its profile-cache tag.
const CLI_DENSITY: f64 = 0.66;

#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    Design(Design),
    SocFile(String),
}

impl Source {
    /// Identifies the source: the design name or the file path.
    pub fn key(&self) -> String {
        match self {
            Source::Design(d) => d.name().to_string(),
            Source::SocFile(path) => path.clone(),
        }
    }
}

/// The source of a fleet manifest instance.
pub fn fleet_source(source: &fleet::SocSource) -> Result<Source, String> {
    match source {
        fleet::SocSource::Builtin(name) => Ok(Source::Design(design(name)?)),
        fleet::SocSource::SimpleFile(path) => Ok(Source::SocFile(path.clone())),
        fleet::SocSource::Itc02File(path) => Err(format!(
            "itc02 source {path}: the benchmark writes only simple SOC files"
        )),
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    pub source: Source,
    pub width: u32,
    pub seed: u64,
    pub workers: usize,
    pub deadline_ms: Option<u64>,
    pub profile_cache: Option<String>,
    pub plan_out: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FleetOp {
    pub manifest: String,
    pub workers: usize,
    pub profile_cache: Option<String>,
    pub plan_dir: String,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Plan(PlanOp),
    Fleet(FleetOp),
}

pub fn read_script(path: &str) -> Result<Vec<Op>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| parse_op(line).map_err(|e| format!("{path} op {i}: {e}")))
        .collect()
}

pub fn parse_op(line: &str) -> Result<Op, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let Some((&command, flags)) = words.split_first() else {
        return Err("empty op".into());
    };
    if flags.len() % 2 != 0 {
        return Err(format!("flag without value in `{line}`"));
    }
    let pairs: Vec<(&str, &str)> = flags.chunks(2).map(|p| (p[0], p[1])).collect();
    let get = |flag: &str| pairs.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v);
    let num = |flag: &str| -> Result<Option<u64>, String> {
        get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad number `{v}`")))
            .transpose()
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("{command} needs {flag}"));
    let known: &[&str] = match command {
        "plan" => &[
            "--design",
            "--soc",
            "--width",
            "--seed",
            "--workers",
            "--deadline",
            "--profile-cache",
            "--plan-out",
        ],
        "fleet" => &["--manifest", "--workers", "--profile-cache", "--plan-dir"],
        other => return Err(format!("unknown command `{other}`")),
    };
    if let Some((flag, _)) = pairs.iter().find(|(f, _)| !known.contains(f)) {
        return Err(format!("unsupported flag `{flag}`"));
    }
    let workers = usize::try_from(num("--workers")?.ok_or("--workers is required")?)
        .map_err(|_| "--workers out of range")?;
    let profile_cache = get("--profile-cache").map(String::from);
    if command == "fleet" {
        return Ok(Op::Fleet(FleetOp {
            manifest: need("--manifest")?.to_string(),
            workers,
            profile_cache,
            plan_dir: need("--plan-dir")?.to_string(),
        }));
    }
    let source = match (get("--design"), get("--soc")) {
        (Some(name), None) => Source::Design(design(name)?),
        (None, Some(path)) => Source::SocFile(path.to_string()),
        _ => return Err("plan needs exactly one of --design / --soc".into()),
    };
    let width = u32::try_from(num("--width")?.unwrap_or(32)).map_err(|_| "--width out of range")?;
    Ok(Op::Plan(PlanOp {
        source,
        width,
        seed: num("--seed")?.unwrap_or(CLI_SEED),
        workers,
        deadline_ms: num("--deadline")?,
        profile_cache,
        plan_out: need("--plan-out")?.to_string(),
    }))
}

pub fn design(name: &str) -> Result<Design, String> {
    Design::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown design `{name}`"))
}

/// The SOC an op plans, without test cubes.
pub fn load_soc(source: &Source) -> Result<Soc, String> {
    match source {
        Source::Design(d) => Ok(d.build()),
        Source::SocFile(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_soc(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// [`load_soc`] plus cube synthesis, as `soctdc plan` does before planning.
pub fn load_soc_with_cubes(source: &Source, seed: u64) -> Result<Soc, String> {
    let mut soc = load_soc(source)?;
    synthesize_missing_test_sets(&mut soc, seed);
    Ok(soc)
}

/// The decision fidelity `soctdc plan` uses without `--sample`,
/// `--mcand` or `--exact` (not [`DecisionConfig::default`], whose chain
/// candidate count differs).
pub fn cli_decisions() -> DecisionConfig {
    DecisionConfig {
        pattern_sample: Some(24),
        m_candidates: 16,
    }
}

/// The request `soctdc plan --width W --workers N` builds.
pub fn request(op: &PlanOp) -> PlanRequest {
    PlanRequest {
        budget: tdcsoc::Budget::TamWidth(op.width),
        decisions: cli_decisions(),
        architecture: ArchitectureOptions {
            workers: Some(op.workers),
            ..Default::default()
        },
    }
}

/// The profile-cache tag `soctdc plan` derives for a design and seed.
pub fn cache_tag(soc: &Soc, seed: u64) -> String {
    format!("{}-seed{}-d{:.3}", soc.name(), seed, CLI_DENSITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plan_and_fleet_ops() {
        let op = parse_op("plan --design P93791 --width 24 --seed 7 --workers 2 --plan-out a.plan")
            .unwrap();
        let Op::Plan(p) = op else { panic!("plan op") };
        assert_eq!(p.source, Source::Design(Design::P93791));
        assert_eq!((p.width, p.seed, p.workers), (24, 7, 2));
        assert_eq!(p.deadline_ms, None);
        let op = parse_op("fleet --manifest m.txt --workers 2 --plan-dir pd").unwrap();
        assert!(matches!(op, Op::Fleet(f) if f.plan_dir == "pd" && f.profile_cache.is_none()));
    }

    #[test]
    fn rejects_what_the_replay_would_not_mirror() {
        assert!(parse_op("plan --design d695 --workers 2 --plan-out x --mode no-tdc").is_err());
        assert!(parse_op("plan --design d695 --plan-out x").is_err());
        assert!(parse_op("plan --design d695 --soc f --workers 1 --plan-out x").is_err());
        assert!(parse_op("verify --design d695").is_err());
    }

    #[test]
    fn decisions_match_the_cli_defaults_not_the_library_defaults() {
        assert_eq!(cli_decisions().m_candidates, 16);
        assert_ne!(cli_decisions(), DecisionConfig::default());
    }
}
