//! Traced in-process replay of the benchmark's ops through the crates'
//! public functions, one span around each call.
//!
//! A `plan` op becomes: SOC build plus cube synthesis (`soc-model.synth`),
//! `Planner::plan_with_stats` with stream verification off
//! (`tdcsoc.plan`), `selenc::verify_operating_point` per compressed core
//! (`selenc.verify`), plan write-out and read-back (`tdcsoc.planfile`),
//! and a replay of the cascade's public stages on the same cost model
//! (`tam.optimize_architecture`, then `tam.exhaustive_architecture` when
//! the op has a deadline). A `fleet` op runs `fleet::run_fleet_with`
//! (`fleet.run`, one `fleet.instance` child per design instance) and then
//! replays the per-plan layers the fleet ran internally.
//!
//! The planner does not expose the cost model it searched, so the tam
//! replay rebuilds it from public `DecisionTable`s (`replay.cost_model`,
//! memoized per core content). Spans that exist only because of the
//! replay carry the argument `replay: 1`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use robust::CancelToken;
use soc_model::{Core, Soc};
use tam::{
    exhaustive_architecture_with, optimize_architecture_with, ArchitectureOptions, CostModel,
    SearchStatus,
};
use tdcsoc::{
    parse_plan, write_plan, CompressionMode, DecisionConfig, DecisionTable, Plan, PlanControl,
    PlanStats, Planner, Technique,
};

use crate::ops::{self, FleetOp, Op, PlanOp};
use crate::spans::{Args, Recorder};

const REPLAY: (&str, u64) = ("replay", 1);

pub fn run(ops: &[Op], out: &str) -> Result<(), String> {
    let rec = Recorder::new();
    let mut tables = TableMemo::default();
    for (i, op) in ops.iter().enumerate() {
        let root = rec.begin(i, 0, "op");
        let result = match op {
            Op::Plan(p) => replay_plan(&rec, i, root.id(), p, &mut tables),
            Op::Fleet(f) => replay_fleet(&rec, i, root.id(), f, &mut tables),
        };
        rec.end(root, Vec::new());
        match result {
            Ok(()) => println!("ok {i}"),
            Err(reason) => println!("fail {i} {}", reason.replace('\n', " ")),
        }
    }
    std::fs::write(out, rec.chrome_json()).map_err(|e| format!("cannot write {out}: {e}"))
}

fn replay_plan(
    rec: &Recorder,
    op: usize,
    parent: u64,
    p: &PlanOp,
    tables: &mut TableMemo,
) -> Result<(), String> {
    let soc = rec.span(op, parent, "soc-model.synth", || {
        let soc = ops::load_soc_with_cubes(&p.source, p.seed);
        let bits = soc.as_ref().map_or(0, Soc::initial_volume_bits);
        (soc, vec![("stimulus_bits", bits)])
    })?;
    let mut control = match p.deadline_ms {
        Some(ms) => PlanControl::with_deadline(Duration::from_millis(ms)),
        None => PlanControl::default(),
    };
    if let Some(dir) = &p.profile_cache {
        control = control.cache_profiles_in(dir, ops::cache_tag(&soc, p.seed));
    }
    let control = control.without_stream_verification();
    let request = ops::request(p);
    let (plan, _) = rec
        .span(op, parent, "tdcsoc.plan", || {
            let result = Planner::per_core_tdc().plan_with_stats(&soc, &request, &control);
            let args = result.as_ref().map_or_else(
                |_| Vec::new(),
                |(plan, stats)| {
                    let mut args = stats_args(stats);
                    args.extend([
                        ("test_time", plan.test_time),
                        ("volume_bits", plan.volume_bits),
                    ]);
                    args
                },
            );
            (result, args)
        })
        .map_err(|e| e.to_string())?;
    verify_streams(rec, op, parent, &soc, &plan)?;
    write_plan_file(rec, op, parent, &plan, &p.plan_out)?;
    let cost = rec.span(op, parent, "replay.cost_model", || {
        let decisions = ops::cli_decisions();
        let (cost, built) =
            tables.cost_model(&soc, p.seed, &decisions, p.width, p.width, p.workers);
        (cost, vec![("cores_built", built), REPLAY])
    });
    let best = replay_search(rec, op, parent, &cost, p.width, p.workers, p.deadline_ms)?;
    if best != plan.test_time {
        return Err(format!(
            "tam replay found τ {best}, plan reports {}",
            plan.test_time
        ));
    }
    Ok(())
}

fn replay_fleet(
    rec: &Recorder,
    op: usize,
    parent: u64,
    f: &FleetOp,
    tables: &mut TableMemo,
) -> Result<(), String> {
    let manifest = rec.span(op, parent, "fleet.manifest", || {
        let parsed = std::fs::read_to_string(&f.manifest)
            .map_err(|e| format!("cannot read {}: {e}", f.manifest))
            .and_then(|text| fleet::Manifest::parse(&text).map_err(|e| e.to_string()));
        let n = parsed.as_ref().map_or(0, |m| m.instances.len() as u64);
        (parsed, vec![("instances", n)])
    })?;
    // Verification moves out of the instances into its own spans below;
    // it never changes a plan.
    let opts = fleet::FleetOptions {
        workers: f.workers,
        profile_cache: f.profile_cache.as_ref().map(Into::into),
        skip_stream_verification: true,
        ..Default::default()
    };
    let run = rec.begin(op, parent, "fleet.run");
    let run_id = run.id();
    let on_report = |r: &fleet::InstanceReport| {
        let end = rec.now();
        let start = end.saturating_sub(Duration::from_secs_f64(r.latency_ms / 1e3));
        rec.record(op, run_id, "fleet.instance", start, end, Vec::new());
    };
    let hooks = fleet::FleetHooks {
        on_report: Some(&on_report),
    };
    let report = fleet::run_fleet_with(&manifest, &opts, &hooks);
    let distinct_socs: BTreeSet<(fleet::SocSource, u64, u64)> = manifest
        .instances
        .iter()
        .map(|i| (i.source.clone(), i.seed, i.density.to_bits()))
        .collect();
    let profile_entries = f.profile_cache.as_ref().map_or(0, |dir| {
        tdcsoc::profile_cache_entries(std::path::Path::new(dir)).len() as u64
    });
    let summary = &report.summary;
    let mut args = stats_args(&summary.stats);
    args.extend([
        ("soc_cache_hits", summary.soc_cache.hits),
        ("soc_cache_misses", summary.soc_cache.misses),
        ("distinct_socs", distinct_socs.len() as u64),
        ("profile_entries", profile_entries),
        ("failed", summary.failed as u64),
    ]);
    rec.end(run, args);
    if let Some(bad) = report.instances.iter().find(|r| r.plan.is_none()) {
        return Err(format!(
            "instance {} failed: {}",
            bad.id,
            bad.outcome.keyword()
        ));
    }

    // The fleet built each distinct SOC internally; rebuild them for the
    // per-plan replays.
    let mut socs: BTreeMap<(String, u64), Soc> = BTreeMap::new();
    let mut widest: BTreeMap<(String, u64), u32> = BTreeMap::new();
    for inst in &manifest.instances {
        let source = ops::fleet_source(&inst.source)?;
        let key = (source.key(), inst.seed);
        let w = widest.entry(key.clone()).or_insert(0);
        *w = (*w).max(inst.width);
        if let Entry::Vacant(slot) = socs.entry(key) {
            slot.insert(rec.span(op, parent, "soc-model.synth", || {
                let soc = ops::load_soc_with_cubes(&source, inst.seed);
                let bits = soc.as_ref().map_or(0, Soc::initial_volume_bits);
                (soc, vec![("stimulus_bits", bits), REPLAY])
            })?);
        }
    }
    for (inst, r) in manifest.instances.iter().zip(&report.instances) {
        let Some(plan) = &r.plan else { continue };
        let key = (ops::fleet_source(&inst.source)?.key(), inst.seed);
        let soc = &socs[&key];
        verify_streams(rec, op, parent, soc, plan)?;
        let path = format!("{}/{}.plan", f.plan_dir, inst.id);
        write_plan_file(rec, op, parent, plan, &path)?;
        let cost = rec.span(op, parent, "replay.cost_model", || {
            let (cost, built) = tables.cost_model(
                soc,
                inst.seed,
                &inst.decisions,
                inst.width,
                widest[&key],
                f.workers,
            );
            (cost, vec![("cores_built", built), REPLAY])
        });
        let best = replay_search(rec, op, parent, &cost, inst.width, f.workers, None)?;
        if best != plan.test_time {
            return Err(format!(
                "{}: tam replay found τ {best}, plan reports {}",
                inst.id, plan.test_time
            ));
        }
    }
    Ok(())
}

/// Counters of one planning run, as span arguments.
fn stats_args(stats: &PlanStats) -> Args {
    vec![
        ("profile_hits", stats.profile_hits as u64),
        ("profile_partial", stats.profile_partial_hits as u64),
        ("profile_misses", stats.profile_misses as u64),
        ("profile_evictions", stats.profile_evictions),
        ("widths_computed", stats.widths_computed),
        ("widths_reused", stats.widths_reused),
        ("memo_hits", stats.memo.hits),
        ("memo_misses", stats.memo.misses),
    ]
}

/// Replays every selective-encoding operating point of `plan`, as the
/// planner's plan-time stream check does.
fn verify_streams(
    rec: &Recorder,
    op: usize,
    parent: u64,
    soc: &Soc,
    plan: &Plan,
) -> Result<(), String> {
    let group = rec.begin(op, parent, "selenc.verify");
    let (mut streams, mut words) = (0u64, 0u64);
    let mut failure = None;
    for s in &plan.core_settings {
        let (Technique::SelectiveEncoding, Some((_, m))) = (s.technique, s.decompressor) else {
            continue;
        };
        let core: &Core = &soc.cores()[s.core.0];
        let result = rec.span(op, group.id(), "selenc.verify_operating_point", || {
            let r = selenc::verify_operating_point(core, m);
            let codewords = r.as_ref().map_or(0, |r| r.codewords);
            (r, vec![("codewords", codewords)])
        });
        match result {
            Ok(report) => {
                streams += 1;
                words += report.codewords;
            }
            Err(e) => {
                failure = Some(format!("stream of {} failed: {e}", s.name));
                break;
            }
        }
    }
    rec.end(group, vec![("streams", streams), ("codewords", words)]);
    failure.map_or(Ok(()), Err)
}

/// Writes the plan file and reads it back, as a consumer would.
fn write_plan_file(
    rec: &Recorder,
    op: usize,
    parent: u64,
    plan: &Plan,
    path: &str,
) -> Result<(), String> {
    rec.span(op, parent, "tdcsoc.planfile", || {
        let text = write_plan(plan);
        let result = match parse_plan(&text) {
            Ok(back) if write_plan(&back) == text => {
                std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))
            }
            Ok(_) => Err(format!("{path}: plan text does not round-trip")),
            Err(e) => Err(format!("{path}: written plan does not parse: {e}")),
        };
        (result, vec![("bytes", text.len() as u64)])
    })
}

/// The cascade's public stages on `cost`: the greedy hill-climber, then
/// (under a deadline, as the cascade does) exhaustive enumeration, which
/// must finish. Returns the best makespan found.
fn replay_search(
    rec: &Recorder,
    op: usize,
    parent: u64,
    cost: &CostModel,
    width: u32,
    workers: usize,
    deadline_ms: Option<u64>,
) -> Result<u64, String> {
    let token = deadline_ms.map_or_else(CancelToken::never, |ms| {
        CancelToken::expiring_in(Duration::from_millis(ms))
    });
    let opts = ArchitectureOptions {
        workers: Some(workers),
        ..Default::default()
    };
    let greedy = rec
        .span(op, parent, "tam.optimize_architecture", || {
            let r = optimize_architecture_with(cost, width, &opts, &token);
            let tau = r.as_ref().map_or(0, |s| s.architecture.test_time);
            (r, vec![("test_time", tau), REPLAY])
        })
        .map_err(|e| format!("greedy replay: {e}"))?;
    let mut best = greedy.architecture.test_time;
    if deadline_ms.is_some() {
        let max_tams = opts.max_tams.unwrap_or(width);
        let exhaustive = rec
            .span(op, parent, "tam.exhaustive_architecture", || {
                let r = exhaustive_architecture_with(cost, width, max_tams, &token);
                let tau = r.as_ref().map_or(0, |s| s.architecture.test_time);
                (r, vec![("test_time", tau), REPLAY])
            })
            .map_err(|e| format!("exhaustive replay: {e}"))?;
        if exhaustive.status != SearchStatus::Complete {
            return Err("exhaustive replay did not finish".into());
        }
        best = best.min(exhaustive.architecture.test_time);
    }
    Ok(best)
}

/// Per-core decision-table time rows, keyed by everything that shapes a
/// core's synthesized test set and its evaluation fidelity, so an op
/// rebuilds only the cores it has not seen (one per single-core edit).
/// Rows built for a wider budget answer narrower ones by prefix, the
/// contract the planner's on-disk profile cache relies on too.
#[derive(Default)]
struct TableMemo {
    rows: BTreeMap<RowKey, (u32, Vec<Option<u64>>)>,
}

type RowKey = (String, String, u32, u64, u64, Option<usize>, usize);

impl TableMemo {
    /// The cost model of `soc` at `width`, building missing rows at
    /// `build_width >= width` on `workers` threads. Returns the model and
    /// the number of cores built.
    fn cost_model(
        &mut self,
        soc: &Soc,
        seed: u64,
        decisions: &DecisionConfig,
        width: u32,
        build_width: u32,
        workers: usize,
    ) -> (CostModel, u64) {
        let keys: Vec<RowKey> = soc
            .cores()
            .iter()
            .map(|c| {
                (
                    soc.name().to_string(),
                    c.name().to_string(),
                    c.pattern_count(),
                    c.nominal_care_density().to_bits(),
                    seed,
                    decisions.pattern_sample,
                    decisions.m_candidates,
                )
            })
            .collect();
        let missing: Vec<usize> = (0..keys.len())
            .filter(|&i| self.rows.get(&keys[i]).is_none_or(|(w, _)| *w < width))
            .collect();
        for (i, row) in build_rows(soc, &missing, decisions, build_width.max(width), workers) {
            self.rows
                .insert(keys[i].clone(), (build_width.max(width), row));
        }
        let mut cost = CostModel::new(width);
        for (core, key) in soc.cores().iter().zip(&keys) {
            let row = &self.rows[key].1;
            cost.push_core(core.name(), row[..width as usize].to_vec());
        }
        (cost, missing.len() as u64)
    }
}

fn build_rows(
    soc: &Soc,
    cores: &[usize],
    decisions: &DecisionConfig,
    width: u32,
    workers: usize,
) -> Vec<(usize, Vec<Option<u64>>)> {
    let next = AtomicUsize::new(0);
    let rows = Mutex::new(Vec::with_capacity(cores.len()));
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, cores.len().max(1)) {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // travel through the mutex.
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = cores.get(k) else { break };
                let table = DecisionTable::build(
                    &soc.cores()[i],
                    CompressionMode::PerCore,
                    width,
                    decisions,
                );
                rows.lock()
                    .expect("row collector poisoned")
                    .push((i, table.time_row()));
            });
        }
    });
    rows.into_inner().expect("row collector poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Source;
    use soc_model::benchmarks::Design;

    #[test]
    fn replayed_cost_model_reproduces_the_planned_makespan() {
        let soc = Design::D695.build_with_cubes(3);
        let op = PlanOp {
            source: Source::Design(Design::D695),
            width: 16,
            seed: 3,
            workers: 2,
            deadline_ms: None,
            profile_cache: None,
            plan_out: String::new(),
        };
        let plan = Planner::per_core_tdc()
            .plan(&soc, &ops::request(&op))
            .unwrap();
        let mut memo = TableMemo::default();
        // Built wider than needed: the width-16 prefix must be the same.
        let decisions = ops::cli_decisions();
        let (cost, built) = memo.cost_model(&soc, 3, &decisions, 16, 24, 2);
        assert_eq!(built, 10);
        let rec = Recorder::new();
        let best = replay_search(&rec, 0, 0, &cost, 16, 2, None).unwrap();
        assert_eq!(best, plan.test_time);
        let (_, rebuilt) = memo.cost_model(&soc, 3, &decisions, 16, 16, 2);
        assert_eq!(rebuilt, 0);
    }
}
