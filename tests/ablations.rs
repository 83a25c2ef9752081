//! Ablations of the design choices DESIGN.md §8 calls out, as quality
//! checks: each test prints its `[ablation:*]` line (run with
//! `cargo test --release --test ablations -- --nocapture` to see them) and
//! asserts the finding EXPERIMENTS.md reports.
//!
//! 1. scheduling order — the paper's longest-first greedy vs. identity and
//!    shortest-first orders;
//! 2. `m` policy — searching the width class for the best `m` (the paper's
//!    point in Fig. 2) vs. pinning `m` to the class maximum;
//! 3. encoder modes — full selective encoding vs. single-bit mode only;
//! 4. architecture refinement — hill-climbing on vs. off;
//! 5. search strategy — hill-climbing vs. simulated annealing;
//! 6. compaction — static compaction vs. the selective encoder.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

use soc_tdc::model::benchmarks::{self, Design};
use soc_tdc::model::compaction::compact;
use soc_tdc::model::generator::synthesize_missing_test_sets;
use soc_tdc::model::{Core, CubeSynthesis, Soc};
use soc_tdc::planner::{CompressionMode, DecisionConfig, DecisionTable};
use soc_tdc::selenc::{cube_cost_policy, evaluate_point, SliceCode};
use soc_tdc::tam::{
    anneal_architecture, greedy_schedule, longest_first_order, optimize_architecture,
    schedule_in_order, AnnealOptions, ArchitectureOptions, CostModel,
};
use soc_tdc::wrapper::design_wrapper;

/// The paper's evaluation seed.
const SEED: u64 = 2008;

/// System1's per-core time rows at w = 24, sampled (8 patterns, 8 `m`
/// candidates); built once and shared by the scheduling ablations.
fn system1_cost_model() -> &'static CostModel {
    static COST: OnceLock<CostModel> = OnceLock::new();
    COST.get_or_init(|| {
        let soc = Design::System1.build_with_cubes(SEED);
        let cfg = DecisionConfig {
            pattern_sample: Some(8),
            m_candidates: 8,
        };
        let mut cost = CostModel::new(24);
        for core in soc.cores() {
            let t = DecisionTable::build(core, CompressionMode::PerCore, 24, &cfg);
            cost.push_core(core.name(), t.time_row());
        }
        cost
    })
}

/// ckt-7 with cubes attached (the Figs. 2–3 subject).
fn ckt7() -> Core {
    let mut soc = Soc::new("ablation", vec![benchmarks::ckt(7)]);
    synthesize_missing_test_sets(&mut soc, SEED);
    soc.cores_mut()[0].clone()
}

/// A scaled-down industrial-like core with synthesized cubes.
fn small_core(cells: u32, patterns: u32, density: f64) -> Core {
    let mut core = Core::builder("small")
        .inputs(24)
        .outputs(24)
        .flexible_cells(cells, 512)
        .pattern_count(patterns)
        .care_density(density)
        .build()
        .expect("valid core");
    let cubes = CubeSynthesis::new(density).synthesize(&core, SEED);
    core.attach_test_set(cubes).expect("shape matches");
    core
}

#[test]
fn longest_first_order_beats_identity_and_shortest_first() {
    let cost = system1_cost_model();
    let widths = [8u32, 8, 8];
    let identity: Vec<usize> = (0..cost.core_count()).collect();
    let mut shortest = longest_first_order(cost, &widths);
    shortest.reverse();

    let paper = greedy_schedule(cost, &widths).unwrap().makespan();
    let ident = schedule_in_order(cost, &widths, &identity)
        .unwrap()
        .makespan();
    let worst = schedule_in_order(cost, &widths, &shortest)
        .unwrap()
        .makespan();
    println!("[ablation:order] longest-first {paper} | identity {ident} | shortest-first {worst}");
    assert!(paper < ident, "longest-first {paper} vs identity {ident}");
    assert!(
        paper < worst,
        "longest-first {paper} vs shortest-first {worst}"
    );
}

#[test]
fn best_m_beats_max_m() {
    let core = ckt7();
    // Best-m search vs. max-m pin at w = 10 (the Fig. 2 insight).
    let class = SliceCode::feasible_chains(10);
    let max_m = (*class.end()).min(core.max_wrapper_chains());
    let pinned = evaluate_point(&core, max_m, Some(16)).expect("max m realizable");
    let searched = class
        .step_by(4)
        .filter_map(|m| evaluate_point(&core, m, Some(16)))
        .min_by_key(|c| c.test_time)
        .expect("class nonempty");
    println!(
        "[ablation:m-policy] best-m {} vs max-m {} ({:.1}% worse)",
        searched.test_time,
        pinned.test_time,
        100.0 * (pinned.test_time as f64 / searched.test_time as f64 - 1.0)
    );
    assert!(searched.test_time < pinned.test_time);
}

#[test]
fn group_copy_mode_saves_codewords() {
    let core = small_core(3_000, 20, 0.2);
    let design = design_wrapper(&core, 200);
    let code = SliceCode::for_chains(design.chain_count());
    let ts = core.test_set().unwrap();
    let full: u64 = ts
        .iter()
        .map(|p| cube_cost_policy(code, &design, p, true))
        .sum();
    let single: u64 = ts
        .iter()
        .map(|p| cube_cost_policy(code, &design, p, false))
        .sum();
    println!(
        "[ablation:group-copy] full encoder {full} codewords vs single-bit-only {single} \
         ({:.1}% saved by group-copy mode)",
        100.0 * (1.0 - full as f64 / single as f64)
    );
    assert!(full < single);
}

#[test]
fn refinement_never_hurts() {
    let cost = system1_cost_model();
    let off = ArchitectureOptions {
        refine_steps: 0,
        ..Default::default()
    };
    let on = ArchitectureOptions {
        refine_steps: 64,
        ..Default::default()
    };
    let with = optimize_architecture(cost, 24, &on).unwrap().test_time;
    let without = optimize_architecture(cost, 24, &off).unwrap().test_time;
    println!("[ablation:refinement] hill-climb on {with} vs off {without}");
    assert!(with <= without);
}

#[test]
fn annealing_matches_or_beats_hill_climbing() {
    let cost = system1_cost_model();
    let hill = optimize_architecture(cost, 24, &ArchitectureOptions::default())
        .unwrap()
        .test_time;
    let sa = anneal_architecture(cost, 24, &AnnealOptions::default())
        .unwrap()
        .test_time;
    println!("[ablation:search] hill-climb {hill} vs simulated annealing {sa}");
    assert!(sa <= hill);
}

#[test]
fn compaction_trades_patterns_for_care_density() {
    // The compaction-vs-compression tension: static compaction shrinks the
    // pattern count but raises care density, hurting selective encoding.
    let core = small_core(2_000, 60, 0.02);
    let ts = core.test_set().unwrap();
    let compacted = compact(ts);
    let design = design_wrapper(&core, 128);
    let code = SliceCode::for_chains(design.chain_count());
    let raw_cw: u64 = ts
        .iter()
        .map(|p| cube_cost_policy(code, &design, p, true))
        .sum();
    let cmp_cw: u64 = compacted
        .test_set
        .iter()
        .map(|p| cube_cost_policy(code, &design, p, true))
        .sum();
    println!(
        "[ablation:compaction] {} patterns → {} after compaction; codewords {} → {} \
         (density {:.3} → {:.3})",
        ts.pattern_count(),
        compacted.test_set.pattern_count(),
        raw_cw,
        cmp_cw,
        ts.care_density(),
        compacted.test_set.care_density(),
    );
    assert!(compacted.test_set.pattern_count() < ts.pattern_count());
    assert!(compacted.test_set.care_density() > ts.care_density());
}
