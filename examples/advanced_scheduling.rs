//! Advanced scheduling extensions in one scenario: EXTEST-style conflict
//! constraints, multi-frequency TAMs, and the compaction-vs-compression
//! trade-off.
//!
//! Run with `cargo run --release --example advanced_scheduling`.

#![forbid(unsafe_code)]

use soc_tdc::model::benchmarks::Design;
use soc_tdc::model::compaction::compact;
use soc_tdc::planner::{CompressionMode, DecisionConfig, DecisionTable};
use soc_tdc::report::group_digits;
use soc_tdc::tam::{greedy_schedule, optimize_multifreq, schedule_with, Constraints, CostModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = Design::System1.build_with_cubes(3);
    let cfg = DecisionConfig {
        pattern_sample: Some(8),
        m_candidates: 8,
    };
    let mut cost = CostModel::new(16);
    for core in soc.cores() {
        let t = DecisionTable::build(core, CompressionMode::PerCore, 16, &cfg);
        cost.push_core(core.name(), t.time_row());
    }
    let widths = [8u32, 8];

    // 1. Exclusive pairs: cores 0/1 and 2/3 share analog supplies, so
    //    their scan tests may not overlap even across TAMs.
    let free = greedy_schedule(&cost, &widths)?;
    let conflicts = Constraints {
        exclusive: vec![(0, 1), (2, 3)],
        ..Constraints::default()
    };
    let constrained = schedule_with(&cost, &widths, &conflicts)?;
    conflicts.validate(&cost, &constrained)?;
    println!(
        "conflict constraints: tau {} → {} (+{:.1}%)",
        group_digits(free.makespan()),
        group_digits(constrained.makespan()),
        100.0 * (constrained.makespan() as f64 / free.makespan() as f64 - 1.0)
    );

    // 2. Multi-frequency TAMs: the two smallest cores tolerate 4× scan
    //    clocks, the rest 2×.
    let caps = Constraints {
        freq_cap: soc
            .cores()
            .iter()
            .map(|c| if c.scan_cells() < 15_000 { 4 } else { 2 })
            .collect(),
        ..Constraints::default()
    };
    let (tams, mf) = optimize_multifreq(&cost, 16, &[1, 2, 4], &caps)?;
    tams.validate(&cost, &mf)?;
    println!(
        "multi-frequency TAMs: tau {} → {} using {:?}",
        group_digits(free.makespan()),
        group_digits(mf.makespan()),
        mf.tam_widths()
            .iter()
            .zip(&tams.tam_freq)
            .map(|(w, f)| format!("{w}w@{f}x"))
            .collect::<Vec<_>>()
    );

    // 3. Compaction vs compression on one core's cubes.
    let core = &soc.cores()[0];
    let ts = core.test_set().expect("cubes attached");
    let compacted = compact(ts);
    println!(
        "compaction on {}: {} → {} patterns, care density {:.3} → {:.3}",
        core.name(),
        ts.pattern_count(),
        compacted.test_set.pattern_count(),
        ts.care_density(),
        compacted.test_set.care_density()
    );
    println!("(denser cubes compress worse — see the `ablation_compaction` bench)");
    Ok(())
}
