//! Power-constrained scheduling (extension): scan power often caps how
//! many cores may be tested concurrently. This example plans System1 with
//! per-core decompressors, estimates each core's scan power from its
//! actual cubes (weighted transition counts under zero- vs
//! minimum-transition X-fill), then re-schedules under shrinking
//! peak-power budgets and shows the time/power trade-off.
//!
//! Run with `cargo run --release --example power_budget`.

#![forbid(unsafe_code)]

use soc_tdc::model::benchmarks::Design;
use soc_tdc::planner::{DecisionConfig, PlanRequest, Planner};
use soc_tdc::report::group_digits;
use soc_tdc::tam::{render_gantt, schedule_with, Constraints, CostModel};
use soc_tdc::wrapper::{design_wrapper, estimate_scan_power, Fill};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = Design::System1.build_with_cubes(11);
    let cfg = DecisionConfig {
        pattern_sample: Some(12),
        m_candidates: 8,
    };
    let plan =
        Planner::per_core_tdc().plan(&soc, &PlanRequest::tam_width(24).with_decisions(cfg))?;
    println!(
        "unconstrained plan: tau = {} cycles\n",
        group_digits(plan.test_time)
    );

    // Rebuild the cost rows at the chosen TAM widths so the constrained
    // scheduler can re-place the same operating points.
    let widths = plan.schedule.tam_widths().to_vec();
    let mut cost = CostModel::new(*widths.iter().max().expect("TAMs exist"));
    for s in &plan.core_settings {
        let mut row = vec![None; cost.max_width() as usize];
        for w in s.tam_width..=cost.max_width() {
            row[(w - 1) as usize] = Some(s.test_time);
        }
        cost.push_core(&s.name, row);
    }

    // Estimate per-core scan power from the actual cubes: mean weighted
    // transition count per shift cycle at each core's planned chain count.
    println!("per-core scan power (mean WTC/cycle at the planned wrapper):");
    let mut powers: Vec<u64> = Vec::new();
    for s in &plan.core_settings {
        let core = soc.core(s.core).expect("plan matches SOC");
        let chains = s.decompressor.map_or(s.tam_width, |(_, m)| m);
        let design = design_wrapper(core, chains);
        let ts = core.test_set().expect("cubes attached");
        let zero = estimate_scan_power(&design, ts, Fill::Zero, 8);
        let mt = estimate_scan_power(&design, ts, Fill::MinTransition, 8);
        println!(
            "  {:>7}: zero-fill {:>7.1}, MT-fill {:>7.1} ({:.0}% saved)",
            s.name,
            zero.average,
            mt.average,
            100.0 * (1.0 - mt.average / zero.average)
        );
        powers.push(mt.average.ceil() as u64 + 1);
    }
    let total: u64 = powers.iter().sum();
    println!("using MT-fill powers {powers:?}, total {total}\n");

    for frac in [100u64, 60, 40, 25] {
        let budget = (total * frac / 100).max(*powers.iter().max().expect("cores"));
        let power = Constraints {
            power: powers.clone(),
            power_budget: Some(budget),
            ..Constraints::default()
        };
        let schedule = schedule_with(&cost, &widths, &power)?;
        power.validate(&cost, &schedule)?;
        println!(
            "budget {budget:>4} ({frac:>3}% of total): tau = {:>10}, peak = {:>4}",
            group_digits(schedule.makespan()),
            power.peak_power(&schedule)
        );
        if frac == 25 {
            println!("\nschedule at the tightest budget:");
            println!("{}", render_gantt(&schedule, &cost, 60));
        }
    }
    Ok(())
}
