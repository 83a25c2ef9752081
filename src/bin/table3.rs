//! Table 3 — the headline result: test time and test-data volume with vs
//! without core-level test-data compression, at several TAM-width
//! constraints, for d695 and the industrial-like SOCs System1–System4.
//!
//! Regenerate with `cargo run --release --bin table3`.
//! Stdout is deterministic; each row's planner CPU times (no-TDC and TDC)
//! go to stderr, so the captured table is a golden file.

#![forbid(unsafe_code)]

use soc_tdc::model::benchmarks::Design;
use soc_tdc::planner::{DecisionConfig, PlanRequest, Planner};
use soc_tdc::report::{group_digits, mbits, ratio};

fn main() {
    println!("# Table 3: test-time minimization at TAM-width constraint, with vs without TDC");
    println!(
        "{:>8} {:>8} {:>6} | {:>13} {:>8} | {:>13} {:>8} | {:>8} {:>8} {:>8}",
        "design",
        "Vi(Mb)",
        "W_TAM",
        "tau_nc",
        "Vnc(Mb)",
        "tau_c",
        "Vc(Mb)",
        "t_nc/t_c",
        "Vi/Vc",
        "Vnc/Vc"
    );

    let designs = [
        Design::D695,
        Design::System1,
        Design::System2,
        Design::System3,
        Design::System4,
    ];
    let widths = [16u32, 32, 64];
    let cfg = DecisionConfig {
        pattern_sample: Some(24),
        m_candidates: 16,
    };

    let mut all_ratios: Vec<(bool, f64, f64, f64)> = Vec::new();
    for design in designs {
        let soc = design.build_with_cubes(2008);
        let v_i = soc.initial_volume_bits();
        for w in widths {
            let req = PlanRequest::tam_width(w).with_decisions(cfg.clone());
            let nc = Planner::no_tdc().plan(&soc, &req).expect("no-TDC plan");
            let c = Planner::per_core_tdc().plan(&soc, &req).expect("TDC plan");
            println!(
                "{:>8} {:>8} {:>6} | {:>13} {:>8} | {:>13} {:>8} | {:>8} {:>8} {:>8}",
                design.name(),
                mbits(v_i),
                w,
                group_digits(nc.test_time),
                mbits(nc.volume_bits),
                group_digits(c.test_time),
                mbits(c.volume_bits),
                ratio(nc.test_time, c.test_time),
                ratio(v_i, c.volume_bits),
                ratio(nc.volume_bits, c.volume_bits),
            );
            eprintln!(
                "# {} w={w} cpu no-tdc {:.2} s, tdc {:.2} s",
                design.name(),
                nc.cpu_time.as_secs_f64(),
                c.cpu_time.as_secs_f64(),
            );
            all_ratios.push((
                design.is_industrial(),
                nc.test_time as f64 / c.test_time as f64,
                v_i as f64 / c.volume_bits as f64,
                nc.volume_bits as f64 / c.volume_bits as f64,
            ));
        }
    }

    let avg = |rows: &[&(bool, f64, f64, f64)], k: usize| -> f64 {
        let vals: Vec<f64> = rows
            .iter()
            .map(|r| match k {
                1 => r.1,
                2 => r.2,
                _ => r.3,
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let all: Vec<&(bool, f64, f64, f64)> = all_ratios.iter().collect();
    let industrial: Vec<&(bool, f64, f64, f64)> = all_ratios.iter().filter(|r| r.0).collect();
    println!();
    println!(
        "average (all designs):        time x{:.2}  Vi/Vc x{:.2}  Vnc/Vc x{:.2}   [paper: 12.59x / - / 12.78x]",
        avg(&all, 1),
        avg(&all, 2),
        avg(&all, 3)
    );
    println!(
        "average (industrial only):    time x{:.2}  Vi/Vc x{:.2}  Vnc/Vc x{:.2}   [paper: 15.39x / - / 15.80x]",
        avg(&industrial, 1),
        avg(&industrial, 2),
        avg(&industrial, 3)
    );
}
