//! Independent output check: re-reads every plan file an op wrote with
//! `tdcsoc::parse_plan` and re-derives the schedule invariants from the
//! per-core settings alone, without the planner's own validators and
//! without `soctdc verify` (whose tester-image export rejects sampled
//! default plans by design).

use std::collections::BTreeMap;

use tdcsoc::{parse_plan, Budget, PlanOutcome};

use crate::ops::{self, Op, Source};

/// Checks every op and prints `ok <op> <plans> <Σ τ> <Σ V>` or
/// `fail <op> <reason>` per op.
pub fn run(ops: &[Op]) {
    let mut socs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match check_op(op, &mut socs) {
            Ok((plans, tau, volume)) => println!("ok {i} {plans} {tau} {volume}"),
            Err(reason) => println!("fail {i} {}", reason.replace('\n', " ")),
        }
    }
}

/// Core names of an SOC, memoized by source (design name or file path).
fn core_names<'a>(
    socs: &'a mut BTreeMap<String, Vec<String>>,
    source: &Source,
) -> Result<&'a [String], String> {
    let key = source.key();
    if !socs.contains_key(&key) {
        let soc = ops::load_soc(source)?;
        socs.insert(
            key.clone(),
            soc.cores().iter().map(|c| c.name().to_string()).collect(),
        );
    }
    Ok(&socs[&key])
}

fn check_op(
    op: &Op,
    socs: &mut BTreeMap<String, Vec<String>>,
) -> Result<(usize, u64, u64), String> {
    match op {
        Op::Plan(p) => {
            let names = core_names(socs, &p.source)?;
            let (tau, volume) = check_file(&p.plan_out, names, p.width)?;
            Ok((1, tau, volume))
        }
        Op::Fleet(f) => {
            let text = std::fs::read_to_string(&f.manifest)
                .map_err(|e| format!("cannot read {}: {e}", f.manifest))?;
            let manifest = fleet::Manifest::parse(&text).map_err(|e| e.to_string())?;
            let (mut tau, mut volume) = (0u64, 0u64);
            for inst in &manifest.instances {
                let names = core_names(socs, &ops::fleet_source(&inst.source)?)?;
                let path = format!("{}/{}.plan", f.plan_dir, inst.id);
                let (t, v) = check_file(&path, names, inst.width)?;
                tau += t;
                volume += v;
            }
            Ok((manifest.instances.len(), tau, volume))
        }
    }
}

fn check_file(path: &str, names: &[String], width: u32) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check_plan(&text, names, width).map_err(|e| format!("{path}: {e}"))
}

/// Checks one plan text against the SOC's core names and the width
/// budget; returns its `(τ, V)`.
pub fn check_plan(text: &str, names: &[String], width: u32) -> Result<(u64, u64), String> {
    let plan = parse_plan(text).map_err(|e| format!("unparsable plan: {e}"))?;
    if plan.budget != Budget::TamWidth(width) {
        return Err(format!("budget {:?}, expected tam {width}", plan.budget));
    }
    if plan.outcome != PlanOutcome::Optimal {
        return Err(format!("outcome {}, expected optimal", plan.outcome));
    }
    let tams = plan.schedule.tam_widths();
    let used: u64 = tams.iter().map(|&w| u64::from(w)).sum();
    if used > u64::from(width) {
        return Err(format!("TAM widths sum to {used} > budget {width}"));
    }
    let mut seen = vec![false; names.len()];
    let mut per_tam: Vec<Vec<(u64, u64, &str)>> = vec![Vec::new(); tams.len()];
    let mut makespan = 0u64;
    let mut volume = 0u64;
    for s in &plan.core_settings {
        let core = s.core.0;
        if core >= names.len() || names[core] != s.name {
            return Err(format!("core {core} `{}` is not in the SOC", s.name));
        }
        if std::mem::replace(&mut seen[core], true) {
            return Err(format!("core `{}` scheduled twice", s.name));
        }
        if s.tam >= tams.len() || tams[s.tam] != s.tam_width {
            return Err(format!(
                "core `{}` on TAM {} of the wrong width",
                s.name, s.tam
            ));
        }
        let end = s.start + s.test_time;
        per_tam[s.tam].push((s.start, end, &s.name));
        makespan = makespan.max(end);
        volume += s.volume_bits;
    }
    if let Some(core) = seen.iter().position(|&s| !s) {
        return Err(format!("core `{}` never scheduled", names[core]));
    }
    for (tam, tests) in per_tam.iter_mut().enumerate() {
        tests.sort_unstable();
        for pair in tests.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "`{}` and `{}` overlap on TAM {tam}",
                    pair[0].2, pair[1].2
                ));
            }
        }
    }
    if makespan != plan.test_time {
        return Err(format!(
            "makespan {makespan} != reported τ {}",
            plan.test_time
        ));
    }
    if volume != plan.volume_bits {
        return Err(format!(
            "Σ core volume {volume} != reported V {}",
            plan.volume_bits
        ));
    }
    Ok((plan.test_time, plan.volume_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = "plan v1\nmode TDC/core\nbudget tam 8\ntime 30\nvolume 9\noutcome optimal\n\
                        tams 5 3\ncore 0 a tam 0 start 0 time 10 volume 4 raw\n\
                        core 1 b tam 0 start 10 time 20 volume 2 raw\n\
                        core 2 c tam 1 start 0 time 25 volume 3 raw\n";

    fn names() -> Vec<String> {
        ["a", "b", "c"].map(String::from).to_vec()
    }

    #[test]
    fn accepts_a_consistent_plan() {
        assert_eq!(check_plan(PLAN, &names(), 8), Ok((30, 9)));
    }

    #[test]
    fn rejects_each_broken_invariant() {
        let over_budget = check_plan(PLAN, &names(), 7);
        assert!(over_budget.is_err(), "{over_budget:?}");
        let missing = check_plan(PLAN, &["a", "b", "c", "d"].map(String::from), 8);
        assert!(missing.unwrap_err().contains("never scheduled"));
        let wrong_tau = PLAN.replace("time 30", "time 31");
        assert!(check_plan(&wrong_tau, &names(), 8)
            .unwrap_err()
            .contains("makespan"));
    }
}
