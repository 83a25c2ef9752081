//! The constrained list scheduler: the paper's heuristic (§3, step 4)
//! under optional side constraints.
//!
//! Cores are taken longest-test-first (in a topological order when
//! precedence edges exist) and each goes to the TAM where the SOC test
//! time grows least, ties to the earlier finish, then the lower TAM
//! index. Constraints only change *when* a test may start on a TAM and
//! *how long* it runs there:
//!
//! * **power** — scan testing dissipates far more power than functional
//!   operation, so a test may be delayed until the SOC-wide peak-power
//!   budget has room for it;
//! * **precedence** — a test starts only after all its predecessors have
//!   finished (memory BIST before the logic around it, interconnect after
//!   both endpoints);
//! * **exclusive pairs** — two tests that share an analog supply, a BIST
//!   controller or a parent wrapper never overlap in time, even on
//!   different TAMs;
//! * **multi-frequency TAMs** (after Xu & Nicolici, the paper's [12]) — a
//!   TAM clocked at `f×` the ATE rate runs a test in `ceil(t / f)` base
//!   cycles, but only cores whose frequency cap is at least `f` may use it.
//!
//! With every field empty this is exactly [`greedy_schedule`].
//!
//! [`greedy_schedule`]: crate::greedy_schedule

use crate::cost::CostModel;
use crate::greedy::longest_first_order;
use crate::optimize::balanced_split;
use crate::schedule::{Schedule, ScheduleError, ScheduledTest};

/// Side constraints on a test schedule. Every field is empty by default,
/// and an empty field constrains nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Constraints {
    /// Per-core test power (arbitrary units; only ratios to the budget
    /// matter). Empty: no core draws power.
    pub power: Vec<u64>,
    /// SOC-wide peak-power budget. `None`: power is unconstrained.
    pub power_budget: Option<u64>,
    /// `(before, after)` pairs: `after` starts only once `before` ends.
    pub precedence: Vec<(usize, usize)>,
    /// Unordered pairs of cores whose tests may not overlap in time.
    pub exclusive: Vec<(usize, usize)>,
    /// Per-TAM clock multiplier relative to the ATE base rate. Empty:
    /// every TAM runs at 1×.
    pub tam_freq: Vec<u32>,
    /// Per-core cap on the clock multiplier. Empty: no cap.
    pub freq_cap: Vec<u32>,
}

impl Constraints {
    /// Checks that the constraints describe `cores` cores and `tams` TAMs.
    fn check(&self, cores: usize, tams: usize) -> Result<(), ScheduleError> {
        for (field, found, expected) in [
            ("power", self.power.len(), cores),
            ("freq_cap", self.freq_cap.len(), cores),
            ("tam_freq", self.tam_freq.len(), tams),
        ] {
            if found != 0 && found != expected {
                return Err(ScheduleError::ConstraintLength {
                    field,
                    expected,
                    found,
                });
            }
        }
        let pairs = self.precedence.iter().chain(&self.exclusive);
        if let Some(core) = pairs.flat_map(|&(a, b)| [a, b]).find(|&c| c >= cores) {
            return Err(ScheduleError::UnknownConstraintCore { core });
        }
        if let Some(tam) = self.tam_freq.iter().position(|&f| f == 0) {
            return Err(ScheduleError::ZeroClockMultiplier { tam });
        }
        if let Some(budget) = self.power_budget {
            if budget == 0 {
                return Err(ScheduleError::ZeroPowerBudget);
            }
            if let Some(core) = self.power.iter().position(|&p| p > budget) {
                return Err(ScheduleError::CoreOverPowerBudget {
                    core,
                    power: self.power[core],
                    budget,
                });
            }
        }
        Ok(())
    }

    /// `priority` reordered topologically under the precedence edges, the
    /// best-priority ready core first.
    fn order(&self, priority: Vec<usize>) -> Result<Vec<usize>, ScheduleError> {
        if self.precedence.is_empty() {
            return Ok(priority);
        }
        let n = priority.len();
        let mut waiting_on = vec![0usize; n];
        for &(_, after) in &self.precedence {
            waiting_on[after] += 1;
        }
        let mut done = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let ready = priority.iter().find(|&&c| !done[c] && waiting_on[c] == 0);
            let Some(&core) = ready else {
                let core = done.iter().position(|&d| !d).unwrap_or(0);
                return Err(ScheduleError::PrecedenceCycle { core });
            };
            done[core] = true;
            order.push(core);
            for &(before, after) in &self.precedence {
                if before == core {
                    waiting_on[after] -= 1;
                }
            }
        }
        Ok(order)
    }

    fn freq(&self, tam: usize) -> u32 {
        self.tam_freq.get(tam).copied().unwrap_or(1)
    }

    fn core_power(&self, core: usize) -> u64 {
        self.power.get(core).copied().unwrap_or(0)
    }

    fn excludes(&self, a: usize, b: usize) -> bool {
        self.exclusive
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    /// Duration of `core` on TAM `tam` of `width` wires, in ATE cycles.
    fn duration(
        &self,
        cost: &CostModel,
        core: usize,
        tam: usize,
        width: u32,
    ) -> Result<u64, ScheduleError> {
        let freq = self.freq(tam);
        if let Some(&cap) = self.freq_cap.get(core).filter(|&&cap| freq > cap) {
            return Err(ScheduleError::FrequencyCapExceeded { core, freq, cap });
        }
        let time = cost
            .time(core, width)
            .ok_or(ScheduleError::InfeasibleWidth { core, width })?;
        Ok(time.div_ceil(u64::from(freq)))
    }

    /// Whether `core` may run over `[start, start + duration)` next to the
    /// tests already `placed`.
    fn fits(&self, placed: &[ScheduledTest], core: usize, start: u64, duration: u64) -> bool {
        let end = start + duration;
        let clash =
            |t: &ScheduledTest| t.start < end && start < t.end() && self.excludes(core, t.core);
        if placed.iter().any(clash) {
            return false;
        }
        let Some(budget) = self.power_budget else {
            return true;
        };
        // Power is piecewise constant: check at `start` and at every test
        // start inside the window.
        let starts = placed
            .iter()
            .map(|t| t.start)
            .filter(|&s| s > start && s < end);
        std::iter::once(start).chain(starts).all(|at| {
            let active = placed.iter().filter(|t| t.start <= at && t.end() > at);
            active.map(|t| self.core_power(t.core)).sum::<u64>() + self.core_power(core) <= budget
        })
    }

    /// Earliest start `≥ ready` at which `core` fits. Power only drops and
    /// exclusive tests only release at test ends, so the candidates are
    /// `ready` and every later end; after the last end everything is idle.
    fn earliest_start(
        &self,
        placed: &[ScheduledTest],
        core: usize,
        ready: u64,
        duration: u64,
    ) -> u64 {
        if self.power_budget.is_none() && self.exclusive.is_empty() {
            return ready;
        }
        let mut candidates: Vec<u64> = placed
            .iter()
            .map(ScheduledTest::end)
            .filter(|&e| e > ready)
            .collect();
        candidates.push(ready);
        candidates.sort_unstable();
        let latest = candidates.last().copied().unwrap_or(ready);
        candidates
            .into_iter()
            .find(|&t| self.fits(placed, core, t, duration))
            .unwrap_or(latest)
    }

    /// Peak concurrent power of `schedule` under [`power`](Self::power).
    pub fn peak_power(&self, schedule: &Schedule) -> u64 {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for t in schedule.tests() {
            let p = self.core_power(t.core) as i64;
            events.push((t.start, p));
            events.push((t.end(), -p));
        }
        // Ends sort before starts at the same instant: a test ending at t
        // frees its power for a test starting at t.
        events.sort_unstable();
        let mut current = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            current += delta;
            peak = peak.max(current);
        }
        peak as u64
    }

    /// Checks `schedule` against `cost` and every constraint: the
    /// [`Schedule::validate`] invariants with durations of
    /// `ceil(t / freq)`, frequency caps, the power budget, precedence and
    /// exclusive pairs.
    ///
    /// # Errors
    ///
    /// The first malformed constraint or violated invariant.
    pub fn validate(&self, cost: &CostModel, schedule: &Schedule) -> Result<(), ScheduleError> {
        self.check(cost.core_count(), schedule.tam_widths().len())?;
        schedule.validate_durations(cost.core_count(), |t, width| {
            self.duration(cost, t.core, t.tam, width)
        })?;
        if let Some(budget) = self.power_budget {
            let peak = self.peak_power(schedule);
            if peak > budget {
                return Err(ScheduleError::PowerExceeded { peak, budget });
            }
        }
        // Coverage is validated, so every core has exactly one (start, end).
        let mut span = vec![(0, 0); cost.core_count()];
        for t in schedule.tests() {
            span[t.core] = (t.start, t.end());
        }
        let overlap = |a: usize, b: usize| span[a].0 < span[b].1 && span[b].0 < span[a].1;
        if let Some(&(before, after)) = self
            .precedence
            .iter()
            .find(|&&(a, b)| span[a].1 > span[b].0)
        {
            return Err(ScheduleError::PrecedenceViolated { before, after });
        }
        if let Some(&(first, second)) = self.exclusive.iter().find(|&&(a, b)| overlap(a, b)) {
            return Err(ScheduleError::ExclusiveOverlap { first, second });
        }
        Ok(())
    }
}

/// Schedules all cores of `cost` onto TAMs of the given `widths` under
/// `constraints`: the paper's list scheduler, with each core started at
/// the earliest instant its TAM, its predecessors, the power budget and
/// its exclusive partners allow.
///
/// # Errors
///
/// * [`ScheduleError::BadPartition`] — `widths` is empty or has a zero.
/// * A constraint error ([`ScheduleError::ConstraintLength`],
///   [`UnknownConstraintCore`](ScheduleError::UnknownConstraintCore),
///   [`ZeroClockMultiplier`](ScheduleError::ZeroClockMultiplier),
///   [`ZeroPowerBudget`](ScheduleError::ZeroPowerBudget),
///   [`CoreOverPowerBudget`](ScheduleError::CoreOverPowerBudget),
///   [`PrecedenceCycle`](ScheduleError::PrecedenceCycle)).
/// * [`ScheduleError::CoreUnschedulable`] — a core fits no TAM's width
///   and clock.
pub fn schedule_with(
    cost: &CostModel,
    widths: &[u32],
    constraints: &Constraints,
) -> Result<Schedule, ScheduleError> {
    check_partition(widths)?;
    constraints.check(cost.core_count(), widths.len())?;
    let order = constraints.order(longest_first_order(cost, widths))?;
    place(cost, widths, &order, constraints)
}

pub(crate) fn check_partition(widths: &[u32]) -> Result<(), ScheduleError> {
    if widths.is_empty() || widths.contains(&0) {
        return Err(ScheduleError::BadPartition {
            total_width: widths.iter().sum(),
            tams: widths.len() as u32,
        });
    }
    Ok(())
}

/// The list-scheduling pass over a fixed core `order`.
pub(crate) fn place(
    cost: &CostModel,
    widths: &[u32],
    order: &[usize],
    constraints: &Constraints,
) -> Result<Schedule, ScheduleError> {
    let mut tam_free = vec![0u64; widths.len()];
    let mut end_of = vec![0u64; cost.core_count()];
    let mut makespan = 0u64;
    let mut tests: Vec<ScheduledTest> = Vec::with_capacity(order.len());
    for &core in order {
        let preds_done = constraints
            .precedence
            .iter()
            .filter(|&&(_, after)| after == core)
            .map(|&(before, _)| end_of[before])
            .max()
            .unwrap_or(0);
        // (new makespan, finish): least makespan, then earliest finish,
        // then the lower TAM index (strict `<` keeps the first).
        let mut best: Option<((u64, u64), ScheduledTest)> = None;
        for (tam, &width) in widths.iter().enumerate() {
            let Ok(duration) = constraints.duration(cost, core, tam, width) else {
                continue;
            };
            let ready = tam_free[tam].max(preds_done);
            let start = constraints.earliest_start(&tests, core, ready, duration);
            let cand = ScheduledTest {
                core,
                tam,
                start,
                duration,
            };
            let key = (makespan.max(cand.end()), cand.end());
            if best.is_none_or(|(best_key, _)| key < best_key) {
                best = Some((key, cand));
            }
        }
        let Some((_, test)) = best else {
            return Err(ScheduleError::CoreUnschedulable { core });
        };
        tam_free[test.tam] = test.end();
        end_of[core] = test.end();
        makespan = makespan.max(test.end());
        tests.push(test);
    }
    Ok(Schedule::new(widths.to_vec(), tests))
}

/// Searches widths *and* per-TAM clock multipliers for the shortest
/// schedule under `constraints`: every TAM count up to the budget, every
/// uniform multiplier, and (for up to three TAMs) every mixed assignment
/// from `freq_options`. Returns `constraints` with the chosen
/// [`tam_freq`](Constraints::tam_freq) filled in, and its schedule.
///
/// # Errors
///
/// [`ScheduleError::NoFrequencyOptions`] for an empty `freq_options`,
/// [`ScheduleError::BadPartition`] for a zero `total_width`, and
/// otherwise the first scheduling error when no combination can host
/// every core.
pub fn optimize_multifreq(
    cost: &CostModel,
    total_width: u32,
    freq_options: &[u32],
    constraints: &Constraints,
) -> Result<(Constraints, Schedule), ScheduleError> {
    if freq_options.is_empty() {
        return Err(ScheduleError::NoFrequencyOptions);
    }
    check_partition(&[total_width])?;
    let k_max = total_width.min(cost.core_count() as u32).max(1);
    let mut best: Option<(Constraints, Schedule)> = None;
    let mut first_err = None;
    for k in 1..=k_max {
        let widths = balanced_split(total_width, k);
        for tam_freq in freq_combos(freq_options, k as usize) {
            let c = Constraints {
                tam_freq,
                ..constraints.clone()
            };
            match schedule_with(cost, &widths, &c) {
                Ok(s)
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| s.makespan() < b.makespan()) =>
                {
                    best = Some((c, s));
                }
                Ok(_) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
    }
    // Every k tries at least one combination, so one of the two is set.
    best.ok_or(first_err.unwrap_or(ScheduleError::NoFrequencyOptions))
}

/// All per-TAM multiplier assignments for small `k`; uniform assignments
/// otherwise (keeps the search polynomial).
fn freq_combos(options: &[u32], k: usize) -> Vec<Vec<u32>> {
    if k > 3 {
        return options.iter().map(|&f| vec![f; k]).collect();
    }
    let mut out = vec![Vec::new()];
    for _ in 0..k {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                options.iter().map(move |&f| {
                    let mut v = prefix.clone();
                    v.push(f);
                    v
                })
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;

    /// Four cores; core `i` takes `work · (i + 1) / w` cycles.
    fn cost(work: u64) -> CostModel {
        CostModel::from_fn(&["a", "b", "c", "d"], 8, |i, w| {
            Some(work * (i as u64 + 1) / u64::from(w))
        })
    }

    fn run(widths: &[u32], c: &Constraints) -> Schedule {
        let cost = cost(9_600);
        let s = schedule_with(&cost, widths, c).unwrap();
        c.validate(&cost, &s).unwrap();
        s
    }

    fn total(s: &Schedule) -> u64 {
        s.tests().iter().map(|t| t.duration).sum()
    }

    fn power(per_core: u64, budget: u64) -> Constraints {
        Constraints {
            power: vec![per_core; 4],
            power_budget: Some(budget),
            ..Constraints::default()
        }
    }

    fn pairs_schedule(second_start: u64) -> Schedule {
        let test = |core, tam, start| ScheduledTest {
            core,
            tam,
            start,
            duration: 100,
        };
        Schedule::new(vec![1, 1], vec![test(0, 0, 0), test(1, 1, second_start)])
    }

    #[test]
    fn slack_constraints_reproduce_greedy_exactly() {
        let slack = Constraints {
            power: vec![10; 4],
            power_budget: Some(1_000),
            tam_freq: vec![1, 1],
            freq_cap: vec![4; 4],
            ..Constraints::default()
        };
        let greedy = greedy_schedule(&cost(9_600), &[2, 2]).unwrap();
        assert_eq!(run(&[2, 2], &slack), greedy);
        assert_eq!(run(&[2, 2], &Constraints::default()), greedy);
    }

    #[test]
    fn power_budget_delays_tests() {
        // 60 of 100 each: no two tests ever overlap.
        let s = run(&[2, 2], &power(60, 100));
        assert_eq!(power(60, 100).peak_power(&s), 60);
        assert_eq!(s.makespan(), total(&s));
        // 50 of 100 each: pairs may overlap, so better than serial.
        let s = run(&[2, 2], &power(50, 100));
        assert!(s.makespan() < total(&s));
        let free = greedy_schedule(&cost(9_600), &[1, 3]).unwrap();
        assert!(run(&[1, 3], &power(40, 90)).makespan() >= free.makespan());
    }

    #[test]
    fn peak_power_frees_power_at_test_ends() {
        let c = Constraints {
            power: vec![70, 70],
            power_budget: Some(100),
            ..Constraints::default()
        };
        let two = CostModel::from_fn(&["a", "b"], 1, |_, _| Some(100));
        assert_eq!(c.peak_power(&pairs_schedule(100)), 70);
        c.validate(&two, &pairs_schedule(100)).unwrap();
        let err = c.validate(&two, &pairs_schedule(50)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::PowerExceeded {
                peak: 140,
                budget: 100
            }
        );
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn precedence_orders_tests() {
        let chain = Constraints {
            precedence: vec![(3, 2), (2, 1), (1, 0)],
            ..Constraints::default()
        };
        let s = run(&[2, 2], &chain);
        assert_eq!(s.makespan(), total(&s));
        let one = Constraints {
            precedence: vec![(0, 1)],
            ..Constraints::default()
        };
        let s = run(&[2, 2], &one);
        assert!(s.makespan() < total(&s), "c and d should overlap something");
        assert!(s.makespan() >= run(&[2, 2], &Constraints::default()).makespan());
        let two = CostModel::from_fn(&["a", "b"], 1, |_, _| Some(100));
        let err = one.validate(&two, &pairs_schedule(50)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::PrecedenceViolated {
                before: 0,
                after: 1
            }
        );
        assert!(err.to_string().contains("before"));
    }

    #[test]
    fn exclusive_pairs_never_overlap() {
        let clique: Vec<(usize, usize)> = (0..4)
            .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
            .collect();
        let s = run(
            &[2, 2],
            &Constraints {
                exclusive: clique,
                ..Constraints::default()
            },
        );
        assert_eq!(s.makespan(), total(&s));
        let free = run(&[1, 3], &Constraints::default()).makespan();
        let two = Constraints {
            exclusive: vec![(0, 1), (2, 3)],
            ..Constraints::default()
        };
        assert!(run(&[1, 3], &two).makespan() >= free);
        let cost = CostModel::from_fn(&["a", "b"], 1, |_, _| Some(100));
        let pair = Constraints {
            exclusive: vec![(0, 1)],
            ..Constraints::default()
        };
        pair.validate(&cost, &pairs_schedule(100)).unwrap();
        let err = pair.validate(&cost, &pairs_schedule(50)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::ExclusiveOverlap {
                first: 0,
                second: 1
            }
        );
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn fast_tams_cut_time_within_frequency_caps() {
        let freq = |tam_freq: Vec<u32>, freq_cap: Vec<u32>| Constraints {
            tam_freq,
            freq_cap,
            ..Constraints::default()
        };
        let slow = run(&[8], &freq(vec![1], vec![4; 4]));
        let fast = run(&[8], &freq(vec![4], vec![4; 4]));
        assert!(fast.makespan() * 3 < slow.makespan());
        // Core 3 (the longest) tolerates only 1×.
        let s = run(&[4, 4], &freq(vec![4, 1], vec![4, 4, 4, 1]));
        assert_eq!(s.tests().iter().find(|t| t.core == 3).unwrap().tam, 1);
        let err = schedule_with(&cost(9_600), &[8], &freq(vec![2], vec![4, 4, 4, 1]));
        assert_eq!(err, Err(ScheduleError::CoreUnschedulable { core: 3 }));
        // Durations round up: ceil(7 / 2) = 4.
        let odd = CostModel::from_fn(&["odd"], 2, |_, _| Some(7));
        let c = freq(vec![2], vec![2]);
        let s = schedule_with(&odd, &[2], &c).unwrap();
        assert_eq!(s.tests()[0].duration, 4);
        c.validate(&odd, &s).unwrap();
    }

    #[test]
    fn validate_checks_caps_and_scaled_durations() {
        let c = Constraints {
            tam_freq: vec![2],
            freq_cap: vec![1, 4, 4, 4],
            ..Constraints::default()
        };
        let cost = cost(9_600);
        let at = |core, start, duration| ScheduledTest {
            core,
            tam: 0,
            start,
            duration,
        };
        let good = Schedule::new(
            vec![8],
            vec![
                at(0, 0, 600),
                at(1, 600, 1200),
                at(2, 1800, 1800),
                at(3, 3600, 2400),
            ],
        );
        assert_eq!(
            c.validate(&cost, &good),
            Err(ScheduleError::FrequencyCapExceeded {
                core: 0,
                freq: 2,
                cap: 1
            })
        );
        let uncapped = Constraints {
            freq_cap: vec![4; 4],
            ..c
        };
        uncapped.validate(&cost, &good).unwrap();
        let wrong = Schedule::new(
            vec![8],
            vec![
                at(0, 0, 601),
                at(1, 601, 1200),
                at(2, 1801, 1800),
                at(3, 3601, 2400),
            ],
        );
        assert!(matches!(
            uncapped.validate(&cost, &wrong),
            Err(ScheduleError::WrongDuration { core: 0, .. })
        ));
    }

    #[test]
    fn optimizer_mixes_frequencies_when_caps_demand_it() {
        let cost = cost(9_600);
        let caps = Constraints {
            freq_cap: vec![4, 4, 4, 1],
            ..Constraints::default()
        };
        let (c, s) = optimize_multifreq(&cost, 8, &[1, 2, 4], &caps).unwrap();
        c.validate(&cost, &s).unwrap();
        assert!(s.makespan() < greedy_schedule(&cost, &[8]).unwrap().makespan());
        assert!(c.tam_freq.iter().any(|&f| f > 1), "should use a fast bus");
        assert!(c.tam_freq.contains(&1), "capped core needs a slow bus");
        assert_eq!(freq_combos(&[1, 2], 2).len(), 4);
        assert_eq!(freq_combos(&[1, 2, 4], 3).len(), 27);
        assert_eq!(freq_combos(&[1, 2, 4], 5).len(), 3);
    }

    #[test]
    fn malformed_constraints_are_typed_errors() {
        let cost = cost(100);
        let sched = |c: Constraints| schedule_with(&cost, &[4], &c).unwrap_err();
        let with = |f: fn(&mut Constraints)| {
            let mut c = Constraints::default();
            f(&mut c);
            sched(c)
        };
        assert_eq!(
            with(|c| c.power = vec![1; 3]),
            ScheduleError::ConstraintLength {
                field: "power",
                expected: 4,
                found: 3
            }
        );
        assert_eq!(
            with(|c| c.freq_cap = vec![2; 5]),
            ScheduleError::ConstraintLength {
                field: "freq_cap",
                expected: 4,
                found: 5
            }
        );
        assert_eq!(
            with(|c| c.tam_freq = vec![1, 1]),
            ScheduleError::ConstraintLength {
                field: "tam_freq",
                expected: 1,
                found: 2
            }
        );
        assert_eq!(
            with(|c| c.precedence = vec![(0, 9)]),
            ScheduleError::UnknownConstraintCore { core: 9 }
        );
        assert_eq!(
            with(|c| c.exclusive = vec![(7, 0)]),
            ScheduleError::UnknownConstraintCore { core: 7 }
        );
        assert_eq!(
            with(|c| c.precedence = vec![(0, 1), (1, 2), (2, 0)]),
            ScheduleError::PrecedenceCycle { core: 0 }
        );
        assert_eq!(
            with(|c| c.power_budget = Some(0)),
            ScheduleError::ZeroPowerBudget
        );
        assert_eq!(
            with(|c| *c = power(120, 100)),
            ScheduleError::CoreOverPowerBudget {
                core: 0,
                power: 120,
                budget: 100
            }
        );
        assert_eq!(
            with(|c| c.tam_freq = vec![0]),
            ScheduleError::ZeroClockMultiplier { tam: 0 }
        );
        let empty = optimize_multifreq(&cost, 8, &[], &Constraints::default());
        assert_eq!(empty.unwrap_err(), ScheduleError::NoFrequencyOptions);
        // validate reports the same malformations.
        let s = greedy_schedule(&cost, &[4]).unwrap();
        assert_eq!(
            power(120, 100).validate(&cost, &s),
            Err(ScheduleError::CoreOverPowerBudget {
                core: 0,
                power: 120,
                budget: 100
            })
        );
    }
}
