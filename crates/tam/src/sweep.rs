//! Allocation-free, bound-aware greedy-makespan evaluation with
//! incremental sort-key maintenance — the inner loop of the parallel
//! architecture search.
//!
//! [`GreedySweep`] answers "what makespan would [`greedy_schedule`]
//! produce for this partition?" without materializing a [`Schedule`],
//! mirroring [`schedule_in_order`] decision for decision (same core
//! ordering, same tie-breaks), so every makespan it reports is exactly the
//! one the materialized schedule has. On top of the plain sweep it adds
//! two accelerations that never change a reported value:
//!
//! * **Incremental keys.** The core ordering depends only on the
//!   *multiset* of widths present (each core is keyed by its best time
//!   over the distinct widths). Neighbouring partitions — a wire shifted,
//!   a TAM split or merged — mostly leave that multiset's distinct-width
//!   set unchanged, so [`apply`](GreedySweep::apply) updates the keys in
//!   `O(1)` per core instead of recomputing and resorting from scratch:
//!   a width class appearing can only lower a key (one `min`), and a
//!   class vanishing forces a recomputation only for cores whose key was
//!   achieved at that width.
//! * **Bounded early exit.** Per-TAM finish times only grow as cores are
//!   assigned, so the partial bottleneck is a lower bound on the final
//!   makespan; once it reaches the caller's bound the sweep aborts with
//!   [`SweepOutcome::Cutoff`]. Callers that only care about strict
//!   improvements (the hill-climber, the per-`k` pruning) lose nothing.
//!
//! [`greedy_schedule`]: crate::greedy_schedule
//! [`schedule_in_order`]: crate::schedule_in_order
//! [`Schedule`]: crate::Schedule

use crate::cost::CostModel;

/// Result of one [`GreedySweep::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepOutcome {
    /// Exact makespan of the greedy schedule for this partition.
    Exact(u64),
    /// The named core fits no TAM of the partition — the same core
    /// [`schedule_in_order`](crate::schedule_in_order) reports in
    /// `CoreUnschedulable`.
    Infeasible(usize),
    /// The partial bottleneck reached the caller's bound: the exact
    /// makespan is `>= bound`, so the candidate cannot strictly improve
    /// on it.
    Cutoff,
}

/// Reusable greedy-sweep state for one [`CostModel`]; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct GreedySweep {
    cores: usize,
    max_width: usize,
    /// Dense `cores × max_width` test-time matrix, `u64::MAX` marking an
    /// infeasible width — no `Option` matching or bounds assertions in
    /// the hot loops.
    tau: Vec<u64>,
    /// Per-core sort key: best time over the distinct widths present.
    keys: Vec<u64>,
    /// Core visit order (longest first, index tie-break).
    order: Vec<usize>,
    /// Per-TAM finish times of the last full (`Exact`) run.
    finish: Vec<u64>,
    /// `counts[w]` = TAMs of (clamped) width `w` in the tracked multiset.
    counts: Vec<u32>,
    /// The distinct width classes with `counts > 0`, unordered — key
    /// recomputation scans this (at most `k` entries) instead of the full
    /// `max_width + 1` count table.
    present: Vec<usize>,
    /// Keys changed since `order` was last sorted.
    dirty: bool,
}

impl GreedySweep {
    pub(crate) fn new(cost: &CostModel) -> Self {
        let cores = cost.core_count();
        let max_width = cost.max_width() as usize;
        let mut tau = Vec::with_capacity(cores * max_width);
        for core in 0..cores {
            for w in 1..=max_width as u32 {
                tau.push(cost.time(core, w).unwrap_or(u64::MAX));
            }
        }
        GreedySweep {
            cores,
            max_width,
            tau,
            keys: vec![u64::MAX; cores],
            order: (0..cores).collect(),
            finish: Vec::new(),
            counts: vec![0; max_width + 1],
            present: Vec::new(),
            dirty: true,
        }
    }

    /// Clamps a width to its distinct-class index (widths beyond the model
    /// all cost the same, so they share one class).
    #[inline]
    fn class(&self, width: u32) -> usize {
        (width as usize).min(self.max_width)
    }

    /// Points the tracked multiset at `widths`, recomputing keys and order
    /// from scratch.
    pub(crate) fn reset(&mut self, widths: &[u32]) {
        self.counts.fill(0);
        self.present.clear();
        for &w in widths {
            let c = self.class(w);
            if self.counts[c] == 0 {
                self.present.push(c);
            }
            self.counts[c] += 1;
        }
        for core in 0..self.cores {
            self.keys[core] = self.recompute_key(core);
        }
        self.dirty = true;
    }

    fn recompute_key(&self, core: usize) -> u64 {
        let row = &self.tau[core * self.max_width..(core + 1) * self.max_width];
        self.present
            .iter()
            .map(|&c| row[c - 1])
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Applies a multiset delta (`removed` widths leave, `added` widths
    /// join), updating the keys incrementally. Values are exactly what a
    /// [`reset`](Self::reset) on the new widths would produce.
    pub(crate) fn apply(&mut self, removed: &[u32], added: &[u32]) {
        // Count updates first, so key recomputation sees the final
        // multiset; track which width classes appeared or vanished.
        const CAP: usize = 4;
        debug_assert!(removed.len() <= CAP && added.len() <= CAP);
        let mut touched = [0usize; 2 * CAP];
        let mut was = [false; 2 * CAP];
        let mut n_touched = 0;
        for &w in added.iter().chain(removed) {
            let c = self.class(w);
            if !touched[..n_touched].contains(&c) {
                touched[n_touched] = c;
                was[n_touched] = self.counts[c] > 0;
                n_touched += 1;
            }
        }
        for &w in added {
            let c = self.class(w);
            self.counts[c] += 1;
        }
        for &w in removed {
            let c = self.class(w);
            debug_assert!(self.counts[c] > 0, "removed width not present");
            self.counts[c] -= 1;
        }

        for t in 0..n_touched {
            let (c, existed) = (touched[t], was[t]);
            let exists = self.counts[c] > 0;
            if exists && !existed {
                // New width class: a key can only drop.
                self.present.push(c);
                for core in 0..self.cores {
                    let t = self.tau[core * self.max_width + (c - 1)];
                    if t < self.keys[core] {
                        self.keys[core] = t;
                        self.dirty = true;
                    }
                }
            } else if existed && !exists {
                // Class vanished: only keys achieved at it can be stale.
                let pos = self
                    .present
                    .iter()
                    .position(|&p| p == c)
                    .expect("vanished class was tracked as present");
                self.present.swap_remove(pos);
                for core in 0..self.cores {
                    let key = self.keys[core];
                    if key != u64::MAX && self.tau[core * self.max_width + (c - 1)] == key {
                        let fresh = self.recompute_key(core);
                        if fresh != key {
                            self.keys[core] = fresh;
                            self.dirty = true;
                        }
                    }
                }
            }
        }
    }

    /// Runs the greedy sweep over `widths` (whose multiset must match the
    /// tracked one). With a `bound`, aborts with [`SweepOutcome::Cutoff`]
    /// as soon as the partial bottleneck shows the final makespan cannot
    /// be strictly below it; [`SweepOutcome::Exact`] therefore always
    /// reports a value `< bound`.
    pub(crate) fn run(&mut self, widths: &[u32], bound: Option<u64>) -> SweepOutcome {
        debug_assert_eq!(
            {
                let mut c = vec![0u32; self.max_width + 1];
                for &w in widths {
                    c[self.class(w)] += 1;
                }
                c
            },
            self.counts,
            "tracked multiset out of sync with widths"
        );
        if self.dirty {
            let keys = &self.keys;
            self.order
                .sort_by(|&a, &b| keys[b].cmp(&keys[a]).then(a.cmp(&b)));
            self.dirty = false;
        }

        // schedule_in_order, minus the schedule. Its candidate comparison
        // (least makespan increase, ties to the earlier finish, then the
        // lower TAM index) collapses to "first TAM with the strictly
        // smallest finish + duration": new_makespan = max(current,
        // new_finish) is monotone in new_finish, so the makespan-then-
        // finish lexicographic test accepts a candidate exactly when its
        // new_finish is strictly smaller than the incumbent's.
        self.finish.clear();
        self.finish.resize(widths.len(), 0);
        let cutoff = bound.unwrap_or(u64::MAX);
        let mut bottleneck = 0u64;
        for i in 0..self.order.len() {
            let core = self.order[i];
            let row = &self.tau[core * self.max_width..(core + 1) * self.max_width];
            let mut best_tam = usize::MAX;
            let mut best_finish = u64::MAX;
            for (j, &w) in widths.iter().enumerate() {
                let d = row[(w as usize).min(self.max_width) - 1];
                if d == u64::MAX {
                    continue;
                }
                let new_finish = self.finish[j] + d;
                if new_finish < best_finish {
                    best_finish = new_finish;
                    best_tam = j;
                }
            }
            if best_tam == usize::MAX {
                return SweepOutcome::Infeasible(core);
            }
            self.finish[best_tam] = best_finish;
            if best_finish > bottleneck {
                bottleneck = best_finish;
                // Finish times only grow, so the current bottleneck lower-
                // bounds the final makespan.
                if bottleneck >= cutoff {
                    return SweepOutcome::Cutoff;
                }
            }
        }
        SweepOutcome::Exact(bottleneck)
    }

    /// Per-TAM finish times of the last [`run`](Self::run) that returned
    /// [`SweepOutcome::Exact`] (cut-off or infeasible runs leave partial
    /// values).
    pub(crate) fn finishes(&self) -> &[u64] {
        &self.finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;
    use crate::schedule::ScheduleError;
    use proptest::prelude::*;

    fn expect(cost: &CostModel, widths: &[u32]) -> Result<(u64, Vec<u64>), usize> {
        match greedy_schedule(cost, widths) {
            Ok(s) => {
                let finishes = (0..widths.len()).map(|j| s.tam_finish(j)).collect();
                Ok((s.makespan(), finishes))
            }
            Err(ScheduleError::CoreUnschedulable { core }) => Err(core),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    fn check(cost: &CostModel, sweep: &mut GreedySweep, widths: &[u32]) {
        match (sweep.run(widths, None), expect(cost, widths)) {
            (SweepOutcome::Exact(m), Ok((want, finishes))) => {
                assert_eq!(m, want, "makespan for {widths:?}");
                assert_eq!(sweep.finishes(), finishes, "finishes for {widths:?}");
            }
            (SweepOutcome::Infeasible(core), Err(want)) => {
                assert_eq!(core, want, "infeasible core for {widths:?}");
            }
            (got, want) => panic!("widths {widths:?}: sweep {got:?} vs greedy {want:?}"),
        }
    }

    fn mixed_model() -> CostModel {
        let mut m = CostModel::new(6);
        m.push_core(
            "a",
            vec![Some(90), Some(50), Some(40), Some(35), Some(31), Some(30)],
        );
        m.push_core("narrow", vec![Some(70), Some(44), None, None, None, None]);
        m.push_core("wide", vec![None, None, None, Some(25), Some(22), Some(20)]);
        m.push_core(
            "b",
            vec![Some(88), Some(51), Some(40), Some(33), Some(28), Some(26)],
        );
        m
    }

    #[test]
    fn matches_greedy_schedule_on_fixed_partitions() {
        let m = mixed_model();
        let mut sweep = GreedySweep::new(&m);
        for widths in [
            vec![6],
            vec![3, 3],
            vec![1, 5],
            vec![2, 4],
            vec![1, 1, 4],
            vec![2, 2, 2],
            vec![4, 2],
            vec![5, 1],
            vec![1, 1, 1, 1, 1, 1],
        ] {
            sweep.reset(&widths);
            check(&m, &mut sweep, &widths);
        }
    }

    #[test]
    fn incremental_apply_tracks_shift_moves() {
        let m = mixed_model();
        let mut sweep = GreedySweep::new(&m);
        let mut widths = vec![2u32, 2, 2];
        sweep.reset(&widths);
        check(&m, &mut sweep, &widths);
        // A chain of donor→bottleneck shifts, each applied incrementally.
        for (donor, recv) in [(0usize, 1usize), (2, 1), (1, 0), (0, 2)] {
            if widths[donor] <= 1 {
                continue;
            }
            let (wd, wr) = (widths[donor], widths[recv]);
            widths[donor] -= 1;
            widths[recv] += 1;
            sweep.apply(&[wd, wr], &[wd - 1, wr + 1]);
            check(&m, &mut sweep, &widths);
        }
    }

    #[test]
    fn bounded_run_only_cuts_non_improving_partitions() {
        let m = mixed_model();
        let mut sweep = GreedySweep::new(&m);
        for widths in [vec![6u32], vec![3, 3], vec![2, 4], vec![2, 2, 2]] {
            sweep.reset(&widths);
            let SweepOutcome::Exact(exact) = sweep.run(&widths, None) else {
                continue;
            };
            // Bound above the makespan: exact survives. At or below: cut.
            assert_eq!(
                sweep.run(&widths, Some(exact + 1)),
                SweepOutcome::Exact(exact)
            );
            assert_eq!(sweep.run(&widths, Some(exact)), SweepOutcome::Cutoff);
            assert_eq!(sweep.run(&widths, Some(1)), SweepOutcome::Cutoff);
        }
    }

    #[test]
    fn saturated_widths_share_one_class() {
        // Widths beyond max_width all cost the same; apply must treat them
        // as one class or the counts go negative.
        let m = CostModel::from_fn(&["x", "y"], 4, |i, w| {
            Some(1000 * (i as u64 + 1) / u64::from(w))
        });
        let mut sweep = GreedySweep::new(&m);
        let mut widths = vec![9u32, 3];
        sweep.reset(&widths);
        check(&m, &mut sweep, &widths);
        // 9 → 8: both clamp to class 4, a no-op on the class multiset.
        widths[0] -= 1;
        widths[1] += 1;
        sweep.apply(&[9, 3], &[8, 4]);
        check(&m, &mut sweep, &widths);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Test times of 1–3 cycles make most placements ties, pinning the
        /// tie-break the sweep shares with `greedy_schedule`: least
        /// makespan, then earliest finish, then the lower TAM index.
        #[test]
        fn tie_heavy_costs_match_greedy(
            times in proptest::collection::vec(1u64..4, 12),
            widths in proptest::collection::vec(1u32..4, 2..5),
        ) {
            let m = CostModel::from_fn(&["a", "b", "c", "d"], 3, |i, w| {
                Some(times[i * 3 + w as usize - 1])
            });
            let mut sweep = GreedySweep::new(&m);
            sweep.reset(&widths);
            check(&m, &mut sweep, &widths);
        }

        /// Satellite (c): incremental donor/bottleneck rescheduling agrees
        /// with `greedy_schedule` from scratch after every move of a
        /// random move sequence.
        #[test]
        fn incremental_rescheduling_matches_greedy_from_scratch(
            seed in 0u64..1_000_000,
            cores in 2usize..6,
            tams in 2usize..5,
            moves in proptest::collection::vec((0usize..8, 0usize..8), 1..12),
        ) {
            let names: Vec<String> = (0..cores).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let m = CostModel::from_fn(&name_refs, 8, |i, w| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | u64::from(w));
                // A sprinkling of infeasible widths, but keep width 8 valid
                // so every core schedules somewhere.
                if w < 8 && x % 7 == 0 {
                    None
                } else {
                    Some(x % 5_000 + 5_000 / u64::from(w))
                }
            });
            let mut widths: Vec<u32> = vec![3; tams];
            let mut sweep = GreedySweep::new(&m);
            sweep.reset(&widths);
            check(&m, &mut sweep, &widths);
            for (donor, recv) in moves {
                let donor = donor % tams;
                let recv = recv % tams;
                if donor == recv || widths[donor] <= 1 {
                    continue;
                }
                let (wd, wr) = (widths[donor], widths[recv]);
                widths[donor] -= 1;
                widths[recv] += 1;
                sweep.apply(&[wd, wr], &[wd - 1, wr + 1]);
                check(&m, &mut sweep, &widths);
            }
        }
    }
}
