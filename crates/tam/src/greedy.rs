//! The paper's test-scheduling heuristic (§3, step 4).
//!
//! Given a fixed-width TAM partition, cores are sorted by test time
//! (longest first) and each is assigned to the TAM where the resulting
//! increase in SOC test time is least; ties go to the TAM with the smaller
//! finish time. Complexity `O(n·k)` for `n` cores and `k` TAMs, as in the
//! paper. This is the unconstrained case of the list scheduler in
//! [`schedule_with`](crate::schedule_with).

use robust::CancelToken;

use crate::constraints::{check_partition, place, schedule_with, Constraints};
use crate::cost::CostModel;
use crate::schedule::{Schedule, ScheduleError};

/// Schedules all cores of `cost` onto TAMs of the given `widths`, cores in
/// longest-test-first order.
///
/// # Errors
///
/// Returns [`ScheduleError::CoreUnschedulable`] when some core is
/// infeasible at every TAM width in the partition, and
/// [`ScheduleError::BadPartition`] when `widths` is empty or contains a
/// zero width.
pub fn greedy_schedule(cost: &CostModel, widths: &[u32]) -> Result<Schedule, ScheduleError> {
    schedule_with(cost, widths, &Constraints::default())
}

/// Cancellable variant of [`greedy_schedule`].
///
/// The pass itself is a bounded `O(n·k)` sweep, so the token is polled
/// once up front rather than per core: a tripped token refuses to start
/// new work, while work already under way finishes in bounded time.
///
/// # Errors
///
/// As [`greedy_schedule`], plus [`ScheduleError::Interrupted`] when the
/// token has already tripped — greedy produces no partial incumbent, so
/// the caller falls back to whatever schedule it already holds.
pub fn greedy_schedule_with(
    cost: &CostModel,
    widths: &[u32],
    token: &CancelToken,
) -> Result<Schedule, ScheduleError> {
    if token.is_cancelled() {
        return Err(ScheduleError::Interrupted);
    }
    greedy_schedule(cost, widths)
}

/// The paper's core ordering: longest test time first (each core judged at
/// its best width available in this partition).
pub fn longest_first_order(cost: &CostModel, widths: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cost.core_count()).collect();
    let key = |i: usize| -> u64 {
        widths
            .iter()
            .filter_map(|&w| cost.time(i, w))
            .min()
            .unwrap_or(u64::MAX)
    };
    order.sort_by(|&a, &b| key(b).cmp(&key(a)).then(a.cmp(&b)));
    order
}

/// Schedules cores in the given order; exposed separately so ablation
/// benches can compare orderings.
///
/// # Errors
///
/// Same as [`greedy_schedule`]; additionally every core must appear in
/// `order` exactly once for the result to validate.
pub fn schedule_in_order(
    cost: &CostModel,
    widths: &[u32],
    order: &[usize],
) -> Result<Schedule, ScheduleError> {
    check_partition(widths)?;
    place(cost, widths, order, &Constraints::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        let mut m = CostModel::new(4);
        m.push_core("long", vec![Some(400), Some(220), Some(160), Some(130)]);
        m.push_core("mid", vec![Some(200), Some(110), Some(80), Some(65)]);
        m.push_core("short", vec![Some(60), Some(35), Some(25), Some(20)]);
        m.push_core("tiny", vec![Some(20), Some(12), Some(9), Some(8)]);
        m
    }

    #[test]
    fn produces_valid_schedule() {
        let c = cost();
        let s = greedy_schedule(&c, &[2, 2]).unwrap();
        s.validate(&c).unwrap();
        assert!(s.makespan() > 0);
    }

    #[test]
    fn longest_core_goes_first() {
        let c = cost();
        let order = longest_first_order(&c, &[2, 2]);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn balances_across_tams() {
        let c = cost();
        let s = greedy_schedule(&c, &[2, 2]).unwrap();
        // long (220) on one TAM; mid (110) + short (35) + tiny (12) = 157 on
        // the other — makespan 220, not 377.
        assert_eq!(s.makespan(), 220);
    }

    #[test]
    fn single_tam_serializes_everything() {
        let c = cost();
        let s = greedy_schedule(&c, &[4]).unwrap();
        s.validate(&c).unwrap();
        assert_eq!(s.makespan(), 130 + 65 + 20 + 8);
    }

    #[test]
    fn infeasible_core_reported() {
        let mut m = CostModel::new(4);
        m.push_core("needs-wide", vec![None, None, None, Some(10)]);
        let err = greedy_schedule(&m, &[2, 2]).unwrap_err();
        assert_eq!(err, ScheduleError::CoreUnschedulable { core: 0 });
        // But a 4-wide TAM accommodates it.
        assert!(greedy_schedule(&m, &[4]).is_ok());
    }

    #[test]
    fn bad_partitions_rejected() {
        let c = cost();
        assert!(matches!(
            greedy_schedule(&c, &[]),
            Err(ScheduleError::BadPartition { .. })
        ));
        assert!(matches!(
            greedy_schedule(&c, &[2, 0]),
            Err(ScheduleError::BadPartition { .. })
        ));
    }

    #[test]
    fn custom_order_is_respected() {
        let c = cost();
        let s = schedule_in_order(&c, &[2, 2], &[3, 2, 1, 0]).unwrap();
        s.validate(&c).unwrap();
        // First scheduled core is `tiny` at time 0.
        let tiny = s.tests().iter().find(|t| t.core == 3).unwrap();
        assert_eq!(tiny.start, 0);
    }

    #[test]
    fn greedy_is_within_2x_of_lower_bound() {
        let c = cost();
        for widths in [vec![4], vec![2, 2], vec![1, 3], vec![1, 1, 2]] {
            let s = greedy_schedule(&c, &widths).unwrap();
            let lb = c.lower_bound(widths.iter().sum());
            assert!(
                s.makespan() <= 2 * lb + 1,
                "widths {widths:?}: makespan {} vs lower bound {lb}",
                s.makespan()
            );
        }
    }
}
