//! Property tests for [`robust::Deadline`] composition (`fraction`, `min`)
//! and [`robust::CancelToken`] edge cases: zero budgets, saturating
//! instants, and nested fractional slices.
//!
//! Wherever possible the properties compare *stored instants* (via
//! `Deadline::min`, which is a pure comparison) instead of re-reading the
//! clock, so the assertions hold on arbitrarily slow CI machines.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use proptest::prelude::*;

use robust::{CancelToken, Deadline};

/// The clock read every property starts from. `robust` is the one crate
/// allowed to read the wall clock (it owns `Deadline`), so its tests
/// read it through this one audited helper.
#[allow(clippy::disallowed_methods)]
fn now() -> Instant {
    Instant::now()
}

/// A deadline at a fixed offset (ms) from a common base instant —
/// comparisons between two of these are exact, no clock reads involved.
fn at_offset(base: Instant, ms: u64) -> Deadline {
    match base.checked_add(Duration::from_millis(ms)) {
        Some(t) => Deadline::at(t),
        None => Deadline::none(),
    }
}

proptest! {
    #[test]
    fn min_is_commutative_and_associative(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        c in 0u64..1_000_000,
    ) {
        let base = now();
        let (da, db, dc) = (at_offset(base, a), at_offset(base, b), at_offset(base, c));
        prop_assert_eq!(da.min(db), db.min(da));
        prop_assert_eq!(da.min(db).min(dc), da.min(db.min(dc)));
        prop_assert_eq!(da.min(da), da);
    }

    #[test]
    fn min_with_unbounded_is_identity(ms in 0u64..1_000_000) {
        let base = now();
        let d = at_offset(base, ms);
        prop_assert_eq!(d.min(Deadline::none()), d);
        prop_assert_eq!(Deadline::none().min(d), d);
        prop_assert_eq!(Deadline::none().min(Deadline::none()), Deadline::none());
    }

    /// A proper fraction of a bounded budget expires no later than the
    /// whole budget: `min` must pick the slice. Pure instant comparison.
    /// `f` stays ≤ 0.9 so the fraction's real margin dwarfs the clock
    /// motion between the two `Instant::now()` reads inside `fraction`.
    #[test]
    fn fraction_never_outlives_the_whole(
        secs in 10u64..10_000,
        f in 0.0f64..0.9,
    ) {
        let d = Deadline::within(Duration::from_secs(secs));
        let slice = d.fraction(f);
        prop_assert_eq!(slice.min(d), slice);
        prop_assert!(slice.remaining().is_some(), "a slice of bounded is bounded");
    }

    /// Nested fractions keep shrinking: slicing a slice expires no later
    /// than the outer slice.
    #[test]
    fn nested_fractions_shrink(
        secs in 100u64..10_000,
        outer in 0.1f64..0.9,
        inner in 0.0f64..0.9,
    ) {
        let d = Deadline::within(Duration::from_secs(secs));
        let one = d.fraction(outer);
        let two = one.fraction(inner);
        prop_assert_eq!(two.min(one), two);
        prop_assert_eq!(two.min(d), two);
    }

    /// Out-of-range fractions clamp: anything ≤ 0 is an immediately
    /// expired slice, and the unbounded deadline slices into itself for
    /// every `f`.
    #[test]
    fn fraction_clamps_and_preserves_none(
        secs in 1u64..1_000,
        f in -10.0f64..10.0,
        neg in -10.0f64..0.0,
    ) {
        let d = Deadline::within(Duration::from_secs(secs));
        prop_assert!(d.fraction(neg).expired(), "non-positive fraction = empty budget");
        prop_assert_eq!(Deadline::none().fraction(f), Deadline::none());
    }

    /// Saturating instants: a budget too large for the clock's range
    /// (`checked_add` overflow) degrades to an unbounded deadline rather
    /// than wrapping into the past.
    #[test]
    fn saturating_budgets_degrade_to_unbounded(ms in 0u64..1_000_000) {
        let huge = Deadline::within(Duration::MAX);
        prop_assert_eq!(huge.remaining(), None);
        prop_assert!(!huge.expired());
        let base = now();
        let bounded = at_offset(base, ms);
        prop_assert_eq!(huge.min(bounded), bounded);
        prop_assert_eq!(huge.fraction(0.5), huge);
    }

    /// Zero budgets expire immediately, and a token under one trips on its
    /// own — but is *not* reported as an explicit cancellation.
    #[test]
    fn zero_budget_trips_without_cancel_request(extra in 0u64..3) {
        let d = Deadline::within(Duration::from_nanos(extra));
        // Give the nanos-scale budget a moment to lapse deterministically.
        let t = CancelToken::with(d);
        while !t.is_cancelled() {
            std::thread::yield_now();
        }
        prop_assert!(t.deadline().remaining().unwrap_or(Duration::ZERO) == Duration::ZERO);
        prop_assert!(!t.cancel_requested(), "deadline expiry is not an explicit cancel");
        t.cancel();
        prop_assert!(t.cancel_requested());
    }

    /// Chained `with_deadline` calls accumulate as the running `min` of
    /// every deadline in the chain, regardless of order.
    #[test]
    fn nested_child_tokens_take_the_tightest_deadline(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        c in 0u64..1_000_000,
    ) {
        let base = now();
        let (da, db, dc) = (at_offset(base, a), at_offset(base, b), at_offset(base, c));
        let root = CancelToken::with(da);
        let chained = root.with_deadline(db).with_deadline(dc);
        prop_assert_eq!(chained.deadline(), da.min(db).min(dc));
        let reordered = root.with_deadline(dc).with_deadline(db);
        prop_assert_eq!(chained.deadline(), reordered.deadline());
    }

    /// The kill switch is shared across arbitrarily deep child chains and
    /// clones: cancelling any one trips them all, in both directions.
    #[test]
    fn cancel_propagates_through_nested_children(depth in 1usize..8, ms in 1u64..1_000_000) {
        let base = now();
        let root = CancelToken::never();
        let mut leaf = root.clone();
        for step in 0..depth {
            leaf = leaf.with_deadline(at_offset(base, ms + step as u64));
        }
        prop_assert!(!root.cancel_requested());
        leaf.cancel();
        prop_assert!(root.is_cancelled(), "leaf cancel reaches the root");
        let sibling = root.with_deadline(Deadline::none());
        prop_assert!(sibling.is_cancelled(), "new children see the tripped flag");
    }

    /// A child under an unbounded deadline inherits exactly the parent's
    /// bound (`min` with none is identity) — composing with `none` never
    /// loosens or tightens anything.
    #[test]
    fn unbounded_child_inherits_parent_bound(ms in 0u64..1_000_000) {
        let base = now();
        let d = at_offset(base, ms);
        let parent = CancelToken::with(d);
        let child = parent.with_deadline(Deadline::none());
        prop_assert_eq!(child.deadline(), d);
    }
}
