//! Scan-power estimation: weighted transition counts (WTC).
//!
//! Scan shifting toggles far more nodes than functional operation, so test
//! scheduling is often power-limited. The standard estimate (Sankaralingam
//! et al.) weights each stimulus transition by how far it travels through
//! the scan chain: a transition entering cell `j` of an `L`-cell chain
//! shifts through `L − j` cells, toggling each.
//!
//! Don't-care positions are resolved by an X-fill policy before counting —
//! `Zero` fill (what the FDR encoder assumes) or `MinTransition` fill
//! (repeat the previous care value), the classic low-power choice. The
//! estimates plug directly into the per-core `power` of
//! [`tam::Constraints`](../tam/struct.Constraints.html) as power figures.

use soc_model::{TestSet, Trit, TritVec};

use crate::design::WrapperDesign;

/// X-fill policy applied before counting transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fill {
    /// Fill every don't-care with 0.
    #[default]
    Zero,
    /// Repeat the previous shifted value (minimum-transition fill).
    MinTransition,
}

/// Weighted transition count of one cube under `design`: the sum over
/// wrapper chains of `Σ_j (len − 1 − j) · (b_j ⊕ b_{j+1})`, where `b_j` is
/// the bit entering at shift cycle `j` after X-fill.
///
/// # Panics
///
/// Panics if the cube is shorter than the design's deepest position.
pub fn weighted_transitions(design: &WrapperDesign, cube: &TritVec, fill: Fill) -> u64 {
    let s_i = design.scan_in_length();
    let mut total = 0u64;
    for chain in design.chains() {
        let mut prev: Option<bool> = None;
        for depth in 0..s_i {
            let bit = resolve(chain_bit(design, chain, cube, depth), prev, fill);
            if let Some(p) = prev {
                if p != bit {
                    // The transition formed at cycle `depth` travels
                    // through the rest of the shift.
                    total += s_i - depth;
                }
            }
            prev = Some(bit);
        }
    }
    total
}

fn chain_bit(
    _design: &WrapperDesign,
    chain: &crate::design::ChainLayout,
    cube: &TritVec,
    depth: u64,
) -> Trit {
    match chain.position_at(depth) {
        Some(pos) => cube.get(pos as usize),
        None => Trit::X,
    }
}

fn resolve(t: Trit, prev: Option<bool>, fill: Fill) -> bool {
    match t.value() {
        Some(b) => b,
        None => match fill {
            Fill::Zero => false,
            Fill::MinTransition => prev.unwrap_or(false),
        },
    }
}

/// Per-core scan-power estimate over a whole test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPower {
    /// Mean WTC per shift cycle (average switching activity).
    pub average: f64,
    /// Largest per-pattern WTC per cycle (peak switching activity).
    pub peak: f64,
    /// Patterns evaluated.
    pub patterns: usize,
}

/// Estimates scan power for `test_set` under `design`, evaluating at most
/// `sample` evenly spaced patterns.
///
/// # Panics
///
/// Panics if `sample == 0` or the set is empty.
pub fn estimate_scan_power(
    design: &WrapperDesign,
    test_set: &TestSet,
    fill: Fill,
    sample: usize,
) -> ScanPower {
    assert!(sample > 0, "sample size must be positive");
    assert!(!test_set.is_empty(), "test set has no patterns");
    let p = test_set.pattern_count();
    let indices: Vec<usize> = if sample >= p {
        (0..p).collect()
    } else {
        let mut v: Vec<usize> = (0..sample).map(|i| i * p / sample).collect();
        v.dedup();
        v
    };
    let cycles = design.scan_in_length().max(1) as f64;
    let mut sum = 0.0;
    let mut peak = 0.0f64;
    for &pi in &indices {
        let cube = test_set.pattern(pi).expect("sampled index in range");
        let per_cycle = weighted_transitions(design, cube, fill) as f64 / cycles;
        sum += per_cycle;
        peak = peak.max(per_cycle);
    }
    ScanPower {
        average: sum / indices.len() as f64,
        peak,
        patterns: indices.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::design_wrapper;
    use soc_model::{Core, CubeSynthesis};

    fn prepared(density: f64, one_fraction: f64) -> (Core, WrapperDesign) {
        let mut core = Core::builder("p")
            .inputs(4)
            .outputs(4)
            .flexible_cells(600, 64)
            .pattern_count(10)
            .care_density(density)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(density)
            .one_fraction(one_fraction)
            .cluster(1)
            .synthesize(&core, 13);
        core.attach_test_set(ts).unwrap();
        let design = design_wrapper(&core, 8);
        (core, design)
    }

    #[test]
    fn all_zero_cube_has_no_transitions() {
        let core = Core::builder("z")
            .inputs(64)
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, 4);
        let cube: TritVec = "0".repeat(64).parse().unwrap();
        assert_eq!(weighted_transitions(&design, &cube, Fill::Zero), 0);
    }

    #[test]
    fn alternating_cube_is_worst_case() {
        // A single chain keeps the shift order equal to the cube order.
        let core = Core::builder("a")
            .inputs(64)
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, 1);
        let alternating: TritVec = "01".repeat(32).parse().unwrap();
        let constant: TritVec = "1".repeat(64).parse().unwrap();
        let wa = weighted_transitions(&design, &alternating, Fill::Zero);
        let wc = weighted_transitions(&design, &constant, Fill::Zero);
        assert!(wa > 5 * wc.max(1), "alternating {wa} vs constant {wc}");
    }

    #[test]
    fn min_transition_fill_never_increases_wtc() {
        let (core, design) = prepared(0.2, 0.5);
        for cube in core.test_set().unwrap().iter() {
            let zero = weighted_transitions(&design, cube, Fill::Zero);
            let mt = weighted_transitions(&design, cube, Fill::MinTransition);
            assert!(mt <= zero, "MT {mt} vs zero {zero}");
        }
    }

    #[test]
    fn mt_fill_wins_big_on_one_heavy_sparse_cubes() {
        // Sparse cubes whose care bits are mostly 1: zero-fill creates a
        // 0↔1 transition around every care bit, MT-fill almost none.
        let (core, design) = prepared(0.05, 0.95);
        let ts = core.test_set().unwrap();
        let zero: u64 = ts
            .iter()
            .map(|c| weighted_transitions(&design, c, Fill::Zero))
            .sum();
        let mt: u64 = ts
            .iter()
            .map(|c| weighted_transitions(&design, c, Fill::MinTransition))
            .sum();
        assert!(mt * 2 < zero, "MT {mt} vs zero {zero}");
    }

    #[test]
    fn estimate_reports_consistent_statistics() {
        let (core, design) = prepared(0.3, 0.5);
        let ts = core.test_set().unwrap();
        let est = estimate_scan_power(&design, ts, Fill::Zero, usize::MAX);
        assert_eq!(est.patterns, 10);
        assert!(est.peak >= est.average);
        assert!(est.average > 0.0);
        // Sampling returns the same order of magnitude.
        let sampled = estimate_scan_power(&design, ts, Fill::Zero, 3);
        let ratio = sampled.average / est.average;
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn denser_cubes_burn_more_power() {
        let (ca, da) = prepared(0.05, 0.5);
        let (cb, db) = prepared(0.6, 0.5);
        let pa = estimate_scan_power(&da, ca.test_set().unwrap(), Fill::Zero, usize::MAX);
        let pb = estimate_scan_power(&db, cb.test_set().unwrap(), Fill::Zero, usize::MAX);
        assert!(pb.average > pa.average);
    }

    #[test]
    #[should_panic(expected = "no patterns")]
    fn empty_test_set_panics() {
        let core = Core::builder("e")
            .inputs(4)
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, 2);
        estimate_scan_power(&design, &TestSet::new(4), Fill::Zero, 1);
    }
}
