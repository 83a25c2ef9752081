//! Test schedules and their validation.

use std::fmt;

use crate::cost::CostModel;

/// One core's slot in the SOC test schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTest {
    /// Core index into the [`CostModel`].
    pub core: usize,
    /// Index of the TAM the core is assigned to.
    pub tam: usize,
    /// Start time in clock cycles.
    pub start: u64,
    /// Duration in clock cycles.
    pub duration: u64,
}

impl ScheduledTest {
    /// End time in clock cycles. Saturates instead of overflowing so a
    /// corrupted plan file (absurd start/duration) cannot panic a debug
    /// build; validation rejects such schedules via the duration check.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }
}

/// A complete SOC test schedule over a fixed-width TAM partition.
///
/// Invariants (checked by [`validate`](Schedule::validate)): every core
/// appears exactly once, tests on the same TAM do not overlap, and every
/// duration matches the cost model at the TAM's width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    tam_widths: Vec<u32>,
    tests: Vec<ScheduledTest>,
}

impl Schedule {
    /// Assembles a schedule from parts (validation is separate).
    pub fn new(tam_widths: Vec<u32>, tests: Vec<ScheduledTest>) -> Self {
        Schedule { tam_widths, tests }
    }

    /// Widths of the TAM partition.
    pub fn tam_widths(&self) -> &[u32] {
        &self.tam_widths
    }

    /// Total TAM wires used.
    pub fn total_width(&self) -> u32 {
        self.tam_widths.iter().sum()
    }

    /// The scheduled tests (arbitrary order).
    pub fn tests(&self) -> &[ScheduledTest] {
        &self.tests
    }

    /// SOC test time: the latest end time (0 for an empty schedule).
    pub fn makespan(&self) -> u64 {
        self.tests.iter().map(ScheduledTest::end).max().unwrap_or(0)
    }

    /// Finish time of one TAM.
    pub fn tam_finish(&self, tam: usize) -> u64 {
        self.tests
            .iter()
            .filter(|t| t.tam == tam)
            .map(ScheduledTest::end)
            .max()
            .unwrap_or(0)
    }

    /// Idle wire-cycles: `Σ_tam width · (makespan − finish_tam)` plus any
    /// internal gaps — a measure of how well the architecture is packed.
    pub fn idle_wire_cycles(&self) -> u64 {
        let makespan = self.makespan();
        let mut idle = 0;
        for (j, &w) in self.tam_widths.iter().enumerate() {
            let busy: u64 = self
                .tests
                .iter()
                .filter(|t| t.tam == j)
                .map(|t| t.duration)
                .sum();
            idle += u64::from(w) * (makespan - busy);
        }
        idle
    }

    /// Checks all schedule invariants against `cost`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ScheduleError`].
    pub fn validate(&self, cost: &CostModel) -> Result<(), ScheduleError> {
        self.validate_durations(cost.core_count(), |t, width| {
            cost.time(t.core, width)
                .ok_or(ScheduleError::InfeasibleWidth {
                    core: t.core,
                    width,
                })
        })
    }

    /// The structural invariants over `cores` cores, with each test's
    /// required duration (or the reason it has none) given by `expected`.
    pub(crate) fn validate_durations(
        &self,
        cores: usize,
        expected: impl Fn(&ScheduledTest, u32) -> Result<u64, ScheduleError>,
    ) -> Result<(), ScheduleError> {
        let mut seen = vec![false; cores];
        for t in &self.tests {
            if t.core >= cores {
                return Err(ScheduleError::UnknownCore { core: t.core });
            }
            if t.tam >= self.tam_widths.len() {
                return Err(ScheduleError::UnknownTam {
                    core: t.core,
                    tam: t.tam,
                });
            }
            if seen[t.core] {
                return Err(ScheduleError::DuplicateCore { core: t.core });
            }
            seen[t.core] = true;
            let d = expected(t, self.tam_widths[t.tam])?;
            if d != t.duration {
                return Err(ScheduleError::WrongDuration {
                    core: t.core,
                    expected: d,
                    found: t.duration,
                });
            }
        }
        if let Some(core) = seen.iter().position(|&s| !s) {
            return Err(ScheduleError::MissingCore { core });
        }
        // Overlap check per TAM.
        for tam in 0..self.tam_widths.len() {
            let mut slots: Vec<&ScheduledTest> =
                self.tests.iter().filter(|t| t.tam == tam).collect();
            slots.sort_by_key(|t| t.start);
            for pair in slots.windows(2) {
                if pair[0].end() > pair[1].start {
                    return Err(ScheduleError::Overlap {
                        tam,
                        first: pair[0].core,
                        second: pair[1].core,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule: {} TAMs (widths {:?}), makespan {}",
            self.tam_widths.len(),
            self.tam_widths,
            self.makespan()
        )?;
        for (j, &w) in self.tam_widths.iter().enumerate() {
            let mut slots: Vec<&ScheduledTest> = self.tests.iter().filter(|t| t.tam == j).collect();
            slots.sort_by_key(|t| t.start);
            write!(f, "  TAM{j} (w={w}):")?;
            for t in slots {
                write!(f, " core{}[{}..{}]", t.core, t.start, t.end())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A violated schedule invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A test references a core outside the cost model.
    UnknownCore {
        /// The offending core index.
        core: usize,
    },
    /// A test references a TAM outside the partition.
    UnknownTam {
        /// The scheduled core.
        core: usize,
        /// The offending TAM index.
        tam: usize,
    },
    /// A core is scheduled more than once.
    DuplicateCore {
        /// The offending core index.
        core: usize,
    },
    /// A core is not scheduled at all.
    MissingCore {
        /// The missing core index.
        core: usize,
    },
    /// A test's duration disagrees with the cost model.
    WrongDuration {
        /// The scheduled core.
        core: usize,
        /// Duration per the cost model.
        expected: u64,
        /// Duration found in the schedule.
        found: u64,
    },
    /// A core is assigned to a TAM width it cannot operate at.
    InfeasibleWidth {
        /// The scheduled core.
        core: usize,
        /// The infeasible width.
        width: u32,
    },
    /// Two tests on the same TAM overlap in time.
    Overlap {
        /// The TAM index.
        tam: usize,
        /// The earlier core.
        first: usize,
        /// The later core.
        second: usize,
    },
    /// No TAM in the partition can test this core (scheduling failure).
    CoreUnschedulable {
        /// The core no TAM can host.
        core: usize,
    },
    /// The requested partition is impossible (e.g. more TAMs than wires).
    BadPartition {
        /// Total wires requested.
        total_width: u32,
        /// Number of TAMs requested.
        tams: u32,
    },
    /// A cancellable search was stopped before it found any feasible
    /// architecture to return as an incumbent.
    Interrupted,
    /// A per-core or per-TAM constraint list has the wrong length.
    ConstraintLength {
        /// The [`Constraints`](crate::Constraints) field.
        field: &'static str,
        /// Entries needed: the core or TAM count.
        expected: usize,
        /// Entries given.
        found: usize,
    },
    /// A precedence edge or exclusive pair names a core outside the cost
    /// model.
    UnknownConstraintCore {
        /// The offending core index.
        core: usize,
    },
    /// The precedence edges form a cycle, so this core can never start.
    PrecedenceCycle {
        /// The lowest-index core left unordered.
        core: usize,
    },
    /// A power budget of zero.
    ZeroPowerBudget,
    /// A core's test power alone exceeds the budget.
    CoreOverPowerBudget {
        /// The core.
        core: usize,
        /// Its test power.
        power: u64,
        /// The budget.
        budget: u64,
    },
    /// A TAM clock multiplier of zero.
    ZeroClockMultiplier {
        /// The TAM index.
        tam: usize,
    },
    /// A multi-frequency search was given no multipliers to try.
    NoFrequencyOptions,
    /// Concurrent test power exceeds the budget.
    PowerExceeded {
        /// Peak concurrent power found.
        peak: u64,
        /// The budget.
        budget: u64,
    },
    /// A test starts before its predecessor finished.
    PrecedenceViolated {
        /// The predecessor core.
        before: usize,
        /// The dependent core.
        after: usize,
    },
    /// Two exclusive tests overlap in time.
    ExclusiveOverlap {
        /// One core of the pair.
        first: usize,
        /// The other core.
        second: usize,
    },
    /// A core runs on a TAM clocked faster than its cap.
    FrequencyCapExceeded {
        /// The core.
        core: usize,
        /// The TAM's clock multiplier.
        freq: u32,
        /// The core's cap.
        cap: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnknownCore { core } => write!(f, "unknown core {core}"),
            ScheduleError::UnknownTam { core, tam } => {
                write!(f, "core {core} assigned to unknown TAM {tam}")
            }
            ScheduleError::DuplicateCore { core } => {
                write!(f, "core {core} scheduled more than once")
            }
            ScheduleError::MissingCore { core } => write!(f, "core {core} not scheduled"),
            ScheduleError::WrongDuration {
                core,
                expected,
                found,
            } => write!(
                f,
                "core {core} scheduled for {found} cycles but the cost model says {expected}"
            ),
            ScheduleError::InfeasibleWidth { core, width } => {
                write!(f, "core {core} cannot be tested on a {width}-wire TAM")
            }
            ScheduleError::Overlap { tam, first, second } => {
                write!(f, "cores {first} and {second} overlap on TAM {tam}")
            }
            ScheduleError::CoreUnschedulable { core } => {
                write!(f, "no TAM in the partition can test core {core}")
            }
            ScheduleError::BadPartition { total_width, tams } => {
                write!(f, "cannot split {total_width} wires into {tams} TAMs")
            }
            ScheduleError::Interrupted => {
                write!(
                    f,
                    "search cancelled before any feasible architecture was found"
                )
            }
            ScheduleError::ConstraintLength {
                field,
                expected,
                found,
            } => write!(
                f,
                "constraint `{field}` has {found} entries, expected {expected}"
            ),
            ScheduleError::UnknownConstraintCore { core } => {
                write!(f, "a constraint names unknown core {core}")
            }
            ScheduleError::PrecedenceCycle { core } => {
                write!(
                    f,
                    "precedence edges form a cycle: core {core} can never start"
                )
            }
            ScheduleError::ZeroPowerBudget => write!(f, "power budget must be positive"),
            ScheduleError::CoreOverPowerBudget {
                core,
                power,
                budget,
            } => write!(
                f,
                "core {core} draws {power} alone, over the power budget {budget}"
            ),
            ScheduleError::ZeroClockMultiplier { tam } => {
                write!(f, "TAM {tam} has a zero clock multiplier")
            }
            ScheduleError::NoFrequencyOptions => write!(f, "no clock multipliers to search"),
            ScheduleError::PowerExceeded { peak, budget } => {
                write!(f, "peak test power {peak} exceeds the budget {budget}")
            }
            ScheduleError::PrecedenceViolated { before, after } => write!(
                f,
                "core {after} starts before its predecessor core {before} finishes"
            ),
            ScheduleError::ExclusiveOverlap { first, second } => {
                write!(f, "exclusive cores {first} and {second} overlap in time")
            }
            ScheduleError::FrequencyCapExceeded { core, freq, cap } => {
                write!(f, "core {core} runs at {freq}x, over its cap of {cap}x")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        let mut m = CostModel::new(2);
        m.push_core("a", vec![Some(100), Some(60)]);
        m.push_core("b", vec![Some(80), Some(50)]);
        m.push_core("c", vec![None, Some(40)]);
        m
    }

    fn good_schedule() -> Schedule {
        Schedule::new(
            vec![1, 2],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 100,
                },
                ScheduledTest {
                    core: 1,
                    tam: 1,
                    start: 0,
                    duration: 50,
                },
                ScheduledTest {
                    core: 2,
                    tam: 1,
                    start: 50,
                    duration: 40,
                },
            ],
        )
    }

    #[test]
    fn valid_schedule_passes() {
        let s = good_schedule();
        assert_eq!(s.validate(&cost()), Ok(()));
        assert_eq!(s.makespan(), 100);
        assert_eq!(s.tam_finish(1), 90);
        assert_eq!(s.total_width(), 3);
    }

    #[test]
    fn idle_wire_cycles_counts_gaps() {
        let s = good_schedule();
        // TAM0: busy 100/100 → 0 idle. TAM1: busy 90/100 → 10 · 2 wires.
        assert_eq!(s.idle_wire_cycles(), 20);
    }

    #[test]
    fn detects_missing_and_duplicate_cores() {
        let c = cost();
        let missing = Schedule::new(
            vec![2],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 60,
                },
                ScheduledTest {
                    core: 1,
                    tam: 0,
                    start: 60,
                    duration: 50,
                },
            ],
        );
        assert_eq!(
            missing.validate(&c),
            Err(ScheduleError::MissingCore { core: 2 })
        );

        let dup = Schedule::new(
            vec![2],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 60,
                },
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 60,
                    duration: 60,
                },
            ],
        );
        assert_eq!(
            dup.validate(&c),
            Err(ScheduleError::DuplicateCore { core: 0 })
        );
    }

    #[test]
    fn detects_overlap() {
        let c = cost();
        let s = Schedule::new(
            vec![2],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 60,
                },
                ScheduledTest {
                    core: 1,
                    tam: 0,
                    start: 59,
                    duration: 50,
                },
                ScheduledTest {
                    core: 2,
                    tam: 0,
                    start: 120,
                    duration: 40,
                },
            ],
        );
        assert_eq!(
            s.validate(&c),
            Err(ScheduleError::Overlap {
                tam: 0,
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn detects_wrong_duration_and_infeasible_width() {
        let c = cost();
        let wrong = Schedule::new(
            vec![2],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 61,
                },
                ScheduledTest {
                    core: 1,
                    tam: 0,
                    start: 61,
                    duration: 50,
                },
                ScheduledTest {
                    core: 2,
                    tam: 0,
                    start: 111,
                    duration: 40,
                },
            ],
        );
        assert!(matches!(
            wrong.validate(&c),
            Err(ScheduleError::WrongDuration {
                core: 0,
                expected: 60,
                found: 61
            })
        ));

        let infeasible = Schedule::new(
            vec![1, 1],
            vec![
                ScheduledTest {
                    core: 0,
                    tam: 0,
                    start: 0,
                    duration: 100,
                },
                ScheduledTest {
                    core: 1,
                    tam: 0,
                    start: 100,
                    duration: 80,
                },
                ScheduledTest {
                    core: 2,
                    tam: 1,
                    start: 0,
                    duration: 40,
                },
            ],
        );
        assert!(matches!(
            infeasible.validate(&c),
            Err(ScheduleError::InfeasibleWidth { core: 2, width: 1 })
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = ScheduleError::Overlap {
            tam: 1,
            first: 2,
            second: 3,
        };
        assert!(e.to_string().contains("overlap"));
        assert!(ScheduleError::CoreUnschedulable { core: 7 }
            .to_string()
            .contains("core 7"));
    }

    #[test]
    fn display_renders_gantt_rows() {
        let s = good_schedule().to_string();
        assert!(s.contains("TAM0"));
        assert!(s.contains("core2[50..90]"));
    }
}
