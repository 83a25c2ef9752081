//! Test access mechanism (TAM) design and SOC test scheduling.
//!
//! The top-level test-access wires of an SOC are partitioned into
//! fixed-width buses; each core is assigned to one bus and the cores on a
//! bus are tested serially. This crate provides the paper's scheduling
//! heuristic ([`greedy_schedule`]), the architecture optimizer that chooses
//! the partition ([`optimize_architecture`]), schedule validation, an ASCII
//! Gantt view ([`render_gantt`]), and the same list scheduler under side
//! constraints ([`schedule_with`] over [`Constraints`]: a power budget,
//! precedence edges, exclusive pairs and multi-frequency TAMs).
//!
//! Test times come from a [`CostModel`] — one row per core, one column per
//! TAM width — so the same machinery serves plain wrapper designs,
//! per-core decompressors, and LFSR-reseeding compression alike.
//!
//! # Examples
//!
//! ```
//! use tam::{optimize_architecture, ArchitectureOptions, CostModel};
//!
//! // Four cores whose test time scales inversely with width.
//! let cost = CostModel::from_fn(&["a", "b", "c", "d"], 8, |i, w| {
//!     Some(10_000 * (i as u64 + 1) / u64::from(w))
//! });
//! let arch = optimize_architecture(&cost, 8, &ArchitectureOptions::default())?;
//! arch.schedule.validate(&cost)?;
//! assert!(arch.test_time >= cost.lower_bound(8));
//! # Ok::<(), tam::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod anneal;
mod constraints;
mod cost;
mod exhaustive;
mod gantt;
mod greedy;
mod optimize;
mod schedule;
mod search;
mod sweep;

pub use anneal::{anneal_architecture, anneal_architecture_with, AnnealOptions};
pub use constraints::{optimize_multifreq, schedule_with, Constraints};
pub use cost::CostModel;
pub use exhaustive::{exhaustive_architecture, exhaustive_architecture_with};
pub use gantt::render_gantt;
pub use greedy::{greedy_schedule, greedy_schedule_with, longest_first_order, schedule_in_order};
pub use optimize::{
    balanced_split, optimize_architecture, optimize_architecture_with, Architecture,
    ArchitectureOptions,
};
pub use schedule::{Schedule, ScheduleError, ScheduledTest};
pub use search::{Search, SearchStatus};
