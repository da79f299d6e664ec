//! Experiment harness reproducing the evaluation of *Live Exploration of
//! Dynamic Rings*.
//!
//! The paper is a theory paper: its "evaluation" is the feasibility and
//! complexity map of Tables 1–4 together with the worst-case schedules and
//! runs drawn in the figures. This crate turns every row of those tables and
//! every figure into an executable experiment:
//!
//! * [`scenario`] — declarative scenario descriptions (ring, agents,
//!   knowledge, adversary) and a one-call runner;
//! * [`batch`] — runs a battery of scenarios across threads, each worker
//!   recycling one simulation cell after cell, with the results in input
//!   order;
//! * [`tables`] — one function per table of the paper; each returns
//!   structured [`report::RowResult`]s that the benchmark harness prints in
//!   the same shape as the paper's tables;
//! * [`figures`] — the hand-crafted schedules of Figures 2 and 12 and the
//!   qualitative runs of Figures 5–7, 15 and 16;
//! * [`sweeps`] — parameter sweeps over the ring size used to check the
//!   asymptotic claims (`3N − 6`, `O(n)`, `O(n log n)`, `O(N²)`, `O(n²)`);
//! * [`lower_bounds`] — the experiments accompanying Theorems 4, 13 and 15;
//! * [`model_check`] — exhaustive bounded search over **every** adversary
//!   play of a small cell, proving the Table 1/3 impossibility rows for
//!   small `n` and discovering worst-case schedules;
//! * [`report`] — markdown rendering of all of the above (used by
//!   `EXPERIMENTS.md` and the examples).
//!
//! # Example: regenerate Table 2
//!
//! ```
//! use dynring_analysis::tables;
//!
//! let rows = tables::table2(&[6, 9], 3);
//! assert_eq!(rows.len(), 3);
//! for row in &rows {
//!     assert!(row.holds, "{} violated: {}", row.id, row.observed);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod figures;
pub mod lower_bounds;
pub mod model_check;
pub mod report;
pub mod scenario;
pub mod sweeps;
pub mod tables;

pub use batch::BatchRunner;
pub use model_check::{ModelCheck, Objective, TableCell, Verdict};
pub use report::{markdown_table, RowResult};
#[doc(hidden)]
pub use scenario::ScenarioBatchRunner;
pub use scenario::{AdversaryKind, Scenario, ScenarioRunner, SchedulerKind};
pub use sweeps::PlacementDensity;
