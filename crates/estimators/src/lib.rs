//! Baseline page-fetch estimators (Section 3 of the paper).
//!
//! Four prior algorithms are compared against EPFIS:
//!
//! * [`ml::MlEstimator`] — Mackert & Lohman's validated LRU I/O model (TODS
//!   1989): a closed-form curve with a buffer-saturation knee at `n` derived
//!   from `B`,
//! * [`dc::DcEstimator`], [`sd::SdEstimator`], [`ot::OtEstimator`] — three
//!   "cluster ratio" heuristics abstracted from the internals of existing
//!   database products; each condenses the trace into one scalar `CR` and
//!   interpolates between the perfectly-clustered (`σT`) and worst-case
//!   cost.
//!
//! All estimators are constructed from the same single pass over the index's
//! page-reference trace — the same pass that feeds EPFIS — so the comparison
//! isolates the *models*, not the statistics collection. That pass reduces
//! to `T`, `N`, `I` and three integers, [`BaselineCounters`];
//! [`baseline_estimators`] builds all four baselines from them, and
//! [`summary::TraceSummary`] computes them from a whole trace. The probabilistic building blocks (Cardenas 1975,
//! Yao 1977) live in [`occupancy`].
//!
//! Formulas are implemented exactly as printed in the paper, including the
//! terms responsible for the baselines' pathological errors (see each
//! module's docs); genuinely ambiguous readings get an explicit alternate
//! mode so ablation benches can probe them.

pub mod dc;
pub mod ml;
pub mod occupancy;
pub mod ot;
pub mod sd;
pub mod summary;
pub mod traits;

pub use dc::DcEstimator;
pub use ml::MlEstimator;
pub use occupancy::{cardenas, yao};
pub use ot::OtEstimator;
pub use sd::{SdEstimator, SdExponent};
pub use summary::{baseline_estimators, BaselineCounters, TraceSummary};
pub use traits::{PageFetchEstimator, ScanParams};
