//! # EPFIS — Estimating Page Fetches for Index Scans with finite LRU buffers
//!
//! A faithful implementation of Algorithm EPFIS from Swami & Schiefer,
//! *"Estimating Page Fetches for Index Scans with Finite LRU Buffers"*
//! (The VLDB Journal 4(4), 1995; submitted 1994).
//!
//! EPFIS answers the question a cost-based query optimizer asks for every
//! candidate index access path: *given `B` buffer pages and a predicate
//! selecting a fraction `σ` of the records, how many data pages will the
//! scan fetch from disk?* Unlike its probabilistic predecessors, EPFIS is an
//! **empirical** model: it measures the index's actual Full-index-scan Page
//! Fetch (FPF) curve once, at statistics-collection time, and answers
//! optimizer queries from a compact piecewise-linear summary of it.
//!
//! The two components mirror the paper:
//!
//! * [`lru_fit::LruFit`] (Subprogram **LRU-Fit**, §4.1) — run during
//!   statistics collection. One pass over the index's page-reference trace
//!   (using the LRU stack property) produces page-fetch counts at a grid of
//!   buffer sizes, the clustering factor `C`, and the line-segment
//!   approximation of the FPF curve; everything is packed into an
//!   [`IndexStatistics`] catalog entry.
//! * [`est_io::estimate`] (Subprogram **Est-IO**, §4.2) — called by the
//!   optimizer at query-compilation time. Interpolates `PF_B` from the
//!   stored segments, scales by `σ`, applies the small-`σ` heuristic
//!   correction, and applies the urn-model reduction for index-sargable
//!   predicates.
//!
//! Supporting modules: [`config`] (tunables, including Goetz Graefe's
//! geometric grid from the paper's footnote 2 and the ablation switches),
//! [`optimizer`] (a miniature cost-based access-path selector that consumes
//! the estimates, §2's plan-choice setting), and [`notation`] (the paper's
//! Table 1 mapped onto this crate's types). This crate does no file I/O:
//! the catalog file that persists [`IndexStatistics`] entries, and its text
//! format, belong to `epfis-server`'s catalog module.
//!
//! ## Quick start
//!
//! ```
//! use epfis::{EpfisConfig, LruFit, ScanQuery};
//! use epfis_lrusim::KeyedTrace;
//!
//! // The statistics scan of an index yields data-page references in key
//! // order; here, 3 keys over a 4-page table.
//! let trace = KeyedTrace::from_run_lengths(vec![0, 1, 0, 2, 3, 1], &[2, 2, 2], 4);
//!
//! // Statistics-collection time: build the catalog entry.
//! let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
//!
//! // Query-compilation time: estimate fetches for a 50%-selectivity scan
//! // with 2 buffer pages.
//! let est = stats.estimate(&ScanQuery::range(0.5, 2));
//! assert!(est > 0.0 && est <= 6.0);
//! ```

pub mod config;
pub mod est_io;
pub mod explain;
pub mod grid;
pub mod lru_fit;
pub mod notation;
pub mod optimizer;
pub mod ridlist;
pub mod selectivity;
pub mod stats;

pub use config::{EpfisConfig, GridStrategy, PhiMode};
pub use epfis_segfit::PiecewiseLinear;
pub use est_io::{EpfisEstimator, ScanQuery};
pub use explain::EstimateTrace;
pub use lru_fit::LruFit;
pub use selectivity::EquiDepthHistogram;
pub use stats::IndexStatistics;
