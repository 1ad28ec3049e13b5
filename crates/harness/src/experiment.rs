//! The per-dataset experiment pipeline.
//!
//! For one dataset: compute the one-pass [`TraceSummary`], instantiate EPFIS
//! (sharing the same exact fetch curve) and the four baselines, draw the §5
//! scan workload, measure every scan's ground-truth fetch curve, and emit
//! error-vs-buffer-size series in the exact shape of the paper's figures.

use crate::metrics::aggregate_error_percent;
use crate::report::Series;
use crate::truth::workload_truth_on;
use epfis::{EpfisConfig, EpfisEstimator, LruFit};
use epfis_datagen::{Dataset, RangeScan, ScanWorkloadConfig, WorkloadGenerator};
use epfis_estimators::{baseline_estimators, PageFetchEstimator, ScanParams, TraceSummary};
use epfis_lrusim::FetchCurve;
use epfis_lrusim::KeyedTrace;

/// The buffer sizes §5 sweeps: `max(300, 0.05·T)` to `0.9·T` in steps of
/// `0.05·T`. `min_buffer` defaults to the paper's 300 but is overridable for
/// scaled-down runs.
pub fn paper_buffer_grid(table_pages: u64, min_buffer: u64) -> Vec<u64> {
    let step = ((0.05 * table_pages as f64).ceil() as u64).max(1);
    let hi = ((0.9 * table_pages as f64) as u64).max(1);
    let lo = step.max(min_buffer).min(hi);
    let mut out = Vec::new();
    let mut b = lo;
    while b <= hi {
        out.push(b);
        b += step;
    }
    if out.is_empty() {
        out.push(hi);
    }
    out
}

/// A fully-prepared experiment over one dataset (or raw keyed trace).
///
/// Estimator boxes are `Send + Sync` (every estimator is plain fitted data)
/// so estimation and error sweeps can fan out across threads.
pub struct DatasetExperiment {
    trace: KeyedTrace,
    summary: TraceSummary,
    estimators: Vec<Box<dyn PageFetchEstimator + Send + Sync>>,
    scans: Vec<RangeScan>,
    truths: Vec<FetchCurve>,
}

impl DatasetExperiment {
    /// Builds the pipeline from a generated dataset.
    pub fn build(
        dataset: Dataset,
        workload: &ScanWorkloadConfig,
        epfis_config: EpfisConfig,
    ) -> Self {
        Self::build_from_trace(dataset.trace().clone(), workload, epfis_config)
    }

    /// Builds the pipeline from any keyed trace (e.g. one captured from a
    /// live system): one stack pass for statistics, workload generation,
    /// and per-scan ground truth.
    pub fn build_from_trace(
        trace: KeyedTrace,
        workload: &ScanWorkloadConfig,
        epfis_config: EpfisConfig,
    ) -> Self {
        let summary = TraceSummary::from_trace(&trace);
        let stats = LruFit::new(epfis_config).collect_from_curve(
            &summary.fetch_curve,
            summary.table_pages,
            summary.records,
            summary.distinct_keys,
        );
        let mut estimators: Vec<Box<dyn PageFetchEstimator + Send + Sync>> =
            vec![Box::new(EpfisEstimator::new(stats))];
        estimators.extend(baseline_estimators(
            summary.table_pages,
            summary.records,
            summary.distinct_keys,
            summary.baseline_counters(),
        ));
        let mut generator = WorkloadGenerator::new(&trace, workload.seed);
        let scans = generator.generate(workload);
        let truths = workload_truth_on(&trace, &scans);
        DatasetExperiment {
            trace,
            summary,
            estimators,
            scans,
            truths,
        }
    }

    /// The trace under test.
    pub fn trace(&self) -> &KeyedTrace {
        &self.trace
    }

    /// The shared one-pass statistics.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// The generated workload.
    pub fn scans(&self) -> &[RangeScan] {
        &self.scans
    }

    /// Algorithm names, in series order (EPFIS first).
    pub fn algorithm_names(&self) -> Vec<&'static str> {
        self.estimators.iter().map(|e| e.name()).collect()
    }

    /// All estimates of algorithm `idx` at buffer size `b`.
    ///
    /// Scans are estimated in parallel; results stay in scan order.
    pub fn estimates(&self, idx: usize, b: u64) -> Vec<f64> {
        epfis_par::par_map(&self.scans, |s| {
            let params = ScanParams::range(s.selectivity, b).with_distinct_keys(s.distinct_keys);
            self.estimators[idx].estimate(&params)
        })
    }

    /// All ground-truth fetch counts at buffer size `b`.
    pub fn actuals(&self, b: u64) -> Vec<f64> {
        self.truths.iter().map(|c| c.fetches(b) as f64).collect()
    }

    /// The paper's error metric (percent) for algorithm `idx` at buffer `b`.
    pub fn error_percent(&self, idx: usize, b: u64) -> f64 {
        aggregate_error_percent(&self.estimates(idx, b), &self.actuals(b))
    }

    /// Error-vs-buffer series for every algorithm, with the x-axis expressed
    /// as a percentage of `T` (matching the figures). Values with magnitude
    /// above `clip_percent` are clipped to `None` (the paper's plots clip
    /// DC/OT around 100%); pass `f64::INFINITY` to keep everything.
    pub fn error_series(&self, buffers: &[u64], clip_percent: f64) -> Vec<Series> {
        let t = self.summary.table_pages as f64;
        // One task per (algorithm, buffer) grid point; index-ordered results
        // reassemble into per-algorithm series identical to a serial sweep.
        let n_b = buffers.len();
        let grid = epfis_par::run_indexed(self.estimators.len() * n_b, |k| {
            let (idx, b) = (k / n_b, buffers[k % n_b]);
            let x = 100.0 * b as f64 / t;
            let e = self.error_percent(idx, b);
            (x, (e.abs() <= clip_percent).then_some(e))
        });
        self.estimators
            .iter()
            .enumerate()
            .map(|(idx, est)| Series {
                name: est.name().to_string(),
                points: grid[idx * n_b..(idx + 1) * n_b].to_vec(),
            })
            .collect()
    }

    /// Maximum |error%| per algorithm over a buffer sweep (the §5 summary
    /// numbers), unclipped.
    pub fn max_abs_error(&self, buffers: &[u64]) -> Vec<(String, f64)> {
        let n_b = buffers.len();
        let grid = epfis_par::run_indexed(self.estimators.len() * n_b, |k| {
            self.error_percent(k / n_b, buffers[k % n_b]).abs()
        });
        self.estimators
            .iter()
            .enumerate()
            .map(|(idx, est)| {
                let worst = grid[idx * n_b..(idx + 1) * n_b]
                    .iter()
                    .copied()
                    .fold(0.0f64, f64::max);
                (est.name().to_string(), worst)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis_datagen::DatasetSpec;

    fn experiment(k: f64) -> DatasetExperiment {
        let spec = DatasetSpec::synthetic(20_000, 400, 20, 0.0, k);
        let workload = ScanWorkloadConfig {
            scans: 60,
            small_fraction: 0.5,
            seed: 11,
        };
        DatasetExperiment::build(Dataset::generate(spec), &workload, EpfisConfig::default())
    }

    #[test]
    fn paper_grid_shape() {
        // T = 25_000: lo = max(300, 1250) = 1250, hi = 22_500, step 1250.
        let g = paper_buffer_grid(25_000, 300);
        assert_eq!(g[0], 1250);
        assert_eq!(*g.last().unwrap(), 22_500);
        assert_eq!(g.len(), 18);
        // Small table: min buffer 300 dominates.
        let g = paper_buffer_grid(774, 300);
        assert_eq!(g[0], 300);
        assert!(*g.last().unwrap() <= (0.9 * 774.0) as u64);
    }

    #[test]
    fn grid_never_empty_even_for_tiny_tables() {
        let g = paper_buffer_grid(10, 300);
        assert!(!g.is_empty());
        assert!(g[0] >= 1);
    }

    #[test]
    fn pipeline_produces_five_algorithms() {
        let e = experiment(0.5);
        assert_eq!(e.algorithm_names(), vec!["EPFIS", "ML", "DC", "SD", "OT"]);
        assert_eq!(e.scans().len(), 60);
    }

    #[test]
    fn epfis_error_is_small_across_buffers() {
        let e = experiment(0.5);
        let t = e.summary().table_pages;
        let buffers = paper_buffer_grid(t, 40);
        for &b in &buffers {
            let err = e.error_percent(0, b);
            assert!(
                err.abs() < 60.0,
                "EPFIS error {err}% at B={b} is out of family"
            );
        }
    }

    #[test]
    fn epfis_beats_every_baseline_on_aggregate_worst_case() {
        // The paper's headline: EPFIS dominates. At test scale allow ties.
        let e = experiment(0.5);
        let t = e.summary().table_pages;
        let buffers = paper_buffer_grid(t, 40);
        let maxes = e.max_abs_error(&buffers);
        let epfis = maxes[0].1;
        for (name, worst) in &maxes[1..] {
            assert!(
                epfis <= *worst + 1.0,
                "EPFIS worst {epfis}% vs {name} worst {worst}%"
            );
        }
    }

    #[test]
    fn series_share_x_grid_and_clip() {
        let e = experiment(1.0);
        let buffers = paper_buffer_grid(e.summary().table_pages, 40);
        let series = e.error_series(&buffers, 100.0);
        assert_eq!(series.len(), 5);
        for s in &series {
            assert_eq!(s.points.len(), buffers.len());
            for (p, q) in s.points.iter().zip(&series[0].points) {
                assert_eq!(p.0, q.0, "shared x grid");
            }
            for (_, y) in &s.points {
                if let Some(y) = y {
                    assert!(y.abs() <= 100.0);
                }
            }
        }
    }

    #[test]
    fn estimates_and_actuals_align_with_scan_count() {
        let e = experiment(0.05);
        let b = 100;
        assert_eq!(e.estimates(0, b).len(), 60);
        assert_eq!(e.actuals(b).len(), 60);
        // Actuals are sane: between distinct pages and record count.
        for (s, a) in e.scans().iter().zip(e.actuals(b)) {
            assert!(a >= 1.0);
            assert!(a <= s.records as f64);
        }
    }
}
