//! One-pass trace statistics shared by every estimator.
//!
//! A single statistics scan of the index (the same scan LRU-Fit rides on)
//! yields everything the baselines need:
//!
//! * the exact fetch curve `F(B)` (Mattson stack analysis) — `F(1)` is
//!   Algorithm SD's `J`, `F(3)` is Algorithm OT's `J`,
//! * table/record/key cardinalities `T`, `N`, `I`,
//! * the distinct referenced pages `A`,
//! * Algorithm DC's cluster counter `CC`.
//!
//! Of these, the baselines read only `T`, `N`, `I` and three integers,
//! [`BaselineCounters`]; [`baseline_estimators`] builds all four from them,
//! so a catalog that stores the three counters can rebuild the comparison
//! without the curve.

use crate::{DcEstimator, MlEstimator, OtEstimator, PageFetchEstimator, SdEstimator, SdExponent};
use epfis_lrusim::{FetchCurve, KeyedTrace, StackAnalyzer};

/// The three scan counters the baselines need beyond `T`, `N` and `I`:
/// small enough to persist beside a catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCounters {
    /// Algorithm DC's cluster counter `CC` (see
    /// [`TraceSummary::cluster_counter`]).
    pub cluster_counter: u64,
    /// `F(1)`, Algorithm SD's `J`.
    pub fetches_b1: u64,
    /// `F(3)`, Algorithm OT's `J`.
    pub fetches_b3: u64,
}

/// The ML, DC, SD and OT estimators, in that order, for an index with
/// `table_pages` (`T`), `records` (`N`) and `distinct_keys` (`I`).
pub fn baseline_estimators(
    table_pages: u64,
    records: u64,
    distinct_keys: u64,
    counters: BaselineCounters,
) -> Vec<Box<dyn PageFetchEstimator + Send + Sync>> {
    let (t, n, i) = (table_pages, records, distinct_keys);
    vec![
        Box::new(MlEstimator::from_stats(t, n, i)),
        Box::new(DcEstimator::from_stats(t, n, i, counters.cluster_counter)),
        Box::new(SdEstimator::from_stats(
            t,
            n,
            i,
            counters.fetches_b1,
            SdExponent::default(),
        )),
        Box::new(OtEstimator::from_stats(t, n, counters.fetches_b3)),
    ]
}

/// Statistics extracted from one pass over a key-ordered reference trace.
///
/// ```
/// use epfis_estimators::{MlEstimator, PageFetchEstimator, ScanParams, TraceSummary};
/// use epfis_lrusim::KeyedTrace;
///
/// let trace = KeyedTrace::from_run_lengths(vec![0, 1, 0, 2, 1, 2], &[2, 2, 2], 3);
/// let s = TraceSummary::from_trace(&trace);
/// assert_eq!((s.table_pages, s.records, s.distinct_keys), (3, 6, 3));
/// assert_eq!(s.fetches_buffer_1(), 6); // fully interleaved: all misses
///
/// // Every baseline estimator builds from the same summary:
/// let ml = MlEstimator::from_summary(&s);
/// let f = ml.estimate(&ScanParams::range(0.5, 2));
/// assert!(f > 0.0 && f <= 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Pages in the table (`T`).
    pub table_pages: u64,
    /// Index entries / records (`N`).
    pub records: u64,
    /// Distinct key values (`I`).
    pub distinct_keys: u64,
    /// Distinct data pages referenced (`A` for a full scan).
    pub distinct_pages: u64,
    /// Exact LRU fetch curve of the full scan.
    pub fetch_curve: FetchCurve,
    /// DC's cluster counter: over consecutive distinct keys, how often "the
    /// first page containing the records of the next key value is the same
    /// or a higher page than the last page containing the records of the
    /// previous key value" — read literally as the *lowest*-numbered page of
    /// the next key vs the *highest*-numbered page of the previous key.
    /// (The paper initializes CC to zero and makes `I − 1` comparisons.)
    /// This reading makes even light placement noise depress CC sharply,
    /// which is what produces DC's published error blow-ups on clustered
    /// data; see [`Self::cluster_counter_run_order`] for the alternative.
    pub cluster_counter: u64,
    /// Alternate CC reading: compare the page of the next key's *first
    /// entry* (in RID order) with the page of the previous key's *last
    /// entry*. Kept for ablation.
    pub cluster_counter_run_order: u64,
}

impl TraceSummary {
    /// Computes the summary from a keyed trace in one pass.
    pub fn from_trace(trace: &KeyedTrace) -> Self {
        let mut analyzer = StackAnalyzer::with_capacity(trace.pages().len());
        for &p in trace.pages() {
            analyzer.access(p);
        }
        let distinct_pages = analyzer.distinct_pages();
        let fetch_curve = analyzer.finish().fetch_curve();

        let keys = trace.num_keys() as usize;
        let mut cc_minmax = 0u64;
        let mut cc_run_order = 0u64;
        let run_min = |k: usize| *trace.run_pages(k).iter().min().expect("non-empty run");
        let run_max = |k: usize| *trace.run_pages(k).iter().max().expect("non-empty run");
        let mut prev_max = if keys > 0 { run_max(0) } else { 0 };
        for k in 1..keys {
            if run_min(k) >= prev_max {
                cc_minmax += 1;
            }
            if trace.first_page_of_key(k) >= trace.last_page_of_key(k - 1) {
                cc_run_order += 1;
            }
            prev_max = run_max(k);
        }

        TraceSummary {
            table_pages: trace.table_pages() as u64,
            records: trace.num_entries(),
            distinct_keys: trace.num_keys(),
            distinct_pages,
            fetch_curve,
            cluster_counter: cc_minmax,
            cluster_counter_run_order: cc_run_order,
        }
    }

    /// SD's `J`: fetches of a full scan with a single buffer page.
    pub fn fetches_buffer_1(&self) -> u64 {
        self.fetch_curve.fetches(1)
    }

    /// OT's `J`: fetches of a full scan with three buffer pages.
    pub fn fetches_buffer_3(&self) -> u64 {
        self.fetch_curve.fetches(3)
    }

    /// The counters [`baseline_estimators`] reads.
    pub fn baseline_counters(&self) -> BaselineCounters {
        BaselineCounters {
            cluster_counter: self.cluster_counter,
            fetches_b1: self.fetches_buffer_1(),
            fetches_b3: self.fetches_buffer_3(),
        }
    }

    /// Average records per page `R = N / T`.
    pub fn records_per_page(&self) -> f64 {
        self.records as f64 / self.table_pages as f64
    }

    /// Average duplicates per key `D = N / I`.
    pub fn records_per_key(&self) -> f64 {
        self.records as f64 / self.distinct_keys as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> KeyedTrace {
        // keys: [0,0], [1], [0,2], [1]  (pages), T = 4
        KeyedTrace::from_run_lengths(vec![0, 0, 1, 0, 2, 1], &[2, 1, 2, 1], 4)
    }

    #[test]
    fn cardinalities() {
        let s = TraceSummary::from_trace(&trace());
        assert_eq!(s.table_pages, 4);
        assert_eq!(s.records, 6);
        assert_eq!(s.distinct_keys, 4);
        assert_eq!(s.distinct_pages, 3);
    }

    #[test]
    fn cluster_counter_counts_forward_transitions() {
        // Transitions: key0 last page 0 -> key1 first page 1 (>=, +1),
        // key1 last 1 -> key2 first 0 (<, 0), key2 last 2 -> key3 first 1 (<, 0).
        let s = TraceSummary::from_trace(&trace());
        assert_eq!(s.cluster_counter, 1);
    }

    #[test]
    fn perfectly_clustered_trace_has_max_cc() {
        let t = KeyedTrace::from_run_lengths(vec![0, 0, 1, 1, 2, 2], &[2, 2, 2], 3);
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.cluster_counter, 2); // I - 1 comparisons, all forward
        assert_eq!(s.fetches_buffer_1(), 3);
    }

    #[test]
    fn j_values_come_from_the_curve() {
        let s = TraceSummary::from_trace(&trace());
        assert_eq!(
            s.fetches_buffer_1(),
            epfis_lrusim::simulate_lru(&[0, 0, 1, 0, 2, 1], 1)
        );
        assert_eq!(
            s.fetches_buffer_3(),
            epfis_lrusim::simulate_lru(&[0, 0, 1, 0, 2, 1], 3)
        );
    }

    #[test]
    fn averages() {
        let s = TraceSummary::from_trace(&trace());
        assert!((s.records_per_page() - 1.5).abs() < 1e-12);
        assert!((s.records_per_key() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cc_semantics_diverge_on_noisy_runs() {
        // Key 0 occupies pages [0, 9] but its *last entry in RID order* is
        // page 0; key 1 sits on page 1. Min/max: min(1)=1 >= max(0)=9 is
        // false (no increment). Run-order: first(1)=1 >= last(0)=0 is true.
        let t = KeyedTrace::from_run_lengths(vec![9, 0, 1, 1], &[2, 2], 10);
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.cluster_counter, 0);
        assert_eq!(s.cluster_counter_run_order, 1);
    }

    #[test]
    fn baseline_estimators_equal_the_from_summary_constructors() {
        let s = TraceSummary::from_trace(&trace());
        let c = s.baseline_counters();
        assert_eq!((c.cluster_counter, c.fetches_b1, c.fetches_b3), (1, 5, 3));
        let from_summary: Vec<Box<dyn PageFetchEstimator>> = vec![
            Box::new(MlEstimator::from_summary(&s)),
            Box::new(DcEstimator::from_summary(&s)),
            Box::new(SdEstimator::from_summary(&s)),
            Box::new(OtEstimator::from_summary(&s)),
        ];
        let built = baseline_estimators(s.table_pages, s.records, s.distinct_keys, c);
        assert_eq!(built.len(), from_summary.len());
        for (a, b) in built.iter().zip(&from_summary) {
            assert_eq!(a.name(), b.name());
            for buffer in [1u64, 2, 3, 4] {
                let q = crate::ScanParams::range(0.5, buffer).with_distinct_keys(2);
                assert_eq!(a.estimate(&q).to_bits(), b.estimate(&q).to_bits());
            }
        }
    }

    #[test]
    fn single_key_trace_has_zero_cc() {
        let t = KeyedTrace::from_run_lengths(vec![2, 1, 0], &[3], 3);
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.cluster_counter, 0);
        assert_eq!(s.distinct_keys, 1);
    }
}
