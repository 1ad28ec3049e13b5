//! Exact order statistics over a run's raw samples.
//!
//! Every percentile the benchmark reports comes from sorting the samples the
//! run actually took, never from a bucketed histogram: the server's own
//! log2 histograms report a power of two for every quantile, which cannot
//! rank two runs.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns their nearest-rank percentile.
pub fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile(samples, p)
}

/// Sorts `samples` in place and returns their median (nearest rank, so
/// always one of the samples).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// Median, p90, p99 and sample count of one latency series.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Latency {
    /// Summarizes `samples` (sorted in place). An empty series reports
    /// zeros with count 0.
    pub fn of(samples: &mut [f64]) -> Latency {
        if samples.is_empty() {
            return Latency::default();
        }
        samples.sort_unstable_by(f64::total_cmp);
        Latency {
            count: samples.len(),
            p50: percentile(samples, 50.0),
            p90: percentile(samples, 90.0),
            p99: percentile(samples, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, evaluated by brute force: the smallest sample `v`
    /// such that at least `p`% of the samples are `<= v`.
    fn brute_force_rank(samples: &[f64], p: f64) -> f64 {
        samples
            .iter()
            .copied()
            .filter(|&v| {
                let at_or_below = samples.iter().filter(|&&x| x <= v).count();
                100.0 * at_or_below as f64 >= p * samples.len() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn percentiles_match_brute_force_rank() {
        // Fixed, unsorted, with duplicates and a long tail.
        let fixed = [
            87.0, 12.5, 12.5, 3.0, 1024.0, 55.0, 55.0, 55.0, 9.75, 140.0, 2.0, 61.0, 61.5, 300.0,
            7.0, 12.5, 99.0, 45.0, 18.0, 2048.5, 33.0, 64.0, 72.0, 5.0, 150.25,
        ];
        for n in 1..=fixed.len() {
            let samples = &fixed[..n];
            let mut sorted = samples.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&sorted, p),
                    brute_force_rank(samples, p),
                    "p{p} of the first {n} samples"
                );
            }
        }
    }

    #[test]
    fn latency_summary_counts_and_sorts() {
        let mut samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&mut samples);
        assert_eq!(l.count, 200);
        assert_eq!(l.p50, 100.0);
        assert_eq!(l.p90, 180.0);
        assert_eq!(l.p99, 198.0);
        assert_eq!(Latency::of(&mut []).count, 0);
    }
}
