//! Property tests for the EPFIS core: LRU-Fit and Est-IO invariants over
//! arbitrary traces and configurations.

use epfis::{EpfisConfig, GridStrategy, LruFit, PhiMode, ScanQuery};
use epfis_lrusim::KeyedTrace;
use proptest::prelude::*;

/// An arbitrary keyed trace: T pages, keys with 1..=4 entries each,
/// pseudo-random placement driven by proptest.
fn trace_strategy() -> impl Strategy<Value = KeyedTrace> {
    (2u32..150, 1usize..400, any::<u64>()).prop_map(|(t, keys, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut pages = Vec::new();
        let mut lens = Vec::with_capacity(keys);
        for _ in 0..keys {
            let len = 1 + next() % 4;
            lens.push(len);
            for _ in 0..len {
                pages.push(next() % t);
            }
        }
        KeyedTrace::from_run_lengths(pages, &lens, t)
    })
}

fn config_strategy() -> impl Strategy<Value = EpfisConfig> {
    (
        1u64..40,
        1usize..12,
        prop_oneof![
            Just(GridStrategy::Arithmetic),
            (2usize..30).prop_map(|points| GridStrategy::Geometric { points }),
        ],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(b_sml, segments, grid, phi_min, corr, sarg)| EpfisConfig {
            b_sml,
            segments,
            grid,
            phi_mode: if phi_min {
                PhiMode::ProseMin
            } else {
                PhiMode::PaperMax
            },
            enable_correction: corr,
            enable_sargable_model: sarg,
            modeling_range: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lru_fit_never_panics_and_stats_are_sane(trace in trace_strategy(), cfg in config_strategy()) {
        let stats = LruFit::new(cfg).collect(&trace);
        prop_assert_eq!(stats.records, trace.num_entries());
        prop_assert!((0.0..=1.0).contains(&stats.clustering_factor));
        prop_assert!(stats.b_min >= 1 && stats.b_min <= stats.b_max);
        prop_assert!(stats.fpf.segments() <= cfg.segments);
        // The stored curve endpoints reproduce the exact simulation.
        let exact_min = epfis_lrusim::simulate_lru(trace.pages(), stats.b_min as usize) as f64;
        prop_assert!((stats.full_scan_fetches(stats.b_min) - exact_min).abs() < 1e-6);
    }

    #[test]
    fn estimates_are_finite_nonnegative_and_bounded(
        trace in trace_strategy(),
        cfg in config_strategy(),
        sigma in 0.0f64..=1.0,
        s in 0.0f64..=1.0,
        b in 1u64..500,
    ) {
        let stats = LruFit::new(cfg).collect(&trace);
        let est = stats.estimate(&ScanQuery::range(sigma, b).with_sargable(s));
        prop_assert!(est.is_finite());
        prop_assert!(est >= 0.0);
        // sigma*PF_B <= N; correction adds at most T.
        prop_assert!(est <= (trace.num_entries() + trace.table_pages() as u64) as f64 + 1e-6);
    }

    #[test]
    fn full_scan_estimates_are_monotone_in_buffer(trace in trace_strategy()) {
        let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
        let mut prev = f64::INFINITY;
        for b in (1..=trace.table_pages() as u64 + 4).step_by(3) {
            let est = stats.estimate(&ScanQuery::full(b));
            prop_assert!(est <= prev + 1e-9, "B={b}: {est} > {prev}");
            prev = est;
        }
    }

    #[test]
    fn sargable_model_only_ever_reduces(trace in trace_strategy(), sigma in 0.01f64..=1.0, s in 0.0f64..1.0) {
        let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
        let b = (trace.table_pages() as u64 / 2).max(1);
        let plain = stats.estimate(&ScanQuery::range(sigma, b));
        let filtered = stats.estimate(&ScanQuery::range(sigma, b).with_sargable(s));
        prop_assert!(filtered <= plain + 1e-9);
    }

    #[test]
    fn disabling_features_never_increases_the_estimate(
        trace in trace_strategy(),
        sigma in 0.0f64..=1.0,
        b in 1u64..300,
    ) {
        // The correction is additive and the sargable factor multiplicative
        // in [0,1]: turning the correction off can only lower estimates.
        let with = LruFit::new(EpfisConfig::default()).collect(&trace);
        let without = LruFit::new(EpfisConfig::default().without_correction()).collect(&trace);
        let q = ScanQuery::range(sigma, b);
        prop_assert!(without.estimate(&q) <= with.estimate(&q) + 1e-9);
    }
}
