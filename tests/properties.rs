//! Cross-crate property tests: invariants that must hold for *any* dataset
//! the generator can produce, and catalog-file round trips of any entry.

use epfis::{EpfisConfig, GridStrategy, LruFit, PhiMode, ScanQuery};
use epfis_datagen::{Dataset, DatasetSpec, ScanKind, WorkloadGenerator};
use epfis_estimators::TraceSummary;
use epfis_lrusim::analyze_trace;
use epfis_server::VersionedCatalog;
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        200u64..3000, // records
        2u64..60,     // distinct (capped below records)
        2u32..40,     // records per page
        0.0f64..1.5,  // theta
        0.0f64..=1.0, // K
        0.0f64..0.2,  // noise
        any::<u64>(), // seed
    )
        .prop_map(|(n, i, r, theta, k, noise, seed)| DatasetSpec {
            name: "prop".into(),
            records: n,
            distinct: i.min(n),
            records_per_page: r,
            theta,
            window_fraction: k,
            noise,
            shuffle_frequencies: true,
            sorted_rids: false,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_dataset_is_structurally_sound(spec in spec_strategy()) {
        let d = Dataset::generate(spec.clone());
        prop_assert_eq!(d.records(), spec.records);
        prop_assert_eq!(d.distinct_keys(), spec.distinct);
        let t = d.table_pages() as u64;
        prop_assert_eq!(t, spec.records.div_ceil(spec.records_per_page as u64));
        // No page holds more than R records.
        let mut fills = vec![0u32; t as usize];
        for &p in d.trace().pages() {
            fills[p as usize] += 1;
            prop_assert!(fills[p as usize] <= spec.records_per_page);
        }
    }

    #[test]
    fn fetch_bounds_hold_for_any_dataset(spec in spec_strategy()) {
        let d = Dataset::generate(spec);
        let curve = analyze_trace(d.trace().pages()).fetch_curve();
        let a = d.trace().distinct_pages();
        let n = d.records();
        for b in [1u64, 3, 12, 100, 100_000] {
            let f = curve.fetches(b);
            prop_assert!(f >= a, "F >= A");
            prop_assert!(f <= n, "F <= N");
        }
    }

    #[test]
    fn est_io_stays_within_global_bounds(spec in spec_strategy(), sigma in 0.0f64..=1.0, bsel in 0u8..4) {
        let d = Dataset::generate(spec);
        let stats = LruFit::new(EpfisConfig::default()).collect(d.trace());
        let t = d.table_pages() as u64;
        let b = [1u64, 12, t.max(1) / 2, t.max(1)][bsel as usize].max(1);
        let est = stats.estimate(&ScanQuery::range(sigma, b));
        prop_assert!(est >= 0.0);
        prop_assert!(est.is_finite());
        // sigma * PF_B <= N and the correction adds at most T more.
        prop_assert!(est <= d.records() as f64 + t as f64 + 1e-6);
    }

    #[test]
    fn workload_scans_are_valid_ranges(spec in spec_strategy(), seed in any::<u64>()) {
        let d = Dataset::generate(spec);
        let mut w = WorkloadGenerator::new(d.trace(), seed);
        for kind in [ScanKind::Small, ScanKind::Large] {
            let s = w.draw(kind);
            prop_assert!(s.key_lo <= s.key_hi);
            prop_assert!((s.key_hi as u64) < d.distinct_keys());
            prop_assert!(s.records >= 1);
            prop_assert!((s.selectivity - s.records as f64 / d.records() as f64).abs() < 1e-12);
            // The scan's truth curve totals its records.
            let truth = epfis_harness::scan_truth(&d, &s);
            prop_assert_eq!(truth.total(), s.records);
        }
    }

    #[test]
    fn clustering_factor_tracks_window_fraction(seed in any::<u64>()) {
        // For a fixed shape, C(K=0, no noise) >= C(K=1).
        let base = |k: f64, noise: f64| DatasetSpec {
            name: "c-mono".into(),
            records: 4000,
            distinct: 100,
            records_per_page: 20,
            theta: 0.0,
            window_fraction: k,
            noise,
            shuffle_frequencies: true,
            sorted_rids: false,
            seed,
        };
        let measure = |spec: DatasetSpec| {
            let d = Dataset::generate(spec);
            let curve = analyze_trace(d.trace().pages()).fetch_curve();
            let b_min = epfis_lrusim::epfis_b_min(d.table_pages(), 12);
            epfis_lrusim::clustering_factor(&curve, d.table_pages(), b_min)
        };
        let clustered = measure(base(0.0, 0.0));
        let scattered = measure(base(1.0, 0.05));
        prop_assert!(clustered >= scattered);
        prop_assert!(clustered > 0.99);
    }
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

// The catalog file format (`epfis_server::VersionedCatalog`) must carry any
// entry LRU-Fit can produce, and any f64 a curve can hold, exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn catalog_round_trip_is_exact_for_arbitrary_entries(
        spec in spec_strategy(),
        cfg in config_strategy(),
        name_suffix in 0u32..1000,
        counters in any::<bool>(),
    ) {
        let d = Dataset::generate(spec);
        let stats = LruFit::new(cfg).collect(d.trace());
        let counters = counters.then(|| TraceSummary::from_trace(d.trace()).baseline_counters());
        let mut catalog = VersionedCatalog::new();
        catalog.insert(format!("ix_{name_suffix}"), stats, u64::from(name_suffix), counters).unwrap();
        let back = VersionedCatalog::from_text_checksummed(&catalog.to_text_checksummed()).unwrap();
        prop_assert_eq!(back, catalog);
    }

    #[test]
    fn catalog_round_trips_extreme_fpf_values(
        knot_count in 2usize..8,
        seed in any::<u64>(),
        extreme_x in any::<bool>(),
    ) {
        // Hand-built statistics whose curve values span the nastiest f64s
        // the text format must carry: subnormals, the largest finite value,
        // and long mantissas. Only x-monotonicity is required by
        // PiecewiseLinear, so y draws freely from the palette.
        const PALETTE: &[f64] = &[
            5e-324,                   // smallest subnormal
            2.2250738585072014e-308,  // smallest normal
            1e-300,
            0.0,
            1.0,
            0.123_456_789_012_345_68,
            1e308,
            f64::MAX,
            9.87654321e77,
        ];
        let ys: Vec<f64> = (0..knot_count)
            .map(|i| PALETTE[(seed.wrapping_add(i as u64 * 7919) % PALETTE.len() as u64) as usize])
            .collect();
        let xs: Vec<f64> = if extreme_x {
            // Strictly increasing through the extremes of the positive axis.
            let full = [5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e100, 1e308];
            full[..knot_count.min(full.len())].to_vec()
        } else {
            (0..knot_count).map(|i| i as f64 + 1.0).collect()
        };
        let knots: Vec<(f64, f64)> = xs.iter().zip(&ys).map(|(&x, &y)| (x, y)).collect();
        let stats = epfis::IndexStatistics {
            table_pages: u64::MAX,
            records: u64::MAX - 1,
            distinct_keys: 1,
            distinct_pages: u64::MAX / 2,
            clustering_factor: 5e-324,
            b_min: 1,
            b_max: u64::MAX,
            fpf: epfis_segfit::PiecewiseLinear::new(knots),
            config: EpfisConfig::default(),
        };
        let mut catalog = VersionedCatalog::new();
        catalog.insert("extreme", stats, u64::MAX, None).unwrap();
        let back = VersionedCatalog::from_text(&catalog.to_text()).unwrap();
        prop_assert_eq!(back, catalog);
    }
}

/// A small deterministic generator for the seeded model check.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Asserts the durable catalog serves exactly what the plain model holds:
/// entries and epochs equal, estimates bit-identical.
fn assert_serves(served: &VersionedCatalog, model: &VersionedCatalog, context: &str) {
    assert_eq!(served, model, "{context}");
    let queries = [
        ScanQuery::range(0.05, 3),
        ScanQuery::range(0.5, 40).with_sargable(0.3),
    ];
    for ((name, a), (_, b)) in served.iter().zip(model.iter()) {
        for q in &queries {
            assert_eq!(
                a.stats.estimate(q).to_bits(),
                b.stats.estimate(q).to_bits(),
                "{context}: {name} estimate differs"
            );
        }
    }
}

/// One seeded history against the durable catalog: commits to a few
/// names, compactions, reopens, and catalog-log tails cut at a random
/// byte. After every reopen the catalog must equal a `VersionedCatalog`
/// built by plain inserts of the commits that survived.
fn model_check(seed: u64, dir: &std::path::Path) {
    use epfis_server::SharedCatalog;

    let path = dir.join(format!("model-{seed}.scat"));
    let log_path = SharedCatalog::log_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);
    let mut rng = SplitMix(seed);
    let pool: Vec<epfis::IndexStatistics> = (0..4u32)
        .map(|v| {
            let pages: Vec<u32> = (0..400u32)
                .map(|i| i.wrapping_mul(2_654_435_761).wrapping_add(v * 977) % (30 + v * 7))
                .collect();
            let trace = epfis_lrusim::KeyedTrace::all_distinct(pages, 30 + v * 7);
            LruFit::new(EpfisConfig::default().with_segments(2 + v as usize)).collect(&trace)
        })
        .collect();
    let names = ["a.k", "b.k", "c.k"];
    let counters = |n: u64| epfis_estimators::BaselineCounters {
        cluster_counter: n,
        fetches_b1: 2 * n,
        fetches_b3: n + 1,
    };

    // The model at every epoch this history reached, for cut tails.
    let mut history = vec![VersionedCatalog::new()];
    let mut shared = SharedCatalog::open(&path).unwrap();
    for step in 0..40u64 {
        let context = format!("seed {seed} step {step} (EPFIS_MODEL_SEED={seed} reproduces)");
        match rng.below(10) {
            0..=5 => {
                let name = names[rng.below(names.len() as u64) as usize];
                let stats = pool[rng.below(pool.len() as u64) as usize].clone();
                let c = (rng.below(2) == 0).then(|| counters(step));
                let epoch = shared
                    .commit_analyzed(name, stats.clone(), c, step, None)
                    .unwrap_or_else(|e| panic!("{context}: commit failed: {e}"));
                let mut model = history.last().unwrap().clone();
                assert_eq!(
                    model.insert(name, stats, step, c).unwrap(),
                    epoch,
                    "{context}"
                );
                history.push(model);
            }
            6 | 7 => {
                shared
                    .compact_if_due()
                    .unwrap_or_else(|e| panic!("{context}: compaction failed: {e}"));
            }
            8 => {
                drop(shared);
                shared = SharedCatalog::open(&path)
                    .unwrap_or_else(|e| panic!("{context}: reopen failed: {e}"));
            }
            _ => {
                // A crash mid-append: the log's tail cut at a random byte.
                drop(shared);
                let snapshot_epoch = std::fs::read_to_string(&path)
                    .map(|t| VersionedCatalog::from_text_checksummed(&t).unwrap().epoch())
                    .unwrap_or(0);
                if let Ok(log) = std::fs::read(&log_path) {
                    let cut = rng.below(log.len() as u64 + 1) as usize;
                    std::fs::write(&log_path, &log[..cut]).unwrap();
                }
                shared = SharedCatalog::open(&path)
                    .unwrap_or_else(|e| panic!("{context}: reopen after a cut failed: {e}"));
                let epoch = shared.snapshot().epoch();
                assert!(
                    epoch >= snapshot_epoch && (epoch as usize) < history.len(),
                    "{context}: epoch {epoch} outside the snapshot's {snapshot_epoch} and the history"
                );
                // Commits past the cut never happened.
                history.truncate(epoch as usize + 1);
            }
        }
        assert_serves(&shared.snapshot(), history.last().unwrap(), &context);
        if rng.below(4) == 0 {
            let reopened = SharedCatalog::open(&path)
                .unwrap_or_else(|e| panic!("{context}: side reopen failed: {e}"));
            assert_serves(&reopened.snapshot(), history.last().unwrap(), &context);
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);
}

/// The seeded model check of the durable catalog (snapshot plus catalog
/// log). `EPFIS_MODEL_SEED=N` reruns one seed; every failure names its
/// seed.
#[test]
fn durable_catalog_matches_a_plain_catalog_under_seeded_histories() {
    let dir = std::env::temp_dir().join(format!("epfis-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seeds: Vec<u64> = match std::env::var("EPFIS_MODEL_SEED") {
        Ok(seed) => vec![seed.parse().expect("EPFIS_MODEL_SEED must be a u64")],
        Err(_) => (0..24).collect(),
    };
    for seed in seeds {
        model_check(seed, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
