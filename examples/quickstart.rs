//! Quickstart: the full EPFIS lifecycle on a real storage engine.
//!
//! 1. Generate a moderately-unclustered table and load it into the heap
//!    file + B+-tree substrate.
//! 2. Statistics collection (LRU-Fit): scan the real index, model the LRU
//!    buffer at every size in one pass, store the result in a catalog.
//! 3. Query compilation (Est-IO): estimate page fetches for range scans at
//!    several buffer sizes.
//! 4. Execute the same scans against a real LRU buffer pool and compare the
//!    estimate with the measured fetch count.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use epfis::{EpfisConfig, LruFit, ScanQuery};
use epfis_datagen::{Dataset, DatasetSpec, ScanKind, WorkloadGenerator};
use epfis_repro::pipeline::LoadedTable;
use epfis_server::VersionedCatalog;

fn main() {
    // A 50k-record table, 20 records/page (T = 2500), mildly clustered.
    let spec = DatasetSpec::synthetic(50_000, 500, 20, 0.0, 0.10);
    let dataset = Dataset::generate(spec);
    println!(
        "dataset: N={} records, T={} pages, I={} distinct keys",
        dataset.records(),
        dataset.table_pages(),
        dataset.distinct_keys()
    );

    println!("loading heap file and B+-tree...");
    let mut table = LoadedTable::load(&dataset);

    // --- Statistics collection time (Subprogram LRU-Fit) ---
    let trace = table.statistics_trace();
    let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
    println!(
        "LRU-Fit: C={:.3}, modeled B in [{}, {}], {} segments ({} catalog points)",
        stats.clustering_factor,
        stats.b_min,
        stats.b_max,
        stats.fpf.segments(),
        stats.stored_points()
    );
    let mut catalog = VersionedCatalog::new();
    catalog.insert("t.k", stats, 0, None).unwrap();
    println!("catalog file:\n{}", catalog.to_text_checksummed());

    // --- Query compilation + execution ---
    let stats = &catalog.get("t.k").unwrap().stats;
    let mut workload = WorkloadGenerator::new(dataset.trace(), 42);
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>8}",
        "sigma", "buffer", "estimated", "actual", "err%"
    );
    for (kind, buffer) in [
        (ScanKind::Small, 50usize),
        (ScanKind::Small, 500),
        (ScanKind::Large, 50),
        (ScanKind::Large, 500),
        (ScanKind::Large, 2000),
    ] {
        let scan = workload.draw(kind);
        let estimate = stats.estimate(&ScanQuery::range(scan.selectivity, buffer as u64));
        let range = LoadedTable::range_for_keys(&dataset, scan.key_lo, scan.key_hi);
        let outcome = table.execute_index_scan(range, buffer, |_| true);
        assert_eq!(outcome.rows, scan.records, "scan must return every record");
        let err = 100.0 * (estimate - outcome.data_page_fetches as f64)
            / outcome.data_page_fetches as f64;
        println!(
            "{:>6.3} {:>8} {:>10.0} {:>10} {:>8.1}",
            scan.selectivity, buffer, estimate, outcome.data_page_fetches, err
        );
    }
    println!(
        "\n(table scan baseline: always {} fetches)",
        dataset.table_pages()
    );
}
