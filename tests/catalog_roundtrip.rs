//! Catalog persistence across the whole GWL stand-in suite: statistics for
//! every column survive a text round-trip — and a trip through the catalog
//! file — with estimates intact, exactly as a system catalog must.

use epfis::{EpfisConfig, GridStrategy, LruFit, ScanQuery};
use epfis_datagen::{gwl, GWL_COLUMNS};
use epfis_server::{SharedCatalog, VersionedCatalog};

#[test]
fn all_gwl_columns_round_trip_through_the_catalog() {
    let mut catalog = VersionedCatalog::new();
    for col in GWL_COLUMNS.iter() {
        let scaled = col.scaled_down(10);
        let (dataset, _) = gwl::synthesize_gwl_column(&scaled, 3);
        let stats = LruFit::new(EpfisConfig::default()).collect(dataset.trace());
        catalog.insert(col.name, stats, 0, None).unwrap();
    }
    assert_eq!(catalog.len(), 8);

    let text = catalog.to_text_checksummed();
    let back = VersionedCatalog::from_text_checksummed(&text).expect("parse back");
    assert_eq!(back, catalog);

    // Estimates are bit-identical after the round trip.
    for (name, entry) in catalog.iter() {
        let stats = &entry.stats;
        let restored = &back.get(name).unwrap().stats;
        for sigma in [0.01, 0.2, 0.9] {
            for b in [stats.b_min, stats.b_max / 2, stats.b_max] {
                let q = ScanQuery::range(sigma, b.max(1)).with_sargable(0.5);
                assert_eq!(
                    stats.estimate(&q),
                    restored.estimate(&q),
                    "{name} sigma={sigma} b={b}"
                );
            }
        }
    }
}

#[test]
fn catalog_file_round_trip() {
    let col = gwl::gwl_column("INAP.UWID").unwrap().scaled_down(10);
    let (dataset, _) = gwl::synthesize_gwl_column(&col, 5);
    let cfg = EpfisConfig::default().with_grid(GridStrategy::Geometric { points: 12 });
    let stats = LruFit::new(cfg).collect(dataset.trace());

    let dir = std::env::temp_dir().join("epfis-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("it-catalog.txt");
    // The catalog is the file plus its catalog log; start with neither.
    let log = SharedCatalog::log_path(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&log).ok();
    SharedCatalog::open(&path)
        .unwrap()
        .commit("INAP.UWID", stats.clone(), None)
        .unwrap();
    let back = SharedCatalog::open(&path).unwrap().snapshot();
    let restored = &back.get("INAP.UWID").unwrap().stats;
    assert_eq!(restored, &stats);
    for sigma in [0.01, 0.2, 0.9] {
        for b in [stats.b_min, stats.b_max / 2, stats.b_max] {
            let q = ScanQuery::range(sigma, b.max(1)).with_sargable(0.5);
            assert_eq!(
                stats.estimate(&q),
                restored.estimate(&q),
                "sigma={sigma} b={b}"
            );
        }
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(log).ok();
}
