//! The catalog log's own telemetry: a durable commit without a WAL shows
//! up as `epfis_server_catalog_log_bytes` / `_compactions_total` on both
//! surfaces and never as `epfis_wal_*` traffic. One test in its own binary,
//! so the process-global WAL counters see no other test's appends.

use epfis_obs::series_value;
use epfis_server::{serve, Client, ServerConfig, SharedCatalog, VersionedCatalog};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn metrics(addr: std::net::SocketAddr) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").unwrap().1.to_string()
}

/// Commits a small clustered scan as `name`.
fn commit(c: &mut Client, name: &str) {
    c.request(&format!("ANALYZE BEGIN {name} table_pages=40"))
        .unwrap();
    let mut line = String::from("PAGE");
    for i in 0..120u32 {
        line.push_str(&format!(" {} {}", i / 3, i.wrapping_mul(2654435761) % 40));
    }
    c.request(&line).unwrap();
    c.request("ANALYZE COMMIT").unwrap();
}

#[test]
fn catalog_log_reports_as_catalog_series_not_wal_traffic() {
    let dir = std::env::temp_dir().join(format!("epfis-catalog-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.scat");
    let log_path = SharedCatalog::log_path(&path);

    // A snapshot the first commit's record stays well below.
    let seed_stats = {
        let pages: Vec<u32> = (0..600u32).map(|i| i % 60).collect();
        let trace = epfis_lrusim::KeyedTrace::all_distinct(pages, 60);
        epfis::LruFit::new(epfis::EpfisConfig::default()).collect(&trace)
    };
    let mut seeded = VersionedCatalog::new();
    for i in 0..8 {
        seeded
            .insert(format!("seed{i}.k"), seed_stats.clone(), 1, None)
            .unwrap();
    }
    std::fs::write(&path, seeded.to_text_checksummed()).unwrap();

    let server = serve(ServerConfig {
        catalog_path: Some(path.clone()),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let before = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&before, "epfis_server_catalog_log_bytes"),
        Some(0.0)
    );
    assert!(!log_path.exists(), "opening the catalog created its log");

    commit(&mut c, "one.k");
    let after = c.request("STATS").unwrap().join("\n");
    let on_disk = std::fs::metadata(&log_path).unwrap().len() as f64;
    for text in [after.clone(), metrics(metrics_addr)] {
        assert_eq!(
            series_value(&text, "epfis_server_catalog_log_bytes"),
            Some(on_disk),
            "{text}"
        );
        assert_eq!(
            series_value(&text, "epfis_server_catalog_compactions_total"),
            Some(0.0)
        );
    }
    for series in [
        "epfis_wal_appends_total",
        "epfis_wal_bytes_total",
        "epfis_wal_fsyncs_total",
    ] {
        assert_eq!(
            series_value(&after, series),
            series_value(&before, series),
            "{series}: the catalog log counted as WAL traffic"
        );
    }

    // Commits until the log passes the snapshot; the compaction after the
    // reply resets it to its 12-byte header and the new snapshot's id.
    let size = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
    let mut n = 0;
    while size(&log_path) <= size(&path) {
        n += 1;
        commit(&mut c, &format!("more{n}.k"));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.request("STATS").unwrap().join("\n");
        if series_value(&stats, "epfis_server_catalog_compactions_total") == Some(1.0) {
            let log = std::fs::read(&log_path).unwrap();
            assert_eq!(
                series_value(&stats, "epfis_server_catalog_log_bytes"),
                Some(log.len() as f64)
            );
            assert_eq!(epfis_wal::Replay::from_bytes(log).len(), 1);
            assert_eq!(
                series_value(&stats, "epfis_wal_appends_total"),
                series_value(&before, "epfis_wal_appends_total")
            );
            break;
        }
        assert!(Instant::now() < deadline, "no compaction: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(c);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
