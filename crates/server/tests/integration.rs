//! End-to-end tests against a real server on an ephemeral port.
//!
//! The acceptance bar: stream a synthetic statistics scan through
//! `ANALYZE BEGIN` / `PAGE` / `COMMIT`, then have several concurrent
//! connections issue `ESTIMATE`s and require every served line to equal the
//! in-process Est-IO result *byte-for-byte* (both sides print f64 with `{}`,
//! Rust's shortest round-tripping representation), while `STATS` accounts
//! for every request.

use epfis::{EpfisConfig, IndexStatistics, LruFit, ScanQuery};
use epfis_lrusim::KeyedTrace;
use epfis_obs::series_value;
use epfis_server::{serve, Client, ClientError, ServerConfig};

/// A deterministic synthetic statistics scan: T pages, fixed-length runs.
fn test_trace() -> KeyedTrace {
    let pages: Vec<u32> = (0..3000u32)
        .map(|i| i.wrapping_mul(2654435761) % 150)
        .collect();
    let lens = vec![3u32; 1000];
    KeyedTrace::from_run_lengths(pages, &lens, 150)
}

/// What the server must serve: the same trace through in-process LRU-Fit.
fn expected_stats(trace: &KeyedTrace) -> IndexStatistics {
    LruFit::new(EpfisConfig::default()).collect(trace)
}

/// Streams `trace` into entry `name` over `client`, batching PAGE pairs.
fn ingest(client: &mut Client, name: &str, trace: &KeyedTrace) {
    client
        .request(&format!(
            "ANALYZE BEGIN {name} table_pages={}",
            trace.table_pages()
        ))
        .unwrap();
    let mut batch = String::new();
    let mut in_batch = 0;
    for k in 0..trace.num_keys() as usize {
        for &p in trace.run_pages(k) {
            batch.push_str(&format!(" {k} {p}"));
            in_batch += 1;
            if in_batch == 64 {
                client.request(&format!("PAGE{batch}")).unwrap();
                batch.clear();
                in_batch = 0;
            }
        }
    }
    if in_batch > 0 {
        client.request(&format!("PAGE{batch}")).unwrap();
    }
    let lines = client.request("ANALYZE COMMIT").unwrap();
    assert!(
        lines[0].starts_with(&format!("committed {name} ")),
        "{lines:?}"
    );
}

#[test]
fn served_estimates_match_in_process_est_io_byte_for_byte() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let trace = test_trace();
    let stats = expected_stats(&trace);

    let mut c = Client::connect(addr).unwrap();
    ingest(&mut c, "orders.ck", &trace);

    // The exact query grid each connection will run.
    let queries: Vec<(f64, u64, f64)> = vec![
        (0.001, 1, 1.0),
        (0.01, 10, 1.0),
        (0.1, 25, 0.5),
        (0.25, 50, 1.0),
        (0.5, 75, 0.125),
        (0.75, 100, 1.0),
        (1.0, 150, 1.0),
        (1.0, 400, 0.9),
        (0.333, 60, 0.333),
    ];

    // >= 4 concurrent connections, all hammering ESTIMATE simultaneously.
    const CONNECTIONS: usize = 6;
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let queries = queries.clone();
            let stats = stats.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for &(sigma, b, s) in &queries {
                    let served = c
                        .request(&format!("ESTIMATE orders.ck {sigma} {b} {s}"))
                        .unwrap();
                    let expected = format!(
                        "{}",
                        stats.estimate(&ScanQuery::range(sigma, b).with_sargable(s))
                    );
                    assert_eq!(served, vec![expected.clone()], "sigma={sigma} b={b} s={s}");
                    // And the served text parses back to the exact bits.
                    assert_eq!(
                        served[0].parse::<f64>().unwrap().to_bits(),
                        expected.parse::<f64>().unwrap().to_bits()
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // STATS must account for every request this test sent.
    let stats = c.request("STATS").unwrap().join("\n");
    let count_of = |label: &str| {
        series_value(
            &stats,
            &format!("epfis_server_requests_total{{command=\"{label}\"}}"),
        )
    };
    assert_eq!(
        count_of("ESTIMATE"),
        Some((CONNECTIONS * queries.len()) as f64)
    );
    assert_eq!(count_of("ANALYZE_BEGIN"), Some(1.0));
    assert_eq!(count_of("ANALYZE_COMMIT"), Some(1.0));
    assert_eq!(count_of("PAGE"), Some((3000 / 64 + 1) as f64));
    assert_eq!(
        series_value(&stats, "epfis_server_catalog_epoch"),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(
        series_value(&stats, "epfis_server_catalog_entries"),
        Some(1.0),
        "{stats}"
    );

    server.shutdown_and_join();
}

#[test]
fn estimates_never_block_behind_a_concurrent_ingest() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let trace = test_trace();
    let stats = expected_stats(&trace);

    let mut seed = Client::connect(addr).unwrap();
    ingest(&mut seed, "ix", &trace);
    let q = "ESTIMATE ix 0.2 40";
    let expected = format!("{}", stats.estimate(&ScanQuery::range(0.2, 40)));

    // Open an ingest session and leave it mid-stream…
    let mut writer = Client::connect(addr).unwrap();
    writer.request("ANALYZE BEGIN ix table_pages=150").unwrap();
    writer.request("PAGE 0 3 0 7").unwrap();

    // …readers still see the committed epoch-1 entry, unchanged.
    let mut reader = Client::connect(addr).unwrap();
    for _ in 0..50 {
        assert_eq!(reader.request(q).unwrap(), vec![expected.clone()]);
    }

    // Re-analyzing the same name bumps the epoch; SHOW reflects it.
    for k in 0..trace.num_keys() as usize {
        let refs: String = trace
            .run_pages(k)
            .iter()
            .map(|p| format!(" {k} {p}"))
            .collect();
        writer.request(&format!("PAGE{refs}")).unwrap();
    }
    writer.request("ANALYZE COMMIT").unwrap();
    let show = reader.request("SHOW").unwrap();
    assert!(
        show.iter().any(|l| l.starts_with("ix epoch=2 ")),
        "{show:?}"
    );

    server.shutdown_and_join();
}

#[test]
fn durable_catalog_survives_restart() {
    let dir = std::env::temp_dir().join("epfis-server-restart-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.scat");
    std::fs::remove_file(&path).ok();

    let trace = test_trace();
    let stats = expected_stats(&trace);
    let expected = format!("{}", stats.estimate(&ScanQuery::range(0.4, 80)));

    let compared = {
        let server = serve(ServerConfig {
            catalog_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        ingest(&mut c, "persisted.ix", &trace);
        let compared = c.request("COMPARE persisted.ix").unwrap();
        server.shutdown_and_join();
        compared
    };

    // A fresh server over the same file serves identical estimates, keeps
    // the epoch, and answers COMPARE from the persisted counters.
    let server = serve(ServerConfig {
        catalog_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(
        c.request("ESTIMATE persisted.ix 0.4 80").unwrap(),
        vec![expected]
    );
    let show = c.request("SHOW").unwrap();
    assert!(
        show.iter().any(|l| l.starts_with("persisted.ix epoch=1 ")),
        "{show:?}"
    );
    assert_eq!(c.request("COMPARE persisted.ix").unwrap(), compared);
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn compare_serves_all_estimators_for_served_analyses() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    ingest(&mut c, "ix", &test_trace());
    let lines = c.request("COMPARE ix 5").unwrap();
    assert_eq!(lines.len(), 6, "{lines:?}");
    assert!(lines[0].starts_with("B EPFIS "), "{}", lines[0]);
    let columns = lines[0].split_whitespace().count();
    for row in &lines[1..] {
        assert_eq!(row.split_whitespace().count(), columns, "{row}");
        for tok in row.split_whitespace() {
            tok.parse::<f64>().unwrap();
        }
    }
    server.shutdown_and_join();
}

/// An entry whose `[b_min, b_max]` holds fewer sizes than `points` answers
/// each size once: on an 8-page table both ends are 8, so `FPF` answers one
/// row and `COMPARE` a header and one row.
#[test]
fn fpf_and_compare_answer_each_buffer_size_once() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let pages: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(2654435761) % 8).collect();
    let trace = KeyedTrace::from_run_lengths(pages, &[4u32; 16], 8);
    ingest(&mut c, "tiny", &trace);
    let stats = expected_stats(&trace);
    assert_eq!((stats.b_min, stats.b_max), (8, 8));

    let fpf = c.request("FPF tiny 4").unwrap();
    assert_eq!(fpf, vec![format!("8 {}", stats.full_scan_fetches(8))]);
    let compare = c.request("COMPARE tiny 4").unwrap();
    assert_eq!(compare.len(), 2, "{compare:?}");
    assert!(compare[0].starts_with("B EPFIS "), "{}", compare[0]);
    assert!(compare[1].starts_with("8 "), "{}", compare[1]);
    server.shutdown_and_join();
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    for bad in [
        "FROB",
        "ESTIMATE missing.entry 0.5 10",
        "ESTIMATE ix 2.0 10",
        "ANALYZE COMMIT",
        "PAGE 1 2",
        "ANALYZE BEGIN ix segments=0",
        "ANALYZE BEGIN ix table_pages=0",
    ] {
        match c.request(bad) {
            Err(ClientError::Server(_)) => {}
            other => panic!("{bad:?} should be a server error, got {other:?}"),
        }
    }
    // Still alive and serving.
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);

    // Errors are counted per command label.
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_requests_total{command=\"INVALID\"}"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn shutdown_command_stops_the_server() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request("SHUTDOWN").unwrap(), vec!["bye".to_string()]);
    server.join();
    // The listener is gone (give the OS a beat to tear it down).
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(
        Client::connect(addr).is_err() || {
            // A connect may still succeed briefly on some kernels (backlog), but
            // any request must fail since no worker will ever serve it.
            let mut c2 = Client::connect(addr).unwrap();
            c2.request("PING").is_err()
        }
    );
}
