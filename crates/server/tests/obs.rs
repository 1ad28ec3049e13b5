//! Observability end-to-end: the `/metrics` exposition must agree exactly
//! with the per-command counters the server maintains, `/healthz` must
//! answer, and `EXPLAIN ESTIMATE` must serve the estimate byte-for-byte
//! identical to `ESTIMATE` while naming the decision path.

use epfis::{EpfisConfig, IndexStatistics, LruFit, ScanQuery};
use epfis_lrusim::KeyedTrace;
use epfis_obs::{series_value, Level, Logger};
use epfis_server::{serve, Client, FsyncPolicy, ServerConfig, WalConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_trace() -> KeyedTrace {
    let pages: Vec<u32> = (0..3000u32)
        .map(|i| i.wrapping_mul(2654435761) % 150)
        .collect();
    let lens = vec![3u32; 1000];
    KeyedTrace::from_run_lengths(pages, &lens, 150)
}

fn expected_stats(trace: &KeyedTrace) -> IndexStatistics {
    LruFit::new(EpfisConfig::default()).collect(trace)
}

/// Streams `trace` into entry `name`, batching 64 pairs per PAGE line.
/// Returns the number of PAGE requests sent.
fn ingest(client: &mut Client, name: &str, trace: &KeyedTrace) -> u64 {
    client
        .request(&format!(
            "ANALYZE BEGIN {name} table_pages={}",
            trace.table_pages()
        ))
        .unwrap();
    let mut batch = String::new();
    let mut in_batch = 0;
    let mut page_requests = 0;
    for k in 0..trace.num_keys() as usize {
        for &p in trace.run_pages(k) {
            batch.push_str(&format!(" {k} {p}"));
            in_batch += 1;
            if in_batch == 64 {
                client.request(&format!("PAGE{batch}")).unwrap();
                page_requests += 1;
                batch.clear();
                in_batch = 0;
            }
        }
    }
    if in_batch > 0 {
        client.request(&format!("PAGE{batch}")).unwrap();
        page_requests += 1;
    }
    client.request("ANALYZE COMMIT").unwrap();
    page_requests
}

/// Minimal HTTP GET against the observability endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: epfis\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_exposition_matches_served_traffic_exactly() {
    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        logger: Some(Arc::new(Logger::new(Some(Level::Debug)))),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");

    let trace = test_trace();
    let mut c = Client::connect(server.addr()).unwrap();
    let page_requests = ingest(&mut c, "orders.ck", &trace);
    for _ in 0..3 {
        c.request("PING").unwrap();
    }
    c.request("ESTIMATE orders.ck 0.25 40").unwrap();
    c.request("ESTIMATE orders.ck 0.5 80 0.5").unwrap();
    assert!(c.request("FROB").is_err());

    // /healthz liveness.
    let (status, body) = http_get(metrics_addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // /metrics accounts for exactly the traffic above.
    let (status, text) = http_get(metrics_addr, "/metrics");
    assert_eq!(status, 200);
    for (series, expect) in [
        ("epfis_server_requests_total{command=\"PING\"}", 3.0),
        ("epfis_server_requests_total{command=\"ESTIMATE\"}", 2.0),
        (
            "epfis_server_requests_total{command=\"ANALYZE_BEGIN\"}",
            1.0,
        ),
        (
            "epfis_server_requests_total{command=\"ANALYZE_COMMIT\"}",
            1.0,
        ),
        (
            "epfis_server_requests_total{command=\"PAGE\"}",
            page_requests as f64,
        ),
        ("epfis_server_requests_total{command=\"INVALID\"}", 1.0),
        (
            "epfis_server_request_errors_total{command=\"INVALID\"}",
            1.0,
        ),
        (
            "epfis_server_request_errors_total{command=\"ESTIMATE\"}",
            0.0,
        ),
        (
            "epfis_server_request_duration_us_count{command=\"PING\"}",
            3.0,
        ),
        ("epfis_server_connections_total", 1.0),
        ("epfis_server_connections_active", 1.0),
        ("epfis_server_connections_shed_total", 0.0),
        ("epfis_server_limit_rejections_total", 0.0),
        ("epfis_server_sessions_disconnected_total", 0.0),
        ("epfis_server_catalog_epoch", 1.0),
        ("epfis_server_catalog_entries", 1.0),
    ] {
        assert_eq!(series_value(&text, series), Some(expect), "{series}");
    }
    assert!(series_value(&text, "epfis_server_bytes_in_total").is_some_and(|v| v > 0.0));
    assert!(series_value(&text, "epfis_server_bytes_out_total").is_some_and(|v| v > 0.0));
    assert!(series_value(&text, "epfis_server_uptime_seconds").is_some_and(|v| v >= 0.0));

    // Histogram series render cumulatively and agree with _count.
    let inf = series_value(
        &text,
        "epfis_server_request_duration_us_bucket{command=\"PING\",le=\"+Inf\"}",
    );
    assert_eq!(inf, Some(3.0));

    // The process-global families (analyzer, WAL) ride along in
    // the same body. Their values are process-wide — other tests in this
    // binary may feed them too — so assert floors, not exact counts.
    assert!(series_value(&text, "epfis_analyzer_refs_total").is_some_and(|v| v >= 3000.0));
    assert!(series_value(&text, "epfis_analyzer_sessions_total").is_some_and(|v| v >= 1.0));
    assert!(text.contains("epfis_analyzer_active_sessions"), "{text}");

    // The exposition and STATS render the same registry: the ESTIMATE
    // counter line is identical on both surfaces (the STATS request itself
    // only bumps the STATS label).
    let stats = c.request("STATS").unwrap();
    let (_, text) = http_get(metrics_addr, "/metrics");
    let line = "epfis_server_requests_total{command=\"ESTIMATE\"} 2";
    assert!(stats.iter().any(|l| l == line), "{stats:?}");
    assert!(text.lines().any(|l| l == line), "{text}");

    // /events serves the logger's ring buffer as JSON lines.
    let (status, events) = http_get(metrics_addr, "/events?n=128");
    assert_eq!(status, 200);
    assert!(events.contains("\"event\":\"analyze_begin\""), "{events}");
    assert!(events.contains("\"event\":\"analyze_commit\""), "{events}");
    assert!(
        events.contains("\"event\":\"connection_opened\""),
        "{events}"
    );

    server.shutdown_and_join();
}

/// The WAL's serving-side state (`epfis_wal_poisoned`,
/// `epfis_wal_parked_sessions`) renders on both surfaces when the server
/// runs with a WAL, and on neither without one.
#[test]
fn wal_gauges_render_on_both_surfaces_only_with_a_wal() {
    let wal_dir = std::env::temp_dir().join(format!("epfis-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut wal = WalConfig::new(&wal_dir);
    wal.fsync = FsyncPolicy::Never;
    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        wal: Some(wal),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let mut control = Client::connect(server.addr()).unwrap();
    {
        let mut c = Client::connect(server.addr()).unwrap();
        c.request("ANALYZE BEGIN parked.ix table_pages=8").unwrap();
        c.request("PAGE 1 0 1 3 2 5").unwrap();
    }
    // The disconnect parks the session once the server notices the EOF.
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = control.request("STATS").unwrap().join("\n");
        if series_value(&stats, "epfis_wal_parked_sessions") == Some(1.0) {
            break stats;
        }
        assert!(Instant::now() < deadline, "session never parked:\n{stats}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let (_, text) = http_get(metrics_addr, "/metrics");
    for line in ["epfis_wal_parked_sessions 1", "epfis_wal_poisoned 0"] {
        assert!(stats.lines().any(|l| l == line), "{line}\n{stats}");
        assert!(text.lines().any(|l| l == line), "{line}\n{text}");
    }
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let stats = Client::connect(server.addr())
        .unwrap()
        .request("STATS")
        .unwrap()
        .join("\n");
    let (_, text) = http_get(server.metrics_addr().unwrap(), "/metrics");
    for family in ["epfis_wal_parked_sessions", "epfis_wal_poisoned"] {
        assert!(!stats.contains(family), "{family}\n{stats}");
        assert!(!text.contains(family), "{family}\n{text}");
    }
    server.shutdown_and_join();
}

#[test]
fn explain_estimate_is_byte_identical_to_estimate() {
    let server = serve(ServerConfig::default()).unwrap();
    let trace = test_trace();
    let stats = expected_stats(&trace);
    let mut c = Client::connect(server.addr()).unwrap();
    ingest(&mut c, "orders.ck", &trace);

    // The cross-validation grid: selectivity × buffer × sargable shapes
    // covering short-circuit, interpolation, extrapolation, the small-σ
    // correction, and the urn-model reduction.
    let queries: Vec<(f64, u64, f64)> = vec![
        (0.0, 10, 1.0),
        (0.001, 1, 1.0),
        (0.01, 10, 1.0),
        (0.05, 12, 0.25),
        (0.1, 25, 0.5),
        (0.25, 50, 1.0),
        (0.5, 75, 0.125),
        (0.75, 100, 1.0),
        (1.0, 150, 1.0),
        (1.0, 400, 0.9),
        (0.333, 60, 0.333),
    ];
    for &(sigma, b, s) in &queries {
        let estimate = c
            .request(&format!("ESTIMATE orders.ck {sigma} {b} {s}"))
            .unwrap();
        let explain = c
            .request(&format!("EXPLAIN ESTIMATE orders.ck {sigma} {b} {s}"))
            .unwrap();

        // Line 0: byte-for-byte the ESTIMATE response.
        assert_eq!(explain[0], estimate[0], "sigma={sigma} b={b} s={s}");
        // Line 1: the entry identity.
        assert_eq!(explain[1], "entry orders.ck epoch=1");
        // The remainder is exactly the in-process trace rendering.
        let q = ScanQuery::range(sigma, b).with_sargable(s);
        let mut expected = stats.estimate_traced(&q).wire_lines();
        expected.insert(1, "entry orders.ck epoch=1".to_string());
        assert_eq!(explain, expected, "sigma={sigma} b={b} s={s}");
        // And the decision path is named.
        if sigma == 0.0 {
            assert!(explain.iter().any(|l| l == "fpf skipped=sigma-zero"));
        } else {
            assert!(
                explain
                    .iter()
                    .any(|l| l.starts_with("fpf segment=") && l.contains("kind=")),
                "{explain:?}"
            );
        }
        assert!(explain.iter().any(|l| l.starts_with("correction enabled=")));
        assert!(explain.iter().any(|l| l.starts_with("sargable enabled=")));
    }

    // Validation mirrors ESTIMATE's.
    assert!(c.request("EXPLAIN ESTIMATE orders.ck 2.0 10").is_err());
    assert!(c.request("EXPLAIN ESTIMATE orders.ck 0.5 0").is_err());
    assert!(c.request("EXPLAIN ESTIMATE missing.ix 0.5 10").is_err());
    assert!(c.request("EXPLAIN FPF orders.ck").is_err());

    server.shutdown_and_join();
}
