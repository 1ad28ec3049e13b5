//! The accuracy observatory end to end: `OBSERVE` pairs ground truth with
//! the estimate the server would serve right now, `DRIFT` reports the
//! accumulated error statistics, a persistently biased feed flips the
//! stale flag (and resets on re-`ANALYZE`), the binary protocol carries
//! the same observation byte-identically, the slow-request log captures
//! per-phase latency attribution on both wire surfaces, and `/healthz`
//! names uptime, version, and the degraded cause.

use epfis::{EpfisConfig, LruFit, ScanQuery};
use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};
use epfis_lrusim::KeyedTrace;
use epfis_obs::series_value;
use epfis_server::{
    parse_drift_line, serve, AccuracyConfig, BinaryClient, Client, ServerConfig, WalConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn test_trace() -> KeyedTrace {
    let pages: Vec<u32> = (0..3000u32)
        .map(|i| i.wrapping_mul(2654435761) % 150)
        .collect();
    let lens = vec![3u32; 1000];
    KeyedTrace::from_run_lengths(pages, &lens, 150)
}

/// Streams `trace` into entry `name`, batching 64 pairs per PAGE line.
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
    client.request("ANALYZE COMMIT").unwrap();
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

/// One `key=value` token of a wire line.
fn field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field {key} in {line:?}"))
        .to_string()
}

#[test]
fn observe_pairs_ground_truth_with_the_current_estimate() {
    let server = serve(ServerConfig::default()).unwrap();
    let trace = test_trace();
    let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
    let mut c = Client::connect(server.addr()).unwrap();
    ingest(&mut c, "orders.ck", &trace);

    // The server derives sigma from the key count and answers with the
    // exact estimate it would serve for that scan.
    let nkeys = 250u64; // sigma = 250/1000
    let buffer = 40u64;
    let expected = stats.estimate(&ScanQuery::range(0.25, buffer));
    let line = c
        .request(&format!("OBSERVE orders.ck {nkeys} 77 buffer={buffer}"))
        .unwrap()[0]
        .clone();
    assert!(line.starts_with("observed orders.ck "), "{line}");
    assert_eq!(field(&line, "epoch"), "1");
    assert_eq!(field(&line, "estimate"), format!("{expected}"));
    assert_eq!(field(&line, "actual"), "77");
    // Signed convention: actual above the estimate means the estimator
    // undershot, a positive relative error.
    let rel_err: f64 = field(&line, "rel_err").parse().unwrap();
    assert_eq!(rel_err > 0.0, 77.0 > expected, "{line}");
    assert_eq!(field(&line, "stale"), "0");

    // An unspecified buffer defaults to the entry's fitted b_min.
    let default_line = c.request("OBSERVE orders.ck 250 77").unwrap()[0].clone();
    let expected_default = stats.estimate(&ScanQuery::range(0.25, stats.b_min.max(1)));
    assert_eq!(
        field(&default_line, "estimate"),
        format!("{expected_default}")
    );

    // Validation: unknown entries, zero buffers, malformed arguments.
    assert!(c.request("OBSERVE missing.ix 10 5").is_err());
    assert!(c.request("OBSERVE orders.ck 10 5 buffer=0").is_err());
    assert!(c.request("OBSERVE orders.ck ten 5").is_err());
    assert!(c.request("OBSERVE orders.ck 10").is_err());

    // DRIFT for the entry round-trips through the documented grammar.
    let drift = c.request("DRIFT orders.ck").unwrap();
    assert_eq!(drift.len(), 1);
    let summary = parse_drift_line(&drift[0]).unwrap();
    assert_eq!(summary.name, "orders.ck");
    assert_eq!(summary.epoch, 1);
    assert_eq!(summary.observations, 2);
    assert!(!summary.stale);
    // DRIFT without a name lists every tracked entry.
    assert!(c.request("DRIFT missing.ix").is_err());
    let all = c.request("DRIFT").unwrap();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0], drift[0]);

    server.shutdown_and_join();
}

#[test]
fn biased_observations_flip_stale_and_reanalyze_resets() {
    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        accuracy: AccuracyConfig {
            min_observations: 8,
            ..AccuracyConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let trace = test_trace();
    let mut c = Client::connect(server.addr()).unwrap();
    ingest(&mut c, "orders.ck", &trace);

    // Feed actuals far above every estimate: the bias EWMA crosses the
    // default 0.25 threshold, but the flag must hold until the
    // min-observation gate opens.
    let mut flipped_at = None;
    for i in 1..=10u64 {
        let line = c.request("OBSERVE orders.ck 100 5000 buffer=40").unwrap()[0].clone();
        if field(&line, "stale") == "1" && flipped_at.is_none() {
            flipped_at = Some(i);
        }
    }
    assert_eq!(
        flipped_at,
        Some(8),
        "stale must flip exactly when the min-observation gate opens"
    );

    // Every surface agrees: DRIFT, STATS, and /metrics.
    let summary = parse_drift_line(&c.request("DRIFT orders.ck").unwrap()[0]).unwrap();
    assert!(summary.stale);
    assert_eq!(summary.observations, 10);
    let stats = c.request("STATS").unwrap().join("\n");
    let (_, text) = http_get(metrics_addr, "/metrics");
    for (series, expect) in [
        ("epfis_accuracy_observations_total", 10.0),
        ("epfis_accuracy_drift_detected_total", 1.0),
        ("epfis_accuracy_stale_entries", 1.0),
        ("epfis_accuracy_tracked_entries", 1.0),
        // The event-ring drop counter rides along as a counter family.
        ("epfis_obs_events_dropped_total", 0.0),
    ] {
        assert_eq!(
            series_value(&stats, series),
            Some(expect),
            "{series}\n{stats}"
        );
        assert_eq!(
            series_value(&text, series),
            Some(expect),
            "{series}\n{text}"
        );
    }
    assert!(
        series_value(&text, "epfis_accuracy_abs_rel_error_permille_count")
            .is_some_and(|v| v >= 10.0)
    );

    // Refreshing the statistics bumps the epoch; the tracker starts the
    // entry over instead of blending errors across epochs.
    ingest(&mut c, "orders.ck", &trace);
    let line = c.request("OBSERVE orders.ck 100 50 buffer=40").unwrap()[0].clone();
    assert_eq!(field(&line, "epoch"), "2");
    assert_eq!(field(&line, "stale"), "0");
    let summary = parse_drift_line(&c.request("DRIFT orders.ck").unwrap()[0]).unwrap();
    assert_eq!(summary.epoch, 2);
    assert_eq!(summary.observations, 1);
    assert!(!summary.stale);

    server.shutdown_and_join();
}

#[test]
fn binary_observe_answers_byte_identically_to_text() {
    let server = serve(ServerConfig::default()).unwrap();
    let trace = test_trace();
    let mut text = Client::connect(server.addr()).unwrap();
    ingest(&mut text, "orders.ck", &trace);

    let text_line = text.request("OBSERVE orders.ck 100 50 buffer=40").unwrap()[0].clone();
    let mut binary = BinaryClient::connect(server.addr()).unwrap();
    let bin_line = binary.observe("orders.ck", 100, 50, Some(40)).unwrap();
    assert_eq!(bin_line, text_line);
    // Default-buffer form too (buffer=0 on the wire means b_min).
    let text_default = text.request("OBSERVE orders.ck 100 50").unwrap()[0].clone();
    let bin_default = binary.observe("orders.ck", 100, 50, None).unwrap();
    assert_eq!(bin_default, text_default);
    // Binary-side validation mirrors text.
    assert!(binary.observe("missing.ix", 10, 5, None).is_err());

    server.shutdown_and_join();
}

#[test]
fn slow_log_attributes_phases_on_both_surfaces() {
    // Threshold zero: every request is "slow", so the ring captures the
    // whole conversation and the test needs no sleeps.
    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        slow_request_us: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let trace = test_trace();
    let mut c = Client::connect(server.addr()).unwrap();
    ingest(&mut c, "orders.ck", &trace);
    c.request("ESTIMATE orders.ck 0.25 40").unwrap();

    // SLOWLOG: header plus newest-first entries carrying the phase split.
    let lines = c.request("SLOWLOG 8").unwrap();
    let header = &lines[0];
    assert!(
        header.starts_with("slowlog threshold_us=0 recorded="),
        "{header}"
    );
    assert!(lines.len() > 1, "{lines:?}");
    let newest = &lines[1];
    assert_eq!(field(newest, "command"), "ESTIMATE");
    for phase in ["queue_us", "parse_us", "execute_us", "wal_us", "total_us"] {
        let _: u64 = field(newest, phase)
            .parse()
            .unwrap_or_else(|_| panic!("phase field {phase} must be an integer in {newest:?}"));
    }
    assert!(
        newest.contains("wire=\"ESTIMATE orders.ck 0.25 40\""),
        "{newest}"
    );
    let ids: Vec<u64> = lines[1..]
        .iter()
        .map(|l| field(l, "id").parse().unwrap())
        .collect();
    assert!(ids.windows(2).all(|w| w[0] > w[1]), "newest first: {ids:?}");

    // The same ring serves /slowlog as JSON lines.
    let (status, body) = http_get(metrics_addr, "/slowlog?n=4");
    assert_eq!(status, 200);
    let first = body.lines().next().expect("slowlog json line");
    for key in [
        "\"id\":",
        "\"command\":",
        "\"total_us\":",
        "\"queue_us\":",
        "\"wire\":",
    ] {
        assert!(first.contains(key), "{first}");
    }

    // Phase histograms and the slow-request counter are exported.
    let (_, text) = http_get(metrics_addr, "/metrics");
    assert!(series_value(
        &text,
        "epfis_server_phase_duration_us_count{command=\"ESTIMATE\",phase=\"execute\"}"
    )
    .is_some_and(|v| v >= 1.0));
    assert!(series_value(
        &text,
        "epfis_server_phase_duration_us_count{command=\"PAGE\",phase=\"parse\"}"
    )
    .is_some_and(|v| v >= 1.0));
    assert!(series_value(&text, "epfis_server_slow_requests_total").is_some_and(|v| v > 0.0));
    // STATS carries the slow-log counter too; the threshold is on the
    // SLOWLOG header.
    let stats = c.request("STATS").unwrap().join("\n");
    assert!(series_value(&stats, "epfis_server_slow_requests_total").is_some_and(|v| v > 0.0));
    let header = &c.request("SLOWLOG 0").unwrap()[0];
    assert_eq!(field(header, "threshold_us"), "0");

    // The binary surface feeds the same ring: a binary ESTIMATE lands as
    // a slow entry named after its command.
    let mut binary = BinaryClient::connect(server.addr()).unwrap();
    binary.estimate("orders.ck", 0.25, 40, 1.0).unwrap();
    let lines = c.request("SLOWLOG 4").unwrap();
    assert!(
        lines[1..].iter().any(|l| field(l, "command") == "ESTIMATE"),
        "{lines:?}"
    );

    server.shutdown_and_join();
}

#[test]
fn healthz_names_uptime_version_and_degraded_cause() {
    let dir = std::env::temp_dir().join(format!("epfis-observatory-hz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fv = FaultVfs::new();
    let mut wal_cfg = WalConfig::new(dir.join("wal"));
    wal_cfg.fsync = epfis_server::FsyncPolicy::Always;
    let server = serve(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        wal: Some(wal_cfg),
        vfs: Some(fv.clone().shared()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();

    // Healthy: one JSON line with uptime, version, and a null cause.
    let (status, body) = http_get(metrics_addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"uptime_s\":"), "{body}");
    assert!(
        body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{body}"
    );
    assert!(body.contains("\"degraded_cause\":null"), "{body}");
    assert_eq!(body.lines().count(), 1, "{body}");

    // Disk goes bad mid-session: the 503 body keeps the legacy "cause"
    // key and names the same string under "degraded_cause".
    let mut c = Client::connect(server.addr()).unwrap();
    c.request("ANALYZE BEGIN ix.bad table_pages=40").unwrap();
    fv.schedule()
        .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData));
    c.request("PAGE 1 2").expect_err("append on failing disk");
    let (status, body) = http_get(metrics_addr, "/healthz");
    assert_eq!(status, 503);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"cause\":\""), "{body}");
    assert!(body.contains("\"degraded_cause\":\""), "{body}");
    assert!(body.contains("\"uptime_s\":"), "{body}");
    assert!(
        body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{body}"
    );

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
