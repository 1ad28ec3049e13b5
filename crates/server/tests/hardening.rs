//! Fault-injection tests: hostile and unlucky clients against a live
//! server, with exact `STATS` accounting for every limit.
//!
//! Each test drives one of the `support::hostile` scenarios — a
//! newline-less flood, slow-loris trickling, idle pile-ups past the
//! admission cap, mid-`ANALYZE` disconnects — and asserts both the client's
//! view (the `ERR limit ...` / `SERVER_BUSY` response family) and the
//! server's (`epfis_server_limit_rejections_total`,
//! `epfis_server_connections_shed_total`,
//! `epfis_server_sessions_disconnected_total`, bytes in/out counters).

mod support;

use epfis_obs::series_value;
use epfis_server::{serve, Client, ClientError, LimitsConfig, ServerConfig};
use std::io::Read;
use std::time::{Duration, Instant};
use support::hostile;

/// A server with tight, test-sized limits.
fn tight_server(limits: LimitsConfig) -> epfis_server::ServerHandle {
    serve(ServerConfig {
        limits,
        ..ServerConfig::default()
    })
    .expect("bind hardened server")
}

#[test]
fn newline_less_flood_is_rejected_with_bounded_reads() {
    let limits = LimitsConfig {
        max_line_bytes: 64 * 1024,
        max_pending_bytes: 128 * 1024,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let addr = server.addr();

    // Attempt a 100 MB flood with no newline. The server must cut the
    // connection after ~max_line_bytes; the client's writes then fail.
    let outcome = hostile::flood_without_newline(addr, 100 * 1024 * 1024).unwrap();
    assert!(
        outcome.disconnected
            || outcome
                .response
                .as_deref()
                .is_some_and(|r| r.contains("limit line")),
        "flood must be rejected, got {outcome:?}"
    );
    assert!(
        outcome.bytes_written < 100 * 1024 * 1024,
        "server must not consume the whole flood ({} bytes written)",
        outcome.bytes_written
    );

    // Server-side accounting: it read at most max_line_bytes + one 4 KiB
    // chunk off the flood (plus this STATS request), nowhere near 100 MB.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    let bytes_in = series_value(&stats, "epfis_server_bytes_in_total").unwrap();
    assert!(
        bytes_in < 128.0 * 1024.0,
        "bytes_in {bytes_in} must stay near the 64 KiB line limit"
    );
    server.shutdown_and_join();
}

#[test]
fn oversized_single_request_line_closes_the_connection() {
    let limits = LimitsConfig {
        max_line_bytes: 1024,
        max_pending_bytes: 4096,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);
    let huge = format!("ESTIMATE {} 0.5 10", "x".repeat(8192));
    match c.request(&huge) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("limit line"), "{msg}"),
        // The server may close before the client finishes reading.
        Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
        other => panic!("oversized line should be rejected, got {other:?}"),
    }
    // The connection is closed after a line-limit violation.
    assert!(c.request("PING").is_err(), "connection must be closed");
    server.shutdown_and_join();
}

#[test]
fn full_admission_sheds_fresh_connections_with_server_busy() {
    let limits = LimitsConfig {
        max_connections: 2,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let addr = server.addr();

    // every admission slot pinned by a silent client...
    let idle = hostile::hold_idle_connections(addr, 2).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // ...a raw fresh connection is shed promptly with SERVER_BUSY...
    let started = Instant::now();
    let mut probe = std::net::TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut response = String::new();
    probe.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("SERVER_BUSY "),
        "expected SERVER_BUSY, got {response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shedding must be prompt, took {:?}",
        started.elapsed()
    );
    drop(probe);

    // ...and a protocol-level PING errors instead of hanging.
    let mut busy_attempts = 1u64; // the raw probe above
    let started = Instant::now();
    let mut c = Client::connect(addr).unwrap();
    match c.request("PING") {
        Err(ClientError::Busy(_) | ClientError::Io(_) | ClientError::Protocol(_)) => {
            busy_attempts += 1;
        }
        other => panic!("PING at capacity should be rejected, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "busy rejection must be prompt, took {:?}",
        started.elapsed()
    );
    drop(c);

    // Freeing the idle connections frees admission slots; every rejected
    // retry in between is one more shed, so the counter stays exact.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut served = loop {
        let mut c = Client::connect(addr).unwrap();
        match c.request("PING") {
            Ok(lines) => {
                assert_eq!(lines, vec!["pong".to_string()]);
                break c;
            }
            Err(_) => {
                busy_attempts += 1;
                assert!(Instant::now() < deadline, "server never recovered");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let stats = served.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_connections_shed_total"),
        Some(busy_attempts as f64),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn idle_deadline_reclaims_connection_slots_and_answers_err_limit() {
    let limits = LimitsConfig {
        max_connections: 2,
        idle_timeout: Duration::from_millis(300),
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let addr = server.addr();

    let idle = hostile::hold_idle_connections(addr, 2).unwrap();
    // After the idle deadline both silent clients are disconnected with an
    // ERR limit response and their admission slots serve fresh clients
    // again.
    for mut s in idle {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap(); // up to EOF
        assert!(
            response.starts_with("ERR limit idle"),
            "idle client must see ERR limit idle..., got {response:?}"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut c = loop {
        let mut c = Client::connect(addr).unwrap();
        match c.request("PING") {
            Ok(_) => break c,
            Err(_) => {
                assert!(Instant::now() < deadline, "admission never recovered");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(2.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn slow_loris_writer_is_disconnected_at_the_idle_deadline() {
    let limits = LimitsConfig {
        idle_timeout: Duration::from_millis(400),
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let started = Instant::now();
    let outcome = hostile::slow_loris(
        server.addr(),
        Duration::from_millis(50),
        Duration::from_secs(10),
    )
    .unwrap();
    assert!(
        outcome.disconnected,
        "slow-loris must be disconnected, got {outcome:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "disconnect must come near the 400ms deadline, took {:?}",
        started.elapsed()
    );
    if let Some(r) = &outcome.response {
        assert!(r.contains("limit idle"), "{r}");
    }
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn mid_session_disconnect_is_counted_and_cleaned_up() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    hostile::abandon_mid_analyze(addr, "ghost.ix").unwrap();

    // The server notices the EOF and discards the session.
    let mut c = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = c.request("STATS").unwrap().join("\n");
        if series_value(&stats, "epfis_server_sessions_disconnected_total") == Some(1.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions_disconnected never incremented: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Nothing was published for the abandoned session.
    assert_eq!(c.request("SHOW").unwrap(), Vec::<String>::new());

    // A clean BEGIN/PAGE/COMMIT on this connection does NOT count as a
    // disconnect, and neither does closing the connection afterwards.
    c.request("ANALYZE BEGIN clean.ix table_pages=8").unwrap();
    c.request("PAGE 1 0 1 3 2 5").unwrap();
    c.request("ANALYZE COMMIT").unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_sessions_disconnected_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn session_reference_cap_rejects_batches_without_corrupting_the_session() {
    let limits = LimitsConfig {
        max_session_refs: 5,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let mut c = Client::connect(server.addr()).unwrap();
    c.request("ANALYZE BEGIN capped.ix table_pages=16").unwrap();
    assert_eq!(
        c.request("PAGE 1 0 1 1 2 2 3 3").unwrap(),
        vec!["fed 4".to_string()]
    );
    match c.request("PAGE 4 4 5 5") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("limit session-refs"), "{msg}"),
        other => panic!("over-cap batch should be rejected, got {other:?}"),
    }
    // The rejected batch changed nothing; one more reference still fits and
    // the session commits cleanly on the same (still-open) connection.
    assert_eq!(c.request("PAGE 4 4").unwrap(), vec!["fed 5".to_string()]);
    let commit = c.request("ANALYZE COMMIT").unwrap();
    assert!(commit[0].contains("N=5"), "{commit:?}");
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

/// The satellite-2 regression: a rejected `PAGE` line leaves the session
/// untouched, so retrying a corrected line commits statistics identical to
/// a clean one-shot ingest.
#[test]
fn rejected_page_line_retries_to_identical_statistics() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // A deterministic scan: 50 keys × 4 refs over 37 pages.
    let refs: Vec<(i64, u32)> = (0..50i64)
        .flat_map(|k| {
            (0..4u32).map(move |j| (k, ((k as u32) * 4 + j).wrapping_mul(2654435761) % 37))
        })
        .collect();
    let batch_line = |batch: &[(i64, u32)]| {
        let mut line = String::from("PAGE");
        for (k, p) in batch {
            line.push_str(&format!(" {k} {p}"));
        }
        line
    };

    // Clean reference ingest.
    let mut c = Client::connect(addr).unwrap();
    c.request("ANALYZE BEGIN clean.ix table_pages=37").unwrap();
    for batch in refs.chunks(32) {
        c.request(&batch_line(batch)).unwrap();
    }
    c.request("ANALYZE COMMIT").unwrap();

    // Faulty ingest: the second batch is corrupted mid-line — its 17th pair
    // restarts key 0 (already closed in batch one) — then retried intact.
    c.request("ANALYZE BEGIN retry.ix table_pages=37").unwrap();
    let mut batches = refs.chunks(32);
    let first = batches.next().unwrap();
    let second = batches.next().unwrap();
    c.request(&batch_line(first)).unwrap();
    let mut corrupted = second.to_vec();
    corrupted[16] = (0, 1); // key 0 appearing in a second run
    match c.request(&batch_line(&corrupted)) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("two separate runs"), "{msg}"),
        other => panic!("corrupted batch should be rejected, got {other:?}"),
    }
    // Nothing from the corrupted line stuck — not even its valid prefix —
    // so the *same* keys retry cleanly.
    assert_eq!(
        c.request(&batch_line(second)).unwrap(),
        vec!["fed 64".to_string()]
    );
    // And an out-of-range page is rejected with the same atomicity.
    match c.request("PAGE 98 0 99 37") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("table_pages"), "{msg}"),
        other => panic!("out-of-range page should be rejected, got {other:?}"),
    }
    for batch in batches {
        c.request(&batch_line(batch)).unwrap();
    }
    c.request("ANALYZE COMMIT").unwrap();

    // Byte-for-byte identical statistics: SHOW metadata (minus name/epoch/
    // timestamp) and a grid of served estimates.
    let show = c.request("SHOW").unwrap();
    let tail_of = |name: &str| -> String {
        show.iter()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no SHOW line for {name}: {show:?}"))
            .split_whitespace()
            .skip(3) // name, epoch=, analyzed_at=
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(tail_of("clean.ix"), tail_of("retry.ix"));
    for (sigma, b) in [(0.05, 2u64), (0.3, 9), (0.8, 20), (1.0, 37)] {
        assert_eq!(
            c.request(&format!("ESTIMATE clean.ix {sigma} {b}"))
                .unwrap(),
            c.request(&format!("ESTIMATE retry.ix {sigma} {b}"))
                .unwrap(),
            "sigma={sigma} b={b}"
        );
    }
    server.shutdown_and_join();
}

#[test]
fn shutdown_completes_with_an_unspecified_bind_address() {
    let server = serve(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServerConfig::default()
    })
    .unwrap();
    let port = server.addr().port();
    let mut c = Client::connect(("127.0.0.1", port)).unwrap();
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);
    drop(c);

    // The shutdown poke must reach the accept loop even though the bound
    // address (0.0.0.0) is not itself connectable on every platform.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown_and_join();
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown with a 0.0.0.0 bind must complete");
}

#[test]
fn invalid_limits_are_rejected_before_binding() {
    for limits in [
        LimitsConfig {
            max_line_bytes: 8,
            ..LimitsConfig::default()
        },
        LimitsConfig {
            max_pending_bytes: 1024,
            max_line_bytes: 4096,
            ..LimitsConfig::default()
        },
    ] {
        let result = serve(ServerConfig {
            limits,
            ..ServerConfig::default()
        });
        assert!(result.is_err(), "{limits:?} must be rejected");
    }
}

#[test]
fn bytes_counters_cover_both_directions() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);
    let stats = c.request("STATS").unwrap().join("\n");
    // "PING\n" in, "OK 1\npong\n" out, plus the STATS request itself.
    let bytes_in = series_value(&stats, "epfis_server_bytes_in_total").unwrap();
    let bytes_out = series_value(&stats, "epfis_server_bytes_out_total").unwrap();
    assert_eq!(bytes_in, ("PING\n".len() + "STATS\n".len()) as f64);
    assert_eq!(bytes_out, "OK 1\npong\n".len() as f64, "{stats}");
    server.shutdown_and_join();
}

#[test]
fn binary_flood_is_rejected_from_the_frame_header_alone() {
    let limits = LimitsConfig {
        max_line_bytes: 64 * 1024,
        max_pending_bytes: 128 * 1024,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let addr = server.addr();

    // Declare a 100 MB frame body. A hardened server rejects it from the
    // 4-byte header without buffering the body, so the flood's writes fail
    // after at most a few socket buffers.
    let outcome = hostile::binary_flood(addr, 100 * 1024 * 1024).unwrap();
    assert!(
        outcome
            .response
            .as_deref()
            .is_some_and(|r| r.contains("limit frame"))
            || outcome.disconnected,
        "binary flood must be rejected, got {outcome:?}"
    );
    assert!(
        outcome.bytes_written < 8 * 1024 * 1024,
        "server must push back long before the declared body arrives \
         ({} bytes written)",
        outcome.bytes_written
    );

    let mut c = Client::connect(addr).unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(
        series_value(&stats, "epfis_server_binary_upgrades_total"),
        Some(1.0),
        "{stats}"
    );
    let bytes_in = series_value(&stats, "epfis_server_bytes_in_total").unwrap();
    assert!(
        bytes_in < 2.0 * 128.0 * 1024.0,
        "bytes_in {bytes_in} must stay near the pending-buffer cap"
    );
    server.shutdown_and_join();
}

#[test]
fn binary_idle_connection_is_reclaimed_with_an_err_frame() {
    let limits = LimitsConfig {
        idle_timeout: Duration::from_millis(300),
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let mut c = epfis_server::BinaryClient::connect(server.addr()).unwrap();

    // Don't send anything after the upgrade; the idle deadline must answer
    // with a binary ERR frame and close.
    match c.recv() {
        Ok(epfis_server::BinResponse::Err(m)) => {
            assert!(m.contains("limit idle"), "{m}")
        }
        Ok(other) => panic!("expected ERR frame, got {other:?}"),
        // The server may reset before the client reads the frame.
        Err(_) => {}
    }
    // The connection is gone: a follow-up request fails at write or read.
    c.queue_ping();
    assert!(c.flush().is_err() || c.recv().is_err());

    let mut probe = Client::connect(server.addr()).unwrap();
    let stats = probe.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

#[test]
fn malformed_binary_frames_error_without_desyncing_the_connection() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = epfis_server::BinaryClient::connect(server.addr()).unwrap();

    // A malformed frame — TEXT with an embedded newline, rejected at
    // decode — answers ERR but keeps the connection in sync: the length
    // prefix bounds the damage, and a PING pipelined *behind* it in the
    // same flush still answers correctly.
    c.queue_text("PING\nSTATS");
    c.queue_ping();
    c.flush().unwrap();
    match c.recv().unwrap() {
        epfis_server::BinResponse::Err(m) => assert!(m.contains("bad frame"), "{m}"),
        other => panic!("expected decode error, got {other:?}"),
    }
    match c.recv().unwrap() {
        epfis_server::BinResponse::Lines(l) => assert_eq!(l, vec!["pong".to_string()]),
        other => panic!("{other:?}"),
    }
    // And real requests still work after the error.
    assert!(c.estimate("ghost", 0.5, 10, 1.0).is_err()); // no entry, clean ERR
    assert!(c.text("STATS").is_ok());
    server.shutdown_and_join();
}

#[test]
fn binary_session_reference_cap_preserves_atomic_batches() {
    let limits = LimitsConfig {
        max_session_refs: 5,
        ..LimitsConfig::default()
    };
    let server = tight_server(limits);
    let mut c = epfis_server::BinaryClient::connect(server.addr()).unwrap();
    c.queue_analyze_begin("capped.ix", None, Some(16));
    c.flush().unwrap();
    c.recv().unwrap();

    assert_eq!(c.page(&[(1, 0), (1, 1), (2, 2), (3, 3)]).unwrap(), 4);
    match c.page(&[(4, 4), (5, 5)]) {
        Err(ClientError::Server(m)) => assert!(m.contains("limit session-refs"), "{m}"),
        other => panic!("over-cap batch should be rejected, got {other:?}"),
    }
    // The rejected batch changed nothing; the session commits cleanly.
    assert_eq!(c.page(&[(4, 4)]).unwrap(), 5);
    c.queue_analyze_commit();
    c.flush().unwrap();
    match c.recv().unwrap() {
        epfis_server::BinResponse::Lines(l) => assert!(l[0].contains("N=5"), "{l:?}"),
        other => panic!("{other:?}"),
    }
    let mut probe = Client::connect(server.addr()).unwrap();
    let stats = probe.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_limit_rejections_total"),
        Some(1.0),
        "{stats}"
    );
    // The HELLO upgrade line and the probe's STATS are the only text
    // requests; everything else went over binary frames.
    assert_eq!(
        series_value(
            &stats,
            "epfis_server_protocol_requests_total{protocol=\"text\"}"
        ),
        Some(2.0),
        "{stats}"
    );
    assert_eq!(
        series_value(
            &stats,
            "epfis_server_protocol_requests_total{protocol=\"binary\"}"
        ),
        Some(5.0),
        "{stats}"
    );
    assert_eq!(
        series_value(&stats, "epfis_server_binary_upgrades_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}
