//! The serving core's I/O regression suite.
//!
//! `epfis serve` runs one `epfis-net` event loop around the shared protocol
//! engine. This suite proves:
//!
//! * the same deterministic workload answers **identically** over text
//!   lines, TEXT frames and typed frames, and is accounted identically
//!   (per-command request and error counters, limit rejections); a cached
//!   `ESTIMATE` on either wire serves a re-analyzed entry's new value;
//! * a peer that provokes a huge response and then stops reading (a write
//!   stall) is reclaimed at the deadline, counted under
//!   `epfis_server_sessions_disconnected_total`;
//! * a pending-buffer overflow answers the distinct `ERR limit pending ...`
//!   (it used to masquerade as an oversized-line/frame rejection);
//! * the event loop sustains 10k concurrent idle connections with a fixed,
//!   tiny thread count, while still serving them all.

mod support;

use epfis_obs::series_value;
use epfis_server::{
    framing, serve, BinResponse, BinaryClient, Client, ClientError, LimitsConfig, ServerConfig,
    ServerHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use support::hostile;

fn server(limits: LimitsConfig) -> ServerHandle {
    serve(ServerConfig {
        limits,
        ..ServerConfig::default()
    })
    .expect("bind server")
}

/// A deterministic synthetic statistics scan (skewed page reuse).
fn trace_pairs() -> Vec<(i64, u32)> {
    let mut pairs = Vec::new();
    for k in 0..600i64 {
        for j in 0..4u32 {
            let p = ((k as u32).wrapping_mul(2654435761).wrapping_add(j * 97)) % 120;
            pairs.push((k, p));
        }
    }
    pairs
}

/// Commits a tiny entry `name` so `FPF` has a curve to render.
fn commit_small_entry(addr: SocketAddr, name: &str) {
    let mut c = Client::connect(addr).unwrap();
    c.request(&format!("ANALYZE BEGIN {name} table_pages=64"))
        .unwrap();
    c.request("PAGE 1 0 1 5 2 9 3 13 4 17 5 21").unwrap();
    let lines = c.request("ANALYZE COMMIT").unwrap();
    assert!(
        lines[0].starts_with(&format!("committed {name} ")),
        "{lines:?}"
    );
}

/// The session cap the cross-wire servers run with: exactly the trace, so
/// one more reference answers `ERR limit session-refs`.
const SCRIPT_SESSION_REFS: u64 = 2400;

/// The deterministic command script every wire must answer identically:
/// happy paths, every protocol error family (a resource limit included),
/// and an ingest.
fn text_script() -> Vec<String> {
    let mut script = vec![
        "PING".to_string(),
        "ESTIMATE missing 0.5 10".to_string(), // ERR: unknown entry
        "PAGE 1 2".to_string(),                // ERR: no open session
        "GARBAGE in, garbage out".to_string(), // ERR: parse
        "ANALYZE BEGIN ix table_pages=120".to_string(),
    ];
    for chunk in trace_pairs().chunks(64) {
        let line: String = chunk.iter().map(|(k, p)| format!(" {k} {p}")).collect();
        script.push(format!("PAGE{line}"));
    }
    assert_eq!(trace_pairs().len() as u64, SCRIPT_SESSION_REFS);
    script.extend(
        [
            "PAGE 600 0", // ERR: limit session-refs
            "ANALYZE COMMIT",
            "ESTIMATE ix 0.5 64",
            "ESTIMATE ix 0.001 1",
            "ESTIMATE ix 1.0 500",
            "EXPLAIN ESTIMATE ix 0.25 32",
            "FPF ix 7",
            "COMPARE ix 5",
            "SHOW",
            "OBSERVE ix 100 50",
            "FPF ix 0", // ERR: points out of range
        ]
        .map(String::from),
    );
    script
}

/// Replaces wall-clock `analyzed_at=<n>` stamps — the only bytes allowed to
/// differ between two runs of the same deterministic script.
fn normalize(rendered: String) -> String {
    let mut out = String::with_capacity(rendered.len());
    let mut rest = rendered.as_str();
    while let Some(pos) = rest.find("analyzed_at=") {
        let (head, tail) = rest.split_at(pos + "analyzed_at=".len());
        out.push_str(head);
        out.push_str("<t>");
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Runs the text script against `addr`, rendering every outcome (response
/// lines and `ERR` payloads alike) into one comparable transcript, then the
/// text form of the binary runs' trailing `ESTIMATE` and `PAGE`.
fn run_text_script(addr: SocketAddr) -> Vec<String> {
    let mut c = Client::connect(addr).unwrap();
    let transcript = text_script()
        .iter()
        .map(|cmd| normalize(format!("{cmd} => {:?}", text_outcome(&mut c, cmd))))
        .collect();
    assert!(text_outcome(&mut c, "ESTIMATE ix 0.5 64").is_ok());
    assert!(text_outcome(&mut c, "PAGE 900 3").is_err());
    transcript
}

fn text_outcome(c: &mut Client, cmd: &str) -> Result<Vec<String>, String> {
    match c.request(cmd) {
        Ok(lines) => Ok(lines),
        Err(ClientError::Server(msg)) => Err(msg),
        Err(e) => panic!("{cmd}: {e:?}"),
    }
}

/// Runs the same script over binary framing v2, each command in a TEXT
/// frame, pipelined in one flush; returns the script's transcript plus the
/// answers to a trailing binary `ESTIMATE` and `PAGE`.
fn run_binary_script(addr: SocketAddr) -> (Vec<String>, Vec<BinResponse>) {
    let mut c = epfis_server::BinaryClient::connect(addr).unwrap();
    let script = text_script();
    for cmd in &script {
        c.queue_text(cmd);
    }
    c.queue_estimate("ix", 0.5, 64, 1.0);
    c.queue_page(&[(900, 3)]); // ERR: no open session (it committed above)
    c.flush().unwrap();
    let transcript = script
        .iter()
        .map(|cmd| {
            let outcome = match c.recv().unwrap() {
                BinResponse::Lines(lines) => Ok(lines),
                BinResponse::Err(msg) => Err(msg),
                other => panic!("{cmd}: unexpected {other:?}"),
            };
            normalize(format!("{cmd} => {outcome:?}"))
        })
        .collect();
    (transcript, vec![c.recv().unwrap(), c.recv().unwrap()])
}

/// Runs the script over binary framing v2 with every command that has a
/// typed frame (PING, ESTIMATE, PAGE, ANALYZE BEGIN/COMMIT, OBSERVE) sent
/// typed and the rest in TEXT frames, plus the same trailing `ESTIMATE` and
/// `PAGE`. Typed answers render as the text protocol's data lines.
fn run_typed_script(addr: SocketAddr) -> Vec<String> {
    let mut c = BinaryClient::connect(addr).unwrap();
    let script = text_script();
    for cmd in &script {
        queue_typed(&mut c, cmd);
    }
    c.queue_estimate("ix", 0.5, 64, 1.0);
    c.queue_page(&[(900, 3)]);
    c.flush().unwrap();
    let transcript = script
        .iter()
        .map(|cmd| {
            let outcome = match c.recv().unwrap() {
                BinResponse::Lines(lines) => Ok(lines),
                BinResponse::F64(f) => Ok(vec![format!("{f}")]),
                BinResponse::U64(n) => Ok(vec![format!("fed {n}")]),
                BinResponse::Err(msg) => Err(msg),
            };
            normalize(format!("{cmd} => {outcome:?}"))
        })
        .collect();
    assert!(matches!(c.recv().unwrap(), BinResponse::F64(_)));
    assert!(matches!(c.recv().unwrap(), BinResponse::Err(_)));
    transcript
}

/// Queues one script line as its typed frame, or as a TEXT frame when the
/// command has none.
fn queue_typed(c: &mut BinaryClient, cmd: &str) {
    let toks: Vec<&str> = cmd.split_whitespace().collect();
    match toks.as_slice() {
        ["PING"] => c.queue_ping(),
        ["ESTIMATE", name, sigma, buffer] => {
            c.queue_estimate(name, sigma.parse().unwrap(), buffer.parse().unwrap(), 1.0)
        }
        ["PAGE", rest @ ..] => {
            let pairs: Vec<(i64, u32)> = rest
                .chunks(2)
                .map(|kp| (kp[0].parse().unwrap(), kp[1].parse().unwrap()))
                .collect();
            c.queue_page(&pairs);
        }
        ["ANALYZE", "BEGIN", name, opt] => {
            let pages = opt.strip_prefix("table_pages=").unwrap().parse().unwrap();
            c.queue_analyze_begin(name, None, Some(pages));
        }
        ["ANALYZE", "COMMIT"] => c.queue_analyze_commit(),
        ["OBSERVE", name, nkeys, actual] => {
            c.queue_observe(name, nkeys.parse().unwrap(), actual.parse().unwrap(), None)
        }
        _ => c.queue_text(cmd),
    }
}

/// The accounting a run left behind: every per-command request and error
/// counter plus the limit-rejection counter, read through `STATS`. The
/// `HELLO` upgrade is left out — it is the one request only a binary
/// client sends.
fn request_counters(addr: SocketAddr) -> Vec<String> {
    let stats = Client::connect(addr).unwrap().request("STATS").unwrap();
    let counters: Vec<String> = stats
        .into_iter()
        .filter(|l| {
            l.starts_with("epfis_server_requests_total{")
                || l.starts_with("epfis_server_request_errors_total{")
                || l.starts_with("epfis_server_limit_rejections_total ")
        })
        .filter(|l| !l.contains("command=\"HELLO\""))
        .collect();
    assert!(
        counters.contains(&"epfis_server_limit_rejections_total 1".to_string()),
        "{counters:?}"
    );
    counters
}

/// Serves the same `ESTIMATE` on a text and a binary connection across a
/// re-`ANALYZE` of its entry from a third connection: both connections'
/// entry caches must serve the new value.
fn assert_cached_estimates_follow_a_recommit(addr: SocketAddr) {
    let query = "ESTIMATE ix 0.5 64";
    let mut text = Client::connect(addr).unwrap();
    let mut binary = BinaryClient::connect(addr).unwrap();
    let before = text.request(query).unwrap();
    assert_eq!(
        binary.estimate("ix", 0.5, 64, 1.0).unwrap().to_string(),
        before[0]
    );

    // Re-analyze `ix` as a perfectly clustered index: far fewer fetches.
    let mut writer = Client::connect(addr).unwrap();
    writer.request("ANALYZE BEGIN ix table_pages=120").unwrap();
    for chunk in (0..600i64).collect::<Vec<_>>().chunks(100) {
        let line: String = chunk.iter().map(|k| format!(" {k} {}", k / 5)).collect();
        writer.request(&format!("PAGE{line}")).unwrap();
    }
    let committed = writer.request("ANALYZE COMMIT").unwrap();
    assert!(
        committed[0].starts_with("committed ix epoch="),
        "{committed:?}"
    );

    let fresh = Client::connect(addr).unwrap().request(query).unwrap();
    assert_ne!(fresh, before, "the re-analysis must move the estimate");
    assert_eq!(text.request(query).unwrap(), fresh, "text cache is stale");
    assert_eq!(
        binary.estimate("ix", 0.5, 64, 1.0).unwrap().to_string(),
        fresh[0],
        "binary cache is stale"
    );
}

#[test]
fn text_and_binary_framing_answer_identically() {
    let limits = LimitsConfig {
        max_session_refs: SCRIPT_SESSION_REFS,
        ..LimitsConfig::default()
    };
    let text_server = server(limits);
    let text = run_text_script(text_server.addr());
    let text_counters = request_counters(text_server.addr());
    text_server.shutdown_and_join();
    let binary_server = server(limits);
    let (binary, tail) = run_binary_script(binary_server.addr());
    let binary_counters = request_counters(binary_server.addr());
    binary_server.shutdown_and_join();
    let typed_server = server(limits);
    let typed = run_typed_script(typed_server.addr());
    let typed_counters = request_counters(typed_server.addr());
    assert_cached_estimates_follow_a_recommit(typed_server.addr());
    typed_server.shutdown_and_join();

    assert_eq!(text, typed, "typed frames diverge from text lines");
    assert_eq!(
        text_counters, binary_counters,
        "TEXT frames account differently"
    );
    assert_eq!(
        text_counters, typed_counters,
        "typed frames account differently"
    );
    assert_eq!(text.len(), binary.len());
    for (t, b) in text.iter().zip(&binary) {
        assert_eq!(t, b, "framings diverge");
    }
    let estimate = text
        .iter()
        .find_map(|l| l.strip_prefix("ESTIMATE ix 0.5 64 => Ok([\""))
        .and_then(|l| l.strip_suffix("\"])"))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("text estimate");
    assert_eq!(tail[0], BinResponse::F64(estimate));
    assert!(
        matches!(&tail[1], BinResponse::Err(msg) if msg.contains("no open session")),
        "{tail:?}"
    );
}

/// A peer that provokes ~30 MB of responses and stops reading must not
/// hold its server resources past the write deadline.
#[test]
fn write_stall_is_reclaimed() {
    let limits = LimitsConfig {
        idle_timeout: Duration::from_millis(500),
        max_connections: 4,
        ..LimitsConfig::default()
    };
    let server = server(limits);
    let addr = server.addr();
    // `FPF` answers each buffer size in `[B_min, B_max]` once, so the probe
    // spans 200..=20000 pages: `FPF … 10000` then answers 10000 rows.
    let mut c = Client::connect(addr).unwrap();
    c.request("ANALYZE BEGIN stall.probe table_pages=20000")
        .unwrap();
    c.request("PAGE 1 0 1 5 2 9 3 13 4 17 5 21").unwrap();
    c.request("ANALYZE COMMIT").unwrap();
    drop(c);

    let outcome =
        hostile::write_stall(addr, "FPF stall.probe 10000", 200, Duration::from_secs(15)).unwrap();
    assert!(
        outcome.disconnected,
        "server must abandon the stalled flush and reset the connection: {outcome:?}"
    );

    // The loop slot is free again: a well-behaved client gets served
    // promptly...
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);
    // ...and the reclaim was counted.
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_sessions_disconnected_total"),
        Some(1.0),
        "{stats}"
    );
    server.shutdown_and_join();
}

/// Regression: a pending-buffer overflow must answer the distinct
/// `ERR limit pending ...`. The overflow here is a binary frame whose
/// *total wire size* (header + declared body) exceeds `max_pending_bytes`
/// even though the declared body respects `max_line_bytes` — before PR 8
/// this was misreported as an oversized-frame rejection.
#[test]
fn pending_overflow_reports_limit_pending() {
    let limits = LimitsConfig {
        max_line_bytes: 1024,
        max_pending_bytes: 1024,
        ..LimitsConfig::default()
    };
    let server = server(limits);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"HELLO BINARY\n").unwrap();
    let mut ack = [0u8; 16];
    let mut got = 0;
    while !ack[..got].windows(2).any(|w| w == b"v2") {
        got += stream.read(&mut ack[got..]).unwrap();
    }

    // Declared body: 1024 bytes — within max_line_bytes, so this is NOT an
    // oversized frame. But header + body = 1028 > max_pending_bytes, so the
    // frame can never complete inside the pending buffer. Send one byte
    // short of completion to pin the overflow (1025 buffered > 1024).
    let mut frame = Vec::new();
    frame.extend_from_slice(&1024u32.to_le_bytes());
    frame.extend_from_slice(&vec![0xAB; 1021]);
    stream.write_all(&frame).unwrap();

    let mut collected = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => collected.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    assert!(collected.len() >= 4, "no response frame: {collected:?}");
    let len = u32::from_le_bytes(collected[..4].try_into().unwrap()) as usize;
    let body = &collected[4..4 + len];
    match framing::decode_response(body) {
        Ok(epfis_server::BinResponse::Err(msg)) => {
            assert!(
                msg.contains("limit pending"),
                "overflow must be diagnosed as limit pending, got {msg:?}"
            );
            assert!(
                !msg.contains("limit frame") && !msg.contains("limit line"),
                "overflow must not masquerade as a line/frame rejection: {msg:?}"
            );
        }
        other => panic!("expected ERR frame, got {other:?}"),
    }
    server.shutdown_and_join();
}

/// An oversized *line* keeps its specific diagnosis even when it also
/// overflows the pending buffer (the more specific rejection wins).
#[test]
fn oversized_line_still_reports_limit_line_not_limit_pending() {
    let limits = LimitsConfig {
        max_line_bytes: 1024,
        max_pending_bytes: 1024,
        ..LimitsConfig::default()
    };
    let server = server(limits);
    let mut c = Client::connect(server.addr()).unwrap();
    match c.request(&format!("ESTIMATE {} 0.5 10", "x".repeat(4096))) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("limit line"), "{msg}"),
        Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
        other => panic!("oversized line should be rejected, got {other:?}"),
    }
    server.shutdown_and_join();
}

/// Floods and idle connections against the event loop.
#[test]
fn evloop_rejects_floods_and_reclaims_idle_connections() {
    let limits = LimitsConfig {
        max_line_bytes: 64 * 1024,
        max_pending_bytes: 128 * 1024,
        idle_timeout: Duration::from_millis(400),
        ..LimitsConfig::default()
    };
    let server = server(limits);
    let addr = server.addr();

    let flood = hostile::flood_without_newline(addr, 8 * 1024 * 1024).unwrap();
    assert!(
        flood.disconnected
            || flood
                .response
                .as_deref()
                .is_some_and(|r| r.contains("limit line")),
        "flood must be rejected: {flood:?}"
    );

    let binflood = hostile::binary_flood(addr, 8 * 1024 * 1024).unwrap();
    assert!(
        binflood.disconnected
            || binflood
                .response
                .as_deref()
                .is_some_and(|r| r.contains("limit frame")),
        "binary flood must be rejected from the header: {binflood:?}"
    );

    // An idle connection is reclaimed with `ERR limit idle`.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = String::new();
    let _ = idle.read_to_string(&mut response);
    assert!(response.contains("limit idle"), "{response:?}");
    server.shutdown_and_join();
}

#[test]
fn evloop_shutdown_command_stops_the_server() {
    let server = server(LimitsConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), vec!["pong".to_string()]);
    let lines = c.request("SHUTDOWN").unwrap();
    assert_eq!(lines, vec!["bye".to_string()]);
    server.join();
}

/// The scaling claim: 10k concurrent idle connections on the event loop,
/// all actually served, with the process's thread count fixed.
#[test]
fn evloop_sustains_10k_idle_connections() {
    const CONNS: usize = 10_000;
    // Both endpoints of every connection live in this process: ~2 fds per
    // connection plus slack.
    match epfis_net::io::raise_nofile_limit((CONNS as u64) * 2 + 1024) {
        Ok(limit) if limit >= (CONNS as u64) * 2 + 512 => {}
        Ok(limit) => {
            eprintln!("skipping: fd limit {limit} too low for {CONNS} loopback connections");
            return;
        }
        Err(e) => {
            eprintln!("skipping: cannot raise fd limit: {e}");
            return;
        }
    }
    let server = server(LimitsConfig::default());
    let addr = server.addr();

    let start = Instant::now();
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        match TcpStream::connect(addr) {
            Ok(s) => conns.push(s),
            Err(e) => panic!("connect #{i} failed after {:?}: {e}", start.elapsed()),
        }
    }

    // Every 500th connection must actually be *served*, not just accepted.
    for (i, stream) in conns.iter_mut().enumerate().step_by(500) {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"PING\n").unwrap();
        let mut response = [0u8; 16];
        let mut got = 0;
        while !response[..got].contains(&b'\n') {
            let n = stream.read(&mut response[got..]).unwrap();
            assert!(n > 0, "connection #{i} closed instead of answering PING");
            got += n;
        }
        assert_eq!(&response[..got], b"OK 1\npong\n"[..got].as_ref(), "#{i}");
    }

    // And a fresh client still gets real work done underneath the pile.
    commit_small_entry(addr, "under.load");
    let mut c = Client::connect(addr).unwrap();
    let est = c.request("ESTIMATE under.load 0.5 16").unwrap();
    assert_eq!(est.len(), 1, "{est:?}");
    drop(conns);
    server.shutdown_and_join();
}
