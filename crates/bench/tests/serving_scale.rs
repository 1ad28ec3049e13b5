//! The scale gates, runnable under a modest `RLIMIT_NOFILE` hard cap: the
//! event loop serves open-loop load under 1 000 idle connections with zero
//! errors and a bounded p99, and holds 10 000 idle connections while
//! serving real estimate traffic.
//!
//! The idle pile lives in a `loadgen` subprocess, so server and client each
//! need only ~10k file descriptors — together they would exceed a 20k hard
//! cap that a container without `CAP_SYS_RESOURCE` cannot raise (the
//! in-process variant of this test, in `crates/server/tests/frontends.rs`,
//! skips itself in that situation; this one still runs).

use epfis_obs::series_value;
use epfis_server::client::Client;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const IDLE_CONNS: usize = 10_000;

/// The two gates share the host's descriptors and CPU; a latency bound
/// measured while the other test builds its pile would measure that pile.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A server like `epfis serve --max-connections 20000`.
fn pile_server() -> epfis_server::ServerHandle {
    epfis_server::serve(epfis_server::ServerConfig {
        limits: epfis_server::LimitsConfig {
            max_connections: 20_000,
            ..epfis_server::LimitsConfig::default()
        },
        ..epfis_server::ServerConfig::default()
    })
    .expect("bind evloop server")
}

/// Raises `RLIMIT_NOFILE` for a server holding `conns` connections, or
/// says why the gate cannot run here.
fn fds_for(conns: usize) -> bool {
    let need = conns as u64 + 2_048;
    match epfis_net::io::raise_nofile_limit(need) {
        Ok(limit) if limit >= need => true,
        other => {
            eprintln!("skipping: fd limit {other:?} too low for {conns} server-side conns");
            false
        }
    }
}

/// Open-loop `PING`s at 2000 req/s over 32 connections underneath 1 000
/// idle ones: zero errors (loadgen's exit status) and p99 within 250 ms
/// prove idle peers cost the event loop nothing.
#[test]
fn evloop_serves_open_loop_load_under_1k_idle_with_bounded_p99() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !fds_for(1_000) {
        return;
    }
    let server = pile_server();
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--addr",
            &server.addr().to_string(),
            "--rate",
            "2000",
            "--duration-ms",
            "2000",
            "--conns",
            "32",
            "--idle-conns",
            "1000",
            "--request",
            "PING",
        ])
        .output()
        .expect("run loadgen");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadgen saw errors: {report} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let field = |key: &str| -> u64 {
        let rest = report
            .split(&format!("\"{key}\": "))
            .nth(1)
            .unwrap_or_else(|| panic!("no {key} in {report}"));
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap()
    };
    assert_eq!(field("errors"), 0, "{report}");
    assert_eq!(field("completed"), 4_000, "{report}");
    let p99_us = field("p99_us");
    assert!(
        p99_us <= 250_000,
        "p99 {p99_us} us exceeds 250 ms: {report}"
    );
    server.shutdown_and_join();
}

#[test]
fn evloop_serves_estimates_under_a_10k_idle_pile() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Server-side cost: one fd per idle/load connection plus slack for the
    // listener, polling, and our own probe clients.
    if !fds_for(IDLE_CONNS) {
        return;
    }
    let server = pile_server();
    let addr = server.addr();

    let child = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--addr",
            &addr.to_string(),
            "--rate",
            "200",
            "--duration-ms",
            "8000",
            "--conns",
            "8",
            "--idle-conns",
            &IDLE_CONNS.to_string(),
            "--request",
            "PING",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loadgen");

    // Wait until the whole pile is connected (the generator opens its idle
    // connections before issuing load). Generous deadline: under a full
    // workspace test run on a small machine, 10k loopback connects compete
    // with every other test binary for the CPU.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let mut probe = Client::connect(addr).expect("connect probe client");
        let stats = probe.request("STATS").expect("STATS").join("\n");
        let active = series_value(&stats, "epfis_server_connections_active")
            .expect("epfis_server_connections_active in STATS");
        if active >= IDLE_CONNS as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pile never formed: epfis_server_connections_active {active} < {IDLE_CONNS}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // A real estimate conversation must work underneath the pile, while the
    // open-loop load is still running.
    let mut c = Client::connect(addr).expect("connect under load");
    c.request("ANALYZE BEGIN under.pile table_pages=64")
        .expect("begin");
    c.request("PAGE 1 0 1 5 2 9 3 13 4 17 5 21").expect("page");
    let commit = c.request("ANALYZE COMMIT").expect("commit");
    assert!(
        commit[0].starts_with("committed under.pile"),
        "unexpected commit answer: {commit:?}"
    );
    let est = c.request("ESTIMATE under.pile 0.5 16").expect("estimate");
    assert_eq!(est.len(), 1, "unexpected estimate answer: {est:?}");
    est[0].parse::<f64>().expect("estimate is a number");

    let out = child.wait_with_output().expect("wait loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "loadgen failed under the pile: {stdout} {stderr}"
    );

    server.shutdown_and_join();
}
