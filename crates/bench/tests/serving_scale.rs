//! The scale gate, runnable under a modest `RLIMIT_NOFILE` hard cap: the
//! event loop holds 10 000 idle connections while serving real estimate
//! traffic.
//!
//! The idle pile lives in a `loadgen` subprocess, so server and client each
//! need only ~10k file descriptors — together they would exceed a 20k hard
//! cap that a container without `CAP_SYS_RESOURCE` cannot raise (the
//! in-process variant of this test, in `crates/server/tests/frontends.rs`,
//! skips itself in that situation; this one still runs).

use epfis_obs::series_value;
use epfis_server::client::Client;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const IDLE_CONNS: usize = 10_000;

#[test]
fn evloop_serves_estimates_under_a_10k_idle_pile() {
    // Server-side cost: one fd per idle/load connection plus slack for the
    // listener, polling, and our own probe clients.
    let need = IDLE_CONNS as u64 + 2_048;
    match epfis_net::io::raise_nofile_limit(need) {
        Ok(limit) if limit >= need => {}
        other => {
            eprintln!("skipping: fd limit {other:?} too low for {IDLE_CONNS} server-side conns");
            return;
        }
    }

    let server = epfis_server::serve(epfis_server::ServerConfig {
        limits: epfis_server::LimitsConfig {
            max_connections: 20_000,
            ..epfis_server::LimitsConfig::default()
        },
        ..epfis_server::ServerConfig::default()
    })
    .expect("bind evloop server");
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
            "--assert-zero-errors",
            "true",
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
