//! Estimator self-validation driver (see `epfis_bench::selfcheck` for the
//! measurement contract: exact LRU simulation as ground truth, fed back to
//! a live server with `OBSERVE`).
//!
//! ```text
//! observatory [--addr HOST:PORT] [--mode fresh|shifted|both]
//!             [--tolerance T] [--scans N] [--keys K] [--run-len R]
//!             [--table-pages P] [--buffer B] [--seed S] [--out FILE]
//!     runs the fresh and/or shifted self-validation loops and prints one
//!     JSON report line per mode (appending to --out if given). Without
//!     --addr it hosts its own server (with a /metrics endpoint) and also
//!     asserts the accuracy metric families moved. Exit code 1 when the
//!     fresh median |rel_err| exceeds --tolerance (default 0.35), when
//!     fresh stats get flagged stale, or when the shifted workload fails
//!     to flip the stale flag, so a script can gate on it.
//! ```

use epfis_bench::selfcheck::{self, SelfCheckConfig};
use epfis_bench::Options;
use epfis_obs::series_value;
use std::io::{Read as _, Write as _};
use std::net::ToSocketAddrs;

/// Minimal HTTP GET against the server's metrics endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn main() {
    let opts = Options::from_env();
    let mode = opts.get_str("mode").unwrap_or("both").to_string();
    let tolerance: f64 = opts.get("tolerance", 0.35f64);
    let base = SelfCheckConfig::default();
    let config = SelfCheckConfig {
        scans: opts.get("scans", base.scans),
        keys: opts.get("keys", base.keys),
        run_len: opts.get("run-len", base.run_len),
        table_pages: opts.get("table-pages", base.table_pages),
        buffer: opts.get("buffer", base.buffer),
        seed: opts.get("seed", base.seed),
        ..base
    };

    // Target a running server, or host one (with metrics) ourselves.
    let (server, addr, metrics_addr) = match opts.get_str("addr") {
        Some(raw) => {
            let addr = raw
                .to_socket_addrs()
                .expect("resolve --addr")
                .next()
                .expect("no address for --addr");
            (None, addr, None)
        }
        None => {
            let server = epfis_server::serve(epfis_server::ServerConfig {
                metrics_addr: Some("127.0.0.1:0".to_string()),
                ..epfis_server::ServerConfig::default()
            })
            .expect("bind self-hosted server");
            let addr = server.addr();
            let metrics = server.metrics_addr();
            (Some(server), addr, metrics)
        }
    };

    let mut failed = false;
    let mut reports = Vec::new();
    if mode == "fresh" || mode == "both" {
        let report = selfcheck::fresh(addr, &config).expect("fresh self-validation run");
        let ok = report.median_abs_rel_err <= tolerance && !report.stale;
        if !ok {
            eprintln!(
                "FAIL fresh: median |rel_err| {:.4} (tolerance {tolerance}), stale={}",
                report.median_abs_rel_err, report.stale
            );
            failed = true;
        }
        reports.push(("fresh", report));
    }
    if mode == "shifted" || mode == "both" {
        let shifted_config = SelfCheckConfig {
            name: format!("{}.shifted", config.name),
            ..config.clone()
        };
        let report = selfcheck::shifted(addr, &shifted_config).expect("shifted run");
        if !report.stale {
            eprintln!(
                "FAIL shifted: stale flag did not flip after {} observations \
                 (mean rel_err {:.4})",
                report.observations, report.mean_rel_err
            );
            failed = true;
        }
        reports.push(("shifted", report));
    }

    // Self-hosted runs also prove the metric families moved: the whole
    // point of the observatory is that drift is visible from /metrics
    // without asking the server anything over the estimation protocol.
    if let Some(metrics_addr) = metrics_addr {
        let metrics = http_get(metrics_addr, "/metrics");
        let observations =
            series_value(&metrics, "epfis_accuracy_observations_total").unwrap_or(0.0);
        if observations <= 0.0 {
            eprintln!("FAIL: epfis_accuracy_observations_total did not move");
            failed = true;
        }
        if (mode == "shifted" || mode == "both")
            && series_value(&metrics, "epfis_accuracy_stale_entries").unwrap_or(0.0) <= 0.0
        {
            eprintln!("FAIL: epfis_accuracy_stale_entries stayed zero after the shift");
            failed = true;
        }
    }

    let mut out = String::new();
    for (mode, report) in &reports {
        out.push_str(&report.to_json(mode));
        out.push('\n');
    }
    print!("{out}");
    if let Some(path) = opts.get_str("out") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open --out file");
        file.write_all(out.as_bytes()).expect("append reports");
    }

    if let Some(server) = server {
        let mut c = epfis_server::Client::connect(addr).expect("connect for shutdown");
        c.request("SHUTDOWN").ok();
        server.join();
    }
    std::process::exit(if failed { 1 } else { 0 });
}
