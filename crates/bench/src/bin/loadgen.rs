//! Open-loop load generator for a live epfis server (see
//! `epfis_bench::loadgen` for the measurement contract: arrivals on a fixed
//! schedule, latency from *scheduled* arrival, so queueing delay lands in
//! the percentiles instead of being coordinated away).
//!
//! ```text
//! loadgen --addr HOST:PORT [--rate R] [--duration-ms T] [--conns N]
//!         [--idle-conns N] [--request CMD]
//!     drives R requests/s of CMD (default PING) for T ms over N pipelined
//!     connections (default 1000 req/s, 2000 ms, 64 conns), optionally
//!     underneath N extra idle connections, and prints a one-line JSON
//!     report. Exits 1 when any request errors or none completes.
//! ```

use epfis_bench::loadgen::{run, LoadgenConfig};
use epfis_bench::Options;
use std::net::ToSocketAddrs;
use std::time::Duration;

fn main() {
    let opts = Options::from_env();
    opts.reject_unknown(&[
        "addr",
        "rate",
        "duration-ms",
        "conns",
        "idle-conns",
        "request",
    ]);
    let addr = opts
        .get_str("addr")
        .expect("--addr HOST:PORT is required")
        .to_socket_addrs()
        .expect("resolve --addr")
        .next()
        .expect("no address for --addr");
    let config = LoadgenConfig {
        addr,
        rate: opts.get("rate", 1000.0f64),
        duration: Duration::from_millis(opts.get("duration-ms", 2000u64)),
        conns: opts.get("conns", 64usize),
        idle_conns: opts.get("idle-conns", 0usize),
        request: opts.get_str("request").unwrap_or("PING").to_string(),
    };
    let report = run(&config).expect("load generation failed");
    println!("{}", report.to_json());
    if report.errors > 0 || report.completed == 0 {
        eprintln!(
            "FAIL: {} errors, {} of {} requests completed",
            report.errors, report.completed, report.sent
        );
        std::process::exit(1);
    }
}
