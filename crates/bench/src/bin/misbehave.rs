//! A misbehaving epfis-server client, for smoke-testing the hardening
//! layer from CI and the shell. Thin wrapper over `epfis_server::hostile`,
//! so scripts exercise exactly the scenarios the fault-injection test
//! suite does.
//!
//! ```text
//! misbehave --scenario flood --addr HOST:PORT [--bytes N]
//!     stream N newline-less bytes (default 8 MiB); prints how far the
//!     flood got and the server's rejection, exits 0 iff it was rejected
//! misbehave --scenario idle --addr HOST:PORT [--count N] [--hold-ms T]
//!     open N silent connections (default 4) and hold them T ms
//!     (default 2000); prints how each ended
//! misbehave --scenario loris --addr HOST:PORT [--interval-ms T] [--max-ms T]
//!     trickle newline-less bytes; exits 0 iff the server disconnected us
//! misbehave --scenario binflood --addr HOST:PORT [--bytes N]
//!     negotiate binary framing, then declare one N-byte frame (default
//!     8 MiB) and flood its body; exits 0 iff the server rejected the
//!     frame from its header (`ERR limit frame ...`) or cut the connection
//! misbehave --scenario stall --addr HOST:PORT [--copies N] [--max-ms T] [--name E]
//!     commit a tiny entry, pipeline N `FPF` requests that provoke far more
//!     response bytes than the socket buffers hold (default 200 × 10000
//!     curve points), then stop reading — the write-stall that used to pin
//!     a worker forever in a blocking write_all. Exits 0 iff the server
//!     reclaims the connection (reset observed) and still answers PING.
//! misbehave --scenario crashloop --addr HOST:PORT [--rounds N] [--refs N] [--name E]
//!     open an ANALYZE session, stream part of a scan, and vanish without
//!     COMMIT or ABORT — N times in a row (default 10 rounds of 5000
//!     references into entry `crash.ix`). Against `--wal-dir` servers each
//!     drop parks the session and the next BEGIN discards it; either way
//!     the server must stay reachable. Exits 0 iff a final PING succeeds.
//! misbehave --scenario diskfull --addr HOST:PORT [--rounds N] [--name E]
//!     the trip half of the storage-chaos smoke, against a server started
//!     with an `EPFIS_FAULTS` schedule: commit a baseline entry, then
//!     stream ANALYZE sessions until the scripted disk failure fires
//!     (at most N rounds, default 50). Exits 0 iff the server degraded
//!     (`STATS` reports `epfis_server_degraded 1`), the baseline entry still serves
//!     `ESTIMATE`, and a fresh `ANALYZE BEGIN` answers `ERR readonly`.
//! misbehave --scenario recover --addr HOST:PORT [--rounds N] [--name E]
//!     the heal half: issue `RECOVER` until it succeeds (each attempt
//!     re-probes the storage, at most N rounds), then commit a fresh
//!     entry and estimate against it. Exits 0 iff recovery succeeded,
//!     `STATS` reports `epfis_server_degraded 0`, and the fresh commit serves.
//! ```

use epfis_bench::Options;
use epfis_server::hostile;
use std::io::Read;
use std::time::Duration;

/// Every `--scenario` this binary runs, for its usage messages.
const SCENARIOS: &str = "flood|idle|loris|binflood|stall|crashloop|diskfull|recover";

fn main() {
    let opts = Options::from_env();
    let addr = opts
        .get_str("addr")
        .expect("--addr HOST:PORT is required")
        .to_string();
    let Some(scenario) = opts.get_str("scenario") else {
        panic!("--scenario {SCENARIOS} is required (see the doc comment in misbehave.rs)")
    };
    match scenario {
        "flood" => {
            let bytes: u64 = opts.get("bytes", 8 * 1024 * 1024u64);
            let outcome = hostile::flood_without_newline(&addr, bytes).expect("connect");
            println!(
                "flood attempted={bytes} written={} disconnected={} response={:?}",
                outcome.bytes_written, outcome.disconnected, outcome.response
            );
            let rejected = outcome.disconnected
                || outcome
                    .response
                    .as_deref()
                    .is_some_and(|r| r.contains("limit"));
            std::process::exit(if rejected { 0 } else { 1 });
        }
        "idle" => {
            let count: usize = opts.get("count", 4usize);
            let hold = Duration::from_millis(opts.get("hold-ms", 2000u64));
            let conns = hostile::hold_idle_connections(&addr, count).expect("connect");
            std::thread::sleep(hold);
            for (i, mut s) in conns.into_iter().enumerate() {
                s.set_read_timeout(Some(Duration::from_millis(100))).ok();
                let mut response = String::new();
                let _ = s.read_to_string(&mut response);
                println!("idle[{i}] response={:?}", response.trim_end());
            }
        }
        "loris" => {
            let interval = Duration::from_millis(opts.get("interval-ms", 50u64));
            let max = Duration::from_millis(opts.get("max-ms", 10_000u64));
            let outcome = hostile::slow_loris(&addr, interval, max).expect("connect");
            println!(
                "loris written={} disconnected={} response={:?}",
                outcome.bytes_written, outcome.disconnected, outcome.response
            );
            std::process::exit(if outcome.disconnected { 0 } else { 1 });
        }
        "binflood" => {
            let bytes: u64 = opts.get("bytes", 8 * 1024 * 1024u64);
            let declared = u32::try_from(bytes).expect("--bytes must fit u32");
            let outcome = hostile::binary_flood(&addr, declared).expect("connect");
            println!(
                "binflood declared={declared} written={} disconnected={} response={:?}",
                outcome.bytes_written, outcome.disconnected, outcome.response
            );
            let rejected = outcome.disconnected
                || outcome
                    .response
                    .as_deref()
                    .is_some_and(|r| r.contains("limit"));
            std::process::exit(if rejected { 0 } else { 1 });
        }
        "stall" => {
            let copies: usize = opts.get("copies", 200usize);
            let max = Duration::from_millis(opts.get("max-ms", 10_000u64));
            let name = opts.get_str("name").unwrap_or("stall.probe").to_string();
            // Seed an entry so FPF has a curve to render; idempotent if a
            // previous run already committed it.
            let mut client = epfis_server::Client::connect(&*addr).expect("connect");
            client
                .request(&format!("ANALYZE BEGIN {name} table_pages=64"))
                .expect("begin");
            client.request("PAGE 1 0 1 5 2 9 3 13").expect("page");
            client.request("ANALYZE COMMIT").expect("commit");
            drop(client);
            let request = format!("FPF {name} 10000");
            let outcome = hostile::write_stall(&addr, &request, copies, max).expect("connect");
            let survived = epfis_server::Client::connect(&*addr)
                .and_then(|mut c| c.request("PING"))
                .is_ok();
            println!(
                "stall written={} disconnected={} server_alive={survived}",
                outcome.bytes_written, outcome.disconnected
            );
            std::process::exit(if outcome.disconnected && survived {
                0
            } else {
                1
            });
        }
        "crashloop" => {
            let rounds: usize = opts.get("rounds", 10usize);
            let refs: usize = opts.get("refs", 5_000usize);
            let name = opts.get_str("name").unwrap_or("crash.ix").to_string();
            for round in 0..rounds {
                let mut client = epfis_server::Client::connect(&*addr).expect("connect");
                let begin = client
                    .request(&format!("ANALYZE BEGIN {name} table_pages=500"))
                    .expect("begin");
                let mut sent = 0usize;
                'stream: while sent < refs {
                    let mut line = String::from("PAGE");
                    for _ in 0..256 {
                        if sent >= refs {
                            break;
                        }
                        let page = (sent as u32).wrapping_mul(2654435761) % 500;
                        line.push_str(&format!(" {} {page}", sent / 4));
                        sent += 1;
                    }
                    if client.request(&line).is_err() {
                        break 'stream;
                    }
                }
                // Abrupt drop: no COMMIT, no ABORT, just a closed socket.
                drop(client);
                println!("crashloop[{round}] begin={:?} sent={sent}", begin.first());
            }
            let survived = epfis_server::Client::connect(&*addr)
                .and_then(|mut c| c.request("PING"))
                .is_ok();
            println!("crashloop rounds={rounds} server_alive={survived}");
            std::process::exit(if survived { 0 } else { 1 });
        }
        "diskfull" => {
            let rounds: usize = opts.get("rounds", 50usize);
            let name = opts.get_str("name").unwrap_or("chaos").to_string();
            let mut client = epfis_server::Client::connect(&*addr).expect("connect");
            // Baseline entry for the degraded read path. Tolerate the fault
            // firing this early — the degraded assertions below then run
            // without the estimate check.
            let base = format!("{name}.base");
            let base_ok = client
                .request(&format!("ANALYZE BEGIN {base} table_pages=64"))
                .and_then(|_| client.request("PAGE 1 0 1 5 2 9 3 13 4 17"))
                .and_then(|_| client.request("ANALYZE COMMIT"))
                .is_ok();
            // Stream sessions until the scripted disk failure fires.
            let mut tripped = !base_ok;
            'fill: for round in 0..rounds {
                if tripped {
                    break;
                }
                if client
                    .request(&format!("ANALYZE BEGIN {name}.fill{round} table_pages=500"))
                    .is_err()
                {
                    tripped = true;
                    break;
                }
                let mut sent = 0usize;
                while sent < 4_000 {
                    let mut line = String::from("PAGE");
                    for _ in 0..250 {
                        let page = (sent as u32).wrapping_mul(2654435761) % 500;
                        line.push_str(&format!(" {} {page}", sent / 4));
                        sent += 1;
                    }
                    if client.request(&line).is_err() {
                        tripped = true;
                        break 'fill;
                    }
                }
                if client.request("ANALYZE COMMIT").is_err() {
                    tripped = true;
                }
            }
            let degraded = client
                .request("STATS")
                .is_ok_and(|lines| lines.iter().any(|l| l == "epfis_server_degraded 1"));
            let reads_serve =
                !base_ok || client.request(&format!("ESTIMATE {base} 0.5 10")).is_ok();
            let readonly = matches!(
                client.request(&format!("ANALYZE BEGIN {name}.probe")),
                Err(epfis_server::ClientError::Server(ref m)) if m.contains("readonly")
            );
            println!(
                "diskfull base_ok={base_ok} tripped={tripped} degraded={degraded} \
                 reads_serve={reads_serve} readonly={readonly}"
            );
            std::process::exit(if tripped && degraded && reads_serve && readonly {
                0
            } else {
                1
            });
        }
        "recover" => {
            let rounds: usize = opts.get("rounds", 50usize);
            let name = opts.get_str("name").unwrap_or("chaos").to_string();
            let mut client = epfis_server::Client::connect(&*addr).expect("connect");
            let mut recovered = false;
            for round in 0..rounds {
                match client.request("RECOVER") {
                    Ok(lines) => {
                        println!("recover[{round}] {:?}", lines.last());
                        recovered = true;
                        break;
                    }
                    Err(e) => println!("recover[{round}] {e}"),
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let healthy = client
                .request("STATS")
                .is_ok_and(|lines| lines.iter().any(|l| l == "epfis_server_degraded 0"));
            let fresh = format!("{name}.fresh");
            let committed = client
                .request(&format!("ANALYZE BEGIN {fresh} table_pages=64"))
                .and_then(|_| client.request("PAGE 1 0 1 5 2 9 3 13 4 17"))
                .and_then(|_| client.request("ANALYZE COMMIT"))
                .and_then(|_| client.request(&format!("ESTIMATE {fresh} 0.5 10")))
                .is_ok();
            println!("recover recovered={recovered} healthy={healthy} fresh_commit={committed}");
            std::process::exit(if recovered && healthy && committed {
                0
            } else {
                1
            });
        }
        other => panic!("unknown --scenario {other:?} ({SCENARIOS})"),
    }
}
