//! `perfbench`: the EPFIS server's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, starts `PATH serve` as a
//! child process (default flags plus the durability flags the workload
//! names), drives it from this one client process, checks every answer
//! against its in-process value, and prints a report whose last line is one
//! JSON object. With `--trace 1` the run measures twice, without and with
//! spans, then replays the inputs through each layer's public functions
//! in-process and reports the per-layer metrics. See `perfbench/README.md`.

mod inputs;
mod layers;
mod load;
mod server;
mod stats;
mod trace;

use inputs::{Inputs, Workload};
use load::Tally;
use server::{Server, WorkDir};
use stats::{median, percentile_of, Latency};
use std::error::Error;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Rounds of phases per measurement (see [`e2e_phases`]).
const ROUNDS: usize = 30;
/// A set-up probe opens every this many rounds, so `setup_s` is the median
/// of `ROUNDS / PROBE_EVERY + 1` start-ups.
const PROBE_EVERY: usize = 3;
/// Rate of the open-loop `ESTIMATE` schedule.
const OPEN_LOOP_HZ: f64 = 20_000.0;
/// Closed-loop binary phase: requests per pipelined batch.
const BINARY_DEPTH: usize = 128;
/// Closed-loop text phase: lines per pipelined batch.
const TEXT_WINDOW: usize = 64;
/// A rate metric reports the rate met or beaten in four rounds (or
/// sessions) of five, the 20th percentile; a time metric the 80th. This
/// host's CPU speed flips between two levels about 1.6× apart and stays at
/// each for seconds, so a run's median sits between the two and moves with
/// the share of the run spent at each, while the slower level holds in more
/// than a fifth of every run. A fifth rather than a tenth lets a run shrug
/// off a few rounds that a longer host stall spoils.
const RATE_PERCENTILE: f64 = 20.0;
const TIME_PERCENTILE: f64 = 80.0;
/// A run whose open-loop generator sent its median request later than
/// this after it was due did not offer the scheduled load, and is invalid.
/// (Its p99 is reported, not bounded: the host's scheduler stalls every
/// thread of the client for milliseconds at times.)
const SEND_LAG_P50_BOUND_US: f64 = 1000.0;
/// Traced-run probes: one-in-flight round trips, and the same next to
/// back-to-back commits on a second connection.
const RTT_TIME: Duration = Duration::from_millis(1000);
const OVERLAP_TIME: Duration = Duration::from_millis(1500);
/// Scratch files (catalogs, WAL) live here, under the working directory.
const WORK_ROOT: &str = ".bench_work";
/// Span dumps of traced runs are written here.
const OUT_ROOT: &str = ".bench_out";

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One end-to-end measurement of a workload against a running server.
struct E2e {
    estimate_rps: f64,
    text_rps: f64,
    /// The median open-loop latency of each round, at [`TIME_PERCENTILE`]
    /// over the rounds.
    estimate_p50_us: f64,
    /// Every open-loop request of the run.
    latency: Latency,
    lag: Latency,
    ingest_refs_per_s: f64,
    commit_ms_p50: f64,
    sessions: usize,
    tally: Tally,
}

/// The durable state one server runs on, and its command line.
struct ServerState {
    catalog: PathBuf,
    wal: Option<PathBuf>,
    cmdline: Vec<String>,
}

impl ServerState {
    fn new(bin: &Path, dir: PathBuf, wal: bool) -> io::Result<ServerState> {
        std::fs::create_dir_all(&dir)?;
        let catalog = dir.join("catalog.scat");
        let wal = wal.then(|| dir.join("wal"));
        let cmdline = server::command_line(bin, &catalog, wal.as_deref());
        Ok(ServerState {
            catalog,
            wal,
            cmdline,
        })
    }

    /// Back to the generated catalog file and an empty WAL directory.
    fn reset(&self, inp: &Inputs) -> io::Result<()> {
        std::fs::write(&self.catalog, &inp.catalog_text)?;
        if let Some(dir) = &self.wal {
            if dir.exists() {
                std::fs::remove_dir_all(dir)?;
            }
        }
        Ok(())
    }

    /// Starts a server from the generated state and records its start-up
    /// (`setup_s`) as spans and as a sample.
    fn start(
        &self,
        inp: &Inputs,
        rep: usize,
        setups: &mut Vec<f64>,
        tracer: &mut Tracer,
    ) -> io::Result<Server> {
        self.reset(inp)?;
        let s0 = Instant::now();
        let (srv, st) = Server::start(&self.cmdline)?;
        let ready = s0 + Duration::from_secs_f64(st.total_s);
        let listening = s0 + Duration::from_secs_f64(st.listening_s);
        let span = tracer.record("setup.start", s0, ready, None, rep as u64, 1);
        tracer.record("setup.listening", s0, listening, Some(span), rep as u64, 1);
        tracer.record(
            "setup.first_ping",
            listening,
            ready,
            Some(span),
            rep as u64,
            1,
        );
        setups.push(st.total_s);
        Ok(srv)
    }
}

/// The measured phases: closed-loop binary and text estimates, then the
/// open-loop schedule and the `ANALYZE` sessions, one after the other or
/// (mixed workloads) at the same time on two connections. The phases take
/// turns over [`ROUNDS`] short rounds, every [`PROBE_EVERY`]th opened by a
/// set-up probe (a second server started from the generated state and
/// stopped again), so every metric samples the whole run rather than a few
/// stretches of it: this host's speed drifts over seconds. Each round
/// gives one closed-loop rate, one median open-loop latency and one median
/// commit time (if a commit ended in it); each session one ingest rate.
/// Each metric reports the slow side of them: see [`RATE_PERCENTILE`].
fn e2e_phases(
    w: &Workload,
    inp: &Inputs,
    addr: SocketAddr,
    probe: &ServerState,
    setups: &mut Vec<f64>,
    secs: f64,
    tracer: &mut Tracer,
) -> io::Result<E2e> {
    let p = w.phases;
    let slice = |share: f64| Duration::from_secs_f64(secs * share / ROUNDS as f64);
    // Connections live for the whole measurement, as an optimizer's would:
    // one binary connection carries the closed loop and then the open loop,
    // another the ANALYZE sessions. One connection per closed loop keeps it
    // at two busy threads (client and server worker) on this 2-vCPU host.
    let mut est_conn = load::BinConn::connect(addr)?;
    let mut analyze_conn = load::BinConn::connect(addr)?;
    let mut text_conn = load::TextConn::connect(addr)?;
    let (mut binary_rates, mut text_rates) = (Vec::new(), Vec::new());
    let (mut latency, mut lag) = (Vec::new(), Vec::new());
    let (mut round_p50_us, mut round_commit_ms) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut analyze = load::Analyze::default();
    let mut ingest_used = Duration::ZERO;
    let n = inp.stream.len();
    for round in 1..=ROUNDS {
        if (round - 1) % PROBE_EVERY == 0 {
            probe.start(inp, round, setups, tracer)?.stop()?;
        }
        let start = round * n / ROUNDS;
        let binary = load::closed_binary(
            &mut est_conn,
            &inp.stream,
            start,
            BINARY_DEPTH,
            slice(p.binary),
            tracer,
        )?;
        binary_rates.push(binary.rate);
        tally.merge(binary.tally);
        let text = load::closed_text(
            &mut text_conn,
            &inp.stream,
            start + n / 3,
            TEXT_WINDOW,
            slice(p.text),
            tracer,
        )?;
        text_rates.push(text.rate);
        tally.merge(text.tally);
        let open_start = start + 2 * n / 3;
        let commits_before = analyze.commit_ms.len();
        let open = if p.mixed {
            let mut tr = tracer.fork();
            let (open, ingest) = std::thread::scope(|sc| {
                let ingest = sc.spawn(|| {
                    load::analyze_loop(
                        &mut analyze_conn,
                        &inp.ingest,
                        slice(p.ingest),
                        &mut analyze,
                        &mut tr,
                    )
                });
                let open = load::open_loop(
                    &mut est_conn,
                    &inp.stream,
                    open_start,
                    OPEN_LOOP_HZ,
                    slice(p.open),
                    tracer,
                );
                (open, ingest.join().expect("ANALYZE thread panicked"))
            });
            tracer.absorb(tr);
            ingest?;
            open?
        } else {
            let open = load::open_loop(
                &mut est_conn,
                &inp.stream,
                open_start,
                OPEN_LOOP_HZ,
                slice(p.open),
                tracer,
            )?;
            // Sessions run until they have used their share of the rounds
            // so far; a long session borrows from the next rounds.
            let budget = slice(p.ingest) * round as u32;
            if ingest_used < budget {
                let started = Instant::now();
                load::analyze_loop(
                    &mut analyze_conn,
                    &inp.ingest,
                    budget - ingest_used,
                    &mut analyze,
                    tracer,
                )?;
                ingest_used += started.elapsed();
            }
            open
        };
        round_p50_us.push(median_or_nan(open.latency_us.clone()));
        latency.extend(open.latency_us);
        lag.extend(open.lag_us);
        tally.merge(open.tally);
        if analyze.commit_ms.len() > commits_before {
            round_commit_ms.push(median_or_nan(analyze.commit_ms[commits_before..].to_vec()));
        }
    }
    tally.merge(std::mem::take(&mut analyze.tally));
    Ok(E2e {
        estimate_rps: percentile_or_nan(binary_rates, RATE_PERCENTILE),
        text_rps: percentile_or_nan(text_rates, RATE_PERCENTILE),
        estimate_p50_us: percentile_or_nan(round_p50_us, TIME_PERCENTILE),
        latency: Latency::of(&mut latency),
        lag: Latency::of(&mut lag),
        sessions: analyze.commits.len(),
        ingest_refs_per_s: percentile_or_nan(analyze.refs_per_s, RATE_PERCENTILE),
        commit_ms_p50: percentile_or_nan(round_commit_ms, TIME_PERCENTILE),
        tally,
    })
}

fn percentile_or_nan(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        percentile_of(&mut v, p)
    }
}

fn median_or_nan(v: Vec<f64>) -> f64 {
    percentile_or_nan(v, 50.0)
}

/// One measurement: set-up, the phases, peak memory.
struct Measured {
    setup_s: f64,
    setups: usize,
    e2e: E2e,
    rss_mib: f64,
}

/// Starts the serving server, runs the phases against it and reads its
/// peak memory; returns the server still running.
fn measure(
    w: &Workload,
    inp: &Inputs,
    serving: &ServerState,
    probe: &ServerState,
    secs: f64,
    tracer: &mut Tracer,
) -> io::Result<(Measured, Server)> {
    let mut setups = Vec::new();
    let srv = serving.start(inp, 0, &mut setups, tracer)?;
    let e2e = e2e_phases(w, inp, srv.addr, probe, &mut setups, secs, tracer)?;
    let rss_mib = srv.rss_peak_mib()?;
    Ok((
        Measured {
            setups: setups.len(),
            setup_s: median(&mut setups),
            e2e,
            rss_mib,
        },
        srv,
    ))
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn e2e_metrics(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", m.setup_s, "s"),
        ("estimate_rps", m.e2e.estimate_rps, "req/s"),
        ("text_estimate_rps", m.e2e.text_rps, "req/s"),
        ("estimate_p50_us", m.e2e.estimate_p50_us, "us"),
        ("ingest_refs_per_s", m.e2e.ingest_refs_per_s, "refs/s"),
        ("commit_ms_p50", m.e2e.commit_ms_p50, "ms"),
        ("server_rss_peak_mb", m.rss_mib, "MiB"),
    ]
}

fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    let w = inputs::workload(&args.workload).ok_or_else(|| {
        let names: Vec<_> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?} (one of {names:?})", args.workload)
    })?;
    if !args.server.is_file() {
        return Err(format!("server binary {} not found", args.server.display()).into());
    }
    let generated = Instant::now();
    let inp = inputs::generate(&w, args.seed);
    let generate_s = generated.elapsed().as_secs_f64();

    let work = WorkDir::create(Path::new(WORK_ROOT), w.name)?;
    let serving = ServerState::new(&args.server, work.0.join("serve"), w.wal)?;
    let probe = ServerState::new(&args.server, work.0.join("probe"), w.wal)?;
    let mut report = run_facts(args, &serving.cmdline);
    report.push(format!(
        "inputs generated in {generate_s:.3} s (not part of setup_s)"
    ));

    let origin = Instant::now();
    let mut plain = Tracer::new(origin, false);
    let (untraced, srv) = measure(&w, &inp, &serving, &probe, args.seconds, &mut plain)?;
    srv.stop()?;
    let mut tally = untraced.e2e.tally.clone();
    describe(&mut report, "untraced", &untraced);

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new(origin, true);
        let (traced, srv) = measure(&w, &inp, &serving, &probe, args.seconds, &mut tracer)?;
        describe(&mut report, "traced", &traced);
        tally.merge(traced.e2e.tally.clone());
        let (probes, rtt_gap_us) =
            server_probes(&inp, srv.addr, args.seed, &mut tally, &mut tracer)?;
        srv.stop()?;
        let layers = layers::replay(&inp, &work.0, &mut tracer)?;

        for ((name, plain_v, unit), (_, traced_v, _)) in
            e2e_metrics(&untraced).into_iter().zip(e2e_metrics(&traced))
        {
            metrics.push((format!("trace_overhead.{name}"), traced_v - plain_v, unit));
        }
        let in_process_ns = layers["framing.decode_estimate_ns"]
            + layers["catalog.lookup_ns"]
            + layers["est_io.estimate_ns"]
            + layers["framing.encode_f64_ns"];
        metrics.push((
            "session.estimate_self_us".into(),
            rtt_gap_us - in_process_ns / 1e3,
            "us",
        ));
        for (name, v) in probes.iter().chain(&layers) {
            metrics.push((name.to_string(), *v, layer_unit(name)));
        }
        metrics.push(("e2e.estimate_p90_us".into(), untraced.e2e.latency.p90, "us"));
        metrics.push(("e2e.estimate_p99_us".into(), untraced.e2e.latency.p99, "us"));
        metrics.push(("loadgen.send_lag_p50_us".into(), untraced.e2e.lag.p50, "us"));
        metrics.push(("loadgen.send_lag_p99_us".into(), untraced.e2e.lag.p99, "us"));
        metrics.sort_by(|a, b| a.0.cmp(&b.0));

        report.push("self time per span name (spans, total ms):".into());
        for (name, (n, ns)) in tracer.self_time_ns() {
            report.push(format!("  {name:<40} {n:>8} {:>12.3}", ns as f64 / 1e6));
        }
        std::fs::create_dir_all(OUT_ROOT)?;
        let dump = Path::new(OUT_ROOT).join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
        tracer.write_tsv(&dump, &report)?;
        report.push(format!("spans written to {}", dump.display()));
    } else {
        for (name, v, unit) in e2e_metrics(&untraced) {
            metrics.push((name.to_string(), v, unit));
        }
    }

    let mut problems = Vec::new();
    if untraced.e2e.lag.p50 > SEND_LAG_P50_BOUND_US {
        problems.push(format!(
            "invalid run: open-loop send lag p50 {:.1} us exceeds the {SEND_LAG_P50_BOUND_US} us bound",
            untraced.e2e.lag.p50
        ));
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {name} was not measured"));
        }
    }
    if tally.failed > 0 {
        problems.push(format!(
            "{} of {} requests failed",
            tally.failed, tally.attempted
        ));
    }
    report.push(format!(
        "failed_share {} ({} of {} requests: ERR, SERVER_BUSY, lost, or answers that differ from in-process)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    for note in &tally.notes {
        report.push(format!("failure: {note}"));
    }
    for line in &report {
        println!("{line}");
    }
    for p in &problems {
        println!("{p}");
    }
    println!("{}", result_json(problems.is_empty(), &tally, &metrics));
    Ok(())
}

/// One-in-flight round trips against the traced server: `PING` and
/// `ESTIMATE` alone, then `ESTIMATE`s next to back-to-back 200k-reference
/// `ANALYZE` sessions on a second connection, split by whether each
/// overlapped a `COMMIT`. Also returns the median `ESTIMATE` − `PING` gap
/// over adjacent pairs, in µs.
fn server_probes(
    inp: &Inputs,
    addr: SocketAddr,
    seed: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> io::Result<(layers::Metrics, f64)> {
    let mut m = layers::Metrics::new();
    let mut conn = load::BinConn::connect(addr)?;
    let (mut ping, mut est) = load::rtt(&mut conn, &inp.stream, RTT_TIME, tally, tracer)?;
    let gap: Vec<f64> = est.iter().zip(&ping).map(|(e, p)| e - p).collect();
    m.insert("server.ping_rtt_us", median(&mut ping));
    m.insert("server.estimate_rtt_us", median(&mut est));

    let small;
    let probe_inputs = if inp.ingest[0].refs > 1_000_000 {
        small = [inputs::probe_input(seed)];
        &small[..]
    } else {
        &inp.ingest[..]
    };
    let mut analyze_conn = load::BinConn::connect(addr)?;
    let mut tr = tracer.fork();
    let mut analyze = load::Analyze::default();
    let (spans, ingest) = std::thread::scope(|sc| {
        let ingest = sc.spawn(|| {
            load::analyze_loop(
                &mut analyze_conn,
                probe_inputs,
                OVERLAP_TIME,
                &mut analyze,
                &mut tr,
            )
        });
        let spans = load::estimate_rtt(
            &mut conn,
            &inp.stream,
            OVERLAP_TIME,
            "wire.estimate_rtt_mixed",
            tally,
            tracer,
        );
        (spans, ingest.join().expect("ANALYZE thread panicked"))
    });
    tracer.absorb(tr);
    ingest?;
    tally.merge(analyze.tally);
    let (mut overlap, mut alone) = (Vec::new(), Vec::new());
    for (start, end) in spans? {
        let us = (end - start).as_secs_f64() * 1e6;
        if analyze
            .commits
            .iter()
            .any(|&(c0, c1)| c0 < end && start < c1)
        {
            overlap.push(us);
        } else {
            alone.push(us);
        }
    }
    m.insert(
        "server.estimate_rtt_us.overlap_commit",
        median_or_nan(overlap),
    );
    m.insert("server.estimate_rtt_us.no_commit", median_or_nan(alone));
    Ok((m, median_or_nan(gap)))
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ns_per_ref") {
        "ns/ref"
    } else if name.ends_with("_ns") || name.contains("_ns.") {
        "ns"
    } else if name.ends_with("_us") || name.contains("_us.") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.contains("bytes_per_ref") {
        "bytes/ref"
    } else if name.contains("persist_bytes") {
        "bytes"
    } else {
        "count"
    }
}

fn describe(report: &mut Vec<String>, label: &str, m: &Measured) {
    let e = &m.e2e;
    report.push(format!("[{label}] end-to-end:"));
    let counts = [
        format!("median of {} start-ups", m.setups),
        format!(
            "1 conn, {} batches of {BINARY_DEPTH} in flight, p{RATE_PERCENTILE} of {ROUNDS} round rates",
            load::BATCHES_IN_FLIGHT
        ),
        format!(
            "1 conn, {} batches of {TEXT_WINDOW} in flight, p{RATE_PERCENTILE} of {ROUNDS} round rates",
            load::BATCHES_IN_FLIGHT
        ),
        format!(
            "n={}, {OPEN_LOOP_HZ} req/s open loop, timed from the scheduled send; p{TIME_PERCENTILE} of {ROUNDS} round medians",
            e.latency.count
        ),
        format!("p{RATE_PERCENTILE} of n={} sessions", e.sessions),
        format!("n={} commits; p{TIME_PERCENTILE} of per-round medians", e.sessions),
        "VmHWM at run end".to_string(),
    ];
    for ((name, v, unit), how) in e2e_metrics(m).into_iter().zip(counts) {
        report.push(format!("  {name:<20} {v:>16.4} {unit:<7} ({how})"));
    }
    report.push(format!(
        "  open-loop estimate over all samples: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        e.latency.p50, e.latency.p90, e.latency.p99
    ));
    report.push(format!(
        "  open-loop send lag p50 {:.1} us, p99 {:.1} us (n={}, bound p50 <= {SEND_LAG_P50_BOUND_US} us)",
        e.lag.p50, e.lag.p99, e.lag.count
    ));
}

/// Run facts: host, source, server command line and seed.
fn run_facts(args: &Args, cmdline: &[String]) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let commit = if Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}",
            args.workload, args.seed, args.seconds, args.trace as u8
        ),
        format!("host nproc={nproc} cpu={cpu:?} kernel={kernel}"),
        format!("source git={commit} crates_digest={:08x}", source_digest()),
        format!("server {}", cmdline.join(" ")),
    ]
}

/// CRC32C over every file under `crates/` plus the root manifests, in path
/// order: identifies the measured source when there is no git metadata.
fn source_digest() -> u32 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut lines = String::new();
    for f in files {
        let crc = std::fs::read(&f).map_or(0, |b| epfis_wal::crc32c(&b));
        lines.push_str(&format!("{} {crc:08x}\n", f.display()));
    }
    epfis_wal::crc32c(lines.as_bytes())
}

fn result_json(correct: bool, tally: &Tally, metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}
