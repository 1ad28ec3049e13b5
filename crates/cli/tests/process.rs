//! What only a real `epfis serve` process can show: signals, crashes,
//! restarts on the same port and WAL, the `EPFIS_FAULTS` hook of the stock
//! binary, and the `epfis client` / `epfis drift` front ends.
//!
//! Every server here is a child process started by `support::spawn_serve`
//! and killed on drop; every conversation goes through the `epfis` binary
//! unless the scenario needs to branch on an error mid-conversation.

mod support;

use epfis_obs::series_value;
use std::io::Write;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use support::{client, script, spawn_serve, stdout, temp_dir, EPFIS};

/// The tiny clustered index every smoke script commits.
fn smoke_script(name: &str) -> String {
    format!(
        "ANALYZE BEGIN {name} table_pages=4\n\
         PAGE 1 0 1 0 2 1 3 2 4 3\n\
         ANALYZE COMMIT\n\
         ESTIMATE {name} 0.5 2\n\
         STATS\n"
    )
}

/// A deterministic scan of `refs` references over `pages` pages, four per
/// key, `per_line` references per `PAGE` line.
fn page_lines(refs: u64, per_line: usize, pages: u64) -> Vec<String> {
    (0..refs)
        .collect::<Vec<_>>()
        .chunks(per_line)
        .map(|chunk| {
            let mut line = String::from("PAGE");
            for i in chunk {
                line.push_str(&format!(" {} {}", i / 4, (i * 2654435761) % pages));
            }
            line
        })
        .collect()
}

/// The 400-reference scan the crash and retry cases split in half.
fn scan_lines() -> Vec<String> {
    page_lines(400, 50, 97)
}

/// A script of `ANALYZE <head>`, `lines`, and an optional trailer.
fn session(head: &str, lines: &[String], tail: &str) -> String {
    let mut script = format!("ANALYZE {head}\n");
    for line in lines {
        script.push_str(line);
        script.push('\n');
    }
    script.push_str(tail);
    script
}

/// The statistics part of a `committed NAME epoch=N ...` line.
fn committed_stats(output: &str, name: &str) -> String {
    let prefix = format!("committed {name} epoch=");
    let line = output
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in {output:?}"));
    line.split_once(' ')
        .and_then(|(_, rest)| rest.split_once(' '))
        .and_then(|(_, rest)| rest.split_once(' '))
        .map_or("", |(_, stats)| stats)
        .to_string()
}

fn has_line(output: &str, line: &str) -> bool {
    output.lines().any(|l| l == line)
}

/// The families an operator's dashboards depend on; each must be on
/// `/metrics` from the first scrape.
const REQUIRED_FAMILIES: [&str; 16] = [
    "epfis_server_requests_total",
    "epfis_server_request_errors_total",
    "epfis_server_request_duration_us_bucket",
    "epfis_server_request_duration_us_sum",
    "epfis_server_request_duration_us_count",
    "epfis_server_connections_total",
    "epfis_server_connections_active",
    "epfis_server_connections_shed_total",
    "epfis_server_limit_rejections_total",
    "epfis_server_sessions_disconnected_total",
    "epfis_server_bytes_in_total",
    "epfis_server_bytes_out_total",
    "epfis_server_catalog_epoch",
    "epfis_server_catalog_entries",
    "epfis_analyzer_refs_total",
    "epfis_analyzer_active_sessions",
];

/// SIGTERM is not caught: the process dies by the signal, and the atomic
/// catalog persist leaves a file the next server loads.
#[test]
fn sigterm_kills_by_signal_and_the_restart_shows_the_commit() {
    let dir = temp_dir("sigterm");
    let catalog = dir.join("smoke.scat");
    let catalog = catalog.to_str().unwrap();
    let mut server = spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--catalog",
            catalog,
        ],
        &[],
    );
    let out = script(&server.addr, &[], &smoke_script("smoke.ix"));
    assert!(out.contains("committed smoke.ix epoch=1"), "{out}");
    let estimate_series = "epfis_server_requests_total{command=\"ESTIMATE\"}";
    assert!(has_line(&out, &format!("{estimate_series} 1")), "{out}");

    let (status, health) = server.http_get("/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let (status, metrics) = server.http_get("/metrics");
    assert_eq!(status, 200);
    for family in REQUIRED_FAMILIES {
        assert!(
            metrics.lines().any(|l| l.starts_with(family)),
            "missing family {family}"
        );
    }
    // STATS and the exposition render one registry: the same series reads
    // the same count on both surfaces.
    assert_eq!(
        series_value(&metrics, estimate_series),
        series_value(&out, estimate_series)
    );

    let status = server.signal("-TERM");
    assert_eq!(status.signal(), Some(15), "{status}");

    // The restart also takes the governance flags an operator tunes.
    let mut restarted = spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--catalog",
            catalog,
            "--max-line-bytes",
            "65536",
            "--idle-timeout-ms",
            "120000",
            "--max-connections",
            "20000",
        ],
        &[],
    );
    let show = restarted.send("SHOW");
    assert!(show.contains("smoke.ix epoch=1"), "{show}");
    restarted.shutdown();
}

/// SIGKILL mid-session with a WAL: the restart replays the log, parks the
/// interrupted session, and `ANALYZE RESUME` plus the rest of the scan
/// commits exactly what an uninterrupted session commits. Then a loop of
/// abandoned sessions on one name must leave exactly one parked.
#[test]
fn sigkill_mid_session_replays_and_resume_commits_identically() {
    let dir = temp_dir("crash");
    let catalog = dir.join("crash.scat");
    let wal = dir.join("wal");
    let args = [
        "--addr",
        "127.0.0.1:0",
        "--catalog",
        catalog.to_str().unwrap(),
        "--wal-dir",
        wal.to_str().unwrap(),
    ];
    let scan = scan_lines();
    let mut server = spawn_serve(&args, &[]);

    let clean = script(
        &server.addr,
        &[],
        &session("BEGIN clean.ix table_pages=97", &scan, "ANALYZE COMMIT\n"),
    );
    let clean = committed_stats(&clean, "clean.ix");

    // Half the scan, then the client vanishes without COMMIT: the WAL
    // parks the session. Then the server dies mid-flight.
    script(
        &server.addr,
        &[],
        &session("BEGIN crash.ix table_pages=97", &scan[..4], ""),
    );
    server.await_series("epfis_wal_parked_sessions", 1.0);
    server.kill();

    let mut server = spawn_serve(&args, &[]);
    let stats = server.send("STATS");
    let replayed = series_value(&stats, "epfis_wal_replay_records_total").unwrap();
    assert!(replayed >= 1.0, "nothing replayed: {stats}");
    assert_eq!(
        series_value(&stats, "epfis_wal_parked_sessions"),
        Some(1.0),
        "{stats}"
    );
    let resumed = script(
        &server.addr,
        &[],
        &session("RESUME crash.ix", &scan[4..], "ANALYZE COMMIT\n"),
    );
    assert!(has_line(&resumed, "resumed crash.ix refs=200"), "{resumed}");
    assert_eq!(committed_stats(&resumed, "crash.ix"), clean);

    // Repeated mid-session crashes on one name: each BEGIN supersedes the
    // parked session before it, so exactly one stays parked.
    let abandoned = session(
        "BEGIN crash.ix table_pages=500",
        &page_lines(2000, 256, 500),
        "",
    );
    for _ in 0..5 {
        script(&server.addr, &[], &abandoned);
    }
    assert_eq!(server.send("PING"), "pong");
    server.await_series("epfis_wal_parked_sessions", 1.0);
    server.shutdown();
}

/// A stock binary under `EPFIS_FAULTS`: the scripted disk-full flips the
/// server read-only while estimates keep serving, the health probe fails,
/// and `RECOVER` heals it once the fail-once fault has passed.
#[test]
fn epfis_faults_degrades_the_stock_binary_and_recover_heals_it() {
    let dir = temp_dir("chaos");
    let mut server = spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--catalog",
            dir.join("chaos.scat").to_str().unwrap(),
            "--wal-dir",
            dir.join("wal").to_str().unwrap(),
        ],
        &[(
            "EPFIS_FAULTS",
            "op=sync_data kind=enospc after=40 times=1 path=wal",
        )],
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.stderr().contains("EPFIS_FAULTS is set") {
        assert!(Instant::now() < deadline, "no warning: {}", server.stderr());
        std::thread::sleep(Duration::from_millis(20));
    }

    // Trip: commit a baseline, then stream sessions until the fault fires.
    let mut c = epfis_server::Client::connect(&*server.addr).unwrap();
    c.request("ANALYZE BEGIN chaos.base table_pages=64")
        .unwrap();
    c.request("PAGE 1 0 1 5 2 9 3 13 4 17").unwrap();
    c.request("ANALYZE COMMIT").unwrap();
    let mut tripped = false;
    'fill: for round in 0..50 {
        if c.request(&format!("ANALYZE BEGIN chaos.fill{round} table_pages=500"))
            .is_err()
        {
            tripped = true;
            break;
        }
        for batch in 0..16u32 {
            let mut line = String::from("PAGE");
            for sent in batch * 250..(batch + 1) * 250 {
                line.push_str(&format!(
                    " {} {}",
                    sent / 4,
                    sent.wrapping_mul(2654435761) % 500
                ));
            }
            if c.request(&line).is_err() {
                tripped = true;
                break 'fill;
            }
        }
        if c.request("ANALYZE COMMIT").is_err() {
            tripped = true;
            break;
        }
    }
    assert!(tripped, "the scripted fault never fired");
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_server_degraded"), Some(1.0));
    c.request("ESTIMATE chaos.base 0.5 10")
        .expect("reads serve while degraded");
    match c.request("ANALYZE BEGIN chaos.probe") {
        Err(epfis_server::ClientError::Server(m)) => assert!(m.contains("readonly"), "{m}"),
        other => panic!("ingest must answer ERR readonly, got {other:?}"),
    }
    let (status, health) = server.http_get("/healthz");
    assert_eq!(status, 503, "{health}");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    let (_, metrics) = server.http_get("/metrics");
    assert!(has_line(&metrics, "epfis_server_degraded 1"), "{metrics}");

    // Heal: each RECOVER re-probes the storage.
    let mut recovered = false;
    for _ in 0..50 {
        if c.request("RECOVER").is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "RECOVER never succeeded");
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_server_degraded"), Some(0.0));
    c.request("ANALYZE BEGIN chaos.fresh table_pages=64")
        .unwrap();
    c.request("PAGE 1 0 1 5 2 9 3 13 4 17").unwrap();
    c.request("ANALYZE COMMIT").unwrap();
    c.request("ESTIMATE chaos.fresh 0.5 10").unwrap();
    drop(c);
    assert_eq!(server.http_get("/healthz").0, 200);
    assert!(server.send("SHOW").contains("chaos.fresh"));
    server.shutdown();
}

/// `epfis client --retries` rides out a SIGKILL and a restart on the same
/// port and WAL: it reconnects, reattaches with `ANALYZE RESUME`, and
/// prints exactly what a run against an untroubled server prints.
#[test]
fn client_retries_across_a_sigkill_and_restart_bit_identically() {
    let scan = scan_lines();
    let queries = "ESTIMATE r.ix 0.001 1\nESTIMATE r.ix 0.1 25\nESTIMATE r.ix 0.5 50\n\
                   ESTIMATE r.ix 1.0 97\nESTIMATE r.ix 0.333 60\nESTIMATE r.ix 0.9 200\n";
    let whole = session(
        "BEGIN r.ix table_pages=97",
        &scan,
        &format!("ANALYZE COMMIT\n{queries}"),
    );
    let mut clean_server = spawn_serve(&["--addr", "127.0.0.1:0"], &[]);
    let clean = script(&clean_server.addr, &[], &whole);
    clean_server.shutdown();

    let dir = temp_dir("retry");
    let wal = dir.join("wal");
    let mut server = spawn_serve(
        &["--addr", "127.0.0.1:0", "--wal-dir", wal.to_str().unwrap()],
        &[],
    );
    let addr = server.addr.clone();
    let mut retrying = Command::new(EPFIS)
        .args(["client", "--addr", &addr, "--retries", "60"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn epfis client");
    let mut stdin = retrying.stdin.take().unwrap();
    stdin
        .write_all(session("BEGIN r.ix table_pages=97", &scan[..4], "").as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    server.await_series("epfis_server_requests_total{command=\"PAGE\"}", 4.0);
    server.kill();

    let mut server = spawn_serve(&["--addr", &addr, "--wal-dir", wal.to_str().unwrap()], &[]);
    for line in &scan[4..] {
        writeln!(stdin, "{line}").unwrap();
    }
    write!(stdin, "ANALYZE COMMIT\n{queries}").unwrap();
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs(120);
    while retrying.try_wait().unwrap().is_none() {
        if Instant::now() >= deadline {
            let _ = retrying.kill();
            panic!("retrying client never finished");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = retrying.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let retried = stdout(&out);
    assert_eq!(
        committed_stats(&retried, "r.ix"),
        committed_stats(&clean, "r.ix")
    );
    assert_eq!(
        retried.lines().collect::<Vec<_>>(),
        clean.lines().collect::<Vec<_>>()
    );
    server.shutdown();
}

/// STATS series that differ between the text and binary wire by design,
/// each with its reason. Every other output line must match.
const DIFFERS_BY_DESIGN: [(&str, &str); 12] = [
    (
        "epfis_server_binary_upgrades_total ",
        "counts the HELLO BINARY upgrade",
    ),
    (
        "epfis_server_bytes_in_total ",
        "frame headers and the upgrade line",
    ),
    (
        "epfis_server_bytes_out_total ",
        "frame headers and the upgrade ack",
    ),
    (
        "epfis_server_protocol_requests_total{",
        "the text/binary split itself",
    ),
    (
        "epfis_server_requests_total{command=\"HELLO\"}",
        "the upgrade request",
    ),
    (
        "epfis_server_request_duration_us_count{command=\"HELLO\"}",
        "the upgrade request",
    ),
    (
        "epfis_server_request_duration_us{",
        "wall-clock latency quantiles",
    ),
    (
        "epfis_server_request_duration_us_sum{",
        "wall-clock latency sums",
    ),
    (
        "epfis_server_phase_duration_us{",
        "wall-clock phase quantiles",
    ),
    (
        "epfis_server_phase_duration_us_sum{",
        "wall-clock phase sums",
    ),
    (
        "epfis_server_slow_requests_total ",
        "requests over a wall-clock threshold",
    ),
    ("epfis_server_uptime_seconds ", "wall-clock process age"),
];

fn differs_by_design(line: &str) -> bool {
    DIFFERS_BY_DESIGN
        .iter()
        .any(|(prefix, _)| line.starts_with(prefix))
}

/// `epfis client --binary true` negotiates framing v2 and prints the same
/// answers as the text client, line for line.
#[test]
fn binary_client_matches_the_text_client_line_for_line() {
    let mut text_server = spawn_serve(&["--addr", "127.0.0.1:0"], &[]);
    let text = script(&text_server.addr, &[], &smoke_script("smoke.ix"));
    text_server.shutdown();

    let mut server = spawn_serve(
        &["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"],
        &[],
    );
    let binary = script(
        &server.addr,
        &["--binary", "true"],
        &smoke_script("smoke.ix"),
    );
    assert!(binary.contains("committed smoke.ix epoch=1"), "{binary}");
    assert!(
        has_line(
            &binary,
            "epfis_server_requests_total{command=\"ESTIMATE\"} 1"
        ),
        "{binary}"
    );
    assert!(
        has_line(&binary, "epfis_server_binary_upgrades_total 1"),
        "{binary}"
    );
    assert!(
        binary
            .lines()
            .any(|l| l.starts_with("epfis_server_protocol_requests_total{protocol=\"binary\"} ")),
        "{binary}"
    );

    let kept = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !differs_by_design(l))
            .map(String::from)
            .collect()
    };
    let (text_kept, binary_kept) = (kept(&text), kept(&binary));
    assert!(text_kept.len() > 60, "the comparison must cover STATS");
    assert_eq!(text_kept.len(), binary_kept.len());
    for (t, b) in text_kept.iter().zip(&binary_kept) {
        assert_eq!(t, b, "the wire formats diverge");
    }

    let (_, metrics) = server.http_get("/metrics");
    let binary_requests = series_value(
        &metrics,
        "epfis_server_protocol_requests_total{protocol=\"binary\"}",
    );
    assert!(binary_requests.is_some_and(|n| n >= 1.0), "{metrics}");
    assert!(
        has_line(&metrics, "epfis_server_binary_upgrades_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

/// The accuracy surfaces an operator reaches from the shell: `OBSERVE`
/// through `epfis client`, `epfis drift` parsing the server's `DRIFT`
/// lines, and the default `SLOWLOG` header.
#[test]
fn drift_and_slowlog_answer_through_the_cli() {
    let mut server = spawn_serve(&["--addr", "127.0.0.1:0"], &[]);
    let out = script(
        &server.addr,
        &[],
        "ANALYZE BEGIN obsv.ix table_pages=4\n\
         PAGE 1 0 1 0 2 1 3 2 4 3\n\
         ANALYZE COMMIT\n\
         OBSERVE obsv.ix 2 3\n",
    );
    assert!(
        out.lines()
            .any(|l| l.starts_with("observed obsv.ix epoch=1 ")),
        "{out}"
    );

    let drift = Command::new(EPFIS)
        .args(["drift", "--addr", &server.addr])
        .output()
        .unwrap();
    assert!(drift.status.success(), "{drift:?}");
    let drift = stdout(&drift);
    assert!(
        drift.starts_with("drift obsv.ix epoch=1 observations=1 "),
        "{drift}"
    );

    let slowlog = client(&server.addr, &["--send", "SLOWLOG"], None);
    assert!(slowlog.status.success(), "{slowlog:?}");
    assert!(
        stdout(&slowlog).starts_with("slowlog threshold_us=100000 recorded="),
        "{slowlog:?}"
    );
    server.shutdown();
}

/// `epfis <ARGS>`, asserting success; returns stdout.
fn epfis(args: &[&str]) -> String {
    let out = Command::new(EPFIS)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run epfis");
    assert!(out.status.success(), "epfis {args:?}: {out:?}");
    stdout(&out)
}

/// A catalog in the bare format, as `epfis analyze` wrote it before
/// it shared the server's format.
const LEGACY_CATALOG: &str = "epfis-catalog v1\n\
    index legacy.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 1\n\
    b_max 4\n\
    fpf 1:4 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n";

/// `epfis analyze` and `epfis serve` share one catalog file: the server
/// loads what the CLI analyzed and serves the value the CLI explains, a
/// served commit lands in the same file beside it, and a catalog written
/// in the older bare format opens in both.
#[test]
fn one_catalog_file_serves_offline_and_online() {
    let dir = temp_dir("one-catalog");
    let catalog = dir.join("cat.scat");
    let catalog = catalog.to_str().unwrap();
    let analyzed = epfis(&[
        "analyze",
        "--catalog",
        catalog,
        "--name",
        "t.k",
        "--records",
        "5000",
        "--distinct",
        "100",
        "--per-page",
        "20",
        "--k",
        "0.3",
    ]);
    assert!(analyzed.starts_with("analyzed t.k: T=250 "), "{analyzed}");
    let explained = epfis(&[
        "explain",
        "--catalog",
        catalog,
        "--name",
        "t.k",
        "--sigma",
        "0.2",
        "--buffer",
        "50",
    ]);
    let value = explained
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("estimated page fetches = "))
        .unwrap_or_else(|| panic!("no estimate line in {explained:?}"));
    assert!(
        explained
            .lines()
            .any(|l| l.starts_with("  catalog entry") && l.ends_with(" t.k epoch=1")),
        "{explained}"
    );

    let mut server = spawn_serve(&["--addr", "127.0.0.1:0", "--catalog", catalog], &[]);
    assert_eq!(server.send("ESTIMATE t.k 0.2 50"), value);
    let out = script(&server.addr, &[], &smoke_script("online.ix"));
    assert!(out.contains("committed online.ix epoch=2"), "{out}");
    server.shutdown();

    let show = epfis(&["show", "--catalog", catalog]);
    assert!(
        show.starts_with(&format!("catalog {catalog}: 2 entries\n")),
        "{show}"
    );
    for name in ["online.ix", "t.k"] {
        assert!(
            show.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "{name} missing from {show}"
        );
    }

    let legacy = dir.join("legacy.cat");
    std::fs::write(&legacy, LEGACY_CATALOG).unwrap();
    let legacy = legacy.to_str().unwrap();
    let show = epfis(&["show", "--catalog", legacy]);
    assert!(show.contains("1 entries"), "{show}");
    assert!(show.lines().any(|l| l.starts_with("legacy.ix ")), "{show}");
    let mut server = spawn_serve(&["--addr", "127.0.0.1:0", "--catalog", legacy], &[]);
    let shown = server.send("SHOW");
    assert!(
        shown.starts_with("legacy.ix epoch=0 analyzed_at=0 T=4 N=5 I=4 "),
        "{shown}"
    );
    server.shutdown();
}

/// `COMPARE` answers from the catalog entry: an entry committed over the
/// wire and one `epfis analyze` wrote answer the same lines before SIGTERM
/// and after the restart.
#[test]
fn compare_answers_from_the_catalog_across_a_restart() {
    let dir = temp_dir("compare");
    let catalog = dir.join("compare.scat");
    let catalog = catalog.to_str().unwrap();
    epfis(&[
        "analyze",
        "--catalog",
        catalog,
        "--name",
        "offline.ix",
        "--records",
        "5000",
        "--distinct",
        "100",
        "--per-page",
        "20",
        "--k",
        "0.3",
    ]);
    let args = ["--addr", "127.0.0.1:0", "--catalog", catalog];
    let mut server = spawn_serve(&args, &[]);
    let out = script(
        &server.addr,
        &[],
        &session(
            "BEGIN served.ix table_pages=97",
            &scan_lines(),
            "ANALYZE COMMIT\n",
        ),
    );
    assert!(out.contains("committed served.ix epoch=2"), "{out}");
    let compare = |server: &support::Serve| {
        ["served.ix", "offline.ix"].map(|name| server.send(&format!("COMPARE {name} 6")))
    };
    let before = compare(&server);
    for lines in &before {
        assert!(lines.starts_with("B EPFIS ML DC SD OT\n"), "{lines}");
        assert_eq!(lines.lines().count(), 7, "{lines}");
    }

    let status = server.signal("-TERM");
    assert_eq!(status.signal(), Some(15), "{status}");
    let mut restarted = spawn_serve(&args, &[]);
    assert_eq!(compare(&restarted), before);
    restarted.shutdown();
}

/// `epfis analyze --catalog F --name NAME` on a small synthetic index.
fn analyze(catalog: &str, name: &str) -> std::process::Output {
    Command::new(EPFIS)
        .args(["analyze", "--catalog", catalog, "--name", name])
        .args(["--records", "5000", "--distinct", "100", "--per-page", "20"])
        .stdin(Stdio::null())
        .output()
        .expect("run epfis analyze")
}

/// One writer per catalog: while `epfis serve --catalog F` runs, `epfis
/// analyze --catalog F` exits 1 naming F and leaves its files unchanged,
/// so the sequence that used to lose a commit (analyze, serve, a served
/// commit, an offline analyze, a second served commit) loses no
/// acknowledged one. Once the server has stopped, the analyze goes
/// through.
#[test]
fn a_second_catalog_writer_is_refused_and_no_acknowledged_commit_is_lost() {
    let dir = temp_dir("one-writer");
    let catalog = dir.join("cat.scat");
    let catalog = catalog.to_str().unwrap();
    let out = analyze(catalog, "t.k");
    assert!(out.status.success(), "{out:?}");
    let mut server = spawn_serve(&["--addr", "127.0.0.1:0", "--catalog", catalog], &[]);
    let out = script(&server.addr, &[], &smoke_script("v1.ix"));
    assert!(out.contains("committed v1.ix epoch=2"), "{out}");

    let files = || [catalog.to_string(), format!("{catalog}.log")].map(|p| std::fs::read(p).ok());
    let before = files();
    let refused = analyze(catalog, "u.k");
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains(&format!(
            "catalog {catalog} is in use: another process holds"
        )),
        "{stderr}"
    );
    assert!(files() == before, "the refused writer changed the catalog");

    let out = script(&server.addr, &[], &smoke_script("v2.ix"));
    assert!(out.contains("committed v2.ix epoch=3"), "{out}");
    server.shutdown();
    let names = |show: &str| {
        let mut names: Vec<String> = show
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().next().map(String::from))
            .collect();
        names.sort();
        names
    };
    let show = epfis(&["show", "--catalog", catalog]);
    assert_eq!(names(&show), ["t.k", "v1.ix", "v2.ix"], "{show}");

    let out = analyze(catalog, "u.k");
    assert!(out.status.success(), "{out:?}");
    let show = epfis(&["show", "--catalog", catalog]);
    assert_eq!(names(&show), ["t.k", "u.k", "v1.ix", "v2.ix"], "{show}");
}

/// The catalog lock dies with its process: a server restarted right after
/// a SIGKILL takes the lock at once and serves the catalog, and so does an
/// `epfis analyze` after a second SIGKILL.
#[test]
fn a_restart_after_sigkill_takes_the_catalog_lock_at_once() {
    let dir = temp_dir("lock-sigkill");
    let catalog = dir.join("cat.scat");
    let catalog = catalog.to_str().unwrap();
    let args = ["--addr", "127.0.0.1:0", "--catalog", catalog];
    let mut server = spawn_serve(&args, &[]);
    let out = script(&server.addr, &[], &smoke_script("k.ix"));
    assert!(out.contains("committed k.ix epoch=1"), "{out}");
    server.kill();

    let mut server = spawn_serve(&args, &[]);
    assert!(server.send("SHOW").starts_with("k.ix epoch=1 "));
    server.kill();
    let out = analyze(catalog, "t.k");
    assert!(out.status.success(), "{out:?}");
}

/// A catalog lock that fails (`EPFIS_FAULTS` fails the `Vfs` lock call)
/// stops `serve` before it loads the catalog: exit 1, a message naming
/// the catalog, and both catalog files as they were.
#[test]
fn a_failed_catalog_lock_stops_serve_and_leaves_the_catalog_alone() {
    let dir = temp_dir("lock-fault");
    let catalog = dir.join("cat.scat");
    let catalog = catalog.to_str().unwrap();
    let args = ["serve", "--addr", "127.0.0.1:0", "--catalog", catalog];
    let mut server = spawn_serve(&args[1..], &[]);
    let out = script(&server.addr, &[], &smoke_script("k.ix"));
    assert!(out.contains("committed k.ix epoch=1"), "{out}");
    server.shutdown();
    let log = format!("{catalog}.log");
    let files = || (std::fs::read(catalog).ok(), std::fs::read(&log).ok());
    let before = files();
    assert!(before.0.is_some() || before.1.is_some(), "no catalog file");

    let out = Command::new(EPFIS)
        .args(args)
        .env("EPFIS_FAULTS", "op=lock kind=eio")
        .stdin(Stdio::null())
        .output()
        .expect("run epfis serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot lock catalog {catalog} ")),
        "{stderr}"
    );
    assert!(files() == before, "the catalog files changed");
}

/// A reader that closes the pipe early (`epfis show | head -1`) ends the
/// command quietly: no panic, no exit code 101.
#[test]
fn show_into_a_closed_pipe_exits_quietly() {
    use std::io::BufRead;

    let dir = temp_dir("broken-pipe");
    let path = dir.join("big.scat");
    let trace = epfis_lrusim::KeyedTrace::all_distinct((0..600u32).map(|i| i % 60).collect(), 60);
    let stats = epfis::LruFit::new(epfis::EpfisConfig::default()).collect(&trace);
    let mut catalog = epfis_server::VersionedCatalog::new();
    for i in 0..10_000 {
        catalog
            .insert(format!("t{i:05}.k"), stats.clone(), 1_700_000_000, None)
            .unwrap();
    }
    std::fs::write(&path, catalog.to_text_checksummed()).unwrap();

    let mut child = Command::new(EPFIS)
        .args(["show", "--catalog", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn epfis show");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("10000 entries"), "{first}");
    // The reader is dropped: the pipe is closed with most output unread.
    let out = child.wait_with_output().expect("wait for epfis show");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?} {stderr}", out.status);
}
