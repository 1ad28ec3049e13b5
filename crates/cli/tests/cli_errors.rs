//! Exit-code and stream-discipline tests against the real `epfis` binary.
//!
//! The documented contract (see `USAGE` and `main.rs`): exit 0 on success,
//! exit 2 for usage/parse errors (unknown subcommand, malformed flags),
//! exit 1 for runtime errors (missing files, unknown entries) — and errors
//! always go to stderr, never stdout.

mod support;

use std::process::{Command, Output, Stdio};

fn epfis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epfis"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run epfis binary")
}

fn assert_usage_error(out: &Output, ctx: &str) {
    assert_eq!(out.status.code(), Some(2), "{ctx}: {out:?}");
    assert!(out.stdout.is_empty(), "{ctx}: stdout must stay clean");
    assert!(!out.stderr.is_empty(), "{ctx}: error must go to stderr");
}

fn assert_runtime_error(out: &Output, ctx: &str) {
    assert_eq!(out.status.code(), Some(1), "{ctx}: {out:?}");
    assert!(out.stdout.is_empty(), "{ctx}: stdout must stay clean");
    assert!(!out.stderr.is_empty(), "{ctx}: error must go to stderr");
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = epfis(&["frobnicate"]);
    assert_usage_error(&out, "unknown subcommand");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn no_arguments_is_a_usage_error() {
    assert_usage_error(&epfis(&[]), "no arguments");
}

#[test]
fn malformed_flags_are_usage_errors() {
    // A flag with no value.
    assert_usage_error(&epfis(&["estimate", "--sigma"]), "flag without value");
    assert_usage_error(
        &epfis(&["explain", "--sigma"]),
        "explain flag without value",
    );
    // A positional argument where a flag is expected.
    assert_usage_error(&epfis(&["estimate", "oops"]), "stray positional");
    assert_usage_error(&epfis(&["explain", "oops"]), "explain stray positional");
}

#[test]
fn explain_runtime_errors_mirror_estimate() {
    // A typo'd catalog path must fail loudly, exactly like `estimate`.
    let out = epfis(&[
        "explain",
        "--catalog",
        "/tmp/epfis-definitely-missing.cat",
        "--name",
        "x",
        "--sigma",
        "0.1",
        "--buffer",
        "10",
    ]);
    assert_runtime_error(&out, "explain missing catalog");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not exist"),
        "{out:?}"
    );

    // A bad log level on serve is a runtime error before the bind, like
    // the limit flags.
    let out = epfis(&["serve", "--addr", "127.0.0.1:0", "--log-level", "chatty"]);
    assert_runtime_error(&out, "bad log level");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown log level"),
        "{out:?}"
    );
}

#[test]
fn bad_wal_flags_are_usage_errors_before_the_bind() {
    // Unknown fsync policy.
    let out = epfis(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--wal-dir",
        "/tmp/epfis-wal-flags-test",
        "--wal-fsync",
        "eventually",
    ]);
    assert_usage_error(&out, "unknown fsync policy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown fsync policy"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // A --wal-dir that already exists as a plain file.
    let file = std::env::temp_dir().join("epfis-wal-not-a-dir-test");
    std::fs::write(&file, b"occupied").unwrap();
    let out = epfis(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--wal-dir",
        file.to_str().unwrap(),
    ]);
    assert_usage_error(&out, "wal dir is a file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a directory"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // WAL tuning flags without --wal-dir make no sense.
    let out = epfis(&["serve", "--addr", "127.0.0.1:0", "--wal-fsync", "batch"]);
    assert_usage_error(&out, "wal flags without --wal-dir");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("require --wal-dir"),
        "{out:?}"
    );
}

#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let wal_dir = std::env::temp_dir().join("epfis-unknown-flag-wal");
    let wal_dir = wal_dir.to_str().unwrap();
    for (args, flag) in [
        (
            &["show", "--catalog", "/tmp/x.scat", "--bogus-flag", "1"][..],
            "--bogus-flag",
        ),
        // A typo is not silently ignored (it used to keep fsync=batch).
        (
            &["serve", "--wal-dir", wal_dir, "--wal-fsyn", "always"][..],
            "--wal-fsyn",
        ),
        // A retired flag is refused rather than ignored.
        (
            &["serve", "--wal-dir", wal_dir, "--wal-segment-bytes", "1024"][..],
            "--wal-segment-bytes",
        ),
        (
            &["serve", "--wal-segment-bytes", "1"][..],
            "--wal-segment-bytes",
        ),
        (&["estimate", "--sigmaa", "0.1"][..], "--sigmaa"),
    ] {
        let out = epfis(args);
        assert_usage_error(&out, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{stderr}"
        );
        assert!(stderr.contains("usage"), "{stderr}");
    }
    // Rejected before any work: no server bound, no WAL directory made.
    assert!(!std::path::Path::new(wal_dir).exists());
}

#[test]
fn missing_catalog_file_is_a_runtime_error() {
    let out = epfis(&[
        "estimate",
        "--catalog",
        "/tmp/epfis-definitely-missing.cat",
        "--name",
        "x",
        "--sigma",
        "0.1",
        "--buffer",
        "10",
    ]);
    assert_runtime_error(&out, "missing catalog");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not exist"),
        "{out:?}"
    );
}

#[test]
fn unknown_entry_is_a_runtime_error() {
    let dir = std::env::temp_dir().join("epfis-cli-errors-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cat = dir.join("entries.cat");
    std::fs::remove_file(&cat).ok();
    let cat = cat.to_str().unwrap();
    let ok = epfis(&[
        "analyze",
        "--catalog",
        cat,
        "--name",
        "ix",
        "--records",
        "2000",
        "--distinct",
        "50",
        "--per-page",
        "20",
    ]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    assert!(ok.stderr.is_empty(), "success must not write stderr");

    let out = epfis(&[
        "estimate",
        "--catalog",
        cat,
        "--name",
        "nope",
        "--sigma",
        "0.1",
        "--buffer",
        "10",
    ]);
    assert_runtime_error(&out, "unknown entry");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = epfis(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage"), "{stdout}");
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn serve_rejects_invalid_limits_before_binding() {
    // A line bound below the 64-byte floor.
    let out = epfis(&["serve", "--addr", "127.0.0.1:0", "--max-line-bytes", "10"]);
    assert_runtime_error(&out, "tiny max-line-bytes");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("limits"),
        "{out:?}"
    );

    // A pending bound smaller than the line bound is self-contradictory.
    let out = epfis(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--max-line-bytes",
        "65536",
        "--max-pending-bytes",
        "1024",
    ]);
    assert_runtime_error(&out, "pending below line bound");

    // Non-numeric limit values fail before the server binds, like any
    // per-command value parse (`bad value for --flag`).
    let out = epfis(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--max-connections",
        "many",
    ]);
    assert_runtime_error(&out, "non-numeric max-connections");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad value for --max-connections"),
        "{out:?}"
    );
}

#[test]
fn serve_and_client_round_trip_through_the_binary() {
    use std::io::Write;

    let mut server = support::spawn_serve(
        &["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"],
        &[],
    );
    let addr = server.addr.clone();

    // The observability endpoint answers its liveness probe.
    let (status, body) = server.http_get("/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Script a full ANALYZE session plus queries through `epfis client`.
    let mut client = Command::new(env!("CARGO_BIN_EXE_epfis"))
        .args(["client", "--addr", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn epfis client");
    client
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"# a tiny clustered index\n\
              ANALYZE BEGIN t.k table_pages=4\n\
              PAGE 1 0 1 0 2 1 3 2 4 3\n\
              ANALYZE COMMIT\n\
              ESTIMATE t.k 0.5 2\n\
              STATS\n",
        )
        .unwrap();
    let out = client.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("committed t.k epoch=1"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l == "epfis_server_requests_total{command=\"ESTIMATE\"} 1"),
        "{stdout}"
    );

    // `explain --addr` renders the server's EXPLAIN ESTIMATE trace.
    let explained = epfis(&[
        "explain", "--addr", &addr, "--name", "t.k", "--sigma", "0.5", "--buffer", "2",
    ]);
    assert_eq!(explained.status.code(), Some(0), "{explained:?}");
    let text = String::from_utf8_lossy(&explained.stdout);
    assert!(text.starts_with("estimated page fetches = "), "{text}");
    assert!(text.contains("catalog entry"), "{text}");
    assert!(text.contains("step 4: FPF lookup"), "{text}");

    // A protocol-level error surfaces as a client runtime error (exit 1).
    let bad = epfis(&["client", "--addr", &addr, "--send", "ESTIMATE nope 0.5 2"]);
    assert_runtime_error(&bad, "server ERR response");

    // SHUTDOWN stops the serve process cleanly (exit 0).
    server.shutdown();
}
