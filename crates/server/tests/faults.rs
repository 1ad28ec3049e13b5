//! Storage-fault acceptance tests: degraded-mode serving, operator
//! recovery, and the self-healing client.
//!
//! The contract under test (docs/durability.md, "Degraded mode"):
//!
//! * a durability failure anywhere in the WAL or catalog-persist path may
//!   fail the request that hit it, but must never acknowledge an
//!   unpersisted commit, never tear the on-disk catalog, and never stop
//!   the read path — estimates keep serving from the last committed
//!   version while every ingest command answers `ERR readonly <cause>`;
//! * the fault-at-every-call-site sweep proves this exhaustively: it
//!   counts the fault-eligible VFS operations a reference run performs,
//!   then re-runs the same script failing each operation in turn;
//! * `RECOVER` re-probes the storage and resumes ingest once it heals;
//! * a [`ResilientClient`] survives a server restart mid-session and
//!   commits bit-identically to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use epfis::EpfisConfig;
use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule, Vfs};
use epfis_obs::series_value;
use epfis_server::{
    serve, Client, FsyncPolicy, ResilientClient, RetryPolicy, ServerConfig, SharedCatalog,
    WalConfig,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "epfis-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic scan: `n` references over `t` table pages.
fn scan_pairs(n: u32, t: u32) -> Vec<(i64, u32)> {
    (0..n)
        .map(|i| ((i / 3) as i64, i.wrapping_mul(2654435761) % t))
        .collect()
}

fn page_line(chunk: &[(i64, u32)]) -> String {
    let mut line = String::from("PAGE");
    for (k, p) in chunk {
        line.push_str(&format!(" {k} {p}"));
    }
    line
}

/// Seeds `path` with a one-entry catalog (fixed timestamp, so the bytes
/// are reproducible), compacted into its snapshot, and returns the
/// snapshot's bytes.
fn seed_catalog(path: &Path) -> Vec<u8> {
    let catalog = SharedCatalog::open(path).unwrap();
    let mut s = epfis_server::IngestSession::new("base".into(), EpfisConfig::default(), Some(30));
    for (k, p) in scan_pairs(240, 30) {
        s.feed(k, p).unwrap();
    }
    let (stats, summary) = s.commit().unwrap();
    catalog
        .commit_analyzed("base", stats, Some(summary), 100, None)
        .unwrap();
    assert!(catalog.compact_if_due().unwrap());
    std::fs::read(path).unwrap()
}

/// Loads the on-disk catalog — its snapshot plus its catalog log — the way
/// a restart does, panicking if it is torn, and returns its entry names.
fn catalog_entries(path: &Path, context: &str) -> Vec<String> {
    let catalog = SharedCatalog::open(path)
        .unwrap_or_else(|e| panic!("{context}: catalog torn: {e}"))
        .snapshot();
    catalog.iter().map(|(name, _)| name.to_string()).collect()
}

/// What one scripted run against a (possibly faulty) server observed.
struct RunOutcome {
    /// The server failed to start at all.
    start_failed: bool,
    /// The `committed …` acknowledgment, if the commit was acknowledged.
    commit_ack: Option<String>,
    /// `epfis_server_degraded` in `STATS` at the end of the script.
    degraded: bool,
}

/// Runs the reference ingest script against a server whose durability
/// paths go through `vfs`: one ANALYZE session in three PAGE batches plus
/// a commit, with read-path and degraded-mode assertions along the way.
fn run_script(root: &Path, pre_bytes: &[u8], vfs: Arc<dyn Vfs>, context: &str) -> RunOutcome {
    std::fs::create_dir_all(root).unwrap();
    let cat_path = root.join("catalog.scat");
    std::fs::write(&cat_path, pre_bytes).unwrap();
    let wal_dir = root.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut wal_cfg = WalConfig::new(&wal_dir);
    // Deterministic op sequence: every milestone syncs inline, no
    // background flusher racing the schedule's op counter.
    wal_cfg.fsync = FsyncPolicy::Always;
    let server = match serve(ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(wal_cfg),
        vfs: Some(vfs),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(_) => {
            // Startup hit the fault. Failing fast is a legal outcome, but
            // the catalog must still be exactly the old version.
            assert_eq!(
                std::fs::read(&cat_path).unwrap(),
                pre_bytes,
                "{context}: startup failure must not touch the catalog"
            );
            return RunOutcome {
                start_failed: true,
                commit_ack: None,
                degraded: false,
            };
        }
    };
    let mut c = Client::connect(server.addr()).unwrap();
    let pairs = scan_pairs(180, 40);
    let mut commit_ack = None;
    let mut failed = false;
    if c.request("ANALYZE BEGIN ix.f table_pages=40").is_ok() {
        for chunk in pairs.chunks(60) {
            if c.request(&page_line(chunk)).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            match c.request("ANALYZE COMMIT") {
                Ok(lines) => commit_ack = Some(lines[0].clone()),
                Err(_) => failed = true,
            }
        }
    } else {
        failed = true;
    }
    let _ = failed;

    // The read path must survive every fault: the pre-seeded entry keeps
    // serving no matter what the ingest side hit.
    let est = c
        .request("ESTIMATE base 0.5 10")
        .unwrap_or_else(|e| panic!("{context}: read path died: {e}"));
    assert!(!est.is_empty(), "{context}: empty estimate");

    let stats = c.request("STATS").unwrap().join("\n");
    let degraded = series_value(&stats, "epfis_server_degraded") == Some(1.0);
    if degraded {
        // Degraded mode must reject every ingest entry point with the
        // distinct readonly error — never accept silently.
        let err = c
            .request("ANALYZE BEGIN other")
            .expect_err(&format!("{context}: degraded server accepted ingest"));
        assert!(
            err.to_string().contains("readonly"),
            "{context}: wrong degraded rejection: {err}"
        );
    }
    drop(c);
    server.shutdown_and_join();
    RunOutcome {
        start_failed: false,
        commit_ack,
        degraded,
    }
}

/// The exhaustive sweep: fail the i-th fault-eligible VFS operation for
/// every i the reference run performs, and assert the commit is either
/// exactly committed or cleanly absent — old-or-new, acknowledged only if
/// persisted, reads always serving.
#[test]
fn fault_at_every_call_site_is_old_or_new() {
    let root = temp_dir("sweep");
    let pre_bytes = seed_catalog(&root.join("seed.scat"));

    // Counting pass: a disarmed schedule tallies the fault-eligible ops
    // the clean run performs.
    let counter = FaultVfs::new();
    counter.schedule().set_armed(false);
    let clean = run_script(
        &root.join("clean"),
        &pre_bytes,
        counter.clone().shared(),
        "counting pass",
    );
    let ops = counter.schedule().ops();
    assert!(clean.commit_ack.is_some(), "clean run must commit");
    assert!(!clean.degraded, "clean run must not degrade");
    assert!(ops > 20, "suspiciously few fault-eligible ops: {ops}");

    for i in 0..ops {
        let fv = FaultVfs::new();
        fv.schedule().push(Rule::new(FaultKind::Enospc).at_index(i));
        let iter_root = root.join(format!("op-{i}"));
        std::fs::create_dir_all(&iter_root).unwrap();
        let context = format!("fault at op {i}/{ops}");
        let outcome = run_script(&iter_root, &pre_bytes, fv.clone().shared(), &context);

        let entries = catalog_entries(&iter_root.join("catalog.scat"), &context);
        let old = entries == ["base"];
        let new = entries == ["base", "ix.f"];
        assert!(
            old || new,
            "{context}: catalog is neither old nor new: {entries:?}"
        );
        if outcome.commit_ack.is_some() {
            // Never acknowledge an unpersisted commit.
            assert!(
                new,
                "{context}: commit acknowledged but the catalog lacks the entry"
            );
        }
        if outcome.start_failed {
            assert!(old, "{context}: startup failure must leave the old catalog");
        }
        let _ = std::fs::remove_dir_all(&iter_root);
    }
}

/// End-to-end degraded mode over TCP: poison the WAL mid-session, verify
/// reads serve / ingest rejects / telemetry reports, heal the disk, and
/// RECOVER back to full service.
#[test]
fn degraded_mode_serves_reads_and_recover_restores_ingest() {
    let root = temp_dir("degraded");
    let cat_path = root.join("catalog.scat");
    seed_catalog(&cat_path);
    let fv = FaultVfs::new();
    let mut wal_cfg = WalConfig::new(root.join("wal"));
    wal_cfg.fsync = FsyncPolicy::Always;
    let server = serve(ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(wal_cfg),
        metrics_addr: Some("127.0.0.1:0".into()),
        vfs: Some(fv.clone().shared()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    assert_eq!(http_status(metrics_addr, "/healthz"), 200);

    c.request("ANALYZE BEGIN ix.bad table_pages=40").unwrap();
    // Disk goes bad: every fsync fails from here on.
    fv.schedule()
        .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData));
    let pairs = scan_pairs(60, 40);
    let err = c
        .request(&page_line(&pairs))
        .expect_err("append on a failing disk must error");
    assert!(err.to_string().contains("wal append failed"), "{err}");

    // Degraded: reads serve, ingest rejects with the distinct error,
    // telemetry reports on every surface.
    let est_before = c.request("ESTIMATE base 0.5 10").unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_server_degraded"), Some(1.0));
    assert_eq!(series_value(&stats, "epfis_wal_poisoned"), Some(1.0));
    assert_eq!(http_status(metrics_addr, "/healthz"), 503);
    let body = http_body(metrics_addr, "/healthz");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    let metrics = http_body(metrics_addr, "/metrics");
    assert!(
        metrics.contains("epfis_server_degraded 1"),
        "degraded gauge missing"
    );
    for cmd in [
        "ANALYZE BEGIN other",
        "PAGE 1 2",
        "ANALYZE COMMIT",
        "ANALYZE RESUME ix.bad",
    ] {
        let err = c
            .request(cmd)
            .expect_err("ingest must reject while degraded");
        assert!(
            err.to_string().contains("readonly"),
            "{cmd}: wrong rejection: {err}"
        );
    }
    // ABORT only discards in-memory state and stays allowed.
    assert!(c.request("ANALYZE ABORT").is_ok());

    // RECOVER against a still-bad disk must fail and stay degraded.
    let err = c.request("RECOVER").expect_err("disk is still bad");
    assert!(err.to_string().contains("recover failed"), "{err}");
    assert_eq!(
        series_value(
            &c.request("STATS").unwrap().join("\n"),
            "epfis_server_degraded"
        ),
        Some(1.0)
    );

    // The disk heals; RECOVER re-probes and resumes full service.
    fv.schedule().heal();
    let lines = c.request("RECOVER").unwrap();
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("recovered was_degraded=1")),
        "{lines:?}"
    );
    assert_eq!(http_status(metrics_addr, "/healthz"), 200);
    assert_eq!(
        series_value(
            &c.request("STATS").unwrap().join("\n"),
            "epfis_server_degraded"
        ),
        Some(0.0)
    );
    c.request("ANALYZE BEGIN ix.good table_pages=40").unwrap();
    for chunk in scan_pairs(180, 40).chunks(60) {
        c.request(&page_line(chunk)).unwrap();
    }
    let commit = c.request("ANALYZE COMMIT").unwrap();
    assert!(commit[0].starts_with("committed ix.good"), "{commit:?}");
    let est_after = c.request("ESTIMATE base 0.5 10").unwrap();
    assert_eq!(
        est_before, est_after,
        "base entry changed across the outage"
    );

    drop(c);
    server.shutdown_and_join();
    assert!(catalog_entries(&cat_path, "final").contains(&"ix.good".to_string()));
}

/// `ServerConfig::vfs` reaches the WAL through the catalog even when there
/// is no catalog file: a memory-only catalog plus a WAL on a failing disk
/// degrades on the first PAGE.
#[test]
fn wal_without_a_catalog_file_still_writes_through_the_configured_vfs() {
    let root = temp_dir("wal-no-catalog");
    let fv = FaultVfs::new();
    let mut wal_cfg = WalConfig::new(root.join("wal"));
    wal_cfg.fsync = FsyncPolicy::Always;
    let server = serve(ServerConfig {
        wal: Some(wal_cfg),
        vfs: Some(fv.clone().shared()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.request("ANALYZE BEGIN ix.mem table_pages=40").unwrap();
    // The WAL's disk fills up.
    fv.schedule().push(
        Rule::new(FaultKind::Enospc)
            .on_op(OpKind::Write)
            .path_contains("wal"),
    );
    let err = c
        .request(&page_line(&scan_pairs(60, 40)))
        .expect_err("PAGE on a failing WAL disk must error");
    assert!(err.to_string().contains("wal append failed"), "{err}");
    assert!(fv.schedule().injected() >= 1);
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_server_degraded"), Some(1.0));
    assert_eq!(series_value(&stats, "epfis_wal_poisoned"), Some(1.0));
    let err = c
        .request("ANALYZE BEGIN other")
        .expect_err("ingest must reject while degraded");
    assert!(err.to_string().contains("readonly"), "{err}");
    drop(c);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&root);
}

/// A failed catalog persist (WAL healthy) also degrades: the commit errors,
/// the old on-disk catalog survives byte-identical, and RECOVER restores
/// service without touching the WAL.
#[test]
fn catalog_persist_failure_degrades_and_recovers() {
    let root = temp_dir("catpersist");
    let cat_path = root.join("catalog.scat");
    let pre_bytes = seed_catalog(&cat_path);
    let fv = FaultVfs::new();
    let server = serve(ServerConfig {
        catalog_path: Some(cat_path.clone()),
        vfs: Some(fv.clone().shared()),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // Only the catalog path is faulted (no WAL in this config): fail the
    // catalog log's fdatasync. RECOVER opens the log first, so the fault
    // hits the commit's own record.
    c.request("RECOVER").unwrap();
    let log_path = SharedCatalog::log_path(&cat_path);
    let pre_log = std::fs::read(&log_path).unwrap();
    fv.schedule()
        .push(Rule::new(FaultKind::Enospc).on_op(OpKind::SyncData));
    c.request("ANALYZE BEGIN ix.c table_pages=40").unwrap();
    for chunk in scan_pairs(120, 40).chunks(60) {
        c.request(&page_line(chunk)).unwrap();
    }
    let err = c.request("ANALYZE COMMIT").expect_err("persist must fail");
    assert!(
        err.to_string().contains("catalog persist failed"),
        "not the distinct error: {err}"
    );
    assert_eq!(
        std::fs::read(&cat_path).unwrap(),
        pre_bytes,
        "old catalog must survive byte-identical"
    );
    assert_eq!(
        std::fs::read(&log_path).unwrap(),
        pre_log,
        "the failed append must be cut off the catalog log"
    );
    assert_eq!(
        catalog_entries(&cat_path, "after the failed append"),
        ["base"],
        "a restart now must not load the failed commit"
    );
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_server_degraded"), Some(1.0));
    let failures = "epfis_server_catalog_persist_failures_total";
    assert!(series_value(&stats, failures).unwrap() >= 1.0, "{stats}");
    // A monotonic `_total` count, exported as a counter family.
    let metrics = http_body(metrics_addr, "/metrics");
    assert!(
        metrics.contains(&format!("\n# TYPE {failures} counter\n")),
        "{metrics}"
    );
    assert_eq!(
        series_value(&metrics, failures),
        series_value(&stats, failures)
    );
    // Reads still serve the old snapshot.
    c.request("ESTIMATE base 0.5 10").unwrap();

    fv.schedule().heal();
    c.request("RECOVER").unwrap();
    c.request("ANALYZE BEGIN ix.c table_pages=40").unwrap();
    for chunk in scan_pairs(120, 40).chunks(60) {
        c.request(&page_line(chunk)).unwrap();
    }
    let commit = c.request("ANALYZE COMMIT").unwrap();
    assert!(commit[0].starts_with("committed ix.c"), "{commit:?}");

    drop(c);
    server.shutdown_and_join();
}

/// A compaction whose snapshot rename lands but whose log reset fails:
/// the server degrades, `RECOVER` heals the catalog log, a commit after it
/// is acknowledged, and a restart finds every acknowledged commit.
#[test]
fn failed_log_reset_after_compaction_recovers_and_keeps_the_next_commit() {
    let root = temp_dir("reset-fault");
    let cat_path = root.join("catalog.scat");
    seed_catalog(&cat_path);
    let fv = FaultVfs::new();
    let config = |vfs: Option<Arc<dyn Vfs>>| ServerConfig {
        catalog_path: Some(cat_path.clone()),
        vfs,
        ..ServerConfig::default()
    };
    let server = serve(config(Some(fv.clone().shared()))).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let commit = |c: &mut Client, name: &str| {
        c.request(&format!("ANALYZE BEGIN {name} table_pages=40"))?;
        c.request(&page_line(&scan_pairs(120, 40)))?;
        c.request("ANALYZE COMMIT")
    };

    // The reset truncates the catalog log: fail it once. RECOVER on the
    // healthy server opens the log first, so the rule cannot hit that.
    c.request("RECOVER").unwrap();
    fv.schedule().push(
        Rule::new(FaultKind::Eio)
            .on_op(OpKind::Truncate)
            .path_contains("catalog.scat.log")
            .times(1),
    );
    // Commits until the log is past the snapshot; the compaction after
    // that commit's reply renames the new snapshot and then fails the
    // reset.
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let log_path = SharedCatalog::log_path(&cat_path);
    let mut names = vec!["base".to_string()];
    while size(&log_path) <= size(&cat_path) {
        let name = format!("ix.{}", names.len());
        commit(&mut c, &name).unwrap();
        names.push(name);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let degraded = loop {
        let stats = c.request("STATS").unwrap().join("\n");
        if series_value(&stats, "epfis_server_degraded") == Some(1.0) {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no degraded compaction: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(fv.schedule().injected(), 1);
    assert_eq!(
        series_value(&degraded, "epfis_server_catalog_compactions_total"),
        Some(0.0)
    );
    assert!(series_value(&degraded, "epfis_server_catalog_persist_failures_total").unwrap() >= 1.0);
    // The snapshot is the new one, beside the records it already holds.
    let last = names.last().unwrap();
    let snapshot = std::fs::read_to_string(&cat_path).unwrap();
    assert!(snapshot.contains(&format!("\nmeta {last} ")), "{snapshot}");
    assert_eq!(
        catalog_entries(&cat_path, "between rename and reset"),
        names
    );

    let lines = c.request("RECOVER").unwrap();
    assert!(lines.contains(&"catalog ok".to_string()), "{lines:?}");
    let epoch = names.len() + 1;
    let ack = commit(&mut c, "ix.after").unwrap();
    assert!(
        ack[0].starts_with(&format!("committed ix.after epoch={epoch} ")),
        "{ack:?}"
    );
    drop(c);
    server.shutdown_and_join();

    names.push("ix.after".into());
    let server = serve(config(None)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let show = c.request("SHOW").unwrap();
    let shown: Vec<&str> = show.iter().map(|l| l.split(' ').next().unwrap()).collect();
    assert_eq!(shown, names, "{show:?}");
    let after = show.iter().find(|l| l.starts_with("ix.after ")).unwrap();
    assert!(
        after.starts_with(&format!("ix.after epoch={epoch} ")),
        "{after}"
    );
    drop(c);
    server.shutdown_and_join();
}

/// Polls `STATS` until the server reports degraded mode, panicking after
/// 10 s.
fn await_degraded(c: &mut Client) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.request("STATS").unwrap().join("\n");
        if series_value(&stats, "epfis_server_degraded") == Some(1.0) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never degraded: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A `COMMIT` marker left unsynced (a second session keeps the WAL from
/// resetting) whose sync then fails: the next commit fails before its
/// catalog write, leaving the catalog files byte-identical, and the server
/// degrades. After `RECOVER` the commit succeeds, and a restart finds both
/// acknowledged commits and nothing to resume.
#[test]
fn failed_sync_of_an_earlier_marker_fails_the_commit_before_its_catalog_write() {
    let root = temp_dir("marker-sync");
    let cat_path = root.join("catalog.scat");
    seed_catalog(&cat_path);
    let fv = FaultVfs::new();
    let config = |vfs: Option<Arc<dyn Vfs>>| ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(WalConfig::new(root.join("wal"))),
        vfs,
        ..ServerConfig::default()
    };
    let server = serve(config(Some(fv.clone().shared()))).unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    let begin = |c: &mut Client, name: &str| {
        c.request(&format!("ANALYZE BEGIN {name} table_pages=40"))
            .unwrap();
        c.request(&page_line(&scan_pairs(120, 40))).unwrap();
    };
    begin(&mut a, "ix.a");
    begin(&mut b, "ix.b");
    let ack = a.request("ANALYZE COMMIT").unwrap();
    assert!(ack[0].starts_with("committed ix.a "), "{ack:?}");
    // A's connection runs its next session request on the same ingest
    // thread, after the compaction that followed the reply: the catalog
    // files are settled once it answers.
    a.request("ANALYZE ABORT")
        .expect_err("no session is open on a");

    let files = || {
        [cat_path.clone(), SharedCatalog::log_path(&cat_path)].map(|p| std::fs::read(p).unwrap())
    };
    let before = files();
    fv.schedule().push(
        Rule::new(FaultKind::Eio)
            .on_op(OpKind::SyncData)
            .path_contains("wal-000000")
            .times(1),
    );
    let err = b
        .request("ANALYZE COMMIT")
        .expect_err("the marker's sync fails first");
    assert!(err.to_string().contains("commit failed"), "{err}");
    assert_eq!(fv.schedule().injected(), 1);
    assert!(files() == before, "the failed commit wrote the catalog");
    await_degraded(&mut b);

    let lines = b.request("RECOVER").unwrap();
    assert!(
        lines.contains(&"recovered was_degraded=1".to_string()),
        "{lines:?}"
    );
    begin(&mut b, "ix.b");
    let ack = b.request("ANALYZE COMMIT").unwrap();
    assert!(ack[0].starts_with("committed ix.b "), "{ack:?}");
    drop((a, b));
    server.shutdown_and_join();

    assert_eq!(
        catalog_entries(&cat_path, "restart"),
        ["base", "ix.a", "ix.b"]
    );
    let server = serve(config(None)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(series_value(&stats, "epfis_wal_parked_sessions"), Some(0.0));
    drop(c);
    server.shutdown_and_join();
}

/// The WAL reset after a commit's reply fails: the commit stands, the
/// server degrades, and `RECOVER` heals the log with the reset still due.
/// A clean `SHUTDOWN` then runs it, leaving the log at its 12-byte header.
#[test]
fn failed_deferred_wal_reset_degrades_and_shutdown_runs_it() {
    let root = temp_dir("wal-reset");
    let cat_path = root.join("catalog.scat");
    let seg = root.join("wal").join("wal-000000.seg");
    seed_catalog(&cat_path);
    let fv = FaultVfs::new();
    fv.schedule().push(
        Rule::new(FaultKind::Eio)
            .on_op(OpKind::Truncate)
            .path_contains("wal-000000")
            .times(1),
    );
    let server = serve(ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(WalConfig::new(root.join("wal"))),
        vfs: Some(fv.clone().shared()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.request("ANALYZE BEGIN ix.r table_pages=40").unwrap();
    c.request(&page_line(&scan_pairs(120, 40))).unwrap();
    let ack = c.request("ANALYZE COMMIT").unwrap();
    assert!(ack[0].starts_with("committed ix.r "), "{ack:?}");
    await_degraded(&mut c);
    assert_eq!(fv.schedule().injected(), 1);
    let size = || std::fs::metadata(&seg).unwrap().len();
    assert!(size() > 12, "the failed reset left the log as it was");

    let lines = c.request("RECOVER").unwrap();
    assert!(
        lines.contains(&"recovered was_degraded=1".to_string()),
        "{lines:?}"
    );
    assert!(
        size() > 12,
        "RECOVER leaves the reset to the next BEGIN or SHUTDOWN"
    );
    assert_eq!(c.request("SHUTDOWN").unwrap(), ["bye"]);
    drop(c);
    server.join();
    assert_eq!(size(), 12);
    assert_eq!(
        catalog_entries(&cat_path, "after shutdown"),
        ["base", "ix.r"]
    );
}

/// The self-healing client: the server is stopped and restarted (same WAL
/// dir, same port) in the middle of a streamed session; the client
/// reconnects with backoff, reattaches via ANALYZE RESUME, and the final
/// commit plus six follow-up estimates are bit-identical to a clean
/// uninterrupted run.
#[test]
fn resilient_client_survives_server_restart_bit_identically() {
    let root = temp_dir("resilient");
    let cat_path = root.join("catalog.scat");
    let wal_dir = root.join("wal");
    let pairs = scan_pairs(3000, 150);
    let queries = [
        "ESTIMATE ix.r 0.001 1",
        "ESTIMATE ix.r 0.1 25",
        "ESTIMATE ix.r 0.5 75",
        "ESTIMATE ix.r 1.0 150",
        "ESTIMATE ix.r 0.333 60 0.333",
        "ESTIMATE ix.r 1.0 400 0.9",
    ];

    // Reference: the same scan through a clean in-memory server.
    let clean_commit_line;
    let clean_estimates: Vec<String>;
    {
        let server = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.request("ANALYZE BEGIN ix.r table_pages=150").unwrap();
        for chunk in pairs.chunks(100) {
            c.request(&page_line(chunk)).unwrap();
        }
        clean_commit_line = c.request("ANALYZE COMMIT").unwrap()[0].clone();
        clean_estimates = queries
            .iter()
            .map(|q| c.request(q).unwrap()[0].clone())
            .collect();
    }

    // A fixed port so the restarted server is reachable at the same
    // address the client retries against.
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let config = || ServerConfig {
        addr: addr.clone(),
        catalog_path: Some(cat_path.clone()),
        wal: Some(WalConfig::new(&wal_dir)),
        ..ServerConfig::default()
    };

    let server = serve(config()).unwrap();
    let policy = RetryPolicy {
        retries: 40,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        ..RetryPolicy::default()
    };
    let mut rc = ResilientClient::connect(&addr, policy, false).unwrap();
    rc.request("ANALYZE BEGIN ix.r table_pages=150").unwrap();
    for chunk in pairs[..1500].chunks(100) {
        rc.request(&page_line(chunk)).unwrap();
    }

    // The server goes away mid-session and comes back on the same WAL.
    server.shutdown_and_join();
    let server = serve(config()).unwrap();

    // The client notices the dead connection on its next request,
    // reconnects, reattaches via ANALYZE RESUME, and keeps streaming.
    for chunk in pairs[1500..].chunks(100) {
        rc.request(&page_line(chunk)).unwrap();
    }
    let commit_line = rc.request("ANALYZE COMMIT").unwrap()[0].clone();
    assert_eq!(
        commit_line, clean_commit_line,
        "recovered commit must be bit-identical to the uninterrupted run"
    );
    let mut estimates = Vec::new();
    for q in &queries {
        estimates.push(rc.request(q).unwrap()[0].clone());
    }
    assert_eq!(
        estimates, clean_estimates,
        "estimates diverged after restart"
    );
    assert!(
        rc.reconnects() >= 1,
        "client must actually have reconnected (got {})",
        rc.reconnects()
    );
    server.shutdown_and_join();
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    /// Builds one catalog commit's worth of statistics deterministically.
    fn analyzed(name: &str, salt: u32) -> epfis_server::IngestSession {
        let mut s =
            epfis_server::IngestSession::new(name.to_string(), EpfisConfig::default(), Some(30));
        for (k, p) in scan_pairs(200 + salt % 7, 30) {
            s.feed(k, p).unwrap();
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random fault schedules against the catalog persist path: no
        /// schedule may tear the on-disk catalog, and every acknowledged
        /// commit must be on disk. After the disk heals, service resumes.
        #[test]
        fn random_fault_schedules_never_tear_the_catalog(
            rules in prop::collection::vec(
                (0u8..3, 0u8..8, 0u64..40, 1u64..3, any::<bool>()),
                0..4,
            ),
        ) {
            let root = temp_dir("prop");
            let cat_path = root.join("catalog.scat");
            let fv = FaultVfs::new();
            fv.schedule().set_armed(false);
            let catalog =
                SharedCatalog::open_with_vfs(&cat_path, fv.clone().shared()).unwrap();
            for (kind_sel, op_sel, at, times, bounded) in &rules {
                let kind = match kind_sel {
                    0 => FaultKind::Enospc,
                    1 => FaultKind::Eio,
                    _ => FaultKind::ShortWrite(3),
                };
                let mut rule = Rule::new(kind)
                    .on_op(OpKind::ALL[*op_sel as usize])
                    .after_index(*at);
                if *bounded {
                    rule = rule.times(*times);
                }
                fv.schedule().push(rule);
            }
            fv.schedule().set_armed(true);

            let names = ["e0", "e1", "e2"];
            let mut acked: Vec<&str> = Vec::new();
            for (i, name) in names.iter().enumerate() {
                let (stats, summary) = analyzed(name, i as u32).commit().unwrap();
                if catalog
                    .commit_analyzed(name, stats, Some(summary), 100 + i as u64, None)
                    .is_ok()
                {
                    acked.push(name);
                }
                // The compaction a commit may have made due, under the
                // same schedule.
                let _ = catalog.compact_if_due();
                // Old-or-new after every attempt: the files load, and
                // every acknowledged commit is in them.
                let on_disk = catalog_entries(&cat_path, "prop");
                for a in &acked {
                    prop_assert!(
                        on_disk.iter().any(|e| e == a),
                        "acked {a} missing from disk: {on_disk:?}"
                    );
                }
            }

            // Heal and resume: the probe plus one more commit must succeed,
            // and the final file holds everything acknowledged.
            fv.schedule().heal();
            catalog.probe_persist().unwrap();
            let (stats, summary) = analyzed("final", 9).commit().unwrap();
            catalog
                .commit_analyzed("final", stats, Some(summary), 200, None)
                .unwrap();
            let on_disk = catalog_entries(&cat_path, "prop-final");
            prop_assert!(on_disk.iter().any(|e| e == "final"));
            // The snapshot accumulated every successful insert, so the
            // healed persist carries all previously acknowledged entries.
            for a in &acked {
                prop_assert!(on_disk.iter().any(|e| e == a));
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Minimal HTTP GET returning the status code.
fn http_status(addr: std::net::SocketAddr, path: &str) -> u16 {
    http_get(addr, path).0
}

/// Minimal HTTP GET returning the body.
fn http_body(addr: std::net::SocketAddr, path: &str) -> String {
    http_get(addr, path).1
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}
