//! Crash-recovery acceptance tests for the WAL subsystem.
//!
//! The contract under test (docs/durability.md): the catalog write is an
//! `ANALYZE` session's commit point, so killing the server at any instant
//! leaves the persisted catalog either entirely old or entirely new (never
//! mixed), replay never writes the catalog and never panics no matter where
//! the log was cut, and a session resumed after a restart commits
//! statistics bit-identical to an uninterrupted run. The kill-at-every-
//! offset harness proves the first two properties exhaustively: it records
//! a reference WAL stream, then replays every possible byte-length prefix
//! of it against copies of both the pre-session and the post-session
//! catalog.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epfis::EpfisConfig;
use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};
use epfis_lrusim::AnalyzerSnapshot;
use epfis_obs::series_value;
use epfis_server::wal::{decode_record, encode_checkpoint};
use epfis_server::{
    serve, Client, FsyncPolicy, IngestSession, ServerConfig, ServerWal, SessionCheckpoint,
    SharedCatalog, VersionedCatalog, WalConfig, WalRecord,
};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "epfis-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic scan: `n` references over `t` table pages, three
/// references per key, pages scattered by a Knuth hash.
fn scan_pairs(n: u32, t: u32) -> Vec<(i64, u32)> {
    (0..n)
        .map(|i| ((i / 3) as i64, i.wrapping_mul(2654435761) % t))
        .collect()
}

fn wal_config(dir: impl Into<PathBuf>) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    // Tests re-read their own writes from the OS cache; skipping fsync
    // keeps the every-offset loop fast without changing any byte on disk.
    cfg.fsync = FsyncPolicy::Never;
    cfg
}

/// Each whole record in a log file: the byte offset where it ends, and its
/// decoded body. Frames are `len:u32 crc:u32 body` after a 12-byte header.
fn record_ends(log: &[u8]) -> Vec<(usize, WalRecord)> {
    let mut out = Vec::new();
    let mut at = 12;
    while at + 8 <= log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        out.push((end, decode_record(&log[at + 8..end]).unwrap()));
        at = end;
    }
    assert_eq!(at, log.len(), "reference log ends mid-record");
    out
}

/// A catalog's files as bytes: the snapshot and its catalog log, each
/// absent or whole.
#[derive(Clone, Debug, PartialEq)]
struct CatalogFiles {
    snapshot: Option<Vec<u8>>,
    log: Option<Vec<u8>>,
}

impl CatalogFiles {
    fn read(path: &Path) -> CatalogFiles {
        CatalogFiles {
            snapshot: std::fs::read(path).ok(),
            log: std::fs::read(SharedCatalog::log_path(path)).ok(),
        }
    }

    fn write(&self, path: &Path) {
        for (file, bytes) in [
            (path.to_path_buf(), &self.snapshot),
            (SharedCatalog::log_path(path), &self.log),
        ] {
            match bytes {
                Some(bytes) => std::fs::write(&file, bytes).unwrap(),
                None => {
                    let _ = std::fs::remove_file(&file);
                }
            }
        }
    }

    /// These files with the log cut to its first `len` bytes.
    fn log_cut(&self, len: usize) -> CatalogFiles {
        CatalogFiles {
            snapshot: self.snapshot.clone(),
            log: self.log.as_ref().map(|log| log[..len].to_vec()),
        }
    }
}

/// Truncate the reference WAL at every byte offset and replay each prefix
/// against both the pre-session and the post-session catalog: replay must
/// leave the catalog files byte-identical and never panic. With the post
/// catalog the committed session never parks, wherever the cut fell; with
/// the pre catalog it parks iff the cut holds its `BEGIN` and no `COMMIT`.
///
/// The catalog side of the commit is cut the same way: its catalog-log
/// record at every byte, and then the compaction that follows it — the
/// snapshot rename, then the log reset. Each cut loads as the old catalog
/// (the session parks, ready to resume) or the new one (it has ended),
/// never anything else.
#[test]
fn kill_at_every_offset_leaves_catalog_old_or_new() {
    let root = temp_dir("kill");
    let cat_path = root.join("catalog.scat");
    let gen_wal = root.join("gen-wal");
    let logger = epfis_obs::Logger::disabled();

    // Pre-state: a catalog that already holds one committed entry, so a
    // "mixed" outcome (base entry damaged, or half of the new entry
    // visible) would be detectable.
    let catalog = SharedCatalog::open(&cat_path).unwrap();
    {
        let mut base = IngestSession::new("base".into(), EpfisConfig::default(), Some(30));
        for (k, p) in scan_pairs(240, 30) {
            base.feed(k, p).unwrap();
        }
        let (stats, summary) = base.commit().unwrap();
        catalog
            .commit_analyzed("base", stats, Some(summary), 100, None)
            .unwrap();
    }
    let pre = CatalogFiles::read(&cat_path);
    let pre_catalog = catalog.snapshot();

    // Reference stream: a full session (BEGIN, two PAGE batches, a
    // mid-stream CHECKPOINT, COMMIT) recorded through the real ServerWal
    // against the real catalog. A second "blocker" session stays open the
    // whole time so the post-commit log reset cannot erase the stream.
    let pairs = scan_pairs(240, 40);
    let (first, rest) = pairs.split_at(pairs.len() / 2);
    let wal = ServerWal::open(
        &wal_config(&gen_wal),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    let _blocker = wal.begin("blocker", None, None).unwrap();
    let sid = wal.begin("ix.crash", None, Some(40)).unwrap();
    let mut shadow = IngestSession::new("ix.crash".into(), EpfisConfig::default(), Some(40));
    wal.append_page(sid, first.len(), first.iter().copied())
        .unwrap();
    shadow.feed_batch(first).unwrap();
    wal.append_checkpoint(sid, &shadow.checkpoint()).unwrap();
    wal.append_page(sid, rest.len(), rest.iter().copied())
        .unwrap();
    shadow.feed_batch(rest).unwrap();
    let (stats, summary) = shadow.commit().unwrap();
    wal.commit_session(sid, 777, |session| {
        catalog.commit_analyzed("ix.crash", stats, Some(summary), 777, Some(session))
    })
    .unwrap();
    let post = CatalogFiles::read(&cat_path);
    let post_catalog = catalog.snapshot();
    let wal_bytes = std::fs::read(gen_wal.join("wal-000000.seg")).unwrap();
    assert_ne!(pre, post);
    assert_eq!(
        post.snapshot, pre.snapshot,
        "a commit leaves the snapshot alone"
    );
    assert!(wal_bytes.len() > 100, "stream too short to be interesting");
    drop(wal);

    // Where the committed session's BEGIN and COMMIT records end.
    let records = record_ends(&wal_bytes);
    let end_of = |want: &dyn Fn(&WalRecord) -> bool| {
        records
            .iter()
            .find(|(_, r)| want(r))
            .map(|&(end, _)| end)
            .unwrap()
    };
    let begin_end =
        end_of(&|r| matches!(r, WalRecord::Begin { session_id, .. } if *session_id == sid));
    let commit_end =
        end_of(&|r| matches!(r, WalRecord::Commit { session_id, .. } if *session_id == sid));
    assert_eq!(commit_end, wal_bytes.len(), "COMMIT is the last record");
    let before_commit = records[records.len() - 2].0;

    // Opens `files` against the WAL prefix `wal_cut`: neither may be
    // written, and the loaded catalog is returned with whether ix.crash
    // parked.
    let replay_root = root.join("replay");
    let recover = |files: &CatalogFiles, wal_cut: usize, context: &str| {
        let _ = std::fs::remove_dir_all(&replay_root);
        let wal_dir = replay_root.join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        let cpath = replay_root.join("catalog.scat");
        files.write(&cpath);
        std::fs::write(wal_dir.join("wal-000000.seg"), &wal_bytes[..wal_cut]).unwrap();

        let catalog = SharedCatalog::open(&cpath)
            .unwrap_or_else(|e| panic!("{context}: catalog reopen failed: {e}"));
        let recovered = ServerWal::open(
            &wal_config(&wal_dir),
            &catalog,
            EpfisConfig::default(),
            &logger,
        )
        .unwrap_or_else(|e| panic!("{context}: replay failed: {e}"));
        assert!(
            CatalogFiles::read(&cpath) == *files,
            "{context}: replay wrote the catalog"
        );
        let parked = recovered.parked_names().contains(&"ix.crash".to_string());
        (catalog.snapshot(), parked)
    };

    // The harness proper: every prefix length is a simulated kill point,
    // replayed against either catalog the kill could have left.
    for cut in 0..=wal_bytes.len() {
        for (label, files) in [("pre", &pre), ("post", &post)] {
            let (_, parked) = recover(files, cut, &format!("cut {cut} {label}"));
            let expect = label == "pre" && cut >= begin_end && cut < commit_end;
            assert_eq!(parked, expect, "cut {cut} {label}: ix.crash parked");
        }
    }

    // The commit point: a kill at any byte of the catalog-log append,
    // before the COMMIT marker. A whole record is the new catalog and
    // ends the session; anything less is the old one, and the session
    // parks to be resumed.
    let (pre_len, post_len) = (
        pre.log.as_ref().unwrap().len(),
        post.log.as_ref().unwrap().len(),
    );
    assert!(post_len > pre_len);
    for cut in pre_len..=post_len {
        let context = format!("catalog log cut {cut}");
        let (loaded, parked) = recover(&post.log_cut(cut), before_commit, &context);
        if cut == post_len {
            assert_eq!(*loaded, *post_catalog, "{context}");
            assert!(!parked, "{context}: the committed session parked");
        } else {
            assert_eq!(*loaded, *pre_catalog, "{context}");
            assert!(parked, "{context}: the uncommitted session did not park");
        }
    }

    // The compaction that follows: the snapshot rename, the log reset,
    // then the new snapshot's id as the log's first record. A kill before
    // the rename leaves `post`; between the rename and the reset, the new
    // snapshot beside records it already holds; after the reset, the new
    // snapshot with an empty log, cut anywhere in its first record. All
    // load as the new catalog.
    assert!(
        catalog.compact_if_due().unwrap(),
        "the log is past the snapshot"
    );
    let compacted = CatalogFiles::read(&cat_path);
    assert_ne!(compacted.snapshot, post.snapshot);
    let compacted_len = compacted.log.as_ref().unwrap().len();
    assert_eq!(
        epfis_wal::Replay::from_bytes(compacted.log.clone().unwrap()).len(),
        1,
        "reset to its header and the snapshot's id"
    );
    let renamed = CatalogFiles {
        snapshot: compacted.snapshot.clone(),
        log: post.log.clone(),
    };
    let mut kills = vec![("renamed".to_string(), renamed)];
    for cut in 12..=compacted_len {
        kills.push((format!("reset, log cut {cut}"), compacted.log_cut(cut)));
    }
    for (label, files) in &kills {
        for wal_cut in [before_commit, wal_bytes.len()] {
            let context = format!("compaction {label}, wal cut {wal_cut}");
            let (loaded, parked) = recover(files, wal_cut, &context);
            assert_eq!(*loaded, *post_catalog, "{context}");
            assert!(!parked, "{context}: the committed session parked");
        }
    }
}

/// A catalog write that fails while a second session keeps the log from
/// resetting stays undone across a restart: the client was told `commit
/// failed`, so the entry is absent and the session cannot be resumed.
#[test]
fn failed_catalog_write_stays_undone_across_a_restart() {
    let root = temp_dir("undone");
    let config = |vfs: Option<Arc<dyn epfis_faults::Vfs>>| ServerConfig {
        catalog_path: Some(root.join("catalog.scat")),
        wal: Some(WalConfig::new(root.join("wal"))),
        vfs,
        ..ServerConfig::default()
    };
    let page_line = |pairs: &[(i64, u32)]| {
        let mut line = String::from("PAGE");
        for (k, p) in pairs {
            line.push_str(&format!(" {k} {p}"));
        }
        line
    };

    let fv = FaultVfs::new();
    let server = serve(config(Some(fv.clone().shared()))).unwrap();
    let mut open = Client::connect(server.addr()).unwrap();
    open.request("ANALYZE BEGIN ix.open table_pages=40")
        .unwrap();
    open.request(&page_line(&scan_pairs(60, 40))).unwrap();

    let mut c = Client::connect(server.addr()).unwrap();
    // RECOVER opens the catalog log and writes its first record (the
    // snapshot's id), so the fault below hits the commit's own record.
    c.request("RECOVER").unwrap();
    c.request("ANALYZE BEGIN ix.lost table_pages=40").unwrap();
    c.request(&page_line(&scan_pairs(120, 40))).unwrap();
    // The catalog log's fdatasync fails: the append is the commit point.
    let log_path = SharedCatalog::log_path(&root.join("catalog.scat"));
    let log_before = std::fs::read(&log_path).unwrap();
    fv.schedule().push(
        Rule::new(FaultKind::Enospc)
            .on_op(OpKind::SyncData)
            .path_contains("catalog.scat.log"),
    );
    let err = c
        .request("ANALYZE COMMIT")
        .expect_err("catalog write must fail");
    assert!(err.to_string().contains("commit failed"), "{err}");
    assert_eq!(fv.schedule().injected(), 1, "the append's fdatasync failed");
    // The whole record the failed fdatasync covered is off the file: a
    // restart before RECOVER must not load it.
    assert_eq!(std::fs::read(&log_path).unwrap(), log_before);
    drop((c, open));
    server.shutdown_and_join();

    let server = serve(config(None)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let show = c.request("SHOW").unwrap();
    assert!(
        !show.iter().any(|l| l.starts_with("ix.lost ")),
        "a failed commit came back: {show:?}"
    );
    let err = c
        .request("ANALYZE RESUME ix.lost")
        .expect_err("the failed session must not be resumable");
    assert!(err.to_string().contains("no recoverable session"), "{err}");
    // The session that kept the log alive is still there to resume.
    let resumed = c.request("ANALYZE RESUME ix.open").unwrap();
    assert_eq!(resumed, vec!["resumed ix.open refs=60".to_string()]);
    server.shutdown_and_join();
}

/// Analyzes `pairs` for `ix.a` as a WAL session: its BEGIN and PAGE
/// records go to the log, and the finished statistics come back for the
/// catalog write.
fn logged_session(
    wal: &ServerWal,
    pairs: &[(i64, u32)],
) -> (
    u64,
    epfis::IndexStatistics,
    epfis_estimators::BaselineCounters,
) {
    let sid = wal.begin("ix.a", None, Some(40)).unwrap();
    wal.append_page(sid, pairs.len(), pairs.iter().copied())
        .unwrap();
    let mut session = IngestSession::new("ix.a".into(), EpfisConfig::default(), Some(40));
    session.feed_batch(pairs).unwrap();
    let (stats, counters) = session.commit().unwrap();
    (sid, stats, counters)
}

/// Re-analyzes `ix.a` with a newer session on a log that a parked
/// `blocker` keeps from resetting, then restarts: the catalog now names the
/// newer session, and the older `ix.a` session — which the log must have
/// marked ended — stays ended.
fn newer_commit_then_restart(cat_path: &std::path::Path, wal_dir: &std::path::Path) {
    let logger = epfis_obs::Logger::disabled();
    let catalog = SharedCatalog::open(cat_path).unwrap();
    let wal = ServerWal::open(
        &wal_config(wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    assert_eq!(wal.parked_names(), vec!["blocker".to_string()]);
    let (sid, stats, counters) = logged_session(&wal, &scan_pairs(240, 40));
    wal.commit_session(sid, 2, |session| {
        catalog.commit_analyzed("ix.a", stats.clone(), Some(counters), 2, Some(session))
    })
    .unwrap();
    drop((wal, catalog));

    let catalog = SharedCatalog::open(cat_path).unwrap();
    let wal = ServerWal::open(
        &wal_config(wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    assert_eq!(
        wal.parked_names(),
        vec!["blocker".to_string()],
        "an ended ix.a session came back as in flight"
    );
    let snapshot = catalog.snapshot();
    let entry = snapshot.get("ix.a").unwrap();
    assert_eq!((entry.session, &entry.stats), (Some(sid), &stats));
}

/// A crash between `ix.a`'s catalog write and its `COMMIT` marker, while a
/// blocker session keeps the log from resetting: the restart counts `ix.a`
/// as ended because the catalog names its session, and writes the missing
/// marker, so a newer commit of `ix.a` does not bring the old session back
/// on the restart after.
#[test]
fn session_ended_by_the_catalog_stays_ended_after_a_newer_commit() {
    let root = temp_dir("crash-before-marker");
    let cat_path = root.join("catalog.scat");
    let wal_dir = root.join("wal");
    let logger = epfis_obs::Logger::disabled();
    let catalog = SharedCatalog::open(&cat_path).unwrap();
    let wal = ServerWal::open(
        &wal_config(&wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    wal.begin("blocker", None, None).unwrap();
    let (sid, stats, counters) = logged_session(&wal, &scan_pairs(120, 40));
    // The commit point lands; the process dies before the marker.
    catalog
        .commit_analyzed("ix.a", stats, Some(counters), 1, Some(sid))
        .unwrap();
    drop((wal, catalog));

    newer_commit_then_restart(&cat_path, &wal_dir);
}

/// A `COMMIT` marker whose append fails after the catalog write landed: the
/// commit stands, the log is poisoned, and `RECOVER` writes the marker, so
/// a newer commit of `ix.a` does not bring the old session back on a
/// restart.
#[test]
fn failed_commit_marker_is_written_by_recover() {
    let root = temp_dir("failed-marker");
    let cat_path = root.join("catalog.scat");
    let wal_dir = root.join("wal");
    let logger = epfis_obs::Logger::disabled();
    let fv = FaultVfs::new();
    let catalog = SharedCatalog::open_with_vfs(&cat_path, fv.clone().shared()).unwrap();
    let wal = ServerWal::open(
        &wal_config(&wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    wal.begin("blocker", None, None).unwrap();
    let (sid, stats, counters) = logged_session(&wal, &scan_pairs(120, 40));
    fv.schedule().push(
        Rule::new(FaultKind::Eio)
            .on_op(OpKind::Write)
            .path_contains("wal-")
            .times(1),
    );
    wal.commit_session(sid, 1, |session| {
        catalog.commit_analyzed("ix.a", stats, Some(counters), 1, Some(session))
    })
    .expect("the catalog write is the commit point");
    assert!(
        wal.poisoned().is_some(),
        "the failed marker poisons the log"
    );
    wal.recover().unwrap();
    assert!(wal.poisoned().is_none());
    // The blocker disconnects: parked, so the log is not reset.
    wal.park(
        IngestSession::new("blocker".into(), EpfisConfig::default(), None),
        1,
    )
    .unwrap();
    drop((wal, catalog));

    newer_commit_then_restart(&cat_path, &wal_dir);
}

fn page_line(pairs: &[(i64, u32)]) -> String {
    let mut line = String::from("PAGE");
    for (k, p) in pairs {
        line.push_str(&format!(" {k} {p}"));
    }
    line
}

/// A file's length, 0 if it is missing.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Polls `done` every 10 ms, panicking with `what` after 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// With `--wal-dir` under the default `batch` policy, an `ANALYZE COMMIT`
/// reply waits for one fdatasync, the catalog-log append's: the `COMMIT`
/// marker is left for the next sync of the log to cover, and the log reset
/// runs after the reply.
#[test]
fn commit_reply_waits_for_one_fdatasync() {
    let root = temp_dir("one-sync");
    let cat_path = root.join("catalog.scat");
    let seg = root.join("wal").join("wal-000000.seg");
    // A snapshot of 20 entries, compacted as `epfis analyze` would: the
    // commits below leave the log smaller than it, so no compaction
    // (which syncs the catalog log again) runs after their replies.
    {
        let catalog = SharedCatalog::open(&cat_path).unwrap();
        let mut base = IngestSession::new("base".into(), EpfisConfig::default(), Some(30));
        base.feed_batch(&scan_pairs(240, 30)).unwrap();
        let (stats, counters) = base.commit().unwrap();
        for i in 0..20 {
            let name = format!("base{i}");
            catalog
                .commit_analyzed(&name, stats.clone(), Some(counters), 100, None)
                .unwrap();
            catalog.compact_if_due().unwrap();
        }
    }
    let fv = FaultVfs::new();
    let wal_syncs = fv.schedule().count(OpKind::SyncData, "wal-000000");
    let wal_truncates = fv.schedule().count(OpKind::Truncate, "wal-000000");
    let log_syncs = fv.schedule().count(OpKind::SyncData, "catalog.scat.log");
    let counts = || [&wal_syncs, &wal_truncates, &log_syncs].map(|c| c.load(Ordering::SeqCst));
    let since = |before: [u64; 3]| {
        let now = counts();
        [0, 1, 2].map(|i| now[i] - before[i])
    };
    let server = serve(ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(WalConfig::new(root.join("wal"))),
        vfs: Some(fv.clone().shared()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // RECOVER opens the catalog log, so a commit syncs only its record.
    c.request("RECOVER").unwrap();

    c.request("ANALYZE BEGIN ix.one table_pages=40").unwrap();
    c.request(&page_line(&scan_pairs(120, 40))).unwrap();
    let before = counts();
    let ack = c.request("ANALYZE COMMIT").unwrap();
    assert!(ack[0].starts_with("committed ix.one "), "{ack:?}");
    wait_until("the deferred reset", || file_len(&seg) == 12);
    assert_eq!(
        since(before),
        [1, 1, 1],
        "WAL syncs (the reset's alone), WAL truncates, catalog-log syncs"
    );

    // With a second session attached no reset is due, so the counts at the
    // reply are all there will be: the catalog-log append's sync, no WAL
    // sync.
    let mut other = Client::connect(server.addr()).unwrap();
    other
        .request("ANALYZE BEGIN ix.other table_pages=40")
        .unwrap();
    c.request("ANALYZE BEGIN ix.two table_pages=40").unwrap();
    c.request(&page_line(&scan_pairs(120, 40))).unwrap();
    let before = counts();
    let ack = c.request("ANALYZE COMMIT").unwrap();
    assert!(ack[0].starts_with("committed ix.two "), "{ack:?}");
    assert_eq!(since(before), [0, 0, 1]);
    let log = std::fs::read(&seg).unwrap();
    let last = record_ends(&log).pop().unwrap().1;
    assert!(
        matches!(last, WalRecord::Commit { .. }),
        "the marker is appended, unsynced: {last:?}"
    );
    // The ABORT is synced, covering the marker too; the reset follows.
    other.request("ANALYZE ABORT").unwrap();
    wait_until("the deferred reset", || file_len(&seg) == 12);
    assert_eq!(since(before), [2, 1, 1]);

    let stats = c.request("STATS").unwrap().join("\n");
    assert_eq!(
        series_value(&stats, "epfis_server_catalog_compactions_total"),
        Some(0.0)
    );
    drop((c, other));
    server.shutdown_and_join();
}

/// A session that begins between a commit's reply and the log reset the
/// commit left due keeps its records: `begin` runs the reset first, the
/// ingest thread's reset then finds a session attached and does nothing,
/// and a restart parks the session.
#[test]
fn begin_between_a_commit_reply_and_its_reset_keeps_its_records() {
    let root = temp_dir("late-reset");
    let cat_path = root.join("catalog.scat");
    let wal_dir = root.join("wal");
    let seg = wal_dir.join("wal-000000.seg");
    let logger = epfis_obs::Logger::disabled();
    let catalog = SharedCatalog::open(&cat_path).unwrap();
    let wal = ServerWal::open(
        &WalConfig::new(&wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    let (sid, stats, counters) = logged_session(&wal, &scan_pairs(120, 40));
    wal.commit_session(sid, 1, |session| {
        catalog.commit_analyzed("ix.a", stats, Some(counters), 1, Some(session))
    })
    .unwrap();
    assert!(file_len(&seg) > 12, "the reset waits for the reply");

    let late = wal.begin("ix.late", None, Some(40)).unwrap();
    let pairs = scan_pairs(90, 40);
    wal.append_page(late, pairs.len(), pairs.iter().copied())
        .unwrap();
    wal.reset_if_due().unwrap();
    let records: Vec<WalRecord> = record_ends(&std::fs::read(&seg).unwrap())
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    assert_eq!(records.len(), 2, "{records:?}");
    assert!(matches!(records[0], WalRecord::Begin { session_id, .. } if session_id == late));
    assert_eq!(
        records[1],
        WalRecord::Page {
            session_id: late,
            pairs: pairs.clone(),
        }
    );
    drop((wal, catalog));

    let catalog = SharedCatalog::open(&cat_path).unwrap();
    let wal = ServerWal::open(
        &WalConfig::new(&wal_dir),
        &catalog,
        EpfisConfig::default(),
        &logger,
    )
    .unwrap();
    assert_eq!(wal.parked_names(), vec!["ix.late".to_string()]);
    let (resumed, resumed_sid) = wal.take_parked("ix.late").unwrap();
    assert_eq!((resumed.records(), resumed_sid), (pairs.len() as u64, late));
    assert_eq!(catalog.snapshot().get("ix.a").unwrap().session, Some(sid));
}

/// `EXPLAIN` names the session that committed a WAL entry, on the live
/// server and after a restart (the id is persisted on the `meta` line).
#[test]
fn explain_names_the_session_that_committed_the_entry() {
    let root = temp_dir("explain");
    let config = || ServerConfig {
        catalog_path: Some(root.join("catalog.scat")),
        wal: Some(wal_config(root.join("wal"))),
        ..ServerConfig::default()
    };
    let explain = "EXPLAIN ESTIMATE ix.e 0.5 10";
    let server = serve(config()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.request("ANALYZE BEGIN ix.e table_pages=40").unwrap();
    let mut line = String::from("PAGE");
    for (k, p) in scan_pairs(120, 40) {
        line.push_str(&format!(" {k} {p}"));
    }
    c.request(&line).unwrap();
    assert!(c.request("ANALYZE COMMIT").unwrap()[0].starts_with("committed ix.e epoch=1 "));
    let live = c.request(explain).unwrap();
    assert_eq!(live[1], "entry ix.e epoch=1 session=1");
    server.shutdown_and_join();

    let server = serve(config()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request(explain).unwrap(), live);
    // The next session's id continues past the one the catalog records.
    c.request("ANALYZE BEGIN ix.e table_pages=40").unwrap();
    c.request(&line).unwrap();
    c.request("ANALYZE COMMIT").unwrap();
    assert_eq!(
        c.request(explain).unwrap()[1],
        "entry ix.e epoch=2 session=2"
    );
    server.shutdown_and_join();
}

/// End-to-end over TCP: disconnect mid-session (parks), resume on the same
/// server, kill the server, restart against the same WAL dir, resume again,
/// and commit — the committed statistics and every served estimate must be
/// byte-identical to a clean uninterrupted run.
#[test]
fn tcp_restart_resumes_and_commits_bit_identical() {
    let root = temp_dir("tcp");
    let cat_path = root.join("catalog.scat");
    let wal_dir = root.join("wal");
    let mut wal_cfg = WalConfig::new(&wal_dir);
    wal_cfg.checkpoint_refs = 500; // exercise periodic checkpoints live
    let config = || ServerConfig {
        catalog_path: Some(cat_path.clone()),
        wal: Some(wal_cfg.clone()),
        ..ServerConfig::default()
    };
    let pairs = scan_pairs(3000, 150);
    let feed = |client: &mut Client, slice: &[(i64, u32)]| {
        for chunk in slice.chunks(100) {
            let mut line = String::from("PAGE");
            for (k, p) in chunk {
                line.push_str(&format!(" {k} {p}"));
            }
            client.request(&line).unwrap();
        }
    };
    let parked_sessions = |client: &mut Client| -> f64 {
        let stats = client.request("STATS").unwrap().join("\n");
        series_value(&stats, "epfis_wal_parked_sessions")
            .expect("STATS must report epfis_wal_parked_sessions when the WAL is on")
    };
    let wait_parked = |client: &mut Client| {
        // Parking happens when the worker notices the disconnect; give it
        // a moment (bounded), polling through a separate control client.
        for _ in 0..500 {
            if parked_sessions(client) == 1.0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("session never parked");
    };
    let queries = [
        "ESTIMATE ix.r 0.001 1",
        "ESTIMATE ix.r 0.1 25",
        "ESTIMATE ix.r 0.5 75",
        "ESTIMATE ix.r 1.0 150",
        "ESTIMATE ix.r 0.333 60 0.333",
        "ESTIMATE ix.r 1.0 400 0.9",
    ];

    // The reference: the same scan through a clean in-memory server.
    let clean_commit_line;
    let clean_estimates: Vec<String>;
    {
        let server = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.request("ANALYZE BEGIN ix.r table_pages=150").unwrap();
        feed(&mut c, &pairs);
        clean_commit_line = c.request("ANALYZE COMMIT").unwrap()[0].clone();
        clean_estimates = queries
            .iter()
            .map(|q| c.request(q).unwrap()[0].clone())
            .collect();
    }

    // Phase 1: stream half the scan, then vanish. The server parks the
    // session against the WAL instead of discarding it.
    let server = serve(config()).unwrap();
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap();
    {
        let mut c1 = Client::connect(addr).unwrap();
        c1.request("ANALYZE BEGIN ix.r table_pages=150").unwrap();
        feed(&mut c1, &pairs[..1500]);
    }
    wait_parked(&mut control);

    // Phase 2: resume on the same server, stream another quarter, vanish
    // again.
    {
        let mut c2 = Client::connect(addr).unwrap();
        let lines = c2.request("ANALYZE RESUME ix.r").unwrap();
        assert_eq!(lines[0], "resumed ix.r refs=1500");
        feed(&mut c2, &pairs[1500..2250]);
    }
    wait_parked(&mut control);

    // Phase 3: kill the server. The parked session survives only in the
    // WAL; the restarted server must rebuild it from BEGIN + CHECKPOINT +
    // PAGE records before accepting connections.
    drop(control);
    drop(server);
    let server = serve(config()).unwrap();
    let mut c3 = Client::connect(server.addr()).unwrap();
    let stats = c3.request("STATS").unwrap().join("\n");
    let replayed = series_value(&stats, "epfis_wal_replay_records_total")
        .expect("STATS must report epfis_wal_replay_records_total");
    assert!(replayed > 0.0, "restart must have replayed WAL records");
    assert_eq!(parked_sessions(&mut c3), 1.0);

    let lines = c3.request("ANALYZE RESUME ix.r").unwrap();
    assert_eq!(lines[0], "resumed ix.r refs=2250");
    feed(&mut c3, &pairs[2250..]);
    let commit_line = c3.request("ANALYZE COMMIT").unwrap()[0].clone();
    assert_eq!(
        commit_line, clean_commit_line,
        "recovered commit must match the uninterrupted run"
    );
    for (q, want) in queries.iter().zip(&clean_estimates) {
        let got = &c3.request(q).unwrap()[0];
        assert_eq!(got, want, "estimate diverged after recovery: {q}");
    }

    // The persisted catalog is a valid checksummed document: the commit
    // took the log past the (empty) snapshot, and the compaction after its
    // reply has finished once the server has shut down.
    drop(c3);
    server.shutdown_and_join();
    let text = std::fs::read_to_string(&cat_path).unwrap();
    let back = VersionedCatalog::from_text_checksummed(&text).unwrap();
    assert!(back.get("ix.r").is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CHECKPOINT records round-trip arbitrary session state exactly —
    /// including empty vectors, extreme counters, and negative keys.
    #[test]
    fn checkpoint_records_round_trip(
        session_id in any::<u64>(),
        name_seed in any::<u64>(),
        has_table_pages in any::<bool>(),
        table_pages in any::<u32>(),
        pages in prop::collection::vec(any::<u32>(), 0..64),
        counts in prop::collection::vec(any::<u64>(), 0..64),
        refs in any::<u64>(),
        compactions in any::<u64>(),
        records in any::<u64>(),
        keys in any::<u64>(),
        max_page in any::<u32>(),
        has_current in any::<bool>(),
        current_key in any::<i64>(),
        seen_keys in prop::collection::vec(any::<i64>(), 0..64),
        cc_minmax in any::<u64>(),
        run_min in any::<u32>(),
        run_max in any::<u32>(),
        prev_run_max in any::<u32>(),
    ) {
        const NAMES: &[&str] = &["ix", "orders.pk", "a.very.long.index.name", "x_1"];
        let cp = SessionCheckpoint {
            name: NAMES[(name_seed % NAMES.len() as u64) as usize].to_string(),
            declared_table_pages: has_table_pages.then_some(table_pages),
            analyzer: AnalyzerSnapshot { pages_by_recency: pages, counts, refs, compactions },
            records,
            keys,
            max_page,
            current_key: has_current.then_some(current_key),
            seen_keys,
            cc_minmax,
            run_min,
            run_max,
            prev_run_max,
        };
        let mut buf = Vec::new();
        encode_checkpoint(&mut buf, session_id, &cp);
        match decode_record(&buf) {
            Ok(WalRecord::Checkpoint { session_id: sid, checkpoint }) => {
                prop_assert_eq!(sid, session_id);
                prop_assert_eq!(checkpoint, cp);
            }
            other => prop_assert!(false, "decoded {other:?}"),
        }
    }

    /// The checksummed catalog codec carries the nastiest f64s the FPF
    /// curve can hold — subnormals, the largest finite value, long
    /// mantissas — plus a NaN clustering factor, and any single flipped
    /// body byte is rejected as a checksum mismatch.
    #[test]
    fn checksummed_catalog_round_trips_extreme_fpf_values(
        knot_count in 2usize..8,
        seed in any::<u64>(),
        nan_clustering in any::<bool>(),
        flip_at in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        // The same palette as the catalog property tests: knots must
        // be finite, so NaN rides in `clustering_factor` instead.
        const PALETTE: &[f64] = &[
            5e-324,                  // smallest subnormal
            2.2250738585072014e-308, // smallest normal
            1e-300,
            0.0,
            1.0,
            0.123_456_789_012_345_68,
            1e308,
            f64::MAX,
            9.87654321e77,
        ];
        let knots: Vec<(f64, f64)> = (0..knot_count)
            .map(|i| {
                let y = PALETTE[(seed.wrapping_add(i as u64 * 7919) % PALETTE.len() as u64) as usize];
                (i as f64 + 1.0, y)
            })
            .collect();
        let stats = epfis::IndexStatistics {
            table_pages: u64::MAX,
            records: u64::MAX - 1,
            distinct_keys: 1,
            distinct_pages: u64::MAX / 2,
            clustering_factor: if nan_clustering { f64::NAN } else { 5e-324 },
            b_min: 1,
            b_max: u64::MAX,
            fpf: epfis_segfit::PiecewiseLinear::new(knots),
            config: EpfisConfig::default(),
        };
        let mut catalog = VersionedCatalog::new();
        catalog.insert("extreme", stats, 12345, None).unwrap();

        let text = catalog.to_text_checksummed();
        let back = VersionedCatalog::from_text_checksummed(&text).unwrap();
        // NaN breaks value equality by design; the canonical text form is
        // the identity that matters for crash recovery.
        prop_assert_eq!(back.to_text(), catalog.to_text());

        // Tamper with one bit of one body byte: the checksum must catch it.
        let mut bytes = text.clone().into_bytes();
        let body_len = text.rfind("crc32c ").expect("footer present");
        let idx = (flip_at % body_len as u64) as usize;
        bytes[idx] ^= 1 << flip_bit;
        if bytes != text.as_bytes() {
            let tampered = String::from_utf8_lossy(&bytes).into_owned();
            // Flipping the newline that separates body from footer merges
            // them, so the footer is no longer recognizable and the reject
            // comes from the parser instead; every other flip must produce
            // the distinct mismatch error.
            let footer_intact = tampered
                .trim_end_matches('\n')
                .lines()
                .next_back()
                .is_some_and(|l| l.starts_with("crc32c "));
            match VersionedCatalog::from_text_checksummed(&tampered) {
                Ok(_) => prop_assert!(false, "tampered catalog must not parse"),
                Err(err) if footer_intact => prop_assert!(
                    err.to_string().contains("catalog checksum mismatch"),
                    "unexpected error: {err}"
                ),
                Err(_) => {}
            }
        }
    }
}
