//! Durable ingestion: the server's record schema over the [`epfis_wal`]
//! log file, startup replay, and parked-session recovery.
//!
//! # Record schema
//!
//! Each WAL record body is one tagged, little-endian message:
//!
//! ```text
//! BEGIN      0x01  sid:u64  segments:u32 (0 = none)  table_pages:u32 (0 = none)
//!                  name_len:u16  name bytes
//! PAGE       0x02  sid:u64  count:u32  count x { varint(zigzag(Δkey))  varint(page) }
//! CHECKPOINT 0x03  sid:u64  serialized SessionCheckpoint
//! COMMIT     0x04  sid:u64  0:u64  0:u64
//! ABORT      0x05  sid:u64
//! ```
//!
//! The two zero slots in `COMMIT` held a commit sequence number and the
//! commit's `analyzed_at` in older builds; they stay in the layout so those
//! logs still decode, and are ignored.
//!
//! `PAGE` pairs are delta-packed rather than stored in framing v2's fixed
//! 12-byte layout: index scans reference keys in nearly sorted runs, so a
//! zigzag-varint key delta plus a varint page number averages ~3 bytes per
//! pair. The WAL's cost scales with bytes — CRC, page-cache copy, and
//! above all fsync writeback — so a 4× smaller log is what keeps
//! `fsync=batch` ingest within a few percent of WAL-off throughput.
//! Checkpoint arrays (sorted seen-keys, analyzer counts) pack the same way.
//!
//! # The catalog write is the commit point
//!
//! [`ServerWal::commit_session`] writes the catalog first: one synced
//! catalog-log record, whose entry records the session on its `meta` line
//! as `session=S`. Then it appends the `COMMIT` record as a marker that the
//! session ended, or appends and syncs an `ABORT` record if the catalog
//! write failed. The `COMMIT` marker gets no fdatasync of its own: the next
//! sync of the log covers it (the next `BEGIN`, `CHECKPOINT` or park), so
//! with the `batch` policy the reply waits for the catalog-log append's
//! fdatasync alone. A session has therefore ended if the log holds its
//! `COMMIT` or `ABORT`, or if the catalog entry for its name records its
//! id (a crash before the marker reached the disk). Replay never writes
//! the catalog, so it is always the old or the new version. A session
//! counted as ended only by the catalog gets its `COMMIT` marker appended
//! at that restart if the log is kept, because a newer commit of the same
//! name would stop the catalog from naming it; for the same reason a
//! commit syncs any marker still unsynced before its own catalog write.
//!
//! A `COMMIT` record an older build wrote (it appended the record before
//! the catalog write) also counts as ended: a crash between that record
//! and its catalog rename leaves that unacknowledged commit undone.
//!
//! # Reset
//!
//! Once nothing is attached or parked, every session in the log has ended
//! and the log is due for a reset: a truncate back to its header plus an
//! fdatasync, which takes tens of milliseconds for a log of tens of MB.
//! [`ServerWal::reset_if_due`] runs it off the reply path: the server's
//! ingest thread calls it after a job's answers are handed back, the next
//! [`ServerWal::begin`] calls it first, and a clean shutdown calls it last.
//! Each call re-checks under the session lock, so a session that began
//! since keeps its records. A reset that runs late, or never, changes
//! nothing replay sees: it skips every ended session.
//!
//! # Replay and parking
//!
//! [`ServerWal::open`] replays the log before the listener binds: every
//! session still in flight is rebuilt — from its latest `CHECKPOINT` plus
//! the `PAGE` records after it — and *parked* under its entry name.
//! `ANALYZE RESUME <name>` attaches a parked session to a connection and
//! streaming continues exactly where it stopped. A pre-scan of the record
//! heads bounds replay cost: a session's records before its last
//! checkpoint, and every record of a session that has ended, are skipped
//! undecoded, so at most one checkpoint interval of `PAGE` records is
//! re-fed per session that still needs it.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use epfis::EpfisConfig;
use epfis_lrusim::AnalyzerSnapshot;
use epfis_obs::{Level, Logger};
pub use epfis_wal::FsyncPolicy;
use epfis_wal::{Wal, WalOptions};

use crate::catalog::SharedCatalog;
use crate::ingest::{IngestSession, SessionCheckpoint};

const TAG_BEGIN: u8 = 0x01;
const TAG_PAGE: u8 = 0x02;
const TAG_CHECKPOINT: u8 = 0x03;
const TAG_COMMIT: u8 = 0x04;
const TAG_ABORT: u8 = 0x05;

/// Durability settings for `epfis serve`, resolved from `--wal-*` flags.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the log file (created if absent).
    pub dir: PathBuf,
    /// When appends reach disk; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// References between analyzer checkpoints: replay re-feeds at most
    /// this many `PAGE` references per in-flight session.
    pub checkpoint_refs: u64,
}

impl WalConfig {
    /// Defaults for everything but the directory: batch fsync and a
    /// checkpoint every 1 M references.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            checkpoint_refs: 1 << 20,
        }
    }

    /// Rejects configurations that cannot work before any file is touched.
    pub fn validate(&self) -> Result<(), String> {
        if self.dir.as_os_str().is_empty() {
            return Err("wal dir must not be empty".into());
        }
        if self.checkpoint_refs == 0 {
            return Err("wal checkpoint interval must be at least 1 reference".into());
        }
        Ok(())
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session opened.
    Begin {
        /// WAL-unique session id.
        session_id: u64,
        /// Entry name the session will commit to.
        name: String,
        /// `segments=N` override from ANALYZE BEGIN, if any.
        segments: Option<usize>,
        /// `table_pages=T` declaration from ANALYZE BEGIN, if any.
        table_pages: Option<u32>,
    },
    /// A validated batch of `(key, page)` references.
    Page {
        /// WAL-unique session id.
        session_id: u64,
        /// The batch, in feed order.
        pairs: Vec<(i64, u32)>,
    },
    /// Full session state; replay restarts from the latest one.
    Checkpoint {
        /// WAL-unique session id.
        session_id: u64,
        /// The serialized session.
        checkpoint: SessionCheckpoint,
    },
    /// The session's catalog write succeeded: it has ended.
    Commit {
        /// WAL-unique session id.
        session_id: u64,
    },
    /// The session was discarded.
    Abort {
        /// WAL-unique session id.
        session_id: u64,
    },
}

// ---------------------------------------------------------------------------
// Codec

struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated wal record (wanted {n} more bytes)"))?;
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// LEB128 varint, at most 10 bytes for a u64.
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err("wal varint overflows u64".to_string());
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn done(&self) -> Result<(), String> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(format!(
                "wal record has {} trailing bytes",
                self.b.len() - self.off
            ))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag maps signed deltas to small unsigned varints (`0 → 0, -1 → 1,
/// 1 → 2, …`), so nearly-sorted key streams pack to one byte per delta.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a `BEGIN` record body.
pub fn encode_begin(
    out: &mut Vec<u8>,
    session_id: u64,
    name: &str,
    segments: Option<usize>,
    table_pages: Option<u32>,
) {
    out.clear();
    out.push(TAG_BEGIN);
    put_u64(out, session_id);
    put_u32(out, segments.map_or(0, |m| m as u32));
    put_u32(out, table_pages.unwrap_or(0));
    put_u16(out, name.len() as u16);
    out.extend_from_slice(name.as_bytes());
}

/// Encodes a `PAGE` record body straight from the batch iterator — no
/// intermediate `Vec<(i64, u32)>` on the ingest hot path. Pairs pack as
/// `varint(zigzag(key − prev_key)) varint(page)`: index scans reference
/// keys in nearly sorted runs, so a typical pair costs ~3 bytes instead of
/// the 12 a fixed layout would — and every downstream cost of the log
/// (CRC, page-cache copy, fsync writeback) shrinks with it.
pub fn encode_page(
    out: &mut Vec<u8>,
    session_id: u64,
    batch_len: usize,
    pairs: impl Iterator<Item = (i64, u32)>,
) {
    out.clear();
    out.reserve(13 + batch_len * 4);
    out.push(TAG_PAGE);
    put_u64(out, session_id);
    put_u32(out, batch_len as u32);
    let mut prev_key = 0i64;
    for (key, page) in pairs {
        put_varint(out, zigzag(key.wrapping_sub(prev_key)));
        put_varint(out, u64::from(page));
        prev_key = key;
    }
}

/// Encodes a `CHECKPOINT` record body.
pub fn encode_checkpoint(out: &mut Vec<u8>, session_id: u64, cp: &SessionCheckpoint) {
    out.clear();
    out.push(TAG_CHECKPOINT);
    put_u64(out, session_id);
    put_u16(out, cp.name.len() as u16);
    out.extend_from_slice(cp.name.as_bytes());
    put_u32(out, cp.declared_table_pages.unwrap_or(0));
    put_u64(out, cp.records);
    put_u64(out, cp.keys);
    put_u32(out, cp.max_page);
    match cp.current_key {
        Some(k) => {
            out.push(1);
            put_i64(out, k);
        }
        None => {
            out.push(0);
            put_i64(out, 0);
        }
    }
    // `seen_keys` is sorted (see `IngestSession::checkpoint`), so zigzag
    // deltas pack to about a byte per key.
    put_u64(out, cp.seen_keys.len() as u64);
    let mut prev_key = 0i64;
    for &k in &cp.seen_keys {
        put_varint(out, zigzag(k.wrapping_sub(prev_key)));
        prev_key = k;
    }
    // The zero slots once held the run-order cluster counter, the open
    // run's last page and the previous run's last page. They stay in the
    // layout so a log written by an older build still decodes.
    put_u64(out, cp.cc_minmax);
    put_u64(out, 0);
    put_u32(out, cp.run_min);
    put_u32(out, cp.run_max);
    put_u32(out, 0);
    put_u32(out, cp.prev_run_max);
    put_u32(out, 0);
    put_u64(out, cp.analyzer.pages_by_recency.len() as u64);
    for &p in &cp.analyzer.pages_by_recency {
        put_varint(out, u64::from(p));
    }
    put_u64(out, cp.analyzer.counts.len() as u64);
    for &c in &cp.analyzer.counts {
        put_varint(out, c);
    }
    put_u64(out, cp.analyzer.refs);
    put_u64(out, cp.analyzer.compactions);
}

/// Encodes a `COMMIT` record body. The zero slots are where older builds
/// wrote a commit sequence (`commit_seq`) and `analyzed_at`.
pub fn encode_commit(out: &mut Vec<u8>, session_id: u64) {
    out.clear();
    out.push(TAG_COMMIT);
    put_u64(out, session_id);
    put_u64(out, 0);
    put_u64(out, 0);
}

/// Encodes an `ABORT` record body.
pub fn encode_abort(out: &mut Vec<u8>, session_id: u64) {
    out.clear();
    out.push(TAG_ABORT);
    put_u64(out, session_id);
}

/// The `(tag, session id)` every record body starts with, read without
/// decoding the payload.
fn record_head(body: &[u8]) -> Option<(u8, u64)> {
    let mut cur = Cur::new(body);
    Some((cur.u8().ok()?, cur.u64().ok()?))
}

fn decode_len(cur: &mut Cur<'_>, what: &str, max: u64) -> Result<usize, String> {
    let n = cur.u64()?;
    if n > max {
        return Err(format!("wal {what} length {n} out of range"));
    }
    Ok(n as usize)
}

/// Decodes one record body. Bodies come from the log file, so they have
/// already passed CRC32C validation; decode errors here mean a version skew
/// or a bug, not ordinary disk corruption.
pub fn decode_record(body: &[u8]) -> Result<WalRecord, String> {
    let mut cur = Cur::new(body);
    let tag = cur.u8()?;
    let session_id = cur.u64()?;
    let rec = match tag {
        TAG_BEGIN => {
            let segments = cur.u32()?;
            let table_pages = cur.u32()?;
            let name_len = cur.u16()? as usize;
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| "wal BEGIN name is not utf-8".to_string())?
                .to_string();
            WalRecord::Begin {
                session_id,
                name,
                segments: (segments > 0).then_some(segments as usize),
                table_pages: (table_pages > 0).then_some(table_pages),
            }
        }
        TAG_PAGE => {
            let count = cur.u32()? as usize;
            // Each packed pair is at least two bytes; a count that cannot
            // fit the remaining body is corruption, not an allocation size.
            if count.saturating_mul(2) > body.len().saturating_sub(cur.off) {
                return Err(format!(
                    "wal PAGE count {count} disagrees with body length {}",
                    body.len()
                ));
            }
            let mut pairs = Vec::with_capacity(count);
            let mut prev_key = 0i64;
            for _ in 0..count {
                let key = prev_key.wrapping_add(unzigzag(cur.varint()?));
                let page = u32::try_from(cur.varint()?)
                    .map_err(|_| "wal PAGE page number overflows u32".to_string())?;
                pairs.push((key, page));
                prev_key = key;
            }
            WalRecord::Page { session_id, pairs }
        }
        TAG_CHECKPOINT => {
            let name_len = cur.u16()? as usize;
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| "wal CHECKPOINT name is not utf-8".to_string())?
                .to_string();
            let declared = cur.u32()?;
            let records = cur.u64()?;
            let keys = cur.u64()?;
            let max_page = cur.u32()?;
            let has_current = cur.u8()? != 0;
            let current_raw = cur.i64()?;
            let n_keys = decode_len(&mut cur, "seen_keys", u64::MAX >> 4)?;
            let mut seen_keys = Vec::with_capacity(n_keys.min(1 << 20));
            let mut prev_key = 0i64;
            for _ in 0..n_keys {
                let k = prev_key.wrapping_add(unzigzag(cur.varint()?));
                seen_keys.push(k);
                prev_key = k;
            }
            // Unused slots (see `encode_checkpoint`) are read and dropped.
            let cc_minmax = cur.u64()?;
            cur.u64()?;
            let run_min = cur.u32()?;
            let run_max = cur.u32()?;
            cur.u32()?;
            let prev_run_max = cur.u32()?;
            cur.u32()?;
            let n_pages = decode_len(&mut cur, "pages_by_recency", u64::MAX >> 4)?;
            let mut pages_by_recency = Vec::with_capacity(n_pages.min(1 << 20));
            for _ in 0..n_pages {
                let p = u32::try_from(cur.varint()?)
                    .map_err(|_| "wal CHECKPOINT page number overflows u32".to_string())?;
                pages_by_recency.push(p);
            }
            let n_counts = decode_len(&mut cur, "counts", u64::MAX >> 4)?;
            let mut counts = Vec::with_capacity(n_counts.min(1 << 20));
            for _ in 0..n_counts {
                counts.push(cur.varint()?);
            }
            let refs = cur.u64()?;
            let compactions = cur.u64()?;
            WalRecord::Checkpoint {
                session_id,
                checkpoint: SessionCheckpoint {
                    name,
                    declared_table_pages: (declared > 0).then_some(declared),
                    analyzer: AnalyzerSnapshot {
                        pages_by_recency,
                        counts,
                        refs,
                        compactions,
                    },
                    records,
                    keys,
                    max_page,
                    current_key: has_current.then_some(current_raw),
                    seen_keys,
                    cc_minmax,
                    run_min,
                    run_max,
                    prev_run_max,
                },
            }
        }
        TAG_COMMIT => {
            // An older build's `commit_seq` and `analyzed_at`, read and
            // dropped.
            cur.u64()?;
            cur.u64()?;
            WalRecord::Commit { session_id }
        }
        TAG_ABORT => WalRecord::Abort { session_id },
        other => return Err(format!("unknown wal record tag {other:#04x}")),
    };
    cur.done()?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// ServerWal

/// A session rebuilt by replay, waiting for `ANALYZE RESUME <name>`.
struct Parked {
    session: IngestSession,
    session_id: u64,
}

/// Session bookkeeping: how many WAL sessions are attached to live
/// connections, and which recovered ones are parked. One mutex so the
/// "log is fully absorbed, reset it" decision is race-free.
#[derive(Default)]
struct SessionState {
    attached: usize,
    parked: HashMap<String, Parked>,
}

impl SessionState {
    /// No session is attached or parked: every session in the log has
    /// ended, and the log may be reset.
    fn is_idle(&self) -> bool {
        self.attached == 0 && self.parked.is_empty()
    }
}

struct WalInner {
    wal: Wal,
    scratch: Vec<u8>,
    /// Ended sessions whose end marker no sync has covered yet: `(id,
    /// committed)` for a `COMMIT` or an `ABORT`. While the log is healthy
    /// each is appended; after a failure `RECOVER` appends them again (a
    /// repeated marker is harmless).
    unsynced: Vec<(u64, bool)>,
}

impl WalInner {
    /// Appends one session's end marker record.
    fn append_marker(&mut self, session_id: u64, committed: bool) -> io::Result<()> {
        match committed {
            true => encode_commit(&mut self.scratch, session_id),
            false => encode_abort(&mut self.scratch, session_id),
        }
        self.wal.append(&self.scratch)
    }

    /// Ends a session in the log: appends its marker, which the next sync
    /// covers.
    fn end_session(&mut self, session_id: u64, committed: bool) -> io::Result<()> {
        self.unsynced.push((session_id, committed));
        self.append_marker(session_id, committed)
    }

    /// Milestone sync; it covers every marker appended before it.
    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()?;
        self.unsynced.clear();
        Ok(())
    }

    /// Appends + syncs every marker no sync has covered yet (after a
    /// failure, or at open for sessions only the catalog ended).
    fn write_markers(&mut self) -> io::Result<()> {
        for i in 0..self.unsynced.len() {
            let (session_id, committed) = self.unsynced[i];
            self.append_marker(session_id, committed)?;
        }
        self.sync()
    }
}

/// What [`ServerWal::open`] recovered, for startup logging and tests.
pub struct RecoveryReport {
    /// Records replayed from the log (all types).
    pub records: usize,
    /// In-flight sessions parked for `ANALYZE RESUME`.
    pub parked: usize,
    /// References re-fed from `PAGE` records: only those after the last
    /// checkpoint of each session that had not already ended.
    pub refed_refs: u64,
    /// Bytes of torn tail truncated from the log file.
    pub truncated_bytes: u64,
}

/// The server's durable-ingestion state: the log plus session-id
/// allocation, parked sessions, and replay.
///
/// Lock order: `commits`, then `state`, then `inner`.
pub struct ServerWal {
    inner: Mutex<WalInner>,
    state: Mutex<SessionState>,
    /// Serializes commits from the marker sync through the catalog write
    /// to the marker append: no commit writes the catalog between another
    /// commit's catalog write and its marker.
    commits: Mutex<()>,
    next_session_id: AtomicU64,
    checkpoint_refs: u64,
    report: Option<RecoveryReport>,
}

impl ServerWal {
    /// Opens (or creates) the log at `config.dir` and replays it against a
    /// snapshot of `catalog`, which it only reads: in-flight sessions are
    /// rebuilt and parked. The log writes through the catalog's
    /// filesystem, so one `Vfs` (a `FaultVfs` under chaos tests) covers the
    /// whole durability stack. Runs before the listener binds, so clients
    /// never race a parked session.
    pub fn open(
        config: &WalConfig,
        catalog: &SharedCatalog,
        base_config: EpfisConfig,
        logger: &Logger,
    ) -> io::Result<ServerWal> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let started = Instant::now();
        let opts = WalOptions {
            fsync: config.fsync,
            vfs: Arc::clone(catalog.vfs()),
            ..WalOptions::new(config.dir.join(epfis_wal::FILE_NAME))
        };
        let (wal, replay) = Wal::open(opts)?;
        let snapshot = catalog.snapshot();

        // Per-session replay state, keyed by WAL session id. The
        // `segments` override rides along from BEGIN because checkpoints
        // do not re-serialize the config.
        struct Recovering {
            name: String,
            segments: Option<usize>,
            session: IngestSession,
        }
        let session_config = |segments: Option<usize>| {
            segments.map_or(base_config, |m| base_config.with_segments(m))
        };
        let mut live: HashMap<u64, Recovering> = HashMap::new();
        // Session ids continue past every id the log or the catalog holds,
        // so a provenance id is never reused after a log reset.
        let mut max_sid = snapshot.max_session();
        let mut refed_refs = 0u64;
        let record_count = replay.len();

        // One pass over the record heads decides what replay may skip
        // undecoded. A checkpoint holds the whole session state, so a
        // session's PAGE and CHECKPOINT records before its last checkpoint
        // are superseded; a session that has ended leaves nothing to
        // rebuild, so all of its records are skipped.
        let mut last_checkpoint: HashMap<u64, usize> = HashMap::new();
        let mut ended: HashSet<u64> = HashSet::new();
        let mut unmarked: Vec<(u64, bool)> = Vec::new();
        for (i, body) in replay.records().enumerate() {
            let Some((tag, sid)) = record_head(body) else {
                continue;
            };
            max_sid = max_sid.max(sid);
            match tag {
                TAG_CHECKPOINT => {
                    last_checkpoint.insert(sid, i);
                }
                TAG_COMMIT | TAG_ABORT => {
                    ended.insert(sid);
                }
                TAG_BEGIN => {
                    // The catalog write is the commit point: an entry that
                    // records this session committed it, even if the crash
                    // came before the COMMIT marker.
                    if let Ok(WalRecord::Begin { name, .. }) = decode_record(body) {
                        if snapshot.get(&name).and_then(|e| e.session) == Some(sid) {
                            unmarked.push((sid, true));
                        }
                    }
                }
                _ => {}
            }
        }
        // A session that ended only by the catalog check (no marker in the
        // log) gets its COMMIT marker below: once a newer session commits
        // the same name the catalog stops naming it.
        unmarked.retain(|&(sid, _)| ended.insert(sid));

        for (i, body) in replay.records().enumerate() {
            if let Some((tag, sid)) = record_head(body) {
                let superseded = matches!(tag, TAG_PAGE | TAG_CHECKPOINT)
                    && last_checkpoint.get(&sid).is_some_and(|&at| i < at);
                if superseded || ended.contains(&sid) {
                    continue;
                }
            }
            let rec = match decode_record(body) {
                Ok(rec) => rec,
                Err(e) => {
                    // Checksummed but undecodable: version skew. Skipping
                    // keeps recovery going; the session it belonged to (if
                    // any) stays parked or is dropped below.
                    logger
                        .event(Level::Warn, "wal", "replay_undecodable")
                        .field("error", e.as_str())
                        .emit();
                    continue;
                }
            };
            match rec {
                WalRecord::Begin {
                    session_id,
                    name,
                    segments,
                    table_pages,
                } => {
                    let session =
                        IngestSession::new(name.clone(), session_config(segments), table_pages);
                    live.insert(
                        session_id,
                        Recovering {
                            name,
                            segments,
                            session,
                        },
                    );
                }
                WalRecord::Page { session_id, pairs } => {
                    if let Some(rec) = live.get_mut(&session_id) {
                        refed_refs += pairs.len() as u64;
                        // Live appends happen after validation, so a
                        // replayed batch re-validates cleanly; an error
                        // here means the log predates a rule change.
                        if let Err(e) = rec.session.feed_batch(&pairs) {
                            logger
                                .event(Level::Warn, "wal", "replay_feed_failed")
                                .field("entry", rec.name.as_str())
                                .field("error", e.as_str())
                                .emit();
                            live.remove(&session_id);
                        }
                    }
                }
                WalRecord::Checkpoint {
                    session_id,
                    checkpoint,
                } => {
                    let segments = live.get(&session_id).and_then(|r| r.segments);
                    let session = IngestSession::restore(&checkpoint, session_config(segments));
                    live.insert(
                        session_id,
                        Recovering {
                            name: checkpoint.name,
                            segments,
                            session,
                        },
                    );
                }
                // Never reached: a committed or aborted session is in
                // `ended`.
                WalRecord::Commit { .. } | WalRecord::Abort { .. } => {}
            }
        }

        // Everything still live was in flight at the crash: park it under
        // its entry name so `ANALYZE RESUME` can pick it up. On a name
        // collision the later session (higher id) wins; the loser's
        // records stay in the log but are superseded on every replay.
        let mut state = SessionState::default();
        for (session_id, rec) in live {
            match state.parked.get(&rec.name) {
                Some(p) if p.session_id > session_id => {}
                _ => {
                    state.parked.insert(
                        rec.name.clone(),
                        Parked {
                            session: rec.session,
                            session_id,
                        },
                    );
                }
            }
        }
        let parked = state.parked.len();

        let metrics = epfis_obs::wellknown::wal();
        metrics
            .replay_duration_us
            .set(started.elapsed().as_micros() as i64);
        metrics.recovered_sessions.add(parked as u64);

        // With nothing parked the log is fully absorbed (every session has
        // ended): reset it to an empty file so replay cost and disk use
        // stay bounded. Otherwise the log outlives this run, so it must
        // record the end of every session it holds.
        let mut inner = WalInner {
            wal,
            scratch: Vec::with_capacity(4096),
            unsynced: unmarked,
        };
        if parked == 0 {
            reset(&mut inner)?;
        } else {
            inner.write_markers()?;
        }
        let server_wal = ServerWal {
            inner: Mutex::new(inner),
            state: Mutex::new(state),
            commits: Mutex::new(()),
            next_session_id: AtomicU64::new(max_sid + 1),
            checkpoint_refs: config.checkpoint_refs,
            report: Some(RecoveryReport {
                records: record_count,
                parked,
                refed_refs,
                truncated_bytes: replay.truncated_bytes,
            }),
        };

        logger
            .event(Level::Info, "wal", "replayed")
            .field("records", record_count as u64)
            .field("parked", parked as u64)
            .field("refed_refs", refed_refs)
            .field("truncated_bytes", replay.truncated_bytes)
            .emit();
        Ok(server_wal)
    }

    /// References between periodic analyzer checkpoints.
    pub fn checkpoint_refs(&self) -> u64 {
        self.checkpoint_refs
    }

    /// Takes the recovery report (present once, right after `open`).
    pub fn take_report(&mut self) -> Option<RecoveryReport> {
        self.report.take()
    }

    /// Allocates a session id and appends + syncs its `BEGIN` record,
    /// first running the reset if it is still due.
    pub fn begin(
        &self,
        name: &str,
        segments: Option<usize>,
        table_pages: Option<u32>,
    ) -> io::Result<u64> {
        let sid = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if state.is_idle() {
                reset(&mut inner)?;
            }
            let WalInner { wal, scratch, .. } = &mut *inner;
            encode_begin(scratch, sid, name, segments, table_pages);
            wal.append(scratch)?;
            inner.sync()?;
        }
        state.attached += 1;
        Ok(sid)
    }

    /// Appends a validated `PAGE` batch. No sync: batch-policy durability
    /// is at session milestones, per-append durability is `fsync=always`.
    pub fn append_page(
        &self,
        session_id: u64,
        batch_len: usize,
        pairs: impl Iterator<Item = (i64, u32)>,
    ) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let WalInner { wal, scratch, .. } = &mut *inner;
        encode_page(scratch, session_id, batch_len, pairs);
        wal.append(scratch)
    }

    /// Appends + syncs a `CHECKPOINT` record.
    pub fn append_checkpoint(&self, session_id: u64, cp: &SessionCheckpoint) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let WalInner { wal, scratch, .. } = &mut *inner;
        encode_checkpoint(scratch, session_id, cp);
        wal.append(scratch)?;
        inner.sync()
    }

    /// Runs `commit` — the catalog write, which is the session's commit
    /// point — handing it the session id to record on the entry, then
    /// appends the marker that ends the session in the log: `COMMIT` if
    /// the write succeeded, with no sync of its own (the next sync of the
    /// log covers it), or `ABORT`, synced, if it failed. Returns the
    /// catalog write's result.
    ///
    /// A marker an earlier commit left unsynced is synced before the
    /// catalog write: this commit may stop the catalog naming that
    /// session. If that sync fails, the catalog is not written and the
    /// commit fails. A failed marker does not undo a written catalog: the
    /// commit stands and the failure poisons the log, which the caller's
    /// `note_wal_failure` turns into degraded mode; the marker is written
    /// again by [`recover`](ServerWal::recover). Either way the session's
    /// slot is released; the log reset that may then be due is left to
    /// [`reset_if_due`](ServerWal::reset_if_due).
    ///
    /// `_analyzed_at` is unused: the catalog entry records the timestamp.
    pub fn commit_session<T>(
        &self,
        session_id: u64,
        _analyzed_at: u64,
        commit: impl FnOnce(u64) -> io::Result<T>,
    ) -> io::Result<T> {
        let result = {
            let _commits = self.commits.lock().unwrap_or_else(|e| e.into_inner());
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let synced = if inner.unsynced.is_empty() {
                Ok(())
            } else {
                inner.sync()
            };
            // The catalog write runs without the log's lock: other
            // sessions keep appending meanwhile.
            drop(inner);
            let result = synced.and_then(|()| commit(session_id));
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let marked = inner.end_session(session_id, result.is_ok());
            if result.is_err() && marked.is_ok() {
                let _ = inner.sync();
            }
            result
        };
        self.session_closed();
        result
    }

    /// Appends + syncs an `ABORT` record and releases the session slot.
    pub fn abort_session(&self, session_id: u64) -> io::Result<()> {
        let result = self.append_abort(session_id);
        self.session_closed();
        result
    }

    /// Appends + syncs an `ABORT` record without touching the attach count
    /// (used when superseding a parked session).
    fn append_abort(&self, session_id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.end_session(session_id, false)?;
        inner.sync()
    }

    /// Parks a session whose connection went away so `ANALYZE RESUME` can
    /// reattach it. A previously parked session under the same name is
    /// superseded (its `ABORT` is appended).
    pub fn park(&self, session: IngestSession, session_id: u64) -> io::Result<()> {
        let superseded = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.attached -= 1;
            state
                .parked
                .insert(
                    session.name().to_string(),
                    Parked {
                        session,
                        session_id,
                    },
                )
                .map(|p| p.session_id)
        };
        match superseded {
            Some(old) => self.append_abort(old),
            None => {
                let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.sync()
            }
        }
    }

    /// Detaches the parked session named `name`, reattaching it to the
    /// calling connection.
    pub fn take_parked(&self, name: &str) -> Option<(IngestSession, u64)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let p = state.parked.remove(name)?;
        state.attached += 1;
        Some((p.session, p.session_id))
    }

    /// Discards the parked session named `name` (an `ANALYZE BEGIN` with
    /// the same name supersedes it). Returns its id after appending the
    /// `ABORT` record.
    pub fn discard_parked(&self, name: &str) -> io::Result<Option<u64>> {
        let sid = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.parked.remove(name).map(|p| p.session_id)
        };
        if let Some(sid) = sid {
            self.append_abort(sid)?;
            return Ok(Some(sid));
        }
        Ok(None)
    }

    /// Names of currently parked sessions, sorted (for `STATS`/diagnostics).
    pub fn parked_names(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = state.parked.keys().cloned().collect();
        names.sort();
        names
    }

    /// The first durability failure that poisoned the log, if any. While
    /// poisoned every ingest operation fails fast; serving reads is
    /// unaffected.
    pub fn poisoned(&self) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.wal.poisoned()
    }

    /// Operator-driven recovery (`RECOVER`): re-probes the log file —
    /// truncating whatever torn tail the failed operation left, reopening
    /// it, and forcing a real fdatasync — then writes the end markers the
    /// failure kept out of the log. On success ingest may resume; the
    /// records acknowledged before the failure are intact.
    /// Returns the torn bytes discarded. A no-op returning 0 when healthy.
    pub fn recover(&self) -> io::Result<u64> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.wal.poisoned().is_none() {
            return Ok(0);
        }
        let truncated = inner.wal.heal()?;
        inner.write_markers()?;
        Ok(truncated)
    }

    /// Releases one attached session. Once nothing is attached or parked
    /// the log is due for a reset, which [`reset_if_due`](Self::reset_if_due)
    /// runs later, off the reply path.
    pub fn session_closed(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.attached -= 1;
    }

    /// Resets the log to its header if it is due: nothing is attached or
    /// parked, so every session the log holds has ended. A no-op
    /// otherwise. A failed reset poisons the log, and stays due.
    pub fn reset_if_due(&self) -> io::Result<()> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.is_idle() {
            return Ok(());
        }
        reset(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Truncates the log back to its header unless it is already there. The
/// caller holds the `state` lock and has seen nothing attached or parked.
fn reset(inner: &mut WalInner) -> io::Result<()> {
    if inner.wal.bytes() > epfis_wal::HEADER_BYTES {
        inner.wal.reset()?;
        inner.unsynced.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SharedCatalog;
    use std::path::Path;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epfis-server-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The catalog's files — its snapshot and its catalog log — as bytes.
    fn catalog_files(path: &std::path::Path) -> [Option<Vec<u8>>; 2] {
        [path.to_path_buf(), SharedCatalog::log_path(path)].map(|p| std::fs::read(p).ok())
    }

    fn sample_checkpoint() -> SessionCheckpoint {
        let mut s = IngestSession::new("ix.k".into(), EpfisConfig::default(), Some(1000));
        for i in 0..500i64 {
            s.feed(i, ((i * 7) % 1000) as u32).unwrap();
            s.feed(i, ((i * 7 + 1) % 1000) as u32).unwrap();
        }
        s.checkpoint()
    }

    #[test]
    fn every_record_type_round_trips() {
        let mut buf = Vec::new();

        encode_begin(&mut buf, 7, "orders.pk", Some(12), Some(4096));
        assert_eq!(
            decode_record(&buf).unwrap(),
            WalRecord::Begin {
                session_id: 7,
                name: "orders.pk".into(),
                segments: Some(12),
                table_pages: Some(4096),
            }
        );
        encode_begin(&mut buf, 8, "t", None, None);
        assert_eq!(
            decode_record(&buf).unwrap(),
            WalRecord::Begin {
                session_id: 8,
                name: "t".into(),
                segments: None,
                table_pages: None,
            }
        );

        let pairs = vec![(i64::MIN, 0u32), (-1, u32::MAX), (42, 7)];
        encode_page(&mut buf, 9, pairs.len(), pairs.iter().copied());
        assert_eq!(
            decode_record(&buf).unwrap(),
            WalRecord::Page {
                session_id: 9,
                pairs,
            }
        );

        let cp = sample_checkpoint();
        encode_checkpoint(&mut buf, 10, &cp);
        match decode_record(&buf).unwrap() {
            WalRecord::Checkpoint {
                session_id,
                checkpoint,
            } => {
                assert_eq!(session_id, 10);
                assert_eq!(checkpoint, cp);
            }
            other => panic!("wrong record: {other:?}"),
        }

        encode_commit(&mut buf, 11);
        let commit = WalRecord::Commit { session_id: 11 };
        assert_eq!(decode_record(&buf).unwrap(), commit);
        // The slots after the session id are written as zero; an older
        // build's commit sequence and `analyzed_at` there decode to the
        // same record.
        assert_eq!(buf[9..25], [0; 16]);
        buf[9] = 3;
        buf[17..25].copy_from_slice(&1_700_000_000u64.to_le_bytes());
        assert_eq!(decode_record(&buf).unwrap(), commit);

        encode_abort(&mut buf, 12);
        assert_eq!(
            decode_record(&buf).unwrap(),
            WalRecord::Abort { session_id: 12 }
        );
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[0x7f, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // PAGE whose count disagrees with its length.
        let mut buf = Vec::new();
        encode_page(&mut buf, 1, 2, [(1i64, 2u32), (3, 4)].into_iter());
        buf.pop();
        assert!(decode_record(&buf).is_err());
        // Trailing garbage after a valid ABORT.
        encode_abort(&mut buf, 5);
        buf.push(0);
        assert!(decode_record(&buf).is_err());
    }

    /// Drives a full session through a ServerWal against a durable catalog,
    /// then reopens everything: the commit must not be applied twice, and
    /// the catalog files must be byte-identical across the reopen.
    #[test]
    fn replay_applies_each_commit_exactly_once() {
        let dir = temp_dir("exactly-once");
        std::fs::create_dir_all(&dir).unwrap();
        let cat_path = dir.join("catalog.scat");
        let wal_cfg = WalConfig::new(dir.join("wal"));
        let logger = Logger::disabled();
        let base = EpfisConfig::default();

        let first_commit = {
            let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
            let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
            let sid = wal.begin("ix.a", None, Some(100)).unwrap();
            let pairs: Vec<(i64, u32)> = (0..200i64).map(|i| (i, (i % 100) as u32)).collect();
            wal.append_page(sid, pairs.len(), pairs.iter().copied())
                .unwrap();
            let mut session = IngestSession::new("ix.a".into(), base, Some(100));
            session.feed_batch(&pairs).unwrap();
            let (stats, counters) = session.commit().unwrap();
            wal.commit_session(sid, 1_234_567, |session| {
                catalog.commit_analyzed("ix.a", stats, Some(counters), 1_234_567, Some(session))
            })
            .unwrap();
            catalog_files(&cat_path)
        };

        // Simulated crash after the commit: reopening must change nothing.
        // (The reset is left for after the reply, so the log still holds
        // the session's records and its marker, as a crash before the
        // reset leaves them.)
        {
            let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
            assert_eq!(catalog.snapshot().epoch(), 1);
            let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
            assert_eq!(catalog.snapshot().epoch(), 1, "commit replayed twice");
            assert!(wal.parked_names().is_empty());
        }
        assert_eq!(catalog_files(&cat_path), first_commit);
    }

    /// A log that ends mid-session parks the session; resuming and
    /// committing it produces stats bit-identical to an uninterrupted run.
    #[test]
    fn interrupted_session_parks_and_resumes_bit_identical() {
        let dir = temp_dir("park-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let cat_path = dir.join("catalog.scat");
        let wal_cfg = WalConfig::new(dir.join("wal"));
        let logger = Logger::disabled();
        let base = EpfisConfig::default();

        let pairs: Vec<(i64, u32)> = (0..4000i64)
            .map(|i| (i / 2, ((i * 2654435761) % 500) as u32))
            .collect();
        let (half_a, half_b) = pairs.split_at(2000);

        // Uninterrupted reference run.
        let expected = {
            let mut s = IngestSession::new("ix.r".into(), base, Some(500));
            s.feed_batch(&pairs).unwrap();
            s.commit().unwrap().0
        };

        // First half goes through a WAL, then the process "dies".
        {
            let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
            let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
            let sid = wal.begin("ix.r", None, Some(500)).unwrap();
            wal.append_page(sid, half_a.len(), half_a.iter().copied())
                .unwrap();
            let mut cp_session = IngestSession::new("ix.r".into(), base, Some(500));
            cp_session.feed_batch(half_a).unwrap();
            wal.append_checkpoint(sid, &cp_session.checkpoint())
                .unwrap();
            // Dropped without commit/abort/park: crash.
        }

        // Restart: the session must be parked with the first half intact.
        let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
        let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
        assert_eq!(wal.parked_names(), vec!["ix.r".to_string()]);
        let (mut resumed, sid) = wal.take_parked("ix.r").unwrap();
        assert_eq!(resumed.records(), half_a.len() as u64);
        wal.append_page(sid, half_b.len(), half_b.iter().copied())
            .unwrap();
        resumed.feed_batch(half_b).unwrap();
        let (stats, counters) = resumed.commit().unwrap();
        assert_eq!(stats, expected);
        wal.commit_session(sid, 99, |session| {
            catalog.commit_analyzed("ix.r", stats, Some(counters), 99, Some(session))
        })
        .unwrap();
        assert_eq!(catalog.snapshot().epoch(), 1);

        // The session has ended: the next open neither parks nor applies it.
        let reopened = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
        assert_eq!(catalog.snapshot().epoch(), 1);
        assert!(reopened.parked_names().is_empty());
        let _ = Path::new("");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refeeds_only_the_pages_after_the_last_checkpoint() {
        let dir = temp_dir("checkpoint-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let cat_path = dir.join("catalog.scat");
        let wal_cfg = WalConfig::new(dir.join("wal"));
        let logger = Logger::disabled();
        let base = EpfisConfig::default();

        let pairs: Vec<(i64, u32)> = (0..5000i64)
            .map(|i| (i / 2, ((i * 2654435761) % 500) as u32))
            .collect();
        let expected = {
            let mut s = IngestSession::new("ix.c".into(), base, Some(500));
            s.feed_batch(&pairs).unwrap();
            s.commit().unwrap().0
        };

        // BEGIN, 3 PAGE, CHECKPOINT, 2 PAGE, then the process "dies".
        {
            let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
            let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
            let sid = wal.begin("ix.c", None, Some(500)).unwrap();
            let mut live = IngestSession::new("ix.c".into(), base, Some(500));
            for (i, batch) in pairs.chunks(1000).enumerate() {
                if i == 3 {
                    wal.append_checkpoint(sid, &live.checkpoint()).unwrap();
                }
                wal.append_page(sid, batch.len(), batch.iter().copied())
                    .unwrap();
                live.feed_batch(batch).unwrap();
            }
        }

        let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
        let mut wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
        let report = wal.take_report().unwrap();
        assert_eq!(report.parked, 1);
        assert_eq!(report.refed_refs, 2000, "only the last 2 batches re-feed");
        let (resumed, _) = wal.take_parked("ix.c").unwrap();
        assert_eq!(resumed.records(), pairs.len() as u64);
        assert_eq!(resumed.commit().unwrap().0, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sessions that already ended are skipped whole: an aborted one and a
    /// committed one. Only the open session's references are re-fed.
    #[test]
    fn replay_skips_sessions_that_already_ended() {
        let dir = temp_dir("ended-sessions");
        std::fs::create_dir_all(&dir).unwrap();
        let cat_path = dir.join("catalog.scat");
        let wal_cfg = WalConfig::new(dir.join("wal"));
        let logger = Logger::disabled();
        let base = EpfisConfig::default();
        let pairs = |n: i64| -> Vec<(i64, u32)> {
            (0..n).map(|i| (i / 2, ((i * 7) % 100) as u32)).collect()
        };
        let (blocker, done, dropped) = (pairs(300), pairs(500), pairs(700));

        // The blocker stays open, so the log is never reset; then "crash".
        let committed = {
            let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
            let wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
            let open = wal.begin("ix.open", None, Some(100)).unwrap();
            wal.append_page(open, blocker.len(), blocker.iter().copied())
                .unwrap();

            let sid = wal.begin("ix.done", None, Some(100)).unwrap();
            let mut session = IngestSession::new("ix.done".into(), base, Some(100));
            for (i, half) in done.chunks(250).enumerate() {
                if i == 1 {
                    wal.append_checkpoint(sid, &session.checkpoint()).unwrap();
                }
                wal.append_page(sid, half.len(), half.iter().copied())
                    .unwrap();
                session.feed_batch(half).unwrap();
            }
            let (stats, counters) = session.commit().unwrap();
            wal.commit_session(sid, 42, |session| {
                catalog.commit_analyzed("ix.done", stats, Some(counters), 42, Some(session))
            })
            .unwrap();

            let sid = wal.begin("ix.dropped", None, Some(100)).unwrap();
            wal.append_page(sid, dropped.len(), dropped.iter().copied())
                .unwrap();
            wal.abort_session(sid).unwrap();
            catalog_files(&cat_path)
        };

        let catalog = Arc::new(SharedCatalog::open(&cat_path).unwrap());
        let mut wal = ServerWal::open(&wal_cfg, &catalog, base, &logger).unwrap();
        let report = wal.take_report().unwrap();
        assert_eq!(report.records, 10);
        assert_eq!(report.parked, 1);
        assert_eq!(
            report.refed_refs,
            blocker.len() as u64,
            "only the open session's references are re-fed"
        );
        assert_eq!(wal.parked_names(), vec!["ix.open".to_string()]);
        assert_eq!(catalog_files(&cat_path), committed);
        // Ids keep counting past the skipped sessions.
        assert_eq!(wal.begin("ix.next", None, None).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `CHECKPOINT` body in the layout the run-order cluster counter and
    /// the two last-page slots were written with, those three slots holding
    /// `legacy` instead of zeros.
    fn legacy_checkpoint_body(
        session_id: u64,
        cp: &SessionCheckpoint,
        legacy: [u64; 3],
    ) -> Vec<u8> {
        let mut out = vec![TAG_CHECKPOINT];
        put_u64(&mut out, session_id);
        put_u16(&mut out, cp.name.len() as u16);
        out.extend_from_slice(cp.name.as_bytes());
        put_u32(&mut out, cp.declared_table_pages.unwrap_or(0));
        put_u64(&mut out, cp.records);
        put_u64(&mut out, cp.keys);
        put_u32(&mut out, cp.max_page);
        out.push(u8::from(cp.current_key.is_some()));
        put_i64(&mut out, cp.current_key.unwrap_or(0));
        put_u64(&mut out, cp.seen_keys.len() as u64);
        let mut prev_key = 0i64;
        for &k in &cp.seen_keys {
            put_varint(&mut out, zigzag(k.wrapping_sub(prev_key)));
            prev_key = k;
        }
        put_u64(&mut out, cp.cc_minmax);
        put_u64(&mut out, legacy[0]); // run-order cluster counter
        put_u32(&mut out, cp.run_min);
        put_u32(&mut out, cp.run_max);
        put_u32(&mut out, legacy[1] as u32); // open run's last page
        put_u32(&mut out, cp.prev_run_max);
        put_u32(&mut out, legacy[2] as u32); // previous run's last page
        put_u64(&mut out, cp.analyzer.pages_by_recency.len() as u64);
        for &p in &cp.analyzer.pages_by_recency {
            put_varint(&mut out, u64::from(p));
        }
        put_u64(&mut out, cp.analyzer.counts.len() as u64);
        for &c in &cp.analyzer.counts {
            put_varint(&mut out, c);
        }
        put_u64(&mut out, cp.analyzer.refs);
        put_u64(&mut out, cp.analyzer.compactions);
        out
    }

    /// A log an older build wrote mid-session, its checkpoint carrying
    /// non-zero values in the slots this build no longer reads, replays and
    /// commits the statistics and counters of an uninterrupted session.
    #[test]
    fn legacy_checkpoint_slots_are_ignored_on_replay() {
        let dir = temp_dir("legacy-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let base = EpfisConfig::default();
        let pairs: Vec<(i64, u32)> = (0..3000i64)
            .map(|i| (i / 3, ((i * 2654435761) % 400) as u32))
            .collect();
        let (head, tail) = pairs.split_at(1600);
        let expected = {
            let mut s = IngestSession::new("ix.old".into(), base, Some(400));
            s.feed_batch(&pairs).unwrap();
            s.commit().unwrap()
        };

        let mut live = IngestSession::new("ix.old".into(), base, Some(400));
        live.feed_batch(head).unwrap();
        let cp = live.checkpoint();
        let mut body = Vec::new();
        encode_checkpoint(&mut body, 1, &cp);
        assert_eq!(
            body,
            legacy_checkpoint_body(1, &cp, [0; 3]),
            "layout changed"
        );
        let legacy = legacy_checkpoint_body(1, &cp, [123_456, 77, 399]);
        assert_ne!(legacy, body);
        {
            let (mut wal, _) =
                Wal::open(WalOptions::new(dir.join("wal").join(epfis_wal::FILE_NAME))).unwrap();
            encode_begin(&mut body, 1, "ix.old", None, Some(400));
            wal.append(&body).unwrap();
            encode_page(&mut body, 1, head.len(), head.iter().copied());
            wal.append(&body).unwrap();
            wal.append(&legacy).unwrap();
            encode_page(&mut body, 1, tail.len(), tail.iter().copied());
            wal.append(&body).unwrap();
            wal.sync().unwrap();
        }

        let catalog = Arc::new(SharedCatalog::open(dir.join("catalog.scat")).unwrap());
        let wal_cfg = WalConfig::new(dir.join("wal"));
        let wal = ServerWal::open(&wal_cfg, &catalog, base, &Logger::disabled()).unwrap();
        let (resumed, _) = wal.take_parked("ix.old").unwrap();
        assert_eq!(resumed.records(), pairs.len() as u64);
        assert_eq!(resumed.commit().unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_catches_bad_knobs() {
        assert!(WalConfig::new("d").validate().is_ok());
        let mut c = WalConfig::new("d");
        c.checkpoint_refs = 0;
        assert!(c.validate().is_err());
        let mut c = WalConfig::new("d");
        c.dir = PathBuf::new();
        assert!(c.validate().is_err());
    }
}
