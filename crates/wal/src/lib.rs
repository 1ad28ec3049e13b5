//! Append-only write-ahead log with CRC32C-checksummed records.
//!
//! `epfis-wal` is a generic record log: callers append opaque byte bodies
//! and get them back, in order, on replay. It knows nothing about ANALYZE
//! sessions or catalogs — `epfis-server` layers its record schema on top.
//!
//! # On-disk format
//!
//! The log is one file, named by [`WalOptions::path`]: the server's
//! ingest log is [`FILE_NAME`] (`wal-000000.seg`) in its log directory,
//! and the durable catalog keeps its commit log beside the catalog file.
//! It starts with a 12-byte header:
//!
//! ```text
//! magic "EPFISWAL" (8 bytes) | version u32 LE (= 1)
//! ```
//!
//! followed by records:
//!
//! ```text
//! len u32 LE | crc u32 LE | body (len bytes)
//! ```
//!
//! where `crc` is the CRC32C of `body`. A record is valid iff its length
//! prefix is in `1..=MAX_RECORD_BYTES`, the full body is present, and the
//! checksum matches. The log holds only in-flight work: once no record is
//! needed any more, its owner calls [`Wal::reset`], which truncates the
//! file back to its header in place.
//!
//! Older builds rotated `wal-000000.seg` into further files
//! (`wal-000001.seg`, …). [`Wal::open`] refuses a `wal-000000.seg` beside
//! any such file, with an error naming the file, rather than replay it in
//! part.
//!
//! # Torn-write protection
//!
//! A crash can leave a partial record at the log's tail: a short length
//! prefix, a half-written body, or (on storage without atomic sector
//! writes) a body whose middle never made it. Replay validates records in
//! order and treats the **first** invalid record as the end of the log:
//! the file is truncated at that point and everything before it is
//! returned. This mirrors the classic ARIES-style tail scan; the
//! checksum+length pair means a torn tail is indistinguishable from a
//! clean end-of-log, which is exactly the safe interpretation. A
//! [`Replay`] holds the file's valid bytes once and hands out record
//! bodies as slices of them.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput:
//!
//! * `always` — `fdatasync` after every append; a record acknowledged is a
//!   record on stable storage.
//! * `batch` — appends go to the OS page cache; [`Wal::sync`] is called at
//!   session milestones (checkpoints, commits). A background flusher
//!   thread `fdatasync`s on a duplicate fd every couple of appended MiB,
//!   overlapping writeback with ingest so the milestone sync finds little
//!   left to wait for. A process crash loses nothing (the kernel still has
//!   the pages); a machine crash loses at most the appends since the last
//!   completed sync.
//! * `never` — no explicit syncs; durability rides entirely on the OS
//!   writeback. For benchmarks and tests.
//!
//! # Storage faults and poisoning
//!
//! Every file operation goes through an injectable [`Vfs`]
//! (`epfis-faults`); production uses the passthrough `StdVfs`, tests
//! script exact failures with `FaultVfs`. The first durability failure —
//! a failed append, fdatasync (foreground **or** on the background
//! flusher's duplicate fd), or reset — **poisons** the writer: every
//! subsequent [`Wal::append`]/[`Wal::sync`] fails fast with the original
//! cause instead of acknowledging writes that may never reach stable
//! storage. This closes the classic "fsyncgate" hazard, where the kernel
//! reports a writeback error exactly once and then clears the dirty state,
//! so a later fsync on the same (or a fresh) fd falsely succeeds. Recovery
//! is explicit: [`Wal::heal`] re-reads the file, cuts it back to the end
//! of the last record whose append succeeded (a torn tail, or a whole
//! record whose fdatasync failed), reopens it, and probes it with a real
//! fdatasync — only if all of that succeeds does the writer accept appends
//! again. A whole record whose `always`-policy fdatasync failed is cut off
//! the file at once as well, so a process that stops before healing does
//! not replay it; a failed write leaves at most a partial record, which
//! fails its checksum and is cut by any load.
//!
//! # Instruments
//!
//! A log counts its appends, bytes, fsyncs and failures in the
//! [`WalMetrics`] its options name: the process-global `epfis_wal_*`
//! family by default, or an unpublished family for a log whose owner
//! reports it in its own series.

mod crc32c;

pub use crc32c::{crc32c, crc32c_update};
pub use epfis_faults::{StdVfs, Vfs, VfsFile};
pub use epfis_obs::wellknown::WalMetrics;

use epfis_obs::wellknown;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex};

/// The ingest log's file name inside a server's log directory.
pub const FILE_NAME: &str = "wal-000000.seg";
/// File header: magic plus format version.
const MAGIC: &[u8; 8] = b"EPFISWAL";
const VERSION: u32 = 1;
/// Bytes of file header before the first record.
pub const HEADER_BYTES: u64 = 12;
/// Bytes of record framing (`len` + `crc`) before each body.
pub const RECORD_HEADER_BYTES: u64 = 8;
/// Upper bound on a single record body; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

/// When to push appended records to stable storage. See the crate docs
/// for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append.
    Always,
    /// Sync only at explicit [`Wal::sync`] milestones.
    Batch,
    /// Never sync explicitly.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always, batch, or never)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

/// Configuration for opening a [`Wal`].
#[derive(Clone)]
pub struct WalOptions {
    /// The log file; it and its directory are created if absent.
    pub path: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// The filesystem the log talks to; [`StdVfs`] in production, a
    /// `FaultVfs` under fault-injection tests.
    pub vfs: Arc<dyn Vfs>,
    /// Where appends, bytes, fsyncs and failures are counted: the global
    /// `epfis_wal_*` family, or `wellknown::unpublished_wal()`.
    pub metrics: &'static WalMetrics,
}

impl WalOptions {
    /// Sane defaults: batch fsync, the real filesystem, the global
    /// `epfis_wal_*` instruments.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalOptions {
            path: path.into(),
            fsync: FsyncPolicy::Batch,
            vfs: StdVfs::shared(),
            metrics: wellknown::wal(),
        }
    }
}

/// What replay found in an existing log: the file's valid bytes, read
/// once, with every record body handed out as a slice of them.
#[derive(Debug)]
pub struct Replay {
    /// The validated prefix of the log file (empty for a new log).
    data: Vec<u8>,
    /// Valid records in `data`.
    count: usize,
    /// Bytes discarded from the torn tail (0 for a clean log).
    pub truncated_bytes: u64,
}

impl Replay {
    /// Scans a log file's bytes without touching the file: the records up
    /// to the first invalid one. An empty or torn-header input holds none.
    pub fn from_bytes(mut data: Vec<u8>) -> Replay {
        let (valid, count) = scan(&data);
        let truncated_bytes = (data.len() - valid) as u64;
        data.truncate(valid);
        Replay {
            data,
            count,
            truncated_bytes,
        }
    }

    /// Bytes of the validated prefix, header included (0 for no log).
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Number of valid records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the log held no valid record.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every valid record body, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        // `data` ends after the last valid record, so every length prefix
        // left in it frames a whole, checksummed body.
        let mut rest = self.data.get(HEADER_BYTES as usize..).unwrap_or_default();
        std::iter::from_fn(move || {
            let header = rest.get(..RECORD_HEADER_BYTES as usize)?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let (body, tail) = rest[RECORD_HEADER_BYTES as usize..].split_at(len);
            rest = tail;
            Some(body)
        })
    }
}

/// An open write-ahead log. Single-writer: callers serialize appends
/// (the server keeps the `Wal` behind a mutex).
pub struct Wal {
    path: PathBuf,
    fsync: FsyncPolicy,
    vfs: Arc<dyn Vfs>,
    metrics: &'static WalMetrics,
    file: Box<dyn VfsFile>,
    /// File length after the last append, reset or repair that succeeded:
    /// where [`heal`](Wal::heal) cuts the file back to.
    len: u64,
    /// Unsynced appends outstanding (only meaningful under `Batch`).
    dirty: bool,
    /// Reusable framing scratch so appends are one `write_all`.
    scratch: Vec<u8>,
    /// Background writeback thread (only under `Batch`): keeps the OS
    /// flushing appended pages while the caller keeps appending, so the
    /// milestone [`sync`](Wal::sync) finds little left to wait for.
    flusher: Option<Flusher>,
    /// First durability failure observed; set once, cleared only by
    /// [`heal`](Wal::heal). While set, appends and syncs fail fast.
    poisoned: Option<String>,
}

/// Dirty bytes accumulated before the background flusher is nudged. Small
/// enough that a milestone sync never waits on more than this much
/// unflushed data (plus whatever the in-flight flush covers), large enough
/// that the flusher is not woken per append.
const FLUSH_THRESHOLD_BYTES: u64 = 2 << 20;

struct FlushState {
    /// Clone of the log file's handle; `fdatasync` on a duplicate fd
    /// flushes the same inode, so the flusher never touches `Wal.file`.
    file: Option<Box<dyn VfsFile>>,
    /// Bytes appended since the last flush was started.
    pending: u64,
    /// A background fdatasync failed with this error. The kernel may have
    /// already dropped the dirty pages and cleared the error, so a later
    /// sync on any fd can falsely succeed — the failure must surface
    /// through the writer, not be retried away.
    failed: Option<String>,
    shutdown: bool,
}

struct Flusher {
    shared: Arc<(Mutex<FlushState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    fn spawn(file: Box<dyn VfsFile>, metrics: &'static WalMetrics) -> Flusher {
        let shared = Arc::new((
            Mutex::new(FlushState {
                file: Some(file),
                pending: 0,
                failed: None,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("epfis-wal-flush".to_string())
            .spawn(move || {
                let (lock, cv) = &*thread_shared;
                loop {
                    let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
                    while !st.shutdown && st.pending < FLUSH_THRESHOLD_BYTES {
                        st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    if st.shutdown {
                        return;
                    }
                    st.pending = 0;
                    let file = st.file.as_ref().and_then(|f| f.try_clone().ok());
                    drop(st);
                    if let Some(f) = file {
                        match f.sync_data() {
                            Ok(()) => metrics.fsyncs.inc(),
                            Err(e) => {
                                // A background fsync failure is a durability
                                // failure: record it so the writer poisons
                                // itself at the next append/sync instead of
                                // acknowledging data the kernel may already
                                // have dropped (fsyncgate).
                                metrics.fsync_errors.inc();
                                let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
                                if st.failed.is_none() {
                                    st.failed = Some(format!("background fdatasync failed: {e}"));
                                }
                                // Stop touching the file; the writer decides
                                // what happens next.
                                st.file = None;
                            }
                        }
                    }
                }
            })
            .ok();
        Flusher { shared, handle }
    }

    /// Accounts `n` freshly appended bytes, waking the thread at the
    /// threshold.
    fn note_appended(&self, n: u64) {
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
        st.pending += n;
        if st.pending >= FLUSH_THRESHOLD_BYTES {
            cv.notify_one();
        }
    }

    /// Points the thread at `file` (the handle [`Wal::heal`] reopened, or
    /// none while it rescans) with nothing pending.
    fn set_file(&self, file: Option<Box<dyn VfsFile>>) {
        let (lock, _) = &*self.shared;
        let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
        st.file = file;
        st.pending = 0;
    }

    /// A sync on the primary handle covered all appends (a milestone sync
    /// or a reset).
    fn synced(&self) {
        let (lock, _) = &*self.shared;
        lock.lock().unwrap_or_else(|e| e.into_inner()).pending = 0;
    }

    /// The background failure, if one happened since the last
    /// [`clear_failure`](Flusher::clear_failure).
    fn failure(&self) -> Option<String> {
        let (lock, _) = &*self.shared;
        lock.lock()
            .unwrap_or_else(|e| e.into_inner())
            .failed
            .clone()
    }

    /// Forgets a recorded failure (only after [`Wal::heal`] re-probed the
    /// storage with a successful sync).
    fn clear_failure(&self) {
        let (lock, _) = &*self.shared;
        lock.lock().unwrap_or_else(|e| e.into_inner()).failed = None;
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        {
            let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            st.file = None;
        }
        cv.notify_one();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Scans a log file's bytes, returning the length of the validated prefix
/// and the number of records in it: 0 for a missing or torn header, and
/// `valid < data.len()` for a torn tail.
fn scan(data: &[u8]) -> (usize, usize) {
    if data.len() < HEADER_BYTES as usize
        || &data[..8] != MAGIC
        || u32::from_le_bytes([data[8], data[9], data[10], data[11]]) != VERSION
    {
        return (0, 0);
    }
    let mut off = HEADER_BYTES as usize;
    let mut count = 0;
    while let Some(header) = data.get(off..off + RECORD_HEADER_BYTES as usize) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let body_start = off + RECORD_HEADER_BYTES as usize;
        let Some(body) = data.get(body_start..body_start + len as usize) else {
            break;
        };
        if crc32c(body) != crc {
            break;
        }
        count += 1;
        off = body_start + len as usize;
    }
    (off, count)
}

/// A file name an older, rotating build gave a later log file.
fn is_rotated_file(name: &str) -> bool {
    name != FILE_NAME
        && name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".seg"))
            .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// The tail scan shared by [`Wal::open`] and [`Wal::heal`]: reads the log
/// file (creating it and its directory if absent), truncates it after the
/// last valid record — or at `limit`, a record boundary, if that comes
/// first — and reopens it positioned for appending.
fn scan_and_repair(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    limit: Option<u64>,
) -> io::Result<(Replay, Box<dyn VfsFile>)> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        vfs.create_dir_all(dir)?;
        if path.file_name().is_some_and(|n| n == FILE_NAME) {
            if let Some(name) = vfs.list(dir)?.into_iter().find(|n| is_rotated_file(n)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "wal directory {} holds {name}, part of a log that rotated past \
                         {FILE_NAME}; it cannot be replayed whole, so nothing was replayed",
                        dir.display()
                    ),
                ));
            }
        }
    }
    let mut data = match vfs.read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let read = data.len() as u64;
    if let Some(limit) = limit {
        data.truncate(limit as usize);
    }
    let mut replay = Replay::from_bytes(data);
    replay.truncated_bytes = read - replay.bytes();
    let file = if replay.bytes() == 0 {
        // A new log, or its header itself was torn: start the file over.
        let mut file = vfs.create(path)?;
        write_header(file.as_mut())?;
        file.sync_data()?;
        replay.data = Vec::new();
        file
    } else {
        let mut file = vfs.open_write(path)?;
        file.set_len(replay.bytes())?;
        file.sync_data()?;
        file.seek_end()?;
        file
    };
    if let Some(dir) = dir {
        vfs.sync_dir(dir)?;
    }
    Ok((replay, file))
}

impl Wal {
    /// Opens (or creates) the log file `opts.path`, replaying whatever is
    /// there: every valid record is returned oldest-first, and the first
    /// invalid record — a torn tail — truncates the log at that point.
    /// The returned `Wal` appends after the last valid record. A
    /// `wal-000000.seg` beside a rotated log from an older build is
    /// refused untouched.
    pub fn open(opts: WalOptions) -> io::Result<(Wal, Replay)> {
        let (replay, file) = scan_and_repair(&opts.vfs, &opts.path, None)?;
        if !replay.is_empty() {
            opts.metrics.replay_records.add(replay.len() as u64);
        }
        let flusher = match opts.fsync {
            FsyncPolicy::Batch => Some(Flusher::spawn(file.try_clone()?, opts.metrics)),
            _ => None,
        };
        Ok((
            Wal {
                path: opts.path,
                fsync: opts.fsync,
                vfs: opts.vfs,
                metrics: opts.metrics,
                file,
                len: replay.bytes().max(HEADER_BYTES),
                dirty: false,
                scratch: Vec::new(),
                flusher,
                poisoned: None,
            },
            replay,
        ))
    }

    /// The log file's length as of the last append, reset or repair that
    /// succeeded, header included.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Records the first durability failure and returns an error carrying
    /// its message. Subsequent appends/syncs keep failing with the same
    /// cause until [`heal`](Wal::heal).
    fn poison(&mut self, context: &str, err: &io::Error) -> io::Error {
        let cause = format!("{context}: {err}");
        if self.poisoned.is_none() {
            self.metrics.poisonings.inc();
            self.poisoned = Some(cause.clone());
        }
        io::Error::other(cause)
    }

    /// Fails fast if the writer is poisoned, absorbing any failure the
    /// background flusher recorded since the last check.
    fn check_poisoned(&mut self) -> io::Result<()> {
        if self.poisoned.is_none() {
            if let Some(flusher) = &self.flusher {
                if let Some(cause) = flusher.failure() {
                    self.metrics.poisonings.inc();
                    self.poisoned = Some(cause);
                }
            }
        }
        match &self.poisoned {
            Some(cause) => Err(io::Error::other(format!("wal poisoned: {cause}"))),
            None => Ok(()),
        }
    }

    /// The first durability failure, if the writer is poisoned. Also
    /// surfaces a background-flusher failure that has not yet been hit by
    /// an append or sync.
    pub fn poisoned(&mut self) -> Option<String> {
        let _ = self.check_poisoned();
        self.poisoned.clone()
    }

    /// Appends one record. Under `FsyncPolicy::Always` the record is on
    /// stable storage when this returns; otherwise it is buffered in the
    /// OS page cache until the next [`sync`](Wal::sync) (or writeback).
    pub fn append(&mut self, body: &[u8]) -> io::Result<()> {
        assert!(
            !body.is_empty() && body.len() <= MAX_RECORD_BYTES as usize,
            "wal record body must be 1..={MAX_RECORD_BYTES} bytes"
        );
        self.check_poisoned()?;
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.scratch.extend_from_slice(&crc32c(body).to_le_bytes());
        self.scratch.extend_from_slice(body);
        if let Err(e) = self.file.write_all(&self.scratch) {
            // The failed write may have landed a partial record; the file
            // tail is torn (a load cuts it) until heal() truncates it.
            return Err(self.poison("wal append failed", &e));
        }
        let framed = self.scratch.len() as u64;
        self.metrics.appends.inc();
        self.metrics.bytes.add(framed);
        match self.fsync {
            FsyncPolicy::Always => {
                if let Err(e) = self.file.sync_data() {
                    // The record is whole in the file, so a reopen would
                    // replay an append that failed: cut it off now, not
                    // only at heal(), in case the process stops first.
                    let _ = self.file.set_len(self.len);
                    return Err(self.poison("wal fdatasync failed", &e));
                }
                self.metrics.fsyncs.inc();
            }
            FsyncPolicy::Batch => {
                self.dirty = true;
                if let Some(flusher) = &self.flusher {
                    flusher.note_appended(framed);
                }
            }
            FsyncPolicy::Never => {}
        }
        self.len += framed;
        Ok(())
    }

    /// Milestone sync: pushes buffered appends to stable storage under the
    /// `batch` policy. A no-op under `always` (nothing is buffered) and
    /// `never` (durability is explicitly not requested). Fails — and stays
    /// failing — if the background flusher hit an fdatasync error since
    /// the last milestone: that data may already be gone from the page
    /// cache, so a successful sync here must not be reported as covering
    /// it.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        if self.dirty && self.fsync == FsyncPolicy::Batch {
            if let Err(e) = self.file.sync_data() {
                return Err(self.poison("wal fdatasync failed", &e));
            }
            self.metrics.fsyncs.inc();
            self.dirty = false;
            if let Some(flusher) = &self.flusher {
                flusher.synced();
            }
        }
        Ok(())
    }

    /// Discards every record: truncates the file back to its header in
    /// place and syncs it. Used once no live session depends on the log
    /// (all sessions committed or aborted), bounding disk use and replay
    /// cost. The handle (and the flusher's duplicate of it) stays open.
    pub fn reset(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        let file = &mut self.file;
        let result = file
            .set_len(HEADER_BYTES)
            .and_then(|()| file.seek_end())
            .and_then(|_| file.sync_data());
        if let Err(e) = result {
            return Err(self.poison("wal reset failed", &e));
        }
        if let Some(flusher) = &self.flusher {
            flusher.synced();
        }
        self.dirty = false;
        self.len = HEADER_BYTES;
        Ok(())
    }

    /// Attempts to recover a poisoned writer. Re-reads the log file and
    /// cuts it back to the end of the last record whose append succeeded
    /// — a short write's partial record, or a whole record whose fdatasync
    /// failed if the append could not cut it, is dropped; a torn tail
    /// before that point is cut where the
    /// checksum stops validating — then reopens it and probes the storage
    /// with a real fdatasync. On success the writer is unpoisoned and
    /// appends resume after the last kept record; the records that were
    /// acknowledged before the failure are untouched. Returns the number of
    /// bytes discarded. A no-op returning 0 on a healthy writer.
    pub fn heal(&mut self) -> io::Result<u64> {
        if self.check_poisoned().is_ok() {
            return Ok(0);
        }
        // Stop the flusher from racing the rescan; it is re-pointed below.
        if let Some(flusher) = &self.flusher {
            flusher.set_file(None);
        }
        let (replay, file) = scan_and_repair(&self.vfs, &self.path, Some(self.len))?;
        // Probe: the re-opened file must actually accept a data sync, or
        // the storage is still bad and the writer stays poisoned.
        file.sync_data()?;
        if let Some(flusher) = &self.flusher {
            flusher.set_file(file.try_clone().ok());
            flusher.clear_failure();
        }
        self.file = file;
        self.len = replay.bytes().max(HEADER_BYTES);
        self.dirty = false;
        self.poisoned = None;
        self.metrics.heals.inc();
        Ok(replay.truncated_bytes)
    }
}

fn write_header(file: &mut dyn VfsFile) -> io::Result<()> {
    file.write_all(MAGIC)?;
    file.write_all(&VERSION.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epfis-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The replayed bodies, owned, for comparisons.
    fn records(replay: &Replay) -> Vec<Vec<u8>> {
        replay.records().map(<[u8]>::to_vec).collect()
    }

    fn opts(dir: &Path) -> WalOptions {
        WalOptions {
            fsync: FsyncPolicy::Never,
            ..WalOptions::new(dir.join(FILE_NAME))
        }
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        for (s, p) in [
            ("always", FsyncPolicy::Always),
            ("batch", FsyncPolicy::Batch),
            ("never", FsyncPolicy::Never),
        ] {
            assert_eq!(s.parse::<FsyncPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = temp_dir("roundtrip");
        let bodies: Vec<Vec<u8>> = (0..100u32)
            .map(|i| i.to_le_bytes().repeat(1 + (i as usize % 7)))
            .collect();
        {
            let (mut wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(records(&replay).is_empty());
            for b in &bodies {
                wal.append(b).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), bodies);
        assert_eq!(replay.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_offset_never_loses_a_prefix() {
        // The core torn-tail property: chop the log at
        // every byte offset; replay must yield a prefix of the appended
        // records and never error or panic.
        let dir = temp_dir("truncate");
        let bodies: Vec<Vec<u8>> = (0..10u32).map(|i| vec![i as u8; 3 + i as usize]).collect();
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            for b in &bodies {
                wal.append(b).unwrap();
            }
        }
        let seg = dir.join(FILE_NAME);
        let full = fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            fs::write(&seg, &full[..cut]).unwrap();
            let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(
                records(&replay).len() <= bodies.len(),
                "cut={cut}: more records than written"
            );
            assert_eq!(
                records(&replay),
                bodies[..records(&replay).len()],
                "cut={cut}: replay is not a prefix"
            );
            // Whatever survived must itself replay cleanly (truncation
            // repaired the tail).
            let (_wal2, again) = Wal::open(opts(&dir)).unwrap();
            assert_eq!(
                records(&again),
                records(&replay),
                "cut={cut}: unstable repair"
            );
            assert_eq!(again.truncated_bytes, 0, "cut={cut}: repair left garbage");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_truncates_from_that_record() {
        let dir = temp_dir("corrupt");
        let bodies: Vec<Vec<u8>> = (0..5u32).map(|i| vec![i as u8; 16]).collect();
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            for b in &bodies {
                wal.append(b).unwrap();
            }
        }
        let seg = dir.join(FILE_NAME);
        let mut data = fs::read(&seg).unwrap();
        // Flip a byte inside the third record's body.
        let off = HEADER_BYTES as usize + 2 * (8 + 16) + 8 + 4;
        data[off] ^= 0x40;
        fs::write(&seg, &data).unwrap();
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), bodies[..2]);
        assert!(replay.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_resumes_after_torn_tail_repair() {
        let dir = temp_dir("resume-append");
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        // Tear the second record's tail off.
        let seg = dir.join(FILE_NAME);
        let data = fs::read(&seg).unwrap();
        fs::write(&seg, &data[..data.len() - 3]).unwrap();
        {
            let (mut wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert_eq!(records(&replay), vec![b"first".to_vec()]);
            wal.append(b"third").unwrap();
        }
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), vec![b"first".to_vec(), b"third".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_discards_everything() {
        let dir = temp_dir("reset");
        let o = opts(&dir);
        let (mut wal, _) = Wal::open(o.clone()).unwrap();
        for i in 0..20u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.reset().unwrap();
        wal.append(b"fresh").unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(o).unwrap();
        assert_eq!(records(&replay), vec![b"fresh".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_truncates_to_a_header_only_file_that_replays_empty_and_appends() {
        let dir = temp_dir("reset-in-place");
        let mut o = opts(&dir);
        o.fsync = FsyncPolicy::Batch;
        let path = dir.join(FILE_NAME);
        let (mut wal, _) = Wal::open(o.clone()).unwrap();
        for i in 0..50u32 {
            wal.append(&i.to_le_bytes().repeat(16)).unwrap();
        }
        wal.sync().unwrap();
        assert!(fs::metadata(&path).unwrap().len() > HEADER_BYTES);
        wal.reset().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), HEADER_BYTES);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1,
            "one file, reset in place"
        );
        drop(wal);

        let (mut wal, replay) = Wal::open(o.clone()).unwrap();
        assert!(replay.is_empty());
        assert_eq!(replay.truncated_bytes, 0);
        wal.append(b"after-reset").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(o).unwrap();
        assert_eq!(records(&replay), vec![b"after-reset".to_vec()]);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            HEADER_BYTES + RECORD_HEADER_BYTES + 11
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_a_rotated_log_and_names_the_file() {
        let dir = temp_dir("rotated");
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"first-file").unwrap();
        }
        let first = fs::read(dir.join(FILE_NAME)).unwrap();
        // What an older, rotating build left after its first rotation.
        fs::write(dir.join("wal-000001.seg"), &first).unwrap();
        let err = Wal::open(opts(&dir))
            .err()
            .expect("a rotated log must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("wal-000001.seg"), "{err}");
        // Nothing was replayed or repaired: both files are as they were.
        assert_eq!(fs::read(dir.join(FILE_NAME)).unwrap(), first);
        assert_eq!(fs::read(dir.join("wal-000001.seg")).unwrap(), first);
        // Files that merely look alike are not log files.
        fs::remove_file(dir.join("wal-000001.seg")).unwrap();
        fs::write(dir.join("wal-.seg"), b"x").unwrap();
        fs::write(dir.join("wal-12a.seg"), b"x").unwrap();
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), vec![b"first-file".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_policy_round_trips() {
        let dir = temp_dir("always");
        let mut o = opts(&dir);
        o.fsync = FsyncPolicy::Always;
        {
            let (mut wal, _) = Wal::open(o.clone()).unwrap();
            wal.append(b"durable").unwrap();
        }
        let (_wal, replay) = Wal::open(o).unwrap();
        assert_eq!(records(&replay), vec![b"durable".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    // ------------------------------------------------------------------
    // Fault injection: poisoning, the flusher regression, heal.
    // ------------------------------------------------------------------

    fn fault_opts(dir: &Path, fsync: FsyncPolicy, fault: &FaultVfs) -> WalOptions {
        WalOptions {
            fsync,
            vfs: fault.clone().shared(),
            ..WalOptions::new(dir.join(FILE_NAME))
        }
    }

    #[test]
    fn failed_append_poisons_until_heal() {
        let dir = temp_dir("poison-append");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Never, &fault)).unwrap();
        wal.append(b"good").unwrap();
        fault
            .schedule()
            .push(Rule::new(FaultKind::Enospc).on_op(OpKind::Write).times(1));
        let err = wal.append(b"doomed").unwrap_err();
        assert!(err.to_string().contains("append failed"), "{err}");
        // The fault healed (times=1) but the writer must stay poisoned:
        // the failed append may have landed partial bytes.
        let err = wal.append(b"still-blocked").unwrap_err();
        assert!(err.to_string().contains("wal poisoned"), "{err}");
        assert!(wal.poisoned().is_some());
        wal.heal().unwrap();
        wal.append(b"after-heal").unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(
            records(&replay),
            vec![b"good".to_vec(), b"after-heal".to_vec()]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_tears_tail_and_heal_truncates_it() {
        let dir = temp_dir("poison-short");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Never, &fault)).unwrap();
        wal.append(b"keep-me").unwrap();
        fault.schedule().push(
            Rule::new(FaultKind::ShortWrite(5))
                .on_op(OpKind::Write)
                .times(1),
        );
        assert!(wal
            .append(b"torn-record-body")
            .unwrap_err()
            .to_string()
            .contains("append"));
        // The partial record is physically on disk right now.
        let len_with_tear = fs::metadata(dir.join(FILE_NAME)).unwrap().len();
        let torn = wal.heal().unwrap();
        assert_eq!(torn, 5, "heal must truncate exactly the torn bytes");
        assert!(fs::metadata(dir.join(FILE_NAME)).unwrap().len() < len_with_tear);
        wal.append(b"clean-after").unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(
            records(&replay),
            vec![b"keep-me".to_vec(), b"clean-after".to_vec()]
        );
        assert_eq!(replay.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_whose_fdatasync_failed_is_cut_off_the_file_at_once() {
        let dir = temp_dir("poison-always");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Always, &fault)).unwrap();
        wal.append(b"acked").unwrap();
        let acked = wal.bytes();
        fault
            .schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData).times(1));
        assert!(wal.append(b"unacked").is_err());
        // The record was written whole, but its append failed: it is gone
        // from the file before heal(), so a reopen cannot replay it.
        let on_disk = fs::read(dir.join(FILE_NAME)).unwrap();
        assert_eq!(on_disk.len() as u64, acked);
        assert_eq!(
            records(&Replay::from_bytes(on_disk)),
            vec![b"acked".to_vec()]
        );
        assert_eq!(wal.bytes(), acked);
        assert_eq!(wal.heal().unwrap(), 0);
        assert_eq!(wal.bytes(), acked);
        wal.append(b"after").unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), vec![b"acked".to_vec(), b"after".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn milestone_sync_failure_poisons() {
        let dir = temp_dir("poison-sync");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Batch, &fault)).unwrap();
        wal.append(b"buffered").unwrap();
        fault
            .schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData).times(1));
        assert!(wal.sync().is_err());
        // Poisoned even though the fault healed: that sync never covered
        // the appended data.
        assert!(wal.sync().unwrap_err().to_string().contains("wal poisoned"));
        wal.heal().unwrap();
        wal.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_flusher_fsync_failure_fails_next_milestone_sync() {
        // The fsyncgate regression: before the fix, a failed sync_data on
        // the flusher's duplicate fd was silently swallowed and the next
        // milestone sync reported success it could not honour.
        let dir = temp_dir("flusher-gate");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Batch, &fault)).unwrap();
        // Every sync_data fails from here on (foreground and background).
        fault
            .schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData));
        // Push enough bytes through to cross FLUSH_THRESHOLD_BYTES and
        // wake the background flusher.
        let body = vec![0x5A; 64 * 1024];
        for _ in 0..((FLUSH_THRESHOLD_BYTES / (64 * 1024)) + 2) {
            if wal.append(&body).is_err() {
                break; // flusher failure already absorbed — also a pass
            }
        }
        // Give the flusher thread a moment to hit the fault.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while wal.poisoned().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(
            wal.poisoned().is_some(),
            "background fsync failure must poison the writer"
        );
        let err = wal.sync().unwrap_err();
        assert!(
            err.to_string().contains("poisoned"),
            "milestone sync must fail after a background fsync error: {err}"
        );
        // Heal both the schedule and the writer; sync works again.
        fault.schedule().heal();
        wal.heal().unwrap();
        wal.append(b"recovered").unwrap();
        wal.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heal_on_healthy_writer_is_a_noop() {
        let dir = temp_dir("heal-noop");
        let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
        wal.append(b"a").unwrap();
        assert_eq!(wal.heal().unwrap(), 0);
        wal.append(b"b").unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(records(&replay), vec![b"a".to_vec(), b"b".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heal_fails_while_storage_still_bad() {
        let dir = temp_dir("heal-still-bad");
        let fault = FaultVfs::new();
        let (mut wal, _) = Wal::open(fault_opts(&dir, FsyncPolicy::Never, &fault)).unwrap();
        fault
            .schedule()
            .push(Rule::new(FaultKind::Enospc).on_op(OpKind::Write));
        assert!(wal.append(b"x").is_err());
        // The disk is still full: heal's probe must fail and the writer
        // must stay poisoned.
        fault.schedule().heal();
        fault
            .schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData));
        assert!(wal.heal().is_err());
        assert!(wal
            .append(b"y")
            .unwrap_err()
            .to_string()
            .contains("poisoned"));
        fault.schedule().heal();
        wal.heal().unwrap();
        wal.append(b"z").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
