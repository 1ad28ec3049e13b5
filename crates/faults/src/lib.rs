//! Injectable virtual filesystem for the durability stack.
//!
//! Every write-side file operation the WAL and the catalog persist path
//! perform goes through the [`Vfs`] trait: opening and creating files,
//! writing, `fdatasync`, directory syncs, renames, and removals. Production
//! code uses the zero-cost passthrough [`StdVfs`]; tests and chaos drills
//! swap in a [`FaultVfs`] whose deterministic, scripted schedule injects
//! storage faults at exact call sites:
//!
//! * fail the Nth fault-eligible call process-wide ([`Rule::at_index`]),
//! * fail every call from the Nth on ([`Rule::after_index`]),
//! * fail every call touching a path containing a substring
//!   ([`Rule::path_contains`]),
//! * fail only a specific operation kind ([`Rule::on_op`]),
//! * write only the first K bytes before failing ([`FaultKind::ShortWrite`],
//!   producing genuinely torn tails),
//! * return `ENOSPC` or `EIO`, and
//! * heal after a bounded number of injections ([`Rule::times`] — the
//!   fail-once-then-heal schedule is `.times(1)`).
//!
//! The schedule is shared between the `FaultVfs` and every file handle it
//! opens, so a fault can land inside a background flusher thread just as
//! well as on the caller's own path. [`FaultVfs::from_spec`] parses the
//! same schedules from a text form (`op=sync_data kind=eio after=10
//! times=3 path=wal`), which `epfis serve` exposes through the
//! `EPFIS_FAULTS` environment variable for tests that need a real server
//! process to hit a scripted disk failure (`crates/cli/tests/process.rs`).

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An open file handle obtained from a [`Vfs`].
///
/// The surface is exactly what the WAL writer and the catalog persist path
/// need: sequential writes, data/metadata syncs, truncation, an
/// end-of-file seek after reopening or resetting the log file, and handle
/// duplication for the background flusher (which `fdatasync`s a clone of
/// the log file's fd).
pub trait VfsFile: Send {
    /// Writes the whole buffer or fails; a short write surfaces as an error
    /// after the partial bytes have landed (matching what a real `ENOSPC`
    /// mid-`write_all` leaves on disk).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`: flushes file data to stable storage.
    fn sync_data(&self) -> io::Result<()>;
    /// `fsync`: flushes file data and metadata to stable storage.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Seeks to the end, returning the offset.
    fn seek_end(&mut self) -> io::Result<u64>;
    /// Duplicates the handle; syncs on the clone cover the same inode.
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>>;
}

/// A virtual filesystem covering the write-side operations of the
/// durability stack. Implementations must be cheap to call: [`StdVfs`] is
/// a direct passthrough to `std::fs`.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for writing without truncation.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the file names in a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Renames a file (atomic within a filesystem, as `std::fs::rename`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Durably records directory-entry changes (create/remove/rename need
    /// the directory inode synced, not just file data). Best-effort on
    /// platforms where directories cannot be opened.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Takes an exclusive lock on the file at `path`, creating it if need
    /// be, held until the returned handle drops. While another handle
    /// holds it, fails with [`io::ErrorKind::WouldBlock`].
    fn lock(&self, path: &Path) -> io::Result<File>;
}

/// The operation kinds a fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Vfs::create`].
    Create,
    /// [`Vfs::open_write`].
    Open,
    /// [`VfsFile::write_all`] (the append path).
    Write,
    /// [`VfsFile::sync_data`] / [`VfsFile::sync_all`].
    SyncData,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove`].
    Remove,
    /// [`VfsFile::set_len`].
    Truncate,
    /// [`Vfs::lock`].
    Lock,
}

impl OpKind {
    /// Every fault-eligible operation kind, in the order the global op
    /// counter observes them being scheduled by tests.
    pub const ALL: &'static [OpKind] = &[
        OpKind::Create,
        OpKind::Open,
        OpKind::Write,
        OpKind::SyncData,
        OpKind::SyncDir,
        OpKind::Rename,
        OpKind::Remove,
        OpKind::Truncate,
        OpKind::Lock,
    ];

    fn parse(s: &str) -> Result<OpKind, String> {
        Ok(match s {
            "create" => OpKind::Create,
            "open" => OpKind::Open,
            "write" | "append" => OpKind::Write,
            "sync_data" | "fsync" => OpKind::SyncData,
            "sync_dir" => OpKind::SyncDir,
            "rename" => OpKind::Rename,
            "remove" => OpKind::Remove,
            "truncate" => OpKind::Truncate,
            "lock" => OpKind::Lock,
            other => return Err(format!("unknown vfs op {other:?}")),
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::Create => "create",
            OpKind::Open => "open",
            OpKind::Write => "write",
            OpKind::SyncData => "sync_data",
            OpKind::SyncDir => "sync_dir",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
            OpKind::Truncate => "truncate",
            OpKind::Lock => "lock",
        })
    }
}

/// What error an injected fault produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — no space left on device.
    Enospc,
    /// `EIO` — a generic I/O error.
    Eio,
    /// For `Write` ops: land only the first `K` bytes, then fail with
    /// `ENOSPC`. On other op kinds this behaves like plain `Enospc`.
    ShortWrite(usize),
}

impl FaultKind {
    fn error(self) -> io::Error {
        match self {
            FaultKind::Enospc | FaultKind::ShortWrite(_) => {
                #[cfg(unix)]
                {
                    io::Error::from_raw_os_error(28) // ENOSPC
                }
                #[cfg(not(unix))]
                {
                    io::Error::new(io::ErrorKind::Other, "injected ENOSPC")
                }
            }
            FaultKind::Eio => {
                #[cfg(unix)]
                {
                    io::Error::from_raw_os_error(5) // EIO
                }
                #[cfg(not(unix))]
                {
                    io::Error::new(io::ErrorKind::Other, "injected EIO")
                }
            }
        }
    }
}

/// One scripted fault: a filter (op kind, path substring, call index) plus
/// the error to inject and an optional injection budget.
#[derive(Debug, Clone)]
pub struct Rule {
    kind: FaultKind,
    op: Option<OpKind>,
    path_contains: Option<String>,
    /// Fire only when the global op index is exactly this.
    at_index: Option<u64>,
    /// Fire only when the global op index is `>=` this.
    from_index: u64,
    /// Remaining injections before the rule heals; `None` = unbounded.
    budget: Option<u64>,
}

impl Rule {
    /// A rule injecting `kind` on every fault-eligible call until
    /// narrowed by the builder methods.
    pub fn new(kind: FaultKind) -> Rule {
        Rule {
            kind,
            op: None,
            path_contains: None,
            at_index: None,
            from_index: 0,
            budget: None,
        }
    }

    /// Restrict to one operation kind.
    pub fn on_op(mut self, op: OpKind) -> Rule {
        self.op = Some(op);
        self
    }

    /// Restrict to paths whose UTF-8 form contains `needle`.
    pub fn path_contains(mut self, needle: impl Into<String>) -> Rule {
        self.path_contains = Some(needle.into());
        self
    }

    /// Fire only on the call with global op index `i` (0-based, counted
    /// across every fault-eligible operation on the schedule).
    pub fn at_index(mut self, i: u64) -> Rule {
        self.at_index = Some(i);
        self
    }

    /// Fire only from global op index `i` on.
    pub fn after_index(mut self, i: u64) -> Rule {
        self.from_index = i;
        self
    }

    /// Heal after `n` injections. `.times(1)` is the classic
    /// fail-once-then-heal schedule.
    pub fn times(mut self, n: u64) -> Rule {
        self.budget = Some(n);
        self
    }

    fn matches(&self, index: u64, op: OpKind, path: &Path) -> bool {
        if self.budget == Some(0) {
            return false;
        }
        if let Some(want) = self.op {
            if want != op {
                return false;
            }
        }
        if let Some(at) = self.at_index {
            if index != at {
                return false;
            }
        }
        if index < self.from_index {
            return false;
        }
        if let Some(needle) = &self.path_contains {
            if !path.to_string_lossy().contains(needle.as_str()) {
                return false;
            }
        }
        true
    }
}

#[derive(Debug, Default)]
struct ScheduleState {
    /// Fault-eligible operations observed so far (the global op index).
    ops: u64,
    rules: Vec<Rule>,
    injected: u64,
    /// When false the schedule observes (counts ops) but injects nothing.
    armed: bool,
    /// [`Schedule::count`] watches: an op kind, a path substring, the count.
    counts: Vec<(OpKind, String, Arc<AtomicU64>)>,
}

/// The shared, mutable fault schedule behind a [`FaultVfs`] and all of its
/// file handles. Clone freely; all clones observe and steer one schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    state: Arc<Mutex<ScheduleState>>,
}

impl Schedule {
    /// A fresh schedule with no rules, armed.
    pub fn new() -> Schedule {
        let s = Schedule::default();
        s.state.lock().unwrap_or_else(|e| e.into_inner()).armed = true;
        s
    }

    /// Adds a rule.
    pub fn push(&self, rule: Rule) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rules
            .push(rule);
    }

    /// Removes every rule (heals all faults) without resetting counters.
    pub fn heal(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rules
            .clear();
    }

    /// Arms or disarms injection. Disarmed schedules still count ops, so a
    /// counting pass can learn how many call sites a workload touches.
    pub fn set_armed(&self, armed: bool) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).armed = armed;
    }

    /// Fault-eligible operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).ops
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
    }

    /// Counts every later operation of kind `op` on a path containing
    /// `needle`, armed or not: how a test asserts which syncs a request
    /// ran.
    pub fn count(&self, op: OpKind, needle: impl Into<String>) -> Arc<AtomicU64> {
        let count = Arc::new(AtomicU64::new(0));
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counts
            .push((op, needle.into(), Arc::clone(&count)));
        count
    }

    /// Resets the op and injection counters (rules stay).
    pub fn reset_counters(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.ops = 0;
        st.injected = 0;
    }

    /// Consults the schedule for one operation: returns the fault to
    /// inject, if any, and advances the op counter.
    fn check(&self, op: OpKind, path: &Path) -> Option<FaultKind> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let index = st.ops;
        st.ops += 1;
        for (kind, needle, count) in &st.counts {
            if *kind == op && path.to_string_lossy().contains(needle.as_str()) {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !st.armed {
            return None;
        }
        for rule in st.rules.iter_mut() {
            if rule.matches(index, op, path) {
                if let Some(budget) = &mut rule.budget {
                    *budget -= 1;
                }
                let kind = rule.kind;
                st.injected += 1;
                return Some(kind);
            }
        }
        None
    }
}

/// Parses a scripted schedule from text: `;`-separated rules, each a list
/// of whitespace-separated `key=value` tokens.
///
/// ```text
/// kind=enospc                      error to inject: enospc | eio | short:K
/// op=write                         create|open|write|sync_data|sync_dir|rename|remove|truncate|lock
/// path=wal                         only paths containing this substring
/// at=N                             only the call with global op index N
/// after=N                          only calls with global op index >= N
/// times=K                          heal after K injections
/// ```
///
/// Example: `op=sync_data kind=eio after=10 times=3 path=wal`.
pub fn parse_spec(spec: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let mut kind = None;
        let mut rule_op = None;
        let mut path = None;
        let mut at = None;
        let mut after = None;
        let mut times = None;
        for tok in part.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad fault token {tok:?} (expected key=value)"))?;
            match key {
                "kind" => {
                    kind = Some(match value {
                        "enospc" => FaultKind::Enospc,
                        "eio" => FaultKind::Eio,
                        short => {
                            let k = short
                                .strip_prefix("short:")
                                .ok_or_else(|| format!("unknown fault kind {value:?}"))?;
                            FaultKind::ShortWrite(
                                k.parse()
                                    .map_err(|e| format!("bad short-write bytes: {e}"))?,
                            )
                        }
                    })
                }
                "op" => rule_op = Some(OpKind::parse(value)?),
                "path" => path = Some(value.to_string()),
                "at" => at = Some(value.parse().map_err(|e| format!("bad at index: {e}"))?),
                "after" => {
                    after = Some(value.parse().map_err(|e| format!("bad after index: {e}"))?)
                }
                "times" => times = Some(value.parse().map_err(|e| format!("bad times: {e}"))?),
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        let mut rule = Rule::new(kind.ok_or("fault rule missing kind=")?);
        if let Some(op) = rule_op {
            rule = rule.on_op(op);
        }
        if let Some(p) = path {
            rule = rule.path_contains(p);
        }
        if let Some(i) = at {
            rule = rule.at_index(i);
        }
        if let Some(i) = after {
            rule = rule.after_index(i);
        }
        if let Some(n) = times {
            rule = rule.times(n);
        }
        rules.push(rule);
    }
    Ok(rules)
}

// ---------------------------------------------------------------------------
// StdVfs: the production passthrough.
// ---------------------------------------------------------------------------

/// The production filesystem: every operation maps 1:1 onto `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the passthrough filesystem.
    pub fn shared() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(self.0.try_clone()?)))
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(
            OpenOptions::new().write(true).open(path)?,
        )))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Ok(data)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn lock(&self, path: &Path) -> io::Result<File> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(fs::TryLockError::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            Err(fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// FaultVfs: the deterministic fault injector.
// ---------------------------------------------------------------------------

/// A filesystem that consults a scripted [`Schedule`] before delegating to
/// an inner [`Vfs`] (usually [`StdVfs`]). Deterministic: the same workload
/// against the same schedule injects the same faults at the same calls.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    schedule: Schedule,
}

impl FaultVfs {
    /// Wraps the passthrough filesystem with a fresh, empty schedule.
    pub fn new() -> FaultVfs {
        FaultVfs::wrap(StdVfs::shared())
    }

    /// Wraps an arbitrary inner filesystem.
    pub fn wrap(inner: Arc<dyn Vfs>) -> FaultVfs {
        FaultVfs {
            inner,
            schedule: Schedule::new(),
        }
    }

    /// Builds a `FaultVfs` over [`StdVfs`] from a textual schedule (see
    /// [`parse_spec`]).
    pub fn from_spec(spec: &str) -> Result<FaultVfs, String> {
        let vfs = FaultVfs::new();
        for rule in parse_spec(spec)? {
            vfs.schedule.push(rule);
        }
        Ok(vfs)
    }

    /// The shared schedule: add rules, heal, read counters.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// A shared handle suitable for `WalOptions::vfs` and friends.
    pub fn shared(self) -> Arc<dyn Vfs> {
        Arc::new(self)
    }

    fn gate(&self, op: OpKind, path: &Path) -> io::Result<()> {
        match self.schedule.check(op, path) {
            Some(kind) => Err(kind.error()),
            None => Ok(()),
        }
    }
}

impl Default for FaultVfs {
    fn default() -> Self {
        FaultVfs::new()
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    schedule: Schedule,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.schedule.check(OpKind::Write, &self.path) {
            None => self.inner.write_all(buf),
            Some(FaultKind::ShortWrite(k)) => {
                let k = k.min(buf.len());
                // Land the partial prefix so the tail is genuinely torn.
                self.inner.write_all(&buf[..k])?;
                Err(FaultKind::ShortWrite(k).error())
            }
            Some(kind) => Err(kind.error()),
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        match self.schedule.check(OpKind::SyncData, &self.path) {
            None => self.inner.sync_data(),
            Some(kind) => Err(kind.error()),
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        match self.schedule.check(OpKind::SyncData, &self.path) {
            None => self.inner.sync_all(),
            Some(kind) => Err(kind.error()),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        match self.schedule.check(OpKind::Truncate, &self.path) {
            None => self.inner.set_len(len),
            Some(kind) => Err(kind.error()),
        }
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        // Seeks move no data; they are not fault-eligible.
        self.inner.seek_end()
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.try_clone()?,
            path: self.path.clone(),
            schedule: self.schedule.clone(),
        }))
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(OpKind::Create, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            path: path.to_path_buf(),
            schedule: self.schedule.clone(),
        }))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(OpKind::Open, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_write(path)?,
            path: path.to_path_buf(),
            schedule: self.schedule.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads are not fault-eligible: the sweep targets durability, and
        // replay corruption is covered by the torn-tail tests.
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::Remove, path)?;
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(OpKind::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate(OpKind::SyncDir, dir)?;
        self.inner.sync_dir(dir)
    }

    fn lock(&self, path: &Path) -> io::Result<File> {
        self.gate(OpKind::Lock, path)?;
        self.inner.lock(path)
    }
}

/// Writes `contents` to `path` atomically through a [`Vfs`]: write to a
/// temp file in the same directory, fsync it, rename over the target, and
/// sync the directory. Readers see the old bytes or the new bytes, never a
/// mix; a fault at any step leaves the old file byte-identical.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(".{file_name}.tmp.{}", std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let result = (|| -> io::Result<()> {
        let mut file = vfs.create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        drop(file);
        vfs.rename(&tmp, path)?;
        if let Some(d) = dir {
            vfs.sync_dir(d)?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = vfs.remove(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epfis-faults-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = temp_dir("std");
        let vfs = StdVfs;
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let mut f = vfs.open_write(&path).unwrap();
        assert_eq!(f.seek_end().unwrap(), 5);
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let to = dir.join("b.bin");
        vfs.rename(&path, &to).unwrap();
        assert!(vfs.list(&dir).unwrap().contains(&"b.bin".to_string()));
        vfs.sync_dir(&dir).unwrap();
        vfs.remove(&to).unwrap();
        assert!(vfs.list(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nth_call_fault_fires_exactly_once() {
        let dir = temp_dir("nth");
        let vfs = FaultVfs::new();
        vfs.schedule().push(Rule::new(FaultKind::Eio).at_index(2));
        // op 0: create, op 1: write, op 2: sync_data (fails), op 3: write.
        let mut f = vfs.create(&dir.join("x")).unwrap();
        f.write_all(b"a").unwrap();
        let err = f.sync_data().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        f.write_all(b"b").unwrap();
        assert_eq!(vfs.schedule().injected(), 1);
        assert_eq!(vfs.schedule().ops(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_and_op_filters_narrow_injection() {
        let dir = temp_dir("filters");
        let vfs = FaultVfs::new();
        vfs.schedule().push(
            Rule::new(FaultKind::Enospc)
                .on_op(OpKind::Write)
                .path_contains("wal-"),
        );
        let mut other = vfs.create(&dir.join("catalog.scat")).unwrap();
        other.write_all(b"fine").unwrap();
        let mut seg = vfs.create(&dir.join("wal-000000.seg")).unwrap();
        let err = seg.write_all(b"doomed").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_lands_partial_prefix() {
        let dir = temp_dir("short");
        let vfs = FaultVfs::new();
        vfs.schedule().push(
            Rule::new(FaultKind::ShortWrite(3))
                .on_op(OpKind::Write)
                .times(1),
        );
        let path = dir.join("torn");
        let mut f = vfs.create(&path).unwrap();
        assert!(f.write_all(b"abcdef").is_err());
        // Healed after one injection: the next write goes through whole.
        f.write_all(b"XY").unwrap();
        drop(f);
        assert_eq!(fs::read(&path).unwrap(), b"abcXY");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_once_then_heal() {
        let dir = temp_dir("heal");
        let vfs = FaultVfs::new();
        vfs.schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncData).times(1));
        let f = vfs.create(&dir.join("x")).unwrap();
        assert!(f.sync_data().is_err());
        f.sync_data().unwrap();
        f.sync_data().unwrap();
        assert_eq!(vfs.schedule().injected(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disarmed_schedule_counts_but_does_not_inject() {
        let dir = temp_dir("disarmed");
        let vfs = FaultVfs::new();
        vfs.schedule().push(Rule::new(FaultKind::Eio));
        vfs.schedule().set_armed(false);
        let mut f = vfs.create(&dir.join("x")).unwrap();
        f.write_all(b"ok").unwrap();
        assert_eq!(vfs.schedule().ops(), 2);
        assert_eq!(vfs.schedule().injected(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn count_watches_one_op_kind_on_matching_paths() {
        let dir = temp_dir("count");
        let vfs = FaultVfs::new();
        let seg_syncs = vfs.schedule().count(OpKind::SyncData, "wal-");
        let seg = vfs.create(&dir.join("wal-000000.seg")).unwrap();
        let other = vfs.create(&dir.join("catalog.scat.log")).unwrap();
        seg.sync_data().unwrap();
        other.sync_data().unwrap();
        seg.set_len(0).unwrap();
        vfs.schedule().set_armed(false);
        seg.try_clone().unwrap().sync_data().unwrap();
        assert_eq!(seg_syncs.load(Ordering::Relaxed), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_parses_rules_and_rejects_garbage() {
        let rules =
            parse_spec("op=sync_data kind=eio after=10 times=3 path=wal; kind=short:7 at=2")
                .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].op, Some(OpKind::SyncData));
        assert_eq!(rules[0].kind, FaultKind::Eio);
        assert_eq!(rules[0].from_index, 10);
        assert_eq!(rules[0].budget, Some(3));
        assert_eq!(rules[0].path_contains.as_deref(), Some("wal"));
        assert_eq!(rules[1].kind, FaultKind::ShortWrite(7));
        assert_eq!(rules[1].at_index, Some(2));
        assert!(parse_spec("kind=tornado").is_err());
        assert!(parse_spec("op=write").is_err(), "missing kind");
        assert!(parse_spec("kind=eio frequency=often").is_err());
        assert!(parse_spec("kind=eio op").is_err());
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn write_atomic_is_old_or_new_under_any_single_fault() {
        let dir = temp_dir("atomic");
        let path = dir.join("catalog.scat");
        let vfs = FaultVfs::new();
        write_atomic(&vfs, &path, "old contents\n").unwrap();
        let clean_ops = vfs.schedule().ops();
        assert!(clean_ops >= 4, "create+write+sync+rename+dirsync");
        for i in 0..clean_ops {
            let vfs = FaultVfs::new();
            vfs.schedule()
                .push(Rule::new(FaultKind::Enospc).at_index(i));
            let result = write_atomic(&vfs, &path, "new contents\n");
            let on_disk = fs::read_to_string(&path).unwrap();
            match result {
                Ok(()) => assert_eq!(on_disk, "new contents\n", "fault at op {i}"),
                Err(_) => assert!(
                    on_disk == "old contents\n" || on_disk == "new contents\n",
                    "fault at op {i} left mixed state: {on_disk:?}"
                ),
            }
            // Reset for the next iteration.
            write_atomic(&StdVfs, &path, "old contents\n").unwrap();
        }
        // No temp litter left behind.
        let leftovers: Vec<String> = StdVfs
            .list(&dir)
            .unwrap()
            .into_iter()
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
