//! The server's durable, versioned catalog, its text format, and its
//! lock-light sharing model.
//!
//! Each entry is the core [`epfis::IndexStatistics`] plus version metadata:
//! a monotonically increasing **epoch** (bumped on every commit, globally —
//! an entry's epoch records *when* it was last analyzed relative to every
//! other commit) and an **analyzed-at** unix timestamp, so clients can
//! reason about staleness (see `docs/protocol.md`).
//!
//! `epfis analyze` and `epfis serve` both open and commit the catalog
//! through [`SharedCatalog`], and this module alone writes and reads its
//! format. On disk a durable catalog is two files: the **snapshot** at the
//! catalog path, and the **catalog log** beside it at `<path>.log`.
//!
//! The snapshot is a header, a metadata section, a literal `---` line, the
//! entry blocks under their own header, and a CRC32C footer:
//!
//! ```text
//! epfis-server-catalog v1
//! epoch 7
//! meta orders.customer_id epoch=7 analyzed_at=1754400000 cluster_counter=812 fetches_b1=40211 fetches_b3=38007 session=42
//! ---
//! epfis-catalog v1
//! index orders.customer_id
//! table_pages 2500
//! records 50000
//! distinct_keys 500
//! distinct_pages 2500
//! clustering_factor 0.8123
//! b_min 1
//! b_max 2500
//! fpf 1:48123 2:47310 ... 2500:2500
//! config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto
//! end
//! crc32c 1a2b3c4d
//! ```
//!
//! Section 4.1 stores the segment end-points "in a system catalog entry
//! associated with the index"; the `fpf` line holds them as `B:F` knots.
//! Floating-point fields use Rust's shortest round-tripping decimal form,
//! so a load of a rendered catalog reproduces every value — and so every
//! estimate — bit for bit.
//!
//! Every entry block has exactly one `meta` line and every `meta` line one
//! entry block; an entry's epoch never exceeds the global `epoch`. Names
//! are non-empty, without whitespace or control characters.
//!
//! The three `cluster_counter`/`fetches_b1`/`fetches_b3` items are the
//! entry's [`BaselineCounters`], from which `COMPARE` rebuilds the
//! baseline estimators; a `meta` line written before they existed loads
//! with none, and `COMPARE` then asks for a re-`ANALYZE`. A bare file —
//! `epfis-catalog v1` and the entry blocks, which older `epfis analyze`
//! runs wrote — loads at epoch 0, also without counters.
//!
//! `session=S` names the WAL session that committed the entry: with
//! `--wal-dir` the catalog commit is the commit point (see [`crate::wal`]).
//! An older build's `wal_committed N` line is accepted and dropped.
//!
//! # The catalog log
//!
//! A commit changes one entry, so it writes one: it appends one record to
//! the catalog log, an [`epfis_wal::Wal`] (length, CRC32C, body) synced
//! with `fdatasync` before the commit is acknowledged. **That append is
//! the commit point.** The log's first record names the snapshot it
//! extends, by epoch and by the snapshot's footer CRC32C; each record after
//! it is the snapshot format holding just the committed entry at the epoch
//! the commit made, without the footer (the log frame carries the
//! checksum):
//!
//! ```text
//! snapshot epoch=7 crc32c=1a2b3c4d
//! ```
//!
//! ```text
//! epfis-server-catalog v1
//! epoch 8
//! meta orders.customer_id epoch=8 analyzed_at=1754400300 cluster_counter=809 fetches_b1=40198 fetches_b3=37990 session=43
//! ---
//! epfis-catalog v1
//! index orders.customer_id
//! ...
//! end
//! ```
//!
//! A load reads the snapshot, then the log. A log that extends this
//! snapshot is applied, and its epochs must run snapshot + 1, + 2, …; a
//! gap fails the load. A log that extends another snapshot is applied
//! nowhere. If this snapshot holds every record in it, a compaction renamed
//! the snapshot in and stopped before resetting the log, and the next
//! commit resets it. If it extends a newer snapshot than the file holds, an
//! older copy of the file was put back, and the next commit renames the log
//! aside to `<path>.log.stale`, whole; so does a log beside a missing
//! snapshot. Any other log — one with a record this snapshot lacks — fails
//! the load with an error naming both files and the record. A torn record
//! at the log's tail is a commit that never happened, and is cut. Opening
//! a catalog creates and syncs nothing: the first commit creates the log,
//! and refuses to append if the log changed since the load (another
//! process committed).
//!
//! Once the log's bytes pass the snapshot's, [`SharedCatalog::compact_if_due`]
//! renders the whole catalog into a new snapshot through
//! [`epfis_faults::write_atomic`] (write temp + fsync + rename + directory
//! sync), resets the log to its header and begins it with the new
//! snapshot's id. The server runs compaction after the `COMMIT` reply has
//! gone back, `epfis analyze` after its commit.
//!
//! A failed append or compaction is first-class: it surfaces as a distinct
//! `catalog persist failed` error and bumps
//! [`SharedCatalog::persist_failures`]. A failed append leaves the
//! published snapshot serving unchanged — the commit did not happen; a
//! record whose `fdatasync` failed is cut off the file at once — and
//! poisons the log until [`SharedCatalog::probe_persist`] (`RECOVER`)
//! heals it, which cuts what is left of the failed append off the file.
//!
//! Sharing: [`SharedCatalog`] keeps the current [`VersionedCatalog`] behind
//! `RwLock<Arc<...>>`. Readers take the lock only long enough to clone the
//! `Arc` ([`SharedCatalog::snapshot`]); a commit builds the successor
//! catalog and logs it *outside* any lock readers touch, then swaps the
//! `Arc`. Concurrent `ESTIMATE`s therefore never block behind an ingest.
//! In memory a catalog mirrors the disk: a base map shared by every
//! version since the last compaction, plus the small map of entries
//! committed since, so a commit copies only the small map.

use epfis::{EpfisConfig, GridStrategy, IndexStatistics, PhiMode, PiecewiseLinear, ScanQuery};
use epfis_estimators::BaselineCounters;
use epfis_faults::{write_atomic, StdVfs, Vfs};
use epfis_wal::{FsyncPolicy, Replay, Wal, WalOptions};
use std::cmp::Ordering as NameOrder;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::ops::{Bound::Included, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const HEADER: &str = "epfis-server-catalog v1";
/// Heads the entry blocks, and alone heads a bare file.
const BARE_HEADER: &str = "epfis-catalog v1";
const SEPARATOR: &str = "---";

/// One named index's statistics plus version metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionedEntry {
    /// The catalog entry Est-IO reads.
    pub stats: IndexStatistics,
    /// Global commit counter value when this entry was last analyzed.
    pub epoch: u64,
    /// Unix timestamp (seconds) of the analysis commit.
    pub analyzed_at: u64,
    /// The counters `COMPARE` builds the baseline estimators from; `None`
    /// for an entry written before catalogs kept them.
    pub counters: Option<BaselineCounters>,
    /// The WAL `ANALYZE` session this entry was committed from; `None`
    /// without a WAL.
    pub session: Option<u64>,
}

impl VersionedEntry {
    /// The `EXPLAIN ESTIMATE` lines for this entry as `name`: the estimate
    /// exactly as `ESTIMATE` serves it, the entry identity (with the
    /// session that produced it, when known), the trace.
    pub fn explain(&self, name: &str, query: &ScanQuery) -> Vec<String> {
        let mut lines = self.stats.estimate_traced(query).wire_lines();
        let mut entry = format!("entry {name} epoch={}", self.epoch);
        if let Some(session) = self.session {
            entry.push_str(&format!(" session={session}"));
        }
        lines.insert(1, entry);
        lines
    }
}

/// The entries of a catalog, or of its base, by name.
type Entries = BTreeMap<String, Arc<VersionedEntry>>;

/// An immutable catalog version: named [`VersionedEntry`]s plus the global
/// epoch. Commits produce a new value; readers hold `Arc` snapshots.
///
/// Entries are individually `Arc`'d so a hot reader can hold a handle to
/// one entry across requests (the binary protocol's zero-alloc `ESTIMATE`
/// path) and so successor catalogs share unchanged entries instead of
/// cloning them. The entries live in two maps, as they do on disk: a base
/// that every version since the last compaction (or load) shares, and the
/// entries inserted since, which override the base's. A clone copies only
/// the second map. Two catalogs are equal when their epochs and entries
/// are, however the entries are split.
///
/// ```
/// use epfis::{EpfisConfig, LruFit};
/// use epfis_lrusim::KeyedTrace;
/// use epfis_server::VersionedCatalog;
///
/// let trace = KeyedTrace::all_distinct((0..600u32).map(|i| i % 60).collect(), 60);
/// let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
///
/// let mut catalog = VersionedCatalog::new();
/// catalog.insert("orders.customer_id", stats, 1_754_400_000, None).unwrap();
///
/// // The text format round-trips exactly — estimates included.
/// let text = catalog.to_text_checksummed();
/// assert_eq!(VersionedCatalog::from_text_checksummed(&text).unwrap(), catalog);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VersionedCatalog {
    epoch: u64,
    /// The entries as of the last compaction or load.
    base: Arc<Entries>,
    /// The entries inserted since, each overriding the base's of its name.
    recent: Entries,
    /// Distinct names across `base` and `recent`.
    len: usize,
}

impl PartialEq for VersionedCatalog {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl VersionedCatalog {
    /// An empty catalog at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global epoch: the number of commits this catalog has seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&VersionedEntry> {
        self.get_arc(name).map(|e| &**e)
    }

    /// Looks an entry up by name, returning the shared handle. A caller may
    /// hold the `Arc` beyond the snapshot's lifetime (the entry is immutable
    /// once published).
    pub fn get_arc(&self, name: &str) -> Option<&Arc<VersionedEntry>> {
        self.recent.get(name).or_else(|| self.base.get(name))
    }

    /// [`VersionedCatalog::get_arc`], or the error every command answers
    /// for an unknown name.
    pub(crate) fn lookup(&self, name: &str) -> Result<&Arc<VersionedEntry>, String> {
        self.get_arc(name)
            .ok_or_else(|| format!("no catalog entry named {name:?} (try SHOW)"))
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &VersionedEntry)> {
        self.arcs().map(|(k, v)| (k, &**v))
    }

    /// The entries in name order: the base's and the recent ones merged,
    /// a recent entry in place of the base's of its name.
    fn arcs(&self) -> impl Iterator<Item = (&str, &Arc<VersionedEntry>)> {
        let mut base = self.base.iter().peekable();
        let mut recent = self.recent.iter().peekable();
        std::iter::from_fn(move || {
            let order = match (base.peek(), recent.peek()) {
                (Some((b, _)), Some((r, _))) => b.cmp(r),
                (Some(_), None) => NameOrder::Less,
                (None, _) => NameOrder::Greater,
            };
            match order {
                NameOrder::Less => base.next(),
                NameOrder::Equal => {
                    base.next();
                    recent.next()
                }
                NameOrder::Greater => recent.next(),
            }
            .map(|(k, v)| (k.as_str(), v))
        })
    }

    /// Inserts (or replaces) an entry, bumping the global epoch and stamping
    /// the entry with it. Returns the new epoch, or the name rule's error.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        stats: IndexStatistics,
        analyzed_at: u64,
        counters: Option<BaselineCounters>,
    ) -> Result<u64, String> {
        self.insert_from(name.into(), stats, analyzed_at, counters, None)
    }

    /// [`insert`](VersionedCatalog::insert), recording the WAL session the
    /// entry was committed from.
    fn insert_from(
        &mut self,
        name: String,
        stats: IndexStatistics,
        analyzed_at: u64,
        counters: Option<BaselineCounters>,
        session: Option<u64>,
    ) -> Result<u64, String> {
        // The format's rule, so anything accepted here persists.
        check_name(&name)?;
        self.epoch += 1;
        let entry = VersionedEntry {
            stats,
            epoch: self.epoch,
            analyzed_at,
            counters,
            session,
        };
        self.put(name, Arc::new(entry));
        Ok(self.epoch)
    }

    /// Puts `entry` under `name` among the recent entries.
    fn put(&mut self, name: String, entry: Arc<VersionedEntry>) {
        let in_base = self.base.contains_key(&name);
        if self.recent.insert(name, entry).is_none() && !in_base {
            self.len += 1;
        }
    }

    /// Moves the recent entries into the base: what a compaction does to
    /// the files, done to the maps. Copies the base if another version
    /// shares it.
    fn fold(&mut self) {
        if !self.recent.is_empty() {
            let recent = std::mem::take(&mut self.recent);
            Arc::make_mut(&mut self.base).extend(recent);
        }
    }

    /// Applies the catalog log to a catalog loaded from the snapshot `id`
    /// and says what the log is to that snapshot. The first record names
    /// the snapshot the log extends ([`SnapshotId::record`]); the entry
    /// records after it are applied only if that is this snapshot, and
    /// their epochs must then run `id.epoch` + 1, + 2, … without a gap.
    ///
    /// A log that extends another snapshot is applied nowhere: it is
    /// [`LogState::Spent`] if this snapshot already holds every record (a
    /// compaction renamed it in but did not reset the log), and
    /// [`LogState::Foreign`] if it extends a newer snapshot than this one
    /// (an older copy of the file was put back) or the snapshot file is
    /// missing. Anything else — a log with a record this snapshot lacks —
    /// is an error naming the record.
    fn apply_log(&mut self, id: SnapshotId, log: &Replay) -> Result<LogState, String> {
        let mut bodies = log.records();
        let Some(first) = bodies.next() else {
            return Ok(LogState::Extends);
        };
        let base = SnapshotId::parse_record(first)
            .ok_or("record 1 does not name the snapshot the log extends")?;
        let records = bodies.enumerate().map(|(i, body)| {
            let at = move |e: String| format!("record {}: {e}", i + 2);
            parse_log_record(body)
                .map_err(at)
                .map(|(name, entry)| (name, entry, at))
        });
        if base == id {
            for record in records {
                let (name, entry, at) = record?;
                if entry.epoch != self.epoch + 1 {
                    return Err(at(format!(
                        "epoch {} does not follow epoch {}: the log has a gap",
                        entry.epoch, self.epoch
                    )));
                }
                self.epoch = entry.epoch;
                self.put(name, entry);
            }
            return Ok(LogState::Extends);
        }
        if base.epoch > id.epoch || id == SnapshotId::NONE {
            return Ok(LogState::Foreign);
        }
        for record in records {
            let (name, entry, _) = record?;
            let held =
                entry.epoch <= id.epoch && self.get(&name).is_some_and(|e| e.epoch >= entry.epoch);
            if !held {
                return Err(format!(
                    "it extends a snapshot at {base}, not this one at {id}, and this \
                     one lacks its record of {name} at epoch {}",
                    entry.epoch
                ));
            }
        }
        Ok(LogState::Spent)
    }

    /// The highest WAL session id any entry records (0 if none): the floor
    /// for the next session id, so a provenance id is never reused.
    pub(crate) fn max_session(&self) -> u64 {
        self.iter()
            .filter_map(|(_, e)| e.session)
            .max()
            .unwrap_or(0)
    }

    /// Serializes to the server text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_text(&self, out: &mut String) -> std::fmt::Result {
        writeln!(out, "{HEADER}\nepoch {}", self.epoch)?;
        for (name, e) in self.iter() {
            write!(
                out,
                "meta {name} epoch={} analyzed_at={}",
                e.epoch, e.analyzed_at
            )?;
            if let Some(c) = e.counters {
                write!(
                    out,
                    " cluster_counter={} fetches_b1={} fetches_b3={}",
                    c.cluster_counter, c.fetches_b1, c.fetches_b3
                )?;
            }
            if let Some(session) = e.session {
                write!(out, " session={session}")?;
            }
            out.push('\n');
        }
        writeln!(out, "{SEPARATOR}\n{BARE_HEADER}")?;
        for (name, e) in self.iter() {
            write_entry(out, name, &e.stats)?;
        }
        Ok(())
    }

    /// Parses the server text format, or a bare file (epochs and
    /// `analyzed_at` all 0), in one pass over its lines. Errors about a
    /// line name its number in `text`.
    pub fn from_text(text: &str) -> io::Result<Self> {
        Self::parse(text, chunks_for(text.len()))
    }

    /// [`from_text`](VersionedCatalog::from_text) with the entry section
    /// cut into at most `chunks` pieces, parsed across threads when there
    /// is more than one. Any cut gives what one chunk gives — the catalog,
    /// or the error on the lowest line.
    ///
    /// Each cut falls just after an `end` line, where a serial parse has
    /// no open entry, so a chunk parses as the serial parse meets it but
    /// for what lies before it: the entries of earlier chunks (for the
    /// duplicate check) and its first line's number. Chunks that parse
    /// cleanly and share no name with earlier chunks merge as they are;
    /// the first that does not is parsed again with both, which gives the
    /// serial parse's error.
    pub(crate) fn parse(text: &str, chunks: usize) -> io::Result<Self> {
        let mut lines = Lines::new(text);
        let bare = match lines.next() {
            Some((_, h)) if h.trim_ascii() == HEADER => false,
            Some((_, h)) if h.trim_ascii() == BARE_HEADER => true,
            other => {
                return Err(invalid(format!(
                    "bad catalog header: {:?}",
                    other.map_or("", |(_, h)| h)
                )))
            }
        };
        let (epoch, metas) = if bare {
            (0, None)
        } else {
            let (epoch, metas) = read_meta_section(&mut lines)?;
            (epoch, Some(metas))
        };
        let metas = metas.as_ref();
        let (section, first_no) = (lines.rest(), lines.no);
        let cuts = cut_after_ends(section, chunks);
        let parts = epfis_par::run_indexed(cuts.len(), |k| {
            // Line numbers of a later chunk only count once it is parsed
            // again below, so they are left out here.
            let no = if k == 0 { first_no } else { 0 };
            parse_entries(
                Lines::at(&section[cuts[k].clone()], no),
                metas,
                &Entries::new(),
            )
        });
        let mut entries = Entries::new();
        for (k, part) in parts.into_iter().enumerate() {
            let mut part = match part {
                Ok(part) if !shares_a_name(&entries, &part) => part,
                // The first chunk parsed knowing all a serial parse knows.
                Err(e) if k == 0 => return Err(e),
                _ => {
                    let no = first_no + count_lines(&section[..cuts[k].start]);
                    let chunk = Lines::at(&section[cuts[k].clone()], no);
                    parse_entries(chunk, metas, &entries)?
                }
            };
            entries.append(&mut part);
        }
        if let Some(metas) = metas.filter(|m| m.len() > entries.len()) {
            // Every entry used its own meta line, so some line is unused.
            if let Some((name, meta)) = metas
                .iter()
                .filter(|(name, _)| !entries.contains_key(**name))
                .min_by_key(|(_, m)| m.line.0)
            {
                let (no, raw) = meta.line;
                return Err(line_error(
                    no,
                    raw,
                    format!("meta for unknown entry {name:?}"),
                ));
            }
        }
        Ok(VersionedCatalog {
            epoch,
            len: entries.len(),
            base: Arc::new(entries),
            recent: Entries::new(),
        })
    }

    /// [`to_text`](VersionedCatalog::to_text) plus a trailing CRC32C footer
    /// line over the serialized bytes. This is what actually hits disk:
    /// `write_atomic`'s rename makes a *torn* file unreachable on any sane
    /// filesystem, but the footer catches what rename cannot — bit rot,
    /// truncation by external tooling, or a filesystem without atomic
    /// rename — as a checksum mismatch rather than a parse error at an
    /// arbitrary line.
    pub fn to_text_checksummed(&self) -> String {
        self.to_snapshot().0
    }

    /// Parses the persisted form, verifying the CRC32C footer when present.
    /// A damaged file yields a distinct `catalog checksum mismatch` error.
    /// Files without a footer (written before checksumming existed) parse
    /// as before.
    pub fn from_text_checksummed(text: &str) -> io::Result<Self> {
        Self::from_snapshot(text).map(|(catalog, _)| catalog)
    }

    /// [`from_text_checksummed`](VersionedCatalog::from_text_checksummed),
    /// plus the id of the snapshot `text` is.
    fn from_snapshot(text: &str) -> io::Result<(Self, SnapshotId)> {
        let mismatch = || io::Error::new(io::ErrorKind::InvalidData, "catalog checksum mismatch");
        let stripped = text.strip_suffix('\n').unwrap_or(text);
        let (body, last) = match stripped.rfind('\n') {
            Some(i) => (&text[..i + 1], &stripped[i + 1..]),
            None => ("", stripped),
        };
        let chunks = chunks_for(text.len());
        let (catalog, crc) = match last.strip_prefix("crc32c ") {
            Some(hex) => {
                let want = u32::from_str_radix(hex.trim(), 16).map_err(|_| mismatch())?;
                let (crc, catalog) = checksummed(body, chunks, || Self::parse(body, chunks));
                if crc != want {
                    return Err(mismatch());
                }
                (catalog?, want)
            }
            None => {
                let (crc, catalog) = checksummed(text, chunks, || Self::parse(text, chunks));
                (catalog?, crc)
            }
        };
        let id = SnapshotId {
            epoch: catalog.epoch,
            crc,
        };
        Ok((catalog, id))
    }

    /// [`to_text_checksummed`](VersionedCatalog::to_text_checksummed), plus
    /// the id of the snapshot the text is.
    fn to_snapshot(&self) -> (String, SnapshotId) {
        let mut out = self.to_text();
        let crc = epfis_wal::crc32c(out.as_bytes());
        writeln!(out, "crc32c {crc:08x}").expect("writing to a String cannot fail");
        let id = SnapshotId {
            epoch: self.epoch,
            crc,
        };
        (out, id)
    }
}

/// `parse()`'s result and the CRC32C of `text`. A load cut into several
/// chunks runs the checksum on a thread of its own alongside the parse; a
/// small one runs the two in turn and starts no thread.
fn checksummed<T: Send>(text: &str, chunks: usize, parse: impl FnOnce() -> T) -> (u32, T) {
    if chunks == 1 {
        return (epfis_wal::crc32c(text.as_bytes()), parse());
    }
    std::thread::scope(|scope| {
        let crc = scope.spawn(|| epfis_wal::crc32c(text.as_bytes()));
        let parsed = parse();
        let crc = crc.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (crc, parsed)
    })
}

/// The entry section is cut into chunks of at least this many bytes, so
/// a file smaller than two of them loads on the calling thread alone.
const MIN_CHUNK_BYTES: usize = 512 * 1024;

/// How many chunks a load of `len` bytes cuts its entry section into: one
/// per thread of the [`epfis_par::threads`] budget, each at least
/// [`MIN_CHUNK_BYTES`].
fn chunks_for(len: usize) -> usize {
    (len / MIN_CHUNK_BYTES).clamp(1, epfis_par::threads())
}

/// The lines of a text, numbered from 1 as `str::lines` yields them:
/// split at `\n`, each with one `\r` before its `\n` dropped.
struct Lines<'a> {
    text: &'a str,
    /// Where the next line starts.
    at: usize,
    /// The number of the line last yielded.
    no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self::at(text, 0)
    }

    /// The lines of `text`, the first numbered `no + 1`.
    fn at(text: &'a str, no: usize) -> Self {
        Lines { text, at: 0, no }
    }

    /// The text not yet yielded.
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let rest = self.rest();
        if rest.is_empty() {
            return None;
        }
        let line = match rest.find('\n') {
            Some(i) => {
                self.at += i + 1;
                rest[..i].strip_suffix('\r').unwrap_or(&rest[..i])
            }
            None => {
                self.at = self.text.len();
                rest
            }
        };
        self.no += 1;
        Some((self.no, line))
    }
}

/// A line's keyword and the rest of it: the line without surrounding
/// ASCII whitespace, split at its first space.
fn keyword(raw: &str) -> (&str, &str) {
    let line = raw.trim_ascii();
    line.split_once(' ').unwrap_or((line, ""))
}

/// Cuts `section` into at most `chunks` byte ranges of about equal size,
/// each but the last ending just after a line whose keyword is `end`.
fn cut_after_ends(section: &str, chunks: usize) -> Vec<Range<usize>> {
    let mut cuts = Vec::with_capacity(chunks);
    let mut start = 0;
    for k in 1..chunks {
        let from = (section.len() * k / chunks).max(start);
        // From the start of the line after the one `from` falls in.
        let Some(nl) = section.as_bytes()[from..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let mut lines = Lines::at(&section[from + nl + 1..], 0);
        if lines.by_ref().any(|(_, raw)| keyword(raw).0 == "end") {
            let end = section.len() - lines.rest().len();
            if end < section.len() {
                cuts.push(start..end);
                start = end;
            }
        }
    }
    cuts.push(start..section.len());
    cuts
}

/// The number of `\n`s in `text`: its line count, if it ends with one.
fn count_lines(text: &str) -> usize {
    text.bytes().filter(|&b| b == b'\n').count()
}

/// Whether a name is in both maps.
fn shares_a_name(earlier: &Entries, part: &Entries) -> bool {
    let (Some((first, _)), Some((last, _))) = (part.first_key_value(), part.last_key_value())
    else {
        return false;
    };
    earlier
        .range::<str, _>((Included(first.as_str()), Included(last.as_str())))
        .any(|(name, _)| part.contains_key(name))
}

/// Which snapshot a catalog log extends: the snapshot's epoch and the
/// CRC32C of its text before the footer — the footer's own value.
#[derive(Clone, Copy, Debug, PartialEq)]
struct SnapshotId {
    epoch: u64,
    crc: u32,
}

impl SnapshotId {
    /// No snapshot file.
    const NONE: SnapshotId = SnapshotId { epoch: 0, crc: 0 };

    /// The catalog log's first record: `snapshot epoch=E crc32c=X`.
    fn record(self) -> String {
        format!("snapshot {self}\n")
    }

    fn parse_record(body: &[u8]) -> Option<SnapshotId> {
        let line = std::str::from_utf8(body).ok()?.strip_suffix('\n')?;
        let (epoch, crc) = line
            .strip_prefix("snapshot epoch=")?
            .split_once(" crc32c=")?;
        Some(SnapshotId {
            epoch: epoch.parse().ok()?,
            crc: u32::from_str_radix(crc, 16).ok()?,
        })
    }
}

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch={} crc32c={:08x}", self.epoch, self.crc)
    }
}

/// What a catalog log on disk is to the snapshot beside it, and so what
/// the next append does to it first.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LogState {
    /// It extends the snapshot, or holds no record: appends go after it.
    Extends,
    /// The snapshot holds every record in it: it is reset.
    Spent,
    /// It extends a newer snapshot than the file holds, or one that is
    /// missing: it is renamed aside to `<log>.stale`, whole, and a new log
    /// started.
    Foreign,
}

/// One commit as the catalog log stores it: the snapshot format holding
/// just the committed entry, at the epoch the commit made.
fn log_record(name: &str, entry: &Arc<VersionedEntry>) -> String {
    let mut one = VersionedCatalog {
        epoch: entry.epoch,
        ..VersionedCatalog::default()
    };
    one.put(name.to_string(), Arc::clone(entry));
    one.to_text()
}

/// Parses a [`log_record`] back into its name and entry.
fn parse_log_record(body: &[u8]) -> Result<(String, Arc<VersionedEntry>), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("not UTF-8: {e}"))?;
    let one = VersionedCatalog::from_text(text).map_err(|e| e.to_string())?;
    let mut entries = one.arcs();
    match (entries.next(), entries.next()) {
        (Some((name, entry)), None) if entry.epoch == one.epoch => {
            Ok((name.to_string(), Arc::clone(entry)))
        }
        _ => Err(format!("not one entry at the record's epoch {}", one.epoch)),
    }
}

/// Checks that `name` is non-empty, without whitespace or control
/// characters: what an `index` line can carry.
pub(crate) fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(format!("invalid index name {name:?}"));
    }
    Ok(())
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A load error about line `no` (1-based, in the whole file) of the text.
fn line_error(no: usize, raw: &str, message: String) -> io::Error {
    invalid(format!("parse error at line {no}: {message} (in {raw:?})"))
}

/// Appends one entry block.
fn write_entry(out: &mut String, name: &str, s: &IndexStatistics) -> std::fmt::Result {
    writeln!(
        out,
        "index {name}\ntable_pages {}\nrecords {}\ndistinct_keys {}\ndistinct_pages {}\n\
         clustering_factor {}\nb_min {}\nb_max {}",
        s.table_pages,
        s.records,
        s.distinct_keys,
        s.distinct_pages,
        s.clustering_factor,
        s.b_min,
        s.b_max
    )?;
    out.push_str("fpf");
    for (x, y) in s.fpf.knots() {
        write!(out, " {x}:{y}")?;
    }
    let c = &s.config;
    write!(
        out,
        "\nconfig b_sml={} segments={} grid=",
        c.b_sml, c.segments
    )?;
    match c.grid {
        GridStrategy::Arithmetic => out.push_str("arith"),
        GridStrategy::Geometric { points } => write!(out, "geom:{points}")?,
    }
    let phi = match c.phi_mode {
        PhiMode::PaperMax => "max",
        PhiMode::ProseMin => "min",
    };
    write!(
        out,
        " phi={phi} corr={} sarg={} range=",
        u8::from(c.enable_correction),
        u8::from(c.enable_sargable_model)
    )?;
    match c.modeling_range {
        None => out.push_str("auto"),
        Some((lo, hi)) => write!(out, "{lo},{hi}")?,
    }
    out.push_str("\nend\n");
    Ok(())
}

/// One `meta` line's items, and the line they came from.
#[derive(Default)]
struct Meta<'a> {
    epoch: u64,
    analyzed_at: u64,
    counters: Option<BaselineCounters>,
    session: Option<u64>,
    line: (usize, &'a str),
}

/// Each entry's `meta` line, keyed by name.
type Metas<'a> = HashMap<&'a str, Meta<'a>>;

/// Reads the server format's lines after the header through the entry
/// section's own header: the global epoch and each entry's `meta` line,
/// keyed by name.
fn read_meta_section<'a>(lines: &mut Lines<'a>) -> io::Result<(u64, Metas<'a>)> {
    let mut epoch = None;
    // At most one meta line per line of the section, which ends at the
    // first `---` line if it has one at all.
    let rest = lines.rest();
    let section = rest.find("\n---").map_or(rest, |i| &rest[..i]);
    let mut metas = HashMap::with_capacity(count_lines(section));
    loop {
        let Some((no, raw)) = lines.next() else {
            return Err(invalid(format!(
                "no {SEPARATOR:?} line after the meta lines"
            )));
        };
        let line = raw.trim_ascii();
        let at = |message: String| line_error(no, raw, message);
        if line == SEPARATOR {
            break;
        }
        if line.is_empty() || line.starts_with("wal_committed ") {
            // Blank, or an older build's WAL-commit watermark: replay no
            // longer reads it, so it is dropped on the next persist.
            continue;
        }
        if let Some(v) = line.strip_prefix("epoch ") {
            epoch = Some(parse(v.trim_ascii()).map_err(at)?);
        } else if let Some(rest) = line.strip_prefix("meta ") {
            let (name, meta) = parse_meta(rest, (no, raw)).map_err(at)?;
            if metas.insert(name, meta).is_some() {
                return Err(at(format!("second meta line for {name:?}")));
            }
        } else {
            return Err(at(format!("unexpected line before {SEPARATOR:?}")));
        }
    }
    let epoch = epoch.ok_or_else(|| invalid("missing global epoch line".into()))?;
    if let Some((name, meta)) = metas
        .iter()
        .filter(|(_, m)| m.epoch > epoch)
        .min_by_key(|(_, m)| m.line.0)
    {
        let (no, raw) = meta.line;
        return Err(line_error(
            no,
            raw,
            format!(
                "meta {name:?} epoch={} is above the catalog epoch {epoch}",
                meta.epoch
            ),
        ));
    }
    match lines.next() {
        Some((_, h)) if h.trim_ascii() == BARE_HEADER => Ok((epoch, metas)),
        Some((no, raw)) => Err(line_error(
            no,
            raw,
            format!("expected {BARE_HEADER:?} after {SEPARATOR:?}"),
        )),
        None => Err(invalid(format!("no {BARE_HEADER:?} line"))),
    }
}

/// Parses the rest of a `meta` line: the name, then `key=value` items.
fn parse_meta<'a>(rest: &'a str, line: (usize, &'a str)) -> Result<(&'a str, Meta<'a>), String> {
    let mut toks = rest.split_ascii_whitespace();
    let name = toks.next().ok_or("meta line without a name")?;
    const KEYS: [&str; 6] = [
        "epoch",
        "analyzed_at",
        "cluster_counter",
        "fetches_b1",
        "fetches_b3",
        "session",
    ];
    let mut vals = [None; 6];
    for kv in toks {
        let slot = kv
            .split_once('=')
            .and_then(|(k, v)| Some((KEYS.iter().position(|&key| key == k)?, v)));
        let Some((i, v)) = slot else {
            return Err(format!("unknown meta item {kv:?}"));
        };
        vals[i] = Some(
            v.parse::<u64>()
                .map_err(|err| format!("bad meta {} {v:?}: {err}", KEYS[i]))?,
        );
    }
    let [epoch, analyzed_at, cc, f1, f3, session] = vals;
    let counters = match (cc, f1, f3) {
        (Some(cluster_counter), Some(fetches_b1), Some(fetches_b3)) => Some(BaselineCounters {
            cluster_counter,
            fetches_b1,
            fetches_b3,
        }),
        (None, None, None) => None,
        _ => {
            return Err(format!(
                "meta {name:?} has only some of the baseline counters"
            ))
        }
    };
    let meta = Meta {
        epoch: epoch.ok_or_else(|| format!("meta {name:?} missing epoch"))?,
        analyzed_at: analyzed_at.ok_or_else(|| format!("meta {name:?} missing analyzed_at"))?,
        counters,
        session,
        line,
    };
    Ok((name, meta))
}

/// Parses entry blocks — the entry section, or a chunk of it that starts
/// where a serial parse has no open entry — into a map. `metas` are the
/// `meta` lines (`None` for a bare file); `prior` holds the entries
/// before the chunk, which a name must not repeat.
fn parse_entries<'a>(
    lines: Lines<'a>,
    metas: Option<&Metas<'a>>,
    prior: &Entries,
) -> io::Result<Entries> {
    let mut entries = Entries::new();
    let mut open = None;
    let mut fields = EntryBuilder::default();
    let mut last_config = None;
    for (no, raw) in lines {
        let (keyword, rest) = keyword(raw);
        if keyword.is_empty() {
            continue;
        }
        let at = |message: String| line_error(no, raw, message);
        match (keyword, open) {
            ("index", None) => {
                check_name(rest).map_err(at)?;
                open = Some(rest);
            }
            ("index", Some(_)) => return Err(at("new entry before previous 'end'".into())),
            ("end", Some(name)) => {
                open = None;
                let duplicate = || at(format!("duplicate index name {name:?}"));
                if prior.contains_key(name) {
                    return Err(duplicate());
                }
                let Entry::Vacant(slot) = entries.entry(name.to_string()) else {
                    return Err(duplicate());
                };
                let stats = std::mem::take(&mut fields)
                    .build()
                    .ok_or_else(|| at(format!("incomplete catalog entry {name:?}")))?;
                let meta = match metas {
                    None => &Meta::default(),
                    Some(metas) => metas
                        .get(name)
                        .ok_or_else(|| at(format!("entry {name:?} has no meta line")))?,
                };
                slot.insert(Arc::new(VersionedEntry {
                    stats,
                    epoch: meta.epoch,
                    analyzed_at: meta.analyzed_at,
                    counters: meta.counters,
                    session: meta.session,
                }));
            }
            ("end", None) => return Err(at("'end' without entry".into())),
            (_, Some(_)) => fields.field(keyword, rest, &mut last_config).map_err(at)?,
            (_, None) => return Err(at(format!("field {keyword:?} outside entry"))),
        }
    }
    if let Some(name) = open {
        return Err(invalid(format!("incomplete catalog entry {name:?}")));
    }
    Ok(entries)
}

/// One entry block's fields as they are read; [`EntryBuilder::build`]
/// needs every field but `config`'s items, which default.
#[derive(Default)]
struct EntryBuilder {
    table_pages: Option<u64>,
    records: Option<u64>,
    distinct_keys: Option<u64>,
    distinct_pages: Option<u64>,
    clustering_factor: Option<f64>,
    b_min: Option<u64>,
    b_max: Option<u64>,
    fpf: Option<PiecewiseLinear>,
    config: Option<EpfisConfig>,
}

impl EntryBuilder {
    /// Reads one field line. `last_config` is the last `config` line's
    /// text and value: entries mostly share one, so it is parsed once.
    fn field<'a>(
        &mut self,
        keyword: &str,
        rest: &'a str,
        last_config: &mut Option<(&'a str, EpfisConfig)>,
    ) -> Result<(), String> {
        match keyword {
            "table_pages" => self.table_pages = Some(parse(rest)?),
            "records" => self.records = Some(parse(rest)?),
            "distinct_keys" => self.distinct_keys = Some(parse(rest)?),
            "distinct_pages" => self.distinct_pages = Some(parse(rest)?),
            "clustering_factor" => self.clustering_factor = Some(parse(rest)?),
            "b_min" => self.b_min = Some(parse(rest)?),
            "b_max" => self.b_max = Some(parse(rest)?),
            "fpf" => self.fpf = Some(parse_fpf(rest)?),
            "config" => {
                let cfg = match *last_config {
                    Some((text, cfg)) if text == rest => cfg,
                    _ => parse_config(rest)?,
                };
                *last_config = Some((rest, cfg));
                self.config = Some(cfg);
            }
            _ => return Err(format!("unknown field {keyword:?}")),
        }
        Ok(())
    }

    fn build(self) -> Option<IndexStatistics> {
        Some(IndexStatistics {
            table_pages: self.table_pages?,
            records: self.records?,
            distinct_keys: self.distinct_keys?,
            distinct_pages: self.distinct_pages?,
            clustering_factor: self.clustering_factor?,
            b_min: self.b_min?,
            b_max: self.b_max?,
            fpf: self.fpf?,
            config: self.config?,
        })
    }
}

/// Parses an `fpf` line's `B:F` knots.
fn parse_fpf(rest: &str) -> Result<PiecewiseLinear, String> {
    // One knot per `:` in a well-formed line.
    let mut knots: Vec<(f64, f64)> =
        Vec::with_capacity(rest.bytes().filter(|&b| b == b':').count());
    for pair in rest.split_ascii_whitespace() {
        let (x, y) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad knot {pair:?}"))?;
        let knot = (parse::<f64>(x)?, parse::<f64>(y)?);
        // `PiecewiseLinear::new` panics on these; a load must not.
        if !(knot.0.is_finite() && knot.1.is_finite()) {
            return Err(format!("non-finite knot {pair:?}"));
        }
        if knots.last().is_some_and(|&(last, _)| last >= knot.0) {
            return Err(format!("knot {pair:?} does not increase in x"));
        }
        knots.push(knot);
    }
    if knots.is_empty() {
        return Err("empty fpf knot list".into());
    }
    Ok(PiecewiseLinear::new(knots))
}

/// Parses a `config` line's `key=value` items over the defaults.
fn parse_config(rest: &str) -> Result<EpfisConfig, String> {
    let mut cfg = EpfisConfig::default();
    for kv in rest.split_ascii_whitespace() {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad config item {kv:?}"))?;
        match k {
            "b_sml" => cfg.b_sml = parse(v)?,
            "segments" => cfg.segments = parse(v)?,
            "grid" => {
                cfg.grid = if v == "arith" {
                    GridStrategy::Arithmetic
                } else if let Some(p) = v.strip_prefix("geom:") {
                    GridStrategy::Geometric { points: parse(p)? }
                } else {
                    return Err(format!("bad grid {v:?}"));
                }
            }
            "phi" => {
                cfg.phi_mode = match v {
                    "max" => PhiMode::PaperMax,
                    "min" => PhiMode::ProseMin,
                    _ => return Err(format!("bad phi {v:?}")),
                }
            }
            "corr" => cfg.enable_correction = parse::<u8>(v)? != 0,
            "sarg" => cfg.enable_sargable_model = parse::<u8>(v)? != 0,
            "range" => {
                cfg.modeling_range = if v == "auto" {
                    None
                } else {
                    let (lo, hi) = v
                        .split_once(',')
                        .ok_or_else(|| format!("bad range {v:?}"))?;
                    Some((parse(lo)?, parse(hi)?))
                }
            }
            _ => return Err(format!("unknown config key {k:?}")),
        }
    }
    Ok(cfg)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("cannot parse {s:?}: {e}"))
}

/// The concurrently shared catalog: `Arc` snapshots for readers, serialized
/// log-append-swap commits for writers, optional durability to a snapshot
/// file plus its catalog log.
pub struct SharedCatalog {
    current: RwLock<Arc<VersionedCatalog>>,
    /// The files of a durable catalog. The lock serializes commits and
    /// compactions, durable or not.
    files: Mutex<Option<Files>>,
    logger: Arc<epfis_obs::Logger>,
    /// The filesystem the files are written through; `StdVfs` unless a
    /// fault-injecting test (or the `EPFIS_FAULTS` env hook) swapped one in.
    vfs: Arc<dyn Vfs>,
    /// Log appends and compactions that failed.
    persist_failures: AtomicU64,
    /// Compactions that completed.
    compactions: AtomicU64,
    /// The catalog log's length, header included (0 before it exists).
    log_bytes: AtomicU64,
    /// Set once the log has grown past the snapshot.
    compaction_due: AtomicBool,
    // The published catalog's epoch, readable without the lock. A reader
    // holding a snapshot compares this against the snapshot's epoch to
    // decide — lock-free — whether a cached entry handle is still current
    // (the binary `ESTIMATE` fast path revalidates on every request).
    epoch_hint: AtomicU64,
}

/// A durable catalog's snapshot and log.
struct Files {
    snapshot: PathBuf,
    /// The snapshot file's id ([`SnapshotId::NONE`] before it exists).
    id: SnapshotId,
    /// The snapshot file's length (0 before it exists).
    snapshot_bytes: u64,
    /// Opened by the first commit, compaction or `RECOVER`, which creates
    /// the file if need be, so a catalog that is only read writes nothing.
    log: Option<Wal>,
    /// What the log is to the snapshot (see [`VersionedCatalog::apply_log`]).
    state: LogState,
    /// The log's valid length when the catalog was loaded (0 if absent).
    /// Opening the log checks it is still that long: if not, another
    /// process committed to the catalog since.
    loaded_log_bytes: u64,
}

impl SharedCatalog {
    /// An in-memory catalog (no persistence).
    pub fn in_memory() -> Self {
        Self::in_memory_with_vfs(StdVfs::shared())
    }

    /// [`in_memory`](SharedCatalog::in_memory) with an explicit filesystem:
    /// nothing persists, but a WAL opened beside it writes through `vfs`.
    pub fn in_memory_with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        Self::with(VersionedCatalog::new(), None, 0, vfs)
    }

    fn with(
        initial: VersionedCatalog,
        files: Option<Files>,
        log_bytes: u64,
        vfs: Arc<dyn Vfs>,
    ) -> Self {
        let due = files.as_ref().is_some_and(|f| log_bytes > f.snapshot_bytes);
        SharedCatalog {
            epoch_hint: AtomicU64::new(initial.epoch()),
            current: RwLock::new(Arc::new(initial)),
            files: Mutex::new(files),
            logger: Arc::new(epfis_obs::Logger::disabled()),
            vfs,
            persist_failures: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            log_bytes: AtomicU64::new(log_bytes),
            compaction_due: AtomicBool::new(due),
        }
    }

    /// Opens a durable catalog at `path`: the snapshot there, if the file
    /// exists, plus the commits in its catalog log.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_vfs(path, StdVfs::shared())
    }

    /// [`open`](SharedCatalog::open) with an explicit filesystem; tests
    /// pass a `FaultVfs` to script persist failures.
    pub fn open_with_vfs(path: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        let snapshot = path.into();
        let read = |path: &Path| match vfs.read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        };
        let (mut catalog, id, snapshot_bytes) = match read(&snapshot)? {
            Some(bytes) => {
                let len = bytes.len() as u64;
                let text = String::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let (catalog, id) = VersionedCatalog::from_snapshot(&text)?;
                (catalog, id, len)
            }
            None => (VersionedCatalog::new(), SnapshotId::NONE, 0),
        };
        let log_path = Self::log_path(&snapshot);
        let (loaded_log_bytes, state) = match read(&log_path)? {
            Some(bytes) => {
                let log = Replay::from_bytes(bytes);
                let state = catalog.apply_log(id, &log).map_err(|e| {
                    invalid(format!(
                        "catalog log {} cannot be applied to {}: {e}",
                        log_path.display(),
                        snapshot.display()
                    ))
                })?;
                (log.bytes(), state)
            }
            None => (0, LogState::Extends),
        };
        let files = Files {
            snapshot,
            id,
            snapshot_bytes,
            log: None,
            state,
            loaded_log_bytes,
        };
        Ok(Self::with(catalog, Some(files), loaded_log_bytes, vfs))
    }

    /// Where the catalog log of the snapshot at `path` lives: `<path>.log`.
    pub fn log_path(path: &Path) -> PathBuf {
        let mut log = path.as_os_str().to_owned();
        log.push(".log");
        PathBuf::from(log)
    }

    /// The filesystem the catalog persists through; [`ServerWal::open`]
    /// puts the WAL on the same one.
    ///
    /// [`ServerWal::open`]: crate::ServerWal::open
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Attaches a logger; each commit then emits a `catalog commit` span
    /// covering build + log append + publish, and each compaction a
    /// `catalog compact` span.
    pub fn set_logger(&mut self, logger: Arc<epfis_obs::Logger>) {
        self.logger = logger;
    }

    /// A point-in-time snapshot. O(1): clones the `Arc`, never the entries.
    pub fn snapshot(&self) -> Arc<VersionedCatalog> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The epoch of the most recently published catalog, read without any
    /// lock. A snapshot whose [`VersionedCatalog::epoch`] equals this hint
    /// is current; a mismatch means a commit landed and the caller should
    /// re-[`snapshot`](SharedCatalog::snapshot). The hint is published
    /// *after* the `Arc` swap, so a fresh snapshot is always at least as new
    /// as the hint says.
    pub fn epoch_hint(&self) -> u64 {
        self.epoch_hint.load(Ordering::Acquire)
    }

    /// Log appends and compactions that failed. A failed append left the
    /// in-memory snapshot unchanged; a failed compaction lost nothing.
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// Compactions that folded the catalog log into a new snapshot.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// The catalog log's length in bytes, header included; 0 while no log
    /// file exists.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes.load(Ordering::Relaxed)
    }

    fn lock_files(&self) -> std::sync::MutexGuard<'_, Option<Files>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts a failed write and words it `catalog persist failed`.
    fn persist_failed(&self, e: io::Error) -> io::Error {
        self.persist_failures.fetch_add(1, Ordering::Relaxed);
        io::Error::new(e.kind(), format!("catalog persist failed: {e}"))
    }

    /// The open catalog log. Opening it creates the file if need be, first
    /// renames a [`LogState::Foreign`] log aside to `<log>.stale`, and
    /// refuses a log that changed since the catalog was loaded: another
    /// process committed to the catalog, and appending here would lose its
    /// commit or this one.
    fn open_log<'f>(&self, files: &'f mut Files) -> io::Result<&'f mut Wal> {
        if files.log.is_none() {
            let path = Self::log_path(&files.snapshot);
            if files.state == LogState::Foreign {
                let mut stale = path.clone().into_os_string();
                stale.push(".stale");
                let stale = PathBuf::from(stale);
                self.vfs.rename(&path, &stale)?;
                self.logger
                    .event(epfis_obs::Level::Warn, "catalog", "log_set_aside")
                    .field("log", stale.display().to_string())
                    .field(
                        "reason",
                        "it extends another snapshot than the catalog file",
                    )
                    .emit();
                files.state = LogState::Extends;
                files.loaded_log_bytes = 0;
            }
            let (log, replay) = Wal::open(WalOptions {
                fsync: FsyncPolicy::Always,
                vfs: Arc::clone(&self.vfs),
                // Reported as catalog series, not as `epfis_wal_*` traffic.
                metrics: epfis_obs::wellknown::unpublished_wal(),
                ..WalOptions::new(&path)
            })?;
            // A header alone is no log: an earlier open may have written it.
            let header = epfis_wal::HEADER_BYTES;
            let grown = replay.bytes().max(header) != files.loaded_log_bytes.max(header);
            let rebased = files.state == LogState::Extends
                && replay
                    .records()
                    .next()
                    .is_some_and(|b| b != files.id.record().as_bytes());
            if grown || rebased {
                return Err(io::Error::other(format!(
                    "catalog log {} changed since {} was loaded: another process \
                     committed to the catalog",
                    path.display(),
                    files.snapshot.display()
                )));
            }
            self.log_bytes.store(log.bytes(), Ordering::Relaxed);
            files.log = Some(log);
        }
        Ok(files.log.as_mut().expect("opened above"))
    }

    /// The catalog log, ready for an entry record: open, reset if the
    /// snapshot holds its records, and begun with the snapshot's id.
    fn log<'f>(&self, files: &'f mut Files) -> io::Result<&'f mut Wal> {
        self.open_log(files)?;
        let log = files.log.as_mut().expect("opened above");
        if files.state == LogState::Spent {
            // The snapshot the records are folded into must be the one a
            // restart finds before they go.
            if let Some(dir) = files
                .snapshot
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                self.vfs.sync_dir(dir)?;
            }
            log.reset()?;
            files.state = LogState::Extends;
        }
        if log.bytes() == epfis_wal::HEADER_BYTES {
            log.append(files.id.record().as_bytes())?;
        }
        self.log_bytes.store(log.bytes(), Ordering::Relaxed);
        Ok(log)
    }

    /// Heals the catalog log (the `RECOVER` probe): cuts the bytes of a
    /// failed append off the file, reopens it and probes the storage with
    /// an `fdatasync`; opens the log, creating it, if no commit has yet.
    /// Then readies it as a commit would — a spent log is reset, an empty
    /// one begun with the snapshot's id — so the next commit appends only
    /// its own record. A no-op `Ok(())` for in-memory catalogs.
    pub fn probe_persist(&self) -> io::Result<()> {
        let mut files = self.lock_files();
        let Some(files) = files.as_mut() else {
            return Ok(());
        };
        self.open_log(files)?.heal()?;
        self.log(files)?;
        Ok(())
    }

    /// Commits a new analysis for `name`: builds the successor catalog,
    /// appends its entry to the catalog log (when durable), then publishes
    /// it. Returns the new epoch.
    ///
    /// Commits are serialized with each other but never make a reader wait
    /// for I/O: the `current` write lock is held only for the `Arc` swap.
    pub fn commit(
        &self,
        name: &str,
        stats: IndexStatistics,
        counters: Option<BaselineCounters>,
    ) -> io::Result<u64> {
        self.commit_analyzed(name, stats, counters, unix_now(), None)
    }

    /// [`commit`](SharedCatalog::commit) with an explicit `analyzed_at`
    /// timestamp and, optionally, the WAL session the entry comes from. With
    /// a WAL this append is the session's commit point: once it is synced,
    /// replay finds `session=S` on the entry and counts the session as
    /// ended.
    pub fn commit_analyzed(
        &self,
        name: &str,
        stats: IndexStatistics,
        counters: Option<BaselineCounters>,
        analyzed_at: u64,
        session: Option<u64>,
    ) -> io::Result<u64> {
        let mut files = self.lock_files();
        let mut span = self
            .logger
            .span(epfis_obs::Level::Info, "catalog", "commit")
            .field("entry", name)
            .field("durable", files.is_some());
        let mut next = (*self.snapshot()).clone();
        let epoch = next
            .insert_from(name.to_string(), stats, analyzed_at, counters, session)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if let Some(files) = files.as_mut() {
            let record = log_record(name, next.get_arc(name).expect("just inserted"));
            let log = self.log(files).map_err(|e| self.persist_failed(e))?;
            log.append(record.as_bytes())
                .map_err(|e| self.persist_failed(e))?;
            self.log_bytes.store(log.bytes(), Ordering::Relaxed);
            if log.bytes() > files.snapshot_bytes {
                self.compaction_due.store(true, Ordering::Release);
            }
        }
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        self.epoch_hint.store(epoch, Ordering::Release);
        span.add_field("epoch", epoch);
        Ok(epoch)
    }

    /// Compacts the catalog once its log has grown past its snapshot:
    /// renders the whole catalog into a new snapshot (write temp + fsync +
    /// rename + directory sync), then resets the log to its header. Returns
    /// whether it compacted. Cheap when nothing is due, so a caller may run
    /// it after every commit — off the commit's reply path, since it
    /// waits for the commit lock and rewrites every entry. A failed
    /// compaction is retried after the next commit.
    pub fn compact_if_due(&self) -> io::Result<bool> {
        if !self.compaction_due.swap(false, Ordering::AcqRel) {
            return Ok(false);
        }
        let due = self
            .lock_files()
            .as_ref()
            .is_some_and(|files| self.log_bytes() > files.snapshot_bytes);
        if due {
            self.compact_now()?;
        }
        Ok(due)
    }

    /// Renders the catalog into a new snapshot and resets the log, due or
    /// not; a no-op for in-memory catalogs.
    pub(crate) fn compact_now(&self) -> io::Result<()> {
        let mut files = self.lock_files();
        let Some(files) = files.as_mut() else {
            return Ok(());
        };
        let mut span = self
            .logger
            .span(epfis_obs::Level::Info, "catalog", "compact")
            .field("log_bytes", self.log_bytes());
        // A log another process changed must not be folded over.
        self.open_log(files).map_err(|e| self.persist_failed(e))?;
        let current = self.snapshot();
        let (text, id) = current.to_snapshot();
        let written = write_atomic(self.vfs.as_ref(), &files.snapshot, &text);
        // A failed directory sync comes after the rename: whichever file
        // is there now is the snapshot the log must go on with.
        if written.is_ok()
            || self
                .vfs
                .read(&files.snapshot)
                .is_ok_and(|b| b == text.as_bytes())
        {
            files.id = id;
            files.snapshot_bytes = text.len() as u64;
            // The snapshot holds every record in the log now, so a crash
            // before the reset leaves a log a load finds spent.
            files.state = LogState::Spent;
        }
        written.map_err(|e| self.persist_failed(e))?;
        self.log(files).map_err(|e| self.persist_failed(e))?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        let mut folded = (*current).clone();
        folded.fold();
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(folded);
        span.add_field("snapshot_bytes", text.len());
        Ok(())
    }
}

pub(crate) fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis::LruFit;
    use epfis_lrusim::KeyedTrace;

    fn stats(seed: u32) -> IndexStatistics {
        let pages: Vec<u32> = (0..1200u32)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed)) % 90)
            .collect();
        LruFit::new(EpfisConfig::default()).collect(&KeyedTrace::all_distinct(pages, 90))
    }

    /// A catalog path no earlier run left a snapshot or a log at.
    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("epfis-server-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}.scat"));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(SharedCatalog::log_path(&p)).ok();
        p
    }

    /// The entry blocks for `entries` under their header: on its own, the
    /// bare file older `epfis analyze` runs wrote.
    fn bare_text(entries: &[(&str, &IndexStatistics)]) -> String {
        let mut out = format!("{BARE_HEADER}\n");
        for (name, stats) in entries {
            write_entry(&mut out, name, stats).unwrap();
        }
        out
    }

    /// A two-entry catalog with counters, a session and a non-default
    /// config: every optional item of the format is present.
    fn two_entries() -> VersionedCatalog {
        let pages: Vec<u32> = (0..600u32).map(|i| i % 60).collect();
        let cfg = EpfisConfig::default()
            .with_segments(4)
            .with_grid(GridStrategy::Geometric { points: 9 })
            .with_modeling_range(12, 50)
            .without_correction();
        let geo = LruFit::new(cfg).collect(&KeyedTrace::all_distinct(pages, 60));
        let mut c = VersionedCatalog::new();
        c.insert_from("a.x".into(), stats(1), 111, Some(counters(7)), Some(4))
            .unwrap();
        c.insert("b.y", geo, 222, None).unwrap();
        c
    }

    #[test]
    fn text_round_trip_preserves_entries_and_epochs() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 111, None).unwrap();
        c.insert("b.y", stats(2), 222, None).unwrap();
        c.insert("a.x", stats(3), 333, None).unwrap(); // re-analyze bumps epoch
        assert_eq!(c.epoch(), 3);
        let back = VersionedCatalog::from_text(&c.to_text()).unwrap();
        assert_eq!(back.epoch(), 3);
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("a.x").unwrap().epoch, 3);
        assert_eq!(back.get("a.x").unwrap().analyzed_at, 333);
        assert_eq!(back.get("b.y").unwrap().epoch, 2);
        assert_eq!(back.get("a.x").unwrap().stats, c.get("a.x").unwrap().stats);
    }

    fn counters(seed: u64) -> BaselineCounters {
        BaselineCounters {
            cluster_counter: seed,
            fetches_b1: 1000 + seed,
            fetches_b3: 900 + seed,
        }
    }

    #[test]
    fn baseline_counters_round_trip_on_the_meta_line() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 111, Some(counters(7))).unwrap();
        c.insert("b.y", stats(2), 222, None).unwrap();
        let text = c.to_text();
        assert!(
            text.contains(
                "meta a.x epoch=1 analyzed_at=111 cluster_counter=7 fetches_b1=1007 fetches_b3=907\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("meta b.y epoch=2 analyzed_at=222\n"),
            "{text}"
        );
        let back = VersionedCatalog::from_text(&text).unwrap();
        assert_eq!(back.get("a.x").unwrap().counters, Some(counters(7)));
        assert_eq!(back.get("b.y").unwrap().counters, None);
        assert_eq!(back.to_text(), text);

        // The three counters come together or not at all.
        let partial = text.replace(" fetches_b3=907", "");
        let err = VersionedCatalog::from_text(&partial).err().unwrap();
        assert!(
            err.to_string().contains("some of the baseline counters"),
            "{err}"
        );
        let bad = text.replace("fetches_b1=1007", "fetches_b1=x");
        let err = VersionedCatalog::from_text(&bad).err().unwrap();
        assert!(err.to_string().contains("bad meta fetches_b1"), "{err}");
    }

    /// A file in the format from before entries carried baseline counters
    /// opens unchanged: `SHOW`, `ESTIMATE` and `EXPLAIN` answer as before,
    /// and `COMPARE` asks for a re-`ANALYZE`.
    #[test]
    fn a_catalog_without_baseline_counters_serves_and_compare_asks_for_reanalyze() {
        use crate::{serve, server::scan_query, Client, ClientError, ServerConfig};

        let body = format!(
            "{HEADER}\nepoch 1\nmeta old.ix epoch=1 analyzed_at=111\n{SEPARATOR}\n{}",
            bare_text(&[("old.ix", &stats(1))])
        );
        let text = format!("{body}crc32c {:08x}\n", epfis_wal::crc32c(body.as_bytes()));
        let loaded = VersionedCatalog::from_text_checksummed(&text).unwrap();
        assert_eq!(loaded.get("old.ix").unwrap().counters, None);
        // Re-persisting an entry without counters writes the same bytes.
        assert_eq!(loaded.to_text_checksummed(), text);

        let path = tmp("pre-counters");
        std::fs::write(&path, &text).unwrap();
        let server = serve(ServerConfig {
            catalog_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let s = stats(1);
        assert_eq!(
            c.request("SHOW").unwrap(),
            vec![format!(
                "old.ix epoch=1 analyzed_at=111 T={} N={} I={} C={} segments={}",
                s.table_pages,
                s.records,
                s.distinct_keys,
                s.clustering_factor,
                s.fpf.segments()
            )]
        );
        let q = scan_query(0.3, 20, 1.0).unwrap();
        assert_eq!(
            c.request("ESTIMATE old.ix 0.3 20").unwrap(),
            vec![format!("{}", s.estimate(&q))]
        );
        assert_eq!(
            c.request("EXPLAIN ESTIMATE old.ix 0.3 20").unwrap(),
            loaded.get("old.ix").unwrap().explain("old.ix", &q)
        );
        match c.request("COMPARE old.ix") {
            Err(ClientError::Server(msg)) => assert!(msg.contains("re-ANALYZE"), "{msg}"),
            other => panic!("COMPARE without counters must fail, got {other:?}"),
        }
        server.shutdown_and_join();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }

    /// The load error for `text`, as a string.
    fn load_err(text: &str) -> String {
        VersionedCatalog::from_text(text)
            .expect_err("text must not load")
            .to_string()
    }

    #[test]
    fn malformed_texts_are_rejected() {
        assert!(VersionedCatalog::from_text("").is_err());
        assert!(VersionedCatalog::from_text("wrong header\n").is_err());
        // Missing epoch line.
        let err = load_err(&format!("{HEADER}\n{SEPARATOR}\n{BARE_HEADER}\n"));
        assert!(err.contains("missing global epoch line"), "{err}");
        // Missing separator, and the entry header missing after it.
        let err = load_err(&format!("{HEADER}\nepoch 1\n"));
        assert!(err.contains("no \"---\" line"), "{err}");
        let err = load_err(&format!("{HEADER}\nepoch 1\n{SEPARATOR}\nindex ix\n"));
        assert!(err.contains("parse error at line 4: expected"), "{err}");
        // Meta naming a non-existent entry.
        let err = load_err(&format!(
            "{HEADER}\nepoch 1\nmeta ghost epoch=1 analyzed_at=0\n{SEPARATOR}\n{BARE_HEADER}\n"
        ));
        assert!(
            err.contains("parse error at line 3: meta for unknown entry \"ghost\""),
            "{err}"
        );
        // Entry without meta.
        let mut c = VersionedCatalog::new();
        c.insert("ix", stats(1), 0, None).unwrap();
        let text = c.to_text().replace("meta ix epoch=1 analyzed_at=0\n", "");
        assert!(load_err(&text).contains("entry \"ix\" has no meta line"));
        // Knots `PiecewiseLinear::new` would panic on fail the load instead.
        for (knots, why) in [
            ("1:4 1:3", "does not increase"),
            ("2:4 1:3", "does not increase"),
            ("1:4 2:inf", "non-finite"),
            ("NaN:4", "non-finite"),
        ] {
            let text = c.to_text();
            let fpf = text.lines().find(|l| l.starts_with("fpf ")).unwrap();
            let text = text.replace(fpf, &format!("fpf {knots}"));
            assert!(load_err(&text).contains(why), "{knots}");
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let c = two_entries();
        let back = VersionedCatalog::from_text(&c.to_text()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_text(), c.to_text());
    }

    #[test]
    fn round_trip_preserves_estimates_exactly() {
        let mut c = VersionedCatalog::new();
        c.insert("ix", stats(3), 0, None).unwrap();
        let back = VersionedCatalog::from_text_checksummed(&c.to_text_checksummed()).unwrap();
        let q = ScanQuery::range(0.123, 37).with_sargable(0.4);
        assert_eq!(
            c.get("ix").unwrap().stats.estimate(&q).to_bits(),
            back.get("ix").unwrap().stats.estimate(&q).to_bits()
        );
    }

    #[test]
    fn non_default_config_round_trips() {
        let c = two_entries();
        let text = c.to_text();
        assert!(
            text.contains(
                "\nconfig b_sml=12 segments=4 grid=geom:9 phi=max corr=0 sarg=1 range=12,50\n"
            ),
            "{text}"
        );
        let back = VersionedCatalog::from_text(&text).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            back.get("b.y").unwrap().stats.config.modeling_range,
            Some((12, 50))
        );
    }

    #[test]
    fn insert_replaces_and_bumps_the_epoch() {
        let mut c = VersionedCatalog::new();
        assert!(c.is_empty());
        assert_eq!(c.insert("a", stats(1), 10, None).unwrap(), 1);
        assert_eq!(c.insert("a", stats(2), 20, None).unwrap(), 2);
        assert_eq!(c.len(), 1);
        let a = c.get("a").unwrap();
        assert_eq!((a.epoch, a.analyzed_at), (2, 20));
        assert_eq!(a.stats, stats(2));
        assert!(c.get("b").is_none());
    }

    #[test]
    fn names_with_whitespace_rejected() {
        let mut c = VersionedCatalog::new();
        for name in ["has space", "", "tab\there", "nl\n"] {
            assert_eq!(
                c.insert(name, stats(1), 0, None),
                Err(format!("invalid index name {name:?}"))
            );
        }
        assert_eq!(c.epoch(), 0);
        // Nor does a file carry one.
        let text = bare_text(&[("ok", &stats(1))]).replace("index ok", "index has space");
        assert!(load_err(&text).contains("invalid index name \"has space\""));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(load_err("something else\n").contains("bad catalog header: \"something else\""));
        assert!(load_err("").contains("bad catalog header: \"\""));
    }

    #[test]
    fn truncated_entry_rejected() {
        let text = bare_text(&[("ix", &stats(1))]);
        // Drop the trailing "end" line.
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(load_err(truncated).contains("incomplete catalog entry \"ix\""));
        let text = two_entries().to_text();
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(load_err(truncated).contains("incomplete catalog entry \"b.y\""));
    }

    #[test]
    fn missing_field_rejected() {
        let err = load_err(&format!("{BARE_HEADER}\nindex ix\ntable_pages 10\nend\n"));
        assert!(
            err.starts_with("parse error at line 4: incomplete catalog entry \"ix\""),
            "{err}"
        );
    }

    #[test]
    fn garbage_field_rejected_with_line_number_and_text() {
        let err = load_err(&format!("{BARE_HEADER}\nindex ix\nwat 7\nend\n"));
        assert!(err.starts_with("parse error at line 3: "), "{err}");
        assert!(err.ends_with("(in \"wat 7\")"), "{err}");
        for (text, what) in [
            (format!("{BARE_HEADER}\nend\n"), "'end' without entry"),
            (
                format!("{BARE_HEADER}\nrecords 5\n"),
                "field \"records\" outside entry",
            ),
            (
                format!("{BARE_HEADER}\nindex a\nindex b\n"),
                "new entry before previous 'end'",
            ),
        ] {
            let err = load_err(&text);
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn parse_error_display_names_the_offending_line() {
        let err = load_err(&format!(
            "{BARE_HEADER}\nindex ix\ntable_pages eleven\nend\n"
        ));
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("table_pages eleven"), "{err}");
    }

    /// Line numbers count the whole file — header and `meta` lines
    /// included — not the entry section alone.
    #[test]
    fn parse_errors_name_the_file_line() {
        let text = two_entries().to_text();
        // Header, epoch, two meta lines, separator, entry header, then the
        // first block's eleven lines: b.y's `records` is line 20.
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines[19].starts_with("records "), "{text}");
        lines[19] = "records x600";
        let err = load_err(&lines.join("\n"));
        assert!(
            err.starts_with("parse error at line 20: cannot parse \"x600\""),
            "{err}"
        );
        // A bad meta item names its line too.
        let err = load_err(&text.replace("analyzed_at=222", "analyzed_at=soon"));
        assert!(
            err.starts_with("parse error at line 4: bad meta analyzed_at"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let ix = stats(1);
        let err = load_err(&bare_text(&[("ix", &ix), ("ix", &ix)]));
        assert!(err.contains("duplicate index name \"ix\""), "{err}");
        // A second block under one meta line is the same error, not a
        // missing meta line.
        let mut c = VersionedCatalog::new();
        c.insert("ix", ix.clone(), 0, None).unwrap();
        let mut text = c.to_text();
        write_entry(&mut text, "ix", &ix).unwrap();
        assert!(load_err(&text).contains("duplicate index name \"ix\""));
    }

    /// A name has one `meta` line: a second one no longer wins silently.
    #[test]
    fn a_second_meta_line_for_a_name_is_rejected() {
        let text = format!(
            "{HEADER}\nepoch 9\nmeta a.k epoch=1 analyzed_at=1\nmeta a.k epoch=9 analyzed_at=5\n{SEPARATOR}\n{}",
            bare_text(&[("a.k", &stats(1))])
        );
        let err = load_err(&text);
        assert!(
            err.starts_with("parse error at line 4: second meta line for \"a.k\""),
            "{err}"
        );
        assert!(
            VersionedCatalog::from_text(&text.replace("meta a.k epoch=1 analyzed_at=1\n", ""))
                .is_ok()
        );
    }

    /// An entry's epoch orders it against every commit, so it cannot
    /// exceed the catalog's.
    #[test]
    fn an_entry_epoch_above_the_catalog_epoch_is_rejected() {
        let text = format!(
            "{HEADER}\nepoch 1\nmeta a.k epoch=9 analyzed_at=5\n{SEPARATOR}\n{}",
            bare_text(&[("a.k", &stats(1))])
        );
        let err = load_err(&text);
        assert!(
            err.starts_with(
                "parse error at line 3: meta \"a.k\" epoch=9 is above the catalog epoch 1"
            ),
            "{err}"
        );
        let at_the_epoch = text.replace("epoch 1\n", "epoch 9\n");
        assert_eq!(
            VersionedCatalog::from_text(&at_the_epoch)
                .unwrap()
                .get("a.k")
                .unwrap()
                .epoch,
            9
        );
    }

    /// Written by `epfis analyze` (t.k) and then a `--wal-dir` server's
    /// `ANALYZE` session (v.ix): counters on both, a session on one.
    const WITH_SESSION: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    meta t.k epoch=1 analyzed_at=1792398476 cluster_counter=0 fetches_b1=296 fetches_b3=137\n\
    meta v.ix epoch=2 analyzed_at=1792398476 cluster_counter=3 fetches_b1=4 fetches_b3=4 session=1\n\
    ---\n\
    epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 8a0c2908\n";

    /// Written through `VersionedCatalog::to_text_checksummed` for entries
    /// without baseline counters, one with every config item non-default.
    const WITHOUT_COUNTERS: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    meta g.ix epoch=1 analyzed_at=1792398000\n\
    meta t.k epoch=2 analyzed_at=1792398476\n\
    ---\n\
    epfis-catalog v1\n\
    index g.ix\n\
    table_pages 12\n\
    records 60\n\
    distinct_keys 60\n\
    distinct_pages 12\n\
    clustering_factor 0\n\
    b_min 2\n\
    b_max 9\n\
    fpf 2:60 9:60\n\
    config b_sml=12 segments=3 grid=geom:5 phi=min corr=0 sarg=1 range=2,9\n\
    end\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 2ad55038\n";

    /// Written by a build that kept the `wal_committed` watermark (the
    /// same two commits as [`WITH_SESSION`], before entries named their
    /// session).
    const WITH_WAL_COMMITTED: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    wal_committed 1\n\
    meta t.k epoch=1 analyzed_at=1792398433 cluster_counter=0 fetches_b1=296 fetches_b3=137\n\
    meta v.ix epoch=2 analyzed_at=1792398433 cluster_counter=3 fetches_b1=4 fetches_b3=4\n\
    ---\n\
    epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 89b3c59a\n";

    /// The bare format older `epfis analyze` runs wrote: the entry
    /// section alone.
    const BARE: &str = "epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n";

    /// Files as earlier builds wrote them load, and the server-format ones
    /// re-render byte for byte (the `wal_committed` line is dropped): the
    /// format is pinned across builds.
    #[test]
    fn files_earlier_builds_wrote_load_and_re_render_byte_identical() {
        for file in [WITH_SESSION, WITHOUT_COUNTERS] {
            let loaded = VersionedCatalog::from_text_checksummed(file).unwrap();
            assert_eq!(loaded.to_text_checksummed(), file);
        }
        let with_session = VersionedCatalog::from_text_checksummed(WITH_SESSION).unwrap();
        let v = with_session.get("v.ix").unwrap();
        assert_eq!((v.epoch, v.session), (2, Some(1)));
        assert_eq!(
            v.counters,
            Some(BaselineCounters {
                cluster_counter: 3,
                fetches_b1: 4,
                fetches_b3: 4
            })
        );
        let g = VersionedCatalog::from_text_checksummed(WITHOUT_COUNTERS).unwrap();
        let g = g.get("g.ix").unwrap();
        assert_eq!(g.counters, None);
        assert_eq!(g.stats.config.grid, GridStrategy::Geometric { points: 5 });
        assert_eq!(g.stats.config.phi_mode, PhiMode::ProseMin);

        let watermarked = VersionedCatalog::from_text_checksummed(WITH_WAL_COMMITTED).unwrap();
        let dropped: String = WITH_WAL_COMMITTED
            .lines()
            .filter(|l| !l.starts_with("wal_committed ") && !l.starts_with("crc32c "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(watermarked.to_text(), dropped);
        for (name, entry) in watermarked.iter() {
            let now = with_session.get(name).unwrap();
            assert_eq!((&entry.stats, entry.counters), (&now.stats, now.counters));
            assert_eq!(entry.session, None);
        }

        let bare = VersionedCatalog::from_text_checksummed(BARE).unwrap();
        assert_eq!(bare.epoch(), 0);
        assert!(bare
            .iter()
            .all(|(_, e)| (e.epoch, e.analyzed_at, e.counters) == (0, 0, None)));
        let text = bare.to_text();
        assert_eq!(&text[text.find(SEPARATOR).unwrap() + 4..], BARE);
    }

    /// A file an older build wrote, with its `wal_committed` watermark line,
    /// opens with every entry intact and re-persists without the line.
    #[test]
    fn legacy_wal_committed_line_loads_and_is_dropped_on_persist() {
        let body = format!(
            "{HEADER}\nepoch 3\nwal_committed 7\nmeta old.ix epoch=3 analyzed_at=111\n{SEPARATOR}\n{}",
            bare_text(&[("old.ix", &stats(1))])
        );
        let text = format!("{body}crc32c {:08x}\n", epfis_wal::crc32c(body.as_bytes()));
        let path = tmp("legacy-watermark");
        std::fs::write(&path, &text).unwrap();

        let shared = SharedCatalog::open(&path).unwrap();
        let snap = shared.snapshot();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.max_session(), 0);
        let old = snap.get("old.ix").unwrap();
        assert_eq!((old.epoch, old.analyzed_at, old.session), (3, 111, None));
        assert_eq!(old.stats, stats(1));

        shared.commit("new.ix", stats(2), None).unwrap();
        // The commit is in the log; a compaction rewrites the snapshot.
        shared.compact_now().unwrap();
        let persisted = std::fs::read_to_string(&path).unwrap();
        assert!(!persisted.contains("wal_committed"), "{persisted}");
        assert!(
            persisted.starts_with(&format!("{HEADER}\nepoch 4\nmeta new.ix epoch=4 ")),
            "{persisted}"
        );
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.get("old.ix").unwrap().stats, stats(1));
        assert_eq!(reopened.get("new.ix").unwrap().stats, stats(2));
    }

    #[test]
    fn checksummed_round_trip_and_tamper_detection() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 100, None).unwrap();
        let text = c.to_text_checksummed();
        let back = VersionedCatalog::from_text_checksummed(&text).unwrap();
        assert_eq!(back.epoch(), 1);
        assert_eq!(back.get("a.x").unwrap().stats, c.get("a.x").unwrap().stats);

        // Any flipped byte in the body — even deep inside a float — must
        // surface as the distinct checksum error, not a parse error.
        for pos in [0, text.len() / 3, text.len() / 2] {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 0x20;
            let tampered = String::from_utf8(bytes).unwrap();
            let err = VersionedCatalog::from_text_checksummed(&tampered)
                .expect_err("tampered text must not parse");
            assert_eq!(err.to_string(), "catalog checksum mismatch", "pos={pos}");
        }
        // A damaged footer is a mismatch too.
        let torn = format!("{}crc32c 12a\n", c.to_text());
        let err = VersionedCatalog::from_text_checksummed(&torn)
            .expect_err("damaged footer must not parse");
        assert_eq!(err.to_string(), "catalog checksum mismatch");
        // A footer-less (pre-checksum) file still parses.
        let legacy = VersionedCatalog::from_text_checksummed(&c.to_text()).unwrap();
        assert_eq!(legacy.epoch(), 1);
    }

    #[test]
    fn durable_files_carry_the_footer_and_reject_tampering() {
        let path = tmp("checksum");
        let shared = SharedCatalog::open(&path).unwrap();
        shared.commit("t.k", stats(7), None).unwrap();
        assert!(shared.compact_if_due().unwrap());
        let persisted = std::fs::read_to_string(&path).unwrap();
        let last = persisted.trim_end().lines().last().unwrap();
        assert!(last.starts_with("crc32c "), "missing footer: {last:?}");
        assert!(SharedCatalog::open(&path).is_ok());

        let tampered = persisted.replace("epoch 1", "epoch 2");
        std::fs::write(&path, tampered).unwrap();
        let err = SharedCatalog::open(&path)
            .err()
            .expect("tampered file must not load");
        assert_eq!(err.to_string(), "catalog checksum mismatch");
    }

    #[test]
    fn legacy_core_file_opens_at_epoch_zero_and_the_first_commit_rewrites_it() {
        let legacy = bare_text(&[("old.ix", &stats(1))]);
        let mapped = VersionedCatalog::from_text_checksummed(&legacy).unwrap();
        assert_eq!(mapped.epoch(), 0);
        let old = mapped.get("old.ix").unwrap();
        assert_eq!((old.epoch, old.analyzed_at, old.session), (0, 0, None));
        assert_eq!(old.stats, stats(1));

        let path = tmp("legacy");
        std::fs::write(&path, &legacy).unwrap();
        let shared = SharedCatalog::open(&path).unwrap();
        assert_eq!(shared.epoch_hint(), 0);
        assert_eq!(shared.commit("new.ix", stats(2), None).unwrap(), 1);
        // The commit is in the log; the compaction it made due rewrites
        // the file.
        assert!(shared.compact_if_due().unwrap());
        let persisted = std::fs::read_to_string(&path).unwrap();
        assert!(
            persisted.starts_with(&format!("{HEADER}\nepoch 1\nmeta new.ix epoch=1 ")),
            "{persisted}"
        );
        let legacy_meta = format!("\nmeta old.ix epoch=0 analyzed_at=0\n{SEPARATOR}\n");
        assert!(persisted.contains(&legacy_meta), "{persisted}");
        let last = persisted.trim_end().lines().last().unwrap();
        assert!(last.starts_with("crc32c "), "missing footer: {last:?}");
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("old.ix").unwrap().stats, stats(1));
        assert_eq!(reopened.get("new.ix").unwrap().stats, stats(2));
    }

    /// `commit_analyzed` pins the timestamp and records the session on the
    /// entry's `meta` line, which survives a reopen; a plain commit records
    /// none, and the line without it is unchanged.
    #[test]
    fn commit_analyzed_pins_timestamp_and_session() {
        let path = tmp("session");
        let shared = SharedCatalog::open(&path).unwrap();
        shared
            .commit_analyzed("ix", stats(1), Some(counters(3)), 1234, Some(9))
            .unwrap();
        shared
            .commit_analyzed("ix2", stats(2), None, 55, None)
            .unwrap();
        let snap = shared.snapshot();
        assert_eq!(snap.get("ix").unwrap().analyzed_at, 1234);
        assert_eq!(snap.get("ix").unwrap().session, Some(9));
        assert_eq!(snap.get("ix2").unwrap().session, None);
        assert_eq!(snap.max_session(), 9);

        assert!(shared.compact_if_due().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(
                "meta ix epoch=1 analyzed_at=1234 cluster_counter=3 fetches_b1=1003 fetches_b3=903 session=9\n"
            ),
            "{text}"
        );
        assert!(text.contains("meta ix2 epoch=2 analyzed_at=55\n"), "{text}");
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.get("ix").unwrap().session, Some(9));
        assert_eq!(reopened.get("ix2").unwrap().session, None);
        assert_eq!(reopened.to_text(), snap.to_text());

        let bad = text.replace("session=9", "session=x");
        let err = VersionedCatalog::from_text_checksummed(&bad).err().unwrap();
        assert_eq!(err.to_string(), "catalog checksum mismatch");
        let err = VersionedCatalog::from_text(&snap.to_text().replace("session=9", "session=x"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("bad meta session"), "{err}");
    }

    #[test]
    fn durable_commit_and_reload() {
        let path = tmp("reload");
        let shared = SharedCatalog::open(&path).unwrap();
        shared.commit("t.k", stats(7), None).unwrap();
        let e2 = shared.commit("t.k2", stats(8), None).unwrap();
        assert_eq!(e2, 2);

        let reopened = SharedCatalog::open(&path).unwrap();
        let snap = reopened.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("t.k").unwrap().stats, stats(7));
        assert!(snap.get("t.k").unwrap().counters.is_none());
    }

    #[test]
    fn snapshots_are_stable_across_commits() {
        let shared = SharedCatalog::in_memory();
        shared.commit("ix", stats(1), None).unwrap();
        let old = shared.snapshot();
        shared.commit("ix", stats(2), None).unwrap();
        // The old snapshot still sees the old entry; the new one the new.
        assert_eq!(old.get("ix").unwrap().stats, stats(1));
        assert_eq!(shared.snapshot().get("ix").unwrap().stats, stats(2));
        assert_eq!(shared.snapshot().epoch(), 2);
    }

    #[test]
    fn epoch_hint_tracks_published_commits() {
        let shared = SharedCatalog::in_memory();
        assert_eq!(shared.epoch_hint(), 0);
        shared.commit("ix", stats(1), None).unwrap();
        assert_eq!(shared.epoch_hint(), 1);
        assert_eq!(shared.snapshot().epoch(), shared.epoch_hint());

        // Cached entry handles outlive the snapshot they came from.
        let snap = shared.snapshot();
        let handle = snap.get_arc("ix").unwrap().clone();
        shared.commit("ix", stats(2), None).unwrap();
        assert_eq!(shared.epoch_hint(), 2);
        assert_eq!(handle.stats, stats(1)); // old handle, old version
        assert_ne!(snap.epoch(), shared.epoch_hint()); // mismatch detected

        // A durable reload seeds the hint from the persisted epoch.
        let path = tmp("hint");
        let durable = SharedCatalog::open(&path).unwrap();
        durable.commit("a", stats(3), None).unwrap();
        durable.commit("b", stats(4), None).unwrap();
        let reopened = SharedCatalog::open(&path).unwrap();
        assert_eq!(reopened.epoch_hint(), 2);
    }

    #[test]
    fn invalid_names_are_rejected_at_commit() {
        let shared = SharedCatalog::in_memory();
        assert!(shared.commit("has space", stats(1), None).is_err());
        assert_eq!(shared.snapshot().epoch(), 0);
    }

    /// The catalog `path`'s files load into `want`: entries and epochs
    /// equal, estimates bit-identical.
    fn assert_loads(path: &Path, want: &VersionedCatalog, context: &str) {
        let loaded = SharedCatalog::open(path)
            .unwrap_or_else(|e| panic!("{context}: load failed: {e}"))
            .snapshot();
        assert_eq!(*loaded, *want, "{context}");
        let q = ScanQuery::range(0.3, 17).with_sargable(0.6);
        for ((_, a), (_, b)) in loaded.iter().zip(want.iter()) {
            assert_eq!(
                a.stats.estimate(&q).to_bits(),
                b.stats.estimate(&q).to_bits()
            );
        }
    }

    #[test]
    fn persist_failure_is_distinct_and_leaves_old_state_serving() {
        use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};

        let path = tmp("persistfail");
        let log = SharedCatalog::log_path(&path);
        let fv = FaultVfs::new();
        let shared = SharedCatalog::open_with_vfs(&path, fv.clone().shared()).unwrap();
        shared.commit("ix", stats(1), None).unwrap();
        let before = std::fs::read(&log).unwrap();

        // Every fault point of the append — the write, its fdatasync —
        // must surface the distinct error and keep the old snapshot
        // serving. The log then refuses commits until the RECOVER probe
        // heals it, which cuts the failed record off: the log is
        // byte-identical to before, and loads as the old catalog.
        for op in [OpKind::Write, OpKind::SyncData] {
            let failures_before = shared.persist_failures();
            fv.schedule()
                .push(Rule::new(FaultKind::Enospc).on_op(op).times(1));
            let err = shared
                .commit("ix", stats(99), None)
                .err()
                .unwrap_or_else(|| panic!("commit must fail under {op:?} fault"));
            assert!(
                err.to_string().starts_with("catalog persist failed: "),
                "op {op:?}: not the distinct error: {err}"
            );
            assert_eq!(shared.persist_failures(), failures_before + 1);
            let snap = shared.snapshot();
            assert_eq!(snap.epoch(), 1, "op {op:?}: old snapshot must keep serving");
            assert_eq!(snap.get("ix").unwrap().stats, stats(1));
            let err = shared.commit("ix", stats(98), None).unwrap_err();
            assert!(err.to_string().contains("wal poisoned"), "op {op:?}: {err}");
            // Whatever the failed append left loads as old or new.
            let on_disk = SharedCatalog::open(&path).unwrap().snapshot();
            let ix = &on_disk.get("ix").unwrap().stats;
            assert!(*ix == stats(1) || *ix == stats(99), "op {op:?}: torn");
            fv.schedule().heal();
            shared.probe_persist().unwrap();
            assert_eq!(
                std::fs::read(&log).unwrap(),
                before,
                "op {op:?}: the healed log must be byte-identical to before"
            );
            assert_loads(&path, &snap, &format!("op {op:?} healed"));
        }

        // Compaction: a fault at any step up to the rename leaves the
        // snapshot file byte-identical and the log whole, so the files
        // still load as the published catalog; it is retried after the
        // next commit.
        assert!(shared.compact_if_due().unwrap());
        for op in [
            OpKind::Create,
            OpKind::Write,
            OpKind::SyncData,
            OpKind::Rename,
        ] {
            // Two commits: the log is then past the one-entry snapshot.
            shared.commit("ix", stats(2), None).unwrap();
            shared.commit("ix", stats(2), None).unwrap();
            let snapshot_before = std::fs::read(&path).unwrap();
            let failures_before = shared.persist_failures();
            fv.schedule()
                .push(Rule::new(FaultKind::Enospc).on_op(op).times(1));
            let err = shared.compact_if_due().unwrap_err();
            assert!(err.to_string().starts_with("catalog persist failed: "));
            assert_eq!(shared.persist_failures(), failures_before + 1);
            assert_eq!(std::fs::read(&path).unwrap(), snapshot_before, "op {op:?}");
            assert_loads(&path, &shared.snapshot(), &format!("compaction op {op:?}"));
            fv.schedule().heal();
            assert!(
                !shared.compact_if_due().unwrap(),
                "retried only after a commit"
            );
        }

        // After the rename — the directory sync, or the log reset — the
        // snapshot is new and holds every record in the log, so the files
        // load as the published catalog either way.
        for op in [OpKind::SyncDir, OpKind::Truncate] {
            shared.commit("ix", stats(3), None).unwrap();
            shared.commit("ix", stats(3), None).unwrap();
            fv.schedule()
                .push(Rule::new(FaultKind::Eio).on_op(op).times(1));
            let err = shared.compact_if_due().unwrap_err();
            assert!(err.to_string().starts_with("catalog persist failed: "));
            fv.schedule().heal();
            assert_loads(&path, &shared.snapshot(), &format!("compaction op {op:?}"));
            if op == OpKind::SyncDir {
                // The log is healthy: the next commit goes on from the
                // renamed snapshot, not the one the log was begun with.
                shared.commit("ix", stats(3), None).unwrap();
                assert_loads(&path, &shared.snapshot(), "a commit after SyncDir");
            }
        }

        // The failed reset poisoned the log: RECOVER's probe heals it, and
        // a commit then lands and survives a reopen.
        assert!(shared.commit("ix", stats(4), None).is_err());
        shared.probe_persist().unwrap();
        shared.commit("ix", stats(5), None).unwrap();
        assert_eq!(shared.snapshot().get("ix").unwrap().stats, stats(5));
        assert_loads(&path, &shared.snapshot(), "after recover");
    }

    /// A commit appends one record to the log and leaves the snapshot
    /// alone; the record is the snapshot format holding just that entry.
    #[test]
    fn a_commit_appends_one_record_and_leaves_the_snapshot_alone() {
        let path = tmp("append-one");
        let log_path = SharedCatalog::log_path(&path);
        let mut seeded = VersionedCatalog::new();
        for i in 0..20 {
            seeded.insert(format!("t{i}.k"), stats(i), 7, None).unwrap();
        }
        std::fs::write(&path, seeded.to_text_checksummed()).unwrap();
        let snapshot = std::fs::read(&path).unwrap();

        let shared = SharedCatalog::open(&path).unwrap();
        assert!(!log_path.exists(), "opening must create nothing");
        assert_eq!(shared.log_bytes(), 0);
        shared
            .commit_analyzed("t3.k", stats(40), Some(counters(2)), 99, Some(6))
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snapshot);
        let log = Replay::from_bytes(std::fs::read(&log_path).unwrap());
        assert_eq!(log.len(), 2);
        assert_eq!(shared.log_bytes(), log.bytes());
        let mut records = log.records().map(|r| std::str::from_utf8(r).unwrap());
        let crc = epfis_wal::crc32c(seeded.to_text().as_bytes());
        assert_eq!(
            records.next().unwrap(),
            format!("snapshot epoch=20 crc32c={crc:08x}\n"),
            "the first record names the snapshot"
        );
        let record = records.next().unwrap();
        let entry = shared.snapshot().get_arc("t3.k").unwrap().clone();
        assert_eq!(record, log_record("t3.k", &entry));
        assert!(
            record.starts_with(&format!(
                "{HEADER}\nepoch 21\nmeta t3.k epoch=21 analyzed_at=99 \
                 cluster_counter=2 fetches_b1=1002 fetches_b3=902 session=6\n{SEPARATOR}\n\
                 {BARE_HEADER}\nindex t3.k\n"
            )),
            "{record}"
        );
        assert!(
            !shared.compact_if_due().unwrap(),
            "the log is far below the snapshot"
        );
        assert_loads(&path, &shared.snapshot(), "reopen");
    }

    /// Frames `body` as a catalog log record.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&epfis_wal::crc32c(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A log that extends the snapshot must continue its epoch one by one:
    /// a gap, or a record at or below the snapshot's epoch, fails the load
    /// with an error naming both files.
    #[test]
    fn log_records_must_follow_the_snapshot_epoch_without_a_gap() {
        let path = tmp("gap");
        let log_path = SharedCatalog::log_path(&path);
        let shared = SharedCatalog::open(&path).unwrap();
        for i in 0..3 {
            shared.commit("a.k", stats(i), None).unwrap();
        }
        let full = std::fs::read(&log_path).unwrap();
        let log = Replay::from_bytes(full.clone());
        // The snapshot's id, then epochs 1, 2 and 3.
        let bodies: Vec<&[u8]> = log.records().collect();
        let header = &full[..epfis_wal::HEADER_BYTES as usize];
        for (kept, want) in [
            (&[0, 1, 3][..], "record 3: epoch 3 does not follow epoch 1"),
            (&[0, 2][..], "record 2: epoch 2 does not follow epoch 0"),
            (&[0, 1, 1][..], "record 3: epoch 1 does not follow epoch 1"),
        ] {
            let mut cut = header.to_vec();
            for &i in kept {
                cut.extend(frame(bodies[i]));
            }
            std::fs::write(&log_path, &cut).unwrap();
            let err = SharedCatalog::open(&path)
                .err()
                .unwrap_or_else(|| panic!("records {kept:?} must fail the load"));
            let err = err.to_string();
            assert!(
                err.starts_with(&format!(
                    "catalog log {} cannot be applied to {}: ",
                    log_path.display(),
                    path.display()
                )) && err.ends_with(&format!("{want}: the log has a gap")),
                "{kept:?}: {err}"
            );
        }
        std::fs::write(&log_path, &full).unwrap();
        assert_eq!(SharedCatalog::open(&path).unwrap().snapshot().epoch(), 3);
    }

    /// A log that extends another snapshot loads only if the snapshot
    /// beside it already holds every record: what a crash between a
    /// compaction's rename and its log reset leaves. A log with a record
    /// the snapshot lacks — two processes committed to one catalog — fails
    /// the load; one beside a missing snapshot is set aside whole.
    #[test]
    fn a_log_of_another_snapshot_loads_only_if_the_snapshot_holds_it() {
        let path = tmp("spent");
        let log_path = SharedCatalog::log_path(&path);
        let shared = SharedCatalog::open(&path).unwrap();
        for i in 0..3 {
            shared.commit("a.k", stats(i), None).unwrap();
        }
        let old_log = std::fs::read(&log_path).unwrap();
        shared.compact_now().unwrap();
        let compacted = shared.snapshot();
        drop(shared);

        // The crash between the rename and the reset.
        std::fs::write(&log_path, &old_log).unwrap();
        assert_loads(&path, &compacted, "spent records");
        // The next commit resets the log and continues the epoch.
        let shared = SharedCatalog::open(&path).unwrap();
        assert_eq!(shared.commit("b.k", stats(9), None).unwrap(), 4);
        let log = Replay::from_bytes(std::fs::read(&log_path).unwrap());
        assert_eq!(log.len(), 2, "reset, then the snapshot's id and the commit");
        assert_loads(&path, &shared.snapshot(), "a commit after spent records");
        drop(shared);

        // A record the snapshot lacks: epoch 4, beside the snapshot at 3.
        let extends_compacted = std::fs::read(&log_path).unwrap();
        let lost = Replay::from_bytes(extends_compacted.clone());
        let mut foreign = old_log.clone();
        foreign.extend(frame(lost.records().nth(1).unwrap()));
        std::fs::write(&log_path, &foreign).unwrap();
        let err = SharedCatalog::open(&path)
            .err()
            .expect("a lost record")
            .to_string();
        assert!(
            err.contains("this one lacks its record of b.k at epoch 4"),
            "{err}"
        );

        // A log beside a missing snapshot: nothing applies, and the next
        // commit renames the log aside whole.
        let stale = path.with_extension("scat.log.stale");
        std::fs::write(&log_path, &extends_compacted).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_loads(&path, &VersionedCatalog::new(), "a missing snapshot");
        let shared = SharedCatalog::open(&path).unwrap();
        assert_eq!(shared.commit("c.k", stats(5), None).unwrap(), 1);
        assert_eq!(
            std::fs::read(&stale).unwrap(),
            extends_compacted,
            "set aside whole"
        );
        assert_loads(
            &path,
            &shared.snapshot(),
            "a commit after a missing snapshot",
        );
        std::fs::remove_file(&stale).unwrap();
    }

    /// A log started after a compaction to a newer snapshot than the file
    /// now holds (an older copy was put back, as a restore or a benchmark's
    /// reset does) applies nothing, and the next commit renames it aside
    /// to `<log>.stale` and starts a new one.
    #[test]
    fn a_snapshot_replaced_by_an_older_copy_sets_its_log_aside() {
        let path = tmp("older-copy");
        let log_path = SharedCatalog::log_path(&path);
        let stale = path.with_extension("scat.log.stale");
        std::fs::remove_file(&stale).ok();
        let mut seeded = VersionedCatalog::new();
        seeded.insert("a.k", stats(1), 1, None).unwrap();
        let original = seeded.to_text_checksummed();
        std::fs::write(&path, &original).unwrap();
        let shared = SharedCatalog::open(&path).unwrap();
        for i in 0..3 {
            shared.commit("b.k", stats(i), None).unwrap();
        }
        shared.compact_now().unwrap();
        assert_eq!(shared.commit("c.k", stats(7), None).unwrap(), 5);
        drop(shared);
        let newer_log = std::fs::read(&log_path).unwrap();

        std::fs::write(&path, &original).unwrap();
        assert_loads(&path, &seeded, "the older copy alone");
        assert_eq!(
            std::fs::read(&log_path).unwrap(),
            newer_log,
            "a load writes nothing"
        );
        let shared = SharedCatalog::open(&path).unwrap();
        assert_eq!(
            shared
                .commit_analyzed("d.k", stats(8), None, 9, None)
                .unwrap(),
            2
        );
        assert_eq!(std::fs::read(&stale).unwrap(), newer_log, "set aside whole");
        let mut want = seeded.clone();
        want.insert("d.k", stats(8), 9, None).unwrap();
        assert_loads(&path, &want, "a commit after the older copy");
        std::fs::remove_file(&stale).unwrap();
    }

    /// A commit refuses to append to a log another process appended to or
    /// compacted since this catalog was loaded, instead of losing one of
    /// the two commits.
    #[test]
    fn a_log_another_process_changed_refuses_the_commit() {
        let path = tmp("two-writers");
        let first = SharedCatalog::open(&path).unwrap();
        first.commit("a.k", stats(1), None).unwrap();
        first.compact_now().unwrap();
        drop(first);

        for compact in [false, true] {
            let server = SharedCatalog::open(&path).unwrap();
            let offline = SharedCatalog::open(&path).unwrap();
            offline.commit("b.k", stats(2), None).unwrap();
            if compact {
                offline.compact_now().unwrap();
            }
            let err = server
                .commit("v.ix", stats(3), None)
                .expect_err("the log changed under the server");
            assert!(
                err.to_string()
                    .contains("another process committed to the catalog"),
                "compact={compact}: {err}"
            );
            assert_loads(&path, &offline.snapshot(), &format!("compact={compact}"));
        }
    }

    /// The base and recent maps read as one: name order, one entry per
    /// name, the same however a compaction split them.
    #[test]
    fn base_and_recent_entries_read_as_one_catalog() {
        let mut c = VersionedCatalog::new();
        for (i, name) in ["m", "c", "x", "a"].iter().enumerate() {
            c.insert(*name, stats(i as u32), 1, None).unwrap();
        }
        let before = c.clone();
        c.fold();
        assert_eq!(c, before);
        assert!(c.recent.is_empty());
        c.insert("c", stats(10), 2, None).unwrap();
        c.insert("b", stats(11), 2, None).unwrap();
        c.insert("z", stats(12), 2, None).unwrap();
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "c", "m", "x", "z"]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.get("c").unwrap().stats, stats(10));
        assert_eq!(c.get("m").unwrap().stats, stats(0));
        let text = c.to_text();
        let mut folded = c.clone();
        folded.fold();
        assert_eq!(folded, c);
        assert_eq!(folded.to_text(), text);
        assert_eq!(VersionedCatalog::from_text(&text).unwrap(), c);
    }

    #[test]
    fn concurrent_readers_during_commits_see_consistent_versions() {
        let shared = std::sync::Arc::new(SharedCatalog::in_memory());
        shared.commit("ix", stats(1), None).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = shared.snapshot();
                        let e = snap.epoch();
                        assert!(e >= last_epoch, "epoch went backwards");
                        last_epoch = e;
                        let entry = snap.get("ix").expect("entry never disappears");
                        assert!(entry.epoch <= e);
                    }
                })
            })
            .collect();
        for i in 0..20 {
            shared.commit("ix", stats(i), None).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.snapshot().epoch(), 21);
    }

    /// `n` entries named in order, every one with counters, every third
    /// with a session: the shape of a large served catalog.
    fn large(n: usize) -> VersionedCatalog {
        let s = stats(5);
        let mut c = VersionedCatalog::new();
        for i in 0..n {
            let session = (i % 3 == 0).then_some(i as u64);
            c.insert_from(
                format!("t{i:05}.k"),
                s.clone(),
                1_700_000_000,
                Some(counters(7)),
                session,
            )
            .unwrap();
        }
        c
    }

    /// The result of a load as a comparable string: the rendered catalog,
    /// or the error.
    fn outcome(parsed: io::Result<VersionedCatalog>) -> String {
        match parsed {
            Ok(c) => c.to_text(),
            Err(e) => format!("error: {e}"),
        }
    }

    /// A seeded catalog text for the chunked-equals-serial property: the
    /// server or the bare format, names in order or not, with and without
    /// counters and sessions, and at most one corruption. Returns the text
    /// and what was done to it.
    fn seeded_text(seed: u64, pool: &[IndexStatistics]) -> (String, &'static str) {
        let mut rng = epfis_datagen::Rng::new(seed);
        let n = rng.gen_range_usize(1, 40);
        let mut names: Vec<String> = (0..n).map(|i| format!("ix{i:02}.k")).collect();
        if rng.gen_bool(0.5) {
            rng.shuffle(&mut names);
        }
        let bare = rng.gen_bool(0.25);
        let mut metas: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut line = format!("meta {name} epoch={} analyzed_at={}", i + 1, 100 + i);
                if rng.gen_bool(0.5) {
                    let c = counters(i as u64);
                    line += &format!(
                        " cluster_counter={} fetches_b1={} fetches_b3={}",
                        c.cluster_counter, c.fetches_b1, c.fetches_b3
                    );
                }
                if rng.gen_bool(0.3) {
                    line += &format!(" session={}", rng.gen_range(9) + 1);
                }
                line
            })
            .collect();
        let mut blocks: Vec<String> = names
            .iter()
            .map(|name| {
                let mut block = String::new();
                let s = &pool[rng.gen_range(pool.len() as u64) as usize];
                write_entry(&mut block, name, s).unwrap();
                block
            })
            .collect();
        let what = match rng.gen_range(7) {
            0 => {
                // Copy a block to a later place, likely in a later chunk.
                let from = rng.gen_range_usize(0, n);
                let to = rng.gen_range_usize(from + 1, n + 1);
                blocks.insert(to, blocks[from].clone());
                "duplicate block"
            }
            1 => {
                let i = rng.gen_range_usize(0, n);
                let (lo, hi) = blocks[i].split_once("\nfpf ").unwrap();
                let broken = ["x", ":", "1:", "1:2:3", "inf:1", "0:0"][rng.gen_range(6) as usize];
                blocks[i] = format!("{lo}\nfpf {broken} {hi}");
                "broken knot"
            }
            2 if !bare => {
                metas.remove(rng.gen_range_usize(0, n));
                "dropped meta"
            }
            3 if !bare => {
                let at = rng.gen_range_usize(0, n + 1);
                metas.insert(at, "meta ghost.k epoch=1 analyzed_at=0".into());
                "stray meta"
            }
            4 => "drop a line",
            _ => "intact",
        };
        let mut text = String::new();
        if !bare {
            text += &format!("{HEADER}\nepoch {}\n", n + 1);
            for meta in &metas {
                text += meta;
                text.push('\n');
            }
            text += &format!("{SEPARATOR}\n");
        }
        text += &format!("{BARE_HEADER}\n");
        for block in &blocks {
            text += block;
        }
        if what == "drop a line" {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.remove(rng.gen_range_usize(0, lines.len()));
            text = lines.join("\n") + "\n";
        }
        (text, what)
    }

    /// Cutting the entry section into 1 to 4 chunks gives what one chunk
    /// gives: the same catalog, or the same error. `EPFIS_LOAD_SEED=N`
    /// reruns one seed, `EPFIS_LOAD_SEEDS=N` runs seeds 0..N; every
    /// failure names its seed.
    #[test]
    fn chunked_parse_equals_the_serial_parse_under_seeded_corruptions() {
        let seeds: Vec<u64> = match (
            std::env::var("EPFIS_LOAD_SEED"),
            std::env::var("EPFIS_LOAD_SEEDS"),
        ) {
            (Ok(seed), _) => vec![seed.parse().expect("EPFIS_LOAD_SEED must be a u64")],
            (_, Ok(n)) => (0..n.parse().expect("EPFIS_LOAD_SEEDS must be a u64")).collect(),
            _ => (0..300).collect(),
        };
        let pool = [
            stats(1),
            stats(2),
            two_entries().get("b.y").unwrap().stats.clone(),
        ];
        let (mut loaded, mut failed) = (0, 0);
        for &seed in &seeds {
            let (text, what) = seeded_text(seed, &pool);
            let serial = outcome(VersionedCatalog::parse(&text, 1));
            for chunks in 2..=4 {
                assert_eq!(
                    outcome(VersionedCatalog::parse(&text, chunks)),
                    serial,
                    "seed {seed} ({what}), {chunks} chunks (EPFIS_LOAD_SEED={seed} reproduces)"
                );
            }
            if serial.starts_with("error: ") {
                failed += 1;
            } else {
                loaded += 1;
            }
        }
        if seeds.len() > 1 {
            assert!(loaded > 0 && failed > 0, "loaded {loaded}, failed {failed}");
        }
    }

    /// A later chunk's errors name the file's line: a bad knot near the
    /// end, and a name whose two blocks lie in different chunks.
    #[test]
    fn errors_in_a_late_chunk_name_the_file_line() {
        let text = large(10_000).to_text();
        let lines: Vec<&str> = text.lines().collect();
        // The third block from the end: 11 lines a block.
        let fpf = lines.iter().rposition(|l| l.starts_with("fpf ")).unwrap() - 2 * 11;
        let mut broken = lines.clone();
        let colon = broken[fpf].find(':').unwrap() + 1;
        let knot = format!("{}x{}", &broken[fpf][..colon], &broken[fpf][colon..]);
        broken[fpf] = &knot;
        let broken = broken.join("\n");
        let want = format!("parse error at line {}: cannot parse \"x", fpf + 1);
        for chunks in [1, 2, 4] {
            let err = outcome(VersionedCatalog::parse(&broken, chunks));
            assert!(
                err.starts_with(&format!("error: {want}")),
                "{chunks} chunks: {err}"
            );
        }

        // t00001.k's block again just before the last block: its `end`
        // line is the error's.
        let first = text.find("index t00001.k\n").unwrap();
        let block = &text[first..first + text[first..].find("end\n").unwrap() + 4];
        let last = text.rfind("index ").unwrap();
        let dup = format!("{}{block}{}", &text[..last], &text[last..]);
        let end_line = text[..last].lines().count() + block.lines().count();
        let want =
            format!("error: parse error at line {end_line}: duplicate index name \"t00001.k\"");
        for chunks in [1, 2, 4] {
            let err = outcome(VersionedCatalog::parse(&dup, chunks));
            assert!(err.starts_with(&want), "{chunks} chunks: {err}");
        }
        assert!(outcome(VersionedCatalog::from_text(&dup)).starts_with(&want));
    }

    /// A flipped byte in a large snapshot that also breaks its parse is a
    /// checksum mismatch, whether the checksum or the parse ends first.
    #[test]
    fn a_checksum_mismatch_wins_over_the_parse_error_it_causes() {
        let text = large(5_000).to_text_checksummed();
        assert!(text.len() > 2 * MIN_CHUNK_BYTES, "{}", text.len());
        for pos in [
            text.find("table_pages").unwrap(),
            text.rfind("b_max").unwrap(),
        ] {
            let tampered = text[..pos].to_string() + "X" + &text[pos + 1..];
            assert!(
                VersionedCatalog::from_text(&tampered[..tampered.rfind("crc32c").unwrap()])
                    .is_err()
            );
            let err = VersionedCatalog::from_text_checksummed(&tampered)
                .expect_err("tampered text must not load");
            assert_eq!(err.to_string(), "catalog checksum mismatch", "pos={pos}");
        }
        assert_eq!(
            VersionedCatalog::from_text_checksummed(&text).unwrap(),
            large(5_000)
        );
    }

    /// The whitespace a file may carry beyond the canonical single spaces
    /// and `\n`s: CRLF endings, blank lines, blanks around a line, and
    /// tabs and runs of spaces between the items of a `meta`, `fpf` or
    /// `config` line. Whitespace outside ASCII is not whitespace to the
    /// loader.
    #[test]
    fn the_loader_accepts_ascii_whitespace_around_and_between_items() {
        let c = two_entries();
        let canonical = c.to_text();
        let spaced: String = canonical
            .lines()
            .map(|line| {
                let line = match line.split_once(' ') {
                    Some((k @ ("meta" | "fpf" | "config"), rest)) => {
                        format!("{k} \t {}", rest.replace(' ', "  \t"))
                    }
                    Some(("epoch", v)) => format!("epoch \t{v}"),
                    _ => line.to_string(),
                };
                // No line may come between `---` and the entry header.
                let blank = if line == SEPARATOR { "" } else { "\r\n" };
                format!(" \t{line}\t  \r\n{blank}")
            })
            .collect();
        for text in [canonical.replace('\n', "\r\n"), spaced] {
            let back = VersionedCatalog::from_text(&text).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.to_text(), canonical);
        }
        // A no-break space in place of the space after each line's first
        // item.
        for keyword in ["\nmeta ", "\nfpf ", "\nconfig "] {
            let item = canonical.find(keyword).unwrap() + keyword.len();
            let space = item + canonical[item..].find(' ').unwrap();
            let text = format!("{}\u{a0}{}", &canonical[..space], &canonical[space + 1..]);
            assert!(VersionedCatalog::from_text(&text).is_err(), "{keyword:?}");
        }
    }
}
