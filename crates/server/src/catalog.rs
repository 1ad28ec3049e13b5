//! The server's durable, versioned catalog and its lock-light sharing model.
//!
//! Each entry is the core [`epfis::IndexStatistics`] plus version metadata:
//! a monotonically increasing **epoch** (bumped on every commit, globally —
//! an entry's epoch records *when* it was last analyzed relative to every
//! other commit) and an **analyzed-at** unix timestamp, so clients can
//! reason about staleness (see `docs/protocol.md`).
//!
//! `epfis analyze` and `epfis serve` both open and commit the catalog file
//! through [`SharedCatalog`]. It reuses the core text codec verbatim,
//! prepends a metadata section, separated by a literal `---` line, and
//! ends with a CRC32C footer:
//!
//! ```text
//! epfis-server-catalog v1
//! epoch 7
//! meta orders.customer_id epoch=7 analyzed_at=1754400000 cluster_counter=812 fetches_b1=40211 fetches_b3=38007 session=42
//! ---
//! epfis-catalog v1
//! index orders.customer_id
//! ...
//! end
//! crc32c 1a2b3c4d
//! ```
//!
//! The three `cluster_counter`/`fetches_b1`/`fetches_b3` items are the
//! entry's [`BaselineCounters`], from which `COMPARE` rebuilds the
//! baseline estimators; a `meta` line written before they existed loads
//! with none, and `COMPARE` then asks for a re-`ANALYZE`. A bare core body
//! (older `epfis analyze` files) loads at epoch 0, also without counters.
//!
//! `session=S` names the WAL session that committed the entry: with
//! `--wal-dir` the catalog write is the commit point (see [`crate::wal`]).
//! An older build's `wal_committed N` line is accepted and dropped.
//!
//! Writes go through [`epfis_faults::write_atomic`] (write temp + fsync +
//! rename + directory sync) and loads through the same injectable [`Vfs`],
//! so a crash or storage fault mid-save can never leave a torn file; on
//! startup the server simply reloads the last successfully renamed version.
//! A persist failure is first-class: it surfaces as a distinct `catalog
//! persist failed` error, bumps [`SharedCatalog::persist_failures`], leaves
//! the old on-disk file byte-identical, and the published in-memory
//! snapshot keeps serving unchanged — the commit simply did not happen.
//!
//! Sharing: [`SharedCatalog`] keeps the current [`VersionedCatalog`] behind
//! `RwLock<Arc<...>>`. Readers take the lock only long enough to clone the
//! `Arc` ([`SharedCatalog::snapshot`]); a commit builds the successor
//! catalog and persists it *outside* any lock readers touch, then swaps the
//! `Arc`. Concurrent `ESTIMATE`s therefore never block behind an ingest.

use epfis::catalog::{check_name, write_text, CatalogError};
use epfis::{Catalog, IndexStatistics, ScanQuery};
use epfis_estimators::BaselineCounters;
use epfis_faults::{write_atomic, StdVfs, Vfs};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const HEADER: &str = "epfis-server-catalog v1";
/// The header of a bare core catalog, which older `epfis analyze` wrote.
const CORE_HEADER: &str = "epfis-catalog v1";
const SEPARATOR: &str = "---";

/// One named index's statistics plus version metadata.
#[derive(Clone)]
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

/// An immutable catalog version: named [`VersionedEntry`]s plus the global
/// epoch. Commits produce a new value; readers hold `Arc` snapshots.
///
/// Entries are individually `Arc`'d so a hot reader can hold a handle to
/// one entry across requests (the binary protocol's zero-alloc `ESTIMATE`
/// path) and so successor catalogs share unchanged entries instead of
/// cloning them.
#[derive(Clone, Default)]
pub struct VersionedCatalog {
    epoch: u64,
    entries: BTreeMap<String, Arc<VersionedEntry>>,
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
        self.entries.len()
    }

    /// Whether the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&VersionedEntry> {
        self.entries.get(name).map(|e| &**e)
    }

    /// Looks an entry up by name, returning the shared handle. A caller may
    /// hold the `Arc` beyond the snapshot's lifetime (the entry is immutable
    /// once published).
    pub fn get_arc(&self, name: &str) -> Option<&Arc<VersionedEntry>> {
        self.entries.get(name)
    }

    /// [`VersionedCatalog::get_arc`], or the error every command answers
    /// for an unknown name.
    pub(crate) fn lookup(&self, name: &str) -> Result<&Arc<VersionedEntry>, String> {
        self.get_arc(name)
            .ok_or_else(|| format!("no catalog entry named {name:?} (try SHOW)"))
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &VersionedEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), &**v))
    }

    /// Inserts (or replaces) an entry, bumping the global epoch and stamping
    /// the entry with it. Returns the new epoch.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        stats: IndexStatistics,
        analyzed_at: u64,
        counters: Option<BaselineCounters>,
    ) -> Result<u64, CatalogError> {
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
    ) -> Result<u64, CatalogError> {
        // The core codec's rule, so anything accepted here persists.
        check_name(&name)?;
        self.epoch += 1;
        self.entries.insert(
            name,
            Arc::new(VersionedEntry {
                stats,
                epoch: self.epoch,
                analyzed_at,
                counters,
                session,
            }),
        );
        Ok(self.epoch)
    }

    /// The highest WAL session id any entry records (0 if none): the floor
    /// for the next session id, so a provenance id is never reused.
    pub(crate) fn max_session(&self) -> u64 {
        self.entries
            .values()
            .filter_map(|e| e.session)
            .max()
            .unwrap_or(0)
    }

    /// Serializes to the server text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("epoch {}\n", self.epoch));
        for (name, e) in &self.entries {
            out.push_str(&format!(
                "meta {name} epoch={} analyzed_at={}",
                e.epoch, e.analyzed_at
            ));
            if let Some(c) = e.counters {
                out.push_str(&format!(
                    " cluster_counter={} fetches_b1={} fetches_b3={}",
                    c.cluster_counter, c.fetches_b1, c.fetches_b3
                ));
            }
            if let Some(session) = e.session {
                out.push_str(&format!(" session={session}"));
            }
            out.push('\n');
        }
        out.push_str(SEPARATOR);
        out.push('\n');
        let entries = self.entries.iter().map(|(n, e)| (n.as_str(), &e.stats));
        write_text(&mut out, entries).expect("writing to a String cannot fail");
        out
    }

    /// Parses the server text format, or a bare core body (epochs and
    /// `analyzed_at` all 0).
    pub fn from_text(text: &str) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = text.lines();
        let legacy = match lines.next() {
            Some(h) if h.trim() == HEADER => false,
            Some(h) if h.trim() == CORE_HEADER => true,
            other => {
                return Err(invalid(format!(
                    "bad server catalog header: {:?}",
                    other.unwrap_or_default()
                )))
            }
        };
        let mut epoch: Option<u64> = legacy.then_some(0);
        let mut meta: BTreeMap<String, (u64, u64, Option<BaselineCounters>, Option<u64>)> =
            BTreeMap::new();
        // A legacy body has no metadata section: the whole text is the core
        // catalog, so the line this skips for it is never read again.
        for raw in lines.by_ref().take_while(|_| !legacy) {
            let line = raw.trim();
            if line == SEPARATOR {
                break;
            }
            if line.is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("epoch ") {
                epoch = Some(
                    v.trim()
                        .parse()
                        .map_err(|e| invalid(format!("bad epoch {v:?}: {e}")))?,
                );
            } else if line.starts_with("wal_committed ") {
                // An older build's WAL-commit watermark: replay no longer
                // reads it, so it is dropped on the next persist.
            } else if let Some(rest) = line.strip_prefix("meta ") {
                let mut toks = rest.split_whitespace();
                let name = toks
                    .next()
                    .ok_or_else(|| invalid("meta line without a name".into()))?
                    .to_string();
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
                        return Err(invalid(format!("unknown meta item {kv:?}")));
                    };
                    vals[i] =
                        Some(v.parse::<u64>().map_err(|err| {
                            invalid(format!("bad meta {} {v:?}: {err}", KEYS[i]))
                        })?);
                }
                let [e, at, cc, f1, f3, session] = vals;
                let (e, at) = (
                    e.ok_or_else(|| invalid(format!("meta {name:?} missing epoch")))?,
                    at.ok_or_else(|| invalid(format!("meta {name:?} missing analyzed_at")))?,
                );
                let counters = match (cc, f1, f3) {
                    (Some(cluster_counter), Some(fetches_b1), Some(fetches_b3)) => {
                        Some(BaselineCounters {
                            cluster_counter,
                            fetches_b1,
                            fetches_b3,
                        })
                    }
                    (None, None, None) => None,
                    _ => {
                        return Err(invalid(format!(
                            "meta {name:?} has only some of the baseline counters"
                        )))
                    }
                };
                meta.insert(name, (e, at, counters, session));
            } else {
                return Err(invalid(format!(
                    "unexpected line before separator: {line:?}"
                )));
            }
        }
        let epoch = epoch.ok_or_else(|| invalid("missing global epoch line".into()))?;
        let body: String = if legacy {
            text.to_string()
        } else {
            lines.map(|l| format!("{l}\n")).collect()
        };
        let core = Catalog::from_text(&body)
            .map_err(|e| invalid(format!("embedded core catalog: {e}")))?;
        let mut entries = BTreeMap::new();
        for (name, stats) in core.iter() {
            let &(entry_epoch, analyzed_at, counters, session) = meta
                .get(name)
                .or(legacy.then_some(&(0, 0, None, None)))
                .ok_or_else(|| invalid(format!("entry {name:?} has no meta line")))?;
            entries.insert(
                name.to_string(),
                Arc::new(VersionedEntry {
                    stats: stats.clone(),
                    epoch: entry_epoch,
                    analyzed_at,
                    counters,
                    session,
                }),
            );
        }
        if let Some(orphan) = meta.keys().find(|n| !entries.contains_key(*n)) {
            return Err(invalid(format!("meta for unknown entry {orphan:?}")));
        }
        Ok(VersionedCatalog { epoch, entries })
    }

    /// [`to_text`](VersionedCatalog::to_text) plus a trailing CRC32C footer
    /// line over the serialized bytes. This is what actually hits disk:
    /// `write_atomic`'s rename makes a *torn* file unreachable on any sane
    /// filesystem, but the footer catches what rename cannot — bit rot,
    /// truncation by external tooling, or a filesystem without atomic
    /// rename — as a checksum mismatch rather than a parse error at an
    /// arbitrary line.
    pub fn to_text_checksummed(&self) -> String {
        let body = self.to_text();
        let crc = epfis_wal::crc32c(body.as_bytes());
        format!("{body}crc32c {crc:08x}\n")
    }

    /// Parses the persisted form, verifying the CRC32C footer when present.
    /// A damaged file yields a distinct `catalog checksum mismatch` error.
    /// Files without a footer (written before checksumming existed) parse
    /// as before.
    pub fn from_text_checksummed(text: &str) -> io::Result<Self> {
        let mismatch = || io::Error::new(io::ErrorKind::InvalidData, "catalog checksum mismatch");
        let stripped = text.strip_suffix('\n').unwrap_or(text);
        let (body, last) = match stripped.rfind('\n') {
            Some(i) => (&text[..i + 1], &stripped[i + 1..]),
            None => ("", stripped),
        };
        match last.strip_prefix("crc32c ") {
            Some(hex) => {
                let want = u32::from_str_radix(hex.trim(), 16).map_err(|_| mismatch())?;
                if epfis_wal::crc32c(body.as_bytes()) != want {
                    return Err(mismatch());
                }
                Self::from_text(body)
            }
            None => Self::from_text(text),
        }
    }
}

/// The concurrently shared catalog: `Arc` snapshots for readers, serialized
/// copy-persist-swap commits for writers, optional durability to a file.
pub struct SharedCatalog {
    current: RwLock<Arc<VersionedCatalog>>,
    path: Option<PathBuf>,
    commit_lock: Mutex<()>,
    logger: Arc<epfis_obs::Logger>,
    /// The filesystem the persist path writes through; `StdVfs` unless a
    /// fault-injecting test (or the `EPFIS_FAULTS` env hook) swapped one in.
    vfs: Arc<dyn Vfs>,
    /// Commits whose atomic save failed (the in-memory snapshot and the
    /// old on-disk file were both left untouched).
    persist_failures: AtomicU64,
    // The published catalog's epoch, readable without the lock. A reader
    // holding a snapshot compares this against the snapshot's epoch to
    // decide — lock-free — whether a cached entry handle is still current
    // (the binary `ESTIMATE` fast path revalidates on every request).
    epoch_hint: AtomicU64,
}

impl SharedCatalog {
    /// An in-memory catalog (no persistence).
    pub fn in_memory() -> Self {
        Self::in_memory_with_vfs(StdVfs::shared())
    }

    /// [`in_memory`](SharedCatalog::in_memory) with an explicit filesystem:
    /// nothing persists, but a WAL opened beside it writes through `vfs`.
    pub fn in_memory_with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        Self::with(VersionedCatalog::new(), None, vfs)
    }

    fn with(initial: VersionedCatalog, path: Option<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        SharedCatalog {
            epoch_hint: AtomicU64::new(initial.epoch()),
            current: RwLock::new(Arc::new(initial)),
            path,
            commit_lock: Mutex::new(()),
            logger: Arc::new(epfis_obs::Logger::disabled()),
            vfs,
            persist_failures: AtomicU64::new(0),
        }
    }

    /// Opens a durable catalog at `path`, reloading the last atomically
    /// persisted version if the file exists.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_vfs(path, StdVfs::shared())
    }

    /// [`open`](SharedCatalog::open) with an explicit filesystem; tests
    /// pass a `FaultVfs` to script persist failures.
    pub fn open_with_vfs(path: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        let path = path.into();
        let initial = match vfs.read(&path) {
            Ok(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                VersionedCatalog::from_text_checksummed(&text)?
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => VersionedCatalog::new(),
            Err(e) => return Err(e),
        };
        Ok(Self::with(initial, Some(path), vfs))
    }

    /// The filesystem the catalog persists through; [`ServerWal::open`]
    /// puts the WAL on the same one.
    ///
    /// [`ServerWal::open`]: crate::ServerWal::open
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Attaches a logger; each commit then emits a `catalog commit` span
    /// covering build + atomic save + publish.
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

    /// Commits whose atomic persist failed. Each failure left the in-memory
    /// snapshot and the old on-disk file untouched.
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// Re-persists the current snapshot to verify the storage under the
    /// catalog path is writable again (the `RECOVER` probe). A no-op
    /// `Ok(())` for in-memory catalogs.
    pub fn probe_persist(&self) -> io::Result<()> {
        let _serialize = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.persist(&self.snapshot())
    }

    /// Atomically writes `catalog` to the file, if durable; a failure is
    /// counted and worded `catalog persist failed`.
    fn persist(&self, catalog: &VersionedCatalog) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        write_atomic(self.vfs.as_ref(), path, &catalog.to_text_checksummed()).map_err(|e| {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
            io::Error::new(e.kind(), format!("catalog persist failed: {e}"))
        })
    }

    /// Commits a new analysis for `name`: builds the successor catalog,
    /// persists it atomically (when durable), then publishes it. Returns the
    /// new epoch.
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
    /// a WAL this write is the session's commit point: once the file is
    /// renamed, replay finds `session=S` on the entry and counts the
    /// session as ended.
    pub fn commit_analyzed(
        &self,
        name: &str,
        stats: IndexStatistics,
        counters: Option<BaselineCounters>,
        analyzed_at: u64,
        session: Option<u64>,
    ) -> io::Result<u64> {
        let _serialize = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut span = self
            .logger
            .span(epfis_obs::Level::Info, "catalog", "commit")
            .field("entry", name)
            .field("durable", self.path.is_some());
        let mut next = (*self.snapshot()).clone();
        let epoch = next
            .insert_from(name.to_string(), stats, analyzed_at, counters, session)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.persist(&next)?;
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        self.epoch_hint.store(epoch, Ordering::Release);
        span.add_field("epoch", epoch);
        Ok(epoch)
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
    use epfis::{EpfisConfig, LruFit};
    use epfis_lrusim::KeyedTrace;

    fn stats(seed: u32) -> IndexStatistics {
        let pages: Vec<u32> = (0..1200u32)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed)) % 90)
            .collect();
        LruFit::new(EpfisConfig::default()).collect(&KeyedTrace::all_distinct(pages, 90))
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("epfis-server-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}.scat"));
        std::fs::remove_file(&p).ok();
        p
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

        let mut core = Catalog::new();
        core.insert("old.ix", stats(1)).unwrap();
        let body = format!(
            "{HEADER}\nepoch 1\nmeta old.ix epoch=1 analyzed_at=111\n{SEPARATOR}\n{}",
            core.to_text()
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

    #[test]
    fn malformed_texts_are_rejected() {
        assert!(VersionedCatalog::from_text("").is_err());
        assert!(VersionedCatalog::from_text("wrong header\n").is_err());
        // Missing epoch line.
        assert!(
            VersionedCatalog::from_text(&format!("{HEADER}\n{SEPARATOR}\nepfis-catalog v1\n"))
                .is_err()
        );
        // Meta naming a non-existent entry.
        assert!(VersionedCatalog::from_text(&format!(
            "{HEADER}\nepoch 1\nmeta ghost epoch=1 analyzed_at=0\n{SEPARATOR}\nepfis-catalog v1\n"
        ))
        .is_err());
        // Entry without meta.
        let mut c = VersionedCatalog::new();
        c.insert("ix", stats(1), 0, None).unwrap();
        let text = c.to_text().replace("meta ix epoch=1 analyzed_at=0\n", "");
        assert!(VersionedCatalog::from_text(&text).is_err());
    }

    /// A file an older build wrote, with its `wal_committed` watermark line,
    /// opens with every entry intact and re-persists without the line.
    #[test]
    fn legacy_wal_committed_line_loads_and_is_dropped_on_persist() {
        let mut core = Catalog::new();
        core.insert("old.ix", stats(1)).unwrap();
        let body = format!(
            "{HEADER}\nepoch 3\nwal_committed 7\nmeta old.ix epoch=3 analyzed_at=111\n{SEPARATOR}\n{}",
            core.to_text()
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
                .err()
                .expect("tampered text must not parse");
            assert_eq!(err.to_string(), "catalog checksum mismatch", "pos={pos}");
        }
        // A damaged footer is a mismatch too.
        let torn = format!("{}crc32c 12a\n", c.to_text());
        let err = VersionedCatalog::from_text_checksummed(&torn)
            .err()
            .expect("damaged footer must not parse");
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
        let mut core = Catalog::new();
        core.insert("old.ix", stats(1)).unwrap();
        let legacy = core.to_text();
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

    #[test]
    fn persist_failure_is_distinct_and_leaves_old_state_serving() {
        use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};

        let path = tmp("persistfail");
        let fv = FaultVfs::new();
        let shared = SharedCatalog::open_with_vfs(&path, fv.clone().shared()).unwrap();
        shared.commit("ix", stats(1), None).unwrap();
        let before = std::fs::read(&path).unwrap();

        // Every fault point before the rename — temp create, write, fsync,
        // rename itself — must surface the distinct error, leave the old
        // file byte-identical, and keep the old snapshot serving.
        for op in [
            OpKind::Create,
            OpKind::Write,
            OpKind::SyncData,
            OpKind::Rename,
        ] {
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
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "op {op:?}: old on-disk catalog must survive byte-identical"
            );
            let snap = shared.snapshot();
            assert_eq!(snap.epoch(), 1, "op {op:?}: old snapshot must keep serving");
            assert_eq!(snap.get("ix").unwrap().stats, stats(1));
            fv.schedule().heal();
        }

        // A directory-fsync fault fires *after* the rename: the file on disk
        // is then validly old OR new — never torn — and the commit is still
        // reported failed (a false negative, never a false positive), so the
        // published snapshot stays old.
        fv.schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncDir).times(1));
        let err = shared.commit("ix", stats(50), None).err().unwrap();
        assert!(err.to_string().starts_with("catalog persist failed: "));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let parsed = VersionedCatalog::from_text_checksummed(&on_disk)
            .expect("on-disk catalog must be old or new, never torn");
        assert!(parsed.epoch() == 1 || parsed.epoch() == 2);
        assert_eq!(shared.snapshot().epoch(), 1);
        fv.schedule().heal();

        // probe_persist succeeds once the storage heals, and a fresh commit
        // then lands normally.
        shared.probe_persist().unwrap();
        shared.commit("ix", stats(2), None).unwrap();
        assert_eq!(shared.snapshot().get("ix").unwrap().stats, stats(2));
        let reopened = SharedCatalog::open(&path).unwrap();
        assert_eq!(reopened.snapshot().get("ix").unwrap().stats, stats(2));
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
}
