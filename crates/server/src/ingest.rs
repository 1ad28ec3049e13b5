//! Streaming LRU-Fit ingestion: one session per connection.
//!
//! The paper runs LRU-Fit over the statistics scan of an index — a pass
//! that, in a live system, arrives as a *stream* of `(key, page)` references
//! in key order, not as a file. [`IngestSession`] consumes that stream
//! incrementally:
//!
//! * every reference goes straight into a [`StackAnalyzer`] (whose
//!   time-axis compaction bounds memory to the working set, so an
//!   arbitrarily long scan never accumulates the trace),
//! * run boundaries (key changes), Algorithm DC's cluster counters, and the
//!   max page id are tracked on the fly,
//!
//! so session memory is O(distinct pages + distinct keys) — the key-order
//! duplicate check needs a set of seen keys — regardless of how many
//! references stream in. [`IngestSession::commit`] then performs the
//! remaining LRU-Fit steps (grid sampling + segment fitting) and returns
//! both the catalog entry and the [`BaselineCounters`] the catalog keeps
//! beside it, from which `COMPARE` rebuilds the baseline estimators.

use epfis::{EpfisConfig, IndexStatistics, LruFit};
use epfis_estimators::BaselineCounters;
use epfis_lrusim::StackAnalyzer;

/// An insert-only open-addressing set of `i64` keys.
///
/// The run-boundary duplicate check fires once per key change, which on
/// short runs is a large fraction of every reference fed — with
/// `std::collections::HashSet` (SipHash) it dominated the wire-to-analyzer
/// gap the binary protocol is meant to close. Keys never leave the set, so
/// a tombstone-free linear-probe table with a multiplicative hash does the
/// same job at a fraction of the cost.
#[derive(Debug, Default)]
struct KeySet {
    /// Slot keys; validity comes from `used` (keys are arbitrary `i64`s, so
    /// no in-band sentinel exists).
    slots: Vec<i64>,
    /// One bit per slot.
    used: Vec<u64>,
    len: usize,
}

impl KeySet {
    /// Fibonacci hashing: multiply, keep the high bits via the mask below.
    #[inline]
    fn hash(key: i64) -> u64 {
        (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn is_used(&self, slot: usize) -> bool {
        self.used[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn mark_used(&mut self, slot: usize) {
        self.used[slot >> 6] |= 1u64 << (slot & 63);
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(64);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        let old_used = std::mem::replace(&mut self.used, vec![0; new_cap / 64]);
        for (i, key) in old_slots.into_iter().enumerate() {
            if old_used[i >> 6] & (1u64 << (i & 63)) != 0 {
                let mask = new_cap - 1;
                let mut slot = (Self::hash(key) >> 32) as usize & mask;
                while self.is_used(slot) {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = key;
                self.mark_used(slot);
            }
        }
    }

    /// True if `key` is in the set.
    #[inline]
    fn contains(&self, key: i64) -> bool {
        if self.len == 0 {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut slot = (Self::hash(key) >> 32) as usize & mask;
        while self.is_used(slot) {
            if self.slots[slot] == key {
                return true;
            }
            slot = (slot + 1) & mask;
        }
        false
    }

    /// Inserts `key`; returns `true` if it was not already present.
    #[inline]
    fn insert(&mut self, key: i64) -> bool {
        // Grow at 50% load so probe chains stay short.
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = (Self::hash(key) >> 32) as usize & mask;
        while self.is_used(slot) {
            if self.slots[slot] == key {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = key;
        self.mark_used(slot);
        self.len += 1;
        true
    }

    /// Iterates the stored keys, in unspecified (slot) order.
    fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| self.is_used(i).then_some(k))
    }
}

/// An in-progress streaming analysis (`ANALYZE BEGIN` … `COMMIT`).
pub struct IngestSession {
    name: String,
    config: EpfisConfig,
    declared_table_pages: Option<u32>,
    analyzer: StackAnalyzer,
    records: u64,
    keys: u64,
    max_page: u32,
    current_key: Option<i64>,
    seen_keys: KeySet,
    // Algorithm DC cluster-counter state, maintained to match what
    // the estimators crate computes from a whole trace. The min/max
    // reading compares a run's min page against the *previous* run's max,
    // so each boundary is decided when the later run closes.
    cc_minmax: u64,
    run_min: u32,
    run_max: u32,
    prev_run_max: u32,
}

impl IngestSession {
    /// Opens a session for the entry `name`.
    ///
    /// # Panics
    /// Panics on an invalid `config` (mirrors [`LruFit::new`]); the server
    /// validates configuration before opening sessions.
    pub fn new(name: String, config: EpfisConfig, declared_table_pages: Option<u32>) -> Self {
        config.validate();
        IngestSession {
            name,
            config,
            declared_table_pages,
            analyzer: StackAnalyzer::new(),
            records: 0,
            keys: 0,
            max_page: 0,
            current_key: None,
            seen_keys: KeySet::default(),
            cc_minmax: 0,
            run_min: 0,
            run_max: 0,
            prev_run_max: 0,
        }
    }

    /// The entry name this session will commit to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// References fed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Distinct keys seen so far.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Time-axis compactions the underlying stack analyzer has performed so
    /// far; the server publishes the per-batch delta into the process-global
    /// `epfis_analyzer_compactions_total` counter.
    pub fn compactions(&self) -> u64 {
        self.analyzer.compactions()
    }

    /// Feeds one `(key, page)` reference. Keys must arrive grouped (key
    /// order): a key restarting after another key is rejected, as is a page
    /// at or beyond a declared `table_pages`.
    pub fn feed(&mut self, key: i64, page: u32) -> Result<(), String> {
        self.feed_batch(&[(key, page)])
    }

    /// Validates a whole `(key, page)` batch against the current session
    /// state *without* mutating it: pages within a declared `table_pages`,
    /// no key restarting after another key began (neither against
    /// already-fed keys nor within the batch itself). A batch that passes
    /// cannot fail when fed, so `PAGE` lines apply atomically: a rejected
    /// line leaves the session exactly as it was, and the client can
    /// correct and retry it. The binary protocol validates `PAGE` frames
    /// straight off the wire buffer through this — no intermediate `Vec`
    /// is ever built.
    pub fn check_batch_iter(&self, pairs: impl Iterator<Item = (i64, u32)>) -> Result<(), String> {
        let mut current = self.current_key;
        let mut started_in_batch = KeySet::default();
        for (key, page) in pairs {
            if let Some(t) = self.declared_table_pages {
                if page >= t {
                    return Err(format!("page {page} >= declared table_pages {t}"));
                }
            }
            if current != Some(key) {
                if self.seen_keys.contains(key) || started_in_batch.contains(key) {
                    return Err(format!(
                        "key {key} appears in two separate runs (references must be in key order)"
                    ));
                }
                started_in_batch.insert(key);
                current = Some(key);
            }
        }
        Ok(())
    }

    /// Feeds a whole batch atomically: validates every pair first
    /// ([`IngestSession::check_batch_iter`]), then applies them all. On `Err`
    /// nothing was applied.
    pub fn feed_batch(&mut self, pairs: &[(i64, u32)]) -> Result<(), String> {
        self.feed_batch_iter(pairs.iter().copied())
    }

    /// [`IngestSession::feed_batch`] over any cloneable `(key, page)`
    /// iterator: one validation pass, one feed pass, both straight off the
    /// caller's buffer. The iterator must be `Clone` because atomicity
    /// requires traversing the batch twice.
    pub fn feed_batch_iter(
        &mut self,
        pairs: impl Iterator<Item = (i64, u32)> + Clone,
    ) -> Result<(), String> {
        self.check_batch_iter(pairs.clone())?;
        self.feed_batch_unchecked_iter(pairs);
        Ok(())
    }

    /// The feed half of [`IngestSession::feed_batch_iter`]: applies a batch
    /// **already proven valid** by [`IngestSession::check_batch_iter`],
    /// repeating none of the checks. Exposed separately so the WAL path can
    /// interpose its append between validation and application — the batch
    /// must be durable before it mutates the analyzer, and post-validation
    /// application cannot fail. Feeding an unvalidated batch corrupts
    /// session invariants.
    pub fn feed_batch_unchecked_iter(&mut self, pairs: impl Iterator<Item = (i64, u32)>) {
        // The feed pass keeps the per-run state in locals so the loop
        // touches the session only at run boundaries and via the analyzer.
        let mut current = self.current_key;
        let mut run_min = self.run_min;
        let mut run_max = self.run_max;
        let mut max_page = self.max_page;
        let mut records = self.records;
        for (key, page) in pairs {
            if current != Some(key) {
                self.run_min = run_min;
                self.run_max = run_max;
                if current.is_some() {
                    self.close_run();
                }
                self.seen_keys.insert(key);
                current = Some(key);
                self.keys += 1;
                run_min = page;
                run_max = page;
            } else {
                run_min = run_min.min(page);
                run_max = run_max.max(page);
            }
            self.analyzer.access(page);
            records += 1;
            max_page = max_page.max(page);
        }
        self.current_key = current;
        self.run_min = run_min;
        self.run_max = run_max;
        self.max_page = max_page;
        self.records = records;
    }

    /// Seals the current run: decides the min/max cluster counter for the
    /// boundary between it and the run before it, and shifts the
    /// previous-run state forward.
    fn close_run(&mut self) {
        if self.keys >= 2 && self.run_min >= self.prev_run_max {
            self.cc_minmax += 1;
        }
        self.prev_run_max = self.run_max;
    }

    /// Discards the session, returning its name and how many references are
    /// being dropped.
    pub fn abort(self) -> (String, u64) {
        (self.name, self.records)
    }

    /// Captures the full session state as a serializable checkpoint:
    /// run-tracking and cluster counters verbatim, the analyzer via its
    /// compaction-normal [`snapshot`](StackAnalyzer::snapshot). A session
    /// restored from this and fed the rest of the stream commits
    /// statistics bit-identical to one that never stopped.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let mut seen_keys: Vec<i64> = self.seen_keys.iter().collect();
        // Slot order depends on insertion history; sort so the same
        // session state always serializes to the same bytes.
        seen_keys.sort_unstable();
        SessionCheckpoint {
            name: self.name.clone(),
            declared_table_pages: self.declared_table_pages,
            analyzer: self.analyzer.snapshot(),
            records: self.records,
            keys: self.keys,
            max_page: self.max_page,
            current_key: self.current_key,
            seen_keys,
            cc_minmax: self.cc_minmax,
            run_min: self.run_min,
            run_max: self.run_max,
            prev_run_max: self.prev_run_max,
        }
    }

    /// Rebuilds a session from a [`checkpoint`](IngestSession::checkpoint).
    /// `config` is supplied by the caller (it is part of the ANALYZE BEGIN
    /// request, not the streamed state) and must validate, as in
    /// [`IngestSession::new`].
    pub fn restore(cp: &SessionCheckpoint, config: EpfisConfig) -> Self {
        config.validate();
        let mut seen_keys = KeySet::default();
        for &k in &cp.seen_keys {
            seen_keys.insert(k);
        }
        IngestSession {
            name: cp.name.clone(),
            config,
            declared_table_pages: cp.declared_table_pages,
            analyzer: StackAnalyzer::from_snapshot(&cp.analyzer),
            records: cp.records,
            keys: cp.keys,
            max_page: cp.max_page,
            current_key: cp.current_key,
            seen_keys,
            cc_minmax: cp.cc_minmax,
            run_min: cp.run_min,
            run_max: cp.run_max,
            prev_run_max: cp.prev_run_max,
        }
    }

    /// Completes LRU-Fit: grid-samples the exact fetch curve, fits segments,
    /// and returns the catalog entry plus the baseline estimators' counters.
    pub fn commit(mut self) -> Result<(IndexStatistics, BaselineCounters), String> {
        if self.records == 0 {
            return Err("session has no references (feed PAGE lines first)".into());
        }
        self.close_run();
        let table_pages = match self.declared_table_pages {
            Some(t) => t,
            None => self
                .max_page
                .checked_add(1)
                .ok_or("max page id overflows table_pages")?,
        };
        let curve = self.analyzer.finish().fetch_curve();
        let stats = LruFit::new(self.config).collect_from_curve(
            &curve,
            table_pages as u64,
            self.records,
            self.keys,
        );
        let counters = BaselineCounters {
            cluster_counter: self.cc_minmax,
            fetches_b1: curve.fetches(1),
            fetches_b3: curve.fetches(3),
        };
        Ok((stats, counters))
    }
}

/// A serializable point-in-time capture of an [`IngestSession`], written
/// to the WAL so a crashed server can resume in-flight ANALYZE streams.
/// Field-for-field mirror of the session; the analyzer is captured in
/// compaction-normal form (see [`epfis_lrusim::AnalyzerSnapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Entry name the session will commit to.
    pub name: String,
    /// `table_pages` declared at ANALYZE BEGIN, if any.
    pub declared_table_pages: Option<u32>,
    /// Stack-analyzer state.
    pub analyzer: epfis_lrusim::AnalyzerSnapshot,
    /// References fed so far.
    pub records: u64,
    /// Distinct keys seen so far.
    pub keys: u64,
    /// Largest page id seen so far.
    pub max_page: u32,
    /// Key whose run is currently open.
    pub current_key: Option<i64>,
    /// All keys seen, sorted (canonical serialization order).
    pub seen_keys: Vec<i64>,
    /// Algorithm DC min/max cluster counter.
    pub cc_minmax: u64,
    /// Open run's min page.
    pub run_min: u32,
    /// Open run's max page.
    pub run_max: u32,
    /// Previous run's max page.
    pub prev_run_max: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis_estimators::TraceSummary;
    use epfis_lrusim::KeyedTrace;

    /// Feeds a keyed trace through a session, pair by pair.
    fn stream(trace: &KeyedTrace, table_pages: Option<u32>) -> IngestSession {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), table_pages);
        for k in 0..trace.num_keys() as usize {
            for &p in trace.run_pages(k) {
                s.feed(k as i64, p).unwrap();
            }
        }
        s
    }

    fn test_trace() -> KeyedTrace {
        let pages: Vec<u32> = (0..2000u32)
            .map(|i| i.wrapping_mul(2654435761) % 120)
            .collect();
        let lens = vec![4u32; 500];
        KeyedTrace::from_run_lengths(pages, &lens, 120)
    }

    #[test]
    fn streaming_commit_matches_batch_lru_fit_and_summary() {
        let trace = test_trace();
        let (stats, counters) = stream(&trace, Some(120)).commit().unwrap();

        let batch_stats = LruFit::new(EpfisConfig::default()).collect(&trace);
        assert_eq!(stats, batch_stats);

        let batch_summary = TraceSummary::from_trace(&trace);
        assert_eq!(counters, batch_summary.baseline_counters());
        assert_eq!(
            (stats.table_pages, stats.records, stats.distinct_keys),
            (
                batch_summary.table_pages,
                batch_summary.records,
                batch_summary.distinct_keys
            )
        );
        assert_eq!(stats.distinct_pages, batch_summary.distinct_pages);
    }

    #[test]
    fn cluster_counters_match_on_hand_trace() {
        // Same shape as the TraceSummary doc example: runs [0,0],[1],[0,2],[1].
        let trace = KeyedTrace::from_run_lengths(vec![0, 0, 1, 0, 2, 1], &[2, 1, 2, 1], 4);
        let (_, counters) = stream(&trace, Some(4)).commit().unwrap();
        assert_eq!(
            counters,
            TraceSummary::from_trace(&trace).baseline_counters()
        );
        assert_eq!(counters.cluster_counter, 1);
    }

    #[test]
    fn inferred_table_pages_is_max_plus_one() {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), None);
        for (k, p) in [(1i64, 3u32), (1, 7), (2, 0)] {
            s.feed(k, p).unwrap();
        }
        let (stats, _) = s.commit().unwrap();
        assert_eq!(stats.table_pages, 8);
    }

    #[test]
    fn rejects_out_of_order_keys_and_oversized_pages() {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(10));
        s.feed(1, 0).unwrap();
        s.feed(2, 1).unwrap();
        assert!(s.feed(1, 2).is_err(), "split run must be rejected");
        assert!(s.feed(3, 10).is_err(), "page >= T must be rejected");
        // The session stays usable after a rejected reference.
        s.feed(3, 9).unwrap();
        assert_eq!(s.records(), 3);
        assert_eq!(s.keys(), 3);
    }

    #[test]
    fn rejected_batch_leaves_the_session_untouched() {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(10));
        s.feed_batch(&[(1, 0), (2, 1)]).unwrap();
        assert_eq!(s.records(), 2);

        // Key 1 restarting mid-batch: rejected, with the valid prefix
        // (3, 2) NOT applied.
        let err = s.feed_batch(&[(3, 2), (1, 5)]).unwrap_err();
        assert!(err.contains("two separate runs"), "{err}");
        assert_eq!(s.records(), 2);
        assert_eq!(s.keys(), 2);

        // A page beyond table_pages mid-batch: same atomicity.
        let err = s.feed_batch(&[(3, 2), (4, 10)]).unwrap_err();
        assert!(err.contains("table_pages"), "{err}");
        assert_eq!(s.records(), 2);

        // A key may not repeat within one batch non-contiguously either.
        let err = s.feed_batch(&[(3, 2), (4, 3), (3, 4)]).unwrap_err();
        assert!(err.contains("two separate runs"), "{err}");
        assert_eq!(s.records(), 2);

        // The corrected retry (reusing the same keys!) now succeeds, and
        // the committed statistics equal a clean one-shot ingest.
        s.feed_batch(&[(3, 2), (4, 3)]).unwrap();
        let (stats, _) = s.commit().unwrap();
        let mut clean = IngestSession::new("ix".into(), EpfisConfig::default(), Some(10));
        clean.feed_batch(&[(1, 0), (2, 1), (3, 2), (4, 3)]).unwrap();
        let (clean_stats, _) = clean.commit().unwrap();
        assert_eq!(stats, clean_stats);
    }

    #[test]
    fn batch_continuing_the_current_run_is_valid() {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(10));
        s.feed_batch(&[(1, 0), (1, 1)]).unwrap();
        // The open run for key 1 may continue at the head of the next batch.
        s.feed_batch(&[(1, 2), (2, 3)]).unwrap();
        assert_eq!(s.records(), 4);
        assert_eq!(s.keys(), 2);
    }

    #[test]
    fn checkpoint_restore_commits_bit_identical_stats() {
        let trace = test_trace();
        let pairs: Vec<(i64, u32)> = (0..trace.num_keys() as usize)
            .flat_map(|k| trace.run_pages(k).iter().map(move |&p| (k as i64, p)))
            .collect();
        let (clean_stats, clean_counters) = {
            let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(120));
            s.feed_batch(&pairs).unwrap();
            s.commit().unwrap()
        };
        for cut in [0, 1, 999, 1000, 1999] {
            let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(120));
            s.feed_batch(&pairs[..cut]).unwrap();
            let cp = s.checkpoint();
            // The original dies here; only the checkpoint survives.
            drop(s);
            let mut resumed = IngestSession::restore(&cp, EpfisConfig::default());
            resumed.feed_batch(&pairs[cut..]).unwrap();
            let (stats, counters) = resumed.commit().unwrap();
            assert_eq!(stats, clean_stats, "cut={cut}");
            assert_eq!(counters, clean_counters, "cut={cut}");
        }
    }

    #[test]
    fn checkpoint_is_deterministic_and_restores_duplicate_detection() {
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), Some(10));
        s.feed_batch(&[(5, 0), (2, 1), (9, 3)]).unwrap();
        // Same state → same checkpoint, regardless of internal table layout.
        assert_eq!(s.checkpoint(), s.checkpoint());
        let mut resumed = IngestSession::restore(&s.checkpoint(), EpfisConfig::default());
        // Keys 5 and 2 are closed runs; restarting one must still fail.
        assert!(resumed.feed(5, 4).is_err());
        // The open run for key 9 continues.
        resumed.feed(9, 4).unwrap();
        assert_eq!(resumed.records(), 4);
        assert_eq!(resumed.keys(), 3);
    }

    #[test]
    fn empty_commit_is_an_error_and_abort_reports_drops() {
        let s = IngestSession::new("ix".into(), EpfisConfig::default(), None);
        assert!(s.commit().is_err());
        let mut s = IngestSession::new("ix".into(), EpfisConfig::default(), None);
        s.feed(1, 0).unwrap();
        assert_eq!(s.abort(), ("ix".to_string(), 1));
    }
}
