//! The estimator-accuracy tracker: observed-vs-predicted drift detection.
//!
//! EPFIS serves *estimates*; the `OBSERVE` command closes the loop by
//! reporting what a scan actually fetched. For each observation the server
//! computes the estimate it would serve right now from the current catalog
//! snapshot, and this module maintains per-entry sliding-window error
//! statistics: a signed relative-error window (median/mean), a bias EWMA,
//! a signed-error histogram, and observation counts. When the bias EWMA
//! crosses `drift_threshold` (with enough observations to mean something)
//! the entry's `stale` flag flips — the signal the `DRIFT` command, the
//! `epfis_accuracy_*` metric families, and the `drift_detected` event all
//! surface, and the hook a future auto-refresh policy subscribes to.
//!
//! Concurrency: the tracker is read-mostly lock-light. A `RwLock` guards
//! only the name → entry map (taken for read on every observation, for
//! write only when a new entry appears); each entry's statistics sit behind
//! their own `Mutex`, so observations against different entries never
//! contend and the estimate-serving path is untouched.
//!
//! Error convention: `rel_err = (actual - estimate) / max(actual, 1)`.
//! Positive error means the estimator *undershot* (the scan fetched more
//! than predicted — the dangerous direction for an optimizer), negative
//! means it overshot. Stats going stale under inserts drive the error
//! positive, which is exactly the paper's staleness experiment.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Signed relative-error histogram bin edges. Bin `i` counts errors in
/// `[EDGES[i-1], EDGES[i])`; the first bin is `< EDGES[0]`, the last is
/// `>= EDGES[last]`, for [`HIST_BINS`] bins total.
pub const HIST_EDGES: [f64; 10] = [-1.0, -0.5, -0.25, -0.1, -0.02, 0.02, 0.1, 0.25, 0.5, 1.0];
/// Number of histogram bins ([`HIST_EDGES`] plus the two open ends).
pub const HIST_BINS: usize = HIST_EDGES.len() + 1;

fn hist_bin(err: f64) -> usize {
    HIST_EDGES
        .iter()
        .position(|&e| err < e)
        .unwrap_or(HIST_EDGES.len())
}

/// Tracker tuning knobs (all have serving-ready defaults).
#[derive(Debug, Clone)]
pub struct AccuracyConfig {
    /// `|bias EWMA|` above this flips an entry's `stale` flag
    /// (`--drift-threshold`).
    pub drift_threshold: f64,
    /// Sliding-window capacity (signed relative errors kept per entry).
    pub window: usize,
    /// EWMA smoothing factor for the bias estimate.
    pub ewma_alpha: f64,
    /// Observations (since the last epoch change) required before the stale
    /// flag may flip — a couple of noisy scans must not page an operator.
    pub min_observations: u64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            drift_threshold: 0.25,
            window: 256,
            ewma_alpha: 0.1,
            min_observations: 8,
        }
    }
}

/// Per-entry accuracy state (behind the entry's own mutex).
#[derive(Debug)]
struct EntryAccuracy {
    /// Catalog epoch the window was accumulated against. A re-ANALYZE
    /// publishes a new epoch; fresh statistics deserve a fresh verdict, so
    /// the window, EWMA, and stale flag reset.
    epoch: u64,
    /// Observations since the last reset.
    count: u64,
    /// Sliding window of signed relative errors, oldest first.
    window: VecDeque<f64>,
    /// Exponentially-weighted bias estimate (signed).
    bias_ewma: f64,
    /// Whether the EWMA has been seeded by a first observation.
    seeded: bool,
    /// Signed-error histogram over the same resets as the window.
    hist: [u64; HIST_BINS],
    stale: bool,
}

impl EntryAccuracy {
    fn new(epoch: u64) -> Self {
        EntryAccuracy {
            epoch,
            count: 0,
            window: VecDeque::new(),
            bias_ewma: 0.0,
            seeded: false,
            hist: [0; HIST_BINS],
            stale: false,
        }
    }

    fn reset(&mut self, epoch: u64) {
        *self = EntryAccuracy::new(epoch);
    }
}

/// What one observation did to the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Signed relative error of this observation.
    pub rel_err: f64,
    /// The entry's stale flag after this observation.
    pub stale: bool,
    /// Whether this observation flipped the flag false → true (the moment
    /// the `drift_detected` event fires).
    pub drift_detected: bool,
}

/// One entry's rendered accuracy summary (what `DRIFT` serves).
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySummary {
    /// Entry name.
    pub name: String,
    /// Catalog epoch the statistics were accumulated against.
    pub epoch: u64,
    /// Observations since the last reset.
    pub observations: u64,
    /// Live window occupancy.
    pub window: usize,
    /// Median signed relative error over the window (0 when empty).
    pub median_err: f64,
    /// Mean signed relative error over the window (0 when empty).
    pub mean_err: f64,
    /// Bias EWMA (signed).
    pub bias_ewma: f64,
    /// Stale flag.
    pub stale: bool,
    /// Signed-error histogram counts ([`HIST_BINS`] bins).
    pub hist: [u64; HIST_BINS],
}

impl EntrySummary {
    /// Renders the summary as one `DRIFT` data line. The format round-trips
    /// through [`parse_drift_line`] (property-tested).
    pub fn render(&self) -> String {
        let mut hist = String::new();
        for (i, c) in self.hist.iter().enumerate() {
            if i > 0 {
                hist.push(',');
            }
            hist.push_str(&c.to_string());
        }
        format!(
            "drift {} epoch={} observations={} window={} median_err={} mean_err={} \
             bias_ewma={} stale={} hist={}",
            self.name,
            self.epoch,
            self.observations,
            self.window,
            self.median_err,
            self.mean_err,
            self.bias_ewma,
            if self.stale { 1 } else { 0 },
            hist
        )
    }
}

/// Parses one `DRIFT` data line back into an [`EntrySummary`] — the
/// client-side decoder `epfis drift` renders from, and the round-trip
/// anchor for the wire format.
pub fn parse_drift_line(line: &str) -> Result<EntrySummary, String> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some("drift") {
        return Err(format!("not a drift line: {line:?}"));
    }
    let name = toks
        .next()
        .ok_or("drift line missing entry name")?
        .to_string();
    let mut summary = EntrySummary {
        name,
        epoch: 0,
        observations: 0,
        window: 0,
        median_err: 0.0,
        mean_err: 0.0,
        bias_ewma: 0.0,
        stale: false,
        hist: [0; HIST_BINS],
    };
    let mut seen = 0u32;
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad drift field {tok:?}"))?;
        let parse_f =
            || -> Result<f64, String> { value.parse().map_err(|e| format!("bad {key}: {e}")) };
        match key {
            "epoch" => summary.epoch = value.parse().map_err(|e| format!("bad epoch: {e}"))?,
            "observations" => {
                summary.observations = value
                    .parse()
                    .map_err(|e| format!("bad observations: {e}"))?;
            }
            "window" => summary.window = value.parse().map_err(|e| format!("bad window: {e}"))?,
            "median_err" => summary.median_err = parse_f()?,
            "mean_err" => summary.mean_err = parse_f()?,
            "bias_ewma" => summary.bias_ewma = parse_f()?,
            "stale" => {
                summary.stale = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad stale flag {other:?}")),
                };
            }
            "hist" => {
                let counts: Vec<u64> = value
                    .split(',')
                    .map(|c| c.parse().map_err(|e| format!("bad hist count: {e}")))
                    .collect::<Result<_, _>>()?;
                if counts.len() != HIST_BINS {
                    return Err(format!(
                        "hist has {} bins, expected {HIST_BINS}",
                        counts.len()
                    ));
                }
                summary.hist.copy_from_slice(&counts);
            }
            other => return Err(format!("unknown drift field {other:?}")),
        }
        seen += 1;
    }
    if seen != 8 {
        return Err(format!("drift line has {seen} fields, expected 8"));
    }
    Ok(summary)
}

/// The lock-light accuracy tracker (see the module docs).
#[derive(Debug, Default)]
pub struct AccuracyTracker {
    config: AccuracyConfig,
    entries: RwLock<HashMap<String, Arc<Mutex<EntryAccuracy>>>>,
    observations_total: AtomicU64,
    drift_detected_total: AtomicU64,
}

impl AccuracyTracker {
    /// A tracker with the given knobs.
    pub fn new(config: AccuracyConfig) -> Self {
        AccuracyTracker {
            config,
            entries: RwLock::new(HashMap::new()),
            observations_total: AtomicU64::new(0),
            drift_detected_total: AtomicU64::new(0),
        }
    }

    /// The configured drift threshold.
    pub fn drift_threshold(&self) -> f64 {
        self.config.drift_threshold
    }

    /// Total observations ever recorded (across epochs and entries).
    pub fn observations_total(&self) -> u64 {
        self.observations_total.load(Ordering::Relaxed)
    }

    /// Total false → true stale transitions ever detected.
    pub fn drift_detected_total(&self) -> u64 {
        self.drift_detected_total.load(Ordering::Relaxed)
    }

    /// Entries currently flagged stale.
    pub fn stale_entries(&self) -> u64 {
        let entries = self.entries.read().expect("accuracy map poisoned");
        entries
            .values()
            .filter(|e| e.lock().expect("entry poisoned").stale)
            .count() as u64
    }

    /// Entries with any accuracy state.
    pub fn tracked_entries(&self) -> u64 {
        self.entries.read().expect("accuracy map poisoned").len() as u64
    }

    fn entry(&self, name: &str, epoch: u64) -> Arc<Mutex<EntryAccuracy>> {
        if let Some(e) = self
            .entries
            .read()
            .expect("accuracy map poisoned")
            .get(name)
        {
            return Arc::clone(e);
        }
        let mut entries = self.entries.write().expect("accuracy map poisoned");
        Arc::clone(
            entries
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(EntryAccuracy::new(epoch)))),
        )
    }

    /// Records one observation: `estimate` is what the server would serve
    /// right now (from the `epoch` snapshot), `actual` what the scan
    /// fetched. Returns the signed error and what happened to the stale
    /// flag. An epoch change (re-ANALYZE since the window accumulated)
    /// resets the entry's state first.
    pub fn observe(&self, name: &str, epoch: u64, estimate: f64, actual: u64) -> Observation {
        let rel_err = (actual as f64 - estimate) / (actual.max(1) as f64);
        self.observations_total.fetch_add(1, Ordering::Relaxed);
        let entry = self.entry(name, epoch);
        let mut e = entry.lock().expect("entry poisoned");
        if e.epoch != epoch {
            e.reset(epoch);
        }
        e.count += 1;
        if e.window.len() == self.config.window.max(1) {
            e.window.pop_front();
        }
        e.window.push_back(rel_err);
        e.hist[hist_bin(rel_err)] += 1;
        if e.seeded {
            e.bias_ewma += self.config.ewma_alpha * (rel_err - e.bias_ewma);
        } else {
            e.bias_ewma = rel_err;
            e.seeded = true;
        }
        let was_stale = e.stale;
        e.stale = e.count >= self.config.min_observations
            && e.bias_ewma.abs() > self.config.drift_threshold;
        let drift_detected = e.stale && !was_stale;
        if drift_detected {
            self.drift_detected_total.fetch_add(1, Ordering::Relaxed);
        }
        Observation {
            rel_err,
            stale: e.stale,
            drift_detected,
        }
    }

    /// One entry's summary, if it has any state.
    pub fn summary(&self, name: &str) -> Option<EntrySummary> {
        let entry = {
            let entries = self.entries.read().expect("accuracy map poisoned");
            Arc::clone(entries.get(name)?)
        };
        let e = entry.lock().expect("entry poisoned");
        Some(summarize(name, &e))
    }

    /// Every tracked entry's summary, sorted by name.
    pub fn summaries(&self) -> Vec<EntrySummary> {
        let entries: Vec<(String, Arc<Mutex<EntryAccuracy>>)> = {
            let map = self.entries.read().expect("accuracy map poisoned");
            map.iter()
                .map(|(n, e)| (n.clone(), Arc::clone(e)))
                .collect()
        };
        let mut out: Vec<EntrySummary> = entries
            .iter()
            .map(|(name, entry)| summarize(name, &entry.lock().expect("entry poisoned")))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

fn summarize(name: &str, e: &EntryAccuracy) -> EntrySummary {
    let mut sorted: Vec<f64> = e.window.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = if sorted.is_empty() {
        0.0
    } else {
        sorted[sorted.len() / 2]
    };
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    EntrySummary {
        name: name.to_string(),
        epoch: e.epoch,
        observations: e.count,
        window: e.window.len(),
        median_err: median,
        mean_err: mean,
        bias_ewma: e.bias_ewma,
        stale: e.stale,
        hist: e.hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_is_signed_and_actual_anchored() {
        let t = AccuracyTracker::new(AccuracyConfig::default());
        // Undershoot: actual 200, estimate 100 → +0.5.
        let o = t.observe("ix", 1, 100.0, 200);
        assert!((o.rel_err - 0.5).abs() < 1e-12);
        // Overshoot: actual 100, estimate 150 → -0.5.
        let o = t.observe("ix", 1, 150.0, 100);
        assert!((o.rel_err + 0.5).abs() < 1e-12);
        // Zero actual never divides by zero.
        let o = t.observe("ix", 1, 3.0, 0);
        assert_eq!(o.rel_err, -3.0);
        assert_eq!(t.observations_total(), 3);
    }

    #[test]
    fn stale_needs_min_observations_and_sustained_bias() {
        let config = AccuracyConfig {
            drift_threshold: 0.25,
            min_observations: 8,
            ..AccuracyConfig::default()
        };
        let t = AccuracyTracker::new(config);
        // 7 wildly-off observations: under the floor, never stale.
        for _ in 0..7 {
            let o = t.observe("ix", 1, 100.0, 1000);
            assert!(!o.stale);
        }
        // The 8th flips it, exactly once.
        let o = t.observe("ix", 1, 100.0, 1000);
        assert!(o.stale && o.drift_detected);
        let o = t.observe("ix", 1, 100.0, 1000);
        assert!(o.stale && !o.drift_detected);
        assert_eq!(t.drift_detected_total(), 1);
        assert_eq!(t.stale_entries(), 1);
    }

    #[test]
    fn accurate_estimates_never_flip_the_flag() {
        let t = AccuracyTracker::new(AccuracyConfig::default());
        for i in 0..100u64 {
            // Small alternating noise around truth.
            let actual = 1000 + (i % 2) * 20;
            let o = t.observe("ix", 1, 1010.0, actual);
            assert!(!o.stale, "flipped at observation {i}");
        }
        let s = t.summary("ix").unwrap();
        assert!(s.bias_ewma.abs() < 0.05, "{}", s.bias_ewma);
        assert_eq!(s.observations, 100);
    }

    #[test]
    fn epoch_change_resets_the_window_and_flag() {
        let config = AccuracyConfig {
            min_observations: 2,
            ..AccuracyConfig::default()
        };
        let t = AccuracyTracker::new(config);
        for _ in 0..4 {
            t.observe("ix", 1, 10.0, 1000);
        }
        assert!(t.summary("ix").unwrap().stale);
        // Re-ANALYZE publishes epoch 2: fresh stats, fresh verdict.
        let o = t.observe("ix", 2, 995.0, 1000);
        assert!(!o.stale);
        let s = t.summary("ix").unwrap();
        assert_eq!((s.epoch, s.observations, s.window), (2, 1, 1));
        assert!(!s.stale);
        // The all-time counters keep counting across resets.
        assert_eq!(t.observations_total(), 5);
        assert_eq!(t.drift_detected_total(), 1);
    }

    #[test]
    fn window_is_bounded() {
        let config = AccuracyConfig {
            window: 16,
            ..AccuracyConfig::default()
        };
        let t = AccuracyTracker::new(config);
        for _ in 0..100 {
            t.observe("ix", 1, 50.0, 50);
        }
        let s = t.summary("ix").unwrap();
        assert_eq!(s.window, 16);
        assert_eq!(s.observations, 100);
        assert_eq!(s.hist.iter().sum::<u64>(), 100);
    }

    #[test]
    fn drift_line_round_trips() {
        let t = AccuracyTracker::new(AccuracyConfig::default());
        t.observe("orders.ck", 3, 80.0, 100);
        t.observe("orders.ck", 3, 120.0, 100);
        let s = t.summary("orders.ck").unwrap();
        let line = s.render();
        assert_eq!(parse_drift_line(&line).unwrap(), s);
        // Unknown entries have no summary; summaries sort by name.
        assert!(t.summary("nope").is_none());
        t.observe("a.first", 1, 1.0, 1);
        let names: Vec<String> = t.summaries().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a.first".to_string(), "orders.ck".to_string()]);
    }

    #[test]
    fn parse_drift_line_rejects_malformed_lines() {
        assert!(parse_drift_line("").is_err());
        assert!(parse_drift_line("notdrift ix epoch=1").is_err());
        assert!(parse_drift_line("drift").is_err());
        assert!(parse_drift_line("drift ix").is_err());
        assert!(parse_drift_line("drift ix epoch=x").is_err());
        assert!(parse_drift_line("drift ix epoch=1 bogus=2").is_err());
        let t = AccuracyTracker::new(AccuracyConfig::default());
        t.observe("ix", 1, 1.0, 1);
        let line = t.summary("ix").unwrap().render();
        assert!(parse_drift_line(&line.replace("stale=0", "stale=maybe")).is_err());
        assert!(parse_drift_line(&line.replace("hist=", "hist=9,")).is_err());
    }

    #[test]
    fn hist_bins_cover_the_line() {
        assert_eq!(hist_bin(-10.0), 0);
        assert_eq!(hist_bin(-1.0), 1);
        assert_eq!(hist_bin(0.0), 5);
        assert_eq!(hist_bin(0.02), 6);
        assert_eq!(hist_bin(10.0), HIST_BINS - 1);
    }
}
