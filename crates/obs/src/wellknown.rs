//! Well-known instrument families for shared subsystems.
//!
//! The stack analyzer feeding ingest sessions and the write-ahead log are
//! library code: they have no idea whether a server, a bench binary, or a
//! test is driving them, and must not depend on `epfis-server`. They therefore publish into process-global instruments
//! registered here in [`Registry::global`]; anything that serves
//! `/metrics` renders the global registry alongside its own.
//!
//! Accessors are `OnceLock`-cached so a hot caller pays one initialized
//! check, not a registry lookup.

use std::sync::{Arc, OnceLock};

use crate::metrics::{Counter, Gauge};
use crate::registry::Registry;

/// Stack-analyzer / ingest instruments.
pub struct AnalyzerMetrics {
    /// Page references processed (`epfis_analyzer_refs_total`). Publishers
    /// add per batch, not per reference, to keep the analyzer loop clean.
    pub refs: Arc<Counter>,
    /// Bennett–Kruskal time-axis compactions (`epfis_analyzer_compactions_total`).
    pub compactions: Arc<Counter>,
    /// ANALYZE sessions opened so far (`epfis_analyzer_sessions_total`).
    pub sessions: Arc<Counter>,
    /// ANALYZE sessions currently open (`epfis_analyzer_active_sessions`).
    pub active_sessions: Arc<Gauge>,
}

/// The process-global analyzer instruments.
pub fn analyzer() -> &'static AnalyzerMetrics {
    static METRICS: OnceLock<AnalyzerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        AnalyzerMetrics {
            refs: r.counter(
                "epfis_analyzer_refs_total",
                "Page references fed into incremental stack analyzers",
                &[],
            ),
            compactions: r.counter(
                "epfis_analyzer_compactions_total",
                "Time-axis compactions performed by incremental stack analyzers",
                &[],
            ),
            sessions: r.counter(
                "epfis_analyzer_sessions_total",
                "ANALYZE ingest sessions opened",
                &[],
            ),
            active_sessions: r.gauge(
                "epfis_analyzer_active_sessions",
                "ANALYZE ingest sessions currently open",
                &[],
            ),
        }
    })
}

/// Write-ahead-log instruments, published by `epfis-wal` (appends, bytes,
/// fsyncs, replay) and `epfis-server` (recovery outcome).
pub struct WalMetrics {
    /// Records appended (`epfis_wal_appends_total`).
    pub appends: Arc<Counter>,
    /// Bytes appended, framing included (`epfis_wal_bytes_total`).
    pub bytes: Arc<Counter>,
    /// Explicit data syncs issued (`epfis_wal_fsyncs_total`).
    pub fsyncs: Arc<Counter>,
    /// Records recovered during replay (`epfis_wal_replay_records_total`).
    pub replay_records: Arc<Counter>,
    /// Microseconds the last startup replay took
    /// (`epfis_wal_replay_duration_us`).
    pub replay_duration_us: Arc<Gauge>,
    /// In-flight sessions recovered and parked for `ANALYZE RESUME`
    /// (`epfis_wal_recovered_sessions_total`).
    pub recovered_sessions: Arc<Counter>,
    /// Failed explicit data syncs, foreground or on the background
    /// flusher's duplicate fd (`epfis_wal_fsync_errors_total`).
    pub fsync_errors: Arc<Counter>,
    /// Durability failures that poisoned a writer
    /// (`epfis_wal_poisonings_total`).
    pub poisonings: Arc<Counter>,
    /// Successful `Wal::heal` recoveries (`epfis_wal_heals_total`).
    pub heals: Arc<Counter>,
}

/// The process-global WAL instruments.
pub fn wal() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WalMetrics::register(Registry::global()))
}

/// WAL instruments that no surface renders, for a log whose owner reports
/// it in its own series (the catalog log), so its traffic stays off
/// `epfis_wal_*`.
pub fn unpublished_wal() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WalMetrics::register(&Registry::new()))
}

impl WalMetrics {
    fn register(r: &Registry) -> WalMetrics {
        WalMetrics {
            appends: r.counter(
                "epfis_wal_appends_total",
                "Records appended to write-ahead logs in this process",
                &[],
            ),
            bytes: r.counter(
                "epfis_wal_bytes_total",
                "Bytes appended to write-ahead logs, record framing included",
                &[],
            ),
            fsyncs: r.counter(
                "epfis_wal_fsyncs_total",
                "Explicit fdatasync calls issued by write-ahead logs",
                &[],
            ),
            replay_records: r.counter(
                "epfis_wal_replay_records_total",
                "Valid records recovered during write-ahead-log replay",
                &[],
            ),
            replay_duration_us: r.gauge(
                "epfis_wal_replay_duration_us",
                "Duration of the most recent startup WAL replay, in microseconds",
                &[],
            ),
            recovered_sessions: r.counter(
                "epfis_wal_recovered_sessions_total",
                "In-flight ANALYZE sessions recovered from the WAL and parked for resume",
                &[],
            ),
            fsync_errors: r.counter(
                "epfis_wal_fsync_errors_total",
                "Failed explicit data syncs on write-ahead logs, foreground or background",
                &[],
            ),
            poisonings: r.counter(
                "epfis_wal_poisonings_total",
                "Durability failures that poisoned a write-ahead-log writer",
                &[],
            ),
            heals: r.counter(
                "epfis_wal_heals_total",
                "Successful write-ahead-log heal recoveries after poisoning",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wellknown_families_register_once_and_render() {
        let a = analyzer();
        let b = analyzer();
        a.refs.add(10);
        b.refs.add(10);
        assert!(a.refs.get() >= 20);
        analyzer().active_sessions.add(1);
        analyzer().active_sessions.sub(1);
        wal().appends.inc();
        wal().replay_duration_us.set(42);
        let text = Registry::global().render_prometheus();
        for family in [
            "epfis_analyzer_refs_total",
            "epfis_analyzer_compactions_total",
            "epfis_analyzer_sessions_total",
            "epfis_analyzer_active_sessions 0",
            "epfis_wal_appends_total",
            "epfis_wal_bytes_total",
            "epfis_wal_fsyncs_total",
            "epfis_wal_replay_records_total",
            "epfis_wal_replay_duration_us 42",
            "epfis_wal_recovered_sessions_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
