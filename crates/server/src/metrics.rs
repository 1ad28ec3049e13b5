//! Built-in observability: per-command request counters and latency
//! histograms, plus the serving layer's governance counters.
//!
//! The instruments themselves live in `epfis-obs`: every counter and
//! histogram here is registered in a per-server [`Registry`], and the
//! server renders that registry (then [`Registry::global`]) twice — as the
//! Prometheus exposition behind `/metrics`, and as the sample lines the
//! `STATS` command answers with. There is no second list of fields to keep
//! in step: a series added here shows up on both surfaces. Latencies land
//! in `epfis-obs`'s power-of-two microsecond buckets (bucket `i` holds
//! values of bit length `i`, with zero in bucket 0), so recording is a
//! couple of atomic increments and quantiles are read back as the upper
//! bound of the bucket containing the requested rank. These are plain log2
//! buckets, one per octave with no sub-buckets, so a quantile is a power
//! of two clamped to the observed maximum: a p50 between 1025 and
//! 2048 µs reads 2048, and two runs inside one octave read the same.
//! Nothing keeps per-request samples.

use crate::slowlog::Phases;
use epfis_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// The phase-histogram family every command label registers under.
const PHASE_FAMILY: &str = "epfis_server_phase_duration_us";
const PHASE_HELP: &str = "Per-request phase time in microseconds, by protocol command and phase";

/// One phase's batch-local aggregate: count/sum/max plus the touched
/// power-of-two buckets, mergeable into the shared [`Histogram`] with
/// `record_aggregated`. Request batches are phase-homogeneous (sub-µs
/// phases all land in bucket 0), so `buckets` stays one or two entries.
#[derive(Default)]
struct PhaseAcc {
    count: u64,
    sum: u64,
    max: u64,
    buckets: Vec<(usize, u64)>,
}

impl PhaseAcc {
    #[inline]
    fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
        let i = Histogram::bucket_index(v);
        match self.buckets.iter_mut().find(|(j, _)| *j == i) {
            Some((_, n)) => *n += 1,
            None => self.buckets.push((i, 1)),
        }
    }

    fn flush_into(&mut self, h: &Histogram) {
        h.record_aggregated(self.count, self.sum, self.max, &self.buckets);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.buckets.clear();
    }
}

/// Connection-local phase aggregation. Recording a request's phase
/// breakdown straight into the shared histograms costs ~12 contended
/// atomic RMWs per request — measurable at binary-pipeline saturation
/// rates. Instead each connection accumulates phases here (plain local
/// arithmetic) while draining a batch of buffered requests, and
/// [`Metrics::flush_phases`] merges the whole batch in a handful of RMWs
/// per touched label. Label entries persist zeroed across batches, so the
/// steady state allocates nothing. The WAL phase only counts requests
/// that actually touched the WAL, so its `_count` reads as "requests with
/// WAL time", not "all requests".
pub(crate) struct PhaseBatch {
    /// `(label, [queue, parse, execute, wal])`, linear-scanned — a batch
    /// touches a handful of distinct command labels at most.
    entries: Vec<(&'static str, [PhaseAcc; 4])>,
    dirty: bool,
}

impl PhaseBatch {
    pub(crate) fn new() -> Self {
        PhaseBatch {
            entries: Vec::new(),
            dirty: false,
        }
    }

    /// Folds one request's phase breakdown into the batch.
    #[inline]
    pub(crate) fn add(&mut self, label: &'static str, p: &Phases) {
        self.dirty = true;
        let idx = match self.entries.iter().position(|(l, _)| *l == label) {
            Some(i) => i,
            None => {
                self.entries.push((label, Default::default()));
                self.entries.len() - 1
            }
        };
        let accs = &mut self.entries[idx].1;
        accs[0].add(p.queue_us);
        accs[1].add(p.parse_us);
        accs[2].add(p.execute_us);
        if p.wal_us > 0 {
            accs[3].add(p.wal_us);
        }
    }
}

/// Counters and a latency histogram for one command, backed by registered
/// `epfis-obs` instruments (`epfis_server_requests_total`,
/// `epfis_server_request_errors_total`, `epfis_server_request_duration_us`,
/// all labeled `command="..."`), plus the per-phase attribution histograms
/// (`epfis_server_phase_duration_us`, labeled `command=` and
/// `phase="queue"|"parse"|"execute"|"wal"`).
struct CommandStats {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
    phase_queue: Arc<Histogram>,
    phase_parse: Arc<Histogram>,
    phase_execute: Arc<Histogram>,
    phase_wal: Arc<Histogram>,
}

impl CommandStats {
    fn new(registry: &Registry, label: &'static str) -> Self {
        let labels = [("command", label)];
        let phase = |p: &'static str| {
            registry.histogram(
                PHASE_FAMILY,
                PHASE_HELP,
                &[("command", label), ("phase", p)],
            )
        };
        CommandStats {
            requests: registry.counter(
                "epfis_server_requests_total",
                "Requests served, by protocol command",
                &labels,
            ),
            errors: registry.counter(
                "epfis_server_request_errors_total",
                "Requests answered with an ERR response, by protocol command",
                &labels,
            ),
            latency: registry.histogram(
                "epfis_server_request_duration_us",
                "Request service time in microseconds, by protocol command",
                &labels,
            ),
            phase_queue: phase("queue"),
            phase_parse: phase("parse"),
            phase_execute: phase("execute"),
            phase_wal: phase("wal"),
        }
    }

    fn record(&self, micros: u64, is_error: bool) {
        self.requests.inc();
        if is_error {
            self.errors.inc();
        }
        self.latency.record(micros);
    }
}

/// Server-wide metrics: one `CommandStats` per protocol command (plus an
/// `INVALID` slot for unparseable lines), connection counters, and the
/// governance counters the hardening layer maintains. Everything is
/// registered in [`Metrics::registry`]; serving code bumps the counters
/// directly (`metrics.limit_rejections.inc()`), and `/metrics` and `STATS`
/// both render them from the registry.
pub struct Metrics {
    registry: Arc<Registry>,
    commands: std::collections::BTreeMap<&'static str, CommandStats>,
    /// Connections admitted (accepted and not shed).
    pub(crate) connections_opened: Arc<Counter>,
    /// Admitted connections that have finished.
    pub(crate) connections_closed: Arc<Counter>,
    /// Limit violations (over-long line, idle deadline, session reference
    /// cap) that produced an `ERR limit ...` response.
    pub(crate) limit_rejections: Arc<Counter>,
    /// Connections rejected with `SERVER_BUSY` at admission.
    pub(crate) connections_shed: Arc<Counter>,
    /// Connections that ended while an `ANALYZE` session was still open.
    pub(crate) sessions_disconnected: Arc<Counter>,
    /// Bytes read off client sockets.
    pub(crate) bytes_in: Arc<Counter>,
    /// Bytes written to client sockets.
    pub(crate) bytes_out: Arc<Counter>,
    /// Requests served over the line protocol.
    pub(crate) requests_text: Arc<Counter>,
    /// Requests served over binary framing.
    pub(crate) requests_binary: Arc<Counter>,
    /// Connections upgraded to binary framing (`HELLO BINARY`).
    pub(crate) binary_upgrades: Arc<Counter>,
    /// Transitions into degraded (read-only) mode.
    pub(crate) degraded_entries: Arc<Counter>,
}

impl Metrics {
    /// Creates a metrics registry with a slot per known command label.
    pub fn new(labels: &[&'static str]) -> Self {
        let registry = Arc::new(Registry::new());
        let commands = labels
            .iter()
            .map(|&l| (l, CommandStats::new(&registry, l)))
            .collect();
        let connections_opened = registry.counter(
            "epfis_server_connections_total",
            "Connections admitted (accepted and not shed)",
            &[],
        );
        let connections_closed = registry.counter(
            "epfis_server_connections_closed_total",
            "Admitted connections that have finished",
            &[],
        );
        // Active = opened − closed, computed at render time from the two
        // counters, so the gauge can never drift from them.
        let (opened, closed) = (
            Arc::clone(&connections_opened),
            Arc::clone(&connections_closed),
        );
        registry.gauge_fn(
            "epfis_server_connections_active",
            "Connections currently being served",
            &[],
            move || opened.get().saturating_sub(closed.get()) as f64,
        );
        Metrics {
            commands,
            connections_opened,
            connections_closed,
            limit_rejections: registry.counter(
                "epfis_server_limit_rejections_total",
                "Requests rejected by a resource limit (line length, idle deadline, session refs)",
                &[],
            ),
            connections_shed: registry.counter(
                "epfis_server_connections_shed_total",
                "Connections shed with SERVER_BUSY at admission",
                &[],
            ),
            sessions_disconnected: registry.counter(
                "epfis_server_sessions_disconnected_total",
                "Connections that ended with an ANALYZE session still open",
                &[],
            ),
            bytes_in: registry.counter(
                "epfis_server_bytes_in_total",
                "Bytes read off client sockets",
                &[],
            ),
            bytes_out: registry.counter(
                "epfis_server_bytes_out_total",
                "Bytes written to client sockets",
                &[],
            ),
            requests_text: registry.counter(
                "epfis_server_protocol_requests_total",
                "Requests served, by wire protocol",
                &[("protocol", "text")],
            ),
            requests_binary: registry.counter(
                "epfis_server_protocol_requests_total",
                "Requests served, by wire protocol",
                &[("protocol", "binary")],
            ),
            binary_upgrades: registry.counter(
                "epfis_server_binary_upgrades_total",
                "Connections upgraded to binary framing via HELLO BINARY",
                &[],
            ),
            degraded_entries: registry.counter(
                "epfis_server_degraded_entries_total",
                "Transitions into degraded (read-only) mode after a durability failure",
                &[],
            ),
            registry,
        }
    }

    /// The per-server instrument registry backing these metrics; `serve`
    /// adds its own gauges (uptime, catalog epoch), and `/metrics` and
    /// `STATS` render it followed by [`Registry::global`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one request outcome under `label`.
    ///
    /// # Panics
    /// Panics on a label that was not registered at construction — command
    /// labels are static, so an unknown one is a programming error.
    pub fn record(&self, label: &str, micros: u64, is_error: bool) {
        self.commands
            .get(label)
            .unwrap_or_else(|| panic!("unregistered metrics label {label:?}"))
            .record(micros, is_error);
    }

    /// Merges a connection-local [`PhaseBatch`] into the
    /// `epfis_server_phase_duration_us` histograms and resets it. Called
    /// once per connection wakeup, not per request — the phase attribution
    /// stays always-on while the per-request cost is plain local
    /// arithmetic (see [`PhaseBatch`]).
    ///
    /// # Panics
    /// Panics on an unregistered label, like [`Metrics::record`].
    pub(crate) fn flush_phases(&self, batch: &mut PhaseBatch) {
        if !batch.dirty {
            return;
        }
        batch.dirty = false;
        for (label, accs) in &mut batch.entries {
            let stats = self
                .commands
                .get(*label)
                .unwrap_or_else(|| panic!("unregistered metrics label {label:?}"));
            accs[0].flush_into(&stats.phase_queue);
            accs[1].flush_into(&stats.phase_parse);
            accs[2].flush_into(&stats.phase_execute);
            accs[3].flush_into(&stats.phase_wal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis_obs::series_value;

    /// The registry's sample lines, as `STATS` serves them.
    fn samples(m: &Metrics) -> String {
        let mut out = String::new();
        m.registry().render_samples_into(&mut out);
        out
    }

    #[test]
    fn counts_errors_and_latency_summary() {
        let m = Metrics::new(&["ESTIMATE", "SHOW"]);
        m.record("ESTIMATE", 10, false);
        m.record("ESTIMATE", 1000, true);
        m.record("ESTIMATE", 20, false);
        let text = samples(&m);
        let value = |series: &str| {
            series_value(&text, series).unwrap_or_else(|| panic!("{series}:\n{text}"))
        };
        assert_eq!(
            value("epfis_server_requests_total{command=\"ESTIMATE\"}"),
            3.0
        );
        assert_eq!(
            value("epfis_server_request_errors_total{command=\"ESTIMATE\"}"),
            1.0
        );
        assert_eq!(
            value("epfis_server_request_duration_us_sum{command=\"ESTIMATE\"}"),
            1030.0
        );
        // p50 falls in the bucket holding the 2nd-smallest sample (~20 µs).
        let p50 = value("epfis_server_request_duration_us{command=\"ESTIMATE\",quantile=\"0.5\"}");
        assert!(p50 <= 32.0, "{p50}");
        assert_eq!(
            value("epfis_server_request_duration_us{command=\"ESTIMATE\",quantile=\"1\"}"),
            1000.0
        );
        assert_eq!(value("epfis_server_requests_total{command=\"SHOW\"}"), 0.0);
    }

    #[test]
    fn render_skips_unused_commands() {
        let m = Metrics::new(&["A", "B"]);
        m.record("B", 5, false);
        let text = samples(&m);
        // Counters always render; an unused command's latency histogram
        // renders nothing.
        assert!(
            text.contains("epfis_server_requests_total{command=\"A\"} 0\n"),
            "{text}"
        );
        assert!(text.contains("epfis_server_request_duration_us_count{command=\"B\"} 1\n"));
        assert!(!text.contains("epfis_server_request_duration_us_count{command=\"A\"}"));
    }

    #[test]
    fn connection_counters_balance() {
        let m = Metrics::new(&[]);
        m.connections_opened.inc();
        m.connections_opened.inc();
        m.connections_closed.inc();
        let text = samples(&m);
        assert_eq!(
            series_value(&text, "epfis_server_connections_total"),
            Some(2.0)
        );
        assert_eq!(
            series_value(&text, "epfis_server_connections_active"),
            Some(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_label_panics() {
        Metrics::new(&["A"]).record("NOPE", 1, false);
    }

    #[test]
    fn phase_histograms_export_per_command_and_phase() {
        let m = Metrics::new(&["ESTIMATE", "PAGE"]);
        let phases = Phases {
            queue_us: 1,
            parse_us: 2,
            execute_us: 3,
            wal_us: 0,
        };
        let mut batch = PhaseBatch::new();
        m.record("ESTIMATE", 6, false);
        batch.add("ESTIMATE", &phases);
        m.record("PAGE", 100, false);
        batch.add(
            "PAGE",
            &Phases {
                queue_us: 0,
                parse_us: 10,
                execute_us: 90,
                wal_us: 70,
            },
        );
        m.flush_phases(&mut batch);
        // A drained batch flushes to nothing; entries persist zeroed.
        m.flush_phases(&mut batch);
        batch.add("PAGE", &phases);
        m.flush_phases(&mut batch);
        let text = m.registry().render_prometheus();
        for expect in [
            "epfis_server_phase_duration_us_count{command=\"ESTIMATE\",phase=\"queue\"} 1",
            "epfis_server_phase_duration_us_count{command=\"ESTIMATE\",phase=\"execute\"} 1",
            // wal_us of 0 leaves the WAL series empty: its count reads as
            // "requests that touched the WAL".
            "epfis_server_phase_duration_us_count{command=\"ESTIMATE\",phase=\"wal\"} 0",
            "epfis_server_phase_duration_us_count{command=\"PAGE\",phase=\"wal\"} 1",
            "epfis_server_phase_duration_us_sum{command=\"PAGE\",phase=\"wal\"} 70",
        ] {
            assert!(text.contains(expect), "missing {expect:?} in:\n{text}");
        }
    }
}
