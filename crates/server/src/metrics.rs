//! Built-in observability: per-command request counters and latency
//! histograms, rendered by the `STATS` command *and* exported to
//! Prometheus.
//!
//! The instruments themselves live in `epfis-obs`: every counter and
//! histogram here is registered in a per-server
//! [`Registry`], so one `record()` call feeds both the
//! line-protocol `STATS` rendering and the `/metrics` exposition — the two
//! views can never disagree. Latencies land in `epfis-obs`'s power-of-two
//! microsecond buckets (bucket `i` holds values of bit length `i`, with
//! zero in bucket 0), so recording is a couple of atomic increments and
//! quantiles are read back as the upper bound of the bucket containing the
//! requested rank — deliberately the same trade-off production servers make
//! (HdrHistogram-style), not per-request sample retention.

use crate::slowlog::Phases;
use epfis_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// The phase-histogram family every command label registers under.
const PHASE_FAMILY: &str = "epfis_server_phase_duration_us";
const PHASE_HELP: &str =
    "Per-request phase time in microseconds, by protocol command and phase";

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
pub struct CommandStats {
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
            registry.histogram(PHASE_FAMILY, PHASE_HELP, &[("command", label), ("phase", p)])
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

    /// Requests recorded.
    pub fn count(&self) -> u64 {
        self.requests.get()
    }

    /// Requests that produced an `ERR` response.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Worst observed latency, µs.
    pub fn max_micros(&self) -> u64 {
        self.latency.max()
    }

    /// Mean latency, µs (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.latency.mean()
    }

    /// Approximate latency quantile (`q` in `[0, 1]`), µs: the upper bound
    /// of the histogram bucket containing the rank, clamped to the observed
    /// maximum (see [`Histogram::quantile`] for the `q = 0` / `q = 1` edge
    /// semantics).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }
}

/// Server-wide metrics: one [`CommandStats`] per protocol command (plus an
/// `INVALID` slot for unparseable lines), connection counters, and the
/// governance counters the hardening layer maintains (limit rejections,
/// shed connections, mid-session disconnects, wire bytes in each
/// direction). Everything is registered in [`Metrics::registry`], so the
/// Prometheus exposition and the `STATS` command read the same atomics.
pub struct Metrics {
    registry: Arc<Registry>,
    commands: std::collections::BTreeMap<&'static str, CommandStats>,
    connections_opened: Arc<Counter>,
    connections_closed: Arc<Counter>,
    limit_rejections: Arc<Counter>,
    connections_shed: Arc<Counter>,
    sessions_disconnected: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    requests_text: Arc<Counter>,
    requests_binary: Arc<Counter>,
    binary_upgrades: Arc<Counter>,
    degraded_entries: Arc<Counter>,
}

/// Which wire format a request arrived on (`HELLO BINARY` upgrades a
/// connection from [`Protocol::Text`] to [`Protocol::Binary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// The default line protocol.
    Text,
    /// Length-prefixed binary framing v2.
    Binary,
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
        // Active = opened − closed, computed at render time from the same
        // two counters STATS reads, so the gauge can never drift from them.
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
    /// adds its own gauges (uptime, catalog epoch) and `/metrics` renders
    /// it alongside [`Registry::global`].
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

    /// Stats for one command label, if registered.
    pub fn command(&self, label: &str) -> Option<&CommandStats> {
        self.commands.get(label)
    }

    /// Marks a connection accepted.
    pub fn connection_opened(&self) {
        self.connections_opened.inc();
    }

    /// Marks a connection finished.
    pub fn connection_closed(&self) {
        self.connections_closed.inc();
    }

    /// Total connections accepted so far.
    pub fn connections_opened_total(&self) -> u64 {
        self.connections_opened.get()
    }

    /// Connections currently being served.
    pub fn connections_active(&self) -> u64 {
        self.connections_opened
            .get()
            .saturating_sub(self.connections_closed.get())
    }

    /// Marks one limit violation (over-long line, idle deadline, session
    /// reference cap) that produced an `ERR limit ...` response.
    pub fn limit_rejection(&self) {
        self.limit_rejections.inc();
    }

    /// Limit violations so far.
    pub fn limit_rejections_total(&self) -> u64 {
        self.limit_rejections.get()
    }

    /// Marks a connection rejected with `SERVER_BUSY` at admission.
    pub fn connection_shed(&self) {
        self.connections_shed.inc();
    }

    /// Connections shed with `SERVER_BUSY` so far.
    pub fn connections_shed_total(&self) -> u64 {
        self.connections_shed.get()
    }

    /// Marks a connection that ended while an `ANALYZE` session was still
    /// open (its uncommitted references were discarded).
    pub fn session_disconnected(&self) {
        self.sessions_disconnected.inc();
    }

    /// Mid-session disconnects so far.
    pub fn sessions_disconnected_total(&self) -> u64 {
        self.sessions_disconnected.get()
    }

    /// Adds `n` bytes read off client sockets.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.add(n);
    }

    /// Total bytes read off client sockets.
    pub fn bytes_in_total(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Adds `n` bytes written to client sockets.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.add(n);
    }

    /// Total bytes written to client sockets.
    pub fn bytes_out_total(&self) -> u64 {
        self.bytes_out.get()
    }

    /// Records which wire protocol served one request (in addition to its
    /// per-command [`Metrics::record`]).
    pub fn protocol_request(&self, protocol: Protocol) {
        match protocol {
            Protocol::Text => self.requests_text.inc(),
            Protocol::Binary => self.requests_binary.inc(),
        }
    }

    /// Requests served over `protocol` so far.
    pub fn protocol_requests_total(&self, protocol: Protocol) -> u64 {
        match protocol {
            Protocol::Text => self.requests_text.get(),
            Protocol::Binary => self.requests_binary.get(),
        }
    }

    /// Marks one connection upgraded to binary framing (`HELLO BINARY`).
    pub fn binary_upgrade(&self) {
        self.binary_upgrades.inc();
    }

    /// Binary upgrades so far.
    pub fn binary_upgrades_total(&self) -> u64 {
        self.binary_upgrades.get()
    }

    /// Marks one transition into degraded (read-only) mode.
    pub fn degraded_entered(&self) {
        self.degraded_entries.inc();
    }

    /// Degraded-mode transitions so far.
    pub fn degraded_entries_total(&self) -> u64 {
        self.degraded_entries.get()
    }

    /// Renders the `STATS` data lines: global counters first, then one line
    /// per command that has been used, in label order.
    pub fn render(&self, uptime_secs: u64, epoch: u64, entries: usize) -> Vec<String> {
        let mut lines = vec![
            format!("uptime_seconds {uptime_secs}"),
            format!("connections_total {}", self.connections_opened_total()),
            format!("connections_active {}", self.connections_active()),
            format!("connections_shed {}", self.connections_shed_total()),
            format!("limit_rejections {}", self.limit_rejections_total()),
            format!(
                "sessions_disconnected {}",
                self.sessions_disconnected_total()
            ),
            format!("bytes_in {}", self.bytes_in_total()),
            format!("bytes_out {}", self.bytes_out_total()),
            format!(
                "protocol_requests_text {}",
                self.protocol_requests_total(Protocol::Text)
            ),
            format!(
                "protocol_requests_binary {}",
                self.protocol_requests_total(Protocol::Binary)
            ),
            format!("binary_upgrades {}", self.binary_upgrades_total()),
            format!("catalog_epoch {epoch}"),
            format!("catalog_entries {entries}"),
        ];
        for (label, stats) in &self.commands {
            if stats.count() == 0 {
                continue;
            }
            lines.push(format!(
                "command {label} count={} errors={} mean_us={} p50_us={} p99_us={} max_us={}",
                stats.count(),
                stats.errors(),
                stats.mean_micros(),
                stats.quantile_micros(0.50),
                stats.quantile_micros(0.99),
                stats.max_micros(),
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_errors_and_latency_summary() {
        let m = Metrics::new(&["ESTIMATE", "SHOW"]);
        m.record("ESTIMATE", 10, false);
        m.record("ESTIMATE", 1000, true);
        m.record("ESTIMATE", 20, false);
        let c = m.command("ESTIMATE").unwrap();
        assert_eq!(c.count(), 3);
        assert_eq!(c.errors(), 1);
        assert_eq!(c.max_micros(), 1000);
        assert!(c.mean_micros() >= 300);
        // p50 falls in the bucket holding the 2nd-smallest sample (~20 µs).
        assert!(c.quantile_micros(0.5) <= 32, "{}", c.quantile_micros(0.5));
        assert_eq!(c.quantile_micros(1.0), 1000);
        assert_eq!(m.command("SHOW").unwrap().count(), 0);
    }

    #[test]
    fn render_skips_unused_commands() {
        let m = Metrics::new(&["A", "B"]);
        m.record("B", 5, false);
        let lines = m.render(7, 3, 2);
        assert!(lines.iter().any(|l| l == "uptime_seconds 7"));
        assert!(lines.iter().any(|l| l == "catalog_epoch 3"));
        assert!(lines.iter().any(|l| l == "catalog_entries 2"));
        assert!(lines.iter().any(|l| l.starts_with("command B ")));
        assert!(!lines.iter().any(|l| l.starts_with("command A ")));
    }

    #[test]
    fn connection_counters_balance() {
        let m = Metrics::new(&[]);
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        assert_eq!(m.connections_opened_total(), 2);
        assert_eq!(m.connections_active(), 1);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_label_panics() {
        Metrics::new(&["A"]).record("NOPE", 1, false);
    }

    #[test]
    fn governance_counters_render_exactly() {
        let m = Metrics::new(&[]);
        m.limit_rejection();
        m.limit_rejection();
        m.connection_shed();
        m.session_disconnected();
        m.add_bytes_in(100);
        m.add_bytes_in(23);
        m.add_bytes_out(7);
        assert_eq!(m.limit_rejections_total(), 2);
        assert_eq!(m.connections_shed_total(), 1);
        assert_eq!(m.sessions_disconnected_total(), 1);
        assert_eq!(m.bytes_in_total(), 123);
        assert_eq!(m.bytes_out_total(), 7);
        let lines = m.render(0, 0, 0);
        for expect in [
            "connections_shed 1",
            "limit_rejections 2",
            "sessions_disconnected 1",
            "bytes_in 123",
            "bytes_out 7",
        ] {
            assert!(lines.iter().any(|l| l == expect), "{expect}: {lines:?}");
        }
    }

    #[test]
    fn protocol_counters_render_in_stats_and_prometheus() {
        let m = Metrics::new(&[]);
        m.protocol_request(Protocol::Text);
        m.protocol_request(Protocol::Text);
        m.protocol_request(Protocol::Binary);
        m.binary_upgrade();
        assert_eq!(m.protocol_requests_total(Protocol::Text), 2);
        assert_eq!(m.protocol_requests_total(Protocol::Binary), 1);
        assert_eq!(m.binary_upgrades_total(), 1);
        let lines = m.render(0, 0, 0);
        for expect in [
            "protocol_requests_text 2",
            "protocol_requests_binary 1",
            "binary_upgrades 1",
        ] {
            assert!(lines.iter().any(|l| l == expect), "{expect}: {lines:?}");
        }
        let text = m.registry().render_prometheus();
        for expect in [
            "epfis_server_protocol_requests_total{protocol=\"text\"} 2",
            "epfis_server_protocol_requests_total{protocol=\"binary\"} 1",
            "epfis_server_binary_upgrades_total 1",
        ] {
            assert!(text.contains(expect), "missing {expect:?} in:\n{text}");
        }
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

    /// The Prometheus rendering and the STATS rendering are two views of
    /// the same atomics: the exported series must equal the STATS counters
    /// exactly.
    #[test]
    fn prometheus_view_matches_stats_view() {
        let m = Metrics::new(&["ESTIMATE"]);
        m.record("ESTIMATE", 10, false);
        m.record("ESTIMATE", 20, true);
        m.connection_opened();
        m.add_bytes_in(42);
        let text = m.registry().render_prometheus();
        for expect in [
            "epfis_server_requests_total{command=\"ESTIMATE\"} 2",
            "epfis_server_request_errors_total{command=\"ESTIMATE\"} 1",
            "epfis_server_request_duration_us_count{command=\"ESTIMATE\"} 2",
            "epfis_server_request_duration_us_sum{command=\"ESTIMATE\"} 30",
            "epfis_server_connections_total 1",
            "epfis_server_connections_active 1",
            "epfis_server_bytes_in_total 42",
        ] {
            assert!(text.contains(expect), "missing {expect:?} in:\n{text}");
        }
    }
}
