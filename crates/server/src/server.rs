//! The TCP service: listener, serving core, request execution.
//!
//! The paper's split — LRU-Fit once at statistics-collection time, Est-IO
//! at every query compilation — maps onto a background ingestion path and a
//! hot serving path. One `epfis-net` event-loop thread (`crate::evloop`)
//! multiplexes every connection with epoll (poll(2) fallback) readiness, so
//! tens of thousands of mostly-idle connections cost slots and buffers, not
//! threads; each connection's protocol engine is a `crate::session::Conn`.
//! Requests that use a connection's `ANALYZE` session (`PAGE`, `ANALYZE
//! ...`) run on a few ingest threads beside the loop, so a statistics scan
//! or a whole-catalog commit never stalls another connection's estimate.
//!
//! An `ANALYZE BEGIN` opens a per-connection [`IngestSession`];
//! `ESTIMATE`/`FPF`/`COMPARE`/`SHOW` run against an `Arc` snapshot of the
//! shared catalog, so they never block behind a concurrent commit; every
//! request is timed into [`Metrics`], whose registry `STATS` and
//! `/metrics` both render (see `render_telemetry`).
//!
//! Shutdown is cooperative: the `SHUTDOWN` command (or
//! [`ServerHandle::shutdown`]) raises a flag and wakes the loop, which
//! waits for in-flight ingest work, flushes, and stops. Process signals
//! (SIGTERM) are *not* caught — std offers no portable handler — but every
//! catalog save is atomic, so killing the process at any instant leaves the
//! last committed version intact on disk; that is exactly what the test
//! `sigterm_kills_by_signal_and_the_restart_shows_the_commit`
//! (`crates/cli/tests/process.rs`) asserts against the real binary.

use crate::accuracy::{AccuracyConfig, AccuracyTracker};
use crate::catalog::{check_name, SharedCatalog, VersionedEntry};
use crate::evloop::IngestPool;
use crate::ingest::IngestSession;
use crate::metrics::Metrics;
use crate::protocol::{frame_busy, Request};
use crate::slowlog::SlowLog;
use crate::wal::{ServerWal, WalConfig};
use epfis::{EpfisConfig, ScanQuery};
use epfis_estimators::{baseline_estimators, ScanParams};
use epfis_faults::StdVfs;
use epfis_obs::http::{HttpServer, Response};
use epfis_obs::{Histogram, Level, Logger, Registry};
use std::cell::Cell;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Slots in the slow-request ring (the newest entries win).
const SLOWLOG_CAPACITY: usize = 128;

thread_local! {
    /// Per-thread WAL-time accumulator for latency attribution. Requests
    /// execute serially on whichever thread runs them (the event loop or an
    /// ingest thread), so a thread-local cell attributes WAL wall time to
    /// the request currently being served with no shared state on the hot
    /// path.
    static WAL_TIME_US: Cell<u64> = const { Cell::new(0) };
}

/// Runs a WAL (or WAL-guarded durability) operation, charging its wall time
/// to the current request's WAL phase.
fn timed_wal<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    WAL_TIME_US.with(|c| c.set(c.get().saturating_add(start.elapsed().as_micros() as u64)));
    result
}

/// Drains the WAL time the current request accumulated on this thread.
pub(crate) fn take_wal_time_us() -> u64 {
    WAL_TIME_US.with(|c| c.replace(0))
}

/// Per-connection and server-wide resource limits.
///
/// Every limit exists because one misbehaving peer must not be able to
/// grow server memory or starve other clients: `max_line_bytes` bounds how
/// much a newline-less flood can buffer, `idle_timeout` reclaims
/// connections that stop sending complete requests (including slow-loris
/// writers that trickle bytes but never finish a line), `max_connections`
/// sheds admissions with `SERVER_BUSY`, and `max_session_refs`
/// caps what a single `ANALYZE` session may accumulate. Violations answer
/// in the `ERR limit ...` / `SERVER_BUSY` response family and are counted
/// under `epfis_server_limit_rejections_total` /
/// `epfis_server_connections_shed_total` (in `STATS` and on `/metrics`).
#[derive(Debug, Clone, Copy)]
pub struct LimitsConfig {
    /// Longest accepted request line in bytes (default 1 MiB). A line that
    /// grows past this answers `ERR limit line ...` and the connection
    /// closes, so a flood without a newline reads at most this many bytes
    /// (plus one read chunk) before being dropped.
    pub max_line_bytes: usize,
    /// Cap on a connection's buffered-but-unconsumed bytes (default 2 MiB;
    /// must be at least `max_line_bytes`). The read loop only buffers while
    /// no complete line is pending, so this is a belt-and-braces bound on
    /// per-connection read memory.
    pub max_pending_bytes: usize,
    /// How long a connection may go without completing a request line
    /// before it is disconnected with `ERR limit idle ...`
    /// (default 300 s; `Duration::ZERO` disables). Measured from the last
    /// *complete* line, so trickling single bytes does not reset it.
    pub idle_timeout: Duration,
    /// Maximum concurrently admitted connections; a fresh connection beyond
    /// this is answered `SERVER_BUSY` and closed immediately (default
    /// [`DEFAULT_MAX_CONNECTIONS`]; 0 also means the default).
    pub max_connections: usize,
    /// Maximum references one `ANALYZE` session may accumulate; a `PAGE`
    /// batch that would exceed it answers `ERR limit session-refs ...` and
    /// leaves the session untouched (default 100 M; 0 disables).
    pub max_session_refs: u64,
}

impl Default for LimitsConfig {
    fn default() -> Self {
        LimitsConfig {
            max_line_bytes: 1 << 20,
            max_pending_bytes: 2 << 20,
            idle_timeout: Duration::from_secs(300),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_session_refs: 100_000_000,
        }
    }
}

impl LimitsConfig {
    /// Checks internal consistency; [`serve`] rejects an invalid config
    /// before binding.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_line_bytes < 64 {
            return Err("max_line_bytes must be at least 64".into());
        }
        if self.max_pending_bytes < self.max_line_bytes {
            return Err("max_pending_bytes must be >= max_line_bytes".into());
        }
        Ok(())
    }
}

/// Default admission cap: connections cost a slot, not a thread, so it is
/// sized for "every client stays connected".
pub const DEFAULT_MAX_CONNECTIONS: usize = 65_536;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Catalog persistence path; `None` serves from memory only.
    pub catalog_path: Option<PathBuf>,
    /// Default LRU-Fit configuration for `ANALYZE` sessions.
    pub epfis_config: EpfisConfig,
    /// Resource limits and connection-governance knobs.
    pub limits: LimitsConfig,
    /// Bind address for the HTTP observability endpoint (`/metrics`,
    /// `/healthz`, `/events`); `None` disables exposition.
    pub metrics_addr: Option<String>,
    /// Structured event logger shared by the server, its connections, and
    /// the catalog; `None` logs nothing (zero per-request cost).
    pub logger: Option<Arc<Logger>>,
    /// Write-ahead logging for `ANALYZE` sessions; `None` keeps in-flight
    /// sessions memory-only (a disconnect or crash discards them).
    pub wal: Option<WalConfig>,
    /// Filesystem for the durability paths (catalog persist + WAL);
    /// `None` uses the real filesystem. `epfis serve` wires a
    /// fault-injecting VFS here from the `EPFIS_FAULTS` environment hook
    /// so chaos tests can script storage failures in a stock binary.
    pub vfs: Option<std::sync::Arc<dyn epfis_faults::Vfs>>,
    /// Accuracy-tracker tuning (`--drift-threshold` sets the stale
    /// threshold; the rest keep their defaults).
    pub accuracy: AccuracyConfig,
    /// Requests slower than this land in the slow-request log
    /// (`--slow-request-us`; default 100 ms).
    pub slow_request_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            catalog_path: None,
            epfis_config: EpfisConfig::default(),
            limits: LimitsConfig::default(),
            metrics_addr: None,
            logger: None,
            wal: None,
            vfs: None,
            accuracy: AccuracyConfig::default(),
            slow_request_us: 100_000,
        }
    }
}

/// Degraded-mode (read-only) state, shared between the serving path and
/// the HTTP observability endpoint — the endpoint starts before the rest
/// of the server state is assembled, so this lives in its own `Arc`.
///
/// A durability failure (WAL poisoning or a failed catalog persist) sets
/// the flag; estimates keep serving from the last committed catalog while
/// every ingest command answers `ERR readonly <cause>`. The `RECOVER`
/// command clears it once storage probes healthy again.
#[derive(Default)]
pub(crate) struct HealthState {
    degraded: AtomicBool,
    cause: Mutex<Option<String>>,
}

impl HealthState {
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    pub(crate) fn cause(&self) -> Option<String> {
        self.cause.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Records the first durability failure; later ones keep the original
    /// cause. Returns whether this call was the transition.
    fn enter(&self, cause: &str) -> bool {
        let mut slot = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        let first = slot.is_none();
        if first {
            *slot = Some(cause.to_string());
            self.degraded.store(true, Ordering::SeqCst);
        }
        first
    }

    fn clear(&self) -> bool {
        let mut slot = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        let was = slot.take().is_some();
        self.degraded.store(false, Ordering::SeqCst);
        was
    }
}

/// Shared server state.
pub(crate) struct Shared {
    pub(crate) catalog: Arc<SharedCatalog>,
    pub(crate) metrics: Metrics,
    pub(crate) logger: Arc<Logger>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) config: EpfisConfig,
    pub(crate) limits: LimitsConfig,
    /// Connections admitted (accepted and not shed) and not yet finished;
    /// compared against the admission cap at accept/admission time.
    pub(crate) admitted: AtomicUsize,
    /// Resolved admission cap.
    pub(crate) max_connections: usize,
    /// Durable-ingestion state when the server runs with a WAL; replayed
    /// before the listener binds.
    pub(crate) wal: Option<Arc<ServerWal>>,
    /// Degraded-mode flag, shared with the `/healthz` handler.
    pub(crate) health: Arc<HealthState>,
    /// Observed-vs-predicted drift tracking, fed by `OBSERVE`, read by
    /// `DRIFT` and the `epfis_accuracy_*` families.
    pub(crate) accuracy: Arc<AccuracyTracker>,
    /// `|rel_err| × 1000` per observation (`epfis_accuracy_abs_rel_error_permille`).
    pub(crate) accuracy_err_hist: Arc<Histogram>,
    /// Slow-request ring, shared with the `/slowlog` handler.
    pub(crate) slowlog: Arc<SlowLog>,
    /// Runs session requests beside the event loop.
    pub(crate) ingest: IngestPool,
    addr: SocketAddr,
}

impl Shared {
    /// Enters degraded (read-only) mode on the first durability failure.
    pub(crate) fn enter_degraded(&self, cause: &str) {
        if self.health.enter(cause) {
            self.metrics.degraded_entries.inc();
            self.logger
                .event(Level::Error, "server", "degraded")
                .field("cause", cause)
                .emit();
        }
    }

    /// Compacts the catalog if its log has grown past its snapshot; runs
    /// on an ingest thread after a job's answers were handed back. A
    /// failure degrades the server like a failed commit: the log may be
    /// poisoned, and `RECOVER` heals it.
    pub(crate) fn compact_catalog(&self) {
        if let Err(e) = self.catalog.compact_if_due() {
            self.enter_degraded(&e.to_string());
        }
    }

    /// Resets the WAL if every session in it has ended; runs on an ingest
    /// thread after a job's answers were handed back, and at shutdown. A
    /// failure poisons the log and degrades the server; the reset stays
    /// due until one succeeds after `RECOVER`.
    pub(crate) fn reset_wal(&self) {
        if let Some(wal) = &self.wal {
            if wal.reset_if_due().is_err() {
                self.note_wal_failure();
            }
        }
    }

    /// Ingest commands answer `ERR readonly ...` while degraded.
    pub(crate) fn check_writable(&self) -> Result<(), String> {
        if self.health.is_degraded() {
            return Err(format!(
                "readonly {}",
                self.health.cause().unwrap_or_else(|| "degraded".into())
            ));
        }
        Ok(())
    }

    /// After a failed WAL operation: if the writer is poisoned, the failure
    /// was durability (not validation) — degrade.
    pub(crate) fn note_wal_failure(&self) {
        if let Some(wal) = &self.wal {
            if let Some(cause) = wal.poisoned() {
                self.enter_degraded(&format!("wal poisoned: {cause}"));
            }
        }
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ingest.waker.wake();
    }
}

/// A running server: its address plus the handles needed to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    evloop: Option<std::thread::JoinHandle<()>>,
    /// The HTTP observability endpoint, when configured; stops on drop.
    metrics_http: Option<HttpServer>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound address of the HTTP observability endpoint, when
    /// [`ServerConfig::metrics_addr`] was set (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(|h| h.addr())
    }

    /// Raises the shutdown flag and wakes the event loop. Does not wait.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether shutdown has been requested (via this handle or `SHUTDOWN`).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins every thread.
    pub fn shutdown_and_join(mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }

    /// Blocks until the server stops (e.g. a client sends `SHUTDOWN`).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.evloop.take() {
            let _ = t.join();
        }
        if let Some(mut http) = self.metrics_http.take() {
            http.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }
}

/// Binds and starts a server.
///
/// Returns once the listener is bound and the event loop is running; the
/// returned handle stops the server on drop.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    config
        .limits
        .validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let logger = config
        .logger
        .clone()
        .unwrap_or_else(|| Arc::new(Logger::disabled()));
    // One filesystem for the catalog and the WAL, which opens through the
    // catalog's, with or without a catalog file.
    let vfs = config.vfs.clone().unwrap_or_else(StdVfs::shared);
    let mut catalog = match &config.catalog_path {
        Some(p) => SharedCatalog::open_with_vfs(p, vfs)?,
        None => SharedCatalog::in_memory_with_vfs(vfs),
    };
    catalog.set_logger(Arc::clone(&logger));
    let catalog = Arc::new(catalog);
    // Replay the WAL (if any) before the listener binds: a client can
    // never observe a half-recovered catalog or race a parked session.
    let wal = match &config.wal {
        Some(wal_config) => Some(Arc::new(ServerWal::open(
            wal_config,
            &catalog,
            config.epfis_config,
            &logger,
        )?)),
        None => None,
    };
    let metrics = Metrics::new(Request::LABELS);
    let started = Instant::now();
    // Render-time gauges for values owned elsewhere: uptime and the
    // catalog's epoch / entry count (read off an Arc snapshot, never a
    // lock the serving path holds).
    let registry = Arc::clone(metrics.registry());
    registry.gauge_fn(
        "epfis_server_uptime_seconds",
        "Seconds since the server started",
        &[],
        move || started.elapsed().as_secs_f64(),
    );
    let cat = Arc::clone(&catalog);
    registry.gauge_fn(
        "epfis_server_catalog_epoch",
        "Global catalog epoch (total commits)",
        &[],
        move || cat.snapshot().epoch() as f64,
    );
    let cat = Arc::clone(&catalog);
    registry.gauge_fn(
        "epfis_server_catalog_entries",
        "Catalog entries currently stored",
        &[],
        move || cat.snapshot().len() as f64,
    );
    let health = Arc::new(HealthState::default());
    {
        let h = Arc::clone(&health);
        registry.gauge_fn(
            "epfis_server_degraded",
            "1 while a durability failure has the server in read-only degraded mode",
            &[],
            move || h.is_degraded() as u64 as f64,
        );
        let cat = Arc::clone(&catalog);
        registry.counter_fn(
            "epfis_server_catalog_persist_failures_total",
            "Catalog log appends and compactions that failed (old version kept serving)",
            &[],
            move || cat.persist_failures(),
        );
        let cat = Arc::clone(&catalog);
        registry.gauge_fn(
            "epfis_server_catalog_log_bytes",
            "Bytes in the catalog log, header included, awaiting compaction into the snapshot",
            &[],
            move || cat.log_bytes() as f64,
        );
        let cat = Arc::clone(&catalog);
        registry.counter_fn(
            "epfis_server_catalog_compactions_total",
            "Compactions that folded the catalog log into a new snapshot",
            &[],
            move || cat.compactions(),
        );
    }
    if let Some(wal) = &wal {
        let w = Arc::clone(wal);
        registry.gauge_fn(
            "epfis_wal_poisoned",
            "1 while a durability failure has poisoned the write-ahead log",
            &[],
            move || w.poisoned().is_some() as u64 as f64,
        );
        let w = Arc::clone(wal);
        registry.gauge_fn(
            "epfis_wal_parked_sessions",
            "ANALYZE sessions parked for ANALYZE RESUME",
            &[],
            move || w.parked_names().len() as f64,
        );
    }
    // Pre-register the process-global families so both surfaces list them
    // (at zero) even before the first ANALYZE session or WAL append touches
    // them.
    epfis_obs::wellknown::analyzer();
    epfis_obs::wellknown::wal();
    let accuracy = Arc::new(AccuracyTracker::new(config.accuracy.clone()));
    let slowlog = Arc::new(SlowLog::new(config.slow_request_us, SLOWLOG_CAPACITY));
    {
        // The observatory families read the tracker / slow log / event ring
        // at render time, so neither surface can disagree with the
        // structures the serving path maintains.
        let a = Arc::clone(&accuracy);
        registry.counter_fn(
            "epfis_accuracy_observations_total",
            "OBSERVE feedback observations recorded",
            &[],
            move || a.observations_total(),
        );
        let a = Arc::clone(&accuracy);
        registry.counter_fn(
            "epfis_accuracy_drift_detected_total",
            "Per-entry stale-flag flips detected from observed-vs-predicted drift",
            &[],
            move || a.drift_detected_total(),
        );
        let a = Arc::clone(&accuracy);
        registry.gauge_fn(
            "epfis_accuracy_stale_entries",
            "Catalog entries currently flagged stale by the accuracy tracker",
            &[],
            move || a.stale_entries() as f64,
        );
        let a = Arc::clone(&accuracy);
        registry.gauge_fn(
            "epfis_accuracy_tracked_entries",
            "Catalog entries with accuracy observations",
            &[],
            move || a.tracked_entries() as f64,
        );
        let s = Arc::clone(&slowlog);
        registry.counter_fn(
            "epfis_server_slow_requests_total",
            "Requests recorded in the slow-request log",
            &[],
            move || s.recorded_total(),
        );
        let lg = Arc::clone(&logger);
        registry.counter_fn(
            "epfis_obs_events_dropped_total",
            "Structured events dropped because the ring buffer lapped its capacity",
            &[],
            move || lg.ring_dropped(),
        );
    }
    let accuracy_err_hist = registry.histogram(
        "epfis_accuracy_abs_rel_error_permille",
        "Absolute observed-vs-predicted relative error per OBSERVE, in thousandths",
        &[],
    );
    let metrics_http = match &config.metrics_addr {
        Some(metrics_addr) => Some(start_metrics_endpoint(
            metrics_addr,
            Arc::clone(&registry),
            Arc::clone(&logger),
            Arc::clone(&health),
            Arc::clone(&slowlog),
            started,
        )?),
        None => None,
    };
    let max_connections = match config.limits.max_connections {
        0 => DEFAULT_MAX_CONNECTIONS,
        n => n,
    };
    let shared = Arc::new(Shared {
        catalog,
        metrics,
        logger,
        shutdown: AtomicBool::new(false),
        config: config.epfis_config,
        limits: config.limits,
        admitted: AtomicUsize::new(0),
        max_connections,
        wal,
        health,
        accuracy,
        accuracy_err_hist,
        slowlog,
        ingest: IngestPool::start(epfis_net::Waker::new()?),
        addr,
    });
    shared
        .logger
        .event(Level::Info, "server", "started")
        .field("addr", addr.to_string())
        .field("catalog_entries", shared.catalog.snapshot().len() as u64)
        .emit();
    let evloop = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("epfis-evloop".to_string())
            .spawn(move || crate::evloop::run(listener, shared))
            .expect("spawn event-loop thread")
    };
    Ok(ServerHandle {
        shared,
        evloop: Some(evloop),
        metrics_http,
    })
}

/// The server's telemetry: `registry` (the per-server instruments)
/// followed by [`Registry::global`] (analyzer, WAL), both
/// rendered by `render`. `/metrics` passes
/// [`Registry::render_prometheus_into`] and `STATS` passes
/// [`Registry::render_samples_into`], so the two surfaces list the same
/// series from the same atomics.
fn render_telemetry(registry: &Registry, render: fn(&Registry, &mut String)) -> String {
    let mut out = String::new();
    render(registry, &mut out);
    render(Registry::global(), &mut out);
    out
}

/// Starts the HTTP observability endpoint: `/metrics` renders the
/// per-server registry followed by the process-global one (analyzer,
/// WAL), `/healthz` answers a JSON liveness probe (503 with the cause
/// while the server is degraded), `/events?n=K` serves the logger's most
/// recent ring-buffer events as JSON lines, and `/slowlog?n=K` serves the
/// slow-request ring the same way (newest first).
fn start_metrics_endpoint(
    addr: &str,
    registry: Arc<Registry>,
    logger: Arc<Logger>,
    health: Arc<HealthState>,
    slowlog: Arc<SlowLog>,
    started: Instant,
) -> std::io::Result<HttpServer> {
    HttpServer::serve(
        addr,
        Arc::new(move |path: &str| {
            let (route, query) = match path.split_once('?') {
                Some((r, q)) => (r, q),
                None => (path, ""),
            };
            match route {
                "/metrics" => Some(Response::ok(
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_telemetry(&registry, Registry::render_prometheus_into),
                )),
                "/healthz" => {
                    // Liveness vs serviceability: a degraded server still
                    // answers (estimates keep serving) but reports 503 so
                    // orchestrators and operators see the durability loss.
                    let uptime_s = started.elapsed().as_secs();
                    let version = env!("CARGO_PKG_VERSION");
                    if health.is_degraded() {
                        let cause = health
                            .cause()
                            .unwrap_or_default()
                            .replace('\\', "\\\\")
                            .replace('"', "\\\"");
                        Some(Response {
                            status: 503,
                            content_type: "application/json; charset=utf-8",
                            body: format!(
                                "{{\"status\":\"degraded\",\"cause\":\"{cause}\",\
                                 \"uptime_s\":{uptime_s},\"version\":\"{version}\",\
                                 \"degraded_cause\":\"{cause}\"}}\n"
                            ),
                        })
                    } else {
                        Some(Response::ok(
                            "application/json; charset=utf-8",
                            format!(
                                "{{\"status\":\"ok\",\"uptime_s\":{uptime_s},\
                                 \"version\":\"{version}\",\"degraded_cause\":null}}\n"
                            ),
                        ))
                    }
                }
                "/slowlog" => {
                    let mut body = String::new();
                    for entry in slowlog.snapshot(query_n(query, 32)) {
                        body.push_str(&entry.render_json());
                        body.push('\n');
                    }
                    Some(Response::ok("application/json; charset=utf-8", body))
                }
                "/events" => {
                    let mut body = String::new();
                    for event in logger.recent(query_n(query, 64)) {
                        body.push_str(&event.render_json());
                        body.push('\n');
                    }
                    Some(Response::ok("application/json; charset=utf-8", body))
                }
                _ => None,
            }
        }),
    )
}

/// The `n=K` parameter of a ring route's query string, or `default`.
fn query_n(query: &str, default: usize) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Rejects a connection at admission: writes one `SERVER_BUSY` line (with a
/// short timeout, so a peer that never reads cannot stall the event loop)
/// and drops the socket.
pub(crate) fn shed_connection(stream: TcpStream, shared: &Shared) {
    shared.metrics.connections_shed.inc();
    shared
        .logger
        .event(Level::Warn, "server", "connection_shed")
        .field("active", shared.admitted.load(Ordering::SeqCst) as u64)
        .field("limit", shared.max_connections as u64)
        .emit();
    let response = frame_busy(&format!(
        "{} connections active (limit {}); retry later",
        shared.admitted.load(Ordering::SeqCst),
        shared.max_connections
    ));
    let mut stream = stream;
    if stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .is_ok()
        && stream.write_all(response.as_bytes()).is_ok()
    {
        shared.metrics.bytes_out.add(response.len() as u64);
    }
}

/// The connection's open `ANALYZE` session plus its durability bookkeeping.
/// With the WAL off, `wal_id` is 0 and never read.
pub(crate) struct OpenSession {
    pub(crate) inner: IngestSession,
    /// WAL session id from the `BEGIN` record.
    pub(crate) wal_id: u64,
    /// `records()` when the last `CHECKPOINT` was appended; replay re-feeds
    /// at most `records() - checkpointed_refs` references.
    pub(crate) checkpointed_refs: u64,
}

/// End-of-connection handling for an `ANALYZE` session left open when the
/// connection ended (EOF, error, limit, stall, shutdown) — on the event
/// loop, or on the ingest thread when the connection closed while its job
/// ran. With a WAL the session is parked — every reference it holds
/// is already in the log, so a client can reattach with `ANALYZE RESUME`
/// (even after a server restart). Without one, its references are
/// discarded.
pub(crate) fn finish_connection(shared: &Shared, session: Option<OpenSession>) {
    let Some(open) = session else {
        return;
    };
    shared.metrics.sessions_disconnected.inc();
    epfis_obs::wellknown::analyzer().active_sessions.sub(1);
    match &shared.wal {
        Some(wal) => {
            let name = open.inner.name().to_string();
            let refs = open.inner.records();
            if let Err(e) = wal.park(open.inner, open.wal_id) {
                shared.note_wal_failure();
                shared
                    .logger
                    .event(Level::Warn, "server", "session_park_failed")
                    .field("entry", name.as_str())
                    .field("error", e.to_string())
                    .emit();
            } else {
                shared
                    .logger
                    .event(Level::Info, "server", "session_parked")
                    .field("entry", name.as_str())
                    .field("refs", refs)
                    .emit();
            }
        }
        None => {
            shared
                .logger
                .event(Level::Warn, "server", "session_disconnected")
                .field("entry", open.inner.name())
                .field("dropped_refs", open.inner.records())
                .emit();
        }
    }
}

/// Applies one `PAGE` batch to the connection's open session: the session
/// cap, atomic validate-then-feed, and per-batch analyzer telemetry shared
/// by the text and binary paths. Returns the session's total references.
///
/// With a WAL the batch is logged between validation and application —
/// validation can reject, application cannot, so the log only ever holds
/// batches the session actually absorbed and the atomic-batch contract
/// (a rejected batch leaves the session untouched) is unchanged.
pub(crate) fn apply_page_batch(
    shared: &Shared,
    session: &mut Option<OpenSession>,
    batch_len: usize,
    pairs: impl Iterator<Item = (i64, u32)> + Clone,
) -> Result<u64, String> {
    // Degraded mode is read-only: reject before touching the session so a
    // client can never grow state the server cannot make durable.
    shared.check_writable()?;
    let open = session
        .as_mut()
        .ok_or("no open session (send ANALYZE BEGIN first)")?;
    let cap = shared.limits.max_session_refs;
    if cap > 0 && open.inner.records().saturating_add(batch_len as u64) > cap {
        return Err(format!(
            "limit session-refs: session holds {} references and the batch adds {batch_len}, \
             exceeding the {cap} cap (COMMIT or ABORT first)",
            open.inner.records()
        ));
    }
    // Batches apply atomically: a rejected batch leaves the session
    // untouched, so the client can correct and resend it.
    let compactions_before = open.inner.compactions();
    match &shared.wal {
        Some(wal) => {
            open.inner.check_batch_iter(pairs.clone())?;
            timed_wal(|| wal.append_page(open.wal_id, batch_len, pairs.clone()))
                .map_err(|e| wal_failed(shared, e))?;
            open.inner.feed_batch_unchecked_iter(pairs);
            // Periodic analyzer checkpoint: bounds replay to one interval
            // of PAGE records per in-flight session.
            if open.inner.records().saturating_sub(open.checkpointed_refs) >= wal.checkpoint_refs()
            {
                let cp = open.inner.checkpoint();
                timed_wal(|| wal.append_checkpoint(open.wal_id, &cp))
                    .map_err(|e| wal_failed(shared, e))?;
                open.checkpointed_refs = open.inner.records();
            }
        }
        None => open.inner.feed_batch_iter(pairs)?,
    }
    // Telemetry publishes per batch, never per reference: the analyzer's
    // access loop runs tens of millions of refs/s and must stay free of
    // shared atomics.
    let analyzer = epfis_obs::wellknown::analyzer();
    analyzer.refs.add(batch_len as u64);
    analyzer
        .compactions
        .add(open.inner.compactions() - compactions_before);
    Ok(open.inner.records())
}

/// Validates an `ESTIMATE`/`EXPLAIN` query into the [`ScanQuery`] Est-IO
/// runs. `epfis estimate` and `epfis explain` validate through it too.
pub fn scan_query(sigma: f64, buffer: u64, sargable: f64) -> Result<ScanQuery, String> {
    if !(0.0..=1.0).contains(&sigma) || !(0.0..=1.0).contains(&sargable) {
        return Err("selectivities must be in [0, 1]".into());
    }
    if buffer == 0 {
        return Err("buffer must be at least 1".into());
    }
    Ok(ScanQuery::range(sigma, buffer).with_sargable(sargable))
}

/// The buffer sizes `FPF` and `COMPARE` (served and `epfis fpf`/`compare`)
/// sample: `points` sizes spread evenly over `[b_min, b_max]`, ascending
/// and distinct, so a range narrower than `points` yields fewer of them.
pub fn sample_buffers(b_min: u64, b_max: u64, points: usize) -> Result<Vec<u64>, String> {
    if points == 0 || points > 10_000 {
        return Err("points must be in [1, 10000]".into());
    }
    let span = (points - 1).max(1) as f64;
    let mut buffers: Vec<u64> = (0..points)
        .map(|i| b_min + ((b_max - b_min) as f64 * i as f64 / span) as u64)
        .collect();
    buffers.dedup();
    Ok(buffers)
}

/// The entry `FPF`/`COMPARE` answer for, and its [`sample_buffers`].
fn sampled_entry(
    shared: &Shared,
    name: &str,
    points: usize,
) -> Result<(Arc<VersionedEntry>, Vec<u64>), String> {
    let entry = Arc::clone(shared.catalog.snapshot().lookup(name)?);
    let buffers = sample_buffers(entry.stats.b_min, entry.stats.b_max, points)?;
    Ok((entry, buffers))
}

/// Refuses a second `ANALYZE` session on one connection.
fn check_no_session(session: &Option<OpenSession>) -> Result<(), String> {
    match session {
        Some(open) => Err(format!(
            "a session for {:?} is already open on this connection (COMMIT or ABORT it first)",
            open.inner.name()
        )),
        None => Ok(()),
    }
}

/// Notes a failed WAL append (degrading the server if it poisoned the log)
/// and words the request's error.
fn wal_failed(shared: &Shared, e: std::io::Error) -> String {
    shared.note_wal_failure();
    format!("wal append failed: {e}")
}

/// Executes one parsed request against the shared state, returning response
/// data lines. The session engine (`crate::session`) serves `ESTIMATE`,
/// `PAGE`, `HELLO` and `SHUTDOWN` itself and sends everything else here.
pub(crate) fn execute(
    req: Request,
    shared: &Shared,
    session: &mut Option<OpenSession>,
) -> Result<Vec<String>, String> {
    match req {
        Request::Ping => Ok(vec!["pong".to_string()]),
        Request::Show => {
            let snap = shared.catalog.snapshot();
            Ok(snap
                .iter()
                .map(|(name, e)| {
                    format!(
                        "{name} epoch={} analyzed_at={} T={} N={} I={} C={} segments={}",
                        e.epoch,
                        e.analyzed_at,
                        e.stats.table_pages,
                        e.stats.records,
                        e.stats.distinct_keys,
                        e.stats.clustering_factor,
                        e.stats.fpf.segments()
                    )
                })
                .collect())
        }
        Request::Explain {
            name,
            sigma,
            buffer,
            sargable,
        } => {
            let q = scan_query(sigma, buffer, sargable)?;
            Ok(shared.catalog.snapshot().lookup(name)?.explain(name, &q))
        }
        Request::Fpf { name, points } => {
            let (entry, buffers) = sampled_entry(shared, name, points)?;
            Ok(buffers
                .into_iter()
                .map(|b| format!("{b} {}", entry.stats.full_scan_fetches(b)))
                .collect())
        }
        Request::Compare { name, points } => {
            let (entry, buffers) = sampled_entry(shared, name, points)?;
            let s = &entry.stats;
            let counters = entry.counters.ok_or_else(|| {
                format!(
                    "no baseline counters for {name:?}: the entry was written before the \
                     catalog kept them (re-ANALYZE it to COMPARE)"
                )
            })?;
            let estimators =
                baseline_estimators(s.table_pages, s.records, s.distinct_keys, counters);
            let mut lines = Vec::with_capacity(buffers.len() + 1);
            let mut header = "B EPFIS".to_string();
            for e in &estimators {
                header.push(' ');
                header.push_str(e.name());
            }
            lines.push(header);
            for b in buffers {
                let mut row = format!("{b} {}", s.estimate(&ScanQuery::full(b)));
                let params = ScanParams::range(1.0, b).with_distinct_keys(s.distinct_keys);
                for e in &estimators {
                    row.push(' ');
                    row.push_str(&format!("{}", e.estimate(&params)));
                }
                lines.push(row);
            }
            Ok(lines)
        }
        Request::AnalyzeBegin {
            name,
            segments,
            table_pages,
        } => {
            shared.check_writable()?;
            check_no_session(session)?;
            check_name(name).map_err(|_| format!("invalid entry name {name:?}"))?;
            let mut config = shared.config;
            if let Some(m) = segments {
                if !(1..=64).contains(&m) {
                    return Err("segments must be in [1, 64]".into());
                }
                config = config.with_segments(m);
            }
            if table_pages == Some(0) {
                return Err("table_pages must be at least 1".into());
            }
            let wal_id = match &shared.wal {
                Some(wal) => {
                    // A fresh BEGIN supersedes any parked session under the
                    // same name: the client is starting over.
                    timed_wal(|| wal.discard_parked(name)).map_err(|e| wal_failed(shared, e))?;
                    timed_wal(|| wal.begin(name, segments, table_pages))
                        .map_err(|e| wal_failed(shared, e))?
                }
                None => 0,
            };
            *session = Some(OpenSession {
                inner: IngestSession::new(name.to_string(), config, table_pages),
                wal_id,
                checkpointed_refs: 0,
            });
            let analyzer = epfis_obs::wellknown::analyzer();
            analyzer.sessions.inc();
            analyzer.active_sessions.add(1);
            shared
                .logger
                .event(Level::Info, "server", "analyze_begin")
                .field("entry", name)
                .emit();
            Ok(vec![format!("session {name}")])
        }
        Request::AnalyzeCommit => {
            // Checked before taking the session: a degraded-mode COMMIT
            // leaves the session open, so the client can RECOVER (or wait
            // for an operator to) and then commit the same session.
            shared.check_writable()?;
            let open = session
                .take()
                .ok_or("no open session (send ANALYZE BEGIN first)")?;
            epfis_obs::wellknown::analyzer().active_sessions.sub(1);
            let span = shared
                .logger
                .span(Level::Info, "server", "analyze_commit")
                .field("entry", open.inner.name())
                .field("refs", open.inner.records())
                .field("keys", open.inner.keys());
            let name = open.inner.name().to_string();
            let wal_id = open.wal_id;
            let (stats, counters) = match open.inner.commit() {
                Ok(v) => v,
                Err(e) => {
                    // The session is consumed either way; record the abort
                    // so a restart does not resurrect it.
                    if let Some(wal) = &shared.wal {
                        let _ = wal.abort_session(wal_id);
                    }
                    return Err(e);
                }
            };
            drop(span);
            let (t, n, i, c) = (
                stats.table_pages,
                stats.records,
                stats.distinct_keys,
                stats.clustering_factor,
            );
            let counters = Some(counters);
            let committed = match &shared.wal {
                Some(wal) => {
                    // The catalog write, recording this session on the
                    // entry, is the commit point; the COMMIT marker (ABORT
                    // if the write failed) then ends the session in the
                    // log, unsynced: the next sync of the log covers it.
                    // The WAL phase covers both: it is all durability
                    // time. A failed marker leaves the commit standing but
                    // poisons the log, which degrades the server; the log
                    // reset runs after the reply (`Shared::reset_wal`).
                    let analyzed_at = crate::catalog::unix_now();
                    let committed = timed_wal(|| {
                        wal.commit_session(wal_id, analyzed_at, |session| {
                            shared.catalog.commit_analyzed(
                                &name,
                                stats,
                                counters,
                                analyzed_at,
                                Some(session),
                            )
                        })
                    });
                    shared.note_wal_failure();
                    committed
                }
                None => shared.catalog.commit(&name, stats, counters),
            };
            // A failed catalog save degrades the server, so no later ingest
            // can be acknowledged against broken storage.
            let epoch = committed.map_err(|e| {
                let msg = e.to_string();
                if msg.contains("catalog persist failed") {
                    shared.enter_degraded(&msg);
                }
                format!("commit failed: {e}")
            })?;
            Ok(vec![format!(
                "committed {name} epoch={epoch} T={t} N={n} I={i} C={c}"
            )])
        }
        Request::AnalyzeAbort => {
            let open = session
                .take()
                .ok_or("no open session (send ANALYZE BEGIN first)")?;
            epfis_obs::wellknown::analyzer().active_sessions.sub(1);
            let wal_id = open.wal_id;
            let (name, dropped) = open.inner.abort();
            // ABORT stays allowed in degraded mode: it only discards
            // in-memory state and makes no durability claim, so the ABORT
            // record is best-effort. A failed append degrades the server
            // (if it wasn't already) but the abort itself still succeeds.
            if let Some(wal) = &shared.wal {
                if let Err(e) = timed_wal(|| wal.abort_session(wal_id)) {
                    shared.note_wal_failure();
                    shared
                        .logger
                        .event(Level::Warn, "server", "abort_record_failed")
                        .field("entry", name.as_str())
                        .field("error", e.to_string())
                        .emit();
                }
            }
            shared
                .logger
                .event(Level::Info, "server", "analyze_abort")
                .field("entry", name.as_str())
                .field("dropped_refs", dropped)
                .emit();
            Ok(vec![format!("aborted {name} dropped={dropped}")])
        }
        Request::AnalyzeResume { name } => {
            shared.check_writable()?;
            let wal = shared
                .wal
                .as_ref()
                .ok_or("session recovery requires a server started with --wal-dir")?;
            check_no_session(session)?;
            let (inner, wal_id) = wal
                .take_parked(name)
                .ok_or_else(|| format!("no recoverable session named {name:?}"))?;
            let refs = inner.records();
            epfis_obs::wellknown::analyzer().active_sessions.add(1);
            shared
                .logger
                .event(Level::Info, "server", "analyze_resume")
                .field("entry", name)
                .field("refs", refs)
                .emit();
            *session = Some(OpenSession {
                inner,
                wal_id,
                checkpointed_refs: refs,
            });
            Ok(vec![format!("resumed {name} refs={refs}")])
        }
        Request::Recover => {
            // Operator recovery: probe both durability paths before
            // clearing the flag — a RECOVER against still-broken storage
            // must fail and leave the server degraded.
            let mut lines = Vec::new();
            if let Some(wal) = &shared.wal {
                let truncated = wal
                    .recover()
                    .map_err(|e| format!("recover failed: wal still unhealthy: {e}"))?;
                lines.push(format!("wal healed truncated_bytes={truncated}"));
            }
            shared
                .catalog
                .probe_persist()
                .map_err(|e| format!("recover failed: {e}"))?;
            lines.push("catalog ok".to_string());
            let was_degraded = shared.health.clear();
            shared
                .logger
                .event(Level::Info, "server", "recovered")
                .field("was_degraded", was_degraded)
                .emit();
            lines.push(format!("recovered was_degraded={}", was_degraded as u8));
            Ok(lines)
        }
        Request::Observe {
            name,
            nkeys,
            actual,
            buffer,
        } => {
            if buffer == Some(0) {
                return Err("buffer must be at least 1".into());
            }
            let snap = shared.catalog.snapshot();
            let entry = snap.lookup(name)?;
            let s = &entry.stats;
            // Pair the observation with the estimate the server would serve
            // right now: nkeys out of the entry's distinct keys is the
            // selectivity the optimizer would have used for this scan, and
            // an unspecified buffer means the entry's fitted b_min.
            let sigma = if s.distinct_keys == 0 {
                0.0
            } else {
                (nkeys as f64 / s.distinct_keys as f64).clamp(0.0, 1.0)
            };
            let b = buffer.unwrap_or_else(|| s.b_min.max(1));
            let estimate = s.estimate(&ScanQuery::range(sigma, b));
            let obs = shared.accuracy.observe(name, entry.epoch, estimate, actual);
            shared
                .accuracy_err_hist
                .record((obs.rel_err.abs() * 1000.0).min(1e15) as u64);
            if obs.drift_detected {
                shared
                    .logger
                    .event(Level::Warn, "accuracy", "drift_detected")
                    .field("entry", name)
                    .field("epoch", entry.epoch)
                    .field("rel_err", obs.rel_err)
                    .field("threshold", shared.accuracy.drift_threshold())
                    .emit();
            }
            Ok(vec![format!(
                "observed {name} epoch={} estimate={estimate} actual={actual} rel_err={} stale={}",
                entry.epoch, obs.rel_err, obs.stale as u8
            )])
        }
        Request::Drift { name } => match name {
            Some(name) => {
                let summary = shared
                    .accuracy
                    .summary(name)
                    .ok_or_else(|| format!("no observations for {name:?} (send OBSERVE first)"))?;
                Ok(vec![summary.render()])
            }
            None => Ok(shared
                .accuracy
                .summaries()
                .iter()
                .map(|s| s.render())
                .collect()),
        },
        Request::Slowlog { limit } => {
            let mut lines = vec![format!(
                "slowlog threshold_us={} recorded={} dropped={}",
                shared.slowlog.threshold_us(),
                shared.slowlog.recorded_total(),
                shared.slowlog.dropped_total()
            )];
            lines.extend(shared.slowlog.snapshot(limit).iter().map(|e| e.render()));
            Ok(lines)
        }
        Request::Stats => Ok(render_telemetry(
            shared.metrics.registry(),
            Registry::render_samples_into,
        )
        .lines()
        .map(str::to_string)
        .collect()),
        Request::Estimate { .. } | Request::Page { .. } | Request::Hello | Request::Shutdown => {
            unreachable!("the session engine serves ESTIMATE, PAGE, HELLO and SHUTDOWN itself")
        }
    }
}
