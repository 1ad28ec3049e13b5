//! The per-connection protocol engine as a pure state machine.
//!
//! Bytes are *pushed* into a [`Conn`] and response bytes come out, with no
//! I/O anywhere; the event loop (`crate::evloop`) moves the bytes.
//!
//! What [`Conn`] owns (everything [`crate::server::LimitsConfig`] promises):
//!
//! * the pending buffer, bounded by `max_pending_bytes` — a genuine backlog
//!   overflow (complete requests buffered faster than responses drain) now
//!   answers a distinct `ERR limit pending ...` instead of masquerading as
//!   `ERR limit line`; oversized lines and frames keep their specific
//!   diagnoses,
//! * request-line / frame-body bounds (`ERR limit line`, `ERR limit frame`),
//! * the idle clock: reset only by a *complete* request, checked by the
//!   front end via [`Conn::check_idle`] (`ERR limit idle`),
//! * the text → binary upgrade (`HELLO BINARY`), including bytes a
//!   pipelining client sent behind its upgrade line,
//! * atomic `PAGE` batches, the binary `ESTIMATE` entry cache, per-request
//!   metrics and the `limit_rejections` family.
//!
//! Output growth is bounded: once `out` crosses [`BINARY_FLUSH_BYTES`] the
//! engine parks ([`Conn::has_deferred_work`]) until the front end has
//! flushed and calls [`Conn::resume`] — which is also what stops a peer
//! that pipelines requests but never reads from ballooning server memory.
//!
//! On the event loop the engine stops in front of any request that uses
//! the connection's `ANALYZE` session (`PAGE`, `ANALYZE ...`, text or
//! binary; [`Conn::wants_ingest`]): the loop hands the whole engine to an
//! ingest thread, which serves what is buffered ([`Conn::run_ingest`]), so
//! a statistics scan or commit never stalls another connection.

use crate::catalog::VersionedEntry;
use crate::framing::{
    self, decode_request, encode_resp_err, encode_resp_f64, encode_resp_lines, encode_resp_str,
    encode_resp_u64, BinRequest,
};
use crate::metrics::PhaseBatch;
use crate::protocol::{frame_err, frame_ok, parse_page_into, parse_request, Request};
use crate::server::{apply_page_batch, execute, take_wal_time_us, OpenSession, Shared};
use crate::slowlog::Phases;
use epfis::ScanQuery;
use epfis_net::Control;
use std::sync::Arc;
use std::time::Instant;

/// Flush threshold for the response buffer: past this, the engine defers
/// further request processing until the front end has flushed, so an
/// enormous pipeline cannot grow the buffer without bound.
pub(crate) const BINARY_FLUSH_BYTES: usize = 256 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Text,
    Binary,
}

/// The binary `ESTIMATE` fast path's per-connection cache: the entry handle
/// a previous request resolved, revalidated against
/// [`crate::catalog::SharedCatalog::epoch_hint`] — a relaxed atomic load —
/// instead of re-taking the snapshot lock and re-walking the name lookup.
/// While the catalog epoch and queried name stay put (the overwhelmingly
/// common case for an estimate-hammering client), a request allocates
/// nothing.
struct EntryCache {
    epoch: u64,
    name: Vec<u8>,
    entry: Arc<VersionedEntry>,
}

/// One connection's protocol state. Pure: never touches a socket.
pub(crate) struct Conn {
    mode: Mode,
    /// Bytes received but not yet consumed as requests.
    pending: Vec<u8>,
    /// The open `ANALYZE` session, if any.
    session: Option<OpenSession>,
    cache: Option<EntryCache>,
    /// `PAGE` is the text protocol's hot line: its pairs parse into this
    /// connection-lifetime scratch buffer instead of a fresh `Vec` per
    /// batch.
    page_scratch: Vec<(i64, u32)>,
    /// When the last *complete* request finished arriving (or the
    /// connection opened). Trickled partial bytes do not move it, which is
    /// what defeats slow-loris writers.
    idle_since: Instant,
    /// When the most recent read delivered bytes: the base of each
    /// request's queue-wait phase. Later requests in a pipelined batch
    /// accumulate queue time while earlier ones execute — exactly the wait
    /// an external client observes.
    batch_arrived: Option<Instant>,
    /// Batch-local phase aggregation, merged into the shared histograms
    /// once per [`Conn::process`] wakeup (see [`PhaseBatch`]).
    phases: PhaseBatch,
    closed: bool,
    /// Processing parked because `out` crossed [`BINARY_FLUSH_BYTES`].
    deferred: bool,
    /// Running on an ingest thread: session requests are served too.
    on_ingest: bool,
    /// Stopped in front of a session request, which needs an ingest thread.
    ingest_next: bool,
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            mode: Mode::Text,
            pending: Vec::new(),
            session: None,
            cache: None,
            page_scratch: Vec::new(),
            idle_since: Instant::now(),
            batch_arrived: None,
            phases: PhaseBatch::new(),
            closed: false,
            deferred: false,
            on_ingest: false,
            ingest_next: false,
        }
    }

    /// Whether the engine decided to close (the front end still flushes
    /// whatever is in `out` first).
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether request processing is parked on a full output buffer; call
    /// [`Conn::resume`] after flushing.
    pub(crate) fn has_deferred_work(&self) -> bool {
        self.deferred && !self.closed
    }

    /// Whether the next request must run on an ingest thread
    /// ([`Conn::run_ingest`]).
    pub(crate) fn wants_ingest(&self) -> bool {
        self.ingest_next && !self.closed
    }

    /// Serves everything buffered, session requests included; called on an
    /// ingest thread.
    pub(crate) fn run_ingest(&mut self, shared: &Shared, out: &mut Vec<u8>) {
        self.on_ingest = true;
        self.ingest_next = false;
        self.process(shared, out);
        self.on_ingest = false;
        // The idle clock restarts once the loop waits for input again.
        self.idle_since = Instant::now();
    }

    /// Whether an `ANALYZE` session is open on this connection.
    pub(crate) fn has_open_session(&self) -> bool {
        self.session.is_some()
    }

    /// Detach the open `ANALYZE` session for end-of-connection handling
    /// (park with a WAL, discard without).
    pub(crate) fn take_session(&mut self) -> Option<OpenSession> {
        self.session.take()
    }

    /// Feed received bytes; responses are appended to `out`.
    pub(crate) fn on_bytes(&mut self, shared: &Shared, data: &[u8], out: &mut Vec<u8>) -> Control {
        if self.closed {
            return Control::Close;
        }
        shared.metrics.bytes_in.add(data.len() as u64);
        self.batch_arrived = Some(Instant::now());
        self.pending.extend_from_slice(data);
        let step = self.process(shared, out);
        // Pending-cap check runs *after* processing so the more specific
        // diagnoses win: an oversized incomplete line is `limit line`, an
        // oversized frame is `limit frame`. What's left here is a genuine
        // backlog overflow — complete-but-unconsumed requests piling up
        // faster than the front end can flush responses. Memory stays
        // bounded at `max_pending_bytes` plus one read chunk, because the
        // connection closes on the first violation. Requests waiting for an
        // ingest thread are not a backlog: the loop stops reading until
        // they are served.
        if !self.closed && !self.ingest_next && self.pending.len() > shared.limits.max_pending_bytes
        {
            let limits = &shared.limits;
            shared.metrics.limit_rejections.inc();
            shared
                .logger
                .event(epfis_obs::Level::Warn, "server", "limit_pending")
                .field("bytes", self.pending.len() as u64)
                .field("max_pending_bytes", limits.max_pending_bytes as u64)
                .emit();
            let msg = format!(
                "limit pending: {} bytes buffered without a complete request, exceeding {} \
                 bytes; closing connection",
                self.pending.len(),
                limits.max_pending_bytes
            );
            self.emit_err(&msg, out);
            self.closed = true;
            return Control::Close;
        }
        step
    }

    /// Continue processing buffered requests after the front end flushed
    /// `out` (see [`Conn::has_deferred_work`]).
    pub(crate) fn resume(&mut self, shared: &Shared, out: &mut Vec<u8>) -> Control {
        if self.closed {
            return Control::Close;
        }
        self.process(shared, out)
    }

    /// Enforce the idle deadline. The event loop calls this periodically; it
    /// fires only when no complete request arrived within
    /// `limits.idle_timeout` of the previous one.
    pub(crate) fn check_idle(&mut self, shared: &Shared, out: &mut Vec<u8>) -> Control {
        if self.closed {
            return Control::Close;
        }
        let timeout = shared.limits.idle_timeout;
        if timeout.is_zero() || self.idle_since.elapsed() < timeout {
            return Control::Continue;
        }
        if self.deferred {
            // Complete requests are buffered; the connection is backlogged,
            // not idle.
            return Control::Continue;
        }
        shared.metrics.limit_rejections.inc();
        shared
            .logger
            .event(epfis_obs::Level::Warn, "server", "limit_idle")
            .field("timeout_s", timeout.as_secs_f64())
            .emit();
        let msg = format!(
            "limit idle: no complete request within {}s; closing connection",
            timeout.as_secs_f64()
        );
        self.emit_err(&msg, out);
        self.closed = true;
        Control::Close
    }

    /// Append an error response in the connection's current wire format.
    fn emit_err(&mut self, msg: &str, out: &mut Vec<u8>) {
        match self.mode {
            Mode::Text => out.extend_from_slice(frame_err(msg).as_bytes()),
            Mode::Binary => encode_resp_err(out, msg),
        }
    }

    /// Consume as many buffered requests as the output budget allows, then
    /// merge the wakeup's accumulated phase timings in one pass.
    fn process(&mut self, shared: &Shared, out: &mut Vec<u8>) -> Control {
        let step = self.process_requests(shared, out);
        shared.metrics.flush_phases(&mut self.phases);
        step
    }

    fn process_requests(&mut self, shared: &Shared, out: &mut Vec<u8>) -> Control {
        self.deferred = false;
        loop {
            if self.closed {
                return Control::Close;
            }
            if out.len() >= BINARY_FLUSH_BYTES {
                self.deferred = true;
                return Control::Continue;
            }
            let progressed = match self.mode {
                Mode::Text => self.text_step(shared, out),
                Mode::Binary => self.binary_step(shared, out),
            };
            if !progressed {
                return if self.closed {
                    Control::Close
                } else {
                    Control::Continue
                };
            }
        }
    }

    /// Consume one text line (or detect a limit violation). Returns whether
    /// any progress was made.
    fn text_step(&mut self, shared: &Shared, out: &mut Vec<u8>) -> bool {
        let limits = &shared.limits;
        let Some(pos) = self.pending.iter().position(|&b| b == b'\n') else {
            if self.pending.len() > limits.max_line_bytes {
                self.limit_line(shared, out);
            }
            return false;
        };
        if pos > limits.max_line_bytes {
            self.limit_line(shared, out);
            return false;
        }
        if !self.on_ingest && uses_session(&self.pending[..pos]) {
            self.ingest_next = true;
            return false;
        }
        let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.idle_since = Instant::now();
        let line = String::from_utf8_lossy(&line).into_owned();
        if line.trim().is_empty() {
            return true;
        }
        self.handle_text_line(shared, &line, out);
        true
    }

    fn limit_line(&mut self, shared: &Shared, out: &mut Vec<u8>) {
        shared.metrics.limit_rejections.inc();
        shared
            .logger
            .event(epfis_obs::Level::Warn, "server", "limit_line")
            .field("max_line_bytes", shared.limits.max_line_bytes as u64)
            .emit();
        let msg = format!(
            "limit line: request line exceeds {} bytes; closing connection",
            shared.limits.max_line_bytes
        );
        self.emit_err(&msg, out);
        self.closed = true;
    }

    /// Serve one complete text request line.
    fn handle_text_line(&mut self, shared: &Shared, line: &str, out: &mut Vec<u8>) {
        let start = Instant::now();
        let queue_us = self
            .batch_arrived
            .map(|t| start.saturating_duration_since(t).as_micros() as u64)
            .unwrap_or(0);
        shared.metrics.requests_text.inc();
        let first = line.split_whitespace().next().unwrap_or("");
        let (label, parsed_at, result) = if first.eq_ignore_ascii_case("PAGE") {
            // Fast path: parse into the scratch buffer and feed through the
            // same batch-apply the full parser's Request::Page uses. Parse
            // errors label INVALID exactly as parse_request's would.
            match parse_page_into(line, &mut self.page_scratch) {
                Ok(()) => {
                    let parsed_at = Instant::now();
                    (
                        "PAGE",
                        parsed_at,
                        apply_page_batch(
                            shared,
                            &mut self.session,
                            self.page_scratch.len(),
                            self.page_scratch.iter().copied(),
                        )
                        .map(|n| vec![format!("fed {n}")]),
                    )
                }
                Err(e) => ("INVALID", Instant::now(), Err(e)),
            }
        } else {
            match parse_request(line) {
                Ok(Request::Hello) => {
                    let micros = start.elapsed().as_micros() as u64;
                    shared.metrics.record("HELLO", micros, false);
                    out.extend_from_slice(frame_ok(&[framing::HELLO_ACK.to_string()]).as_bytes());
                    shared.metrics.binary_upgrades.inc();
                    shared
                        .logger
                        .event(epfis_obs::Level::Info, "server", "binary_upgrade")
                        .emit();
                    // Everything after the HELLO line — including bytes a
                    // pipelining client already sent, sitting in the pending
                    // buffer — is binary frames.
                    self.mode = Mode::Binary;
                    return;
                }
                Ok(req) => {
                    let parsed_at = Instant::now();
                    let label = req.label();
                    let is_shutdown = matches!(req, Request::Shutdown);
                    let result = execute(req, shared, &mut self.session);
                    if let (true, Ok(lines)) = (is_shutdown, &result) {
                        let micros = start.elapsed().as_micros() as u64;
                        shared.metrics.record(label, micros, false);
                        out.extend_from_slice(frame_ok(lines).as_bytes());
                        shared.request_shutdown();
                        self.closed = true;
                        return;
                    }
                    (label, parsed_at, result)
                }
                Err(e) => ("INVALID", Instant::now(), Err(e)),
            }
        };
        let end = Instant::now();
        let micros = end.saturating_duration_since(start).as_micros() as u64;
        let response = match &result {
            Ok(lines) => frame_ok(lines),
            Err(msg) => {
                // Errors in the resource-limit family (`ERR limit ...`)
                // count toward the limit_rejections metric.
                if msg.starts_with("limit ") {
                    shared.metrics.limit_rejections.inc();
                }
                frame_err(msg)
            }
        };
        let phases = Phases {
            queue_us,
            parse_us: parsed_at.saturating_duration_since(start).as_micros() as u64,
            execute_us: end.saturating_duration_since(parsed_at).as_micros() as u64,
            wal_us: take_wal_time_us(),
        };
        shared.metrics.record(label, micros, result.is_err());
        self.phases.add(label, &phases);
        shared.slowlog.record(label, line, micros, phases);
        out.extend_from_slice(response.as_bytes());
    }

    /// Drain every complete buffered binary frame within the output budget
    /// (the pipelining win: several frames served per read). Returns whether
    /// any progress was made.
    fn binary_step(&mut self, shared: &Shared, out: &mut Vec<u8>) -> bool {
        // Move `pending` out so frame bodies can be decoded zero-copy while
        // the handlers borrow the rest of `self`.
        let pending = std::mem::take(&mut self.pending);
        let mut consumed = 0;
        let mut progressed = false;
        while !self.closed && out.len() < BINARY_FLUSH_BYTES {
            let rest = &pending[consumed..];
            if rest.len() < 4 {
                break;
            }
            let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            if body_len > shared.limits.max_line_bytes {
                self.limit_frame(shared, body_len, out);
                break;
            }
            if rest.len() < 4 + body_len {
                break;
            }
            let body = &rest[4..4 + body_len];
            if !self.on_ingest && frame_uses_session(body) {
                self.ingest_next = true;
                break;
            }
            self.idle_since = Instant::now();
            let open = handle_binary_frame(
                body,
                shared,
                &mut self.session,
                &mut self.cache,
                &mut self.phases,
                self.batch_arrived,
                out,
            );
            if !open {
                self.closed = true;
            }
            consumed += 4 + body_len;
            progressed = true;
        }
        self.pending = pending;
        if consumed > 0 {
            self.pending.drain(..consumed);
        }
        progressed
    }

    /// Answers an oversized binary frame: the framing analogue of the text
    /// path's `ERR limit line ...` (counted, answered, connection closed).
    fn limit_frame(&mut self, shared: &Shared, bytes: usize, out: &mut Vec<u8>) {
        shared.metrics.limit_rejections.inc();
        shared
            .logger
            .event(epfis_obs::Level::Warn, "server", "limit_frame")
            .field("bytes", bytes as u64)
            .field("max_line_bytes", shared.limits.max_line_bytes as u64)
            .emit();
        let msg = format!(
            "limit frame: frame of {bytes} bytes exceeds {} bytes; closing connection",
            shared.limits.max_line_bytes
        );
        self.emit_err(&msg, out);
        self.closed = true;
    }
}

/// Whether a text request line uses the connection's `ANALYZE` session.
fn uses_session(line: &[u8]) -> bool {
    let word = line
        .split(|b| b.is_ascii_whitespace())
        .find(|w| !w.is_empty())
        .unwrap_or_default();
    word.eq_ignore_ascii_case(b"PAGE") || word.eq_ignore_ascii_case(b"ANALYZE")
}

/// [`uses_session`] for a binary frame body.
fn frame_uses_session(body: &[u8]) -> bool {
    match body.first() {
        Some(&framing::REQ_TEXT) => uses_session(&body[1..]),
        Some(&tag) => matches!(
            tag,
            framing::REQ_PAGE
                | framing::REQ_ANALYZE_BEGIN
                | framing::REQ_ANALYZE_COMMIT
                | framing::REQ_ANALYZE_ABORT
        ),
        None => false,
    }
}

/// Decodes and executes one binary frame body, appending its response to
/// `out`. Returns `false` when the connection must close after the next
/// flush (a served `SHUTDOWN`). Malformed bodies answer a recoverable
/// `bad frame ...` error — the length prefix kept the framing in sync.
fn handle_binary_frame(
    body: &[u8],
    shared: &Shared,
    session: &mut Option<OpenSession>,
    cache: &mut Option<EntryCache>,
    phase_batch: &mut PhaseBatch,
    batch_arrived: Option<Instant>,
    out: &mut Vec<u8>,
) -> bool {
    let start = Instant::now();
    let queue_us = batch_arrived
        .map(|t| start.saturating_duration_since(t).as_micros() as u64)
        .unwrap_or(0);
    shared.metrics.requests_binary.inc();
    // `wire` is the slow-log request preview; binary frames carry the
    // command name (the raw body is not meaningfully printable), TEXT
    // passthrough frames carry the inner line.
    let mut record = |label: &'static str, wire: &str, is_error: bool, parsed_at: Instant| {
        let end = Instant::now();
        let micros = end.saturating_duration_since(start).as_micros() as u64;
        let phases = Phases {
            queue_us,
            parse_us: parsed_at.saturating_duration_since(start).as_micros() as u64,
            execute_us: end.saturating_duration_since(parsed_at).as_micros() as u64,
            wal_us: take_wal_time_us(),
        };
        shared.metrics.record(label, micros, is_error);
        phase_batch.add(label, &phases);
        shared.slowlog.record(label, wire, micros, phases);
    };
    let req = match decode_request(body) {
        Ok(req) => req,
        Err(e) => {
            encode_resp_err(out, &e);
            record("INVALID", "INVALID", true, Instant::now());
            return true;
        }
    };
    let parsed_at = Instant::now();
    match req {
        BinRequest::Ping => {
            encode_resp_str(out, "pong");
            record("PING", "PING", false, parsed_at);
        }
        BinRequest::Estimate {
            name,
            sigma,
            buffer,
            sargable,
        } => match binary_estimate(shared, cache, name, sigma, buffer, sargable) {
            Ok(f) => {
                encode_resp_f64(out, f);
                record("ESTIMATE", "ESTIMATE", false, parsed_at);
            }
            Err(e) => {
                encode_resp_err(out, &e);
                record("ESTIMATE", "ESTIMATE", true, parsed_at);
            }
        },
        BinRequest::Page(refs) => {
            match apply_page_batch(shared, session, refs.len(), refs.iter()) {
                Ok(n) => encode_resp_u64(out, n),
                Err(e) => {
                    if e.starts_with("limit ") {
                        shared.metrics.limit_rejections.inc();
                    }
                    encode_resp_err(out, &e);
                    record("PAGE", "PAGE", true, parsed_at);
                    return true;
                }
            }
            record("PAGE", "PAGE", false, parsed_at);
        }
        BinRequest::AnalyzeBegin {
            name,
            segments,
            table_pages,
        } => {
            let req = Request::AnalyzeBegin {
                name: name.to_string(),
                segments: (segments > 0).then_some(segments as usize),
                table_pages: (table_pages > 0).then_some(table_pages),
            };
            let result = execute(req, shared, session);
            encode_exec_result(out, &result);
            record("ANALYZE_BEGIN", "ANALYZE_BEGIN", result.is_err(), parsed_at);
        }
        BinRequest::AnalyzeCommit => {
            let result = execute(Request::AnalyzeCommit, shared, session);
            encode_exec_result(out, &result);
            record(
                "ANALYZE_COMMIT",
                "ANALYZE_COMMIT",
                result.is_err(),
                parsed_at,
            );
        }
        BinRequest::AnalyzeAbort => {
            let result = execute(Request::AnalyzeAbort, shared, session);
            encode_exec_result(out, &result);
            record("ANALYZE_ABORT", "ANALYZE_ABORT", result.is_err(), parsed_at);
        }
        BinRequest::Observe {
            name,
            nkeys,
            actual,
            buffer,
        } => {
            let req = Request::Observe {
                name: name.to_string(),
                nkeys,
                actual,
                buffer: (buffer > 0).then_some(buffer),
            };
            let result = execute(req, shared, session);
            encode_exec_result(out, &result);
            record("OBSERVE", "OBSERVE", result.is_err(), parsed_at);
        }
        BinRequest::Text(line) => match parse_request(line) {
            Ok(req) => {
                let label = req.label();
                let is_shutdown = matches!(req, Request::Shutdown);
                let result = execute(req, shared, session);
                if let Err(msg) = &result {
                    if msg.starts_with("limit ") {
                        shared.metrics.limit_rejections.inc();
                    }
                }
                encode_exec_result(out, &result);
                record(label, line, result.is_err(), parsed_at);
                if is_shutdown && result.is_ok() {
                    shared.request_shutdown();
                    return false;
                }
            }
            Err(e) => {
                encode_resp_err(out, &e);
                record("INVALID", line, true, parsed_at);
            }
        },
    }
    true
}

/// Encodes an `execute` outcome as a binary response frame.
fn encode_exec_result(out: &mut Vec<u8>, result: &Result<Vec<String>, String>) {
    match result {
        Ok(lines) => encode_resp_lines(out, lines),
        Err(msg) => encode_resp_err(out, msg),
    }
}

/// The zero-alloc `ESTIMATE` path: validation and arithmetic identical to
/// [`execute`]'s `Request::Estimate` arm (so the served `f64` bits equal
/// what the text protocol's decimal would parse back to), but the catalog
/// entry comes from the per-connection [`EntryCache`] when the epoch hint
/// and name match — no lock, no B-tree walk, no allocation.
fn binary_estimate(
    shared: &Shared,
    cache: &mut Option<EntryCache>,
    name: &str,
    sigma: f64,
    buffer: u64,
    sargable: f64,
) -> Result<f64, String> {
    if !(0.0..=1.0).contains(&sigma) || !(0.0..=1.0).contains(&sargable) {
        return Err("selectivities must be in [0, 1]".into());
    }
    if buffer == 0 {
        return Err("buffer must be at least 1".into());
    }
    let hint = shared.catalog.epoch_hint();
    let hit = matches!(cache, Some(c) if c.epoch == hint && c.name == name.as_bytes());
    if !hit {
        let snap = shared.catalog.snapshot();
        let entry = snap
            .get_arc(name)
            .ok_or_else(|| format!("no catalog entry named {name:?} (try SHOW)"))?
            .clone();
        match cache {
            Some(c) => {
                c.epoch = snap.epoch();
                c.name.clear();
                c.name.extend_from_slice(name.as_bytes());
                c.entry = entry;
            }
            None => {
                *cache = Some(EntryCache {
                    epoch: snap.epoch(),
                    name: name.as_bytes().to_vec(),
                    entry,
                });
            }
        }
    }
    let entry = &cache.as_ref().expect("cache populated above").entry;
    let q = ScanQuery::range(sigma, buffer).with_sargable(sargable);
    Ok(entry.stats.estimate(&q))
}
