//! The per-connection protocol engine as a pure state machine.
//!
//! Bytes are *pushed* into a [`Conn`] and response bytes come out, with no
//! I/O anywhere; the event loop (`crate::evloop`) moves the bytes.
//!
//! Every request takes one path, whatever wire carried it:
//!
//! 1. **Decode.** A text line, a TEXT frame and a typed binary frame each
//!    decode to a [`Call`]: a [`Request`] borrowing the received bytes, or
//!    for a typed `PAGE` frame a zero-copy view of its records.
//! 2. **Dispatch.** `ESTIMATE` runs against the connection's catalog-entry
//!    cache, `PAGE` through [`apply_page_batch`], `HELLO` and `SHUTDOWN`
//!    here, and every other command through [`execute`]. The outcome is
//!    one [`Reply`]: data lines, an `f64`, or a fed-reference count.
//! 3. **Account and render.** [`Conn::serve`] times the request and
//!    records it — per-command counters, the phase batch, SLOWLOG and the
//!    `limit` family — then renders the reply in the request's wire
//!    format: text `OK`/`ERR` lines, typed F64/U64/LINES/ERR frames, or
//!    LINES for a TEXT frame.
//!
//! What [`Conn`] owns besides (everything [`crate::server::LimitsConfig`]
//! promises):
//!
//! * the pending buffer, bounded by `max_pending_bytes` — a genuine backlog
//!   overflow (complete requests buffered faster than responses drain)
//!   answers a distinct `ERR limit pending ...`; oversized lines and frames
//!   keep their specific diagnoses,
//! * request-line / frame-body bounds (`ERR limit line`, `ERR limit frame`),
//! * the idle clock: reset only by a *complete* request, checked by the
//!   front end via [`Conn::check_idle`] (`ERR limit idle`),
//! * the text → binary upgrade (`HELLO BINARY`), including bytes a
//!   pipelining client sent behind its upgrade line.
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
    self, decode_request, encode_resp_err, encode_resp_f64, encode_resp_lines, encode_resp_u64,
    BinRequest, PageRefs,
};
use crate::metrics::PhaseBatch;
use crate::protocol::{frame_err, frame_ok, parse_request, Request};
use crate::server::{apply_page_batch, execute, scan_query, take_wal_time_us, OpenSession, Shared};
use crate::slowlog::Phases;
use epfis_net::Control;
use epfis_obs::{EventBuilder, Level};
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

/// The `ESTIMATE` path's per-connection cache: the entry handle a previous
/// request resolved, revalidated against
/// [`crate::catalog::SharedCatalog::epoch_hint`] — a relaxed atomic load —
/// instead of re-taking the snapshot lock and re-walking the name lookup.
/// While the catalog epoch and queried name stay put (the overwhelmingly
/// common case for an estimate-hammering client), a typed `ESTIMATE` frame
/// allocates nothing.
struct EntryCache {
    epoch: u64,
    name: Vec<u8>,
    entry: Arc<VersionedEntry>,
}

/// What arrived: one complete text line (without its line ending) or one
/// binary frame body.
enum Input<'a> {
    Line(&'a [u8]),
    Frame(&'a [u8]),
}

impl Input<'_> {
    /// Whether the request uses the connection's `ANALYZE` session.
    fn uses_session(&self) -> bool {
        let line = match *self {
            Input::Line(line) | Input::Frame([framing::REQ_TEXT, line @ ..]) => line,
            Input::Frame([tag, ..]) => {
                return matches!(
                    *tag,
                    framing::REQ_PAGE
                        | framing::REQ_ANALYZE_BEGIN
                        | framing::REQ_ANALYZE_COMMIT
                        | framing::REQ_ANALYZE_ABORT
                )
            }
            Input::Frame([]) => return false,
        };
        let word = line
            .split(|b| b.is_ascii_whitespace())
            .find(|w| !w.is_empty())
            .unwrap_or_default();
        word.eq_ignore_ascii_case(b"PAGE") || word.eq_ignore_ascii_case(b"ANALYZE")
    }
}

/// The wire a request arrived on, which fixes how its reply is rendered.
#[derive(Clone, Copy)]
enum Wire {
    Line,
    TextFrame,
    Typed,
}

/// One decoded request, whatever wire carried it. Both borrow the bytes
/// the request arrived in: a typed `PAGE` frame's records are read straight
/// off the frame, and every other request is a [`Request`].
enum Call<'a> {
    Page(PageRefs<'a>),
    Request(Request<'a>),
}

impl Call<'_> {
    fn label(&self) -> &'static str {
        match self {
            Call::Page(_) => "PAGE",
            Call::Request(req) => req.label(),
        }
    }
}

/// A served request's outcome before rendering: the three response shapes
/// binary framing has.
enum Reply {
    Lines(Vec<String>),
    /// An `ESTIMATE` answer.
    F64(f64),
    /// A `PAGE` answer: the session's total references fed.
    Fed(u64),
}

impl Reply {
    /// The reply as data lines, the form text lines and TEXT frames carry.
    fn into_lines(self) -> Vec<String> {
        match self {
            Reply::Lines(lines) => lines,
            Reply::F64(f) => vec![format!("{f}")],
            Reply::Fed(n) => vec![format!("fed {n}")],
        }
    }
}

/// One connection's protocol state. Pure: never touches a socket.
pub(crate) struct Conn {
    mode: Mode,
    /// Bytes received but not yet consumed as requests.
    pending: Vec<u8>,
    /// The open `ANALYZE` session, if any.
    session: Option<OpenSession>,
    cache: Option<EntryCache>,
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
        let max = shared.limits.max_pending_bytes;
        if !self.closed && !self.ingest_next && self.pending.len() > max {
            let bytes = self.pending.len();
            let event = shared
                .logger
                .event(Level::Warn, "server", "limit_pending")
                .field("bytes", bytes as u64)
                .field("max_pending_bytes", max as u64);
            let msg = format!(
                "limit pending: {bytes} bytes buffered without a complete request, exceeding \
                 {max} bytes; closing connection"
            );
            self.reject(shared, event, &msg, out);
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
        let event = shared
            .logger
            .event(Level::Warn, "server", "limit_idle")
            .field("timeout_s", timeout.as_secs_f64());
        let msg = format!(
            "limit idle: no complete request within {}s; closing connection",
            timeout.as_secs_f64()
        );
        self.reject(shared, event, &msg, out);
        Control::Close
    }

    /// Answers a connection-fatal limit violation: counts it under
    /// `limit_rejections`, emits its warning `event`, answers `msg` in the
    /// connection's current wire format, and closes.
    fn reject(&mut self, shared: &Shared, event: EventBuilder<'_>, msg: &str, out: &mut Vec<u8>) {
        shared.metrics.limit_rejections.inc();
        event.emit();
        match self.mode {
            Mode::Text => out.extend_from_slice(frame_err(msg).as_bytes()),
            Mode::Binary => encode_resp_err(out, msg),
        }
        self.closed = true;
    }

    /// Consume as many buffered requests as the output budget allows, then
    /// merge the wakeup's accumulated phase timings in one pass.
    fn process(&mut self, shared: &Shared, out: &mut Vec<u8>) -> Control {
        self.serve_buffered(shared, out);
        shared.metrics.flush_phases(&mut self.phases);
        if self.closed {
            Control::Close
        } else {
            Control::Continue
        }
    }

    /// Serves every complete buffered request — text lines or binary
    /// frames, by the connection's current mode — until the input runs
    /// out, the output budget is spent, a session request needs an ingest
    /// thread, or the connection closes. Several requests per read is the
    /// pipelining win.
    fn serve_buffered(&mut self, shared: &Shared, out: &mut Vec<u8>) {
        self.deferred = false;
        // Move `pending` out so requests decode zero-copy while serving
        // borrows the rest of `self`.
        let pending = std::mem::take(&mut self.pending);
        let max = shared.limits.max_line_bytes;
        let mut consumed = 0;
        while !self.closed {
            if out.len() >= BINARY_FLUSH_BYTES {
                self.deferred = true;
                break;
            }
            let rest = &pending[consumed..];
            let (input, len) = match self.mode {
                Mode::Text => {
                    let newline = rest.iter().position(|&b| b == b'\n');
                    if newline.unwrap_or(rest.len()) > max {
                        let event = shared
                            .logger
                            .event(Level::Warn, "server", "limit_line")
                            .field("max_line_bytes", max as u64);
                        let msg = format!(
                            "limit line: request line exceeds {max} bytes; closing connection"
                        );
                        self.reject(shared, event, &msg, out);
                        break;
                    }
                    let Some(pos) = newline else {
                        break;
                    };
                    let line = &rest[..pos];
                    (
                        Input::Line(line.strip_suffix(b"\r").unwrap_or(line)),
                        pos + 1,
                    )
                }
                Mode::Binary => {
                    let Some(header) = rest.first_chunk::<4>() else {
                        break;
                    };
                    let body_len = u32::from_le_bytes(*header) as usize;
                    if body_len > max {
                        // The framing analogue of the text path's `limit line`.
                        let event = shared
                            .logger
                            .event(Level::Warn, "server", "limit_frame")
                            .field("bytes", body_len as u64)
                            .field("max_line_bytes", max as u64);
                        let msg = format!(
                            "limit frame: frame of {body_len} bytes exceeds {max} bytes; \
                             closing connection"
                        );
                        self.reject(shared, event, &msg, out);
                        break;
                    }
                    let Some(body) = rest.get(4..4 + body_len) else {
                        break;
                    };
                    (Input::Frame(body), 4 + body_len)
                }
            };
            if !self.on_ingest && input.uses_session() {
                self.ingest_next = true;
                break;
            }
            self.serve(shared, input, out);
            consumed += len;
        }
        if consumed > 0 {
            self.idle_since = Instant::now();
        }
        self.pending = pending;
        self.pending.drain(..consumed);
    }

    /// Serves one request: decode, dispatch, account, render. This is the
    /// one place a request is timed and recorded, whatever wire carried it.
    fn serve(&mut self, shared: &Shared, input: Input<'_>, out: &mut Vec<u8>) {
        let start = Instant::now();
        let line;
        // `preview` is the slow-log request text: the line a text request
        // or TEXT frame carried; typed frames show their command label.
        let (wire, preview, decoded) = match input {
            Input::Line(raw) => {
                line = String::from_utf8_lossy(raw);
                if line.trim().is_empty() {
                    return;
                }
                shared.metrics.requests_text.inc();
                (
                    Wire::Line,
                    Some(&*line),
                    parse_request(&line).map(Call::Request),
                )
            }
            Input::Frame(body) => {
                shared.metrics.requests_binary.inc();
                decode_frame(body)
            }
        };
        let parsed_at = Instant::now();
        let label = decoded.as_ref().map_or("INVALID", Call::label);
        let shutdown = matches!(decoded, Ok(Call::Request(Request::Shutdown)));
        let result = decoded.and_then(|call| self.run(shared, call));

        let end = Instant::now();
        let micros = end.saturating_duration_since(start).as_micros() as u64;
        if let Err(msg) = &result {
            // Errors in the resource-limit family (`ERR limit ...`) count
            // toward the limit_rejections metric.
            if msg.starts_with("limit ") {
                shared.metrics.limit_rejections.inc();
            }
        }
        let phases = Phases {
            queue_us: self
                .batch_arrived
                .map_or(0, |t| start.saturating_duration_since(t).as_micros() as u64),
            parse_us: parsed_at.saturating_duration_since(start).as_micros() as u64,
            execute_us: end.saturating_duration_since(parsed_at).as_micros() as u64,
            wal_us: take_wal_time_us(),
        };
        shared.metrics.record(label, micros, result.is_err());
        // The upgrade line is counted and timed like any request, but stays
        // out of the phase histograms: it is the one request a binary
        // client sends that a text client does not, so keeping it out keeps
        // the two clients' phase series comparable.
        if label != "HELLO" {
            self.phases.add(label, &phases);
        }
        let wire_preview = preview.unwrap_or(label);
        shared.slowlog.record(label, wire_preview, micros, phases);

        render(wire, result, out);
        if shutdown {
            shared.request_shutdown();
            self.closed = true;
        }
    }

    /// Dispatches one decoded request.
    fn run(&mut self, shared: &Shared, call: Call<'_>) -> Result<Reply, String> {
        match call {
            Call::Page(refs) => {
                apply_page_batch(shared, &mut self.session, refs.len(), refs.iter()).map(Reply::Fed)
            }
            Call::Request(Request::Estimate {
                name,
                sigma,
                buffer,
                sargable,
            }) => self.estimate(shared, name, sigma, buffer, sargable),
            Call::Request(Request::Page { pairs }) => apply_page_batch(
                shared,
                &mut self.session,
                pairs.len(),
                pairs.iter().copied(),
            )
            .map(Reply::Fed),
            Call::Request(Request::Hello) => {
                if self.mode == Mode::Binary {
                    return Err("connection already uses binary framing".into());
                }
                shared.metrics.binary_upgrades.inc();
                shared
                    .logger
                    .event(Level::Info, "server", "binary_upgrade")
                    .emit();
                // Everything after the HELLO line — including bytes a
                // pipelining client already sent, sitting in the pending
                // buffer — is binary frames.
                self.mode = Mode::Binary;
                Ok(Reply::Lines(vec![framing::HELLO_ACK.to_string()]))
            }
            Call::Request(Request::Shutdown) => Ok(Reply::Lines(vec!["bye".to_string()])),
            Call::Request(req) => execute(req, shared, &mut self.session).map(Reply::Lines),
        }
    }

    /// `ESTIMATE` through the [`EntryCache`]: the catalog entry comes from
    /// the cache when the epoch hint and name match — no lock, no B-tree
    /// walk, no allocation.
    fn estimate(
        &mut self,
        shared: &Shared,
        name: &str,
        sigma: f64,
        buffer: u64,
        sargable: f64,
    ) -> Result<Reply, String> {
        let query = scan_query(sigma, buffer, sargable)?;
        let hint = shared.catalog.epoch_hint();
        let hit = matches!(&self.cache, Some(c) if c.epoch == hint && c.name == name.as_bytes());
        if !hit {
            let snap = shared.catalog.snapshot();
            let entry = Arc::clone(snap.lookup(name)?);
            let cache = self.cache.get_or_insert_with(|| EntryCache {
                epoch: 0,
                name: Vec::new(),
                entry: Arc::clone(&entry),
            });
            cache.epoch = snap.epoch();
            cache.name.clear();
            cache.name.extend_from_slice(name.as_bytes());
            cache.entry = entry;
        }
        let entry = &self.cache.as_ref().expect("cache populated above").entry;
        Ok(Reply::F64(entry.stats.estimate(&query)))
    }
}

/// Decodes a binary frame body: the one mapping from typed frames to
/// requests. Returns the frame's wire, its slow-log preview (a TEXT
/// frame's line; `None` for typed frames) and the call.
fn decode_frame(body: &[u8]) -> (Wire, Option<&str>, Result<Call<'_>, String>) {
    let call = match decode_request(body) {
        Err(e) => return (Wire::Typed, None, Err(e)),
        Ok(BinRequest::Text(line)) => {
            return (
                Wire::TextFrame,
                Some(line),
                parse_request(line).map(Call::Request),
            )
        }
        Ok(BinRequest::Estimate {
            name,
            sigma,
            buffer,
            sargable,
        }) => Call::Request(Request::Estimate {
            name,
            sigma,
            buffer,
            sargable,
        }),
        Ok(BinRequest::Page(refs)) => Call::Page(refs),
        Ok(BinRequest::Ping) => Call::Request(Request::Ping),
        Ok(BinRequest::AnalyzeBegin {
            name,
            segments,
            table_pages,
        }) => Call::Request(Request::AnalyzeBegin {
            name,
            segments: (segments > 0).then_some(segments as usize),
            table_pages: (table_pages > 0).then_some(table_pages),
        }),
        Ok(BinRequest::AnalyzeCommit) => Call::Request(Request::AnalyzeCommit),
        Ok(BinRequest::AnalyzeAbort) => Call::Request(Request::AnalyzeAbort),
        Ok(BinRequest::Observe {
            name,
            nkeys,
            actual,
            buffer,
        }) => Call::Request(Request::Observe {
            name,
            nkeys,
            actual,
            buffer: (buffer > 0).then_some(buffer),
        }),
    };
    (Wire::Typed, None, Ok(call))
}

/// Renders a reply in the wire format its request arrived in.
fn render(wire: Wire, result: Result<Reply, String>, out: &mut Vec<u8>) {
    match (wire, result) {
        (Wire::Line, Ok(reply)) => out.extend_from_slice(frame_ok(&reply.into_lines()).as_bytes()),
        (Wire::Line, Err(msg)) => out.extend_from_slice(frame_err(&msg).as_bytes()),
        (_, Err(msg)) => encode_resp_err(out, &msg),
        (Wire::Typed, Ok(Reply::F64(f))) => encode_resp_f64(out, f),
        (Wire::Typed, Ok(Reply::Fed(n))) => encode_resp_u64(out, n),
        (_, Ok(reply)) => encode_resp_lines(out, &reply.into_lines()),
    }
}
