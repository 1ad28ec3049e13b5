//! The serving core: one `epfis-net` driver thread serving every
//! connection, plus the ingest threads that run `ANALYZE` work beside it.
//!
//! This is the thin adapter between the transport-agnostic protocol engine
//! ([`Conn`]) and the readiness-driven [`epfis_net::Driver`]: admission
//! control and connection-lifecycle accounting live in [`EvFactory`], and
//! [`EvConn`] forwards driver callbacks into the engine. When the engine
//! stops in front of an `ANALYZE`-session request, the whole engine moves
//! to the [`IngestPool`] as a [`Job`]; the connection is parked — not read
//! from — until the job's completion fires the driver's waker.

use crate::server::{finish_connection, shed_connection, OpenSession, Shared};
use crate::session::Conn;
use epfis_net::{Control, Driver, DriverConfig, Session, SessionFactory, Waker};
use epfis_obs::Level;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle deadlines and write stalls are checked.
const TICK: Duration = Duration::from_millis(50);

/// The threads that run connections' engines when a session request is
/// next ([`Job`]s), sized from the `epfis-par` thread budget. Each thread
/// has its own queue, and a connection always uses the same one, so a
/// session's memory stays with one thread and its allocator arena.
pub(crate) struct IngestPool {
    lanes: Mutex<Vec<(mpsc::Sender<Job>, JoinHandle<()>)>>,
    next_lane: AtomicUsize,
    in_flight: AtomicUsize,
    /// Wakes the loop when a job finishes (and on shutdown).
    pub(crate) waker: Waker,
}

impl IngestPool {
    pub(crate) fn start(waker: Waker) -> IngestPool {
        let lanes = (0..epfis_par::threads())
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let thread = std::thread::Builder::new()
                    .name(format!("epfis-ingest-{i}"))
                    .spawn(move || rx.into_iter().for_each(Job::run))
                    .expect("spawn ingest thread");
                (tx, thread)
            })
            .collect();
        IngestPool {
            lanes: Mutex::new(lanes),
            next_lane: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            waker,
        }
    }

    /// A lane for a new connection, round robin.
    fn lane(&self) -> usize {
        self.next_lane.fetch_add(1, Ordering::Relaxed)
    }

    fn submit(&self, lane: usize, job: Job) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if !lanes.is_empty() {
            let _ = lanes[lane % lanes.len()].0.send(job);
        }
    }

    /// A job's last step: count it done and wake the loop to collect it.
    fn finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Closes the queues and joins the threads once every queued job ran.
    fn stop(&self) {
        let lanes = std::mem::take(&mut *self.lanes.lock().unwrap_or_else(|e| e.into_inner()));
        for (tx, thread) in lanes {
            drop(tx);
            let _ = thread.join();
        }
    }
}

/// A connection's engine on an ingest thread, as the loop sees it.
enum Ticket {
    Running,
    /// The engine is back, with the answers it produced.
    Done(Box<Conn>, Vec<u8>),
    /// The connection closed meanwhile: the job finishes the session.
    Abandoned,
}

fn lock(ticket: &Mutex<Ticket>) -> std::sync::MutexGuard<'_, Ticket> {
    ticket.lock().unwrap_or_else(|e| e.into_inner())
}

/// A connection's engine, moved to an ingest thread to serve what it has
/// buffered — on that thread, so the thread-local WAL clock lands in the
/// requests' `wal` phase.
struct Job {
    conn: Box<Conn>,
    ticket: Arc<Mutex<Ticket>>,
    shared: Arc<Shared>,
}

impl Job {
    fn run(self) {
        let Job {
            mut conn,
            ticket,
            shared,
        } = self;
        let mut out = Vec::new();
        conn.run_ingest(&shared, &mut out);
        let mut slot = lock(&ticket);
        if matches!(*slot, Ticket::Abandoned) {
            drop(slot);
            finish_connection(&shared, conn.take_session());
        } else {
            *slot = Ticket::Done(conn, out);
            drop(slot);
        }
        shared.ingest.finished();
        // A commit may have grown the catalog log past its snapshot, and
        // ended the last session in the WAL: fold the one and reset the
        // other now that the reply is on its way, not before.
        shared.compact_catalog();
        shared.reset_wal();
    }
}

/// One event-loop connection: the shared protocol engine plus the handles
/// the driver callbacks need.
struct EvConn {
    /// `None` while a [`Job`] has it.
    conn: Option<Box<Conn>>,
    ticket: Option<Arc<Mutex<Ticket>>>,
    lane: usize,
    shared: Arc<Shared>,
    peer: String,
    /// When the connection first ticked with deferred work and no write
    /// progress since — the write-stall clock. The engine parks
    /// (`has_deferred_work`) while responses drain, and `check_idle`
    /// deliberately ignores a backlogged connection, so without this a
    /// peer that stops reading mid-response would sit here forever; it is
    /// reclaimed after `idle_timeout` instead.
    stalled_since: Option<Instant>,
}

impl EvConn {
    /// Hands the engine to the connection's ingest lane when it stopped in
    /// front of a session request.
    fn step(&mut self, control: Control) -> Control {
        if self.conn.as_ref().is_some_and(|c| c.wants_ingest()) {
            let conn = self.conn.take().expect("checked above");
            let ticket = Arc::new(Mutex::new(Ticket::Running));
            let job = Job {
                conn,
                ticket: Arc::clone(&ticket),
                shared: Arc::clone(&self.shared),
            };
            self.shared.ingest.submit(self.lane, job);
            self.ticket = Some(ticket);
        }
        control
    }

    /// Takes the engine back from a finished job, with its answers, and
    /// lets it serve what it has buffered since.
    fn collect(&mut self, out: &mut Vec<u8>) -> Control {
        let Some(ticket) = &self.ticket else {
            return Control::Continue;
        };
        let Ticket::Done(mut conn, answers) =
            std::mem::replace(&mut *lock(ticket), Ticket::Running)
        else {
            return Control::Continue; // still running
        };
        self.ticket = None;
        out.extend_from_slice(&answers);
        let step = conn.resume(&self.shared, out);
        self.conn = Some(conn);
        self.step(step)
    }

    /// Detaches the open `ANALYZE` session at close; a job still running
    /// keeps it and finishes it itself.
    fn take_session(&mut self) -> Option<OpenSession> {
        if let Some(ticket) = self.ticket.take() {
            if let Ticket::Done(conn, _) = std::mem::replace(&mut *lock(&ticket), Ticket::Abandoned)
            {
                self.conn = Some(conn);
            }
        }
        self.conn.as_mut()?.take_session()
    }
}

impl Session for EvConn {
    fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control {
        let conn = self
            .conn
            .as_mut()
            .expect("a parked connection is not read from");
        let step = conn.on_bytes(&self.shared, data, out);
        self.step(step)
    }

    /// Also where a finished job's engine and answers come back.
    fn on_writable(&mut self, out: &mut Vec<u8>) -> Control {
        let Some(conn) = self.conn.as_mut() else {
            return self.collect(out);
        };
        if conn.has_deferred_work() {
            let step = conn.resume(&self.shared, out);
            self.step(step)
        } else if conn.is_closed() {
            Control::Close
        } else {
            Control::Continue
        }
    }

    fn on_tick(&mut self, out: &mut Vec<u8>) -> Control {
        // On an ingest thread the connection is neither idle nor stalled;
        // back from one, the sweeps below apply from the next tick.
        let Some(conn) = self.conn.as_mut() else {
            return self.collect(out);
        };
        if conn.is_closed() {
            return Control::Close;
        }
        if conn.has_deferred_work() {
            let patience = self.shared.limits.idle_timeout;
            match self.stalled_since {
                _ if patience.is_zero() => {}
                None => self.stalled_since = Some(Instant::now()),
                Some(since) if since.elapsed() >= patience => {
                    self.shared
                        .logger
                        .event(Level::Warn, "server", "write_stall")
                        .field("peer", self.peer.as_str())
                        .field("deadline_s", patience.as_secs_f64())
                        .emit();
                    // A stalled connection with an open ANALYZE session
                    // is counted by finish_connection instead.
                    if !conn.has_open_session() {
                        self.shared.metrics.sessions_disconnected.inc();
                    }
                    return Control::Close;
                }
                Some(_) => {}
            }
            return Control::Continue;
        }
        self.stalled_since = None;
        conn.check_idle(&self.shared, out)
    }

    fn on_wrote(&mut self, n: usize) {
        self.stalled_since = None;
        self.shared.metrics.bytes_out.add(n as u64);
    }

    fn wants_read(&self) -> bool {
        self.conn.is_some()
    }
}

/// Admission control and connection-lifecycle accounting.
struct EvFactory {
    shared: Arc<Shared>,
}

impl SessionFactory for EvFactory {
    type Session = EvConn;

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) -> Option<(TcpStream, EvConn)> {
        let shared = &self.shared;
        if shared.admitted.load(Ordering::SeqCst) >= shared.max_connections {
            shed_connection(stream, shared);
            return None;
        }
        shared.admitted.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connections_opened.inc();
        let peer = peer.to_string();
        shared
            .logger
            .event(Level::Debug, "server", "connection_opened")
            .field("peer", peer.as_str())
            .emit();
        let _ = stream.set_nodelay(true);
        let session = EvConn {
            conn: Some(Box::new(Conn::new())),
            ticket: None,
            lane: shared.ingest.lane(),
            shared: Arc::clone(shared),
            peer,
            stalled_since: None,
        };
        Some((stream, session))
    }

    fn closed(&mut self, mut session: EvConn) {
        let shared = &self.shared;
        finish_connection(shared, session.take_session());
        shared.metrics.connections_closed.inc();
        shared
            .logger
            .event(Level::Debug, "server", "connection_closed")
            .field("peer", session.peer.as_str())
            .emit();
        shared.admitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// Shutdown waits for in-flight jobs, so their answers reach the final
    /// flush.
    fn should_stop(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
            && self.shared.ingest.in_flight.load(Ordering::SeqCst) == 0
    }

    fn waker(&self) -> Option<Waker> {
        Some(self.shared.ingest.waker.clone())
    }
}

/// Body of the `epfis-evloop` thread: runs the driver until shutdown, then
/// stops the ingest threads — a job whose connection closed mid-flight may
/// still be parking its session — and runs a WAL reset still due.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) {
    let factory = EvFactory {
        shared: Arc::clone(&shared),
    };
    let config = DriverConfig {
        tick: TICK,
        ..DriverConfig::default()
    };
    if let Err(e) = Driver::run(listener, factory, config) {
        shared
            .logger
            .event(Level::Error, "server", "evloop_failed")
            .field("error", e.to_string())
            .emit();
    }
    shared.ingest.stop();
    shared.reset_wal();
}
