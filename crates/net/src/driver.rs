//! A single-threaded, readiness-driven connection driver.
//!
//! [`Driver::run`] multiplexes one nonblocking listener plus any number of
//! nonblocking TCP connections over a [`Poller`]. All protocol behavior
//! lives in the caller's [`Session`] state machine (bytes in → response
//! bytes out); the driver owns only transport mechanics:
//!
//! * **accept** — drained to `EWOULDBLOCK` each time the listener fires;
//!   every accepted socket is offered to the [`SessionFactory`], which may
//!   decline it (admission shed) by consuming the stream.
//! * **read** — until a short read or `EWOULDBLOCK`, with `EINTR` retried,
//!   feeding [`Session::on_bytes`]. Reading *stops* while a connection's
//!   unflushed output backlog exceeds the backpressure watermark, so a peer
//!   that pipelines requests without reading responses stalls only itself.
//! * **park** — a session that hands work to another thread reports
//!   [`Session::wants_read`] `false`; the driver stops reading it (the peer
//!   meets TCP backpressure) until the other thread calls [`Waker::wake`],
//!   which gets every parked session an [`Session::on_writable`].
//! * **write** — nonblocking with partial-write accounting; when the socket
//!   would block, write interest is registered and the backlog kept. A
//!   session that closed is removed the moment its backlog drains, or at a
//!   bounded grace deadline if the peer never drains it.
//! * **tick** — [`Session::on_tick`] fires on every slot at a fixed cadence
//!   for idle-deadline enforcement.
//!
//! The driver never blocks on any one peer; a non-reading client costs one
//! slot and (bounded) buffer, not a thread.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::io::ReadStep;
use crate::poller::{Event, Interest, Poller, Token};

/// What a session wants the driver to do with the connection afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Flush whatever is buffered, then close the connection.
    Close,
}

/// A per-connection protocol state machine.
///
/// Implementations must never block: they receive bytes, append response
/// bytes to `out`, and return whether the connection should stay open.
pub trait Session {
    /// `data` arrived from the peer. Append any responses to `out`.
    fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control;

    /// The output backlog drained below the watermark, or (for a parked
    /// session) the [`Waker`] fired; resume any work the session deferred.
    /// Must be a no-op (and return [`Control::Continue`]) when there is
    /// nothing deferred.
    fn on_writable(&mut self, out: &mut Vec<u8>) -> Control {
        let _ = out;
        Control::Continue
    }

    /// Periodic tick (idle deadlines, etc.).
    fn on_tick(&mut self, out: &mut Vec<u8>) -> Control {
        let _ = out;
        Control::Continue
    }

    /// `n` bytes were actually written to the socket (for byte accounting).
    fn on_wrote(&mut self, n: usize) {
        let _ = n;
    }

    /// Whether the driver may read from the peer. A session returning
    /// `false` is parked: it gets no [`Session::on_bytes`] until it wants
    /// input again, which it is asked after each [`Waker::wake`].
    fn wants_read(&self) -> bool {
        true
    }
}

/// Wakes a running [`Driver`] from another thread: a socketpair whose read
/// end sits in the driver's poller.
#[derive(Clone)]
pub struct Waker(Arc<(UnixStream, UnixStream)>);

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker(Arc::new((tx, rx))))
    }

    /// Makes the driver's current or next poll return and offer every
    /// parked session [`Session::on_writable`].
    pub fn wake(&self) {
        // A full socket means a wake is already pending.
        let _ = (&self.0 .0).write(&[1]);
    }

    /// Drains pending wakes, before the driver looks at parked sessions.
    fn reset(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.0 .1).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates sessions for accepted connections and owns admission policy.
pub trait SessionFactory {
    type Session: Session;

    /// Offer an accepted connection. Return `None` to decline it (the
    /// factory consumes the stream, so it can write a shed notice before
    /// dropping); return the stream back with a session to serve it.
    /// The stream is still in blocking mode here; the driver switches it to
    /// nonblocking after admission.
    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) -> Option<(TcpStream, Self::Session)>;

    /// A connection ended (any cause). Always called exactly once per
    /// admitted session.
    fn closed(&mut self, session: Self::Session);

    /// Checked every loop iteration; `true` stops the driver after a final
    /// flush pass (parked sessions get one last [`Session::on_writable`]
    /// first).
    fn should_stop(&self) -> bool;

    /// The waker for sessions that park; registered once at start-up.
    fn waker(&self) -> Option<Waker> {
        None
    }
}

/// Tuning knobs for [`Driver::run`].
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Cadence of [`Session::on_tick`] and of the `should_stop` check while
    /// idle.
    pub tick: Duration,
    /// Size of the shared read buffer (one `read(2)` max).
    pub read_chunk: usize,
    /// Stop reading from a connection while its unflushed output exceeds
    /// this many bytes.
    pub write_backlog_watermark: usize,
    /// How long a closing connection may take to drain its final bytes
    /// before being dropped with output pending.
    pub close_grace: Duration,
    /// Force the portable `poll(2)` backend instead of epoll.
    pub force_poll_backend: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            tick: Duration::from_millis(50),
            read_chunk: 64 * 1024,
            write_backlog_watermark: 256 * 1024,
            close_grace: Duration::from_secs(5),
            force_poll_backend: false,
        }
    }
}

struct Slot<S> {
    stream: TcpStream,
    session: S,
    out: Vec<u8>,
    written: usize,
    interest: Interest,
    closing: bool,
    close_deadline: Option<Instant>,
    /// Listed in [`Driver::parked`].
    parked: bool,
}

enum FlushStep {
    Drained,
    Blocked,
    Failed,
}

const LISTENER_TOKEN: Token = Token(0);
const WAKER_TOKEN: Token = Token(usize::MAX);

/// The event loop. See the module docs for the contract.
pub struct Driver<F: SessionFactory> {
    poller: Poller,
    listener: TcpListener,
    factory: F,
    config: DriverConfig,
    slots: Vec<Option<Slot<F::Session>>>,
    free: Vec<usize>,
    read_buf: Vec<u8>,
    waker: Option<Waker>,
    /// Slots whose session stopped wanting input (may hold stale entries;
    /// [`Slot::parked`] is authoritative).
    parked: Vec<usize>,
}

impl<F: SessionFactory> Driver<F> {
    /// Run the loop until [`SessionFactory::should_stop`] reports true.
    /// Consumes the listener; returns the factory for final accounting.
    pub fn run(listener: TcpListener, factory: F, config: DriverConfig) -> io::Result<F> {
        listener.set_nonblocking(true)?;
        let mut poller = if config.force_poll_backend {
            Poller::with_poll_backend()?
        } else {
            Poller::new()?
        };
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let waker = factory.waker();
        if let Some(w) = &waker {
            poller.register(w.0 .1.as_raw_fd(), WAKER_TOKEN, Interest::READABLE)?;
        }
        let mut driver = Driver {
            poller,
            listener,
            factory,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            read_buf: vec![0u8; config.read_chunk.max(1)],
            waker,
            parked: Vec::new(),
        };
        driver.serve()?;
        driver.shutdown_flush();
        Ok(driver.factory)
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut next_tick = Instant::now() + self.config.tick;
        loop {
            if self.factory.should_stop() {
                return Ok(());
            }
            let timeout = next_tick.saturating_duration_since(Instant::now());
            self.poller.wait(&mut events, Some(timeout))?;
            // `events` is only mutated by `wait`, which runs strictly before
            // the dispatch below; taking it avoids aliasing `self`.
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if ev.token == WAKER_TOKEN {
                    self.wake_parked();
                } else {
                    let idx = ev.token.0 - 1;
                    if self.slots.get(idx).is_some_and(Option::is_some) {
                        if ev.readable {
                            self.handle_readable(idx);
                        }
                        if ev.writable && self.slots[idx].is_some() {
                            self.pump(idx);
                        }
                    }
                }
            }
            events = batch;
            let now = Instant::now();
            if now >= next_tick {
                self.tick_all(now);
                next_tick = now + self.config.tick;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let Some((stream, session)) = self.factory.admit(stream, peer) else {
                        continue;
                    };
                    if stream.set_nonblocking(true).is_err() {
                        self.factory.closed(session);
                        continue;
                    }
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let interest = Interest::READABLE;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(idx + 1), interest)
                        .is_err()
                    {
                        self.free.push(idx);
                        self.factory.closed(session);
                        continue;
                    }
                    self.slots[idx] = Some(Slot {
                        stream,
                        session,
                        out: Vec::new(),
                        written: 0,
                        interest,
                        closing: false,
                        close_deadline: None,
                        parked: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE, ...) —
                // drop this readiness edge; the listener stays registered.
                Err(_) => return,
            }
        }
    }

    fn handle_readable(&mut self, idx: usize) {
        loop {
            let slot = self.slots[idx].as_mut().expect("live slot");
            if slot.closing || !slot.session.wants_read() {
                break;
            }
            if slot.out.len() - slot.written >= self.config.write_backlog_watermark {
                // Backpressure: don't read more until the backlog drains.
                break;
            }
            match ReadStep::classify(slot.stream.read(&mut self.read_buf)) {
                ReadStep::Data(n) => {
                    if slot.session.on_bytes(&self.read_buf[..n], &mut slot.out) == Control::Close {
                        self.begin_close(idx);
                        break;
                    }
                    if n < self.read_buf.len() {
                        // A short read drained the socket: flush these
                        // answers now rather than after an `EWOULDBLOCK`
                        // read, or a client pipelining two batches gets the
                        // first batch's answers only with the second's.
                        break;
                    }
                }
                ReadStep::Retry => continue,
                ReadStep::Idle => break,
                ReadStep::Eof | ReadStep::Fatal(_) => {
                    // Best-effort final flush, then drop: with the read side
                    // gone there is nothing left to serve.
                    let _ = self.try_flush(idx);
                    self.remove(idx);
                    return;
                }
            }
        }
        self.pump(idx);
    }

    /// Flush; on drain give the session a chance to resume deferred work,
    /// and repeat while it produces output. Removes the slot on write
    /// failure or on a drained `closing` connection.
    fn pump(&mut self, idx: usize) {
        loop {
            match self.try_flush(idx) {
                FlushStep::Failed => {
                    self.remove(idx);
                    return;
                }
                FlushStep::Blocked => break,
                FlushStep::Drained => {
                    let slot = self.slots[idx].as_mut().expect("live slot");
                    if slot.closing {
                        self.remove(idx);
                        return;
                    }
                    let before = slot.out.len();
                    let control = slot.session.on_writable(&mut slot.out);
                    let produced = slot.out.len() > before;
                    if control == Control::Close {
                        self.begin_close(idx);
                        if !produced {
                            // Nothing left to drain; close now.
                            self.remove(idx);
                            return;
                        }
                        continue;
                    }
                    if !produced {
                        break;
                    }
                }
            }
        }
        self.refresh(idx);
    }

    /// Derives the slot's poll interest from its state — readable while
    /// the session wants input and the backlog is under the watermark,
    /// writable while a backlog remains — and lists a newly parked slot.
    fn refresh(&mut self, idx: usize) {
        let slot = self.slots[idx].as_mut().expect("live slot");
        let backlog = slot.out.len() - slot.written;
        let wants_read = slot.session.wants_read();
        if !wants_read && !slot.parked {
            slot.parked = true;
            self.parked.push(idx);
        }
        let interest = Interest {
            readable: wants_read && !slot.closing && backlog < self.config.write_backlog_watermark,
            writable: backlog > 0,
        };
        self.set_interest(idx, interest);
    }

    /// The waker fired: every parked session gets a [`Driver::pump`], which
    /// offers it [`Session::on_writable`] once its backlog is flushed.
    fn wake_parked(&mut self) {
        if let Some(w) = &self.waker {
            w.reset();
        }
        for idx in std::mem::take(&mut self.parked) {
            if let Some(slot) = self.slots[idx].as_mut().filter(|s| s.parked) {
                slot.parked = false;
                self.pump(idx);
            }
        }
    }

    fn try_flush(&mut self, idx: usize) -> FlushStep {
        let slot = self.slots[idx].as_mut().expect("live slot");
        while slot.written < slot.out.len() {
            match slot.stream.write(&slot.out[slot.written..]) {
                Ok(0) => return FlushStep::Failed,
                Ok(n) => {
                    slot.written += n;
                    slot.session.on_wrote(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Compact so the backlog is bounded by unsent bytes.
                    if slot.written > 0 {
                        slot.out.drain(..slot.written);
                        slot.written = 0;
                    }
                    return FlushStep::Blocked;
                }
                Err(_) => return FlushStep::Failed,
            }
        }
        slot.out.clear();
        slot.written = 0;
        FlushStep::Drained
    }

    fn begin_close(&mut self, idx: usize) {
        let grace = self.config.close_grace;
        let slot = self.slots[idx].as_mut().expect("live slot");
        if !slot.closing {
            slot.closing = true;
            slot.close_deadline = Some(Instant::now() + grace);
        }
    }

    /// An empty interest deregisters the socket: a parked connection with
    /// nothing to write must not report (say) a hangup on every wait.
    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let slot = self.slots[idx].as_mut().expect("live slot");
        if slot.interest == interest {
            return;
        }
        let (fd, token) = (slot.stream.as_raw_fd(), Token(idx + 1));
        let was_registered = slot.interest.readable || slot.interest.writable;
        slot.interest = interest;
        let _ = match (was_registered, interest.readable || interest.writable) {
            (true, false) => self.poller.deregister(fd),
            (false, true) => self.poller.register(fd, token, interest),
            _ => self.poller.modify(fd, token, interest),
        };
    }

    fn tick_all(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            if slot.closing {
                if slot.close_deadline.is_some_and(|d| now >= d) {
                    // The peer never drained our final bytes within the
                    // grace period: reclaim the slot anyway.
                    self.remove(idx);
                }
                continue;
            }
            if slot.session.on_tick(&mut slot.out) == Control::Close {
                self.begin_close(idx);
            }
            self.pump(idx);
        }
    }

    fn remove(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("live slot");
        let _ = self.poller.deregister(slot.stream.as_raw_fd());
        self.factory.closed(slot.session);
        self.free.push(idx);
    }

    /// One best-effort nonblocking flush for every live connection, then
    /// close them all.
    fn shutdown_flush(&mut self) {
        for idx in 0..self.slots.len() {
            if let Some(slot) = self.slots[idx].as_mut() {
                if slot.parked {
                    let _ = slot.session.on_writable(&mut slot.out);
                }
                let _ = self.try_flush(idx);
                self.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write as IoWrite};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Line-echo session: `QUIT` asks for a close, anything else echoes.
    struct Echo {
        pending: Vec<u8>,
    }

    impl Session for Echo {
        fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control {
            self.pending.extend_from_slice(data);
            while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                if &line[..] == b"QUIT\n" {
                    out.extend_from_slice(b"bye\n");
                    return Control::Close;
                }
                out.extend_from_slice(b"echo ");
                out.extend_from_slice(&line);
            }
            Control::Continue
        }
    }

    struct EchoFactory {
        stop: Arc<AtomicBool>,
        open: Arc<AtomicUsize>,
        closed: Arc<AtomicUsize>,
    }

    impl SessionFactory for EchoFactory {
        type Session = Echo;
        fn admit(&mut self, stream: TcpStream, _peer: SocketAddr) -> Option<(TcpStream, Echo)> {
            self.open.fetch_add(1, Ordering::SeqCst);
            Some((
                stream,
                Echo {
                    pending: Vec::new(),
                },
            ))
        }
        fn closed(&mut self, _session: Echo) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn should_stop(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
    }

    fn start_echo(
        force_poll: bool,
    ) -> (
        SocketAddr,
        Arc<AtomicBool>,
        Arc<AtomicUsize>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let closed = Arc::new(AtomicUsize::new(0));
        let factory = EchoFactory {
            stop: Arc::clone(&stop),
            open: Arc::new(AtomicUsize::new(0)),
            closed: Arc::clone(&closed),
        };
        let config = DriverConfig {
            tick: Duration::from_millis(10),
            force_poll_backend: force_poll,
            ..DriverConfig::default()
        };
        let handle = std::thread::spawn(move || {
            Driver::run(listener, factory, config).expect("driver");
        });
        (addr, stop, closed, handle)
    }

    fn echo_roundtrip(force_poll: bool) {
        let (addr, stop, closed, handle) = start_echo(force_poll);
        let mut conns = Vec::new();
        for i in 0..8 {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            writeln!(stream, "hello {i}").expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line, format!("echo hello {i}\n"));
            conns.push((stream, reader));
        }
        // Flush-then-close on QUIT.
        let (ref mut s0, ref mut r0) = conns[0];
        s0.write_all(b"QUIT\n").expect("write quit");
        let mut line = String::new();
        r0.read_line(&mut line).expect("read bye");
        assert_eq!(line, "bye\n");
        assert_eq!(r0.read_line(&mut line).expect("eof"), 0, "closed after bye");

        stop.store(true, Ordering::SeqCst);
        // Wake the loop: the tick cadence also notices, but a connect is
        // immediate.
        let _ = TcpStream::connect(addr);
        handle.join().expect("driver thread");
        assert!(
            closed.load(Ordering::SeqCst) >= 8,
            "all sessions reported closed"
        );
    }

    #[test]
    fn echo_roundtrip_native_backend() {
        echo_roundtrip(false);
    }

    #[test]
    fn echo_roundtrip_poll_backend() {
        echo_roundtrip(true);
    }

    /// Hands each line to a helper thread and parks until it answers, the
    /// way the server hands `PAGE` work to an ingest lane.
    struct Offload {
        waker: Waker,
        done: Arc<Mutex<Option<Vec<u8>>>>,
        busy: bool,
    }

    impl Session for Offload {
        fn on_bytes(&mut self, data: &[u8], _out: &mut Vec<u8>) -> Control {
            assert!(!self.busy, "a parked session is not read from");
            self.busy = true;
            let (line, done, waker) = (data.to_vec(), Arc::clone(&self.done), self.waker.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                *done.lock().unwrap() = Some(line);
                waker.wake();
            });
            Control::Continue
        }

        fn wants_read(&self) -> bool {
            !self.busy
        }

        fn on_writable(&mut self, out: &mut Vec<u8>) -> Control {
            if let Some(line) = self.done.lock().unwrap().take() {
                out.extend_from_slice(b"done ");
                out.extend_from_slice(&line);
                self.busy = false;
            }
            Control::Continue
        }
    }

    struct OffloadFactory {
        waker: Waker,
        stop: Arc<AtomicBool>,
    }

    impl SessionFactory for OffloadFactory {
        type Session = Offload;
        fn admit(&mut self, stream: TcpStream, _peer: SocketAddr) -> Option<(TcpStream, Offload)> {
            let session = Offload {
                waker: self.waker.clone(),
                done: Arc::new(Mutex::new(None)),
                busy: false,
            };
            Some((stream, session))
        }
        fn closed(&mut self, _session: Offload) {}
        fn should_stop(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
        fn waker(&self) -> Option<Waker> {
            Some(self.waker.clone())
        }
    }

    /// A session parked on another thread's work is not read from until
    /// the waker fires, so pipelined lines are answered one job at a time
    /// and in order, while other connections are served meanwhile.
    #[test]
    fn parked_sessions_resume_on_wake() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let factory = OffloadFactory {
            waker: Waker::new().expect("waker"),
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::spawn(move || {
            Driver::run(listener, factory, DriverConfig::default()).expect("driver");
        });
        let mut conns: Vec<_> = (0..2)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            c.write_all(format!("job {i}\n").as_bytes()).expect("write");
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let mut line = String::new();
            BufReader::new(c.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read");
            assert_eq!(line, format!("done job {i}\n"));
            c.write_all(b"again\n").expect("write");
            line.clear();
            BufReader::new(c.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read");
            assert_eq!(line, "done again\n");
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        handle.join().expect("driver thread");
    }

    /// A peer that stops reading must not wedge the loop: other clients
    /// stay served, and the stalled connection is reclaimed at the close
    /// grace deadline once its session asks to close.
    #[test]
    fn non_reading_peer_does_not_block_others() {
        let (addr, stop, _closed, handle) = start_echo(false);
        let mut staller = TcpStream::connect(addr).expect("connect");
        // Push enough request bytes that the echoed responses overflow the
        // socket buffers of a peer that never reads.
        staller.set_nonblocking(true).expect("nonblocking");
        let chunk = [b'a'; 1023];
        let mut burst = Vec::new();
        for _ in 0..4096 {
            burst.extend_from_slice(&chunk);
            burst.push(b'\n');
        }
        let mut sent = 0;
        while sent < burst.len() {
            match staller.write(&burst[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("write: {e}"),
            }
        }
        // While the staller's backlog sits unflushed, a well-behaved client
        // must be served promptly.
        let well_behaved = TcpStream::connect(addr).expect("connect");
        well_behaved
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(well_behaved.try_clone().expect("clone"));
        let mut w = well_behaved;
        w.write_all(b"ping\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "echo ping\n");

        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        handle.join().expect("driver thread");
    }
}
