//! Load generators: closed-loop binary and text estimates, the open-loop
//! estimate schedule, and `ANALYZE` sessions. Every answer is checked
//! against its in-process value as it arrives.

use crate::inputs::{EstimateStream, IngestInput, REFS_PER_FRAME};
use crate::trace::Tracer;
use epfis_server::framing::{self, BinResponse};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A read that waits this long has lost its response.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Pipelined batches a closed loop keeps in flight on its one connection:
/// the server always has the next batch queued while the client checks the
/// answers to the last one.
pub const BATCHES_IN_FLIGHT: usize = 2;
/// `PAGE` frames in flight per `ANALYZE` session.
const PAGE_WINDOW: usize = 16;
/// At most this many failure messages are kept for the report.
const MAX_NOTES: usize = 8;

/// Requests attempted and failed (`ERR`, `SERVER_BUSY`, lost responses and
/// answers that differ from the in-process value).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }

    /// Counts one binary `ESTIMATE` answer against its expected bits.
    fn check_f64(&mut self, resp: Option<BinResponse>, expected: u64, what: &str) {
        self.attempted += 1;
        match resp {
            Some(BinResponse::F64(v)) if v.to_bits() == expected => {}
            other => self.fail(|| {
                format!(
                    "{what}: expected {}, got {other:?}",
                    f64::from_bits(expected)
                )
            }),
        }
    }
}

/// Asks the kernel to end this thread's sleeps on time: with the default
/// 50 µs timer slack, the open-loop sender would wake up to 50 µs late for
/// every request.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // sets the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

fn timeout_kind(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reassembles length-prefixed frames from a socket without losing bytes
/// when a read times out.
struct FrameReader {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; 64 << 10],
            head: 0,
            tail: 0,
        }
    }

    fn complete(&self) -> Option<usize> {
        let avail = self.tail - self.head;
        if avail < 4 {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.head..self.head + 4].try_into().expect("4"));
        (avail >= 4 + len as usize).then_some(len as usize)
    }

    /// The next frame body, or `None` if the socket's read timeout passed
    /// first.
    fn next(&mut self, src: &mut TcpStream) -> io::Result<Option<&[u8]>> {
        let len = loop {
            if let Some(len) = self.complete() {
                break len;
            }
            if self.head == self.tail {
                self.head = 0;
                self.tail = 0;
            } else if self.tail == self.buf.len() {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
                if self.tail == self.buf.len() {
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            match src.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if timeout_kind(&e) => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let start = self.head + 4;
        self.head = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}

/// A connection upgraded to binary framing.
pub struct BinConn {
    stream: TcpStream,
    reader: FrameReader,
}

impl BinConn {
    pub fn connect(addr: SocketAddr) -> io::Result<BinConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(format!("{}\n", framing::HELLO_BINARY).as_bytes())?;
        // The upgrade answer is two text lines; read it byte by byte so no
        // binary frame is consumed with it.
        let mut answer = Vec::new();
        let mut byte = [0u8; 1];
        while answer.iter().filter(|&&b| b == b'\n').count() < 2 {
            stream.read_exact(&mut byte)?;
            answer.push(byte[0]);
        }
        let want = format!("OK 1\n{}\n", framing::HELLO_ACK);
        if answer != want.as_bytes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "HELLO BINARY answered {:?}",
                    String::from_utf8_lossy(&answer)
                ),
            ));
        }
        Ok(BinConn {
            stream,
            reader: FrameReader::new(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next response; `None` if it could not be decoded.
    pub fn recv(&mut self) -> io::Result<Option<BinResponse>> {
        match self.reader.next(&mut self.stream)? {
            Some(body) => Ok(framing::decode_response(body).ok()),
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the I/O timeout",
            )),
        }
    }
}

/// Rate and outcomes of a closed-loop phase.
pub struct Closed {
    /// Requests answered per second over the phase.
    pub rate: f64,
    pub tally: Tally,
}

/// One closed-loop batch: its first stream index, when it was sent, and
/// when its last answer was read.
type Batch = (usize, Instant, Instant);

/// Drives a closed loop on one connection: batches of `depth` consecutive
/// stream requests from offset `start`, [`BATCHES_IN_FLIGHT`] in flight,
/// until `dur` has passed and every batch sent is answered. `send` writes
/// the batch that starts at a stream index; `recv` reads and checks its
/// answers. Returns the answer rate and the batches.
fn pipelined<C>(
    conn: &mut C,
    len: usize,
    start: usize,
    depth: usize,
    dur: Duration,
    mut send: impl FnMut(&mut C, usize) -> io::Result<()>,
    mut recv: impl FnMut(&mut C, usize) -> io::Result<()>,
) -> io::Result<(f64, Vec<Batch>)> {
    let mut next = start % len / depth * depth;
    let mut in_flight = VecDeque::with_capacity(BATCHES_IN_FLIGHT);
    let mut batches = Vec::new();
    let t0 = Instant::now();
    loop {
        while in_flight.len() < BATCHES_IN_FLIGHT && t0.elapsed() < dur {
            if next + depth > len {
                next = 0;
            }
            send(conn, next)?;
            in_flight.push_back((next, Instant::now()));
            next += depth;
        }
        let Some((i, sent)) = in_flight.pop_front() else {
            break;
        };
        recv(conn, i)?;
        batches.push((i, sent, Instant::now()));
    }
    let rate = (batches.len() * depth) as f64 / t0.elapsed().as_secs_f64();
    Ok((rate, batches))
}

/// Closed-loop binary `ESTIMATE`s on one connection, `depth` pipelined
/// requests per batch, from stream offset `start`.
pub fn closed_binary(
    conn: &mut BinConn,
    s: &EstimateStream,
    start: usize,
    depth: usize,
    dur: Duration,
    tracer: &mut Tracer,
) -> io::Result<Closed> {
    let mut tally = Tally::default();
    let (rate, batches) = pipelined(
        conn,
        s.len(),
        start,
        depth,
        dur,
        |c, i| c.send(&s.bin[s.bin_off[i]..s.bin_off[i + depth]]),
        |c, i| {
            for k in i..i + depth {
                tally.check_f64(c.recv()?, s.expected[k], "binary ESTIMATE");
            }
            Ok(())
        },
    )?;
    for (i, sent, done) in batches {
        tracer.record(
            "wire.estimate_batch",
            sent,
            done,
            None,
            i as u64,
            depth as u64,
        );
    }
    Ok(Closed { rate, tally })
}

/// A text-protocol connection.
pub struct TextConn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl TextConn {
    pub fn connect(addr: SocketAddr) -> io::Result<TextConn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(IO_TIMEOUT))?;
        let r = BufReader::with_capacity(64 << 10, w.try_clone()?);
        Ok(TextConn { w, r })
    }
}

/// Closed-loop text `ESTIMATE`s on one connection, `window` lines per
/// batch, from stream offset `start`; every answer must parse back to the
/// expected bits.
pub fn closed_text(
    conn: &mut TextConn,
    s: &EstimateStream,
    start: usize,
    window: usize,
    dur: Duration,
    tracer: &mut Tracer,
) -> io::Result<Closed> {
    let mut tally = Tally::default();
    let mut line = String::new();
    let (rate, batches) = pipelined(
        conn,
        s.len(),
        start,
        window,
        dur,
        |c, i| {
            c.w.write_all(&s.text[s.text_off[i]..s.text_off[i + window]])
        },
        |c, i| {
            for k in i..i + window {
                tally.attempted += 1;
                line.clear();
                c.r.read_line(&mut line)?;
                if line.trim_end() != "OK 1" {
                    tally.fail(|| format!("text ESTIMATE: status {:?}", line.trim_end()));
                    continue;
                }
                line.clear();
                c.r.read_line(&mut line)?;
                match line.trim_end().parse::<f64>() {
                    Ok(v) if v.to_bits() == s.expected[k] => {}
                    _ => tally.fail(|| {
                        format!(
                            "text ESTIMATE: expected {}, got {:?}",
                            f64::from_bits(s.expected[k]),
                            line.trim_end()
                        )
                    }),
                }
            }
            Ok(())
        },
    )?;
    for (i, sent, done) in batches {
        tracer.record(
            "wire.text_window",
            sent,
            done,
            None,
            i as u64,
            window as u64,
        );
    }
    Ok(Closed { rate, tally })
}

/// Latency and generator lag of an open-loop phase.
pub struct Open {
    /// Scheduled send to answer, per request, in µs.
    pub latency_us: Vec<f64>,
    /// Actual minus scheduled send, per request, in µs.
    pub lag_us: Vec<f64>,
    pub tally: Tally,
}

/// Open-loop binary `ESTIMATE`s at `rate_hz` on one connection: a sender
/// thread writes each request when it is due (every request already due
/// goes out in one write), and this thread reads the answers. Each request
/// is timed from when it was due, so a stall counts against every request
/// scheduled behind it.
pub fn open_loop(
    conn: &mut BinConn,
    s: &EstimateStream,
    start: usize,
    rate_hz: f64,
    dur: Duration,
    tracer: &mut Tracer,
) -> io::Result<Open> {
    let mut writer = conn.stream.try_clone()?;
    // Short read timeouts let the reader notice a finished sender; the
    // frame reader keeps partial frames across them.
    conn.stream
        .set_read_timeout(Some(Duration::from_millis(50)))?;
    let total = (dur.as_secs_f64() * rate_hz) as usize;
    let period_ns = 1e9 / rate_hz;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| t0 + Duration::from_nanos((k as f64 * period_ns) as u64);
    let stream_index = |k: usize| (start + k) % s.len();
    let sender_done = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let sender = sc.spawn(|| -> io::Result<Vec<f64>> {
            tighten_timer_slack();
            let result = (|| {
                let mut lag = Vec::with_capacity(total);
                let mut out = Vec::with_capacity(64 * 64);
                let mut k = 0;
                while k < total {
                    let now = Instant::now();
                    if now < due(k) {
                        std::thread::sleep(due(k) - now);
                    }
                    let now = Instant::now();
                    out.clear();
                    while k < total && due(k) <= now {
                        let j = stream_index(k);
                        out.extend_from_slice(&s.bin[s.bin_off[j]..s.bin_off[j + 1]]);
                        lag.push((now - due(k)).as_secs_f64() * 1e6);
                        k += 1;
                    }
                    writer.write_all(&out)?;
                }
                Ok(lag)
            })();
            sender_done.store(true, Ordering::Release);
            result
        });
        let mut latency_us = Vec::with_capacity(total);
        let mut tally = Tally::default();
        let mut last_answer = Instant::now();
        let mut err = None;
        while latency_us.len() < total {
            match conn.reader.next(&mut conn.stream) {
                Ok(Some(body)) => {
                    let now = Instant::now();
                    let k = latency_us.len();
                    latency_us.push((now - due(k)).as_secs_f64() * 1e6);
                    tally.check_f64(
                        framing::decode_response(body).ok(),
                        s.expected[stream_index(k)],
                        "open-loop ESTIMATE",
                    );
                    tracer.record("wire.estimate", due(k), now, None, k as u64, 1);
                    last_answer = now;
                }
                Ok(None) => {
                    if sender_done.load(Ordering::Acquire) && last_answer.elapsed() > IO_TIMEOUT {
                        break;
                    }
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let lost = total - latency_us.len();
        tally.attempted += lost as u64;
        for _ in 0..lost {
            tally.fail(|| "open-loop ESTIMATE: no answer".into());
        }
        let lag_us = sender.join().expect("sender thread panicked")?;
        conn.stream.set_read_timeout(Some(IO_TIMEOUT))?;
        match err {
            Some(e) => Err(e),
            None => Ok(Open {
                latency_us,
                lag_us,
                tally,
            }),
        }
    })
}

/// Outcomes of a run of back-to-back `ANALYZE` sessions.
#[derive(Default)]
pub struct Analyze {
    /// References per second of each committed session, `ANALYZE BEGIN`
    /// send to `COMMIT` ack.
    pub refs_per_s: Vec<f64>,
    /// `COMMIT` send to ack, ms.
    pub commit_ms: Vec<f64>,
    /// `(COMMIT send, ack)` of each session.
    pub commits: Vec<(Instant, Instant)>,
    /// Sessions started; the next one streams `inputs[sessions % len]`.
    pub sessions: usize,
    pub tally: Tally,
}

/// Back-to-back binary `ANALYZE` sessions over `inputs` (taking turns
/// across calls) on one connection until `dur` has passed; at least one
/// session runs. Each committed entry must answer its `(sigma, B, S)` grid
/// with the bits an in-process `IngestSession` commits for the same
/// references.
pub fn analyze_loop(
    conn: &mut BinConn,
    inputs: &[IngestInput],
    dur: Duration,
    out: &mut Analyze,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let mut buf = Vec::new();
    let t0 = Instant::now();
    let first = out.sessions;
    while out.sessions == first || t0.elapsed() < dur {
        let n = out.sessions;
        session(conn, &inputs[n % inputs.len()], n, &mut buf, out, tracer)?;
        out.sessions += 1;
    }
    Ok(())
}

fn session(
    conn: &mut BinConn,
    input: &IngestInput,
    n: usize,
    buf: &mut Vec<u8>,
    out: &mut Analyze,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let tally = &mut out.tally;
    let span = tracer.open("wire.analyze_session", None, n as u64);
    let begin = Instant::now();
    buf.clear();
    framing::encode_analyze_begin(buf, &input.name, 0, input.table_pages);
    conn.send(buf)?;
    tally.attempted += 1;
    match conn.recv()? {
        Some(BinResponse::Lines(_)) => {}
        other => {
            tally.fail(|| format!("ANALYZE BEGIN {}: {other:?}", input.name));
            tracer.close(span, 0);
            return Ok(());
        }
    }
    let pages = Instant::now();
    tracer.record("wire.begin", begin, pages, Some(span), n as u64, 1);
    let frames = input.frame_count();
    let ack = |k: usize, conn: &mut BinConn, tally: &mut Tally| -> io::Result<()> {
        tally.attempted += 1;
        let want = (((k + 1) * REFS_PER_FRAME) as u64).min(input.refs);
        match conn.recv()? {
            Some(BinResponse::U64(got)) if got == want => {}
            other => tally.fail(|| format!("PAGE {k} of {}: {other:?}", input.name)),
        }
        Ok(())
    };
    for i in 0..frames {
        conn.send(&input.frames[input.frame_off[i]..input.frame_off[i + 1]])?;
        if i >= PAGE_WINDOW {
            ack(i - PAGE_WINDOW, conn, tally)?;
        }
    }
    for k in frames.saturating_sub(PAGE_WINDOW)..frames {
        ack(k, conn, tally)?;
    }
    let c0 = Instant::now();
    tracer.record("wire.pages", pages, c0, Some(span), n as u64, input.refs);
    buf.clear();
    framing::encode_tag_only(buf, framing::REQ_ANALYZE_COMMIT);
    conn.send(buf)?;
    tally.attempted += 1;
    let committed = conn.recv()?;
    let c1 = Instant::now();
    tracer.record("wire.commit", c0, c1, Some(span), n as u64, 1);
    match committed {
        Some(BinResponse::Lines(_)) => {
            out.refs_per_s
                .push(input.refs as f64 / (c1 - begin).as_secs_f64());
            out.commit_ms.push((c1 - c0).as_secs_f64() * 1e3);
            out.commits.push((c0, c1));
        }
        other => {
            tally.fail(|| format!("ANALYZE COMMIT {}: {other:?}", input.name));
            tracer.close(span, input.refs);
            return Ok(());
        }
    }
    // The committed entry must answer like the in-process session.
    let check = Instant::now();
    buf.clear();
    for (q, _) in &input.grid {
        framing::encode_estimate(
            buf,
            &input.name,
            q.selectivity,
            q.buffer_pages,
            q.sargable_selectivity,
        );
    }
    conn.send(buf)?;
    for &(_, want) in &input.grid {
        tally.check_f64(conn.recv()?, want, "post-commit grid ESTIMATE");
    }
    tracer.record(
        "wire.grid_check",
        check,
        Instant::now(),
        Some(span),
        n as u64,
        input.grid.len() as u64,
    );
    tracer.close(span, input.refs);
    Ok(())
}

/// One-in-flight binary round trips for `dur`, in µs: `PING` and
/// `ESTIMATE` (checked) take turns, so the gap between them is measured
/// under the same conditions.
pub fn rtt(
    conn: &mut BinConn,
    s: &EstimateStream,
    dur: Duration,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> io::Result<(Vec<f64>, Vec<f64>)> {
    let (mut ping, mut est) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    framing::encode_tag_only(&mut buf, framing::REQ_PING);
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let k = ping.len();
        let start = Instant::now();
        conn.send(&buf)?;
        tally.attempted += 1;
        match conn.recv()? {
            Some(BinResponse::Lines(l)) if l == ["pong"] => {}
            other => tally.fail(|| format!("PING: {other:?}")),
        }
        let end = Instant::now();
        tracer.record("wire.ping_rtt", start, end, None, k as u64, 1);
        ping.push((end - start).as_secs_f64() * 1e6);

        let j = k % s.len();
        let start = Instant::now();
        conn.send(&s.bin[s.bin_off[j]..s.bin_off[j + 1]])?;
        tally.check_f64(conn.recv()?, s.expected[j], "one-in-flight ESTIMATE");
        let end = Instant::now();
        tracer.record("wire.estimate_rtt", start, end, None, k as u64, 1);
        est.push((end - start).as_secs_f64() * 1e6);
    }
    Ok((ping, est))
}

/// One-in-flight binary `ESTIMATE`s for `dur`, each recorded as a span
/// named `name`; returns each request's send and answer instants.
pub fn estimate_rtt(
    conn: &mut BinConn,
    s: &EstimateStream,
    dur: Duration,
    name: &'static str,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> io::Result<Vec<(Instant, Instant)>> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let k = out.len();
        let j = k % s.len();
        let start = Instant::now();
        conn.send(&s.bin[s.bin_off[j]..s.bin_off[j + 1]])?;
        tally.check_f64(conn.recv()?, s.expected[j], "one-in-flight ESTIMATE");
        let end = Instant::now();
        tracer.record(name, start, end, None, k as u64, 1);
        out.push((start, end));
    }
    Ok(out)
}
