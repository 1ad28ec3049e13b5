//! Open-loop load generation for the EPFIS server.
//!
//! Closed-loop clients measure how fast a cooperating client/server pair
//! can go; they hide queueing delay because the client politely waits for
//! each response before issuing the next request. This module drives the opposite contract: requests arrive
//! on a fixed schedule (`rate` per second) whether or not earlier ones have
//! completed, and **latency is measured from the scheduled arrival** — so
//! server-side queueing shows up in the percentiles instead of silently
//! stretching the run (the coordinated-omission trap).
//!
//! The generator is a single thread multiplexing every client connection
//! over an [`epfis_net::Poller`] — the same readiness core the server's
//! event loop uses — so one process can hold thousands of connections
//! (`idle_conns`) while pushing requests through a few active ones: the
//! mostly-idle fleet whose cost the event loop must keep flat.

use epfis_net::{Event, Interest, Poller, Token};
use epfis_obs::Histogram;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One load-generation run's shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Scheduled arrivals per second.
    pub rate: f64,
    /// Scheduling window; total requests = `rate * duration`.
    pub duration: Duration,
    /// Active connections the arrivals round-robin over.
    pub conns: usize,
    /// Additional connections opened first and held silent for the whole
    /// run — the "10k idle connections" background.
    pub idle_conns: usize,
    /// Text request issued on every arrival (without trailing newline).
    pub request: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            rate: 1000.0,
            duration: Duration::from_secs(2),
            conns: 64,
            idle_conns: 0,
            request: "PING".to_string(),
        }
    }
}

/// What one run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests scheduled and written (or queued) onto a connection.
    pub sent: u64,
    /// Responses that came back `OK`.
    pub completed: u64,
    /// `ERR`/`SERVER_BUSY` responses plus requests lost to closed
    /// connections.
    pub errors: u64,
    /// Wall-clock from first scheduled arrival to last completion.
    pub elapsed: Duration,
    /// Completions per wall-clock second.
    pub achieved_rps: f64,
    /// Latency percentiles (µs), scheduled-arrival → completion.
    pub p50_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// Maximum observed latency (µs).
    pub max_us: u64,
    /// Mean latency (µs).
    pub mean_us: u64,
}

impl LoadgenReport {
    /// Renders the report as a single JSON object line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"completed\": {}, \"errors\": {}, \"elapsed_s\": {:.3}, \
             \"achieved_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"max_us\": {}, \"mean_us\": {}}}",
            self.sent,
            self.completed,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.achieved_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            self.mean_us
        )
    }
}

/// Incremental parser state for one text response.
enum Parse {
    /// Waiting for the header line (`OK n`, `ERR ...`, `SERVER_BUSY`).
    Header,
    /// Inside an `OK n` body with this many data lines left.
    Body(usize),
}

struct ClientConn {
    stream: TcpStream,
    token: Token,
    /// Unwritten request bytes (requests are appended as they arrive).
    out: Vec<u8>,
    written: usize,
    /// Scheduled-arrival stamp per in-flight request, FIFO — responses
    /// come back in request order on each connection.
    in_flight: VecDeque<Instant>,
    inbuf: Vec<u8>,
    parse: Parse,
    dead: bool,
}

impl ClientConn {
    fn interest(&self) -> Interest {
        if self.written < self.out.len() {
            Interest::BOTH
        } else {
            Interest::READABLE
        }
    }
}

/// Runs one open-loop load generation against a live server.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let total = (config.rate * config.duration.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / config.rate.max(1e-9));
    // Both endpoints of idle connections may live in this process.
    let _ = epfis_net::io::raise_nofile_limit(
        (config.idle_conns as u64 + config.conns as u64) * 2 + 1024,
    );

    let mut idle = Vec::with_capacity(config.idle_conns);
    for _ in 0..config.idle_conns {
        idle.push(TcpStream::connect(config.addr)?);
    }

    let mut poller = Poller::new()?;
    let mut conns = Vec::with_capacity(config.conns);
    for i in 0..config.conns.max(1) {
        let stream = TcpStream::connect(config.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let token = Token(i);
        poller.register(stream.as_raw_fd(), token, Interest::READABLE)?;
        conns.push(ClientConn {
            stream,
            token,
            out: Vec::new(),
            written: 0,
            in_flight: VecDeque::new(),
            inbuf: Vec::new(),
            parse: Parse::Header,
            dead: false,
        });
    }

    let latency = Histogram::new();
    let mut sent = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let start = Instant::now();
    let mut next_arrival = start;
    let mut next_conn = 0usize;
    let mut events: Vec<Event> = Vec::new();
    // After the schedule ends, allow stragglers this long to drain.
    let drain_deadline = start + config.duration + Duration::from_secs(10);

    loop {
        let now = Instant::now();
        // Issue every arrival whose scheduled time has passed, whether or
        // not earlier requests completed — that is the open loop.
        while sent < total && next_arrival <= now {
            let mut picked = None;
            for _ in 0..conns.len() {
                let idx = next_conn % conns.len();
                next_conn += 1;
                if !conns[idx].dead {
                    picked = Some(idx);
                    break;
                }
            }
            let Some(idx) = picked else {
                return Err(io::Error::other("all loadgen connections closed"));
            };
            let conn = &mut conns[idx];
            conn.out.extend_from_slice(config.request.as_bytes());
            conn.out.push(b'\n');
            conn.in_flight.push_back(next_arrival);
            sent += 1;
            next_arrival += interval;
        }

        // Push pending bytes opportunistically; fall back to writable
        // readiness when the socket pushes back.
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            flush_conn(conn, &mut poller)?;
        }

        let in_flight_total: usize = conns.iter().map(|c| c.in_flight.len()).sum();
        if sent >= total && in_flight_total == 0 {
            break;
        }
        if Instant::now() >= drain_deadline {
            errors += in_flight_total as u64;
            break;
        }

        let timeout = if sent < total {
            next_arrival.saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        poller.wait(&mut events, Some(timeout.min(Duration::from_millis(100))))?;
        for event in std::mem::take(&mut events) {
            let conn = &mut conns[event.token.0];
            if conn.dead {
                continue;
            }
            if event.readable {
                read_conn(conn, &latency, &mut completed, &mut errors, &mut poller)?;
            }
            if event.writable && !conn.dead {
                flush_conn(conn, &mut poller)?;
            }
        }
    }

    let elapsed = start.elapsed();
    drop(idle);
    Ok(LoadgenReport {
        sent,
        completed,
        errors,
        elapsed,
        achieved_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p99_us: latency.quantile(0.99),
        p999_us: latency.quantile(0.999),
        max_us: latency.max(),
        mean_us: latency.mean(),
    })
}

fn flush_conn(conn: &mut ClientConn, poller: &mut Poller) -> io::Result<()> {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => {
                mark_dead(conn, poller);
                return Ok(());
            }
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                mark_dead(conn, poller);
                return Ok(());
            }
        }
    }
    if conn.written == conn.out.len() {
        conn.out.clear();
        conn.written = 0;
    }
    if !conn.dead {
        poller.modify(conn.stream.as_raw_fd(), conn.token, conn.interest())?;
    }
    Ok(())
}

fn read_conn(
    conn: &mut ClientConn,
    latency: &Histogram,
    completed: &mut u64,
    errors: &mut u64,
    poller: &mut Poller,
) -> io::Result<()> {
    let mut buf = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                mark_dead(conn, poller);
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                drain_responses(conn, latency, completed, errors);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                mark_dead(conn, poller);
                break;
            }
        }
    }
    Ok(())
}

/// Consumes complete lines from `inbuf`, completing responses. A response
/// is `OK n` followed by `n` data lines, or a single `ERR ...` /
/// `SERVER_BUSY` line.
fn drain_responses(
    conn: &mut ClientConn,
    latency: &Histogram,
    completed: &mut u64,
    errors: &mut u64,
) {
    let mut consumed = 0;
    while let Some(pos) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
        let line_end = consumed + pos;
        let line = &conn.inbuf[consumed..line_end];
        consumed = line_end + 1;
        match conn.parse {
            Parse::Header => {
                if let Some(rest) = line.strip_prefix(b"OK ") {
                    let n: usize = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(0);
                    if n == 0 {
                        finish(conn, latency, completed, true);
                    } else {
                        conn.parse = Parse::Body(n);
                    }
                } else {
                    // ERR, SERVER_BUSY, or anything unexpected.
                    finish(conn, latency, errors, false);
                }
            }
            Parse::Body(left) => {
                if left <= 1 {
                    conn.parse = Parse::Header;
                    finish(conn, latency, completed, true);
                } else {
                    conn.parse = Parse::Body(left - 1);
                }
            }
        }
    }
    conn.inbuf.drain(..consumed);
}

fn finish(conn: &mut ClientConn, histogram: &Histogram, counter: &mut u64, record: bool) {
    if let Some(scheduled) = conn.in_flight.pop_front() {
        if record {
            let micros = Instant::now()
                .saturating_duration_since(scheduled)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            histogram.record(micros);
        }
        *counter += 1;
    }
}

fn mark_dead(conn: &mut ClientConn, poller: &mut Poller) {
    if !conn.dead {
        conn.dead = true;
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_pipelined_ok_err_and_busy_responses() {
        let stream = {
            // A loopback socket pair: the test never reads/writes it, but
            // ClientConn needs a real TcpStream.
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            TcpStream::connect(listener.local_addr().unwrap()).unwrap()
        };
        let mut conn = ClientConn {
            stream,
            token: Token(0),
            out: Vec::new(),
            written: 0,
            in_flight: VecDeque::from(vec![Instant::now(); 4]),
            inbuf: Vec::new(),
            parse: Parse::Header,
            dead: false,
        };
        let latency = Histogram::new();
        let (mut completed, mut errors) = (0u64, 0u64);
        // Split across two feeds mid-line to exercise the incremental path.
        let bytes = b"OK 2\nline a\nline b\nERR nope\nSERVER_BUSY\nOK 0\n";
        conn.inbuf.extend_from_slice(&bytes[..9]);
        drain_responses(&mut conn, &latency, &mut completed, &mut errors);
        conn.inbuf.extend_from_slice(&bytes[9..]);
        drain_responses(&mut conn, &latency, &mut completed, &mut errors);
        assert_eq!((completed, errors), (2, 2));
        // The ERR/BUSY pair is counted but not recorded.
        assert_eq!(latency.count(), 2);
        assert!(conn.inbuf.is_empty());
        assert!(conn.in_flight.is_empty());
    }
}
