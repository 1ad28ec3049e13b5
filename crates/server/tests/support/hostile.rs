//! Misbehaving clients for the hardening and serving-core suites.
//!
//! Each helper drives one hostile scenario against a live server — a
//! newline-less flood, a slow-loris writer that trickles bytes but never
//! completes a request, a pile of connections that go silent, a peer that
//! stops reading, a peer that vanishes mid-`ANALYZE` — and reports what
//! the server did about it. The suites assert the server's side with exact
//! `STATS` accounting.

#![allow(dead_code)] // each test binary uses a different subset

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What a hostile scenario observed from the server.
#[derive(Debug)]
pub struct HostileOutcome {
    /// Bytes the client managed to write before the server pushed back.
    pub bytes_written: u64,
    /// The first response line the server sent, if one arrived before the
    /// socket closed (e.g. `ERR limit line ...`). A server may reset the
    /// connection before the client reads it, so `None` is also a valid
    /// rejection signal.
    pub response: Option<String>,
    /// Whether the server closed or reset the connection.
    pub disconnected: bool,
}

/// Reads whatever single response line is available within `timeout`.
fn read_response(stream: &mut TcpStream, timeout: Duration) -> (Option<String>, bool) {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut collected = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + timeout;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                let line = first_line(&collected);
                return (line, true);
            }
            Ok(n) => {
                collected.extend_from_slice(&buf[..n]);
                if collected.contains(&b'\n') {
                    // One line is all a rejection sends; keep reading until
                    // EOF only if time remains, to learn `disconnected`.
                    if Instant::now() >= deadline {
                        return (first_line(&collected), false);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return (first_line(&collected), false);
                }
            }
            Err(_) => return (first_line(&collected), true),
        }
    }
}

fn first_line(bytes: &[u8]) -> Option<String> {
    if bytes.is_empty() {
        return None;
    }
    let end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    Some(
        String::from_utf8_lossy(&bytes[..end])
            .trim_end()
            .to_string(),
    )
}

/// Streams up to `attempt_bytes` of `A`s with **no newline** at `addr`,
/// stopping early when the server pushes back (write error after it stops
/// reading and closes). Returns how far the flood got and what the server
/// answered — a hardened server bounds its own reads near `max_line_bytes`
/// no matter how large `attempt_bytes` is.
pub fn flood_without_newline<A: ToSocketAddrs>(
    addr: A,
    attempt_bytes: u64,
) -> std::io::Result<HostileOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // A finite write timeout turns "server stopped reading" into an error
    // instead of blocking forever on a full socket buffer.
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let chunk = [b'A'; 8192];
    let mut written = 0u64;
    while written < attempt_bytes {
        let n = ((attempt_bytes - written) as usize).min(chunk.len());
        match stream.write(&chunk[..n]) {
            Ok(0) | Err(_) => break,
            Ok(w) => written += w as u64,
        }
    }
    let (response, disconnected) = read_response(&mut stream, Duration::from_secs(2));
    Ok(HostileOutcome {
        bytes_written: written,
        response,
        disconnected,
    })
}

/// Writes one newline-less byte every `interval` for up to `max_duration`,
/// like a slow-loris attack holding a connection slot hostage. Returns early the
/// moment the server gives up on the connection; a hardened server does so
/// once `idle_timeout` passes without a completed request, since byte
/// trickles do not reset its idle deadline.
pub fn slow_loris<A: ToSocketAddrs>(
    addr: A,
    interval: Duration,
    max_duration: Duration,
) -> std::io::Result<HostileOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    stream.set_read_timeout(Some(interval))?;
    let start = Instant::now();
    let mut written = 0u64;
    let mut disconnected = false;
    let mut buf = [0u8; 1024];
    let mut collected = Vec::new();
    while start.elapsed() < max_duration {
        if stream.write_all(b"x").is_err() {
            disconnected = true;
            break;
        }
        written += 1;
        // The read doubles as the pacing sleep (read timeout == interval).
        match stream.read(&mut buf) {
            Ok(0) => {
                disconnected = true;
                break;
            }
            Ok(n) => collected.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                disconnected = true;
                break;
            }
        }
    }
    Ok(HostileOutcome {
        bytes_written: written,
        response: first_line(&collected),
        disconnected,
    })
}

/// Opens `count` connections that send nothing at all; the caller decides
/// how long to hold them (dropping the vec closes them). Against an
/// unhardened server these hold one connection slot each forever.
pub fn hold_idle_connections<A: ToSocketAddrs>(
    addr: A,
    count: usize,
) -> std::io::Result<Vec<TcpStream>> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    (0..count).map(|_| TcpStream::connect(addr)).collect()
}

/// Negotiates binary framing, then floods the server with a single frame
/// whose declared body length is `declared_body_bytes` — optionally backed
/// by that many actual bytes, but a hardened server rejects the frame from
/// its *header* (`ERR limit frame ...`) without ever buffering the body, so
/// the flood writes at most a few socket buffers before the connection
/// drops. The binary analogue of [`flood_without_newline`].
pub fn binary_flood<A: ToSocketAddrs>(
    addr: A,
    declared_body_bytes: u32,
) -> std::io::Result<HostileOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // Handshake in raw text (this is the hostile module; no Client niceties).
    stream.write_all(b"HELLO BINARY\n")?;
    let (ack, disconnected) = read_response(&mut stream, Duration::from_secs(2));
    if disconnected || ack.as_deref() != Some("OK 1") {
        return Ok(HostileOutcome {
            bytes_written: 0,
            response: ack,
            disconnected,
        });
    }
    // The ack's data line ("binary v2") was consumed by read_response's
    // buffer; from here every byte we send is binary framing.
    let mut written = 0u64;
    let header = declared_body_bytes.to_le_bytes();
    if stream.write_all(&header).is_ok() {
        written += header.len() as u64;
        let chunk = [0xABu8; 8192];
        let mut body_left = declared_body_bytes as u64;
        while body_left > 0 {
            let n = (body_left as usize).min(chunk.len());
            match stream.write(&chunk[..n]) {
                Ok(0) | Err(_) => break,
                Ok(w) => {
                    written += w as u64;
                    body_left -= w as u64;
                }
            }
        }
    }
    let (response, disconnected) = read_binary_error(&mut stream, Duration::from_secs(2));
    Ok(HostileOutcome {
        bytes_written: written,
        response,
        disconnected,
    })
}

/// Reads one binary response frame, rendering an `ERR` body as
/// `"ERR <message>"` so [`HostileOutcome::response`] matches the text
/// scenarios' shape. Transport errors report `(None, true)`.
fn read_binary_error(stream: &mut TcpStream, timeout: Duration) -> (Option<String>, bool) {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut collected = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + timeout;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                collected.extend_from_slice(&buf[..n]);
                if collected.len() >= 4 {
                    let len = u32::from_le_bytes(collected[..4].try_into().expect("4 bytes"));
                    if collected.len() >= 4 + len as usize {
                        let body = &collected[4..4 + len as usize];
                        let rendered = match epfis_server::framing::decode_response(body) {
                            Ok(epfis_server::framing::BinResponse::Err(m)) => format!("ERR {m}"),
                            Ok(other) => format!("{other:?}"),
                            Err(e) => e,
                        };
                        // Drain until EOF/timeout to learn `disconnected`.
                        let closed = loop {
                            match stream.read(&mut buf) {
                                Ok(0) => break true,
                                Ok(_) => {}
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut =>
                                {
                                    if Instant::now() >= deadline {
                                        break false;
                                    }
                                }
                                Err(_) => break true,
                            }
                        };
                        return (Some(rendered), closed);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return (None, false);
                }
            }
            Err(_) => return (None, true),
        }
    }
    (None, true)
}

/// Pipelines `copies` repetitions of `request` (newline appended) and then
/// **stops reading entirely** — the peer that provokes enough response
/// bytes to fill every buffer between server and client and walks away.
/// A hardened server abandons the flush at its write deadline and reclaims
/// the connection (counted under `sessions_disconnected`).
///
/// Detection is by write probe: the server's close, with response bytes
/// still unread in our receive queue, resets the connection, which turns
/// subsequent probe writes into errors. `disconnected` is therefore the
/// "server freed itself" signal; `false` after `max_duration` means the
/// stall is still holding the connection hostage.
pub fn write_stall<A: ToSocketAddrs>(
    addr: A,
    request: &str,
    copies: usize,
    max_duration: Duration,
) -> std::io::Result<HostileOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // A finite write timeout keeps the *client* from blocking once the
    // pipeline has filled the socket buffers; that point is the stall.
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut burst = Vec::with_capacity(request.len() + 1);
    burst.extend_from_slice(request.as_bytes());
    burst.push(b'\n');
    let mut written = 0u64;
    'send: for _ in 0..copies {
        let mut sent = 0;
        while sent < burst.len() {
            match stream.write(&burst[sent..]) {
                Ok(0) | Err(_) => break 'send,
                Ok(n) => {
                    sent += n;
                    written += n as u64;
                }
            }
        }
    }
    let deadline = Instant::now() + max_duration;
    let mut disconnected = false;
    while !disconnected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        // A lone space: harmless to the protocol (never completes a
        // request), but an RST from the server's reclaim surfaces here.
        match stream.write(b" ") {
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => disconnected = true,
        }
    }
    Ok(HostileOutcome {
        bytes_written: written,
        response: None,
        disconnected,
    })
}

/// Opens an `ANALYZE` session, feeds a few references, and vanishes without
/// `COMMIT`/`ABORT` — the mid-ingest disconnect a server must clean up
/// after (and count under `sessions_disconnected`).
pub fn abandon_mid_analyze<A: ToSocketAddrs>(
    addr: A,
    name: &str,
) -> Result<(), epfis_server::ClientError> {
    let mut client = epfis_server::Client::connect(addr)?;
    client.request(&format!("ANALYZE BEGIN {name} table_pages=16"))?;
    client.request("PAGE 1 0 1 3 2 5")?;
    drop(client); // no COMMIT, no ABORT: just gone
    Ok(())
}
