//! Binary framing v2: the length-prefixed wire format negotiated with
//! `HELLO BINARY`.
//!
//! The text line protocol spends most of a served request's budget on
//! per-line parsing, per-reference `String`/`Vec` allocation, and one small
//! write syscall per response. Framing v2 removes all three without touching
//! the text protocol's semantics:
//!
//! ```text
//! frame    := len:u32le body
//! body     := tag:u8 payload            (len = body length, so len >= 1)
//! ```
//!
//! Request tags (client → server):
//!
//! ```text
//! 0x00 TEXT            payload = one text request line, UTF-8 (no newline)
//! 0x01 PING            payload empty
//! 0x02 ESTIMATE        payload = name_len:u16le name sigma:f64le
//!                                buffer:u64le sargable:f64le
//! 0x03 PAGE            payload = count:u32le then count records of
//!                                key:i64le page:u32le (12 bytes each)
//! 0x04 ANALYZE_BEGIN   payload = name_len:u16le name segments:u32le
//!                                table_pages:u32le (0 = not given)
//! 0x05 ANALYZE_COMMIT  payload empty
//! 0x06 ANALYZE_ABORT   payload empty
//! 0x07 OBSERVE         payload = name_len:u16le name nkeys:u64le
//!                                actual:u64le buffer:u64le (0 = default)
//! ```
//!
//! Response tags (server → client) are self-describing, so a pipelined
//! client can decode responses without remembering request order:
//!
//! ```text
//! 0x00 LINES  payload = response data lines joined by '\n' (UTF-8; empty
//!             payload = zero lines)
//! 0x01 F64    payload = 8 bytes, an f64's little-endian bits
//! 0x02 U64    payload = 8 bytes, a u64 little-endian
//! 0xEE ERR    payload = error message, UTF-8 (same messages as text `ERR`)
//! ```
//!
//! `PAGE` payloads decode **zero-copy**: [`PageRefs`] wraps the raw record
//! bytes and iterates `(key, page)` pairs straight off the buffer — no
//! intermediate `String` or `Vec` per batch — and an `ESTIMATE` answer is a
//! raw `f64` whose bits equal what the text protocol's shortest-round-trip
//! decimal would parse back to, so the two protocols are bit-identical.
//!
//! Limits map onto frames one-to-one with text lines: a frame body may not
//! exceed `max_line_bytes` (violations answer in the `ERR limit ...` family
//! and close the connection, exactly like an oversized line), and the idle
//! deadline counts time since the last *complete* frame. Decoding is total:
//! any byte sequence yields a request or a one-line error, never a panic —
//! the property tests in `crates/server/tests/binary_props.rs` pin this.

/// The text request line that upgrades a connection to binary framing.
pub const HELLO_BINARY: &str = "HELLO BINARY";
/// The single data line of the successful upgrade response.
pub const HELLO_ACK: &str = "binary v2";

/// Request tag: text passthrough (any line-protocol command).
pub const REQ_TEXT: u8 = 0x00;
/// Request tag: liveness probe.
pub const REQ_PING: u8 = 0x01;
/// Request tag: Est-IO estimate.
pub const REQ_ESTIMATE: u8 = 0x02;
/// Request tag: a batch of `(key, page)` references.
pub const REQ_PAGE: u8 = 0x03;
/// Request tag: open a streaming ingest session.
pub const REQ_ANALYZE_BEGIN: u8 = 0x04;
/// Request tag: commit the open session.
pub const REQ_ANALYZE_COMMIT: u8 = 0x05;
/// Request tag: discard the open session.
pub const REQ_ANALYZE_ABORT: u8 = 0x06;
/// Request tag: report an observed fetch count for the accuracy tracker.
pub const REQ_OBSERVE: u8 = 0x07;

/// Response tag: newline-joined data lines.
pub const RESP_LINES: u8 = 0x00;
/// Response tag: one little-endian `f64`.
pub const RESP_F64: u8 = 0x01;
/// Response tag: one little-endian `u64`.
pub const RESP_U64: u8 = 0x02;
/// Response tag: an error message (the text protocol's `ERR` family).
pub const RESP_ERR: u8 = 0xEE;

/// Bytes per `PAGE` record: `key:i64le page:u32le`.
pub const PAGE_RECORD_BYTES: usize = 12;

/// A zero-copy view over a `PAGE` frame's records: iteration reads fixed
/// little-endian fields straight off the wire buffer.
#[derive(Clone, Copy, Debug)]
pub struct PageRefs<'a> {
    records: &'a [u8],
}

impl<'a> PageRefs<'a> {
    /// Number of `(key, page)` records.
    pub fn len(&self) -> usize {
        self.records.len() / PAGE_RECORD_BYTES
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the records without materializing them. The iterator is
    /// `Clone`, so atomic batch validation can make a check pass and a feed
    /// pass over the same bytes.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u32)> + Clone + 'a {
        self.records.chunks_exact(PAGE_RECORD_BYTES).map(|rec| {
            (
                i64::from_le_bytes(rec[..8].try_into().expect("8-byte key")),
                u32::from_le_bytes(rec[8..].try_into().expect("4-byte page")),
            )
        })
    }
}

/// A decoded binary request. Borrowing variants reference the frame buffer
/// directly — nothing is copied out of the read buffer during decode.
#[derive(Clone, Copy, Debug)]
pub enum BinRequest<'a> {
    /// A line-protocol command carried verbatim (SHOW, STATS, FPF, …).
    Text(&'a str),
    /// Liveness probe.
    Ping,
    /// Est-IO estimate on a stored entry.
    Estimate {
        /// Catalog entry name, raw bytes off the wire (UTF-8 validated).
        name: &'a str,
        /// Range selectivity σ.
        sigma: f64,
        /// Buffer pages.
        buffer: u64,
        /// Index-sargable selectivity.
        sargable: f64,
    },
    /// A batch of references for the open ingest session.
    Page(PageRefs<'a>),
    /// Open a streaming ingest session.
    AnalyzeBegin {
        /// Entry name.
        name: &'a str,
        /// Segment budget; 0 means "not given" (server default).
        segments: u32,
        /// Declared table size; 0 means "not given" (inferred at commit).
        table_pages: u32,
    },
    /// Commit the open session.
    AnalyzeCommit,
    /// Discard the open session.
    AnalyzeAbort,
    /// Report an observed (ground-truth) fetch count for a stored entry.
    Observe {
        /// Entry name.
        name: &'a str,
        /// Distinct keys the scan touched.
        nkeys: u64,
        /// Page fetches the scan actually performed.
        actual: u64,
        /// Buffer pages the scan ran with; 0 means "not given" (the server
        /// defaults to the entry's stored `b_min`).
        buffer: u64,
    },
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err(format!(
            "bad frame: truncated {what} (need {n} bytes, have {})",
            buf.len()
        ));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u16(buf: &mut &[u8], what: &str) -> Result<u16, String> {
    Ok(u16::from_le_bytes(
        take(buf, 2, what)?.try_into().expect("2 bytes"),
    ))
}

fn take_u32(buf: &mut &[u8], what: &str) -> Result<u32, String> {
    Ok(u32::from_le_bytes(
        take(buf, 4, what)?.try_into().expect("4 bytes"),
    ))
}

fn take_u64(buf: &mut &[u8], what: &str) -> Result<u64, String> {
    Ok(u64::from_le_bytes(
        take(buf, 8, what)?.try_into().expect("8 bytes"),
    ))
}

fn take_f64(buf: &mut &[u8], what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(take_u64(buf, what)?))
}

fn take_name<'a>(buf: &mut &'a [u8]) -> Result<&'a str, String> {
    let len = take_u16(buf, "name length")? as usize;
    let raw = take(buf, len, "name")?;
    std::str::from_utf8(raw).map_err(|_| "bad frame: name is not valid UTF-8".to_string())
}

fn expect_empty(buf: &[u8], what: &str) -> Result<(), String> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "bad frame: {} trailing bytes after {what} payload",
            buf.len()
        ))
    }
}

/// Decodes one frame body (tag + payload, the bytes the length prefix
/// counted). Total: any input yields a request or a single-line error
/// message, never a panic. Errors are recoverable — the frame boundary is
/// known from the length prefix, so the connection stays in sync.
pub fn decode_request(body: &[u8]) -> Result<BinRequest<'_>, String> {
    let (&tag, mut payload) = body
        .split_first()
        .ok_or("bad frame: empty body (no request tag)")?;
    match tag {
        REQ_TEXT => {
            let line = std::str::from_utf8(payload)
                .map_err(|_| "bad frame: TEXT payload is not valid UTF-8".to_string())?;
            if line.contains('\n') || line.contains('\r') {
                return Err("bad frame: TEXT payload must be a single line".into());
            }
            Ok(BinRequest::Text(line))
        }
        REQ_PING => {
            expect_empty(payload, "PING")?;
            Ok(BinRequest::Ping)
        }
        REQ_ESTIMATE => {
            let name = take_name(&mut payload)?;
            let sigma = take_f64(&mut payload, "sigma")?;
            let buffer = take_u64(&mut payload, "buffer")?;
            let sargable = take_f64(&mut payload, "sargable")?;
            expect_empty(payload, "ESTIMATE")?;
            Ok(BinRequest::Estimate {
                name,
                sigma,
                buffer,
                sargable,
            })
        }
        REQ_PAGE => {
            let count = take_u32(&mut payload, "record count")? as usize;
            let want = count
                .checked_mul(PAGE_RECORD_BYTES)
                .ok_or("bad frame: PAGE record count overflows")?;
            if payload.len() != want {
                return Err(format!(
                    "bad frame: PAGE declares {count} records ({want} bytes) but carries {}",
                    payload.len()
                ));
            }
            if count == 0 {
                return Err("bad frame: PAGE batch is empty".into());
            }
            Ok(BinRequest::Page(PageRefs { records: payload }))
        }
        REQ_ANALYZE_BEGIN => {
            let name = take_name(&mut payload)?;
            let segments = take_u32(&mut payload, "segments")?;
            let table_pages = take_u32(&mut payload, "table_pages")?;
            expect_empty(payload, "ANALYZE_BEGIN")?;
            Ok(BinRequest::AnalyzeBegin {
                name,
                segments,
                table_pages,
            })
        }
        REQ_ANALYZE_COMMIT => {
            expect_empty(payload, "ANALYZE_COMMIT")?;
            Ok(BinRequest::AnalyzeCommit)
        }
        REQ_ANALYZE_ABORT => {
            expect_empty(payload, "ANALYZE_ABORT")?;
            Ok(BinRequest::AnalyzeAbort)
        }
        REQ_OBSERVE => {
            let name = take_name(&mut payload)?;
            let nkeys = take_u64(&mut payload, "nkeys")?;
            let actual = take_u64(&mut payload, "actual")?;
            let buffer = take_u64(&mut payload, "buffer")?;
            expect_empty(payload, "OBSERVE")?;
            Ok(BinRequest::Observe {
                name,
                nkeys,
                actual,
                buffer,
            })
        }
        other => Err(format!("bad frame: unknown request tag 0x{other:02x}")),
    }
}

/// Reserves a frame's length prefix in `buf`; pair with [`end_frame`].
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    start
}

/// Patches the length prefix reserved by [`begin_frame`] to cover
/// everything appended since.
///
/// # Panics
/// Panics if the body exceeds `u32::MAX` bytes (no legal frame does).
pub fn end_frame(buf: &mut [u8], start: usize) {
    let body_len = u32::try_from(buf.len() - start - 4).expect("frame body fits u32");
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Appends a one-tag frame (PING, ANALYZE_COMMIT, ANALYZE_ABORT).
pub fn encode_tag_only(buf: &mut Vec<u8>, tag: u8) {
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.push(tag);
}

/// Appends a TEXT passthrough request frame.
pub fn encode_text(buf: &mut Vec<u8>, line: &str) {
    let start = begin_frame(buf);
    buf.push(REQ_TEXT);
    buf.extend_from_slice(line.as_bytes());
    end_frame(buf, start);
}

/// Appends an ESTIMATE request frame.
pub fn encode_estimate(buf: &mut Vec<u8>, name: &str, sigma: f64, buffer: u64, sargable: f64) {
    let start = begin_frame(buf);
    buf.push(REQ_ESTIMATE);
    encode_name(buf, name);
    buf.extend_from_slice(&sigma.to_bits().to_le_bytes());
    buf.extend_from_slice(&buffer.to_le_bytes());
    buf.extend_from_slice(&sargable.to_bits().to_le_bytes());
    end_frame(buf, start);
}

/// Appends a PAGE request frame from `(key, page)` pairs.
pub fn encode_page(buf: &mut Vec<u8>, pairs: &[(i64, u32)]) {
    let start = begin_frame(buf);
    buf.push(REQ_PAGE);
    buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    buf.reserve(pairs.len() * PAGE_RECORD_BYTES);
    for &(key, page) in pairs {
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&page.to_le_bytes());
    }
    end_frame(buf, start);
}

/// Appends an ANALYZE_BEGIN request frame (`0` = option not given).
pub fn encode_analyze_begin(buf: &mut Vec<u8>, name: &str, segments: u32, table_pages: u32) {
    let start = begin_frame(buf);
    buf.push(REQ_ANALYZE_BEGIN);
    encode_name(buf, name);
    buf.extend_from_slice(&segments.to_le_bytes());
    buf.extend_from_slice(&table_pages.to_le_bytes());
    end_frame(buf, start);
}

/// Appends an OBSERVE request frame (`buffer` 0 = not given).
pub fn encode_observe(buf: &mut Vec<u8>, name: &str, nkeys: u64, actual: u64, buffer: u64) {
    let start = begin_frame(buf);
    buf.push(REQ_OBSERVE);
    encode_name(buf, name);
    buf.extend_from_slice(&nkeys.to_le_bytes());
    buf.extend_from_slice(&actual.to_le_bytes());
    buf.extend_from_slice(&buffer.to_le_bytes());
    end_frame(buf, start);
}

fn encode_name(buf: &mut Vec<u8>, name: &str) {
    let len = u16::try_from(name.len()).unwrap_or(u16::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&name.as_bytes()[..len as usize]);
}

/// Appends a LINES response frame (data lines joined by `\n`).
pub fn encode_resp_lines(buf: &mut Vec<u8>, lines: &[String]) {
    let start = begin_frame(buf);
    buf.push(RESP_LINES);
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            buf.push(b'\n');
        }
        buf.extend_from_slice(line.as_bytes());
    }
    end_frame(buf, start);
}

/// Appends an F64 response frame.
pub fn encode_resp_f64(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&9u32.to_le_bytes());
    buf.push(RESP_F64);
    buf.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Appends a U64 response frame.
pub fn encode_resp_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&9u32.to_le_bytes());
    buf.push(RESP_U64);
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends an ERR response frame (embedded newlines flattened, mirroring
/// the text protocol's `frame_err`).
pub fn encode_resp_err(buf: &mut Vec<u8>, message: &str) {
    let start = begin_frame(buf);
    buf.push(RESP_ERR);
    if message.contains('\n') || message.contains('\r') {
        buf.extend_from_slice(message.replace(['\n', '\r'], " ").as_bytes());
    } else {
        buf.extend_from_slice(message.as_bytes());
    }
    end_frame(buf, start);
}

/// A decoded binary response body (client side).
#[derive(Clone, Debug, PartialEq)]
pub enum BinResponse {
    /// Data lines, exactly as the text protocol would serve them.
    Lines(Vec<String>),
    /// A raw `f64` (ESTIMATE fast path).
    F64(f64),
    /// A raw `u64` (PAGE fast path: total references fed).
    U64(u64),
    /// A server-side error (the text protocol's `ERR` family).
    Err(String),
}

/// Decodes one response frame body. Total — malformed bodies yield a
/// descriptive error, never a panic.
pub fn decode_response(body: &[u8]) -> Result<BinResponse, String> {
    let (&tag, payload) = body
        .split_first()
        .ok_or("bad frame: empty body (no response tag)")?;
    match tag {
        RESP_LINES => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| "bad frame: LINES payload is not valid UTF-8".to_string())?;
            if text.is_empty() {
                return Ok(BinResponse::Lines(Vec::new()));
            }
            Ok(BinResponse::Lines(
                text.split('\n').map(|l| l.to_string()).collect(),
            ))
        }
        RESP_F64 => word(payload, "F64").map(|w| BinResponse::F64(f64::from_bits(w))),
        RESP_U64 => word(payload, "U64").map(BinResponse::U64),
        RESP_ERR => Ok(BinResponse::Err(
            String::from_utf8_lossy(payload).into_owned(),
        )),
        other => Err(format!("bad frame: unknown response tag 0x{other:02x}")),
    }
}

/// The little-endian `u64` an F64 or U64 response carries.
fn word(payload: &[u8], what: &str) -> Result<u64, String> {
    let bytes = payload
        .try_into()
        .map_err(|_| format!("bad frame: {what} payload is {} bytes", payload.len()))?;
    Ok(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_framed(buf: &[u8]) -> BinRequest<'_> {
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(buf.len(), 4 + len, "one complete frame");
        decode_request(&buf[4..]).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let mut buf = Vec::new();
        encode_tag_only(&mut buf, REQ_PING);
        assert!(matches!(decode_framed(&buf), BinRequest::Ping));

        buf.clear();
        encode_estimate(&mut buf, "t.k", 0.25, 100, 0.5);
        match decode_framed(&buf) {
            BinRequest::Estimate {
                name,
                sigma,
                buffer,
                sargable,
            } => {
                assert_eq!(name, "t.k");
                assert_eq!(sigma.to_bits(), 0.25f64.to_bits());
                assert_eq!(buffer, 100);
                assert_eq!(sargable.to_bits(), 0.5f64.to_bits());
            }
            other => panic!("{other:?}"),
        }

        buf.clear();
        let pairs = vec![(5i64, 0u32), (5, 1), (-7, 2)];
        encode_page(&mut buf, &pairs);
        match decode_framed(&buf) {
            BinRequest::Page(refs) => {
                assert_eq!(refs.len(), 3);
                assert_eq!(refs.iter().collect::<Vec<_>>(), pairs);
            }
            other => panic!("{other:?}"),
        }

        buf.clear();
        encode_analyze_begin(&mut buf, "ix", 4, 99);
        match decode_framed(&buf) {
            BinRequest::AnalyzeBegin {
                name,
                segments,
                table_pages,
            } => {
                assert_eq!((name, segments, table_pages), ("ix", 4, 99));
            }
            other => panic!("{other:?}"),
        }

        buf.clear();
        encode_observe(&mut buf, "t.k", 250, 1234, 64);
        match decode_framed(&buf) {
            BinRequest::Observe {
                name,
                nkeys,
                actual,
                buffer,
            } => {
                assert_eq!((name, nkeys, actual, buffer), ("t.k", 250, 1234, 64));
            }
            other => panic!("{other:?}"),
        }

        buf.clear();
        encode_text(&mut buf, "SHOW");
        assert!(matches!(decode_framed(&buf), BinRequest::Text("SHOW")));
    }

    #[test]
    fn response_round_trips() {
        let mut buf = Vec::new();
        encode_resp_lines(&mut buf, &["a".into(), "b c".into()]);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(
            decode_response(&buf[4..4 + len]).unwrap(),
            BinResponse::Lines(vec!["a".into(), "b c".into()])
        );

        buf.clear();
        encode_resp_lines(&mut buf, &[]);
        assert_eq!(
            decode_response(&buf[4..]).unwrap(),
            BinResponse::Lines(Vec::new())
        );

        buf.clear();
        encode_resp_f64(&mut buf, 187.5);
        assert_eq!(decode_response(&buf[4..]).unwrap(), BinResponse::F64(187.5));

        buf.clear();
        encode_resp_u64(&mut buf, 42);
        assert_eq!(decode_response(&buf[4..]).unwrap(), BinResponse::U64(42));

        buf.clear();
        encode_resp_err(&mut buf, "limit frame: too\nbig");
        assert_eq!(
            decode_response(&buf[4..]).unwrap(),
            BinResponse::Err("limit frame: too big".into())
        );
    }

    #[test]
    fn malformed_bodies_error_without_panicking() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_request(&[REQ_PING, 1]).is_err()); // trailing byte
        assert!(decode_request(&[REQ_ESTIMATE, 5, 0]).is_err()); // truncated name
        assert!(decode_request(&[REQ_PAGE, 2, 0, 0, 0, 1]).is_err()); // short records
        assert!(decode_request(&[REQ_PAGE, 0, 0, 0, 0]).is_err()); // empty batch
        assert!(decode_request(&[REQ_TEXT, 0xC3]).is_err()); // invalid UTF-8
        assert!(decode_request(&[REQ_TEXT, b'a', b'\n', b'b']).is_err());
        assert!(decode_request(&[REQ_OBSERVE, 1, 0, b'x', 1]).is_err()); // truncated nkeys
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[RESP_F64, 1, 2]).is_err());
        assert!(decode_response(&[0x99]).is_err());
    }

    #[test]
    fn page_iter_is_clone_for_two_pass_validation() {
        let mut buf = Vec::new();
        encode_page(&mut buf, &[(1, 2), (3, 4)]);
        if let BinRequest::Page(refs) = decode_framed(&buf) {
            let it = refs.iter();
            let check: Vec<_> = it.clone().collect();
            let feed: Vec<_> = it.collect();
            assert_eq!(check, feed);
        } else {
            panic!("not a PAGE");
        }
    }
}
