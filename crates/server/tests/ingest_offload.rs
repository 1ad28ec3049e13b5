//! `ANALYZE` work runs beside the event loop, not on it.
//!
//! `PAGE` feeds and `ANALYZE COMMIT` run on ingest threads while the loop
//! keeps serving every other connection; the connection that sent them
//! parks — reading nothing — until its job answers. This suite proves:
//!
//! * another connection's `ESTIMATE` is answered while a multi-million
//!   reference ingest is in progress;
//! * a parked connection meets TCP backpressure, not `ERR limit pending`,
//!   however deep its `PAGE` pipeline;
//! * a disconnect mid-job leaves the session exactly as far as the server
//!   absorbed it: parked for `ANALYZE RESUME` with the exact reference
//!   count, or committed once when the job was the commit;
//! * WAL time spent on an ingest thread lands in the request's `wal` phase.

use epfis::{EpfisConfig, ScanQuery};
use epfis_server::{
    framing, serve, BinResponse, Client, ClientError, FsyncPolicy, IngestSession, LimitsConfig,
    ServerConfig, ServerHandle, VersionedCatalog, WalConfig,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE_PAGES: u32 = 50_000;

/// A key-ordered scan of `refs` references: four per key, pages scattered.
fn scan(refs: usize) -> Vec<(i64, u32)> {
    (0..refs)
        .map(|i| {
            let page = (i as u32).wrapping_mul(2_654_435_761) % TABLE_PAGES;
            ((i / 4) as i64, page)
        })
        .collect()
}

/// `BEGIN`, one `PAGE` frame per `frame_refs` references, then `tail`
/// (extra frames, e.g. a `COMMIT`), as one binary byte stream.
fn session_bytes(name: &str, pairs: &[(i64, u32)], frame_refs: usize, tail: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    framing::encode_analyze_begin(&mut bytes, name, 0, TABLE_PAGES);
    for chunk in pairs.chunks(frame_refs) {
        framing::encode_page(&mut bytes, chunk);
    }
    bytes.extend_from_slice(tail);
    bytes
}

fn commit_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    framing::encode_tag_only(&mut frame, framing::REQ_ANALYZE_COMMIT);
    frame
}

/// A raw connection upgraded to binary framing.
fn binary_conn(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(b"HELLO BINARY\n").unwrap();
    let mut ack = Vec::new();
    let mut byte = [0u8; 1];
    while !ack.ends_with(b"binary v2\n") {
        stream.read_exact(&mut byte).unwrap();
        ack.push(byte[0]);
    }
    stream
}

fn read_response(stream: &mut TcpStream) -> BinResponse {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut body).unwrap();
    framing::decode_response(&body).unwrap()
}

/// Writes `bytes` from a background thread (the server only reads as fast
/// as it ingests, so this blocks), keeping the returned clone for reading.
fn write_in_background(stream: &TcpStream, bytes: Vec<u8>) -> std::thread::JoinHandle<()> {
    let mut writer = stream.try_clone().unwrap();
    std::thread::spawn(move || writer.write_all(&bytes).unwrap())
}

/// The commit line an uninterrupted in-process session over `pairs` ends
/// with, and the estimate its statistics serve for σ = 0.3, B = 500.
fn reference(name: &str, pairs: &[(i64, u32)]) -> (String, String) {
    let mut session =
        IngestSession::new(name.to_string(), EpfisConfig::default(), Some(TABLE_PAGES));
    session.feed_batch(pairs).unwrap();
    let (stats, _) = session.commit().unwrap();
    let line = format!(
        "T={} N={} I={} C={}",
        stats.table_pages, stats.records, stats.distinct_keys, stats.clustering_factor
    );
    (
        line,
        format!("{}", stats.estimate(&ScanQuery::range(0.3, 500))),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "epfis-offload-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_server(tag: &str, fsync: FsyncPolicy) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let mut wal = WalConfig::new(dir.join("wal"));
    wal.fsync = fsync;
    let server = serve(ServerConfig {
        catalog_path: Some(dir.join("catalog.scat")),
        wal: Some(wal),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind wal server");
    (server, dir)
}

/// Connection A pipelines a 2M-reference binary ingest and never pauses to
/// read; connection B's estimate, sent once A's ingest is under way, must be
/// answered while A's last `PAGE` ack is still to come. Then B keeps
/// estimating while A's ingest thread feeds one `PAGE` frame as large as a
/// line may be: B's median round trip inside that job must stay far below
/// the job's own. A loop that ran A's requests itself would answer B only
/// between them. Last, A commits into a 10,000-entry durable catalog.
#[test]
fn estimates_are_answered_while_another_connection_ingests() {
    const REFS: usize = 2_000_000;
    // The last frame: 12 bytes a reference, within the 1 MiB line limit.
    const LAST_FRAME_REFS: usize = 80_000;
    let dir = temp_dir("estimates");
    let mut probe = IngestSession::new("probe".into(), EpfisConfig::default(), Some(64));
    probe
        .feed_batch(&[(1, 0), (2, 5), (3, 9), (4, 13)])
        .unwrap();
    let (stats, _) = probe.commit().unwrap();
    let mut catalog = VersionedCatalog::new();
    for i in 0..10_000 {
        catalog
            .insert(format!("ballast.{i}"), stats.clone(), 0, None)
            .unwrap();
    }
    std::fs::write(dir.join("catalog.scat"), catalog.to_text_checksummed()).unwrap();
    let server = serve(ServerConfig {
        catalog_path: Some(dir.join("catalog.scat")),
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.addr();
    let mut b = Client::connect(addr).unwrap();

    let pairs = scan(REFS + LAST_FRAME_REFS);
    let (pairs, last_frame) = pairs.split_at(REFS);
    let frames = REFS.div_ceil(4096);
    let mut a = binary_conn(addr);
    let writer = write_in_background(&a, session_bytes("bulk", pairs, 4096, &[]));
    // A's ingest is under way once its first PAGE is acknowledged.
    assert!(
        matches!(read_response(&mut a), BinResponse::Lines(_)),
        "BEGIN"
    );
    assert!(matches!(read_response(&mut a), BinResponse::U64(_)), "PAGE");
    let estimate = b.request("ESTIMATE ballast.7 0.5 8").unwrap();
    assert_eq!(estimate.len(), 1, "{estimate:?}");
    // Everything A has been sent by now must not include its last ack.
    a.set_nonblocking(true).unwrap();
    let mut answered = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match a.read(&mut buf) {
            Ok(n) if n > 0 => answered.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            _ => break,
        }
    }
    a.set_nonblocking(false).unwrap();
    const ACK_BYTES: usize = 13; // length + tag + u64
    assert!(
        answered.len() < (frames - 1) * ACK_BYTES,
        "B's ESTIMATE must not wait behind A's whole ingest"
    );
    let mut rest = vec![0u8; (frames - 1) * ACK_BYTES - answered.len()];
    a.read_exact(&mut rest).unwrap();
    writer.join().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let sent = Instant::now();
                b.request("ESTIMATE ballast.7 0.5 8").unwrap();
                samples.push((sent, sent.elapsed()));
            }
            samples
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let mut frame = Vec::new();
    framing::encode_page(&mut frame, last_frame);
    let c0 = Instant::now();
    a.write_all(&frame).unwrap();
    let ack = read_response(&mut a);
    let job_rtt = c0.elapsed();
    stop.store(true, Ordering::SeqCst);
    assert!(matches!(ack, BinResponse::U64(_)), "last PAGE: {ack:?}");
    let mut during: Vec<Duration> = prober
        .join()
        .unwrap()
        .into_iter()
        .filter(|(sent, _)| *sent >= c0 && *sent < c0 + job_rtt)
        .map(|(_, rtt)| rtt)
        .collect();
    during.sort();
    assert!(!during.is_empty(), "no ESTIMATE overlapped the PAGE job");
    assert!(
        during[during.len() / 2] * 4 < job_rtt,
        "ESTIMATEs must not wait behind A's PAGE job: median {:?} vs job {job_rtt:?}",
        during[during.len() / 2]
    );
    a.write_all(&commit_frame()).unwrap();
    match read_response(&mut a) {
        BinResponse::Lines(lines) => {
            let n = REFS + LAST_FRAME_REFS;
            assert!(lines[0].contains(&format!("N={n} ")), "{lines:?}")
        }
        other => panic!("commit: {other:?}"),
    }
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(dir);
}

/// While its job runs a connection is not read from, so a `PAGE` pipeline
/// far deeper than `max_pending_bytes` is throttled by TCP, and every frame
/// is answered in order.
#[test]
fn deep_page_pipeline_meets_backpressure_not_limit_pending() {
    const FRAME_REFS: usize = 1024; // 12 KiB frames
    const FRAMES: usize = 200; // 2.4 MiB in total
    let limits = LimitsConfig {
        max_line_bytes: 16 * 1024,
        max_pending_bytes: 32 * 1024,
        ..LimitsConfig::default()
    };
    let server = serve(ServerConfig {
        limits,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let pairs = scan(FRAME_REFS * FRAMES);
    let mut a = binary_conn(server.addr());
    let writer = write_in_background(
        &a,
        session_bytes("deep", &pairs, FRAME_REFS, &commit_frame()),
    );
    assert!(
        matches!(read_response(&mut a), BinResponse::Lines(_)),
        "BEGIN"
    );
    for k in 1..=FRAMES {
        match read_response(&mut a) {
            BinResponse::U64(fed) => assert_eq!(fed, (k * FRAME_REFS) as u64),
            other => panic!("PAGE {k} must be fed, got {other:?}"),
        }
    }
    match read_response(&mut a) {
        BinResponse::Lines(lines) => assert!(lines[0].starts_with("committed deep "), "{lines:?}"),
        other => panic!("commit: {other:?}"),
    }
    writer.join().unwrap();
    server.shutdown_and_join();
}

/// Sends the first half of `bytes` without ever reading, then drops the
/// connection while the server is still working through them.
fn send_and_vanish(addr: SocketAddr, bytes: &[u8]) {
    let mut stream = binary_conn(addr);
    stream.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut sent = 0;
    while sent < bytes.len() / 2 && Instant::now() < deadline {
        match stream.write(&bytes[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => panic!("write: {e}"),
        }
    }
    // Unread responses make this close a reset.
}

/// Polls `ANALYZE RESUME name` until the server has parked the session.
fn resume(c: &mut Client, name: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match c.request(&format!("ANALYZE RESUME {name}")) {
            Ok(lines) => {
                let refs = lines[0].rsplit("refs=").next().unwrap();
                return refs.parse().unwrap();
            }
            Err(ClientError::Server(msg)) if msg.contains("no recoverable session") => {
                assert!(Instant::now() < deadline, "{name} was never parked");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("resume {name}: {e:?}"),
        }
    }
}

/// A connection that vanishes while its `PAGE` job runs leaves the session
/// parked in the WAL with exactly the references the server absorbed:
/// resuming, feeding the rest and committing reproduces an uninterrupted
/// session bit for bit.
#[test]
fn disconnect_mid_page_job_parks_the_exact_session() {
    const FRAME_REFS: usize = 64;
    let (server, dir) = wal_server("page", FsyncPolicy::Batch);
    let pairs = scan(1 << 20);
    send_and_vanish(
        server.addr(),
        &session_bytes("dc.page", &pairs, FRAME_REFS, &[]),
    );

    let mut c = Client::connect(server.addr()).unwrap();
    let refs = resume(&mut c, "dc.page") as usize;
    assert!(refs > 0 && refs <= pairs.len(), "refs={refs}");
    assert_eq!(
        refs % FRAME_REFS,
        0,
        "a frame is absorbed whole or not at all"
    );
    for chunk in pairs[refs..].chunks(4096) {
        let line: String = chunk.iter().map(|(k, p)| format!(" {k} {p}")).collect();
        c.request(&format!("PAGE{line}")).unwrap();
    }
    let committed = c.request("ANALYZE COMMIT").unwrap();
    let (expected, estimate) = reference("dc.page", &pairs);
    assert!(
        committed[0].ends_with(&expected),
        "{committed:?} vs {expected}"
    );
    assert_eq!(
        c.request("ESTIMATE dc.page 0.3 500").unwrap(),
        vec![estimate]
    );
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(dir);
}

/// A connection that vanishes while its `COMMIT` runs cannot park the
/// session — the commit consumed it — so the commit lands exactly once
/// and nothing is left to resume.
#[test]
fn disconnect_mid_commit_job_commits_exactly_once() {
    const REFS: usize = 1 << 20;
    let (server, dir) = wal_server("commit", FsyncPolicy::Batch);
    let addr = server.addr();
    let pairs = scan(REFS);
    let mut a = binary_conn(addr);
    a.write_all(&session_bytes("dc.commit", &pairs, 4096, &[]))
        .unwrap();
    // Every PAGE answered, then the commit goes out and A vanishes.
    for _ in 0..=REFS / 4096 {
        assert!(!matches!(read_response(&mut a), BinResponse::Err(_)));
    }
    a.write_all(&commit_frame()).unwrap();
    drop(a);

    let mut c = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let (expected, estimate) = reference("dc.commit", &pairs);
    loop {
        let show = c.request("SHOW").unwrap();
        if let Some(line) = show.iter().find(|l| l.starts_with("dc.commit ")) {
            assert!(line.contains(&expected), "{line} vs {expected}");
            break;
        }
        assert!(Instant::now() < deadline, "the commit never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        c.request("ESTIMATE dc.commit 0.3 500").unwrap(),
        vec![estimate]
    );
    match c.request("ANALYZE RESUME dc.commit") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no recoverable session"), "{msg}"),
        other => panic!("a committed session must not be resumable: {other:?}"),
    }
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(dir);
}

/// WAL appends run on the ingest thread; their time must still reach the
/// `PAGE` requests' `wal` phase.
#[test]
fn wal_time_on_ingest_threads_reaches_the_page_wal_phase() {
    let (server, dir) = wal_server("phase", FsyncPolicy::Always);
    let mut a = binary_conn(server.addr());
    let pairs = scan(16 * 4096);
    a.write_all(&session_bytes("phase", &pairs, 4096, &commit_frame()))
        .unwrap();
    for _ in 0..18 {
        assert!(!matches!(read_response(&mut a), BinResponse::Err(_)));
    }
    let mut scrape = TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: epfis\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    scrape.read_to_string(&mut text).unwrap();
    let series = "epfis_server_phase_duration_us_sum{command=\"PAGE\",phase=\"wal\"} ";
    let wal_us: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(series))
        .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
        .trim()
        .parse()
        .unwrap();
    assert!(wal_us > 0.0, "PAGE wal phase recorded no time");
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(dir);
}
