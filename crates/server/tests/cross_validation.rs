//! Cross-validation: the text protocol and binary framing v2 are two wire
//! encodings of **one** service. This suite runs the same workload through
//! both and requires:
//!
//! * byte-identical committed catalogs (durable `to_text` files compared
//!   after normalizing the `analyzed_at=` wall-clock stamp — the only field
//!   allowed to differ between two runs of the same ingest);
//! * bit-identical `ESTIMATE` answers — the text side's shortest
//!   round-tripping decimal must parse back to the exact `f64` bits the
//!   binary side ships raw;
//! * line-identical `EXPLAIN ESTIMATE` traces over the TEXT passthrough.

use epfis_server::{
    serve, BinResponse, BinaryClient, Client, ServerConfig, SharedCatalog, VersionedCatalog,
};
use std::net::SocketAddr;
use std::path::PathBuf;

/// A deterministic synthetic statistics scan: skewed page reuse, fixed runs.
fn trace_pairs() -> Vec<(i64, u32)> {
    let mut pairs = Vec::new();
    for k in 0..1200i64 {
        for j in 0..4u32 {
            let p = ((k as u32).wrapping_mul(2654435761).wrapping_add(j * 97)) % 180;
            pairs.push((k, p));
        }
    }
    pairs
}

const TABLE_PAGES: u32 = 180;

fn query_grid() -> Vec<(f64, u64, f64)> {
    vec![
        (0.001, 1, 1.0),
        (0.01, 10, 1.0),
        (0.1, 25, 0.5),
        (0.25, 50, 1.0),
        (0.5, 75, 0.125),
        (0.75, 100, 1.0),
        (1.0, 180, 1.0),
        (1.0, 500, 0.9),
        (0.333, 60, 0.333),
    ]
}

/// Ingests the trace over the **text** protocol, 64 pairs per PAGE line.
fn ingest_text(addr: SocketAddr, name: &str) {
    let mut c = Client::connect(addr).unwrap();
    c.request(&format!("ANALYZE BEGIN {name} table_pages={TABLE_PAGES}"))
        .unwrap();
    for chunk in trace_pairs().chunks(64) {
        let line: String = chunk.iter().map(|(k, p)| format!(" {k} {p}")).collect();
        c.request(&format!("PAGE{line}")).unwrap();
    }
    let lines = c.request("ANALYZE COMMIT").unwrap();
    assert!(
        lines[0].starts_with(&format!("committed {name} ")),
        "{lines:?}"
    );
}

/// Ingests the same trace over **binary framing v2**, pipelining every PAGE
/// frame into one flush.
fn ingest_binary(addr: SocketAddr, name: &str) {
    let mut c = BinaryClient::connect(addr).unwrap();
    c.queue_analyze_begin(name, None, Some(TABLE_PAGES));
    for chunk in trace_pairs().chunks(64) {
        c.queue_page(chunk);
    }
    c.queue_analyze_commit();
    c.flush().unwrap();
    match c.recv().unwrap() {
        BinResponse::Lines(l) => assert!(l[0].starts_with("session "), "{l:?}"),
        other => panic!("ANALYZE_BEGIN answered {other:?}"),
    }
    let mut total = 0u64;
    let pages = trace_pairs().chunks(64).count();
    for _ in 0..pages {
        match c.recv().unwrap() {
            BinResponse::U64(n) => total = n,
            other => panic!("PAGE answered {other:?}"),
        }
    }
    assert_eq!(total, trace_pairs().len() as u64);
    match c.recv().unwrap() {
        BinResponse::Lines(l) => {
            assert!(l[0].starts_with(&format!("committed {name} ")), "{l:?}")
        }
        other => panic!("ANALYZE_COMMIT answered {other:?}"),
    }
}

/// Replaces the wall-clock `analyzed_at=<n>` stamps, and the checksum
/// footer that covers them, so two runs of the same ingest compare equal;
/// everything else must already match byte-for-byte. The footer must
/// verify first.
fn normalize_catalog(text: &str) -> String {
    VersionedCatalog::from_text_checksummed(text).expect("the footer must verify");
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        if line.starts_with("crc32c ") {
            out.push_str("crc32c <crc>\n");
        } else if let Some(pos) = line.find("analyzed_at=") {
            let (head, tail) = line.split_at(pos + "analyzed_at=".len());
            let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            out.push_str(head);
            out.push_str("<t>");
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
    }
    out
}

fn temp_catalog(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("epfis-cross-validation");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.scat", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn text_and_binary_ingest_commit_byte_identical_catalogs() {
    let text_path = temp_catalog("text");
    let bin_path = temp_catalog("binary");

    {
        let server = serve(ServerConfig {
            catalog_path: Some(text_path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        ingest_text(server.addr(), "orders.ck");
        server.shutdown_and_join();
    }
    {
        let server = serve(ServerConfig {
            catalog_path: Some(bin_path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        ingest_binary(server.addr(), "orders.ck");
        server.shutdown_and_join();
    }

    let text_cat = std::fs::read_to_string(&text_path).unwrap();
    let bin_cat = std::fs::read_to_string(&bin_path).unwrap();
    assert_eq!(
        normalize_catalog(&text_cat),
        normalize_catalog(&bin_cat),
        "text-ingested and binary-ingested catalogs diverge"
    );
    for path in [&text_path, &bin_path] {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(SharedCatalog::log_path(path)).ok();
    }
}

#[test]
fn estimates_are_bit_identical_across_protocols() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    ingest_binary(addr, "ix");

    let mut text = Client::connect(addr).unwrap();
    let mut bin = BinaryClient::connect(addr).unwrap();
    for (sigma, b, s) in query_grid() {
        let text_line = text
            .request(&format!("ESTIMATE ix {sigma} {b} {s}"))
            .unwrap();
        let text_bits = text_line[0].parse::<f64>().unwrap().to_bits();
        let bin_bits = bin.estimate("ix", sigma, b, s).unwrap().to_bits();
        assert_eq!(
            text_bits,
            bin_bits,
            "sigma={sigma} b={b} s={s}: text {:?} vs binary {}",
            text_line[0],
            f64::from_bits(bin_bits)
        );
    }
    server.shutdown_and_join();
}

#[test]
fn explain_traces_are_line_identical_over_text_passthrough() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    ingest_text(addr, "ix");

    let mut text = Client::connect(addr).unwrap();
    let mut bin = BinaryClient::connect(addr).unwrap();
    for (sigma, b, s) in query_grid() {
        let cmd = format!("EXPLAIN ESTIMATE ix {sigma} {b} {s}");
        let via_text = text.request(&cmd).unwrap();
        let via_binary = bin.text(&cmd).unwrap();
        assert_eq!(via_text, via_binary, "{cmd}");
    }
    // SHOW and FPF ride the same passthrough; spot-check them too.
    assert_eq!(text.request("SHOW").unwrap(), bin.text("SHOW").unwrap());
    assert_eq!(
        text.request("FPF ix 16").unwrap(),
        bin.text("FPF ix 16").unwrap()
    );
    server.shutdown_and_join();
}

#[test]
fn binary_errors_mirror_text_errors() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut text = Client::connect(addr).unwrap();
    let mut bin = BinaryClient::connect(addr).unwrap();

    // Unknown entry: identical message either way.
    let text_err = match text.request("ESTIMATE ghost 0.5 10") {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    let bin_err = match bin.estimate("ghost", 0.5, 10, 1.0) {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    assert_eq!(text_err, bin_err);

    // Validation errors too.
    let text_err = match text.request("ESTIMATE ghost 1.5 10") {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    let bin_err = match bin.estimate("ghost", 1.5, 10, 1.0) {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    assert_eq!(text_err, bin_err);

    // PAGE outside a session: same rejection.
    let text_err = match text.request("PAGE 1 2") {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    let bin_err = match bin.page(&[(1, 2)]) {
        Err(epfis_server::ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    assert_eq!(text_err, bin_err);

    server.shutdown_and_join();
}
