//! Estimator self-validation: close the loop between what the server
//! *predicts* (`ESTIMATE`) and what an index scan would *actually* fetch.
//!
//! The ground truth is not a mock — it is `epfis_lrusim::simulate_lru`, the
//! same exact LRU simulation the paper validates against. The driver builds
//! a deterministic [`KeyedTrace`], feeds it to a live server with `ANALYZE`,
//! then replays random key-range scans: for each scan it simulates the true
//! page-fetch count at a fixed buffer size and reports it back with
//! `OBSERVE <index> <nkeys> <actual> buffer=B`. The server pairs every
//! observation with its own current estimate, so the signed relative errors
//! that accumulate in the accuracy tracker measure the estimator against
//! reality — end to end, over the real wire.
//!
//! Two workload modes exercise the two claims the observatory makes:
//!
//! * **fresh** — the replayed scans come from the same page layout the
//!   statistics scan saw. Errors must sit inside the paper's envelope and
//!   the entry must *not* be flagged stale: accurate statistics stay
//!   trusted.
//! * **shifted** — the table is "reorganized" after `ANALYZE`: the replay
//!   uses a scattered page layout while the catalog entry still describes
//!   the clustered original. The estimator now consistently undershoots,
//!   the bias EWMA crosses the drift threshold, and the entry's stale flag
//!   must flip — without any re-`ANALYZE`.

use epfis_lrusim::{simulate_lru, KeyedTrace};
use epfis_server::Client;
use std::net::SocketAddr;

/// Shape of one self-validation run.
#[derive(Debug, Clone)]
pub struct SelfCheckConfig {
    /// Catalog entry name the driver analyzes and observes.
    pub name: String,
    /// Distinct keys in the synthetic index.
    pub keys: usize,
    /// References per key (uniform, so `nkeys / I` is exactly the
    /// selectivity the server derives from `OBSERVE`'s key count).
    pub run_len: usize,
    /// Pages in the synthetic table.
    pub table_pages: u32,
    /// Random key-range scans to replay.
    pub scans: usize,
    /// LRU buffer size used for both the simulation and the estimate.
    pub buffer: u64,
    /// Seed for the scan-range generator.
    pub seed: u64,
}

impl Default for SelfCheckConfig {
    fn default() -> Self {
        SelfCheckConfig {
            name: "selfcheck.ix".to_string(),
            keys: 5_000,
            run_len: 4,
            table_pages: 2_000,
            scans: 64,
            buffer: 400,
            seed: 0x5EED_0B5E,
        }
    }
}

/// What one run of [`fresh`] or [`shifted`] observed.
#[derive(Debug, Clone)]
pub struct SelfCheckReport {
    /// Scans replayed (= observations fed to the server).
    pub observations: u64,
    /// Median of |rel_err| across the run's observations, as echoed by the
    /// server in each `OBSERVE` response.
    pub median_abs_rel_err: f64,
    /// Mean *signed* relative error (positive = estimator undershot).
    pub mean_rel_err: f64,
    /// The entry's stale flag after the last observation.
    pub stale: bool,
    /// The server's final `DRIFT <name>` line, verified parseable.
    pub drift_line: String,
}

impl SelfCheckReport {
    /// Renders the report as a one-line JSON object.
    pub fn to_json(&self, mode: &str) -> String {
        format!(
            "{{\"mode\": \"{mode}\", \"observations\": {}, \
             \"median_abs_rel_err\": {:.4}, \"mean_rel_err\": {:.4}, \
             \"stale\": {}}}",
            self.observations, self.median_abs_rel_err, self.mean_rel_err, self.stale
        )
    }
}

/// A clustered layout: records in key order, packed sequentially into
/// pages — the table as the statistics scan captured it.
pub fn clustered_trace(keys: usize, run_len: usize, table_pages: u32) -> KeyedTrace {
    let total = keys * run_len;
    let pages: Vec<u32> = (0..total)
        .map(|i| ((i as u64 * table_pages as u64) / total as u64) as u32)
        .collect();
    let run_lengths = vec![run_len as u32; keys];
    KeyedTrace::from_run_lengths(pages, &run_lengths, table_pages)
}

/// A scattered layout over the same keys: every record hashed to an
/// arbitrary page — the table after a reorganization destroyed the
/// clustering the catalog entry still describes.
pub fn scattered_trace(keys: usize, run_len: usize, table_pages: u32) -> KeyedTrace {
    let total = keys * run_len;
    let pages: Vec<u32> = (0..total)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761)) % table_pages)
        .collect();
    let run_lengths = vec![run_len as u32; keys];
    KeyedTrace::from_run_lengths(pages, &run_lengths, table_pages)
}

/// Streams `trace` into the server as entry `name` (text protocol,
/// batched `PAGE` lines).
pub fn ingest(addr: SocketAddr, name: &str, trace: &KeyedTrace) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .request(&format!(
            "ANALYZE BEGIN {name} table_pages={}",
            trace.table_pages()
        ))
        .map_err(|e| format!("begin: {e}"))?;
    let mut line = String::new();
    let mut in_line = 0usize;
    for k in 0..trace.num_keys() as usize {
        for &p in trace.run_pages(k) {
            if in_line == 0 {
                line.push_str("PAGE");
            }
            line.push_str(&format!(" {k} {p}"));
            in_line += 1;
            if in_line == 256 {
                client.request(&line).map_err(|e| format!("page: {e}"))?;
                line.clear();
                in_line = 0;
            }
        }
    }
    if in_line > 0 {
        client.request(&line).map_err(|e| format!("page: {e}"))?;
    }
    client
        .request("ANALYZE COMMIT")
        .map_err(|e| format!("commit: {e}"))?;
    Ok(())
}

/// One field of a `key=value` wire line.
fn field(line: &str, key: &str) -> Option<String> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")).map(str::to_string))
}

/// Replays `scans` random key-range scans: each simulates its true fetch
/// count on `truth` and feeds it back with `OBSERVE`. The server's estimate
/// always comes from whatever the catalog entry *currently* says — pass the
/// ingested trace as `truth` for the fresh mode, a mutated layout for the
/// shifted mode. Returns the final report.
pub fn replay(
    addr: SocketAddr,
    config: &SelfCheckConfig,
    truth: &KeyedTrace,
) -> Result<SelfCheckReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let keys = truth.num_keys() as usize;
    let mut rng = config.seed | 1;
    let mut next = || {
        // xorshift64*: deterministic, seed-stable across platforms.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut rel_errs = Vec::with_capacity(config.scans);
    let mut stale = false;
    for _ in 0..config.scans {
        // Scan widths span roughly 2%..50% of the key space, the paper's
        // partial-scan regime.
        let width = 1 + (next() as usize) % (keys / 2).max(1);
        let k_lo = (next() as usize) % (keys - width.min(keys - 1));
        let k_hi = k_lo + width - 1;
        let nkeys = (k_hi - k_lo + 1) as u64;
        let actual = simulate_lru(truth.scan_slice(k_lo, k_hi), config.buffer as usize);
        let lines = client
            .request(&format!(
                "OBSERVE {} {nkeys} {actual} buffer={}",
                config.name, config.buffer
            ))
            .map_err(|e| format!("observe: {e}"))?;
        let line = lines.first().ok_or("empty OBSERVE response")?;
        let rel_err: f64 = field(line, "rel_err")
            .ok_or_else(|| format!("no rel_err in {line:?}"))?
            .parse()
            .map_err(|e| format!("bad rel_err in {line:?}: {e}"))?;
        stale = field(line, "stale").as_deref() == Some("1");
        rel_errs.push(rel_err);
    }
    let lines = client
        .request(&format!("DRIFT {}", config.name))
        .map_err(|e| format!("drift: {e}"))?;
    let drift_line = lines.first().ok_or("empty DRIFT response")?.clone();
    epfis_server::parse_drift_line(&drift_line)
        .map_err(|e| format!("unparseable DRIFT line {drift_line:?}: {e}"))?;
    let mut abs: Vec<f64> = rel_errs.iter().map(|e| e.abs()).collect();
    abs.sort_by(|a, b| a.total_cmp(b));
    let median_abs_rel_err = abs.get(abs.len() / 2).copied().unwrap_or(0.0);
    let mean_rel_err = rel_errs.iter().sum::<f64>() / rel_errs.len().max(1) as f64;
    Ok(SelfCheckReport {
        observations: rel_errs.len() as u64,
        median_abs_rel_err,
        mean_rel_err,
        stale,
        drift_line,
    })
}

/// The fresh-statistics run: analyze a clustered table, replay scans from
/// the *same* layout. Errors must be small and the entry must stay trusted.
pub fn fresh(addr: SocketAddr, config: &SelfCheckConfig) -> Result<SelfCheckReport, String> {
    let trace = clustered_trace(config.keys, config.run_len, config.table_pages);
    ingest(addr, &config.name, &trace)?;
    replay(addr, config, &trace)
}

/// The shifted-workload run: analyze the clustered table, then replay
/// ground truth from a scattered layout — the catalog entry is now wrong
/// about the world and the stale flag must flip.
pub fn shifted(addr: SocketAddr, config: &SelfCheckConfig) -> Result<SelfCheckReport, String> {
    let trace = clustered_trace(config.keys, config.run_len, config.table_pages);
    ingest(addr, &config.name, &trace)?;
    let moved = scattered_trace(config.keys, config.run_len, config.table_pages);
    replay(addr, config, &moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_uniform_and_deterministic() {
        let t = clustered_trace(100, 4, 50);
        assert_eq!(t.num_keys(), 100);
        assert_eq!(t.num_entries(), 400);
        assert_eq!(t.table_pages(), 50);
        // Uniform runs make key-count selectivity exact.
        assert!((t.selectivity(0, 24) - 0.25).abs() < 1e-12);
        let s = scattered_trace(100, 4, 50);
        assert_eq!(s.num_entries(), 400);
        assert_eq!(
            scattered_trace(100, 4, 50).pages(),
            s.pages(),
            "layouts must be deterministic"
        );
        assert_ne!(t.pages(), s.pages());
    }

    #[test]
    fn field_extracts_wire_tokens() {
        let line = "observed ix epoch=3 estimate=12.5 actual=20 rel_err=0.375 stale=0";
        assert_eq!(field(line, "rel_err").as_deref(), Some("0.375"));
        assert_eq!(field(line, "stale").as_deref(), Some("0"));
        assert_eq!(field(line, "nope"), None);
    }

    #[test]
    fn fresh_loop_closes_against_a_live_server() {
        let server =
            epfis_server::serve(epfis_server::ServerConfig::default()).expect("bind server");
        let addr = server.addr();
        let config = SelfCheckConfig {
            scans: 24,
            keys: 1_000,
            table_pages: 500,
            buffer: 100,
            ..SelfCheckConfig::default()
        };
        let report = fresh(addr, &config).expect("fresh run");
        assert_eq!(report.observations, 24);
        assert!(
            report.median_abs_rel_err < 0.25,
            "fresh stats must estimate accurately: {report:?}"
        );
        assert!(
            !report.stale,
            "accurate stats must stay trusted: {report:?}"
        );
        let json = report.to_json("fresh");
        assert!(json.starts_with("{\"mode\": \"fresh\""), "{json}");
        assert!(json.contains("\"stale\": false"), "{json}");
        let mut c = Client::connect(addr).unwrap();
        c.request("SHUTDOWN").ok();
        server.join();
    }

    #[test]
    fn shifted_workload_flips_the_stale_flag() {
        let server =
            epfis_server::serve(epfis_server::ServerConfig::default()).expect("bind server");
        let addr = server.addr();
        let config = SelfCheckConfig {
            scans: 24,
            keys: 1_000,
            table_pages: 500,
            buffer: 100,
            name: "selfcheck.shifted".to_string(),
            ..SelfCheckConfig::default()
        };
        let report = shifted(addr, &config).expect("shifted run");
        assert!(
            report.stale,
            "a reorganized table must flip the stale flag: {report:?}"
        );
        assert!(
            report.mean_rel_err > 0.25,
            "scattered layout must make the estimator undershoot: {report:?}"
        );
        let json = report.to_json("shifted");
        assert!(json.starts_with("{\"mode\": \"shifted\""), "{json}");
        assert!(json.contains("\"stale\": true"), "{json}");
        let mut c = Client::connect(addr).unwrap();
        c.request("SHUTDOWN").ok();
        server.join();
    }
}
