//! Implementation of the `epfis` command-line tool.
//!
//! The CLI mirrors the lifecycle a DBA would drive in a real system:
//!
//! ```text
//! epfis analyze  --catalog cat.scat --name t.k --records 100000 --distinct 1000 \
//!                --per-page 40 --k 0.2             # statistics collection (LRU-Fit)
//! epfis analyze  --catalog cat.scat --gwl CMAC.BRAN --scale 4
//! epfis show     --catalog cat.scat                # list catalog entries
//! epfis fpf      --catalog cat.scat --name t.k     # print the stored curve
//! epfis estimate --catalog cat.scat --name t.k --sigma 0.1 --buffer 500 [--sargable 0.5]
//! epfis explain  --catalog cat.scat --name t.k --sigma 0.1 --buffer 500
//! epfis plan     --catalog cat.scat --name t.k --sigma 0.1 --buffer 500
//! ```
//!
//! `analyze` generates the named synthetic dataset (or GWL stand-in)
//! deterministically from its parameters, runs the statistics scan, and
//! commits the catalog entry; the other commands work purely from the
//! catalog file, exactly as an optimizer would. The file is the one
//! `epfis serve` loads and commits into (one format, opened and written
//! through `epfis_server::SharedCatalog`), so a catalog analyzed offline is
//! served as is (see `epfis-server` and `docs/protocol.md`), and `epfis
//! client` scripts that service from the shell. `analyze` and `serve
//! --catalog F` are the catalog's writers: each holds a lock on `F.lock`
//! while it runs, and a second writer exits 1 without touching `F`.
//!
//! Exit codes: `0` success, `2` usage / argument parse errors, `1` runtime
//! errors (missing files, unknown entries, server failures). Errors go to
//! stderr; stdout carries only command output.

use epfis::optimizer::{AccessPathSelector, IndexCandidate, QuerySpec};
use epfis::{EpfisConfig, IndexStatistics, LruFit, ScanQuery};
use epfis_datagen::{gwl, Dataset, DatasetSpec};
use epfis_estimators::{baseline_estimators, BaselineCounters, ScanParams, TraceSummary};
use epfis_server::{server::sample_buffers, SharedCatalog, VersionedEntry};
use std::collections::HashMap;
use std::sync::Arc;

/// A parsed command line: subcommand plus `--key value` options.
pub struct Command {
    /// The subcommand name.
    pub name: String,
    options: HashMap<String, String>,
}

/// CLI errors (all user-facing).
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

impl Command {
    /// Parses `args` (without the binary name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, CliError> {
        let mut args = args.into_iter();
        let name = args.next().ok_or_else(|| err(USAGE))?;
        let mut options = HashMap::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let key = arg.strip_prefix("--").ok_or_else(|| {
                err(format!(
                    "unexpected argument {arg:?} (flags are --key value)"
                ))
            })?;
            let value = args
                .next()
                .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            options.insert(key.to_string(), value);
        }
        Ok(Command { name, options })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| err(format!("bad value for --{key}: {e}"))),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.get(key)?
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(key)?.unwrap_or(default))
    }
}

/// Top-level usage text.
pub const USAGE: &str = "usage: epfis <analyze|show|fpf|estimate|plan> --catalog FILE [options]
  analyze   --catalog F --name NAME --records N --distinct I --per-page R \\
            [--theta T] [--k K] [--noise P] [--seed S] [--segments M]
            (or: --gwl TABLE.COLUMN [--scale D] instead of the synthetic knobs)
            (or: --trace FILE [--table-pages T], FILE has one `key page` pair
             per line in key order — a captured statistics-scan trace)
  show      --catalog F
  fpf       --catalog F --name NAME [--points P]
  estimate  --catalog F --name NAME --sigma S --buffer B [--sargable X]
  explain   --catalog F --name NAME --sigma S --buffer B [--sargable X]
            (the same estimate plus the full Est-IO decision trace: FPF
             segment, clamp, small-sigma correction, sargable reduction;
             with --addr HOST:PORT instead of --catalog the trace comes
             from a running server via EXPLAIN ESTIMATE)
  plan      --catalog F --name NAME --sigma S --buffer B [--sargable X]
  compare   --trace FILE [--table-pages T] [--points P]
            (full-scan fetches: exact LRU simulation vs EPFIS/ML/DC/SD/OT,
             computed from the trace alone — no catalog needed)
  bench     --trace FILE [--table-pages T] [--scans N] [--min-buffer B] [--seed S]
            (the paper's Section 5 experiment on a captured trace: random
             partial scans, aggregate error per algorithm per buffer size)
  serve     [--addr HOST:PORT] [--catalog F] [--segments M]
            [--max-line-bytes B] [--max-pending-bytes B] [--idle-timeout-ms T]
            [--max-connections N] [--max-session-refs R]
            [--metrics-addr HOST:PORT] [--log-level L] [--log-format human|json]
            [--log-file F] [--wal-dir D] [--wal-fsync always|batch|never]
            [--wal-checkpoint-refs R] [--drift-threshold T] [--slow-request-us U]
            (long-running estimation service; prints `listening on ADDR`,
             stops on the SHUTDOWN protocol command; one readiness-driven
             thread serves every connection and scales to tens of thousands
             of idle connections, while PAGE and ANALYZE work runs on a few
             ingest threads beside it — see docs/serving.md; the limit flags
             bound what one client can cost the server — see docs/protocol.md,
             \"Limits & backpressure\". --metrics-addr adds an HTTP endpoint
             serving /metrics, /healthz, and /events and prints `metrics on
             ADDR`; --log-level trace|debug|info|warn|error|off enables
             structured events on stderr, --log-file appends them as JSON
             lines — see docs/observability.md. --wal-dir write-ahead-logs
             every ANALYZE session so a crash or disconnect never loses
             in-flight references: on restart the server replays the log
             and a client reattaches with ANALYZE RESUME — see
             docs/durability.md. If storage fails at runtime the server
             degrades to read-only — estimates keep serving, ingest answers
             ERR readonly — until the RECOVER command re-probes the disk;
             the EPFIS_FAULTS env var injects scripted storage faults for
             chaos testing. The OBSERVE command feeds actual page-fetch
             counts back to the server; --drift-threshold sets the |bias
             EWMA| above which an entry is flagged stale (default 0.25),
             and --slow-request-us sets the latency above which a request
             is captured in the in-memory slow log served by the SLOWLOG
             command and the /slowlog route (default 100000) — see
             docs/observability.md, \"Accuracy & drift\")
  drift     --addr HOST:PORT [--name NAME]
            (observed-vs-predicted estimator accuracy from a running
             server: sends DRIFT and prints one line per catalog entry —
             epoch, observation count, median/mean signed relative error,
             bias EWMA, stale flag, and the error histogram; --name limits
             the report to one entry)
  client    --addr HOST:PORT [--send CMD] [--binary true]
            [--retries N] [--timeout-ms T]
            (one-shot with --send, otherwise reads protocol commands from
             stdin; --binary true upgrades the connection to binary framing
             v2 with HELLO BINARY and carries each command in a TEXT frame —
             answers are identical; see docs/protocol.md. --retries/
             --timeout-ms switch to the self-healing client: socket
             timeouts, reconnect with backoff, and automatic ANALYZE RESUME
             reattachment after a server restart — see docs/durability.md)
exit codes: 0 ok, 2 usage/parse error, 1 runtime error";

/// Parses a captured statistics-scan trace: one `key page` pair per line
/// (`#` comments and blank lines ignored), keys grouped contiguously in key
/// order. `table_pages` defaults to `max(page) + 1`.
pub fn parse_trace_file(
    text: &str,
    table_pages: Option<u32>,
) -> Result<epfis_lrusim::KeyedTrace, CliError> {
    let mut pages: Vec<u32> = Vec::new();
    let mut run_lengths: Vec<u32> = Vec::new();
    let mut current_key: Option<i64> = None;
    let mut seen: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (key, page) = match (parts.next(), parts.next(), parts.next()) {
            (Some(k), Some(p), None) => (k, p),
            _ => {
                return Err(err(format!(
                    "trace line {}: expected `key page`, got {line:?}",
                    no + 1
                )))
            }
        };
        let key: i64 = key
            .parse()
            .map_err(|e| err(format!("trace line {}: bad key: {e}", no + 1)))?;
        let page: u32 = page
            .parse()
            .map_err(|e| err(format!("trace line {}: bad page: {e}", no + 1)))?;
        if current_key == Some(key) {
            *run_lengths.last_mut().unwrap() += 1;
        } else {
            if !seen.insert(key) {
                return Err(err(format!(
                    "trace line {}: key {key} appears in two separate runs \
                     (the trace must be in key order)",
                    no + 1
                )));
            }
            current_key = Some(key);
            run_lengths.push(1);
        }
        pages.push(page);
    }
    if pages.is_empty() {
        return Err(err("trace file contains no references"));
    }
    let max_page = *pages.iter().max().unwrap();
    let t = table_pages.unwrap_or(max_page + 1);
    if t <= max_page {
        return Err(err(format!(
            "--table-pages {t} is smaller than the largest referenced page {max_page}"
        )));
    }
    Ok(epfis_lrusim::KeyedTrace::from_run_lengths(
        pages,
        &run_lengths,
        t,
    ))
}

/// Whether `name` is a subcommand the CLI knows. An unknown subcommand is a
/// usage error (exit 2), not a runtime failure.
pub fn is_known_command(name: &str) -> bool {
    matches!(
        name,
        "analyze"
            | "show"
            | "fpf"
            | "estimate"
            | "explain"
            | "plan"
            | "compare"
            | "bench"
            | "serve"
            | "client"
            | "drift"
            | "help"
            | "--help"
            | "-h"
    )
}

/// The flags `command` takes: every `--flag` in its block of [`USAGE`],
/// which is the one list of them. A block is the line naming the command
/// (indented two spaces) plus its deeper-indented continuation lines.
fn flags_of(command: &str) -> Vec<&'static str> {
    let mut flags = Vec::new();
    let mut in_block = false;
    for line in USAGE.lines() {
        if !line.starts_with("   ") {
            in_block = line
                .strip_prefix("  ")
                .and_then(|l| l.split_whitespace().next())
                == Some(command);
        }
        if in_block {
            for piece in line.split("--").skip(1) {
                let end = piece
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(piece.len());
                let flag = &piece[..end];
                if !flag.is_empty() && !flags.contains(&flag) {
                    flags.push(flag);
                }
            }
        }
    }
    flags
}

/// Validates flags that the contract treats as usage errors (exit 2 with
/// the usage text) rather than runtime failures — checks that need no work
/// to be done first: a flag the subcommand does not take (so a typo or a
/// retired flag is never silently ignored), and `serve`'s `--wal-*`
/// family, where a bad fsync policy, a zero checkpoint interval, or a
/// `--wal-dir` that cannot be a directory must be rejected before the
/// listener binds.
pub fn validate_usage(cmd: &Command) -> Result<(), CliError> {
    let known = flags_of(&cmd.name);
    let mut keys: Vec<&str> = cmd.options.keys().map(String::as_str).collect();
    keys.sort_unstable();
    if let Some(key) = keys.into_iter().find(|k| !known.contains(k)) {
        return Err(err(format!(
            "unknown flag --{key} for `epfis {}`",
            cmd.name
        )));
    }
    if cmd.name == "serve" {
        serve_wal_config(cmd)?;
    }
    Ok(())
}

/// Resolves the `--wal-*` flags into a [`epfis_server::WalConfig`], or
/// `None` when `--wal-dir` is absent (dependent flags then reject).
fn serve_wal_config(cmd: &Command) -> Result<Option<epfis_server::WalConfig>, CliError> {
    let dir = cmd.get::<String>("wal-dir")?;
    let fsync = cmd.get::<String>("wal-fsync")?;
    let checkpoint_refs = cmd.get::<u64>("wal-checkpoint-refs")?;
    let Some(dir) = dir else {
        if fsync.is_some() || checkpoint_refs.is_some() {
            return Err(err(
                "--wal-fsync and --wal-checkpoint-refs require --wal-dir",
            ));
        }
        return Ok(None);
    };
    let mut config = epfis_server::WalConfig::new(&dir);
    if let Some(raw) = fsync {
        config.fsync = raw
            .parse::<epfis_server::FsyncPolicy>()
            .map_err(|e| err(format!("bad value for --wal-fsync: {e}")))?;
    }
    if let Some(r) = checkpoint_refs {
        config.checkpoint_refs = r;
    }
    config.validate().map_err(err)?;
    // The directory is created on demand, but a path that already exists
    // as a non-directory can never hold the log file.
    let p = std::path::Path::new(&dir);
    if p.exists() && !p.is_dir() {
        return Err(err(format!("--wal-dir {dir}: not a directory")));
    }
    Ok(Some(config))
}

/// Executes a parsed command, returning the text to print.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd.name.as_str() {
        "analyze" => analyze(cmd),
        "show" => show(cmd),
        "fpf" => fpf(cmd),
        "estimate" => estimate(cmd),
        "explain" => explain(cmd),
        "plan" => plan(cmd),
        "compare" => compare(cmd),
        "bench" => bench(cmd),
        "serve" => serve(cmd),
        "client" => client(cmd),
        "drift" => drift(cmd),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// Opens the catalog file — the one format `epfis serve` also loads and
/// commits into. Commands that only read statistics require the file to
/// exist (the snapshot or its catalog log) — a typo'd path must fail
/// loudly, not estimate from an empty catalog. Only `analyze` may create
/// the file.
fn open_catalog(cmd: &Command, must_exist: bool) -> Result<(SharedCatalog, String), CliError> {
    let path: String = cmd.require("catalog")?;
    let snapshot = std::path::Path::new(&path);
    if must_exist && !snapshot.exists() && !SharedCatalog::log_path(snapshot).exists() {
        return Err(err(format!(
            "catalog file {path} does not exist (create it with `epfis analyze`)"
        )));
    }
    let catalog =
        SharedCatalog::open(&path).map_err(|e| err(format!("cannot read catalog {path}: {e}")))?;
    Ok((catalog, path))
}

/// Takes the catalog's writer lock: an exclusive lock on the sidecar file
/// `F.lock`, held until the returned handle drops, at process exit at the
/// latest (a killed process releases it too). `serve` and `analyze` take
/// it before they load `F`, so two processes never commit to one catalog
/// at once; the read-only commands take no lock.
fn lock_catalog(path: &str, vfs: &dyn epfis_faults::Vfs) -> Result<std::fs::File, CliError> {
    let lock_path = format!("{path}.lock");
    vfs.lock(std::path::Path::new(&lock_path)).map_err(|e| {
        if e.kind() == std::io::ErrorKind::WouldBlock {
            err(format!(
                "catalog {path} is in use: another process holds its lock {lock_path} \
                 (one `epfis serve` or `epfis analyze` at a time may write a catalog)"
            ))
        } else {
            err(format!("cannot lock catalog {path} ({lock_path}): {e}"))
        }
    })
}

/// The `--name` entry of the catalog file.
fn load_entry(cmd: &Command) -> Result<(String, Arc<VersionedEntry>), CliError> {
    let catalog = open_catalog(cmd, true)?.0.snapshot();
    let name: String = cmd.require("name")?;
    let entry = catalog.get_arc(&name).cloned().ok_or_else(|| {
        err(format!(
            "no catalog entry named {name:?} (try `epfis show`)"
        ))
    })?;
    Ok((name, entry))
}

/// The query `estimate` and local `explain` run, validated as `ESTIMATE`.
fn query(cmd: &Command) -> Result<ScanQuery, CliError> {
    let sigma: f64 = cmd.require("sigma")?;
    let buffer: u64 = cmd.require("buffer")?;
    let sargable: f64 = cmd.get_or("sargable", 1.0)?;
    epfis_server::server::scan_query(sigma, buffer, sargable).map_err(err)
}

fn analyze(cmd: &Command) -> Result<String, CliError> {
    let _lock = lock_catalog(&cmd.require::<String>("catalog")?, &epfis_faults::StdVfs)?;
    let (catalog, path) = open_catalog(cmd, false)?;
    let seed: u64 = cmd.get_or("seed", 0x5EED_EF15)?;
    let config = EpfisConfig::default().with_segments(cmd.get_or("segments", 6usize)?);
    let (name, stats, counters, summary) = if let Some(trace_path) = cmd.get::<String>("trace")? {
        // Captured-trace mode: run LRU-Fit directly on the file.
        let name: String = cmd.require("name")?;
        let text = std::fs::read_to_string(&trace_path)
            .map_err(|e| err(format!("cannot read trace {trace_path}: {e}")))?;
        let trace = parse_trace_file(&text, cmd.get("table-pages")?)?;
        let (stats, counters) = lru_fit(config, &TraceSummary::from_trace(&trace));
        let summary = format!(
            "analyzed {name} from {trace_path}: T={} N={} I={} C={:.3}",
            stats.table_pages, stats.records, stats.distinct_keys, stats.clustering_factor
        );
        (name, stats, counters, summary)
    } else {
        let (name, dataset) = if let Some(column) = cmd.get::<String>("gwl")? {
            let scale: u32 = cmd.get_or("scale", 1)?;
            let col = gwl::gwl_column(&column)
                .ok_or_else(|| err(format!("unknown GWL column {column:?}")))?
                .scaled_down(scale);
            let (dataset, _measured_c) = gwl::synthesize_gwl_column(&col, seed);
            (cmd.get_or("name", column)?, dataset)
        } else {
            let name: String = cmd.require("name")?;
            let spec = DatasetSpec {
                name: name.clone(),
                records: cmd.require("records")?,
                distinct: cmd.require("distinct")?,
                records_per_page: cmd.require("per-page")?,
                theta: cmd.get_or("theta", 0.0)?,
                window_fraction: cmd.get_or("k", 0.2)?,
                noise: cmd.get_or("noise", 0.05)?,
                shuffle_frequencies: true,
                sorted_rids: false,
                seed,
            };
            (name, Dataset::generate(spec))
        };
        let (stats, counters) = lru_fit(config, &TraceSummary::from_trace(dataset.trace()));
        let summary = format!(
            "analyzed {name}: T={} N={} I={} C={:.3}, {} segments over B in [{}, {}]",
            stats.table_pages,
            stats.records,
            stats.distinct_keys,
            stats.clustering_factor,
            stats.fpf.segments(),
            stats.b_min,
            stats.b_max
        );
        (name, stats, counters, summary)
    };
    // The same commit a served `ANALYZE COMMIT` makes, and then the
    // compaction the server runs after its reply.
    catalog
        .commit(&name, stats, Some(counters))
        .map_err(|e| err(format!("cannot write catalog {path}: {e}")))?;
    if let Err(e) = catalog.compact_if_due() {
        eprintln!(
            "warning: {name} is committed to the catalog log, but compacting {path} failed: {e}"
        );
    }
    Ok(format!("{summary}\nsaved to {path}"))
}

/// LRU-Fit from the summary's exact curve, plus the counters the catalog
/// keeps for `COMPARE`: one stack pass serves both.
fn lru_fit(config: EpfisConfig, summary: &TraceSummary) -> (IndexStatistics, BaselineCounters) {
    let stats = LruFit::new(config).collect_from_curve(
        &summary.fetch_curve,
        summary.table_pages,
        summary.records,
        summary.distinct_keys,
    );
    (stats, summary.baseline_counters())
}

fn show(cmd: &Command) -> Result<String, CliError> {
    let (catalog, path) = open_catalog(cmd, true)?;
    let catalog = catalog.snapshot();
    if catalog.is_empty() {
        return Ok(format!("catalog {path}: empty"));
    }
    let mut out = format!(
        "catalog {path}: {} entries\n{:<24} {:>9} {:>10} {:>9} {:>7} {:>9}\n",
        catalog.len(),
        "index",
        "T",
        "N",
        "I",
        "C",
        "segments"
    );
    for (name, e) in catalog.iter() {
        let s = &e.stats;
        out.push_str(&format!(
            "{:<24} {:>9} {:>10} {:>9} {:>7.3} {:>9}\n",
            name,
            s.table_pages,
            s.records,
            s.distinct_keys,
            s.clustering_factor,
            s.fpf.segments()
        ));
    }
    Ok(out)
}

fn fpf(cmd: &Command) -> Result<String, CliError> {
    let (name, entry) = load_entry(cmd)?;
    let stats = &entry.stats;
    let buffers =
        sample_buffers(stats.b_min, stats.b_max, cmd.get_or("points", 12)?).map_err(err)?;
    let mut out = format!(
        "FPF curve for {name} (stored knots: {:?})\n{:>10} {:>12} {:>8}\n",
        stats
            .fpf
            .knots()
            .iter()
            .map(|&(b, f)| (b as u64, f as u64))
            .collect::<Vec<_>>(),
        "B",
        "F(B)",
        "F/T"
    );
    let t = stats.table_pages as f64;
    for b in buffers {
        let f = stats.full_scan_fetches(b);
        out.push_str(&format!("{:>10} {:>12.0} {:>8.2}\n", b, f, f / t));
    }
    Ok(out)
}

fn estimate(cmd: &Command) -> Result<String, CliError> {
    let (name, entry) = load_entry(cmd)?;
    let stats = &entry.stats;
    let q = query(cmd)?;
    let (sigma, sargable, buffer) = (q.selectivity, q.sargable_selectivity, q.buffer_pages);
    let f = stats.estimate(&q);
    Ok(format!(
        "{name}: sigma={sigma} S={sargable} B={buffer} -> estimated page fetches = {f:.1}\n\
         (table scan would fetch {}; full index scan at this buffer ~{:.0})",
        stats.table_pages,
        stats.full_scan_fetches(buffer)
    ))
}

/// Step headings for the wire trace records (`docs/protocol.md`, "EXPLAIN
/// ESTIMATE"). Unknown record keys render under their own name so a newer
/// server's extra records still show up instead of being dropped.
fn explain_heading(key: &str) -> &str {
    match key {
        "entry" => "catalog entry",
        "input" => "query",
        "stats" => "statistics",
        "fpf" => "step 4: FPF lookup",
        "scaled" => "step 5: sigma scaling",
        "correction" => "step 6: small-sigma correction",
        "sargable" => "step 7: sargable reduction",
        "value" => "final estimate",
        other => other,
    }
}

/// Renders `EXPLAIN ESTIMATE` wire lines (or a locally produced
/// [`epfis::explain::EstimateTrace::wire_lines`]) for humans: the estimate
/// first — byte-identical to what `estimate` prints — then one labelled
/// line per Est-IO decision record.
pub fn render_explain(lines: &[String]) -> Result<String, CliError> {
    let value = lines.first().ok_or_else(|| err("empty EXPLAIN response"))?;
    let mut out = format!("estimated page fetches = {value}\n");
    for line in &lines[1..] {
        let (key, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        out.push_str(&format!("  {:<30} {}\n", explain_heading(key), rest));
    }
    out.pop();
    Ok(out)
}

fn explain(cmd: &Command) -> Result<String, CliError> {
    if let Some(addr) = cmd.get::<String>("addr")? {
        // Remote mode: ask a running server, which also names the catalog
        // epoch the estimate came from.
        let name: String = cmd.require("name")?;
        let sigma: f64 = cmd.require("sigma")?;
        let buffer: u64 = cmd.require("buffer")?;
        let mut request = format!("EXPLAIN ESTIMATE {name} {sigma} {buffer}");
        if let Some(sargable) = cmd.get::<f64>("sargable")? {
            request.push_str(&format!(" {sargable}"));
        }
        let mut client = epfis_server::Client::connect(&addr)
            .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
        let lines = client.request(&request).map_err(|e| err(e.to_string()))?;
        return render_explain(&lines);
    }
    // Local mode: the lines the server's EXPLAIN ESTIMATE answers, from the
    // same catalog file (the traced value is bit-identical by construction).
    let (name, entry) = load_entry(cmd)?;
    render_explain(&entry.explain(&name, &query(cmd)?))
}

fn plan(cmd: &Command) -> Result<String, CliError> {
    let (name, entry) = load_entry(cmd)?;
    let stats = &entry.stats;
    let sigma: f64 = cmd.require("sigma")?;
    let buffer: u64 = cmd.require("buffer")?;
    let sargable: f64 = cmd.get_or("sargable", 1.0)?;
    let selector = AccessPathSelector {
        table_pages: stats.table_pages,
        records: stats.records,
        buffer_pages: buffer,
    };
    let query = QuerySpec {
        output_selectivity: sigma * sargable,
        required_order: None,
        candidates: vec![IndexCandidate {
            name: name.clone(),
            stats: stats.clone(),
            range_selectivity: Some(sigma),
            sargable_selectivity: sargable,
        }],
        consider_rid_plans: true,
    };
    let mut out = format!("plans for sigma={sigma} S={sargable} B={buffer} (cheapest first):\n");
    for p in selector.enumerate(&query) {
        out.push_str(&format!("{:>12.1}  {}\n", p.io_cost, p.plan));
    }
    Ok(out)
}

fn compare(cmd: &Command) -> Result<String, CliError> {
    let trace_path: String = cmd.require("trace")?;
    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| err(format!("cannot read trace {trace_path}: {e}")))?;
    let trace = parse_trace_file(&text, cmd.get("table-pages")?)?;
    let points: usize = cmd.get_or("points", 10)?;

    let summary = TraceSummary::from_trace(&trace);
    let (stats, counters) = lru_fit(EpfisConfig::default(), &summary);
    let estimators = baseline_estimators(
        summary.table_pages,
        summary.records,
        summary.distinct_keys,
        counters,
    );
    let mut out =
        format!(
        "full-scan page fetches from {trace_path} (T={} N={} I={} C={:.3})\n{:>10} {:>10} {:>10}",
        summary.table_pages, summary.records, summary.distinct_keys, stats.clustering_factor,
        "B", "exact", "EPFIS"
    );
    for e in &estimators {
        out.push_str(&format!(" {:>10}", e.name()));
    }
    out.push('\n');
    for b in sample_buffers(stats.b_min, stats.b_max, points).map_err(err)? {
        let exact = summary.fetch_curve.fetches(b);
        out.push_str(&format!(
            "{:>10} {:>10} {:>10.0}",
            b,
            exact,
            stats.estimate(&ScanQuery::full(b))
        ));
        let params = ScanParams::range(1.0, b).with_distinct_keys(summary.distinct_keys);
        for e in &estimators {
            out.push_str(&format!(" {:>10.0}", e.estimate(&params)));
        }
        out.push('\n');
    }
    Ok(out)
}

fn bench(cmd: &Command) -> Result<String, CliError> {
    use epfis_datagen::ScanWorkloadConfig;
    use epfis_harness::experiment::{paper_buffer_grid, DatasetExperiment};
    let trace_path: String = cmd.require("trace")?;
    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| err(format!("cannot read trace {trace_path}: {e}")))?;
    let trace = parse_trace_file(&text, cmd.get("table-pages")?)?;
    let scans: usize = cmd.get_or("scans", 200)?;
    let seed: u64 = cmd.get_or("seed", 0x5EED_EF15)?;
    let table_pages = trace.table_pages() as u64;
    let min_buffer: u64 = cmd.get_or("min-buffer", (table_pages / 20).max(12))?;

    let workload = ScanWorkloadConfig {
        scans,
        small_fraction: 0.5,
        seed,
    };
    let exp = DatasetExperiment::build_from_trace(trace, &workload, EpfisConfig::default());
    let buffers = paper_buffer_grid(table_pages, min_buffer);
    let names = exp.algorithm_names();
    let mut out = format!(
        "Section 5 experiment on {trace_path}: {scans} scans, {} buffer sizes
{:>10}",
        buffers.len(),
        "B(%T)"
    );
    for n in &names {
        out.push_str(&format!(" {n:>9}"));
    }
    out.push_str("   (aggregate error %)\n");
    for &b in &buffers {
        out.push_str(&format!("{:>9.1}%", 100.0 * b as f64 / table_pages as f64));
        for idx in 0..names.len() {
            out.push_str(&format!(" {:>9.1}", exp.error_percent(idx, b)));
        }
        out.push('\n');
    }
    out.push_str(
        "worst |error| per algorithm:
",
    );
    for (name, worst) in exp.max_abs_error(&buffers) {
        out.push_str(&format!(
            "  {name:>6}: {worst:8.1}%
"
        ));
    }
    Ok(out)
}

fn serve(cmd: &Command) -> Result<String, CliError> {
    use std::io::Write as _;
    let addr: String = cmd.get_or("addr", "127.0.0.1:0".to_string())?;
    let segments: usize = cmd.get_or("segments", 6)?;
    if !(1..=64).contains(&segments) {
        return Err(err("--segments must be in [1, 64]"));
    }
    let defaults = epfis_server::LimitsConfig::default();
    let limits = epfis_server::LimitsConfig {
        max_line_bytes: cmd.get_or("max-line-bytes", defaults.max_line_bytes)?,
        max_pending_bytes: cmd.get_or("max-pending-bytes", defaults.max_pending_bytes)?,
        idle_timeout: std::time::Duration::from_millis(
            cmd.get_or("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        max_connections: cmd.get_or("max-connections", defaults.max_connections)?,
        max_session_refs: cmd.get_or("max-session-refs", defaults.max_session_refs)?,
    };
    limits.validate().map_err(|e| err(format!("limits: {e}")))?;
    // Chaos hook: EPFIS_FAULTS="op=sync_data kind=eio after=10" injects
    // scripted storage faults into the catalog-persist and WAL paths of a
    // stock binary, so degraded-mode behavior is testable end to end
    // without a special build. Unset (the normal case) costs nothing.
    let vfs = match std::env::var("EPFIS_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let fault_vfs = epfis_faults::FaultVfs::from_spec(&spec)
                .map_err(|e| err(format!("bad EPFIS_FAULTS spec: {e}")))?;
            eprintln!("warning: EPFIS_FAULTS is set; injecting storage faults: {spec}");
            Some(fault_vfs.shared())
        }
        _ => None,
    };
    let mut accuracy = epfis_server::AccuracyConfig::default();
    if let Some(t) = cmd.get::<f64>("drift-threshold")? {
        if !t.is_finite() || t <= 0.0 {
            return Err(err("--drift-threshold must be a positive number"));
        }
        accuracy.drift_threshold = t;
    }
    let catalog_path = cmd.get::<String>("catalog")?;
    let lock_vfs = vfs.clone().unwrap_or_else(epfis_faults::StdVfs::shared);
    let _lock = catalog_path
        .as_deref()
        .map(|path| lock_catalog(path, &*lock_vfs))
        .transpose()?;
    let config = epfis_server::ServerConfig {
        addr,
        catalog_path: catalog_path.map(Into::into),
        epfis_config: EpfisConfig::default().with_segments(segments),
        limits,
        metrics_addr: cmd.get::<String>("metrics-addr")?,
        logger: serve_logger(cmd)?,
        wal: serve_wal_config(cmd)?,
        vfs,
        accuracy,
        slow_request_us: cmd.get_or(
            "slow-request-us",
            epfis_server::ServerConfig::default().slow_request_us,
        )?,
    };
    let server = epfis_server::serve(config).map_err(|e| err(format!("cannot serve: {e}")))?;
    // Announce the bound addresses immediately (port 0 resolves here) so
    // scripts can connect and scrape; the command then blocks until
    // SHUTDOWN.
    println!("listening on {}", server.addr());
    if let Some(metrics) = server.metrics_addr() {
        println!("metrics on {metrics}");
    }
    std::io::stdout().flush().ok();
    server.join();
    Ok("server stopped".to_string())
}

/// Builds the structured-event logger for `epfis serve` from `--log-level`
/// (default `info` once any logging flag appears), `--log-format` (stderr
/// encoding), and `--log-file` (JSON lines, appended). Returns `None` — the
/// zero-cost disabled logger — when no logging flag is given.
fn serve_logger(cmd: &Command) -> Result<Option<std::sync::Arc<epfis_obs::Logger>>, CliError> {
    let level_flag = cmd.get::<String>("log-level")?;
    let format_flag = cmd.get::<String>("log-format")?;
    let file_flag = cmd.get::<String>("log-file")?;
    if level_flag.is_none() && format_flag.is_none() && file_flag.is_none() {
        return Ok(None);
    }
    let level = match &level_flag {
        Some(raw) => epfis_obs::Level::parse_filter(raw).map_err(err)?,
        None => Some(epfis_obs::Level::Info),
    };
    let format = match &format_flag {
        Some(raw) => epfis_obs::LogFormat::parse(raw).map_err(err)?,
        None => epfis_obs::LogFormat::Human,
    };
    let mut logger =
        epfis_obs::Logger::new(level).with_sink(Box::new(epfis_obs::StderrSink::new(format)));
    if let Some(path) = &file_flag {
        let sink = epfis_obs::FileSink::append(path)
            .map_err(|e| err(format!("cannot open log file {path}: {e}")))?;
        logger = logger.with_sink(Box::new(sink));
    }
    Ok(Some(std::sync::Arc::new(logger)))
}

/// `epfis drift`: queries a running server's accuracy tracker. Prints the
/// server's `DRIFT` lines verbatim — they are already `key=value` readable
/// and round-trip through [`epfis_server::parse_drift_line`], which is used
/// here to reject a server speaking an incompatible dialect.
fn drift(cmd: &Command) -> Result<String, CliError> {
    let addr: String = cmd.require("addr")?;
    let mut client = epfis_server::Client::connect(&addr)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    let request = match cmd.get::<String>("name")? {
        Some(name) => format!("DRIFT {name}"),
        None => "DRIFT".to_string(),
    };
    let lines = client.request(&request).map_err(|e| err(e.to_string()))?;
    if lines.is_empty() {
        return Ok("no drift observations yet (feed the server with OBSERVE)".to_string());
    }
    let mut out = String::new();
    for line in &lines {
        epfis_server::parse_drift_line(line)
            .map_err(|e| err(format!("unparseable DRIFT line from server: {e}: {line:?}")))?;
        out.push_str(line);
        out.push('\n');
    }
    out.pop();
    Ok(out)
}

fn client(cmd: &Command) -> Result<String, CliError> {
    let addr: String = cmd.require("addr")?;
    let binary = cmd.get_or("binary", false)?;
    let retries = cmd.get::<u32>("retries")?;
    let timeout_ms = cmd.get::<u64>("timeout-ms")?;
    // Either wire format serves the same commands: text sends raw lines,
    // binary wraps each line in a framing-v2 TEXT frame after the
    // HELLO BINARY upgrade. Responses are identical line-for-line.
    // --retries/--timeout-ms make the client self-healing: it reconnects
    // with backoff and reattaches ANALYZE sessions via ANALYZE RESUME
    // (requires the server to run with --wal-dir). Without them it fails
    // on the first transport error and blocks on reads, like a plain
    // connection.
    let mut policy = epfis_server::RetryPolicy::default();
    if retries.is_none() && timeout_ms.is_none() {
        policy.retries = 0;
        policy.io_timeout = std::time::Duration::ZERO;
    }
    if let Some(n) = retries {
        policy.retries = n;
    }
    if let Some(ms) = timeout_ms {
        policy.io_timeout = std::time::Duration::from_millis(ms);
        policy.connect_timeout = std::time::Duration::from_millis(ms.clamp(100, 10_000));
    }
    let mut client = epfis_server::ResilientClient::connect(&addr, policy, binary)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    let mut send = |command: &str, out: &mut String| -> Result<(), CliError> {
        let lines = client.request(command).map_err(|e| err(e.to_string()))?;
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(())
    };
    let mut out = String::new();
    if let Some(command) = cmd.get::<String>("send")? {
        send(&command, &mut out)?;
    } else {
        // Script mode: one protocol command per stdin line, so multi-command
        // ANALYZE sessions stay on this single connection.
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let command = line.trim();
                    if command.is_empty() || command.starts_with('#') {
                        continue;
                    }
                    send(command, &mut out)?;
                }
                Err(e) => return Err(err(format!("stdin: {e}"))),
            }
        }
    }
    // Trim the final newline; main prints one.
    out.pop();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(line: &str) -> Command {
        Command::parse(line.split_whitespace().map(|s| s.to_string())).unwrap()
    }

    fn temp_catalog(tag: &str) -> String {
        let dir = std::env::temp_dir().join("epfis-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.cat"));
        std::fs::remove_file(&path).ok();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn parse_rejects_missing_subcommand_and_stray_args() {
        assert!(Command::parse(std::iter::empty()).is_err());
        assert!(Command::parse(["estimate".into(), "oops".into()]).is_err());
        assert!(Command::parse(["estimate".into(), "--sigma".into()]).is_err());
    }

    #[test]
    fn usage_is_the_list_of_each_subcommands_flags() {
        assert_eq!(flags_of("show"), ["catalog"]);
        assert_eq!(flags_of("drift"), ["addr", "name"]);
        let serve = flags_of("serve");
        for flag in [
            "catalog",
            "wal-dir",
            "wal-fsync",
            "wal-checkpoint-refs",
            "log-file",
        ] {
            assert!(serve.contains(&flag), "serve lacks --{flag}: {serve:?}");
        }
        assert!(!serve.contains(&"wal-segment-bytes"));
        let client = flags_of("client");
        for flag in ["addr", "send", "binary", "retries", "timeout-ms"] {
            assert!(client.contains(&flag), "client lacks --{flag}: {client:?}");
        }
        assert!(flags_of("help").is_empty());
        assert!(validate_usage(&cmd("show --catalog f.scat")).is_ok());
        let e = validate_usage(&cmd("show --catalog f.scat --bogus-flag 1")).unwrap_err();
        assert_eq!(e.0, "unknown flag --bogus-flag for `epfis show`");
    }

    #[test]
    fn unknown_command_reports_usage() {
        let e = run(&cmd("frobnicate")).unwrap_err();
        assert!(e.0.contains("usage"));
    }

    #[test]
    fn analyze_show_estimate_round_trip() {
        let path = temp_catalog("roundtrip");
        let out = run(&cmd(&format!(
            "analyze --catalog {path} --name t.k --records 5000 --distinct 100 --per-page 20 --k 0.3"
        )))
        .unwrap();
        assert!(out.contains("analyzed t.k"), "{out}");
        assert!(out.contains("T=250"));

        let out = run(&cmd(&format!("show --catalog {path}"))).unwrap();
        assert!(out.contains("t.k"));
        assert!(out.contains("1 entries"));

        let out = run(&cmd(&format!(
            "estimate --catalog {path} --name t.k --sigma 0.2 --buffer 50"
        )))
        .unwrap();
        assert!(out.contains("estimated page fetches"));
    }

    #[test]
    fn analyze_is_deterministic_across_runs() {
        let p1 = temp_catalog("det1");
        let p2 = temp_catalog("det2");
        for p in [&p1, &p2] {
            run(&cmd(&format!(
                "analyze --catalog {p} --name ix --records 4000 --distinct 80 --per-page 20 --k 0.5 --seed 9"
            )))
            .unwrap();
        }
        // The files match byte for byte but for the analysis time: the
        // entry's `analyzed_at` and the checksum over it.
        let timeless = |p: &str| -> Vec<String> {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("meta ") && !l.starts_with("crc32c "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(timeless(&p1), timeless(&p2));
    }

    #[test]
    fn fpf_prints_curve_rows() {
        let path = temp_catalog("fpf");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 4000 --distinct 80 --per-page 20 --k 1.0"
        )))
        .unwrap();
        let out = run(&cmd(&format!("fpf --catalog {path} --name ix --points 5"))).unwrap();
        assert!(out.contains("FPF curve for ix"));
        assert_eq!(out.lines().count(), 2 + 5);
    }

    /// `fpf` and `compare` print each sampled buffer size once, and check
    /// `--points` as the served `FPF`/`COMPARE` do.
    #[test]
    fn fpf_and_compare_sample_distinct_buffer_sizes() {
        let path = temp_catalog("fpf-tiny");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 160 --distinct 40 --per-page 20 --k 1.0"
        )))
        .unwrap();
        let out = run(&cmd(&format!("fpf --catalog {path} --name ix --points 4"))).unwrap();
        assert_eq!(out.lines().count(), 2 + 1, "{out}");
        for points in [0, 10_001] {
            let e = run(&cmd(&format!(
                "fpf --catalog {path} --name ix --points {points}"
            )))
            .unwrap_err();
            assert!(
                e.to_string().contains("points must be in [1, 10000]"),
                "{e}"
            );
        }

        let dir = std::env::temp_dir().join("epfis-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("compare-tiny.trace");
        let text: String = (0..64u32)
            .map(|i| format!("{} {}\n", i / 4, i.wrapping_mul(7919) % 8))
            .collect();
        std::fs::write(&trace_path, text).unwrap();
        let compare = |points: u32| {
            run(&cmd(&format!(
                "compare --trace {} --points {points}",
                trace_path.display()
            )))
        };
        let out = compare(4).unwrap();
        assert_eq!(out.lines().count(), 2 + 1, "{out}");
        let e = compare(0).unwrap_err();
        assert!(
            e.to_string().contains("points must be in [1, 10000]"),
            "{e}"
        );
    }

    #[test]
    fn plan_lists_rid_sorted_alternative() {
        let path = temp_catalog("plan");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 4000 --distinct 80 --per-page 20 --k 1.0"
        )))
        .unwrap();
        let out = run(&cmd(&format!(
            "plan --catalog {path} --name ix --sigma 0.4 --buffer 12"
        )))
        .unwrap();
        assert!(out.contains("table scan"));
        assert!(out.contains("partial scan on ix"));
        assert!(out.contains("rid-sorted scan on ix"));
    }

    #[test]
    fn estimate_validates_inputs() {
        let path = temp_catalog("validate");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 2000 --distinct 50 --per-page 20 --k 0.2"
        )))
        .unwrap();
        assert!(run(&cmd(&format!(
            "estimate --catalog {path} --name ix --sigma 1.5 --buffer 10"
        )))
        .is_err());
        assert!(run(&cmd(&format!(
            "estimate --catalog {path} --name ix --sigma 0.5 --buffer 0"
        )))
        .is_err());
        assert!(run(&cmd(&format!(
            "estimate --catalog {path} --name nope --sigma 0.5 --buffer 10"
        )))
        .is_err());
    }

    #[test]
    fn gwl_analyze_uses_stand_in() {
        let path = temp_catalog("gwl");
        let out = run(&cmd(&format!(
            "analyze --catalog {path} --gwl INAP.UWID --scale 20"
        )))
        .unwrap();
        assert!(out.contains("analyzed INAP.UWID"), "{out}");
        let out = run(&cmd(&format!("show --catalog {path}"))).unwrap();
        assert!(out.contains("INAP.UWID"));
    }

    #[test]
    fn trace_file_parses_with_comments_and_runs() {
        let text = "# key page\n5 0\n5 1\n7 1\n\n9 3 # trailing comment\n";
        let t = parse_trace_file(text, None).unwrap();
        assert_eq!(t.num_entries(), 4);
        assert_eq!(t.num_keys(), 3);
        assert_eq!(t.table_pages(), 4);
        assert_eq!(t.run_pages(0), &[0, 1]);
        // Explicit table size wins.
        let t = parse_trace_file(text, Some(100)).unwrap();
        assert_eq!(t.table_pages(), 100);
    }

    #[test]
    fn trace_file_rejects_malformed_input() {
        assert!(parse_trace_file("", None).is_err());
        assert!(parse_trace_file("1 2 3\n", None).is_err());
        assert!(parse_trace_file("x 2\n", None).is_err());
        // Split runs (same key twice, not contiguous) are rejected.
        assert!(parse_trace_file("1 0\n2 1\n1 2\n", None).is_err());
        // Table size smaller than the largest page is rejected.
        assert!(parse_trace_file("1 10\n", Some(5)).is_err());
    }

    #[test]
    fn analyze_from_trace_file_round_trips() {
        let dir = std::env::temp_dir().join("epfis-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("captured.trace");
        // A clustered two-records-per-page trace over 50 pages.
        let mut text = String::new();
        for i in 0..100u32 {
            text.push_str(&format!("{} {}\n", i, i / 2));
        }
        std::fs::write(&trace_path, text).unwrap();
        let path = temp_catalog("trace-analyze");
        let out = run(&cmd(&format!(
            "analyze --catalog {path} --name captured --trace {}",
            trace_path.display()
        )))
        .unwrap();
        assert!(out.contains("T=50"), "{out}");
        assert!(out.contains("C=1.000"), "{out}");
        let out = run(&cmd(&format!(
            "estimate --catalog {path} --name captured --sigma 0.5 --buffer 10"
        )))
        .unwrap();
        assert!(out.contains("= 25"), "clustered: sigma*T = 25; {out}");
    }

    #[test]
    fn compare_reports_all_algorithms_from_a_trace_file() {
        let dir = std::env::temp_dir().join("epfis-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("compare.trace");
        let mut text = String::new();
        for i in 0..400u32 {
            // Interleaved pages: a genuinely unclustered index.
            text.push_str(&format!("{} {}\n", i, i.wrapping_mul(7919) % 40));
        }
        std::fs::write(&trace_path, text).unwrap();
        let out = run(&cmd(&format!(
            "compare --trace {} --points 4",
            trace_path.display()
        )))
        .unwrap();
        for name in ["exact", "EPFIS", "ML", "DC", "SD", "OT"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert_eq!(out.lines().count(), 2 + 4);
    }

    #[test]
    fn bench_runs_the_section_5_experiment_on_a_trace() {
        let dir = std::env::temp_dir().join("epfis-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("bench.trace");
        let mut text = String::new();
        for i in 0..4000u32 {
            text.push_str(&format!("{} {}\n", i / 8, i.wrapping_mul(2654435761) % 50));
        }
        std::fs::write(&trace_path, text).unwrap();
        let out = run(&cmd(&format!(
            "bench --trace {} --scans 30 --min-buffer 5",
            trace_path.display()
        )))
        .unwrap();
        assert!(out.contains("worst |error| per algorithm"), "{out}");
        for name in ["EPFIS", "ML", "DC", "SD", "OT"] {
            assert!(out.contains(name));
        }
    }

    #[test]
    fn missing_required_flag_is_reported_by_name() {
        let path = temp_catalog("flags");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 2000 --distinct 50 --per-page 20 --k 0.2"
        )))
        .unwrap();
        let e = run(&cmd(&format!("estimate --catalog {path}"))).unwrap_err();
        assert!(e.0.contains("--name"), "{e}");
    }

    #[test]
    fn explain_agrees_with_estimate_and_names_every_step() {
        let path = temp_catalog("explain");
        run(&cmd(&format!(
            "analyze --catalog {path} --name ix --records 4000 --distinct 80 --per-page 20 --k 0.3"
        )))
        .unwrap();
        let out = run(&cmd(&format!(
            "explain --catalog {path} --name ix --sigma 0.2 --buffer 40 --sargable 0.5"
        )))
        .unwrap();
        assert!(out.starts_with("estimated page fetches = "), "{out}");
        for heading in [
            "query",
            "statistics",
            "step 4: FPF lookup",
            "step 5: sigma scaling",
            "step 6: small-sigma correction",
            "step 7: sargable reduction",
            "final estimate",
        ] {
            assert!(out.contains(heading), "missing {heading:?} in:\n{out}");
        }
        // The first line carries the estimate byte-identical to `estimate`:
        // both print the same `{}`-formatted value.
        let (_, entry) = load_entry(&cmd(&format!("explain --catalog {path} --name ix"))).unwrap();
        let stats = &entry.stats;
        let q = ScanQuery::range(0.2, 40).with_sargable(0.5);
        assert!(
            out.lines()
                .next()
                .unwrap()
                .ends_with(&format!("= {}", stats.estimate(&q))),
            "{out}"
        );
        // Validation mirrors `estimate`'s.
        assert!(run(&cmd(&format!(
            "explain --catalog {path} --name ix --sigma 1.5 --buffer 40"
        )))
        .is_err());
        assert!(run(&cmd(&format!(
            "explain --catalog {path} --name ix --sigma 0.5 --buffer 0"
        )))
        .is_err());
    }

    #[test]
    fn render_explain_labels_records_and_keeps_unknown_keys() {
        let lines: Vec<String> = ["42.5", "value 42.5", "mystery a=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = render_explain(&lines).unwrap();
        assert!(out.starts_with("estimated page fetches = 42.5\n"), "{out}");
        assert!(out.contains("final estimate"), "{out}");
        assert!(out.contains("mystery"), "{out}");
        assert!(render_explain(&[]).is_err());
    }

    #[test]
    fn read_commands_require_the_catalog_file_to_exist() {
        for sub in ["show", "fpf", "estimate", "explain", "plan"] {
            let e = run(&cmd(&format!(
                "{sub} --catalog /tmp/epfis-no-such-catalog --name x --sigma 0.1 --buffer 10"
            )))
            .unwrap_err();
            assert!(e.0.contains("does not exist"), "{sub}: {e}");
        }
    }

    #[test]
    fn known_commands_cover_the_dispatch_table() {
        for sub in [
            "analyze", "show", "fpf", "estimate", "explain", "plan", "compare", "bench", "serve",
            "client", "drift", "help",
        ] {
            assert!(is_known_command(sub), "{sub}");
        }
        assert!(!is_known_command("frobnicate"));
    }

    #[test]
    fn drift_requires_addr_and_serve_validates_observatory_flags() {
        let e = run(&cmd("drift")).unwrap_err();
        assert!(e.0.contains("--addr"), "{e}");
        // A bad threshold is rejected before the listener binds.
        let e = run(&cmd("serve --drift-threshold 0")).unwrap_err();
        assert!(e.0.contains("--drift-threshold"), "{e}");
        let e = run(&cmd("serve --drift-threshold nope")).unwrap_err();
        assert!(e.0.contains("--drift-threshold"), "{e}");
        let e = run(&cmd("serve --slow-request-us nope")).unwrap_err();
        assert!(e.0.contains("--slow-request-us"), "{e}");
    }

    #[test]
    fn drift_round_trips_against_a_live_server() {
        let server = epfis_server::serve(epfis_server::ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        // Empty tracker: the DRIFT response has zero lines.
        let out = run(&cmd(&format!("drift --addr {addr}"))).unwrap();
        assert!(out.contains("no drift observations"), "{out}");
        // Asking for a never-observed entry is a server-side error.
        let e = run(&cmd(&format!("drift --addr {addr} --name nope"))).unwrap_err();
        assert!(e.0.contains("no observations"), "{e}");
        // Feed one observation through an analyzed entry, then the line
        // must print and parse.
        let mut c = epfis_server::Client::connect(&addr).unwrap();
        c.request("ANALYZE BEGIN ix").unwrap();
        for i in 0..100i64 {
            c.request(&format!("PAGE {} {}", i, i / 2)).unwrap();
        }
        c.request("ANALYZE COMMIT").unwrap();
        c.request("OBSERVE ix 20 10").unwrap();
        let out = run(&cmd(&format!("drift --addr {addr} --name ix"))).unwrap();
        assert!(out.starts_with("drift ix "), "{out}");
        assert!(out.contains("observations=1"), "{out}");
        c.request("SHUTDOWN").ok();
        server.join();
    }
}
