//! The three workloads and the inputs they are built from.
//!
//! Everything here is a pure function of the workload seed: the catalog the
//! server loads, the `ESTIMATE` stream, and the `ANALYZE` reference streams.
//! Alongside each input the benchmark keeps the in-process answer it must
//! produce (Est-IO on the statistics written to the catalog; the statistics
//! an in-process `IngestSession` commits for the same references), which is
//! what every served answer is checked against.

use epfis::{est_io, EpfisConfig, IndexStatistics, LruFit, ScanQuery};
use epfis_datagen::{Dataset, DatasetSpec, Rng};
use epfis_server::{framing, IngestSession, VersionedCatalog};

/// `ANALYZE` streams are cut into `PAGE` frames of this many references.
pub const REFS_PER_FRAME: usize = 4096;
/// Length of the pre-generated `ESTIMATE` stream; phases cycle through it.
const STREAM_LEN: usize = 1 << 16;
/// Distinct statistics shapes the catalog entries are drawn from.
const STATS_POOL: usize = 32;
/// Fixed `analyzed_at` stamp of the generated catalog entries.
const ANALYZED_AT: u64 = 1_700_000_000;

/// The configuration `epfis serve` runs LRU-Fit with by default
/// (`--segments 6`); in-process references must use the same one.
pub fn server_config() -> EpfisConfig {
    EpfisConfig::default().with_segments(6)
}

/// Share of `--seconds` each measured phase gets. With `mixed`, the
/// open-loop and `ANALYZE` phases run at the same time on two connections.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub binary: f64,
    pub text: f64,
    pub open: f64,
    pub ingest: f64,
    pub mixed: bool,
}

/// What each `ANALYZE` session of a workload streams.
#[derive(Clone, Copy, Debug)]
pub enum IngestShape {
    /// 200k references on a 10k-page table (fits in L2), committed to
    /// entries outside the `ESTIMATE` stream.
    Probe,
    /// 8M references on a 1M-page table (the analyzer's per-page state
    /// outgrows L2).
    Bulk,
    /// 200k references on a 10k-page table, re-analyzing the hottest
    /// catalog entries.
    Hot,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub catalog_entries: usize,
    pub wal: bool,
    pub ingest: IngestShape,
    pub phases: Phases,
}

/// The workloads, by name.
pub const WORKLOADS: [Workload; 3] = [
    // Est-IO, catalog lookup, framing/protocol and the front end do the
    // work; the ANALYZE probe runs last, so the estimate phases see a
    // read-only catalog.
    Workload {
        name: "optimizer-estimates",
        catalog_entries: 1000,
        wal: false,
        ingest: IngestShape::Probe,
        phases: Phases {
            binary: 0.3,
            text: 0.3,
            open: 0.25,
            ingest: 0.15,
            mixed: false,
        },
    },
    // PAGE decode, IngestSession, StackAnalyzer, the WAL and the segment
    // fit do the work; commits are cheap (an 11-entry catalog).
    Workload {
        name: "bulk-analyze",
        catalog_entries: 10,
        wal: true,
        ingest: IngestShape::Bulk,
        phases: Phases {
            binary: 0.15,
            text: 0.15,
            open: 0.1,
            ingest: 0.6,
            mixed: false,
        },
    },
    // Every commit clones, rewrites and fsyncs a 10k-entry catalog and
    // invalidates every connection's entry cache while estimates arrive on
    // a schedule.
    Workload {
        name: "commit-under-read",
        catalog_entries: 10_000,
        wal: true,
        ingest: IngestShape::Hot,
        phases: Phases {
            binary: 0.25,
            text: 0.25,
            open: 0.5,
            ingest: 0.5,
            mixed: true,
        },
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A pre-encoded `ESTIMATE` stream plus the bits each answer must have.
pub struct EstimateStream {
    /// Binary `ESTIMATE` frames back to back; request `i` is
    /// `bin[bin_off[i]..bin_off[i + 1]]`.
    pub bin: Vec<u8>,
    pub bin_off: Vec<usize>,
    /// Text `ESTIMATE` lines, newline-terminated, indexed like `bin`.
    pub text: Vec<u8>,
    pub text_off: Vec<usize>,
    /// The query of each request: catalog entry index plus Est-IO input.
    pub queries: Vec<(u32, ScanQuery)>,
    /// `est_io::estimate` of each request on the in-process statistics.
    pub expected: Vec<u64>,
}

impl EstimateStream {
    pub fn len(&self) -> usize {
        self.queries.len()
    }
}

/// One `ANALYZE` input: the frames to stream and what the commit must
/// produce.
pub struct IngestInput {
    /// Entry the session commits to.
    pub name: String,
    pub table_pages: u32,
    pub refs: u64,
    /// `PAGE` frames (length prefix included) back to back; frame `i` is
    /// `frames[frame_off[i]..frame_off[i + 1]]`.
    pub frames: Vec<u8>,
    pub frame_off: Vec<usize>,
    /// Statistics an in-process `IngestSession` commits for these refs.
    pub stats: IndexStatistics,
    /// The fixed `(sigma, B, S)` grid every committed session must answer,
    /// with the expected bits.
    pub grid: Vec<(ScanQuery, u64)>,
}

impl IngestInput {
    pub fn frame_count(&self) -> usize {
        self.frame_off.len() - 1
    }

    /// Frame `i` without its 4-byte length prefix (what
    /// `framing::decode_request` takes).
    pub fn frame_body(&self, i: usize) -> &[u8] {
        &self.frames[self.frame_off[i] + 4..self.frame_off[i + 1]]
    }
}

/// Everything a run needs, generated from the seed.
pub struct Inputs {
    pub names: Vec<String>,
    pub stats: Vec<IndexStatistics>,
    /// The catalog file body the server loads.
    pub catalog_text: String,
    pub stream: EstimateStream,
    pub ingest: Vec<IngestInput>,
}

/// Builds a workload's inputs from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let ingest: Vec<IngestInput> = match w.ingest {
        IngestShape::Probe => (0..4)
            .map(|j| small_input(format!("probe.p{j}"), rng.next_u64()))
            .collect(),
        IngestShape::Bulk => vec![ingest_input(
            "bulk.b0".into(),
            DatasetSpec::synthetic(8_000_000, 200_000, 8, 0.86, 0.3).with_seed(rng.next_u64()),
        )],
        IngestShape::Hot => (0..8)
            .map(|j| small_input(entry_name(j), rng.next_u64()))
            .collect(),
    };
    let pool: Vec<IndexStatistics> = (0..STATS_POOL)
        .map(|j| pool_stats(j, rng.next_u64()))
        .collect();
    let names: Vec<String> = (0..w.catalog_entries).map(entry_name).collect();
    // Re-analyzed entries start out with exactly the statistics their
    // sessions commit, so every served answer has one correct value no
    // matter how it interleaves with the commits.
    let stats: Vec<IndexStatistics> = names
        .iter()
        .enumerate()
        .map(|(i, name)| match ingest.iter().find(|x| &x.name == name) {
            Some(x) => x.stats.clone(),
            None => pool[(i * 7919) % STATS_POOL].clone(),
        })
        .collect();
    let mut catalog = VersionedCatalog::new();
    for (name, s) in names.iter().zip(&stats) {
        catalog
            .insert(name.as_str(), s.clone(), ANALYZED_AT, None)
            .expect("generated entry names are valid");
    }
    let stream = estimate_stream(&names, &stats, &mut rng);
    Inputs {
        names,
        stats,
        catalog_text: catalog.to_text_checksummed(),
        stream,
        ingest,
    }
}

pub fn entry_name(i: usize) -> String {
    format!("t{i:05}.k")
}

/// A 200k-reference input committing to an entry of its own, for the
/// commit-overlap probe of workloads whose sessions are long.
pub fn probe_input(seed: u64) -> IngestInput {
    small_input("probe.rtt".into(), seed ^ 0x5eed_0fc0_ffee)
}

/// A 200k-reference, 10k-page dataset.
fn small_input(name: String, seed: u64) -> IngestInput {
    ingest_input(
        name,
        DatasetSpec::synthetic(200_000, 20_000, 20, 0.86, 0.3).with_seed(seed),
    )
}

/// Catalog statistics of varied shape: sizes, skew and clustering differ
/// so Est-IO takes every branch across the stream.
fn pool_stats(j: usize, seed: u64) -> IndexStatistics {
    let theta = [0.0, 0.5, 0.86, 1.0][j % 4];
    let k = [0.05, 0.2, 0.5, 1.0][(j / 4) % 4];
    let spec = DatasetSpec::synthetic(
        20_000 + 2_000 * j as u64,
        200 + 50 * j as u64,
        10 + (j as u32 * 7) % 30,
        theta,
        k,
    )
    .with_seed(seed);
    LruFit::new(server_config()).collect(Dataset::generate(spec).trace())
}

/// Zipf(0.99) over `n` ranks, by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The optimizer's `ESTIMATE` stream: runs of 4–16 requests on one
/// Zipf-drawn entry, σ log-uniform in [1e-4, 1], B uniform in [1, 2T], and
/// half the requests carrying a sargable selectivity log-uniform in
/// [0.01, 1].
fn estimate_stream(names: &[String], stats: &[IndexStatistics], rng: &mut Rng) -> EstimateStream {
    let zipf = Zipf::new(names.len(), 0.99);
    let mut s = EstimateStream {
        bin: Vec::with_capacity(STREAM_LEN * 40),
        bin_off: vec![0],
        text: Vec::with_capacity(STREAM_LEN * 48),
        text_off: vec![0],
        queries: Vec::with_capacity(STREAM_LEN),
        expected: Vec::with_capacity(STREAM_LEN),
    };
    while s.queries.len() < STREAM_LEN {
        let entry = zipf.sample(rng);
        let run = 4 + rng.gen_range(13) as usize;
        for _ in 0..run.min(STREAM_LEN - s.queries.len()) {
            let st = &stats[entry];
            let sigma = 10f64.powf(-4.0 * rng.gen_f64());
            let buffer = 1 + rng.gen_range(2 * st.table_pages);
            let sargable = if rng.gen_bool(0.5) {
                1.0
            } else {
                10f64.powf(-2.0 * rng.gen_f64())
            };
            let q = ScanQuery::range(sigma, buffer).with_sargable(sargable);
            let name = &names[entry];
            framing::encode_estimate(&mut s.bin, name, sigma, buffer, sargable);
            s.bin_off.push(s.bin.len());
            s.text.extend_from_slice(
                format!("ESTIMATE {name} {sigma} {buffer} {sargable}\n").as_bytes(),
            );
            s.text_off.push(s.text.len());
            s.expected
                .push(est_io::estimate(st, &q, &st.config).to_bits());
            s.queries.push((entry as u32, q));
        }
    }
    s
}

/// Encodes a dataset's key-order references as `PAGE` frames and computes
/// the statistics an in-process `IngestSession` commits for them.
fn ingest_input(name: String, spec: DatasetSpec) -> IngestInput {
    let dataset = Dataset::generate(spec);
    let trace = dataset.trace();
    let table_pages = trace.table_pages();
    let refs = trace.num_entries();
    let mut frames = Vec::with_capacity(refs as usize * framing::PAGE_RECORD_BYTES + 4096);
    let mut frame_off = vec![0];
    let mut chunk: Vec<(i64, u32)> = Vec::with_capacity(REFS_PER_FRAME);
    for k in 0..trace.num_keys() as usize {
        let key = dataset.key_value(k);
        for &page in trace.run_pages(k) {
            chunk.push((key, page));
            if chunk.len() == REFS_PER_FRAME {
                framing::encode_page(&mut frames, &chunk);
                frame_off.push(frames.len());
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        framing::encode_page(&mut frames, &chunk);
        frame_off.push(frames.len());
    }
    drop(dataset);
    let mut session = IngestSession::new(name.clone(), server_config(), Some(table_pages));
    for i in 0..frame_off.len() - 1 {
        match framing::decode_request(&frames[frame_off[i] + 4..frame_off[i + 1]]) {
            Ok(framing::BinRequest::Page(refs)) => session
                .feed_batch_iter(refs.iter())
                .expect("generated references are in key order"),
            other => panic!("generated frame {i} is not a PAGE frame: {other:?}"),
        }
    }
    let (stats, _) = session.commit().expect("generated session has references");
    let t = u64::from(table_pages);
    let mut grid = Vec::new();
    for sigma in [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0] {
        for buffer in [1, (t / 100).max(1), t / 10 + 1, t, 2 * t] {
            for sargable in [1.0, 0.25] {
                let q = ScanQuery::range(sigma, buffer).with_sargable(sargable);
                grid.push((q, est_io::estimate(&stats, &q, &stats.config).to_bits()));
            }
        }
    }
    IngestInput {
        name,
        table_pages,
        refs,
        frames,
        frame_off,
        stats,
        grid,
    }
}
