//! The traced run's in-process replays: each workload's seeded inputs go
//! through the layers' public functions, with a span around every call (or
//! batch of calls) from this file. The per-layer metrics are medians over
//! those spans, per call or per reference.

use crate::inputs::{self, IngestInput, Inputs};
use crate::stats::median;
use crate::trace::Tracer;
use epfis::{est_io, IndexStatistics, LruFit};
use epfis_datagen::{Dataset, DatasetSpec};
use epfis_lrusim::StackAnalyzer;
use epfis_obs::{Histogram, Logger};
use epfis_server::framing::{self, BinRequest};
use epfis_server::{
    protocol, wal, IngestSession, ServerWal, SharedCatalog, VersionedCatalog, WalConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls per span in the per-call replays.
const BATCH: usize = 4096;
/// Each per-call replay repeats until it has run this long.
const REPLAY_TIME: Duration = Duration::from_millis(150);
/// Commits per rung of the catalog COMMIT ladder.
const LADDER_COMMITS: usize = 5;

pub type Metrics = BTreeMap<&'static str, f64>;

/// One pre-aggregated `record_aggregated` call: count, sum, max and
/// `(bucket, samples)` pairs.
type Aggregated = (u64, u64, u64, Vec<(usize, u64)>);

/// Runs every replay and returns the per-layer metrics they produce.
pub fn replay(inp: &Inputs, work: &Path, tracer: &mut Tracer) -> io::Result<Metrics> {
    let mut m = Metrics::new();
    estimate_path(inp, work, tracer, &mut m)?;
    ingest_path(&inp.ingest, work, tracer, &mut m)?;
    commit_ladder(inp, work, tracer, &mut m)?;
    bench_summary_zipf(tracer, &mut m);
    Ok(m)
}

/// Repeats `f` over indices `0..len` in batches of up to [`BATCH`] calls, one span per
/// batch, until [`REPLAY_TIME`] has passed; returns the median ns per call.
fn per_call(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    len: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let batch = BATCH.min(len);
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < REPLAY_TIME {
        if i + batch > len {
            i = 0;
        }
        tracer.time(name, Some(parent), batch as u64, || {
            for k in i..i + batch {
                f(k);
            }
        });
        i += batch;
    }
    median(&mut tracer.per_op_ns(name))
}

/// The estimate path, layer by layer, over the workload's `ESTIMATE`
/// stream: frame decode, catalog lookup (the entry-cache miss path), Est-IO,
/// answer encode, text parse, and latency recording.
fn estimate_path(
    inp: &Inputs,
    work: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let s = &inp.stream;
    let parent = tracer.open("replay.estimate_path", None, 0);
    let stats: Vec<&IndexStatistics> = s
        .queries
        .iter()
        .map(|(e, _)| &inp.stats[*e as usize])
        .collect();
    m.insert(
        "est_io.estimate_ns",
        per_call(tracer, "est_io.estimate", parent, s.len(), |k| {
            let st = stats[k];
            black_box(est_io::estimate(st, black_box(&s.queries[k].1), &st.config));
        }),
    );
    let path = work.join("replay-catalog.scat");
    std::fs::write(&path, &inp.catalog_text)?;
    let catalog = SharedCatalog::open(&path)?;
    m.insert(
        "catalog.lookup_ns",
        per_call(tracer, "catalog.lookup", parent, s.len(), |k| {
            let snap = catalog.snapshot();
            black_box(snap.get_arc(&inp.names[s.queries[k].0 as usize]).is_some());
        }),
    );
    m.insert(
        "framing.decode_estimate_ns",
        per_call(tracer, "framing.decode_estimate", parent, s.len(), |k| {
            black_box(framing::decode_request(&s.bin[s.bin_off[k] + 4..s.bin_off[k + 1]]).is_ok());
        }),
    );
    let mut out = Vec::with_capacity(BATCH * 16);
    m.insert(
        "framing.encode_f64_ns",
        per_call(tracer, "framing.encode_f64", parent, s.len(), |k| {
            if out.len() >= BATCH * 13 {
                out.clear();
            }
            framing::encode_resp_f64(&mut out, f64::from_bits(s.expected[k]));
        }),
    );
    m.insert(
        "protocol.parse_estimate_ns",
        per_call(tracer, "protocol.parse_estimate", parent, s.len(), |k| {
            let line = std::str::from_utf8(&s.text[s.text_off[k]..s.text_off[k + 1] - 1])
                .expect("generated lines are UTF-8");
            black_box(protocol::parse_request(line).is_ok());
        }),
    );
    let hist = Histogram::new();
    let sample = |k: usize| (s.expected[k] >> 40) % 5000;
    m.insert(
        "obs.record_ns",
        per_call(tracer, "obs.record", parent, s.len(), |k| {
            hist.record(sample(k))
        }),
    );
    // The batched path: 64 samples aggregated locally (outside the span),
    // then one record_aggregated call per batch.
    let batches: Vec<Aggregated> = s
        .expected
        .chunks_exact(64)
        .enumerate()
        .map(|(b, chunk)| {
            let mut buckets = BTreeMap::<usize, u64>::new();
            let (mut sum, mut max) = (0, 0);
            for k in b * 64..b * 64 + chunk.len() {
                let v = sample(k);
                sum += v;
                max = max.max(v);
                *buckets.entry(Histogram::bucket_index(v)).or_default() += 1;
            }
            (64, sum, max, buckets.into_iter().collect())
        })
        .collect();
    m.insert(
        "obs.record_aggregated_ns",
        per_call(
            tracer,
            "obs.record_aggregated",
            parent,
            batches.len(),
            |b| {
                let (count, sum, max, buckets) = &batches[b];
                hist.record_aggregated(*count, *sum, *max, buckets);
            },
        ),
    );
    black_box(hist.count());
    tracer.close(parent, s.len() as u64);
    Ok(())
}

/// The ingest path over the workload's `ANALYZE` inputs, in the order the
/// WAL-on server runs it per `PAGE` frame: decode, key-order check, WAL
/// append (with the server's periodic checkpoints), feed; then the commit.
/// Each frame is also fed to a bare `StackAnalyzer` right after the
/// session, which separates the analyzer from the session's own
/// bookkeeping frame by frame.
fn ingest_path(
    ingest: &[IngestInput],
    work: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let parent = tracer.open("replay.ingest_path", None, 0);
    let wal_dir = work.join("replay-wal");
    let wal_config = WalConfig::new(&wal_dir);
    let server_wal = ServerWal::open(
        &wal_config,
        &SharedCatalog::in_memory(),
        inputs::server_config(),
        &Logger::disabled(),
    )?;
    let counters = epfis_obs::wellknown::wal();
    let (bytes0, fsyncs0) = (counters.bytes.get(), counters.fsyncs.get());
    let mut scratch = Vec::new();
    let (mut refs_total, mut compactions, mut sessions) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for input in ingest.iter().cycle() {
        if sessions > 0 && (t0.elapsed() > 4 * REPLAY_TIME || sessions as usize >= ingest.len()) {
            break;
        }
        let session_span = tracer.open("replay.ingest_session", Some(parent), sessions);
        let sid = server_wal.begin(&input.name, None, Some(input.table_pages))?;
        let mut session = IngestSession::new(
            input.name.clone(),
            inputs::server_config(),
            Some(input.table_pages),
        );
        let mut analyzer = StackAnalyzer::new();
        let mut checkpointed = 0u64;
        for i in 0..input.frame_count() {
            let body = input.frame_body(i);
            // tag + count, then fixed-size records
            let n = ((body.len() - 5) / framing::PAGE_RECORD_BYTES) as u64;
            let refs = tracer.time("framing.decode_page", Some(session_span), n, || {
                match framing::decode_request(body) {
                    Ok(BinRequest::Page(refs)) => {
                        black_box(refs.iter().map(|(k, p)| k ^ i64::from(p)).sum::<i64>());
                        refs
                    }
                    other => panic!("generated frame {i} is not a PAGE frame: {other:?}"),
                }
            });
            tracer
                .time("ingest.check", Some(session_span), n, || {
                    session.check_batch_iter(refs.iter())
                })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            tracer.time("wal.encode_page", Some(session_span), n, || {
                wal::encode_page(&mut scratch, sid, refs.len(), refs.iter())
            });
            tracer.time("wal.append_page", Some(session_span), 1, || {
                server_wal.append_page(sid, refs.len(), refs.iter())
            })?;
            // Alternate which of the pair runs first, so neither always
            // finds the frame in a warmer cache.
            for step in [i % 2, 1 - i % 2] {
                if step == 0 {
                    tracer.time("ingest.feed", Some(session_span), n, || {
                        session.feed_batch_unchecked_iter(refs.iter())
                    });
                } else {
                    tracer.time("lrusim.access", Some(session_span), n, || {
                        for (_, page) in refs.iter() {
                            analyzer.access(page);
                        }
                    });
                }
            }
            if session.records() - checkpointed >= server_wal.checkpoint_refs() {
                let cp = session.checkpoint();
                tracer.time("wal.append_checkpoint", Some(session_span), 1, || {
                    server_wal.append_checkpoint(sid, &cp)
                })?;
                checkpointed = session.records();
            }
        }
        let (stats, _) = tracer
            .time("ingest.commit", Some(session_span), 1, || session.commit())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if stats != input.stats {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "in-process replay of {} committed different statistics",
                    input.name
                ),
            ));
        }
        tracer.time("wal.commit_session", Some(session_span), 1, || {
            server_wal.commit_session(sid, 0, |_| Ok(()))
        })?;
        compactions += analyzer.compactions();
        let curve = tracer.time("lrusim.finish", Some(session_span), 1, || {
            analyzer.finish().fetch_curve()
        });
        let refit = tracer.time("segfit.collect", Some(session_span), 1, || {
            LruFit::new(inputs::server_config()).collect_from_curve(
                &curve,
                u64::from(input.table_pages),
                input.refs,
                input.stats.distinct_keys,
            )
        });
        black_box(refit);
        tracer.close(session_span, input.refs);
        refs_total += input.refs;
        sessions += 1;
    }
    let access = tracer.per_op_ns("lrusim.access");
    let mut feed_extra: Vec<f64> = tracer
        .per_op_ns("ingest.feed")
        .iter()
        .zip(&access)
        .map(|(feed, bare)| feed - bare)
        .collect();
    m.insert(
        "framing.decode_page_ns_per_ref",
        median(&mut tracer.per_op_ns("framing.decode_page")),
    );
    m.insert(
        "ingest.check_ns_per_ref",
        median(&mut tracer.per_op_ns("ingest.check")),
    );
    m.insert("ingest.feed_ns_per_ref", median(&mut feed_extra));
    m.insert("lrusim.access_ns", median(&mut { access }));
    m.insert("lrusim.compactions", compactions as f64 / sessions as f64);
    m.insert(
        "wal.encode_page_ns_per_ref",
        median(&mut tracer.per_op_ns("wal.encode_page")),
    );
    m.insert(
        "wal.append_page_us",
        median(&mut tracer.per_op_ns("wal.append_page")) / 1e3,
    );
    m.insert(
        "wal.bytes_per_ref",
        (counters.bytes.get() - bytes0) as f64 / refs_total as f64,
    );
    m.insert(
        "wal.fsyncs_per_session",
        (counters.fsyncs.get() - fsyncs0) as f64 / sessions as f64,
    );
    m.insert(
        "ingest.commit_ms",
        median(&mut tracer.per_op_ns("ingest.commit")) / 1e6,
    );
    m.insert(
        "lrusim.finish_ms",
        median(&mut tracer.per_op_ns("lrusim.finish")) / 1e6,
    );
    m.insert(
        "segfit.collect_ms",
        median(&mut tracer.per_op_ns("segfit.collect")) / 1e6,
    );
    tracer.close(parent, refs_total);
    drop(server_wal);
    std::fs::remove_dir_all(&wal_dir).ok();
    Ok(())
}

/// `SharedCatalog::commit` on durable catalogs of 10, 1k and 10k entries,
/// plus the size and load time of the 10k file.
fn commit_ladder(
    inp: &Inputs,
    work: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let parent = tracer.open("replay.commit_ladder", None, 0);
    let rungs: [(usize, &'static str, &'static str); 3] = [
        (10, "catalog.commit.e10", "catalog.commit_ms.e10"),
        (1000, "catalog.commit.e1k", "catalog.commit_ms.e1k"),
        (10_000, "catalog.commit.e10k", "catalog.commit_ms.e10k"),
    ];
    for (entries, span, metric) in rungs {
        let mut catalog = VersionedCatalog::new();
        for i in 0..entries {
            catalog
                .insert(
                    inputs::entry_name(i),
                    inp.stats[i % inp.stats.len()].clone(),
                    1_700_000_000,
                    None,
                )
                .expect("generated entry names are valid");
        }
        let text = catalog.to_text_checksummed();
        let path = work.join(format!("ladder-{entries}.scat"));
        std::fs::write(&path, &text)?;
        if entries == 10_000 {
            m.insert("catalog.persist_bytes.e10k", text.len() as f64);
            for _ in 0..3 {
                black_box(tracer.time("catalog.load.e10k", Some(parent), 1, || {
                    SharedCatalog::open(&path)
                })?);
            }
            m.insert(
                "catalog.load_ms.e10k",
                median(&mut tracer.per_op_ns("catalog.load.e10k")) / 1e6,
            );
        }
        let shared = SharedCatalog::open(&path)?;
        for c in 0..LADDER_COMMITS {
            let stats = inp.stats[c % inp.stats.len()].clone();
            tracer.time(span, Some(parent), 1, || {
                shared.commit("ladder.x", stats, None)
            })?;
        }
        m.insert(metric, median(&mut tracer.per_op_ns(span)) / 1e6);
    }
    tracer.close(parent, 0);
    Ok(())
}

/// `StackAnalyzer::access` on `bench_summary`'s exact trace: 1M references,
/// θ = 0.86, 10k keys, 40 records per page, the generator's default seed.
fn bench_summary_zipf(tracer: &mut Tracer, m: &mut Metrics) {
    let dataset = Dataset::generate(DatasetSpec::synthetic(1_000_000, 10_000, 40, 0.86, 0.3));
    let trace = dataset.trace().pages();
    let parent = tracer.open("replay.bench_summary_zipf", None, 0);
    for _ in 0..5 {
        let mut analyzer = StackAnalyzer::with_capacity(trace.len());
        tracer.time(
            "lrusim.access.bench_summary_zipf",
            Some(parent),
            trace.len() as u64,
            || {
                for &p in trace {
                    analyzer.access(p);
                }
            },
        );
        black_box(analyzer.distinct_pages());
    }
    tracer.close(parent, 0);
    m.insert(
        "lrusim.access_ns.bench_summary_zipf",
        median(&mut tracer.per_op_ns("lrusim.access.bench_summary_zipf")),
    );
}
