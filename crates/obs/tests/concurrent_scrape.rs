//! Scraping under fire: `/metrics` is served from worker threads while
//! every instrument kind is being hammered from others. The registry must
//! never panic, never emit a torn line, and counters must read
//! monotonically across consecutive renders even mid-increment.

use epfis_obs::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Structural check of one exposition document: every line is a comment or
/// a `name{labels} value` sample with a parseable value, and every sample
/// belongs to a family announced by a preceding `# TYPE` line.
fn check_render(text: &str) -> Vec<(String, f64)> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            let kind = rest.split_whitespace().nth(1).unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind in {line:?}"
            );
            typed.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        assert!(!line.is_empty(), "blank line in exposition");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("torn sample line {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let base = series.split('{').next().unwrap();
        assert!(
            typed.iter().any(|t| {
                base == t
                    || base == format!("{t}_bucket")
                    || base == format!("{t}_sum")
                    || base == format!("{t}_count")
                    || base == format!("{t}_max")
            }),
            "sample {series:?} has no preceding # TYPE"
        );
        samples.push((series.to_string(), value));
    }
    samples
}

#[test]
fn scrape_stays_coherent_under_concurrent_writes() {
    let registry = Arc::new(Registry::new());
    let external = Arc::new(AtomicU64::new(0));
    // One of each instrument kind, including the render-time callbacks the
    // server uses for the accuracy tracker and event-ring drop counter.
    let counter = registry.counter("hammer_ops_total", "ops", &[("kind", "write")]);
    let gauge = registry.gauge("hammer_inflight", "in flight", &[]);
    let hist = registry.histogram("hammer_latency_us", "latency", &[("cmd", "X")]);
    {
        let external = Arc::clone(&external);
        registry.counter_fn("hammer_external_total", "external", &[], move || {
            external.load(Ordering::Relaxed)
        });
    }
    {
        let external = Arc::clone(&external);
        registry.gauge_fn("hammer_external_gauge", "external g", &[], move || {
            external.load(Ordering::Relaxed) as f64
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let counter = Arc::clone(&counter);
        let gauge = Arc::clone(&gauge);
        let hist = Arc::clone(&hist);
        let external = Arc::clone(&external);
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                counter.inc();
                gauge.add(1);
                hist.record(i % 4096);
                external.fetch_add(1, Ordering::Relaxed);
                if i.is_multiple_of(64) {
                    // New series appear mid-scrape too (a fresh command
                    // label registering its histogram on first use).
                    registry.counter(
                        "hammer_ops_total",
                        "ops",
                        &[("kind", if (i / 64).is_multiple_of(2) { "a" } else { "b" })],
                    );
                }
                gauge.sub(1);
                i = i.wrapping_add(w + 1);
            }
        }));
    }

    // Scrape from several threads at once; each checks structure and
    // per-thread counter monotonicity across its own renders.
    let mut scrapers = Vec::new();
    for _ in 0..3 {
        let registry = Arc::clone(&registry);
        scrapers.push(thread::spawn(move || {
            let mut last_ops = 0.0f64;
            let mut last_count = 0.0f64;
            for _ in 0..200 {
                let text = registry.render_prometheus();
                let samples = check_render(&text);
                let ops = samples
                    .iter()
                    .find(|(s, _)| s == "hammer_ops_total{kind=\"write\"}")
                    .map(|&(_, v)| v)
                    .expect("write counter present");
                assert!(
                    ops >= last_ops,
                    "counter went backwards: {ops} < {last_ops}"
                );
                last_ops = ops;
                let count = samples
                    .iter()
                    .find(|(s, _)| s == "hammer_latency_us_count{cmd=\"X\"}")
                    .map(|&(_, v)| v)
                    .expect("histogram count present");
                assert!(count >= last_count, "histogram count went backwards");
                last_count = count;
                // Histogram internal coherence: the +Inf bucket and the
                // count are read moments apart under relaxed increments,
                // so they may skew by the writes in flight between the two
                // loads — but never by a torn/garbage margin.
                let inf_bucket: f64 = samples
                    .iter()
                    .filter(|(s, _)| s.starts_with("hammer_latency_us_bucket{"))
                    .filter(|(s, _)| s.contains("le=\"+Inf\""))
                    .map(|&(_, v)| v)
                    .sum();
                assert!(
                    (inf_bucket - count).abs() <= 4096.0,
                    "+Inf bucket {inf_bucket} vs count {count}: torn histogram"
                );
            }
            last_ops
        }));
    }

    let finals: Vec<f64> = scrapers.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    // Writers really ran (the test exercised contention, not an idle loop).
    assert!(counter.get() > 0);
    assert!(finals.iter().all(|&v| v <= counter.get() as f64));

    // Quiesced: one final render agrees exactly with the instruments.
    let samples = check_render(&registry.render_prometheus());
    let ops = samples
        .iter()
        .find(|(s, _)| s == "hammer_ops_total{kind=\"write\"}")
        .unwrap()
        .1;
    assert_eq!(ops, counter.get() as f64);
    let ext = samples
        .iter()
        .find(|(s, _)| s.starts_with("hammer_external_total"))
        .unwrap()
        .1;
    assert_eq!(ext, external.load(Ordering::Relaxed) as f64);
    // The callback-backed counter announces itself as a counter family.
    let text = registry.render_prometheus();
    assert!(
        text.contains("# TYPE hammer_external_total counter"),
        "{text}"
    );
}
