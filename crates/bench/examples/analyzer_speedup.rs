//! Head-to-head throughput of the current `StackAnalyzer` against the
//! pre-fast-path implementation (HashMap last-reference table, two-traversal
//! suffix count, no time-axis compaction), re-created inline below.
//!
//! ```text
//! cargo run -p epfis-bench --release --example analyzer_speedup
//! ```

use epfis_datagen::{Dataset, DatasetSpec};
use epfis_lrusim::StackAnalyzer;
use std::collections::HashMap;
use std::time::Instant;

/// The seed-revision Fenwick subset the old analyzer needed, verbatim in
/// behaviour: `total()` is a full descent, so `suffix_sum` costs two
/// traversals per query.
struct OldFenwick {
    tree: Vec<u64>,
}

impl OldFenwick {
    fn new(len: usize) -> Self {
        OldFenwick {
            tree: vec![0; len + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    fn add(&mut self, idx: usize, delta: i64) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix_sum(&self, idx: usize) -> u64 {
        let mut i = (idx + 1).min(self.len());
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn total(&self) -> u64 {
        self.prefix_sum(self.len() - 1)
    }

    fn suffix_sum(&self, idx: usize) -> u64 {
        if idx == 0 {
            return self.total();
        }
        self.total() - self.prefix_sum(idx - 1)
    }
}

/// The pre-fast-path analyzer: HashMap `last`, suffix-sum distance query,
/// unbounded time axis.
struct OldStackAnalyzer {
    fenwick: OldFenwick,
    last: HashMap<u32, usize>,
    counts: Vec<u64>,
    cold: u64,
    now: usize,
}

impl OldStackAnalyzer {
    fn with_capacity(n: usize) -> Self {
        OldStackAnalyzer {
            fenwick: OldFenwick::new(n.max(16)),
            last: HashMap::new(),
            counts: vec![0],
            cold: 0,
            now: 0,
        }
    }

    fn access(&mut self, page: u32) -> Option<usize> {
        let t = self.now;
        self.now += 1;
        // The harness presizes the tree to the trace length, so the seed's
        // grow-on-demand branch never fires; assert instead of porting it.
        assert!(t < self.fenwick.len());
        match self.last.insert(page, t) {
            None => {
                self.cold += 1;
                self.fenwick.add(t, 1);
                None
            }
            Some(lp) => {
                let d = self.fenwick.suffix_sum(lp) as usize;
                self.fenwick.add(lp, -1);
                self.fenwick.add(t, 1);
                if d >= self.counts.len() {
                    self.counts.resize(d + 1, 0);
                }
                self.counts[d] += 1;
                Some(d)
            }
        }
    }
}

fn rate_old(pages: &[u32]) -> f64 {
    let mut a = OldStackAnalyzer::with_capacity(pages.len());
    let start = Instant::now();
    for &p in pages {
        std::hint::black_box(a.access(p));
    }
    pages.len() as f64 / start.elapsed().as_secs_f64()
}

fn rate_new(pages: &[u32]) -> f64 {
    let mut a = StackAnalyzer::with_capacity(pages.len());
    let start = Instant::now();
    for &p in pages {
        std::hint::black_box(a.access(p));
    }
    pages.len() as f64 / start.elapsed().as_secs_f64()
}

fn compare(name: &str, pages: &[u32]) {
    // Warm up once, then alternate old/new trials (so background load hits
    // both sides alike) and keep the best of 7 for each.
    let _ = (rate_old(pages), rate_new(pages));
    let mut old = 0f64;
    let mut new = 0f64;
    for _ in 0..7 {
        old = old.max(rate_old(pages));
        new = new.max(rate_new(pages));
    }
    println!(
        "{name:<16} old {:>6.2} Mref/s   new {:>6.2} Mref/s   speedup {:.2}x",
        old / 1e6,
        new / 1e6,
        new / old
    );
}

fn main() {
    // A 100k-reference Zipf scan, then a 5x longer variant with a wider
    // working set.
    let bench = Dataset::generate(DatasetSpec::synthetic(100_000, 1_000, 40, 0.86, 0.3));
    compare("zipf_bench", bench.trace().pages());

    let zipf = Dataset::generate(DatasetSpec::synthetic(500_000, 2_000, 40, 0.86, 0.3));
    compare("zipf_skewed_5x", zipf.trace().pages());

    // The paper's full synthetic scale (N = 10^6, I = 10^4): the seed
    // analyzer's time axis spans the whole trace here, the compacting one
    // stays within a few multiples of the working set.
    let full = Dataset::generate(DatasetSpec::synthetic(1_000_000, 10_000, 40, 0.86, 0.3));
    compare("zipf_paper_full", full.trace().pages());

    let uniform = Dataset::generate(DatasetSpec::synthetic(500_000, 2_000, 40, 0.0, 0.3));
    compare("uniform", uniform.trace().pages());

    let sequential: Vec<u32> = (0..500_000).collect();
    compare("sequential", &sequential);

    let cyclic: Vec<u32> = (0..500_000u32)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B1);
            if h % 7 == 0 {
                h % 500
            } else {
                i % 350
            }
        })
        .collect();
    compare("cyclic_compact", &cyclic);
}
