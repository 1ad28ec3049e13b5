//! In-memory spans recorded around the benchmark's own calls.
//!
//! A span has a name, start, end, parent span and request id, plus the
//! number of operations it covers (a span around a batch of 4096 Est-IO
//! calls has `count` 4096). Spans stay in memory and are written out once,
//! when the run ends. A disabled recorder records nothing, which is how the
//! untraced run measures without them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Recorders of one run share an origin, and
/// [`Tracer::absorb`] merges another thread's spans.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, self.enabled)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (meaningless when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
        count: u64,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                req,
                count,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children may
    /// name it as parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req, 1)
    }

    pub fn close(&mut self, id: usize, count: u64) {
        if self.enabled {
            let end = self.ns(Instant::now());
            let span = &mut self.spans[id];
            span.end_ns = end;
            span.count = count;
        }
    }

    /// Times `f` as one span covering `count` operations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, 0, count);
        out
    }

    /// Moves `other`'s spans in, re-pointing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-operation time of every span named `name`, in ns: each span's
    /// duration divided by the operations it covers.
    pub fn per_op_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.count > 0)
            .map(|s| s.dur_ns() as f64 / s.count as f64)
            .collect()
    }

    /// Self time per span name, in ns summed over the run: each span's
    /// duration minus the part of its interval its children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0u64, s.start_ns);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur_ns().saturating_sub(union);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent req count`.
    pub fn write_tsv(&self, path: &Path, header: &[String]) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tcount")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.req, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let mut t = Tracer::new(origin, true);
        let root = t.record("root", at(0), at(100), None, 0, 1);
        t.record("child", at(10), at(30), Some(root), 0, 1);
        t.record("child", at(20), at(50), Some(root), 0, 1); // overlaps the first
        t.record("child", at(90), at(120), Some(root), 0, 1); // runs past the parent
        let selfs = t.self_time_ns();
        assert_eq!(selfs["root"], (1, 100 - 40 - 10));
        assert_eq!(selfs["child"], (3, 20 + 30 + 30));
    }

    #[test]
    fn absorb_repoints_parents_and_disabled_records_nothing() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        a.open("a", None, 0);
        let mut b = a.fork();
        let p = b.open("b", None, 0);
        b.record("c", origin, origin, Some(p), 7, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut off = Tracer::new(origin, false);
        off.time("x", None, 1, || ());
        assert!(off.spans().is_empty());
    }
}
