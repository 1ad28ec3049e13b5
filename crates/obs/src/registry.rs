//! The metric [`Registry`]: named families of instruments rendered in the
//! Prometheus text exposition format.
//!
//! A *family* is a metric name plus help text and a kind; each family owns
//! one or more *series* distinguished by label sets. Registration is
//! get-or-create: registering the same name + labels twice returns the
//! same `Arc`-shared instrument, so independent subsystems can share a
//! counter without coordinating. Registering a name under two different
//! kinds panics — metric identity is static, so that is a programming
//! error, caught loudly.
//!
//! Rendering contract (pinned by a property test):
//!
//! * every family emits `# HELP` and `# TYPE` exactly once, in name order;
//! * histograms expose cumulative `_bucket{le="..."}` series whose counts
//!   are monotonically non-decreasing, ending in `le="+Inf"` equal to the
//!   `_count` series, plus `_sum`;
//! * label values are escaped (`\\`, `\"`, `\n`), names are validated at
//!   registration.
//!
//! The same family walk also renders *sample lines*
//! ([`Registry::render_samples_into`]): the exposition minus `# HELP`,
//! `# TYPE` and `_bucket` lines, with each non-empty histogram reporting
//! quantiles instead. Every counter and gauge line there is byte-identical
//! to its Prometheus sample line; [`series_value`] reads a value back out
//! of either rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram, BUCKETS};

/// What a family measures, as declared to Prometheus by `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (`_total` naming convention).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log2 histogram, rendered as `_bucket`/`_sum`/`_count`.
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Arc<Counter>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Labels,
    instrument: Instrument,
}

struct Family {
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A collection of metric families, renderable as Prometheus text.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|g| g.len()).unwrap_or(0);
        f.debug_struct("Registry").field("families", &n).finish()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_name(k), "invalid label name {k:?}");
            (k.to_string(), v.to_string())
        })
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry, for instruments that belong to shared
    /// subsystems (stack analyzer, WAL) rather than one server
    /// instance. See [`crate::wellknown`].
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Option<&'static str> {
        // Returns None; the real work is the side effect. Kept private —
        // public entry points below return the concrete instrument.
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = owned_labels(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {:?} and {kind:?}",
            family.kind
        );
        if !family.series.iter().any(|s| s.labels == labels) {
            family.series.push(Series {
                labels,
                instrument: make(),
            });
        }
        None
    }

    fn find<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: impl Fn(&Instrument) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let labels = owned_labels(labels);
        let families = self.families.lock().expect("registry poisoned");
        let family = &families[name];
        let series = family
            .series
            .iter()
            .find(|s| s.labels == labels)
            .expect("series registered above");
        pick(&series.instrument).expect("kind checked above")
    }

    /// Registers (or finds) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        });
        self.find(name, labels, |i| match i {
            Instrument::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Registers (or finds) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(name, help, MetricKind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        });
        self.find(name, labels, |i| match i {
            Instrument::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Registers (or finds) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(name, help, MetricKind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        });
        self.find(name, labels, |i| match i {
            Instrument::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// Registers a computed gauge: `f` is evaluated at render time. Useful
    /// for values owned elsewhere (catalog epoch, uptime, active
    /// connections). Re-registering the same name + labels replaces `f`.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = owned_labels(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Gauge,
            series: Vec::new(),
        });
        assert!(
            family.kind == MetricKind::Gauge,
            "metric {name:?} registered as {:?} and Gauge",
            family.kind
        );
        let instrument = Instrument::GaugeFn(Box::new(f));
        if let Some(series) = family.series.iter_mut().find(|s| s.labels == labels) {
            series.instrument = instrument;
        } else {
            family.series.push(Series { labels, instrument });
        }
    }

    /// Registers a computed counter: `f` is evaluated at render time.
    /// For monotonic totals owned elsewhere (the logger's event-ring drop
    /// count, a tracker's observation count) that must still export with
    /// `# TYPE counter`. `f` must be monotonically non-decreasing.
    /// Re-registering the same name + labels replaces `f`.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = owned_labels(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Counter,
            series: Vec::new(),
        });
        assert!(
            family.kind == MetricKind::Counter,
            "metric {name:?} registered as {:?} and Counter",
            family.kind
        );
        let instrument = Instrument::CounterFn(Box::new(f));
        if let Some(series) = family.series.iter_mut().find(|s| s.labels == labels) {
            series.instrument = instrument;
        } else {
            family.series.push(Series { labels, instrument });
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.render_prometheus_into(&mut out);
        out
    }

    /// Appends the rendering to `out` (lets callers concatenate the global
    /// registry after a per-server one into a single `/metrics` body).
    pub fn render_prometheus_into(&self, out: &mut String) {
        self.render_into(out, Format::Prometheus);
    }

    /// Appends the *sample lines* rendering to `out`: every line has the
    /// grammar `series value`, with no `# HELP`/`# TYPE` and no `_bucket`
    /// lines. A counter or gauge series renders exactly its Prometheus
    /// sample line. A histogram series with at least one sample renders
    /// `name{labels,quantile="0.5"|"0.99"|"1"}` (from
    /// [`Histogram::quantile`]) plus its `_sum` and `_count` lines; an
    /// empty one renders nothing.
    pub fn render_samples_into(&self, out: &mut String) {
        self.render_into(out, Format::Samples);
    }

    fn render_into(&self, out: &mut String, format: Format) {
        let families = self.families.lock().expect("registry poisoned");
        for (name, family) in families.iter() {
            if format == Format::Prometheus {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
                let _ = writeln!(out, "# TYPE {name} {}", family.kind.type_name());
            }
            for series in &family.series {
                match &series.instrument {
                    Instrument::Counter(c) => {
                        render_line(out, name, &series.labels, None, &c.get().to_string());
                    }
                    Instrument::CounterFn(f) => {
                        render_line(out, name, &series.labels, None, &f().to_string());
                    }
                    Instrument::Gauge(g) => {
                        render_line(out, name, &series.labels, None, &g.get().to_string());
                    }
                    Instrument::GaugeFn(f) => {
                        render_line(out, name, &series.labels, None, &fmt_f64(f()));
                    }
                    Instrument::Histogram(h) => {
                        render_histogram(out, name, &series.labels, h, format)
                    }
                }
            }
        }
    }
}

/// The two renderings of one family walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The Prometheus text exposition format.
    Prometheus,
    /// Sample lines only, with histogram quantiles instead of buckets.
    Samples,
}

/// The quantiles a histogram reports in the sample-lines rendering:
/// `(label value, q)`.
const SAMPLE_QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.99", 0.99), ("1", 1.0)];

/// The value of `series` (an exact `name` or `name{labels}`, as rendered)
/// in a Prometheus or sample-lines rendering: the first line made of the
/// series, one space, and a number. `None` when no line matches or the
/// value does not parse.
pub fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')
            .map(|v| v.trim().parse().ok())
    })?
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_line(
    out: &mut String,
    name: &str,
    labels: &Labels,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, h: &Histogram, format: Format) {
    match format {
        Format::Prometheus => {
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            let bucket_name = format!("{name}_bucket");
            for (i, c) in counts.iter().enumerate().take(BUCKETS) {
                cumulative += c;
                let le = match Histogram::bucket_le(i) {
                    Some(le) => le.to_string(),
                    None => "+Inf".to_string(),
                };
                render_line(
                    out,
                    &bucket_name,
                    labels,
                    Some(("le", &le)),
                    &cumulative.to_string(),
                );
            }
        }
        Format::Samples => {
            if h.count() == 0 {
                return;
            }
            for (label, q) in SAMPLE_QUANTILES {
                let v = h.quantile(q).to_string();
                render_line(out, name, labels, Some(("quantile", label)), &v);
            }
        }
    }
    render_line(
        out,
        &format!("{name}_sum"),
        labels,
        None,
        &h.sum().to_string(),
    );
    render_line(
        out,
        &format!("{name}_count"),
        labels,
        None,
        &h.count().to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_are_shared_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("epfis_test_total", "help", &[("command", "PING")]);
        let b = r.counter("epfis_test_total", "help", &[("command", "PING")]);
        let c = r.counter("epfis_test_total", "help", &[("command", "SHOW")]);
        a.inc();
        b.inc();
        c.add(5);
        assert_eq!(a.get(), 2);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP epfis_test_total help"));
        assert!(text.contains("# TYPE epfis_test_total counter"));
        assert!(text.contains("epfis_test_total{command=\"PING\"} 2"));
        assert!(text.contains("epfis_test_total{command=\"SHOW\"} 5"));
    }

    #[test]
    fn gauge_fn_is_evaluated_at_render_time() {
        let r = Registry::new();
        let shared = Arc::new(Counter::new());
        let inner = Arc::clone(&shared);
        r.gauge_fn("epfis_test_value", "computed", &[], move || {
            inner.get() as f64 / 2.0
        });
        shared.add(5);
        assert!(r.render_prometheus().contains("epfis_test_value 2.5"));
        shared.add(1);
        assert!(r.render_prometheus().contains("epfis_test_value 3"));
    }

    #[test]
    fn counter_fn_is_evaluated_at_render_time_as_counter_kind() {
        let r = Registry::new();
        let shared = Arc::new(Counter::new());
        let inner = Arc::clone(&shared);
        r.counter_fn("epfis_test_dropped_total", "computed", &[], move || {
            inner.get()
        });
        shared.add(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE epfis_test_dropped_total counter"));
        assert!(text.contains("epfis_test_dropped_total 5"));
        shared.add(2);
        assert!(r.render_prometheus().contains("epfis_test_dropped_total 7"));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn counter_fn_kind_conflict_panics() {
        let r = Registry::new();
        r.gauge("epfis_test_value", "h", &[]);
        r.counter_fn("epfis_test_value", "h", &[], || 0);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("epfis_test_us", "latency", &[]);
        h.record(0); // bucket 0, le 0
        h.record(1); // bucket 1, le 1
        h.record(3); // bucket 2, le 3
        h.record(1_000_000); // bucket 20
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE epfis_test_us histogram"));
        assert!(text.contains("epfis_test_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("epfis_test_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("epfis_test_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("epfis_test_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("epfis_test_us_sum 1000004\n"));
        assert!(text.contains("epfis_test_us_count 4\n"));
    }

    #[test]
    fn sample_lines_are_the_exposition_minus_buckets_plus_quantiles() {
        let r = Registry::new();
        r.counter("epfis_test_total", "h", &[("command", "PING")])
            .add(3);
        r.counter("epfis_test_total", "h", &[("command", "SHOW")]);
        r.counter_fn("epfis_test_fn_total", "h", &[], || 7);
        r.gauge("epfis_test_level", "h", &[("pool", "a")]).set(-2);
        r.gauge_fn("epfis_test_ratio", "h", &[], || 0.25);
        r.histogram("epfis_test_idle_us", "h", &[("command", "PING")]);
        let h = r.histogram("epfis_test_us", "h", &[("command", "PING")]);
        for v in [1, 20, 300, 4000] {
            h.record(v);
        }
        let exposition = r.render_prometheus();
        let mut samples = String::new();
        r.render_samples_into(&mut samples);

        let mut quantiles = 0;
        for line in samples.lines() {
            assert!(
                !line.starts_with('#') && !line.contains("_bucket"),
                "{line}"
            );
            assert!(
                !line.contains("epfis_test_idle_us"),
                "empty histogram: {line}"
            );
            if line.contains("quantile=") {
                let (series, value) = line.rsplit_once(' ').unwrap();
                let (_, q) = series.split_once("quantile=\"").unwrap();
                let q: f64 = q.trim_end_matches("\"}").parse().unwrap();
                assert_eq!(value, h.quantile(q).to_string(), "{line}");
                quantiles += 1;
            } else {
                assert!(
                    exposition.lines().any(|l| l == line),
                    "{line}\n{exposition}"
                );
            }
        }
        assert_eq!(quantiles, SAMPLE_QUANTILES.len());
        for expect in [
            "epfis_test_total{command=\"PING\"} 3",
            "epfis_test_total{command=\"SHOW\"} 0",
            "epfis_test_fn_total 7",
            "epfis_test_level{pool=\"a\"} -2",
            "epfis_test_ratio 0.25",
            "epfis_test_us{command=\"PING\",quantile=\"1\"} 4000",
            "epfis_test_us_sum{command=\"PING\"} 4321",
            "epfis_test_us_count{command=\"PING\"} 4",
        ] {
            assert!(samples.lines().any(|l| l == expect), "{expect}\n{samples}");
        }
        assert_eq!(series_value(&samples, "epfis_test_fn_total"), Some(7.0));
        assert_eq!(
            series_value(&exposition, "epfis_test_total{command=\"PING\"}"),
            Some(3.0)
        );
        // Exact series match: a name prefix or a missing series reads None.
        assert_eq!(series_value(&samples, "epfis_test"), None);
        assert_eq!(series_value(&samples, "epfis_test_us_count"), None);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("epfis_test_total", "h", &[("name", "a\"b\\c\nd")]);
        let text = r.render_prometheus();
        assert!(text.contains("name=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("epfis_test_total", "h", &[]);
        r.gauge("epfis_test_total", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("0bad name", "h", &[]);
    }
}
