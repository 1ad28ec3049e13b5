//! # epfis-obs — workspace-wide observability
//!
//! Std-only telemetry shared by every layer of the EPFIS reproduction:
//!
//! * **Structured events** ([`event`], [`logger`], [`sink`], [`ring`]):
//!   leveled `key=value` events and RAII span timers fan out to pluggable
//!   sinks — human-readable stderr lines, JSON lines appended to a file,
//!   and an always-on in-memory ring buffer of the last N events that the
//!   server exposes at runtime (`/events`). A disabled event costs one
//!   relaxed atomic load; an enabled one never blocks the emitting thread
//!   (the ring drops under contention rather than waiting).
//!
//! * **Metrics** ([`metrics`], [`registry`], [`wellknown`]): lock-free
//!   counters, gauges, and the log2 histogram generalized out of
//!   `epfis-server`'s private `STATS` implementation, organized into
//!   labeled families by a [`registry::Registry`] that renders the
//!   Prometheus text exposition format (cumulative `_bucket` series with
//!   exact `le` bounds, `_sum`, `_count`) and, from the same walk, the
//!   `series value` sample lines the server's `STATS` command serves
//!   ([`series_value`] reads either back). Library subsystems that cannot
//!   know who is serving them (stack analyzer, WAL) publish into
//!   [`registry::Registry::global`] via [`wellknown`].
//!
//! * **Exposition** ([`http`]): a minimal GET-only HTTP/1.1 server that
//!   `epfis serve --metrics-addr` uses for `/metrics`, `/healthz`, and
//!   `/events`.
//!
//! The crate depends on `std` alone so any workspace member — including
//! `epfis-storage`, which is otherwise dependency-free — can afford it.

pub mod event;
pub mod http;
pub mod logger;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod wellknown;

pub use event::{Event, Level, Value};
pub use logger::{EventBuilder, Logger, Span};
pub use metrics::{Counter, Gauge, Histogram, BUCKETS};
pub use registry::{series_value, MetricKind, Registry};
pub use ring::RingBuffer;
pub use sink::{FileSink, LogFormat, Sink, StderrSink};
