//! `epfis-server`: a concurrent catalog + estimation service.
//!
//! The EPFIS paper splits page-fetch estimation into two phases with very
//! different costs: **LRU-Fit** runs once per index at statistics-collection
//! time (a full scan through a stack analyzer plus segment fitting), while
//! **Est-IO** runs at every query compilation and must be cheap. This crate
//! turns that split into a long-running TCP service:
//!
//! * [`serve`] binds a listener served by one event-loop thread; each
//!   connection speaks a line protocol ([`protocol`]) with commands
//!   mirroring the `epfis` CLI — `ESTIMATE`, `FPF`, `COMPARE`, `SHOW`,
//!   `STATS`.
//! * `ANALYZE BEGIN … PAGE … ANALYZE COMMIT` streams a statistics scan into
//!   a per-connection [`IngestSession`] (incremental Mattson stack analysis,
//!   bounded memory) on ingest threads beside the loop; the commit fits
//!   segments and atomically publishes a versioned entry into the
//!   [`SharedCatalog`].
//! * Reads take an `Arc` snapshot, so concurrent `ESTIMATE`s never block
//!   behind an ingest; a commit appends its entry to the catalog log and
//!   syncs it, a compaction after the reply rewrites the snapshot
//!   atomically (temp + fsync + rename), and both reload on startup.
//! * `EXPLAIN ESTIMATE` serves the same estimate byte-for-byte plus the
//!   full Est-IO decision trace (FPF segment identity, clamp, small-σ
//!   correction, urn-model sargable reduction) — see `epfis::explain`.
//! * [`Metrics`] keeps per-command counters and latency histograms plus
//!   the governance counters (`epfis_server_limit_rejections_total`,
//!   `epfis_server_connections_shed_total`,
//!   `epfis_server_sessions_disconnected_total`, bytes in/out). Every
//!   instrument is registered in an `epfis-obs` registry, and `STATS`
//!   answers with that registry's sample lines; the optional HTTP endpoint
//!   ([`ServerConfig::metrics_addr`]) renders the same registry as
//!   Prometheus text on `/metrics`, plus a liveness probe on `/healthz` and
//!   the structured-event ring buffer on `/events`; an optional
//!   [`ServerConfig::logger`] records connection lifecycle, limit
//!   violations, ANALYZE sessions, and catalog commit spans.
//! * [`LimitsConfig`] bounds what any single peer can cost the server:
//!   request-line and pending-buffer bytes, an idle deadline that also
//!   defeats slow-loris writers, an admission cap that sheds excess
//!   connections with `SERVER_BUSY` instead of queueing them forever, and
//!   a per-session reference cap.
//!
//! * With [`ServerConfig::wal`], `ANALYZE` sessions are write-ahead logged
//!   ([`wal`], on the `epfis-wal` segment log): `PAGE` batches append before
//!   they feed the analyzer, periodic checkpoints serialize the session so
//!   replay is bounded, and restart replays the log *before binding* —
//!   interrupted sessions park for `ANALYZE RESUME`; the catalog-log
//!   append is the commit point, so replay never writes the catalog. A
//!   disconnect parks instead of discarding. Contract and format: `docs/durability.md`.
//!
//! * A `HELLO BINARY` line upgrades a connection to **binary framing v2**
//!   ([`framing`]): length-prefixed frames, pipelined request batching,
//!   zero-copy `PAGE` decode straight into the stack analyzer, and a
//!   zero-alloc `ESTIMATE` over cached catalog-entry handles.
//!   [`BinaryClient`] is the matching pipelining client. Both protocols
//!   are a decode and a render step around one request path (the same
//!   dispatch, entry cache, governance and accounting), so they produce
//!   bit-identical answers (the cross-validation tests prove it).
//!
//! The wire format is documented in `docs/protocol.md`; `epfis serve` and
//! `epfis client` (with `--binary`) expose the server from the CLI.

pub mod accuracy;
pub mod catalog;
pub mod client;
mod evloop;
pub mod framing;
pub mod ingest;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;
mod session;
pub mod slowlog;
pub mod wal;

pub use accuracy::{parse_drift_line, AccuracyConfig, AccuracyTracker, EntrySummary};
pub use catalog::{SharedCatalog, VersionedCatalog, VersionedEntry};
pub use client::{BinaryClient, Client, ClientError};
pub use framing::{BinRequest, BinResponse};
pub use ingest::{IngestSession, SessionCheckpoint};
pub use metrics::Metrics;
pub use protocol::{frame_busy, frame_err, frame_ok, parse_request, Request};
pub use retry::{ResilientClient, RetryPolicy};
pub use server::{serve, LimitsConfig, ServerConfig, ServerHandle};
pub use slowlog::{Phases, SlowEntry, SlowLog};
pub use wal::{FsyncPolicy, ServerWal, WalConfig, WalRecord};
