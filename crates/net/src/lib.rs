//! `epfis-net`: a readiness-driven connection core for the EPFIS server.
//!
//! `epfis-server` serves every connection from one event-loop thread built
//! on this crate, so tens of thousands of mostly-idle connections cost
//! slots and buffers, not threads:
//!
//! * [`io`] — shared classification of `read(2)`/`write(2)` results
//!   ([`ReadStep`]): `EINTR` is a retry, `EAGAIN`/timeouts are "no data yet",
//!   and only genuine errors or EOF tear a connection down. The driver and
//!   the obs HTTP server route their syscall results through this one
//!   table so a stray signal can never be mistaken for a peer close.
//!   Also hosts [`io::raise_nofile_limit`], used by tests and the load
//!   generator to lift `RLIMIT_NOFILE` before opening 10k+ sockets.
//! * [`poller`] — a thin wrapper over `epoll(7)` with a portable `poll(2)`
//!   fallback ([`Poller`]). Level-triggered, `usize` tokens, no allocation
//!   per wait beyond the reused event buffer.
//! * [`driver`] — a single-threaded connection [`Driver`] multiplexing any
//!   number of nonblocking TCP connections over a [`Session`] state machine:
//!   bytes in, response bytes out, with write backpressure (a connection
//!   with a deep unflushed backlog is not read from until it drains),
//!   deferred-work continuation, sessions parked on work running on other
//!   threads (not read from until a cross-thread [`Waker`] fires), periodic
//!   ticks for idle deadlines, and a bounded-grace shutdown flush.
//!
//! The crate is std-only: the epoll/poll bindings are local `extern "C"`
//! declarations against the libc that std already links.

pub mod driver;
pub mod io;
pub mod poller;

pub use driver::{Control, Driver, DriverConfig, Session, SessionFactory, Waker};
pub use io::ReadStep;
pub use poller::{Event, Interest, Poller, Token};
