//! The [`Logger`]: level filtering, fan-out to sinks, and span timing.
//!
//! Design constraints, in order:
//!
//! 1. A *disabled* event must cost one relaxed atomic load and nothing
//!    else — the server calls `logger.event(...)` on per-request paths.
//! 2. The logger is shared (`Arc<Logger>`) across worker threads; all
//!    methods take `&self`.
//! 3. Every enabled event lands in the in-memory [`RingBuffer`] (so the
//!    last N events are queryable even with no sink configured) and is
//!    then offered to each configured [`Sink`].
//!
//! Span timers are RAII: [`Logger::span`] starts a monotonic clock and the
//! returned [`Span`] emits a single event on drop with an appended
//! `elapsed_us` field. Dropping a span on a disabled logger emits nothing.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{now_unix_micros, Event, Level, Value};
use crate::ring::RingBuffer;
use crate::sink::Sink;

const LEVEL_OFF: u8 = u8::MAX;

/// Default number of events retained by the logger's ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// A shared, leveled, multi-sink structured logger.
pub struct Logger {
    threshold: AtomicU8,
    sinks: Vec<Box<dyn Sink>>,
    ring: RingBuffer<Arc<Event>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("level", &self.level())
            .field("sinks", &self.sinks.len())
            .field("ring_capacity", &self.ring.capacity())
            .finish()
    }
}

impl Logger {
    /// A logger at `level` (or entirely off when `None`) with no sinks and
    /// the default ring capacity. Add sinks with [`Logger::with_sink`].
    pub fn new(level: Option<Level>) -> Logger {
        Logger {
            threshold: AtomicU8::new(level.map_or(LEVEL_OFF, |l| l as u8)),
            sinks: Vec::new(),
            ring: RingBuffer::new(DEFAULT_RING_CAPACITY),
        }
    }

    /// A logger that never emits anything; the zero-cost default.
    pub fn disabled() -> Logger {
        let mut logger = Logger::new(None);
        logger.ring = RingBuffer::new(0);
        logger
    }

    /// Adds a sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Logger {
        self.sinks.push(sink);
        self
    }

    /// Replaces the ring buffer capacity (builder style).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Logger {
        self.ring = RingBuffer::new(capacity);
        self
    }

    /// Current level filter (`None` = off).
    pub fn level(&self) -> Option<Level> {
        match self.threshold.load(Ordering::Relaxed) {
            0 => Some(Level::Trace),
            1 => Some(Level::Debug),
            2 => Some(Level::Info),
            3 => Some(Level::Warn),
            4 => Some(Level::Error),
            _ => None,
        }
    }

    /// Changes the level filter at runtime.
    pub fn set_level(&self, level: Option<Level>) {
        self.threshold
            .store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
    }

    /// Whether an event at `level` would be emitted. One relaxed load.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        (level as u8) >= self.threshold.load(Ordering::Relaxed)
    }

    /// Starts building an event. When the level is filtered out the
    /// builder is inert: `.field(...)` calls do no work and `.emit()` is a
    /// no-op, so call sites need no `if enabled` guard.
    #[inline]
    pub fn event(
        &self,
        level: Level,
        target: &'static str,
        name: &'static str,
    ) -> EventBuilder<'_> {
        if self.enabled(level) {
            EventBuilder {
                logger: Some(self),
                level,
                target,
                name,
                fields: Vec::new(),
            }
        } else {
            EventBuilder {
                logger: None,
                level,
                target,
                name,
                fields: Vec::new(),
            }
        }
    }

    /// Starts an RAII span timer; the returned [`Span`] emits one event on
    /// drop with an `elapsed_us` field appended after any span fields.
    #[inline]
    pub fn span(&self, level: Level, target: &'static str, name: &'static str) -> Span<'_> {
        Span {
            logger: self.enabled(level).then_some(self),
            level,
            target,
            name,
            fields: Vec::new(),
            start: Instant::now(),
        }
    }

    /// The most recent `max` retained events, oldest first.
    pub fn recent(&self, max: usize) -> Vec<Arc<Event>> {
        self.ring.recent(max)
    }

    /// Total events dropped by the ring under contention.
    pub fn ring_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    fn dispatch(
        &self,
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        let event = Arc::new(Event {
            level,
            target,
            name,
            unix_micros: now_unix_micros(),
            fields,
        });
        self.ring.push(Arc::clone(&event));
        for sink in &self.sinks {
            sink.emit(&event);
        }
    }
}

/// Builder returned by [`Logger::event`]; collect fields, then [`EventBuilder::emit`].
#[must_use = "an event builder does nothing until .emit() is called"]
pub struct EventBuilder<'a> {
    logger: Option<&'a Logger>,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl EventBuilder<'_> {
    /// Appends a key=value field. Free when the event is filtered out.
    #[inline]
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.logger.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Emits the event to the ring and all sinks.
    #[inline]
    pub fn emit(self) {
        if let Some(logger) = self.logger {
            logger.dispatch(self.level, self.target, self.name, self.fields);
        }
    }
}

/// An RAII span timer; see [`Logger::span`].
pub struct Span<'a> {
    logger: Option<&'a Logger>,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, Value)>,
    start: Instant,
}

impl Span<'_> {
    /// Appends a field to the event the span will emit (builder style).
    #[inline]
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.add_field(key, value);
        self
    }

    /// Appends a field in place (for facts learned mid-span).
    #[inline]
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.logger.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Elapsed time since the span started.
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(logger) = self.logger {
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("elapsed_us", Value::U64(self.elapsed_micros())));
            logger.dispatch(self.level, self.target, self.name, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filter_gates_emission() {
        let logger = Logger::new(Some(Level::Info));
        logger
            .event(Level::Debug, "t", "hidden")
            .field("x", 1u64)
            .emit();
        logger
            .event(Level::Warn, "t", "kept")
            .field("x", 2u64)
            .emit();
        let recent = logger.recent(8);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].name, "kept");
        assert!(logger.enabled(Level::Error));
        assert!(!logger.enabled(Level::Trace));
    }

    #[test]
    fn disabled_logger_emits_nothing() {
        let logger = Logger::disabled();
        logger.event(Level::Error, "t", "e").emit();
        drop(logger.span(Level::Error, "t", "s"));
        assert!(logger.recent(8).is_empty());
        assert_eq!(logger.level(), None);
    }

    #[test]
    fn set_level_applies_at_runtime() {
        let logger = Logger::new(None);
        logger.event(Level::Error, "t", "dropped").emit();
        logger.set_level(Some(Level::Trace));
        logger.event(Level::Trace, "t", "kept").emit();
        assert_eq!(logger.recent(8).len(), 1);
    }

    #[test]
    fn span_appends_elapsed_us() {
        let logger = Logger::new(Some(Level::Trace));
        {
            let mut span = logger.span(Level::Info, "t", "work").field("k", "v");
            span.add_field("n", 3u64);
        }
        let recent = logger.recent(8);
        assert_eq!(recent.len(), 1);
        let ev = &recent[0];
        assert_eq!(ev.name, "work");
        assert_eq!(ev.fields[0], ("k", Value::Str("v".into())));
        assert_eq!(ev.fields[1], ("n", Value::U64(3)));
        assert_eq!(ev.fields[2].0, "elapsed_us");
    }
}
