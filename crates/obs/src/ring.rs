//! A bounded in-memory buffer of the most recent items, queryable at
//! runtime (the server exposes the logger's events over HTTP as `/events`
//! and its slow requests as `/slowlog`).
//!
//! Writers never wait: a slot index is claimed with one atomic
//! `fetch_add`, and the slot itself is taken with `try_lock` — if a reader
//! (or a stalled writer) holds that one slot, the item is dropped rather
//! than blocking the serving path. Readers snapshot whatever slots they
//! can take without waiting and order them by sequence number. The
//! structure therefore trades perfect retention under contention for a
//! hard guarantee that observability never stalls the observed system.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A slot holds the sequence number that claimed it plus the item.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// Fixed-capacity ring of the last N items; the logger keeps its events
/// here and the server's slow-request log its entries.
#[derive(Debug)]
pub struct RingBuffer<T> {
    slots: Box<[Slot<T>]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl<T: Clone> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` items. A capacity of 0
    /// disables retention (pushes become no-ops).
    pub fn new(capacity: usize) -> RingBuffer<T> {
        let slots = (0..capacity).map(|_| Mutex::new(None)).collect();
        RingBuffer {
            slots,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total items ever pushed (including any dropped under contention).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Items dropped because their slot was contended at push time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores an item, never blocking; see [`RingBuffer::push_with`].
    pub fn push(&self, item: T) -> bool {
        self.push_with(|_| item)
    }

    /// Stores the item `make` builds from the push's 0-based sequence
    /// number, never blocking. Under slot contention nothing is built and
    /// the push is counted in [`RingBuffer::dropped`]. Returns whether the
    /// item was retained.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                *guard = Some((seq, make(seq)));
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Returns up to `max` of the most recent items, oldest first.
    /// Slots that are mid-write are skipped rather than waited on.
    pub fn recent(&self, max: usize) -> Vec<T> {
        let mut entries: Vec<(u64, T)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            if let Ok(guard) = slot.try_lock() {
                if let Some(entry) = guard.as_ref() {
                    entries.push(entry.clone());
                }
            }
        }
        entries.sort_by_key(|(seq, _)| *seq);
        let skip = entries.len().saturating_sub(max);
        entries.into_iter().skip(skip).map(|(_, x)| x).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Level, Value};
    use std::sync::Arc;

    fn ev(i: u64) -> Arc<Event> {
        Arc::new(Event {
            level: Level::Debug,
            target: "t",
            name: "n",
            unix_micros: i,
            fields: vec![("i", Value::from(i))],
        })
    }

    #[test]
    fn keeps_last_n_in_order() {
        let ring = RingBuffer::new(4);
        for i in 0..10 {
            ring.push(ev(i));
        }
        let recent: Vec<u64> = ring.recent(16).iter().map(|e| e.unix_micros).collect();
        assert_eq!(recent, vec![6, 7, 8, 9]);
        let recent: Vec<u64> = ring.recent(2).iter().map(|e| e.unix_micros).collect();
        assert_eq!(recent, vec![8, 9]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let ring = RingBuffer::new(0);
        ring.push(ev(1));
        assert!(ring.recent(8).is_empty());
    }

    #[test]
    fn concurrent_pushes_retain_a_consistent_tail() {
        let ring = Arc::new(RingBuffer::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.push(ev(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.pushed(), 4000);
        let recent = ring.recent(64);
        assert!(recent.len() <= 64);
        // Retained + dropped accounts for every claimed slot sequence.
        assert!(ring.dropped() <= 4000);
    }
}
