//! The slow-request log: a fixed-size ring of the most recent requests
//! whose total latency crossed `--slow-request-us`, each with its phase
//! breakdown (queue-wait, parse, execute, WAL) so a slow request can be
//! attributed to a layer instead of a shrug.
//!
//! The ring is shared between the serving threads (writers) and the
//! `/slowlog` HTTP route + `SLOWLOG` protocol command (readers), so the
//! recording path must never stall a request. It is the logger's
//! [`RingBuffer`]: if a reader (or another writer racing on the same slot)
//! holds a slot, the entry is dropped and a drop counter bumped. Losing one
//! slow-log entry under a concurrent scrape is the right trade; blocking
//! the serving path on observability is not.

use epfis_obs::RingBuffer;
use std::time::{SystemTime, UNIX_EPOCH};

/// How many bytes of the request text a slot preserves.
const WIRE_PREVIEW_BYTES: usize = 128;

/// Phase timings for one request, in microseconds. Phases the request
/// never entered (e.g. `wal_us` for an `ESTIMATE`) are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Time between the batch's bytes arriving and this request starting
    /// to parse (shared across a pipelined batch).
    pub queue_us: u64,
    /// Request decode (text tokenize or binary frame decode).
    pub parse_us: u64,
    /// Command execution, including estimator math and catalog access.
    pub execute_us: u64,
    /// WAL append/fsync time inside execute (also counted in
    /// `execute_us`; broken out so fsync stalls are attributable).
    pub wal_us: u64,
}

/// One recorded slow request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// Monotonically increasing id (1-based): the ring's push sequence, so
    /// an entry dropped under contention leaves a gap.
    pub id: u64,
    /// Wall-clock capture time, microseconds since the Unix epoch.
    pub unix_micros: u64,
    /// Command label (the same label `STATS` uses).
    pub command: &'static str,
    /// Up to 128 bytes (`WIRE_PREVIEW_BYTES`) of the request text (binary
    /// frames carry the command name only).
    pub wire: String,
    /// End-to-end latency.
    pub total_us: u64,
    /// Phase breakdown.
    pub phases: Phases,
}

impl SlowEntry {
    /// Renders the entry as one `SLOWLOG` data line.
    pub fn render(&self) -> String {
        format!(
            "slow id={} unix_us={} command={} total_us={} queue_us={} parse_us={} \
             execute_us={} wal_us={} wire={:?}",
            self.id,
            self.unix_micros,
            self.command,
            self.total_us,
            self.phases.queue_us,
            self.phases.parse_us,
            self.phases.execute_us,
            self.phases.wal_us,
            self.wire
        )
    }

    /// Renders the entry as one JSON object (for `/slowlog`).
    pub fn render_json(&self) -> String {
        let mut wire = String::with_capacity(self.wire.len() + 8);
        for c in self.wire.chars() {
            match c {
                '"' => wire.push_str("\\\""),
                '\\' => wire.push_str("\\\\"),
                c if (c as u32) < 0x20 => wire.push_str(&format!("\\u{:04x}", c as u32)),
                c => wire.push(c),
            }
        }
        format!(
            "{{\"id\":{},\"unix_us\":{},\"command\":\"{}\",\"total_us\":{},\
             \"queue_us\":{},\"parse_us\":{},\"execute_us\":{},\"wal_us\":{},\
             \"wire\":\"{}\"}}",
            self.id,
            self.unix_micros,
            self.command,
            self.total_us,
            self.phases.queue_us,
            self.phases.parse_us,
            self.phases.execute_us,
            self.phases.wal_us,
            wire
        )
    }
}

/// The shared ring (see the module docs).
#[derive(Debug)]
pub struct SlowLog {
    threshold_us: u64,
    ring: RingBuffer<SlowEntry>,
}

impl SlowLog {
    /// A ring of `capacity` slots recording requests slower than
    /// `threshold_us` (a threshold of 0 records everything — useful in
    /// tests, ruinous in production).
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        SlowLog {
            threshold_us,
            ring: RingBuffer::new(capacity.max(1)),
        }
    }

    /// The configured threshold.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Entries ever recorded (not the ring occupancy).
    pub fn recorded_total(&self) -> u64 {
        self.ring.pushed() - self.ring.dropped()
    }

    /// Entries lost to slot contention.
    pub fn dropped_total(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records one request if it crossed the threshold. Never blocks:
    /// a contended slot drops the entry. Returns whether it was kept.
    pub fn record(&self, command: &'static str, wire: &str, total_us: u64, phases: Phases) -> bool {
        if total_us < self.threshold_us {
            return false;
        }
        let unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut preview = String::with_capacity(wire.len().min(WIRE_PREVIEW_BYTES));
        for c in wire.chars() {
            if preview.len() + c.len_utf8() > WIRE_PREVIEW_BYTES {
                break;
            }
            preview.push(c);
        }
        self.ring.push_with(|seq| SlowEntry {
            id: seq + 1,
            unix_micros,
            command,
            wire: preview,
            total_us,
            phases,
        })
    }

    /// The newest `limit` entries, newest first. Slots a writer holds at
    /// snapshot time are skipped rather than waited on.
    pub fn snapshot(&self, limit: usize) -> Vec<SlowEntry> {
        let mut entries = self.ring.recent(limit);
        entries.reverse();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_over_threshold() {
        let log = SlowLog::new(1000, 8);
        assert!(!log.record("ESTIMATE", "ESTIMATE t.k 0.1", 999, Phases::default()));
        assert!(log.record("ESTIMATE", "ESTIMATE t.k 0.1", 1000, Phases::default()));
        assert_eq!(log.recorded_total(), 1);
        let snap = log.snapshot(10);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].command, "ESTIMATE");
        assert_eq!(snap[0].total_us, 1000);
        assert_eq!(snap[0].id, 1);
    }

    #[test]
    fn ring_keeps_the_newest_and_orders_newest_first() {
        let log = SlowLog::new(0, 4);
        for i in 0..10u64 {
            log.record("PING", "PING", i, Phases::default());
        }
        let snap = log.snapshot(10);
        let ids: Vec<u64> = snap.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![10, 9, 8, 7]);
        // limit trims from the old end.
        let ids: Vec<u64> = log.snapshot(2).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![10, 9]);
        assert_eq!(log.recorded_total(), 10);
    }

    #[test]
    fn wire_preview_is_bounded_and_utf8_safe() {
        let log = SlowLog::new(0, 2);
        let long: String = "é".repeat(200); // 2 bytes per char
        log.record("PAGE", &long, 1, Phases::default());
        let snap = log.snapshot(1);
        assert!(snap[0].wire.len() <= WIRE_PREVIEW_BYTES);
        assert!(snap[0].wire.chars().all(|c| c == 'é'));
    }

    #[test]
    fn phases_survive_and_render() {
        let log = SlowLog::new(0, 2);
        let phases = Phases {
            queue_us: 5,
            parse_us: 7,
            execute_us: 900,
            wal_us: 850,
        };
        log.record("PAGE", "PAGE 1:2", 912, phases);
        let e = &log.snapshot(1)[0];
        assert_eq!(e.phases, phases);
        let line = e.render();
        assert!(line.contains("command=PAGE"), "{line}");
        assert!(line.contains("wal_us=850"), "{line}");
        assert!(line.contains("wire=\"PAGE 1:2\""), "{line}");
        let json = e.render_json();
        assert!(json.contains("\"wal_us\":850"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let e = SlowEntry {
            id: 1,
            unix_micros: 0,
            command: "TEXT",
            wire: "say \"hi\"\tback\\".to_string(),
            total_us: 1,
            phases: Phases::default(),
        };
        let json = e.render_json();
        assert!(json.contains("say \\\"hi\\\"\\u0009back\\\\"), "{json}");
    }

    #[test]
    fn concurrent_writers_and_readers_never_deadlock() {
        use std::sync::Arc;
        let log = Arc::new(SlowLog::new(0, 8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    log.record("PING", "PING", t * 1000 + i, Phases::default());
                    if i % 16 == 0 {
                        log.snapshot(8);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.recorded_total() + log.dropped_total(), 2000);
        assert!(!log.snapshot(8).is_empty());
    }
}
