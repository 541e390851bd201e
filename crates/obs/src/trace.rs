//! A bounded ring-buffer structured event trace.
//!
//! [`TraceBuffer`] keeps the last N [`TraceEvent`]s recorded anywhere in
//! the process: compaction pipeline transitions, partition health flips,
//! snapshot-pin expiry, back-pressure stalls, connection lifecycle. Each
//! event carries a monotonic sequence number, a category string, an
//! optional partition, an op/job/connection id, and a free-form payload.
//! The buffer is queryable in memory ([`TraceBuffer::last`],
//! [`TraceBuffer::in_category`]) and dumpable as JSON lines
//! ([`TraceBuffer::dump_json_lines`]) — the format the admin plane's
//! `GET /trace?last=N` endpoint serves.
//!
//! # Example
//!
//! ```
//! use prism_obs::trace::{category, TraceBuffer};
//!
//! let trace = TraceBuffer::new(128);
//! trace.record(category::COMPACTION_INSTALL, Some(3), 17, "files=2");
//! let events = trace.last(10);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].category, category::COMPACTION_INSTALL);
//! assert!(events[0].to_json_line().contains("\"partition\":3"));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{escape_into, JsonObject};

/// Well-known event category names. Categories are plain strings so
/// layers can add their own, but sharing these constants keeps the
/// admin-plane output greppable.
pub mod category {
    /// A compaction job was planned and enqueued.
    pub const COMPACTION_PLAN: &str = "compaction_plan";
    /// A background worker started executing a compaction job.
    pub const COMPACTION_EXECUTE: &str = "compaction_execute";
    /// A compaction result was installed into its partition.
    pub const COMPACTION_INSTALL: &str = "compaction_install";
    /// A compaction result was discarded at install (its partition's
    /// flash file list changed since the plan) and the work will be
    /// re-planned.
    pub const COMPACTION_DISCARD: &str = "compaction_discard";
    /// A pool worker dropped a compaction request whose job failed (an
    /// I/O error) and went on serving.
    pub const COMPACTION_FAILED: &str = "compaction_failed";
    /// An object was quarantined after a checksum failure.
    pub const QUARANTINE: &str = "quarantine";
    /// A partition entered degraded (read-only) mode.
    pub const DEGRADED: &str = "degraded";
    /// A clean scrub pass returned a degraded partition to healthy.
    pub const REARM: &str = "rearm";
    /// A scrub pass completed.
    pub const SCRUB_PASS: &str = "scrub_pass";
    /// A snapshot pin was expired by the history caps.
    pub const SNAPSHOT_EXPIRED: &str = "snapshot_expired";
    /// A foreground write stalled on the compaction back-pressure
    /// ceiling.
    pub const BACKPRESSURE: &str = "backpressure";
    /// A network connection was accepted.
    pub const CONN_OPEN: &str = "conn_open";
    /// A network connection was fully torn down.
    pub const CONN_CLOSE: &str = "conn_close";
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number, unique per [`TraceBuffer`]. Gaps in a
    /// dump mean older events were overwritten by the ring.
    pub seq: u64,
    /// Event category (see [`category`] for the well-known names).
    pub category: &'static str,
    /// Partition the event concerns, if any.
    pub partition: Option<u32>,
    /// Op / job / connection identifier (0 when not applicable).
    pub id: u64,
    /// Free-form human-readable detail.
    pub payload: String,
}

impl TraceEvent {
    /// Render the event as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObject::new();
        obj.number("seq", self.seq);
        obj.string("category", self.category);
        match self.partition {
            Some(p) => obj.number("partition", u64::from(p)),
            None => obj.raw("partition", "null"),
        }
        obj.number("id", self.id);
        let mut escaped = String::new();
        escape_into(&self.payload, &mut escaped);
        obj.raw("payload", &format!("\"{escaped}\""));
        obj.finish()
    }
}

/// A bounded ring of the most recent [`TraceEvent`]s.
///
/// Recording takes one short mutex; the buffer is meant for coarse
/// lifecycle events (compactions, health flips, connections), not
/// per-request tracing, so the lock is never hot.
pub struct TraceBuffer {
    seq: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceBuffer {
    /// A buffer retaining the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            seq: AtomicU64::new(0),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEvent>> {
        self.ring
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Append an event, evicting the oldest once the ring is full.
    /// Returns the event's sequence number.
    pub fn record(
        &self,
        category: &'static str,
        partition: Option<u32>,
        id: u64,
        payload: impl Into<String>,
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            category,
            partition,
            id,
            payload: payload.into(),
        };
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
        seq
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `n` events, oldest first.
    pub fn last(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Retained events matching `category`, oldest first.
    pub fn in_category(&self, category: &str) -> Vec<TraceEvent> {
        self.lock()
            .iter()
            .filter(|e| e.category == category)
            .cloned()
            .collect()
    }

    /// The most recent `n` retained events as JSON lines (one object per
    /// line, oldest first).
    pub fn dump_json_lines(&self, n: usize) -> String {
        let mut out = String::new();
        for event in self.last(n) {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotone() {
        let trace = TraceBuffer::new(4);
        for i in 0..10u64 {
            trace.record(category::BACKPRESSURE, Some(1), i, format!("i={i}"));
        }
        assert_eq!(trace.recorded(), 10);
        assert_eq!(trace.len(), 4);
        let events = trace.last(100);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn last_returns_tail_in_order() {
        let trace = TraceBuffer::new(8);
        for i in 0..5u64 {
            trace.record(category::CONN_OPEN, None, i, "");
        }
        let tail = trace.last(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[1].seq, 4);
    }

    #[test]
    fn category_filter_and_json_lines() {
        let trace = TraceBuffer::new(8);
        trace.record(category::COMPACTION_PLAN, Some(0), 1, "jobs=1");
        trace.record(category::COMPACTION_INSTALL, Some(0), 1, "say \"hi\"");
        assert_eq!(trace.in_category(category::COMPACTION_INSTALL).len(), 1);
        let dump = trace.dump_json_lines(10);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"category\":\"compaction_install\""));
        assert!(dump.contains("say \\\"hi\\\""));
        let no_partition = TraceBuffer::new(2);
        no_partition.record(category::CONN_CLOSE, None, 3, "");
        assert!(no_partition
            .dump_json_lines(1)
            .contains("\"partition\":null"));
    }
}
