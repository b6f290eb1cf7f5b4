//! Bounded ring-buffer event journal.
//!
//! The journal keeps the most recent `capacity` events; older entries are
//! overwritten and accounted in a dropped counter so consumers can tell a
//! quiet system from a wrapped buffer. Events carry a monotonically
//! increasing sequence number, a clock timestamp, a severity, a static
//! source tag (which subsystem emitted it), and a message.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Importance of a journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic detail (element switches, flushes).
    Debug,
    /// Normal operational milestones (calibration, beat acceptance).
    Info,
    /// Degraded but functioning (saturation bursts, recalibration).
    Warning,
    /// Clinically significant (hyper/hypotension, signal loss).
    Critical,
}

impl Severity {
    /// Stable lowercase label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the overall event stream (0-based, never reused).
    pub seq: u64,
    /// Registry-clock timestamp of the event.
    pub at: Duration,
    /// Importance.
    pub severity: Severity,
    /// Emitting subsystem (e.g. `"monitor"`, `"analyzer"`).
    pub source: &'static str,
    /// Human-readable description.
    pub message: String,
}

#[derive(Debug, Default)]
struct JournalState {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Fixed-capacity, thread-safe event ring buffer.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl Journal {
    /// A journal retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            state: Mutex::new(JournalState::default()),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest entry when full. Returns the
    /// event's sequence number.
    pub fn push(
        &self,
        at: Duration,
        severity: Severity,
        source: &'static str,
        message: String,
    ) -> u64 {
        let mut state = self.state.lock().expect("journal lock poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(Event {
            seq,
            at,
            severity,
            source,
            message,
        });
        seq
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.state
            .lock()
            .expect("journal lock poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Total number of events ever pushed.
    pub fn total_events(&self) -> u64 {
        self.state.lock().expect("journal lock poisoned").next_seq
    }

    /// Number of events evicted by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("journal lock poisoned").dropped
    }

    /// Clears all retained events (sequence numbers keep advancing).
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("journal lock poisoned");
        state.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn severities_are_ordered() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }

    #[test]
    fn push_assigns_sequential_numbers() {
        let j = Journal::new(8);
        assert_eq!(j.push(at(1), Severity::Info, "test", "a".into()), 0);
        assert_eq!(j.push(at(2), Severity::Info, "test", "b".into()), 1);
        assert_eq!(j.total_events(), 2);
        assert_eq!(j.dropped(), 0);
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "a");
        assert_eq!(events[1].at, at(2));
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let j = Journal::new(3);
        for i in 0..7u64 {
            j.push(at(i), Severity::Debug, "test", format!("event {i}"));
        }
        let events = j.events();
        // Only the newest 3 remain, in order, with original seq numbers.
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(events[0].message, "event 4");
        assert_eq!(j.total_events(), 7);
        assert_eq!(j.dropped(), 4);
        // Sequence numbers keep advancing after the wrap.
        assert_eq!(j.push(at(8), Severity::Info, "test", "late".into()), 7);
    }

    #[test]
    fn capacity_floor_is_one() {
        let j = Journal::new(0);
        assert_eq!(j.capacity(), 1);
        j.push(at(0), Severity::Info, "test", "x".into());
        j.push(at(1), Severity::Info, "test", "y".into());
        assert_eq!(j.events().len(), 1);
        assert_eq!(j.events()[0].message, "y");
    }
}
