//! Live per-connection health queries.
//!
//! The fleet engine isolates every ingest session behind its own
//! registry, which is right for accounting but leaves an operator blind
//! *while a connection is alive*: session counters only reach the fleet
//! registry at rollup, i.e. after disconnect. The [`LinkDirectory`]
//! closes that window. The server registers a [`LinkEntry`] per
//! accepted connection; the ingest task publishes its pipeline's
//! [`LinkHealth`] into the entry after every transport chunk (the
//! struct is `Copy`, so publication is one short mutex hold); query
//! paths — `LinkServer::links`, the scope endpoint's `/links` — read a
//! consistent [`LinkStatus`] snapshot at any moment, mid-ingest
//! included.
//!
//! Entries outlive their connections (marked disconnected, never
//! removed), so a query shortly after a device drops still explains
//! what happened — a directory that forgets dead links would hide
//! exactly the sessions an operator is paging about.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tonos_telemetry::{json_escape, json_f64};

use crate::pipeline::LinkHealth;

/// One connection's live state inside the [`LinkDirectory`].
#[derive(Debug)]
pub struct LinkEntry {
    id: u64,
    peer: String,
    connected_at: Duration,
    state: Mutex<EntryState>,
}

#[derive(Debug, Default)]
struct EntryState {
    health: LinkHealth,
    disconnected: bool,
}

impl LinkEntry {
    /// Publishes the latest pipeline health. Called by the ingest task
    /// after each chunk; `LinkHealth` is `Copy`, so this is one store
    /// under a short lock.
    pub fn publish(&self, health: LinkHealth) {
        self.state.lock().expect("link entry lock poisoned").health = health;
    }

    /// The peer address this entry was registered under.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Marks the connection closed (the entry remains queryable).
    pub fn disconnect(&self) {
        self.state
            .lock()
            .expect("link entry lock poisoned")
            .disconnected = true;
    }

    /// A point-in-time view of this connection.
    pub fn status(&self) -> LinkStatus {
        let state = self.state.lock().expect("link entry lock poisoned");
        LinkStatus {
            id: self.id,
            peer: self.peer.clone(),
            connected_at: self.connected_at,
            live: !state.disconnected,
            health: state.health,
        }
    }
}

/// Point-in-time view of one connection, live or closed.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStatus {
    /// Directory-assigned connection id (0-based accept order).
    pub id: u64,
    /// Peer address as accepted.
    pub peer: String,
    /// Server-clock time at accept.
    pub connected_at: Duration,
    /// Whether the connection is still ingesting.
    pub live: bool,
    /// Latest published pipeline health.
    pub health: LinkHealth,
}

impl LinkStatus {
    /// Hand-rolled JSON object, one per connection, served by `/links`.
    pub fn to_json(&self) -> String {
        let d = &self.health.decoder;
        format!(
            concat!(
                "{{\"id\":{},\"peer\":\"{}\",\"connected_at_s\":{},\"live\":{},",
                "\"frames\":{},\"bytes\":{},\"crc_failures\":{},\"resyncs\":{},",
                "\"gap_events\":{},\"lost_frames\":{},\"stale_frames\":{},",
                "\"reordered_frames\":{},\"retransmits_rx\":{},\"naks_tx\":{},",
                "\"handshakes_ok\":{},\"handshakes_rejected\":{},\"unauth_frames\":{},",
                "\"clean_samples\":{},\"concealed_samples\":{},\"invalid_samples\":{},",
                "\"skipped_samples\":{},\"stream_resets\":{},",
                "\"beats\":{},\"alarms\":{},\"pulse_rate_bpm\":{}}}"
            ),
            self.id,
            json_escape(&self.peer),
            self.connected_at.as_secs_f64(),
            self.live,
            d.frames,
            d.bytes,
            d.crc_failures,
            d.resyncs,
            d.gap_events,
            d.lost_frames,
            d.stale_frames,
            d.reordered_frames,
            d.retransmits_rx,
            self.health.naks_tx,
            self.health.handshakes_ok,
            self.health.handshakes_rejected,
            self.health.unauth_frames,
            self.health.clean_samples,
            self.health.concealed_samples,
            self.health.invalid_samples,
            self.health.skipped_samples,
            self.health.stream_resets,
            self.health.beats,
            self.health.alarms,
            json_f64(self.health.pulse_rate_bpm),
        )
    }
}

/// Summed counters across every directory entry, live and closed — what
/// a fleet-level `/metrics` scrape reports while sessions are still
/// in flight (their isolated registries roll up only on completion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkAggregate {
    /// Entries still ingesting.
    pub live: u64,
    /// Entries that have disconnected.
    pub closed: u64,
    /// CRC-verified frames across all entries.
    pub frames: u64,
    /// CRC failures across all entries.
    pub crc_failures: u64,
    /// Gap episodes across all entries.
    pub gap_events: u64,
    /// Clean output samples across all entries.
    pub clean_samples: u64,
    /// Concealed + invalid output samples across all entries.
    pub concealed_samples: u64,
    /// Stream resets across all entries.
    pub stream_resets: u64,
    /// Reset-skipped output samples across all entries.
    pub skipped_samples: u64,
    /// Alarms across all entries.
    pub alarms: u64,
    /// Frames healed by the reorder window across all entries.
    pub reordered_frames: u64,
    /// NAK-recovered retransmits accepted across all entries.
    pub retransmits_rx: u64,
    /// NAK frames queued for devices across all entries.
    pub naks_tx: u64,
    /// Verified device handshakes across all entries.
    pub handshakes_ok: u64,
    /// Rejected (forged or malformed) handshakes across all entries.
    pub handshakes_rejected: u64,
    /// Data frames dropped pre-authentication across all entries.
    pub unauth_frames: u64,
}

/// Registry of every connection the server has accepted.
///
/// `register` is called by the accept path, `snapshot`/`aggregate` by
/// query paths; both sides touch the entry list under one mutex held
/// only for the clone of `Arc`s, never while formatting.
#[derive(Debug, Default)]
pub struct LinkDirectory {
    entries: Mutex<Vec<Arc<LinkEntry>>>,
    next_id: AtomicU64,
}

impl LinkDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        LinkDirectory::default()
    }

    /// Registers a new connection and returns its entry for the ingest
    /// task to publish into.
    pub fn register(&self, peer: String, connected_at: Duration) -> Arc<LinkEntry> {
        let entry = Arc::new(LinkEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            peer,
            connected_at,
            state: Mutex::new(EntryState::default()),
        });
        self.entries
            .lock()
            .expect("link directory lock poisoned")
            .push(Arc::clone(&entry));
        entry
    }

    /// Point-in-time status of every known connection, accept order.
    pub fn snapshot(&self) -> Vec<LinkStatus> {
        let entries: Vec<Arc<LinkEntry>> = self
            .entries
            .lock()
            .expect("link directory lock poisoned")
            .clone();
        entries.iter().map(|e| e.status()).collect()
    }

    /// Connections still ingesting.
    pub fn live_count(&self) -> usize {
        self.snapshot().iter().filter(|s| s.live).count()
    }

    /// Sums every entry's counters into one fleet-level view.
    pub fn aggregate(&self) -> LinkAggregate {
        let mut agg = LinkAggregate::default();
        for status in self.snapshot() {
            if status.live {
                agg.live += 1;
            } else {
                agg.closed += 1;
            }
            let h = &status.health;
            agg.frames += h.decoder.frames;
            agg.crc_failures += h.decoder.crc_failures;
            agg.gap_events += h.decoder.gap_events;
            agg.clean_samples += h.clean_samples;
            agg.concealed_samples += h.concealed_samples + h.invalid_samples;
            agg.stream_resets += h.stream_resets;
            agg.skipped_samples += h.skipped_samples;
            agg.alarms += h.alarms;
            agg.reordered_frames += h.decoder.reordered_frames;
            agg.retransmits_rx += h.decoder.retransmits_rx;
            agg.naks_tx += h.naks_tx;
            agg.handshakes_ok += h.handshakes_ok;
            agg.handshakes_rejected += h.handshakes_rejected;
            agg.unauth_frames += h.unauth_frames;
        }
        agg
    }

    /// The `/links` payload: a JSON array of per-connection objects.
    pub fn to_json(&self) -> String {
        let statuses = self.snapshot();
        let mut out = String::with_capacity(64 + statuses.len() * 256);
        out.push('[');
        for (i, s) in statuses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(frames: u64, resets: u64) -> LinkHealth {
        LinkHealth {
            decoder: crate::decode::DecoderStats {
                frames,
                ..Default::default()
            },
            stream_resets: resets,
            ..Default::default()
        }
    }

    #[test]
    fn directory_assigns_ids_in_accept_order() {
        let dir = LinkDirectory::new();
        let a = dir.register("10.0.0.1:100".into(), Duration::ZERO);
        let b = dir.register("10.0.0.2:200".into(), Duration::from_secs(1));
        assert_eq!(a.status().id, 0);
        assert_eq!(b.status().id, 1);
        assert_eq!(dir.snapshot().len(), 2);
        assert_eq!(dir.live_count(), 2);
    }

    #[test]
    fn published_health_is_visible_and_survives_disconnect() {
        let dir = LinkDirectory::new();
        let entry = dir.register("dev:1".into(), Duration::ZERO);
        entry.publish(health(7, 2));
        let status = &dir.snapshot()[0];
        assert!(status.live);
        assert_eq!(status.health.decoder.frames, 7);
        assert_eq!(status.health.stream_resets, 2);

        entry.disconnect();
        let status = &dir.snapshot()[0];
        assert!(!status.live);
        // The last published health is still there for post-mortems.
        assert_eq!(status.health.decoder.frames, 7);
    }

    #[test]
    fn aggregate_sums_across_live_and_closed_entries() {
        let dir = LinkDirectory::new();
        let a = dir.register("dev:1".into(), Duration::ZERO);
        let b = dir.register("dev:2".into(), Duration::ZERO);
        a.publish(health(10, 1));
        b.publish(health(5, 0));
        b.disconnect();
        let agg = dir.aggregate();
        assert_eq!(agg.live, 1);
        assert_eq!(agg.closed, 1);
        assert_eq!(agg.frames, 15);
        assert_eq!(agg.stream_resets, 1);
    }

    #[test]
    fn json_is_wellformed_and_escapes_peers() {
        let dir = LinkDirectory::new();
        let entry = dir.register("weird\"peer\\x".into(), Duration::from_millis(1500));
        entry.publish(health(3, 0));
        let json = dir.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"peer\":\"weird\\\"peer\\\\x\""));
        assert!(json.contains("\"connected_at_s\":1.5"));
        assert!(json.contains("\"frames\":3"));
        assert!(json.contains("\"live\":true"));
        // Exactly one object per entry.
        assert_eq!(json.matches("\"id\":").count(), 1);
    }

    #[test]
    fn non_finite_pulse_rate_serializes_as_null() {
        let status = LinkStatus {
            id: 0,
            peer: "p".into(),
            connected_at: Duration::ZERO,
            live: true,
            health: LinkHealth {
                pulse_rate_bpm: f64::NAN,
                ..Default::default()
            },
        };
        assert!(status.to_json().contains("\"pulse_rate_bpm\":null"));
    }
}
