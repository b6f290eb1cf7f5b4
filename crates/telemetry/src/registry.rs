//! The registry: owns every instrument and the journal, and hands out
//! cheap [`Telemetry`] handles for instrumented components.
//!
//! Design: instrumented code resolves named handles once, at
//! construction, through a [`Telemetry`] handle. A handle is either
//! *enabled* (backed by a [`Registry`]) or *disabled* (`Telemetry::
//! disabled()`), in which case every instrument it yields is inert — one
//! branch per operation, no atomics, no allocation. This is what makes
//! telemetry safe to leave compiled into the hot signal path.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::{buckets, HistogramCore};
use crate::instrument::{Counter, Gauge, Histogram, SpanTimer};
use crate::journal::{Journal, Severity};
use crate::snapshot::{BucketCount, CounterValue, GaugeValue, HistogramSummary, TelemetrySnapshot};

/// Canonical instrument names used by the instrumented tonos crates.
///
/// Keeping them here (rather than scattered string literals) is what lets
/// [`Registry::health`] compute cross-stage ratios, and lets tests assert
/// exact accounting against the same constants production code writes to.
pub mod names {
    /// ΣΔ modulator clock cycles executed (counter).
    pub const MODULATOR_STEPS: &str = "analog.modulator.steps";
    /// ΣΔ integrator clip/overload events (counter).
    pub const MODULATOR_SATURATIONS: &str = "analog.modulator.saturations";
    /// Analog mux channel switches (counter).
    pub const MUX_SWITCHES: &str = "analog.mux.switches";
    /// Accumulated chip energy in joules (gauge, running total).
    pub const CHIP_ENERGY_J: &str = "analog.power.energy_j";
    /// Instantaneous chip power draw in watts (gauge).
    pub const CHIP_POWER_W: &str = "analog.power.chip_w";
    /// Modulator bits into the decimator (counter).
    pub const DECIMATOR_SAMPLES_IN: &str = "dsp.decimator.samples_in";
    /// Decimated output samples produced (counter).
    pub const DECIMATOR_SAMPLES_OUT: &str = "dsp.decimator.samples_out";
    /// Decimator pipeline flushes/resets (counter).
    pub const DECIMATOR_FLUSHES: &str = "dsp.decimator.flushes";
    /// Output-quantizer full-scale clips (counter).
    pub const QUANTIZER_CLIPS: &str = "dsp.quantizer.clips";
    /// Fixed-point saturation events during coefficient quantization
    /// (counter).
    pub const FIXED_SATURATIONS: &str = "dsp.fixed.saturations";
    /// Pressure frames pushed into the readout (counter).
    pub const READOUT_FRAMES_IN: &str = "core.readout.frames_in";
    /// Calibrated samples returned to callers (counter).
    pub const READOUT_SAMPLES_OUT: &str = "core.readout.samples_out";
    /// Post-switch settling samples discarded (counter).
    pub const READOUT_SETTLING_DISCARDED: &str = "core.readout.settling_discarded";
    /// Sensor element (re)selections (counter).
    pub const CHIP_ELEMENT_SELECTIONS: &str = "core.chip.element_selections";
    /// Beats accepted by the monitor's analysis stage (counter).
    pub const MONITOR_BEATS: &str = "core.monitor.beats";
    /// Cuff recalibrations performed mid-session (counter).
    pub const MONITOR_RECALIBRATIONS: &str = "core.monitor.recalibrations";
    /// Alarm events raised by the online analyzer (counter).
    pub const ANALYZER_ALARMS: &str = "core.analyzer.alarms";
    /// Pressure alarms suppressed because their qualifying beats
    /// included gap-concealed samples (counter).
    pub const ANALYZER_ALARMS_SUPPRESSED: &str = "core.analyzer.alarms_suppressed";
    /// Beat-to-beat interval distribution in seconds (histogram).
    pub const MONITOR_BEAT_INTERVAL_S: &str = "core.monitor.beat_interval_s";
    /// Array-scan stage duration (span histogram, seconds).
    pub const SPAN_SCAN: &str = "span.scan_s";
    /// Sample-acquisition stage duration (span histogram, seconds).
    pub const SPAN_ACQUISITION: &str = "span.acquisition_s";
    /// Cuff-calibration stage duration (span histogram, seconds).
    pub const SPAN_CALIBRATION: &str = "span.calibration_s";
    /// Waveform-analysis stage duration (span histogram, seconds).
    pub const SPAN_ANALYSIS: &str = "span.analysis_s";
    /// Monitoring sessions submitted to a fleet engine (counter).
    pub const FLEET_SESSIONS_STARTED: &str = "fleet.sessions_started";
    /// Fleet sessions that ran to completion (counter).
    pub const FLEET_SESSIONS_COMPLETED: &str = "fleet.sessions_completed";
    /// Fleet sessions that returned an error (counter).
    pub const FLEET_SESSIONS_FAILED: &str = "fleet.sessions_failed";
    /// Fleet sessions that panicked and were isolated (counter).
    pub const FLEET_SESSIONS_PANICKED: &str = "fleet.sessions_panicked";
    /// Warning-severity journal events absorbed from session registries
    /// during fleet rollup (counter).
    pub const FLEET_WARNING_EVENTS: &str = "fleet.rollup.warning_events";
    /// Critical-severity journal events absorbed from session registries
    /// during fleet rollup (counter).
    pub const FLEET_CRITICAL_EVENTS: &str = "fleet.rollup.critical_events";
    /// Per-session wall-clock duration (span histogram, seconds).
    pub const SPAN_FLEET_SESSION: &str = "span.fleet.session_s";
    /// Frames serialized by a link encoder (counter).
    pub const LINK_FRAMES_TX: &str = "link.frames_tx";
    /// Bytes serialized by a link encoder (counter).
    pub const LINK_BYTES_TX: &str = "link.bytes_tx";
    /// CRC-verified frames delivered by a link decoder (counter).
    pub const LINK_FRAMES_RX: &str = "link.frames_rx";
    /// Bytes consumed by a link decoder, garbage included (counter).
    pub const LINK_BYTES_RX: &str = "link.bytes_rx";
    /// Candidate frames rejected by the CRC-32 check (counter).
    pub const LINK_CRC_FAIL: &str = "link.crc_fail";
    /// Resynchronization episodes: the decoder had to skip bytes to find
    /// the next sync word (counter).
    pub const LINK_RESYNCS: &str = "link.resyncs";
    /// Sequence-gap episodes observed by a link decoder (counter).
    pub const LINK_GAP_EVENTS: &str = "link.gap_events";
    /// Frames lost inside sequence gaps (counter).
    pub const LINK_GAP_FRAMES: &str = "link.gap_frames";
    /// Duplicate or reordered-stale frames dropped by a decoder
    /// (counter).
    pub const LINK_STALE_FRAMES: &str = "link.stale_frames";
    /// Clean (bit-exact) samples delivered by a host link pipeline
    /// (counter).
    pub const LINK_SAMPLES_CLEAN: &str = "link.samples_clean";
    /// Gap samples concealed by the hold-last policy (counter).
    pub const LINK_GAPS_CONCEALED: &str = "link.gaps_concealed";
    /// Gap samples delivered as explicitly invalid (counter).
    pub const LINK_SAMPLES_INVALID: &str = "link.samples_invalid";
    /// Clock jumps too large to conceal sample-by-sample, handled as a
    /// stream reset that re-bases the output index (counter).
    pub const LINK_STREAM_RESETS: &str = "link.stream_resets";
    /// Output samples skipped (index re-based, nothing emitted) by
    /// stream resets (counter).
    pub const LINK_GAP_SKIPPED_SAMPLES: &str = "link.gap_skipped_samples";
    /// Device connections accepted by a link server (counter).
    pub const LINK_CONNECTIONS: &str = "link.connections";
    /// Transient accept() failures survived by a link server's accept
    /// loop (counter).
    pub const LINK_ACCEPT_ERRORS: &str = "link.accept_errors";
    /// Connections dropped because their ingest queue stayed full past
    /// the grace window (counter).
    pub const LINK_SLOW_CONSUMER_DISCONNECTS: &str = "link.slow_consumer_disconnects";
    /// Per-connection ingest queue depth observed at each enqueue
    /// (histogram, chunks).
    pub const LINK_QUEUE_DEPTH: &str = "link.queue_depth";
    /// Returns of a link server's IO loop from its readiness wait, idle
    /// ticks included (counter).
    pub const LINK_IO_WAKES: &str = "link.io_wakes";
    /// Wire-frame decode stage duration per ingested chunk (span
    /// histogram, seconds).
    pub const SPAN_LINK_DECODE: &str = "span.link.decode_s";
    /// Gap-concealment stage duration per gap episode (span histogram,
    /// seconds).
    pub const SPAN_LINK_CONCEAL: &str = "span.link.conceal_s";
    /// Out-of-order frames healed by the decoder's reorder buffer
    /// instead of being dropped-and-concealed (counter).
    pub const LINK_REORDERED_FRAMES: &str = "link.reordered_frames";
    /// Previously-NAK'd frames that arrived via retransmission
    /// (counter).
    pub const LINK_RETRANSMITS_RX: &str = "link.retransmits_rx";
    /// NAK control frames emitted by a host pipeline (counter).
    pub const LINK_NAKS_TX: &str = "link.naks_tx";
    /// Control frames (hello/ack/NAK) received by a link decoder
    /// (counter).
    pub const LINK_CONTROL_FRAMES: &str = "link.control_frames";
    /// Keyed-MAC session handshakes verified and accepted (counter).
    pub const LINK_HANDSHAKES_OK: &str = "link.handshakes_ok";
    /// Session handshakes rejected — forged, replayed with a bad tag,
    /// or malformed (counter).
    pub const LINK_HANDSHAKES_REJECTED: &str = "link.handshakes_rejected";
    /// Data frames dropped because the pipeline requires an
    /// authenticated session and none was established (counter).
    pub const LINK_UNAUTH_FRAMES: &str = "link.unauth_frames";

    /// Segment files currently in a historian store (gauge).
    pub const HISTORIAN_SEGMENTS: &str = "historian.segments";
    /// Total bytes at rest across a historian's segments (gauge).
    pub const HISTORIAN_BYTES: &str = "historian.bytes";
    /// Waveform records appended to a historian store (counter).
    pub const HISTORIAN_APPENDS: &str = "historian.records_appended";
    /// Payload bytes appended to a historian store (counter).
    pub const HISTORIAN_APPEND_BYTES: &str = "historian.bytes_appended";
    /// Ranged read queries answered by historian readers (counter).
    pub const HISTORIAN_READS: &str = "historian.reads";
    /// Record payload bytes fetched to answer ranged reads (counter).
    pub const HISTORIAN_READ_BYTES: &str = "historian.bytes_read";
    /// Reader handles currently open on a historian store (gauge).
    pub const HISTORIAN_READERS: &str = "historian.readers";
    /// Segments sealed (footer written, file immutable) (counter).
    pub const HISTORIAN_SEALS: &str = "historian.segments_sealed";
    /// Torn tails truncated during crash recovery at open (counter).
    pub const HISTORIAN_RECOVERY_TRUNCATIONS: &str = "historian.recovery_truncations";
    /// Unreadable mid-store bytes skipped during recovery (counter).
    pub const HISTORIAN_RECOVERY_SKIPPED_BYTES: &str = "historian.recovery_skipped_bytes";
    /// Compaction passes completed (counter).
    pub const HISTORIAN_COMPACTIONS: &str = "historian.compactions";
    /// Downsampled tier records built by compaction (counter).
    pub const HISTORIAN_TIER_RECORDS: &str = "historian.tier_records";
    /// fsync latency of historian record/seal flushes, seconds
    /// (histogram).
    pub const HISTORIAN_FSYNC_S: &str = "historian.fsync_s";
    /// Historian record append, from encoding the record to publishing
    /// its index entry (span histogram, seconds).
    pub const SPAN_STORE_APPEND: &str = "span.store.append_s";
    /// Historian ranged waveform read, tier pick to the last point
    /// (span histogram, seconds).
    pub const SPAN_STORE_READ_RANGE: &str = "span.store.read_range_s";
    /// Measurement sessions created via `prepare` (counter).
    pub const HISTORIAN_SESSIONS_PREPARED: &str = "historian.sessions_prepared";
    /// Measurement sessions moved to `measuring` via `start` (counter).
    pub const HISTORIAN_SESSIONS_STARTED: &str = "historian.sessions_started";
    /// Measurement sessions that completed with recorded samples
    /// (counter).
    pub const HISTORIAN_SESSIONS_COMPLETED: &str = "historian.sessions_completed";
    /// Measurement sessions that ended without usable data (counter).
    pub const HISTORIAN_SESSIONS_FAILED: &str = "historian.sessions_failed";
    /// Retry requests accepted by the measurement API (counter).
    pub const HISTORIAN_SESSION_RETRIES: &str = "historian.session_retries";
    /// Link samples routed into measurement sessions by the ingest tap
    /// (counter).
    pub const HISTORIAN_TAP_SAMPLES: &str = "historian.tap_samples";
    /// Link samples seen by the ingest tap with no measuring session to
    /// own them (counter).
    pub const HISTORIAN_TAP_UNROUTED: &str = "historian.tap_unrouted_samples";
    /// HTTP requests served by the measurement-session API (counter).
    pub const HISTORIAN_API_REQUESTS: &str = "historian.api_requests";
}

/// Default number of journal events retained.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 256;

#[derive(Debug)]
pub(crate) struct Inner {
    clock: Arc<dyn Clock>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    journal: Journal,
}

impl std::fmt::Debug for dyn Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

/// Owns all instruments and the journal; produces snapshots and health
/// reports. Create one per system under observation.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A registry on the real monotonic clock.
    pub fn new() -> Self {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an injected clock (see
    /// [`FakeClock`](crate::FakeClock)).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry::with_clock_and_capacity(clock, DEFAULT_JOURNAL_CAPACITY)
    }

    /// Full-control constructor: clock plus journal capacity.
    pub fn with_clock_and_capacity(clock: Arc<dyn Clock>, journal_capacity: usize) -> Self {
        Registry {
            inner: Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                journal: Journal::new(journal_capacity),
            }),
        }
    }

    /// An enabled handle for instrumented components.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            inner: Some(self.inner.clone()),
        }
    }

    /// Registry-clock reading.
    pub fn now(&self) -> Duration {
        self.inner.clock.now()
    }

    /// Captures every instrument and the journal.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry lock poisoned")
            .iter()
            .map(|(name, cell)| CounterValue {
                name: name.clone(),
                value: cell.load(std::sync::atomic::Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry lock poisoned")
            .iter()
            .map(|(name, cell)| GaugeValue {
                name: name.clone(),
                value: f64::from_bits(cell.load(std::sync::atomic::Ordering::Relaxed)),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry lock poisoned")
            .iter()
            .map(|(name, core)| {
                let counts = core.bucket_counts();
                let buckets = core
                    .bounds()
                    .iter()
                    .map(|&b| Some(b))
                    .chain(std::iter::once(None))
                    .zip(counts)
                    .map(|(upper, count)| BucketCount { upper, count })
                    .collect();
                HistogramSummary {
                    name: name.clone(),
                    count: core.count(),
                    sum: core.sum(),
                    min: core.min(),
                    max: core.max(),
                    p50: core.quantile(0.50),
                    p95: core.quantile(0.95),
                    p99: core.quantile(0.99),
                    buckets,
                }
            })
            .collect();
        TelemetrySnapshot {
            uptime: self.now(),
            counters,
            gauges,
            histograms,
            events: self.inner.journal.events(),
            total_events: self.inner.journal.total_events(),
            dropped_events: self.inner.journal.dropped(),
        }
    }

    /// Summarizes system health from the canonical instruments.
    pub fn health(&self) -> HealthReport {
        HealthReport::from_snapshot(&self.snapshot())
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Handle given to instrumented components; enabled (backed by a
/// [`Registry`]) or disabled (all instruments inert).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: every instrument it yields ignores updates.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle reaches a live registry.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (creating on first use) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(inner) => {
                let mut map = inner
                    .counters
                    .lock()
                    .expect("counter registry lock poisoned");
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter {
                    cell: Some(cell.clone()),
                }
            }
        }
    }

    /// Resolves (creating on first use) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(inner) => {
                let mut map = inner.gauges.lock().expect("gauge registry lock poisoned");
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
                Gauge {
                    cell: Some(cell.clone()),
                }
            }
        }
    }

    /// Resolves (creating on first use) the named histogram. The bounds
    /// apply only on first registration; later callers share the
    /// existing layout.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => {
                let mut map = inner
                    .histograms
                    .lock()
                    .expect("histogram registry lock poisoned");
                let core = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
                Histogram {
                    core: Some(core.clone()),
                }
            }
        }
    }

    /// Resolves a span timer recording stage durations (seconds) into the
    /// named histogram with the default duration bucket layout.
    pub fn span(&self, name: &str) -> SpanTimer {
        match &self.inner {
            None => SpanTimer::disabled(),
            Some(inner) => {
                let hist = self.histogram(name, &buckets::duration_seconds());
                SpanTimer {
                    clock: Some(inner.clock.clone()),
                    hist: hist.core,
                }
            }
        }
    }

    /// Journals an event. The message closure only runs when enabled, so
    /// disabled handles pay no formatting or allocation cost.
    pub fn event<F: FnOnce() -> String>(
        &self,
        severity: Severity,
        source: &'static str,
        message: F,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .journal
                .push(inner.clock.now(), severity, source, message());
        }
    }

    /// Journals an event with an explicit timestamp instead of reading
    /// the registry clock. For re-journaling events that already carry a
    /// timestamp from another registry — fleet rollup uses this to
    /// preserve session-clock event times (see
    /// [`Rollup::absorb`](crate::Rollup::absorb)). New events should use
    /// [`Telemetry::event`], which stamps the shared clock.
    pub fn event_at<F: FnOnce() -> String>(
        &self,
        at: Duration,
        severity: Severity,
        source: &'static str,
        message: F,
    ) {
        if let Some(inner) = &self.inner {
            inner.journal.push(at, severity, source, message());
        }
    }

    /// Registry-clock reading (zero when disabled).
    pub fn now(&self) -> Duration {
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, |inner| inner.clock.now())
    }
}

/// Timing summary of one pipeline stage, in the health report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Span histogram name (e.g. `"span.scan_s"`).
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Mean duration in seconds.
    pub mean_s: Option<f64>,
    /// Median duration in seconds.
    pub p50_s: Option<f64>,
    /// 95th-percentile duration in seconds.
    pub p95_s: Option<f64>,
}

/// Cross-stage health summary derived from the canonical instruments.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Registry uptime at capture.
    pub uptime: Duration,
    /// ΣΔ modulator cycles executed.
    pub modulator_steps: u64,
    /// Integrator saturations per modulator cycle.
    pub saturation_rate: Option<f64>,
    /// Pressure frames into the readout.
    pub frames_in: u64,
    /// Calibrated samples delivered.
    pub samples_out: u64,
    /// Settling samples discarded after element switches.
    pub settling_discarded: u64,
    /// Discarded fraction of all frames.
    pub discard_ratio: Option<f64>,
    /// Sensor element selections.
    pub element_selections: u64,
    /// Beats accepted by waveform analysis.
    pub beats: u64,
    /// Mid-session cuff recalibrations.
    pub recalibrations: u64,
    /// Analyzer alarm events.
    pub alarms: u64,
    /// Retained journal events at warning severity.
    pub warning_events: usize,
    /// Retained journal events at critical severity.
    pub critical_events: usize,
    /// Accumulated chip energy in joules, when tracked.
    pub energy_j: Option<f64>,
    /// Per-stage timing summaries (every `span.*` histogram).
    pub stage_timings: Vec<StageTiming>,
}

impl HealthReport {
    /// Derives the report from a snapshot.
    pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Self {
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let modulator_steps = counter(names::MODULATOR_STEPS);
        let saturations = counter(names::MODULATOR_SATURATIONS);
        let frames_in = counter(names::READOUT_FRAMES_IN);
        let settling_discarded = counter(names::READOUT_SETTLING_DISCARDED);
        let warning_events = snapshot
            .events
            .iter()
            .filter(|e| e.severity == Severity::Warning)
            .count();
        let critical_events = snapshot
            .events
            .iter()
            .filter(|e| e.severity == Severity::Critical)
            .count();
        let stage_timings = snapshot
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("span."))
            .map(|h| StageTiming {
                name: h.name.clone(),
                count: h.count,
                mean_s: h.mean(),
                p50_s: h.p50,
                p95_s: h.p95,
            })
            .collect();
        HealthReport {
            uptime: snapshot.uptime,
            modulator_steps,
            saturation_rate: (modulator_steps > 0)
                .then(|| saturations as f64 / modulator_steps as f64),
            frames_in,
            samples_out: counter(names::READOUT_SAMPLES_OUT),
            settling_discarded,
            discard_ratio: (frames_in > 0).then(|| settling_discarded as f64 / frames_in as f64),
            element_selections: counter(names::CHIP_ELEMENT_SELECTIONS),
            beats: counter(names::MONITOR_BEATS),
            recalibrations: counter(names::MONITOR_RECALIBRATIONS),
            alarms: counter(names::ANALYZER_ALARMS),
            warning_events,
            critical_events,
            energy_j: snapshot.gauge(names::CHIP_ENERGY_J).filter(|&e| e > 0.0),
            stage_timings,
        }
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tonos health report ({:.3} s uptime)",
            self.uptime.as_secs_f64()
        )?;
        writeln!(
            f,
            "  modulator:  {} cycles, saturation rate {}",
            self.modulator_steps,
            fmt_rate(self.saturation_rate),
        )?;
        writeln!(
            f,
            "  readout:    {} frames in -> {} samples out, {} settling discarded (discard ratio {})",
            self.frames_in,
            self.samples_out,
            self.settling_discarded,
            fmt_rate(self.discard_ratio),
        )?;
        writeln!(
            f,
            "  monitor:    {} beats, {} recalibrations, {} element selections",
            self.beats, self.recalibrations, self.element_selections,
        )?;
        writeln!(
            f,
            "  alarms:     {} raised ({} warning / {} critical journal events)",
            self.alarms, self.warning_events, self.critical_events,
        )?;
        if let Some(e) = self.energy_j {
            writeln!(f, "  energy:     {:.4} J consumed", e)?;
        }
        if !self.stage_timings.is_empty() {
            writeln!(f, "  stage timings:")?;
            for t in &self.stage_timings {
                writeln!(
                    f,
                    "    {:<20} n={:<5} mean={} p50={} p95={}",
                    t.name,
                    t.count,
                    fmt_secs(t.mean_s),
                    fmt_secs(t.p50_s),
                    fmt_secs(t.p95_s),
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{:.3e}", r),
        None => "n/a".to_string(),
    }
}

fn fmt_secs(s: Option<f64>) -> String {
    match s {
        Some(s) if s < 1e-3 => format!("{:.1} µs", s * 1e6),
        Some(s) if s < 1.0 => format!("{:.2} ms", s * 1e3),
        Some(s) => format!("{:.3} s", s),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    #[test]
    fn disabled_telemetry_yields_inert_instruments() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.counter("x").inc();
        t.gauge("y").set(1.0);
        t.histogram("z", &[1.0]).record(0.5);
        t.span("span.s").start().finish();
        t.event(Severity::Critical, "test", || {
            unreachable!("must not format")
        });
        assert_eq!(t.now(), Duration::ZERO);
    }

    #[test]
    fn handles_share_state_through_the_registry() {
        let registry = Registry::new();
        let t = registry.telemetry();
        let a = t.counter("shared");
        let b = t.counter("shared");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(registry.snapshot().counter("shared"), Some(3));
    }

    #[test]
    fn snapshot_captures_all_instrument_kinds() {
        let clock = Arc::new(FakeClock::new());
        let registry = Registry::with_clock(clock.clone());
        let t = registry.telemetry();
        t.counter("c").add(7);
        t.gauge("g").set(2.5);
        t.histogram("h", &[1.0, 2.0]).record(1.5);
        let span = t.span("span.stage_s");
        let guard = span.start();
        clock.advance(Duration::from_millis(10));
        guard.finish();
        t.event(Severity::Warning, "test", || "wobble".to_string());
        clock.advance(Duration::from_millis(90));

        let s = registry.snapshot();
        assert_eq!(s.uptime, Duration::from_millis(100));
        assert_eq!(s.counter("c"), Some(7));
        assert_eq!(s.gauge("g"), Some(2.5));
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.len(), 3);
        let span_h = s.histogram("span.stage_s").unwrap();
        assert_eq!(span_h.count, 1);
        assert!((span_h.sum - 0.010).abs() < 1e-12);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].severity, Severity::Warning);
        assert_eq!(s.total_events, 1);
    }

    #[test]
    fn health_report_computes_ratios_from_canonical_names() {
        let registry = Registry::new();
        let t = registry.telemetry();
        t.counter(names::MODULATOR_STEPS).add(1000);
        t.counter(names::MODULATOR_SATURATIONS).add(10);
        t.counter(names::READOUT_FRAMES_IN).add(200);
        t.counter(names::READOUT_SAMPLES_OUT).add(180);
        t.counter(names::READOUT_SETTLING_DISCARDED).add(20);
        t.counter(names::MONITOR_BEATS).add(8);
        t.counter(names::ANALYZER_ALARMS).add(2);
        t.gauge(names::CHIP_ENERGY_J).add(0.069);
        t.span(names::SPAN_SCAN).record(Duration::from_millis(5));
        t.event(Severity::Critical, "analyzer", || "hypertension".into());

        let health = registry.health();
        assert_eq!(health.modulator_steps, 1000);
        assert!((health.saturation_rate.unwrap() - 0.01).abs() < 1e-12);
        assert!((health.discard_ratio.unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(health.beats, 8);
        assert_eq!(health.alarms, 2);
        assert_eq!(health.critical_events, 1);
        assert!((health.energy_j.unwrap() - 0.069).abs() < 1e-12);
        assert_eq!(health.stage_timings.len(), 1);
        assert_eq!(health.stage_timings[0].count, 1);

        let text = health.to_string();
        assert!(text.contains("1000 cycles"));
        assert!(text.contains("200 frames in -> 180 samples out"));
        assert!(text.contains("span.scan_s"));
    }

    #[test]
    fn health_report_handles_empty_registry() {
        let health = Registry::new().health();
        assert_eq!(health.modulator_steps, 0);
        assert_eq!(health.saturation_rate, None);
        assert_eq!(health.discard_ratio, None);
        assert!(health.stage_timings.is_empty());
        // Display must not panic on the empty case.
        let _ = health.to_string();
    }
}
