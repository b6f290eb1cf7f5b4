//! `tonos-telemetry` — dependency-free instrumentation for the tonos
//! signal path, from modulator bit to clinical alarm.
//!
//! The paper's headline claims (12-bit / 1 kS/s output, SNR > 72 dB,
//! 11.5 mW) are runtime properties of a pipeline that otherwise runs as a
//! black box. This crate makes the pipeline observable without touching
//! its numerics:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics for event counts
//!   (modulator cycles, settling discards, alarms) and levels (power
//!   draw, accumulated energy).
//! * [`Histogram`] — fixed-bucket distributions with p50/p95/p99 readout
//!   (beat intervals, stage durations).
//! * [`SpanTimer`] — scoped stage timing on a [`Clock`] trait, so tests
//!   inject a [`FakeClock`] and assert exact durations.
//! * [`Journal`] — a bounded ring buffer of severity-tagged events
//!   (calibrations, recalibrations, clinical alarms).
//! * [`Registry`] — owns everything, aggregates it into a serializable
//!   [`TelemetrySnapshot`] (hand-rolled JSON + CSV), and summarizes
//!   cross-stage health via [`Registry::health`].
//!
//! # Opt-in, near-zero cost when off
//!
//! Instrumented components take a [`Telemetry`] handle at construction.
//! [`Telemetry::disabled`] yields inert instruments: every operation is
//! one `Option` branch — no atomics, no locks, no allocation — so the
//! hot ΣΔ loop can stay instrumented in production builds.
//!
//! ```
//! use tonos_telemetry::{names, Registry, Severity, Telemetry};
//!
//! let registry = Registry::new();
//! let telemetry = registry.telemetry(); // or Telemetry::disabled()
//!
//! // Component construction: resolve handles once.
//! let frames = telemetry.counter(names::READOUT_FRAMES_IN);
//!
//! // Hot path: lock-free.
//! frames.add(128);
//!
//! // Reporting.
//! telemetry.event(Severity::Info, "example", || "session done".into());
//! println!("{}", registry.health());
//! let json = registry.snapshot().to_json();
//! assert!(json.contains("core.readout.frames_in"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod expose;
pub mod histogram;
pub mod instrument;
pub mod journal;
pub mod registry;
pub mod rollup;
pub mod snapshot;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use expose::prometheus_text;
pub use histogram::{buckets, HistogramCore};
pub use instrument::{Counter, Gauge, Histogram, SpanGuard, SpanTimer};
pub use journal::{Event, Journal, Severity};
pub use registry::{names, HealthReport, Registry, StageTiming, Telemetry};
pub use rollup::Rollup;
pub use snapshot::{json_escape, json_f64};
pub use snapshot::{BucketCount, CounterValue, GaugeValue, HistogramSummary, TelemetrySnapshot};
