//! # tonos — umbrella crate for the CMOS tactile blood-pressure sensor stack
//!
//! A behavioral, laptop-scale reproduction of
//! *"A CMOS-Based Tactile Sensor for Continuous Blood Pressure Monitoring"*
//! (Kirstein et al., DATE'05): MEMS membrane transducers, a second-order
//! single-bit ΣΔ readout, the SINC³+FIR decimation "FPGA", physiological
//! pressure sources, and the end-to-end monitoring system.
//!
//! This crate re-exports the workspace members under stable names:
//!
//! * [`mems`] — membrane mechanics and capacitive transduction
//! * [`analog`] — switched-capacitor ΣΔ modulator, mux, noise, power
//! * [`dsp`] — decimation filters, FFT, spectral metrics
//! * [`physio`] — arterial waveforms, tissue coupling, cuff reference
//! * [`system`] — the chip + readout + calibration + analysis stack
//! * [`telemetry`] — counters, histograms, spans, and the event journal
//!   for observing the whole signal path (see `examples/observability.rs`)
//! * [`fleet`] — many concurrent monitoring sessions on a worker pool,
//!   with failure isolation and fleet-wide telemetry rollup (see
//!   `examples/fleet_monitor.rs`)
//! * [`link`] — the chip-to-host boundary: wire framing, lossy-transport
//!   fault injection, the gap-concealing host pipeline, and a
//!   concurrent TCP ingest server (see `examples/host_ingest.rs`)
//! * [`scope`] — the live telemetry plane: a flight recorder over any
//!   registry plus an HTTP endpoint serving Prometheus `/metrics`,
//!   `/health`, `/links`, and `/flight` (see `examples/ops_dashboard.rs`)
//! * [`historian`] — the storage plane: an append-only segmented
//!   session store with crash recovery, tiered downsampling, and the
//!   measurement-session HTTP API (see `examples/historian_replay.rs`)
//!
//! See `examples/quickstart.rs` for the five-minute tour and
//! `ARCHITECTURE.md` for the end-to-end dataflow.

#![forbid(unsafe_code)]

pub use tonos_analog as analog;
pub use tonos_core as system;
pub use tonos_dsp as dsp;
pub use tonos_fleet as fleet;
pub use tonos_historian as historian;
pub use tonos_link as link;
pub use tonos_mems as mems;
pub use tonos_physio as physio;
pub use tonos_scope as scope;
pub use tonos_telemetry as telemetry;

/// Compiles every fenced Rust block in the repository README as a
/// doctest, so the quickstart can never rot.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
