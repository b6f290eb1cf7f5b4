//! # tonos-core — the CMOS tactile blood-pressure sensor system
//!
//! The primary contribution of *"A CMOS-Based Tactile Sensor for
//! Continuous Blood Pressure Monitoring"* (Kirstein et al., DATE'05) is
//! not any single circuit but the **monolithic system**: a 2×2 membrane
//! array, reference structure, analog multiplexers, and a 2nd-order ΣΔ
//! modulator on one die, decimated by an external FPGA filter to a 12-bit
//! / 1 kS/s stream, applied to tonometric blood-pressure recording with
//! hand-cuff calibration.
//!
//! This crate is that system:
//!
//! * [`config`] — chip and system configuration mirroring the paper's
//!   numbers (128 kS/s, OSR 128, SINC³+FIR32, 500 Hz, 12 bit)
//! * [`chip`] — [`chip::SensorChip`]: array + reference + mux + modulator
//! * [`readout`] — [`readout::ReadoutSystem`]: chip + decimation filter
//!   (the Fig. 3 block diagram), with scan settling management
//! * [`scratch`] — [`scratch::ConversionScratch`]: reusable per-frame
//!   working memory, the key to the zero-allocation hot path
//! * [`select`] — strongest-element selection (§2)
//! * [`localize`] — vessel localization from the array scan (§2)
//! * [`calibrate`] — two-point systolic/diastolic cuff calibration (§3.2)
//! * [`analyze`] — beat detection and systolic/diastolic/rate extraction
//! * [`monitor`] — [`monitor::BloodPressureMonitor`]: the end-to-end
//!   continuous monitoring session of Fig. 9, with ground-truth error
//!   reporting the paper could not provide, thermal-drift injection, and
//!   periodic cuff recalibration
//! * [`stream`] — [`stream::OnlineAnalyzer`]: push-based live beat
//!   detection with pulse-rate tracking and clinical alarms
//! * [`report`] — [`report::SessionReport`]: the clinician-facing session
//!   summary
//! * [`export`] — binary session records (the wire's frame codec)
//! * [`vitals`] — derived vitals: respiratory rate from the waveform
//!
//! ## Example: the Fig. 9 pipeline in six lines
//!
//! ```
//! use tonos_core::config::SystemConfig;
//! use tonos_core::monitor::BloodPressureMonitor;
//! use tonos_physio::patient::PatientProfile;
//!
//! # fn main() -> Result<(), tonos_core::SystemError> {
//! let config = SystemConfig::paper_default();
//! let mut monitor = BloodPressureMonitor::new(config, PatientProfile::normotensive())?;
//! let session = monitor.run(6.0)?;
//! assert!(session.analysis.pulse_rate_bpm > 50.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod calibrate;
pub mod chip;
pub mod config;
pub mod export;
pub mod localize;
pub mod monitor;
pub mod readout;
pub mod report;
pub mod scratch;
pub mod select;
pub mod stream;
pub mod vitals;

mod error;

pub use error::SystemError;
