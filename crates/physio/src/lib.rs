//! # tonos-physio — physiological pressure sources and the cuff baseline
//!
//! The DATE'05 tactile sensor measures "the displacement of a surface
//! caused by the movement of a blood vessel wall, due to its overpressure
//! inside" — tonometry (paper §1/§2, Fig. 1). Reproducing the paper's
//! blood-pressure experiment (Fig. 9) therefore needs three things the
//! authors got from a test person's wrist and a conventional hand-cuff
//! device, none of which a simulation has:
//!
//! * an **arterial pressure source** — [`waveform`] synthesizes beat-by-beat
//!   radial-artery pressure with controlled systolic/diastolic targets,
//!   heart-rate variability ([`variability`]), and motion artifacts
//!   ([`artifact`]); every beat's ground truth is recorded so calibration
//!   error can be quantified (the paper could only eyeball this);
//! * a **tissue transmission model** — [`tissue`] maps intra-arterial
//!   pressure to the skin-surface pressure field above the vessel, with
//!   spatial falloff (which is what makes the 2×2 *array* and the
//!   strongest-element selection of §2 meaningful);
//! * the **hand-cuff reference** — [`cuff`] simulates the sparse, quantized
//!   oscillometric readings used both as the paper's calibration source
//!   and as the baseline modality the introduction argues against.
//!
//! [`patient`] bundles presets (normotensive, hypertensive, exercise, …).
//!
//! ## Example
//!
//! ```
//! use tonos_physio::patient::PatientProfile;
//!
//! # fn main() -> Result<(), tonos_physio::PhysioError> {
//! let record = PatientProfile::normotensive().record(250.0, 10.0)?;
//! assert_eq!(record.samples.len(), 2500);
//! assert!(record.beats.len() >= 10, "about 12 beats in 10 s at 72 bpm");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cuff;
pub mod patient;
pub mod tissue;
pub mod variability;
pub mod waveform;

mod error;

pub use error::PhysioError;
