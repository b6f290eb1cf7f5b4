//! # tonos-analog — switched-capacitor readout electronics substrate
//!
//! Behavioral model of the on-chip readout circuitry of the DATE'05
//! tactile blood-pressure sensor (paper §2.2, Fig. 3 and Fig. 6): a
//! fully-differential switched-capacitor **second-order single-bit
//! ΣΔ-modulator** whose first stage integrates the charge difference
//! between the selected sensing capacitor and the on-chip reference
//! capacitor, preceded by two synchronized 2:1 analog multiplexers for
//! row/column element selection (Fig. 4).
//!
//! The modulator additionally has a *differential voltage interface* "so a
//! full characterization of the analog to digital conversion of this
//! circuit can be accomplished, independent of the connected transducer"
//! (§3) — that input is what the Fig. 7 sine-wave test drives, and the
//! [`modulator::SigmaDelta2`] `step` method accepts exactly that normalized value.
//!
//! Modules:
//!
//! * [`frontend`] — capacitance-difference-to-input conversion with the
//!   adjustable first-stage feedback capacitors the paper's *future work*
//!   points at
//! * [`integrator`] — SC integrator with finite-gain leak and saturation
//! * [`quantizer`] — single-bit comparator with offset and hysteresis
//! * [`dac`] — the 1-bit feedback DAC with level mismatch and ISI
//! * [`characterize`] — static (DC transfer / INL) converter
//!   characterization
//! * [`modulator`] — 2nd-order (and baseline 1st-order) single-bit ΣΔ,
//!   which own and draw every seeded noise stream (sampled input noise
//!   and jitter, second-stage noise, reference noise); the 2nd-order
//!   block stepper is the one conversion path, proven bit-identical to
//!   per-sample `step`, which stays the oracle
//! * [`mux`] — the 2:1 row/column multiplexers with settling transients
//! * [`noise`] — seeded Gaussian noise sources and kT/C helpers
//! * [`power`] — supply/clock-scaled power model anchored at the measured
//!   11.5 mW @ 5 V, 128 kHz
//! * [`nonideal`] — aggregated non-ideality configuration
//!
//! ## Example: convert a DC input and check charge balance
//!
//! ```
//! use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
//! use tonos_analog::nonideal::NonIdealities;
//! use tonos_dsp::bits::PackedBits;
//!
//! # fn main() -> Result<(), tonos_analog::AnalogError> {
//! let mut dsm = SigmaDelta2::new(NonIdealities::ideal())?;
//! let mut bits = PackedBits::new();
//! dsm.step_block(&vec![0.25; 65_536], &mut bits);
//! assert!((bits.mean() - 0.25).abs() < 0.01, "bitstream mean tracks the input");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod characterize;
pub mod dac;
pub mod frontend;
pub mod integrator;
pub mod modulator;
pub mod mux;
pub mod noise;
pub mod nonideal;
pub mod power;
pub mod quantizer;

mod error;

pub use error::AnalogError;

/// What remains of the retired lane bank: its kernel name.
pub mod bank {
    /// The lane-bank kernel: `"none"`, as no bank exists. Only
    /// `e2ebench` reads it, for its run-context line; the next change to
    /// the benchmark deletes both.
    pub fn kernel_name() -> &'static str {
        "none"
    }
}
