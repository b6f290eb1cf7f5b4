//! Aggregated non-ideality configuration of the readout chain.
//!
//! [`NonIdealities`] gathers every analog impairment knob in one builder
//! so experiments can sweep them individually (ablation A3 in DESIGN.md):
//! finite op-amp DC gain, integrator output saturation, input-referred
//! sampled noise (kT/C plus switch/op-amp thermal), comparator offset and
//! hysteresis, and clock jitter.
//!
//! Two presets matter:
//!
//! * [`NonIdealities::ideal`] — the textbook modulator, used to verify
//!   noise-shaping math against theory;
//! * [`NonIdealities::typical`] — calibrated so the full chain's measured
//!   SNR lands in the paper's "better than 72 dB" band once the 12-bit
//!   output quantizer is applied (the dominant limit, as in the paper
//!   where the output resolution *is* 12 bit).

use crate::noise::{ktc_noise_rms, ROOM_TEMPERATURE_K};
use crate::AnalogError;

/// Non-ideality parameters of the SC ΣΔ readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonIdealities {
    /// Op-amp DC gain (V/V); `f64::INFINITY` for an ideal integrator.
    pub opamp_dc_gain: f64,
    /// Integrator output saturation in full-scale units.
    pub integrator_saturation: f64,
    /// Input-referred sampled noise sigma per clock, in full-scale units
    /// (kT/C + switch + op-amp thermal, all lumped).
    pub input_noise_sigma: f64,
    /// Comparator offset in full-scale units.
    pub comparator_offset: f64,
    /// Comparator hysteresis half-width in full-scale units.
    pub comparator_hysteresis: f64,
    /// Clock-jitter-induced error gain: multiplies the per-sample input
    /// slew (`u[n] − u[n−1]`), i.e. `t_jitter · fs`.
    pub jitter_slew_gain: f64,
    /// Relative error of the 1-bit DAC's positive level versus the
    /// negative one. A single-bit DAC is inherently *linear* (two levels
    /// define a line), so this produces only gain/offset error — but it
    /// interacts with ISI below.
    pub dac_level_mismatch: f64,
    /// Inter-symbol interference of the DAC: fraction of the feedback
    /// charge lost whenever the output bit *transitions* (incomplete
    /// reference settling). Signal-dependent, hence a true distortion
    /// mechanism even for a 1-bit DAC.
    pub dac_isi: f64,
    /// Reference-voltage noise sigma per clock, in full-scale units
    /// (multiplies the DAC feedback).
    pub reference_noise_sigma: f64,
    /// RNG seed for all noise streams.
    pub seed: u64,
}

impl NonIdealities {
    /// The textbook modulator: no noise, no leak, generous saturation.
    pub fn ideal() -> Self {
        NonIdealities {
            opamp_dc_gain: f64::INFINITY,
            integrator_saturation: 8.0,
            input_noise_sigma: 0.0,
            comparator_offset: 0.0,
            comparator_hysteresis: 0.0,
            jitter_slew_gain: 0.0,
            dac_level_mismatch: 0.0,
            dac_isi: 0.0,
            reference_noise_sigma: 0.0,
            seed: 0,
        }
    }

    /// Impairments typical of a 0.8 µm 5 V SC design: 72 dB op-amp gain,
    /// ±4 FS integrator swing, input noise from ~0.5 pF effective
    /// sampling capacitance referred to a 2.5 V reference plus op-amp
    /// thermal noise, 2 mV-scale comparator offset, small hysteresis, and
    /// 100 ps-class clock jitter at 128 kHz.
    pub fn typical() -> Self {
        // kT/C of 0.5 pF at 300 K ≈ 91 µV; referred to a 2.5 V full scale
        // ≈ 3.6e-5. Switch and op-amp noise dominate: lump to 3e-4 FS.
        let ktc = ktc_noise_rms(0.5e-12, ROOM_TEMPERATURE_K) / 2.5;
        NonIdealities {
            opamp_dc_gain: 4000.0,
            integrator_saturation: 4.0,
            input_noise_sigma: ktc + 2.6e-4,
            comparator_offset: 8e-4,
            comparator_hysteresis: 2e-4,
            jitter_slew_gain: 100e-12 * 128_000.0,
            dac_level_mismatch: 1e-3,
            dac_isi: 1e-4,
            reference_noise_sigma: 5e-5,
            seed: 0x5EED,
        }
    }

    /// Replaces the RNG seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the input-referred noise sigma (chainable).
    pub fn with_input_noise(mut self, sigma: f64) -> Self {
        self.input_noise_sigma = sigma;
        self
    }

    /// Replaces the op-amp DC gain (chainable).
    pub fn with_opamp_gain(mut self, gain: f64) -> Self {
        self.opamp_dc_gain = gain;
        self
    }

    /// Replaces the comparator offset (chainable).
    pub fn with_comparator_offset(mut self, offset: f64) -> Self {
        self.comparator_offset = offset;
        self
    }

    /// Replaces the comparator hysteresis (chainable).
    pub fn with_comparator_hysteresis(mut self, hysteresis: f64) -> Self {
        self.comparator_hysteresis = hysteresis;
        self
    }

    /// Replaces the jitter slew gain (chainable).
    pub fn with_jitter_slew_gain(mut self, gain: f64) -> Self {
        self.jitter_slew_gain = gain;
        self
    }

    /// Replaces the DAC level mismatch (chainable).
    pub fn with_dac_level_mismatch(mut self, mismatch: f64) -> Self {
        self.dac_level_mismatch = mismatch;
        self
    }

    /// Replaces the DAC inter-symbol interference (chainable).
    pub fn with_dac_isi(mut self, isi: f64) -> Self {
        self.dac_isi = isi;
        self
    }

    /// Replaces the reference noise sigma (chainable).
    pub fn with_reference_noise(mut self, sigma: f64) -> Self {
        self.reference_noise_sigma = sigma;
        self
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive gain or
    /// saturation, or negative noise magnitudes.
    pub fn validate(&self) -> Result<(), AnalogError> {
        if !(self.opamp_dc_gain > 1.0) {
            return Err(AnalogError::InvalidParameter(format!(
                "op-amp DC gain {} must exceed 1",
                self.opamp_dc_gain
            )));
        }
        if !(self.integrator_saturation > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "integrator saturation must be positive".into(),
            ));
        }
        for (name, v) in [
            ("input noise sigma", self.input_noise_sigma),
            ("comparator hysteresis", self.comparator_hysteresis),
            ("jitter slew gain", self.jitter_slew_gain),
            ("DAC ISI", self.dac_isi),
            ("reference noise sigma", self.reference_noise_sigma),
        ] {
            if v < 0.0 || !v.is_finite() {
                return Err(AnalogError::InvalidParameter(format!(
                    "{name} {v} must be finite and non-negative"
                )));
            }
        }
        if !self.comparator_offset.is_finite() {
            return Err(AnalogError::InvalidParameter(
                "comparator offset must be finite".into(),
            ));
        }
        if !self.dac_level_mismatch.is_finite() || self.dac_level_mismatch.abs() >= 0.5 {
            return Err(AnalogError::InvalidParameter(format!(
                "DAC level mismatch {} must be finite and |mismatch| < 0.5",
                self.dac_level_mismatch
            )));
        }
        Ok(())
    }
}

impl Default for NonIdealities {
    fn default() -> Self {
        NonIdealities::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NonIdealities::ideal().validate().unwrap();
        NonIdealities::typical().validate().unwrap();
    }

    #[test]
    fn typical_noise_is_sub_millivolt_scale() {
        let n = NonIdealities::typical();
        assert!(n.input_noise_sigma > 1e-5 && n.input_noise_sigma < 1e-3);
        assert!(n.opamp_dc_gain >= 1000.0, "72 dB-class gain expected");
    }

    #[test]
    fn builder_methods_chain() {
        let n = NonIdealities::ideal()
            .with_seed(9)
            .with_input_noise(1e-4)
            .with_opamp_gain(500.0)
            .with_comparator_offset(-1e-3)
            .with_comparator_hysteresis(5e-4)
            .with_jitter_slew_gain(1e-6);
        assert_eq!(n.seed, 9);
        assert_eq!(n.input_noise_sigma, 1e-4);
        assert_eq!(n.opamp_dc_gain, 500.0);
        assert_eq!(n.comparator_offset, -1e-3);
        assert_eq!(n.comparator_hysteresis, 5e-4);
        assert_eq!(n.jitter_slew_gain, 1e-6);
        n.validate().unwrap();
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(NonIdealities::ideal()
            .with_opamp_gain(0.5)
            .validate()
            .is_err());
        assert!(NonIdealities {
            integrator_saturation: 0.0,
            ..NonIdealities::ideal()
        }
        .validate()
        .is_err());
        assert!(NonIdealities::ideal()
            .with_input_noise(-1.0)
            .validate()
            .is_err());
        assert!(NonIdealities::ideal()
            .with_comparator_hysteresis(-1e-3)
            .validate()
            .is_err());
        assert!(NonIdealities::ideal()
            .with_comparator_offset(f64::NAN)
            .validate()
            .is_err());
        assert!(NonIdealities::ideal()
            .with_jitter_slew_gain(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn default_is_typical() {
        assert_eq!(NonIdealities::default(), NonIdealities::typical());
    }
}
