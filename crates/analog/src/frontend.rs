//! Capacitive front end: converting (Csense − Cref) into the modulator's
//! normalized input.
//!
//! In the paper's first stage (Fig. 6), a constant voltage applied to the
//! sensor and reference capacitors integrates a charge proportional to
//! their difference; the single-bit DAC balances it against the feedback
//! capacitors `Cfb`. In normalized full-scale terms the modulator input
//! is therefore
//!
//! ```text
//! u = (Csense − Cref) / Cfb
//! ```
//!
//! with `|ΔC| = Cfb` mapping to full scale. The paper's *future work*
//! ("an improvement of the resolution … by adjusting the feedback
//! capacitors of the first modulator stage") is precisely a reduction of
//! `Cfb`: a smaller feedback capacitor magnifies the same ΔC into a larger
//! fraction of full scale. [`CapacitiveFrontEnd::with_feedback_capacitance`]
//! is that knob, exercised by ablation A2.

use tonos_mems::units::{Farads, Volts};

use crate::AnalogError;

/// The differential charge-integrating front end of the first stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitiveFrontEnd {
    reference: Farads,
    feedback: Farads,
    vref: Volts,
}

impl CapacitiveFrontEnd {
    /// Creates the front end.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive
    /// reference/feedback capacitance or reference voltage.
    pub fn new(reference: Farads, feedback: Farads, vref: Volts) -> Result<Self, AnalogError> {
        if !(reference.value() > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "reference capacitance must be positive".into(),
            ));
        }
        if !(feedback.value() > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "feedback capacitance must be positive".into(),
            ));
        }
        if !(vref.value() > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "reference voltage must be positive".into(),
            ));
        }
        Ok(CapacitiveFrontEnd {
            reference,
            feedback,
            vref,
        })
    }

    /// Paper-scale defaults: the reference matches the membrane rest
    /// capacitance (≈ 67 fF with the default geometry), `Cfb = 100 fF`
    /// (a comfortable full-scale range of ±100 fF), `Vref = 2.5 V`
    /// (mid-supply of the 5 V chip).
    pub fn paper_default(reference: Farads) -> Self {
        CapacitiveFrontEnd::new(reference, Farads::from_femtofarads(100.0), Volts(2.5))
            .expect("paper defaults are valid")
    }

    /// The reference capacitance.
    pub fn reference(&self) -> Farads {
        self.reference
    }

    /// The first-stage feedback capacitance (full-scale ΔC).
    pub fn feedback(&self) -> Farads {
        self.feedback
    }

    /// The reference voltage.
    pub fn vref(&self) -> Volts {
        self.vref
    }

    /// Returns a copy with a different feedback capacitance — the paper's
    /// resolution knob.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive value.
    pub fn with_feedback_capacitance(self, feedback: Farads) -> Result<Self, AnalogError> {
        CapacitiveFrontEnd::new(self.reference, feedback, self.vref)
    }

    /// Normalized modulator input for a sensed capacitance:
    /// `(Csense − Cref) / Cfb`. Values beyond ±1 overload the modulator
    /// (which detects and reports that itself).
    pub fn input_fraction(&self, sensed: Farads) -> f64 {
        (sensed.value() - self.reference.value()) / self.feedback.value()
    }
}

/// The auxiliary differential voltage interface used for electrical
/// characterization (paper §3: "a differential voltage interface, so a
/// full characterization of the analog to digital conversion … can be
/// accomplished, independent of the connected transducer").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageInput {
    vref: Volts,
}

impl VoltageInput {
    /// Creates the voltage test input with the given reference.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// reference.
    pub fn new(vref: Volts) -> Result<Self, AnalogError> {
        if !(vref.value() > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "reference voltage must be positive".into(),
            ));
        }
        Ok(VoltageInput { vref })
    }

    /// The paper's mid-supply reference (2.5 V on the 5 V chip).
    pub fn paper_default() -> Self {
        VoltageInput::new(Volts(2.5)).expect("paper default is valid")
    }

    /// The reference voltage.
    pub fn vref(&self) -> Volts {
        self.vref
    }

    /// Normalized modulator input for a differential test voltage.
    pub fn input_fraction(&self, differential: Volts) -> f64 {
        differential.value() / self.vref.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe() -> CapacitiveFrontEnd {
        CapacitiveFrontEnd::paper_default(Farads::from_femtofarads(67.0))
    }

    #[test]
    fn balanced_bridge_gives_zero_input() {
        let fe = fe();
        assert_eq!(fe.input_fraction(Farads::from_femtofarads(67.0)), 0.0);
    }

    #[test]
    fn full_scale_is_cfb() {
        let fe = fe();
        let u = fe.input_fraction(Farads::from_femtofarads(167.0));
        assert!((u - 1.0).abs() < 1e-12, "{u}");
        let u = fe.input_fraction(Farads::from_femtofarads(17.0));
        assert!((u + 0.5).abs() < 1e-12, "{u}");
    }

    #[test]
    fn smaller_cfb_magnifies_the_same_delta() {
        // The paper's future-work knob: reducing Cfb improves resolution.
        let base = fe();
        let tuned = base
            .with_feedback_capacitance(Farads::from_femtofarads(20.0))
            .unwrap();
        let sensed = Farads::from_femtofarads(68.0); // ΔC = 1 fF
        assert!((base.input_fraction(sensed) - 0.01).abs() < 1e-12);
        assert!((tuned.input_fraction(sensed) - 0.05).abs() < 1e-12);
        assert!(tuned.input_fraction(sensed) > base.input_fraction(sensed));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(CapacitiveFrontEnd::new(Farads(0.0), Farads(1e-13), Volts(2.5)).is_err());
        assert!(CapacitiveFrontEnd::new(Farads(1e-13), Farads(-1e-13), Volts(2.5)).is_err());
        assert!(CapacitiveFrontEnd::new(Farads(1e-13), Farads(1e-13), Volts(0.0)).is_err());
        assert!(fe().with_feedback_capacitance(Farads(0.0)).is_err());
        assert!(VoltageInput::new(Volts(-1.0)).is_err());
    }

    #[test]
    fn voltage_interface_normalizes_to_vref() {
        let vi = VoltageInput::paper_default();
        assert_eq!(vi.vref(), Volts(2.5));
        assert!((vi.input_fraction(Volts(2.5)) - 1.0).abs() < 1e-15);
        assert!((vi.input_fraction(Volts(-1.25)) + 0.5).abs() < 1e-15);
        assert_eq!(vi.input_fraction(Volts(0.0)), 0.0);
    }

    #[test]
    fn accessors_report_configuration() {
        let fe = fe();
        assert!((fe.reference().to_femtofarads() - 67.0).abs() < 1e-12);
        assert!((fe.feedback().to_femtofarads() - 100.0).abs() < 1e-12);
        assert_eq!(fe.vref(), Volts(2.5));
    }
}
