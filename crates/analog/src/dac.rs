//! The single-bit feedback DAC of the ΣΔ loop.
//!
//! A 1-bit DAC is *inherently linear* — its two levels always define a
//! straight line — which is the main reason single-bit ΣΔ modulators
//! (like the paper's) are robust against element mismatch. The residual
//! error mechanisms modeled here are:
//!
//! * **level mismatch** — the positive reference charge differs from the
//!   negative one by a relative ε; alone this is only a gain/offset
//!   error;
//! * **inter-symbol interference (ISI)** — on a bit *transition* the
//!   reference has less time to settle and part of the feedback charge is
//!   lost. A *symmetric* loss (equal on rising and falling edges) is
//!   first-differenced by the bitstream algebra and therefore noise-shaped
//!   out of band; the damaging, classic mechanism is **rise/fall
//!   asymmetry**, whose error tracks the transition density — a
//!   signal-dependent, in-band distortion (the reason return-to-zero DAC
//!   coding exists). The model applies the loss to rising transitions
//!   only, i.e. it represents the asymmetric part.
//!
//! Reference noise (thermal/supply noise on Vref) multiplies the level
//! this DAC returns; the modulator that owns the DAC draws it and applies
//! the `1 + z` factor.

/// Behavioral single-bit feedback DAC.
#[derive(Debug, Clone)]
pub struct FeedbackDac {
    /// Relative positive-level error.
    pub(crate) level_mismatch: f64,
    /// Fraction of feedback charge lost on a *rising* transition (the
    /// asymmetric part of the settling error).
    pub(crate) isi: f64,
    pub(crate) last_bit: i8,
}

impl FeedbackDac {
    /// Creates the DAC.
    ///
    /// # Panics
    ///
    /// Panics when `isi` is negative (user input is validated in
    /// [`crate::nonideal::NonIdealities::validate`]).
    pub fn new(level_mismatch: f64, isi: f64) -> Self {
        assert!(isi >= 0.0, "ISI must be non-negative");
        FeedbackDac {
            level_mismatch,
            isi,
            last_bit: 1,
        }
    }

    /// An ideal ±1 DAC.
    pub fn ideal() -> Self {
        FeedbackDac::new(0.0, 0.0)
    }

    /// Converts the comparator decision into this clock's noiseless
    /// feedback level.
    pub fn convert(&mut self, bit: i8) -> f64 {
        let nominal = f64::from(bit);
        // Level mismatch affects the positive level only (the relative
        // definition; splitting it differently is the same line).
        let mut v = if bit > 0 {
            nominal * (1.0 + self.level_mismatch)
        } else {
            nominal
        };
        if bit > self.last_bit {
            // Rising transition only: the asymmetric settling loss.
            v *= 1.0 - self.isi;
        }
        self.last_bit = bit;
        v
    }

    /// Resets the transition history.
    pub fn reset(&mut self) {
        self.last_bit = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_dac_is_exact() {
        let mut dac = FeedbackDac::ideal();
        assert_eq!(dac.convert(1), 1.0);
        assert_eq!(dac.convert(-1), -1.0);
        assert_eq!(dac.convert(-1), -1.0);
        assert_eq!(dac.convert(1), 1.0);
    }

    #[test]
    fn level_mismatch_scales_only_the_positive_level() {
        let mut dac = FeedbackDac::new(0.01, 0.0);
        assert!((dac.convert(1) - 1.01).abs() < 1e-15);
        assert_eq!(dac.convert(-1), -1.0);
    }

    #[test]
    fn isi_applies_only_on_rising_transitions() {
        let mut dac = FeedbackDac::new(0.0, 0.1);
        // Initial history is +1: a +1 output is not a transition.
        assert_eq!(dac.convert(1), 1.0);
        // Falling transition: full charge (the symmetric part is modeled
        // as absorbed in the nominal level).
        assert_eq!(dac.convert(-1), -1.0);
        // Holding -1: full charge.
        assert_eq!(dac.convert(-1), -1.0);
        // Rising transition: reduced charge.
        assert!((dac.convert(1) - 0.9).abs() < 1e-15);
        // Holding +1 again: full charge.
        assert_eq!(dac.convert(1), 1.0);
    }

    #[test]
    fn reset_clears_transition_history() {
        let mut dac = FeedbackDac::new(0.0, 0.2);
        let _ = dac.convert(-1);
        dac.reset();
        // History is +1 again: +1 is not a rising transition.
        assert_eq!(dac.convert(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "ISI")]
    fn negative_isi_panics() {
        let _ = FeedbackDac::new(0.0, -0.1);
    }
}
