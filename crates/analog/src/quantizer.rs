//! Single-bit comparator (the ΣΔ quantizer) with offset and hysteresis.
//!
//! The 1-bit quantizer of the modulator (paper Fig. 6) is a clocked
//! comparator. Its two first-order impairments are a static input offset
//! and switching hysteresis (the effective threshold depends on the
//! previous decision). Both are heavily attenuated by the loop gain in a
//! ΣΔ modulator, which the modulator tests verify.

/// A clocked single-bit comparator.
#[derive(Debug, Clone)]
pub struct Comparator {
    pub(crate) offset: f64,
    pub(crate) hysteresis: f64,
    pub(crate) last: i8,
}

impl Comparator {
    /// Creates a comparator with the given offset and hysteresis
    /// half-width (both in the modulator's full-scale units).
    ///
    /// # Panics
    ///
    /// Panics when `hysteresis` is negative (static sizing error; user
    /// input is validated upstream).
    pub fn new(offset: f64, hysteresis: f64) -> Self {
        assert!(hysteresis >= 0.0, "hysteresis must be non-negative");
        Comparator {
            offset,
            hysteresis,
            last: 1,
        }
    }

    /// An ideal comparator (zero offset and hysteresis).
    pub fn ideal() -> Self {
        Comparator::new(0.0, 0.0)
    }

    /// Decides the sign of `input`, returning +1 or −1.
    ///
    /// With hysteresis `h`, the threshold is `offset − h·last`: a
    /// comparator that last output +1 needs the input to fall below
    /// `offset − h` to flip, and vice versa.
    pub fn decide(&mut self, input: f64) -> i8 {
        let threshold = self.offset - self.hysteresis * f64::from(self.last);
        self.last = if input >= threshold { 1 } else { -1 };
        self.last
    }

    /// Resets the decision history.
    pub fn reset(&mut self) {
        self.last = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_comparator_is_a_sign_function() {
        let mut c = Comparator::ideal();
        assert_eq!(c.decide(0.5), 1);
        assert_eq!(c.decide(-0.5), -1);
        assert_eq!(c.decide(0.0), 1, "ties resolve positive");
        assert_eq!(c.last, 1);
    }

    #[test]
    fn offset_shifts_the_threshold() {
        let mut c = Comparator::new(0.1, 0.0);
        assert_eq!(c.decide(0.05), -1, "below offset");
        assert_eq!(c.decide(0.15), 1, "above offset");
    }

    #[test]
    fn hysteresis_resists_small_reversals() {
        let h = 0.2;
        let mut c = Comparator::new(0.0, h);
        assert_eq!(c.decide(1.0), 1);
        // A small negative input does not flip a +1 comparator whose
        // flip threshold is -h.
        assert_eq!(c.decide(-0.1), 1);
        // A large one does.
        assert_eq!(c.decide(-0.3), -1);
        // Now the flip-back threshold is +h: small positive stays -1.
        assert_eq!(c.decide(0.1), -1);
        assert_eq!(c.decide(0.3), 1);
    }

    #[test]
    fn reset_restores_positive_history() {
        let mut c = Comparator::new(0.0, 0.5);
        c.decide(-10.0);
        assert_eq!(c.last, -1);
        c.reset();
        assert_eq!(c.last, 1);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn negative_hysteresis_is_rejected() {
        let _ = Comparator::new(0.0, -0.1);
    }
}
