//! Switched-capacitor integrator with finite-gain leak and saturation.
//!
//! Each ΣΔ stage (paper Fig. 6) is a fully-differential SC integrator. In
//! the discrete-time behavioral model one clock period performs
//!
//! ```text
//! x[n] = p · x[n−1] + gain · u[n−1] + z[n],   p = A / (A + 1)
//! ```
//!
//! where `A` is the op-amp DC gain (`p → 1` for an ideal op-amp: the
//! familiar "leaky integrator" model of finite gain) and the output is
//! clamped at the supply-limited saturation level. The sampled noise
//! `z[n]` is drawn by the modulator that owns the stage and passed in.

/// A leaky, saturating discrete-time integrator.
#[derive(Debug, Clone)]
pub struct ScIntegrator {
    pub(crate) state: f64,
    /// Pole location `p = A/(A+1)`.
    pub(crate) leak: f64,
    /// Output clamp in full-scale units.
    pub(crate) saturation: f64,
    /// Set when the last update hit the clamp.
    pub(crate) saturated: bool,
}

impl ScIntegrator {
    /// Creates an integrator.
    ///
    /// `dc_gain` may be `f64::INFINITY` for a lossless integrator.
    ///
    /// # Panics
    ///
    /// Panics if `dc_gain <= 1` or `saturation <= 0` (static circuit
    /// sizing errors; user-facing validation happens in
    /// [`crate::nonideal::NonIdealities::validate`]).
    pub fn new(dc_gain: f64, saturation: f64) -> Self {
        assert!(dc_gain > 1.0, "DC gain must exceed 1");
        assert!(saturation > 0.0, "saturation must be positive");
        let leak = if dc_gain.is_infinite() {
            1.0
        } else {
            dc_gain / (dc_gain + 1.0)
        };
        ScIntegrator {
            state: 0.0,
            leak,
            saturation,
            saturated: false,
        }
    }

    /// Integrates one weighted input sample plus this clock's sampled
    /// `noise` (added last, before the clamp) and returns the new state.
    pub fn update(&mut self, input: f64, noise: f64) -> f64 {
        let mut next = self.leak * self.state + input + noise;
        if next > self.saturation {
            next = self.saturation;
            self.saturated = true;
        } else if next < -self.saturation {
            next = -self.saturation;
            self.saturated = true;
        } else {
            self.saturated = false;
        }
        self.state = next;
        next
    }

    /// Current integrator state.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// True when the most recent update clipped at the rails.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Pole location `p` (1.0 = ideal).
    pub fn leak(&self) -> f64 {
        self.leak
    }

    /// Resets the state.
    pub fn reset(&mut self) {
        self.state = 0.0;
        self.saturated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_integrator_accumulates_exactly() {
        let mut int = ScIntegrator::new(f64::INFINITY, 100.0);
        for _ in 0..10 {
            int.update(0.5, 0.0);
        }
        assert!((int.state() - 5.0).abs() < 1e-12);
        assert!(!int.is_saturated());
    }

    #[test]
    fn finite_gain_leaks_to_a_plateau() {
        // With pole p and constant input u the state converges to
        // u / (1 - p) = u (A + 1).
        let a = 100.0;
        let mut int = ScIntegrator::new(a, 1e6);
        let mut last = 0.0;
        for _ in 0..20_000 {
            last = int.update(0.01, 0.0);
        }
        let expected = 0.01 * (a + 1.0);
        assert!(
            (last - expected).abs() / expected < 1e-6,
            "{last} vs {expected}"
        );
    }

    #[test]
    fn leak_value_matches_formula() {
        let int = ScIntegrator::new(4000.0, 1.0);
        assert!((int.leak() - 4000.0 / 4001.0).abs() < 1e-15);
        assert_eq!(ScIntegrator::new(f64::INFINITY, 1.0).leak(), 1.0);
    }

    #[test]
    fn saturation_clamps_and_flags() {
        let mut int = ScIntegrator::new(f64::INFINITY, 1.0);
        for _ in 0..5 {
            int.update(0.6, 0.0);
        }
        assert_eq!(int.state(), 1.0);
        assert!(int.is_saturated());
        // Recovers once the drive reverses.
        int.update(-0.4, 0.0);
        assert!(!int.is_saturated());
        assert!((int.state() - 0.6).abs() < 1e-12);
        // Negative rail too.
        for _ in 0..10 {
            int.update(-0.9, 0.0);
        }
        assert_eq!(int.state(), -1.0);
        assert!(int.is_saturated());
    }

    #[test]
    fn reset_clears_state_only() {
        let mut int = ScIntegrator::new(f64::INFINITY, 1.0);
        int.update(0.9, 0.0);
        int.update(0.9, 0.0);
        assert!(int.is_saturated());
        int.reset();
        assert_eq!(int.state(), 0.0);
        assert!(!int.is_saturated());
    }

    #[test]
    #[should_panic(expected = "DC gain")]
    fn unit_gain_is_rejected() {
        let _ = ScIntegrator::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "saturation")]
    fn zero_saturation_is_rejected() {
        let _ = ScIntegrator::new(10.0, 0.0);
    }
}
