//! Membrane dynamics: resonance, squeeze-film damping, and the
//! quasi-static justification.
//!
//! The whole readout chain treats the membrane as *quasi-static*: the
//! pressure frame is held constant over a 1 ms output period and the
//! capacitance follows instantaneously. That is only valid because the
//! membrane's fundamental resonance sits orders of magnitude above the
//! 500 Hz signal band — this module computes the numbers that prove it.
//!
//! Single-mode (energy-method) model on the clamped mode shape
//! `w(x,y,t) = w0(t)·φ(x)·φ(y)`:
//!
//! * modal stiffness from the plate's linear load–deflection relation,
//!   `U = ½·(k·a²/4)·w0²` (work of the uniform pressure over the swept
//!   volume);
//! * modal mass from the kinetic energy of the mode shape,
//!   `T = ½·ρ_A·(9a²/64)·ẇ0²` (since `∫φ² = 3a/8` per axis);
//! * squeeze-film damping of the thin air gap under the membrane with
//!   the standard incompressible-film coefficient `c ≈ 0.42·μ·a⁴/g³`.

use crate::plate::SquarePlate;
use crate::units::Meters;
use crate::MemsError;

/// Dynamic viscosity of air at room temperature, Pa·s.
pub const AIR_VISCOSITY: f64 = 1.85e-5;

/// Squeeze-film coefficient for a square plate (incompressible regime).
const SQUEEZE_COEFF: f64 = 0.42;

/// Single-mode dynamic model of a membrane over its air gap.
#[derive(Debug, Clone, PartialEq)]
pub struct MembraneDynamics {
    /// Modal stiffness in N/m (referred to center deflection).
    modal_stiffness: f64,
    /// Modal mass in kg.
    modal_mass: f64,
    /// Squeeze-film damping coefficient in N·s/m.
    damping: f64,
}

impl MembraneDynamics {
    /// Builds the dynamic model from the plate and its air gap.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidGeometry`] for a non-positive gap.
    pub fn new(plate: &SquarePlate, air_gap: Meters) -> Result<Self, MemsError> {
        if !(air_gap.value() > 0.0) {
            return Err(MemsError::InvalidGeometry(
                "air gap must be positive".into(),
            ));
        }
        let a = plate.side().value();
        let k_lin = plate.linear_stiffness(); // Pa per meter of deflection
                                              // Work of a uniform pressure p over the swept volume V = w0·a²/4
                                              // with p = k·w0 gives U = (k·a²/8)·w0² → modal stiffness k·a²/4.
        let modal_stiffness = k_lin * a * a / 4.0;
        // Kinetic energy of the separable mode shape: ∫∫φ² = (3a/8)².
        let rho_a = plate.laminate().areal_density();
        let modal_mass = rho_a * (3.0 * a / 8.0) * (3.0 * a / 8.0);
        // Squeeze film of the backside air gap.
        let g = air_gap.value();
        let damping = SQUEEZE_COEFF * AIR_VISCOSITY * a.powi(4) / (g * g * g);
        Ok(MembraneDynamics {
            modal_stiffness,
            modal_mass,
            damping,
        })
    }

    /// The paper's membrane over its 1 µm gap.
    pub fn paper_default() -> Self {
        MembraneDynamics::new(&SquarePlate::paper_default(), Meters::from_microns(1.0))
            .expect("paper geometry is valid")
    }

    /// Undamped natural frequency in Hz.
    pub fn natural_frequency_hz(&self) -> f64 {
        (self.modal_stiffness / self.modal_mass).sqrt() / (2.0 * std::f64::consts::PI)
    }

    /// Quality factor `Q = √(k·m) / c` of the squeeze-film-damped mode.
    pub fn quality_factor(&self) -> f64 {
        (self.modal_stiffness * self.modal_mass).sqrt() / self.damping
    }

    /// Mechanical response time constant: for the overdamped squeeze-film
    /// regime (`Q < ½`) the slow pole `c/k`; otherwise the ring-down
    /// envelope `2m/c`.
    pub fn response_time_s(&self) -> f64 {
        if self.quality_factor() < 0.5 {
            self.damping / self.modal_stiffness
        } else {
            2.0 * self.modal_mass / self.damping
        }
    }

    /// Magnitude of the normalized force-to-deflection transfer at a
    /// frequency (1.0 at DC): `|H(f)| = 1/√((1−r²)² + (r/Q)²)`,
    /// `r = f/f0`.
    pub fn response_magnitude(&self, freq_hz: f64) -> f64 {
        let r = freq_hz / self.natural_frequency_hz();
        let q = self.quality_factor();
        1.0 / ((1.0 - r * r).powi(2) + (r / q).powi(2)).sqrt()
    }

    /// True when the membrane may be treated as quasi-static over a
    /// signal bandwidth: the response at the band edge deviates from DC
    /// by less than 0.1 % *and* the response time is much shorter than a
    /// sample period.
    pub fn is_quasi_static_for(&self, bandwidth_hz: f64, sample_period_s: f64) -> bool {
        (self.response_magnitude(bandwidth_hz) - 1.0).abs() < 1e-3
            && self.response_time_s() < sample_period_s / 10.0
    }

    /// Modal stiffness in N/m.
    pub fn modal_stiffness(&self) -> f64 {
        self.modal_stiffness
    }

    /// Modal mass in kg.
    pub fn modal_mass(&self) -> f64 {
        self.modal_mass
    }
}

impl Default for MembraneDynamics {
    fn default() -> Self {
        MembraneDynamics::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonance_is_in_the_megahertz_range() {
        let dyn_model = MembraneDynamics::paper_default();
        let f0 = dyn_model.natural_frequency_hz();
        assert!(
            (0.5e6..20e6).contains(&f0),
            "a 100 um / 3 um CMOS membrane resonates in the MHz band, got {f0:.3e} Hz"
        );
    }

    #[test]
    fn quasi_static_over_the_signal_band() {
        let dyn_model = MembraneDynamics::paper_default();
        // 500 Hz band, 1 ms output period (the paper's numbers).
        assert!(dyn_model.is_quasi_static_for(500.0, 1e-3));
        // And even over the full modulator rate.
        assert!((dyn_model.response_magnitude(64_000.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn dc_response_is_unity_and_resonance_peaks() {
        let d = MembraneDynamics::paper_default();
        assert!((d.response_magnitude(0.0) - 1.0).abs() < 1e-12);
        let f0 = d.natural_frequency_hz();
        if d.quality_factor() > 1.0 {
            assert!(d.response_magnitude(f0) > 1.0);
        }
        // Far above resonance the response rolls off.
        assert!(d.response_magnitude(100.0 * f0) < 1e-3);
    }

    #[test]
    fn squeeze_film_damping_scales_inversely_with_gap_cubed() {
        let plate = SquarePlate::paper_default();
        let tight = MembraneDynamics::new(&plate, Meters::from_microns(0.5)).unwrap();
        let loose = MembraneDynamics::new(&plate, Meters::from_microns(1.0)).unwrap();
        let ratio = tight.damping / loose.damping;
        assert!((ratio - 8.0).abs() < 1e-9, "c ~ 1/g^3, got ratio {ratio}");
        // Tighter gap, more damping, lower Q.
        assert!(tight.quality_factor() < loose.quality_factor());
    }

    #[test]
    fn response_time_is_sub_microsecond_scale() {
        let d = MembraneDynamics::paper_default();
        assert!(
            d.response_time_s() < 1e-4,
            "response time {:.3e} s too slow for 1 kS/s frames",
            d.response_time_s()
        );
    }

    #[test]
    fn invalid_gap_is_rejected() {
        let plate = SquarePlate::paper_default();
        assert!(MembraneDynamics::new(&plate, Meters(0.0)).is_err());
    }

    #[test]
    fn modal_quantities_are_physical() {
        let d = MembraneDynamics::paper_default();
        assert!(d.modal_mass() > 0.0);
        assert!(d.modal_stiffness() > 0.0);
        assert!(d.damping > 0.0);
        // Modal mass should be a fraction of the total membrane mass.
        let plate = SquarePlate::paper_default();
        let total_mass =
            plate.laminate().areal_density() * plate.side().value() * plate.side().value();
        assert!(d.modal_mass() < total_mass);
        assert!(d.modal_mass() > 0.05 * total_mass);
    }
}
