//! Clamped square-plate mechanics of a single released membrane.
//!
//! The paper's force-sensitive element is a square membrane (side 100 µm,
//! thickness 3 µm) clamped on all four edges by the surrounding substrate
//! after the KOH back-etch release. Pressure applied from the top (tissue
//! contact) deflects the composite plate toward the poly bottom electrode;
//! backpressure through the PCB tube (paper Fig. 8) bows it the other way.
//!
//! We use the standard energy-method load–deflection relation for a
//! composite square diaphragm, combining
//!
//! * linear **bending** stiffness of the laminate (clamped-plate
//!   coefficient `w0 = 0.00126 · p·a⁴ / D`),
//! * linear **residual-tension** stiffness (`p = 3.393 · N0 · w0 / (a/2)²`),
//! * the cubic **stretching** term that limits large deflections
//!   (`p = 1.978/(1−0.295ν) · E·t · w0³ / (a/2)⁴`, Maier-Schneider
//!   coefficients for square membranes).
//!
//! The deflection *profile* uses the classic clamped mode shape
//! `w(x,y) = w0 · φ(x)·φ(y)` with `φ(u) = (1 + cos 2πu/a)/2`, which has zero
//! displacement and zero slope at the clamped edges.

use crate::material::Laminate;
use crate::units::{Meters, Pascals};
use crate::MemsError;

/// Clamped-square-plate center-deflection coefficient: `w0 = ALPHA p a^4 / D`.
const ALPHA_BENDING: f64 = 0.001_26;
/// Square-membrane residual-tension coefficient (half-side convention).
const C_TENSION: f64 = 3.393;
/// Square-membrane cubic stretching coefficient (half-side convention).
const C_STRETCH: f64 = 1.978;
/// Poisson correction factor of the stretching term.
const C_STRETCH_POISSON: f64 = 0.295;

/// Maximum Newton iterations for the load–deflection inversion.
const MAX_SOLVE_ITERATIONS: usize = 80;

/// A clamped square composite membrane.
///
/// Construct with [`SquarePlate::new`] or [`SquarePlate::paper_default`]
/// (the paper's 100 µm × 3 µm CMOS stack).
#[derive(Debug, Clone, PartialEq)]
pub struct SquarePlate {
    side: Meters,
    laminate: Laminate,
    /// Linear stiffness `dp/dw0` at zero deflection, Pa/m.
    k_linear: f64,
    /// Cubic stiffness coefficient, Pa/m³.
    k_cubic: f64,
}

impl SquarePlate {
    /// Builds a plate from its side length and laminate stack and
    /// precomputes the load–deflection stiffness coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidGeometry`] if the side length is not
    /// positive, or if a net-compressive stack makes the linearized
    /// stiffness non-positive (a buckled membrane, which the model does
    /// not support).
    pub fn new(side: Meters, laminate: Laminate) -> Result<Self, MemsError> {
        if side.value() <= 0.0 || !side.is_finite() {
            return Err(MemsError::InvalidGeometry(
                "plate side length must be positive and finite".into(),
            ));
        }
        let a = side.value();
        let half = a / 2.0;
        let d = laminate.flexural_rigidity();
        let n0 = laminate.membrane_tension();
        let t = laminate.total_thickness().value();

        let k_bend = d / (ALPHA_BENDING * a.powi(4));
        // Compressive prestress (n0 < 0) softens the plate; we allow it as
        // long as the net linear stiffness stays positive.
        let k_tension = C_TENSION * n0 / (half * half);
        let k_linear = k_bend + k_tension;
        if k_linear <= 0.0 {
            return Err(MemsError::InvalidGeometry(format!(
                "membrane is buckled: net linear stiffness {k_linear:.3e} Pa/m <= 0 \
                 (compressive prestress exceeds bending stiffness)"
            )));
        }

        let nu = laminate.effective_poisson();
        let e = laminate.effective_modulus();
        let k_cubic = C_STRETCH / (1.0 - C_STRETCH_POISSON * nu) * e * t / half.powi(4);

        Ok(SquarePlate {
            side,
            laminate,
            k_linear,
            k_cubic,
        })
    }

    /// The paper's membrane: 100 µm side, 3 µm CMOS oxide/metal/nitride
    /// stack (§2.1).
    pub fn paper_default() -> Self {
        SquarePlate::new(Meters::from_microns(100.0), Laminate::cmos_membrane())
            .expect("paper geometry is valid")
    }

    /// Side length of the square membrane.
    pub fn side(&self) -> Meters {
        self.side
    }

    /// The laminate stack.
    pub fn laminate(&self) -> &Laminate {
        &self.laminate
    }

    /// Linearized stiffness `dp/dw0` at zero deflection, in Pa/m.
    pub fn linear_stiffness(&self) -> f64 {
        self.k_linear
    }

    /// Pressure required to hold a given center deflection (exact forward
    /// relation `p = k1·w0 + k3·w0³`). Positive deflection is *toward the
    /// bottom electrode* (pressure applied from the top).
    pub fn pressure_for_deflection(&self, w0: Meters) -> Pascals {
        let w = w0.value();
        Pascals(self.k_linear * w + self.k_cubic * w * w * w)
    }

    /// Center deflection under a uniform net pressure, inverting the cubic
    /// load–deflection relation with a safeguarded Newton iteration.
    ///
    /// Positive pressure means a net load pushing the membrane toward the
    /// bottom electrode; negative pressure (backside pressurization) bows
    /// it away.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::SolveDiverged`] if the iteration fails (only
    /// possible for non-finite inputs).
    pub fn center_deflection(&self, pressure: Pascals) -> Result<Meters, MemsError> {
        let p = pressure.value();
        if !p.is_finite() {
            return Err(MemsError::SolveDiverged {
                pressure,
                iterations: 0,
            });
        }
        if p == 0.0 {
            return Ok(Meters(0.0));
        }
        // The cubic is odd and strictly monotone (k1, k3 > 0), so a unique
        // real root exists. Newton from the linear estimate converges
        // quadratically; fall back to bisection brackets for safety.
        let mut w = p / self.k_linear;
        let mut lo = 0.0_f64.min(w * 2.0);
        let mut hi = 0.0_f64.max(w * 2.0);
        // Ensure the bracket contains the root.
        while self.residual(hi) < p {
            hi = (hi * 2.0).max(1e-12);
        }
        while self.residual(lo) > p {
            lo = (lo * 2.0).min(-1e-12);
        }
        for iter in 0..MAX_SOLVE_ITERATIONS {
            let f = self.residual(w) - p;
            if f.abs() <= p.abs() * 1e-13 + 1e-30 {
                return Ok(Meters(w));
            }
            let df = self.k_linear + 3.0 * self.k_cubic * w * w;
            let mut next = w - f / df;
            if !(lo..=hi).contains(&next) {
                next = 0.5 * (lo + hi);
            }
            if self.residual(next) > p {
                hi = next;
            } else {
                lo = next;
            }
            if (next - w).abs() <= w.abs() * 1e-15 + 1e-24 {
                return Ok(Meters(next));
            }
            w = next;
            let _ = iter;
        }
        // Newton on a monotone cubic with a maintained bracket always makes
        // progress; reaching here means pathological input.
        Err(MemsError::SolveDiverged {
            pressure,
            iterations: MAX_SOLVE_ITERATIONS,
        })
    }

    #[inline]
    fn residual(&self, w: f64) -> f64 {
        self.k_linear * w + self.k_cubic * w * w * w
    }

    /// Normalized clamped mode shape `φ(u) = (1 + cos 2πu/a)/2` for
    /// `u ∈ [-a/2, a/2]`; zero displacement and slope at the edges,
    /// unity at the center. Returns 0 outside the membrane.
    #[inline]
    pub fn mode_shape(&self, u: f64) -> f64 {
        let a = self.side.value();
        if u.abs() > a / 2.0 {
            return 0.0;
        }
        0.5 * (1.0 + (2.0 * std::f64::consts::PI * u / a).cos())
    }

    /// Deflection at membrane coordinates `(x, y)` (origin at the center)
    /// for a given center deflection: `w(x,y) = w0 φ(x) φ(y)`.
    #[inline]
    pub fn deflection_at(&self, w0: Meters, x: f64, y: f64) -> Meters {
        Meters(w0.value() * self.mode_shape(x) * self.mode_shape(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{Layer, Material};

    fn paper_plate() -> SquarePlate {
        SquarePlate::paper_default()
    }

    #[test]
    fn small_load_matches_linear_theory() {
        let plate = paper_plate();
        let p = Pascals(10.0); // tiny load, cubic term negligible
        let w = plate.center_deflection(p).unwrap();
        let linear = p.value() / plate.linear_stiffness();
        let rel = (w.value() - linear).abs() / linear;
        assert!(rel < 1e-6, "relative deviation from linear theory {rel}");
    }

    #[test]
    fn forward_and_inverse_round_trip() {
        let plate = paper_plate();
        for &w0_um in &[-0.5, -0.05, 0.01, 0.1, 0.4, 0.9] {
            let w0 = Meters::from_microns(w0_um);
            let p = plate.pressure_for_deflection(w0);
            let w_back = plate.center_deflection(p).unwrap();
            let rel = (w_back.value() - w0.value()).abs() / w0.value().abs();
            assert!(rel < 1e-9, "round trip failed at {w0_um} um: rel {rel}");
        }
    }

    #[test]
    fn deflection_is_odd_in_pressure() {
        let plate = paper_plate();
        let wp = plate.center_deflection(Pascals(5_000.0)).unwrap();
        let wn = plate.center_deflection(Pascals(-5_000.0)).unwrap();
        assert!((wp.value() + wn.value()).abs() < 1e-18);
    }

    #[test]
    fn deflection_is_monotone_in_pressure() {
        let plate = paper_plate();
        let mut last = f64::NEG_INFINITY;
        for i in -20..=20 {
            let p = Pascals(i as f64 * 1_000.0);
            let w = plate.center_deflection(p).unwrap().value();
            assert!(w > last, "not monotone at {p}");
            last = w;
        }
    }

    #[test]
    fn stretching_hardens_the_response() {
        let plate = paper_plate();
        // At large deflection the secant stiffness must exceed the tangent
        // stiffness at zero: w(2p) < 2 w(p).
        let p = plate.pressure_for_deflection(Meters::from_microns(0.8));
        let w1 = plate.center_deflection(p).unwrap().value();
        let w2 = plate.center_deflection(p * 2.0).unwrap().value();
        assert!(
            w2 < 2.0 * w1,
            "cubic hardening missing: {w2} !< {}",
            2.0 * w1
        );
    }

    #[test]
    fn physiological_pressures_give_sub_gap_deflections() {
        // A 100 mmHg contact pressure must deflect the membrane well below
        // the ~1 µm structural gap, otherwise the paper's device could not
        // operate linearly over the blood-pressure range.
        let plate = paper_plate();
        let p = Pascals::from_mmhg(crate::units::MillimetersHg(100.0));
        let w = plate.center_deflection(p).unwrap();
        assert!(
            w.to_microns() > 0.0005 && w.to_microns() < 0.9,
            "100 mmHg deflection {} um outside plausible band",
            w.to_microns()
        );
    }

    #[test]
    fn mode_shape_satisfies_clamped_boundary() {
        let plate = paper_plate();
        let a = plate.side().value();
        assert!((plate.mode_shape(0.0) - 1.0).abs() < 1e-15);
        assert!(plate.mode_shape(a / 2.0).abs() < 1e-15);
        assert!(plate.mode_shape(-a / 2.0).abs() < 1e-15);
        assert_eq!(plate.mode_shape(a), 0.0, "outside the membrane");
        // Zero slope at the edge: the finite-difference slope must be tiny
        // compared to the peak interior slope pi/a (~3e4 1/m here). The
        // backward difference picks up the curvature term O(phi'' * h), so
        // compare against the interior scale rather than zero.
        let h = a * 1e-7;
        let slope = (plate.mode_shape(a / 2.0) - plate.mode_shape(a / 2.0 - h)) / h;
        let peak_slope = std::f64::consts::PI / a;
        assert!(
            slope.abs() < peak_slope * 1e-3,
            "edge slope {slope} vs peak {peak_slope}"
        );
    }

    #[test]
    fn deflection_profile_is_separable_and_peaks_at_center() {
        let plate = paper_plate();
        let w0 = Meters::from_microns(0.3);
        let center = plate.deflection_at(w0, 0.0, 0.0);
        assert!((center.value() - w0.value()).abs() < 1e-20);
        let off = plate.deflection_at(w0, 20e-6, -15e-6);
        assert!(off.value() < center.value());
        assert!(off.value() > 0.0);
    }

    #[test]
    fn tensile_stress_stiffens_the_plate() {
        let side = Meters::from_microns(100.0);
        let relaxed = Laminate::new(vec![Layer::new(
            Material {
                residual_stress: crate::units::StressPa(0.0),
                ..Material::silicon_nitride()
            },
            Meters::from_microns(3.0),
        )])
        .unwrap();
        let tensioned = Laminate::new(vec![Layer::new(
            Material::silicon_nitride(),
            Meters::from_microns(3.0),
        )])
        .unwrap();
        let k_relaxed = SquarePlate::new(side, relaxed).unwrap().linear_stiffness();
        let k_tense = SquarePlate::new(side, tensioned)
            .unwrap()
            .linear_stiffness();
        assert!(k_tense > k_relaxed);
    }

    #[test]
    fn buckled_membrane_is_rejected() {
        // A thin, strongly compressive film cannot be modeled.
        let mut m = Material::silicon_dioxide();
        m.residual_stress = crate::units::StressPa(-2e9);
        let lam = Laminate::new(vec![Layer::new(m, Meters::from_nanometers(100.0))]).unwrap();
        let err = SquarePlate::new(Meters::from_microns(100.0), lam).unwrap_err();
        assert!(matches!(err, MemsError::InvalidGeometry(_)));
    }

    #[test]
    fn invalid_side_is_rejected() {
        let err = SquarePlate::new(Meters(0.0), Laminate::cmos_membrane()).unwrap_err();
        assert!(matches!(err, MemsError::InvalidGeometry(_)));
        let err = SquarePlate::new(Meters(f64::NAN), Laminate::cmos_membrane()).unwrap_err();
        assert!(matches!(err, MemsError::InvalidGeometry(_)));
    }

    #[test]
    fn non_finite_pressure_is_an_error() {
        let plate = paper_plate();
        assert!(matches!(
            plate.center_deflection(Pascals(f64::INFINITY)),
            Err(MemsError::SolveDiverged { .. })
        ));
    }

    #[test]
    fn bigger_membrane_is_softer() {
        let small =
            SquarePlate::new(Meters::from_microns(80.0), Laminate::cmos_membrane()).unwrap();
        let large =
            SquarePlate::new(Meters::from_microns(140.0), Laminate::cmos_membrane()).unwrap();
        assert!(large.linear_stiffness() < small.linear_stiffness());
    }
}
