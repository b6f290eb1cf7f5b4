//! Vessel-to-skin pressure transmission (the tonometric coupling).
//!
//! Paper Fig. 1: the overpressure inside a vessel moves the vessel wall,
//! which displaces the skin surface locally; a force sensor "applied at
//! the right place of the surface" picks that up. Two properties of this
//! coupling shape the system design:
//!
//! 1. transmission is **lossy** — only a fraction of the intra-arterial
//!    pulse reaches the surface, decaying with vessel depth;
//! 2. transmission is **local** — the surface disturbance falls off with
//!    lateral distance from the vessel, which is why the paper uses an
//!    *array* and selects "the sensor element with the strongest signal",
//!    and why the same array "can also be used for localizing blood
//!    vessels, buried in tissue" (§2).
//!
//! The model is a Gaussian surface kernel centered above the vessel with
//! depth-dependent amplitude and width — the standard half-space estimate
//! for a shallow line load.

use tonos_mems::contact::PressureField;
use tonos_mems::units::{Meters, MillimetersHg, Pascals};

use crate::PhysioError;

/// Tissue transmission model between an artery and the skin surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TissueModel {
    /// Vessel depth below the skin surface.
    depth: Meters,
    /// Lateral position of the vessel axis in chip coordinates (meters),
    /// x across the array, the vessel running along y.
    vessel_x: f64,
    /// Transmission fraction at zero depth.
    surface_coupling: f64,
    /// Depth at which coupling decays by 1/e.
    coupling_depth: Meters,
    /// Minimum lateral kernel width (adds to depth-driven spreading).
    min_width: Meters,
}

impl TissueModel {
    /// Creates a tissue model.
    ///
    /// # Errors
    ///
    /// Returns [`PhysioError::InvalidParameter`] for non-positive depth,
    /// coupling outside (0, 1], or non-positive widths.
    pub fn new(
        depth: Meters,
        vessel_x: f64,
        surface_coupling: f64,
        coupling_depth: Meters,
        min_width: Meters,
    ) -> Result<Self, PhysioError> {
        if !(depth.value() > 0.0) {
            return Err(PhysioError::InvalidParameter(
                "vessel depth must be positive".into(),
            ));
        }
        if !(surface_coupling > 0.0 && surface_coupling <= 1.0) {
            return Err(PhysioError::InvalidParameter(format!(
                "surface coupling {surface_coupling} must be in (0, 1]"
            )));
        }
        if !(coupling_depth.value() > 0.0) || !(min_width.value() > 0.0) {
            return Err(PhysioError::InvalidParameter(
                "coupling depth and kernel width must be positive".into(),
            ));
        }
        if !vessel_x.is_finite() {
            return Err(PhysioError::InvalidParameter(
                "vessel position must be finite".into(),
            ));
        }
        Ok(TissueModel {
            depth,
            vessel_x,
            surface_coupling,
            coupling_depth,
            min_width,
        })
    }

    /// The radial artery at the wrist: ≈ 2.5 mm deep, centered over the
    /// array, 60 % surface transmission with a 4 mm decay depth and a
    /// 0.8 mm minimum kernel width.
    ///
    /// NOTE: the Gaussian width at 2.5 mm depth (millimeters) is much
    /// larger than the 150 µm array pitch, so adjacent elements see
    /// *similar but not identical* pressures — exactly the regime in which
    /// strongest-element selection relaxes placement accuracy (§2).
    pub fn radial_artery() -> Self {
        TissueModel::new(Meters(2.5e-3), 0.0, 0.6, Meters(4.0e-3), Meters(0.8e-3))
            .expect("radial artery preset is valid")
    }

    /// Direct epicardial contact — the paper's invasive scenario: "an
    /// invasive application, e.g., on the beating heart during surgery is
    /// also possible" (§1). The sensor sits on the vessel wall itself:
    /// minimal covering tissue (0.3 mm), near-unity transmission, and a
    /// broad contact kernel.
    pub fn epicardial() -> Self {
        TissueModel::new(Meters(0.3e-3), 0.0, 0.9, Meters(4.0e-3), Meters(0.5e-3))
            .expect("epicardial preset is valid")
    }

    /// Returns a copy with the vessel laterally displaced (meters) — the
    /// localization experiment's sweep knob.
    pub fn with_vessel_offset(mut self, x: f64) -> Self {
        self.vessel_x = x;
        self
    }

    /// Vessel depth.
    pub fn depth(&self) -> Meters {
        self.depth
    }

    /// Lateral vessel position in chip coordinates.
    pub fn vessel_x(&self) -> f64 {
        self.vessel_x
    }

    /// Effective transmission at the vessel's epicenter: surface coupling
    /// attenuated by depth.
    pub fn epicenter_coupling(&self) -> f64 {
        self.surface_coupling * (-self.depth.value() / self.coupling_depth.value()).exp()
    }

    /// Lateral 1-sigma width of the surface kernel: the deeper the vessel,
    /// the more the disturbance spreads (`σ ≈ depth/2 + min_width`).
    pub fn kernel_width(&self) -> Meters {
        Meters(self.depth.value() / 2.0 + self.min_width.value())
    }

    /// Surface pressure at lateral position `x` for a given intra-arterial
    /// pressure (the vessel runs along y, so the field is y-invariant).
    pub fn surface_pressure(&self, arterial: MillimetersHg, x: f64) -> Pascals {
        let sigma = self.kernel_width().value();
        let d = x - self.vessel_x;
        let kernel = (-0.5 * (d / sigma) * (d / sigma)).exp();
        Pascals::from_mmhg(arterial) * (self.epicenter_coupling() * kernel)
    }

    /// Builds a [`PressureField`] snapshot for one arterial pressure
    /// value, ready for [`tonos_mems::contact::ContactInterface`].
    pub fn field(&self, arterial: MillimetersHg) -> TissueField {
        TissueField {
            model: *self,
            arterial,
        }
    }
}

/// A frozen surface pressure field at one arterial pressure value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TissueField {
    model: TissueModel,
    arterial: MillimetersHg,
}

impl PressureField for TissueField {
    fn pressure_at(&self, x: f64, _y: f64) -> Pascals {
        self.model.surface_pressure(self.arterial, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epicenter_transmits_the_most() {
        let t = TissueModel::radial_artery();
        let p = MillimetersHg(100.0);
        let center = t.surface_pressure(p, 0.0).value();
        let off = t.surface_pressure(p, 2.0e-3).value();
        let far = t.surface_pressure(p, 10.0e-3).value();
        assert!(center > off);
        assert!(off > far);
        assert!(far < 0.01 * center, "10 mm away is essentially decoupled");
    }

    #[test]
    fn transmission_is_lossy_but_substantial() {
        let t = TissueModel::radial_artery();
        let frac = t.epicenter_coupling();
        assert!(
            (0.2..0.6).contains(&frac),
            "epicenter coupling {frac} out of plausible band"
        );
    }

    #[test]
    fn deeper_vessels_transmit_less_and_spread_more() {
        let shallow = TissueModel::radial_artery();
        let deep =
            TissueModel::new(Meters(6.0e-3), 0.0, 0.6, Meters(4.0e-3), Meters(0.8e-3)).unwrap();
        assert!(deep.epicenter_coupling() < shallow.epicenter_coupling());
        assert!(deep.kernel_width().value() > shallow.kernel_width().value());
    }

    #[test]
    fn epicardial_contact_transmits_far_more_than_the_wrist() {
        let wrist = TissueModel::radial_artery();
        let epi = TissueModel::epicardial();
        assert!(
            epi.epicenter_coupling() > 2.0 * wrist.epicenter_coupling(),
            "epicardial {} vs wrist {}",
            epi.epicenter_coupling(),
            wrist.epicenter_coupling()
        );
        assert!(epi.epicenter_coupling() > 0.7, "near-direct contact");
    }

    #[test]
    fn field_is_linear_in_arterial_pressure() {
        let t = TissueModel::radial_artery();
        let p1 = t.surface_pressure(MillimetersHg(50.0), 1e-3).value();
        let p2 = t.surface_pressure(MillimetersHg(100.0), 1e-3).value();
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vessel_offset_moves_the_peak() {
        let t = TissueModel::radial_artery().with_vessel_offset(1.5e-3);
        let p = MillimetersHg(100.0);
        assert!(t.surface_pressure(p, 1.5e-3) > t.surface_pressure(p, 0.0));
        assert_eq!(t.vessel_x(), 1.5e-3);
    }

    #[test]
    fn array_scale_contrast_exists_but_is_small() {
        // Across the 150 µm pitch the field must differ measurably (for
        // element selection) but not by an order of magnitude.
        let t = TissueModel::radial_artery().with_vessel_offset(-2.0e-3);
        let p = MillimetersHg(100.0);
        let a = t.surface_pressure(p, -75e-6).value();
        let b = t.surface_pressure(p, 75e-6).value();
        assert!(a > b, "element closer to the vessel sees more pressure");
        let contrast = (a - b) / a;
        assert!(
            (1e-4..0.3).contains(&contrast),
            "pitch-scale contrast {contrast}"
        );
    }

    #[test]
    fn field_snapshot_implements_pressure_field() {
        let t = TissueModel::radial_artery();
        let field = t.field(MillimetersHg(120.0));
        let via_field = field.pressure_at(0.5e-3, 123.0);
        let direct = t.surface_pressure(MillimetersHg(120.0), 0.5e-3);
        assert_eq!(via_field, direct, "y must be ignored (vessel along y)");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(TissueModel::new(Meters(0.0), 0.0, 0.5, Meters(4e-3), Meters(1e-3)).is_err());
        assert!(TissueModel::new(Meters(2e-3), 0.0, 0.0, Meters(4e-3), Meters(1e-3)).is_err());
        assert!(TissueModel::new(Meters(2e-3), 0.0, 1.5, Meters(4e-3), Meters(1e-3)).is_err());
        assert!(TissueModel::new(Meters(2e-3), f64::NAN, 0.5, Meters(4e-3), Meters(1e-3)).is_err());
        assert!(TissueModel::new(Meters(-1.0), 0.0, 0.5, Meters(4e-3), Meters(1e-3)).is_err());
    }
}
