//! Temperature dependence of the membrane transducer.
//!
//! The paper's outlook calls for field tests of "reliability and
//! stability" — and the dominant slow instability of a capacitive CMOS
//! membrane is *thermal*: the aluminum layer's large thermal-expansion
//! mismatch against the silicon substrate re-biases the laminate's
//! residual stress with temperature, shifting the membrane's stiffness
//! and therefore its deflection under bias. A skin-contact sensor swings
//! over roughly 25–37 °C between bench and body.
//!
//! Model (first-order, per layer `i`):
//!
//! * stress: `σᵢ(T) = σᵢ(T₀) + E'ᵢ·(α_substrate − αᵢ)·ΔT` — the biaxial
//!   thermal-mismatch stress of a film on a thick substrate;
//! * modulus: `Eᵢ(T) = Eᵢ(T₀)·(1 + κ·ΔT)` with the typical
//!   `κ = −60 ppm/K` softening.
//!
//! The resulting capacitance drift is converted to an *equivalent input
//! pressure* so the system experiments can report it in mmHg — the unit
//! in which a monitoring session would mis-read after a temperature
//! step, and the direct motivation for the periodic cuff recalibration
//! implemented in `tonos-core`.

use crate::capacitor::{ElectrodeGeometry, MembraneCapacitor};
use crate::material::{Laminate, Layer};
use crate::plate::SquarePlate;
use crate::units::{Farads, Meters, Pascals, StressPa};
use crate::MemsError;

/// CTE of the (thick) silicon substrate, 1/K.
pub const SILICON_CTE: f64 = 2.6e-6;

/// Typical Young's-modulus temperature coefficient, 1/K.
pub const MODULUS_TEMPCO: f64 = -60e-6;

/// Temperature-dependent membrane model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    layers: Vec<Layer>,
    side: Meters,
    geometry: ElectrodeGeometry,
    /// Temperature at which the nominal laminate properties hold, °C.
    reference_temp_c: f64,
}

impl ThermalModel {
    /// Builds a thermal model around a nominal stack.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidGeometry`] when the nominal stack or
    /// geometry is invalid at the reference temperature.
    pub fn new(
        layers: Vec<Layer>,
        side: Meters,
        geometry: ElectrodeGeometry,
        reference_temp_c: f64,
    ) -> Result<Self, MemsError> {
        // Validate eagerly at the reference point.
        let laminate = Laminate::new(layers.clone())?;
        let plate = SquarePlate::new(side, laminate)?;
        MembraneCapacitor::new(plate, geometry)?;
        Ok(ThermalModel {
            layers,
            side,
            geometry,
            reference_temp_c,
        })
    }

    /// The paper's membrane, referenced to a 25 °C lab bench.
    pub fn paper_default() -> Self {
        ThermalModel::new(
            Laminate::cmos_membrane().layers().to_vec(),
            Meters::from_microns(100.0),
            ElectrodeGeometry::paper_default(),
            25.0,
        )
        .expect("paper stack is valid")
    }

    /// Reference temperature in °C.
    pub fn reference_temp_c(&self) -> f64 {
        self.reference_temp_c
    }

    /// The membrane capacitor at a given temperature.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidGeometry`] if the temperature shift
    /// buckles the membrane (extreme, non-physical inputs only).
    pub fn capacitor_at(&self, temp_c: f64) -> Result<MembraneCapacitor, MemsError> {
        let dt = temp_c - self.reference_temp_c;
        let shifted: Vec<Layer> = self
            .layers
            .iter()
            .map(|layer| {
                let mut material = layer.material;
                let mismatch_stress = material.plane_strain_modulus()
                    * (SILICON_CTE - material.thermal_expansion)
                    * dt;
                material.residual_stress =
                    StressPa(material.residual_stress.value() + mismatch_stress);
                material.youngs_modulus *= 1.0 + MODULUS_TEMPCO * dt;
                Layer::new(material, layer.thickness)
            })
            .collect();
        let laminate = Laminate::new(shifted)?;
        let plate = SquarePlate::new(self.side, laminate)?;
        MembraneCapacitor::new(plate, self.geometry)
    }

    /// Capacitance change versus the reference temperature, at a bias
    /// pressure.
    ///
    /// # Errors
    ///
    /// Propagates capacitance-evaluation failures.
    pub fn baseline_shift(&self, temp_c: f64, bias: Pascals) -> Result<Farads, MemsError> {
        let hot = self.capacitor_at(temp_c)?.capacitance(bias)?;
        let nominal = self
            .capacitor_at(self.reference_temp_c)?
            .capacitance(bias)?;
        Ok(Farads(hot.value() - nominal.value()))
    }

    /// The input-referred pressure error a temperature change produces:
    /// the capacitance shift divided by the pressure sensitivity at the
    /// bias point. This is what a calibrated blood-pressure reading
    /// drifts by when the die temperature moves.
    ///
    /// # Errors
    ///
    /// Propagates capacitance-evaluation failures.
    pub fn equivalent_pressure_drift(
        &self,
        temp_c: f64,
        bias: Pascals,
    ) -> Result<Pascals, MemsError> {
        let shift = self.baseline_shift(temp_c, bias)?;
        let sensitivity = self
            .capacitor_at(self.reference_temp_c)?
            .pressure_sensitivity(bias)?;
        Ok(Pascals(shift.value() / sensitivity))
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MillimetersHg;

    fn bias() -> Pascals {
        // The wrist operating point (≈ 230 mmHg membrane load).
        Pascals::from_mmhg(MillimetersHg(230.0))
    }

    #[test]
    fn reference_temperature_shows_zero_shift() {
        let t = ThermalModel::paper_default();
        let shift = t.baseline_shift(25.0, bias()).unwrap();
        assert_eq!(shift.value(), 0.0);
    }

    #[test]
    fn heating_softens_the_membrane() {
        // Aluminum expands far more than silicon, so heating makes the
        // net film stress more compressive → softer membrane → larger
        // deflection under the same bias → more capacitance.
        let t = ThermalModel::paper_default();
        let c25 = t.capacitor_at(25.0).unwrap();
        let c37 = t.capacitor_at(37.0).unwrap();
        assert!(
            c37.plate().linear_stiffness() < c25.plate().linear_stiffness(),
            "body heat must soften the stack"
        );
        let shift = t.baseline_shift(37.0, bias()).unwrap();
        assert!(shift.value() > 0.0, "capacitance rises with temperature");
    }

    #[test]
    fn bench_to_body_drift_is_millimeters_of_mercury() {
        // 25 °C → 37 °C: the equivalent pressure drift should be in the
        // single-mmHg band — small, but clinically relevant for a
        // calibrated reading, motivating periodic recalibration.
        let t = ThermalModel::paper_default();
        let drift = t.equivalent_pressure_drift(37.0, bias()).unwrap();
        let mmhg = drift.to_mmhg().value();
        assert!(
            (0.2..30.0).contains(&mmhg),
            "25→37 °C drift {mmhg:.2} mmHg out of plausible band"
        );
    }

    #[test]
    fn drift_is_monotone_and_roughly_linear_in_temperature() {
        let t = ThermalModel::paper_default();
        let d5 = t.equivalent_pressure_drift(30.0, bias()).unwrap().value();
        let d10 = t.equivalent_pressure_drift(35.0, bias()).unwrap().value();
        let d15 = t.equivalent_pressure_drift(40.0, bias()).unwrap().value();
        assert!(d5 < d10 && d10 < d15, "monotone heating drift");
        // Linearity within 20 %.
        assert!(
            (d10 - 2.0 * d5).abs() < 0.2 * d10.abs(),
            "drift strongly nonlinear: {d5} {d10}"
        );
        let _ = d15;
    }

    #[test]
    fn cooling_has_the_opposite_sign() {
        let t = ThermalModel::paper_default();
        let hot = t.baseline_shift(40.0, bias()).unwrap();
        let cold = t.baseline_shift(10.0, bias()).unwrap();
        assert!(hot.value() > 0.0);
        assert!(cold.value() < 0.0);
    }

    #[test]
    fn extreme_temperatures_buckle_loudly() {
        // Hundreds of kelvin of heating eventually drive the net stress
        // compressive enough to buckle — which must be a typed error.
        let t = ThermalModel::paper_default();
        let mut failed = false;
        for temp in (100..3000).step_by(100) {
            if t.capacitor_at(temp as f64).is_err() {
                failed = true;
                break;
            }
        }
        assert!(
            failed,
            "the model must refuse a buckled membrane eventually"
        );
    }
}
