//! Deflection-dependent capacitance of one membrane element.
//!
//! The transducer capacitance is formed between the membrane's second-metal
//! top electrode and the polysilicon bottom electrode on the substrate
//! (paper Fig. 2). As the membrane deflects toward the substrate the local
//! gap shrinks and the capacitance rises; the readout ΣΔ-modulator converts
//! the difference against an on-chip reference capacitor.
//!
//! The capacitance is evaluated by numerically integrating the
//! parallel-plate density over the deflected profile,
//!
//! ```text
//! C(w0) = C_par + ε0 ∬_electrode dA / (g_eff − w(x, y)),
//! ```
//!
//! where `g_eff` is the structural air gap plus the dielectric stack's
//! equivalent series gap (`t_diel / εr`) and `w(x,y)` the clamped-plate
//! profile from [`crate::plate`]. Touch-mode operation (deflection reaching
//! the air gap) is rejected with [`MemsError::MembraneCollapse`]: the
//! paper's device never operates collapsed.

use crate::plate::SquarePlate;
use crate::units::{Farads, Meters, Pascals, EPSILON_0};
use crate::MemsError;

/// Electrode and gap geometry of a membrane capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectrodeGeometry {
    /// Side length of the (square, centered) top electrode. Must not exceed
    /// the membrane side.
    pub electrode_side: Meters,
    /// Structural air gap between the membrane underside and the dielectric
    /// covering the bottom electrode; the deflection budget before touch.
    pub air_gap: Meters,
    /// Equivalent series gap of the dielectric layers between the
    /// electrodes (`t_diel / εr`); it never closes, so the capacitance
    /// stays finite even near touch.
    pub dielectric_gap: Meters,
    /// Deflection-independent parasitic (interconnect, fringe) capacitance.
    pub parasitic: Farads,
}

impl ElectrodeGeometry {
    /// Geometry matching the paper's 0.8 µm CMOS process: an 80 µm square
    /// metal-2 electrode inside the 100 µm membrane, a 1 µm sacrificial
    /// metal-1 air gap, a 0.25 µm equivalent dielectric gap, and 20 fF of
    /// parasitics.
    pub fn paper_default() -> Self {
        ElectrodeGeometry {
            electrode_side: Meters::from_microns(80.0),
            air_gap: Meters::from_microns(1.0),
            dielectric_gap: Meters::from_microns(0.25),
            parasitic: Farads::from_femtofarads(20.0),
        }
    }
}

impl Default for ElectrodeGeometry {
    fn default() -> Self {
        ElectrodeGeometry::paper_default()
    }
}

/// A single membrane capacitor: plate mechanics plus electrode geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MembraneCapacitor {
    plate: SquarePlate,
    geometry: ElectrodeGeometry,
    /// Simpson integration intervals per axis (even, ≥ 2).
    grid: usize,
}

/// Default Simpson grid (intervals per axis).
const DEFAULT_GRID: usize = 32;

impl MembraneCapacitor {
    /// Combines plate mechanics and electrode geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidGeometry`] when the electrode is larger
    /// than the membrane or any gap is non-positive.
    pub fn new(plate: SquarePlate, geometry: ElectrodeGeometry) -> Result<Self, MemsError> {
        if geometry.electrode_side.value() <= 0.0 {
            return Err(MemsError::InvalidGeometry(
                "electrode side must be positive".into(),
            ));
        }
        if geometry.electrode_side.value() > plate.side().value() {
            return Err(MemsError::InvalidGeometry(format!(
                "electrode side {:.1} um exceeds membrane side {:.1} um",
                geometry.electrode_side.to_microns(),
                plate.side().to_microns()
            )));
        }
        if geometry.air_gap.value() <= 0.0 || geometry.dielectric_gap.value() <= 0.0 {
            return Err(MemsError::InvalidGeometry(
                "air gap and dielectric gap must be positive".into(),
            ));
        }
        if geometry.parasitic.value() < 0.0 {
            return Err(MemsError::InvalidGeometry(
                "parasitic capacitance cannot be negative".into(),
            ));
        }
        Ok(MembraneCapacitor {
            plate,
            geometry,
            grid: DEFAULT_GRID,
        })
    }

    /// The paper's element: 100 µm CMOS membrane with the default
    /// electrode geometry.
    pub fn paper_default() -> Self {
        MembraneCapacitor::new(
            SquarePlate::paper_default(),
            ElectrodeGeometry::paper_default(),
        )
        .expect("paper geometry is valid")
    }

    /// Overrides the Simpson integration grid (intervals per axis).
    ///
    /// # Panics
    ///
    /// Panics if `grid` is odd or zero (Simpson's rule needs an even,
    /// positive interval count).
    pub fn with_grid(mut self, grid: usize) -> Self {
        assert!(
            grid >= 2 && grid.is_multiple_of(2),
            "Simpson grid must be even and >= 2"
        );
        self.grid = grid;
        self
    }

    /// The mechanical plate model.
    pub fn plate(&self) -> &SquarePlate {
        &self.plate
    }

    /// The electrode geometry.
    pub fn geometry(&self) -> &ElectrodeGeometry {
        &self.geometry
    }

    /// Capacitance with the membrane held at a given center deflection.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::MembraneCollapse`] when the deflection reaches
    /// the air gap (touch mode).
    pub fn capacitance_at_deflection(&self, w0: Meters) -> Result<Farads, MemsError> {
        if w0.value() >= self.geometry.air_gap.value() {
            return Err(MemsError::MembraneCollapse {
                deflection: w0,
                gap: self.geometry.air_gap,
                pressure: self.plate.pressure_for_deflection(w0),
            });
        }
        let g_eff = self.geometry.air_gap.value() + self.geometry.dielectric_gap.value();
        let half = self.geometry.electrode_side.value() / 2.0;
        let n = self.grid;
        let h = self.geometry.electrode_side.value() / n as f64;

        // Separable Simpson weights over the square electrode.
        let weight = |i: usize| -> f64 {
            if i == 0 || i == n {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            }
        };

        // The mode shape is separable, so φ is evaluated once per grid
        // line; each point's deflection keeps `deflection_at`'s
        // (w0·φ(x))·φ(y) order, so the sum is bit-identical to the
        // per-point formula.
        let phi: Vec<f64> = (0..=n)
            .map(|i| self.plate.mode_shape(-half + i as f64 * h))
            .collect();
        let mut integral = 0.0;
        for (i, &phi_x) in phi.iter().enumerate() {
            let wx = weight(i);
            let w0_phi_x = w0.value() * phi_x;
            for (j, &phi_y) in phi.iter().enumerate() {
                integral += wx * weight(j) / (g_eff - w0_phi_x * phi_y);
            }
        }
        integral *= (h / 3.0) * (h / 3.0);
        Ok(Farads(EPSILON_0 * integral) + self.geometry.parasitic)
    }

    /// Capacitance under a net applied pressure (positive toward the
    /// bottom electrode).
    ///
    /// # Errors
    ///
    /// Propagates [`MemsError::MembraneCollapse`] for loads that close the
    /// air gap and [`MemsError::SolveDiverged`] for non-finite pressure.
    pub fn capacitance(&self, pressure: Pascals) -> Result<Farads, MemsError> {
        let w0 = self.plate.center_deflection(pressure)?;
        self.capacitance_at_deflection(w0).map_err(|e| match e {
            // Attach the actual pressure to the collapse report.
            MemsError::MembraneCollapse {
                deflection, gap, ..
            } => MemsError::MembraneCollapse {
                deflection,
                gap,
                pressure,
            },
            other => other,
        })
    }

    /// Capacitance at rest (zero net pressure).
    pub fn rest_capacitance(&self) -> Farads {
        self.capacitance(Pascals(0.0))
            .expect("zero load cannot collapse the membrane")
    }

    /// Small-signal pressure sensitivity `dC/dp` (F/Pa) at a bias pressure,
    /// via a symmetric finite difference sized to the physiological scale
    /// (±10 Pa ≈ ±0.075 mmHg).
    ///
    /// # Errors
    ///
    /// Propagates capacitance-evaluation errors at the probe points.
    pub fn pressure_sensitivity(&self, bias: Pascals) -> Result<f64, MemsError> {
        let dp = 10.0;
        let hi = self.capacitance(Pascals(bias.value() + dp))?;
        let lo = self.capacitance(Pascals(bias.value() - dp))?;
        Ok((hi.value() - lo.value()) / (2.0 * dp))
    }

    /// The net pressure at which the membrane would touch the bottom of
    /// the cavity (collapse load), from the forward load–deflection
    /// relation evaluated at the air gap.
    pub fn collapse_pressure(&self) -> Pascals {
        self.plate.pressure_for_deflection(self.geometry.air_gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SensorArray;
    use crate::units::MillimetersHg;

    fn cap() -> MembraneCapacitor {
        MembraneCapacitor::paper_default()
    }

    /// The capacitance integral stated point by point — `deflection_at`
    /// at every Simpson grid point — as the oracle for the separable
    /// evaluation.
    fn capacitance_per_point(c: &MembraneCapacitor, w0: Meters) -> f64 {
        let g = c.geometry();
        let g_eff = g.air_gap.value() + g.dielectric_gap.value();
        let half = g.electrode_side.value() / 2.0;
        let n = c.grid;
        let h = g.electrode_side.value() / n as f64;
        let weight = |i: usize| match i {
            0 => 1.0,
            i if i == n => 1.0,
            i if i % 2 == 1 => 4.0,
            _ => 2.0,
        };
        let mut integral = 0.0;
        for i in 0..=n {
            let x = -half + i as f64 * h;
            for j in 0..=n {
                let y = -half + j as f64 * h;
                let w = c.plate().deflection_at(w0, x, y).value();
                integral += weight(i) * weight(j) / (g_eff - w);
            }
        }
        integral *= (h / 3.0) * (h / 3.0);
        (Farads(EPSILON_0 * integral) + g.parasitic).value()
    }

    #[test]
    fn separable_capacitance_is_bit_identical_to_the_per_point_formula() {
        // Every element of the paper array (mismatched, at the chip's
        // grid) at each of the chip's 301 lookup-table pressures, plus
        // the run-up to touch.
        let array = SensorArray::paper_default(0xC41D).with_grid(16);
        for (_, element) in array.iter() {
            let c = element.capacitor();
            let near_touch = c.collapse_pressure().value() * 0.999;
            let loads = (0..301)
                .map(|i| -150_000.0 + i as f64 * 1000.0)
                .chain([near_touch]);
            for p in loads {
                let w0 = c.plate().center_deflection(Pascals(p)).unwrap();
                let got = c.capacitance(Pascals(p)).unwrap().value();
                assert_eq!(
                    got.to_bits(),
                    capacitance_per_point(c, w0).to_bits(),
                    "{p} Pa"
                );
            }
            // A collapsing load is still rejected.
            let crushing = Pascals(c.collapse_pressure().value() * 1.5);
            assert!(matches!(
                c.capacitance(crushing),
                Err(MemsError::MembraneCollapse { .. })
            ));
        }
    }

    #[test]
    fn rest_capacitance_matches_parallel_plate_estimate() {
        let c = cap();
        let g = c.geometry();
        let a = g.electrode_side.value();
        let ideal = EPSILON_0 * a * a / (g.air_gap.value() + g.dielectric_gap.value());
        let measured = c.rest_capacitance().value() - g.parasitic.value();
        let rel = (measured - ideal).abs() / ideal;
        assert!(
            rel < 1e-6,
            "flat membrane must match the analytic plate: {rel}"
        );
    }

    #[test]
    fn rest_capacitance_is_tens_of_femtofarads() {
        let c = cap().rest_capacitance().to_femtofarads();
        assert!((30.0..120.0).contains(&c), "rest C {c} fF implausible");
    }

    #[test]
    fn capacitance_increases_with_downward_pressure() {
        let c = cap();
        let rest = c.rest_capacitance();
        let loaded = c
            .capacitance(Pascals::from_mmhg(MillimetersHg(100.0)))
            .unwrap();
        assert!(loaded > rest);
    }

    #[test]
    fn capacitance_decreases_with_backpressure() {
        let c = cap();
        let rest = c.rest_capacitance();
        let bowed = c
            .capacitance(Pascals::from_mmhg(MillimetersHg(-100.0)))
            .unwrap();
        assert!(bowed < rest);
    }

    #[test]
    fn capacitance_is_monotone_over_the_clinical_range() {
        let c = cap();
        let mut last = f64::MIN;
        for mmhg in (-200..=300).step_by(20) {
            let v = c
                .capacitance(Pascals::from_mmhg(MillimetersHg(mmhg as f64)))
                .unwrap()
                .value();
            assert!(v > last, "not monotone at {mmhg} mmHg");
            last = v;
        }
    }

    #[test]
    fn near_touch_deflection_collapses() {
        let c = cap();
        let gap = c.geometry().air_gap;
        let err = c.capacitance_at_deflection(gap).unwrap_err();
        assert!(matches!(err, MemsError::MembraneCollapse { .. }));
        // Just below the gap is fine (dielectric gap keeps C finite).
        let ok = c.capacitance_at_deflection(gap * 0.999).unwrap();
        assert!(ok.is_finite());
        assert!(ok > c.rest_capacitance());
    }

    #[test]
    fn collapse_pressure_is_far_above_clinical_range() {
        let c = cap();
        let collapse = c.collapse_pressure().to_mmhg().value();
        assert!(
            collapse > 1_000.0,
            "collapse at {collapse} mmHg would break clinical operation"
        );
        // And loading beyond it errors out.
        let err = c.capacitance(Pascals::from_mmhg(MillimetersHg(collapse * 1.2)));
        assert!(matches!(err, Err(MemsError::MembraneCollapse { .. })));
    }

    #[test]
    fn grid_refinement_converges() {
        let coarse = cap().with_grid(8);
        let fine = cap().with_grid(64);
        let p = Pascals::from_mmhg(MillimetersHg(150.0));
        let cc = coarse.capacitance(p).unwrap().value();
        let cf = fine.capacitance(p).unwrap().value();
        let rel = (cc - cf).abs() / cf;
        assert!(rel < 1e-6, "Simpson refinement moved the answer by {rel}");
    }

    #[test]
    fn sensitivity_is_positive_and_grows_with_bias() {
        let c = cap();
        let s0 = c.pressure_sensitivity(Pascals(0.0)).unwrap();
        let s1 = c
            .pressure_sensitivity(Pascals::from_mmhg(MillimetersHg(200.0)))
            .unwrap();
        assert!(s0 > 0.0);
        assert!(
            s1 > s0,
            "gap shrinks under bias, so sensitivity must grow: {s1} !> {s0}"
        );
    }

    #[test]
    fn parasitic_is_additive() {
        let base = cap();
        let mut geom = *base.geometry();
        geom.parasitic = Farads::from_femtofarads(geom.parasitic.to_femtofarads() + 10.0);
        let bumped = MembraneCapacitor::new(SquarePlate::paper_default(), geom).unwrap();
        let d =
            bumped.rest_capacitance().to_femtofarads() - base.rest_capacitance().to_femtofarads();
        assert!((d - 10.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_electrode_is_rejected() {
        let mut geom = ElectrodeGeometry::paper_default();
        geom.electrode_side = Meters::from_microns(120.0);
        let err = MembraneCapacitor::new(SquarePlate::paper_default(), geom).unwrap_err();
        assert!(matches!(err, MemsError::InvalidGeometry(_)));
    }

    #[test]
    fn non_positive_gaps_are_rejected() {
        let mut geom = ElectrodeGeometry::paper_default();
        geom.air_gap = Meters(0.0);
        assert!(MembraneCapacitor::new(SquarePlate::paper_default(), geom).is_err());
        let mut geom = ElectrodeGeometry::paper_default();
        geom.dielectric_gap = Meters(-1e-9);
        assert!(MembraneCapacitor::new(SquarePlate::paper_default(), geom).is_err());
        let mut geom = ElectrodeGeometry::paper_default();
        geom.parasitic = Farads(-1e-15);
        assert!(MembraneCapacitor::new(SquarePlate::paper_default(), geom).is_err());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_grid_panics() {
        let _ = cap().with_grid(9);
    }

    #[test]
    fn deflection_nonlinearity_beats_flat_plate_average() {
        // Integrating 1/(g - w) over the bowed profile must give *more*
        // capacitance than a flat plate displaced by the mean deflection
        // (Jensen's inequality for the convex 1/x map).
        let c = cap();
        let w0 = Meters::from_microns(0.5);
        let bowed = c.capacitance_at_deflection(w0).unwrap().value();
        // Mean deflection over the electrode area.
        let half = c.geometry().electrode_side.value() / 2.0;
        let n = 64;
        let h = 2.0 * half / n as f64;
        let mut mean = 0.0;
        for i in 0..n {
            for j in 0..n {
                let x = -half + (i as f64 + 0.5) * h;
                let y = -half + (j as f64 + 0.5) * h;
                mean += c.plate().deflection_at(w0, x, y).value();
            }
        }
        mean /= (n * n) as f64;
        let g_eff = c.geometry().air_gap.value() + c.geometry().dielectric_gap.value();
        let a = c.geometry().electrode_side.value();
        let flat = EPSILON_0 * a * a / (g_eff - mean) + c.geometry().parasitic.value();
        assert!(bowed > flat, "{bowed} !> {flat}");
    }
}
