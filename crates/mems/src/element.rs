//! A single force-sensitive element: the membrane capacitor of one cell.
//!
//! The paper calls each array cell a "square-shaped force-sensitive
//! element". Tissue contact exerts a *force* on the protruding membrane;
//! per unit membrane area that is the net *pressure* the plate model takes.

use crate::capacitor::{ElectrodeGeometry, MembraneCapacitor};
use crate::plate::SquarePlate;
use crate::units::{Farads, Pascals};
use crate::MemsError;

/// One force-sensitive membrane element of the tactile array.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceSensorElement {
    capacitor: MembraneCapacitor,
}

impl ForceSensorElement {
    /// Wraps a membrane capacitor as an array element.
    pub fn new(capacitor: MembraneCapacitor) -> Self {
        ForceSensorElement { capacitor }
    }

    /// The paper's element (100 µm membrane, default electrode geometry).
    pub fn paper_default() -> Self {
        ForceSensorElement::new(MembraneCapacitor::paper_default())
    }

    /// Builds an element from explicit plate and electrode geometry.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation from [`MembraneCapacitor::new`].
    pub fn from_parts(plate: SquarePlate, geometry: ElectrodeGeometry) -> Result<Self, MemsError> {
        Ok(ForceSensorElement::new(MembraneCapacitor::new(
            plate, geometry,
        )?))
    }

    /// The underlying membrane capacitor.
    pub fn capacitor(&self) -> &MembraneCapacitor {
        &self.capacitor
    }

    /// Overrides the capacitance-integration grid (see
    /// [`MembraneCapacitor::with_grid`]).
    ///
    /// # Panics
    ///
    /// Panics if `grid` is odd or zero.
    pub fn with_grid(self, grid: usize) -> Self {
        ForceSensorElement {
            capacitor: self.capacitor.with_grid(grid),
        }
    }

    /// Element capacitance under a net pressure load.
    ///
    /// # Errors
    ///
    /// Propagates collapse/solver errors from the capacitor model.
    pub fn capacitance(&self, pressure: Pascals) -> Result<Farads, MemsError> {
        self.capacitor.capacitance(pressure)
    }

    /// Capacitance at rest.
    pub fn rest_capacitance(&self) -> Farads {
        self.capacitor.rest_capacitance()
    }

    /// Small-signal pressure sensitivity `dC/dp` at a bias point (F/Pa).
    ///
    /// # Errors
    ///
    /// Propagates capacitance-evaluation errors at the probe points.
    pub fn pressure_sensitivity(&self, bias: Pascals) -> Result<f64, MemsError> {
        self.capacitor.pressure_sensitivity(bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Meters;

    #[test]
    fn micro_newton_forces_are_resolvable() {
        // The tactile application works at micronewton-scale contact
        // forces: 1 µN over the 100 µm membrane = 100 Pa ≈ 0.75 mmHg.
        let e = ForceSensorElement::paper_default();
        let rest = e.rest_capacitance();
        let c = e.capacitance(Pascals(100.0)).unwrap();
        assert!(c > rest);
    }

    #[test]
    fn from_parts_validates_geometry() {
        let mut geom = ElectrodeGeometry::paper_default();
        geom.electrode_side = Meters::from_microns(200.0);
        assert!(ForceSensorElement::from_parts(SquarePlate::paper_default(), geom).is_err());
    }

    #[test]
    fn sensitivity_passthrough_is_consistent() {
        let e = ForceSensorElement::paper_default();
        let s_elem = e.pressure_sensitivity(Pascals(0.0)).unwrap();
        let s_cap = e.capacitor().pressure_sensitivity(Pascals(0.0)).unwrap();
        assert_eq!(s_elem, s_cap);
    }
}
