//! # tonos-mems — capacitive membrane transducer substrate
//!
//! Behavioral model of the micromachined sensor array from
//! *"A CMOS-Based Tactile Sensor for Continuous Blood Pressure Monitoring"*
//! (Kirstein et al., DATE'05).
//!
//! The fabricated device is a 2×2 array of square force-sensitive elements.
//! Each element is a suspended elastic membrane made of the CMOS dielectric
//! stack (silicon oxide / silicon nitride) plus aluminum metallization, with
//! the second-metal top electrode capacitively read against a polysilicon
//! bottom electrode. Paper geometry: membrane side length 100 µm, thickness
//! 3 µm, array pitch 150 µm. The membranes are released by a KOH back-etch
//! and the chip is coated with PDMS for tissue contact.
//!
//! This crate reproduces the only property of that structure the readout
//! electronics can observe: the **pressure → deflection → capacitance**
//! transfer, including
//!
//! * laminated-plate mechanics (composite flexural rigidity and residual
//!   stress of the oxide/nitride/aluminum stack) in [`plate`],
//! * numerically integrated parallel-plate capacitance over the deflected
//!   membrane profile in [`capacitor`],
//! * single elements in [`element`] and the 2×2 array plus the on-chip
//!   reference structure in [`mod@array`],
//! * PDMS contact coupling and the backside pressure tube of the measurement
//!   PCB (paper Fig. 8) in [`contact`].
//!
//! All quantities are SI `f64` values wrapped in the newtypes of [`units`].
//!
//! ## Example
//!
//! ```
//! use tonos_mems::element::ForceSensorElement;
//! use tonos_mems::units::Pascals;
//!
//! # fn main() -> Result<(), tonos_mems::MemsError> {
//! let element = ForceSensorElement::paper_default();
//! let rest = element.capacitance(Pascals(0.0))?;
//! let loaded = element.capacitance(Pascals(4_000.0))?; // ~30 mmHg
//! assert!(loaded > rest, "pressure from the top must increase capacitance");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod capacitor;
pub mod contact;
pub mod creep;
pub mod dynamics;
pub mod element;
pub mod material;
pub mod plate;
pub mod thermal;
pub mod units;

mod error;

pub use error::MemsError;
