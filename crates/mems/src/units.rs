//! Newtype quantities used throughout the sensor stack.
//!
//! All wrappers hold SI `f64` values (pascals, meters, farads, volts,
//! newtons). The one deliberate exception is [`MillimetersHg`], the clinical
//! blood-pressure unit, which converts to and from [`Pascals`] explicitly so
//! physiological and mechanical code cannot be mixed up silently
//! (C-NEWTYPE: static distinction between interpretations of `f64`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Conversion factor: one millimeter of mercury in pascals.
pub const PASCALS_PER_MMHG: f64 = 133.322_387_415;

/// Implements arithmetic, `Display`, and accessors for a unit newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $symbol:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw `f64` value in the unit's SI base.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` when the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $symbol)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Pressure in pascals (SI).
    Pascals,
    "Pa"
);
quantity!(
    /// Length in meters (SI).
    Meters,
    "m"
);
quantity!(
    /// Capacitance in farads (SI).
    Farads,
    "F"
);
quantity!(
    /// Electric potential in volts (SI).
    Volts,
    "V"
);
quantity!(
    /// Mechanical stress in pascals (SI). Distinct from [`Pascals`]
    /// (an applied load) to keep residual film stress and external
    /// pressure from being confused.
    StressPa,
    "Pa (stress)"
);
quantity!(
    /// Blood pressure in clinical millimeters of mercury.
    MillimetersHg,
    "mmHg"
);

impl Meters {
    /// Constructs a length from micrometers (the natural unit of the
    /// paper's geometry: 100 µm membranes on a 150 µm pitch).
    #[inline]
    pub fn from_microns(um: f64) -> Self {
        Meters(um * 1e-6)
    }

    /// Returns the length expressed in micrometers.
    #[inline]
    pub fn to_microns(self) -> f64 {
        self.0 * 1e6
    }

    /// Constructs a length from nanometers.
    #[inline]
    pub fn from_nanometers(nm: f64) -> Self {
        Meters(nm * 1e-9)
    }

    /// Returns the length expressed in nanometers.
    #[inline]
    pub fn to_nanometers(self) -> f64 {
        self.0 * 1e9
    }
}

impl Farads {
    /// Constructs a capacitance from femtofarads (the scale of a single
    /// membrane element, tens of fF).
    #[inline]
    pub fn from_femtofarads(ff: f64) -> Self {
        Farads(ff * 1e-15)
    }

    /// Returns the capacitance expressed in femtofarads.
    #[inline]
    pub fn to_femtofarads(self) -> f64 {
        self.0 * 1e15
    }
}

impl Pascals {
    /// Converts a clinical blood-pressure value into an SI pressure.
    #[inline]
    pub fn from_mmhg(p: MillimetersHg) -> Self {
        Pascals(p.0 * PASCALS_PER_MMHG)
    }

    /// Converts the pressure to clinical millimeters of mercury.
    #[inline]
    pub fn to_mmhg(self) -> MillimetersHg {
        MillimetersHg(self.0 / PASCALS_PER_MMHG)
    }
}

impl MillimetersHg {
    /// Converts the clinical value to an SI pressure.
    #[inline]
    pub fn to_pascals(self) -> Pascals {
        Pascals::from_mmhg(self)
    }
}

impl From<MillimetersHg> for Pascals {
    fn from(p: MillimetersHg) -> Self {
        p.to_pascals()
    }
}

impl From<Pascals> for MillimetersHg {
    fn from(p: Pascals) -> Self {
        p.to_mmhg()
    }
}

/// Vacuum permittivity in F/m.
pub const EPSILON_0: f64 = 8.854_187_812_8e-12;

/// Boltzmann constant in J/K, used for kT/C noise modeling downstream.
pub const BOLTZMANN: f64 = 1.380_649e-23;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmhg_round_trips_through_pascals() {
        let bp = MillimetersHg(120.0);
        let pa = bp.to_pascals();
        assert!((pa.value() - 15_998.7).abs() < 0.5, "got {pa}");
        let back = pa.to_mmhg();
        assert!((back.value() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn micron_conversions_are_exact_enough() {
        let side = Meters::from_microns(100.0);
        assert!((side.value() - 100e-6).abs() < 1e-18);
        assert!((side.to_microns() - 100.0).abs() < 1e-9);
        let nm = Meters::from_nanometers(250.0);
        assert!((nm.to_nanometers() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn femtofarad_conversions() {
        let c = Farads::from_femtofarads(47.0);
        assert!((c.to_femtofarads() - 47.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Pascals(100.0);
        let b = Pascals(40.0);
        assert_eq!((a + b).value(), 140.0);
        assert_eq!((a - b).value(), 60.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((2.0 * a).value(), 200.0);
        assert_eq!((a / 4.0).value(), 25.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-a).value(), -100.0);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 140.0);
        c -= b;
        assert_eq!(c.value(), 100.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Farads = [1.0, 2.0, 3.0].iter().map(|&v| Farads(v)).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn display_includes_symbol() {
        assert_eq!(format!("{}", Volts(5.0)), "5 V");
        assert_eq!(format!("{}", MillimetersHg(80.0)), "80 mmHg");
    }

    #[test]
    fn from_impls_match_explicit_conversions() {
        let p: Pascals = MillimetersHg(100.0).into();
        assert!((p.value() - 13_332.2).abs() < 0.1);
        let m: MillimetersHg = Pascals(PASCALS_PER_MMHG).into();
        assert!((m.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abs_and_is_finite() {
        assert_eq!(Pascals(-3.0).abs().value(), 3.0);
        assert!(Pascals(1.0).is_finite());
        assert!(!Pascals(f64::NAN).is_finite());
    }
}
