//! Q-format fixed-point helpers for FPGA word-length modeling.
//!
//! The paper's decimation filter runs in an FPGA, i.e. in fixed-point
//! arithmetic. [`QFormat`] describes a signed two's-complement format with
//! a given number of fractional bits and total width; [`Fixed`] is a value
//! in such a format with saturating conversion from `f64`. The
//! fixed-point decimator ablation (DESIGN.md A4) uses these to show how
//! coefficient word length affects the reproduced SNR.

use crate::DspError;

/// A signed fixed-point format: `total_bits` wide with `frac_bits`
/// fractional bits (Q notation: Q(total-frac-1).(frac)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    /// Total width in bits, including the sign (2..=63).
    pub total_bits: u32,
    /// Fractional bits (0..total_bits).
    pub frac_bits: u32,
}

impl QFormat {
    /// Creates a format after validating the widths.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for widths outside 2..=63
    /// or `frac_bits >= total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Result<Self, DspError> {
        if !(2..=63).contains(&total_bits) {
            return Err(DspError::InvalidParameter(format!(
                "total bits {total_bits} must be in 2..=63"
            )));
        }
        if frac_bits >= total_bits {
            return Err(DspError::InvalidParameter(format!(
                "fractional bits {frac_bits} must be < total bits {total_bits}"
            )));
        }
        Ok(QFormat {
            total_bits,
            frac_bits,
        })
    }

    /// Largest representable raw value.
    pub fn max_raw(self) -> i64 {
        (1_i64 << (self.total_bits - 1)) - 1
    }

    /// Smallest representable raw value.
    pub fn min_raw(self) -> i64 {
        -(1_i64 << (self.total_bits - 1))
    }

    /// The weight of one LSB.
    pub fn lsb(self) -> f64 {
        1.0 / (1_i64 << self.frac_bits) as f64
    }

    /// Largest representable real value.
    pub fn max_value(self) -> f64 {
        self.max_raw() as f64 * self.lsb()
    }

    /// Smallest representable real value.
    pub fn min_value(self) -> f64 {
        self.min_raw() as f64 * self.lsb()
    }
}

/// Running tally of fixed-point saturation events.
///
/// [`Fixed`] values are `Copy` and carry no history, so saturation
/// accounting is explicit: conversion sites that care thread one of these
/// through [`Fixed::from_f64_counted`] (or read the tally returned by
/// [`quantize_coefficients_counted`]) and surface it through the
/// telemetry layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Conversions that clamped at a format limit.
    pub saturations: u64,
    /// Total conversions observed.
    pub conversions: u64,
}

impl SaturationStats {
    /// Saturated fraction of all conversions, if any were observed.
    pub fn rate(&self) -> Option<f64> {
        (self.conversions > 0).then(|| self.saturations as f64 / self.conversions as f64)
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: SaturationStats) {
        self.saturations += other.saturations;
        self.conversions += other.conversions;
    }
}

/// A value stored in a [`QFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// Quantizes an `f64` into the format, rounding to nearest and
    /// saturating at the format limits.
    pub fn from_f64(x: f64, format: QFormat) -> Self {
        let scaled = x * (1_i64 << format.frac_bits) as f64;
        let raw = if scaled.is_nan() {
            0
        } else {
            scaled
                .round()
                .clamp(format.min_raw() as f64, format.max_raw() as f64) as i64
        };
        Fixed { raw, format }
    }

    /// Like [`Fixed::from_f64`], but tallies the conversion (and whether
    /// it saturated) into `stats`.
    pub fn from_f64_counted(x: f64, format: QFormat, stats: &mut SaturationStats) -> Self {
        stats.conversions += 1;
        let rounded = (x * (1_i64 << format.frac_bits) as f64).round();
        // NaN maps to 0, which is not a clamp; only a rounded value
        // beyond the representable raw range counts as saturation.
        let in_range = rounded >= format.min_raw() as f64 && rounded <= format.max_raw() as f64;
        if !rounded.is_nan() && !in_range {
            stats.saturations += 1;
        }
        Fixed::from_f64(x, format)
    }

    /// The raw two's-complement integer.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format of this value.
    pub fn format(self) -> QFormat {
        self.format
    }

    /// The represented real value.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.format.lsb()
    }

    /// Saturating addition of two values in the same format.
    ///
    /// # Panics
    ///
    /// Panics if the operands use different formats (a static design
    /// error in filter construction, not a runtime condition).
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        assert_eq!(self.format, rhs.format, "mixed Q formats");
        let raw = (self.raw + rhs.raw).clamp(self.format.min_raw(), self.format.max_raw());
        Fixed {
            raw,
            format: self.format,
        }
    }

    /// Fixed-point multiply: full-precision product rescaled (with
    /// round-to-nearest) back into `self`'s format, saturating.
    ///
    /// # Panics
    ///
    /// Panics if the combined fractional width exceeds 62 bits.
    pub fn saturating_mul(self, rhs: Fixed) -> Fixed {
        let shift = rhs.format.frac_bits;
        assert!(
            self.format.frac_bits + shift <= 62,
            "product fractional width too large"
        );
        let prod = (self.raw as i128) * (rhs.raw as i128);
        // Round to nearest by adding half an LSB before the shift.
        let rounded = (prod + (1_i128 << (shift.max(1) - 1))) >> shift;
        let raw =
            rounded.clamp(self.format.min_raw() as i128, self.format.max_raw() as i128) as i64;
        Fixed {
            raw,
            format: self.format,
        }
    }
}

/// Quantizes a slice of coefficients into a Q format and returns both the
/// quantized real values and the worst-case quantization error.
pub fn quantize_coefficients(coeffs: &[f64], format: QFormat) -> (Vec<f64>, f64) {
    let (out, worst, _) = quantize_coefficients_counted(coeffs, format);
    (out, worst)
}

/// Like [`quantize_coefficients`], but also reports how many coefficients
/// saturated at the format limits (a word length too narrow for the
/// filter's largest tap).
pub fn quantize_coefficients_counted(
    coeffs: &[f64],
    format: QFormat,
) -> (Vec<f64>, f64, SaturationStats) {
    let mut worst = 0.0_f64;
    let mut stats = SaturationStats::default();
    let out = coeffs
        .iter()
        .map(|&c| {
            let q = Fixed::from_f64_counted(c, format, &mut stats).to_f64();
            worst = worst.max((q - c).abs());
            q
        })
        .collect();
    (out, worst, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q15() -> QFormat {
        QFormat::new(16, 15).unwrap()
    }

    #[test]
    fn format_limits_are_correct() {
        let f = q15();
        assert_eq!(f.max_raw(), 32767);
        assert_eq!(f.min_raw(), -32768);
        assert!((f.lsb() - 1.0 / 32768.0).abs() < 1e-18);
        assert!((f.max_value() - (1.0 - 1.0 / 32768.0)).abs() < 1e-12);
        assert!((f.min_value() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_within_half_lsb() {
        let f = q15();
        for &x in &[0.0, 0.123456, -0.9876, 0.5, -0.5, 0.99996] {
            let q = Fixed::from_f64(x, f);
            assert!((q.to_f64() - x).abs() <= f.lsb() / 2.0 + 1e-15, "{x}");
        }
    }

    #[test]
    fn saturation_clamps_out_of_range() {
        let f = q15();
        assert_eq!(Fixed::from_f64(5.0, f).raw(), f.max_raw());
        assert_eq!(Fixed::from_f64(-5.0, f).raw(), f.min_raw());
        assert_eq!(Fixed::from_f64(f64::NAN, f).raw(), 0);
    }

    #[test]
    fn addition_saturates() {
        let f = q15();
        let big = Fixed::from_f64(0.9, f);
        let sum = big.saturating_add(big);
        assert_eq!(sum.raw(), f.max_raw());
        let small = Fixed::from_f64(0.25, f).saturating_add(Fixed::from_f64(0.125, f));
        assert!((small.to_f64() - 0.375).abs() < f.lsb());
    }

    #[test]
    fn multiplication_rescales_correctly() {
        let f = q15();
        let a = Fixed::from_f64(0.5, f);
        let b = Fixed::from_f64(0.25, f);
        let p = a.saturating_mul(b);
        assert!((p.to_f64() - 0.125).abs() < f.lsb(), "{}", p.to_f64());
        // Negative operand.
        let n = Fixed::from_f64(-0.5, f).saturating_mul(b);
        assert!((n.to_f64() + 0.125).abs() < f.lsb());
    }

    #[test]
    fn invalid_formats_are_rejected() {
        assert!(QFormat::new(1, 0).is_err());
        assert!(QFormat::new(64, 32).is_err());
        assert!(QFormat::new(16, 16).is_err());
        assert!(QFormat::new(16, 20).is_err());
    }

    #[test]
    #[should_panic(expected = "mixed Q formats")]
    fn mixed_format_addition_panics() {
        let a = Fixed::from_f64(0.1, q15());
        let b = Fixed::from_f64(0.1, QFormat::new(12, 11).unwrap());
        let _ = a.saturating_add(b);
    }

    #[test]
    fn counted_conversion_tallies_saturations() {
        let f = q15();
        let mut stats = SaturationStats::default();
        // In range, exactly at max, beyond max, beyond min, NaN.
        let _ = Fixed::from_f64_counted(0.5, f, &mut stats);
        let _ = Fixed::from_f64_counted(f.max_value(), f, &mut stats);
        let _ = Fixed::from_f64_counted(2.0, f, &mut stats);
        let _ = Fixed::from_f64_counted(-2.0, f, &mut stats);
        let _ = Fixed::from_f64_counted(f64::NAN, f, &mut stats);
        assert_eq!(stats.conversions, 5);
        assert_eq!(stats.saturations, 2, "NaN maps to 0, not a clamp");
        assert!((stats.rate().unwrap() - 0.4).abs() < 1e-12);

        let mut total = SaturationStats::default();
        total.merge(stats);
        total.merge(stats);
        assert_eq!(total.conversions, 10);
        assert_eq!(SaturationStats::default().rate(), None);
    }

    #[test]
    fn counted_coefficient_quantization_matches_uncounted() {
        let coeffs = [0.1, -0.2, 5.0, -0.5];
        let f = QFormat::new(8, 7).unwrap();
        let (q1, worst1) = quantize_coefficients(&coeffs, f);
        let (q2, worst2, stats) = quantize_coefficients_counted(&coeffs, f);
        assert_eq!(q1, q2);
        assert_eq!(worst1, worst2);
        assert_eq!(stats.conversions, 4);
        assert_eq!(stats.saturations, 1, "only the 5.0 tap clamps");
    }

    #[test]
    fn coefficient_quantization_reports_worst_error() {
        let coeffs = [0.1, -0.2, 0.33333, 0.5];
        let f = QFormat::new(8, 7).unwrap();
        let (q, worst) = quantize_coefficients(&coeffs, f);
        assert_eq!(q.len(), 4);
        assert!(worst <= f.lsb() / 2.0 + 1e-15);
        for (a, b) in q.iter().zip(&coeffs) {
            assert!((a - b).abs() <= worst + 1e-15);
        }
        // A coarser format has a larger worst-case error.
        let (_, worst_coarse) = quantize_coefficients(&coeffs, QFormat::new(4, 3).unwrap());
        assert!(worst_coarse > worst);
    }
}
