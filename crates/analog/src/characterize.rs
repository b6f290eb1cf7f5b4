//! Static (DC) characterization of a ΣΔ converter.
//!
//! The paper's chip has the auxiliary voltage input specifically so "a
//! full characterization of the analog to digital conversion … can be
//! accomplished" (§3). Dynamic metrics (SNR/ENOB) live in
//! `tonos_dsp::metrics`; this module provides the *static* side every
//! datasheet reports: the DC transfer curve, best-fit gain and offset,
//! and integral nonlinearity (INL).
//!
//! The measurement procedure mirrors hardware practice: hold a DC input,
//! let the decimation chain settle, average the settled output, repeat
//! across the range, then fit a least-squares line and report residuals.

use tonos_dsp::bits::PackedBits;

use crate::modulator::DeltaSigmaModulator;
use crate::AnalogError;

/// One point of the DC transfer curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPoint {
    /// Applied DC input, full-scale units.
    pub input: f64,
    /// Averaged settled output, full-scale units.
    pub output: f64,
    /// Deviation from the best-fit line, in output LSB.
    pub inl_lsb: f64,
}

/// A measured DC transfer curve with its line fit.
#[derive(Debug, Clone, PartialEq)]
pub struct DcTransfer {
    /// Measured points in input order.
    pub points: Vec<TransferPoint>,
    /// Best-fit gain (ideal 1.0).
    pub gain: f64,
    /// Best-fit offset in full-scale units.
    pub offset: f64,
    /// Worst |INL| across the range, in LSB.
    pub worst_inl_lsb: f64,
    /// The LSB weight used for INL scaling.
    pub lsb: f64,
}

impl DcTransfer {
    /// Measures the transfer curve of a modulator through a caller-
    /// supplied decimation function.
    ///
    /// `decimate` receives the packed bitstream for one DC point and must
    /// return the *settled mean output* (full-scale units) — typically a
    /// `tonos_dsp` two-stage decimator with the transient discarded. The
    /// modulator is reset before every point so points are independent.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for fewer than 3 points,
    /// a non-positive range or samples count, a non-positive LSB, or a
    /// degenerate fit.
    pub fn measure<M, F>(
        dsm: &mut M,
        points: usize,
        range: f64,
        samples_per_point: usize,
        lsb: f64,
        mut decimate: F,
    ) -> Result<Self, AnalogError>
    where
        M: DeltaSigmaModulator,
        F: FnMut(&PackedBits) -> f64,
    {
        if points < 3 {
            return Err(AnalogError::InvalidParameter(
                "need at least 3 transfer points".into(),
            ));
        }
        if !(range > 0.0 && range < 1.0) {
            return Err(AnalogError::InvalidParameter(format!(
                "range {range} must be in (0, 1)"
            )));
        }
        if samples_per_point == 0 {
            return Err(AnalogError::InvalidParameter(
                "samples per point must be positive".into(),
            ));
        }
        if !(lsb > 0.0) {
            return Err(AnalogError::InvalidParameter("LSB must be positive".into()));
        }

        let mut inputs = Vec::with_capacity(points);
        let mut outputs = Vec::with_capacity(points);
        // One stimulus and one bitstream buffer reused across all points.
        let mut stimulus = vec![0.0; samples_per_point];
        let mut bits = PackedBits::with_capacity(samples_per_point);
        for i in 0..points {
            let u = -range + 2.0 * range * i as f64 / (points - 1) as f64;
            dsm.reset();
            stimulus.fill(u);
            bits.clear();
            dsm.step_block(&stimulus, &mut bits);
            inputs.push(u);
            outputs.push(decimate(&bits));
        }

        // Least-squares line fit.
        let n = points as f64;
        let sx: f64 = inputs.iter().sum();
        let sy: f64 = outputs.iter().sum();
        let sxx: f64 = inputs.iter().map(|x| x * x).sum();
        let sxy: f64 = inputs.iter().zip(&outputs).map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-18 {
            return Err(AnalogError::InvalidParameter(
                "degenerate input spacing".into(),
            ));
        }
        let gain = (n * sxy - sx * sy) / denom;
        let offset = (sy - gain * sx) / n;

        let mut worst = 0.0_f64;
        let measured: Vec<TransferPoint> = inputs
            .iter()
            .zip(&outputs)
            .map(|(&input, &output)| {
                let inl_lsb = (output - (gain * input + offset)) / lsb;
                worst = worst.max(inl_lsb.abs());
                TransferPoint {
                    input,
                    output,
                    inl_lsb,
                }
            })
            .collect();

        Ok(DcTransfer {
            points: measured,
            gain,
            offset,
            worst_inl_lsb: worst,
            lsb,
        })
    }

    /// Offset expressed in LSB.
    pub fn offset_lsb(&self) -> f64 {
        self.offset / self.lsb
    }

    /// Gain error relative to unity, in percent.
    pub fn gain_error_percent(&self) -> f64 {
        (self.gain - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::SigmaDelta2;
    use crate::nonideal::NonIdealities;

    /// Decimation stand-in for unit tests: the mean of the bitstream tail
    /// (charge balance makes it the converter's DC output).
    fn tail_mean(bits: &PackedBits) -> f64 {
        let skip = bits.len() / 4;
        let tail = bits.iter().skip(skip).map(|b| if b { 1.0 } else { -1.0 });
        tail.sum::<f64>() / (bits.len() - skip) as f64
    }

    #[test]
    fn ideal_loop_measures_near_unity_gain_and_zero_offset() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let t = DcTransfer::measure(&mut dsm, 9, 0.8, 60_000, 1.0 / 2048.0, tail_mean).unwrap();
        assert!((t.gain - 1.0).abs() < 0.01, "gain {}", t.gain);
        assert!(t.offset_lsb().abs() < 6.0, "offset {} LSB", t.offset_lsb());
        assert!(t.worst_inl_lsb < 6.0, "INL {} LSB", t.worst_inl_lsb);
        assert_eq!(t.points.len(), 9);
        // Points span the requested range symmetrically.
        assert!((t.points[0].input + 0.8).abs() < 1e-12);
        assert!((t.points[8].input - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dac_level_mismatch_appears_as_gain_or_offset_not_inl() {
        let mut dsm =
            SigmaDelta2::new(NonIdealities::ideal().with_dac_level_mismatch(0.02)).unwrap();
        let t = DcTransfer::measure(&mut dsm, 9, 0.8, 60_000, 1.0 / 2048.0, tail_mean).unwrap();
        // The 2 % level error must show up in the affine terms…
        assert!(
            (t.gain - 1.0).abs() > 0.005 || t.offset_lsb().abs() > 10.0,
            "mismatch hidden: gain {} offset {} LSB",
            t.gain,
            t.offset_lsb()
        );
        // …while the INL stays at the quantization scale (1-bit linearity).
        assert!(t.worst_inl_lsb < 8.0, "INL {} LSB", t.worst_inl_lsb);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let lsb = 1.0 / 2048.0;
        assert!(DcTransfer::measure(&mut dsm, 2, 0.8, 100, lsb, tail_mean).is_err());
        assert!(DcTransfer::measure(&mut dsm, 5, 0.0, 100, lsb, tail_mean).is_err());
        assert!(DcTransfer::measure(&mut dsm, 5, 1.5, 100, lsb, tail_mean).is_err());
        assert!(DcTransfer::measure(&mut dsm, 5, 0.8, 0, lsb, tail_mean).is_err());
        assert!(DcTransfer::measure(&mut dsm, 5, 0.8, 100, 0.0, tail_mean).is_err());
    }

    #[test]
    fn accessors_are_consistent() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let t = DcTransfer::measure(&mut dsm, 5, 0.5, 30_000, 1.0 / 2048.0, tail_mean).unwrap();
        assert!((t.offset_lsb() - t.offset / t.lsb).abs() < 1e-15);
        assert!((t.gain_error_percent() - (t.gain - 1.0) * 100.0).abs() < 1e-12);
    }
}
