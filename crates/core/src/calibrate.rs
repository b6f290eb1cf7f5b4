//! Two-point cuff calibration (paper §3.2, Fig. 9).
//!
//! "The acquired signal is relative to the pressure applied to the skin
//! surface … In order to get absolute pressure values, a calibration has
//! to be performed. This calibration can be accomplished by measuring the
//! systolic and diastolic pressure with a conventional hand cuff device."
//!
//! The calibration is affine: the raw waveform's mean beat maximum is
//! pinned to the cuff's systolic reading and the mean beat minimum to the
//! diastolic reading. Everything in the readout chain up to here is
//! linear in pressure to first order, so two points suffice — exactly the
//! paper's procedure.

use tonos_mems::units::MillimetersHg;
use tonos_physio::cuff::CuffReading;

use crate::analyze::WaveformAnalysis;
use crate::SystemError;

/// An affine raw→mmHg calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// mmHg per raw unit.
    pub gain: f64,
    /// mmHg at raw zero.
    pub offset: f64,
}

impl Calibration {
    /// Builds the calibration from raw systolic/diastolic landmarks and a
    /// cuff reference reading.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::CalibrationFailed`] when the raw span is
    /// degenerate (flat signal) or the cuff reading is non-physiological
    /// (systolic ≤ diastolic).
    pub fn from_two_point(
        raw_systolic: f64,
        raw_diastolic: f64,
        reference: &CuffReading,
    ) -> Result<Self, SystemError> {
        let raw_span = raw_systolic - raw_diastolic;
        if !(raw_span.abs() > 1e-12) || !raw_span.is_finite() {
            return Err(SystemError::CalibrationFailed(format!(
                "degenerate raw span {raw_span}"
            )));
        }
        let ref_span = reference.systolic.value() - reference.diastolic.value();
        if ref_span <= 0.0 {
            return Err(SystemError::CalibrationFailed(format!(
                "cuff reading {}/{} is non-physiological",
                reference.systolic.value(),
                reference.diastolic.value()
            )));
        }
        let gain = ref_span / raw_span;
        let offset = reference.diastolic.value() - gain * raw_diastolic;
        Ok(Calibration { gain, offset })
    }

    /// Calibrates a waveform segment directly: detects beats in the raw
    /// signal, uses the mean beat extrema as the two points.
    ///
    /// # Errors
    ///
    /// Propagates beat-detection failures and two-point construction
    /// failures.
    pub fn from_waveform(
        raw: &[f64],
        sample_rate: f64,
        reference: &CuffReading,
    ) -> Result<Self, SystemError> {
        let analysis = WaveformAnalysis::from_samples(raw, sample_rate)?;
        Calibration::from_two_point(analysis.mean_systolic, analysis.mean_diastolic, reference)
    }

    /// Converts one raw sample to absolute pressure.
    pub fn apply(&self, raw: f64) -> MillimetersHg {
        MillimetersHg(self.gain * raw + self.offset)
    }

    /// Inverts the calibration (mmHg → raw), for synthesis/testing.
    pub fn invert(&self, pressure: MillimetersHg) -> f64 {
        (pressure.value() - self.offset) / self.gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(sys: f64, dia: f64) -> CuffReading {
        CuffReading {
            time_s: 30.0,
            systolic: MillimetersHg(sys),
            diastolic: MillimetersHg(dia),
        }
    }

    #[test]
    fn pins_both_landmarks_exactly() {
        let cal = Calibration::from_two_point(0.8, 0.2, &reading(120.0, 80.0)).unwrap();
        assert!((cal.apply(0.8).value() - 120.0).abs() < 1e-12);
        assert!((cal.apply(0.2).value() - 80.0).abs() < 1e-12);
        // Midpoint maps linearly.
        assert!((cal.apply(0.5).value() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn negative_gain_chains_are_supported() {
        // A readout that decreases with pressure still calibrates (gain
        // just comes out negative).
        let cal = Calibration::from_two_point(-0.3, 0.3, &reading(120.0, 80.0)).unwrap();
        assert!(cal.gain < 0.0);
        assert!((cal.apply(-0.3).value() - 120.0).abs() < 1e-12);
        assert!((cal.apply(0.3).value() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn affine_invariance_of_the_raw_signal() {
        // Scaling/offsetting the raw signal must produce the same
        // calibrated output.
        let raw: Vec<f64> = (0..100)
            .map(|i| 0.5 + 0.3 * ((i as f64) * 0.2).sin())
            .collect();
        let cal_a = Calibration::from_two_point(0.8, 0.2, &reading(120.0, 80.0)).unwrap();
        // Transformed raw: r' = 3 r + 5 → landmarks transform likewise.
        let cal_b =
            Calibration::from_two_point(3.0 * 0.8 + 5.0, 3.0 * 0.2 + 5.0, &reading(120.0, 80.0))
                .unwrap();
        for &r in &raw {
            let a = cal_a.apply(r).value();
            let b = cal_b.apply(3.0 * r + 5.0).value();
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn invert_round_trips() {
        let cal = Calibration::from_two_point(1.5, 0.5, &reading(130.0, 85.0)).unwrap();
        for &mmhg in &[60.0, 85.0, 100.0, 130.0, 180.0] {
            let raw = cal.invert(MillimetersHg(mmhg));
            assert!((cal.apply(raw).value() - mmhg).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(matches!(
            Calibration::from_two_point(0.5, 0.5, &reading(120.0, 80.0)),
            Err(SystemError::CalibrationFailed(_))
        ));
        assert!(matches!(
            Calibration::from_two_point(0.8, 0.2, &reading(80.0, 120.0)),
            Err(SystemError::CalibrationFailed(_))
        ));
        assert!(matches!(
            Calibration::from_two_point(f64::NAN, 0.2, &reading(120.0, 80.0)),
            Err(SystemError::CalibrationFailed(_))
        ));
    }

    #[test]
    fn from_waveform_uses_beat_landmarks() {
        // Synthesize a raw pulse train between 0.2 and 0.8 raw units.
        let fs = 250.0;
        let n = (fs * 15.0) as usize;
        let raw: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let beat = ((2.0 * std::f64::consts::PI * 1.2 * t).sin())
                    .max(0.0)
                    .powi(2);
                0.2 + 0.6 * beat
            })
            .collect();
        let cal = Calibration::from_waveform(&raw, fs, &reading(120.0, 80.0)).unwrap();
        let top = cal.apply(0.8).value();
        let bottom = cal.apply(0.2).value();
        assert!((top - 120.0).abs() < 3.0, "systolic mapped to {top}");
        assert!((bottom - 80.0).abs() < 3.0, "diastolic mapped to {bottom}");
    }
}
