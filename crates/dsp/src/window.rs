//! Analysis windows and coherent-sampling helpers.
//!
//! The measured spectrum of paper Fig. 7 is a windowed FFT of the
//! decimated ADC output. This module provides the classic cosine-sum
//! windows plus [`Window::coherent_frequency`], which snaps a test tone to
//! an integer number of FFT bins — the standard ADC-characterization trick
//! that removes spectral leakage entirely (and the reason the paper's test
//! frequency is the odd-looking 15.625 Hz = 1 kHz · 16/1024).

use crate::DspError;

/// Supported analysis windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// No weighting (best for exactly coherent tones).
    Rectangular,
    /// Hann (raised cosine); -31.5 dB sidelobes, ENBW 1.5 bins.
    #[default]
    Hann,
    /// Hamming; -42 dB sidelobes.
    Hamming,
    /// Blackman; -58 dB sidelobes.
    Blackman,
    /// 4-term Blackman–Harris; -92 dB sidelobes (for ≥ 14-bit converters).
    BlackmanHarris,
}

impl Window {
    /// Generates the window coefficients for an `n`-point analysis.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `n == 0`.
    pub fn coefficients(self, n: usize) -> Result<Vec<f64>, DspError> {
        if n == 0 {
            return Err(DspError::InvalidParameter(
                "window length must be positive".into(),
            ));
        }
        let m = n as f64;
        let tau = 2.0 * std::f64::consts::PI;
        let w = |terms: &[f64], i: usize| -> f64 {
            let x = i as f64 / m;
            terms
                .iter()
                .enumerate()
                .map(|(k, &a)| {
                    if k % 2 == 0 {
                        a * (tau * k as f64 * x).cos()
                    } else {
                        -a * (tau * k as f64 * x).cos()
                    }
                })
                .sum()
        };
        let coeffs = match self {
            Window::Rectangular => vec![1.0; n],
            Window::Hann => (0..n).map(|i| w(&[0.5, 0.5], i)).collect(),
            Window::Hamming => (0..n).map(|i| w(&[0.54, 0.46], i)).collect(),
            Window::Blackman => (0..n).map(|i| w(&[0.42, 0.5, 0.08], i)).collect(),
            Window::BlackmanHarris => (0..n)
                .map(|i| w(&[0.358_75, 0.488_29, 0.141_28, 0.011_68], i))
                .collect(),
        };
        Ok(coeffs)
    }

    /// Number of adjacent bins on each side of a tone that carry
    /// significant window leakage and must be attributed to the tone when
    /// integrating signal power.
    pub fn leakage_bins(self) -> usize {
        match self {
            Window::Rectangular => 0,
            Window::Hann | Window::Hamming => 2,
            Window::Blackman => 3,
            Window::BlackmanHarris => 4,
        }
    }

    /// Snaps `target_hz` to the nearest frequency that is an integer (and,
    /// when possible, odd — avoiding shared factors with the record
    /// length) number of bins of an `n`-point FFT at sample rate `fs`:
    /// coherent sampling for leakage-free ADC tests.
    ///
    /// # Panics
    ///
    /// Panics if `fs` or `n` is zero (programming error in test setup).
    pub fn coherent_frequency(fs: f64, n: usize, target_hz: f64) -> f64 {
        assert!(fs > 0.0 && n > 0, "need a positive sample rate and length");
        let bin = fs / n as f64;
        let mut k = (target_hz / bin).round() as i64;
        if k < 1 {
            k = 1;
        }
        // Prefer an odd bin count (coprime with the power-of-two record),
        // so every sample phase is unique.
        if k % 2 == 0 {
            k += 1;
        }
        let max_k = (n as i64 / 2) - 1;
        if k > max_k {
            k = if max_k % 2 == 1 { max_k } else { max_k - 1 };
        }
        k as f64 * bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_windows_have_correct_length_and_bounds() {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
        ] {
            let c = w.coefficients(128).unwrap();
            assert_eq!(c.len(), 128);
            for (i, &v) in c.iter().enumerate() {
                assert!(
                    (-1e-6..=1.0 + 1e-12).contains(&v),
                    "{w:?}[{i}] = {v} out of range"
                );
            }
        }
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let c = Window::Hann.coefficients(256).unwrap();
        assert!(c[0].abs() < 1e-12, "Hann starts at zero");
        assert!((c[128] - 1.0).abs() < 1e-9, "Hann peaks at the middle");
    }

    #[test]
    fn hamming_endpoints_are_eight_percent() {
        let c = Window::Hamming.coefficients(100).unwrap();
        assert!((c[0] - 0.08).abs() < 1e-12, "got {}", c[0]);
    }

    #[test]
    fn blackman_endpoints_are_zero() {
        let c = Window::Blackman.coefficients(64).unwrap();
        assert!(c[0].abs() < 1e-12);
    }

    #[test]
    fn zero_length_is_rejected() {
        assert!(Window::Hann.coefficients(0).is_err());
    }

    #[test]
    fn coherent_frequency_is_an_odd_bin() {
        let fs = 1000.0;
        let n = 1024;
        let f = Window::coherent_frequency(fs, n, 15.625);
        let bins = f / (fs / n as f64);
        assert!((bins - bins.round()).abs() < 1e-9, "non-integer bin {bins}");
        assert_eq!(bins.round() as i64 % 2, 1, "bin count {bins} not odd");
        // Must stay close to the requested tone.
        assert!((f - 15.625).abs() < 2.0 * fs / n as f64);
    }

    #[test]
    fn coherent_frequency_clamps_to_band() {
        let fs = 1000.0;
        let n = 64;
        // Asking for a tone above Nyquist clamps below it.
        let f = Window::coherent_frequency(fs, n, 10_000.0);
        assert!(f < fs / 2.0);
        // Asking for DC promotes to the first odd bin.
        let f = Window::coherent_frequency(fs, n, 0.0);
        assert!((f - fs / n as f64).abs() < 1e-9);
    }

    #[test]
    fn leakage_bins_ordering_matches_sidelobe_width() {
        assert!(Window::Rectangular.leakage_bins() < Window::Hann.leakage_bins());
        assert!(Window::Hann.leakage_bins() <= Window::Blackman.leakage_bins());
        assert!(Window::Blackman.leakage_bins() <= Window::BlackmanHarris.leakage_bins());
    }

    #[test]
    fn default_window_is_hann() {
        assert_eq!(Window::default(), Window::Hann);
    }
}
