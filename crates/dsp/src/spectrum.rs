//! Power spectra in dBFS — the representation of paper Fig. 7.
//!
//! [`Spectrum`] holds the one-sided power spectrum of a real signal,
//! normalized so that a **full-scale sine** (amplitude 1.0 after the
//! caller's own full-scale normalization) reads 0 dBFS at its bin,
//! independent of the analysis window. That is exactly the axis of the
//! paper's measured ADC spectrum.

use crate::fft::fft_real;
use crate::window::Window;
use crate::DspError;

/// One-sided power spectrum of a real signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// One-sided linear power per bin, normalized so a full-scale sine
    /// integrates to 1.0 at its bin cluster.
    power: Vec<f64>,
    /// Sample rate of the analyzed signal in Hz.
    sample_rate: f64,
    /// FFT length used.
    fft_len: usize,
    /// Window applied before the FFT.
    window: Window,
}

impl Spectrum {
    /// Computes the one-sided power spectrum of `signal` (whose full scale
    /// is ±1.0) using the given window.
    ///
    /// # Errors
    ///
    /// * [`DspError::LengthNotPowerOfTwo`] — radix-2 FFT requirement.
    /// * [`DspError::InputTooShort`] — fewer than 8 samples.
    pub fn from_signal(signal: &[f64], sample_rate: f64, window: Window) -> Result<Self, DspError> {
        if signal.len() < 8 {
            return Err(DspError::InputTooShort {
                len: signal.len(),
                required: 8,
            });
        }
        let n = signal.len();
        let coeffs = window.coefficients(n)?;
        let windowed: Vec<f64> = signal.iter().zip(&coeffs).map(|(&x, &w)| x * w).collect();
        let spec = fft_real(&windowed)?;
        // Power normalization via Parseval with the window's energy Σw²:
        // the *integrated* power of a tone cluster and of broadband noise
        // are then both exact, independent of the window (the property the
        // SNR metrics rely on). The extra factor of 2 references powers to
        // a full-scale sine (power A²/2 with A = 1), so a FS sine's
        // cluster integrates to exactly 1.0 → 0 dBFS.
        let window_energy: f64 = coeffs.iter().map(|w| w * w).sum();
        let scale = 4.0 / (n as f64 * window_energy);
        let half = n / 2;
        let mut power = Vec::with_capacity(half + 1);
        for (k, v) in spec.iter().take(half + 1).enumerate() {
            let mut p = v.norm_sqr() * scale;
            // DC and Nyquist bins are not doubled by the one-sided fold.
            if k == 0 || k == half {
                p /= 2.0;
            }
            power.push(p);
        }
        Ok(Spectrum {
            power,
            sample_rate,
            fft_len: n,
            window,
        })
    }

    /// Linear power per bin (full-scale-sine–normalized).
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Number of one-sided bins (`N/2 + 1`).
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// True if the spectrum has no bins (never for constructed spectra).
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// The FFT length used for analysis.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// Analyzed sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The window used.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Center frequency of a bin in Hz.
    pub fn bin_frequency(&self, bin: usize) -> f64 {
        bin as f64 * self.sample_rate / self.fft_len as f64
    }

    /// Per-bin level in dBFS (0 dBFS = full-scale sine), floored at
    /// -200 dBFS to keep plots finite.
    pub fn to_dbfs(&self) -> Vec<f64> {
        self.power
            .iter()
            .map(|&p| 10.0 * p.max(1e-20).log10())
            .collect()
    }

    /// Index of the strongest non-DC bin.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NoSignal`] when every non-DC bin is zero.
    pub fn peak_bin(&self) -> Result<usize, DspError> {
        let mut best = None;
        let mut best_p = 0.0;
        // Skip DC and its window leakage.
        let skip = self.window.leakage_bins() + 1;
        for (i, &p) in self.power.iter().enumerate().skip(skip) {
            if p > best_p {
                best_p = p;
                best = Some(i);
            }
        }
        best.ok_or(DspError::NoSignal)
    }

    /// Total power in a closed bin range, clamped to the spectrum.
    pub fn band_power(&self, lo_bin: usize, hi_bin: usize) -> f64 {
        let hi = hi_bin.min(self.power.len() - 1);
        if lo_bin > hi {
            return 0.0;
        }
        self.power[lo_bin..=hi].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::sine_wave;

    #[test]
    fn full_scale_sine_reads_zero_dbfs() {
        let fs = 1000.0;
        let n = 1024;
        let f = Window::coherent_frequency(fs, n, 100.0);
        for w in [Window::Rectangular, Window::Hann, Window::Blackman] {
            let x = sine_wave(fs, f, 1.0, 0.3, n);
            let s = Spectrum::from_signal(&x, fs, w).unwrap();
            let peak = s.peak_bin().unwrap();
            let tone: f64 = s.band_power(
                peak.saturating_sub(w.leakage_bins()),
                peak + w.leakage_bins(),
            );
            let db = 10.0 * tone.log10();
            assert!(db.abs() < 0.05, "{w:?}: {db} dBFS");
        }
    }

    #[test]
    fn half_scale_sine_reads_minus_six_dbfs() {
        let fs = 1000.0;
        let n = 2048;
        let f = Window::coherent_frequency(fs, n, 50.0);
        let x = sine_wave(fs, f, 0.5, 0.0, n);
        let s = Spectrum::from_signal(&x, fs, Window::Hann).unwrap();
        let peak = s.peak_bin().unwrap();
        let tone = s.band_power(peak - 2, peak + 2);
        let db = 10.0 * tone.log10();
        assert!((db + 6.02).abs() < 0.05, "{db} dBFS");
    }

    #[test]
    fn peak_bin_finds_the_tone() {
        let fs = 1000.0;
        let n = 1024;
        let f = Window::coherent_frequency(fs, n, 123.0);
        let x = sine_wave(fs, f, 0.8, 0.0, n);
        let s = Spectrum::from_signal(&x, fs, Window::Hann).unwrap();
        let peak = s.peak_bin().unwrap();
        assert_eq!(peak, (f * n as f64 / fs).round() as usize);
        assert!((s.bin_frequency(peak) - f).abs() < fs / n as f64 / 2.0);
    }

    #[test]
    fn dc_is_not_reported_as_signal() {
        let fs = 1000.0;
        let n = 1024;
        let f = Window::coherent_frequency(fs, n, 200.0);
        let mut x = sine_wave(fs, f, 0.1, 0.0, n);
        for v in &mut x {
            *v += 0.9; // huge DC offset
        }
        let s = Spectrum::from_signal(&x, fs, Window::Hann).unwrap();
        let peak = s.peak_bin().unwrap();
        let tone_bin = (f * n as f64 / fs).round() as usize;
        assert_eq!(peak, tone_bin, "peak must skip DC leakage");
    }

    #[test]
    fn silence_has_no_signal() {
        let x = vec![0.0; 256];
        let s = Spectrum::from_signal(&x, 1000.0, Window::Hann).unwrap();
        assert_eq!(s.peak_bin(), Err(DspError::NoSignal));
    }

    #[test]
    fn dbfs_floor_keeps_values_finite() {
        let x = vec![0.0; 256];
        let s = Spectrum::from_signal(&x, 1000.0, Window::Hann).unwrap();
        for v in s.to_dbfs() {
            assert!(v.is_finite());
            assert!(v <= -190.0);
        }
    }

    #[test]
    fn short_and_odd_inputs_are_rejected() {
        assert!(matches!(
            Spectrum::from_signal(&[0.0; 4], 1000.0, Window::Hann),
            Err(DspError::InputTooShort { .. })
        ));
        assert!(matches!(
            Spectrum::from_signal(&[0.0; 100], 1000.0, Window::Hann),
            Err(DspError::LengthNotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn band_power_clamps_and_orders() {
        let x = sine_wave(1000.0, 100.0, 1.0, 0.0, 256);
        let s = Spectrum::from_signal(&x, 1000.0, Window::Hann).unwrap();
        let total = s.band_power(0, 10_000);
        assert!(total > 0.0);
        assert_eq!(s.band_power(10, 5), 0.0);
    }

    #[test]
    fn accessors_report_analysis_parameters() {
        let x = sine_wave(1000.0, 100.0, 1.0, 0.0, 512);
        let s = Spectrum::from_signal(&x, 1000.0, Window::Blackman).unwrap();
        assert_eq!(s.fft_len(), 512);
        assert_eq!(s.len(), 257);
        assert!(!s.is_empty());
        assert_eq!(s.sample_rate(), 1000.0);
        assert_eq!(s.window(), Window::Blackman);
        assert_eq!(s.power().len(), 257);
        assert!((s.bin_frequency(256) - 500.0).abs() < 1e-9);
    }
}
