//! Goertzel single-bin tone detection.
//!
//! When only one frequency matters — the test tone of an ADC
//! characterization, a pilot, a suspected idle tone — a full FFT is
//! wasteful. The Goertzel recurrence evaluates one DFT bin in O(N) time
//! and O(1) memory, streaming:
//!
//! ```text
//! s[n] = x[n] + 2·cos(ω)·s[n−1] − s[n−2]
//! X(ω) = s[N−1] − e^{−jω}·s[N−2]
//! ```
//!
//! The detector reports the tone's amplitude and phase, and (windowless)
//! is exact for coherent tones.

use crate::DspError;

/// Streaming Goertzel detector for one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Goertzel {
    /// 2·cos(ω).
    coeff: f64,
    /// cos(ω), sin(ω) for the final rotation.
    cos_w: f64,
    sin_w: f64,
    s1: f64,
    s2: f64,
    n: usize,
}

impl Goertzel {
    /// Creates a detector for `freq_hz` at `sample_rate` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless
    /// `0 < freq < sample_rate / 2`.
    pub fn new(freq_hz: f64, sample_rate: f64) -> Result<Self, DspError> {
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter(
                "sample rate must be positive".into(),
            ));
        }
        if !(freq_hz > 0.0 && freq_hz < sample_rate / 2.0) {
            return Err(DspError::InvalidParameter(format!(
                "frequency {freq_hz} Hz outside (0, {})",
                sample_rate / 2.0
            )));
        }
        let omega = 2.0 * std::f64::consts::PI * freq_hz / sample_rate;
        Ok(Goertzel {
            coeff: 2.0 * omega.cos(),
            cos_w: omega.cos(),
            sin_w: omega.sin(),
            s1: 0.0,
            s2: 0.0,
            n: 0,
        })
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        let s = x + self.coeff * self.s1 - self.s2;
        self.s2 = self.s1;
        self.s1 = s;
        self.n += 1;
    }

    /// Feeds a block of samples.
    pub fn push_block(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True before any sample has been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The tone's amplitude estimate (peak, not RMS): `2|X|/N`.
    ///
    /// Exact when the observation spans an integer number of tone cycles;
    /// otherwise scalloped like any rectangular-window DFT bin.
    pub fn amplitude(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let re = self.s1 - self.s2 * self.cos_w;
        let im = self.s2 * self.sin_w;
        2.0 * (re * re + im * im).sqrt() / self.n as f64
    }

    /// The tone's power relative to a unit-amplitude sine (`amp²/2`).
    pub fn power(&self) -> f64 {
        let a = self.amplitude();
        a * a / 2.0
    }

    /// Resets the recurrence for a fresh observation.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::sine_wave;

    #[test]
    fn recovers_a_coherent_tone_amplitude_exactly() {
        let fs = 1000.0;
        let f = 125.0; // exactly 8 samples/cycle
        let amp = 0.73;
        let mut g = Goertzel::new(f, fs).unwrap();
        g.push_block(&sine_wave(fs, f, amp, 0.3, 4000));
        assert!(
            (g.amplitude() - amp).abs() < 1e-9,
            "amplitude {}",
            g.amplitude()
        );
        assert!((g.power() - amp * amp / 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_other_tones() {
        let fs = 1000.0;
        let mut g = Goertzel::new(125.0, fs).unwrap();
        // A strong tone far away plus the small target tone.
        let strong = sine_wave(fs, 250.0, 1.0, 0.0, 8000);
        let target = sine_wave(fs, 125.0, 0.05, 0.0, 8000);
        let x: Vec<f64> = strong.iter().zip(&target).map(|(a, b)| a + b).collect();
        g.push_block(&x);
        assert!(
            (g.amplitude() - 0.05).abs() < 1e-6,
            "leakage from the off-bin tone: {}",
            g.amplitude()
        );
    }

    #[test]
    fn matches_fft_bin_magnitude() {
        let fs = 1000.0;
        let n = 1024;
        let k = 37; // coherent bin
        let f = k as f64 * fs / n as f64;
        let x = sine_wave(fs, f, 0.4, 1.1, n);
        let mut g = Goertzel::new(f, fs).unwrap();
        g.push_block(&x);
        let spec = crate::fft::fft_real(&x).unwrap();
        let fft_amp = 2.0 * spec[k].abs() / n as f64;
        assert!((g.amplitude() - fft_amp).abs() < 1e-9);
    }

    #[test]
    fn streaming_and_block_agree() {
        let x = sine_wave(1000.0, 77.0, 0.5, 0.0, 500);
        let mut a = Goertzel::new(77.0, 1000.0).unwrap();
        let mut b = Goertzel::new(77.0, 1000.0).unwrap();
        for &v in &x {
            a.push(v);
        }
        b.push_block(&x);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(!a.is_empty());
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut g = Goertzel::new(100.0, 1000.0).unwrap();
        g.push_block(&[1.0, -1.0, 0.5]);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.amplitude(), 0.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Goertzel::new(0.0, 1000.0).is_err());
        assert!(Goertzel::new(500.0, 1000.0).is_err());
        assert!(Goertzel::new(100.0, 0.0).is_err());
        assert!(Goertzel::new(-5.0, 1000.0).is_err());
    }
}
