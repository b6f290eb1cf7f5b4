//! Deterministic test-signal generation.
//!
//! ADC characterization (paper §3.1) drives the converter with a sine wave
//! through the modulator's auxiliary differential voltage input. These
//! helpers generate the stimulus and controlled impairments; all noise is
//! seeded so every experiment in the repository is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `amplitude * sin(2π f t + phase)` at rate `fs` for `n` samples.
pub fn sine_wave(fs: f64, f: f64, amplitude: f64, phase: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| amplitude * (2.0 * std::f64::consts::PI * f * i as f64 / fs + phase).sin())
        .collect()
}

/// Adds zero-mean uniform white noise of the given peak amplitude,
/// deterministically from `seed`.
pub fn add_white_noise(signal: &mut [f64], peak: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for v in signal.iter_mut() {
        *v += rng.gen_range(-peak..=peak);
    }
}

/// A linear ramp from `start` to `end` over `n` samples (inclusive ends).
pub fn ramp(start: f64, end: f64, n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![start];
    }
    (0..n)
        .map(|i| start + (end - start) * i as f64 / (n - 1) as f64)
        .collect()
}

/// A constant (DC) signal.
pub fn dc(level: f64, n: usize) -> Vec<f64> {
    vec![level; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_has_requested_amplitude_and_period() {
        let fs = 1000.0;
        let x = sine_wave(fs, 250.0, 0.7, 0.0, 8);
        // 250 Hz at 1 kS/s: period of 4 samples: 0, A, 0, -A, ...
        assert!(x[0].abs() < 1e-12);
        assert!((x[1] - 0.7).abs() < 1e-12);
        assert!(x[2].abs() < 1e-9);
        assert!((x[3] + 0.7).abs() < 1e-12);
    }

    #[test]
    fn phase_shifts_the_waveform() {
        let x = sine_wave(1000.0, 100.0, 1.0, std::f64::consts::FRAC_PI_2, 4);
        assert!((x[0] - 1.0).abs() < 1e-12, "sin(pi/2) = 1");
    }

    #[test]
    fn white_noise_is_seeded_and_bounded() {
        let mut a = vec![0.0; 1000];
        let mut b = vec![0.0; 1000];
        add_white_noise(&mut a, 0.1, 42);
        add_white_noise(&mut b, 0.1, 42);
        assert_eq!(a, b, "same seed, same noise");
        let mut c = vec![0.0; 1000];
        add_white_noise(&mut c, 0.1, 43);
        assert_ne!(a, c, "different seed, different noise");
        assert!(a.iter().all(|v| v.abs() <= 0.1));
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean} not near zero");
    }

    #[test]
    fn ramp_hits_both_ends() {
        let r = ramp(-1.0, 1.0, 5);
        assert_eq!(r, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
        assert_eq!(ramp(3.0, 9.0, 1), vec![3.0]);
        assert!(ramp(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn dc_is_constant() {
        let d = dc(0.25, 10);
        assert_eq!(d.len(), 10);
        assert!(d.iter().all(|&v| v == 0.25));
    }
}
