//! From-scratch radix-2 complex FFT.
//!
//! The spectral characterization of the ΣΔ-ADC (paper Fig. 7) needs a
//! Fourier transform; no external DSP crate is used, so this module
//! implements the classic iterative Cooley–Tukey decimation-in-time FFT
//! with bit-reversal permutation, plus the inverse transform and a naive
//! DFT used as a test oracle.

use crate::DspError;

/// Minimal complex number for the FFT (kept local to avoid an external
/// num-complex dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity.
    #[inline]
    pub const fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// `e^{iθ}` on the unit circle.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// In-place forward FFT (no normalization), radix-2 decimation in time.
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] unless `data.len()` is a
/// power of two (length 1 is allowed and a no-op).
pub fn fft(data: &mut [Complex]) -> Result<(), DspError> {
    transform(data, -1.0)
}

/// In-place inverse FFT, normalized by `1/N` so that `ifft(fft(x)) == x`.
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] unless `data.len()` is a
/// power of two.
pub fn ifft(data: &mut [Complex]) -> Result<(), DspError> {
    transform(data, 1.0)?;
    let scale = 1.0 / data.len() as f64;
    for v in data.iter_mut() {
        *v = *v * scale;
    }
    Ok(())
}

/// Forward FFT of a real signal: packs into complex, transforms, and
/// returns the full complex spectrum.
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] unless `signal.len()` is a
/// power of two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft(&mut buf)?;
    Ok(buf)
}

fn transform(data: &mut [Complex], sign: f64) -> Result<(), DspError> {
    let n = data.len();
    if !n.is_power_of_two() {
        return Err(DspError::LengthNotPowerOfTwo { len: n });
    }
    if n <= 1 {
        return Ok(());
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Iterative butterflies.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    Ok(())
}

/// Naive `O(N²)` DFT, used as a correctness oracle in tests and small
/// analyses. Accepts any length.
pub fn naive_dft(signal: &[Complex]) -> Vec<Complex> {
    let n = signal.len();
    let mut out = vec![Complex::zero(); n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (t, &x) in signal.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc = acc + x * Complex::from_angle(ang);
        }
        *out_k = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
            "{a:?} != {b:?}"
        );
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 64;
        let signal: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Complex::new(
                    (2.0 * std::f64::consts::PI * 5.0 * t).sin() + 0.3 * t,
                    0.1 * (2.0 * std::f64::consts::PI * 9.0 * t).cos(),
                )
            })
            .collect();
        let oracle = naive_dft(&signal);
        let mut fast = signal.clone();
        fft(&mut fast).unwrap();
        for (a, b) in fast.iter().zip(&oracle) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn ifft_round_trips() {
        let n = 256;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut buf = signal.clone();
        fft(&mut buf).unwrap();
        ifft(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&signal) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 128;
        let k = 17;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal).unwrap();
        // Energy only at bins k and n-k, each with magnitude n/2.
        for (i, v) in spec.iter().enumerate() {
            if i == k || i == n - k {
                assert!(
                    (v.abs() - n as f64 / 2.0).abs() < 1e-9,
                    "bin {i}: {}",
                    v.abs()
                );
            } else {
                assert!(v.abs() < 1e-9, "leak at bin {i}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 512;
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.001).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal).unwrap();
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let signal = vec![3.0; 32];
        let spec = fft_real(&signal).unwrap();
        assert!((spec[0].re - 96.0).abs() < 1e-12);
        for v in &spec[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        let mut buf = vec![Complex::zero(); 100];
        assert_eq!(
            fft(&mut buf).unwrap_err(),
            DspError::LengthNotPowerOfTwo { len: 100 }
        );
        assert!(ifft(&mut buf).is_err());
        assert!(fft_real(&[0.0; 7]).is_err());
    }

    #[test]
    fn tiny_lengths_work() {
        let mut one = vec![Complex::new(5.0, 0.0)];
        fft(&mut one).unwrap();
        assert_close(one[0], Complex::new(5.0, 0.0), 1e-15);

        let mut two = vec![Complex::new(1.0, 0.0), Complex::new(-1.0, 0.0)];
        fft(&mut two).unwrap();
        assert_close(two[0], Complex::zero(), 1e-15);
        assert_close(two[1], Complex::new(2.0, 0.0), 1e-15);
    }

    #[test]
    fn linearity_holds() {
        let n = 64;
        let a: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), 0.0))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i as f64).cos()))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft(&mut fa).unwrap();
        fft(&mut fb).unwrap();
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y * 2.0).collect();
        fft(&mut sum).unwrap();
        for i in 0..n {
            assert_close(sum[i], fa[i] + fb[i] * 2.0, 1e-10);
        }
    }

    #[test]
    fn complex_helpers_behave() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        let w = Complex::from_angle(std::f64::consts::FRAC_PI_2);
        assert!((w.re).abs() < 1e-15 && (w.im - 1.0).abs() < 1e-15);
        assert_eq!(Complex::zero() + z, z);
        assert_eq!(z - z, Complex::zero());
        let p = Complex::new(0.0, 1.0) * Complex::new(0.0, 1.0);
        assert_close(p, Complex::new(-1.0, 0.0), 1e-15);
    }
}
