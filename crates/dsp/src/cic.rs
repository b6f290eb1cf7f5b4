//! SINC^N (CIC) decimation filters — the first stage of the paper's
//! decimation chain ("a 3rd order SINC-filter as first stage", §3.1).
//!
//! A CIC decimator of order `N` and ratio `R` is `N` integrators running
//! at the modulator rate, a downsampler, and `N` differentiators (combs)
//! at the low rate. Its DC gain is `R^N` and its magnitude response is
//! `|sin(πfR/fs) / sin(πf/fs)|^N` — the matched noise filter for an
//! `N−1`-order ΣΔ modulator.
//!
//! Two implementations are provided:
//!
//! * [`CicDecimator`] — integer (`i64`) arithmetic, bit-exact to an FPGA
//!   realization (CIC tolerates two's-complement wraparound by design,
//!   though with a ±1-bit input and the paper's `R = 32`, 16 bits of
//!   growth never wrap an `i64`);
//! * [`CicDecimatorF64`] — floating-point twin used by the behavioral
//!   chain and to cross-check the integer path.

use crate::bits::PackedBits;
use crate::DspError;

/// Byte-indexed weighted popcount tables for the word-parallel kernel:
/// for a byte value `b`, `W1[b] = Σ t·bit_t(b)` and `W2[b] = Σ t²·bit_t(b)`
/// over bit positions `t ∈ 0..8`. Combined with per-byte offsets they give
/// the first and second position moments of the set bits of a whole word
/// in eight table lookups.
const fn weighted_popcount_tables() -> ([u16; 256], [u16; 256]) {
    let mut w1 = [0u16; 256];
    let mut w2 = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut t = 0usize;
        while t < 8 {
            if (b >> t) & 1 == 1 {
                w1[b] += t as u16;
                w2[b] += (t * t) as u16;
            }
            t += 1;
        }
        b += 1;
    }
    (w1, w2)
}

/// `(W1, W2)` weighted popcount tables (see
/// [`weighted_popcount_tables`]).
static WEIGHTED: ([u16; 256], [u16; 256]) = weighted_popcount_tables();

/// The low `len` bits of a word (`len ≤ 64`).
#[inline]
fn low_bits(word: u64, len: usize) -> u64 {
    if len >= 64 {
        word
    } else {
        word & ((1u64 << len) - 1)
    }
}

/// Integer CIC decimator (order `N`, ratio `R`, unit differential delay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CicDecimator {
    order: usize,
    ratio: usize,
    integrators: Vec<i64>,
    combs: Vec<i64>,
    phase: usize,
}

impl CicDecimator {
    /// Creates a CIC decimator.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `order == 0` or
    /// `ratio < 2`.
    pub fn new(order: usize, ratio: usize) -> Result<Self, DspError> {
        if order == 0 {
            return Err(DspError::InvalidParameter("CIC order must be >= 1".into()));
        }
        if ratio < 2 {
            return Err(DspError::InvalidParameter("CIC ratio must be >= 2".into()));
        }
        Ok(CicDecimator {
            order,
            ratio,
            integrators: vec![0; order],
            combs: vec![0; order],
            phase: 0,
        })
    }

    /// The paper's first stage: 3rd-order SINC decimating by 32 (the
    /// remaining ÷4 to reach OSR 128 is done by the FIR stage).
    pub fn paper_default() -> Self {
        CicDecimator::new(3, 32).expect("paper parameters are valid")
    }

    /// Filter order `N`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Decimation ratio `R`.
    pub fn ratio(&self) -> usize {
        self.ratio
    }

    /// DC gain `R^N`.
    pub fn gain(&self) -> i64 {
        (self.ratio as i64).pow(self.order as u32)
    }

    /// Pushes one high-rate sample; returns a decimated output every
    /// `ratio`-th call.
    pub fn push(&mut self, x: i64) -> Option<i64> {
        let mut acc = x;
        for int in &mut self.integrators {
            *int = int.wrapping_add(acc);
            acc = *int;
        }
        self.phase += 1;
        if self.phase < self.ratio {
            return None;
        }
        self.phase = 0;
        let mut v = acc;
        for comb in &mut self.combs {
            let prev = *comb;
            *comb = v;
            v = v.wrapping_sub(prev);
        }
        Some(v)
    }

    /// Processes a block, returning all decimated outputs.
    pub fn process(&mut self, xs: &[i64]) -> Vec<i64> {
        xs.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Consumes up to 64 single-bit samples at once — the word-parallel
    /// kernel behind the packed hot path.
    ///
    /// The low `len` bits of `word` (LSB-first, bits above `len` are
    /// ignored) each map to `+scale` (set) or `−scale` (clear), exactly
    /// as if fed one at a time through [`CicDecimator::push`]; decimated
    /// outputs are handed to `emit` in stream order. **Bit-identical** to
    /// the scalar path: for a ±1-bit input the integrator cascade reduces
    /// to position moments of the set bits, which the kernel computes per
    /// word with popcounts and the byte-indexed partial-sum tables —
    /// closed forms that hold in ℤ/2⁶⁴, the same ring the scalar
    /// wrapping arithmetic runs in (property-tested in `tests/props.rs`).
    ///
    /// Orders 1–3 use the closed forms; higher orders fall back to the
    /// scalar recurrence internally (same contract, no speedup).
    ///
    /// # Panics
    ///
    /// Panics when `len > 64`.
    pub fn push_word(&mut self, word: u64, len: usize, scale: i64, emit: &mut impl FnMut(i64)) {
        assert!(len <= 64, "a word carries at most 64 bits, got {len}");
        let mut lo = 0usize;
        while lo < len {
            // Advance in segments bounded by decimation boundaries so each
            // segment produces at most one output, right at its end.
            let take = (self.ratio - self.phase).min(len - lo);
            self.advance_bits(low_bits(word >> lo, take), take, scale);
            self.phase += take;
            lo += take;
            if self.phase == self.ratio {
                self.phase = 0;
                let mut v = self.integrators[self.order - 1];
                for comb in &mut self.combs {
                    let prev = *comb;
                    *comb = v;
                    v = v.wrapping_sub(prev);
                }
                emit(v);
            }
        }
    }

    /// Processes a packed single-bit stream through
    /// [`CicDecimator::push_word`], appending decimated outputs to `out`
    /// (which is not cleared, so callers can accumulate).
    pub fn process_packed_into(&mut self, bits: &PackedBits, scale: i64, out: &mut Vec<i64>) {
        let mut remaining = bits.len();
        for &w in bits.words() {
            let take = remaining.min(64);
            self.push_word(w, take, scale, &mut |v| out.push(v));
            remaining -= take;
        }
    }

    /// Advances the integrator cascade by `len` bits of `seg` without
    /// touching the decimation phase or combs. `seg` must already be
    /// masked to its low `len` bits (`1 ≤ len ≤ 64`).
    #[inline]
    fn advance_bits(&mut self, seg: u64, len: usize, scale: i64) {
        debug_assert!((1..=64).contains(&len));
        debug_assert_eq!(seg, low_bits(seg, len));
        if self.order > 3 {
            // No closed form implemented: scalar fallback.
            for k in 0..len {
                let x = if (seg >> k) & 1 == 1 {
                    scale
                } else {
                    scale.wrapping_neg()
                };
                let mut acc = x;
                for int in &mut self.integrators {
                    *int = int.wrapping_add(acc);
                    acc = *int;
                }
            }
            return;
        }
        // Closed forms. Per sample i (1-indexed in the segment, input
        // x_i = ±scale) the scalar cascade does s1 += x_i; s2 += s1;
        // s3 += s2. Unrolled over L = len samples:
        //
        //   s1' = s1 + A                               A = Σ x_i
        //   s2' = s2 + L·s1 + B                        B = Σ (L+1−i)·x_i
        //   s3' = s3 + L·s2 + T(L)·s1 + C              C = Σ T(L+1−i)·x_i
        //
        // with T(m) = m(m+1)/2. For x_i = scale·(2b_i − 1) each weighted
        // sum reduces to the popcount P and the position moments
        // M1 = Σ i·b_i, M2 = Σ i²·b_i of the set bits, which come from
        // the byte tables. All identities hold in ℤ/2⁶⁴, so wrapping
        // products/sums reproduce the scalar path bit for bit.
        let l = len as i64;
        let p = i64::from(seg.count_ones());
        let a = scale.wrapping_mul(2 * p - l);
        if self.order == 1 {
            self.integrators[0] = self.integrators[0].wrapping_add(a);
            return;
        }
        // 0-indexed moments K1 = Σ k·b_k, K2 = Σ k²·b_k via byte tables.
        let (w1, w2) = (&WEIGHTED.0, &WEIGHTED.1);
        let mut k1 = 0i64;
        let mut k2 = 0i64;
        let mut w = seg;
        let mut base = 0i64;
        while w != 0 {
            let byte = (w & 0xFF) as usize;
            let pb = i64::from((byte as u8).count_ones());
            let t1 = i64::from(w1[byte]);
            let t2 = i64::from(w2[byte]);
            k1 += base * pb + t1;
            k2 += base * base * pb + 2 * base * t1 + t2;
            w >>= 8;
            base += 8;
        }
        // 1-indexed moments.
        let m1 = k1 + p;
        let tri = l * (l + 1) / 2;
        // B = scale·(2·((L+1)·P − M1) − L(L+1)/2).
        let b = scale.wrapping_mul(2 * ((l + 1) * p - m1) - tri);
        let s1 = self.integrators[0];
        if self.order == 2 {
            self.integrators[1] = self.integrators[1]
                .wrapping_add(l.wrapping_mul(s1))
                .wrapping_add(b);
            self.integrators[0] = s1.wrapping_add(a);
            return;
        }
        let m2 = k2 + 2 * k1 + p;
        // 2·Σ T(L+1−i)·b_i = (L+1)(L+2)·P − (2L+3)·M1 + M2, and
        // Σ_{m=1..L} T(m) = L(L+1)(L+2)/6; C is their scaled difference.
        let c2 = (l + 1) * (l + 2) * p - (2 * l + 3) * m1 + m2;
        let tet = l * (l + 1) * (l + 2) / 6;
        let c = scale.wrapping_mul(c2 - tet);
        let s2 = self.integrators[1];
        self.integrators[2] = self.integrators[2]
            .wrapping_add(l.wrapping_mul(s2))
            .wrapping_add(tri.wrapping_mul(s1))
            .wrapping_add(c);
        self.integrators[1] = s2.wrapping_add(l.wrapping_mul(s1)).wrapping_add(b);
        self.integrators[0] = s1.wrapping_add(a);
    }

    /// Clears all filter state.
    pub fn reset(&mut self) {
        self.integrators.iter_mut().for_each(|v| *v = 0);
        self.combs.iter_mut().for_each(|v| *v = 0);
        self.phase = 0;
    }

    /// Gain-normalized magnitude response at a frequency normalized to
    /// the *input* rate (cycles/sample):
    /// `|sin(πfR) / (R·sin(πf))|^N`, with the `f → 0` limit of 1.
    pub fn magnitude_at(&self, normalized_freq: f64) -> f64 {
        cic_magnitude(self.order, self.ratio, normalized_freq)
    }
}

/// Shared CIC magnitude formula (see [`CicDecimator::magnitude_at`]).
fn cic_magnitude(order: usize, ratio: usize, normalized_freq: f64) -> f64 {
    let f = normalized_freq;
    let denom = (std::f64::consts::PI * f).sin();
    if denom.abs() < 1e-12 {
        return 1.0; // DC (and integer-cycle aliases of it)
    }
    let num = (std::f64::consts::PI * f * ratio as f64).sin();
    (num / (ratio as f64 * denom)).abs().powi(order as i32)
}

/// Floating-point CIC decimator, the behavioral twin of [`CicDecimator`].
#[derive(Debug, Clone, PartialEq)]
pub struct CicDecimatorF64 {
    order: usize,
    ratio: usize,
    integrators: Vec<f64>,
    combs: Vec<f64>,
    phase: usize,
}

impl CicDecimatorF64 {
    /// Creates a floating-point CIC decimator.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `order == 0` or
    /// `ratio < 2`.
    pub fn new(order: usize, ratio: usize) -> Result<Self, DspError> {
        if order == 0 {
            return Err(DspError::InvalidParameter("CIC order must be >= 1".into()));
        }
        if ratio < 2 {
            return Err(DspError::InvalidParameter("CIC ratio must be >= 2".into()));
        }
        Ok(CicDecimatorF64 {
            order,
            ratio,
            integrators: vec![0.0; order],
            combs: vec![0.0; order],
            phase: 0,
        })
    }

    /// DC gain `R^N`.
    pub fn gain(&self) -> f64 {
        (self.ratio as f64).powi(self.order as i32)
    }

    /// Decimation ratio `R`.
    pub fn ratio(&self) -> usize {
        self.ratio
    }

    /// Filter order `N`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Pushes one high-rate sample; returns a decimated output (already
    /// normalized by the DC gain) every `ratio`-th call.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let mut acc = x;
        for int in &mut self.integrators {
            *int += acc;
            acc = *int;
        }
        self.phase += 1;
        if self.phase < self.ratio {
            return None;
        }
        self.phase = 0;
        let mut v = acc;
        for comb in &mut self.combs {
            let prev = *comb;
            *comb = v;
            v -= prev;
        }
        Some(v / self.gain())
    }

    /// Processes a block, returning all decimated (normalized) outputs.
    pub fn process(&mut self, xs: &[f64]) -> Vec<f64> {
        xs.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Clears all filter state.
    pub fn reset(&mut self) {
        self.integrators.iter_mut().for_each(|v| *v = 0.0);
        self.combs.iter_mut().for_each(|v| *v = 0.0);
        self.phase = 0;
    }

    /// Gain-normalized magnitude response at a frequency normalized to
    /// the *input* rate (see [`CicDecimator::magnitude_at`]).
    pub fn magnitude_at(&self, normalized_freq: f64) -> f64 {
        cic_magnitude(self.order, self.ratio, normalized_freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_gain_is_r_to_the_n() {
        let mut cic = CicDecimator::new(3, 8).unwrap();
        assert_eq!(cic.gain(), 512);
        // Constant input of 1 must converge to the DC gain.
        let out = cic.process(&vec![1; 8 * 16]);
        assert_eq!(*out.last().unwrap(), 512);
    }

    #[test]
    fn paper_stage_parameters() {
        let cic = CicDecimator::paper_default();
        assert_eq!(cic.order(), 3);
        assert_eq!(cic.ratio(), 32);
        assert_eq!(cic.gain(), 32_768);
    }

    #[test]
    fn impulse_response_sums_to_polyphase_gain() {
        // The full (undecimated) boxcar^N response sums to R^N, but the
        // decimated output keeps only every R-th tap, so a single
        // high-rate impulse contributes R^(N-1). Summed over all R input
        // phases the total is R^N.
        let n_order = 3;
        let r = 4;
        let mut per_phase_sum = 0_i64;
        for phase in 0..r {
            let mut cic = CicDecimator::new(n_order, r).unwrap();
            let mut impulse = vec![0_i64; r * 20];
            impulse[phase] = 1;
            let out = cic.process(&impulse);
            let sum: i64 = out.iter().sum();
            assert_eq!(sum, (r as i64).pow(n_order as u32 - 1), "phase {phase}");
            assert!(out.iter().all(|&v| v >= 0));
            per_phase_sum += sum;
        }
        assert_eq!(per_phase_sum, (r as i64).pow(n_order as u32));
    }

    #[test]
    fn float_and_integer_paths_agree_on_bitstreams() {
        let mut icic = CicDecimator::new(3, 16).unwrap();
        let mut fcic = CicDecimatorF64::new(3, 16).unwrap();
        // Pseudo-random ±1 bitstream.
        let bits: Vec<i64> = (0..16 * 64)
            .map(|i| {
                if (i * 2654435761_u64 as usize) % 7 < 3 {
                    1
                } else {
                    -1
                }
            })
            .collect();
        let fin: Vec<f64> = bits.iter().map(|&b| b as f64).collect();
        let iout = icic.process(&bits);
        let fout = fcic.process(&fin);
        assert_eq!(iout.len(), fout.len());
        let gain = icic.gain() as f64;
        for (a, b) in iout.iter().zip(&fout) {
            assert!(
                (*a as f64 / gain - b).abs() < 1e-9,
                "integer {} vs float {}",
                *a as f64 / gain,
                b
            );
        }
    }

    #[test]
    fn decimation_ratio_is_respected() {
        let mut cic = CicDecimatorF64::new(2, 10).unwrap();
        let out = cic.process(&vec![0.5; 1000]);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn sinc_nulls_fall_at_multiples_of_output_rate() {
        // A tone exactly at the output rate f = fs/R lands in the first
        // null of the sinc response and must be strongly attenuated.
        let order = 3;
        let r = 32;
        let fs = 128_000.0;
        let f_null = fs / r as f64; // 4 kHz
        let n = r * 512;
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f_null * i as f64 / fs).sin())
            .collect();
        let mut cic = CicDecimatorF64::new(order, r).unwrap();
        let out = cic.process(&tone);
        // Skip the transient, measure residual RMS.
        let settled = &out[8..];
        let rms = (settled.iter().map(|v| v * v).sum::<f64>() / settled.len() as f64).sqrt();
        assert!(rms < 1e-3, "null leakage rms {rms}");
    }

    #[test]
    fn passband_tone_survives() {
        // A 100 Hz tone (far below the 4 kHz output Nyquist of 2 kHz)
        // passes with near-unity gain.
        let fs = 128_000.0;
        let r = 32;
        let f = 100.0;
        let n = r * 4096;
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let mut cic = CicDecimatorF64::new(3, r).unwrap();
        let out = cic.process(&tone);
        let settled = &out[16..];
        let rms = (settled.iter().map(|v| v * v).sum::<f64>() / settled.len() as f64).sqrt();
        let expected = 1.0 / 2.0_f64.sqrt();
        assert!((rms - expected).abs() / expected < 0.01, "rms {rms}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut cic = CicDecimator::new(3, 4).unwrap();
        let fresh = cic.clone();
        let _ = cic.process(&[1, -1, 1, 1, -1, 1, 0, 3]);
        assert_ne!(cic, fresh);
        cic.reset();
        assert_eq!(cic, fresh);
        let mut f = CicDecimatorF64::new(2, 4).unwrap();
        let fresh = f.clone();
        let _ = f.process(&[0.5; 9]);
        f.reset();
        assert_eq!(f, fresh);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(CicDecimator::new(0, 8).is_err());
        assert!(CicDecimator::new(3, 1).is_err());
        assert!(CicDecimatorF64::new(0, 8).is_err());
        assert!(CicDecimatorF64::new(3, 0).is_err());
    }

    #[test]
    fn magnitude_response_matches_measured_attenuation() {
        let cic = CicDecimatorF64::new(3, 32).unwrap();
        // DC gain 1.
        assert!((cic.magnitude_at(0.0) - 1.0).abs() < 1e-12);
        // Exact null at the output rate (f = 1/R of the input rate).
        assert!(cic.magnitude_at(1.0 / 32.0) < 1e-12);
        // Cross-check the formula against a measured tone: 100 Hz at
        // 128 kHz input.
        let fs = 128_000.0;
        let f = 100.0;
        let predicted = cic.magnitude_at(f / fs);
        let tone: Vec<f64> = (0..32 * 4096)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let mut filt = CicDecimatorF64::new(3, 32).unwrap();
        let out = filt.process(&tone);
        let settled = &out[16..];
        let rms = (settled.iter().map(|v| v * v).sum::<f64>() / settled.len() as f64).sqrt();
        let measured = rms * 2.0_f64.sqrt();
        assert!(
            (measured - predicted).abs() < 0.01 * predicted,
            "measured {measured} vs formula {predicted}"
        );
        // Integer twin agrees with the float twin.
        let icic = CicDecimator::new(3, 32).unwrap();
        assert!((icic.magnitude_at(0.01) - cic.magnitude_at(0.01)).abs() < 1e-15);
    }

    /// Reference: feed bits one at a time through the scalar path.
    fn scalar_reference(cic: &mut CicDecimator, bools: &[bool], scale: i64) -> Vec<i64> {
        bools
            .iter()
            .filter_map(|&b| cic.push(if b { scale } else { -scale }))
            .collect()
    }

    #[test]
    fn word_kernel_matches_scalar_push() {
        // Deterministic pseudo-random bit pattern across several orders,
        // ratios, and word-unaligned lengths (the proptest in
        // tests/props.rs covers random streams).
        let scale = 1_i64 << 20;
        for order in 1..=5 {
            for ratio in [2usize, 3, 7, 32, 100] {
                for len in [1usize, 63, 64, 65, 128, 128 * 3 + 17] {
                    let bools: Vec<bool> = (0..len)
                        .map(|i| (i.wrapping_mul(2654435761) >> 7) % 5 < 2)
                        .collect();
                    let packed: PackedBits = bools.iter().copied().collect();
                    let mut scalar = CicDecimator::new(order, ratio).unwrap();
                    let mut word = CicDecimator::new(order, ratio).unwrap();
                    let expect = scalar_reference(&mut scalar, &bools, scale);
                    let mut got = Vec::new();
                    word.process_packed_into(&packed, scale, &mut got);
                    assert_eq!(got, expect, "order {order} ratio {ratio} len {len}");
                    // Full state agrees, not just the outputs — the two
                    // paths stay interchangeable mid-stream.
                    assert_eq!(word, scalar, "order {order} ratio {ratio} len {len}");
                }
            }
        }
    }

    #[test]
    fn word_kernel_interoperates_with_scalar_mid_stream() {
        // Alternate word-parallel and scalar feeding on the same filter;
        // the result must match an all-scalar run.
        let scale = 7_i64;
        let bools: Vec<bool> = (0..200).map(|i| i % 3 != 1).collect();
        let mut all_scalar = CicDecimator::new(3, 8).unwrap();
        let expect = scalar_reference(&mut all_scalar, &bools, scale);
        let mut mixed = CicDecimator::new(3, 8).unwrap();
        let mut got = Vec::new();
        // First 70 bits scalar, then the rest in words of 64.
        for &b in &bools[..70] {
            if let Some(v) = mixed.push(if b { scale } else { -scale }) {
                got.push(v);
            }
        }
        let tail: PackedBits = bools[70..].iter().copied().collect();
        mixed.process_packed_into(&tail, scale, &mut got);
        assert_eq!(got, expect);
        assert_eq!(mixed, all_scalar);
    }

    #[test]
    fn word_kernel_wraps_like_the_scalar_path() {
        // Force two's-complement wraparound (the property CIC designs
        // rely on) with a huge scale; both paths must wrap identically.
        let scale = i64::MAX / 3;
        let bools: Vec<bool> = (0..64 * 5).map(|i| i % 7 < 3).collect();
        let packed: PackedBits = bools.iter().copied().collect();
        let mut scalar = CicDecimator::new(3, 32).unwrap();
        let mut word = CicDecimator::new(3, 32).unwrap();
        let expect = scalar_reference(&mut scalar, &bools, scale);
        let mut got = Vec::new();
        word.process_packed_into(&packed, scale, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn word_kernel_rejects_oversized_len() {
        let mut cic = CicDecimator::paper_default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cic.push_word(0, 65, 1, &mut |_| {});
        }));
        assert!(result.is_err());
    }

    #[test]
    fn linearity_of_integer_path() {
        let xs: Vec<i64> = (0..256).map(|i| ((i * 7) % 11) as i64 - 5).collect();
        let ys: Vec<i64> = (0..256).map(|i| ((i * 3) % 13) as i64 - 6).collect();
        let sum: Vec<i64> = xs.iter().zip(&ys).map(|(a, b)| a + b).collect();
        let mut c1 = CicDecimator::new(3, 8).unwrap();
        let mut c2 = CicDecimator::new(3, 8).unwrap();
        let mut c3 = CicDecimator::new(3, 8).unwrap();
        let ox = c1.process(&xs);
        let oy = c2.process(&ys);
        let os = c3.process(&sum);
        for ((a, b), s) in ox.iter().zip(&oy).zip(&os) {
            assert_eq!(a + b, *s);
        }
    }
}
