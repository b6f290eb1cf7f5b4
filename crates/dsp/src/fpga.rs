//! Bit-exact integer model of the FPGA decimation filter.
//!
//! The paper's decimation filter "is implemented in an FPGA" (§2.2) —
//! i.e. entirely in fixed-point arithmetic.
//! [`TwoStageDecimator`](crate::decimator::TwoStageDecimator) already
//! runs its CIC stage in integers but keeps
//! the FIR and output scaling in `f64`; this module goes all the way: a
//! [`FixedPointDecimator`] whose every intermediate value is an integer a
//! synthesizable design would hold in registers:
//!
//! ```text
//! ±1 bits → CIC (i64, wrapping)      16-bit words (R³ = 2¹⁵ gain ≙ Q15)
//!         → FIR MAC (i64)            coefficients Qc, accumulator Q(15+c)
//!         → rounding shift           12-bit output code
//! ```
//!
//! The harness experiments use it for the word-length ablation (A4), and
//! the `fpga_agrees_with_behavioral_chain` proptest checks the
//! behavioral `f64` chain against the "hardware" it stands in for.

use crate::cic::CicDecimator;
use crate::fir::design_lowpass;
use crate::window::Window;
use crate::DspError;

/// Fractional interpretation of the CIC output word: with a ±1 input and
/// the paper's `R = 32`, the CIC gain is `32³ = 2¹⁵`, so the 16-bit CIC
/// word is naturally a Q15 fraction.
const CIC_FRAC_BITS: u32 = 15;

/// Configuration of the bit-exact decimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointConfig {
    /// CIC order (paper: 3).
    pub cic_order: usize,
    /// CIC decimation ratio (paper: 32; must make `ratio^order` a power
    /// of two so the CIC word maps onto a clean Q format).
    pub cic_ratio: usize,
    /// FIR tap count (paper: 32).
    pub fir_taps: usize,
    /// FIR coefficient fractional bits (word length − 1; paper-class
    /// FPGA: 14).
    pub coeff_frac_bits: u32,
    /// Output word length in bits (paper: 12).
    pub output_bits: u32,
    /// Normalized FIR cutoff at the intermediate rate (paper: 0.125).
    pub cutoff: f64,
}

impl FixedPointConfig {
    /// The paper's FPGA: SINC³÷32 + 32-tap Q14 FIR ÷4 + 12-bit output.
    pub fn paper_default() -> Self {
        FixedPointConfig {
            cic_order: 3,
            cic_ratio: 32,
            fir_taps: 32,
            coeff_frac_bits: 14,
            output_bits: 12,
            cutoff: 0.125,
        }
    }
}

impl Default for FixedPointConfig {
    fn default() -> Self {
        FixedPointConfig::paper_default()
    }
}

/// Fully integer two-stage decimator (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPointDecimator {
    config: FixedPointConfig,
    cic: CicDecimator,
    /// Quantized FIR coefficients (raw integers, Q`coeff_frac_bits`).
    coeff_raw: Vec<i64>,
    /// FIR delay line of CIC output words.
    delay: Vec<i64>,
    head: usize,
    phase: usize,
}

impl FixedPointDecimator {
    /// Builds the integer datapath.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `ratio^order` is not a
    /// power of two, word lengths are out of range, or the FIR design
    /// parameters are invalid.
    pub fn new(config: FixedPointConfig) -> Result<Self, DspError> {
        let cic = CicDecimator::new(config.cic_order, config.cic_ratio)?;
        let gain = cic.gain();
        if gain <= 0 || (gain as u64).count_ones() != 1 {
            return Err(DspError::InvalidParameter(format!(
                "CIC gain {gain} must be a power of two for a clean Q mapping"
            )));
        }
        if !(2..=30).contains(&config.coeff_frac_bits) {
            return Err(DspError::InvalidParameter(format!(
                "coefficient fractional bits {} out of 2..=30",
                config.coeff_frac_bits
            )));
        }
        if !(2..=24).contains(&config.output_bits) {
            return Err(DspError::InvalidParameter(format!(
                "output bits {} out of 2..=24",
                config.output_bits
            )));
        }
        let ideal = design_lowpass(config.fir_taps, config.cutoff, Window::Hamming)?;
        let scale = (1_i64 << config.coeff_frac_bits) as f64;
        let coeff_raw: Vec<i64> = ideal.iter().map(|&c| (c * scale).round() as i64).collect();
        Ok(FixedPointDecimator {
            config,
            cic,
            delay: vec![0; config.fir_taps],
            coeff_raw,
            head: 0,
            phase: 0,
        })
    }

    /// The paper's FPGA decimator.
    pub fn paper_default() -> Self {
        FixedPointDecimator::new(FixedPointConfig::paper_default())
            .expect("paper configuration is valid")
    }

    /// The configuration.
    pub fn config(&self) -> &FixedPointConfig {
        &self.config
    }

    /// Total decimation ratio.
    pub fn ratio(&self) -> usize {
        self.cic.ratio() * 4
    }

    /// Effective DC gain of the quantized FIR (≈ 1; the residue is the
    /// coefficient-rounding gain error a real FPGA design also has).
    pub fn dc_gain(&self) -> f64 {
        self.coeff_raw.iter().sum::<i64>() as f64 / (1_i64 << self.config.coeff_frac_bits) as f64
    }

    /// Pushes one modulator bit (+1/−1); returns an output code every
    /// `ratio()`-th call.
    pub fn push(&mut self, bit: i8) -> Option<i32> {
        debug_assert!(bit == 1 || bit == -1, "single-bit stream expected");
        // Scale the CIC's natural Q mapping to Q15 regardless of gain.
        let cic_word = self.cic.push(i64::from(bit))?;
        let gain_bits = (self.cic.gain() as u64).trailing_zeros();
        let mid = if gain_bits >= CIC_FRAC_BITS {
            cic_word >> (gain_bits - CIC_FRAC_BITS)
        } else {
            cic_word << (CIC_FRAC_BITS - gain_bits)
        };
        // FIR stage at the intermediate rate, decimating by 4.
        let n = self.delay.len();
        self.head = (self.head + 1) % n;
        self.delay[self.head] = mid;
        self.phase += 1;
        if self.phase < 4 {
            return None;
        }
        self.phase = 0;
        let mut acc: i64 = 0;
        for (k, &c) in self.coeff_raw.iter().enumerate() {
            let idx = (self.head + n - k) % n;
            acc += c * self.delay[idx];
        }
        // Accumulator fraction: Q(15 + coeff_frac); shift (with rounding)
        // down to the output word and saturate.
        let out_frac = self.config.output_bits - 1;
        let shift = CIC_FRAC_BITS + self.config.coeff_frac_bits - out_frac;
        let rounded = (acc + (1_i64 << (shift - 1))) >> shift;
        let max = (1_i64 << out_frac) - 1;
        let min = -(1_i64 << out_frac);
        Some(rounded.clamp(min, max) as i32)
    }

    /// Processes a block of bits.
    pub fn process(&mut self, bits: &[i8]) -> Vec<i32> {
        bits.iter().filter_map(|&b| self.push(b)).collect()
    }

    /// Converts an output code back to a ±1.0 full-scale value (what the
    /// host computer does after the USB link).
    pub fn dequantize(&self, code: i32) -> f64 {
        code as f64 / (1_i64 << (self.config.output_bits - 1)) as f64
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.cic.reset();
        self.delay.iter_mut().for_each(|v| *v = 0);
        self.head = 0;
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitstream(n: usize) -> Vec<i8> {
        // A deterministic pseudo-random ±1 stream with a positive bias.
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761) >> 7;
                if h % 16 < 9 {
                    1
                } else {
                    -1
                }
            })
            .collect()
    }

    #[test]
    fn paper_configuration_builds_and_decimates() {
        let mut d = FixedPointDecimator::paper_default();
        assert_eq!(d.ratio(), 128);
        let out = d.process(&bitstream(128 * 50));
        assert_eq!(out.len(), 50);
        // DC gain of the quantized FIR is within 0.2 % of unity.
        assert!((d.dc_gain() - 1.0).abs() < 2e-3, "dc gain {}", d.dc_gain());
    }

    #[test]
    fn dc_bitstream_converges_to_its_mean() {
        // All +1 bits → the output should settle to (nearly) +full scale.
        let mut d = FixedPointDecimator::paper_default();
        let out = d.process(&vec![1_i8; 128 * 60]);
        let settled = d.dequantize(*out.last().unwrap());
        assert!((settled - 1.0).abs() < 3.0 / 2048.0, "settled to {settled}");
    }

    #[test]
    fn is_bit_exactly_deterministic() {
        let bits = bitstream(128 * 30);
        let a = FixedPointDecimator::paper_default().process(&bits);
        let b = FixedPointDecimator::paper_default().process(&bits);
        assert_eq!(a, b);
    }

    #[test]
    fn output_saturates_cleanly() {
        let mut d = FixedPointDecimator::paper_default();
        let out = d.process(&vec![1_i8; 128 * 80]);
        for &code in &out {
            assert!((-2048..=2047).contains(&code));
        }
        assert_eq!(
            *out.last().unwrap(),
            2047,
            "sustained +FS pins the top code"
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut cfg = FixedPointConfig::paper_default();
        cfg.cic_ratio = 24; // 24^3 not a power of two
        assert!(FixedPointDecimator::new(cfg).is_err());
        let mut cfg = FixedPointConfig::paper_default();
        cfg.coeff_frac_bits = 1;
        assert!(FixedPointDecimator::new(cfg).is_err());
        let mut cfg = FixedPointConfig::paper_default();
        cfg.output_bits = 30;
        assert!(FixedPointDecimator::new(cfg).is_err());
        let mut cfg = FixedPointConfig::paper_default();
        cfg.cutoff = 0.6;
        assert!(FixedPointDecimator::new(cfg).is_err());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut d = FixedPointDecimator::paper_default();
        let fresh = d.clone();
        let _ = d.process(&bitstream(1000));
        assert_ne!(d, fresh);
        d.reset();
        assert_eq!(d, fresh);
    }

    #[test]
    fn non_paper_ratios_with_power_of_two_gain_work() {
        // R = 16, order 3 → gain 2^12: the Q mapping shifts up.
        let cfg = FixedPointConfig {
            cic_ratio: 16,
            ..FixedPointConfig::paper_default()
        };
        let mut d = FixedPointDecimator::new(cfg).unwrap();
        assert_eq!(d.ratio(), 64);
        let out = d.process(&vec![1_i8; 64 * 60]);
        let settled = d.dequantize(*out.last().unwrap());
        assert!((settled - 1.0).abs() < 3.0 / 2048.0, "settled to {settled}");
    }
}
