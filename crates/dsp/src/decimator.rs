//! The paper's two-stage decimation filter with 12-bit output.
//!
//! Block diagram (paper Fig. 3 / §3.1):
//!
//! ```text
//! ΣΔ bitstream ──> SINC³ ÷(OSR/4) ──> FIR 32 taps ÷4 ──> 12-bit output
//!   128 kS/s          (÷32)             500 Hz cutoff       1 kS/s
//! ```
//!
//! The oversampling ratio is configurable (the paper uses 128) for the OSR
//! ablation; the split keeps the FIR's final ÷4 fixed, matching the usual
//! CIC+compensation partition and the paper's 32-tap second stage.

use crate::bits::PackedBits;
use crate::cic::CicDecimator;
use crate::fir::{design_lowpass, FirDecimator};
use crate::fixed::{quantize_coefficients, QFormat};
use crate::window::Window;
use crate::DspError;

/// Configuration of the two-stage decimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecimatorConfig {
    /// Modulator (input) sample rate in Hz.
    pub input_rate: f64,
    /// Total oversampling ratio; must be a multiple of 4 and ≥ 8.
    pub osr: usize,
    /// CIC order (paper: 3).
    pub cic_order: usize,
    /// FIR tap count (paper: 32).
    pub fir_taps: usize,
    /// Low-pass cutoff in Hz (paper: 500 Hz).
    pub cutoff_hz: f64,
    /// Output word length in bits; `None` keeps the unquantized float
    /// output (paper: 12).
    pub output_bits: Option<u32>,
    /// Optional coefficient word length for FPGA-style quantized FIR
    /// coefficients (ablation A4); `None` keeps f64 coefficients.
    pub coefficient_bits: Option<u32>,
}

impl DecimatorConfig {
    /// The paper's configuration: 128 kS/s input, OSR 128, SINC³ + 32-tap
    /// FIR, 500 Hz cutoff, 12-bit output.
    pub fn paper_default() -> Self {
        DecimatorConfig {
            input_rate: 128_000.0,
            osr: 128,
            cic_order: 3,
            fir_taps: 32,
            cutoff_hz: 500.0,
            output_bits: Some(12),
            coefficient_bits: None,
        }
    }

    /// Output sample rate in Hz.
    pub fn output_rate(&self) -> f64 {
        self.input_rate / self.osr as f64
    }

    /// Builds the streaming decimator.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the OSR is not a
    /// multiple of 4 (≥ 8), the cutoff exceeds the output Nyquist rate, or
    /// any stage parameter is invalid.
    pub fn build(&self) -> Result<TwoStageDecimator, DspError> {
        if self.osr < 8 || !self.osr.is_multiple_of(4) {
            return Err(DspError::InvalidParameter(format!(
                "OSR {} must be a multiple of 4 and >= 8",
                self.osr
            )));
        }
        if self.input_rate <= 0.0 {
            return Err(DspError::InvalidParameter(
                "input rate must be positive".into(),
            ));
        }
        let cic_ratio = self.osr / 4;
        let intermediate_rate = self.input_rate / cic_ratio as f64;
        let normalized_cutoff = self.cutoff_hz / intermediate_rate;
        if !(normalized_cutoff > 0.0 && normalized_cutoff < 0.5) {
            return Err(DspError::InvalidParameter(format!(
                "cutoff {} Hz outside (0, {}) Hz at the intermediate rate",
                self.cutoff_hz,
                intermediate_rate / 2.0
            )));
        }
        let mut taps = design_lowpass(self.fir_taps, normalized_cutoff, Window::Hamming)?;
        if let Some(bits) = self.coefficient_bits {
            let width = bits.clamp(2, 63);
            let fmt = QFormat::new(width, width - 1)?;
            let (q, _) = quantize_coefficients(&taps, fmt);
            // Renormalize DC gain after quantization so amplitude scaling
            // stays exact (FPGA designs do the same with a gain stage).
            let sum: f64 = q.iter().sum();
            taps = q.into_iter().map(|t| t / sum).collect();
        }
        let quantizer = match self.output_bits {
            Some(bits) => Some(OutputQuantizer::new(bits)?),
            None => None,
        };
        let cic = CicDecimator::new(self.cic_order, cic_ratio)?;
        let cic_norm = cic.gain() as f64 * (1_i64 << CIC_INPUT_FRAC_BITS) as f64;
        Ok(TwoStageDecimator {
            cic,
            cic_norm,
            fir: FirDecimator::new(taps, 4)?,
            quantizer,
            samples_in: 0,
            samples_out: 0,
            flushes: 0,
            clip_events: 0,
        })
    }
}

impl Default for DecimatorConfig {
    fn default() -> Self {
        DecimatorConfig::paper_default()
    }
}

/// Uniform mid-tread output quantizer mapping ±1.0 full scale onto signed
/// `bits`-wide codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputQuantizer {
    bits: u32,
    scale: i64,
}

impl OutputQuantizer {
    /// Creates a quantizer of the given word length.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for widths outside 2..=31.
    pub fn new(bits: u32) -> Result<Self, DspError> {
        if !(2..=31).contains(&bits) {
            return Err(DspError::InvalidParameter(format!(
                "output bits {bits} must be in 2..=31"
            )));
        }
        Ok(OutputQuantizer {
            bits,
            scale: 1_i64 << (bits - 1),
        })
    }

    /// Word length in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantizes a ±1.0 full-scale value to an integer code, saturating.
    pub fn quantize(&self, x: f64) -> i32 {
        let code = (x * self.scale as f64).round();
        code.clamp(-(self.scale as f64), (self.scale - 1) as f64) as i32
    }

    /// Converts a code back to its full-scale value.
    pub fn dequantize(&self, code: i32) -> f64 {
        code as f64 / self.scale as f64
    }

    /// Quantize-and-dequantize in one step (the value the host computer
    /// sees).
    pub fn round_trip(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// The quantization step (1 LSB in full-scale units).
    pub fn lsb(&self) -> f64 {
        1.0 / self.scale as f64
    }

    /// Whether quantizing `x` would saturate at a full-scale code.
    pub fn clips(&self, x: f64) -> bool {
        let code = (x * self.scale as f64).round();
        !(code > -(self.scale as f64) - 0.5 && code < (self.scale - 1) as f64 + 0.5)
    }
}

/// Fractional bits used to quantize the CIC input. The first stage runs
/// in *integer* arithmetic like the FPGA it models: a floating-point CIC
/// would silently lose precision on long records, because its integrator
/// states grow without bound under any DC-biased input (the classic CIC
/// design relies on two's-complement wraparound, which `f64` cannot
/// provide). Q20 input quantization adds noise at ~-120 dBFS, far below
/// every other noise source in the chain.
pub const CIC_INPUT_FRAC_BITS: u32 = 20;

/// The Q-format CIC input word for a `+1` modulator bit (`−BIT_ONE` for
/// a `−1` bit) — exactly `(±1.0 · 2^20).round()`, which is what keeps the
/// packed path bit-identical to the `f64` path.
const BIT_ONE: i64 = 1_i64 << CIC_INPUT_FRAC_BITS;

/// Streaming two-stage decimator (CIC ÷(OSR/4), FIR ÷4, optional output
/// quantizer).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageDecimator {
    cic: CicDecimator,
    /// Combined CIC gain and input-scaling normalization.
    cic_norm: f64,
    fir: FirDecimator,
    quantizer: Option<OutputQuantizer>,
    /// Modulator-rate samples consumed.
    samples_in: u64,
    /// Decimated samples produced.
    samples_out: u64,
    /// Full-state flushes via [`TwoStageDecimator::reset`].
    flushes: u64,
    /// Output-quantizer full-scale saturations.
    clip_events: u64,
}

impl TwoStageDecimator {
    /// The paper's decimator (see [`DecimatorConfig::paper_default`]).
    pub fn paper_default() -> Self {
        DecimatorConfig::paper_default()
            .build()
            .expect("paper configuration is valid")
    }

    /// Total decimation ratio.
    pub fn ratio(&self) -> usize {
        self.cic.ratio() * self.fir.ratio()
    }

    /// The output quantizer, when configured.
    pub fn quantizer(&self) -> Option<&OutputQuantizer> {
        self.quantizer.as_ref()
    }

    /// Pushes one modulator-rate sample (±1.0 for a single-bit stream);
    /// returns a decimated output sample every `ratio()`-th call.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let xi = (x * (1_i64 << CIC_INPUT_FRAC_BITS) as f64).round() as i64;
        self.samples_in += 1;
        let mid = self.cic.push(xi)? as f64 / self.cic_norm;
        let out = self.fir.push(mid)?;
        self.samples_out += 1;
        Some(match &self.quantizer {
            Some(q) => {
                if q.clips(out) {
                    self.clip_events += 1;
                }
                q.round_trip(out)
            }
            None => out,
        })
    }

    /// Processes a block of modulator-rate samples, appending the
    /// decimated outputs to caller-owned `out` (not cleared first).
    pub fn process_into(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        out.extend(xs.iter().filter_map(|&x| self.push(x)));
    }

    /// Processes a packed single-bit stream ([`PackedBits`], the
    /// modulator's native output) — the bitstream entry, and
    /// allocation-free. Decimated outputs are appended to `out` (not
    /// cleared first, so callers can accumulate).
    ///
    /// The first stage runs word-parallel through
    /// [`CicDecimator::push_word`]: 64 modulator clocks per kernel call
    /// instead of one. A `+1` bit enters the integer CIC as `+2^20`,
    /// exactly the word [`TwoStageDecimator::push`] makes of `1.0`, so
    /// the output is bit-identical to pushing the ±1.0 stream one sample
    /// at a time (property-tested in `tests/props.rs`).
    pub fn process_packed_into(&mut self, bits: &PackedBits, out: &mut Vec<f64>) {
        self.samples_in += bits.len() as u64;
        // Split borrows: the emit closure drives the FIR, quantizer, and
        // counters while the CIC is exclusively borrowed by the kernel.
        let TwoStageDecimator {
            cic,
            cic_norm,
            fir,
            quantizer,
            samples_out,
            clip_events,
            ..
        } = self;
        let norm = *cic_norm;
        let mut remaining = bits.len();
        for &w in bits.words() {
            let take = remaining.min(64);
            remaining -= take;
            cic.push_word(w, take, BIT_ONE, &mut |v| {
                let mid = v as f64 / norm;
                if let Some(y) = fir.push(mid) {
                    *samples_out += 1;
                    out.push(match quantizer {
                        Some(q) => {
                            if q.clips(y) {
                                *clip_events += 1;
                            }
                            q.round_trip(y)
                        }
                        None => y,
                    });
                }
            });
        }
    }

    /// Clears all filter state. Throughput counters survive the flush —
    /// they describe the decimator's lifetime, not one stream segment —
    /// and the flush itself is counted.
    pub fn reset(&mut self) {
        self.cic.reset();
        self.fir.reset();
        self.flushes += 1;
    }

    /// Modulator-rate samples consumed over this decimator's lifetime.
    pub fn samples_in(&self) -> u64 {
        self.samples_in
    }

    /// Decimated output samples produced over this decimator's lifetime.
    pub fn samples_out(&self) -> u64 {
        self.samples_out
    }

    /// Number of [`TwoStageDecimator::reset`] flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Output samples that saturated the output quantizer (always 0 for
    /// an unquantized chain).
    pub fn clip_events(&self) -> u64 {
        self.clip_events
    }

    /// Number of output samples to discard after a source switch before
    /// the chain has fully settled: the combined impulse-response span of
    /// both stages, expressed in output samples (rounded up).
    ///
    /// This is the quantity behind the paper's remark that mux switching
    /// "is limited by the signal bandwidth of the ΣΔ-AD-converter" (§2.2).
    pub fn settling_output_samples(&self) -> usize {
        // CIC memory: order * ratio input samples; FIR memory: taps
        // intermediate samples = taps * cic_ratio input samples.
        let input_span =
            self.cic.order() * self.cic.ratio() + self.fir.taps().len() * self.cic.ratio();
        input_span.div_ceil(self.ratio()) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::sine_wave;

    /// A float block through `process_into`.
    fn decimate(d: &mut TwoStageDecimator, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        d.process_into(xs, &mut out);
        out
    }

    #[test]
    fn paper_chain_has_ratio_128_and_1ksps_output() {
        let cfg = DecimatorConfig::paper_default();
        assert_eq!(cfg.output_rate(), 1000.0);
        let d = cfg.build().unwrap();
        assert_eq!(d.ratio(), 128);
        assert_eq!(d.quantizer().unwrap().bits(), 12);
    }

    #[test]
    fn dc_input_settles_to_dc_output() {
        let mut d = DecimatorConfig {
            output_bits: None,
            ..DecimatorConfig::paper_default()
        }
        .build()
        .unwrap();
        let out = decimate(&mut d, &vec![0.25; 128 * 64]);
        let last = *out.last().unwrap();
        assert!((last - 0.25).abs() < 1e-9, "settled to {last}");
    }

    #[test]
    fn in_band_tone_passes_with_unity_gain() {
        let fs = 128_000.0;
        let f = 100.0;
        let n = 128 * 1024;
        let x = sine_wave(fs, f, 0.5, 0.0, n);
        let mut d = DecimatorConfig {
            output_bits: None,
            ..DecimatorConfig::paper_default()
        }
        .build()
        .unwrap();
        let out = decimate(&mut d, &x);
        let settled = &out[d.settling_output_samples()..];
        let rms = (settled.iter().map(|v| v * v).sum::<f64>() / settled.len() as f64).sqrt();
        let expected = 0.5 / 2.0_f64.sqrt();
        assert!((rms - expected).abs() / expected < 0.02, "rms {rms}");
    }

    #[test]
    fn out_of_band_tone_is_rejected() {
        // 3 kHz is above the 500 Hz cutoff and the 1 kS/s Nyquist.
        let fs = 128_000.0;
        let x = sine_wave(fs, 3_000.0, 0.5, 0.0, 128 * 512);
        let mut d = DecimatorConfig {
            output_bits: None,
            ..DecimatorConfig::paper_default()
        }
        .build()
        .unwrap();
        let out = decimate(&mut d, &x);
        let settled = &out[d.settling_output_samples()..];
        let rms = (settled.iter().map(|v| v * v).sum::<f64>() / settled.len() as f64).sqrt();
        assert!(rms < 0.01, "out-of-band rms {rms}");
    }

    #[test]
    fn quantizer_limits_resolution_to_12_bits() {
        let q = OutputQuantizer::new(12).unwrap();
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(1.0), 2047, "positive full scale saturates");
        assert_eq!(q.quantize(-1.0), -2048);
        assert!((q.lsb() - 1.0 / 2048.0).abs() < 1e-15);
        // Round trip error bounded by half an LSB inside the range.
        for &x in &[0.1, -0.37, 0.9995, -0.99999] {
            assert!((q.round_trip(x) - x).abs() <= q.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn quantizer_rejects_bad_widths() {
        assert!(OutputQuantizer::new(1).is_err());
        assert!(OutputQuantizer::new(32).is_err());
    }

    #[test]
    fn config_validation_catches_bad_parameters() {
        let bad_osr = DecimatorConfig {
            osr: 6,
            ..DecimatorConfig::paper_default()
        };
        assert!(bad_osr.build().is_err());
        let bad_osr = DecimatorConfig {
            osr: 126,
            ..DecimatorConfig::paper_default()
        };
        assert!(bad_osr.build().is_err());
        let bad_rate = DecimatorConfig {
            input_rate: 0.0,
            ..DecimatorConfig::paper_default()
        };
        assert!(bad_rate.build().is_err());
        let bad_cutoff = DecimatorConfig {
            cutoff_hz: 10_000.0,
            ..DecimatorConfig::paper_default()
        };
        assert!(bad_cutoff.build().is_err());
    }

    #[test]
    fn packed_entry_point_is_bit_identical() {
        // The packed path must match the f64 path sample for sample —
        // not approximately: the decimator output is a deterministic
        // function of the bit sequence in both representations.
        let bools: Vec<bool> = (0..128 * 9 + 37).map(|i| (i * i + 3 * i) % 5 < 2).collect();
        let packed: PackedBits = bools.iter().copied().collect();
        let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let mut d1 = TwoStageDecimator::paper_default();
        let mut d2 = TwoStageDecimator::paper_default();
        let mut via_packed = Vec::new();
        d1.process_packed_into(&packed, &mut via_packed);
        let via_floats = decimate(&mut d2, &floats);
        assert_eq!(via_packed, via_floats);
        // Same throughput accounting on both paths.
        assert_eq!(d1.samples_in(), d2.samples_in());
        assert_eq!(d1.samples_out(), d2.samples_out());
    }

    #[test]
    fn settling_estimate_is_sufficient() {
        // After a hard step, the output must be within 1 LSB of final value
        // once the advertised settling time has elapsed.
        let mut d = TwoStageDecimator::paper_default();
        // Drive -0.5 until fully settled.
        let _ = decimate(&mut d, &vec![-0.5; 128 * 100]);
        // Step to +0.5 and observe.
        let out = decimate(&mut d, &vec![0.5; 128 * 100]);
        let k = d.settling_output_samples();
        let lsb = d.quantizer().unwrap().lsb();
        for (i, &v) in out.iter().enumerate().skip(k) {
            assert!(
                (v - 0.5).abs() <= 2.0 * lsb,
                "sample {i} = {v} not settled (k = {k})"
            );
        }
        // And the first post-switch samples are visibly wrong (why the
        // scan controller must discard them).
        assert!(
            (out[0] + 0.5).abs() < 0.2,
            "first sample still near old value"
        );
    }

    #[test]
    fn quantized_coefficients_still_give_unity_dc() {
        let cfg = DecimatorConfig {
            coefficient_bits: Some(10),
            output_bits: None,
            ..DecimatorConfig::paper_default()
        };
        let mut d = cfg.build().unwrap();
        let out = decimate(&mut d, &vec![0.3; 128 * 64]);
        // Tolerance: the Q20 CIC input quantization bounds DC error at
        // 2^-21 ≈ 4.8e-7.
        assert!((out.last().unwrap() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn long_dc_biased_records_do_not_lose_precision() {
        // Regression: a floating-point CIC silently degrades after
        // millions of DC-biased samples (integrator-state growth eats the
        // f64 mantissa). The integer CIC must hold the output to within
        // one LSB indefinitely.
        let mut d = TwoStageDecimator::paper_default();
        let lsb = d.quantizer().unwrap().lsb();
        let bias = 0.0553;
        let mut worst = 0.0_f64;
        let chunk = vec![bias; 128 * 1000];
        for block in 0..60 {
            let out = decimate(&mut d, &chunk);
            if block > 0 {
                for &v in &out {
                    worst = worst.max((v - bias).abs());
                }
            }
        }
        assert!(
            worst <= lsb,
            "drifted to {worst} (= {} LSB) after 7.7M samples",
            worst / lsb
        );
    }

    #[test]
    fn throughput_counters_track_the_stream() {
        let mut d = TwoStageDecimator::paper_default();
        assert_eq!((d.samples_in(), d.samples_out(), d.flushes()), (0, 0, 0));
        let out = decimate(&mut d, &vec![0.1; 128 * 5]);
        assert_eq!(out.len(), 5);
        assert_eq!(d.samples_in(), 128 * 5);
        assert_eq!(d.samples_out(), 5);
        d.reset();
        assert_eq!(d.flushes(), 1);
        // Counters describe the lifetime, not one segment.
        let _ = decimate(&mut d, &vec![0.1; 128]);
        assert_eq!(d.samples_in(), 128 * 6);
        assert_eq!(d.samples_out(), 6);
    }

    #[test]
    fn clip_events_count_full_scale_saturation() {
        // A DC input beyond +1.0 full scale must pin the 12-bit output at
        // the top code and count clips once the chain has settled.
        let mut d = TwoStageDecimator::paper_default();
        let _ = decimate(&mut d, &vec![1.5; 128 * 100]);
        assert!(d.clip_events() > 0, "expected saturations, got none");
        // An in-range signal adds no further clips.
        let mut clean = TwoStageDecimator::paper_default();
        let _ = decimate(&mut clean, &vec![0.25; 128 * 100]);
        assert_eq!(clean.clip_events(), 0);
        // The quantizer predicate itself.
        let q = OutputQuantizer::new(12).unwrap();
        assert!(q.clips(1.0));
        assert!(q.clips(-1.001));
        assert!(!q.clips(0.999));
        assert!(!q.clips(-1.0));
    }

    #[test]
    fn osr_variants_build_and_decimate() {
        for osr in [8, 16, 64, 256, 512] {
            let cfg = DecimatorConfig {
                osr,
                cutoff_hz: (128_000.0 / osr as f64) / 2.2,
                ..DecimatorConfig::paper_default()
            };
            let mut d = cfg.build().unwrap();
            assert_eq!(d.ratio(), osr);
            let out = decimate(&mut d, &vec![1.0; osr * 10]);
            assert_eq!(out.len(), 10);
        }
    }
}
