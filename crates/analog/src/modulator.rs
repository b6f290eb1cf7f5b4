//! Single-bit ΣΔ modulators: the paper's 2nd-order converter and a
//! 1st-order baseline.
//!
//! The paper's converter (Fig. 6) is a fully-differential switched-
//! capacitor **second-order single-bit ΣΔ-modulator** clocked at 128 kHz.
//! The behavioral model is the standard Boser–Wooley discrete-time loop
//! with two delaying integrators and half-scale coefficients:
//!
//! ```text
//! x1[n] = p·x1[n−1] + b1·u[n−1] − a1·v[n−1]
//! x2[n] = p·x2[n−1] + c1·x1[n−1] − a2·v[n−1]
//! v[n]  = sign(x2[n])                       (±1, the output bit)
//! ```
//!
//! with `b1 = a1 = c1 = a2 = 0.5`. Charge balance forces the bitstream
//! mean to equal the input (`b1/a1 = 1`), and the quantization noise is
//! shaped by `(1 − z⁻¹)²`.
//!
//! All non-idealities come from [`NonIdealities`]: integrator leak (finite
//! op-amp gain), saturation, input-referred sampled noise, comparator
//! offset/hysteresis, and clock jitter. The loop components are
//! deterministic; each modulator owns and draws its seeded noise streams.

use std::hint::select_unpredictable;

use tonos_dsp::bits::PackedBits;

use crate::dac::FeedbackDac;
use crate::integrator::ScIntegrator;
use crate::noise::{ziggurat_xs, NoiseSource};
use crate::nonideal::NonIdealities;
use crate::quantizer::Comparator;
use crate::AnalogError;

/// The paper's modulator clock rate in Hz.
pub const PAPER_SAMPLE_RATE_HZ: f64 = 128_000.0;

/// Common interface of the single-bit modulators.
///
/// Two ways in: per-sample [`DeltaSigmaModulator::step`], the oracle,
/// and [`DeltaSigmaModulator::step_block`], the block lane every
/// conversion runs, whose packed bits feed
/// `tonos_dsp::decimator::TwoStageDecimator::process_packed_into`.
pub trait DeltaSigmaModulator {
    /// Converts one input sample (full-scale ±1.0) to one output bit,
    /// ±1 (`i8`): the value the 1-bit DAC feeds back.
    fn step(&mut self, input: f64) -> i8;

    /// Resets all loop state (integrators, comparator, input history) but
    /// not the noise stream positions.
    fn reset(&mut self);

    /// The modulator order (noise-shaping order).
    fn order(&self) -> usize;

    /// Block conversion — the allocation-free lane. `bits` receives the
    /// packed output, one bit per clock (appended, not cleared).
    ///
    /// **Bit-identical** to calling [`DeltaSigmaModulator::step`] per
    /// sample: implementations may reorder *independent* noise-stream
    /// draws within a clock, but every stream is consumed in the same
    /// per-sample order, so the emitted bits and the final modulator
    /// state are exactly those of the scalar path. The default is that
    /// per-sample loop.
    fn step_block(&mut self, input: &[f64], bits: &mut PackedBits) {
        for &u in input {
            bits.push(self.step(u) > 0);
        }
    }
}

/// Loop coefficients of the 2nd-order modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// First-stage input gain.
    pub b1: f64,
    /// First-stage DAC feedback gain.
    pub a1: f64,
    /// Inter-stage gain.
    pub c1: f64,
    /// Second-stage DAC feedback gain.
    pub a2: f64,
}

impl Coefficients {
    /// The classic Boser–Wooley half-scale coefficient set.
    pub fn boser_wooley() -> Self {
        Coefficients {
            b1: 0.5,
            a1: 0.5,
            c1: 0.5,
            a2: 0.5,
        }
    }

    /// Validates the coefficient set.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive or
    /// non-finite coefficients, or when `b1 != a1` (which would produce a
    /// systematic gain error between input and bitstream mean).
    pub fn validate(&self) -> Result<(), AnalogError> {
        for (name, v) in [
            ("b1", self.b1),
            ("a1", self.a1),
            ("c1", self.c1),
            ("a2", self.a2),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(AnalogError::InvalidParameter(format!(
                    "coefficient {name} = {v} must be positive and finite"
                )));
            }
        }
        if (self.b1 - self.a1).abs() > 1e-12 {
            return Err(AnalogError::InvalidParameter(format!(
                "b1 ({}) must equal a1 ({}) for unity signal gain",
                self.b1, self.a1
            )));
        }
        Ok(())
    }
}

impl Default for Coefficients {
    fn default() -> Self {
        Coefficients::boser_wooley()
    }
}

/// Second-order single-bit ΣΔ modulator (the paper's converter).
#[derive(Debug, Clone)]
pub struct SigmaDelta2 {
    coeffs: Coefficients,
    int1: ScIntegrator,
    int2: ScIntegrator,
    comparator: Comparator,
    dac: FeedbackDac,
    /// Input-referred sampled noise, then the jitter error: both are
    /// drawn into the impaired input `u`.
    input_noise: NoiseSource,
    /// The second integrator's own noise, of σ `stage2_sigma`, added to
    /// its update.
    stage2_noise: NoiseSource,
    stage2_sigma: f64,
    /// Reference noise, multiplying the DAC's feedback level.
    reference_noise: NoiseSource,
    nonideal: NonIdealities,
    prev_input: f64,
    last_bit: i8,
    saturation_events: u64,
    steps: u64,
}

impl SigmaDelta2 {
    /// Builds the modulator with Boser–Wooley coefficients and the given
    /// non-idealities.
    ///
    /// # Errors
    ///
    /// Propagates [`NonIdealities::validate`] failures.
    pub fn new(nonideal: NonIdealities) -> Result<Self, AnalogError> {
        SigmaDelta2::with_coefficients(Coefficients::boser_wooley(), nonideal)
    }

    /// Builds the modulator with explicit loop coefficients.
    ///
    /// # Errors
    ///
    /// Propagates coefficient and non-ideality validation failures.
    pub fn with_coefficients(
        coeffs: Coefficients,
        nonideal: NonIdealities,
    ) -> Result<Self, AnalogError> {
        coeffs.validate()?;
        nonideal.validate()?;
        let mut root = NoiseSource::from_seed(nonideal.seed);
        // Splitting five streams in this order pins the live streams'
        // seeds, and with them every seeded output. The first and third
        // are unused placeholders: the first integrator and the
        // comparator draw no noise.
        root.split();
        let stage2_noise = root.split();
        root.split();
        let reference_noise = root.split();
        let input_noise = root.split();
        let integrator =
            || ScIntegrator::new(nonideal.opamp_dc_gain, nonideal.integrator_saturation);
        Ok(SigmaDelta2 {
            coeffs,
            int1: integrator(),
            int2: integrator(),
            comparator: Comparator::new(nonideal.comparator_offset, nonideal.comparator_hysteresis),
            dac: FeedbackDac::new(nonideal.dac_level_mismatch, nonideal.dac_isi),
            input_noise,
            stage2_noise,
            // First-stage noise is input-referred; the second stage's own
            // noise is shaped away by the first integrator's gain, so it
            // gets a much smaller share (10 %).
            stage2_sigma: nonideal.input_noise_sigma * 0.1,
            reference_noise,
            nonideal,
            prev_input: 0.0,
            last_bit: 1,
            saturation_events: 0,
            steps: 0,
        })
    }

    /// The loop coefficients in use.
    pub fn coefficients(&self) -> Coefficients {
        self.coeffs
    }

    /// Number of integrator saturation events since construction/reset —
    /// the overload telltale (a healthy modulator shows none for inputs
    /// within the stable range).
    pub fn saturation_events(&self) -> u64 {
        self.saturation_events
    }

    /// Total converted samples since construction/reset.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Fraction of steps that saturated an integrator.
    pub fn overload_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.saturation_events as f64 / self.steps as f64
        }
    }
}

impl DeltaSigmaModulator for SigmaDelta2 {
    fn step(&mut self, input: f64) -> i8 {
        // Sampled-input impairments: kT/C-class noise plus jitter error
        // proportional to the per-sample slew.
        let jitter = self.nonideal.jitter_slew_gain * (input - self.prev_input);
        let u = input
            + self.input_noise.gaussian(self.nonideal.input_noise_sigma)
            + self.input_noise.gaussian(jitter.abs());
        self.prev_input = input;

        // Decision from the *previous* second-integrator state (delaying
        // loop), then state updates using the old x1.
        let v = self.comparator.decide(self.int2.state());
        let zr = self
            .reference_noise
            .gaussian(self.nonideal.reference_noise_sigma);
        let vf = self.dac.convert(v) * (1.0 + zr);
        let x1_old = self.int1.state();
        // The first stage's noise is input-referred (drawn into `u`), so
        // its own noise slot is zero.
        self.int1
            .update(self.coeffs.b1 * u - self.coeffs.a1 * vf, 0.0);
        let z2 = self.stage2_noise.gaussian(self.stage2_sigma);
        self.int2
            .update(self.coeffs.c1 * x1_old - self.coeffs.a2 * vf, z2);
        if self.int1.is_saturated() || self.int2.is_saturated() {
            self.saturation_events += 1;
        }
        self.steps += 1;
        self.last_bit = v;
        v
    }

    fn reset(&mut self) {
        self.int1.reset();
        self.int2.reset();
        self.comparator.reset();
        self.dac.reset();
        self.prev_input = 0.0;
        self.last_bit = 1;
        self.saturation_events = 0;
        self.steps = 0;
    }

    fn order(&self) -> usize {
        2
    }

    /// Single-pass block conversion, bit-identical to the per-sample
    /// path.
    ///
    /// Each clock draws its noise inline and steps the loop filter
    /// through `step_lane`, packing bits a word at a time.
    /// The ziggurat table is resolved once per block, and the three live
    /// noise streams and the loop state are held in locals for the whole
    /// block (the rare rejection path is out of line and takes its
    /// stream by value, so nothing escapes the registers). Every stream
    /// is independent and consumed in exactly the order `step` consumes
    /// it, so all draws, bits, and the final state match the scalar
    /// path (proptested in this module's tests).
    fn step_block(&mut self, input: &[f64], bits: &mut PackedBits) {
        let xs = ziggurat_xs();
        let Coefficients { b1, a1, c1, a2 } = self.coeffs;
        // Both stages share one pole and clamp: they are built from the
        // same `NonIdealities`.
        let consts = Consts {
            leak: self.int1.leak,
            sat: self.int1.saturation,
            off: self.comparator.offset,
            hyst: self.comparator.hysteresis,
            mis: self.dac.level_mismatch,
            isi: self.dac.isi,
            b1,
            a1,
            c1,
            a2,
        };
        let sigma_in = self.nonideal.input_noise_sigma;
        let slew_gain = self.nonideal.jitter_slew_gain;
        let (sigma2, sigma_r) = (self.stage2_sigma, self.nonideal.reference_noise_sigma);
        let mut n_in = self.input_noise.clone();
        let mut n2 = self.stage2_noise.clone();
        let mut nr = self.reference_noise.clone();
        // The first integrator's noise slot: zero, as in `step`, but a
        // zero the optimiser cannot see. With a visible zero, or no term
        // at all, LLVM stops running the two integrator updates as one
        // packed add and clamp (`addpd`/`maxpd` become scalar `maxsd`
        // clamps), and the lane slows by 12-26%.
        let z1 = std::hint::black_box(0.0);
        let (mut x1, mut x2) = (self.int1.state, self.int2.state);
        // The last decision, carried as a comparator margin whose sign
        // is the decision (see `step_lane`). The comparator and DAC
        // histories are always equal: `step` and `reset` set both.
        let mut margin: f64 = if self.comparator.last > 0 { 0.0 } else { -1.0 };
        let mut prev = self.prev_input;
        let (mut sat1, mut sat2) = (self.int1.saturated, self.int2.saturated);
        let mut saturations = 0u64;
        let mut word = 0u64;
        let mut filled = 0usize;
        for &x in input {
            // Sampled-input impairments, then the reference and
            // second-integrator draws — each stream in `step`'s order.
            let jitter = slew_gain * (x - prev);
            prev = x;
            let u = x + n_in.gaussian_inline(xs, sigma_in) + n_in.gaussian_inline(xs, jitter.abs());
            let rows = Rows {
                u,
                zr: nr.gaussian_inline(xs, sigma_r),
                z1,
                z2: n2.gaussian_inline(xs, sigma2),
            };
            // The history as two compares, so each select keyed on it
            // gets its own and compiles to a mask blend, not a branch.
            // They differ only for a NaN margin, i.e. a NaN x2, which
            // stays NaN: every later decision is then negative and the
            // positive DAC level is never used.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let (m, s1, s2) = step_lane(
                &mut x1,
                &mut x2,
                &consts,
                &rows,
                margin >= 0.0,
                !(margin < 0.0),
            );
            margin = m;
            let vpos = margin >= 0.0;
            (sat1, sat2) = (s1, s2);
            saturations += u64::from(s1 || s2);
            word |= u64::from(vpos) << filled;
            filled += 1;
            if filled == 64 {
                bits.push_bits(word, 64);
                word = 0;
                filled = 0;
            }
        }
        bits.push_bits(word, filled);
        let last = if margin >= 0.0 { 1 } else { -1 };
        self.last_bit = last;
        self.comparator.last = last;
        self.dac.last_bit = last;
        (self.int1.state, self.int2.state) = (x1, x2);
        (self.int1.saturated, self.int2.saturated) = (sat1, sat2);
        self.prev_input = prev;
        self.input_noise = n_in;
        self.stage2_noise = n2;
        self.reference_noise = nr;
        self.saturation_events += saturations;
        self.steps += input.len() as u64;
    }
}

/// The loop-filter constants of one modulator, hoisted out of the clock
/// loop.
#[derive(Debug, Clone, Copy)]
struct Consts {
    leak: f64,
    sat: f64,
    off: f64,
    hyst: f64,
    mis: f64,
    isi: f64,
    b1: f64,
    a1: f64,
    c1: f64,
    a2: f64,
}

/// The per-clock values one clock step consumes: the impaired input,
/// the two integrators' noise terms and the reference-noise draw.
#[derive(Debug, Clone, Copy)]
struct Rows {
    u: f64,
    z1: f64,
    z2: f64,
    zr: f64,
}

/// One integrator update's clamp, exactly as `ScIntegrator::update`:
/// the clamped state and whether it saturated.
#[inline(always)]
fn clamp_sat(next: f64, sat: f64) -> (f64, bool) {
    let hi = next > sat;
    let lo = next < -sat;
    let x = select_unpredictable(hi, sat, select_unpredictable(lo, -sat, next));
    (x, hi || lo)
}

/// One modulator clock — the exact expression tree of
/// `SigmaDelta2::step`, run by the block stepper. Returns
/// `(margin, int1_saturated, int2_saturated)`: the decision is
/// `margin >= 0.0`.
///
/// The decision does not gate any arithmetic: the DAC feedback and both
/// integrator updates are computed for both outcomes before it
/// resolves, and then it only selects. Each candidate is the IEEE
/// expression the branchy form evaluates for its outcome, and clamping
/// commutes with the selection, so the results are bit-identical.
///
/// The comparator's `x2 >= threshold` is returned as the margin
/// `x2 - threshold`, whose sign is the same decision for every `x2`,
/// infinite or NaN included: the threshold is finite (validated offset
/// and hysteresis), and a difference of distinct doubles
/// never rounds to zero. A caller can then key the next clock's
/// history on a float compare, which compiles to a mask blend where a
/// `bool` history becomes a branch.
// The `* -1.0` factors spell out `step`'s `hyst * last` and
// `level * (1 + zr)` for the negative history and decision.
#[allow(clippy::neg_multiply)]
#[inline(always)]
fn step_lane(
    x1: &mut f64,
    x2: &mut f64,
    c: &Consts,
    r: &Rows,
    comp_last_pos: bool,
    dac_last_pos: bool,
) -> (f64, bool, bool) {
    // Comparator (delaying loop): x2 against offset − h·last, with
    // last = ±1.0 the previous decision.
    let margin = select_unpredictable(
        comp_last_pos,
        *x2 - (c.off - c.hyst * 1.0),
        *x2 - (c.off - c.hyst * -1.0),
    );
    let vpos = margin >= 0.0;
    // 1-bit DAC for either outcome: positive-level mismatch, rising-edge
    // ISI, multiplicative reference noise.
    let level_pos = select_unpredictable(dac_last_pos, 1.0 + c.mis, (1.0 + c.mis) * (1.0 - c.isi));
    let vf_pos = level_pos * (1.0 + r.zr);
    let vf_neg = -1.0 * (1.0 + r.zr);
    // Both integrators for either outcome (the second takes the old
    // x1), selected, then clamped like ScIntegrator::update.
    let x1_old = *x1;
    let x2_old = *x2;
    let next = |vf: f64| {
        (
            c.leak * x1_old + (c.b1 * r.u - c.a1 * vf) + r.z1,
            c.leak * x2_old + (c.c1 * x1_old - c.a2 * vf) + r.z2,
        )
    };
    let (x1_pos, x2_pos) = next(vf_pos);
    let (x1_neg, x2_neg) = next(vf_neg);
    let (x1_next, sat1) = clamp_sat(select_unpredictable(vpos, x1_pos, x1_neg), c.sat);
    let (x2_next, sat2) = clamp_sat(select_unpredictable(vpos, x2_pos, x2_neg), c.sat);
    *x1 = x1_next;
    *x2 = x2_next;
    (margin, sat1, sat2)
}

/// First-order single-bit ΣΔ modulator — the classical baseline the
/// 2nd-order design is compared against (ablation A3).
#[derive(Debug, Clone)]
pub struct SigmaDelta1 {
    int: ScIntegrator,
    comparator: Comparator,
    dac: FeedbackDac,
    input_noise: NoiseSource,
    reference_noise: NoiseSource,
    nonideal: NonIdealities,
    prev_input: f64,
}

impl SigmaDelta1 {
    /// Builds the first-order modulator.
    ///
    /// # Errors
    ///
    /// Propagates [`NonIdealities::validate`] failures.
    pub fn new(nonideal: NonIdealities) -> Result<Self, AnalogError> {
        nonideal.validate()?;
        let mut root = NoiseSource::from_seed(nonideal.seed ^ 0x1111_1111);
        // As in `SigmaDelta2`, the first two splits are unused
        // placeholders that pin the live streams' seeds.
        root.split();
        root.split();
        let reference_noise = root.split();
        let input_noise = root.split();
        Ok(SigmaDelta1 {
            int: ScIntegrator::new(nonideal.opamp_dc_gain, nonideal.integrator_saturation),
            comparator: Comparator::new(nonideal.comparator_offset, nonideal.comparator_hysteresis),
            dac: FeedbackDac::new(nonideal.dac_level_mismatch, nonideal.dac_isi),
            input_noise,
            reference_noise,
            nonideal,
            prev_input: 0.0,
        })
    }
}

impl DeltaSigmaModulator for SigmaDelta1 {
    fn step(&mut self, input: f64) -> i8 {
        let jitter = self.nonideal.jitter_slew_gain * (input - self.prev_input);
        let u = input
            + self.input_noise.gaussian(self.nonideal.input_noise_sigma)
            + self.input_noise.gaussian(jitter.abs());
        self.prev_input = input;
        let v = self.comparator.decide(self.int.state());
        let zr = self
            .reference_noise
            .gaussian(self.nonideal.reference_noise_sigma);
        let vf = self.dac.convert(v) * (1.0 + zr);
        self.int.update(u - vf, 0.0);
        v
    }

    fn reset(&mut self) {
        self.int.reset();
        self.comparator.reset();
        self.dac.reset();
        self.prev_input = 0.0;
    }

    fn order(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tonos_dsp::decimator::DecimatorConfig;
    use tonos_dsp::metrics::DynamicMetrics;
    use tonos_dsp::signal::sine_wave;
    use tonos_dsp::spectrum::Spectrum;
    use tonos_dsp::window::Window;

    /// Converts a block through per-sample `step`, the oracle.
    fn steps(dsm: &mut impl DeltaSigmaModulator, input: &[f64]) -> Vec<i8> {
        input.iter().map(|&u| dsm.step(u)).collect()
    }

    fn bitstream_mean(bits: &[i8]) -> f64 {
        bits.iter().map(|&b| f64::from(b)).sum::<f64>() / bits.len() as f64
    }

    #[test]
    fn dc_charge_balance_tracks_input() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        for &u in &[-0.7, -0.3, 0.0, 0.2, 0.5, 0.8] {
            dsm.reset();
            let bits = steps(&mut dsm, &vec![u; 100_000]);
            let mean = bitstream_mean(&bits[1000..]);
            assert!((mean - u).abs() < 0.01, "input {u}: mean {mean}");
        }
    }

    #[test]
    fn first_order_also_tracks_dc() {
        let mut dsm = SigmaDelta1::new(NonIdealities::ideal()).unwrap();
        let bits = steps(&mut dsm, &vec![0.4; 100_000]);
        let mean = bitstream_mean(&bits[1000..]);
        assert!((mean - 0.4).abs() < 0.01, "mean {mean}");
        assert_eq!(dsm.order(), 1);
    }

    #[test]
    fn stable_for_large_but_legal_inputs() {
        let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let _ = steps(&mut dsm, &vec![0.85; 50_000]);
        assert!(
            dsm.overload_ratio() < 0.001,
            "overload ratio {} at 0.85 FS",
            dsm.overload_ratio()
        );
    }

    #[test]
    fn overload_is_detected_beyond_full_scale() {
        let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let _ = steps(&mut dsm, &vec![1.4; 20_000]);
        assert!(
            dsm.overload_ratio() > 0.05,
            "expected saturation at 1.4 FS, ratio {}",
            dsm.overload_ratio()
        );
    }

    /// End-to-end SNR through the paper's decimator for a given modulator.
    fn measured_snr<M: DeltaSigmaModulator>(dsm: &mut M, amplitude: f64) -> f64 {
        let fs = PAPER_SAMPLE_RATE_HZ;
        let n_out = 4096;
        let n_in = 128 * (n_out + 64);
        let f = Window::coherent_frequency(1000.0, n_out, 15.625);
        let stimulus = sine_wave(fs, f, amplitude, 0.0, n_in);
        let mut bits = PackedBits::new();
        dsm.step_block(&stimulus, &mut bits);
        let mut dec = DecimatorConfig {
            output_bits: None,
            ..DecimatorConfig::paper_default()
        }
        .build()
        .unwrap();
        let mut out = Vec::new();
        dec.process_packed_into(&bits, &mut out);
        let settled = &out[out.len() - n_out..];
        let spectrum = Spectrum::from_signal(settled, 1000.0, Window::Hann).unwrap();
        DynamicMetrics::from_spectrum(&spectrum).unwrap().snr_db
    }

    #[test]
    fn ideal_second_order_beats_80_db_at_osr_128() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let snr = measured_snr(&mut dsm, 0.5);
        assert!(snr > 80.0, "ideal 2nd-order SNR {snr} dB");
    }

    #[test]
    fn second_order_outperforms_first_order() {
        let mut d2 = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let mut d1 = SigmaDelta1::new(NonIdealities::ideal()).unwrap();
        let snr2 = measured_snr(&mut d2, 0.5);
        let snr1 = measured_snr(&mut d1, 0.5);
        assert!(
            snr2 > snr1 + 15.0,
            "2nd order {snr2} dB should beat 1st order {snr1} dB by the OSR advantage"
        );
    }

    #[test]
    fn typical_nonidealities_cost_a_few_db_only() {
        let mut ideal = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let mut typical = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let snr_i = measured_snr(&mut ideal, 0.5);
        let snr_t = measured_snr(&mut typical, 0.5);
        assert!(snr_t < snr_i, "noise must cost something");
        assert!(
            snr_t > 72.0,
            "typical chain must still beat the paper's 72 dB floor, got {snr_t}"
        );
    }

    #[test]
    fn same_seed_reproduces_bitstreams() {
        let mk = || SigmaDelta2::new(NonIdealities::typical().with_seed(77)).unwrap();
        let stim = sine_wave(PAPER_SAMPLE_RATE_HZ, 100.0, 0.5, 0.0, 4096);
        let a = steps(&mut mk(), &stim);
        let b = steps(&mut mk(), &stim);
        assert_eq!(a, b);
        let c = steps(
            &mut SigmaDelta2::new(NonIdealities::typical().with_seed(78)).unwrap(),
            &stim,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn reset_restores_tracking() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let _ = steps(&mut dsm, &vec![0.9; 10_000]);
        dsm.reset();
        assert_eq!(dsm.saturation_events(), 0);
        assert_eq!(dsm.steps(), 0);
        let bits = steps(&mut dsm, &vec![-0.25; 50_000]);
        let mean = bitstream_mean(&bits[1000..]);
        assert!((mean + 0.25).abs() < 0.01);
    }

    #[test]
    fn invalid_coefficients_are_rejected() {
        let bad = Coefficients {
            b1: 0.5,
            a1: 0.4,
            c1: 0.5,
            a2: 0.5,
        };
        assert!(SigmaDelta2::with_coefficients(bad, NonIdealities::ideal()).is_err());
        let bad = Coefficients {
            b1: 0.0,
            a1: 0.0,
            c1: 0.5,
            a2: 0.5,
        };
        assert!(bad.validate().is_err());
        let bad = Coefficients {
            b1: f64::NAN,
            a1: f64::NAN,
            c1: 0.5,
            a2: 0.5,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn invalid_nonidealities_are_rejected_at_construction() {
        assert!(SigmaDelta2::new(NonIdealities::ideal().with_opamp_gain(0.1)).is_err());
        assert!(SigmaDelta1::new(NonIdealities::ideal().with_input_noise(-1.0)).is_err());
    }

    #[test]
    fn comparator_offset_is_suppressed_by_the_loop() {
        // A comparator offset of several mV must not shift the bitstream
        // mean measurably (it is attenuated by the loop gain).
        let base = NonIdealities::ideal();
        let offset = NonIdealities::ideal().with_comparator_offset(0.01);
        let mut clean = SigmaDelta2::new(base).unwrap();
        let mut offs = SigmaDelta2::new(offset).unwrap();
        let m_clean = bitstream_mean(&steps(&mut clean, &vec![0.3; 200_000])[1000..]);
        let m_offs = bitstream_mean(&steps(&mut offs, &vec![0.3; 200_000])[1000..]);
        assert!(
            (m_clean - m_offs).abs() < 0.002,
            "offset leaked to the output: {m_clean} vs {m_offs}"
        );
    }

    #[test]
    fn dac_isi_is_a_real_distortion_mechanism() {
        // Heavy ISI must cost tens of dB of SNR; pure level mismatch must
        // not (a 1-bit DAC is linear under static level errors).
        let mut clean = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let mut isi = SigmaDelta2::new(NonIdealities::ideal().with_dac_isi(0.05)).unwrap();
        let mut mismatch =
            SigmaDelta2::new(NonIdealities::ideal().with_dac_level_mismatch(0.05)).unwrap();
        let snr_clean = measured_snr(&mut clean, 0.5);
        let snr_isi = measured_snr(&mut isi, 0.5);
        let snr_mismatch = measured_snr(&mut mismatch, 0.5);
        assert!(
            snr_isi < snr_clean - 10.0,
            "5% ISI must visibly degrade: {snr_clean} -> {snr_isi}"
        );
        assert!(
            snr_mismatch > snr_clean - 3.0,
            "static level mismatch is benign: {snr_clean} -> {snr_mismatch}"
        );
    }

    #[test]
    fn dac_level_mismatch_is_only_a_gain_error() {
        // DC tracking with mismatched levels: mean shifts by a gain
        // factor, not a nonlinearity — verify two DC points scale
        // consistently.
        let ni = NonIdealities::ideal().with_dac_level_mismatch(0.02);
        let mean_at = |u: f64| {
            let mut dsm = SigmaDelta2::new(ni).unwrap();
            let bits = steps(&mut dsm, &vec![u; 120_000]);
            bitstream_mean(&bits[2000..])
        };
        let m1 = mean_at(0.2);
        let m2 = mean_at(0.4);
        // Affine map: m = a·u + b; check by comparing slopes over two
        // intervals.
        let m3 = mean_at(0.6);
        let slope_a = (m2 - m1) / 0.2;
        let slope_b = (m3 - m2) / 0.2;
        assert!(
            (slope_a - slope_b).abs() < 0.03,
            "nonlinear response under pure level mismatch: {slope_a} vs {slope_b}"
        );
    }

    #[test]
    fn packed_output_matches_the_i8_bitstream() {
        let stim = sine_wave(PAPER_SAMPLE_RATE_HZ, 120.0, 0.6, 0.0, 10_000);
        let mut a = SigmaDelta2::new(NonIdealities::typical().with_seed(9)).unwrap();
        let mut b = SigmaDelta2::new(NonIdealities::typical().with_seed(9)).unwrap();
        let unpacked = steps(&mut a, &stim);
        let mut packed = PackedBits::new();
        b.step_block(&stim, &mut packed);
        assert_eq!(packed.len(), unpacked.len());
        assert_eq!(packed, unpacked.iter().map(|&b| b > 0).collect());
    }

    /// SplitMix64 case generator for the lane proptest: one seed per
    /// case spans the modulator, the inputs, and the conversion script.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        /// Zero half the time: that noise stream is never drawn.
        fn sigma(&mut self) -> f64 {
            if self.next() & 1 == 0 {
                0.0
            } else {
                self.range(1e-5, 2e-2)
            }
        }

        /// A modulator with random non-idealities, each of its three
        /// noise streams independently silent or drawing (`new` ties
        /// the second integrator's noise to the input's, so that one is
        /// set directly).
        fn modulator(&mut self) -> SigmaDelta2 {
            let ni = NonIdealities {
                opamp_dc_gain: if self.next() & 1 == 0 {
                    f64::INFINITY
                } else {
                    self.range(20.0, 1e5)
                },
                // Now and then unbounded, so x2 itself can reach ±∞.
                integrator_saturation: if self.below(8) == 0 {
                    f64::INFINITY
                } else {
                    self.range(0.3, 6.0)
                },
                input_noise_sigma: self.sigma(),
                comparator_offset: self.range(-0.05, 0.05),
                comparator_hysteresis: self.range(0.0, 0.05),
                jitter_slew_gain: if self.next() & 1 == 0 {
                    0.0
                } else {
                    self.range(1e-6, 0.3)
                },
                dac_level_mismatch: self.range(-0.2, 0.2),
                dac_isi: self.range(0.0, 0.2),
                reference_noise_sigma: self.sigma(),
                seed: self.next(),
            };
            let mut m = SigmaDelta2::new(ni).unwrap();
            m.stage2_sigma = self.sigma();
            m
        }

        /// A run of inputs: held constant, or a new value every clock.
        /// Both reach past full scale, so small saturation limits
        /// overload; now and then one sample is NaN or ±∞.
        fn inputs(&mut self, len: usize) -> Vec<f64> {
            let mut xs = if self.next() & 1 == 0 {
                vec![self.range(-1.6, 1.6); len]
            } else {
                (0..len).map(|_| self.range(-1.6, 1.6)).collect()
            };
            if len > 0 && self.below(16) == 0 {
                let at = self.below(len as u64);
                xs[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3)];
            }
            xs
        }

        /// A block length: the packing-word edges, or anything up to
        /// 300 clocks.
        fn block_len(&mut self) -> usize {
            match self.below(6) {
                0 => 0,
                1 => 1,
                2 => 63,
                3 => 64,
                4 => 65,
                _ => self.below(300),
            }
        }
    }

    /// The three live noise streams.
    fn streams(m: &mut SigmaDelta2) -> [&mut NoiseSource; 3] {
        [
            &mut m.input_noise,
            &mut m.stage2_noise,
            &mut m.reference_noise,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused block stepper against per-sample `step`, the
        /// oracle: random non-idealities with every noise stream silent
        /// or drawing, constant and per-clock inputs reaching
        /// saturation (and the odd NaN or infinite sample), block
        /// lengths around the 64-bit packing word, per-sample steps
        /// interleaved, and resets mid-stream. Bits, counters, the
        /// whole final state, and each stream's next draws must match.
        #[test]
        fn step_block_is_bit_identical_to_per_sample_steps(case in any::<u64>()) {
            let mut g = Gen(case);
            let mut scalar = g.modulator();
            let mut block = scalar.clone();
            let mut want = Vec::new();
            let mut got = PackedBits::new();
            for _ in 0..1 + g.below(8) {
                match g.below(7) {
                    // Per-sample steps interleaved between blocks.
                    0 | 1 => {
                        let len = 1 + g.below(80);
                        for x in g.inputs(len) {
                            want.push(scalar.step(x));
                            got.push(block.step(x) > 0);
                        }
                    }
                    2 => {
                        scalar.reset();
                        block.reset();
                    }
                    _ => {
                        let len = g.block_len();
                        let xs = g.inputs(len);
                        want.extend(xs.iter().map(|&x| scalar.step(x)));
                        block.step_block(&xs, &mut got);
                    }
                }
            }
            prop_assert_eq!(&got, &want.iter().map(|&b| b > 0).collect());
            prop_assert_eq!(block.steps(), scalar.steps());
            prop_assert_eq!(block.saturation_events(), scalar.saturation_events());
            // Every field: integrator states and saturation flags,
            // histories, the previous input, counters, and each
            // stream's generator state.
            prop_assert_eq!(format!("{block:?}"), format!("{scalar:?}"));
            for (a, b) in streams(&mut block).into_iter().zip(streams(&mut scalar)) {
                for _ in 0..4 {
                    prop_assert_eq!(a.standard().to_bits(), b.standard().to_bits());
                }
            }
        }
    }

    /// 64-bit FNV-1a over a bitstream, one byte (0 or 1) per clock.
    fn fnv1a(bits: impl IntoIterator<Item = bool>) -> u64 {
        bits.into_iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Pins both modulators' bits under `NonIdealities::typical()`. The
    /// proptest above compares `step_block` with `step` in one build, so
    /// it cannot see a change that moves both; these digests can. The
    /// input changes every clock, so the input, jitter, second-stage and
    /// reference streams all draw, and the block path runs in two calls
    /// so its streams are written back and resumed mid-stream.
    #[test]
    fn typical_bitstreams_match_their_golden_digests() {
        let stim = sine_wave(PAPER_SAMPLE_RATE_HZ, 1_000.0, 0.6, 0.3, 20_000);
        let mk = || SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let mut block_dsm = mk();
        let mut block = PackedBits::new();
        block_dsm.step_block(&stim[..7_777], &mut block);
        block_dsm.step_block(&stim[7_777..], &mut block);
        let scalar = steps(&mut mk(), &stim);
        assert_eq!(fnv1a(block.iter()), 0xA2D9_F2E4_D337_21B9);
        assert_eq!(fnv1a(scalar.iter().map(|&b| b > 0)), 0xA2D9_F2E4_D337_21B9);
        let first = steps(
            &mut SigmaDelta1::new(NonIdealities::typical()).unwrap(),
            &stim,
        );
        assert_eq!(fnv1a(first.iter().map(|&b| b > 0)), 0x9411_63D8_6C5C_BF82);
    }

    /// The first-order modulator runs the trait-default block path (no
    /// override).
    #[test]
    fn default_step_block_matches_per_sample_steps() {
        let stim = sine_wave(PAPER_SAMPLE_RATE_HZ, 150.0, 0.5, 0.0, 1000);
        let mut d1a = SigmaDelta1::new(NonIdealities::typical().with_seed(3)).unwrap();
        let mut d1b = SigmaDelta1::new(NonIdealities::typical().with_seed(3)).unwrap();
        let mut bits = PackedBits::new();
        d1b.step_block(&stim, &mut bits);
        let want: PackedBits = steps(&mut d1a, &stim).iter().map(|&b| b > 0).collect();
        assert_eq!(bits, want);
    }

    /// The second integrator's own noise: each clock adds one draw of
    /// σ = 0.1·σ_in to its update, after the loop's drive.
    #[test]
    fn second_stage_noise_is_injected_per_sample() {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal().with_input_noise(0.1)).unwrap();
        let mut sum_sq = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let (x1, x2) = (dsm.int1.state(), dsm.int2.state());
            let v = f64::from(dsm.step(0.0));
            // Ideal loop: unit pole, exact ±1 feedback, half-scale gains.
            let inc = dsm.int2.state() - (x2 + (0.5 * x1 - 0.5 * v));
            sum_sq += inc * inc;
        }
        let sigma = (sum_sq / n as f64).sqrt();
        assert!(
            (sigma - 0.01).abs() < 0.0005,
            "per-step noise sigma {sigma}"
        );
    }

    /// Reference noise multiplies the DAC level. The feedback each clock,
    /// recovered from the first integrator's step, is the decision times
    /// `1 + z` with `z` small, and a same-seed twin matches it exactly.
    #[test]
    fn reference_noise_is_multiplicative_and_seeded() {
        let ni = NonIdealities::ideal()
            .with_reference_noise(0.01)
            .with_seed(3);
        let (mut a, mut b) = (SigmaDelta2::new(ni).unwrap(), SigmaDelta2::new(ni).unwrap());
        let mut noisy = 0;
        for i in 0..100 {
            let u = if i % 3 == 0 { 0.5 } else { -0.5 };
            let x1 = a.int1.state();
            let v = a.step(u);
            assert_eq!(v, b.step(u));
            assert_eq!(a.int1.state(), b.int1.state());
            // x1' = x1 + (0.5·u − 0.5·vf) in the ideal loop.
            let vf = u - 2.0 * (a.int1.state() - x1);
            let z = vf / f64::from(v) - 1.0;
            assert!(z.abs() < 0.1, "noise is small and relative: {z}");
            noisy += usize::from(z.abs() > 1e-9);
        }
        assert!(
            noisy > 90,
            "only {noisy} of 100 clocks carried reference noise"
        );
    }

    #[test]
    fn accessors_expose_configuration() {
        let dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        assert_eq!(dsm.coefficients(), Coefficients::boser_wooley());
        assert_eq!(dsm.order(), 2);
        assert_eq!(dsm.overload_ratio(), 0.0, "no steps yet");
    }
}
