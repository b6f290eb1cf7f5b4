//! Property-based tests of the DSP substrate invariants.

use proptest::prelude::*;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::{CicDecimator, CicDecimatorF64};
use tonos_dsp::decimator::{DecimatorConfig, OutputQuantizer};
use tonos_dsp::fft::{fft, ifft, Complex};
use tonos_dsp::fir::{design_lowpass, magnitude_at, FirDecimator};
use tonos_dsp::fixed::{Fixed, QFormat};
use tonos_dsp::fpga::FixedPointDecimator;
use tonos_dsp::window::Window;

proptest! {
    /// FFT → IFFT is the identity for arbitrary complex signals.
    #[test]
    fn fft_round_trips(values in prop::collection::vec(-1e3_f64..1e3, 128)) {
        let signal: Vec<Complex> = values
            .chunks(2)
            .map(|c| Complex::new(c[0], c[1]))
            .collect();
        let mut buf = signal.clone();
        fft(&mut buf).unwrap();
        ifft(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&signal) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
    }

    /// Parseval holds for arbitrary real signals.
    #[test]
    fn parseval_holds(values in prop::collection::vec(-10.0_f64..10.0, 256)) {
        let time: f64 = values.iter().map(|v| v * v).sum();
        let spec = tonos_dsp::fft::fft_real(&values).unwrap();
        let freq: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / 256.0;
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }

    /// Integer and float CIC agree exactly on integer streams.
    #[test]
    fn cic_integer_float_equivalence(
        bits in prop::collection::vec(prop::bool::ANY, 256),
        order in 1_usize..4,
        ratio in 2_usize..17,
    ) {
        let xs_i: Vec<i64> = bits.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let xs_f: Vec<f64> = xs_i.iter().map(|&v| v as f64).collect();
        let mut ci = CicDecimator::new(order, ratio).unwrap();
        let mut cf = CicDecimatorF64::new(order, ratio).unwrap();
        let oi = ci.process(&xs_i);
        let of = cf.process(&xs_f);
        let gain = ci.gain() as f64;
        prop_assert_eq!(oi.len(), of.len());
        for (a, b) in oi.iter().zip(&of) {
            prop_assert!((*a as f64 / gain - b).abs() < 1e-9);
        }
    }

    /// The CIC is linear: cic(a·x + b·y) = a·cic(x) + b·cic(y).
    #[test]
    fn cic_is_linear(
        xs in prop::collection::vec(-5_i64..=5, 128),
        ys in prop::collection::vec(-5_i64..=5, 128),
        a in 1_i64..4,
        b in 1_i64..4,
    ) {
        let combined: Vec<i64> = xs.iter().zip(&ys).map(|(x, y)| a * x + b * y).collect();
        let mut c1 = CicDecimator::new(3, 8).unwrap();
        let mut c2 = CicDecimator::new(3, 8).unwrap();
        let mut c3 = CicDecimator::new(3, 8).unwrap();
        let ox = c1.process(&xs);
        let oy = c2.process(&ys);
        let oc = c3.process(&combined);
        for ((x, y), c) in ox.iter().zip(&oy).zip(&oc) {
            prop_assert_eq!(a * x + b * y, *c);
        }
    }

    /// Windowed-sinc designs are always linear-phase (symmetric) with
    /// unity DC gain, for any tap count and cutoff.
    #[test]
    fn fir_designs_are_linear_phase(taps in 4_usize..96, cutoff in 0.01_f64..0.49) {
        let h = design_lowpass(taps, cutoff, Window::Hamming).unwrap();
        prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        for i in 0..taps / 2 {
            prop_assert!((h[i] - h[taps - 1 - i]).abs() < 1e-12, "tap {i}");
        }
        prop_assert!((magnitude_at(&h, 0.0) - 1.0).abs() < 1e-9);
    }

    /// Decimating by R keeps exactly every R-th full-rate output.
    #[test]
    fn fir_decimation_is_subsampling(
        input in prop::collection::vec(-1.0_f64..1.0, 128),
        ratio in 1_usize..9,
    ) {
        let taps = design_lowpass(16, 0.2, Window::Hann).unwrap();
        let mut full = FirDecimator::new(taps.clone(), 1).unwrap();
        let mut deci = FirDecimator::new(taps, ratio).unwrap();
        let all = full.process(&input);
        let some = deci.process(&input);
        for (j, &v) in some.iter().enumerate() {
            prop_assert!((v - all[ratio * (j + 1) - 1]).abs() < 1e-12);
        }
    }

    /// Output quantization error is bounded by half an LSB inside range;
    /// the mid-tread top code sits one LSB below +FS, so values above
    /// `1 − LSB` may saturate with up to one LSB of error.
    #[test]
    fn quantizer_error_is_bounded(x in -1.0_f64..0.999, bits in 4_u32..16) {
        let q = OutputQuantizer::new(bits).unwrap();
        let err = (q.round_trip(x) - x).abs();
        let bound = if x <= 1.0 - q.lsb() { q.lsb() / 2.0 } else { q.lsb() };
        prop_assert!(err <= bound + 1e-12, "error {err} vs bound {bound}");
    }

    /// Fixed-point round trips are within half an LSB and saturate
    /// cleanly outside the range.
    #[test]
    fn fixed_point_round_trip(x in -4.0_f64..4.0, frac in 4_u32..20) {
        let fmt = QFormat::new(frac + 4, frac).unwrap();
        let f = Fixed::from_f64(x, fmt);
        if x >= fmt.min_value() && x <= fmt.max_value() {
            prop_assert!((f.to_f64() - x).abs() <= fmt.lsb() / 2.0 + 1e-12);
        } else {
            prop_assert!(f.raw() == fmt.max_raw() || f.raw() == fmt.min_raw());
        }
    }

    /// The paper decimator is time-invariant for DC: any DC level within
    /// range settles to itself (within the CIC input quantization).
    #[test]
    fn decimator_settles_to_dc(level in -0.95_f64..0.95) {
        let mut d = DecimatorConfig {
            output_bits: None,
            ..DecimatorConfig::paper_default()
        }
        .build()
        .unwrap();
        let mut out = Vec::new();
        d.process_into(&vec![level; 128 * 40], &mut out);
        let last = *out.last().unwrap();
        prop_assert!((last - level).abs() < 1e-6, "settled to {last} for {level}");
    }

    /// The bit-exact FPGA datapath agrees with the behavioral f64 chain
    /// within 1.5 output LSB for arbitrary bitstreams.
    #[test]
    fn fpga_agrees_with_behavioral_chain(bits in prop::collection::vec(prop::bool::ANY, 128 * 40)) {
        let stream: Vec<i8> = bits.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let mut hw = FixedPointDecimator::paper_default();
        let mut sw = DecimatorConfig::paper_default().build().unwrap();
        let hw_codes: Vec<i32> = stream.iter().filter_map(|&b| hw.push(b)).collect();
        let sw_out: Vec<f64> = stream
            .iter()
            .filter_map(|&b| sw.push(f64::from(b)))
            .collect();
        prop_assert_eq!(hw_codes.len(), sw_out.len());
        for (c, s) in hw_codes.iter().zip(&sw_out) {
            let hw_v = hw.dequantize(*c);
            prop_assert!((hw_v - s).abs() <= 1.5 / 2048.0, "{hw_v} vs {s}");
        }
    }

    /// CIC magnitude formula stays within [0, 1] and hits its nulls.
    #[test]
    fn cic_magnitude_bounds(order in 1_usize..5, ratio in 2_usize..64, f in 0.0_f64..0.5) {
        let cic = CicDecimatorF64::new(order, ratio).unwrap();
        let m = cic.magnitude_at(f);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&m), "|H({f})| = {m}");
        // Null at k/R for k = 1..R/2.
        let null = cic.magnitude_at(1.0 / ratio as f64);
        prop_assert!(null < 1e-9, "null leakage {null}");
    }

    /// Coherent-frequency snapping always yields an odd in-band bin.
    #[test]
    fn coherent_bins_are_odd_and_in_band(
        target in 0.0_f64..10_000.0,
        n_pow in 6_u32..14,
    ) {
        let n = 1_usize << n_pow;
        let fs = 1000.0;
        let f = Window::coherent_frequency(fs, n, target);
        let bin = f * n as f64 / fs;
        prop_assert!((bin - bin.round()).abs() < 1e-9);
        prop_assert_eq!(bin.round() as i64 % 2, 1);
        prop_assert!(f > 0.0 && f < fs / 2.0);
    }

    /// PackedBits is a lossless container: pack → unpack is the identity
    /// for arbitrary bit sequences, across word boundaries.
    #[test]
    fn packed_bits_round_trip(bools in prop::collection::vec(prop::bool::ANY, 0..300)) {
        let packed: PackedBits = bools.iter().copied().collect();
        prop_assert_eq!(packed.len(), bools.len());
        let back: Vec<bool> = packed.iter().collect();
        prop_assert_eq!(&back, &bools);
        let ones = bools.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(packed.ones(), ones);
    }

    /// The word-parallel CIC kernel is **bit-identical** to the scalar
    /// `CicDecimator::push` path for arbitrary bitstreams, scales, and
    /// word-unaligned lengths (the `128·n + r` frame-tail case included
    /// via the length strategy), leaving identical filter state behind.
    #[test]
    fn word_parallel_cic_matches_scalar_push(
        n_frames in 0_usize..4,
        tail in 0_usize..128,
        order in 1_usize..5,
        ratio in 2_usize..=128,
        scale_sel in 0_usize..3,
        seed in 0_u64..u64::MAX,
    ) {
        let len = 128 * n_frames + tail;
        // Cheap deterministic bit soup from the seed.
        let bools: Vec<bool> = (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 * 2 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 1 == 1)
            .collect();
        let scale = [1_i64, 1 << 20, i64::MAX / 5][scale_sel];
        let packed: PackedBits = bools.iter().copied().collect();
        let mut scalar = CicDecimator::new(order, ratio).unwrap();
        let mut word = CicDecimator::new(order, ratio).unwrap();
        let expect: Vec<i64> = bools
            .iter()
            .filter_map(|&b| scalar.push(if b { scale } else { -scale }))
            .collect();
        let mut got = Vec::new();
        word.process_packed_into(&packed, scale, &mut got);
        prop_assert_eq!(got, expect);
        // Not just the emitted outputs: the full internal state matches,
        // so the two feeding styles stay interchangeable mid-stream.
        prop_assert_eq!(&word, &scalar);
        // And reset() restores the kernel to the pristine state.
        let fresh = CicDecimator::new(order, ratio).unwrap();
        word.reset();
        prop_assert_eq!(&word, &fresh);
    }

    /// Packed-bit decimation is **bit-identical** to the ±1.0 `f64`
    /// path through the full two-stage chain — the property that lets
    /// every bitstream caller run the packed lane with zero behavioral
    /// change. Checked across every OSR the experiments run (up to 512,
    /// where one CIC period spans two 64-bit words), both cutoffs they
    /// use, float and 4–16-bit FIR coefficients, and with/without the
    /// output quantizer.
    #[test]
    fn packed_decimation_is_bit_identical_to_f64(
        bools in prop::collection::vec(prop::bool::ANY, 0..16_384),
        osr_sel in 0_usize..6,
        cutoff_sel in 0_usize..2,
        quantized_taps in prop::bool::ANY,
        tap_bits in 4_u32..=16,
        quantized in prop::bool::ANY,
    ) {
        let osr = [8, 32, 64, 128, 256, 512][osr_sel];
        let cfg = DecimatorConfig {
            osr,
            cutoff_hz: (128_000.0 / osr as f64) / [2.0, 2.2][cutoff_sel],
            output_bits: if quantized { Some(12) } else { None },
            coefficient_bits: quantized_taps.then_some(tap_bits),
            ..DecimatorConfig::paper_default()
        };
        let mut d_packed = cfg.build().unwrap();
        let mut d_float = cfg.build().unwrap();
        let packed: PackedBits = bools.iter().copied().collect();
        let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        d_packed.process_packed_into(&packed, &mut a);
        d_float.process_into(&floats, &mut b);
        // assert_eq on f64: identical bits, not approximately equal.
        prop_assert_eq!(a, b);
        prop_assert_eq!(d_packed.samples_in(), d_float.samples_in());
        prop_assert_eq!(d_packed.samples_out(), d_float.samples_out());
    }
}

proptest! {
    /// The folded (16-multiply) linear-phase inner product agrees with
    /// the direct 32-multiply form to a forward-error bound of a few
    /// ulps of the term-magnitude sum `Σ|h·x|` — the natural yardstick
    /// for a reassociated dot product (measured worst case ≈ 2.8 ε; the
    /// asserted slack is 8 ε). Exact equality cannot hold in general
    /// because folding changes the association of the sum.
    #[test]
    fn folded_fir_matches_direct_form(
        size_idx in 0usize..6,
        cutoff in 0.05_f64..0.45,
        xs in prop::collection::vec(-2.0_f64..2.0, 64..256),
    ) {
        // Even, odd, and the paper's 32-tap size.
        let ntaps = [8usize, 16, 31, 32, 33, 48][size_idx];
        let taps = design_lowpass(ntaps, cutoff, Window::Hamming).unwrap();
        // design_lowpass must give *exactly* symmetric taps, or the
        // decimator won't take the folded path at all.
        for i in 0..ntaps / 2 {
            prop_assert_eq!(taps[i].to_bits(), taps[ntaps - 1 - i].to_bits(), "tap {}", i);
        }
        let mut fir = FirDecimator::new(taps.clone(), 1).unwrap();
        let mut hist = vec![0.0_f64; ntaps];
        for &x in &xs {
            hist.rotate_right(1);
            hist[0] = x;
            let direct: f64 = taps.iter().zip(hist.iter()).map(|(&h, &s)| h * s).sum();
            let mag: f64 = taps.iter().zip(hist.iter()).map(|(&h, &s)| (h * s).abs()).sum();
            let got = fir.push(x).unwrap();
            let bound = 8.0 * f64::EPSILON * mag + f64::MIN_POSITIVE;
            prop_assert!(
                (got - direct).abs() <= bound,
                "folded {} vs direct {} (bound {})",
                got,
                direct,
                bound
            );
        }
    }

    /// Asymmetric taps fall back to the unfolded path and reproduce the
    /// plain convolution exactly (same operand order, no reassociation).
    #[test]
    fn asymmetric_fir_is_exactly_the_direct_form(
        taps in prop::collection::vec(-1.0_f64..1.0, 3..24),
        xs in prop::collection::vec(-2.0_f64..2.0, 32..128),
    ) {
        let asymmetric = taps
            .iter()
            .zip(taps.iter().rev())
            .any(|(a, b)| a.to_bits() != b.to_bits());
        prop_assume!(asymmetric);
        let n = taps.len();
        let mut fir = FirDecimator::new(taps.clone(), 1).unwrap();
        let mut hist = vec![0.0_f64; n];
        for &x in &xs {
            hist.rotate_right(1);
            hist[0] = x;
            let direct: f64 = taps.iter().zip(hist.iter()).map(|(&h, &s)| h * s).sum();
            prop_assert_eq!(fir.push(x).unwrap(), direct);
        }
    }
}
