//! Property-based tests of the analog readout invariants.

use proptest::prelude::*;
use tonos_analog::frontend::{CapacitiveFrontEnd, VoltageInput};
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta1, SigmaDelta2};
use tonos_analog::mux::AnalogMux;
use tonos_analog::nonideal::NonIdealities;
use tonos_analog::power::PowerModel;
use tonos_dsp::bits::PackedBits;
use tonos_mems::units::{Farads, Volts};

/// Converts a block through the modulator's block lane.
fn block(dsm: &mut impl DeltaSigmaModulator, input: &[f64]) -> PackedBits {
    let mut bits = PackedBits::with_capacity(input.len());
    dsm.step_block(input, &mut bits);
    bits
}

/// Mean of the ±1 stream after its first `skip` bits.
fn tail_mean(bits: &PackedBits, skip: usize) -> f64 {
    let tail = bits.iter().skip(skip).map(|b| if b { 1.0 } else { -1.0 });
    tail.sum::<f64>() / (bits.len() - skip) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Charge balance: the bitstream mean equals the DC input for any
    /// input inside the stable range (ideal loop).
    #[test]
    fn second_order_tracks_any_dc(u in -0.8_f64..0.8) {
        let mut dsm = SigmaDelta2::new(NonIdealities::ideal()).unwrap();
        let mean = tail_mean(&block(&mut dsm, &vec![u; 30_000]), 2000);
        prop_assert!((mean - u).abs() < 0.02, "input {u}, mean {mean}");
    }

    /// Same for the first-order baseline.
    #[test]
    fn first_order_tracks_any_dc(u in -0.8_f64..0.8) {
        let mut dsm = SigmaDelta1::new(NonIdealities::ideal()).unwrap();
        let mean = tail_mean(&block(&mut dsm, &vec![u; 30_000]), 2000);
        prop_assert!((mean - u).abs() < 0.02, "input {u}, mean {mean}");
    }

    /// Modulators are bit-reproducible for any seed.
    #[test]
    fn modulator_is_deterministic(seed in any::<u64>()) {
        let stim: Vec<f64> = (0..512).map(|i| 0.4 * ((i as f64) * 0.1).sin()).collect();
        let mk = || SigmaDelta2::new(NonIdealities::typical().with_seed(seed)).unwrap();
        let a = block(&mut mk(), &stim);
        let b = block(&mut mk(), &stim);
        prop_assert_eq!(a, b);
    }

    /// The capacitive front end is exactly affine in the sensed
    /// capacitance, with slope 1/Cfb.
    #[test]
    fn frontend_is_affine(
        cref_ff in 10.0_f64..200.0,
        cfb_ff in 1.0_f64..200.0,
        c1_ff in 0.0_f64..400.0,
        dc_ff in 0.1_f64..50.0,
    ) {
        let fe = CapacitiveFrontEnd::new(
            Farads::from_femtofarads(cref_ff),
            Farads::from_femtofarads(cfb_ff),
            Volts(2.5),
        )
        .unwrap();
        let u1 = fe.input_fraction(Farads::from_femtofarads(c1_ff));
        let u2 = fe.input_fraction(Farads::from_femtofarads(c1_ff + dc_ff));
        let slope = (u2 - u1) / (dc_ff * 1e-15);
        prop_assert!((slope - 1.0 / (cfb_ff * 1e-15)).abs() < 1e-3 * slope.abs());
        // Balanced bridge reads zero regardless of Cfb.
        prop_assert!(fe.input_fraction(Farads::from_femtofarads(cref_ff)).abs() < 1e-12);
    }

    /// The voltage interface is exactly linear with slope 1/Vref.
    #[test]
    fn voltage_input_is_linear(vref in 0.5_f64..5.0, v in -5.0_f64..5.0) {
        let vi = VoltageInput::new(Volts(vref)).unwrap();
        prop_assert!((vi.input_fraction(Volts(v)) - v / vref).abs() < 1e-12);
    }

    /// Mux transients always decay monotonically toward the new channel.
    #[test]
    fn mux_transient_decays(tau in 0.1_f64..8.0, c_old_ff in 40.0_f64..80.0, c_new_ff in 40.0_f64..80.0) {
        prop_assume!((c_old_ff - c_new_ff).abs() > 0.5);
        let mut mux = AnalogMux::new(2, 2, tau).unwrap();
        let caps = vec![
            Farads::from_femtofarads(c_old_ff),
            Farads::from_femtofarads(c_new_ff),
            Farads::from_femtofarads(50.0),
            Farads::from_femtofarads(50.0),
        ];
        let _ = mux.sample(&caps).unwrap();
        mux.select(0, 1, &caps).unwrap();
        let mut last_err = f64::INFINITY;
        // Residual decays as exp(-n/tau); the 1e-12 settling cutoff needs
        // n > 27.6*tau, so 300 samples cover the tau <= 8 range.
        for _ in 0..300 {
            let v = mux.sample(&caps).unwrap();
            let err = (v.value() - caps[1].value()).abs();
            prop_assert!(err <= last_err + 1e-30, "transient must not grow");
            last_err = err;
        }
        prop_assert!(mux.is_settled());
    }

    /// Power is monotone in both clock rate and supply voltage.
    #[test]
    fn power_is_monotone(fs1 in 1e4_f64..1e6, dfs in 1e3_f64..1e6, v in 1.0_f64..6.0, dv in 0.1_f64..3.0) {
        let m = PowerModel::paper_default();
        prop_assert!(m.power(fs1 + dfs, Volts(v)) > m.power(fs1, Volts(v)));
        prop_assert!(m.power(fs1, Volts(v + dv)) > m.power(fs1, Volts(v)));
    }

    /// Overload detection: inputs beyond ~1.2 FS always trip the
    /// saturation telltale; inputs below 0.5 FS never do.
    #[test]
    fn overload_detection_thresholds(u_hi in 1.3_f64..2.0, u_lo in 0.0_f64..0.5) {
        let mut hot = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        block(&mut hot, &vec![u_hi; 20_000]);
        prop_assert!(hot.overload_ratio() > 0.01, "no overload at {u_hi}");
        let mut cold = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        block(&mut cold, &vec![u_lo; 20_000]);
        prop_assert!(cold.overload_ratio() < 1e-4, "false overload at {u_lo}");
    }
}
