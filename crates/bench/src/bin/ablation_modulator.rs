//! Ablation A3 — modulator order and per-impairment SNR budget.
//!
//! Quantifies two design decisions the paper takes silently: the choice
//! of a *second*-order loop (vs the simpler first-order modulator) and
//! the analog impairment budget that still clears the 72 dB spec.

use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta1, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_bench::{fmt, print_table};
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_dsp::metrics::DynamicMetrics;
use tonos_dsp::signal::sine_wave;
use tonos_dsp::spectrum::Spectrum;
use tonos_dsp::window::Window;

fn snr_of<M: DeltaSigmaModulator>(
    dsm: &mut M,
    output_bits: Option<u32>,
) -> Result<f64, Box<dyn std::error::Error>> {
    let n_out = 2048;
    let cfg = DecimatorConfig {
        output_bits,
        ..DecimatorConfig::paper_default()
    };
    let mut dec = cfg.build()?;
    let settle = dec.settling_output_samples() + 8;
    let tone = Window::coherent_frequency(1000.0, n_out, 15.625);
    let stim = sine_wave(128_000.0, tone, 0.85, 0.0, 128 * (n_out + settle));
    let mut bits = PackedBits::with_capacity(stim.len());
    dsm.step_block(&stim, &mut bits);
    let mut out = Vec::with_capacity(n_out + settle);
    dec.process_packed_into(&bits, &mut out);
    let spec = Spectrum::from_signal(&out[out.len() - n_out..], 1000.0, Window::Hann)?;
    Ok(DynamicMetrics::from_spectrum(&spec)?.snr_db)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== A3: modulator order and non-ideality budget ==");

    // --- Order comparison ---
    let mut rows = Vec::new();
    for (label, bits) in [
        ("unquantized output", None),
        ("12-bit output (paper)", Some(12)),
    ] {
        let s1 = snr_of(&mut SigmaDelta1::new(NonIdealities::ideal())?, bits)?;
        let s2 = snr_of(&mut SigmaDelta2::new(NonIdealities::ideal())?, bits)?;
        rows.push(vec![
            label.to_string(),
            fmt(s1, 1),
            fmt(s2, 1),
            fmt(s2 - s1, 1),
        ]);
    }
    print_table(
        "1st-order baseline vs the paper's 2nd-order loop (OSR 128, -1.4 dBFS)",
        &[
            "output",
            "1st order SNR [dB]",
            "2nd order SNR [dB]",
            "advantage [dB]",
        ],
        &rows,
    );

    // --- Impairment budget, one knob at a time ---
    let typical = NonIdealities::typical();
    let cases: Vec<(&str, NonIdealities)> = vec![
        ("ideal", NonIdealities::ideal()),
        (
            "+ finite op-amp gain (72 dB)",
            NonIdealities::ideal().with_opamp_gain(typical.opamp_dc_gain),
        ),
        (
            "+ input noise (kT/C + thermal)",
            NonIdealities::ideal().with_input_noise(typical.input_noise_sigma),
        ),
        (
            "+ comparator offset/hysteresis",
            NonIdealities::ideal()
                .with_comparator_offset(typical.comparator_offset)
                .with_comparator_hysteresis(typical.comparator_hysteresis),
        ),
        (
            "+ clock jitter",
            NonIdealities::ideal().with_jitter_slew_gain(typical.jitter_slew_gain),
        ),
        (
            "+ DAC mismatch/ISI/ref noise",
            NonIdealities::ideal()
                .with_dac_level_mismatch(typical.dac_level_mismatch)
                .with_dac_isi(typical.dac_isi)
                .with_reference_noise(typical.reference_noise_sigma),
        ),
        (
            "+ heavy DAC ISI (1 %)",
            NonIdealities::ideal().with_dac_isi(0.01),
        ),
        ("all (typical chip)", typical),
    ];
    let mut rows = Vec::new();
    for (label, ni) in cases {
        let unq = snr_of(&mut SigmaDelta2::new(ni)?, None)?;
        let q12 = snr_of(&mut SigmaDelta2::new(ni)?, Some(12))?;
        rows.push(vec![
            label.to_string(),
            fmt(unq, 1),
            fmt(q12, 1),
            if q12 > 72.0 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print_table(
        "Per-impairment SNR budget (2nd order, OSR 128, -1.4 dBFS near full scale)",
        &[
            "impairment set",
            "SNR unquantized [dB]",
            "SNR 12-bit out [dB]",
            "clears 72 dB",
        ],
        &rows,
    );

    println!(
        "\nShape check: the 2nd-order loop buys tens of dB over 1st order at OSR 128; each \
         individual impairment costs a few dB at most, and the 12-bit output word is the \
         binding constraint at the paper's operating point — consistent with the measured \
         'better than 72 dB' against the 74 dB ideal-12-bit bound."
    );
    Ok(())
}
