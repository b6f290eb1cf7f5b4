//! Ablation A4 — decimation-filter architecture and word length.
//!
//! Why a *two-stage* SINC³+FIR filter (§3.1) instead of a single SINC³
//! decimating the full OSR? And how many coefficient bits does the FPGA
//! FIR actually need? Both answers come out of the same SNR harness.

use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_bench::{fmt, print_table};
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::CicDecimatorF64;
use tonos_dsp::decimator::{DecimatorConfig, OutputQuantizer};
use tonos_dsp::fpga::FixedPointDecimator;
use tonos_dsp::metrics::DynamicMetrics;
use tonos_dsp::signal::sine_wave;
use tonos_dsp::spectrum::Spectrum;
use tonos_dsp::window::Window;

const N_OUT: usize = 2048;
const FS: f64 = 128_000.0;

fn stimulus_bits(n_out_plus_settle: usize) -> Result<PackedBits, Box<dyn std::error::Error>> {
    let tone = Window::coherent_frequency(1000.0, N_OUT, 15.625);
    let stim = sine_wave(FS, tone, 0.5, 0.0, 128 * n_out_plus_settle);
    let mut dsm = SigmaDelta2::new(NonIdealities::typical())?;
    let mut bits = PackedBits::with_capacity(stim.len());
    dsm.step_block(&stim, &mut bits);
    Ok(bits)
}

/// The bitstream through a two-stage chain built from `cfg`.
fn two_stage(
    cfg: DecimatorConfig,
    bits: &PackedBits,
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    let mut out = Vec::with_capacity(bits.len() / cfg.osr);
    cfg.build()?.process_packed_into(bits, &mut out);
    Ok(out)
}

fn snr_of_output(out: &[f64]) -> Result<f64, Box<dyn std::error::Error>> {
    let spec = Spectrum::from_signal(&out[out.len() - N_OUT..], 1000.0, Window::Hann)?;
    Ok(DynamicMetrics::from_spectrum(&spec)?.snr_db)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== A4: decimation architecture & FIR word length ==");

    // --- Architecture: SINC3 ÷128 alone vs SINC3 ÷32 + FIR ÷4 ---
    let bits = stimulus_bits(N_OUT + 64)?;
    // The float-only SINC3 baselines and the FPGA model take the stream
    // unpacked.
    let floats = bits.to_f64_vec();

    // Single-stage SINC3 decimating by the full 128, then 12-bit output.
    let mut cic_only = CicDecimatorF64::new(3, 128)?;
    let q12 = OutputQuantizer::new(12)?;
    let out_cic: Vec<f64> = cic_only
        .process(&floats)
        .into_iter()
        .map(|v| q12.round_trip(v))
        .collect();
    let snr_cic = snr_of_output(&out_cic)?;

    // The paper's two-stage chain.
    let snr_two = snr_of_output(&two_stage(DecimatorConfig::paper_default(), &bits)?)?;

    // The fully integer FPGA datapath (bit-exact hardware model).
    let mut fpga = FixedPointDecimator::paper_default();
    let bits_i8: Vec<i8> = bits.iter().map(|b| if b { 1 } else { -1 }).collect();
    let codes = fpga.process(&bits_i8);
    let out_fpga: Vec<f64> = codes.iter().map(|&c| fpga.dequantize(c)).collect();
    let snr_fpga = snr_of_output(&out_fpga)?;

    // Two-stage without the final FIR cleanup: SINC3 ÷32 then naive ÷4
    // (pick every 4th intermediate sample — aliases the 0.5..2 kHz band).
    let mut cic32 = CicDecimatorF64::new(3, 32)?;
    let mid = cic32.process(&floats);
    let out_naive: Vec<f64> = mid
        .iter()
        .skip(3)
        .step_by(4)
        .map(|&v| q12.round_trip(v))
        .collect();
    let snr_naive = snr_of_output(&out_naive)?;

    print_table(
        "Architecture comparison (typical modulator, OSR 128, 12-bit output)",
        &["architecture", "SNR [dB]"],
        &[
            vec!["SINC3 / 128 single stage".into(), fmt(snr_cic, 1)],
            vec!["SINC3 / 32 + naive / 4 (no FIR)".into(), fmt(snr_naive, 1)],
            vec![
                "SINC3 / 32 + 32-tap FIR / 4 (paper)".into(),
                fmt(snr_two, 1),
            ],
            vec![
                "fully integer FPGA datapath (Q14 coeffs)".into(),
                fmt(snr_fpga, 1),
            ],
        ],
    );

    // --- FIR coefficient word length ---
    let mut rows = Vec::new();
    for coeff_bits in [16_u32, 12, 10, 8, 6, 4] {
        let cfg = DecimatorConfig {
            coefficient_bits: Some(coeff_bits),
            ..DecimatorConfig::paper_default()
        };
        let out = two_stage(cfg, &bits)?;
        rows.push(vec![coeff_bits.to_string(), fmt(snr_of_output(&out)?, 1)]);
    }
    let out = two_stage(DecimatorConfig::paper_default(), &bits)?;
    rows.push(vec!["f64 (reference)".into(), fmt(snr_of_output(&out)?, 1)]);
    print_table(
        "FIR coefficient word-length sweep (paper chain otherwise)",
        &["coefficient bits", "SNR [dB]"],
        &rows,
    );

    println!(
        "\nShape check: the naive ÷4 without the FIR folds the 0.5–2 kHz shaped noise into \
         the band and loses SNR; the paper's 32-tap FIR restores it, and ~10 coefficient \
         bits already reach the 12-bit output's budget — a cheap FPGA filter, as used."
    );
    Ok(())
}
