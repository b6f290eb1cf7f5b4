//! # tonos-bench — experiment harness for the paper's evaluation
//!
//! Shared plumbing for the binaries that regenerate every quantitative
//! artifact of the paper (see `DESIGN.md` §4 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig7_spectrum` | Fig. 7 — ΣΔ-ADC output spectrum, SNR > 72 dB |
//! | `table1_performance` | §3.1 performance summary |
//! | `fig9_bp_waveform` | Fig. 9 — calibrated wrist BP waveform |
//! | `fig4_mux_settling` | §2.2 — mux switching settling |
//! | `fig2_membrane_characterization` | §2.1 — membrane transduction |
//! | `cuff_vs_continuous` | §1 — cuff baseline vs continuous monitoring |
//! | `vessel_localization` | §2 — localizing buried vessels |
//! | `ablation_osr_amplitude` | OSR & amplitude sweeps |
//! | `ablation_feedback_caps` | future work: Cfb tuning, faster clocks |
//! | `ablation_modulator` | modulator order & non-idealities |
//! | `ablation_decimation` | decimation architecture & word length |
//!
//! Each binary prints its table(s) to stdout; run them with
//! `cargo run --release -p tonos-bench --bin <name>`.
//!
//! Four more binaries — `hotpath_throughput`, `link_throughput`,
//! `scope_throughput` and `historian_throughput` — each write one
//! `BENCH_*.json` and exit nonzero when a gate misses; every best-of
//! figure among them is timed by [`best_of`].

use std::time::Instant;

use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::{DecimatorConfig, TwoStageDecimator};
use tonos_dsp::metrics::DynamicMetrics;
use tonos_dsp::signal::sine_wave;
use tonos_dsp::spectrum::Spectrum;
use tonos_dsp::window::Window;

/// Result of a sine-wave ADC characterization run (the Fig. 7 workflow).
#[derive(Debug, Clone)]
pub struct AdcCharacterization {
    /// Test-tone frequency actually used (snapped to a coherent bin).
    pub tone_hz: f64,
    /// Input amplitude in full-scale units.
    pub amplitude: f64,
    /// The decimated-output spectrum.
    pub spectrum: Spectrum,
    /// Extracted dynamic metrics.
    pub metrics: DynamicMetrics,
}

/// Runs the §3.1 electrical characterization: a coherent sine through a
/// 2nd-order ΣΔ modulator and a decimation chain, followed by spectral
/// analysis of `n_out` settled output samples.
///
/// # Errors
///
/// Propagates modulator/decimator construction and analysis failures.
pub fn characterize_adc(
    nonideal: NonIdealities,
    decimator: DecimatorConfig,
    amplitude: f64,
    target_tone_hz: f64,
    n_out: usize,
) -> Result<AdcCharacterization, Box<dyn std::error::Error>> {
    let fs = decimator.input_rate;
    let out_rate = decimator.output_rate();
    let tone = Window::coherent_frequency(out_rate, n_out, target_tone_hz);
    let mut dsm = SigmaDelta2::new(nonideal)?;
    let mut dec = decimator.build()?;
    let settle = dec.settling_output_samples() + 8;
    let n_in = decimator.osr * (n_out + settle);
    let stimulus = sine_wave(fs, tone, amplitude, 0.0, n_in);
    let mut bits = PackedBits::with_capacity(n_in);
    dsm.step_block(&stimulus, &mut bits);
    let mut out = Vec::with_capacity(n_in / decimator.osr);
    dec.process_packed_into(&bits, &mut out);
    let tail = &out[out.len() - n_out..];
    let spectrum = Spectrum::from_signal(tail, out_rate, Window::Hann)?;
    let metrics = DynamicMetrics::from_spectrum(&spectrum)?;
    Ok(AdcCharacterization {
        tone_hz: tone,
        amplitude,
        spectrum,
        metrics,
    })
}

/// SNR of the paper-default chain at a given amplitude and OSR; `None`
/// output bits bypasses the 12-bit quantizer (pure ΣΔ + filter).
///
/// # Errors
///
/// Propagates characterization failures.
pub fn snr_at(
    nonideal: NonIdealities,
    osr: usize,
    amplitude: f64,
    output_bits: Option<u32>,
    n_out: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let input_rate = 128_000.0;
    let cfg = DecimatorConfig {
        input_rate,
        osr,
        cutoff_hz: (input_rate / osr as f64) / 2.0,
        output_bits,
        ..DecimatorConfig::paper_default()
    };
    Ok(characterize_adc(nonideal, cfg, amplitude, 15.625, n_out)?
        .metrics
        .snr_db)
}

/// The E10 decimation function for
/// [`tonos_analog::characterize::DcTransfer::measure`]: one DC point's
/// bitstream through a fresh paper chain, averaged over the outputs
/// after the chain has settled.
pub fn settled_dc(bits: &PackedBits) -> f64 {
    let mut dec = TwoStageDecimator::paper_default();
    let mut out = Vec::with_capacity(bits.len() / dec.ratio());
    dec.process_packed_into(bits, &mut out);
    let settled = &out[dec.settling_output_samples() + 4..];
    settled.iter().sum::<f64>() / settled.len() as f64
}

/// Interleaved best-of timing: runs `rounds` rounds, each running every
/// leg once in order, and returns each leg's fastest round in seconds.
///
/// Host speed drifts within a run (frequency scaling, neighbours on a
/// shared host). Interleaving puts every leg of a comparison under the
/// same drift, and a minimum over rounds spread across the run is the
/// leg's least-disturbed time, so neither one slow patch nor the order
/// of the legs decides a figure or a ratio.
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn best_of<const N: usize>(rounds: usize, mut legs: [&mut dyn FnMut(); N]) -> [f64; N] {
    assert!(rounds > 0, "best_of needs at least one round");
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (leg, best) in legs.iter_mut().zip(&mut best) {
            let t = Instant::now();
            leg();
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    best
}

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |c: char| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&c.to_string().repeat(w + 2));
            s.push('+');
        }
        s
    };
    println!("\n{title}");
    println!("{}", line('-'));
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (cell, w) in cells.iter().zip(&widths) {
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!("{}", line('='));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!("{}", line('-'));
}

/// Renders a series as a crude ASCII plot (rows = amplitude buckets).
pub fn ascii_plot(title: &str, ys: &[f64], width: usize, height: usize) {
    if ys.is_empty() || width == 0 || height == 0 {
        return;
    }
    let lo = ys.iter().copied().fold(f64::MAX, f64::min);
    let hi = ys.iter().copied().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-12);
    // Downsample/upsample to `width` columns by averaging buckets.
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let lo_i = c * ys.len() / width;
            let hi_i = (((c + 1) * ys.len()) / width).max(lo_i + 1).min(ys.len());
            ys[lo_i..hi_i].iter().sum::<f64>() / (hi_i - lo_i) as f64
        })
        .collect();
    println!("\n{title}  [min {lo:.3}, max {hi:.3}]");
    for r in (0..height).rev() {
        let thresh = lo + span * (r as f64 + 0.5) / height as f64;
        let row: String = cols
            .iter()
            .map(|&v| if v >= thresh { '#' } else { ' ' })
            .collect();
        println!("|{row}|");
    }
    println!("+{}+", "-".repeat(width));
}

/// Formats a float with the given precision (helper for table rows).
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_reaches_the_paper_floor() {
        let r = characterize_adc(
            NonIdealities::typical(),
            DecimatorConfig::paper_default(),
            0.85,
            15.625,
            2048,
        )
        .unwrap();
        assert!(
            r.metrics.snr_db > 71.0,
            "paper-configuration SNR {:.1} dB",
            r.metrics.snr_db
        );
        assert!((r.tone_hz - 15.625).abs() < 1.0);
    }

    #[test]
    fn snr_improves_with_osr() {
        let lo = snr_at(NonIdealities::ideal(), 32, 0.5, None, 1024).unwrap();
        let hi = snr_at(NonIdealities::ideal(), 256, 0.5, None, 1024).unwrap();
        assert!(
            hi > lo + 20.0,
            "2nd-order ΣΔ gains ~15 dB/octave of OSR: {lo:.1} -> {hi:.1}"
        );
    }

    /// 64-bit FNV-1a over the little-endian bytes of each word.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// Pins `characterize_adc`'s decimated tail at full precision (the
    /// experiments log prints SNRs to 0.1 dB) through its spectrum: the
    /// paper chain, and OSR 512 unquantized as `snr_at` builds it, where
    /// one CIC period spans two 64-bit words of the bitstream.
    #[test]
    fn characterization_matches_its_golden_digests() {
        let digest = |decimator, amplitude, n_out| {
            let r = characterize_adc(
                NonIdealities::typical(),
                decimator,
                amplitude,
                15.625,
                n_out,
            )
            .unwrap();
            fnv1a(r.spectrum.power().iter().map(|p| p.to_bits()))
        };
        let osr_512 = DecimatorConfig {
            osr: 512,
            cutoff_hz: 125.0,
            output_bits: None,
            ..DecimatorConfig::paper_default()
        };
        assert_eq!(
            digest(DecimatorConfig::paper_default(), 0.85, 2048),
            0x17C8_EA6C_16FA_BD87
        );
        assert_eq!(digest(osr_512, 0.5, 256), 0x9B05_B6C5_0D7C_9EAB);
    }

    /// Pins every point of the E10 DC sweep, as `dc_linearity` runs it,
    /// at full precision (the log prints six digits).
    #[test]
    fn dc_transfer_matches_its_golden_digest() {
        let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let t = tonos_analog::characterize::DcTransfer::measure(
            &mut dsm,
            41,
            0.85,
            128 * 120,
            1.0 / 2048.0,
            settled_dc,
        )
        .unwrap();
        let words = t
            .points
            .iter()
            .flat_map(|p| [p.input, p.output, p.inl_lsb])
            .chain([t.gain, t.offset])
            .map(f64::to_bits);
        assert_eq!(fnv1a(words), 0x8582_2224_BD8E_3926);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "two".into()], vec!["3".into(), "4".into()]],
        );
        ascii_plot("demo", &[0.0, 1.0, 0.5, 0.2], 10, 4);
        ascii_plot("empty", &[], 10, 4);
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
