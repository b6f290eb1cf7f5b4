//! Hot-path throughput measurement — the numbers behind
//! `BENCH_hotpath.json`.
//!
//! Measures the zero-allocation packed-bit signal chain per stage and
//! end to end, and prints one JSON document:
//!
//! 1. Packed-bit (word-parallel CIC) vs legacy f64 decimation
//!    throughput, Mbit/s through the paper-default two-stage chain.
//! 2. Per-stage costs in ns: one modulator clock (block stepper), one
//!    CIC input bit (word kernel), one FIR input sample, and one
//!    settled readout frame.
//! 3. Per-kernel costs in ns at the sizes the paper experiments use:
//!    the scalar i64 CIC (the word kernel's baseline), the integer FPGA
//!    datapath, the 4,096-point FFT and spectral metrics, the exact
//!    capacitance model against the chip's LUT, the plate solve, the
//!    voltage-input path, the streaming analyzer, and the CRC-32 under
//!    every link frame and store record (with its bytewise reference).
//!    Recorded as data, ungated.
//! 4. Session throughput (sessions/s) on `FleetEngine` pools of
//!    several widths, the one-worker pool being the single-thread
//!    figure. Every width runs the same sessions, and the widths are
//!    interleaved rep by rep so host drift hits both sides of every
//!    ratio equally.
//!
//! Items 1 and 2 are six legs of one [`best_of`] call, and item 3 is
//! another: every round runs each leg once, so each figure is the
//! minimum over rounds spread across the whole measurement (about four
//! seconds for the stages and three for the kernels on a 2-vCPU host;
//! `--quick` cuts the stages to roughly a quarter and keeps every kernel
//! round). A shared host runs slow for stretches of a second or more, so
//! a shorter span lets one stretch decide a figure.
//!
//! Every gate is a numeric `gate_*` field in the JSON `gates` block and
//! is asserted by this binary (exit nonzero on miss) — the CI
//! perf-smoke gate. The fleet gate scales with the detected core count
//! (its 4x target assumes an 8-core host; a single-core host only
//! sanity-checks the pool) and `--quick` relaxes every gate to 60% for
//! noisy CI runners.
//!
//! Run with: `cargo run --release -p tonos-bench --bin hotpath_throughput`
//! (`--quick` shrinks the workload for CI smoke runs).

use std::hint::black_box;
use std::time::Instant;

use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_bench::best_of;
use tonos_core::chip::SensorChip;
use tonos_core::config::SystemConfig;
use tonos_core::export::write_record_parts;
use tonos_core::readout::ReadoutSystem;
use tonos_core::stream::{AlarmLimits, OnlineAnalyzer};
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::CicDecimator;
use tonos_dsp::decimator::{DecimatorConfig, CIC_INPUT_FRAC_BITS};
use tonos_dsp::fft::{fft, Complex};
use tonos_dsp::fir::FirDecimator;
use tonos_dsp::fpga::FixedPointDecimator;
use tonos_dsp::frame::{crc32, crc32_bytewise, Frame, CRC_LEN, SYNC};
use tonos_dsp::metrics::DynamicMetrics;
use tonos_dsp::signal::sine_wave;
use tonos_dsp::spectrum::Spectrum;
use tonos_dsp::window::Window;
use tonos_fleet::{FleetConfig, FleetEngine, SessionSpec};
use tonos_mems::capacitor::MembraneCapacitor;
use tonos_mems::plate::SquarePlate;
use tonos_mems::units::{MillimetersHg, Pascals, Volts};
use tonos_physio::patient::PatientProfile;

/// One real-time second of modulator clocks.
const CLOCKS: usize = 128_000;

/// Sessions per pool-width measurement, `--quick` included: with two
/// sessions no pool width could pass 2x.
const SESSIONS: usize = 8;

/// Points of the FFT and spectral-metrics kernels: the Fig. 7 record.
const FFT_POINTS: usize = 4096;

/// Rounds of the kernels block, `--quick` included: at 60 rounds one slow
/// stretch of the host decided a figure.
const KERNEL_ROUNDS: usize = 300;

/// Samples in one store record, as the hub flushes them.
const RECORD_SAMPLES: usize = 1024;

/// CRCs of one link frame's bytes per round, so a round times microseconds
/// rather than the timer.
const FRAME_CRCS: usize = 128;

/// Pressures per round of the MEMS kernels: a 40–200 mmHg sweep, long
/// enough that the fastest round (the plate solve) is microseconds, far
/// above the timer's resolution.
const SWEEP: usize = 256;

/// Decimation pair and per-stage costs, from one interleaved
/// [`best_of`] call.
struct Stages {
    f64_mbps: f64,
    packed_mbps: f64,
    modulator_ns_per_clock: f64,
    cic_ns_per_bit: f64,
    fir_ns_per_sample: f64,
    frame_ns: f64,
}

fn stages(rounds: usize, dec_seconds: usize, frames: usize) -> Stages {
    // Decimation pair: the same bitstream as floats and packed words.
    let n = CLOCKS * dec_seconds;
    let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
    let packed: PackedBits = bools.iter().copied().collect();
    let mut f64_dec = DecimatorConfig::paper_default().build().unwrap();
    let mut packed_dec = DecimatorConfig::paper_default().build().unwrap();
    let mut f64_out = Vec::with_capacity(n / 128 + 1);
    let mut packed_out = Vec::with_capacity(n / 128 + 1);

    let stim = sine_wave(128_000.0, 100.0, 0.5, 0.0, CLOCKS);
    let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
    let mut mod_bits = PackedBits::with_capacity(CLOCKS);

    let cic_bits: PackedBits = (0..CLOCKS).map(|i| i % 3 == 0).collect();
    let scale = 1_i64 << CIC_INPUT_FRAC_BITS;
    let mut cic = CicDecimator::new(3, 32).unwrap();
    let mut cic_out = Vec::with_capacity(CLOCKS / 32 + 1);

    let fir_in = sine_wave(4_000.0, 100.0, 0.5, 0.0, CLOCKS / 32); // the CIC's 4 kS/s rate
    let mut fir = FirDecimator::paper_default();

    let mut sys = ReadoutSystem::paper_default().unwrap();
    let frame = vec![Pascals::from_mmhg(MillimetersHg(100.0)); 4];
    for _ in 0..16 {
        sys.push_frame(&frame).unwrap();
    }

    let [f64_s, packed_s, mod_s, cic_s, fir_s, frame_s] = best_of(
        rounds,
        [
            &mut || {
                f64_out.clear();
                f64_dec.process_into(&floats, &mut f64_out);
                assert!(!f64_out.is_empty());
            },
            &mut || {
                packed_out.clear();
                packed_dec.process_packed_into(&packed, &mut packed_out);
                assert!(!packed_out.is_empty());
            },
            &mut || {
                mod_bits.clear();
                dsm.step_block(&stim, &mut mod_bits);
                assert_eq!(mod_bits.len(), CLOCKS);
            },
            &mut || {
                cic_out.clear();
                cic.process_packed_into(&cic_bits, scale, &mut cic_out);
                assert!(!cic_out.is_empty());
            },
            &mut || {
                let mut acc = 0.0;
                for &x in &fir_in {
                    if let Some(y) = fir.push(x) {
                        acc += y;
                    }
                }
                black_box(acc);
            },
            &mut || {
                for _ in 0..frames {
                    black_box(sys.push_frame(&frame).unwrap());
                }
            },
        ],
    );
    Stages {
        f64_mbps: n as f64 / f64_s / 1e6,
        packed_mbps: n as f64 / packed_s / 1e6,
        modulator_ns_per_clock: mod_s * 1e9 / CLOCKS as f64,
        cic_ns_per_bit: cic_s * 1e9 / CLOCKS as f64,
        fir_ns_per_sample: fir_s * 1e9 / fir_in.len() as f64,
        frame_ns: frame_s * 1e9 / frames as f64,
    }
}

/// Per-kernel costs in ns per item, named as in the JSON `kernels`
/// block, from one interleaved [`best_of`] call.
fn kernels(rounds: usize) -> [(&'static str, f64); 12] {
    let bits_i64: Vec<i64> = (0..CLOCKS)
        .map(|i| if i % 3 == 0 { 1 } else { -1 })
        .collect();
    let bits_i8: Vec<i8> = bits_i64.iter().map(|&b| b as i8).collect();
    let mut cic = CicDecimator::new(3, 32).unwrap();
    let mut fpga = FixedPointDecimator::paper_default();

    let fft_in: Vec<Complex> = (0..FFT_POINTS)
        .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    let mut fft_buf = fft_in.clone();
    let tone = Window::coherent_frequency(1000.0, FFT_POINTS, 15.625);
    let record = sine_wave(1000.0, tone, 0.5, 0.0, FFT_POINTS);

    let pressures: Vec<Pascals> = (0..SWEEP)
        .map(|i| Pascals::from_mmhg(MillimetersHg(40.0 + 160.0 * i as f64 / SWEEP as f64)))
        .collect();
    let capacitor = MembraneCapacitor::paper_default();
    let chip = SensorChip::paper_default().unwrap();
    let frames: Vec<Vec<Pascals>> = pressures.iter().map(|&p| vec![p; 4]).collect();
    let plate = SquarePlate::paper_default();

    let volts: Vec<Volts> = (0..CLOCKS)
        .map(|i| Volts(1.25 * (i as f64 * 0.001).sin()))
        .collect();
    let mut voltage_sys = ReadoutSystem::new(SystemConfig::characterization_default()).unwrap();

    let normotensive = PatientProfile::normotensive().record(1000.0, 60.0).unwrap();
    let stream: Vec<f64> = normotensive.samples.iter().map(|p| p.value()).collect();

    // One record's payload (the bytes the store and the record codec
    // CRC) and the CRC'd bytes of one 1,024-bit link frame.
    let raw: Vec<f64> = stream[..RECORD_SAMPLES].to_vec();
    let cal: Vec<MillimetersHg> = raw.iter().map(|&p| MillimetersHg(p / 133.322)).collect();
    let mut store_record = Vec::new();
    write_record_parts(1000.0, 0, &raw, &cal, &mut store_record).unwrap();
    let link_bits: PackedBits = (0..1024).map(|i| i % 3 == 0 || i % 7 == 2).collect();
    let encoded = Frame::bitstream(0, 0, 0, &link_bits).unwrap().encode();
    let frame = &encoded[SYNC.len()..encoded.len() - CRC_LEN];

    let secs = best_of(
        rounds,
        [
            &mut || {
                black_box(cic.process(black_box(&bits_i64)));
            },
            &mut || {
                black_box(fpga.process(black_box(&bits_i8)));
            },
            &mut || {
                fft_buf.copy_from_slice(&fft_in);
                fft(black_box(&mut fft_buf)).unwrap();
            },
            &mut || {
                let s = Spectrum::from_signal(black_box(&record), 1000.0, Window::Hann).unwrap();
                black_box(DynamicMetrics::from_spectrum(&s).unwrap());
            },
            &mut || {
                for &p in &pressures {
                    black_box(capacitor.capacitance(black_box(p)).unwrap());
                }
            },
            &mut || {
                for frame in &frames {
                    black_box(chip.capacitances(black_box(frame)).unwrap());
                }
            },
            &mut || {
                for &p in &pressures {
                    black_box(plate.center_deflection(black_box(p)).unwrap());
                }
            },
            &mut || {
                black_box(voltage_sys.acquire_voltage(black_box(&volts)));
            },
            &mut || {
                let mut analyzer = OnlineAnalyzer::new(1000.0, AlarmLimits::adult()).unwrap();
                black_box(analyzer.push_block(black_box(&stream)));
            },
            &mut || {
                black_box(crc32(black_box(&store_record)));
            },
            &mut || {
                for _ in 0..FRAME_CRCS {
                    black_box(crc32(black_box(frame)));
                }
            },
            &mut || {
                black_box(crc32_bytewise(black_box(&store_record)));
            },
        ],
    );
    let per_item = [
        ("cic_scalar_i64_ns_per_bit", CLOCKS),
        ("fpga_datapath_ns_per_bit", CLOCKS),
        ("fft_radix2_4096_ns", 1),
        ("spectrum_metrics_4096_ns", 1),
        ("exact_capacitance_ns", SWEEP),
        ("lut_capacitance_ns_per_element", SWEEP * 4),
        ("plate_deflection_ns", SWEEP),
        ("acquire_voltage_ns_per_clock", CLOCKS),
        ("online_analyzer_ns_per_sample", stream.len()),
        ("crc32_record_ns_per_byte", store_record.len()),
        ("crc32_frame_ns_per_byte", frame.len() * FRAME_CRCS),
        ("crc32_bytewise_record_ns_per_byte", store_record.len()),
    ];
    std::array::from_fn(|i| (per_item[i].0, secs[i] * 1e9 / per_item[i].1 as f64))
}

/// Sessions/s for [`SESSIONS`] monitoring sessions on a `workers`-wide
/// fleet pool.
fn fleet_sessions_per_s(workers: usize, duration_s: f64) -> f64 {
    let profiles = PatientProfile::all();
    let mut fleet = FleetEngine::spawn(FleetConfig { workers });
    let t = Instant::now();
    for i in 0..SESSIONS {
        fleet.push(
            SessionSpec::new(
                format!("hotpath-{i}"),
                profiles[i % profiles.len()].with_seed(1000 + i as u64),
            )
            .with_duration(duration_s)
            .with_scan_window(150),
        );
    }
    let report = fleet.drain();
    let dt = t.elapsed().as_secs_f64();
    assert!(report.failures().is_empty(), "bench sessions must complete");
    SESSIONS as f64 / dt
}

struct GateCheck {
    name: &'static str,
    measured: f64,
    min: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (rounds, dec_seconds, frames, duration_s) = if quick {
        (160, 2, 500, 6.0)
    } else {
        (256, 8, 2000, 8.0)
    };
    eprintln!(
        "measuring on {cores} hardware thread(s){}...",
        if quick { " (quick)" } else { "" }
    );

    let st = stages(rounds, dec_seconds, frames);
    let (f64_mbps, packed_mbps) = (st.f64_mbps, st.packed_mbps);
    eprintln!("  decimation: f64 {f64_mbps:.2} Mbit/s, packed {packed_mbps:.2} Mbit/s");
    eprintln!(
        "  stages: modulator {:.1} ns/clock, cic {:.2} ns/bit, fir {:.1} ns/sample, frame {:.0} ns",
        st.modulator_ns_per_clock, st.cic_ns_per_bit, st.fir_ns_per_sample, st.frame_ns
    );
    let kernels = kernels(KERNEL_ROUNDS);
    for (name, ns) in &kernels {
        eprintln!("  kernel {name}: {ns:.2}");
    }

    // Pool-width sweep, interleaved: each rep measures every width back
    // to back, so slow host drift moves both sides of a ratio together
    // instead of biasing whichever width ran last. Speedups are
    // computed within a rep (best rep wins); absolute sessions/s are
    // best-of-reps. Width 1 is the single-thread baseline.
    let widths: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w == 1 || w <= 2 * cores)
        .collect();
    let session_reps = if quick { 1 } else { 3 };
    let mut width_reps = vec![Vec::with_capacity(session_reps); widths.len()];
    for rep in 0..session_reps {
        eprintln!("  fleet width sweep rep {}/{}...", rep + 1, session_reps);
        for (reps, &w) in width_reps.iter_mut().zip(&widths) {
            reps.push(fleet_sessions_per_s(w, duration_s));
        }
    }
    let best = |xs: &[f64]| xs.iter().cloned().fold(0.0_f64, f64::max);
    // Drift-robust speedup: best same-rep ratio against width 1.
    let ratio = |xs: &[f64]| {
        xs.iter()
            .zip(&width_reps[0])
            .map(|(&x, &s)| x / s)
            .fold(0.0_f64, f64::max)
    };
    let sessions_per_s = best(&width_reps[0]);
    eprintln!("  single-thread sessions/s: {sessions_per_s:.3}");
    let fleet: Vec<(usize, f64, f64)> = widths
        .iter()
        .zip(&width_reps)
        .map(|(&w, reps)| (w, best(reps), ratio(reps)))
        .collect();
    let mut best_width = (1, 0.0_f64);
    for &(w, per_s, speedup) in &fleet[1..] {
        eprintln!("  fleet width {w}: {per_s:.3} sessions/s ({speedup:.2}x single thread)");
        if speedup > best_width.1 {
            best_width = (w, speedup);
        }
    }
    let (best_fleet_width, best_fleet_speedup) = best_width;

    // --- Gates: numeric, core-scaled, quick-relaxed, all asserted. ---
    // The fleet target encodes "4x assumes an 8-core host": fewer cores
    // lower the bar proportionally (floor 1.2x on any multi-core host)
    // and a single core only sanity-checks for pool overhead.
    let relax = if quick { 0.6 } else { 1.0 };
    let gate_packed = 1.0 * relax;
    let gate_fleet = relax
        * if cores >= 2 {
            (4.0 * (cores.min(8) as f64) / 8.0).max(1.2)
        } else {
            0.8
        };

    println!("{{");
    println!("  \"bench\": \"hotpath_throughput\",");
    println!("  \"quick\": {quick},");
    println!("  \"host_hardware_threads\": {cores},");
    println!("  \"decimation\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"best_of_rounds\": {rounds},");
    println!("    \"f64_path_mbit_per_s\": {f64_mbps:.2},");
    println!("    \"packed_path_mbit_per_s\": {packed_mbps:.2},");
    println!("    \"packed_speedup\": {:.3}", packed_mbps / f64_mbps);
    println!("  }},");
    println!("  \"stages\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"best_of_rounds\": {rounds},");
    println!(
        "    \"modulator_ns_per_clock\": {:.2},",
        st.modulator_ns_per_clock
    );
    println!(
        "    \"cic_word_kernel_ns_per_bit\": {:.3},",
        st.cic_ns_per_bit
    );
    println!("    \"fir_ns_per_sample\": {:.2},", st.fir_ns_per_sample);
    println!("    \"settled_frame_ns\": {:.0}", st.frame_ns);
    println!("  }},");
    println!("  \"kernels\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"best_of_rounds\": {KERNEL_ROUNDS},");
    for (i, (name, ns)) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let digits = if *ns < 100.0 { 2 } else { 0 };
        println!("    \"{name}\": {ns:.digits$}{comma}");
    }
    println!("  }},");
    println!("  \"session_duration_s\": {duration_s},");
    println!("  \"sessions_per_measurement\": {SESSIONS},");
    println!("  \"single_thread_sessions_per_s\": {sessions_per_s:.3},");
    println!("  \"fleet\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!(
        "    \"description\": \"FleetEngine pool widths running the same sessions; speedups are best same-rep ratios vs the interleaved one-worker run\","
    );
    println!("    \"widths\": [");
    for (i, (w, per_s, speedup)) in fleet.iter().enumerate() {
        let comma = if i + 1 < fleet.len() { "," } else { "" };
        println!(
            "      {{ \"workers\": {w}, \"sessions_per_s\": {per_s:.3}, \"speedup_vs_single_thread\": {speedup:.3} }}{comma}"
        );
    }
    println!("    ],");
    println!("    \"best_fleet_width\": {best_fleet_width},");
    println!("    \"best_fleet_speedup_vs_single_thread\": {best_fleet_speedup:.3}");
    println!("  }},");
    println!("  \"gates\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"gate_packed_speedup_min\": {gate_packed:.3},");
    println!("    \"gate_best_fleet_speedup_min\": {gate_fleet:.3},");
    println!(
        "    \"note\": \"both gates are in-run ratios of interleaved legs (host-speed drift cancels); core-scaled: the 4x fleet target assumes an 8-core host, proportionally less on narrower multi-core hosts (floor 1.2x), sanity floor 0.8x on one core; --quick relaxes all gates to 60% for noisy CI runners\""
    );
    println!("  }},");
    println!(
        "  \"note\": \"pre-optimization baselines (same host class): f64 157.65 Mbit/s, packed 217.56 Mbit/s, single-thread 9.147 sessions/s; targets were >= 2x packed (435.12) and >= 1.5x sessions/s (13.72)\""
    );
    println!("}}");

    let checks = [
        GateCheck {
            name: "packed decimation vs f64 baseline",
            measured: packed_mbps / f64_mbps,
            min: gate_packed,
        },
        GateCheck {
            name: "best fleet width vs in-run single thread sessions/s",
            measured: best_fleet_speedup,
            min: gate_fleet,
        },
    ];
    let mut failed = false;
    for c in &checks {
        if c.measured < c.min {
            eprintln!(
                "FAIL: {} is {:.3}, below the gate of {:.3}",
                c.name, c.measured, c.min
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
