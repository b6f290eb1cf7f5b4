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
//! 3. Session throughput (sessions/s) on `FleetEngine` pools of
//!    several widths, the one-worker pool being the single-thread
//!    figure. Every width runs the same sessions, and the widths are
//!    interleaved rep by rep so host drift hits both sides of every
//!    ratio equally.
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

use std::time::Instant;

use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_core::readout::ReadoutSystem;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::CicDecimator;
use tonos_dsp::decimator::{DecimatorConfig, CIC_INPUT_FRAC_BITS};
use tonos_dsp::fir::FirDecimator;
use tonos_dsp::signal::sine_wave;
use tonos_fleet::{FleetConfig, FleetEngine, SessionSpec};
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_physio::patient::PatientProfile;

/// One real-time second of modulator clocks.
const CLOCKS: usize = 128_000;

/// Sessions per pool-width measurement, `--quick` included: with two
/// sessions no pool width could pass 2x.
const SESSIONS: usize = 8;

/// Best-of-N wall-clock seconds for a closure processing `items` items;
/// returns (items/s, ns/item).
fn rate(reps: usize, items: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (items as f64 / best, best * 1e9 / items as f64)
}

fn decimation_mbps(packed: bool, seconds: usize, reps: usize) -> f64 {
    let n = CLOCKS * seconds;
    let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let mut dec = DecimatorConfig::paper_default().build().unwrap();
    if packed {
        let bits: PackedBits = bools.iter().copied().collect();
        let mut out = Vec::with_capacity(n / 128 + 1);
        let (per_s, _) = rate(reps, n, || {
            out.clear();
            dec.process_packed_into(&bits, &mut out);
            assert!(!out.is_empty());
        });
        per_s / 1e6
    } else {
        let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let mut out = Vec::with_capacity(n / 128 + 1);
        let (per_s, _) = rate(reps, n, || {
            out.clear();
            dec.process_into(&floats, &mut out);
            assert!(!out.is_empty());
        });
        per_s / 1e6
    }
}

fn modulator_ns_per_clock(reps: usize) -> f64 {
    let stim = sine_wave(128_000.0, 100.0, 0.5, 0.0, CLOCKS);
    let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
    let mut bits = PackedBits::with_capacity(CLOCKS);
    let (_, ns) = rate(reps, CLOCKS, || {
        bits.clear();
        dsm.step_block(&stim, &mut bits);
        assert_eq!(bits.len(), CLOCKS);
    });
    ns
}

fn cic_ns_per_bit(reps: usize) -> f64 {
    let bits: PackedBits = (0..CLOCKS).map(|i| i % 3 == 0).collect();
    let scale = 1_i64 << CIC_INPUT_FRAC_BITS;
    let mut cic = CicDecimator::new(3, 32).unwrap();
    let mut out = Vec::with_capacity(CLOCKS / 32 + 1);
    let (_, ns) = rate(reps, CLOCKS, || {
        out.clear();
        cic.process_packed_into(&bits, scale, &mut out);
        assert!(!out.is_empty());
    });
    ns
}

fn fir_ns_per_sample(reps: usize) -> f64 {
    let n = CLOCKS / 32; // the CIC's 4 kS/s intermediate rate
    let xs = sine_wave(4_000.0, 100.0, 0.5, 0.0, n);
    let mut fir = FirDecimator::paper_default();
    let (_, ns) = rate(reps, n, || {
        let mut acc = 0.0;
        for &x in &xs {
            if let Some(y) = fir.push(x) {
                acc += y;
            }
        }
        std::hint::black_box(acc);
    });
    ns
}

fn frame_ns(reps: usize, frames: usize) -> f64 {
    let mut sys = ReadoutSystem::paper_default().unwrap();
    let frame = vec![Pascals::from_mmhg(MillimetersHg(100.0)); 4];
    for _ in 0..16 {
        sys.push_frame(&frame).unwrap();
    }
    let (_, ns) = rate(reps, frames, || {
        for _ in 0..frames {
            std::hint::black_box(sys.push_frame(&frame).unwrap());
        }
    });
    ns
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
    let (reps, dec_seconds, duration_s) = if quick { (2, 2, 6.0) } else { (5, 8, 8.0) };
    eprintln!(
        "measuring on {cores} hardware thread(s){}...",
        if quick { " (quick)" } else { "" }
    );

    let f64_mbps = decimation_mbps(false, dec_seconds, reps);
    let packed_mbps = decimation_mbps(true, dec_seconds, reps);
    eprintln!("  decimation: f64 {f64_mbps:.2} Mbit/s, packed {packed_mbps:.2} Mbit/s");
    let mod_ns = modulator_ns_per_clock(reps);
    let cic_ns = cic_ns_per_bit(reps);
    let fir_ns = fir_ns_per_sample(reps);
    let fr_ns = frame_ns(reps, if quick { 500 } else { 2000 });
    eprintln!(
        "  stages: modulator {mod_ns:.1} ns/clock, cic {cic_ns:.2} ns/bit, \
         fir {fir_ns:.1} ns/sample, frame {fr_ns:.0} ns"
    );

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
    println!("    \"f64_path_mbit_per_s\": {f64_mbps:.2},");
    println!("    \"packed_path_mbit_per_s\": {packed_mbps:.2},");
    println!("    \"packed_speedup\": {:.3}", packed_mbps / f64_mbps);
    println!("  }},");
    println!("  \"stages\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"modulator_ns_per_clock\": {mod_ns:.2},");
    println!("    \"cic_word_kernel_ns_per_bit\": {cic_ns:.3},");
    println!("    \"fir_ns_per_sample\": {fir_ns:.2},");
    println!("    \"settled_frame_ns\": {fr_ns:.0}");
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
        "    \"note\": \"both gates are in-run ratios measured back to back (host-speed drift cancels); core-scaled: the 4x fleet target assumes an 8-core host, proportionally less on narrower multi-core hosts (floor 1.2x), sanity floor 0.8x on one core; --quick relaxes all gates to 60% for noisy CI runners\""
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
