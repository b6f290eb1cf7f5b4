//! Fleet throughput measurement — the numbers behind `BENCH_fleet.json`.
//!
//! Measures three things and prints them as one JSON document:
//!
//! 1. Packed-bit vs legacy f64 decimation throughput (Mbit/s through
//!    the paper-default two-stage chain).
//! 2. Single-thread session throughput: monitoring sessions run
//!    back-to-back on the calling thread.
//! 3. Fleet session throughput at several pool widths.
//!
//! The `gates` block carries the numeric scaling gate this binary
//! asserts, scaled by the detected core count: the 4x target assumes
//! an 8-core host; multi-core hosts with fewer cores get a
//! proportionally lower bar and a single-core host only sanity-checks
//! that the pool does not lose to the single thread.
//!
//! Run with: `cargo run --release -p tonos-bench --bin fleet_throughput`

use std::time::Instant;

use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_fleet::{FleetConfig, FleetEngine, SessionSpec};
use tonos_physio::patient::PatientProfile;

/// Sessions per throughput measurement.
const SESSIONS: usize = 8;
/// Simulated monitoring duration per session, seconds.
const DURATION_S: f64 = 8.0;

fn spec(i: usize) -> SessionSpec {
    let profiles = PatientProfile::all();
    SessionSpec::new(
        format!("bench-{i}"),
        profiles[i % profiles.len()].with_seed(1000 + i as u64),
    )
    .with_duration(DURATION_S)
    .with_scan_window(150)
}

fn decimation_mbps(packed: bool) -> f64 {
    let n = 128_000 * 8; // eight seconds of modulator bits
    let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let mut dec = DecimatorConfig::paper_default().build().unwrap();
    if packed {
        let bits: PackedBits = bools.iter().copied().collect();
        let t = Instant::now();
        let out = dec.process_packed(&bits);
        let dt = t.elapsed().as_secs_f64();
        assert!(!out.is_empty());
        n as f64 / dt / 1e6
    } else {
        let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let t = Instant::now();
        let out = dec.process(&floats);
        let dt = t.elapsed().as_secs_f64();
        assert!(!out.is_empty());
        n as f64 / dt / 1e6
    }
}

fn fleet_sessions_per_s(workers: usize) -> f64 {
    let mut fleet = FleetEngine::spawn(FleetConfig { workers });
    let t = Instant::now();
    for i in 0..SESSIONS {
        fleet.push(spec(i));
    }
    let report = fleet.drain();
    let dt = t.elapsed().as_secs_f64();
    assert!(report.failures().is_empty(), "bench sessions must complete");
    SESSIONS as f64 / dt
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = tonos_analog::bank::kernel_name();
    eprintln!("measuring on {cores} hardware thread(s), kernel {kernel}...");

    let f64_mbps = decimation_mbps(false);
    let packed_mbps = decimation_mbps(true);
    let single = fleet_sessions_per_s(1);
    let widths: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w == 1 || w <= 2 * cores)
        .collect();
    let fleet: Vec<(usize, f64)> = widths
        .iter()
        .map(|&w| {
            eprintln!("  fleet width {w}...");
            (w, fleet_sessions_per_s(w))
        })
        .collect();
    let best = fleet
        .iter()
        .cloned()
        .fold((1, single), |acc, x| if x.1 > acc.1 { x } else { acc });

    // Core-scaled gate: the 4x target assumes an 8-core host; fewer
    // cores lower the bar proportionally (floor 1.2x on any multi-core
    // host) and a single core only sanity-checks for pool overhead.
    let best_speedup = best.1 / single;
    let gate_best = if cores >= 2 {
        (4.0 * (cores.min(8) as f64) / 8.0).max(1.2)
    } else {
        0.8
    };

    println!("{{");
    println!("  \"bench\": \"fleet_throughput\",");
    println!("  \"host_hardware_threads\": {cores},");
    println!("  \"kernel\": \"{kernel}\",");
    println!("  \"session_duration_s\": {DURATION_S},");
    println!("  \"sessions_per_measurement\": {SESSIONS},");
    println!("  \"decimation\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"f64_path_mbit_per_s\": {f64_mbps:.2},");
    println!("    \"packed_path_mbit_per_s\": {packed_mbps:.2},");
    println!("    \"packed_speedup\": {:.3}", packed_mbps / f64_mbps);
    println!("  }},");
    println!("  \"single_thread_sessions_per_s\": {single:.3},");
    println!("  \"fleet_sessions_per_s\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    for (i, (w, rate)) in fleet.iter().enumerate() {
        let comma = if i + 1 < fleet.len() { "," } else { "" };
        println!("    \"{w}_workers\": {rate:.3}{comma}");
    }
    println!("  }},");
    println!("  \"best_fleet_speedup_vs_single_thread\": {best_speedup:.3},");
    println!("  \"best_fleet_width\": {},", best.0);
    println!("  \"gates\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"gate_best_fleet_speedup_min\": {gate_best:.3},");
    println!(
        "    \"note\": \"core-scaled: 4x assumes an 8-core host, proportionally less on narrower multi-core hosts (floor 1.2x), sanity floor on one core\""
    );
    println!("  }},");
    println!(
        "  \"note\": \"speedup is bounded by host_hardware_threads; the issue's 4x target assumes an 8-core host\""
    );
    println!("}}");

    if best_speedup < gate_best {
        eprintln!(
            "FAIL: best fleet speedup {best_speedup:.3}x is below the core-scaled gate of {gate_best:.3}x"
        );
        std::process::exit(1);
    }
}
