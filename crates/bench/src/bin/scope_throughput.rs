//! Telemetry-plane cost measurement — the numbers behind
//! `BENCH_scope.json`.
//!
//! Three questions, one JSON document:
//!
//! 1. **Hot-path overhead**: two pairs, each timed telemetry-off vs
//!    telemetry-on as the interleaved legs of a [`best_of`] call. The
//!    packed host pipeline (decode + gap tracking + decimation) runs
//!    the same wire, chunked like a socket reader; the readout
//!    (`ReadoutSystem::push_frames`) converts one real-time second of
//!    frames, flushing its counters once per frame. The gate: telemetry
//!    may cost at most 3% of either telemetry-off figure —
//!    observability that taxes the signal path more than that doesn't
//!    ship.
//! 2. **Scrape latency**: `GET /metrics` against a live scope endpoint
//!    over a registry + link directory sized like N ∈ {1, 8, 64}
//!    ingest sessions.
//! 3. **Flight-recorder memory**: `approx_bytes` of a saturated
//!    1 s × 120 s ring over a fleet-shaped registry, and proof it stops
//!    growing once the ring is full.
//!
//! Run with: `cargo run --release -p tonos-bench --bin scope_throughput`
//! (`--quick` shrinks the workload for CI smoke runs.)

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tonos_bench::best_of;
use tonos_core::config::SystemConfig;
use tonos_core::readout::ReadoutSystem;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_link::http::request;
use tonos_link::{
    DecoderStats, FrameEncoder, GapPolicy, HostPipeline, HostSample, LinkCalibration,
    LinkDirectory, LinkHealth,
};
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_scope::{FlightRecorder, RecorderConfig, ScopeServer, ScopeSources};
use tonos_telemetry::{names, FakeClock, Registry};

/// Payload bits per frame (device packet size at the paper OSR).
const FRAME_BITS: usize = 1024;

/// Socket-reader chunk size: telemetry cost lands once per chunk, so
/// the chunking, not the frame count, sets how often spans fire.
const CHUNK: usize = 8 * 1024;

/// The hot-path overhead gate: telemetry-on may cost at most this
/// fraction of telemetry-off throughput.
const OVERHEAD_GATE: f64 = 0.03;

/// Frames per host-pipeline leg (~2 ms of work on a 2-vCPU host).
const HOT_FRAMES: usize = 1000;

/// Frames per readout leg: a quarter second of real time at the paper
/// rate (~0.7 ms of work).
const READOUT_FRAMES: usize = 250;

fn wire_stream(frames: usize) -> Vec<u8> {
    let mut enc = FrameEncoder::new(0);
    let mut wire = Vec::new();
    for f in 0..frames {
        let bits: PackedBits = (0..FRAME_BITS)
            .map(|i| (f * FRAME_BITS + i).count_ones() & 1 == 1)
            .collect();
        enc.encode_into(&bits, &mut wire).unwrap();
    }
    wire
}

/// Runs the packed hot path over `wire` in reader-sized chunks, with
/// telemetry when `registry` is given, into `samples`.
fn hot_path_run(wire: &[u8], registry: Option<&Registry>, samples: &mut Vec<HostSample>) {
    samples.clear();
    let mut pipe = HostPipeline::new(
        &DecimatorConfig::paper_default(),
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .unwrap();
    if let Some(registry) = registry {
        pipe = pipe.with_telemetry(&registry.telemetry());
    }
    for chunk in wire.chunks(CHUNK) {
        pipe.push_bytes(chunk, samples);
    }
    assert_eq!(samples.len(), HOT_FRAMES * FRAME_BITS / 128);
}

/// A registry + directory shaped like `n` ingest sessions' worth of
/// live telemetry: canonical link counters, span histograms with
/// recorded durations, and one published directory entry per session.
fn fleet_shaped_sources(n: usize) -> (Registry, Arc<LinkDirectory>) {
    let registry = Registry::new();
    let t = registry.telemetry();
    for i in 0..n as u64 {
        t.counter(names::LINK_FRAMES_RX).add(4_000 + i);
        t.counter(names::LINK_BYTES_RX).add(600_000 + i);
        t.counter(names::LINK_SAMPLES_CLEAN).add(30_000 + i);
        t.counter(names::LINK_GAP_EVENTS).add(i % 3);
        t.counter(names::FLEET_SESSIONS_COMPLETED).inc();
        t.counter(names::MONITOR_BEATS).add(70 + i % 20);
        let decode = t.span(names::SPAN_LINK_DECODE);
        let beat = t.histogram(names::MONITOR_BEAT_INTERVAL_S, &[0.5, 0.8, 1.0, 1.5, 2.0]);
        for j in 0..50u64 {
            decode.record(Duration::from_micros(40 + (i * 7 + j) % 30));
            beat.record(0.7 + ((i + j) % 10) as f64 * 0.05);
        }
    }
    let directory = Arc::new(LinkDirectory::new());
    for i in 0..n as u64 {
        let entry =
            directory.register(format!("10.0.0.{}:{}", i % 250, 40_000 + i), Duration::ZERO);
        entry.publish(LinkHealth {
            decoder: DecoderStats {
                frames: 4_000 + i,
                bytes: 600_000 + i,
                ..DecoderStats::default()
            },
            clean_samples: 30_000 + i,
            beats: 70 + i % 20,
            pulse_rate_bpm: 72.0,
            ..LinkHealth::default()
        });
    }
    (registry, directory)
}

/// Mean `/metrics` scrape latency (connect + request + full response)
/// against an endpoint over `n` sessions' telemetry; also returns the
/// payload size.
fn scrape_latency_ms(n: usize, scrapes: usize) -> (f64, usize) {
    let (registry, directory) = fleet_shaped_sources(n);
    let server = ScopeServer::bind(
        "127.0.0.1:0",
        ScopeSources::registry(registry).with_directory(directory),
    )
    .unwrap();
    let addr = server.local_addr();
    let scrape = || {
        let response = request(addr, "GET", "/metrics", "").expect("scrape");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "scrape failed");
        response
    };
    let payload = scrape().len(); // warm-up + size
    let t = Instant::now();
    for _ in 0..scrapes {
        scrape();
    }
    let ms = t.elapsed().as_secs_f64() * 1e3 / scrapes as f64;
    server.shutdown();
    (ms, payload)
}

/// Saturates a 1 s × 120 s recorder over a fleet-shaped registry and
/// returns (bytes at ring-full, bytes after 2x more ticks) — the
/// second value not exceeding the first proves the ceiling holds.
/// (It can legitimately shrink: the first tick records every series,
/// so evicting that dense frame trims the ring slightly.)
fn recorder_memory_bytes(sessions: usize) -> (usize, usize) {
    const RETENTION_S: u64 = 120;
    let clock = Arc::new(FakeClock::new());
    let registry = Registry::with_clock(clock.clone());
    let t = registry.telemetry();
    // Same instrument population as the scrape benchmark, plus churn:
    // every canonical link counter moves every tick.
    let (seed, _) = fleet_shaped_sources(sessions);
    for c in seed.snapshot().counters {
        t.counter(&c.name).add(c.value);
    }
    let frames = t.counter(names::LINK_FRAMES_RX);
    let clean = t.counter(names::LINK_SAMPLES_CLEAN);
    let beats = t.counter(names::MONITOR_BEATS);
    let mut recorder = FlightRecorder::new(registry, RecorderConfig::default());
    let tick = |rec: &mut FlightRecorder| {
        frames.add(1_000 * sessions as u64);
        clean.add(960 * sessions as u64);
        beats.add(sessions as u64);
        rec.tick();
        clock.advance(Duration::from_secs(1));
    };
    for _ in 0..RETENTION_S {
        tick(&mut recorder);
    }
    let at_full = recorder.approx_bytes();
    for _ in 0..2 * RETENTION_S {
        tick(&mut recorder);
    }
    (at_full, recorder.approx_bytes())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a shared host the clean speed comes in windows between
    // stretches of contention that last up to a second or two, so both
    // pairs take short legs (a few ms) interleaved in one call, and
    // enough rounds that every leg's minimum is drawn from several
    // seconds of the run.
    let (rounds, scrapes) = if quick { (600, 20) } else { (1200, 100) };
    eprintln!(
        "measuring on {cores} hardware thread(s){}...",
        if quick { " (quick)" } else { "" }
    );

    // 1. Hot-path overhead, telemetry off vs on.
    let wire = wire_stream(HOT_FRAMES);
    let frames: Vec<Vec<Pascals>> = (0..READOUT_FRAMES)
        .map(|i| {
            vec![Pascals::from_mmhg(MillimetersHg(90.0 + 30.0 * (i as f64 * 0.0075).sin())); 4]
        })
        .collect();
    let registry = Registry::new();
    let mut readout_off = ReadoutSystem::new(SystemConfig::paper_default()).unwrap();
    let mut readout_on =
        ReadoutSystem::with_telemetry(SystemConfig::paper_default(), registry.telemetry()).unwrap();
    let (mut off_samples, mut on_samples) = (Vec::new(), Vec::new());
    let [off_secs, on_secs, readout_off_secs, readout_on_secs] = best_of(
        rounds,
        [
            &mut || hot_path_run(&wire, None, &mut off_samples),
            &mut || hot_path_run(&wire, Some(&registry), &mut on_samples),
            &mut || {
                black_box(readout_off.push_frames(black_box(&frames)).unwrap());
            },
            &mut || {
                black_box(readout_on.push_frames(black_box(&frames)).unwrap());
            },
        ],
    );
    let bits = (HOT_FRAMES * FRAME_BITS) as f64;
    let off_mbps = bits / off_secs / 1e6;
    let on_mbps = bits / on_secs / 1e6;
    let overhead = on_secs / off_secs - 1.0;
    eprintln!(
        "  hot path: {off_mbps:.1} Mbit/s off, {on_mbps:.1} Mbit/s on ({:+.2}% overhead)",
        overhead * 100.0
    );
    let readout_off_ns = readout_off_secs * 1e9 / READOUT_FRAMES as f64;
    let readout_on_ns = readout_on_secs * 1e9 / READOUT_FRAMES as f64;
    let readout_overhead = readout_on_secs / readout_off_secs - 1.0;
    eprintln!(
        "  readout: {readout_off_ns:.0} ns/frame off, {readout_on_ns:.0} ns/frame on ({:+.2}% overhead)",
        readout_overhead * 100.0
    );
    // The instruments actually fired: the on-runs are not no-ops. The
    // registry is shared across the best-of rounds, so totals are
    // rounds×.
    let s = registry.snapshot();
    assert_eq!(
        s.counter(names::LINK_FRAMES_RX),
        Some((rounds * HOT_FRAMES) as u64)
    );
    let decode_spans = s.histogram(names::SPAN_LINK_DECODE).unwrap();
    assert_eq!(
        decode_spans.count,
        (rounds * wire.len().div_ceil(CHUNK)) as u64
    );
    assert_eq!(
        s.counter(names::READOUT_FRAMES_IN),
        Some((rounds * READOUT_FRAMES) as u64)
    );

    // 2. Scrape latency at fleet sizes.
    let session_counts = [1usize, 8, 64];
    let mut scrape = Vec::with_capacity(session_counts.len());
    for &n in &session_counts {
        let (ms, payload) = scrape_latency_ms(n, scrapes);
        eprintln!("  /metrics N={n}: {ms:.3} ms/scrape, {payload} B payload");
        scrape.push((n, ms, payload));
    }

    // 3. Recorder memory ceiling.
    let (rec_full, rec_after) = recorder_memory_bytes(8);
    eprintln!("  recorder: {rec_full} B at ring-full, {rec_after} B after 2x more ticks");

    println!("{{");
    println!("  \"bench\": \"scope_throughput\",");
    println!("  \"quick\": {quick},");
    println!("  \"host_hardware_threads\": {cores},");
    println!("  \"hot_path\": {{");
    println!("    \"best_of_rounds\": {rounds},");
    println!("    \"frames\": {HOT_FRAMES},");
    println!("    \"telemetry_off_mbit_per_s\": {off_mbps:.2},");
    println!("    \"telemetry_on_mbit_per_s\": {on_mbps:.2},");
    println!("    \"overhead_fraction\": {overhead:.5},");
    println!("    \"readout_frames\": {READOUT_FRAMES},");
    println!("    \"readout_telemetry_off_ns_per_frame\": {readout_off_ns:.1},");
    println!("    \"readout_telemetry_on_ns_per_frame\": {readout_on_ns:.1},");
    println!("    \"readout_overhead_fraction\": {readout_overhead:.5},");
    println!("    \"gate_fraction\": {OVERHEAD_GATE}");
    println!("  }},");
    println!("  \"metrics_scrape\": [");
    for (i, (n, ms, payload)) in scrape.iter().enumerate() {
        let comma = if i + 1 < scrape.len() { "," } else { "" };
        println!(
            "    {{ \"sessions\": {n}, \"latency_ms\": {ms:.4}, \"payload_bytes\": {payload} }}{comma}"
        );
    }
    println!("  ],");
    println!("  \"flight_recorder\": {{");
    println!("    \"interval_s\": 1, \"retention_s\": 120, \"sessions\": 8,");
    println!("    \"bytes_at_ring_full\": {rec_full},");
    println!("    \"bytes_after_2x_more_ticks\": {rec_after}");
    println!("  }},");
    println!(
        "  \"gate\": \"telemetry-on host pipeline and readout each within {:.0}% of telemetry-off; recorder memory flat once the ring is full\"",
        OVERHEAD_GATE * 100.0
    );
    println!("}}");

    let mut failed = false;
    for (path, cost) in [("host pipeline", overhead), ("readout", readout_overhead)] {
        if cost > OVERHEAD_GATE {
            eprintln!(
                "FAIL: telemetry costs {:.2}% of the {path}; the gate is {:.0}%",
                cost * 100.0,
                OVERHEAD_GATE * 100.0
            );
            failed = true;
        }
    }
    if rec_after > rec_full {
        eprintln!("FAIL: recorder grew past ring-full ({rec_full} B -> {rec_after} B)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
