//! Host-link throughput measurement — the numbers behind
//! `BENCH_link.json`.
//!
//! Measures the wire codec and the loopback ingest server, and prints
//! one JSON document:
//!
//! 1. Frame codec throughput: encode and decode frames/s and payload
//!    Mbit/s for paper-sized bitstream frames.
//! 2. End-to-end host pipeline (decode + gap tracking + decimation)
//!    Mbit/s, against the bare decimator as the in-run baseline.
//! 3. Loopback TCP ingest: sessions/s at N ∈ {1, 4, 8} concurrent
//!    device streams, each checked against the in-process signal path.
//!
//! Exits nonzero if the fault-free wire path diverges from the
//! in-process path, if any loopback session fails, or if framing
//! overhead eats more than half the bare decimation throughput — the
//! CI perf-smoke gate.
//!
//! Run with: `cargo run --release -p tonos-bench --bin link_throughput`
//! (`--quick` shrinks the workload for CI smoke runs.)

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use tonos_bench::best_of;
use tonos_core::config::SystemConfig;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_link::{
    DeviceSimulator, FrameDecoder, FrameEncoder, GapPolicy, HostPipeline, LinkCalibration,
    LinkServer, LinkServerConfig,
};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::names;

/// Payload bits per benchmark frame: 8 modulator-output frames' worth
/// at the paper OSR, the same packet size [`DeviceSimulator`] uses.
const FRAME_BITS: usize = 1024;

fn test_frames(n: usize) -> Vec<PackedBits> {
    (0..n)
        .map(|f| {
            (0..FRAME_BITS)
                .map(|i| (f * FRAME_BITS + i).count_ones() & 1 == 1)
                .collect()
        })
        .collect()
}

/// Encode throughput: (frames/s, payload Mbit/s, the encoded stream).
fn encode_rates(reps: usize, frames: usize) -> (f64, f64, Vec<u8>) {
    let chunks = test_frames(frames);
    let mut wire = Vec::new();
    let [secs] = best_of(
        reps,
        [&mut || {
            wire.clear();
            let mut enc = FrameEncoder::new(0);
            for c in &chunks {
                enc.encode_into(c, &mut wire).unwrap();
            }
        }],
    );
    let bits = (frames * FRAME_BITS) as f64;
    (frames as f64 / secs, bits / secs / 1e6, wire)
}

/// Decode throughput over an already-encoded stream.
fn decode_rates(reps: usize, frames: usize, wire: &[u8]) -> (f64, f64) {
    let mut events = Vec::new();
    let [secs] = best_of(
        reps,
        [&mut || {
            events.clear();
            let mut dec = FrameDecoder::new();
            dec.push(wire, &mut events);
            assert_eq!(dec.stats().frames, frames as u64);
        }],
    );
    let bits = (frames * FRAME_BITS) as f64;
    (frames as f64 / secs, bits / secs / 1e6)
}

/// Full host pipeline (decode + gap tracking + decimate) Mbit/s, and
/// the bare decimator on the identical payload as the in-run baseline,
/// timed as interleaved legs.
fn pipeline_vs_bare_mbps(reps: usize, frames: usize, wire: &[u8]) -> (f64, f64) {
    let chunks = test_frames(frames);
    let bits = (frames * FRAME_BITS) as f64;

    let mut samples = Vec::new();
    let mut out = Vec::new();
    let [pipe_secs, bare_secs] = best_of(
        reps,
        [
            &mut || {
                samples.clear();
                let mut pipe = HostPipeline::new(
                    &DecimatorConfig::paper_default(),
                    LinkCalibration::identity(),
                    GapPolicy::HoldLast,
                )
                .unwrap();
                pipe.push_bytes(wire, &mut samples);
                assert_eq!(samples.len(), frames * FRAME_BITS / 128);
            },
            &mut || {
                out.clear();
                let mut dec = DecimatorConfig::paper_default().build().unwrap();
                for c in &chunks {
                    dec.process_packed_into(c, &mut out);
                }
                assert_eq!(out.len(), frames * FRAME_BITS / 128);
            },
        ],
    );

    // Fault-free equivalence: the hard correctness gate.
    for (w, d) in samples.iter().zip(&out) {
        assert_eq!(
            w.value_mmhg.to_bits(),
            d.to_bits(),
            "wire path diverged from the in-process path"
        );
    }
    (bits / pipe_secs / 1e6, bits / bare_secs / 1e6)
}

/// Loopback TCP ingest: N concurrent device sessions of `duration_s`
/// simulated seconds each; returns sessions/s of wall clock.
fn loopback_sessions_per_s(n: usize, duration_s: f64) -> f64 {
    let config = SystemConfig::paper_default();
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            decimator: config.decimator,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let t = Instant::now();
    let clients: Vec<_> = (0..n)
        .map(|i| {
            thread::spawn(move || {
                let patient = PatientProfile::normotensive().with_seed(3000 + i as u64);
                let mut device = DeviceSimulator::new(&config, &patient, duration_s).unwrap();
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut frames = 0u64;
                while let Some(packet) = device.next_packet().unwrap() {
                    stream.write_all(&packet).unwrap();
                    frames += 1;
                }
                frames
            })
        })
        .collect();
    let frames_sent: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    while server.connections() < n {
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(200));
    let (report, snapshot) = server.shutdown();
    let wall = t.elapsed().as_secs_f64();

    assert_eq!(report.len(), n, "loopback accepted {} of {n}", report.len());
    assert!(
        report.failures().is_empty(),
        "loopback sessions failed: {:?}",
        report.failures()
    );
    let frames_rx = snapshot.counter(names::LINK_FRAMES_RX).unwrap_or(0);
    assert_eq!(frames_rx, frames_sent, "ingest lost frames on loopback");
    assert_eq!(snapshot.counter(names::LINK_CRC_FAIL).unwrap_or(0), 0);
    let expected_samples = (duration_s * 1000.0).round() as usize;
    for (_, summary) in report.completed() {
        assert_eq!(
            summary.samples, expected_samples,
            "session short of samples"
        );
    }
    n as f64 / wall
}

/// One step of the concurrency sweep: `n` simultaneous links, each
/// sending the same pre-encoded `frames_per_link`-frame blob, all
/// sockets held open together so the server really multiplexes `n`
/// live connections. Returns (io_threads, links/s, frames/s).
///
/// The payload is synthetic (no per-link device simulation) — the sweep
/// measures the *server*: accept, readiness loop, actor scheduling,
/// decode, decimation. The gate is structural: the IO-thread count the
/// server reports must not grow with `n`.
fn ingest_sweep_step(n: usize, frames_per_link: usize) -> (usize, f64, f64) {
    const WRITERS: usize = 8;
    let chunks = test_frames(frames_per_link);
    let mut blob = Vec::new();
    let mut enc = FrameEncoder::new(0);
    for c in &chunks {
        enc.encode_into(c, &mut blob).unwrap();
    }
    let blob = std::sync::Arc::new(blob);

    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 2,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let io_threads = server.io_threads();

    let t = Instant::now();
    // Open every socket before writing any payload: all n links are
    // concurrently established, so the server is provably multiplexing
    // n live connections on its one IO thread.
    let sockets: Vec<TcpStream> = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let writers: Vec<_> = sockets
        .chunks((n / WRITERS).max(1))
        .map(|chunk| {
            let mut streams: Vec<TcpStream> =
                chunk.iter().map(|s| s.try_clone().unwrap()).collect();
            let blob = std::sync::Arc::clone(&blob);
            thread::spawn(move || {
                for s in &mut streams {
                    s.write_all(&blob).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    // EOF every link only after every payload is on the wire.
    drop(sockets);

    while server.connections() < n {
        thread::sleep(Duration::from_millis(5));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.directory().live_count() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let (report, snapshot) = server.shutdown();
    let wall = t.elapsed().as_secs_f64();

    assert_eq!(report.len(), n, "sweep accepted {} of {n}", report.len());
    assert!(
        report.failures().is_empty(),
        "sweep sessions failed: {:?}",
        report.failures()
    );
    let frames_sent = (n * frames_per_link) as u64;
    let frames_rx = snapshot.counter(names::LINK_FRAMES_RX).unwrap_or(0);
    assert_eq!(frames_rx, frames_sent, "sweep lost frames");
    assert_eq!(snapshot.counter(names::LINK_CRC_FAIL).unwrap_or(0), 0);
    let expected_samples = frames_per_link * FRAME_BITS / 128;
    for (_, summary) in report.completed() {
        assert_eq!(
            summary.samples, expected_samples,
            "session short of samples"
        );
    }
    (io_threads, n as f64 / wall, frames_sent as f64 / wall)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (reps, codec_frames, duration_s) = if quick {
        (3, 2_000, 2.0)
    } else {
        (5, 20_000, 4.0)
    };
    eprintln!(
        "measuring on {cores} hardware thread(s){}...",
        if quick { " (quick)" } else { "" }
    );

    let (enc_fps, enc_mbps, wire) = encode_rates(reps, codec_frames);
    let (dec_fps, dec_mbps) = decode_rates(reps, codec_frames, &wire);
    eprintln!("  codec: encode {enc_fps:.0} frames/s ({enc_mbps:.1} Mbit/s), decode {dec_fps:.0} frames/s ({dec_mbps:.1} Mbit/s)");
    let (pipe_mbps, bare_mbps) = pipeline_vs_bare_mbps(reps, codec_frames, &wire);
    let overhead_ratio = pipe_mbps / bare_mbps;
    eprintln!("  host pipeline: {pipe_mbps:.1} Mbit/s vs bare decimator {bare_mbps:.1} Mbit/s ({overhead_ratio:.2}x)");

    let session_counts = [1usize, 4, 8];
    let mut loopback = Vec::with_capacity(session_counts.len());
    for &n in &session_counts {
        let per_s = loopback_sessions_per_s(n, duration_s);
        eprintln!("  loopback N={n}: {per_s:.2} sessions/s");
        loopback.push((n, per_s));
    }

    // Concurrency sweep: the no-thread-per-connection gate. The link
    // counts are fixed (not shrunk by --quick) because the gate is the
    // whole point; only the per-link payload shrinks.
    let sweep_counts = [64usize, 256, 1024];
    let frames_per_link = if quick { 10 } else { 40 };
    let mut sweep = Vec::with_capacity(sweep_counts.len());
    for &n in &sweep_counts {
        let (io_threads, links_per_s, frames_per_s) = ingest_sweep_step(n, frames_per_link);
        eprintln!(
            "  ingest sweep N={n}: io_threads={io_threads}, {links_per_s:.1} links/s, {frames_per_s:.0} frames/s"
        );
        sweep.push((n, io_threads, links_per_s, frames_per_s));
    }

    println!("{{");
    println!("  \"bench\": \"link_throughput\",");
    println!("  \"quick\": {quick},");
    println!("  \"host_hardware_threads\": {cores},");
    println!("  \"frame_payload_bits\": {FRAME_BITS},");
    println!("  \"codec\": {{");
    println!("    \"encode_frames_per_s\": {enc_fps:.0},");
    println!("    \"encode_mbit_per_s\": {enc_mbps:.2},");
    println!("    \"decode_frames_per_s\": {dec_fps:.0},");
    println!("    \"decode_mbit_per_s\": {dec_mbps:.2}");
    println!("  }},");
    println!("  \"host_pipeline\": {{");
    println!("    \"wire_path_mbit_per_s\": {pipe_mbps:.2},");
    println!("    \"bare_decimator_mbit_per_s\": {bare_mbps:.2},");
    println!("    \"wire_over_bare_ratio\": {overhead_ratio:.3}");
    println!("  }},");
    println!("  \"loopback_tcp\": {{");
    println!("    \"session_duration_s\": {duration_s},");
    println!("    \"sessions_per_s\": [");
    for (i, (n, per_s)) in loopback.iter().enumerate() {
        let comma = if i + 1 < loopback.len() { "," } else { "" };
        println!("      {{ \"n\": {n}, \"sessions_per_s\": {per_s:.3} }}{comma}");
    }
    println!("    ]");
    println!("  }},");
    println!("  \"ingest_sweep\": {{");
    println!("    \"frames_per_link\": {frames_per_link},");
    println!("    \"links\": [");
    for (i, (n, io_threads, links_per_s, frames_per_s)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        println!(
            "      {{ \"n\": {n}, \"io_threads\": {io_threads}, \"links_per_s\": {links_per_s:.2}, \"frames_per_s\": {frames_per_s:.0} }}{comma}"
        );
    }
    println!("    ]");
    println!("  }},");
    println!(
        "  \"gate\": \"fault-free wire path bit-identical to in-process; all loopback sessions complete with zero CRC failures; wire/bare decimation ratio >= 0.5; ingest-sweep IO-thread count constant (=1) across N in {{64,256,1024}}\""
    );
    println!("}}");

    // Perf gate: framing must not eat more than half the decimation
    // throughput. (The equivalence and session-completion gates are
    // hard asserts above — reaching here means they already passed.)
    if overhead_ratio < 0.5 {
        eprintln!(
            "FAIL: host pipeline at {pipe_mbps:.1} Mbit/s is {overhead_ratio:.2}x the bare \
             decimator ({bare_mbps:.1} Mbit/s); the framing-overhead gate is 0.5x"
        );
        std::process::exit(1);
    }
    // Structural gate: ingest must not spawn IO threads with link
    // count. One readiness loop serves 64 and 1024 links alike.
    if sweep.iter().any(|&(_, io, _, _)| io != sweep[0].1) || sweep[0].1 != 1 {
        eprintln!("FAIL: ingest-sweep IO-thread count varied with link count: {sweep:?}");
        std::process::exit(1);
    }
}
