//! Loopback ingest at scale: eight concurrent device sessions over real
//! TCP sockets, each matching the in-process signal path exactly on a
//! fault-free transport — plus live `/links`-style queries mid-ingest
//! on a faulty one, a burst of connects deeper than `std`'s accept
//! queue, the IO loop's idle wake rate, and slow devices beside a
//! streaming one.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use tonos_core::config::SystemConfig;
use tonos_core::stream::AlarmLimits;
use tonos_link::{
    DeviceSimulator, FaultConfig, FaultyTransport, FrameEncoder, GapPolicy, HostPipeline,
    LinkCalibration, LinkServer, LinkServerConfig, LinkStatus,
};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::names;

const SESSIONS: usize = 8;
const DURATION_S: f64 = 1.0;

/// What one session should look like when the link is invisible:
/// computed by running the identical device stream straight into an
/// in-process [`HostPipeline`].
struct Expected {
    samples: u64,
    beats: u64,
    alarms: u64,
}

fn patient_for(i: usize) -> PatientProfile {
    let base = match i % 3 {
        0 => PatientProfile::normotensive(),
        1 => PatientProfile::hypertensive(),
        _ => PatientProfile::hypotensive(),
    };
    base.with_seed(0xC0FFEE + i as u64)
}

fn expected_for(config: &SystemConfig, patient: &PatientProfile) -> Expected {
    let mut device = DeviceSimulator::new(config, patient, DURATION_S).unwrap();
    let mut pipe = HostPipeline::new(
        &config.decimator,
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .unwrap()
    .with_analyzer(AlarmLimits::adult())
    .unwrap();
    let mut out = Vec::new();
    while let Some(packet) = device.next_packet().unwrap() {
        pipe.push_bytes(&packet, &mut out);
    }
    let health = pipe.health();
    Expected {
        samples: health.samples(),
        beats: health.beats,
        alarms: health.alarms,
    }
}

#[test]
fn eight_concurrent_sessions_match_the_in_process_path() {
    let config = SystemConfig::paper_default();
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 4,
            decimator: config.decimator,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Eight devices stream concurrently, each its own patient.
    let clients: Vec<_> = (0..SESSIONS)
        .map(|i| {
            thread::spawn(move || {
                let mut device =
                    DeviceSimulator::new(&config, &patient_for(i), DURATION_S).unwrap();
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut frames = 0u64;
                while let Some(packet) = device.next_packet().unwrap() {
                    stream.write_all(&packet).unwrap();
                    frames += 1;
                }
                stream.flush().unwrap();
                frames
            })
        })
        .collect();
    let frames_sent: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

    // All eight connections must have been accepted before we stop.
    let mut waited = 0;
    while server.connections() < SESSIONS && waited < 5_000 {
        thread::sleep(Duration::from_millis(10));
        waited += 10;
    }
    assert_eq!(server.connections(), SESSIONS, "not all sessions accepted");
    // Let the readers drain the already-closed sockets to EOF.
    thread::sleep(Duration::from_millis(300));

    let (report, snapshot) = server.shutdown();
    assert_eq!(report.len(), SESSIONS);
    assert!(
        report.failures().is_empty(),
        "sessions failed: {:?}",
        report.failures()
    );

    // Every session matches the in-process path — same sample count,
    // same beats, same alarms, on a fault-free wire. Sessions complete
    // in accept order, not client order, so compare as multisets.
    let mut expected: Vec<(u64, u64, u64)> = (0..SESSIONS)
        .map(|i| {
            let e = expected_for(&config, &patient_for(i));
            (e.samples, e.beats, e.alarms)
        })
        .collect();
    let mut actual: Vec<(u64, u64, u64)> = report
        .completed()
        .map(|(_, s)| (s.samples as u64, s.beats as u64, s.alarms as u64))
        .collect();
    expected.sort_unstable();
    actual.sort_unstable();
    assert_eq!(actual, expected, "wire sessions diverged from in-process");

    // The rolled-up telemetry saw every frame and no corruption.
    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter(names::LINK_CONNECTIONS), SESSIONS as u64);
    assert_eq!(counter(names::LINK_FRAMES_RX), frames_sent);
    assert_eq!(counter(names::LINK_CRC_FAIL), 0);
    assert_eq!(counter(names::LINK_GAP_EVENTS), 0);
    assert_eq!(counter(names::LINK_SLOW_CONSUMER_DISCONNECTS), 0);
}

#[test]
fn more_live_connections_than_workers_are_not_evicted() {
    // Four devices stream simultaneously into a server seeded with a
    // single fleet worker and a tiny 2-chunk queue. Each session
    // occupies its worker for its whole lifetime, so without on-demand
    // pool growth three of the four ingest tasks would never run: their
    // queues fill, and the readers evict perfectly healthy devices as
    // "slow consumers" once the grace window expires.
    const CONNS: usize = 4;
    const FRAMES: u64 = 200;
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 1,
            queue_chunks: 2,
            slow_consumer_grace_ms: 100,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..CONNS)
        .map(|i| {
            thread::spawn(move || -> u64 {
                let bits: tonos_dsp::bits::PackedBits = (0..2048).map(|j| j % 3 == 0).collect();
                let mut enc = FrameEncoder::new(i as u16);
                let mut wire = Vec::new();
                if i == 0 {
                    // The holder: one frame, then an open, idle
                    // connection — its ingest task occupies the lone
                    // worker for this entire span.
                    let mut stream = TcpStream::connect(addr).unwrap();
                    enc.encode_into(&bits, &mut wire).unwrap();
                    stream.write_all(&wire).unwrap();
                    thread::sleep(Duration::from_millis(800));
                    1
                } else {
                    // The blasters: connect once the holder owns the
                    // worker, then send several times the queue
                    // capacity in one burst.
                    thread::sleep(Duration::from_millis(200));
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for _ in 0..FRAMES {
                        enc.encode_into(&bits, &mut wire).unwrap();
                    }
                    // ~56 KiB against a 2 × 8 KiB chunk queue.
                    stream.write_all(&wire).unwrap();
                    stream.flush().unwrap();
                    FRAMES
                }
            })
        })
        .collect();
    let frames_sent: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    // Let the readers drain the closed sockets to EOF.
    let mut waited = 0;
    while server.connections() < CONNS && waited < 5_000 {
        thread::sleep(Duration::from_millis(10));
        waited += 10;
    }
    thread::sleep(Duration::from_millis(300));

    let (report, snapshot) = server.shutdown();
    assert_eq!(report.len(), CONNS);
    assert!(
        report.failures().is_empty(),
        "sessions failed: {:?}",
        report.failures()
    );
    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(
        counter(names::LINK_SLOW_CONSUMER_DISCONNECTS),
        0,
        "healthy devices were evicted for lack of a worker"
    );
    assert_eq!(counter(names::LINK_FRAMES_RX), frames_sent);
    assert_eq!(counter(names::LINK_GAP_EVENTS), 0);
}

#[test]
fn authenticated_session_with_control_writeback_over_tcp() {
    // The wire is bidirectional through the real server: the device's
    // hello rides ahead of its data, the server's ack comes back on the
    // same socket, and with `require_auth` the session still ingests
    // everything — proving the gate opens before the first data frame
    // is dropped.
    use std::io::Read;
    let config = SystemConfig::paper_default();
    let key = tonos_link::LinkKey::from_bytes(*b"ward-shared-key!");
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 2,
            decimator: config.decimator,
            auth_key: Some(key),
            require_auth: true,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let patient = PatientProfile::normotensive();
    let expected = expected_for(&config, &patient);
    let mut device = DeviceSimulator::new(&config, &patient, DURATION_S)
        .unwrap()
        .with_auth(key, 42, 7);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut buf = [0u8; 4096];
    let mut retx = Vec::new();
    while let Some(packet) = device.next_packet().unwrap() {
        stream.write_all(&packet).unwrap();
        // Pick up any acks the server has written back so far.
        if let Ok(n) = stream.read(&mut buf) {
            device.handle_host_bytes(&buf[..n], &mut retx);
        }
    }
    stream.flush().unwrap();
    // Drain the control channel until the ack lands.
    for _ in 0..250 {
        if device.hello_acked().is_some() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                device.handle_host_bytes(&buf[..n], &mut retx);
            }
            Err(_) => {}
        }
    }
    assert_eq!(device.hello_acked(), Some(true), "hello never acked");
    assert!(retx.is_empty(), "clean TCP must not trigger retransmits");
    drop(stream);

    thread::sleep(Duration::from_millis(200));
    let (report, snapshot) = server.shutdown();
    assert_eq!(report.len(), 1);
    assert!(report.failures().is_empty());
    let summary = report.completed().next().unwrap().1;
    assert_eq!(summary.samples as u64, expected.samples);
    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter(names::LINK_HANDSHAKES_OK), 1);
    assert_eq!(counter(names::LINK_HANDSHAKES_REJECTED), 0);
    assert_eq!(counter(names::LINK_UNAUTH_FRAMES), 0);
}

/// Polls `server.links()` until `pred` holds for every entry, panicking
/// with the last observed state after ~10 s.
fn wait_links(
    server: &LinkServer,
    what: &str,
    pred: impl Fn(&LinkStatus) -> bool,
) -> Vec<LinkStatus> {
    let mut last = Vec::new();
    for _ in 0..1_000 {
        last = server.links();
        if !last.is_empty() && last.iter().all(&pred) {
            return last;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}; last directory state: {last:#?}");
}

#[test]
fn links_query_sees_counters_move_mid_ingest() {
    // Regression: the loopback tests above only assert *final* fleet
    // reports, which would pass even if live queries were broken. Here
    // eight devices stream over a faulty transport, pause mid-stream,
    // and the directory must show per-connection `stream_resets` /
    // `gap_skipped_samples` moving while every connection is still live.
    const DEVICES: usize = 8;
    const FRAME_BITS: usize = 1024;
    const PHASE1_FRAMES: u32 = 20;
    const PHASE2_FRAMES: u32 = 30;

    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 2, // fewer than DEVICES: exercises pool growth too
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Each client is gated by a channel so the main thread controls
    // when the faulty phase starts and when the connection closes —
    // every query below is guaranteed to be truly mid-ingest.
    let mut gates = Vec::new();
    let clients: Vec<_> = (0..DEVICES)
        .map(|i| {
            let (tx, rx) = mpsc::channel::<()>();
            gates.push(tx);
            thread::spawn(move || {
                let bits: tonos_dsp::bits::PackedBits =
                    (0..FRAME_BITS).map(|i| i % 3 == 0).collect();
                let frame = |seq: u32, clock: u64| -> Vec<u8> {
                    tonos_dsp::frame::Frame::bitstream(0, seq, clock, &bits)
                        .unwrap()
                        .encode()
                };
                let mut stream = TcpStream::connect(addr).unwrap();
                // Phase 1: clean frames, contiguous clocks.
                let mut clock = 0u64;
                for seq in 0..PHASE1_FRAMES {
                    stream.write_all(&frame(seq, clock)).unwrap();
                    clock += FRAME_BITS as u64;
                }
                stream.flush().unwrap();
                rx.recv().unwrap();
                // Phase 2: a forged outage — sequence AND clock jump
                // far past the concealment clamp (a stream reset by
                // construction; gaps key on the seq jump, the clock
                // delta sizes them), then frames mangled by a lossy
                // transport.
                clock += 100_000_000;
                let seq_base = PHASE1_FRAMES + 1_000;
                let mut transport =
                    FaultyTransport::new(FaultConfig::noisy(), 0xBAD5EED + i as u64);
                for seq in seq_base..(seq_base + PHASE2_FRAMES) {
                    let wire = frame(seq, clock);
                    clock += FRAME_BITS as u64;
                    let mangled = if seq == seq_base {
                        wire // the reset frame itself arrives intact
                    } else {
                        transport.transmit(&wire)
                    };
                    stream.write_all(&mangled).unwrap();
                }
                stream.write_all(&transport.flush()).unwrap();
                stream.flush().unwrap();
                // Hold the connection open until the main thread has
                // seen the counters move on a *live* link.
                rx.recv().unwrap();
            })
        })
        .collect();

    // Phase 1 visible: every connection live, frames flowing, no resets.
    let baseline = wait_links(&server, "phase-1 frames on live links", |s| {
        s.live && s.health.decoder.frames >= PHASE1_FRAMES as u64
    });
    assert_eq!(baseline.len(), DEVICES);
    for s in &baseline {
        assert_eq!(s.health.stream_resets, 0, "premature reset: {s:?}");
        assert_eq!(s.health.skipped_samples, 0);
    }

    // Release phase 2 and watch the fault counters move mid-ingest.
    for gate in &gates {
        gate.send(()).unwrap();
    }
    let mid = wait_links(&server, "stream resets on live links", |s| {
        s.live && s.health.stream_resets >= 1 && s.health.skipped_samples > 0
    });
    for s in &mid {
        assert!(s.live, "connection closed before the query: {s:?}");
        assert!(s.health.stream_resets >= 1);
        assert!(s.health.skipped_samples > 0);
    }
    // The JSON view carries the same live counters.
    let json = server.directory().to_json();
    assert_eq!(json.matches("\"live\":true").count(), DEVICES);
    assert!(!json.contains("\"stream_resets\":0"));

    // Let the clients hang up; entries flip to closed but stay listed.
    for gate in &gates {
        gate.send(()).unwrap();
    }
    for client in clients {
        client.join().unwrap();
    }
    let closed = wait_links(&server, "entries marked closed", |s| !s.live);
    assert_eq!(closed.len(), DEVICES);

    let (report, snapshot) = server.shutdown();
    assert_eq!(report.len(), DEVICES);
    let resets = snapshot
        .counters
        .iter()
        .find(|c| c.name == names::LINK_STREAM_RESETS)
        .map_or(0, |c| c.value);
    assert!(
        resets >= DEVICES as u64,
        "rolled-up stream resets {resets} < {DEVICES}"
    );
}

#[test]
fn three_hundred_queued_connects_all_land() {
    // Std listens with a 128-deep accept queue; past it, a connect's
    // SYN goes unanswered and waits out a 1 s retransmit. Four clients
    // connect 75 times each as fast as they can, and every connect must
    // land within its 250 ms timeout. (The server asks for 4096; the
    // kernel caps that at `net.core.somaxconn`, 4096 by default since
    // Linux 5.4.)
    const CLIENTS: usize = 4;
    const EACH: usize = 75;
    let server = LinkServer::bind("127.0.0.1:0", LinkServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || -> Vec<TcpStream> {
                (0..EACH)
                    .map(|i| {
                        TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                            .unwrap_or_else(|e| panic!("client {c}, connect {i}: {e}"))
                    })
                    .collect()
            })
        })
        .collect();
    let held: Vec<Vec<TcpStream>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let mut waited = 0;
    while server.connections() < CLIENTS * EACH && waited < 10_000 {
        thread::sleep(Duration::from_millis(10));
        waited += 10;
    }
    drop(held);
    let (report, _) = server.shutdown();
    assert_eq!(report.len(), CLIENTS * EACH);
}

#[test]
fn an_idle_server_wakes_on_its_tick_only() {
    // One open, silent connection: the IO loop should wake about ten
    // times a second on its idle tick, not sweep continuously.
    let server = LinkServer::bind("127.0.0.1:0", LinkServerConfig::default()).unwrap();
    let _silent = TcpStream::connect(server.local_addr()).unwrap();
    while server.connections() < 1 {
        thread::sleep(Duration::from_millis(5));
    }
    let wakes = || {
        server
            .fleet_registry()
            .snapshot()
            .counter(names::LINK_IO_WAKES)
            .unwrap_or(0)
    };
    let before = wakes();
    thread::sleep(Duration::from_secs(1));
    let woke = wakes() - before;
    assert!(woke > 0, "the wake counter never moved");
    assert!(woke <= 15, "{woke} wakes in 1 s with nothing to read");
}

#[test]
fn slow_devices_cost_a_streaming_neighbour_nothing() {
    // A silent device and one that sends a byte every 50 ms stay
    // connected while a third streams a whole session. The session must
    // be ingested, hung up and closed while both slow devices are still
    // on, and must match the in-process path exactly.
    const BOUND: Duration = Duration::from_secs(20);
    let config = SystemConfig::paper_default();
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 2,
            decimator: config.decimator,
            ..LinkServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let silent = TcpStream::connect(addr).unwrap();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let mut dribbling = TcpStream::connect(addr).unwrap();
    let dribbler = thread::spawn(move || {
        // A real packet short of its last byte, so the frame never
        // completes however long the dribble runs.
        let patient = PatientProfile::normotensive();
        let mut device = DeviceSimulator::new(&config, &patient, DURATION_S).unwrap();
        let packet = device.next_packet().unwrap().unwrap();
        for &byte in &packet[..packet.len() - 1] {
            if stop_rx.recv_timeout(Duration::from_millis(50)).is_ok() {
                return;
            }
            dribbling.write_all(&[byte]).unwrap();
        }
        stop_rx.recv().unwrap();
    });

    let patient = PatientProfile::hypertensive().with_seed(0xD1B);
    let expected = expected_for(&config, &patient);
    let t0 = std::time::Instant::now();
    let streamer = thread::spawn(move || {
        let mut device = DeviceSimulator::new(&config, &patient, DURATION_S).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let peer = stream.local_addr().unwrap().to_string();
        while let Some(packet) = device.next_packet().unwrap() {
            stream.write_all(&packet).unwrap();
        }
        peer
    });
    let peer = streamer.join().unwrap();
    let links = wait_links(&server, "the streaming session closed", |s| {
        s.peer != peer || !s.live
    });
    let waited = t0.elapsed();
    assert_eq!(links.len(), 3);
    for s in &links {
        assert_eq!(s.live, s.peer != peer, "{s:?}");
    }
    assert!(waited < BOUND, "the streaming session took {waited:?}");

    stop_tx.send(()).unwrap();
    dribbler.join().unwrap();
    drop(silent);
    let (report, _) = server.shutdown();
    let mut actual: Vec<(u64, u64, u64)> = report
        .completed()
        .map(|(_, s)| (s.samples as u64, s.beats as u64, s.alarms as u64))
        .collect();
    actual.sort_unstable();
    assert_eq!(
        actual,
        vec![
            (0, 0, 0),
            (0, 0, 0),
            (expected.samples, expected.beats, expected.alarms)
        ]
    );
}
