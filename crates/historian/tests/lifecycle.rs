//! The measurement-session E2E from the issue: `prepare` → `start`
//! over the HTTP API, a real device streaming through a
//! [`FaultyTransport`] into a real [`LinkServer`] wired to the hub's
//! ingest tap, status polled to completion, then a ranged waveform
//! read whose Clean samples match the lossless in-process stream
//! bit for bit.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tonos_core::config::SystemConfig;
use tonos_historian::{Historian, HubConfig, MeasurementApi, MeasurementHub, StoreConfig};
use tonos_link::http::{body, request};
use tonos_link::{
    DeviceSimulator, FaultConfig, FaultyTransport, GapPolicy, HostPipeline, HostSample,
    LinkCalibration, LinkKey, LinkServer, LinkServerConfig,
};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::Telemetry;

const DEVICE: u64 = 42;
const DURATION_S: f64 = 1.0;

/// The lossless truth: the identical device stream pushed straight
/// through an in-process pipeline, no wire at all.
fn lossless_samples(config: &SystemConfig, patient: &PatientProfile) -> Vec<HostSample> {
    let mut device = DeviceSimulator::new(config, patient, DURATION_S).unwrap();
    let mut pipe = HostPipeline::new(
        &config.decimator,
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .unwrap();
    let mut out = Vec::new();
    while let Some(packet) = device.next_packet().unwrap() {
        pipe.push_bytes(&packet, &mut out);
    }
    out
}

#[test]
fn measurement_session_end_to_end_over_a_faulty_link() {
    let dir = tonos_historian::scratch_dir("lifecycle-e2e");
    let t = Telemetry::disabled();
    let config = SystemConfig::paper_default();
    let patient = PatientProfile::normotensive().with_seed(0x7E57);
    let expected = lossless_samples(&config, &patient);
    assert!(!expected.is_empty());

    // Store + hub + API + ingest server, wired the way a deployment
    // would be: the hub taps the link server, the API fronts the hub.
    let (historian, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
    let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
    let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &t).unwrap();
    let key = LinkKey::from_bytes(*b"ward-shared-key!");
    let server = LinkServer::bind_with_tap(
        "127.0.0.1:0",
        LinkServerConfig {
            workers: 2,
            decimator: config.decimator,
            auth_key: Some(key),
            require_auth: true,
            // The client streams fire-and-forget (it never reads the
            // server's NAKs back), so disable the reorder window: a
            // dropped chunk becomes an immediate concealed gap instead
            // of a retransmit wait that EOF would strand.
            reorder_window: 0,
            ..LinkServerConfig::default()
        },
        Some(Arc::new(hub.clone())),
    )
    .unwrap();
    let api_addr = api.local_addr();
    let link_addr = server.local_addr();

    // prepare → start over HTTP.
    assert_eq!(
        request(api_addr, "POST", "/sessions/prepare", "{\"device\": 42}").unwrap(),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
         Connection: close\r\n\r\n{\"id\":1}"
    );
    assert_eq!(
        request(api_addr, "POST", "/sessions/1/start", "").unwrap(),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
         Connection: close\r\n\r\n{\"ok\":true}"
    );

    // The device streams through a lossy wire. The first packets (the
    // authenticated hello and the stream head) go through clean so the
    // session routes; after that the transport mangles freely.
    let client = thread::spawn(move || {
        let mut device = DeviceSimulator::new(&config, &patient, DURATION_S)
            .unwrap()
            .with_auth(key, DEVICE, 7);
        let mut transport = FaultyTransport::new(
            FaultConfig {
                bit_flip_per_byte: 5e-5,
                drop_chunk: 0.01,
                ..FaultConfig::clean()
            },
            0xFA17,
        );
        let mut stream = TcpStream::connect(link_addr).unwrap();
        let mut sent = 0u64;
        while let Some(packet) = device.next_packet().unwrap() {
            let wire = if sent < 3 {
                packet
            } else {
                transport.transmit(&packet)
            };
            stream.write_all(&wire).unwrap();
            sent += 1;
        }
        stream.write_all(&transport.flush()).unwrap();
        stream.flush().unwrap();
        // Half-close: signal EOF but keep draining the server's
        // control write-back (the hello ack). Dropping the socket with
        // unread bytes queued would RST the connection and destroy the
        // server's still-buffered ingest data.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut sink = [0u8; 1024];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    });
    client.join().unwrap();

    // Poll status over HTTP until the link close auto-settles the
    // session — the lifecycle a frontend actually runs.
    let deadline = Instant::now() + Duration::from_secs(10);
    let final_body = loop {
        let response = request(api_addr, "GET", "/sessions/1/status", "").unwrap();
        let body = body(&response);
        if body.contains("\"state\":\"complete\"") {
            break body.to_string();
        }
        assert!(
            Instant::now() < deadline,
            "session never completed; last status: {body}"
        );
        thread::sleep(Duration::from_millis(20));
    };
    assert!(final_body.contains("\"device\":42"), "{final_body}");

    // Every Clean sample the store holds is bit-identical to the
    // lossless stream at the same device clock — the link's
    // no-silent-corruption contract carried all the way to disk.
    let snap = hub.historian().snapshot();
    let (from, to) = snap.session_span(DEVICE, 1).expect("session has data");
    let wave = hub
        .historian()
        .reader()
        .read_tier(DEVICE, 1, 0, from, to)
        .unwrap();
    assert!(!wave.points.is_empty());
    let mut clean = 0u64;
    let mut concealed = 0u64;
    for p in &wave.points {
        if p.raw.is_finite() {
            let truth = &expected[p.clock as usize];
            assert_eq!(
                p.mmhg.to_bits(),
                truth.value_mmhg.to_bits(),
                "clean sample at clock {} diverged from lossless",
                p.clock
            );
            clean += 1;
        } else {
            concealed += 1;
        }
    }
    assert!(
        clean > expected.len() as u64 / 2,
        "too few clean samples survived: {clean} clean / {concealed} concealed"
    );

    // The ranged HTTP read is bounded by its point budget regardless
    // of recording length.
    let response = request(api_addr, "GET", "/sessions/1/waveform?max_points=32", "").unwrap();
    let body = body(&response);
    let points = body.matches("\"clock\":").count();
    assert!(points <= 32, "unbounded waveform read: {points} points");
    assert!(points > 0, "{body}");

    server.shutdown();
    api.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
