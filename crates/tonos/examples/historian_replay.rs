//! The storage plane end to end: a measurement session driven over
//! the HTTP API, ingested from a (slightly lossy) wire into the
//! append-only historian, then replayed — live readings while it
//! runs, ranged waveform reads at three zoom levels afterwards, and
//! a crash-recovery reopen at the end.
//!
//! Run with: `cargo run --release --example historian_replay`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tonos::historian::{Historian, HubConfig, MeasurementApi, MeasurementHub, StoreConfig};
use tonos::link::http::{body, request};
use tonos::link::{
    DeviceSimulator, FaultConfig, FaultyTransport, LinkKey, LinkServer, LinkServerConfig,
};
use tonos::physio::patient::PatientProfile;
use tonos::system::config::SystemConfig;
use tonos::telemetry::Telemetry;

const DEVICE: u64 = 7;
const DURATION_S: f64 = 2.0;

fn main() {
    let dir = std::env::temp_dir().join(format!("tonos-historian-replay-{}", std::process::id()));
    let t = Telemetry::disabled();
    let config = SystemConfig::paper_default();
    let patient = PatientProfile::normotensive().with_seed(0x51DE);

    // The deployment wiring: store ← hub ← ingest tap, API in front.
    // A small tier block so a two-second recording is long enough for
    // the downsampling tiers to show up in the replay below.
    let store_config = StoreConfig {
        tier_block: 256,
        ..StoreConfig::default()
    };
    let (historian, _) = Historian::open(&dir, store_config, &t).expect("open store");
    let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
    let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &t).expect("bind api");
    let key = LinkKey::from_bytes(*b"ward-shared-key!");
    let link = LinkServer::bind_with_tap(
        "127.0.0.1:0",
        LinkServerConfig {
            decimator: config.decimator,
            auth_key: Some(key),
            require_auth: true,
            // Fire-and-forget device below: no NAK round trip, so a
            // dropped chunk becomes an immediate concealed gap.
            reorder_window: 0,
            ..LinkServerConfig::default()
        },
        Some(Arc::new(hub.clone())),
    )
    .expect("bind ingest server");
    let api_addr = api.local_addr();
    let link_addr = link.local_addr();
    println!("measurement API on {api_addr}, ingest on {link_addr}");

    // prepare → start over HTTP, exactly as a frontend would.
    println!(
        "POST /sessions/prepare -> {}",
        body(
            &request(api_addr, "POST", "/sessions/prepare", "{\"device\": 7}")
                .expect("api request")
        )
    );
    println!(
        "POST /sessions/1/start -> {}",
        body(&request(api_addr, "POST", "/sessions/1/start", "").expect("api request"))
    );

    // The device streams through a mildly lossy wire (hello unmangled
    // so the session routes), then half-closes and drains the server's
    // control write-back before hanging up.
    let device_thread = thread::spawn(move || {
        let mut device = DeviceSimulator::new(&config, &patient, DURATION_S)
            .expect("device")
            .with_auth(key, DEVICE, 1);
        let mut transport = FaultyTransport::new(
            FaultConfig {
                bit_flip_per_byte: 2e-5,
                drop_chunk: 0.005,
                ..FaultConfig::clean()
            },
            0x0DDB,
        );
        let mut stream = TcpStream::connect(link_addr).expect("connect ingest");
        let mut sent = 0u64;
        while let Some(packet) = device.next_packet().expect("conversion") {
            let wire = if sent < 3 {
                packet
            } else {
                transport.transmit(&packet)
            };
            stream.write_all(&wire).expect("stream");
            sent += 1;
        }
        stream.write_all(&transport.flush()).expect("stream");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok();
        let mut sink = [0u8; 1024];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    // Live readings mid-measurement, then poll status to completion.
    thread::sleep(Duration::from_millis(150));
    println!(
        "GET  /sessions/1/readings -> {}",
        body(&request(api_addr, "GET", "/sessions/1/readings", "").expect("api request"))
    );
    device_thread.join().expect("device thread");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let response = request(api_addr, "GET", "/sessions/1/status", "").expect("api request");
        let body = body(&response);
        if body.contains("\"state\":\"complete\"") || Instant::now() > deadline {
            break body.to_string();
        }
        thread::sleep(Duration::from_millis(20));
    };
    println!("GET  /sessions/1/status -> {status}");

    // Build the downsampled tiers, then replay the recording at three
    // zoom levels: every read is bounded by its own point budget, and
    // the store picks the coarsest tier that still fits.
    let report = hub.historian().compact().expect("compact");
    println!(
        "compaction: {} tier records over {} source samples",
        report.tier_records, report.source_samples
    );
    let snap = hub.historian().snapshot();
    let (from, to) = snap.session_span(DEVICE, 1).expect("session has data");
    let reader = hub.historian().reader();
    for budget in [2_000usize, 200, 20] {
        let wave = reader
            .read_range(DEVICE, 1, from, to, budget)
            .expect("ranged read");
        println!(
            "replay budget {budget:>4}: {} points from tier {} \
             (stride {}, {:.1} Hz effective)",
            wave.points.len(),
            wave.tier,
            wave.stride,
            wave.sample_rate_hz
        );
    }
    drop(reader);

    link.shutdown();
    api.shutdown();

    // Crash recovery: tear bytes off the youngest segment and reopen —
    // only the torn record is lost, everything else replays intact.
    drop(hub);
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .expect("list store")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.extension().is_some_and(|x| x == "tseg").then_some(p)
        })
        .collect();
    segs.sort();
    let last = segs.last().expect("segments");
    let len = std::fs::metadata(last).expect("metadata").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .expect("open segment")
        .set_len(len - 41.min(len / 2))
        .expect("tear");
    let (recovered, report) = Historian::open(&dir, store_config, &t).expect("reopen after tear");
    println!(
        "recovery: {} records across {} segments survive a torn tail \
         ({} segment(s) truncated, {} bytes dropped)",
        report.records, report.segments, report.truncated_segments, report.dropped_bytes
    );
    let span = recovered.snapshot().session_span(DEVICE, 1);
    println!("recovered session span: {span:?}");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
