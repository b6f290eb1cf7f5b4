//! The telemetry plane on a live ward: an ingest server fed by
//! simulated devices (one behind a lossy wire), with a scope endpoint
//! exposing Prometheus `/metrics`, per-link `/links` health, `/health`,
//! and the flight recorder's `/flight` ring — everything an operator's
//! dashboard would scrape, demonstrated by scraping it.
//!
//! Run with: `cargo run --release --example ops_dashboard`
//!
//! While it runs, the printed scope address answers real HTTP — point
//! `curl` or a Prometheus scraper at it from another terminal.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use tonos::link::http::{body, request};
use tonos::link::{
    DeviceSimulator, FaultConfig, FaultyTransport, LinkCalibration, LinkServer, LinkServerConfig,
};
use tonos::mems::units::MillimetersHg;
use tonos::physio::patient::PatientProfile;
use tonos::scope::{FlightRecorder, RecorderConfig, ScopeServer, ScopeSources};
use tonos::system::config::SystemConfig;

const DEVICES: usize = 3;
const DURATION_S: f64 = 6.0;

fn main() {
    let config = SystemConfig::paper_default();
    let calibration =
        LinkCalibration::two_point(&config, MillimetersHg(60.0), MillimetersHg(180.0))
            .expect("two-point calibration");
    let link = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            decimator: config.decimator,
            calibration,
            ..LinkServerConfig::default()
        },
    )
    .expect("bind ingest server");
    let ingest_addr = link.local_addr();

    // The scope endpoint watches the ingest server's fleet registry and
    // live link directory; a 500 ms × 2 min flight recorder rides along
    // on the endpoint's timer thread.
    let recorder = Arc::new(Mutex::new(FlightRecorder::new(
        link.fleet_registry().clone(),
        RecorderConfig {
            interval: Duration::from_millis(500),
            retention: Duration::from_secs(120),
        },
    )));
    let scope = ScopeServer::bind(
        "127.0.0.1:0",
        ScopeSources::registry(link.fleet_registry().clone())
            .with_directory(link.directory())
            .with_recorder(Arc::clone(&recorder)),
    )
    .expect("bind scope endpoint");
    let scope_addr = scope.local_addr();
    println!("ingest server listening on {ingest_addr}");
    println!("scope endpoint listening on {scope_addr} (try: curl http://{scope_addr}/metrics)");

    // Two patients on clean wires, one hypertensive patient behind a
    // transport that flips bits and drops chunks — the dashboard should
    // show that link concealing gaps while the others stay clean.
    let devices: Vec<_> = (0..DEVICES)
        .map(|i| {
            thread::spawn(move || {
                let (patient, faults) = match i {
                    0 => (PatientProfile::normotensive(), FaultConfig::clean()),
                    1 => (PatientProfile::hypertensive(), FaultConfig::noisy()),
                    _ => (PatientProfile::hypotensive(), FaultConfig::clean()),
                };
                let mut device =
                    DeviceSimulator::new(&config, &patient, DURATION_S).expect("device");
                let mut transport = FaultyTransport::new(faults, 0x0B5 + i as u64);
                let mut stream = TcpStream::connect(ingest_addr).expect("connect");
                while let Some(packet) = device.next_packet().expect("conversion") {
                    stream
                        .write_all(&transport.transmit(&packet))
                        .expect("stream");
                }
                stream.write_all(&transport.flush()).expect("stream");
            })
        })
        .collect();

    // Scrape per-link health the way a monitoring stack would. (The
    // simulated sessions run far faster than real time, so depending on
    // timing the links may already show closed here — a real ward's
    // would stay live for the monitoring duration.)
    thread::sleep(Duration::from_millis(1500));
    let links = request(scope_addr, "GET", "/links", "").expect("scope request");
    println!(
        "\nGET /links (per-link health):\n{}",
        body(&links).trim_end()
    );

    for d in devices {
        d.join().expect("device thread");
    }
    while link.connections() < DEVICES {
        thread::sleep(Duration::from_millis(10));
    }
    thread::sleep(Duration::from_millis(300));

    // Post-ingest: the health summary, a slice of the Prometheus
    // exposition, and the flight recorder's view of the session.
    println!(
        "\nGET /health:\n{}",
        body(&request(scope_addr, "GET", "/health", "").expect("scope request")).trim_end()
    );
    let metrics = request(scope_addr, "GET", "/metrics", "").expect("scope request");
    println!("\nGET /metrics (link and fleet series):");
    for line in body(&metrics)
        .lines()
        .filter(|l| l.starts_with("tonos_link") || l.starts_with("tonos_fleet"))
        .take(12)
    {
        println!("  {line}");
    }
    println!(
        "\nGET /flight:\n{}",
        body(&request(scope_addr, "GET", "/flight", "").expect("scope request")).trim_end()
    );
    let frames_rx = recorder
        .lock()
        .expect("recorder")
        .counter_series("link.frames_rx");
    if let Some((_, last)) = frames_rx.last() {
        println!(
            "flight recorder replay: link.frames_rx reached {last} over {} ticks",
            frames_rx.len()
        );
    }

    scope.shutdown();
    let (report, _snapshot) = link.shutdown();
    print!("\n{report}");
}
