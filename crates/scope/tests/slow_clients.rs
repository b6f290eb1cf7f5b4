//! One slow client must not stall everyone else. With a connection that
//! sends nothing and one that sends a byte every 100 ms queued ahead of
//! it, a well-formed request on the measurement API and on the
//! telemetry endpoint still finishes within [`BOUND`], and the flight
//! recorder keeps ticking meanwhile.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tonos_historian::{Historian, HubConfig, MeasurementApi, MeasurementHub, StoreConfig};
use tonos_link::http::request;
use tonos_scope::{FlightRecorder, RecorderConfig, ScopeServer, ScopeSources};
use tonos_telemetry::{Registry, Telemetry};

/// How long the dribbling client keeps sending (unless the server hangs
/// up first): well past [`BOUND`].
const DRIBBLE: Duration = Duration::from_secs(4);

/// What a well-formed request queued behind both slow clients may take.
const BOUND: Duration = Duration::from_secs(2);

/// Opens the two slow clients on `addr`, in this order: one silent
/// connection (returned, so it stays open) and one on a thread that
/// sends an unterminated request head a byte every 100 ms for
/// [`DRIBBLE`].
fn slow_clients(addr: SocketAddr) -> (TcpStream, JoinHandle<()>) {
    let silent = TcpStream::connect(addr).unwrap();
    let mut dribbling = TcpStream::connect(addr).unwrap();
    let dribbler = thread::spawn(move || {
        let end = Instant::now() + DRIBBLE;
        let head = b"GET /health HTTP/1.1\r\nX-Slow: ".iter();
        for &byte in head.chain(std::iter::repeat(&b'x')) {
            if Instant::now() >= end || dribbling.write_all(&[byte]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(100));
        }
    });
    (silent, dribbler)
}

/// Sends `GET path` behind the two slow clients; returns the response
/// and how long it took from before the slow clients connected.
fn request_behind_slow_clients(addr: SocketAddr, path: &str) -> (String, Duration) {
    let t0 = Instant::now();
    let (silent, dribbler) = slow_clients(addr);
    let response = request(addr, "GET", path, "").expect("request behind slow clients");
    let waited = t0.elapsed();
    drop(silent);
    dribbler.join().unwrap();
    (response, waited)
}

#[test]
fn api_request_finishes_behind_slow_clients() {
    let dir = tonos_historian::scratch_dir("slow-clients");
    let t = Telemetry::disabled();
    let (historian, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
    let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
    let api = MeasurementApi::bind("127.0.0.1:0", hub, &t).unwrap();

    let (response, waited) = request_behind_slow_clients(api.local_addr(), "/sessions");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        waited < BOUND,
        "request behind slow clients took {waited:?}"
    );
    api.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scope_request_and_recorder_carry_on_behind_slow_clients() {
    let interval = Duration::from_millis(50);
    let registry = Registry::new(); // real clock: ticks are time-driven
    let recorder = Arc::new(Mutex::new(FlightRecorder::new(
        registry.clone(),
        RecorderConfig {
            interval,
            retention: Duration::from_secs(10),
        },
    )));
    let server = ScopeServer::bind(
        "127.0.0.1:0",
        ScopeSources::registry(registry).with_recorder(Arc::clone(&recorder)),
    )
    .unwrap();

    let ticks_before = recorder.lock().unwrap().ticks();
    let (response, waited) = request_behind_slow_clients(server.local_addr(), "/metrics");
    let ticks = recorder.lock().unwrap().ticks() - ticks_before;
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        waited < BOUND,
        "request behind slow clients took {waited:?}"
    );
    // At least a quarter of the intervals that passed, with slack for
    // a loaded host; a recorder ticked only between connections gets
    // one or two.
    let due = waited.as_millis() / interval.as_millis();
    assert!(
        u128::from(ticks) * 4 >= due,
        "recorder ticked {ticks} times in {waited:?} at a {interval:?} interval"
    );
    server.shutdown();
}
