//! The exposition endpoint: live telemetry for scrapers and operators,
//! served as a route table on [`tonos_link::http`].
//!
//! Routes:
//!
//! * `GET /metrics` — the observed registry's snapshot in Prometheus
//!   text exposition format 0.0.4 (via
//!   [`prometheus_text`]), plus directory-derived
//!   `tonos_links_*` gauges when a [`LinkDirectory`] is attached —
//!   those sum *live* per-connection counters that won't reach the
//!   fleet registry until session rollup.
//! * `GET /health` — a compact JSON health summary derived from the
//!   registry's [`HealthReport`](tonos_telemetry::HealthReport).
//! * `GET /links` — per-connection [`LinkStatus`](tonos_link::LinkStatus)
//!   JSON, mid-ingest included (empty array without a directory).
//! * `GET /flight` — the attached [`FlightRecorder`]'s ring status.
//!
//! The server never mutates the observed registry: a scrape is a read.
//! When a flight recorder is attached, the server runs a timer thread
//! that calls its [`maybe_tick`](FlightRecorder::maybe_tick) once per
//! recorder interval, so attaching a recorder is all it takes to get
//! periodic history capture, with or without traffic.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use tonos_link::http::{HttpServer, Request, Response, Routes};
use tonos_link::LinkDirectory;
use tonos_telemetry::{prometheus_text, Registry};

use crate::recorder::FlightRecorder;

/// What the endpoint exposes: a registry (required) plus optional
/// live-link directory and flight recorder.
#[derive(Clone)]
pub struct ScopeSources {
    registry: Registry,
    directory: Option<Arc<LinkDirectory>>,
    recorder: Option<Arc<Mutex<FlightRecorder>>>,
}

impl ScopeSources {
    /// Sources exposing only `registry`.
    pub fn registry(registry: Registry) -> Self {
        ScopeSources {
            registry,
            directory: None,
            recorder: None,
        }
    }

    /// Attaches a link directory: `/links` gains per-connection status
    /// and `/metrics` gains live `tonos_links_*` gauges.
    #[must_use]
    pub fn with_directory(mut self, directory: Arc<LinkDirectory>) -> Self {
        self.directory = Some(directory);
        self
    }

    /// Attaches a flight recorder; the server's timer thread drives its
    /// ticks.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Mutex<FlightRecorder>>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl std::fmt::Debug for ScopeSources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeSources")
            .field("directory", &self.directory.is_some())
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

/// A running telemetry endpoint.
///
/// Bind with [`ScopeServer::bind`], learn the ephemeral port from
/// [`ScopeServer::local_addr`], stop with [`ScopeServer::shutdown`].
#[derive(Debug)]
pub struct ScopeServer {
    server: HttpServer,
    requests: Arc<AtomicU64>,
    /// The attached recorder's timer thread; dropped after the server.
    _ticker: Option<Ticker>,
}

impl ScopeServer {
    /// Binds and starts serving. `addr` follows [`std::net::TcpListener::bind`]
    /// conventions (`"127.0.0.1:0"` picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, sources: ScopeSources) -> std::io::Result<Self> {
        let requests = Arc::new(AtomicU64::new(0));
        let recorder = sources.recorder.clone();
        let routes = ScopeRoutes {
            sources,
            requests: Arc::clone(&requests),
        };
        Ok(ScopeServer {
            server: HttpServer::bind(addr, routes)?,
            requests,
            _ticker: recorder.map(Ticker::spawn),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Requests served so far (any route, errors included).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and the recorder's timer, and joins both.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The recorder's timer thread: [`FlightRecorder::maybe_tick`], then a
/// wait of one recorder interval on a channel. Dropping it drops the
/// channel's sender, which ends the wait and the thread, and joins it.
#[derive(Debug)]
struct Ticker(Option<(Sender<()>, JoinHandle<()>)>);

impl Ticker {
    fn spawn(recorder: Arc<Mutex<FlightRecorder>>) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = thread::spawn(move || loop {
            let interval = {
                let mut rec = recorder.lock().expect("flight recorder lock poisoned");
                rec.maybe_tick();
                rec.interval()
            };
            if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                break;
            }
        });
        Ticker(Some((stop, thread)))
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        if let Some((stop, thread)) = self.0.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

struct ScopeRoutes {
    sources: ScopeSources,
    requests: Arc<AtomicU64>,
}

impl Routes for ScopeRoutes {
    fn respond(&self, request: &Request<'_>) -> Response {
        if request.method != "GET" {
            return Response::error("405 Method Not Allowed", "method not allowed");
        }
        let sources = &self.sources;
        match request.path {
            "/metrics" => Response {
                status: "200 OK",
                content_type: "text/plain; version=0.0.4",
                body: metrics_body(sources),
            },
            "/health" => Response::json("200 OK", health_body(sources)),
            "/links" => Response::json(
                "200 OK",
                sources
                    .directory
                    .as_ref()
                    .map_or_else(|| "[]".to_string(), |d| d.to_json()),
            ),
            "/flight" => Response::json("200 OK", flight_body(sources)),
            _ => Response::error("404 Not Found", "not found"),
        }
    }

    fn accepted(&self) {
        self.requests.fetch_add(1, Ordering::SeqCst);
    }
}

/// The registry exposition, plus live link gauges when a directory is
/// attached.
fn metrics_body(sources: &ScopeSources) -> String {
    let mut body = prometheus_text(&sources.registry.snapshot());
    if let Some(directory) = &sources.directory {
        let agg = directory.aggregate();
        // Gauges, not counters: these are sums over a mutable directory
        // of live sessions, a complement to the rolled-up
        // `tonos_link_*_total` counters above (which lag by design —
        // session registries fold in only at rollup).
        for (name, help, value) in [
            ("live", "Connections currently ingesting", agg.live),
            ("closed", "Connections that have disconnected", agg.closed),
            (
                "frames",
                "CRC-verified frames across all connections",
                agg.frames,
            ),
            (
                "crc_failures",
                "CRC failures across all connections",
                agg.crc_failures,
            ),
            (
                "gap_events",
                "Gap episodes across all connections",
                agg.gap_events,
            ),
            (
                "clean_samples",
                "Clean output samples across all connections",
                agg.clean_samples,
            ),
            (
                "concealed_samples",
                "Concealed or invalid output samples across all connections",
                agg.concealed_samples,
            ),
            (
                "stream_resets",
                "Stream resets across all connections",
                agg.stream_resets,
            ),
            (
                "skipped_samples",
                "Reset-skipped output samples across all connections",
                agg.skipped_samples,
            ),
            ("alarms", "Alarms across all connections", agg.alarms),
            (
                "reordered_frames",
                "Frames healed by the reorder window across all connections",
                agg.reordered_frames,
            ),
            (
                "retransmits_rx",
                "NAK-recovered retransmitted frames accepted across all connections",
                agg.retransmits_rx,
            ),
            (
                "naks_tx",
                "NAK retransmit requests sent to devices across all connections",
                agg.naks_tx,
            ),
            (
                "handshakes_ok",
                "Verified device handshakes across all connections",
                agg.handshakes_ok,
            ),
            (
                "handshakes_rejected",
                "Rejected (forged or malformed) device handshakes across all connections",
                agg.handshakes_rejected,
            ),
            (
                "unauth_frames",
                "Data frames dropped before authentication across all connections",
                agg.unauth_frames,
            ),
        ] {
            body.push_str(&format!(
                "# HELP tonos_links_{name} {help} (live directory sum).\n\
                 # TYPE tonos_links_{name} gauge\n\
                 tonos_links_{name} {value}\n",
            ));
        }
    }
    body
}

/// The `/health` JSON payload.
fn health_body(sources: &ScopeSources) -> String {
    let h = sources.registry.health();
    let (live, closed) = sources.directory.as_ref().map_or((0, 0), |d| {
        let agg = d.aggregate();
        (agg.live, agg.closed)
    });
    format!(
        concat!(
            "{{\"status\":\"ok\",\"uptime_s\":{},\"modulator_steps\":{},",
            "\"frames_in\":{},\"samples_out\":{},\"beats\":{},\"alarms\":{},",
            "\"warning_events\":{},\"critical_events\":{},",
            "\"links_live\":{},\"links_closed\":{}}}"
        ),
        h.uptime.as_secs_f64(),
        h.modulator_steps,
        h.frames_in,
        h.samples_out,
        h.beats,
        h.alarms,
        h.warning_events,
        h.critical_events,
        live,
        closed,
    )
}

/// The `/flight` JSON payload: ring status, not the frames themselves
/// (replay is an in-process API; the endpoint answers "is history being
/// kept, how much, how big").
fn flight_body(sources: &ScopeSources) -> String {
    match &sources.recorder {
        None => "{\"enabled\":false}".to_string(),
        Some(recorder) => {
            let rec = recorder.lock().expect("flight recorder lock poisoned");
            let (from, to) = rec
                .span()
                .map_or((0.0, 0.0), |(a, b)| (a.as_secs_f64(), b.as_secs_f64()));
            format!(
                concat!(
                    "{{\"enabled\":true,\"frames\":{},\"capacity\":{},",
                    "\"interval_s\":{},\"ticks\":{},\"from_s\":{},\"to_s\":{},",
                    "\"series\":{},\"approx_bytes\":{}}}"
                ),
                rec.len(),
                rec.capacity(),
                rec.interval().as_secs_f64(),
                rec.ticks(),
                from,
                to,
                rec.series_names().len(),
                rec.approx_bytes(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;
    use tonos_link::http::{body, request, send};

    #[test]
    fn serves_metrics_health_links_and_404() {
        let registry = Registry::new();
        registry.telemetry().counter("scope.test").add(9);
        let server =
            ScopeServer::bind("127.0.0.1:0", ScopeSources::registry(registry.clone())).unwrap();
        let addr = server.local_addr();

        let metrics = request(addr, "GET", "/metrics", "").unwrap();
        assert!(
            metrics.starts_with("HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n")
        );
        assert!(metrics.contains("\ntonos_uptime_seconds"));
        assert!(metrics.contains("\ntonos_scope_test_total 9\n"));

        let health = request(addr, "GET", "/health", "").unwrap();
        assert!(health.starts_with("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"));
        assert!(body(&health).starts_with("{\"status\":\"ok\""));
        assert!(health.contains("\"links_live\":0"));

        assert_eq!(
            request(addr, "GET", "/links", "").unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n[]"
        );
        assert_eq!(
            request(addr, "GET", "/flight", "").unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 17\r\n\
             Connection: close\r\n\r\n{\"enabled\":false}"
        );
        assert_eq!(
            request(addr, "GET", "/nope", "").unwrap(),
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 21\r\nConnection: close\r\n\r\n{\"error\":\"not found\"}"
        );

        assert_eq!(server.requests(), 5);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let server =
            ScopeServer::bind("127.0.0.1:0", ScopeSources::registry(Registry::new())).unwrap();
        let addr = server.local_addr();

        assert_eq!(
            request(addr, "POST", "/metrics", "").unwrap(),
            "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
             Content-Length: 30\r\nConnection: close\r\n\r\n{\"error\":\"method not allowed\"}"
        );
        assert_eq!(
            send(addr, b"\r\n\r\n").unwrap(),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 29\r\nConnection: close\r\n\r\n{\"error\":\"malformed request\"}"
        );
        server.shutdown();
    }

    #[test]
    fn recorder_ticks_on_its_own_timer_without_traffic() {
        let registry = Registry::new(); // real clock: ticks are time-driven
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(
            registry.clone(),
            crate::recorder::RecorderConfig {
                interval: Duration::from_millis(5),
                retention: Duration::from_secs(1),
            },
        )));
        let server = ScopeServer::bind(
            "127.0.0.1:0",
            ScopeSources::registry(registry).with_recorder(Arc::clone(&recorder)),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ticks = recorder.lock().unwrap().ticks();
            if ticks >= 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "recorder never ticked (got {ticks})"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let flight = request(server.local_addr(), "GET", "/flight", "").unwrap();
        assert!(body(&flight).starts_with("{\"enabled\":true"), "{flight}");
        assert!(flight.contains("\"capacity\":200"));
        server.shutdown();
    }
}
