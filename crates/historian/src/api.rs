//! The measurement-session HTTP API: the lifecycle endpoints a
//! frontend polls, served as a route table on [`tonos_link::http`]
//! (the accept loop `tonos-scope` serves on too).
//!
//! Routes:
//!
//! * `POST /sessions/prepare` — body `{"device": N}`; allocates a
//!   session, returns `{"id": ...}`.
//! * `POST /sessions/{id}/start` — arms it; tap samples from its
//!   device start landing.
//! * `POST /sessions/{id}/stop` — settles it (`complete`/`failed`).
//! * `POST /sessions/{id}/retry` — re-arms a failed session.
//! * `GET /sessions` — every session's status.
//! * `GET /sessions/{id}/status` — one status snapshot.
//! * `GET /sessions/{id}/readings` — the live tail of calibrated
//!   readings (the "current pressure" a UI shows during a measurement).
//! * `GET /sessions/{id}/waveform?from=&to=&max_points=` — a ranged
//!   waveform read answered from the store through the downsampling
//!   pyramid; the response point count is bounded by `max_points`
//!   (default 512) no matter how long the recording is. `raw` is
//!   `null` where the link concealed the sample.
//!
//! All JSON is hand-rolled (the build is dependency-free); NaN
//! serializes as `null`.

use std::net::SocketAddr;

use tonos_link::http::{HttpServer, Request, Response, Routes};
use tonos_telemetry::{json_escape, json_f64, names, Counter, Telemetry};

use crate::hub::MeasurementHub;

/// A running measurement-session API server.
///
/// Bind with [`MeasurementApi::bind`], learn the ephemeral port from
/// [`MeasurementApi::local_addr`], stop with
/// [`MeasurementApi::shutdown`].
#[derive(Debug)]
pub struct MeasurementApi(HttpServer);

impl MeasurementApi {
    /// Binds and starts serving `hub` at `addr` (`"127.0.0.1:0"` picks
    /// an ephemeral port); requests count into
    /// `historian.api_requests` on `telemetry`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, hub: MeasurementHub, telemetry: &Telemetry) -> std::io::Result<Self> {
        let routes = ApiRoutes {
            hub,
            requests: telemetry.counter(names::HISTORIAN_API_REQUESTS),
        };
        Ok(MeasurementApi(HttpServer::bind(addr, routes)?))
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

struct ApiRoutes {
    hub: MeasurementHub,
    requests: Counter,
}

fn json_opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Pulls `"name": <integer>` out of a flat JSON object body. Not a
/// JSON parser — the API's only body is `{"device": N}`, and a
/// malformed body reads as "field absent".
fn extract_u64(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let rest = &body[body.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Pulls `name=<u64>` out of a query string.
fn query_u64(query: &str, name: &str) -> Option<u64> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

fn status_json(st: &crate::hub::SessionStatus) -> String {
    format!(
        concat!(
            "{{\"id\":{},\"device\":{},\"state\":\"{}\",\"sample_rate_hz\":{},",
            "\"first_clock\":{},\"last_clock\":{},\"samples\":{},\"clean\":{},",
            "\"concealed\":{},\"flushed_records\":{},\"error\":{}}}"
        ),
        st.id,
        st.device,
        json_escape(st.state.as_str()),
        json_f64(st.sample_rate_hz),
        json_opt_u64(st.first_clock),
        json_opt_u64(st.last_clock),
        st.samples,
        st.clean,
        st.concealed,
        st.flushed_records,
        st.error
            .as_deref()
            .map_or_else(|| "null".to_string(), |e| format!("\"{}\"", json_escape(e))),
    )
}

impl Routes for ApiRoutes {
    fn accepted(&self) {
        self.requests.inc();
    }

    fn respond(&self, request: &Request<'_>) -> Response {
        let (hub, method) = (&self.hub, request.method);
        match (method, request.path) {
            ("POST", "/sessions/prepare") => match extract_u64(request.body, "device") {
                Some(device) => {
                    let id = hub.prepare(device);
                    Response::json("200 OK", format!("{{\"id\":{id}}}"))
                }
                None => Response::error("400 Bad Request", "body must carry \"device\""),
            },
            ("GET", "/sessions") => {
                let items: Vec<String> = hub.list().iter().map(status_json).collect();
                Response::json("200 OK", format!("[{}]", items.join(",")))
            }
            (_, path) => {
                let Some(rest) = path.strip_prefix("/sessions/") else {
                    return Response::error("404 Not Found", "not found");
                };
                let Some((id_str, action)) = rest.split_once('/') else {
                    return Response::error("404 Not Found", "not found");
                };
                let Ok(id) = id_str.parse::<u64>() else {
                    return Response::error("400 Bad Request", "session id must be an integer");
                };
                match (method, action) {
                    ("POST", "start") => lifecycle(hub.start(id)),
                    ("POST", "retry") => lifecycle(hub.retry(id)),
                    ("POST", "stop") => match hub.stop(id) {
                        Ok(st) => Response::json("200 OK", status_json(&st)),
                        Err(e) => Response::error("409 Conflict", &e),
                    },
                    ("GET", "status") => match hub.status(id) {
                        Some(st) => Response::json("200 OK", status_json(&st)),
                        None => Response::error("404 Not Found", "unknown session"),
                    },
                    ("GET", "readings") => match hub.readings(id) {
                        Some(readings) => {
                            let items: Vec<String> = readings
                                .iter()
                                .map(|r| {
                                    format!(
                                        "{{\"clock\":{},\"mmhg\":{},\"clean\":{}}}",
                                        r.clock,
                                        json_f64(r.mmhg),
                                        r.clean,
                                    )
                                })
                                .collect();
                            Response::json("200 OK", format!("[{}]", items.join(",")))
                        }
                        None => Response::error("404 Not Found", "unknown session"),
                    },
                    ("GET", "waveform") => waveform(hub, id, request.query),
                    _ => Response::error("404 Not Found", "not found"),
                }
            }
        }
    }
}

fn lifecycle(result: Result<(), String>) -> Response {
    match result {
        Ok(()) => Response::json("200 OK", "{\"ok\":true}".to_string()),
        Err(e) => Response::error("409 Conflict", &e),
    }
}

fn waveform(hub: &MeasurementHub, id: u64, query: &str) -> Response {
    let Some(st) = hub.status(id) else {
        return Response::error("404 Not Found", "unknown session");
    };
    let snap = hub.historian().snapshot();
    let span = snap.session_span(st.device, id);
    let from = query_u64(query, "from")
        .or(span.map(|(a, _)| a))
        .unwrap_or(0);
    let to = query_u64(query, "to")
        .or(span.map(|(_, b)| b))
        .unwrap_or(from);
    let max_points = query_u64(query, "max_points").unwrap_or(512).max(1) as usize;
    drop(snap);
    let reader = hub.historian().reader();
    match reader.read_range(st.device, id, from, to, max_points) {
        Ok(wave) => {
            let points: Vec<String> = wave
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"clock\":{},\"raw\":{},\"mmhg\":{}}}",
                        p.clock,
                        json_f64(p.raw),
                        json_f64(p.mmhg),
                    )
                })
                .collect();
            Response::json(
                "200 OK",
                format!(
                    concat!(
                        "{{\"id\":{},\"device\":{},\"tier\":{},\"sample_rate_hz\":{},",
                        "\"stride\":{},\"from\":{},\"to\":{},\"points\":[{}]}}"
                    ),
                    id,
                    st.device,
                    wave.tier,
                    json_f64(wave.sample_rate_hz),
                    wave.stride,
                    from,
                    to,
                    points.join(","),
                ),
            )
        }
        Err(e) => Response::error("500 Internal Server Error", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubConfig;
    use crate::scratch_dir;
    use crate::store::{Historian, StoreConfig};
    use tonos_link::http;
    use tonos_link::{HostSample, IngestTap, SampleFlag, TapSession};

    #[test]
    fn body_and_query_extraction() {
        assert_eq!(extract_u64("{\"device\": 42}", "device"), Some(42));
        assert_eq!(extract_u64("{\"device\":7,\"x\":1}", "device"), Some(7));
        assert_eq!(extract_u64("{}", "device"), None);
        assert_eq!(query_u64("from=5&to=100", "to"), Some(100));
        assert_eq!(query_u64("from=5", "to"), None);
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn http_lifecycle_end_to_end() {
        let dir = scratch_dir("api-e2e");
        let t = Telemetry::disabled();
        let (historian, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
        let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &t).unwrap();
        let addr = api.local_addr();
        let request = |method, target, body| http::request(addr, method, target, body).unwrap();

        // Errors before any session exists.
        assert_eq!(
            http::send(addr, b"\r\n\r\n").unwrap(),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 29\r\nConnection: close\r\n\r\n{\"error\":\"malformed request\"}"
        );
        assert_eq!(
            request("POST", "/sessions/prepare", "{}"),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 38\r\nConnection: close\r\n\r\n{\"error\":\"body must carry \\\"device\\\"\"}"
        );
        assert_eq!(
            request("GET", "/sessions/abc/status", ""),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 41\r\nConnection: close\r\n\r\n{\"error\":\"session id must be an integer\"}"
        );
        assert_eq!(
            request("GET", "/sessions/9/status", ""),
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 27\r\nConnection: close\r\n\r\n{\"error\":\"unknown session\"}"
        );

        // A body of usize::MAX bytes declared and none sent: read up to
        // the cap, answered, and the server keeps serving.
        let hostile = b"GET /sessions HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
        let _ = http::send(addr, hostile);

        assert_eq!(
            request("POST", "/sessions/prepare", "{\"device\": 5}"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
             Connection: close\r\n\r\n{\"id\":1}"
        );
        assert_eq!(
            request("POST", "/sessions/1/start", ""),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: close\r\n\r\n{\"ok\":true}"
        );
        // Double-start conflicts.
        assert_eq!(
            request("POST", "/sessions/1/start", ""),
            "HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\nContent-Length: 48\r\n\
             Connection: close\r\n\r\n{\"error\":\"session 1 is measuring, not prepared\"}"
        );

        // Ingest through the tap while measuring.
        let tap = TapSession {
            conn_id: 1,
            peer: "test".to_string(),
            device_id: Some(5),
            output_rate_hz: 1000.0,
        };
        let samples: Vec<HostSample> = (0..50)
            .map(|i| HostSample {
                index: i,
                value_mmhg: 100.0 + i as f64,
                flag: SampleFlag::Clean,
            })
            .collect();
        hub.on_samples(&tap, &samples);

        let response = request("GET", "/sessions/1/status", "");
        let body = http::body(&response);
        assert!(body.contains("\"state\":\"measuring\""), "{body}");
        assert!(body.contains("\"samples\":50"), "{body}");

        let response = request("GET", "/sessions/1/readings", "");
        assert!(http::body(&response).contains("\"mmhg\":149"), "{response}");

        let response = request("POST", "/sessions/1/stop", "");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("\"state\":\"complete\""), "{response}");

        let response = request("GET", "/sessions/1/waveform?max_points=10", "");
        let body = http::body(&response);
        assert!(body.contains("\"points\":["), "{body}");
        // Bounded by the budget.
        assert!(body.matches("\"clock\":").count() <= 10, "{body}");

        let response = request("GET", "/sessions", "");
        assert!(
            http::body(&response).starts_with("[{\"id\":1"),
            "{response}"
        );

        assert_eq!(
            request("GET", "/nope", ""),
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 21\r\nConnection: close\r\n\r\n{\"error\":\"not found\"}"
        );
        api.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
