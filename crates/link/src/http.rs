//! The workspace's one HTTP/1.1 module: the accept thread every
//! `std`-only endpoint serves on, its request reader, parser and
//! response writer, and a small blocking client.
//!
//! A server is a [`Routes`] table on an [`HttpServer`]: one thread
//! blocks in `accept` and serves each connection inline — one request
//! (headers plus a `Content-Length` body, capped at 8 KiB), one
//! response, `Connection: close` — under one 500 ms deadline for the
//! whole exchange, so no client holds the thread longer than that.
//! Shutdown wakes the thread by connecting to the server itself.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tonos_telemetry::json_escape;

/// How long one connection may hold the accept thread: reading its
/// request and writing its response together.
const DEADLINE: Duration = Duration::from_millis(500);

/// Pause after a failed `accept` (out of descriptors, say), so a
/// persistent error does not spin the thread.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long shutdown's wake-up connection may take.
pub(crate) const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Request size cap: request line, headers and a small body.
const MAX_REQUEST: usize = 8192;

/// Bytes asked for per read.
const READ_CHUNK: usize = 512;

/// One parsed request, borrowing the text it was read from.
#[derive(Debug)]
pub struct Request<'a> {
    /// The method token (`GET`, `POST`, ...).
    pub method: &'a str,
    /// The target up to its first `?`.
    pub path: &'a str,
    /// The target after its first `?` (empty without one).
    pub query: &'a str,
    /// Everything after the blank line that ends the headers.
    pub body: &'a str,
}

/// One response, written with its `Content-Length` and
/// `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// Status code and reason, e.g. `"200 OK"`.
    pub status: &'static str,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The payload.
    pub body: String,
}

impl Response {
    /// An `application/json` response.
    pub fn json(status: &'static str, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// `{"error":"<message>"}` under `status`.
    pub fn error(status: &'static str, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":\"{}\"}}", json_escape(message)),
        )
    }
}

/// What an [`HttpServer`] serves. Every method runs on its accept
/// thread.
pub trait Routes: Send + 'static {
    /// Answers one well-formed request.
    fn respond(&self, request: &Request<'_>) -> Response;

    /// Runs once per accepted connection, before it is read.
    fn accepted(&self) {}
}

/// A running server: one accept thread serving a [`Routes`] table.
///
/// Stops and joins on [`HttpServer::shutdown`] or on drop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds and starts serving `routes`. `addr` follows
    /// [`TcpListener::bind`] conventions (`"127.0.0.1:0"` picks an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, routes: impl Routes) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = thread::spawn(move || accept_loop(&listener, &routes, &stop_accept));
        Ok(HttpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it.
    ///
    /// # Panics
    ///
    /// If a route panicked on the accept thread.
    pub fn shutdown(mut self) {
        if let Some(joined) = self.stop_and_join() {
            joined.expect("http accept thread never panics");
        }
    }

    /// Sets the stop flag, wakes the blocked `accept` with a connection
    /// of its own, and joins the accept thread (once).
    fn stop_and_join(&mut self) -> Option<thread::Result<()>> {
        let handle = self.accept_thread.take()?;
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        Some(handle.join())
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// Where a client reaches a listener bound at `addr`: an unspecified
/// address (`0.0.0.0`, `[::]`) is reached through loopback.
pub(crate) fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn accept_loop(listener: &TcpListener, routes: &impl Routes, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                routes.accepted();
                let _ = serve(stream, routes);
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// A connection whose every read and write gets only the time left
/// before one deadline; past it, each fails with `TimedOut`.
struct Deadlined {
    stream: TcpStream,
    deadline: Instant,
}

impl Deadlined {
    fn time_left(&self) -> io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadlined {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Reads one request and writes one response, both within
/// [`DEADLINE`] of the call; errors only on I/O.
fn serve(stream: TcpStream, routes: &impl Routes) -> io::Result<()> {
    let mut stream = Deadlined {
        stream,
        deadline: Instant::now() + DEADLINE,
    };
    let request = read_request(&mut stream)?;
    let request = String::from_utf8_lossy(&request);
    let Response {
        status,
        content_type,
        body,
    } = match parse_request(&request) {
        Some(request) => routes.respond(&request),
        None => Response::error("400 Bad Request", "malformed request"),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Reads one request: headers, then as much body as `Content-Length`
/// declares. Stops at EOF, at a timeout, or once the cap is buffered,
/// so it never holds more than the cap plus one read chunk.
fn read_request(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    while !request_complete(&buf) && buf.len() < MAX_REQUEST {
        let n = match stream.read(&mut chunk) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => 0,
            n => n?,
        };
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(buf)
}

/// Headers terminated, and the declared body buffered. A declared
/// length past the cap cannot arrive in full, so it counts as the cap.
fn request_complete(buf: &[u8]) -> bool {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let declared = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    buf.len() >= head_end + 4 + declared.min(MAX_REQUEST)
}

/// `"POST /x?a=1 HTTP/1.1\r\n...\r\n\r\nBODY"` → method `POST`, path
/// `/x`, query `a=1`, body `BODY`. `None` unless the first line holds
/// a method and a target.
fn parse_request(request: &str) -> Option<Request<'_>> {
    let mut parts = request.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let body = request.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    Some(Request {
        method,
        path,
        query,
        body,
    })
}

/// Sends one request on a fresh connection and returns the whole
/// response: status line, headers and body.
///
/// # Errors
///
/// Connection and I/O failures.
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> io::Result<String> {
    send(addr, format_request(addr, method, target, body).as_bytes())
}

/// Writes `raw` on a fresh connection and reads the response to EOF —
/// for putting a malformed or hostile request on the wire.
///
/// # Errors
///
/// Connection and I/O failures.
pub fn send(addr: SocketAddr, raw: &[u8]) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// The body of a whole response: everything after the blank line.
pub fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

fn format_request(host: SocketAddr, method: &str, target: &str, body: &str) -> String {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hands out its bytes in reads of the given sizes (cycled), then
    /// EOF.
    struct Chunked<'a>(&'a [u8], Vec<usize>);

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.1.rotate_left(1);
            let n = self.1[0].min(out.len()).min(self.0.len());
            let (head, rest) = self.0.split_at(n);
            out[..n].copy_from_slice(head);
            self.0 = rest;
            Ok(n)
        }
    }

    /// One character of `alphabet` per pick.
    fn text(alphabet: &str, picks: &[usize]) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        picks.iter().map(|&i| chars[i % chars.len()]).collect()
    }

    /// Answers every request with an empty JSON object.
    struct Empty;

    impl Routes for Empty {
        fn respond(&self, _: &Request<'_>) -> Response {
            Response::json("200 OK", "{}".to_string())
        }
    }

    /// Whether `stop` (a shutdown or a drop) returns within 2 s; a
    /// thread that never wakes fails the test instead of hanging it.
    fn stops_promptly(server: HttpServer, stop: fn(HttpServer)) -> bool {
        let (done, finished) = std::sync::mpsc::channel();
        let stopper = thread::spawn(move || {
            stop(server);
            let _ = done.send(());
        });
        let prompt = finished.recv_timeout(Duration::from_secs(2)).is_ok();
        if prompt {
            stopper.join().unwrap();
        }
        prompt
    }

    #[test]
    fn idle_server_shuts_down_promptly() {
        for stop in [HttpServer::shutdown, drop] {
            let server = HttpServer::bind("127.0.0.1:0", Empty).unwrap();
            // Long enough for the accept thread to block in `accept`.
            thread::sleep(Duration::from_millis(20));
            assert!(stops_promptly(server, stop));
        }
    }

    #[test]
    fn server_bound_to_an_unspecified_address_shuts_down() {
        let server = HttpServer::bind("0.0.0.0:0", Empty).unwrap();
        let addr = wake_addr(server.local_addr());
        assert_eq!(addr.ip(), IpAddr::V4(Ipv4Addr::LOCALHOST));
        let response = request(addr, "GET", "/", "").unwrap();
        assert!(response.ends_with("\r\n\r\n{}"), "{response}");
        assert!(stops_promptly(server, HttpServer::shutdown));
        let any6: SocketAddr = "[::]:8080".parse().unwrap();
        assert_eq!(wake_addr(any6), "[::1]:8080".parse().unwrap());
    }

    #[test]
    fn request_parsing() {
        let parts = |r| parse_request(r).map(|r| (r.method, r.path, r.query, r.body));
        let get = "GET /links?live=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(parts(get), Some(("GET", "/links", "live=1", "")));
        let post = "POST /x HTTP/1.1\r\n\r\n{\"device\": 5}";
        assert_eq!(parts(post), Some(("POST", "/x", "", "{\"device\": 5}")));
        for malformed in ["", "GET", "\r\n\r\n"] {
            assert_eq!(parts(malformed), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes in arbitrary read sizes: no panic, and never
        /// more than the cap plus one read chunk buffered. Most cases
        /// lead with a head declaring a `Content-Length`, edge values
        /// included.
        #[test]
        fn reader_and_parser_survive_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..3 * MAX_REQUEST),
            line in prop::collection::vec(0usize..16, 0..4),
            sizes in prop::collection::vec(1usize..2 * READ_CHUNK, 1..8),
            kind in 0usize..7,
            n in any::<u64>(),
        ) {
            let cap = MAX_REQUEST as u64;
            let declared = [0, cap + 1, u64::MAX, u64::MAX - n % 64, n % (2 * cap), n];
            let mut data = Vec::new();
            if let Some(declared) = declared.get(kind) {
                let line = text("GP /?\r\n: ", &line);
                let head = format!("GET /{line} HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
                data.extend_from_slice(head.as_bytes());
            }
            data.extend_from_slice(&bytes);
            let buf = read_request(&mut Chunked(&data, sizes)).unwrap();
            prop_assert!(buf.len() <= MAX_REQUEST + READ_CHUNK, "buffered {}", buf.len());
            prop_assert!(data.starts_with(&buf));
            let _ = parse_request(&String::from_utf8_lossy(&buf));
        }

        /// Well-formed requests, as the client writes them, read and
        /// parse back exactly whatever the read sizes.
        #[test]
        fn well_formed_requests_parse_back_exactly(
            method in prop::collection::vec(0usize..26, 1..8),
            path in prop::collection::vec(0usize..40, 0..24),
            query in prop::collection::vec(0usize..40, 0..24),
            with_query in prop::bool::ANY,
            body in prop::collection::vec(0usize..100, 0..1024),
            sizes in prop::collection::vec(1usize..2 * READ_CHUNK, 1..8),
        ) {
            let method = text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", &method);
            let path = format!("/{}", text("abcdefghijklmnopqrstuvwxyz0123456789/_-.", &path));
            let query = text("abcdefghijklmnopqrstuvwxyz0123456789=&?/", &query);
            let body = text("{}\": ,abcdefxyz0123456789\r\n\t\\é→😀", &body);
            let target = if with_query { format!("{path}?{query}") } else { path.clone() };
            let raw = format_request("127.0.0.1:8080".parse().unwrap(), &method, &target, &body);
            let buf = read_request(&mut Chunked(raw.as_bytes(), sizes)).unwrap();
            prop_assert_eq!(buf.as_slice(), raw.as_bytes());
            let text = String::from_utf8_lossy(&buf);
            let parsed = parse_request(&text).expect("well-formed");
            prop_assert_eq!(parsed.method, method.as_str());
            prop_assert_eq!(parsed.path, path.as_str());
            prop_assert_eq!(parsed.query, if with_query { query.as_str() } else { "" });
            prop_assert_eq!(parsed.body, body.as_str());
        }
    }
}
