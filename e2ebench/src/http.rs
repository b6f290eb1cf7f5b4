//! A one-connection-at-a-time HTTP/1.1 client and the few JSON field
//! readers the benchmark needs from the API's hand-rolled responses.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::trace::now_ns;

/// One completed request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// When the request was sent, ns since the epoch.
    pub sent_ns: u64,
    /// When the response had been read, ns since the epoch.
    pub done_ns: u64,
}

impl Reply {
    /// A 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Round trip in ms.
    pub fn rtt_ms(&self) -> f64 {
        crate::trace::ms(self.sent_ns, self.done_ns)
    }
}

/// Sends one request on a fresh connection and reads the whole reply.
///
/// # Errors
///
/// Connection, IO and malformed-response failures.
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &str) -> std::io::Result<Reply> {
    let sent_ns = now_ns();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let done_ns = now_ns();
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: body.to_string(),
        sent_ns,
        done_ns,
    })
}

fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let at = body.find(&key)? + key.len();
    Some(body[at..].trim_start())
}

/// `"name":<integer>` from a flat JSON object.
pub fn json_u64(body: &str, name: &str) -> Option<u64> {
    let rest = field(body, name)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"name":"<string>"` from a flat JSON object (no escapes needed).
pub fn json_str<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = field(body, name)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// One point of a waveform response.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Device clock.
    pub clock: u64,
    /// Raw lane (`NaN` for `null`).
    pub raw: f64,
    /// Calibrated lane (`NaN` for `null`).
    pub mmhg: f64,
}

fn number(s: &str) -> Option<(f64, &str)> {
    if let Some(rest) = s.strip_prefix("null") {
        return Some((f64::NAN, rest));
    }
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// The `points` array of a waveform response.
pub fn waveform_points(body: &str) -> Option<Vec<Point>> {
    let mut rest = &body[body.find("\"points\":[")? + 10..];
    let mut out = Vec::new();
    while let Some(obj) = rest.strip_prefix("{\"clock\":") {
        let (clock, r) = number(obj)?;
        let (raw, r) = number(r.strip_prefix(",\"raw\":")?)?;
        let (mmhg, r) = number(r.strip_prefix(",\"mmhg\":")?)?;
        out.push(Point {
            clock: clock as u64,
            raw,
            mmhg,
        });
        rest = r.strip_prefix('}')?;
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    rest.starts_with(']').then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_fields_and_waveform_points() {
        let body = "{\"id\":3,\"device\":7,\"state\":\"measuring\",\"last_clock\":1234,\"first_clock\":null}";
        assert_eq!(json_u64(body, "last_clock"), Some(1234));
        assert_eq!(json_u64(body, "first_clock"), None);
        assert_eq!(json_str(body, "state"), Some("measuring"));
        let wave = "{\"id\":1,\"points\":[{\"clock\":0,\"raw\":1.5,\"mmhg\":80.25},{\"clock\":16,\"raw\":null,\"mmhg\":-3e-5}]}";
        let pts = waveform_points(wave).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].clock, 16);
        assert!(pts[1].raw.is_nan());
        assert_eq!(pts[1].mmhg, -3e-5);
        assert_eq!(waveform_points("{\"points\":[]}").unwrap().len(), 0);
    }
}
