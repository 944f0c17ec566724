//! The HTTP/1.1 wire layer: just enough of RFC 7230 for a JSON API —
//! request-line + headers + `Content-Length` bodies, keep-alive, and a
//! blocking [`client`] the integration tests and the CI smoke job use.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Caps on hostile input.
const MAX_HEAD_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub keep_alive: bool,
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// The client sent a malformed or oversized request: answer `status`
    /// with `message` as the JSON error, then close the connection.
    Rejected { status: u16, message: &'static str },
    /// The transport failed (an I/O error, EOF mid-request): close without
    /// a response.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn rejected(status: u16, message: &'static str) -> ReadError {
    ReadError::Rejected { status, message }
}

/// Reads one request off the stream. `Ok(None)` means the connection
/// closed cleanly before a request started, or shutdown was requested —
/// either way the caller should drop the connection. A malformed request
/// is [`ReadError::Rejected`] with 400, an oversized head with 431 and a
/// declared body over the cap with 413 — the last before any body byte is
/// read. The stream must have a read timeout set; timeouts are used to
/// poll `stop`.
pub fn read_request(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<Request>, ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(rejected(431, "request head too large"));
        }
        match read_some(stream, &mut buf, stop)? {
            ReadStep::Data => {}
            ReadStep::Eof if buf.is_empty() => return Ok(None),
            ReadStep::Eof => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )))
            }
            ReadStep::Stopped => return Ok(None),
        }
    };

    // `find_head_end` located `\r\n\r\n` inside `buf`, so both ranges are
    // in bounds; checked access keeps the serving path panic-free anyway.
    let (head_bytes, body_start) = match (buf.get(..head_end), buf.get(head_end + 4..)) {
        (Some(head), Some(body)) => (head, body),
        _ => return Err(rejected(400, "malformed request head")),
    };
    let head =
        std::str::from_utf8(head_bytes).map_err(|_| rejected(400, "non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(rejected(400, "malformed request line"));
    }

    let mut content_length = 0usize;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| rejected(400, "bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(rejected(413, "request body too large"));
    }

    let mut body: Vec<u8> = body_start.to_vec();
    while body.len() < content_length {
        match read_some(stream, &mut body, stop)? {
            ReadStep::Data => {}
            ReadStep::Eof => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                )))
            }
            ReadStep::Stopped => return Ok(None),
        }
    }
    body.truncate(content_length);

    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

enum ReadStep {
    Data,
    Eof,
    Stopped,
}

/// One poll-aware read: appends available bytes, reports EOF, or — on a
/// timeout with shutdown requested — asks the caller to bail out.
fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>, stop: &AtomicBool) -> io::Result<ReadStep> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(ReadStep::Eof),
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                return Ok(ReadStep::Data);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(ReadStep::Stopped);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response. Head and body leave in a single `write_all`:
/// with two writes on a socket without `TCP_NODELAY`, Nagle's algorithm
/// holds the body back until the peer's delayed ACK, stalling back-to-back
/// keep-alive requests by tens of milliseconds.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body,
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP client — one request per connection
/// (`Connection: close`). What the loopback integration tests and the CI
/// `serve-smoke` job speak to the server with.
pub mod client {
    use serde_json::Value;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;

    /// Issues one request; returns `(status, body)`.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        let body = body.unwrap_or("");
        // One write for head and body, for the reason given on
        // `write_response`.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(request.as_bytes())?;
        stream.flush()?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
        let head = String::from_utf8_lossy(raw.get(..head_end).unwrap_or_default());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let body =
            String::from_utf8_lossy(raw.get(head_end + 4..).unwrap_or_default()).into_owned();
        Ok((status, body))
    }

    /// `POST /query` with a JSON body; returns `(status, parsed body)`.
    pub fn post_query(addr: &str, body: &Value) -> io::Result<(u16, Value)> {
        let (status, text) = request(addr, "POST", "/query", Some(&body.to_string()))?;
        let parsed = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((status, parsed))
    }

    /// `GET /stats`; returns `(status, parsed body)`.
    pub fn get_stats(addr: &str) -> io::Result<(u16, Value)> {
        let (status, text) = request(addr, "GET", "/stats", None)?;
        let parsed = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((status, parsed))
    }

    /// `POST /checkpoint`; returns `(status, parsed body)`.
    pub fn post_checkpoint(addr: &str) -> io::Result<(u16, Value)> {
        let (status, text) = request(addr, "POST", "/checkpoint", None)?;
        let parsed = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((status, parsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the bytes of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_head_and_body_leave_in_one_write() {
        let mut out = CountingWriter::default();
        write_response(&mut out, 200, r#"{"ok":true}"#, true).expect("in-memory write");
        let expected: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
            Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}";
        assert_eq!(out.writes, [expected]);
    }
}
