//! A keep-alive HTTP/1.1 client over one loopback connection.
//!
//! The server's own `http::client` opens a connection per request, which
//! would mostly measure connection set-up; this one keeps a single
//! connection open for every request a load client sends. Connections
//! opened are counted process-wide so a regression to per-request
//! connections shows in `http.connections`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// Connections opened by every [`Conn`] in this process.
pub static CONNECTIONS: AtomicU64 = AtomicU64::new(0);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        CONNECTIONS.fetch_add(1, Ordering::Relaxed);
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            request: Vec::with_capacity(4096),
        })
    }

    /// Sends `POST path` with a JSON body and reads the whole response;
    /// returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.stream.write_all(&self.request)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("missing Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok((status, body))
    }
}
