//! A keep-alive HTTP/1.1 client connection: one request in flight, the
//! response read by `content-length`, and a reconnect whenever the
//! server announces `connection: close` (its per-connection request cap).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first: rollovers at the server's
    /// per-connection request cap, plus reconnects after errors.
    pub reconnects: u64,
    opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            reconnects: 0,
            opened: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one complete request and reads its response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream()?.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        if self.buf.len() > head_end + length {
            return Err(bad("unexpected bytes after the response"));
        }
        let body = self.buf[head_end..].to_vec();
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_owned())
}

/// Renders a request with the benchmark's fixed header set.
pub fn render(method: &str, target: &str, body: &str, extra_headers: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{extra_headers}\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}
