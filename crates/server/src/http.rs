//! Minimal HTTP/1.1 over `std::net`: request and response types and the
//! server entry point.
//!
//! Enough of the protocol for the demo service and its tests: request
//! line + headers + `Content-Length` bodies in, status + headers + body
//! out, HTTP/1.1 persistent connections (`Connection: keep-alive`
//! semantics, including pipelined requests). [`HttpServer`] serves them
//! on the readiness loop in [`crate::event_loop`], which needs epoll: on
//! platforms other than Linux, [`HttpServer::spawn`] returns
//! [`io::ErrorKind::Unsupported`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cap on request body size (1 MiB). Single queries are tiny and even
/// bulk `/ingest` batches fit comfortably, so anything bigger is a client
/// bug or abuse; it is rejected with `413 Payload Too Large` and the
/// connection closes (the unread body cannot be skipped safely).
pub const MAX_BODY: usize = 1 << 20;

/// Cap on requests served over one persistent connection, so a chatty
/// client cannot hold one connection forever.
pub(crate) const MAX_REQUESTS_PER_CONNECTION: usize = 256;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path portion of the request target.
    pub path: String,
    /// The raw query string after `?` (empty when absent). The API is
    /// JSON-body based; the query string only carries per-request flags
    /// like `?trace=1`.
    pub query: String,
    /// Protocol version from the request line (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The value of a `key=value` query parameter (no percent-decoding;
    /// the API only uses plain flags). A bare `key` yields `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether a boolean query flag is set: `?name`, `?name=1` or
    /// `?name=true`.
    pub fn query_flag(&self, name: &str) -> bool {
        matches!(self.query_param(name), Some("" | "1" | "true"))
    }

    /// Whether the client wants the connection kept open after the
    /// response: HTTP/1.1 defaults to keep-alive unless `Connection:
    /// close`; earlier versions must opt in with `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// The body.
    pub body: Vec<u8>,
    /// Seconds for a `retry-after` header — shed responses (429/503)
    /// tell well-behaved clients when to come back.
    pub retry_after: Option<u64>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: impl ToString) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
            retry_after: None,
        }
    }

    /// An error status with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: crate::json::Json::obj([("error", crate::json::Json::str(message))])
                .to_string()
                .into_bytes(),
            retry_after: None,
        }
    }

    /// 200 with an HTML body (the demo landing page).
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    /// 200 with an arbitrary text body (the `/metrics` exposition).
    pub fn text(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// Attaches a `retry-after` header value (seconds).
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// The full wire form (status line + headers + body) as one buffer —
    /// what the event loop queues for vectored writes.
    pub(crate) fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let retry = self
            .retry_after
            .map(|s| format!("retry-after: {s}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{retry}connection: {}\r\n\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// The request handler signature.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Per-request-iteration connection control, consulted *before* the next
/// request is read off the wire — the cheapest place to shed: no parse,
/// no dispatch, no queueing.
#[derive(Clone, Copy, Debug)]
pub struct ConnControl {
    /// Keep-alive idle timeout: how long the connection may sit with
    /// nothing in flight before it is closed silently. An overload
    /// policy shrinks it to close parked connections sooner.
    pub idle_timeout: std::time::Duration,
    /// `Some(retry_after_secs)`: shed this connection now — a canned
    /// `503` with `retry-after` is written without reading a byte, and
    /// the connection closes.
    pub shed: Option<u64>,
}

impl Default for ConnControl {
    fn default() -> Self {
        ConnControl {
            idle_timeout: std::time::Duration::from_secs(10),
            shed: None,
        }
    }
}

/// The connection-policy signature: called once per request iteration
/// on every connection.
pub type ConnPolicy = Arc<dyn Fn() -> ConnControl + Send + Sync>;

/// A running server with its worker pool.
pub struct HttpServer;

/// Handle to a spawned server: address for clients, shutdown for tests.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Assembles a handle around the event-loop thread. The no-op wake
    /// connection in [`ServerHandle::shutdown`] ends its epoll wait (the
    /// listener turns readable).
    pub(crate) fn from_parts(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<()>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            stop,
            loop_thread: Some(thread),
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the event loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop's epoll wait with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (port 0 = ephemeral, for tests) and serves
    /// `handler` on `workers` threads behind one readiness-loop thread.
    /// Returns immediately; fails with [`io::ErrorKind::Unsupported`] on
    /// platforms without epoll.
    pub fn spawn(port: u16, workers: usize, handler: Handler) -> io::Result<ServerHandle> {
        Self::spawn_with_policy(port, workers, handler, Arc::new(ConnControl::default))
    }

    /// [`HttpServer::spawn`] with a connection policy: before each
    /// request is read, `policy` decides the idle timeout and whether to
    /// shed the connection outright (canned `503` + `retry-after`,
    /// written without reading the request — overload protection at the
    /// accept/read boundary, before any parse or queueing).
    pub fn spawn_with_policy(
        port: u16,
        workers: usize,
        handler: Handler,
        policy: ConnPolicy,
    ) -> io::Result<ServerHandle> {
        assert!(workers >= 1);
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        crate::event_loop::spawn(listener, workers, handler, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, http_post};
    use crate::json::Json;

    fn echo_server() -> ServerHandle {
        HttpServer::spawn(
            0,
            2,
            Arc::new(|req: &Request| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/ping") => Response::json(Json::str("pong")),
                ("POST", "/echo") => Response {
                    status: 200,
                    content_type: "application/json",
                    body: req.body.clone(),
                    retry_after: None,
                },
                _ => Response::error(404, "no such route"),
            }),
        )
        .unwrap()
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = echo_server();
        let (status, body) = http_get(server.addr(), "/ping").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, Json::str("pong"));

        let payload = Json::obj([("x", Json::Num(1.5)), ("tag", Json::str("香港"))]);
        let (status, body) = http_post(server.addr(), "/echo", &payload).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload);
    }

    #[test]
    fn unknown_route_is_404() {
        let server = echo_server();
        let (status, body) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        assert!(body.get("error").is_some());
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = echo_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let payload = Json::obj([("t", Json::Num(t as f64)), ("i", Json::Num(i as f64))]);
                    let (status, body) = http_post(addr, "/echo", &payload).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Subsequent requests fail to connect or to complete.
        let result = http_get(addr, "/ping");
        assert!(result.is_err() || result.unwrap().0 != 200);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![("content-type".into(), "application/json".into())],
            body: Vec::new(),
        };
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn query_string_parses_into_params_and_flags() {
        let req = |query: &str| Request {
            method: "GET".into(),
            path: "/query".into(),
            query: query.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: Vec::new(),
        };
        assert!(req("trace=1").query_flag("trace"));
        assert!(req("trace").query_flag("trace"));
        assert!(req("a=2&trace=true").query_flag("trace"));
        assert!(!req("trace=0").query_flag("trace"));
        assert!(!req("").query_flag("trace"));
        assert!(!req("notrace=1").query_flag("trace"));
        assert_eq!(req("a=2&b=x").query_param("b"), Some("x"));
        assert_eq!(req("a=2").query_param("b"), None);
    }

    #[test]
    fn keep_alive_defaults_follow_http_version() {
        let req = |version: &str, conn: Option<&str>| Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: version.into(),
            headers: conn
                .map(|v| vec![("connection".to_owned(), v.to_owned())])
                .unwrap_or_default(),
            body: Vec::new(),
        };
        assert!(req("HTTP/1.1", None).wants_keep_alive());
        assert!(!req("HTTP/1.1", Some("close")).wants_keep_alive());
        assert!(!req("HTTP/1.0", None).wants_keep_alive());
        assert!(req("HTTP/1.0", Some("keep-alive")).wants_keep_alive());
        assert!(req("HTTP/1.1", Some("Keep-Alive, Upgrade")).wants_keep_alive());
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use std::io::{BufRead, BufReader, Read, Write};

        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let read_one = |stream: &mut TcpStream| -> (u16, String, String) {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
            let mut connection = String::new();
            let mut content_length = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                let h = h.trim_end();
                if h.is_empty() {
                    break;
                }
                if let Some((k, v)) = h.split_once(':') {
                    match k.trim().to_ascii_lowercase().as_str() {
                        "connection" => connection = v.trim().to_owned(),
                        "content-length" => content_length = v.trim().parse().unwrap(),
                        _ => {}
                    }
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            (status, connection, String::from_utf8(body).unwrap())
        };

        for i in 0..3 {
            let payload = format!("{{\"i\": {i}}}");
            let req = format!(
                "POST /echo HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{payload}",
                payload.len()
            );
            stream.write_all(req.as_bytes()).unwrap();
            let (status, connection, body) = read_one(&mut stream);
            assert_eq!(status, 200, "request {i} on the shared connection");
            assert_eq!(connection, "keep-alive");
            assert_eq!(body, payload);
        }

        // An explicit close is honored: response says close, then EOF.
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let (status, connection, _) = read_one(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(connection, "close");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after Connection: close");
    }

    #[test]
    fn invalid_content_length_is_rejected_and_connection_closed() {
        use std::io::{Read, Write};

        let server = echo_server();
        for bad in ["abc", "99999999999999999999999", "-1", "+5"] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let payload = format!(
                "POST /echo HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nGET /ping HTTP/1.1\r\n\r\n"
            );
            stream.write_all(payload.as_bytes()).unwrap();
            let mut all = String::new();
            stream.read_to_string(&mut all).unwrap();
            // One 400 and a closed connection — the trailing bytes must
            // never be interpreted as a second request.
            assert!(all.starts_with("HTTP/1.1 400"), "{bad}: {all}");
            assert_eq!(all.matches("HTTP/1.1").count(), 1, "{bad}: {all}");
            assert!(all.contains("connection: close"));
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_and_connection_closed() {
        use std::io::{Read, Write};

        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Were the first header to win, the bytes the second one covers
        // would be answered as a smuggled second request.
        stream
            .write_all(
                b"POST /echo HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 22\r\n\r\n\
                  GET /ping HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 400"), "{all}");
        assert_eq!(all.matches("HTTP/1.1").count(), 1, "{all}");
        assert!(all.contains("connection: close"));
    }

    #[test]
    fn oversized_body_is_413_and_connection_closed() {
        use std::io::{Read, Write};

        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Declare a body one byte over the named limit; the server must
        // answer 413 (not a generic 400) before reading any of it, then
        // close so the unread bytes are never parsed as requests.
        let req = format!(
            "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 413"), "{all}");
        assert!(all.contains("Payload Too Large"), "{all}");
        assert!(all.contains(&format!("{MAX_BODY}-byte limit")), "{all}");
        assert!(all.contains("connection: close"));
        // A body exactly at the limit is still readable (no off-by-one).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = vec![b'x'; MAX_BODY];
        let head = format!("POST /echo HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        let mut first_line = [0u8; 12];
        stream.read_exact(&mut first_line).unwrap();
        assert_eq!(&first_line, b"HTTP/1.1 200");
    }

    #[test]
    fn chunked_bodies_are_rejected_and_connection_closed() {
        use std::io::{Read, Write};

        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A chunked body whose content could smuggle a second request if
        // it were left in the connection buffer.
        stream
            .write_all(
                b"POST /echo HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
                  24\r\nGET /ping HTTP/1.1\r\nhost: smuggled\r\n\r\n\r\n0\r\n\r\n",
            )
            .unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        // Exactly one response — the 400 — and the smuggled GET is never
        // answered because the connection closes.
        assert!(all.starts_with("HTTP/1.1 400"), "{all}");
        assert_eq!(all.matches("HTTP/1.1").count(), 1, "{all}");
        assert!(all.contains("connection: close"));
    }

    #[test]
    fn pipelined_requests_are_all_answered() {
        use std::io::{Read, Write};

        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Two back-to-back requests in one write; the second arrives while
        // the first is still being processed and must not be lost.
        stream
            .write_all(
                b"GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert_eq!(all.matches("HTTP/1.1 200 OK").count(), 2, "{all}");
        assert_eq!(all.matches("pong").count(), 2);
    }
}
