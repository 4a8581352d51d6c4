//! The readiness-based connection loop (epoll via the `polling` shim) —
//! the server's only connection loop. It needs epoll, so it runs on
//! Linux; elsewhere the shim's `Poller::new` fails and so does
//! [`HttpServer::spawn`](crate::http::HttpServer::spawn).
//!
//! One loop thread owns every socket: it accepts nonblocking, reads
//! request bytes into per-connection buffers, parses complete requests
//! incrementally (keep-alive, pipelining, and the smuggling hardening
//! documented on `try_parse`), and dispatches them to a fixed worker
//! pool. Workers run the handler and send serialized response bytes back
//! over a completion channel; the loop flushes them **in request order**
//! per connection via vectored writes. An idle keep-alive connection
//! therefore costs one registered fd and a few hundred buffered bytes —
//! not a parked worker thread, which is what lets ≤ pool-size workers
//! serve thousands of idle connections.
//!
//! ```text
//!             ┌────────────┐   jobs (token, seq, request)
//!   epoll ──▶ │ loop thread│ ──────────────────────────▶ workers × N
//!   events    │  accept    │ ◀────────────────────────── handler(req)
//!             │  read+parse│   done (token, seq, bytes)
//!             │  flush     │
//!             └────────────┘
//! ```
//!
//! **Connection states.** Each connection walks `reading → dispatched →
//! flushing → reading…` and exits via `draining` (close after the write
//! queue empties: request-cap reached, parse error, `connection: close`,
//! or an accept-boundary shed) or a silent close (clean client EOF, idle
//! timeout, I/O error).
//!
//! **Timeouts.** A hashed [`TimerWheel`] holds one
//! [`ConnControl::idle_timeout`](crate::http::ConnControl::idle_timeout)
//! deadline per connection, re-armed (and re-read from the
//! [`ConnPolicy`], so overload shrinks it) every time a response batch
//! finishes flushing. Expiry closes the connection silently, without a
//! status line. Time comes from an injected [`Clock`], so the wheel and
//! the idle logic are testable without real sleeps.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Interest, Poller};

use crate::http::{
    ConnPolicy, Handler, Request, Response, ServerHandle, MAX_BODY, MAX_REQUESTS_PER_CONNECTION,
};

/// Upper bound on the request head (request line + headers): the loop
/// buffers a connection's bytes until the head is complete, so it needs
/// an explicit cap against unterminated-header floods.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Per-readable-event read budget, so one firehose connection cannot
/// starve the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

/// Timer wheel granularity. Idle timeouts are seconds-scale, so a
/// coarse wheel is plenty and keeps the idle loop at ~waking per tick
/// only while timers are armed.
const TICK: Duration = Duration::from_millis(20);

const LISTENER_TOKEN: u64 = 0;

// ---------------------------------------------------------------------------
// Clock — injectable time
// ---------------------------------------------------------------------------

/// The loop's time source. Production uses [`SystemClock`]; tests inject
/// a [`TestClock`] and advance it by hand, so idle-timeout behavior is
/// asserted without sleeping through real timeouts.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// [`Clock`] backed by [`Instant::now`].
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A manually advanced [`Clock`] for tests: time stands still until
/// [`TestClock::advance`] moves it.
pub struct TestClock {
    base: Instant,
    offset: parking_lot::Mutex<Duration>,
}

impl TestClock {
    /// A clock frozen at the current instant.
    pub fn new() -> Self {
        TestClock {
            base: Instant::now(),
            offset: parking_lot::Mutex::new(Duration::ZERO),
        }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        *self.offset.lock() += d;
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.base + *self.offset.lock()
    }
}

// ---------------------------------------------------------------------------
// TimerWheel — hashed wheel with lazy deletion
// ---------------------------------------------------------------------------

/// A hashed timer wheel: deadlines land in `slots[tick % N]` and expire
/// when the cursor sweeps past their tick. Cancellation is *lazy*: a
/// re-armed connection bumps its generation counter and the stale entry
/// is discarded at expiry when its generation no longer matches — O(1)
/// re-arms, no removal scans.
pub struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    granularity: Duration,
    start: Instant,
    /// Last tick already swept.
    cursor: u64,
    len: usize,
}

#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    token: u64,
    generation: u64,
    deadline_tick: u64,
}

impl TimerWheel {
    /// A wheel of `slots` buckets at `granularity`, starting at `now`.
    pub fn new(slots: usize, granularity: Duration, now: Instant) -> Self {
        assert!(slots >= 2 && granularity > Duration::ZERO);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            start: now,
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.start).as_nanos() / self.granularity.as_nanos().max(1))
            as u64
    }

    /// The tick at (or just after) `at` — deadlines round *up* so a
    /// timer never fires before its instant.
    fn tick_ceil(&self, at: Instant) -> u64 {
        let gran = self.granularity.as_nanos().max(1);
        let offset = at.saturating_duration_since(self.start).as_nanos();
        offset.div_ceil(gran) as u64
    }

    /// Arms a deadline for `(token, generation)`. A deadline already in
    /// the past lands on the next sweep.
    pub fn insert(&mut self, token: u64, generation: u64, deadline: Instant) {
        let tick = self.tick_ceil(deadline).max(self.cursor + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(WheelEntry {
            token,
            generation,
            deadline_tick: tick,
        });
        self.len += 1;
    }

    /// Sweeps every tick up to `now`, returning the expired
    /// `(token, generation)` pairs. Entries whose tick lies a full wheel
    /// rotation (or more) ahead stay parked in their slot.
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, u64)> {
        let target = self.tick_of(now);
        let mut fired = Vec::new();
        while self.cursor < target {
            self.cursor += 1;
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let cursor = self.cursor;
            self.slots[slot].retain(|e| {
                if e.deadline_tick <= cursor {
                    fired.push((e.token, e.generation));
                    false
                } else {
                    true
                }
            });
        }
        self.len -= fired.len();
        fired
    }

    /// Armed entries (including stale generations not yet swept).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How long the owning loop may sleep without missing a sweep:
    /// one granularity while anything is armed, `None` when empty.
    pub fn next_wake(&self) -> Option<Duration> {
        if self.is_empty() {
            None
        } else {
            Some(self.granularity)
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental request parsing
// ---------------------------------------------------------------------------

/// Outcome of trying to parse one request off the front of a buffer.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// The buffer does not yet hold a complete request.
    NeedMore,
    /// One complete request, consuming the first `usize` buffer bytes.
    Complete(Box<Request>, usize),
    /// Protocol error: answer `(status, message)` and close. The
    /// remaining buffer bytes are untrustworthy (smuggling hardening)
    /// and must be discarded.
    Bad(u16, String),
}

/// Parses one request from the front of `buf`: malformed request line →
/// 400; any `transfer-encoding` → 400 (chunked smuggling); a
/// `content-length` that is not plain digits, or copies of it that
/// disagree → 400; body beyond [`MAX_BODY`] → 413; head beyond
/// [`MAX_HEAD_BYTES`] without its blank line → 400. Lines may end
/// `\r\n` or bare `\n`; header lines without a colon are ignored; a
/// request line without a version is `HTTP/1.0`.
pub(crate) fn try_parse(buf: &[u8]) -> Parsed {
    // Find the end of the head: the first empty line.
    let mut line_start = 0usize;
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut head_end = None;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            let mut line = &buf[line_start..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() && !lines.is_empty() {
                head_end = Some(i + 1);
                break;
            }
            if line.is_empty() {
                // A blank line where the request line belongs.
                return Parsed::Bad(400, "malformed request line".into());
            }
            lines.push(line);
            line_start = i + 1;
        }
    }
    let Some(head_end) = head_end else {
        return if buf.len() > MAX_HEAD_BYTES {
            Parsed::Bad(400, format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
        } else {
            Parsed::NeedMore
        };
    };

    let request_line = String::from_utf8_lossy(lines[0]);
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => return Parsed::Bad(400, "malformed request line".into()),
    };
    let version = parts.next().unwrap_or("HTTP/1.0").to_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };

    let mut headers = Vec::new();
    for line in &lines[1..] {
        let text = String::from_utf8_lossy(line);
        if let Some((k, v)) = text.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }

    // Chunked bodies are not implemented; on a persistent connection an
    // unread chunked body would be re-parsed as pipelined requests
    // (request smuggling), so reject and close.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Parsed::Bad(
            400,
            "transfer-encoding is not supported; send a content-length body".into(),
        );
    }
    // The length must be plain digits (`usize::from_str` also takes a
    // leading `+`), and repeated headers must agree: otherwise the bytes
    // one copy covers and another does not would be parsed as a
    // pipelined request — the same smuggling vector as above. A numeral
    // too long for `usize` is still a valid length, just an oversized
    // one: it saturates and gets the 413 below.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Parsed::Bad(400, format!("invalid content-length {v:?}"));
        }
        let n = v.parse::<usize>().unwrap_or(usize::MAX);
        if content_length.is_some_and(|first| first != n) {
            return Parsed::Bad(400, "conflicting content-length headers".into());
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Parsed::Bad(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"),
        );
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    Parsed::Complete(
        Box::new(Request {
            method,
            path,
            query,
            version,
            headers,
            body: buf[head_end..total].to_vec(),
        }),
        total,
    )
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Serialized responses being flushed, oldest first.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the queue front already written.
    write_offset: usize,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence expected on the wire — pipelined responses flush
    /// strictly in request order.
    next_flush: u64,
    /// Completed responses that arrived out of order.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched to workers, not yet completed.
    inflight: usize,
    /// Requests parsed on this connection (keep-alive cap).
    served: usize,
    /// Stop reading: client EOF, request cap, error, or `close` token.
    closed_read: bool,
    /// Close the socket once the write queue drains.
    close_after_flush: bool,
    /// Timer-wheel generation; stale wheel entries are skipped.
    generation: u64,
    /// Idle deadline (checked when the wheel fires).
    idle_deadline: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closed_read && !self.close_after_flush,
            writable: !self.write_queue.is_empty(),
        }
    }
}

/// One parsed request on its way to a worker.
struct Job {
    token: u64,
    seq: u64,
    req: Box<Request>,
    keep: bool,
}

/// One serialized response on its way back to the loop.
struct Done {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

pub(crate) fn spawn(
    listener: TcpListener,
    workers: usize,
    handler: Handler,
    policy: ConnPolicy,
) -> io::Result<ServerHandle> {
    spawn_with_clock(listener, workers, handler, policy, Arc::new(SystemClock))
}

pub(crate) fn spawn_with_clock(
    listener: TcpListener,
    workers: usize,
    handler: Handler,
    policy: ConnPolicy,
    clock: Arc<dyn Clock>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    #[cfg(unix)]
    let listener_fd = {
        use std::os::unix::io::AsRawFd;
        listener.as_raw_fd()
    };
    #[cfg(not(unix))]
    let listener_fd: polling::RawFd = unreachable!("event loop requires epoll");
    poller.add(listener_fd, LISTENER_TOKEN, Interest::READABLE)?;

    let stop = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = unbounded::<Job>();
    let (done_tx, done_rx) = unbounded::<Done>();

    let worker_handles: Vec<_> = (0..workers.max(1))
        .map(|_| {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let handler = handler.clone();
            let poller = poller.clone();
            std::thread::spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    // A panicking handler must not take its worker down:
                    // the request is answered 500 and its connection is
                    // closed, since what the panic left behind is unknown.
                    let outcome = catch_unwind(AssertUnwindSafe(|| handler(&job.req)));
                    let (bytes, close) = match outcome {
                        Ok(resp) => (resp.to_bytes(job.keep), !job.keep),
                        Err(_) => (
                            Response::error(500, "internal error while handling the request")
                                .to_bytes(false),
                            true,
                        ),
                    };
                    let _ = done_tx.send(Done {
                        token: job.token,
                        seq: job.seq,
                        bytes,
                        close,
                    });
                    let _ = poller.notify();
                }
            })
        })
        .collect();
    drop(job_rx);
    drop(done_tx);

    let loop_stop = stop.clone();
    let loop_thread = std::thread::spawn(move || {
        let mut lp = EventLoop {
            listener,
            poller,
            policy,
            clock,
            job_tx: Some(job_tx),
            done_rx,
            conns: HashMap::new(),
            wheel: None,
            next_token: LISTENER_TOKEN + 1,
            events: Vec::new(),
        };
        lp.run(&loop_stop);
        // Close the job channel so workers drain and exit, then join
        // them — ServerHandle::shutdown must leave no threads behind.
        drop(lp.job_tx.take());
        drop(lp);
        for h in worker_handles {
            let _ = h.join();
        }
    });

    Ok(ServerHandle::from_parts(addr, stop, loop_thread))
}

struct EventLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    policy: ConnPolicy,
    clock: Arc<dyn Clock>,
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<Done>,
    conns: HashMap<u64, Conn>,
    /// Created lazily on the first armed timer, anchored at loop start.
    wheel: Option<TimerWheel>,
    next_token: u64,
    events: Vec<polling::Event>,
}

impl EventLoop {
    fn run(&mut self, stop: &AtomicBool) {
        self.wheel = Some(TimerWheel::new(512, TICK, self.clock.now()));
        while !stop.load(Ordering::SeqCst) {
            let timeout = self
                .wheel
                .as_ref()
                .and_then(TimerWheel::next_wake)
                .unwrap_or(Duration::from_millis(500));
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, Some(timeout));
            if stop.load(Ordering::SeqCst) {
                self.events = events;
                break;
            }

            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.token, ev.readable, ev.writable);
                }
            }
            self.events = events;

            self.drain_completions();
            self.sweep_timers();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let control = (self.policy)();
            let token = self.next_token;
            self.next_token += 1;
            let now = self.clock.now();
            let mut conn = Conn {
                stream,
                read_buf: Vec::new(),
                write_queue: VecDeque::new(),
                write_offset: 0,
                next_seq: 0,
                next_flush: 0,
                pending: BTreeMap::new(),
                inflight: 0,
                served: 0,
                closed_read: false,
                close_after_flush: false,
                generation: 0,
                idle_deadline: now + control.idle_timeout,
                interest: Interest::READABLE,
            };
            if let Some(retry) = control.shed {
                // Accept-boundary shed: canned 503 without reading a
                // byte, then close — the overload path from PR 9.
                conn.closed_read = true;
                conn.close_after_flush = true;
                conn.write_queue.push_back(
                    Response::error(503, "server overloaded; request not read")
                        .with_retry_after(retry)
                        .to_bytes(false),
                );
                conn.interest = Interest::WRITABLE;
            }
            #[cfg(unix)]
            let fd = {
                use std::os::unix::io::AsRawFd;
                conn.stream.as_raw_fd()
            };
            #[cfg(not(unix))]
            let fd: polling::RawFd = unreachable!("event loop requires epoll");
            if self.poller.add(fd, token, conn.interest).is_err() {
                continue; // conn drops, socket closes
            }
            if let Some(w) = self.wheel.as_mut() {
                w.insert(token, conn.generation, conn.idle_deadline);
            }
            self.conns.insert(token, conn);
            // A shed response usually fits the socket buffer: flush now.
            self.flush(token);
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        if readable && self.read_ready(token) {
            return; // connection removed
        }
        if writable {
            self.flush(token);
        }
    }

    /// Reads and parses; returns `true` when the connection was removed.
    fn read_ready(&mut self, token: u64) -> bool {
        let mut jobs: Vec<Job> = Vec::new();
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return true;
            };
            if conn.closed_read {
                return false;
            }
            let mut total = 0usize;
            let mut saw_eof = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        total += n;
                        if total >= READ_BUDGET {
                            break; // stay fair; level-triggered epoll re-fires
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }

            // Parse every complete pipelined request off the buffer.
            while !dead && !conn.closed_read {
                match try_parse(&conn.read_buf) {
                    Parsed::NeedMore => break,
                    Parsed::Complete(req, consumed) => {
                        conn.read_buf.drain(..consumed);
                        conn.served += 1;
                        let keep =
                            req.wants_keep_alive() && conn.served < MAX_REQUESTS_PER_CONNECTION;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight += 1;
                        if !keep {
                            conn.closed_read = true;
                        }
                        jobs.push(Job { token, seq, req, keep });
                    }
                    Parsed::Bad(status, msg) => {
                        // The rest of the buffer is untrustworthy: drop
                        // it, answer in sequence, close after flushing.
                        conn.read_buf.clear();
                        conn.closed_read = true;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let bytes = Response::error(status, &msg).to_bytes(false);
                        conn.pending.insert(seq, (bytes, true));
                        break;
                    }
                }
            }

            if saw_eof && !dead {
                if !conn.closed_read && !conn.read_buf.is_empty() {
                    // EOF mid-request: best-effort 400 before closing.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(
                        seq,
                        (
                            Response::error(400, "connection closed mid-request").to_bytes(false),
                            true,
                        ),
                    );
                    conn.read_buf.clear();
                }
                conn.closed_read = true;
            }
        }
        if dead {
            self.remove(token);
            return true;
        }
        if let Some(tx) = &self.job_tx {
            for job in jobs {
                let _ = tx.send(job);
            }
        }
        self.pump(token)
    }

    /// Moves in-order completed responses into the write queue and
    /// flushes. Returns `true` when the connection was removed.
    fn pump(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        while let Some((bytes, close)) = conn.pending.remove(&conn.next_flush) {
            conn.next_flush += 1;
            conn.write_queue.push_back(bytes);
            if close {
                conn.close_after_flush = true;
                conn.closed_read = true;
                conn.pending.clear();
                break;
            }
        }
        self.flush(token)
    }

    /// Vectored-writes the queue. Returns `true` when the connection was
    /// removed (fully drained and closing, peer gone, or write error).
    fn flush(&mut self, token: u64) -> bool {
        // Read the clock before writing: once the reply is on the wire the
        // client may act on it (and, in tests, advance the clock), and an
        // idle deadline armed from a later reading would absorb that time.
        let now = self.clock.now();
        let mut dead = false;
        let mut rearm = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return true;
            };
            'write: while !conn.write_queue.is_empty() {
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(conn.write_queue.len().min(64));
                for (i, buf) in conn.write_queue.iter().take(64).enumerate() {
                    let start = if i == 0 { conn.write_offset } else { 0 };
                    slices.push(IoSlice::new(&buf[start..]));
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => {
                        dead = true;
                        break 'write;
                    }
                    Ok(mut n) => {
                        while n > 0 {
                            let front_left = conn.write_queue[0].len() - conn.write_offset;
                            if n >= front_left {
                                n -= front_left;
                                conn.write_queue.pop_front();
                                conn.write_offset = 0;
                            } else {
                                conn.write_offset += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'write,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break 'write;
                    }
                }
            }

            if !dead {
                let drained = conn.write_queue.is_empty();
                let quiesced = conn.inflight == 0 && conn.pending.is_empty();
                if drained && conn.close_after_flush {
                    dead = true;
                } else if drained && conn.closed_read && quiesced {
                    // Clean client EOF with nothing left to answer.
                    dead = true;
                } else {
                    // A response batch finishing returns the connection
                    // to idle: re-read the policy so an overloaded
                    // server shortens the keep-alive hold.
                    rearm = drained && quiesced && conn.served > 0;
                    let desired = conn.desired_interest();
                    if desired != conn.interest {
                        conn.interest = desired;
                        #[cfg(unix)]
                        {
                            use std::os::unix::io::AsRawFd;
                            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, desired);
                        }
                    }
                }
            }
        }
        if dead {
            self.remove(token);
            return true;
        }
        if rearm {
            let control = (self.policy)();
            if let Some(conn) = self.conns.get_mut(&token) {
                // Fresh generation lazily cancels the old wheel entry.
                conn.generation += 1;
                conn.idle_deadline = now + control.idle_timeout;
                let (generation, deadline) = (conn.generation, conn.idle_deadline);
                if let Some(w) = self.wheel.as_mut() {
                    w.insert(token, generation, deadline);
                }
            }
        }
        false
    }

    fn drain_completions(&mut self) {
        while let Some(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue; // connection died while the handler ran
            };
            conn.inflight -= 1;
            conn.pending.insert(done.seq, (done.bytes, done.close));
            self.pump(done.token);
        }
    }

    fn sweep_timers(&mut self) {
        let now = self.clock.now();
        let Some(wheel) = self.wheel.as_mut() else {
            return;
        };
        let fired = wheel.expire(now);
        for (token, generation) in fired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.generation != generation {
                continue; // lazily cancelled: the conn was re-armed
            }
            if conn.inflight > 0 || !conn.pending.is_empty() {
                // The handler is still working — that is server time,
                // not client idle time. Push the deadline out.
                conn.generation += 1;
                conn.idle_deadline = now + (self.policy)().idle_timeout;
                let (generation, deadline) = (conn.generation, conn.idle_deadline);
                if let Some(w) = self.wheel.as_mut() {
                    w.insert(token, generation, deadline);
                }
                continue;
            }
            if now >= conn.idle_deadline {
                // Idle (or write-stalled) past the policy deadline:
                // close silently — a 400 here could be mistaken for
                // the response to a request racing the timeout.
                self.remove(token);
            }
        }
    }

    fn remove(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            #[cfg(unix)]
            {
                use std::os::unix::io::AsRawFd;
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
            // conn.stream drops here, closing the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- parser ------------------------------------------------------------

    fn complete(buf: &[u8]) -> (Request, usize) {
        match try_parse(buf) {
            Parsed::Complete(req, n) => (*req, n),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_without_body() {
        let (req, n) = complete(b"GET /health?x=1 HTTP/1.1\r\nhost: t\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("t"));
        assert!(req.body.is_empty());
        assert_eq!(n, b"GET /health?x=1 HTTP/1.1\r\nhost: t\r\n\r\n".len());
    }

    #[test]
    fn parses_post_with_body_and_leftover_pipelined_bytes() {
        let raw = b"POST /q HTTP/1.1\r\ncontent-length: 4\r\n\r\nbodyGET / HTTP/1.1\r\n\r\n";
        let (req, n) = complete(raw);
        assert_eq!(req.body, b"body");
        // The second pipelined request parses from the leftover.
        let (req2, _) = complete(&raw[n..]);
        assert_eq!(req2.method, "GET");
    }

    #[test]
    fn incomplete_head_and_incomplete_body_need_more() {
        assert!(matches!(try_parse(b"GET / HTTP/1.1\r\nhos"), Parsed::NeedMore));
        assert!(matches!(
            try_parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Parsed::NeedMore
        ));
        assert!(matches!(try_parse(b""), Parsed::NeedMore));
    }

    #[test]
    fn bare_newlines_parse_like_the_blocking_reader() {
        let (req, _) = complete(b"GET /x HTTP/1.1\nhost: t\n\n");
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("t"));
    }

    #[test]
    fn malformed_request_line_is_400() {
        assert!(matches!(try_parse(b"GARBAGE\r\n\r\n"), Parsed::Bad(400, _)));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        match try_parse(raw) {
            Parsed::Bad(400, msg) => assert!(msg.contains("transfer-encoding")),
            other => panic!("expected Bad(400), got {other:?}"),
        }
    }

    #[test]
    fn unparseable_content_length_is_400() {
        for bad in ["banana", "+5"] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nhello");
            assert!(
                matches!(try_parse(raw.as_bytes()), Parsed::Bad(400, _)),
                "{bad}"
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_400_and_agreeing_ones_parse() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 5\r\n\r\nhello";
        match try_parse(raw) {
            Parsed::Bad(400, msg) => assert!(msg.contains("conflicting"), "{msg}"),
            other => panic!("expected Bad(400), got {other:?}"),
        }
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello";
        let (req, n) = complete(raw);
        assert_eq!(req.body, b"hello");
        assert_eq!(n, raw.len());
    }

    #[test]
    fn oversized_body_is_413_before_the_body_arrives() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(try_parse(raw.as_bytes()), Parsed::Bad(413, _)));
    }

    #[test]
    fn missing_version_defaults_to_http_10() {
        let (req, _) = complete(b"GET /\r\n\r\n");
        assert_eq!(req.version, "HTTP/1.0");
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn unterminated_head_is_bounded() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 16));
        assert!(matches!(try_parse(&raw), Parsed::Bad(400, _)));
    }

    // -- split-point property ----------------------------------------------

    use proptest::prelude::*;

    /// A valid request's wire bytes and the `Request` it must parse into.
    fn arb_request() -> impl Strategy<Value = (Vec<u8>, Request)> {
        (
            "[A-Z]{1,7}",
            "/[a-z0-9/]{0,8}",
            "[a-z0-9=&]{0,6}",
            0usize..3,
            proptest::collection::vec(("x-[a-z]{1,6}", "[!-~][ -~]{0,8}[!-~]"), 0..4),
            proptest::collection::vec(any::<u8>(), 0..40),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(method, path, query, version, mut headers, body, crlf, length)| {
                    let eol = if crlf { "\r\n" } else { "\n" };
                    let version = ["HTTP/1.1", "HTTP/1.0", ""][version];
                    let target = if query.is_empty() {
                        path.clone()
                    } else {
                        format!("{path}?{query}")
                    };
                    if length || !body.is_empty() {
                        headers.push(("content-length".into(), body.len().to_string()));
                    }
                    let mut wire =
                        format!("{method} {target} {version}").trim_end().to_owned() + eol;
                    for (k, v) in &headers {
                        wire += &format!("{k}: {v}{eol}");
                    }
                    wire += eol;
                    let mut wire = wire.into_bytes();
                    wire.extend_from_slice(&body);
                    let version = if version.is_empty() {
                        "HTTP/1.0"
                    } else {
                        version
                    };
                    let req = Request {
                        method,
                        path,
                        query,
                        version: version.into(),
                        headers,
                        body,
                    };
                    (wire, req)
                },
            )
    }

    /// Parses every complete request off the front of `buf`, as the loop
    /// does after each read, returning each with its consumed length.
    fn parse_all(buf: &mut Vec<u8>) -> Vec<(Request, usize)> {
        let mut out = Vec::new();
        loop {
            match try_parse(buf) {
                Parsed::NeedMore => return out,
                Parsed::Complete(req, n) => {
                    buf.drain(..n);
                    out.push((*req, n));
                }
                Parsed::Bad(status, msg) => panic!("valid stream rejected: {status} {msg}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Splitting a valid pipelined stream anywhere changes nothing:
        /// the prefix alone yields `NeedMore` or the leading request, and
        /// parsing the prefix, then the whole buffer, yields the same
        /// requests and consumed lengths as parsing the stream at once.
        #[test]
        fn any_split_point_parses_like_the_whole_stream(
            reqs in proptest::collection::vec(arb_request(), 1..5)
        ) {
            let stream: Vec<u8> = reqs.iter().flat_map(|(wire, _)| wire.clone()).collect();
            let whole: Vec<(Request, usize)> =
                reqs.iter().map(|(wire, req)| (req.clone(), wire.len())).collect();
            let mut whole_buf = stream.clone();
            prop_assert_eq!(&parse_all(&mut whole_buf), &whole);
            prop_assert!(whole_buf.is_empty());

            for split in 0..=stream.len() {
                match try_parse(&stream[..split]) {
                    Parsed::NeedMore => {}
                    Parsed::Complete(req, n) => {
                        prop_assert_eq!((*req, n), whole[0].clone());
                    }
                    Parsed::Bad(status, msg) => {
                        panic!("prefix of {split} bytes rejected: {status} {msg}")
                    }
                }
                let mut buf = stream[..split].to_vec();
                let mut got = parse_all(&mut buf);
                buf.extend_from_slice(&stream[split..]);
                got.extend(parse_all(&mut buf));
                prop_assert!(buf.is_empty(), "split {}", split);
                prop_assert_eq!(&got, &whole, "split {}", split);
            }
        }

        /// A valid request is never complete before its last byte.
        #[test]
        fn every_strict_prefix_of_a_request_needs_more((wire, _) in arb_request()) {
            for split in 0..wire.len() {
                prop_assert!(
                    matches!(try_parse(&wire[..split]), Parsed::NeedMore),
                    "prefix of {} / {} bytes",
                    split,
                    wire.len()
                );
            }
        }

        /// Whatever its case, padding, value and position, a
        /// `transfer-encoding` header is rejected with 400.
        #[test]
        fn any_transfer_encoding_header_is_400(
            (_, req) in arb_request(),
            name in arb_case("transfer-encoding"),
            (pad, value, at, crlf) in ("[ \t]{0,2}", "[ -~]{0,12}", 0usize..8, any::<bool>()),
        ) {
            let raw = render_with(&req, &format!("{pad}{name}{pad}:{pad}{value}"), at, crlf);
            let parsed = try_parse(&raw);
            prop_assert!(matches!(parsed, Parsed::Bad(400, _)), "{:?}", String::from_utf8_lossy(&raw));
        }

        /// Any `content-length` above `MAX_BODY` — however many digits,
        /// leading zeros included — is rejected with 413 before the body
        /// is read.
        #[test]
        fn any_oversized_content_length_is_413(
            (_, mut req) in arb_request(),
            name in arb_case("content-length"),
            (zeros, digits) in ("0{0,3}", arb_oversized_length()),
            (at, crlf) in (0usize..8, any::<bool>()),
        ) {
            req.headers.retain(|(k, _)| k != "content-length");
            let raw = render_with(&req, &format!("{name}: {zeros}{digits}"), at, crlf);
            let parsed = try_parse(&raw);
            prop_assert!(matches!(parsed, Parsed::Bad(413, _)), "{:?}", String::from_utf8_lossy(&raw));
        }

        /// A head that outgrows `MAX_HEAD_BYTES` without its blank line is
        /// rejected with 400 instead of buffering without bound.
        #[test]
        fn an_overlong_head_without_a_blank_line_is_400(
            lines in proptest::collection::vec("[!-~][ -~]{0,60}", 1..6),
            (crlf, tail) in (any::<bool>(), 0usize..64),
        ) {
            let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            let mut raw = Vec::new();
            for line in lines.iter().cycle() {
                if raw.len() > MAX_HEAD_BYTES + tail {
                    break;
                }
                raw.extend_from_slice(line.as_bytes());
                raw.extend_from_slice(eol);
            }
            raw.truncate(MAX_HEAD_BYTES + 1 + tail);
            prop_assert!(matches!(try_parse(&raw), Parsed::Bad(400, _)));
        }
    }

    /// `name` with each letter's case chosen at random.
    fn arb_case(name: &'static str) -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<bool>(), name.len()).prop_map(move |upper| {
            name.chars()
                .zip(upper)
                .map(|(c, up)| if up { c.to_ascii_uppercase() } else { c })
                .collect()
        })
    }

    /// Decimal lengths above `MAX_BODY`: near the limit, and far past
    /// what fits in a `u64`.
    fn arb_oversized_length() -> impl Strategy<Value = String> {
        prop_oneof![
            (MAX_BODY + 1..MAX_BODY * 64).prop_map(|n| n.to_string()),
            "[1-9][0-9]{7,30}",
        ]
    }

    /// The head of `req` with `line` inserted among its header lines
    /// (position `at`), ending in the blank line.
    fn render_with(req: &Request, line: &str, at: usize, crlf: bool) -> Vec<u8> {
        let target = if req.query.is_empty() {
            req.path.clone()
        } else {
            format!("{}?{}", req.path, req.query)
        };
        let mut lines = vec![format!("{} {target} {}", req.method, req.version)];
        lines.extend(req.headers.iter().map(|(k, v)| format!("{k}: {v}")));
        lines.insert(1 + at % lines.len(), line.to_owned());
        let eol = if crlf { "\r\n" } else { "\n" };
        (lines.join(eol) + eol + eol).into_bytes()
    }

    // -- clock + wheel (the injected-clock idle-timeout harness) -----------

    #[test]
    fn test_clock_advances_only_by_hand() {
        let clock = TestClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), t0 + Duration::from_secs(5));
    }

    #[test]
    fn wheel_fires_exactly_once_at_the_deadline() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(16, Duration::from_millis(100), clock.now());
        wheel.insert(7, 0, clock.now() + Duration::from_millis(350));
        clock.advance(Duration::from_millis(300));
        assert!(wheel.expire(clock.now()).is_empty(), "not due yet");
        clock.advance(Duration::from_millis(100));
        assert_eq!(wheel.expire(clock.now()), vec![(7, 0)]);
        assert!(wheel.is_empty());
        clock.advance(Duration::from_secs(10));
        assert!(wheel.expire(clock.now()).is_empty(), "fires once");
    }

    #[test]
    fn wheel_survives_full_rotations() {
        // A deadline more than one rotation ahead must not fire early
        // when the cursor sweeps its slot the first time around.
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(4, Duration::from_millis(10), clock.now());
        wheel.insert(1, 0, clock.now() + Duration::from_millis(95));
        clock.advance(Duration::from_millis(50));
        assert!(wheel.expire(clock.now()).is_empty());
        clock.advance(Duration::from_millis(50));
        assert_eq!(wheel.expire(clock.now()), vec![(1, 0)]);
    }

    #[test]
    fn stale_generations_surface_for_lazy_cancellation() {
        // Re-arming is modelled by bumping the generation: the wheel
        // still returns the stale entry, and the owner skips it.
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        wheel.insert(3, 0, clock.now() + Duration::from_millis(20));
        wheel.insert(3, 1, clock.now() + Duration::from_millis(60));
        clock.advance(Duration::from_millis(30));
        assert_eq!(wheel.expire(clock.now()), vec![(3, 0)]);
        clock.advance(Duration::from_millis(40));
        assert_eq!(wheel.expire(clock.now()), vec![(3, 1)]);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_sweep() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        clock.advance(Duration::from_millis(500));
        assert!(wheel.expire(clock.now()).is_empty());
        wheel.insert(9, 2, clock.now() - Duration::from_millis(100));
        clock.advance(Duration::from_millis(10));
        assert_eq!(wheel.expire(clock.now()), vec![(9, 2)]);
    }

    #[test]
    fn wheel_reports_wakeup_need() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        assert_eq!(wheel.next_wake(), None);
        wheel.insert(1, 0, clock.now() + Duration::from_millis(25));
        assert_eq!(wheel.next_wake(), Some(Duration::from_millis(10)));
        clock.advance(Duration::from_millis(30));
        wheel.expire(clock.now());
        assert_eq!(wheel.next_wake(), None);
    }

    // -- idle timeout through the event loop, injected clock ---------------

    /// The satellite fix: the keep-alive idle-timeout test advances a
    /// [`TestClock`] instead of sleeping through a real timeout. The
    /// only real waiting is the loop's (20 ms) tick cadence.
    #[test]
    #[cfg(target_os = "linux")]
    fn idle_keep_alive_connection_is_closed_by_the_wheel_without_real_sleeps() {
        use crate::http::ConnControl;
        use std::io::Read;

        let clock = Arc::new(TestClock::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler: Handler = Arc::new(|_req| Response::text("text/plain", "ok"));
        let policy: ConnPolicy = Arc::new(|| ConnControl {
            idle_timeout: Duration::from_secs(10),
            shed: None,
        });
        let mut server =
            spawn_with_clock(listener, 2, handler, policy, clock.clone()).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 256];
        let n = stream.read(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n]).unwrap().starts_with("HTTP/1.1 200"));

        // Ten virtual seconds pass in one step; no real 10 s sleep.
        clock.advance(Duration::from_secs(11));

        // The wheel sweeps on the next tick and closes the idle
        // connection silently (EOF, no status line).
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = stream.read(&mut buf).unwrap();
        assert_eq!(n, 0, "idle connection must be closed silently");
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn active_connection_survives_virtual_idle_expiry_while_handler_runs() {
        use crate::http::ConnControl;
        use std::io::Read;

        let clock = Arc::new(TestClock::new());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler_gate = gate.clone();
        let handler: Handler = Arc::new(move |_req| {
            handler_gate.wait(); // park until the test advanced the clock
            Response::text("text/plain", "late")
        });
        let policy: ConnPolicy = Arc::new(|| ConnControl {
            idle_timeout: Duration::from_secs(10),
            shed: None,
        });
        let mut server =
            spawn_with_clock(listener, 2, handler, policy, clock.clone()).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        // Give the loop a beat to dispatch, then expire the deadline
        // while the handler is mid-flight: the conn must NOT be closed,
        // because in-flight handler time is server time.
        std::thread::sleep(Duration::from_millis(100));
        clock.advance(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(100));
        gate.wait();
        let mut buf = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut chunk = [0u8; 256];
        let n = stream.read(&mut chunk).unwrap();
        buf.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
        assert!(text.contains("late"));
        server.shutdown();
    }

    /// A handler panic costs one request, not a worker: each panicking
    /// request is answered 500 on a closed connection, and with only two
    /// workers a third panic would otherwise leave nobody to serve the
    /// normal request that follows.
    #[test]
    #[cfg(target_os = "linux")]
    fn handler_panics_answer_500_and_keep_every_worker() {
        use crate::http::ConnControl;
        use std::io::Read;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler: Handler = Arc::new(|req| {
            if req.path == "/boom" {
                panic!("handler failure injected by the test");
            }
            Response::text("text/plain", "ok")
        });
        let policy: ConnPolicy = Arc::new(|| ConnControl {
            idle_timeout: Duration::from_secs(30),
            shed: None,
        });
        let mut server = spawn(listener, 2, handler, policy).unwrap();

        let exchange = |path: &str| -> String {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let req = format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n");
            stream.write_all(req.as_bytes()).unwrap();
            let mut buf = Vec::new();
            stream
                .read_to_end(&mut buf)
                .expect("the server must answer and close");
            String::from_utf8_lossy(&buf).into_owned()
        };
        for _ in 0..3 {
            let reply = exchange("/boom");
            assert!(reply.starts_with("HTTP/1.1 500"), "got: {reply}");
            assert!(reply.contains("connection: close"), "got: {reply}");
        }
        let reply = exchange("/fine");
        assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
        server.shutdown();
    }

    /// The connection-scaling soak: ≥ 256 sockets held open and
    /// keep-alive concurrently, each pipelining bursts of requests, all
    /// answered in order through a 4-worker pool. Handler concurrency
    /// (the dispatch queue's drain rate) must stay bounded by the worker
    /// count — idle and parked connections cost an fd, not a thread —
    /// and once the policy flips to critical, the accept boundary sheds
    /// new connections with a canned 503 before reading a byte.
    #[test]
    #[cfg(target_os = "linux")]
    fn soak_256_pipelined_connections_bounded_workers_and_shedding() {
        use crate::http::ConnControl;
        use std::io::Read;
        use std::sync::atomic::AtomicUsize;

        const CONNS: usize = 256;
        const DRIVERS: usize = 8;
        const PER_DRIVER: usize = CONNS / DRIVERS;
        const PIPELINE: usize = 4;
        const ROUNDS: usize = 2;
        const WORKERS: usize = 4;

        let inflight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let (hi, inf, srv) = (high_water.clone(), inflight.clone(), served.clone());
        let handler: Handler = Arc::new(move |req| {
            let cur = inf.fetch_add(1, Ordering::SeqCst) + 1;
            hi.fetch_max(cur, Ordering::SeqCst);
            let body = format!("ok:{}", req.path);
            srv.fetch_add(1, Ordering::SeqCst);
            inf.fetch_sub(1, Ordering::SeqCst);
            Response::text("text/plain", body)
        });
        let critical = Arc::new(AtomicBool::new(false));
        let crit = critical.clone();
        let policy: ConnPolicy = Arc::new(move || ConnControl {
            idle_timeout: Duration::from_secs(30),
            shed: crit.load(Ordering::SeqCst).then_some(7),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut server = spawn(listener, WORKERS, handler, policy).unwrap();
        let addr = server.addr();

        // Each driver thread holds PER_DRIVER sockets open for the whole
        // soak, so all 256 connections coexist; pipelined bursts go out
        // per round and the in-order responses are read back per socket.
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|d| {
                std::thread::spawn(move || {
                    let mut socks: Vec<TcpStream> = (0..PER_DRIVER)
                        .map(|_| {
                            let s = TcpStream::connect(addr).unwrap();
                            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            s
                        })
                        .collect();
                    for round in 0..ROUNDS {
                        for (c, s) in socks.iter_mut().enumerate() {
                            let mut burst = Vec::new();
                            for p in 0..PIPELINE {
                                burst.extend_from_slice(
                                    format!("GET /{d}-{c}-{round}-{p} HTTP/1.1\r\n\r\n")
                                        .as_bytes(),
                                );
                            }
                            s.write_all(&burst).unwrap();
                        }
                        for (c, s) in socks.iter_mut().enumerate() {
                            let mut got = String::new();
                            let mut chunk = [0u8; 4096];
                            while got.matches("HTTP/1.1 200").count() < PIPELINE {
                                let n = s.read(&mut chunk).unwrap();
                                assert!(n > 0, "server closed a kept-alive soak conn");
                                got.push_str(&String::from_utf8_lossy(&chunk[..n]));
                            }
                            // In-order flush: responses carry the request
                            // path back, in pipeline order.
                            for p in 0..PIPELINE {
                                let a = got.find(&format!("ok:/{d}-{c}-{round}-{p}"));
                                assert!(a.is_some(), "missing response {p} on conn {d}-{c}");
                            }
                        }
                    }
                    socks // keep them open until the test joins
                })
            })
            .collect();
        let held: Vec<Vec<TcpStream>> = drivers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(served.load(Ordering::SeqCst), CONNS * PIPELINE * ROUNDS);
        let high = high_water.load(Ordering::SeqCst);
        assert!(
            high <= WORKERS,
            "handler concurrency {high} exceeded the {WORKERS}-worker pool"
        );

        // Critical: the accept boundary sheds new connections with a
        // canned 503 + retry-after, written without reading a byte.
        critical.store(true, Ordering::SeqCst);
        let mut shed_conn = TcpStream::connect(addr).unwrap();
        shed_conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match shed_conn.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("shed read failed: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
        assert!(text.to_lowercase().contains("retry-after: 7"), "got: {text}");
        drop(held);
        server.shutdown();
    }
}
