//! Browser–server substrate for YASK (paper Fig 1, §3.2–3.3).
//!
//! The demo runs as a web service: clients POST spatial keyword queries
//! and follow-up why-not questions, the server answers with JSON, and the
//! server "caches users' initial spatial keyword queries until users give
//! up asking follow-up why-not questions". This crate reproduces that
//! service with zero external web dependencies:
//!
//! * [`json`] — a complete hand-rolled JSON value type, serializer and
//!   recursive-descent parser (serde_json is outside the approved
//!   dependency set);
//! * [`http`] — a minimal HTTP/1.1 request reader / response writer over
//!   `std::net`, plus a crossbeam-channel worker-pool server;
//! * [`api`] — the YASK REST endpoints (`/query`, `/whynot/explain`,
//!   `/whynot/preference`, `/whynot/keywords`, `/session/close`, …)
//!   bridging HTTP to the sharded [`yask_exec::Executor`] (which wraps
//!   [`yask_core::Yask`]) and [`yask_core::SessionStore`];
//! * [`coalesce`] — the time-window write coalescer: concurrent write
//!   requests share one group-commit fsync pair by default;
//! * [`metrics`] — the `GET /metrics` Prometheus text exposition over
//!   the `yask_obs` counters and latency histograms (per-query span
//!   traces are served by `GET /debug/slow` and inline via `?trace=1`);
//! * [`client`] — a tiny blocking HTTP client used by the integration
//!   tests, the benches and the demo example, with an opt-in retry
//!   loop (capped exponential backoff + jitter, honoring the server's
//!   `Retry-After` on 429/503 sheds).

pub mod api;
pub mod client;
pub mod coalesce;
pub mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;

pub use api::{ServiceConfig, SessionSweeper, YaskService};
pub use client::{
    http_get, http_get_text, http_post, http_post_retry, http_post_with_headers, retry_with,
    Reply, RetryPolicy,
};
pub use coalesce::{CoalesceConfig, WriteCoalescer, WriteError};
pub use event_loop::{Clock, SystemClock, TestClock, TimerWheel};
pub use http::{ConnControl, ConnPolicy, HttpServer, Request, Response, ServerHandle, MAX_BODY};
pub use json::Json;
