//! Scheduler-as-a-service: a crash-isolated, overload-safe daemon
//! around the soft-scheduling flow.
//!
//! The daemon ([`Server`]) accepts behavior graphs in the
//! [`hls_ir::textfmt`] wire format over TCP or a Unix socket, runs the
//! degradation-ladder flow ([`hls_flow::run_flow_degraded`]) on a
//! fixed worker pool, and streams one-line results back. Its load
//! discipline is explicit:
//!
//! * **bounded admission** — requests enter a fixed-capacity queue;
//!   when it is full they are *shed* with a typed, retryable
//!   `overloaded` rejection instead of buffered without bound;
//! * **deadlines** — each request carries (or inherits) a wall-clock
//!   deadline that is threaded into the flow's [`hls_ir::Budget`], so
//!   a slow request degrades down the ladder
//!   (portfolio → single-meta → list → bound-only) rather than
//!   holding a worker hostage;
//! * **crash isolation** — every request runs under
//!   `catch_unwind` inside its own fault-injection
//!   [`hls_ir::faultinject::RunScope`]; a panic poisons *that
//!   request's* answer (`ERR … kind=poisoned`) and nothing else;
//! * **graceful drain** — on SIGTERM the daemon stops accepting,
//!   finishes what is running, and answers what is queued bound-only;
//! * **schedule cache** — answers are cached under a canonical
//!   content hash ([`hls_ir::canon`]); a resubmitted graph answers
//!   from the cache, and an ECO-edited graph that *extends* a cached
//!   one replays only the delta through the incremental engine.
//!
//! The [`Client`] pairs the daemon with retry + exponential backoff
//! that distinguishes retryable rejections (overload, timeout) from
//! terminal ones (malformed input).

// The daemon must not bring itself down on behalf of one request:
// every fallible step on the request path is a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ScheduleCache};
pub use client::{Client, ClientError, RequestOpts, RetryPolicy};
pub use protocol::{
    Accepted, CacheStatus, ProtoError, Rejected, RejectKind, Request, Response,
};
pub use server::{BindAddr, ServeConfig, Server};
