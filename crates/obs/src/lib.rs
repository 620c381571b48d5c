//! # hls-obs — zero-dependency structured observability
//!
//! One leaf crate threads telemetry through the whole engine
//! (ir → core → search → flow → serve) without pulling in a single
//! external dependency:
//!
//! * **Span recorder** ([`recorder`]) — a lock-free per-thread ring
//!   of fixed capacity. The owning thread is the only writer; each
//!   slot carries a seqlock stamp so concurrent snapshots read
//!   consistently or skip. No allocation in steady state; on wrap
//!   the newest events win.
//! * **Metrics registry** ([`metrics`]) — typed counters (sharded
//!   eight ways against cacheline contention) and log2-bucketed
//!   latency histograms, all plain atomics.
//! * **Exporters** ([`export`]) — Chrome `trace_event` JSON for
//!   timelines and a flat JSON metrics snapshot; [`flight`] dumps
//!   both on `catch_unwind` so panics leave a post-mortem.
//! * **Leveled logging** ([`log`]) — `HLS_LOG`-filtered events to
//!   stderr and (when recording) the ring.
//!
//! ## Cost model
//!
//! Three gates, cheapest first:
//!
//! 1. **Compile-time** — built with `--no-default-features` the
//!    [`COMPILED`] constant is `false` and every macro body is dead
//!    code the optimizer deletes.
//! 2. **Runtime master switch** — [`enabled`] is one relaxed atomic
//!    load and a predictable branch. This is the *entire* cost at
//!    every instrumentation point while recording is off, which is
//!    what the BENCH_7 2% microbench gate measures.
//! 3. **Sampling** — with recording on, ring traffic (not counters
//!    or histograms) can be thinned to every n-th event via
//!    [`recorder::set_sample_every`].
//!
//! ## Quick start
//!
//! ```
//! hls_obs::set_enabled(true);
//! {
//!     let _span = hls_obs::obs_span!(PortfolioRace, "base-race");
//!     hls_obs::obs_count!(StrategySpawned);
//! }
//! let trace = hls_obs::export::chrome_trace_json(&hls_obs::recorder::snapshot_events());
//! assert!(trace.contains("portfolio:race"));
//! hls_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod flight;
pub mod log;
pub mod metrics;
pub mod recorder;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub use log::Level;
pub use metrics::{Counter, Hist};
pub use recorder::{Phase, SpanGuard};

/// `true` when the crate was built with the `recorder` feature (the
/// default). `false` turns every macro into statically dead code.
pub const COMPILED: bool = cfg!(feature = "recorder");

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The runtime master switch. One relaxed load; this is the whole
/// per-probe cost while recording is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Both gates at once — what the macros test.
#[inline(always)]
pub fn recording() -> bool {
    COMPILED && enabled()
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

/// A process-unique non-zero trace id. Seeded once from the clock so
/// ids from successive daemon restarts don't collide in aggregated
/// logs; subsequent ids are a cheap counter.
pub fn next_trace_id() -> u64 {
    let prev = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    if prev == 0 {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15)
            | 1;
        let seed = (seed ^ seed.rotate_left(31)).wrapping_mul(0x9e3779b97f4a7c15) | 1;
        NEXT_TRACE_ID.store(seed.wrapping_add(1), Ordering::Relaxed);
        return seed;
    }
    prev
}

/// Opens a span over a [`Phase`]; records when the guard drops.
/// Bind the result — `let _span = obs_span!(...)` — so the span
/// covers the scope.
///
/// Forms: `obs_span!(Phase)`, `obs_span!(Phase, label)`,
/// `obs_span!(Phase, label, arg)` where `label: &str` and
/// `arg: u64`. Label and arg expressions are **not evaluated**
/// unless recording is on.
#[macro_export]
macro_rules! obs_span {
    ($phase:ident) => {
        $crate::obs_span!($phase, "", 0u64)
    };
    ($phase:ident, $label:expr) => {
        $crate::obs_span!($phase, $label, 0u64)
    };
    ($phase:ident, $label:expr, $arg:expr) => {
        if $crate::recording() {
            $crate::recorder::span($crate::Phase::$phase, $label, $arg)
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// Records an instant event: `obs_instant!(Phase)`,
/// `obs_instant!(Phase, label)`, `obs_instant!(Phase, label, arg)`.
/// Arguments are not evaluated unless recording is on.
#[macro_export]
macro_rules! obs_instant {
    ($phase:ident) => {
        $crate::obs_instant!($phase, "", 0u64)
    };
    ($phase:ident, $label:expr) => {
        $crate::obs_instant!($phase, $label, 0u64)
    };
    ($phase:ident, $label:expr, $arg:expr) => {
        if $crate::recording() {
            $crate::recorder::instant($crate::Phase::$phase, $label, $arg);
        }
    };
}

/// Bumps a [`Counter`] (by 1, or by a given amount):
/// `obs_count!(SelectCalls)` / `obs_count!(SelectCalls, n)`. The
/// hot-path form: one relaxed load and branch when off, one sharded
/// `fetch_add` when on.
#[macro_export]
macro_rules! obs_count {
    ($counter:ident) => {
        $crate::obs_count!($counter, 1u64)
    };
    ($counter:ident, $n:expr) => {
        if $crate::recording() {
            $crate::metrics::counter_add($crate::Counter::$counter, $n);
        }
    };
}

/// Records a sample into a [`Hist`]:
/// `obs_hist!(EcoGraftUs, micros)`.
#[macro_export]
macro_rules! obs_hist {
    ($hist:ident, $us:expr) => {
        if $crate::recording() {
            $crate::metrics::hist_record($crate::Hist::$hist, $us);
        }
    };
}

/// Emits a leveled log event with `format!` syntax:
/// `obs_log!(Info, "serve", "listening on {addr}")`. Unlike the
/// recording macros, logging is governed by `HLS_LOG` alone — the
/// daemon logs whether or not tracing is on. The format arguments
/// are not evaluated when the level is filtered out.
#[macro_export]
macro_rules! obs_log {
    ($level:ident, $target:expr, $($fmt:tt)+) => {
        if $crate::COMPILED && $crate::log::log_enabled($crate::Level::$level) {
            $crate::log::log_event($crate::Level::$level, $target, &format!($($fmt)+));
        }
    };
}

/// `obs_log!(Error, ...)` shorthand.
#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($fmt:tt)+) => { $crate::obs_log!(Error, $target, $($fmt)+) };
}

/// `obs_log!(Warn, ...)` shorthand.
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($fmt:tt)+) => { $crate::obs_log!(Warn, $target, $($fmt)+) };
}

/// `obs_log!(Info, ...)` shorthand.
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($fmt:tt)+) => { $crate::obs_log!(Info, $target, $($fmt)+) };
}

/// `obs_log!(Debug, ...)` shorthand.
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($fmt:tt)+) => { $crate::obs_log!(Debug, $target, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_switch_round_trips() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        assert_eq!(recording(), COMPILED);
        set_enabled(false);
        assert!(!enabled());
        assert!(!recording());
        set_enabled(was);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        let c = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn macros_are_inert_when_disabled() {
        set_enabled(false);
        let before = metrics::counter_get(Counter::SelectCalls);
        obs_count!(SelectCalls);
        let _span = obs_span!(FlowSchedule, "never-recorded");
        obs_instant!(DegradeRung, "never-recorded");
        obs_hist!(FlowScheduleUs, 123);
        assert_eq!(metrics::counter_get(Counter::SelectCalls), before);
    }
}
