//! Soft scheduling for high level synthesis.
//!
//! This crate is the primary contribution of the reproduced paper —
//! Zhu & Gajski, *Soft Scheduling in High Level Synthesis* (DAC 1999):
//!
//! * [`soft`] — the formal framework (Section 3): scheduling states as
//!   precedence graphs, the *initial / correctness / incremental*
//!   conditions of Definition 3, snapshot extraction and checkable
//!   invariants (including threadedness, Definition 4, and hardness).
//! * [`ThreadedScheduler`] — Algorithm 1 (Section 4): the linear,
//!   online-optimal threaded scheduler. Each functional unit is a
//!   *thread*; scheduled operations are totally ordered within a thread
//!   and partially ordered across threads. `select` finds the
//!   diameter-minimising insertion position without speculation;
//!   `commit` updates the state by the six edge rules of Figure 2.
//! * [`meta`] — the four meta schedules of Section 5 (DFS, topological,
//!   path-based, list-based) plus seeded random orders for ablation.
//! * [`ExhaustiveScheduler`] — the naive `O(|V|² · |E|)` speculative
//!   implementation the paper describes and rejects; retained as the
//!   optimality oracle (Theorem 2) and the complexity baseline
//!   (Theorem 3).
//! * [`modulo`] — loop pipelining as soft scheduling: the
//!   [`ModuloScheduler`] reads time modulo an initiation interval
//!   (wrap-around unit reservation, recurrence-aware precedence over
//!   distance-carrying edges) and searches IIs upward from the
//!   certified `MII = max(ResMII, RecMII)` bound.
//! * [`refine`] — the soft-scheduling payoff (Section 1 / Figure 1):
//!   absorbing spill code, SSA move resolution and post-layout wire
//!   delays into an existing schedule *without* re-running scheduling,
//!   plus the "trivial fix" hard-schedule patching used as the
//!   comparison.
//!
//! # Example
//!
//! ```
//! use hls_ir::{bench_graphs, ResourceSet};
//! use threaded_sched::{meta::MetaSchedule, ThreadedScheduler};
//!
//! let g = bench_graphs::hal();
//! let resources = ResourceSet::classic(2, 2); // 2 ALUs, 2 multipliers
//! let order = MetaSchedule::Topological.order(&g, &resources)?;
//! let mut ts = ThreadedScheduler::new(g, resources)?;
//! ts.schedule_all(order)?;
//! assert!(ts.diameter() >= 6); // HAL critical path
//! let hard = ts.extract_hard();
//! assert_eq!(hard.length(ts.graph()), ts.diameter());
//! # Ok::<(), threaded_sched::SchedError>(())
//! ```

#![warn(missing_docs)]

pub mod exhaustive;
pub mod meta;
pub mod modulo;
pub mod reference;
pub mod refine;
pub mod soft;
mod threaded;

pub use exhaustive::ExhaustiveScheduler;
pub use modulo::{ModuloOutcome, ModuloScheduler};
pub use reference::ReferenceScheduler;
pub use soft::{OnlineScheduler, StateSnapshot};
pub use threaded::{Placement, RunOutcome, ThreadedScheduler};

use hls_ir::{IrError, OpId, OpKind};
use std::error::Error;
use std::fmt;

/// Renders a `catch_unwind` payload as text for
/// [`SchedError::Poisoned`] — panics carry `&str` or `String`
/// payloads in practice; anything else gets a generic tag.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Errors produced by the soft schedulers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchedError {
    /// The underlying IR rejected an operation (cycle, unknown op, ...).
    Ir(IrError),
    /// No thread (functional unit) can execute this operation kind.
    NoCompatibleUnit(OpId, OpKind),
    /// The operation id is outside the scheduler's graph.
    UnknownOp(OpId),
    /// An operation that must already be in the state is not.
    NotScheduled(OpId),
    /// A requested refinement would create a dependency cycle.
    WouldCycle(OpId),
    /// The baseline scheduler used by a meta schedule failed.
    Baseline(String),
    /// No modulo schedule exists (or was found within the eviction
    /// budget) at this initiation interval; the II search moves on.
    IiInfeasible(u64),
    /// The run's [`hls_ir::Budget`] expired (wall deadline or step
    /// quota) before a complete schedule was committed.
    Timeout,
    /// A scheduler (or a racing strategy) panicked mid-commit; its
    /// state is unusable. The payload names the panic / the strategy.
    Poisoned(String),
    /// A capacity limit was exceeded (e.g. delays, an II or a latency
    /// past a race's packed score range) — the input is too large for
    /// this engine.
    ResourceExhausted(String),
    /// A caller-supplied structure is internally inconsistent — e.g. a
    /// graft translation map with duplicate entries, which would
    /// silently alias two submitted operations onto one scheduled op
    /// (last-write-wins). Rejected up front; the state is untouched.
    Malformed(String),
    /// An incremental graft was asked to grow the state toward a
    /// graph that does not extend the mapped behavior (or carries
    /// loop edges the acyclic graft cannot honour); see
    /// [`ThreadedScheduler::refine_graft`].
    NotAnExtension,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Ir(e) => write!(f, "ir error: {e}"),
            SchedError::NoCompatibleUnit(v, k) => {
                write!(f, "no thread can execute operation {v} of kind {k}")
            }
            SchedError::UnknownOp(v) => write!(f, "unknown operation {v}"),
            SchedError::NotScheduled(v) => write!(f, "operation {v} is not scheduled"),
            SchedError::WouldCycle(v) => {
                write!(f, "refinement around operation {v} would create a cycle")
            }
            SchedError::Baseline(msg) => write!(f, "baseline scheduler failed: {msg}"),
            SchedError::IiInfeasible(ii) => {
                write!(f, "no modulo schedule at initiation interval {ii}")
            }
            SchedError::Timeout => write!(f, "scheduling budget expired"),
            SchedError::Poisoned(what) => write!(f, "scheduler poisoned: {what}"),
            SchedError::ResourceExhausted(what) => write!(f, "resource exhausted: {what}"),
            SchedError::Malformed(what) => write!(f, "malformed request: {what}"),
            SchedError::NotAnExtension => {
                write!(f, "target graph does not extend the scheduled behavior")
            }
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for SchedError {
    fn from(e: IrError) -> Self {
        SchedError::Ir(e)
    }
}
