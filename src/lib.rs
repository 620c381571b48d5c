//! # soft-hls
//!
//! A reproduction of **Zhu & Gajski, "Soft Scheduling in High Level
//! Synthesis" (DAC 1999)** as a complete, adoptable HLS library.
//!
//! The paper's contribution — the soft-scheduling framework and the
//! linear, online-optimal *threaded scheduler* — lives in
//! [`threaded_sched`]. Everything it is evaluated against or depends on
//! is built from scratch in the sibling crates, re-exported here:
//!
//! * [`ir`] — precedence-graph IR, benchmark DFGs, generators;
//! * [`lang`] — behavioral language front end (SSA, φ nodes);
//! * [`sched`] — the soft/threaded scheduler (the paper);
//! * [`baselines`] — ASAP, ALAP, list and force-directed scheduling;
//! * [`alloc`] — lifetimes, left-edge registers, spilling, interconnect;
//! * [`phys`] — floorplan, simulated-annealing placement, wire delays;
//! * [`search`] — the parallel portfolio scheduler (meta schedules race
//!   on OS threads behind an atomic incumbent), plus the modulo
//!   portfolio that races meta orders per candidate initiation
//!   interval for loop pipelining;
//! * [`flow`] — the end-to-end flow producing an FSMD and RTL skeleton;
//! * [`serve`] — the scheduling daemon: bounded admission, per-request
//!   deadlines and crash isolation, graceful drain, and a canonical
//!   content-hash schedule cache with an ECO-delta fast path.
//!
//! ## Quickstart
//!
//! ```
//! use soft_hls::ir::{bench_graphs, ResourceSet};
//! use soft_hls::sched::{meta::MetaSchedule, ThreadedScheduler};
//!
//! let g = bench_graphs::hal();
//! let resources = ResourceSet::classic(2, 2);
//! let order = MetaSchedule::ListBased.order(&g, &resources)?;
//! let mut ts = ThreadedScheduler::new(g, resources)?;
//! ts.schedule_all(order)?;
//! println!("HAL schedules in {} control states", ts.diameter());
//! # Ok::<(), soft_hls::sched::SchedError>(())
//! ```
//!
//! See `README.md` for the architecture overview and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every table and figure.

pub use hls_alloc as alloc;
pub use hls_baselines as baselines;
pub use hls_flow as flow;
pub use hls_ir as ir;
pub use hls_lang as lang;
pub use hls_phys as phys;
pub use hls_search as search;
pub use hls_serve as serve;
pub use threaded_sched as sched;
