//! Parallel portfolio scheduling over the threaded scheduler.
//!
//! The paper's Section 5 (and our Figure 3 reproduction) shows that the
//! *meta schedule* — the order in which operations are fed to the
//! online scheduler — swings result quality by one or two control
//! states even on the small benchmarks, and more on random workloads.
//! Since the incremental engine made a single `schedule_all` run cheap
//! (`BENCH_2.json`: ~linear to 100k ops), we can afford to run *many*
//! meta schedules per design and keep the best. This crate does that
//! for two kinds of design:
//!
//! * [`portfolio`] — a **parallel portfolio**: the paper's four meta
//!   schedules plus seeded [`MetaSchedule::Random`] /
//!   [`MetaSchedule::RandomTopo`] perturbations race on OS threads.
//!   Every run probes the race's atomic *incumbent* — the best
//!   `(diameter, candidate)` pair completed so far — after each
//!   scheduled operation through the early-abort hook of
//!   `ThreadedScheduler::schedule_all_budgeted`. Because the state
//!   diameter is monotone under scheduling (Lemma 4), a run whose
//!   bound already rules out beating the incumbent can abort without
//!   changing the result.
//! * [`modulo`] — the **modulo portfolio** for loop pipelining: each
//!   candidate is an *(II, placement order)* pair — initiation
//!   intervals from the window above the certified
//!   `MII = max(ResMII, RecMII)` bound crossed with the paper metas
//!   (resolved over the kernel DAG) — racing behind one
//!   `(II, latency, candidate)` incumbent. Completions at the minimum
//!   feasible II prune every higher-II candidate.
//!
//! Both portfolios run on one private race executor (worker pool,
//! packed incumbent, panic containment, fold), so both winners are
//! *deterministic for a fixed candidate set regardless of thread count
//! or timing* (see `DESIGN.md` §7 for the argument).
//!
//! # Example
//!
//! ```
//! use hls_ir::{bench_graphs, Budget, ResourceSet};
//! use hls_search::{run_portfolio, PortfolioConfig};
//!
//! let g = bench_graphs::ewf();
//! let resources = ResourceSet::classic(2, 2);
//! let out = run_portfolio(&g, &resources, &PortfolioConfig::default(), &Budget::NONE)?;
//! // No schedule beats the certified lower bound.
//! assert!(out.diameter >= out.lower_bound);
//! println!("{} wins with {} states", out.winner_name, out.diameter);
//! # Ok::<(), threaded_sched::SchedError>(())
//! ```
//!
//! [`MetaSchedule::Random`]: threaded_sched::meta::MetaSchedule::Random
//! [`MetaSchedule::RandomTopo`]: threaded_sched::meta::MetaSchedule::RandomTopo

#![warn(missing_docs)]

pub mod modulo;
pub mod portfolio;
mod race;

pub use modulo::{
    run_modulo_portfolio, ModuloPortfolioOutcome, ModuloRunReport, PipelineConfig,
};
pub use portfolio::{
    base_candidates, race, run_portfolio, Candidate, PortfolioConfig, PortfolioOutcome,
    RaceOutcome, RaceWinner, RunReport,
};
pub use race::race_workers;
