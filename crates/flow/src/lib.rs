//! The end-to-end HLS flow built around the soft scheduler.
//!
//! This is the system the paper's Section 1 sketches: scheduling runs
//! *once*, softly; the later phases — SSA φ resolution, register
//! allocation with spilling, functional-unit binding, floorplanning and
//! wire-delay estimation — refine the threaded schedule instead of
//! invalidating it. The final operation→step mapping is extracted only
//! at the very end ("the hard decision can be delayed to the desired
//! stage, for example, after place and route").
//!
//! Pipeline ([`run_flow`] / [`run_flow_source`]):
//!
//! 1. threaded (soft) scheduling by the configured [`Engine`];
//! 2. register allocation (left-edge), spilling until the register
//!    budget fits — spills are *absorbed* by the soft schedule;
//! 3. φ resolution: same-register φs vanish, others become moves;
//! 4. FU binding (threads are the binding) and interconnect estimation;
//! 5. floorplan placement (simulated annealing) and wire-delay
//!    annotation — long transfers are absorbed as wire-delay vertices;
//! 6. hard-schedule extraction, validation, FSMD and RTL emission.

// Fallibility is the crate's contract: every failure mode of the flow
// is a typed `FlowError`/`SimError`, never an unwrap (`DESIGN.md` §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod degrade;
mod flow;
mod fsmd;
pub mod sim;

pub use degrade::{
    run_flow_degraded, DegradeReason, DegradeRung, DegradeStep, DegradedOutcome,
};
pub use flow::{
    eco_flow, run_flow, run_flow_dfg, run_flow_source, EcoBase, Engine, FlowConfig, FlowError,
    FlowOutcome, FlowReport, PipelineReport, SequentialMeta,
};
pub use hls_phys::Floorplan;
pub use fsmd::{Fsmd, MicroOp};
pub use sim::{eval_dfg, simulate_datapath, synth_inputs, SimError};
