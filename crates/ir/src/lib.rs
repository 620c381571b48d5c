//! Precedence-graph intermediate representation for high level synthesis.
//!
//! This crate implements Definition 1 of Zhu & Gajski, *Soft Scheduling in
//! High Level Synthesis* (DAC 1999): a precedence graph is a directed acyclic
//! graph `G = <V, E, D>` with a delay function `D : V -> N`. On top of the
//! graph type it provides:
//!
//! * typed operations ([`OpKind`]) and resource classes ([`ResourceClass`]),
//! * the classical HLS delay model ([`DelayModel`]),
//! * graph algorithms used throughout the scheduler stack — topological
//!   orders, source/sink distances, diameter, critical paths, the
//!   longest-path cover of the path-based meta order, transitive closure ([`algo`], [`BitMatrix`]) and the
//!   sub-quadratic chain-cover reachability index ([`reach`]), a
//!   reachability oracle and tooling surface (the scheduler keeps no
//!   index),
//! * the four benchmark data-flow graphs evaluated in the paper
//!   ([`bench_graphs`]: HAL, AR, EF/elliptic, FIR) plus the Figure 1
//!   motivating example,
//! * deterministic random DFG generators for property tests and benchmarks
//!   ([`generate`]),
//! * DOT export for debugging ([`dot`]).
//!
//! # Example
//!
//! ```
//! use hls_ir::{PrecedenceGraph, OpKind, DelayModel, algo};
//!
//! let dm = DelayModel::classic();
//! let mut g = PrecedenceGraph::new();
//! let a = g.add_op(OpKind::Mul, dm.delay_of(OpKind::Mul), "a");
//! let b = g.add_op(OpKind::Add, dm.delay_of(OpKind::Add), "b");
//! g.add_edge(a, b)?;
//! assert_eq!(algo::diameter(&g), 3); // mul(2) + add(1)
//! # Ok::<(), hls_ir::IrError>(())
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod bench_graphs;
mod bitmatrix;
pub mod budget;
pub mod canon;
pub mod dot;
pub mod faultinject;
pub mod generate;
pub mod load;
mod graph;
mod op;
pub mod reach;
mod resources;
pub mod schedule;
pub mod sim_operands;
pub mod textfmt;

pub use bitmatrix::BitMatrix;
pub use budget::Budget;
pub use graph::{DistEdgeIter, EdgeIter, OpId, OpIdIter, Operand, PrecedenceGraph};
pub use reach::{CapacityError, ReachIndex};
pub use op::{DelayModel, OpKind, ResourceClass};
pub use resources::{kind_work, KindWork, ResourceSet};
pub use schedule::{HardSchedule, ModuloError, ModuloSchedule, ScheduleError};

use std::error::Error;
use std::fmt;

/// Errors produced by IR construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An edge endpoint refers to an operation that does not exist.
    UnknownOp(OpId),
    /// A self edge `(v, v)` was rejected.
    SelfEdge(OpId),
    /// The graph contains a dependency cycle; the payload is one vertex on it.
    Cycle(OpId),
    /// An edge that was expected to exist is missing.
    MissingEdge(OpId, OpId),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownOp(v) => write!(f, "unknown operation {v:?}"),
            IrError::SelfEdge(v) => write!(f, "self edge on operation {v:?}"),
            IrError::Cycle(v) => write!(f, "dependency cycle through operation {v:?}"),
            IrError::MissingEdge(u, v) => write!(f, "missing edge {u:?} -> {v:?}"),
        }
    }
}

impl Error for IrError {}
