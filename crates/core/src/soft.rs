//! The soft-scheduling framework (Section 3 of the paper).
//!
//! An *online schedule* is a function `F : V_G × S_F → S_F` over
//! scheduling states that are themselves precedence graphs, subject to
//! (Definition 3):
//!
//! 1. **initial condition** — the empty graph is a state;
//! 2. **correctness condition** — the state order is consistent with the
//!    source order: `p ≺_G q → p ≺_S q` for scheduled `p, q`;
//! 3. **incremental condition** — scheduling never retracts an ordering
//!    and adds at most the new vertex.
//!
//! A scheduler is **hard** when every state is totally ordered and
//! **soft** otherwise. This module gives those definitions teeth: states
//! are exported as [`StateSnapshot`]s and each condition is a checkable
//! predicate, used extensively by the property-based test-suite.

use crate::SchedError;
use hls_ir::{algo, BitMatrix, OpId, PrecedenceGraph};

/// A scheduling state exported as a plain precedence graph
/// (Definition 6: the subgraph of the threaded graph spanned by
/// `V \ s \ t`).
///
/// Snapshots are a *verification* surface: [`StateSnapshot::order`]
/// materialises the state's dense transitive closure, which is fine at
/// test sizes but `Θ(|V|²)` bits. The scheduler itself answers its
/// hot-path reachability probes from two monotone bits per op
/// (`DESIGN.md` §5) and never builds these matrices outside
/// [`check_incremental`]-style oracles.
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    /// The state as a precedence graph; vertex `i` corresponds to
    /// `ops[i]` in the original behavior.
    pub graph: PrecedenceGraph,
    /// Snapshot index → original operation. The vertex numbering is
    /// fixed at construction: [`StateSnapshot::index_of`] answers from
    /// a map precomputed by [`StateSnapshot::new`], so `ops` must not
    /// be reordered or extended afterwards (replacing `graph` edges,
    /// as the forgery tests do, is fine).
    pub ops: Vec<OpId>,
    /// Snapshot index → thread.
    pub threads: Vec<usize>,
    /// Original op index → snapshot index (`None` if unscheduled),
    /// precomputed so [`StateSnapshot::index_of`] is `O(1)` instead of a
    /// linear scan per lookup.
    index: Vec<Option<usize>>,
}

impl StateSnapshot {
    /// Builds a snapshot, precomputing the reverse op → index map.
    pub fn new(graph: PrecedenceGraph, ops: Vec<OpId>, threads: Vec<usize>) -> Self {
        let cap = ops.iter().map(|o| o.index() + 1).max().unwrap_or(0);
        let mut index = vec![None; cap];
        for (i, op) in ops.iter().enumerate() {
            index[op.index()] = Some(i);
        }
        StateSnapshot {
            graph,
            ops,
            threads,
            index,
        }
    }

    /// The snapshot index of an original operation, if scheduled.
    pub fn index_of(&self, v: OpId) -> Option<usize> {
        self.index.get(v.index()).copied().flatten()
    }

    /// The state's partial order `≺_S` as a strict reachability matrix
    /// over snapshot indices.
    pub fn order(&self) -> BitMatrix {
        algo::transitive_closure(&self.graph)
    }

    /// `true` if the scheduled set is *totally* ordered — i.e. this is
    /// the state of a hard scheduler.
    pub fn is_hard(&self) -> bool {
        let m = self.order();
        for i in 0..self.graph.len() {
            for j in (i + 1)..self.graph.len() {
                if !m.get(i, j) && !m.get(j, i) {
                    return false;
                }
            }
        }
        true
    }
}

/// The online-scheduler abstraction of Definition 2/3: a procedural
/// schedule feeds operations (the *meta schedule*) one at a time into an
/// implementation of this trait (the *online schedule*).
pub trait OnlineScheduler {
    /// Schedules one operation; must be a no-op if already scheduled.
    ///
    /// # Errors
    ///
    /// Implementation-specific ([`SchedError`]).
    fn schedule_op(&mut self, v: OpId) -> Result<(), SchedError>;

    /// `true` if `v` is in the current state.
    fn is_scheduled(&self, v: OpId) -> bool;

    /// Exports the current scheduling state.
    fn snapshot(&self) -> StateSnapshot;

    /// The diameter `‖S‖` of the current state.
    fn state_diameter(&self) -> u64;
}

impl OnlineScheduler for crate::ThreadedScheduler {
    fn schedule_op(&mut self, v: OpId) -> Result<(), SchedError> {
        self.schedule(v).map(|_| ())
    }

    fn is_scheduled(&self, v: OpId) -> bool {
        self.is_scheduled(v)
    }

    fn snapshot(&self) -> StateSnapshot {
        self.snapshot()
    }

    fn state_diameter(&self) -> u64 {
        self.diameter()
    }
}

/// Checks Definition 3's **correctness condition**: for every pair of
/// scheduled operations, `p ≺_G q` implies `p ≺_S q`.
///
/// # Errors
///
/// Returns a description of the first violated pair.
pub fn check_correctness(g: &PrecedenceGraph, snap: &StateSnapshot) -> Result<(), String> {
    let g_order = algo::transitive_closure(g);
    let s_order = snap.order();
    for (i, &p) in snap.ops.iter().enumerate() {
        for (j, &q) in snap.ops.iter().enumerate() {
            if i != j && g_order.get(p.index(), q.index()) && !s_order.get(i, j) {
                return Err(format!(
                    "correctness violated: {p} ≺_G {q} but not ordered in the state"
                ));
            }
        }
    }
    Ok(())
}

/// Checks Definition 3's **incremental condition** between two
/// consecutive states: every ordering of `prev` persists in `next`, and
/// the vertex set grows by at most one operation.
///
/// This is a small-`V` test oracle: it compares the two states' full
/// dense closures (`Θ(|V|²)` per step). The production engine never
/// pays that — its incremental guarantees are enforced structurally by
/// the commit rules and cross-checked against from-scratch
/// recomputations of its labels, reach vectors and scheduled-cone bits
/// (`DESIGN.md` §4–§5) in `ThreadedScheduler::check_invariants`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_incremental(prev: &StateSnapshot, next: &StateSnapshot) -> Result<(), String> {
    if next.ops.len() < prev.ops.len() || next.ops.len() > prev.ops.len() + 1 {
        return Err(format!(
            "state grew from {} to {} vertices",
            prev.ops.len(),
            next.ops.len()
        ));
    }
    for op in &prev.ops {
        if !next.ops.contains(op) {
            return Err(format!("operation {op} vanished from the state"));
        }
    }
    let prev_order = prev.order();
    let next_order = next.order();
    for (i, &p) in prev.ops.iter().enumerate() {
        for (j, &q) in prev.ops.iter().enumerate() {
            if i != j && prev_order.get(i, j) {
                let ni = next.index_of(p).expect("checked above");
                let nj = next.index_of(q).expect("checked above");
                if !next_order.get(ni, nj) {
                    return Err(format!("ordering {p} ≺ {q} was retracted"));
                }
            }
        }
    }
    Ok(())
}

/// Checks Definition 4's **threadedness**: within every thread the
/// scheduled operations are totally ordered by the state.
///
/// # Errors
///
/// Returns a description of the first incomparable same-thread pair.
pub fn check_threaded(snap: &StateSnapshot) -> Result<(), String> {
    let order = snap.order();
    for i in 0..snap.ops.len() {
        for j in (i + 1)..snap.ops.len() {
            if snap.threads[i] == snap.threads[j] && !order.get(i, j) && !order.get(j, i) {
                return Err(format!(
                    "thread {} holds incomparable ops {} and {}",
                    snap.threads[i], snap.ops[i], snap.ops[j]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadedScheduler;
    use hls_ir::{bench_graphs, ResourceSet};

    #[test]
    fn initial_condition_snapshot_is_empty() {
        let f = bench_graphs::fig1();
        let ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        let snap = ts.snapshot();
        assert!(snap.graph.is_empty());
        assert!(snap.is_hard(), "the empty state is (vacuously) total");
    }

    #[test]
    fn correctness_holds_along_a_full_run() {
        let f = bench_graphs::fig1();
        let g = f.graph.clone();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        for v in f.v {
            ts.schedule(v).unwrap();
            check_correctness(&g, &ts.snapshot()).unwrap();
        }
    }

    #[test]
    fn incremental_condition_holds_step_by_step() {
        let f = bench_graphs::fig1();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        let mut prev = ts.snapshot();
        for v in f.v {
            ts.schedule(v).unwrap();
            let next = ts.snapshot();
            check_incremental(&prev, &next).unwrap();
            prev = next;
        }
    }

    #[test]
    fn threadedness_holds_and_state_is_soft() {
        let f = bench_graphs::fig1();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        ts.schedule_all(f.v).unwrap();
        let snap = ts.snapshot();
        check_threaded(&snap).unwrap();
        // With 2 threads over 7 ops the state keeps genuine parallelism:
        // it is partially but not totally ordered — *soft*, not hard.
        assert!(!snap.is_hard(), "threaded state must stay soft");
    }

    #[test]
    fn one_thread_degenerates_to_a_hard_scheduler() {
        // K = 1 serialises everything: the state is totally ordered, so
        // the threaded scheduler degenerates to a traditional scheduler.
        let f = bench_graphs::fig1();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(1)).unwrap();
        ts.schedule_all(f.v).unwrap();
        assert!(ts.snapshot().is_hard());
    }

    #[test]
    fn checkers_reject_forged_states() {
        let f = bench_graphs::fig1();
        let g = f.graph.clone();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        ts.schedule_all(f.v).unwrap();
        let mut snap = ts.snapshot();
        // Forge: drop all edges — correctness and threadedness break.
        snap.graph = {
            let mut empty = hls_ir::PrecedenceGraph::new();
            for i in 0..snap.ops.len() {
                let op = snap.ops[i];
                empty.add_op(g.kind(op), g.delay(op), g.label(op));
            }
            empty
        };
        assert!(check_correctness(&g, &snap).is_err());
        assert!(check_threaded(&snap).is_err());
    }

    #[test]
    fn incremental_checker_rejects_vanishing_ops() {
        let f = bench_graphs::fig1();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        ts.schedule(f.v[0]).unwrap();
        ts.schedule(f.v[1]).unwrap();
        let big = ts.snapshot();
        let f2 = bench_graphs::fig1();
        let ts2 = ThreadedScheduler::new(f2.graph, ResourceSet::uniform(2)).unwrap();
        let empty = ts2.snapshot();
        assert!(check_incremental(&big, &empty).is_err());
    }
}
