//! The in-place raise of static sink distances on graph growth relaxes
//! from each raised op once, whatever the number of paths by which a
//! rise reaches it.
//!
//! The shape is a ladder of diamonds: rung `i` joins `L(i+1)` to `L(i)`
//! through two ops, `A(i)` longer than `B(i)` by a gap that halves from
//! rung to rung, with `A(i)` listed first among `L(i)`'s predecessors.
//! An op hung below `L0` with a delay above the largest gap raises
//! every op of the ladder. A depth-first relaxation raises `L(i+1)`
//! first through `B(i)` and then again through `A(i)`, and each of the
//! two rises is larger than the next rung's gap, so both split again:
//! about `2^k` walks for `k` rungs.
//! The counters are process-global, so this file holds a single test
//! and reads before/after deltas within it.

use hls_ir::{OpId, OpKind, PrecedenceGraph, ResourceSet};
use hls_obs::{metrics::counter_get, Counter};
use threaded_sched::ThreadedScheduler;

/// A ladder with one rung per gap: `A(i)` has delay `b + gaps[i]`,
/// `B(i)` delay `b` and every `L(i)` delay `l`. Returns the graph and
/// `L0`.
fn ladder(gaps: &[u64], b: u64, l: u64) -> (PrecedenceGraph, OpId) {
    let mut g = PrecedenceGraph::new();
    let mut below = g.add_op(OpKind::Add, l, "L0");
    let l0 = below;
    for (i, gap) in gaps.iter().enumerate() {
        let above = g.add_op(OpKind::Add, l, format!("L{}", i + 1));
        for (name, d) in [("A", b + gap), ("B", b)] {
            let m = g.add_op(OpKind::Add, d, format!("{name}{i}"));
            g.add_edge(above, m).unwrap();
            g.add_edge(m, below).unwrap();
        }
        below = above;
    }
    (g, l0)
}

#[test]
fn a_ladder_of_diamonds_is_raised_once_per_op() {
    hls_obs::set_enabled(true);
    let rungs = 16;
    let gaps: Vec<u64> = (0..rungs).map(|i| 1 << (rungs - i)).collect();
    // With `b = l = 0` the pre-growth distances of `B(i)` and `L(i)`
    // tie, and so do those of `A(i)` and `L(i+1)`.
    for (b, l) in [(1, 1), (0, 0)] {
        let (g, l0) = ladder(&gaps, b, l);
        let ops = g.len() as u64;
        let order: Vec<OpId> = g.op_ids().collect();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 1)).unwrap();
        ts.schedule_all(order).unwrap();

        let before = counter_get(Counter::GrowthRaises);
        ts.refine_add_op(OpKind::Add, 4 << rungs, "eco", &[l0], &[])
            .unwrap();
        let raised = counter_get(Counter::GrowthRaises) - before;
        assert_eq!(
            raised, ops,
            "delays b = {b}, l = {l}: every ladder op rises, each relaxed from once"
        );
        ts.check_invariants().unwrap();
        assert!(ts.final_lower_bound() <= ts.diameter());
    }
}
