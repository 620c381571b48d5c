//! Seeded inputs shared by the workloads.

use crate::measure::Rng;
use hls_ir::{generate, sim_operands, DelayModel, OpId, OpKind, PrecedenceGraph};

/// A `stress_dag`-shaped design of `ops` operations carrying
/// simulation operands.
pub fn design(seed: u64, ops: usize) -> PrecedenceGraph {
    let mut g = generate::stress_dag(seed, ops);
    sim_operands::infer(&mut g);
    g
}

/// `g` plus `added` appended operations, the shape of an
/// engineering-change resubmission that adds outputs: each new op reads
/// one or two existing ops, so the result stays acyclic and extends
/// `g`. The new ops carry no operands. Callers cycle `added` through
/// 1–3 by position, so every seed gets the same mix of delta sizes.
///
/// New ops feed no existing op: an edge into an op the soft schedule
/// already ordered before the new op's source has no feasible
/// position, and the existing op's operands would not name the new
/// one. They read ops from the last quarter of `g`, which the
/// generators build in topological order: new outputs read late
/// values, and a graft's cost grows with its sources' ancestor cones,
/// so sources spread over the whole design would make that cost swing
/// from seed to seed.
pub fn eco_target(g: &PrecedenceGraph, added: usize, rng: &mut Rng) -> PrecedenceGraph {
    let dm = DelayModel::classic();
    let mut t = g.clone();
    for i in 0..added {
        let kind = [OpKind::Add, OpKind::Sub, OpKind::Mul][rng.range(0, 3)];
        let v = t.add_op(kind, dm.delay_of(kind), format!("eco{i}"));
        for _ in 0..rng.range(1, 3) {
            let p = OpId::from_index(rng.range(g.len() * 3 / 4, g.len()));
            t.add_edge(p, v).expect("new op, distinct endpoints");
        }
    }
    t
}

/// Evenly spaced sizes from `lo` to `hi` inclusive: every seed gets the
/// same size mix, so seeds vary structure, not scale.
pub fn sizes(n: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| lo + (hi - lo) * i / (n - 1).max(1))
}

/// The `i`-th size in `lo..=hi` along the golden-ratio sequence: every
/// prefix of a corpus sized this way covers the range evenly, so a run
/// that stops after any number of designs still saw the whole range.
pub fn spread_size(i: usize, lo: usize, hi: usize) -> usize {
    let frac = (0.5 + i as f64 * 0.618_033_988_749_895).fract();
    lo + ((hi - lo + 1) as f64 * frac) as usize
}
