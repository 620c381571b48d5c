//! Golden equivalence: the optimized [`ThreadedScheduler`] must behave
//! *bit-identically* to the frozen seed implementation
//! ([`ReferenceScheduler`]) — the incremental engine is a pure
//! performance refactor (see `DESIGN.md` §4).
//!
//! Identical means: the same `Placement` (thread, after, cost) for every
//! operation of every meta order, the same per-thread chains, the same
//! diameter trajectory, and the same final `extract_hard()` schedule.
//! The suite drives both schedulers in lockstep over seeded random
//! graphs — including a ≥1000-op workload — under topological,
//! depth-first, path-based, list-based and non-topological random meta
//! orders, plus wire-delay refinement, and fuzzes `check_invariants()`
//! per commit on smaller cases (sampled every k-th commit above a size
//! threshold — the checker's from-scratch recompute is quadratic).
//! Wire-class ops (`Phi`, `Nop`, `Move`, `WireDelay`) get their own
//! fuzz: as inputs with fan-in and fan-out of two or more, chained to
//! each other, spliced after scheduling, and grafted as part of an
//! engineering-change delta.

use hls_ir::{generate, DelayModel, OpId, OpKind, PrecedenceGraph, ResourceClass, ResourceSet};
use proptest::prelude::*;
use threaded_sched::{meta::MetaSchedule, ReferenceScheduler, ThreadedScheduler};

/// Drives both schedulers through `order`, asserting lockstep placement
/// equality, and compares the final state observables.
fn assert_equivalent_run(g: &PrecedenceGraph, r: &ResourceSet, order: &[OpId], tag: &str) {
    let mut fast = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
    let mut gold = ReferenceScheduler::new(g.clone(), r.clone()).unwrap();
    for (step, &v) in order.iter().enumerate() {
        let pf = fast.schedule(v).unwrap();
        let pg = gold.schedule(v).unwrap();
        assert_eq!(
            pf, pg,
            "[{tag}] placement diverged at step {step} ({v}): fast {pf:?} vs golden {pg:?}"
        );
        assert_eq!(fast.diameter(), gold.diameter(), "[{tag}] diameter at {v}");
    }
    for k in 0..r.k() {
        assert_eq!(fast.chain(k), gold.chain(k), "[{tag}] chain {k}");
    }
    assert_eq!(
        fast.extract_hard(),
        gold.extract_hard(),
        "[{tag}] extracted hard schedules diverged"
    );
    fast.check_invariants().unwrap();
}

fn layered(seed: u64, ops: usize, width: usize, edge_prob: f64) -> PrecedenceGraph {
    let cfg = generate::LayeredConfig {
        ops,
        width,
        edge_prob,
        mul_ratio: 0.35,
        delays: DelayModel::classic(),
    };
    generate::layered_dag(seed, &cfg)
}

#[test]
fn golden_equivalence_on_1k_op_random_graphs() {
    // The headline case of the acceptance criteria: ≥1000 operations,
    // fixed seeds, several meta orders including a non-topological one.
    let r = ResourceSet::classic(2, 2);
    for seed in [1u64, 0xC0FFEE, 42] {
        let g = layered(seed, 1024, 32, 0.12);
        for meta in [
            MetaSchedule::Topological,
            MetaSchedule::Dfs,
            MetaSchedule::Random(seed ^ 0x5eed),
        ] {
            let order = meta.order(&g, &r).unwrap();
            assert_equivalent_run(&g, &r, &order, &format!("1k/{seed}/{}", meta.name()));
        }
    }
}

#[test]
fn golden_equivalence_across_shapes_and_resource_mixes() {
    let shapes: Vec<(PrecedenceGraph, &str)> = vec![
        (layered(7, 96, 6, 0.4), "narrow-deep"),
        (layered(9, 120, 40, 0.3), "wide-shallow"),
        (
            generate::random_dag(11, 64, 0.15, &DelayModel::classic()),
            "unstructured",
        ),
        (
            generate::expression_tree(5, &DelayModel::classic()),
            "expression-tree",
        ),
        (
            generate::independent_chains(6, 12, &DelayModel::classic()),
            "independent-chains",
        ),
    ];
    for (g, name) in shapes {
        for (alus, muls) in [(1, 1), (2, 2), (3, 1)] {
            let r = ResourceSet::classic(alus, muls);
            for meta in MetaSchedule::PAPER {
                let order = meta.order(&g, &r).unwrap();
                assert_equivalent_run(&g, &r, &order, &format!("{name}/{alus}+{muls}"));
            }
        }
    }
}

#[test]
fn golden_equivalence_under_wire_delay_refinement() {
    // Wire-delay splices grow the behavior and the thread count; both
    // engines must track each other through refinement too.
    let r = ResourceSet::classic(2, 1);
    let g = layered(5, 64, 8, 0.35);
    let order = MetaSchedule::Topological.order(&g, &r).unwrap();
    let mut fast = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
    let mut gold = ReferenceScheduler::new(g, r.clone()).unwrap();
    fast.schedule_all(order.iter().copied()).unwrap();
    gold.schedule_all(order.iter().copied()).unwrap();
    // Splice wire delays onto a handful of existing edges.
    let edges: Vec<(OpId, OpId)> = fast.graph().edges().take(5).collect();
    for (i, (from, to)) in edges.into_iter().enumerate() {
        let chain = [(OpKind::WireDelay, 1 + (i as u64 % 2), format!("wd{i}"))];
        let a = fast.refine_splice(from, to, chain.clone()).unwrap();
        let b = gold.refine_splice(from, to, chain).unwrap();
        assert_eq!(a, b, "splice {i} inserted different ids");
        assert_eq!(fast.diameter(), gold.diameter(), "diameter after splice {i}");
        fast.check_invariants().unwrap();
    }
    for k in 0..r.k() {
        assert_eq!(fast.chain(k), gold.chain(k), "chain {k} after refinement");
    }
    assert_eq!(fast.extract_hard(), gold.extract_hard());
}

/// A small deterministic generator (xorshift), so the wire fuzz draws
/// its choices from the proptest seed alone.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

const WIRE_KINDS: [(OpKind, u64); 4] = [
    (OpKind::Phi, 0),
    (OpKind::Nop, 0),
    (OpKind::Move, 1),
    (OpKind::WireDelay, 1),
];

/// `g` plus `hubs` wire-class ops, each with two or more predecessors
/// and two or more successors; a hub may feed a later hub, so wire →
/// wire edges occur in the input. Every op gets a rank (its position in
/// a topological order, hubs in between), and edges only go up in
/// rank, so the result stays acyclic.
fn with_wire_hubs(g: &PrecedenceGraph, hubs: usize, draw: &mut Draw) -> PrecedenceGraph {
    let mut out = g.clone();
    let mut ranked: Vec<(usize, OpId)> = hls_ir::algo::topo_order(g)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (2 * i, v))
        .collect();
    let top = ranked.len() * 2;
    for h in 0..hubs {
        let (kind, delay) = WIRE_KINDS[h % WIRE_KINDS.len()];
        let w = out.add_op(kind, delay, format!("hub{h}"));
        // An odd rank with at least two ops on either side.
        let rank = 3 + 2 * draw.below(top / 2 - 3);
        let below: Vec<OpId> = ranked.iter().filter(|r| r.0 < rank).map(|r| r.1).collect();
        let above: Vec<OpId> = ranked.iter().filter(|r| r.0 > rank).map(|r| r.1).collect();
        for (ends, into_hub) in [(&below, true), (&above, false)] {
            let fan = (2 + draw.below(2)).min(ends.len());
            let mut linked = 0;
            while linked < fan {
                let x = ends[draw.below(ends.len())];
                let (a, b) = if into_hub { (x, w) } else { (w, x) };
                if !out.has_edge(a, b) {
                    out.add_edge(a, b).unwrap();
                    linked += 1;
                }
            }
        }
        ranked.push((rank, w));
    }
    out
}

/// Asserts lockstep equality of two states' placements of `v`.
fn assert_same_placement(
    fast: &mut ThreadedScheduler,
    gold: &mut ReferenceScheduler,
    v: OpId,
    what: &str,
) -> Result<(), TestCaseError> {
    let pf = fast.schedule(v).unwrap();
    let pg = gold.schedule(v).unwrap();
    prop_assert_eq!(pf, pg, "{}: placement of {} diverged", what, v);
    prop_assert_eq!(fast.diameter(), gold.diameter(), "{}: diameter at {}", what, v);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fuzzed lockstep equivalence with `check_invariants()` after every
    /// single commit — the incremental labels, reach vectors and gap
    /// positions must match a from-scratch recomputation at all times.
    #[test]
    fn fuzzed_lockstep_with_invariants_each_commit(
        seed in 0u64..10_000,
        ops in 8usize..72,
        width in 2usize..12,
        alus in 1usize..4,
        muls in 1usize..3,
        meta_idx in 0usize..6,
    ) {
        let g = layered(seed, ops, width, 0.3);
        let r = ResourceSet::classic(alus, muls);
        let meta = match meta_idx {
            0 => MetaSchedule::Dfs,
            1 => MetaSchedule::Topological,
            2 => MetaSchedule::PathBased,
            3 => MetaSchedule::ListBased,
            _ => MetaSchedule::Random(seed),
        };
        let order = meta.order(&g, &r).unwrap();
        let mut fast = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
        let mut gold = ReferenceScheduler::new(g, r).unwrap();
        // `check_invariants()` recomputes labels and the reachability
        // oracle from scratch (`O(|V|²·K)`); above a size threshold,
        // sample every k-th commit (plus the final state) so the fuzz
        // wall time stays flat as graphs grow.
        let check_every = if ops > 32 { 8 } else { 1 };
        for (step, &v) in order.iter().enumerate() {
            let pf = fast.schedule(v).unwrap();
            let pg = gold.schedule(v).unwrap();
            prop_assert_eq!(pf, pg, "placement diverged at {}", v);
            if step % check_every == 0 || step + 1 == order.len() {
                if let Err(e) = fast.check_invariants() {
                    return Err(TestCaseError::fail(format!("invariants after {v}: {e}")));
                }
            }
        }
        prop_assert_eq!(fast.extract_hard(), gold.extract_hard());
    }

    /// Lockstep over wire fan-in and fan-out: wire-class hubs with two
    /// or more predecessors and successors in the input, then single
    /// wire ops or chains of two or three wire delays spliced after
    /// scheduling, some onto edges that already end at a wire op
    /// (wire → wire). Placements, the
    /// diameter, every thread's chain and the hard schedule must match
    /// the seed; invariants are checked at the fuzz's usual sampling.
    #[test]
    fn fuzzed_lockstep_over_wire_fan_in_and_fan_out(
        seed in 0u64..10_000,
        ops in 8usize..60,
        hubs in 1usize..8,
        splices in 1usize..10,
        alus in 1usize..3,
        meta_idx in 0usize..6,
    ) {
        let mut draw = Draw(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let g = with_wire_hubs(&layered(seed, ops, 6, 0.3), hubs, &mut draw);
        let r = ResourceSet::classic(alus, 1);
        let meta = match meta_idx {
            0 => MetaSchedule::Dfs,
            1 => MetaSchedule::Topological,
            2 => MetaSchedule::PathBased,
            3 => MetaSchedule::ListBased,
            _ => MetaSchedule::Random(seed),
        };
        let order = meta.order(&g, &r).unwrap();
        let mut fast = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
        let mut gold = ReferenceScheduler::new(g, r.clone()).unwrap();
        let check_every = if ops > 32 { 8 } else { 1 };
        for (step, &v) in order.iter().enumerate() {
            assert_same_placement(&mut fast, &mut gold, v, "input")?;
            if step % check_every == 0 || step + 1 == order.len() {
                if let Err(e) = fast.check_invariants() {
                    return Err(TestCaseError::fail(format!("invariants after {v}: {e}")));
                }
            }
        }
        for i in 0..splices {
            // Odd splices go onto an edge into a wire op when there is
            // one, so wire chains grow.
            let edges: Vec<(OpId, OpId)> = fast.graph().edges().collect();
            let into_wire: Vec<(OpId, OpId)> = edges
                .iter()
                .copied()
                .filter(|&(_, b)| fast.graph().kind(b).resource_class() == ResourceClass::Wire)
                .collect();
            let pool = if i % 2 == 1 && !into_wire.is_empty() { &into_wire } else { &edges };
            let (from, to) = pool[draw.below(pool.len())];
            // One wire op of any kind, or a chain of two or three
            // wire delays.
            let len = 1 + draw.below(3);
            let chain: Vec<(OpKind, u64, String)> = (0..len)
                .map(|j| {
                    let (kind, delay) = if len == 1 {
                        WIRE_KINDS[draw.below(WIRE_KINDS.len())]
                    } else {
                        (OpKind::WireDelay, 1)
                    };
                    (kind, delay, format!("sp{i}.{j}"))
                })
                .collect();
            let a = fast.refine_splice(from, to, chain.clone()).unwrap();
            let b = gold.refine_splice(from, to, chain).unwrap();
            prop_assert_eq!(&a, &b, "splice {} inserted different ids", i);
            for &v in &a {
                assert_same_placement(&mut fast, &mut gold, v, "splice")?;
            }
            if i % check_every == 0 || i + 1 == splices {
                if let Err(e) = fast.check_invariants() {
                    return Err(TestCaseError::fail(format!("invariants after splice {i}: {e}")));
                }
            }
        }
        prop_assert_eq!(fast.thread_count(), r.k() + fast.graph().op_ids()
            .filter(|&v| fast.graph().kind(v).resource_class() == ResourceClass::Wire)
            .count());
        for k in 0..fast.thread_count() {
            prop_assert_eq!(fast.chain(k), gold.chain(k), "chain {}", k);
        }
        prop_assert_eq!(fast.extract_hard(), gold.extract_hard());
    }

    /// An engineering-change delta holding wire-class ops, grafted op
    /// by op onto a scheduled state, places every op as the seed does
    /// when it schedules the same ops in the same order on the extended
    /// behavior. Delta edges only go from lower to higher ids, so each
    /// grafted op sees the graph the seed sees.
    #[test]
    fn fuzzed_lockstep_through_a_graft_with_wire_ops(
        seed in 0u64..10_000,
        ops in 8usize..48,
        delta in 2usize..8,
        alus in 1usize..3,
    ) {
        let mut draw = Draw(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        let base = layered(seed, ops, 5, 0.3);
        let r = ResourceSet::classic(alus, 1);
        let order = MetaSchedule::ListBased.order(&base, &r).unwrap();
        let mut target = base.clone();
        for j in 0..delta {
            // Every other delta op is wire-class; each reads two earlier
            // ops, so wire ops get fan-in and, through later delta ops,
            // fan-out.
            let (kind, delay) = if j % 2 == 0 {
                WIRE_KINDS[draw.below(WIRE_KINDS.len())]
            } else if j % 4 == 1 {
                (OpKind::Add, 1)
            } else {
                (OpKind::Mul, 2)
            };
            let v = target.add_op(kind, delay, format!("eco{j}"));
            let anywhere = OpId::from_index(draw.below(v.index()));
            let recent = OpId::from_index(v.index() - 1 - draw.below(3));
            target.add_edge(anywhere, v).unwrap();
            if recent != anywhere {
                target.add_edge(recent, v).unwrap();
            }
        }
        let mut fast = ThreadedScheduler::new(base.clone(), r.clone()).unwrap();
        let mut gold = ReferenceScheduler::new(target.clone(), r.clone()).unwrap();
        for &v in &order {
            assert_same_placement(&mut fast, &mut gold, v, "base")?;
        }
        let mut map: Vec<OpId> = base.op_ids().collect();
        let mut prefix = base.clone();
        for i in base.len()..target.len() {
            let v = OpId::from_index(i);
            let id = prefix.add_op(target.kind(v), target.delay(v), target.label(v));
            for &p in target.preds(v) {
                prefix.add_edge(p, id).unwrap();
            }
            let added = fast.refine_graft(&prefix, &mut map, &hls_ir::Budget::NONE).unwrap();
            prop_assert_eq!(added, vec![v]);
            assert_same_placement(&mut fast, &mut gold, v, "graft")?;
            if let Err(e) = fast.check_invariants() {
                return Err(TestCaseError::fail(format!("invariants after graft of {v}: {e}")));
            }
        }
        for k in 0..fast.thread_count() {
            prop_assert_eq!(fast.chain(k), gold.chain(k), "chain {}", k);
        }
        prop_assert_eq!(fast.extract_hard(), gold.extract_hard());
    }
}
