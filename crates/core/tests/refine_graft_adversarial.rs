//! Adversarial coverage for `ThreadedScheduler::refine_graft`
//! (ISSUE 8, satellite 4): id divergence between the resubmitted graph
//! and the cached scheduler state.
//!
//! `refine_graft` trusts the caller's submitted-index map — `map[i]` is
//! the scheduler op standing for target index `i`. These tests pin the
//! contract at its edges: a resubmission that renumbers the whole base
//! graph (shuffled map, operands included), an empty delta, a delta op
//! landing on every boundary between intervals of a finished state's
//! topological order, malformed maps and operands, and budget expiry
//! mid-graft.

use hls_ir::{
    algo, generate, schedule, Budget, OpId, OpKind, Operand, PrecedenceGraph, ResourceSet,
};
use threaded_sched::{meta::MetaSchedule, SchedError, ThreadedScheduler};

fn scheduled(g: &PrecedenceGraph, resources: &ResourceSet) -> ThreadedScheduler {
    let order = MetaSchedule::Topological.order(g, resources).unwrap();
    let mut ts = ThreadedScheduler::new(g.clone(), resources.clone()).unwrap();
    ts.schedule_all(order).unwrap();
    ts
}

fn identity_map(n: usize) -> Vec<OpId> {
    (0..n).map(OpId::from_index).collect()
}

/// Deterministic shuffle (splitmix64 + Fisher-Yates) — no rand crate.
fn shuffle(perm: &mut [usize], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..perm.len()).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

#[test]
fn empty_delta_is_a_noop() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(41, 400);
    let mut ts = scheduled(&g, &resources);
    let before = ts.diameter();
    let mut map = identity_map(g.len());

    let added = ts.refine_graft(&g, &mut map, &Budget::NONE).unwrap();
    assert!(added.is_empty(), "an empty delta grafts nothing");
    assert_eq!(map.len(), g.len(), "an empty delta extends the map by nothing");
    assert_eq!(ts.diameter(), before, "an empty delta leaves the diameter alone");
    assert_eq!(ts.scheduled_count(), g.len());
    ts.check_invariants().unwrap();
}

/// A resubmission that renumbers the entire base graph: target index
/// `i` holds what the scheduler knows as op `perm[i]`. The graft must
/// land the delta on the same scheduler ops as the identity-numbered
/// resubmission — bit-identical diameters and predecessor sets.
#[test]
fn shuffled_submitted_index_map_matches_identity() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(42, 300);
    let n = g.len();

    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, 0xD1CE);
    let mut pos = vec![0usize; n];
    for (i, &p) in perm.iter().enumerate() {
        pos[p] = i;
    }

    // The shuffled resubmission: base ops in `perm` order, base edges
    // re-expressed in the new numbering, then a delta bridging widely
    // separated base ops (in shuffled coordinates the delta's endpoint
    // indices are arbitrary, which is the point).
    let mut shuffled = PrecedenceGraph::new();
    for &p in &perm {
        let v = OpId::from_index(p);
        shuffled.add_op(g.kind(v), g.delay(v), g.label(v).to_string());
    }
    for u in g.op_ids() {
        for &v in g.succs(u) {
            shuffled
                .add_edge(OpId::from_index(pos[u.index()]), OpId::from_index(pos[v.index()]))
                .unwrap();
        }
    }
    // Identity resubmission of the same base, for the differential run.
    let mut identity = g.clone();

    // The delta, expressed against *scheduler* ids, then translated
    // into each resubmission's own numbering.
    let delta: Vec<(usize, usize)> = (0..24)
        .map(|i| {
            let a = (i * 7) % (n / 2);
            let b = n / 2 + (i * 13) % (n / 2);
            (a, b)
        })
        .collect();
    for (i, &(a, b)) in delta.iter().enumerate() {
        let ds = shuffled.add_op(OpKind::Add, 1, format!("d{i}"));
        shuffled.add_edge(OpId::from_index(pos[a]), ds).unwrap();
        shuffled.add_edge(ds, OpId::from_index(pos[b])).unwrap();
        let reads = |p| vec![Operand::Op(OpId::from_index(p)), Operand::Const(i as i64)];
        shuffled.set_operands(ds, reads(pos[a]));
        let di = identity.add_op(OpKind::Add, 1, format!("d{i}"));
        identity.add_edge(OpId::from_index(a), di).unwrap();
        identity.add_edge(di, OpId::from_index(b)).unwrap();
        identity.set_operands(di, reads(a));
    }

    let mut ts_shuf = scheduled(&g, &resources);
    let mut map_shuf: Vec<OpId> = perm.iter().map(|&p| OpId::from_index(p)).collect();
    let added_shuf = ts_shuf.refine_graft(&shuffled, &mut map_shuf, &Budget::NONE).unwrap();

    let mut ts_id = scheduled(&g, &resources);
    let mut map_id = identity_map(n);
    let added_id = ts_id.refine_graft(&identity, &mut map_id, &Budget::NONE).unwrap();

    assert_eq!(added_shuf.len(), delta.len());
    assert_eq!(added_shuf, added_id, "same delta, same base state, same new ids");
    assert_eq!(
        ts_shuf.diameter(),
        ts_id.diameter(),
        "the graft is invariant to how the resubmission renumbers the base"
    );
    for (i, &(a, b)) in delta.iter().enumerate() {
        let d = added_shuf[i];
        assert!(
            ts_shuf.graph().preds(d).contains(&OpId::from_index(a)),
            "delta op {i} kept its scheduler-side predecessor"
        );
        assert!(ts_shuf.graph().succs(d).contains(&OpId::from_index(b)));
        assert_eq!(
            ts_shuf.graph().operands(d),
            [Operand::Op(OpId::from_index(a)), Operand::Const(i as i64)],
            "delta op {i}'s operands translate through the map"
        );
    }
    ts_shuf.check_invariants().unwrap();
    let hard = ts_shuf.extract_hard();
    schedule::validate(ts_shuf.graph(), &resources, &hard).unwrap();
    // The extended map keeps working: graft a second, empty delta.
    let again = ts_shuf.refine_graft(&shuffled, &mut map_shuf, &Budget::NONE).unwrap();
    assert!(again.is_empty());
}

/// A delta op on every interval boundary of a finished state: the
/// topological order is cut into 8 intervals, and for each ordered
/// interval pair with an edge crossing between them, one representative
/// crossing edge gets a grafted op. The graft path must absorb work
/// landing on many far-apart cones of a fully scheduled state.
#[test]
fn delta_on_every_interval_boundary() {
    const INTERVALS: usize = 8;
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(43, 1200);
    let mut interval = vec![0usize; g.len()];
    for (pos, v) in algo::topo_order(&g).unwrap().into_iter().enumerate() {
        interval[v.index()] = pos * INTERVALS / g.len();
    }
    let mut cut: Vec<(OpId, OpId)> = Vec::new();
    let mut covered = std::collections::BTreeSet::new();
    for (u, v) in g.edges() {
        let pair = (interval[u.index()], interval[v.index()]);
        if pair.0 != pair.1 && covered.insert(pair) {
            cut.push((u, v));
        }
    }
    assert!(cut.len() >= INTERVALS - 1, "the grafts spread across the whole order");

    let mut target = g.clone();
    for (i, &(u, v)) in cut.iter().enumerate() {
        let d = target.add_op(OpKind::Add, 1, format!("cross{i}"));
        target.add_edge(u, d).unwrap();
        target.add_edge(d, v).unwrap();
    }

    let mut ts = scheduled(&g, &resources);
    let before = ts.diameter();
    let mut map = identity_map(g.len());
    let added = ts.refine_graft(&target, &mut map, &Budget::NONE).unwrap();
    assert_eq!(added.len(), cut.len(), "one grafted op per boundary");
    assert_eq!(map.len(), target.len());
    assert!(ts.diameter() >= before, "grafting only adds work");
    ts.check_invariants().unwrap();
    let hard = ts.extract_hard();
    schedule::validate(ts.graph(), &resources, &hard).unwrap();
}

#[test]
fn malformed_resubmissions_are_rejected() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(44, 120);
    let mut ts = scheduled(&g, &resources);

    // Map longer than the target: the resubmission lost ops.
    let mut long_map = identity_map(g.len() + 5);
    assert!(matches!(
        ts.refine_graft(&g, &mut long_map, &Budget::NONE),
        Err(SchedError::NotAnExtension)
    ));

    // A loop-carried edge in the resubmission: grafting is DAG-only.
    let mut looped = g.clone();
    let d = looped.add_op(OpKind::Add, 1, "acc");
    looped.add_edge(OpId::from_index(0), d).unwrap();
    looped.add_dep_edge(d, d, 1).unwrap();
    let mut map = identity_map(g.len());
    assert!(matches!(
        ts.refine_graft(&looped, &mut map, &Budget::NONE),
        Err(SchedError::NotAnExtension)
    ));
    assert_eq!(map.len(), g.len(), "a rejected graft leaves the map alone");
    ts.check_invariants().unwrap();

    // A delta operand naming an op the resubmission does not have.
    let mut dangling = g.clone();
    let d = dangling.add_op(OpKind::Add, 1, "dangling");
    dangling.add_edge(OpId::from_index(0), d).unwrap();
    dangling.set_operands(d, vec![Operand::Op(OpId::from_index(g.len() + 9))]);
    let mut map = identity_map(g.len());
    assert!(matches!(
        ts.refine_graft(&dangling, &mut map, &Budget::NONE),
        Err(SchedError::NotAnExtension)
    ));
    ts.check_invariants().unwrap();
}

/// A translation map that aliases one scheduler op under two submitted
/// indices used to be accepted silently: every delta edge naming
/// either index landed on the same op (last-write-wins), and the other
/// base op lost its delta cone with no diagnostic. The graft now
/// rejects non-injective maps up front as [`SchedError::Malformed`],
/// before touching the state.
#[test]
fn duplicate_map_entries_are_rejected_as_malformed() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(46, 150);
    let mut ts = scheduled(&g, &resources);
    let before = ts.diameter();

    let mut target = g.clone();
    let d = target.add_op(OpKind::Add, 1, "d0");
    target.add_edge(OpId::from_index(3), d).unwrap();

    // Submitted index 5 claims the scheduler op index 3 already stands
    // for: two submitted ops, one scheduled op.
    let mut map = identity_map(g.len());
    map[5] = map[3];
    let err = ts.refine_graft(&target, &mut map, &Budget::NONE).unwrap_err();
    assert!(matches!(err, SchedError::Malformed(_)), "got {err}");
    assert_eq!(map.len(), g.len(), "a rejected graft leaves the map alone");
    assert_eq!(ts.diameter(), before, "a rejected graft leaves the state alone");
    assert_eq!(ts.scheduled_count(), g.len());
    ts.check_invariants().unwrap();

    // An entry outside the state's id space is the same class of
    // caller bug, caught by the same validation.
    let mut map2 = identity_map(g.len());
    map2[0] = OpId::from_index(g.len() + 7);
    assert!(matches!(
        ts.refine_graft(&target, &mut map2, &Budget::NONE),
        Err(SchedError::Malformed(_))
    ));

    // The honest map over the same state still grafts.
    let mut map3 = identity_map(g.len());
    let added = ts.refine_graft(&target, &mut map3, &Budget::NONE).unwrap();
    assert_eq!(added.len(), 1);
    ts.check_invariants().unwrap();
    let hard = ts.extract_hard();
    schedule::validate(ts.graph(), &resources, &hard).unwrap();
}

/// Budget expiry mid-graft: the error is `Timeout`, the state keeps
/// its invariants (each grafted op is atomic), and the map records
/// exactly the ops that made it in — so the caller can resume.
#[test]
fn budget_expiry_mid_graft_leaves_a_resumable_state() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(45, 200);
    let n = g.len();
    let mut target = g.clone();
    for i in 0..40 {
        let d = target.add_op(OpKind::Add, 1, format!("d{i}"));
        target.add_edge(OpId::from_index(i * 3 % n), d).unwrap();
    }

    let mut ts = scheduled(&g, &resources);
    let mut map = identity_map(n);
    let err = ts.refine_graft(&target, &mut map, &Budget::steps(10)).unwrap_err();
    assert!(matches!(err, SchedError::Timeout));
    assert!(map.len() > n && map.len() < target.len(), "a partial graft landed");
    ts.check_invariants().unwrap();

    // Resume with the same (extended) map and no budget: completes.
    let added = ts.refine_graft(&target, &mut map, &Budget::NONE).unwrap();
    assert_eq!(map.len(), target.len());
    assert_eq!(ts.scheduled_count(), target.len());
    assert!(!added.is_empty());
    ts.check_invariants().unwrap();
    let hard = ts.extract_hard();
    schedule::validate(ts.graph(), &resources, &hard).unwrap();
}
