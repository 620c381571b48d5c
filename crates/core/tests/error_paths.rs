//! Error-path coverage for [`SchedError`]: each failure mode must
//! surface as its *specific* variant (with the right payload), not
//! just "some error" — downstream tooling (the portfolio, the flow)
//! matches on these variants to decide what is retryable.

use hls_ir::{IrError, OpId, OpKind, PrecedenceGraph, ResourceSet};
use threaded_sched::meta::MetaSchedule;
use threaded_sched::{ModuloScheduler, SchedError, ThreadedScheduler};

fn cyclic_graph() -> PrecedenceGraph {
    let mut g = PrecedenceGraph::new();
    let a = g.add_op(OpKind::Add, 1, "a");
    let b = g.add_op(OpKind::Mul, 2, "b");
    let c = g.add_op(OpKind::Sub, 1, "c");
    g.add_edge(a, b).unwrap();
    g.add_edge(b, c).unwrap();
    g.add_edge(c, a).unwrap();
    g
}

#[test]
fn cyclic_graph_fed_to_the_acyclic_scheduler_reports_the_cycle() {
    let err = ThreadedScheduler::new(cyclic_graph(), ResourceSet::classic(1, 1))
        .expect_err("cycles must be rejected at construction");
    let SchedError::Ir(IrError::Cycle(v)) = err else {
        panic!("expected SchedError::Ir(IrError::Cycle(_)), got {err:?}");
    };
    assert!(v.index() < 3, "the reported vertex lies on the cycle");
    // Meta-order construction rejects the same graph the same way.
    let err = MetaSchedule::Topological
        .order(&cyclic_graph(), &ResourceSet::classic(1, 1))
        .expect_err("orders need a DAG");
    assert!(matches!(err, SchedError::Ir(IrError::Cycle(_))), "got {err:?}");
}

#[test]
fn empty_resource_set_reports_no_compatible_unit_with_the_op() {
    let mut g = PrecedenceGraph::new();
    let a = g.add_op(OpKind::Add, 1, "a");
    let mut ts = ThreadedScheduler::new(g, ResourceSet::new()).expect("construction is lazy");
    let err = ts.schedule(a).expect_err("no unit can run the add");
    assert_eq!(err, SchedError::NoCompatibleUnit(a, OpKind::Add));
    // The modulo scheduler rejects the allocation eagerly, naming the
    // first victim.
    let err = ModuloScheduler::new(
        hls_ir::bench_graphs::mac_loop(),
        ResourceSet::new(),
    )
    .expect_err("empty allocation");
    assert!(
        matches!(err, SchedError::NoCompatibleUnit(v, OpKind::Load) if v.index() == 0),
        "got {err:?}"
    );
}

#[test]
fn op_kind_without_a_capable_unit_is_named() {
    // 2 ALUs, no multiplier: the mul is the precise casualty.
    let mut g = PrecedenceGraph::new();
    let a = g.add_op(OpKind::Add, 1, "a");
    let m = g.add_op(OpKind::Mul, 2, "m");
    g.add_edge(a, m).unwrap();
    let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 0)).unwrap();
    assert!(ts.schedule(a).is_ok(), "the add has a unit");
    let err = ts.schedule(m).expect_err("no multiplier allocated");
    assert_eq!(err, SchedError::NoCompatibleUnit(m, OpKind::Mul));
}

#[test]
fn out_of_range_op_reports_unknown_op() {
    let mut g = PrecedenceGraph::new();
    g.add_op(OpKind::Add, 1, "a");
    let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 0)).unwrap();
    let bogus = OpId::from_index(42);
    assert_eq!(ts.schedule(bogus), Err(SchedError::UnknownOp(bogus)));
    assert!(matches!(ts.select(bogus), Err(SchedError::UnknownOp(_))));
}

#[test]
fn distance_zero_cycle_is_rejected_by_the_modulo_scheduler_too() {
    // The modulo scheduler accepts loop-carried cycles but not
    // distance-0 ones — same variant as the acyclic path.
    let err = ModuloScheduler::new(cyclic_graph(), ResourceSet::classic(1, 1))
        .expect_err("distance-0 cycle is not a kernel");
    assert!(matches!(err, SchedError::Ir(IrError::Cycle(_))), "got {err:?}");
}

#[test]
fn infeasible_ii_reports_the_probed_interval() {
    let g = hls_ir::bench_graphs::mac_loop();
    let r = ResourceSet::classic(1, 1).with(hls_ir::ResourceClass::MemPort, 1);
    let sched = ModuloScheduler::new(g, r).unwrap();
    // Two loads on one port cannot fit II=1.
    assert_eq!(
        sched.schedule_at(1, None, &hls_ir::Budget::NONE).expect_err("below ResMII"),
        SchedError::IiInfeasible(1)
    );
}
