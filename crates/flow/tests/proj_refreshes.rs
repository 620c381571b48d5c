//! Graph growth keeps the scheduler's lower-bound caches (static sink
//! distances, projection, resource floor) current in place: a flow
//! pays a whole-graph refresh only to retype its φs, once for all of
//! them. The counters are process-global, so this file holds a single
//! test and reads before/after deltas within it.

use hls_flow::{eco_flow, run_flow, run_flow_source, EcoBase, FlowConfig};
use hls_ir::{generate, Budget, OpId, OpKind};
use hls_obs::{metrics::counter_get, Counter};

/// Runs `f` and counts the whole-graph refreshes it took.
fn refreshes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counter_get(Counter::ProjRefreshes);
    let out = f();
    (out, counter_get(Counter::ProjRefreshes) - before)
}

#[test]
fn only_phi_retyping_refreshes_the_bound_caches() {
    hls_obs::set_enabled(true);
    let config = FlowConfig::default();

    let g = generate::stress_dag(3, 250);
    let (out, n) = refreshes(|| run_flow(g.clone(), &config).unwrap());
    assert!(
        out.report.wire_delays > 0,
        "the design must absorb wire delays"
    );
    assert_eq!(n, 0, "a φ-free flow takes no whole-graph refresh");

    let mut target = g.clone();
    let v = target.add_op(OpKind::Add, 1, "eco");
    target.add_edge(OpId::from_index(0), v).unwrap();
    target.add_edge(OpId::from_index(1), v).unwrap();
    let base = EcoBase::of_outcome(g.len(), &out);
    let ((eco, _), n) = refreshes(|| eco_flow(base, &target, &config, &Budget::NONE).unwrap());
    assert!(eco.scheduler.graph().len() > out.scheduler.graph().len());
    assert_eq!(n, 0, "an ECO graft takes no whole-graph refresh");

    let src = "
        input a, b, c, d; output o, p;
        if (a < b) { s = a + c; t = b * d; } else { s = b + d; t = a * c; }
        if (s < t) { u = s * 2; } else { u = t + 1; }
        o = u + s; p = t * u;
    ";
    let (out, n) = refreshes(|| run_flow_source(src, &config).unwrap());
    assert!(out.report.phis_to_moves + out.report.phis_voided >= 2);
    assert_eq!(n, 1, "the φs are retyped in one batch");
}
