//! One certified lower bound: every reader of the static bound
//! `max(‖G‖, resource floor)` agrees with the one shared floor
//! function, [`ResourceSet::work_floor`].
//!
//! * The floor equals a brute-force recount: ops grouped by their
//!   exact compatible-unit set, `⌈Σ delay / #units⌉` per group.
//! * `res_mii` is that floor folded with the largest resource-op
//!   delay.
//! * The ladder's bound-only rung reports `schedule_lower_bound()` of
//!   the graph (of the kernel DAG for loops).
//!
//! The fuzzed resource sets mix universal units (so several classes
//! share one unit set), typed units and classes with no unit at all;
//! the fuzzed DAGs carry every op kind, wire-class ops included, and
//! zero delays.

use std::collections::BTreeMap;

use hls_flow::{run_flow_degraded, DegradeRung, FlowConfig, FlowError};
use hls_ir::{bench_graphs, Budget, OpKind, PrecedenceGraph, ResourceClass, ResourceSet};
use proptest::prelude::*;
use threaded_sched::{modulo::res_mii, ThreadedScheduler};

/// A DAG of `n` ops of any kind with delays 0–3, edges `i → j`
/// (`i < j`) kept with probability 1/8, all drawn from `seed`.
fn fuzzed_dag(seed: u64, n: usize) -> PrecedenceGraph {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut g = PrecedenceGraph::with_capacity(n);
    for i in 0..n {
        let kind = OpKind::ALL[(next() % OpKind::ALL.len() as u64) as usize];
        g.add_op(kind, next() % 4, format!("f{i}"));
    }
    for j in 0..n {
        for i in 0..j {
            if next() % 8 == 0 {
                g.add_edge(hls_ir::OpId::from_index(i), hls_ir::OpId::from_index(j))
                    .unwrap();
            }
        }
    }
    g
}

/// The floor recounted the slow way: one group per exact
/// compatible-unit set.
fn brute_floor(g: &PrecedenceGraph, r: &ResourceSet) -> u64 {
    let mut groups: BTreeMap<Vec<usize>, u64> = BTreeMap::new();
    for v in g.op_ids() {
        let units = r.compatible_units(g.kind(v));
        if !units.is_empty() {
            *groups.entry(units).or_insert(0) += g.delay(v);
        }
    }
    groups
        .iter()
        .map(|(units, &w)| w.div_ceil(units.len() as u64))
        .max()
        .unwrap_or(0)
}

fn certified(g: &PrecedenceGraph, r: &ResourceSet) -> u64 {
    ThreadedScheduler::new(g.clone(), r.clone())
        .unwrap()
        .schedule_lower_bound()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_bound_reads_the_one_floor(
        seed in 0u64..1_000_000,
        n in 1usize..40,
        universal in 0usize..3,
        alus in 0usize..3,
        muls in 0usize..3,
        divs in 0usize..2,
        others in 0usize..2,
    ) {
        let g = fuzzed_dag(seed, n);
        let r = ResourceSet::uniform(universal)
            .with(ResourceClass::Alu, alus)
            .with(ResourceClass::Multiplier, muls)
            .with(ResourceClass::Divider, divs)
            .with(ResourceClass::Shifter, others)
            .with(ResourceClass::MemPort, others);

        let floor = r.work_floor(&g);
        prop_assert_eq!(floor, brute_floor(&g, &r));
        let longest = g
            .op_ids()
            .filter(|&v| !r.compatible_units(g.kind(v)).is_empty())
            .map(|v| g.delay(v))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(res_mii(&g, &r), floor.max(longest));
        let bound = certified(&g, &r);
        prop_assert_eq!(bound, floor.max(hls_ir::algo::diameter(&g)));
        prop_assert_eq!(r.lower_bound(&g), bound);
    }
}

/// The bound-only rung answers with the certified bound of the graph
/// it was given — the kernel DAG for loops — on the paper graphs and
/// the loop kernels, under two allocations.
#[test]
fn bound_only_rung_reports_the_certified_bound() {
    let mut cases: Vec<(String, PrecedenceGraph)> = bench_graphs::all()
        .into_iter()
        .chain(bench_graphs::loops())
        .map(|(name, g)| (name.to_string(), g))
        .collect();
    cases.push(("FIG1".to_string(), bench_graphs::fig1().graph));
    for r in [ResourceSet::classic(2, 2), ResourceSet::classic(1, 1)] {
        for (name, g) in &cases {
            let looped = g.has_loop_edges();
            let cfg = FlowConfig {
                resources: r.clone(),
                budget: Budget::steps(0),
                pipeline: looped.then(hls_search::PipelineConfig::default),
                ..FlowConfig::default()
            };
            let out = run_flow_degraded(g, &cfg).unwrap();
            assert_eq!(out.rung, DegradeRung::BoundOnly, "{name}");
            let dag = if looped { g.kernel_dag() } else { g.clone() };
            assert_eq!(out.lower_bound, certified(&dag, &r), "{name} on {r}");
        }
    }

    // A distance-0 cycle fails every rung; the bound-only rung reports
    // the error the scheduler's own validation gives.
    let mut cyclic = PrecedenceGraph::new();
    let a = cyclic.add_op(OpKind::Add, 1, "a");
    let b = cyclic.add_op(OpKind::Mul, 2, "b");
    cyclic.add_edge(a, b).unwrap();
    cyclic.add_edge(b, a).unwrap();
    let want = ThreadedScheduler::new(cyclic.clone(), ResourceSet::classic(1, 1)).unwrap_err();
    assert_eq!(
        run_flow_degraded(&cyclic, &FlowConfig::default()).unwrap_err(),
        FlowError::from(want)
    );
}
