//! The determinism and stitch-validity test layer for
//! partition-parallel scheduling. `ParallelScheduler` partitions every
//! graph, so each contract holds from the empty graph up.
//!
//! 1. **Determinism.** Results are a pure function of
//!    (graph, resources, config): bit-identical across 1, 2 and 8
//!    worker threads, and across repeated runs. Across partition
//!    counts the diameters stay within the pinned quality band of the
//!    sequential engine.
//! 2. **Stitch validity.** The stitched schedule is always valid; its
//!    certified lower bound is the sequential engine's
//!    `schedule_lower_bound`, and its diameter stays within the pinned
//!    band of the sequential diameter; materialising the stitched
//!    state back into a live `ThreadedScheduler` passes the full
//!    `check_invariants` cross-validation and reproduces the stitched
//!    diameter exactly.

use hls_ir::{bench_graphs, generate, schedule, OpKind, PrecedenceGraph, ResourceSet};
use threaded_sched::{
    meta::MetaSchedule, parallel::ParallelConfig, ParallelScheduler, ThreadedScheduler,
};

/// The small-graph golden suite: the four paper kernels, the Figure 1
/// example, a wire-delay-bearing DFG, and stress DAGs up to 5k ops.
fn golden_suite() -> Vec<(String, PrecedenceGraph)> {
    let mut suite: Vec<(String, PrecedenceGraph)> = bench_graphs::all()
        .into_iter()
        .map(|(name, g)| (name.to_string(), g))
        .collect();
    suite.push(("FIG1".to_string(), bench_graphs::fig1().graph));
    suite.push(("WIRE".to_string(), wire_dag()));
    for (seed, ops) in [(1u64, 200usize), (2, 800), (3, 2000), (4, 5000)] {
        suite.push((format!("STRESS-{ops}"), generate::stress_dag(seed, ops)));
    }
    suite
}

/// A DFG with wire-class operations in the behavior itself (moves and
/// wire delays between arithmetic stages), covering the unit-less path
/// of the stitch.
fn wire_dag() -> PrecedenceGraph {
    let mut g = PrecedenceGraph::new();
    let mut prev: Option<hls_ir::OpId> = None;
    for i in 0..40 {
        let a = g.add_op(OpKind::Mul, 2, format!("m{i}"));
        let w = g.add_op(OpKind::WireDelay, 1, format!("w{i}"));
        let b = g.add_op(OpKind::Add, 1, format!("a{i}"));
        g.add_edge(a, w).unwrap();
        g.add_edge(w, b).unwrap();
        if let Some(p) = prev {
            g.add_edge(p, a).unwrap();
        }
        prev = (i % 3 != 0).then_some(b);
    }
    g
}

/// Worker-thread count for the forced-partition runs. The CI
/// parallel-equivalence job runs this suite under
/// `PARALLEL_GOLDEN_WORKERS=2` and `=8`; determinism across worker
/// counts means both runs must pass identically.
fn workers() -> usize {
    std::env::var("PARALLEL_GOLDEN_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn certified_bound(g: &PrecedenceGraph, resources: &ResourceSet) -> u64 {
    ThreadedScheduler::new(g.clone(), resources.clone())
        .unwrap()
        .schedule_lower_bound()
}

fn sequential_diameter(g: &PrecedenceGraph, resources: &ResourceSet) -> u64 {
    let order = MetaSchedule::Topological.order(g, resources).unwrap();
    let mut ts = ThreadedScheduler::new(g.clone(), resources.clone()).unwrap();
    ts.schedule_all(order).unwrap();
    ts.diameter()
}

/// The pinned quality band of the raw stitch: on the golden suite the
/// stitched diameter stays within 5% of sequential plus a seam
/// allowance of two cycles per forced partition (an 11-op kernel cut
/// into 8 blocks is almost all seam; each extra boundary costs at most
/// a couple of cycles). Measured worst cases: +3 at 2 parts, +8 at 4,
/// +12 at 8 — the relative term takes over for anything above ~250
/// ops.
fn quality_bound(seq: u64, parts: usize) -> u64 {
    seq + (seq / 20).max(2 * parts as u64 + 2)
}

/// The reported bound is the certified static bound, not the finished
/// schedule's own diameter: HAL under `classic(2,2)` schedules to more
/// than 6 states, but only 6 are certified.
#[test]
fn sequential_path_reports_the_certified_bound_not_the_diameter() {
    let resources = ResourceSet::classic(2, 2);
    let g = bench_graphs::hal();
    let run = ParallelScheduler::new(g.clone(), resources.clone(), ParallelConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert!(run.diameter > 6, "diameter {}", run.diameter);
    assert_eq!(run.lower_bound, 6);
    assert_eq!(run.lower_bound, certified_bound(&g, &resources));
}

#[test]
fn forced_stitch_is_valid_bounded_and_materializable() {
    let resources = ResourceSet::classic(2, 2);
    for (name, g) in golden_suite() {
        let seq = sequential_diameter(&g, &resources);
        for parts in [2usize, 4, 8] {
            let cfg = ParallelConfig {
                parts,
                workers: workers(),
                ..ParallelConfig::default()
            };
            let ps = ParallelScheduler::new(g.clone(), resources.clone(), cfg).unwrap();
            let run = ps.run().unwrap();
            schedule::validate(&g, &resources, &run.schedule)
                .unwrap_or_else(|e| panic!("{name}/{parts}: invalid stitched schedule: {e}"));
            assert_eq!(
                run.lower_bound,
                certified_bound(&g, &resources),
                "{name}/{parts}: stitched lower bound"
            );
            assert!(
                run.lower_bound <= seq,
                "{name}/{parts}: certified bound {} above sequential diameter {seq}",
                run.lower_bound
            );
            assert!(
                run.diameter <= quality_bound(seq, parts),
                "{name}/{parts}: stitched diameter {} outside the quality band of \
                 sequential {seq}",
                run.diameter
            );
            assert_eq!(run.schedule.length(&g), run.diameter, "{name}/{parts}: length");

            // Materialisation rebuilds a live engine state holding the
            // stitched threading: full invariant cross-validation, and
            // the engine must agree on the diameter.
            let ts = ps.materialize(&run).unwrap();
            ts.check_invariants()
                .unwrap_or_else(|e| panic!("{name}/{parts}: stitched state invariants: {e}"));
            assert_eq!(ts.diameter(), run.diameter, "{name}/{parts}: materialized diameter");
            assert_eq!(ts.scheduled_count(), g.len(), "{name}/{parts}: all ops in state");
        }
    }
}

#[test]
fn forced_stitch_is_bit_identical_across_worker_counts() {
    let resources = ResourceSet::classic(2, 2);
    for (seed, ops) in [(11u64, 900usize), (12, 2500)] {
        let g = generate::stress_dag(seed, ops);
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let cfg = ParallelConfig {
                    workers,
                    parts: 8,
                    ..ParallelConfig::default()
                };
                ParallelScheduler::new(g.clone(), resources.clone(), cfg)
                    .unwrap()
                    .run()
                    .unwrap()
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.diameter, runs[0].diameter);
            assert_eq!(run.meta_order, runs[0].meta_order);
            assert_eq!(run.unit_threads, runs[0].unit_threads);
            for v in g.op_ids() {
                assert_eq!(run.schedule.start(v), runs[0].schedule.start(v));
                assert_eq!(run.schedule.unit(v), runs[0].schedule.unit(v));
            }
        }
    }
}

#[test]
fn forced_stitch_diameters_stable_across_partition_counts() {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(21, 3000);
    let seq = sequential_diameter(&g, &resources);
    for parts in [2usize, 4, 8, 16, 32] {
        let cfg = ParallelConfig {
            parts,
            workers: workers(),
            ..ParallelConfig::default()
        };
        let run = ParallelScheduler::new(g.clone(), resources.clone(), cfg)
            .unwrap()
            .run()
            .unwrap();
        schedule::validate(&g, &resources, &run.schedule).unwrap();
        assert!(
            run.diameter <= quality_bound(seq, parts),
            "parts={parts}: diameter {} vs sequential {seq}",
            run.diameter
        );
    }
}

#[test]
fn stitched_schedule_invariant_fuzzing() {
    // Randomised sizes, partition counts, worker counts and resource
    // allocations; every stitched schedule must be valid, every
    // materialised state must pass the dense-closure invariant check.
    let mut cases: Vec<(String, PrecedenceGraph, ResourceSet, ParallelConfig)> = (0..24u64)
        .map(|case| {
            let ops = 150 + (case as usize * 191) % 1800;
            let g = generate::stress_dag(0x9_0000 + case, ops);
            let resources = match case % 3 {
                0 => ResourceSet::classic(1, 1),
                1 => ResourceSet::classic(2, 2),
                _ => ResourceSet::classic(3, 2),
            };
            let cfg = ParallelConfig {
                workers: 1 + (case as usize % 4),
                parts: [2, 3, 8, 13][case as usize % 4],
                ..ParallelConfig::default()
            };
            (format!("case {case}"), g, resources, cfg)
        })
        .collect();
    // The smallest inputs: the default config partitions them too.
    let mut single = PrecedenceGraph::new();
    single.add_op(OpKind::Add, 1, "a");
    let mut wire = PrecedenceGraph::new();
    wire.add_op(OpKind::WireDelay, 1, "w");
    let hal = bench_graphs::hal();
    let hal_blocks = ParallelConfig { parts: hal.len(), ..ParallelConfig::default() };
    for (name, g, cfg) in [
        ("empty", PrecedenceGraph::new(), ParallelConfig::default()),
        ("single op", single, ParallelConfig::default()),
        ("single wire delay", wire, ParallelConfig::default()),
        ("HAL, one block per op", hal, hal_blocks),
    ] {
        cases.push((name.to_string(), g, ResourceSet::classic(2, 2), cfg));
    }

    for (name, g, resources, cfg) in cases {
        let ps = ParallelScheduler::new(g.clone(), resources.clone(), cfg).unwrap();
        let run = ps.run().unwrap();
        schedule::validate(&g, &resources, &run.schedule)
            .unwrap_or_else(|e| panic!("{name}: invalid schedule: {e}"));
        assert_eq!(run.lower_bound, resources.lower_bound(&g), "{name}: stitched lower bound");
        assert_eq!(
            run.lower_bound,
            certified_bound(&g, &resources),
            "{name}: sequential lower bound"
        );
        let ts = ps.materialize(&run).unwrap();
        ts.check_invariants().unwrap_or_else(|e| panic!("{name}: invariants: {e}"));
        assert_eq!(ts.diameter(), run.diameter, "{name}: materialized diameter");
    }
}

#[test]
fn materialized_stitch_supports_eco_refinement() {
    // The payoff of materialisation: a partition-parallel result is a
    // first-class engine state — wire-delay splices on *cut edges* (the
    // partition seams) are absorbed by the ordinary ECO path.
    let resources = ResourceSet::classic(2, 2);
    let g = generate::stress_dag(31, 1200);
    let cfg = ParallelConfig { parts: 8, ..ParallelConfig::default() };
    let ps = ParallelScheduler::new(g.clone(), resources.clone(), cfg).unwrap();
    let run = ps.run().unwrap();
    let cut = ps.partition().cut_edges(&g);
    assert!(!cut.is_empty(), "an 8-way partition of 1200 ops must cut something");
    let mut ts = ps.materialize(&run).unwrap();
    for &(u, v) in cut.iter().take(12) {
        ts.refine_splice(u, v, [(OpKind::WireDelay, 1, "seam-wire".to_string())])
            .unwrap();
    }
    ts.check_invariants().unwrap();
    let hard = ts.extract_hard();
    schedule::validate(ts.graph(), &resources, &hard).unwrap();
}
