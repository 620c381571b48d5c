//! Portfolio acceptance properties: thread-count-independent results
//! and never losing to a single meta schedule.

use hls_ir::{bench_graphs, generate, ResourceSet};
use hls_search::{run_portfolio, PortfolioConfig};
use threaded_sched::{meta::MetaSchedule, ThreadedScheduler};

/// The three Figure-3 resource allocations.
fn fig3_configs() -> Vec<ResourceSet> {
    vec![
        ResourceSet::classic(2, 2),
        ResourceSet::classic(4, 4),
        ResourceSet::classic(2, 1),
    ]
}

fn config_with_threads(threads: usize) -> PortfolioConfig {
    PortfolioConfig {
        threads,
        random_seeds: vec![0xA11CE, 0xB0B5],
        topo_seeds: vec![0x7E40_0001, 0x7E40_0002],
    }
}

#[test]
fn portfolio_is_deterministic_across_thread_counts() {
    // A mid-size layered DFG — large enough that runs genuinely
    // overlap and abort mid-flight — plus one paper benchmark. The
    // shape is the shared cross-crate stress workload.
    let layered = generate::stress_dag(0xD15C0, 600);
    let workloads = vec![("layered-600", layered), ("EF", bench_graphs::ewf())];
    let resources = ResourceSet::classic(2, 2);
    for (name, g) in workloads {
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = config_with_threads(threads);
            let out = run_portfolio(&g, &resources, &cfg, &hls_ir::Budget::NONE).unwrap();
            out.winner.check_invariants().unwrap();
            results.push((threads, out));
        }
        let (_, first) = &results[0];
        for (threads, out) in &results[1..] {
            assert_eq!(
                out.winner_name, first.winner_name,
                "{name}: winner differs at {threads} threads"
            );
            assert_eq!(
                out.diameter, first.diameter,
                "{name}: diameter differs at {threads} threads"
            );
            assert_eq!(
                out.winner_order, first.winner_order,
                "{name}: winning order differs at {threads} threads"
            );
        }
    }
}

#[test]
fn portfolio_never_loses_to_a_single_meta_schedule() {
    // Acceptance: on every Figure-3 benchmark and resource config, the
    // portfolio diameter is ≤ the best single paper meta schedule.
    for (name, g) in bench_graphs::all() {
        for r in fig3_configs() {
            let best_single = MetaSchedule::PAPER
                .into_iter()
                .map(|m| {
                    let order = m.order(&g, &r).unwrap();
                    let mut ts = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
                    ts.schedule_all(order).unwrap();
                    ts.diameter()
                })
                .min()
                .unwrap();
            let cfg = config_with_threads(2);
            let out = run_portfolio(&g, &r, &cfg, &hls_ir::Budget::NONE).unwrap();
            assert!(
                out.diameter <= best_single,
                "{name} {:?}: portfolio {} vs best single {best_single}",
                r,
                out.diameter
            );
            // And the winner state is a valid, extractable schedule.
            let hard = out.winner.extract_hard();
            hls_ir::schedule::validate(out.winner.graph(), &r, &hard).unwrap();
        }
    }
}
