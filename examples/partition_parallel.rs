//! Partition-parallel scheduling: cut a big DFG into balanced blocks,
//! schedule the blocks on worker threads, stitch the seams — then
//! compare against the sequential engine.
//!
//! Run with:
//! `cargo run --release --example partition_parallel [workload] [workers]`
//! — any `hls_ir::load` spec (`stress:<seed>:<ops>`, a kernel name, a
//! `.dfg` file); the default is a 60k-op stress DAG.

use std::time::Instant;

use soft_hls::ir::{load, schedule, ResourceSet};
use soft_hls::sched::{
    meta::MetaSchedule, parallel::ParallelConfig, ParallelScheduler, ThreadedScheduler,
};

fn main() {
    let spec = std::env::args().nth(1).unwrap_or_else(|| "stress:7:60000".to_string());
    let workers = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let (name, g) = load::load_graph(&spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let resources = ResourceSet::classic(2, 2);
    println!("workload {name}: {} ops, {} edges, {resources}", g.len(), g.edge_count());

    // The sequential reference: one engine, one commit loop.
    let t0 = Instant::now();
    let order = MetaSchedule::Topological.order(&g, &resources).expect("DAG workloads only");
    let mut ts = ThreadedScheduler::new(g.clone(), resources.clone()).expect("valid graph");
    ts.schedule_all(order).expect("schedulable");
    let seq_ms = t0.elapsed().as_millis();
    println!("sequential: {} states in {seq_ms} ms", ts.diameter());

    // The partition-parallel engine: every run partitions, so small
    // demo workloads show the seam cost in full.
    let cfg = ParallelConfig { workers, ..ParallelConfig::default() };
    let t0 = Instant::now();
    let ps = ParallelScheduler::new(g.clone(), resources.clone(), cfg).expect("valid graph");
    let run = ps.run().expect("schedulable");
    let par_ms = t0.elapsed().as_millis();

    schedule::validate(&g, &resources, &run.schedule).expect("the stitch is always valid");
    println!(
        "parallel:   {} states in {par_ms} ms ({} blocks, {} cut edges, certified >= {})",
        run.diameter,
        ps.partition().parts(),
        run.cut_edges,
        run.lower_bound
    );
    println!(
        "speedup {:.2}x, quality {:+.2}% vs sequential",
        seq_ms as f64 / (par_ms.max(1)) as f64,
        100.0 * (run.diameter as f64 - ts.diameter() as f64) / ts.diameter() as f64
    );

    // Verify the stitch: materialise it into a live engine state and
    // cross-check the threading against the engine's own invariants.
    let live = ps.materialize(&run).expect("stitched runs materialise");
    live.check_invariants().expect("materialised state is coherent");
    assert_eq!(live.diameter(), run.diameter, "materialised diameter");
    println!(
        "stitch verified: materialised {} ops, invariants hold, diameter {}",
        live.scheduled_count(),
        live.diameter()
    );
}
