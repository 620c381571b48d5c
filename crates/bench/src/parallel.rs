//! BENCH_6: partition-parallel scaling to million-op behaviors.
//!
//! `ParallelScheduler` decomposes the behavior into balanced blocks,
//! schedules them on worker threads and stitches the seams in one
//! linear pass; it was built when the sequential engine's wall at
//! scale was dominated by a superlinear chain-cover index build, which
//! the sequential engine no longer has. This study measures both
//! engines on the BENCH_2 workload family
//! ([`crate::complexity::sweep_config`]) up to 10⁶ operations and
//! records the schedule-quality cost of decomposition (stitched vs
//! sequential diameter, and both vs the certified lower bound).

use std::time::Instant;

use hls_ir::{generate, load, PrecedenceGraph, ResourceSet};
use threaded_sched::{
    meta::MetaSchedule, parallel::ParallelConfig, ParallelScheduler, ThreadedScheduler,
};

use crate::artifact::{self, Json};
use crate::complexity::sweep_config;
use crate::obj;

/// One measured size point of the scaling study.
#[derive(Clone, Debug)]
pub struct ParallelPoint {
    /// Workload name (`sweep-<n>` for generated points).
    pub name: String,
    /// Number of operations.
    pub ops: usize,
    /// Edges in the DFG.
    pub edges: usize,
    /// Sequential `schedule_all` wall time, milliseconds (`None` if
    /// skipped — quick mode skips the 10⁶ sequential run).
    pub sequential_ms: Option<u128>,
    /// Sequential diameter (`None` when the run was skipped).
    pub sequential_diameter: Option<u64>,
    /// Partition-parallel wall time (partitioning included),
    /// milliseconds.
    pub parallel_ms: u128,
    /// Stitched diameter.
    pub parallel_diameter: u64,
    /// Certified lower bound: the resource floor folded with the
    /// critical path ([`ResourceSet::lower_bound`]).
    pub lower_bound: u64,
    /// Partition blocks used.
    pub blocks: usize,
    /// Cut edges of the partition.
    pub cut_edges: usize,
}

impl ParallelPoint {
    /// Sequential-over-parallel wall-time ratio, when both ran.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_ms
            .map(|s| s as f64 / (self.parallel_ms.max(1)) as f64)
    }
}

/// Measures one graph under both engines. `workers` sizes the parallel
/// pool; `with_reference` gates the (possibly minutes-long) sequential
/// reference.
///
/// # Panics
///
/// Panics if the workload fails to schedule (cannot happen for the
/// generated sweep: ALU/MUL ops under `ResourceSet::classic`), or if
/// the run's lower bound is not the graph's static
/// [`ResourceSet::lower_bound`] (an `O(V + E)` check, outside the
/// timed region).
pub fn measure(
    name: &str,
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    workers: usize,
    with_reference: bool,
) -> ParallelPoint {
    let (sequential_ms, sequential_diameter) = if with_reference {
        let t0 = Instant::now();
        let order = MetaSchedule::Topological
            .order(g, resources)
            .expect("sweep workload is a DAG");
        let mut ts = ThreadedScheduler::new(g.clone(), resources.clone())
            .expect("sweep workload is valid");
        ts.schedule_all(order).expect("sweep workload is schedulable");
        (Some(t0.elapsed().as_millis()), Some(ts.diameter()))
    } else {
        (None, None)
    };

    let cfg = ParallelConfig { workers, ..ParallelConfig::default() };
    let t0 = Instant::now();
    let ps = ParallelScheduler::new(g.clone(), resources.clone(), cfg)
        .expect("sweep workload is valid");
    let run = ps.run().expect("sweep workload is schedulable");
    let parallel_ms = t0.elapsed().as_millis();
    assert_eq!(
        run.lower_bound,
        resources.lower_bound(g),
        "{name}: the parallel run's lower bound is not the static certified bound"
    );

    ParallelPoint {
        name: name.to_string(),
        ops: g.len(),
        edges: g.edge_count(),
        sequential_ms,
        sequential_diameter,
        parallel_ms,
        parallel_diameter: run.diameter,
        lower_bound: run.lower_bound,
        blocks: ps.partition().parts(),
        cut_edges: run.cut_edges,
    }
}

/// Measures a workload resolved through the shared loader
/// ([`hls_ir::load`]): a named kernel, a `stress:<seed>:<ops>` spec or
/// a `.dfg` file.
///
/// # Errors
///
/// Propagates [`hls_ir::load::LoadError`] verbatim.
pub fn measure_spec(
    spec: &str,
    workers: usize,
    with_reference: bool,
) -> Result<ParallelPoint, load::LoadError> {
    let (name, g) = load::load_graph(spec)?;
    let resources = ResourceSet::classic(2, 2);
    Ok(measure(&name, &g, &resources, workers, with_reference))
}

/// Runs the scaling study. The sequential reference runs at every
/// size at or below `reference_max_ops` ops (above it only the
/// parallel engine runs — quick mode uses this to keep CI smokes
/// inside their timeout).
pub fn run_study(sizes: &[usize], workers: usize, reference_max_ops: usize) -> Vec<ParallelPoint> {
    let resources = ResourceSet::classic(2, 2);
    sizes
        .iter()
        .map(|&n| {
            let g = generate::layered_dag(0x5EED ^ n as u64, &sweep_config(n));
            measure(&format!("sweep-{n}"), &g, &resources, workers, n <= reference_max_ops)
        })
        .collect()
}

/// Renders the study as the BENCH_6 JSON document.
pub fn report(points: &[ParallelPoint], workers: usize, quick: bool) -> String {
    let headline = points
        .iter()
        .filter_map(ParallelPoint::speedup)
        .fold(0.0f64, f64::max);
    let rows: Vec<Json> = points
        .iter()
        .map(|p| {
            obj! {
                "name": p.name.as_str(), "ops": p.ops, "edges": p.edges,
                "sequential_ms": p.sequential_ms, "parallel_ms": p.parallel_ms,
                "speedup": p.speedup().map(|v| Json::fixed(v, 2)),
                "sequential_diameter": p.sequential_diameter,
                "parallel_diameter": p.parallel_diameter, "lower_bound": p.lower_bound,
                "blocks": p.blocks, "cut_edges": p.cut_edges,
            }
        })
        .collect();
    let body = obj! {
        "pr": 8u32,
        "subject": "partition-parallel scheduling: balanced min-cut partition + per-block soft \
            scheduling on worker threads + linear seam stitch, vs the sequential engine",
        "workload": "layered DFG, bounded mean in-degree ~6, ResourceSet::classic(2,2), \
            topological meta order (complexity::sweep_config)",
        "workers": workers,
        "headline_speedup": Json::fixed(headline, 2),
        "points": rows,
    };
    artifact::document("BENCH_6", quick, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_points_are_internally_consistent() {
        let points = run_study(&[2000, 5000], 2, usize::MAX);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.lower_bound <= p.parallel_diameter);
            let seq = p.sequential_diameter.unwrap();
            assert!(p.lower_bound <= seq);
            assert!(p.speedup().is_some());
            assert!(p.blocks >= 1);
        }
        let json = report(&points, 2, true);
        assert!(json.contains("\"bench\": \"BENCH_6\""));
        assert!(json.contains("\"ops\": 5000"));
    }

    #[test]
    fn loader_backed_points_work() {
        let p = measure_spec("ewf", 2, true).unwrap();
        assert_eq!(p.name, "EWF");
        let seq = p.sequential_diameter.unwrap();
        assert!(p.lower_bound <= seq && p.lower_bound <= p.parallel_diameter);
        assert!(measure_spec("no-such-workload", 2, false).is_err());
    }
}
