//! Theorem 3: linear per-operation complexity of Algorithm 1.
//!
//! The paper proves `F(v, S)` is computable in `O(|V|)` time and notes
//! that the naive speculative implementation costs `O(|V|² · |E|)` for a
//! full schedule. This experiment measures wall-clock time for complete
//! schedules of layered random DFGs of growing size with both
//! implementations (plus list scheduling for reference), exposing the
//! quadratic-vs-cubic gap.

use hls_ir::{generate, ResourceSet};
use std::time::Instant;
use threaded_sched::{
    meta::MetaSchedule, ExhaustiveScheduler, ReferenceScheduler, ThreadedScheduler,
};

/// One measured size point.
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Number of operations.
    pub ops: usize,
    /// Edges in the generated DFG.
    pub edges: usize,
    /// Full-schedule wall time of Algorithm 1, microseconds.
    pub threaded_us: u128,
    /// Full-schedule wall time of the naive speculative scheduler,
    /// microseconds (`None` if skipped as too large).
    pub naive_us: Option<u128>,
    /// List-scheduling wall time, microseconds.
    pub list_us: u128,
}

/// Repetitions per size of [`run`]. Each scheduler's time is the
/// minimum over them, and the schedulers take turns within each
/// repetition, so one preemption or a busy stretch of the host cannot
/// decide which of them looks faster.
const REPS: usize = 5;

/// Runs the scaling experiment over the given sizes. The naive scheduler
/// is skipped above `naive_cutoff` operations. Every time is the
/// minimum of five interleaved repetitions.
///
/// # Panics
///
/// Panics if a generated workload fails to schedule (cannot happen: the
/// generator emits ALU/MUL ops only and both unit classes are present).
pub fn run(sizes: &[usize], naive_cutoff: usize) -> Vec<SizePoint> {
    let resources = ResourceSet::classic(2, 2);
    sizes
        .iter()
        .map(|&n| {
            let cfg = generate::LayeredConfig {
                ops: n,
                width: (n / 8).max(2),
                edge_prob: 0.25,
                ..generate::LayeredConfig::default()
            };
            let g = generate::layered_dag(0xC0FFEE ^ n as u64, &cfg);
            let order = MetaSchedule::Topological
                .order(&g, &resources)
                .expect("generated graph is a DAG");

            let mut threaded_us = u128::MAX;
            let mut naive_us = (n <= naive_cutoff).then_some(u128::MAX);
            let mut list_us = u128::MAX;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let mut ts = ThreadedScheduler::new(g.clone(), resources.clone())
                    .expect("generated graph is valid");
                ts.schedule_all(order.iter().copied()).expect("schedulable");
                threaded_us = threaded_us.min(t0.elapsed().as_micros());

                if let Some(best) = naive_us.as_mut() {
                    let t0 = Instant::now();
                    let mut ex = ExhaustiveScheduler::new(g.clone(), resources.clone())
                        .expect("generated graph is valid");
                    ex.schedule_all(order.iter().copied()).expect("schedulable");
                    *best = (*best).min(t0.elapsed().as_micros());
                }

                let t0 = Instant::now();
                let _ = hls_baselines::list_schedule(
                    &g,
                    &resources,
                    hls_baselines::Priority::CriticalPath,
                )
                .expect("schedulable");
                list_us = list_us.min(t0.elapsed().as_micros());
            }

            SizePoint {
                ops: n,
                edges: g.edge_count(),
                threaded_us,
                naive_us,
                list_us,
            }
        })
        .collect()
}

/// Formats the scaling table.
pub fn report(points: &[SizePoint]) -> String {
    let header = vec![
        "|V|".to_string(),
        "|E|".to_string(),
        "threaded (us)".to_string(),
        "naive (us)".to_string(),
        "list (us)".to_string(),
        "naive/threaded".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.ops.to_string(),
                p.edges.to_string(),
                p.threaded_us.to_string(),
                p.naive_us.map_or("-".to_string(), |v| v.to_string()),
                p.list_us.to_string(),
                p.naive_us
                    .map_or("-".to_string(), |v| {
                        format!("{:.1}x", v as f64 / p.threaded_us.max(1) as f64)
                    }),
            ]
        })
        .collect();
    crate::render_table(&header, &rows)
}

/// One point of the incremental-engine scaling study.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Number of operations.
    pub ops: usize,
    /// Edges in the generated DFG.
    pub edges: usize,
    /// `schedule_all` wall time of the optimized scheduler,
    /// microseconds.
    pub opt_us: u128,
    /// `schedule_all` wall time of the frozen pre-refactor seed
    /// ([`ReferenceScheduler`]), microseconds; `None` above the cutoff.
    pub ref_us: Option<u128>,
    /// Final state diameter (checked equal between both engines).
    pub diameter: u64,
    /// Peak heap growth (bytes) while constructing and running the
    /// optimized scheduler — the memory-scaling column. 0 unless the
    /// process installed and armed [`crate::mem::CountingAlloc`].
    pub peak_bytes: u64,
}

/// The sweep workload: a layered DFG with *bounded mean in-degree*
/// (~6 predecessors per op, width capped at 64), so the edge count —
/// and the intrinsic work — grows linearly with `|V|`. This is the
/// shape of real basic-block DFG streams; the Theorem 3 question is how
/// scheduling cost scales when the problem itself scales linearly.
pub fn sweep_config(ops: usize) -> generate::LayeredConfig {
    let width = 64.min((ops / 4).max(2));
    generate::LayeredConfig {
        ops,
        width,
        edge_prob: (6.0 / width as f64).min(1.0),
        ..generate::LayeredConfig::default()
    }
}

/// Runs the scaling study: times `schedule_all` (state construction and
/// closure precomputation excluded on both sides) for the optimized
/// scheduler at every size and for the frozen seed up to
/// `reference_cutoff` ops.
///
/// # Panics
///
/// Panics if a workload fails to schedule or the two engines disagree
/// on the resulting diameter (they are golden-equivalent by
/// construction).
pub fn scaling_sweep(sizes: &[usize], reference_cutoff: usize) -> Vec<ScalePoint> {
    let resources = ResourceSet::classic(2, 2);
    sizes
        .iter()
        .map(|&n| {
            let g = generate::layered_dag(0x5EED ^ n as u64, &sweep_config(n));
            let order = MetaSchedule::Topological
                .order(&g, &resources)
                .expect("generated graph is a DAG");

            // Peak heap growth of the optimized engine alone: baseline
            // after the workload exists, peak over construction (graph
            // copy and per-op tables) and the full schedule.
            let mem_base = crate::mem::current_bytes();
            crate::mem::reset_peak();
            let mut ts = ThreadedScheduler::new(g.clone(), resources.clone())
                .expect("generated graph is valid");
            let t0 = Instant::now();
            ts.schedule_all(order.iter().copied()).expect("schedulable");
            let opt_us = t0.elapsed().as_micros();
            let peak_bytes = (crate::mem::peak_bytes() - mem_base).max(0) as u64;
            let diameter = ts.diameter();

            let ref_us = (n <= reference_cutoff).then(|| {
                let mut rs = ReferenceScheduler::new(g.clone(), resources.clone())
                    .expect("generated graph is valid");
                let t0 = Instant::now();
                rs.schedule_all(order.iter().copied()).expect("schedulable");
                let us = t0.elapsed().as_micros();
                assert_eq!(rs.diameter(), diameter, "engines diverged at |V|={n}");
                us
            });

            ScalePoint {
                ops: n,
                edges: g.edge_count(),
                opt_us,
                ref_us,
                diameter,
                peak_bytes,
            }
        })
        .collect()
}

/// One size of the flow row of the scaling study: the default
/// [`hls_flow::run_flow`] (list-based schedule, placement, wire-delay
/// absorption, FSMD) over [`FLOW_SEEDS`] `stress_dag` designs.
#[derive(Clone, Debug)]
pub struct FlowPoint {
    /// Operations per design as generated.
    pub ops: usize,
    /// Flow wall time summed over the designs, microseconds.
    pub flow_us: u128,
    /// Wire delays absorbed, summed over the designs: each is one
    /// splice into the finished state.
    pub wire_delays: usize,
    /// Final schedule lengths, summed over the designs.
    pub states: u64,
}

/// `stress_dag` seeds of each flow-row size.
pub const FLOW_SEEDS: std::ops::Range<u64> = 0..5;

/// Times the default flow over the [`FLOW_SEEDS`] designs of every
/// size. Wire-delay absorption dominates it at a few hundred ops, so
/// its fitted exponent shows whether a splice costs its cone or the
/// design.
///
/// # Panics
///
/// Panics if a flow fails (cannot happen: the default allocation runs
/// every op kind `stress_dag` emits).
pub fn flow_sweep(sizes: &[usize]) -> Vec<FlowPoint> {
    let config = hls_flow::FlowConfig::default();
    sizes
        .iter()
        .map(|&ops| {
            let mut point = FlowPoint {
                ops,
                flow_us: 0,
                wire_delays: 0,
                states: 0,
            };
            for seed in FLOW_SEEDS {
                let g = generate::stress_dag(seed, ops);
                let t0 = Instant::now();
                let out = hls_flow::run_flow(g, &config).expect("default flow succeeds");
                point.flow_us += t0.elapsed().as_micros();
                point.wire_delays += out.report.wire_delays;
                point.states += out.report.final_states;
            }
            point
        })
        .collect()
}

/// Formats the flow row.
pub fn report_flow(points: &[FlowPoint]) -> String {
    let header = ["|V|", "designs", "flow (us)", "wire delays", "states"]
        .map(String::from)
        .to_vec();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.ops.to_string(),
                FLOW_SEEDS.count().to_string(),
                p.flow_us.to_string(),
                p.wire_delays.to_string(),
                p.states.to_string(),
            ]
        })
        .collect();
    crate::render_table(&header, &rows)
}

/// Least-squares slope of `ln(time)` against `ln(ops)` — the empirical
/// scaling exponent of a sweep (1.0 = linear, 2.0 = quadratic).
pub fn fit_exponent(points: &[(usize, u128)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return f64::NAN;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(ops, us) in points {
        let x = (ops as f64).ln();
        let y = (us.max(1) as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats the scaling-study table.
pub fn report_scaling(points: &[ScalePoint]) -> String {
    let header = vec![
        "|V|".to_string(),
        "|E|".to_string(),
        "optimized (us)".to_string(),
        "seed (us)".to_string(),
        "speedup".to_string(),
        "diameter".to_string(),
        "peak MB".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.ops.to_string(),
                p.edges.to_string(),
                p.opt_us.to_string(),
                p.ref_us.map_or("-".to_string(), |v| v.to_string()),
                p.ref_us.map_or("-".to_string(), |v| {
                    format!("{:.1}x", v as f64 / p.opt_us.max(1) as f64)
                }),
                p.diameter.to_string(),
                if p.peak_bytes == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", p.peak_bytes as f64 / (1024.0 * 1024.0))
                },
            ]
        })
        .collect();
    crate::render_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_run_produces_points_and_naive_is_slower() {
        let pts = run(&[48, 96], 96);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.threaded_us > 0, "threaded run must take measurable time");
            let naive = p.naive_us.expect("below cutoff");
            assert!(
                naive >= p.threaded_us,
                "naive speculation should not beat Algorithm 1"
            );
        }
        let text = report(&pts);
        assert!(text.contains("naive/threaded"));
    }

    #[test]
    fn cutoff_skips_naive() {
        let pts = run(&[48], 10);
        assert!(pts[0].naive_us.is_none());
    }

    #[test]
    fn sweep_checks_diameter_equality_and_respects_cutoff() {
        let pts = scaling_sweep(&[64, 128], 64);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].ref_us.is_some(), "below cutoff: seed timed");
        assert!(pts[1].ref_us.is_none(), "above cutoff: seed skipped");
        assert!(pts.iter().all(|p| p.diameter > 0));
        let text = report_scaling(&pts);
        assert!(text.contains("speedup"));
    }

    #[test]
    fn flow_row_absorbs_wire_delays() {
        let pts = flow_sweep(&[60]);
        assert_eq!(pts[0].ops, 60);
        assert!(pts[0].wire_delays > 0 && pts[0].states > 0);
        assert!(report_flow(&pts).contains("wire delays"));
    }

    #[test]
    fn sweep_workload_has_bounded_degree() {
        let small = generate::layered_dag(1, &sweep_config(512));
        let large = generate::layered_dag(2, &sweep_config(4096));
        let deg_s = small.edge_count() as f64 / small.len() as f64;
        let deg_l = large.edge_count() as f64 / large.len() as f64;
        assert!((deg_s - deg_l).abs() < 2.0, "mean degree must not grow: {deg_s} vs {deg_l}");
    }

    #[test]
    fn fit_exponent_recovers_known_slopes() {
        let linear: Vec<(usize, u128)> = [100, 200, 400, 800].iter().map(|&n| (n, 3 * n as u128)).collect();
        assert!((fit_exponent(&linear) - 1.0).abs() < 0.01);
        let quad: Vec<(usize, u128)> =
            [100, 200, 400, 800].iter().map(|&n| (n, (n * n) as u128)).collect();
        assert!((fit_exponent(&quad) - 2.0).abs() < 0.01);
        assert!(fit_exponent(&quad[..1]).is_nan());
    }
}
