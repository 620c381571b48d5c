//! BENCH_3: the parallel portfolio study.
//!
//! Two questions, mirroring the acceptance criteria of the portfolio
//! work:
//!
//! 1. **Quality** ([`fig3_portfolio`]): on every Figure-3 benchmark ×
//!    resource configuration, is the portfolio diameter ≤ the best
//!    single paper meta schedule, and how often do the random
//!    populations beat all four?
//! 2. **Cost** ([`thread_sweep`]): on the BENCH_2 layered-DFG sweep
//!    workload, what does the 8-strategy portfolio cost in wall time
//!    at 1/2/4/8 threads, against the wall time of the single winning
//!    meta schedule? The early-abort protocol (certified
//!    final-diameter lower bound vs the shared incumbent) is what
//!    keeps the portfolio near 1× even without spare cores: on the
//!    sweep workload the resource floor is tight, so every losing
//!    strategy aborts after its first scheduled operation.

use hls_ir::{bench_graphs, generate, Budget, ResourceSet};
use hls_search::{base_candidates, race, race_workers, run_portfolio, PortfolioConfig};
use std::time::Instant;
use threaded_sched::{meta::MetaSchedule, ThreadedScheduler};

/// The portfolio configuration BENCH_3 uses everywhere: the default
/// 8 strategies with a fixed seed set (results must be reproducible),
/// parameterised over threads.
pub fn bench_config(threads: usize) -> PortfolioConfig {
    PortfolioConfig {
        threads,
        ..PortfolioConfig::default()
    }
}

/// One cell of the Figure-3 portfolio-quality table.
#[derive(Clone, Debug)]
pub struct Fig3Cell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Resource-configuration label.
    pub config: &'static str,
    /// Best diameter over the four paper meta schedules, run singly.
    pub best_single: u64,
    /// Name of the meta schedule achieving `best_single`.
    pub best_single_name: &'static str,
    /// Portfolio diameter.
    pub portfolio: u64,
    /// The certified schedule lower bound (graph diameter ∨ resource
    /// floor); `portfolio == lower_bound` means provably optimal.
    pub lower_bound: u64,
    /// The winning strategy's name.
    pub winner: String,
}

/// Runs the portfolio-quality study over the Figure-3 benchmarks and
/// resource configurations.
///
/// # Panics
///
/// Panics if any schedule fails (cannot happen with the shipped set).
pub fn fig3_portfolio(threads: usize) -> Vec<Fig3Cell> {
    let mut cells = Vec::new();
    for (name, g) in bench_graphs::all() {
        for (label, r) in crate::fig3::paper_configs() {
            let (best_single_name, best_single) = MetaSchedule::PAPER
                .into_iter()
                .map(|m| {
                    (m.name(), crate::fig3::threaded_length(&g, &r, m).expect("benchmark"))
                })
                .min_by_key(|&(_, d)| d)
                .expect("four metas");
            let out = run_portfolio(&g, &r, &bench_config(threads), &Budget::NONE)
                .expect("benchmark");
            assert!(
                out.diameter <= best_single,
                "{name}/{label}: portfolio must not lose to a single meta"
            );
            cells.push(Fig3Cell {
                benchmark: name,
                config: label,
                best_single,
                best_single_name,
                portfolio: out.diameter,
                lower_bound: out.lower_bound,
                winner: out.winner_name,
            });
        }
    }
    cells
}

/// Formats the Figure-3 portfolio table.
pub fn fig3_report(cells: &[Fig3Cell]) -> String {
    let header = vec![
        "BM".to_string(),
        "config".to_string(),
        "best single".to_string(),
        "portfolio".to_string(),
        "bound".to_string(),
        "winner".to_string(),
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.benchmark.to_string(),
                c.config.to_string(),
                format!("{} ({})", c.best_single, c.best_single_name),
                c.portfolio.to_string(),
                c.lower_bound.to_string(),
                c.winner.clone(),
            ]
        })
        .collect();
    crate::render_table(&header, &rows)
}

/// One thread-count measurement of the portfolio race.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Requested thread cap.
    pub threads: usize,
    /// Workers actually spawned (`min(threads, strategies, cores)` —
    /// the race never oversubscribes physical cores).
    pub workers: usize,
    /// Wall time of the 8-strategy race, microseconds (orders are
    /// computed inside the race workers).
    pub wall_us: u128,
    /// Runs that completed.
    pub completed: usize,
    /// Runs pruned by the early-abort protocol.
    pub aborted: usize,
    /// Total operations fed across all runs, as a fraction of
    /// `strategies × |V|` — the work-conserving view of pruning.
    pub work_frac: f64,
    /// The (deterministic) winning diameter.
    pub diameter: u64,
}

/// The portfolio-cost study on one layered-DFG sweep workload.
#[derive(Clone, Debug)]
pub struct SweepStudy {
    /// Operation count of the workload.
    pub ops: usize,
    /// Per paper meta schedule: `(name, wall µs, diameter)` of a
    /// single run (order construction + schedule).
    pub singles: Vec<(&'static str, u128, u64)>,
    /// Wall time of the *quality-best* single meta — the strategy one
    /// would have to run to match the portfolio's base quality.
    pub best_single_us: u128,
    /// The race measured at each requested thread count.
    pub points: Vec<SweepPoint>,
}

/// Measures the 8-strategy portfolio race at each thread count on the
/// BENCH_2 sweep workload (`hls_bench::complexity::sweep_config`),
/// plus the single-meta baselines.
///
/// # Panics
///
/// Panics if the generated workload fails to schedule.
pub fn thread_sweep(ops: usize, thread_counts: &[usize]) -> SweepStudy {
    let resources = ResourceSet::classic(2, 2);
    let g = generate::layered_dag(0x5EED ^ ops as u64, &crate::complexity::sweep_config(ops));
    let singles: Vec<(&'static str, u128, u64)> = MetaSchedule::PAPER
        .into_iter()
        .map(|m| {
            let t0 = Instant::now();
            let order = m.order(&g, &resources).expect("generated DAG");
            let mut ts =
                ThreadedScheduler::new(g.clone(), resources.clone()).expect("valid graph");
            ts.schedule_all(order).expect("schedulable");
            (m.name(), t0.elapsed().as_micros(), ts.diameter())
        })
        .collect();
    let best_single_us = singles
        .iter()
        .min_by_key(|&&(_, us, d)| (d, us))
        .map(|&(_, us, _)| us)
        .expect("four metas");

    let candidates = base_candidates(&bench_config(1));
    let points = thread_counts
        .iter()
        .map(|&threads| {
            let t0 = Instant::now();
            let out = race(&g, &resources, &candidates, threads, &hls_ir::Budget::NONE)
                .expect("schedulable");
            let wall_us = t0.elapsed().as_micros();
            let win = out.best.expect("unbounded race completes");
            let completed = out.reports.iter().filter(|r| r.diameter.is_some()).count();
            let fed: usize = out.reports.iter().map(|r| r.scheduled).sum();
            SweepPoint {
                threads,
                workers: race_workers(threads, candidates.len()),
                wall_us,
                completed,
                aborted: out.reports.len() - completed,
                work_frac: fed as f64 / (candidates.len() * g.len()) as f64,
                diameter: win.diameter,
            }
        })
        .collect();

    SweepStudy {
        ops,
        singles,
        best_single_us,
        points,
    }
}

/// Formats the thread-sweep table.
pub fn sweep_report(study: &SweepStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "single-meta baselines at |V|={} (name, wall us, diameter):\n",
        study.ops
    ));
    for &(name, us, d) in &study.singles {
        out.push_str(&format!("  {name:<14} {us:>10}  {d}\n"));
    }
    let header = vec![
        "threads".to_string(),
        "workers".to_string(),
        "wall (us)".to_string(),
        "vs best single".to_string(),
        "completed".to_string(),
        "aborted".to_string(),
        "work frac".to_string(),
        "diameter".to_string(),
    ];
    let rows: Vec<Vec<String>> = study
        .points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                p.workers.to_string(),
                p.wall_us.to_string(),
                format!("{:.2}x", p.wall_us as f64 / study.best_single_us.max(1) as f64),
                p.completed.to_string(),
                p.aborted.to_string(),
                format!("{:.3}", p.work_frac),
                p.diameter.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(&header, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_cells_cover_all_benchmarks_and_never_lose() {
        let cells = fig3_portfolio(2);
        assert_eq!(cells.len(), 4 * 3);
        for c in &cells {
            assert!(c.portfolio <= c.best_single);
            assert!(c.portfolio >= c.lower_bound);
        }
        let text = fig3_report(&cells);
        assert!(text.contains("HAL") && text.contains("portfolio"));
    }

    #[test]
    fn thread_sweep_is_deterministic_in_diameter_across_thread_counts() {
        let study = thread_sweep(400, &[1, 2]);
        assert_eq!(study.points.len(), 2);
        assert_eq!(study.points[0].diameter, study.points[1].diameter);
        assert!(study.points.iter().all(|p| p.completed >= 1));
        let text = sweep_report(&study);
        assert!(text.contains("vs best single"));
    }
}
