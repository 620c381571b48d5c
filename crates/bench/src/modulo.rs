//! BENCH_4: the loop-pipelining study.
//!
//! Runs the modulo portfolio over the classic loop kernels
//! ([`hls_ir::bench_graphs::loops`]) plus seeded random cyclic
//! kernels, across a grid of resource allocations, and records per
//! cell the certified bound (`ResMII`, `RecMII`, `MII`), the achieved
//! II, the gap `II − MII`, the fill latency and the wall time. Every
//! winning schedule is re-validated through
//! `hls_ir::schedule::check_modulo` before it is counted.

use hls_ir::schedule::check_modulo;
use hls_ir::{bench_graphs, generate, Budget, PrecedenceGraph, ResourceClass, ResourceSet};
use hls_search::{run_modulo_portfolio, PipelineConfig};
use std::time::Instant;

/// One kernel × allocation cell of the study.
#[derive(Clone, Debug)]
pub struct ModuloCell {
    /// Kernel name.
    pub kernel: String,
    /// Allocation, in the paper's display form.
    pub resources: String,
    /// Operations in the kernel.
    pub ops: usize,
    /// Resource component of the bound.
    pub res_mii: u64,
    /// Recurrence component of the bound.
    pub rec_mii: u64,
    /// The certified bound `max(ResMII, RecMII)`.
    pub mii: u64,
    /// Achieved initiation interval.
    pub ii: u64,
    /// `ii − mii` (0 = provably throughput-optimal).
    pub gap: u64,
    /// Single-iteration latency of the winner.
    pub latency: u64,
    /// Portfolio wall time for this cell, microseconds.
    pub wall_us: u64,
    /// Winning candidate tag.
    pub winner: String,
}

/// The allocation grid of the study.
fn allocations() -> Vec<ResourceSet> {
    vec![
        ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1),
        ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1),
        ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1),
        ResourceSet::classic(2, 3).with(ResourceClass::MemPort, 2),
    ]
}

/// The kernels of the study: the named loop benchmarks plus `extra`
/// seeded random cyclic kernels.
pub fn kernels(extra: usize) -> Vec<(String, PrecedenceGraph)> {
    let mut out: Vec<(String, PrecedenceGraph)> = bench_graphs::loops()
        .into_iter()
        .map(|(n, g)| (n.to_string(), g))
        .collect();
    for i in 0..extra {
        let cfg = generate::CyclicConfig {
            ops: 10 + 4 * i,
            back_edges: 2 + i,
            ..generate::CyclicConfig::default()
        };
        let g = generate::cyclic_kernel(0xB4 + i as u64, &cfg);
        out.push((format!("rand{}", i + 1), g));
    }
    out
}

/// Runs the full grid with `threads` portfolio workers.
///
/// # Panics
///
/// Panics if any cell fails to schedule or its winner fails
/// `check_modulo` — both are correctness bugs the bench must surface.
pub fn modulo_grid(extra_kernels: usize, threads: usize) -> Vec<ModuloCell> {
    let mut cells = Vec::new();
    for (name, g) in kernels(extra_kernels) {
        for r in allocations() {
            let cfg = PipelineConfig {
                threads,
                ..PipelineConfig::default()
            };
            let t0 = Instant::now();
            let out = run_modulo_portfolio(&g, &r, &cfg, &Budget::NONE)
                .unwrap_or_else(|e| panic!("{name} under {r}: {e}"));
            let wall_us = t0.elapsed().as_micros() as u64;
            check_modulo(&g, &r, &out.schedule)
                .unwrap_or_else(|e| panic!("{name} under {r}: invalid winner: {e}"));
            cells.push(ModuloCell {
                kernel: name.clone(),
                resources: r.to_string(),
                ops: g.len(),
                res_mii: out.res_mii,
                rec_mii: out.rec_mii,
                mii: out.mii,
                ii: out.ii,
                gap: out.ii - out.mii,
                latency: out.latency,
                wall_us,
                winner: out.winner_name.clone(),
            });
        }
    }
    cells
}

/// Renders the study as a table.
pub fn modulo_report(cells: &[ModuloCell]) -> String {
    let header: Vec<String> = [
        "kernel", "ops", "resources", "ResMII", "RecMII", "MII", "II", "gap", "latency",
        "wall_us", "winner",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.kernel.clone(),
                c.ops.to_string(),
                c.resources.clone(),
                c.res_mii.to_string(),
                c.rec_mii.to_string(),
                c.mii.to_string(),
                c.ii.to_string(),
                c.gap.to_string(),
                c.latency.to_string(),
                c.wall_us.to_string(),
                c.winner.clone(),
            ]
        })
        .collect();
    crate::render_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_kernels_times_allocations_and_mostly_meets_mii() {
        let cells = modulo_grid(1, 2);
        assert_eq!(cells.len(), 5 * 4);
        // Acceptance: achieved II equals the certified MII on a
        // majority of cells.
        let tight = cells.iter().filter(|c| c.gap == 0).count();
        assert!(
            tight * 2 > cells.len(),
            "II = MII on only {tight}/{} cells",
            cells.len()
        );
        for c in &cells {
            assert!(c.ii >= c.mii, "II below the certified bound");
        }
    }

    #[test]
    fn report_renders_every_cell() {
        let cells = modulo_grid(0, 1);
        let text = modulo_report(&cells);
        for c in &cells {
            assert!(text.contains(&c.kernel));
        }
    }
}
