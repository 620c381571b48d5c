//! Experiment harness for the soft-scheduling reproduction.
//!
//! Each module regenerates one table or figure of Zhu & Gajski (DAC '99)
//! or one of the additional studies indexed in `DESIGN.md`:
//!
//! * [`fig1`] — the motivating example walkthrough (Figure 1);
//! * [`fig3`] — the benchmark table (Figure 3);
//! * [`complexity`] — wall-clock scaling of Algorithm 1 vs the naive
//!   speculative scheduler (Theorem 3);
//! * [`coupling`] — the phase-coupling ablation (spill / wire-delay
//!   absorption: soft refinement vs hard patching vs rescheduling);
//! * [`meta_ablation`] — sensitivity of the online-optimal scheduler to
//!   the meta order;
//! * [`portfolio`] — the parallel portfolio + feedback refinement study
//!   (BENCH_3): quality vs the best single meta, wall time vs thread
//!   count under the early-abort protocol;
//! * [`modulo`] — the loop-pipelining study (BENCH_4): achieved II vs
//!   the certified `MII = max(ResMII, RecMII)` across loop kernels ×
//!   resource allocations, with the per-cell gap and wall time;
//! * [`mem`] — the byte-counting global allocator behind the memory
//!   column of the scaling study;
//! * [`microbench`] — hot-path micro-benchmarks (BENCH_7): `select`
//!   and `commit` per-op cost, `ReachIndex` probe throughput, and the
//!   word-parallel extremum kernels vs their scalar oracles;
//! * [`serve_load`] — the daemon load study (BENCH_5): open-loop
//!   throughput and p50/p99 at 0.5×/1×/2× estimated capacity,
//!   shed-rate under overload, and the schedule-cache hit/ECO-replay
//!   speedups;
//! * [`parallel`] — the partition-parallel scaling study (BENCH_6):
//!   balanced min-cut partition + per-block scheduling on worker
//!   threads + linear seam stitch, vs the sequential engine up to 10⁶
//!   ops, with the stitched-vs-sequential quality gap and the
//!   certified lower bound.
//!
//! The binaries under `src/bin/` print the results; `EXPERIMENTS.md`
//! records them against the paper.

pub mod complexity;
pub mod coupling;
pub mod delay_sweep;
pub mod fig1;
pub mod fig3;
pub mod mem;
pub mod meta_ablation;
pub mod microbench;
pub mod modulo;
pub mod parallel;
pub mod portfolio;
pub mod serve_load;

/// Renders a plain-text table: header row plus aligned data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |row: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_table_aligns_columns() {
        let header = vec!["a".to_string(), "bb".to_string()];
        let rows = vec![vec!["xxx".to_string(), "y".to_string()]];
        let t = super::render_table(&header, &rows);
        assert!(t.contains("a    bb"));
        assert!(t.contains("xxx  y"));
    }
}
