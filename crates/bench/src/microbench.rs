//! Micro-benchmarks for the scheduler hot path (BENCH_7).
//!
//! The repo takes no external bench dependency, so this module carries
//! the small timing harness the studies need: warmup, repeated
//! samples, and min/median statistics (min is the headline — on a
//! shared vCPU every source of noise only *adds* time, so the minimum
//! is the best estimate of the true cost). Each scenario isolates one hot-path ingredient:
//!
//! * [`bench_select_commit`] — `select` alone (read-only, repeatable)
//!   and the full `select`+`commit` pair, per operation, measured
//!   mid-run on a layered DAG state;
//! * [`bench_probes`] — `ReachIndex` pair probes (`reaches`), set
//!   probes (`set_reaches`/`set_reached_by` against a live
//!   [`ChainExtrema`]), and the word-parallel extremum-row kernels vs
//!   their scalar oracles.
//!
//! `bin/microbench.rs` drives these, prints a table, emits
//! `BENCH_7.json`, and in `--check` mode gates CI on the 100k-op
//! single-threaded wall (>15 % regression vs the committed artifact
//! fails the job).

use crate::complexity::sweep_config;
use hls_ir::reach::{kernels, ChainExtrema, ReachIndex};
use hls_ir::{generate, ResourceSet};
use std::hint::black_box;
use std::time::Instant;
use threaded_sched::meta::MetaSchedule;
use threaded_sched::ThreadedScheduler;

/// One timed scenario: `iters` executions per sample, several samples,
/// nanoseconds per iteration of the minimum and median sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Scenario name as printed and serialized.
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Best (minimum) per-iteration time across samples, nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time across samples, nanoseconds.
    pub median_ns: f64,
}

impl Sample {
    /// Iterations per second at the minimum sample.
    pub fn ops_per_sec(&self) -> f64 {
        if self.min_ns <= 0.0 {
            0.0
        } else {
            1e9 / self.min_ns
        }
    }
}

/// Times `f` — `iters` calls per sample, `samples` samples — and
/// reports per-call statistics. The warmup sample is discarded (first
/// touch pays paging and cache fills the steady state never sees).
pub fn time_fn<F: FnMut()>(name: &str, iters: u64, samples: usize, mut f: F) -> Sample {
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for s in 0..=samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if s > 0 {
            // s == 0 is warmup.
            per_iter.push(ns);
        }
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Sample {
        name: name.to_string(),
        iters,
        min_ns: per_iter.first().copied().unwrap_or(0.0),
        median_ns: per_iter[per_iter.len() / 2],
    }
}

/// A mid-run scheduling state over a layered DAG: the first
/// `scheduled` operations of the topological meta order committed, the
/// rest pending — the state shape `select`/`commit` see per operation
/// in steady state.
pub struct MidRunState {
    /// The scheduler holding the prefix state.
    pub ts: ThreadedScheduler,
    /// The remaining (unscheduled) suffix of the feed order.
    pub pending: Vec<hls_ir::OpId>,
}

/// Builds the mid-run state deterministically (seed `0x5EED ^ ops`,
/// the BENCH_2 sweep workload).
pub fn mid_run_state(ops: usize, scheduled: usize) -> MidRunState {
    let g = generate::layered_dag(0x5EED ^ ops as u64, &sweep_config(ops));
    let resources = ResourceSet::classic(2, 2);
    let order = MetaSchedule::Topological
        .order(&g, &resources)
        .expect("layered DAG orders");
    let mut ts = ThreadedScheduler::new(g, resources).expect("layered DAG builds");
    for &v in order.iter().take(scheduled) {
        let p = ts.select(v).expect("feasible");
        ts.commit(p, v);
    }
    MidRunState {
        ts,
        pending: order[scheduled..].to_vec(),
    }
}

/// `select` alone and the `select`+`commit` pair, nanoseconds per
/// operation, on a `ops`-op layered DAG measured from its midpoint.
pub fn bench_select_commit(ops: usize) -> (Sample, Sample) {
    // select is &self and repeatable: cycle over a window of pending
    // ops without mutating the state.
    let st = mid_run_state(ops, ops / 2);
    let window: Vec<_> = st.pending.iter().copied().take(64).collect();
    let mut i = 0usize;
    let select = time_fn("select_ns_per_op", 20_000, 5, || {
        let v = window[i & 63];
        i += 1;
        black_box(st.ts.select(v).expect("feasible"));
    });

    // The pair mutates, so each sample schedules the full order on a
    // fresh clone of the pristine template (the clone is microseconds
    // against a multi-millisecond schedule); per-op cost is the
    // full-schedule wall divided by the op count.
    let g = generate::layered_dag(0x5EED ^ ops as u64, &sweep_config(ops));
    let resources = ResourceSet::classic(2, 2);
    let full_order = MetaSchedule::Topological
        .order(&g, &resources)
        .expect("orders");
    let template = ThreadedScheduler::new(g, resources).expect("builds");
    let n = full_order.len() as f64;
    let mut pair = time_fn("select_commit_ns_per_op", 1, 3, || {
        let mut ts = template.clone();
        for &v in &full_order {
            let p = ts.select(v).expect("feasible");
            ts.commit(p, v);
        }
    });
    pair.min_ns /= n;
    pair.median_ns /= n;
    (select, pair)
}

/// Probe costs on a `ops`-op layered DAG: `(pair_probe, set_probe)`
/// nanoseconds per probe (invert via [`Sample::ops_per_sec`] for the
/// Mops/sec acceptance number).
pub fn bench_probes(ops: usize) -> (Sample, Sample) {
    let g = generate::layered_dag(0x5EED ^ ops as u64, &sweep_config(ops));
    let n = g.len();
    let reach = ReachIndex::try_build(&g).expect("fits the chain budget");
    // A half-full scheduled set: the extrema shape mid-run probes see.
    let mut ex = ChainExtrema::empty(&reach);
    for v in (0..n).step_by(2) {
        ex.insert(&reach, v);
    }

    // Deterministic index mixing (splitmix-style) so probes stride the
    // index instead of hammering one row.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next_idx = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };

    let pair = {
        let mut acc = 0u64;
        let mut f = || {
            let u = next_idx() % n;
            let v = next_idx() % n;
            acc += reach.reaches(u, v) as u64;
        };
        let s = time_fn("pair_probe_ns", 2_000_000, 5, &mut f);
        black_box(acc);
        s
    };

    let mut state2 = 0x2545_F491_4F6C_DD1Du64;
    let mut next_idx2 = move || {
        state2 ^= state2 << 13;
        state2 ^= state2 >> 7;
        state2 ^= state2 << 17;
        state2 as usize
    };
    let set = {
        let mut acc = 0u64;
        let mut f = || {
            let v = next_idx2() % n;
            acc += reach.set_reaches(&ex, v) as u64;
            acc += reach.set_reached_by(&ex, v) as u64;
        };
        // Two probes per iteration; per-probe time halves below.
        let mut s = time_fn("set_probe_ns", 500_000, 5, &mut f);
        s.min_ns /= 2.0;
        s.median_ns /= 2.0;
        black_box(acc);
        s
    };

    (pair, set)
}

/// Word-vs-scalar `min_into` at the chain width of a `ops`-op index,
/// per-lane nanoseconds in both regimes the row merges actually see.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Row width (lanes) the kernels were measured at.
    pub lanes: usize,
    /// Converged rows (`dst` already ≤ `src` everywhere): the common
    /// case once propagation is about to self-limit. Per-lane ns.
    pub word_converged_ns: f64,
    /// Converged rows through the scalar oracle.
    pub scalar_converged_ns: f64,
    /// Churning rows (every other lane shrinks each call): the front
    /// of a propagation wave. Per-lane ns, restore cost subtracted.
    pub word_churn_ns: f64,
    /// Churning rows through the scalar oracle.
    pub scalar_churn_ns: f64,
    /// `any_le` on all-false rows (the full-walk worst case every
    /// "no" probe pays) — the word walk. Per-lane ns.
    pub any_le_word_ns: f64,
    /// `any_le` all-false rows through the scalar oracle.
    pub any_le_scalar_ns: f64,
}

/// Measures [`KernelReport`] — both kernels, both regimes.
pub fn bench_kernels(ops: usize) -> KernelReport {
    let g = generate::layered_dag(0x5EED ^ ops as u64, &sweep_config(ops));
    let reach = ReachIndex::try_build(&g).expect("fits the chain budget");
    let lanes = reach.chain_count();
    let lf = lanes as f64;

    // Converged: dst is already the elementwise min, nothing changes.
    let src: Vec<u16> = (0..lanes).map(|i| (i as u16).wrapping_mul(7)).collect();
    let mut dst: Vec<u16> = src.iter().map(|&s| s.saturating_sub(1)).collect();
    let word_conv = {
        let s = time_fn("min_into_word_converged", 200_000, 5, || {
            black_box(kernels::min_into(&mut dst, &src));
        });
        s.min_ns / lf
    };
    let mut dst2 = dst.clone();
    let scalar_conv = {
        let s = time_fn("min_into_scalar_converged", 200_000, 5, || {
            black_box(kernels::min_into_scalar(&mut dst2, &src));
        });
        s.min_ns / lf
    };

    // Churn: restore dst each call, then merge a src that shrinks
    // every other lane — the data-dependent-branch case. The restore
    // cost is measured alone and subtracted.
    let pristine: Vec<u16> = vec![0x7FFF; lanes];
    let shrink: Vec<u16> = (0..lanes)
        .map(|i| if i % 2 == 0 { i as u16 } else { u16::MAX })
        .collect();
    let mut dst3 = pristine.clone();
    let restore = time_fn("row_restore", 200_000, 5, || {
        dst3.copy_from_slice(black_box(&pristine));
        black_box(&mut dst3);
    });
    let word_churn = {
        let s = time_fn("min_into_word_churn", 200_000, 5, || {
            dst3.copy_from_slice(black_box(&pristine));
            black_box(kernels::min_into(&mut dst3, &shrink));
        });
        ((s.min_ns - restore.min_ns) / lf).max(0.0)
    };
    let scalar_churn = {
        let s = time_fn("min_into_scalar_churn", 200_000, 5, || {
            dst3.copy_from_slice(black_box(&pristine));
            black_box(kernels::min_into_scalar(&mut dst3, &shrink));
        });
        ((s.min_ns - restore.min_ns) / lf).max(0.0)
    };

    // any_le worst case: every lane answers "no", the whole row is
    // walked — the shape a failed set probe pays. An early-exit loop
    // defeats autovectorization, so this is where the 4-lane word
    // walk earns its keep.
    let hi: Vec<u16> = vec![1000; lanes];
    let lo: Vec<u16> = vec![1; lanes];
    let any_word = {
        let s = time_fn("any_le_word_false", 500_000, 5, || {
            black_box(kernels::any_le(black_box(&hi), black_box(&lo)));
        });
        s.min_ns / lf
    };
    let any_scalar = {
        let s = time_fn("any_le_scalar_false", 500_000, 5, || {
            black_box(kernels::any_le_scalar(black_box(&hi), black_box(&lo)));
        });
        s.min_ns / lf
    };

    KernelReport {
        lanes,
        word_converged_ns: word_conv,
        scalar_converged_ns: scalar_conv,
        word_churn_ns: word_churn,
        scalar_churn_ns: scalar_churn,
        any_le_word_ns: any_word,
        any_le_scalar_ns: any_scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_shim_reports_sane_statistics() {
        let s = time_fn("spin", 1000, 3, || {
            black_box(42u64);
        });
        assert!(s.min_ns >= 0.0);
        assert!(s.median_ns >= s.min_ns);
        assert!(s.ops_per_sec() > 0.0);
    }

    #[test]
    fn mid_run_state_splits_the_order() {
        let st = mid_run_state(400, 200);
        assert_eq!(st.ts.scheduled_count(), 200);
        assert_eq!(st.pending.len(), 200);
    }
}
