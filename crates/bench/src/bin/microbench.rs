//! Hot-path micro-benchmark driver (BENCH_7).
//!
//! Prints a component table (select / commit per-op cost, `ReachIndex`
//! probe throughput, word-vs-scalar extremum kernels), re-runs the
//! single-threaded `schedule_all` sweep, and emits `BENCH_7.json`.
//!
//! Usage: `microbench [--quick] [--check PATH] [OUTPUT_PATH]`
//!
//! * `--quick` — CI smoke sizes (the JSON carries `"quick": true` so
//!   it is never mistaken for a trajectory artifact);
//! * `--check PATH` — regression gate: measures the 100k-op
//!   single-threaded wall (best of 3) and exits non-zero if it exceeds
//!   the committed artifact's `"wall_100k_us"` by more than 15 %.

use hls_bench::complexity::scaling_sweep;
use hls_bench::microbench::{bench_kernels, bench_probes, bench_select_commit};
use std::fmt::Write as _;

/// CI regression gate headroom over the committed artifact.
const CHECK_TOLERANCE: f64 = 1.15;

fn main() {
    let mut quick = false;
    let mut check: Option<String> = None;
    let mut out_path = "BENCH_7.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--check" {
            check = Some(args.next().expect("--check takes the committed artifact path"));
        } else {
            out_path = arg;
        }
    }

    if let Some(path) = check {
        run_check(&path);
        return;
    }

    // Warm the process so the first timed scenario is not inflated.
    let _ = scaling_sweep(&[256], 0);

    let (sc_ops, probe_ops, wall_sizes): (usize, usize, Vec<usize>) = if quick {
        (4_000, 4_000, vec![500, 1000, 2000])
    } else {
        (20_000, 20_000, vec![1000, 10000, 100000])
    };

    println!("== select / commit (layered DAG, {sc_ops} ops, mid-run state) ==");
    let (select, pair) = bench_select_commit(sc_ops);
    println!("  select        : {:8.0} ns/op (median {:.0})", select.min_ns, select.median_ns);
    println!("  select+commit : {:8.0} ns/op (median {:.0})", pair.min_ns, pair.median_ns);

    println!("== ReachIndex probes ({probe_ops} ops) ==");
    let (pp, sp) = bench_probes(probe_ops);
    let pp_mops = pp.ops_per_sec() / 1e6;
    let sp_mops = sp.ops_per_sec() / 1e6;
    println!("  pair probe    : {pp_mops:8.1} Mops/s ({:.1} ns)", pp.min_ns);
    println!("  set probe     : {sp_mops:8.1} Mops/s ({:.1} ns)", sp.min_ns);
    let k = bench_kernels(probe_ops);
    println!("== min_into kernels ({} lanes/row) ==", k.lanes);
    println!(
        "  converged     : {:8.3} ns/lane word vs {:.3} scalar",
        k.word_converged_ns, k.scalar_converged_ns
    );
    println!(
        "  churning      : {:8.3} ns/lane word vs {:.3} scalar",
        k.word_churn_ns, k.scalar_churn_ns
    );
    println!(
        "  any_le (false): {:8.3} ns/lane word vs {:.3} scalar",
        k.any_le_word_ns, k.any_le_scalar_ns
    );

    println!("== single-threaded schedule_all sweep ==");
    let points = scaling_sweep(&wall_sizes, 0);
    for p in &points {
        println!("  {:>7} ops: {:>8} us", p.ops, p.opt_us);
    }
    let wall_100k = points.iter().find(|p| p.ops == 100000).map(|p| p.opt_us);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"BENCH_7\",");
    let _ = writeln!(json, "  \"pr\": 9,");
    let _ = writeln!(
        json,
        "  \"subject\": \"hot-path micro-benchmarks: select/commit per-op cost, ReachIndex probe throughput, word-parallel extremum kernels\","
    );
    let _ = writeln!(
        json,
        "  \"machine\": \"1 vCPU shared Xeon 2.1 GHz dev container; min-of-N sampling, warmup discarded\","
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"targets\": {{\"wall_100k_us\": 150000, \"probe_mops\": 5.0}},"
    );
    let _ = writeln!(json, "  \"select_ns_per_op\": {:.1},", select.min_ns);
    let _ = writeln!(json, "  \"select_commit_ns_per_op\": {:.1},", pair.min_ns);
    let _ = writeln!(json, "  \"pair_probe_mops\": {pp_mops:.2},");
    let _ = writeln!(json, "  \"set_probe_mops\": {sp_mops:.2},");
    let _ = writeln!(
        json,
        "  \"kernel_min_into\": {{\"lanes\": {}, \"word_converged_ns_per_lane\": {:.3}, \"scalar_converged_ns_per_lane\": {:.3}, \"word_churn_ns_per_lane\": {:.3}, \"scalar_churn_ns_per_lane\": {:.3}}},",
        k.lanes, k.word_converged_ns, k.scalar_converged_ns, k.word_churn_ns, k.scalar_churn_ns
    );
    let _ = writeln!(
        json,
        "  \"kernel_any_le\": {{\"word_ns_per_lane\": {:.3}, \"scalar_ns_per_lane\": {:.3}}},",
        k.any_le_word_ns, k.any_le_scalar_ns
    );
    json.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(json, "    {{\"ops\": {}, \"wall_us\": {}}}{comma}", p.ops, p.opt_us);
    }
    json.push_str("  ],\n");
    match wall_100k {
        Some(w) => {
            let _ = writeln!(json, "  \"wall_100k_us\": {w},");
        }
        None => {
            let _ = writeln!(json, "  \"wall_100k_us\": null,");
        }
    }
    let _ = writeln!(
        json,
        "  \"notes\": \"The 150 ms 100k-op target is not met on a 1-vCPU shared Xeon 2.1 GHz host; the remaining wall is split roughly evenly between the window scan and the sdist cascade, both memory-bound here. Probe throughput clears its 5 Mops target by >10x. Kernel split: the early-exit any_le walk is where word-parallelism pays (~2x over the scalar loop, per-probe hot path); for the build-time min/max row merges LLVM's autovectorized simple loop beats the 4-lane word walk on x86_64 — recorded here, acceptable because index build is a one-time cost. See EXPERIMENTS.md (BENCH_7).\""
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("writing the bench JSON must succeed");
    println!("wrote {out_path}");
}

/// Regression gate: best-of-3 100k-op wall vs the committed artifact.
fn run_check(artifact: &str) {
    let committed = std::fs::read_to_string(artifact)
        .unwrap_or_else(|e| panic!("cannot read committed artifact {artifact}: {e}"));
    let committed_us: u128 = committed
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix("\"wall_100k_us\":")
                .map(|v| v.trim_end_matches(',').trim())
        })
        .and_then(|v| v.parse().ok())
        .expect("committed artifact must carry a numeric wall_100k_us");
    let _ = scaling_sweep(&[256], 0);
    let mut best = u128::MAX;
    for _ in 0..3 {
        let points = scaling_sweep(&[100000], 0);
        best = best.min(points[0].opt_us);
    }
    let limit = (committed_us as f64 * CHECK_TOLERANCE) as u128;
    println!(
        "100k-op wall: measured best-of-3 {best} us, committed {committed_us} us, limit {limit} us"
    );
    if best > limit {
        eprintln!("FAIL: 100k-op single-threaded wall regressed more than 15% vs the committed BENCH_7 artifact");
        std::process::exit(1);
    }
    println!("OK: within the 15% regression envelope");
}
