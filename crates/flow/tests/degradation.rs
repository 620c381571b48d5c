//! Degradation determinism (`DESIGN.md` §9).
//!
//! Under a pure step-quota budget the degradation ladder must be a
//! *function* of `(graph, config)`: the rung that answers, the rungs
//! abandoned on the way down, and the produced design's headline
//! numbers reproduce exactly across portfolio thread counts. Wall
//! clocks are the only nondeterministic input, and a step quota
//! removes them.

use hls_flow::{run_flow_degraded, DegradeReason, DegradeRung, Engine, FlowConfig};
use hls_ir::{bench_graphs, Budget};

/// Everything observable about a degraded run, for equality.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    rung: DegradeRung,
    abandoned: Vec<(DegradeRung, &'static str)>,
    final_states: Option<u64>,
    lower_bound: u64,
}

fn fingerprint(quota: u64, threads: usize) -> Fingerprint {
    let cfg = FlowConfig {
        engine: Engine::Portfolio(hls_search::PortfolioConfig {
            threads,
            ..Default::default()
        }),
        budget: Budget::steps(quota),
        ..FlowConfig::default()
    };
    let out = run_flow_degraded(&bench_graphs::ewf(), &cfg).expect("the ladder always answers");
    Fingerprint {
        rung: out.rung,
        abandoned: out
            .degraded
            .iter()
            .map(|s| {
                let reason = match &s.reason {
                    DegradeReason::Timeout => "timeout",
                    DegradeReason::Poisoned(_) => "poisoned",
                    DegradeReason::Error(_) => "error",
                };
                (s.rung, reason)
            })
            .collect(),
        final_states: out.outcome.as_ref().map(|o| o.report.final_states),
        lower_bound: out.lower_bound,
    }
}

#[test]
fn degradation_is_deterministic_across_thread_counts() {
    let n = bench_graphs::ewf().len() as u64;
    // Quotas chosen to land on different rungs: starved, partial
    // (enough for one plain run but not the portfolio's half-slice),
    // and unconstrained-in-practice.
    for quota in [0, n / 2, n, n + n / 2, 10 * n] {
        let baseline = fingerprint(quota, 1);
        for threads in [2, 8] {
            let fp = fingerprint(quota, threads);
            assert_eq!(
                baseline, fp,
                "quota {quota}: 1 thread vs {threads} threads disagree"
            );
        }
        eprintln!(
            "quota {quota}: rung {:?}, {} rungs abandoned",
            baseline.rung,
            baseline.abandoned.len()
        );
    }
}

#[test]
fn the_quota_sweep_actually_covers_multiple_rungs() {
    // Guard against the sweep silently collapsing onto one rung (which
    // would make the determinism check vacuous).
    let n = bench_graphs::ewf().len() as u64;
    let rungs: Vec<DegradeRung> = [0, n + n / 2, 10 * n]
        .into_iter()
        .map(|q| fingerprint(q, 2).rung)
        .collect();
    assert_eq!(rungs[0], DegradeRung::BoundOnly);
    assert_eq!(rungs[2], DegradeRung::Portfolio);
    assert_ne!(rungs[1], DegradeRung::BoundOnly, "mid budget affords a schedule");
}
