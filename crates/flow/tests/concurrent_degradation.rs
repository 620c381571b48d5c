//! The degradation ladder under concurrent load.
//!
//! Many threads race `run_flow_degraded` with a mix of step quotas —
//! from starved to generous — over shared inputs. The properties:
//!
//! 1. every call returns an answer with an honest rung tag or a
//!    typed `FlowError` — nothing panics, nothing hangs;
//! 2. for a fixed quota the answering rung is deterministic across
//!    threads (step budgets are wall-clock-free);
//! 3. rung *rank* is monotone: a larger quota never answers from a
//!    deeper (worse) rung than a smaller one.

use hls_flow::{run_flow_degraded, DegradeRung, FlowConfig, FlowError};
use hls_ir::{bench_graphs, Budget};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[test]
fn mixed_deadlines_under_concurrency_degrade_honestly_and_monotonically() {
    let g = bench_graphs::ewf();
    let n = g.len() as u64;
    // Starved → generous. 0 must land bound-only; the largest must
    // afford the portfolio.
    let quotas: Vec<u64> = vec![0, n / 2, n + n / 2, 4 * n, 100 * n];

    let results: Mutex<BTreeMap<u64, Vec<DegradeRung>>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for round in 0..4 {
            for &q in &quotas {
                let g = &g;
                let results = &results;
                scope.spawn(move || {
                    let cfg = FlowConfig {
                        budget: Budget::steps(q),
                        ..FlowConfig::default()
                    };
                    match run_flow_degraded(g, &cfg) {
                        Ok(out) => {
                            // The rung tag is honest: bound-only means
                            // no design, every other rung carries one
                            // meeting its own certified bound.
                            match &out.outcome {
                                None => assert_eq!(out.rung, DegradeRung::BoundOnly),
                                Some(flow) => {
                                    assert_ne!(out.rung, DegradeRung::BoundOnly);
                                    flow.scheduler.check_invariants().unwrap();
                                    assert!(flow.report.final_states >= out.lower_bound);
                                    // The report names the answering
                                    // rung (what the serve layer sends).
                                    assert_eq!(
                                        flow.report.rung,
                                        Some(out.rung.name()),
                                        "round {round}: report rung"
                                    );
                                }
                            }
                            results.lock().unwrap().entry(q).or_default().push(out.rung);
                        }
                        // A typed error is an acceptable answer shape —
                        // but ewf is well-formed, so none is expected.
                        Err(e) => panic!("well-formed input must not error (quota {q}): {e}"),
                    }
                });
            }
        }
    });

    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), quotas.len(), "every quota answered");

    // Determinism: all concurrent runs of one quota agree.
    for (q, rungs) in &results {
        assert_eq!(rungs.len(), 4);
        assert!(
            rungs.windows(2).all(|w| w[0] == w[1]),
            "quota {q} answered from different rungs across threads: {rungs:?}"
        );
    }

    // Monotonicity: more budget never answers deeper.
    let ranks: Vec<(u64, u8)> = results.iter().map(|(q, r)| (*q, r[0].rank())).collect();
    for pair in ranks.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "rank regressed with budget: {ranks:?}"
        );
    }
    // The endpoints pin the ladder: starvation answers bound-only,
    // abundance answers portfolio.
    assert_eq!(results[&0][0], DegradeRung::BoundOnly);
    assert_eq!(results[&(100 * n)][0], DegradeRung::Portfolio);
}

#[test]
fn structural_failures_stay_typed_under_concurrent_mixed_traffic() {
    // Loop kernels without the pipeline seat are a *terminal* error on
    // every rung; racing them against degradable traffic must not
    // blur the two response shapes.
    let kernel = bench_graphs::mac_loop();
    let dag = bench_graphs::hal();
    std::thread::scope(|scope| {
        for i in 0..8 {
            let kernel = &kernel;
            let dag = &dag;
            scope.spawn(move || {
                let cfg = FlowConfig {
                    budget: Budget::steps(if i % 2 == 0 { 0 } else { 10_000 }),
                    ..FlowConfig::default()
                };
                let err = run_flow_degraded(kernel, &cfg).unwrap_err();
                assert_eq!(err, FlowError::NeedsPipeline);
                let out = run_flow_degraded(dag, &cfg).unwrap();
                assert!(out.lower_bound > 0);
            });
        }
    });
}
