//! The seeded fault-injection property suite (`DESIGN.md` §9).
//!
//! One process, one property, hammered 512+ ways: **every** call into
//! the public flow API returns either a checker-valid design or a
//! typed [`FlowError`] — under injected panics at arbitrary commit
//! counts, under step-quota and skewed-wall-clock deadlines, and on
//! byte-mutated wire-format inputs. A single panic escaping, or a
//! single `Ok` carrying an invalid schedule, fails the suite.
//!
//! This file is its own integration-test binary on purpose: the
//! fault-injection plans are process-global, so keeping them here
//! isolates them from every other test process.

use hls_flow::{
    run_flow, run_flow_degraded, run_flow_dfg, DegradeRung, Engine, FlowConfig, FlowError,
    FlowOutcome,
};
use hls_ir::faultinject::{arm, mutate_bytes, FaultPlan};
use hls_ir::{bench_graphs, textfmt, Budget};
use std::time::Duration;

const MUTATION_TRIALS: u64 = 192;
const PANIC_TRIALS: u64 = 160;
const DEADLINE_TRIALS: u64 = 160;

/// CI's smoke job re-runs the suite over disjoint seed windows by
/// setting `FAULTINJECT_SEED_OFFSET`; locally the offset is 0.
fn seed_offset() -> u64 {
    std::env::var("FAULTINJECT_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A produced design must satisfy the independent checkers; an error
/// must simply *be* one (it is typed by construction — reaching this
/// function at all means nothing unwound through the API).
fn audit(result: &Result<FlowOutcome, FlowError>) {
    if let Ok(out) = result {
        out.scheduler
            .check_invariants()
            .expect("Ok outcome must pass the scheduler's invariant checker");
        hls_ir::schedule::validate(out.scheduler.graph(), &resources(), &out.schedule)
            .expect("Ok outcome must carry a validated hard schedule");
    }
}

fn resources() -> hls_ir::ResourceSet {
    FlowConfig::default().resources
}

fn portfolio_config(budget: Budget) -> FlowConfig {
    FlowConfig {
        engine: Engine::Portfolio(hls_search::PortfolioConfig {
            threads: 2,
            ..Default::default()
        }),
        budget,
        ..FlowConfig::default()
    }
}

#[test]
fn seeded_trials_never_abort_and_never_return_invalid_schedules() {
    let base_text = textfmt::to_text(&bench_graphs::ewf());
    let n = bench_graphs::ewf().len() as u64;
    let mut trials = 0u64;
    #[derive(Default)]
    struct Counters {
        oks: u64,
        errs: u64,
        poisoned: u64,
        timeouts: u64,
        malformed: u64,
    }
    impl Counters {
        fn tally(&mut self, r: &Result<FlowOutcome, FlowError>) {
            audit(r);
            match r {
                Ok(_) => self.oks += 1,
                Err(e) => {
                    self.errs += 1;
                    match e {
                        FlowError::Poisoned(_) => self.poisoned += 1,
                        FlowError::Timeout => self.timeouts += 1,
                        FlowError::Malformed(_) => self.malformed += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    let mut c = Counters::default();

    // --- Mutated wire-format bytes ------------------------------------
    // Deterministic per seed; mostly parse rejections, occasionally a
    // still-well-formed graph that must then schedule cleanly.
    let offset = seed_offset();
    for seed in offset..offset + MUTATION_TRIALS {
        let bytes = mutate_bytes(seed, base_text.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        let r = run_flow_dfg(&text, &FlowConfig::default());
        c.tally(&r);
        trials += 1;
    }
    assert!(c.malformed > 0, "the mutator must actually break some inputs");

    // --- Injected panics at seeded commit counts ----------------------
    // An untargeted plan hits every scheduler run in this process; the
    // portfolio's catch_unwind isolation and the flow's own boundary
    // must contain all of them.
    for seed in offset..offset + PANIC_TRIALS {
        let k = 1 + seed % 48;
        let _armed = arm(FaultPlan::panic_at(k));
        if seed % 4 == 0 {
            // The ladder under fire: every schedule-producing rung is
            // poisoned for small k, yet the bound-only rung commits
            // nothing and must still answer.
            let out = run_flow_degraded(&bench_graphs::ewf(), &portfolio_config(Budget::NONE))
                .expect("the ladder always answers for a well-formed graph");
            if let Some(flow) = &out.outcome {
                audit(&Ok(flow.clone()));
                c.oks += 1;
            } else {
                assert_eq!(out.rung, DegradeRung::BoundOnly);
                assert!(out.lower_bound > 0);
                c.errs += 1;
                c.poisoned += 1;
            }
        } else {
            let r = run_flow(bench_graphs::ewf(), &portfolio_config(Budget::NONE));
            c.tally(&r);
        }
        trials += 1;
    }
    assert!(
        c.poisoned > 0,
        "small commit counts must actually poison some runs"
    );

    // --- Deadlines: step quotas and skewed wall clocks ----------------
    for seed in offset..offset + DEADLINE_TRIALS {
        let budget = if seed % 2 == 0 {
            Budget::steps(seed % (3 * n))
        } else {
            // A wall deadline made deterministic-ish by a virtual
            // clock: each commit advances `now()` by 3ms, so a 40ms
            // deadline expires after ~a dozen commits without waiting.
            Budget::deadline_in(Duration::from_millis(40))
        };
        let _armed = (seed % 2 == 1).then(|| {
            arm(FaultPlan {
                clock_skew_per_commit: Duration::from_millis(3),
                ..FaultPlan::default()
            })
        });
        if seed % 3 == 0 {
            let out = run_flow_degraded(&bench_graphs::ewf(), &FlowConfig {
                budget,
                ..FlowConfig::default()
            })
            .expect("the ladder absorbs every deadline");
            if let Some(flow) = &out.outcome {
                audit(&Ok(flow.clone()));
                c.oks += 1;
            } else {
                c.errs += 1;
                c.timeouts += 1;
            }
        } else {
            let r = run_flow(bench_graphs::ewf(), &FlowConfig {
                budget,
                ..FlowConfig::default()
            });
            c.tally(&r);
        }
        trials += 1;
    }
    assert!(c.timeouts > 0, "starved budgets must actually expire");
    assert!(c.oks > 0, "generous budgets must still complete");

    assert_eq!(trials, MUTATION_TRIALS + PANIC_TRIALS + DEADLINE_TRIALS);
    assert!(trials >= 512, "the suite promises at least 512 trials");
    assert_eq!(c.oks + c.errs, trials, "every trial is an Ok or a typed error");
    eprintln!(
        "fault injection: {trials} trials — {} ok, {} typed errors \
         ({} poisoned, {} timeouts, {} malformed)",
        c.oks, c.errs, c.poisoned, c.timeouts, c.malformed
    );
}

#[test]
fn mutated_inputs_fail_identically_per_seed() {
    // The harness itself must be reproducible: same seed, same bytes,
    // same top-level outcome. The armed *empty* plan injects nothing
    // but holds the arming lock, so no concurrent test can arm a real
    // plan between the paired runs.
    let _quiesce = arm(FaultPlan::default());
    let base_text = textfmt::to_text(&bench_graphs::hal());
    for seed in [7u64, 1999, 0xDAC] {
        let bytes = mutate_bytes(seed, base_text.as_bytes());
        assert_eq!(bytes, mutate_bytes(seed, base_text.as_bytes()));
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let a = run_flow_dfg(&text, &FlowConfig::default()).map(|o| o.report);
        let b = run_flow_dfg(&text, &FlowConfig::default()).map(|o| o.report);
        match (a, b) {
            (Ok(ra), Ok(rb)) => assert_eq!(ra.final_states, rb.final_states),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            (a, b) => panic!("seed {seed} diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn a_panic_in_the_single_meta_path_is_a_typed_poisoned_error() {
    // No portfolio, no worker isolation — the flow's own catch_unwind
    // boundary is the last line of defense, and it must hold.
    let _armed = arm(FaultPlan::panic_at(2));
    let err = run_flow(bench_graphs::ewf(), &FlowConfig::default()).unwrap_err();
    let FlowError::Poisoned(msg) = err else {
        panic!("expected Poisoned, got {err:?}");
    };
    assert!(msg.contains("injected panic"), "message preserved: {msg}");
}

#[test]
fn clock_skew_expires_a_wall_deadline_without_waiting() {
    // 10s of virtual skew per commit blows a 1s deadline on the very
    // first check; the flow returns Timeout in well under a second.
    let _armed = arm(FaultPlan {
        clock_skew_per_commit: Duration::from_secs(10),
        ..FaultPlan::default()
    });
    let started = std::time::Instant::now();
    let err = run_flow(
        bench_graphs::ewf(),
        &FlowConfig {
            budget: Budget::deadline_in(Duration::from_secs(1)),
            ..FlowConfig::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, FlowError::Timeout);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the deadline fired on the virtual clock, not the real one"
    );
}

#[test]
fn a_wall_deadline_after_scheduling_stops_the_spills_and_splices() {
    // Each commit advances the virtual clock by `step`, and the
    // deadline falls half a step after the last scheduling commit: the
    // schedule completes, the first spill or wire-delay splice commits,
    // and the check before the second one sees the expiry. Each case
    // has only one kind of refinement, so each check is pinned alone.
    let g = bench_graphs::ewf();
    let step = Duration::from_secs(10);
    let splices = FlowConfig {
        wire_model: hls_phys::WireModel::new(1),
        ..FlowConfig::default()
    };
    let spills = FlowConfig {
        register_budget: Some(1),
        wire_model: hls_phys::WireModel::new(u64::MAX),
        ..FlowConfig::default()
    };
    let _armed = arm(FaultPlan {
        clock_skew_per_commit: step,
        ..FaultPlan::default()
    });
    for (name, cfg) in [("splices", splices), ("spills", spills)] {
        let r = run_flow(g.clone(), &cfg).unwrap().report;
        let counts = if name == "splices" {
            (r.wire_delays, r.spills)
        } else {
            (r.spills, r.wire_delays)
        };
        assert!(
            counts.0 >= 2 && counts.1 == 0,
            "{name}: the case needs two refinements of one kind: {r:?}"
        );
        // A fresh scope restarts the commit count the clock reads.
        let _scope = hls_ir::faultinject::RunScope::enter(name);
        let budget = Budget::deadline_in(step * g.len() as u32 + step / 2);
        let err = run_flow(g.clone(), &FlowConfig { budget, ..cfg }).unwrap_err();
        assert_eq!(err, FlowError::Timeout, "{name}");
    }
}
