//! Every engine path, checked by datapath simulation.
//!
//! The goldens pin the engines structurally; this suite checks what
//! leaves the flow *computes the right values*. A small seeded corpus
//! of layered DAGs (operands inferred, half of them under a register
//! budget so spilling runs too) goes through three routes:
//!
//! * [`run_flow`] with each [`Engine`]: every paper meta, the
//!   portfolio, and the partition-parallel engine forced to partition;
//! * [`run_flow_degraded`] at step quotas on which each
//!   schedule-producing rung answers;
//! * the parallel engine one op below, at, and one op above its
//!   `sequential_cutoff`.
//!
//! Every answer must pass `schedule::validate`, and simulating its
//! datapath must reproduce [`eval_dfg`] on every submitted op.

use hls_flow::{
    eval_dfg, run_flow, run_flow_degraded, simulate_datapath, synth_inputs, DegradeRung, Engine,
    FlowConfig, FlowOutcome,
};
use hls_ir::{generate, schedule, sim_operands, Budget, PrecedenceGraph};
use threaded_sched::{meta::MetaSchedule, ParallelConfig};

/// `(graph, config)` pairs: seeded layered DAGs of 24–54 ops, odd ones
/// under a four-register budget.
fn corpus() -> Vec<(PrecedenceGraph, FlowConfig)> {
    (0..4u64)
        .map(|i| {
            let ops = 24 + 10 * i as usize;
            let g = layered(0xE9_0000 + i, ops);
            let cfg = FlowConfig {
                register_budget: (i % 2 == 1).then_some(4),
                ..FlowConfig::default()
            };
            (g, cfg)
        })
        .collect()
}

fn layered(seed: u64, ops: usize) -> PrecedenceGraph {
    let mut g = generate::layered_dag(
        seed,
        &generate::LayeredConfig {
            ops,
            width: (ops / 4).max(2),
            ..generate::LayeredConfig::default()
        },
    );
    sim_operands::infer(&mut g);
    g
}

/// The answer validates and its datapath computes the reference value
/// of every op of `submitted`.
fn check(submitted: &PrecedenceGraph, cfg: &FlowConfig, out: &FlowOutcome, what: &str) {
    let g = out.scheduler.graph();
    schedule::validate(g, &cfg.resources, &out.schedule)
        .unwrap_or_else(|e| panic!("{what}: invalid schedule: {e}"));
    let inputs = synth_inputs(submitted, 17);
    let reference = eval_dfg(submitted, &inputs).expect("the corpus evaluates");
    let got = simulate_datapath(g, &out.schedule, &out.registers, &inputs)
        .unwrap_or_else(|e| panic!("{what}: simulation failed: {e}"));
    for (op, want) in &reference {
        assert_eq!(got.get(op), Some(want), "{what}: value of {op}");
    }
}

#[test]
fn every_engine_computes_the_reference_values() {
    let mut engines: Vec<Engine> = MetaSchedule::PAPER.into_iter().map(Engine::Meta).collect();
    engines.push(Engine::Portfolio(hls_search::PortfolioConfig {
        threads: 2,
        ..Default::default()
    }));
    engines.push(Engine::Parallel(ParallelConfig {
        sequential_cutoff: 0,
        parts: 4,
        ..Default::default()
    }));
    for (i, (g, base)) in corpus().into_iter().enumerate() {
        for engine in &engines {
            let cfg = FlowConfig {
                engine: engine.clone(),
                ..base.clone()
            };
            let out = run_flow(g.clone(), &cfg).expect("the flow answers");
            check(&g, &cfg, &out, &format!("design {i}, {engine:?}"));
        }
    }
}

#[test]
fn every_ladder_rung_computes_the_reference_values() {
    for (i, (g, base)) in corpus().into_iter().enumerate() {
        let n = g.len() as u64;
        // A quota of q gives rung 1 ⌊q/2⌋ steps per run, rung 2
        // ⌊3q/4⌋ and rung 3 q; a run needs n.
        for (quota, rung) in [
            (Budget::NONE, DegradeRung::Portfolio),
            (Budget::steps(n + n / 2), DegradeRung::SingleMeta),
            (Budget::steps(n), DegradeRung::ListSchedule),
        ] {
            let cfg = FlowConfig {
                budget: quota,
                ..base.clone()
            };
            let out = run_flow_degraded(&g, &cfg).expect("the ladder answers");
            assert_eq!(out.rung, rung, "design {i}, quota {quota:?}");
            let flow = out.outcome.expect("a schedule-producing rung answered");
            check(
                &g,
                &cfg,
                &flow,
                &format!("design {i}, rung {}", rung.name()),
            );
        }
    }
}

#[test]
fn the_parallel_engine_computes_the_reference_values_around_its_cutoff() {
    let cutoff = 40usize;
    let cfg = FlowConfig {
        engine: Engine::Parallel(ParallelConfig {
            sequential_cutoff: cutoff,
            parts: 4,
            ..Default::default()
        }),
        ..FlowConfig::default()
    };
    for ops in [cutoff - 1, cutoff, cutoff + 1] {
        let g = layered(0xC7_0000 ^ ops as u64, ops);
        let out = run_flow(g.clone(), &cfg).expect("the flow answers");
        check(&g, &cfg, &out, &format!("{ops} ops"));
    }
}
