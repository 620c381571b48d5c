//! Every engine path, checked by datapath simulation.
//!
//! The goldens pin the engines structurally; this suite checks what
//! leaves the flow *computes the right values*. A small seeded corpus
//! of layered DAGs (operands inferred, half of them under a register
//! budget so spilling runs too) goes through three routes:
//!
//! * [`run_flow`] with each [`Engine`]: every paper meta and the
//!   portfolio;
//! * [`run_flow_degraded`] at step quotas on which each
//!   schedule-producing rung answers;
//! * [`eco_flow`] of a small operand-carrying extension onto the cold
//!   outcome, also under a tight wire model whose splices land on the
//!   new edges.
//!
//! Every answer must pass `schedule::validate`, and simulating its
//! datapath must reproduce [`eval_dfg`] on every submitted op.

use hls_flow::{
    eco_flow, eval_dfg, run_flow, run_flow_degraded, simulate_datapath, synth_inputs, DegradeRung,
    EcoBase, Engine, FlowConfig, FlowOutcome,
};
use hls_ir::{generate, schedule, sim_operands, Budget, OpId, OpKind, PrecedenceGraph};
use hls_phys::WireModel;
use threaded_sched::meta::MetaSchedule;

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
/// of every op of `submitted`, whose op `i` is op `map[i]` of the
/// answer (the identity for a cold outcome).
fn check_mapped(
    submitted: &PrecedenceGraph,
    map: &[OpId],
    cfg: &FlowConfig,
    out: &FlowOutcome,
    what: &str,
) {
    let g = out.scheduler.graph();
    schedule::validate(g, &cfg.resources, &out.schedule)
        .unwrap_or_else(|e| panic!("{what}: invalid schedule: {e}"));
    let inputs = synth_inputs(submitted, 17);
    let reference = eval_dfg(submitted, &inputs).expect("the corpus evaluates");
    let got = simulate_datapath(g, &out.schedule, &out.registers, &inputs)
        .unwrap_or_else(|e| panic!("{what}: simulation failed: {e}"));
    for (op, want) in &reference {
        let at = map[op.index()];
        assert_eq!(got.get(&at), Some(want), "{what}: value of {op} (at {at})");
    }
}

fn check(submitted: &PrecedenceGraph, cfg: &FlowConfig, out: &FlowOutcome, what: &str) {
    let identity: Vec<OpId> = submitted.op_ids().collect();
    check_mapped(submitted, &identity, cfg, out, what);
}

#[test]
fn every_engine_computes_the_reference_values() {
    let mut engines: Vec<Engine> = MetaSchedule::PAPER.into_iter().map(Engine::Meta).collect();
    engines.push(Engine::Portfolio(hls_search::PortfolioConfig {
        threads: 2,
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

/// `g` plus `1 + seed % 3` new `Add`/`Mul` ops, each reading two
/// existing ops, with operands inferred.
fn extension(g: &PrecedenceGraph, cfg: &FlowConfig, seed: usize) -> PrecedenceGraph {
    let n = g.len();
    let mut target = g.clone();
    for j in 0..1 + seed % 3 {
        let kind = if j % 2 == 0 { OpKind::Add } else { OpKind::Mul };
        let v = target.add_op(kind, cfg.delays.delay_of(kind), format!("eco{j}"));
        let a = OpId::from_index((seed * 7 + j * 5) % n);
        let b = OpId::from_index(n - 1 - (seed + j) % (n / 2));
        target.add_edge(a, v).unwrap();
        target.add_edge(b, v).unwrap();
    }
    sim_operands::infer(&mut target);
    target
}

#[test]
fn eco_answers_compute_the_reference_values() {
    let mut wire_delays = 0;
    for (i, (g, base)) in corpus().into_iter().enumerate() {
        let tight = FlowConfig {
            wire_model: WireModel::new(1),
            grid: (4, 1),
            ..base.clone()
        };
        for (cfg, wires) in [(base, false), (tight, true)] {
            let cold = run_flow(g.clone(), &cfg).expect("the flow answers");
            let target = extension(&g, &cfg, i);
            let cached = EcoBase::of_outcome(g.len(), &cold);
            let (out, next) =
                eco_flow(cached, &target, &cfg, &Budget::NONE).expect("the ECO answers");
            if wires {
                wire_delays += out.report.wire_delays;
            }
            let what = format!("design {i}, ECO of {} ops", target.len() - g.len());
            check_mapped(&target, &next.map, &cfg, &out, &what);
        }
    }
    assert!(wire_delays > 0, "a tight wire model must splice a new edge");
}
