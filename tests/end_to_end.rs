//! Cross-crate integration: front end -> soft scheduler -> allocation ->
//! physical design -> FSMD, exercised as one pipeline.

use soft_hls::alloc::{left_edge, lifetimes};
use soft_hls::flow::{run_flow, run_flow_source, Engine, FlowConfig};
use soft_hls::ir::{bench_graphs, generate, DelayModel, OpKind, ResourceClass, ResourceSet};
use soft_hls::lang::compile;
use soft_hls::phys::WireModel;
use soft_hls::sched::{meta::MetaSchedule, ThreadedScheduler};
use soft_hls::search::{run_portfolio, PipelineConfig, PortfolioConfig};

const DIFFEQ: &str = "
    input x, dx, u, y, a;
    output x1, y1, u1, c;
    t1 = 3 * x;  t2 = u * dx;  t3 = 3 * y;
    t4 = t1 * t2;
    t5 = t3 * dx;
    s1 = u - t4;
    u1 = s1 - t5;
    y1 = y + u * dx;
    x1 = x + dx;
    c = x1 < a;
";

#[test]
fn compiled_source_matches_the_handcrafted_hal_graph() {
    let compiled = compile(DIFFEQ, &DelayModel::classic()).unwrap();
    let hal = bench_graphs::hal();
    assert_eq!(compiled.graph.len(), hal.len());
    assert_eq!(
        compiled.graph.kind_histogram(),
        hal.kind_histogram(),
        "same op mix"
    );
    assert_eq!(
        soft_hls::ir::algo::diameter(&compiled.graph),
        soft_hls::ir::algo::diameter(&hal),
        "same critical path"
    );
    // And it schedules to (nearly) the same length as the handcrafted
    // graph — tie-breaking depends on vertex numbering, which differs.
    let r = ResourceSet::classic(2, 2);
    let mut lengths = Vec::new();
    for g in [&compiled.graph, &hal] {
        let order = MetaSchedule::ListBased.order(g, &r).unwrap();
        let mut ts = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
        ts.schedule_all(order).unwrap();
        lengths.push(ts.diameter());
    }
    assert!(lengths.iter().all(|&l| (7..=8).contains(&l)), "{lengths:?}");
}

#[test]
fn full_flow_outputs_are_mutually_consistent() {
    let cfg = FlowConfig {
        resources: ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1),
        register_budget: Some(3),
        wire_model: WireModel::new(1),
        grid: (5, 1),
        ..FlowConfig::default()
    };
    let out = run_flow_source(DIFFEQ, &cfg).unwrap();

    // Schedule validates against the final behavior and resource set.
    soft_hls::ir::schedule::validate(out.scheduler.graph(), &cfg.resources, &out.schedule)
        .unwrap();
    // FSMD covers every operation.
    assert_eq!(out.fsmd.microops.len(), out.scheduler.graph().len());
    assert_eq!(out.fsmd.states, out.schedule.length(out.scheduler.graph()));
    // Register count in the report equals an independent recomputation.
    let ls = lifetimes::lifetimes(out.scheduler.graph(), &out.schedule).unwrap();
    assert_eq!(
        left_edge::allocate(&ls).register_count(),
        out.report.registers
    );
    // The RTL names every register.
    let rtl = out.fsmd.to_verilog(out.scheduler.graph(), "diffeq");
    for rn in 0..out.report.registers {
        assert!(rtl.contains(&format!("r{rn}")), "register r{rn} missing");
    }
}

#[test]
fn flow_handles_every_benchmark_graph() {
    for (name, g) in bench_graphs::all() {
        let cfg = FlowConfig {
            resources: ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1),
            register_budget: Some(6),
            ..FlowConfig::default()
        };
        let out = run_flow(g, &cfg).unwrap();
        assert!(
            out.report.final_states >= out.report.initial_states,
            "{name}: refinement cannot shorten"
        );
        out.scheduler.check_invariants().unwrap();
    }
}

#[test]
fn spills_reduce_register_pressure() {
    // EWF under a harsh budget: the flow must spill and the final
    // pressure must come down relative to no-budget.
    let base_cfg = FlowConfig::default();
    let free = run_flow(bench_graphs::ewf(), &base_cfg).unwrap();
    let tight_cfg = FlowConfig {
        register_budget: Some(free.report.registers.saturating_sub(2).max(1)),
        ..FlowConfig::default()
    };
    let tight = run_flow(bench_graphs::ewf(), &tight_cfg).unwrap();
    assert!(tight.report.spills > 0, "budget must force spills");
    assert!(
        tight.report.registers < free.report.registers,
        "spilling must relieve pressure: {} vs {}",
        tight.report.registers,
        free.report.registers
    );
}

#[test]
fn conditional_source_resolves_phis_in_the_flow() {
    let src = "
        input a, b, k; output o, p;
        s = a * k;
        if (s < b) { t = s + a; } else { t = s - b; }
        o = t * 2;
        p = t + s;
    ";
    let out = run_flow_source(src, &FlowConfig::default()).unwrap();
    assert_eq!(out.report.phis_to_moves + out.report.phis_voided, 1);
    assert!(out
        .scheduler
        .graph()
        .op_ids()
        .all(|v| out.scheduler.graph().kind(v) != OpKind::Phi));
    // The φ became a move or vanished; either way the schedule validates
    // (checked inside the flow) and the FSMD covers it.
    assert_eq!(out.fsmd.microops.len(), out.scheduler.graph().len());
}

#[test]
fn portfolio_scheduled_flow_produces_consistent_hardware() {
    // The full pipeline with the parallel portfolio + feedback
    // refinement in the scheduling seat: the winner state must carry
    // through spilling, φ resolution, placement and FSMD extraction
    // exactly like a single-meta schedule does.
    let config = FlowConfig {
        resources: ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1),
        register_budget: Some(4),
        grid: (3, 2),
        engine: Engine::Portfolio(PortfolioConfig {
            threads: 2,
            ..PortfolioConfig::default()
        }),
        ..FlowConfig::default()
    };
    let out = run_flow_source(DIFFEQ, &config).expect("portfolio flow runs");
    assert!(out.report.final_states >= out.report.initial_states);
    assert_eq!(out.fsmd.states, out.report.final_states);
    out.scheduler.check_invariants().unwrap();
    // The portfolio's soft schedule is never longer than the default
    // single-meta flow on the same design.
    let single = run_flow_source(
        DIFFEQ,
        &FlowConfig {
            resources: ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1),
            register_budget: Some(4),
            grid: (3, 2),
            ..FlowConfig::default()
        },
    )
    .expect("single-meta flow runs");
    assert!(out.report.initial_states <= single.report.initial_states);
}

#[test]
fn flow_handles_the_shared_stress_workload() {
    // The same seeded stress shape the search determinism suite races
    // (hls_ir::generate::stress_dag), scaled down for the full flow's
    // placement stage.
    let g = generate::stress_dag(0xD15C0, 150);
    let cfg = FlowConfig {
        resources: ResourceSet::classic(3, 2).with(ResourceClass::MemPort, 1),
        grid: (3, 2),
        ..FlowConfig::default()
    };
    let out = run_flow(g, &cfg).unwrap();
    assert!(out.report.final_states >= out.report.initial_states);
    soft_hls::ir::schedule::validate(out.scheduler.graph(), &cfg.resources, &out.schedule)
        .unwrap();
    out.scheduler.check_invariants().unwrap();
}

#[test]
fn pipelined_flow_reports_a_certified_ii_end_to_end() {
    // Loop kernels run the modulo portfolio first, then the ordinary
    // flow on the one-iteration kernel DAG.
    for (name, g) in bench_graphs::loops() {
        let cfg = FlowConfig {
            resources: ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1),
            pipeline: Some(PipelineConfig::default()),
            grid: (3, 2),
            ..FlowConfig::default()
        };
        let out = run_flow(g.clone(), &cfg).unwrap();
        let p = out.report.pipeline.expect("pipeline seat reports");
        assert!(p.ii >= p.mii, "{name}: II below certified bound");
        let ms = out.modulo.expect("modulo schedule kept");
        assert_eq!(ms.ii(), p.ii, "{name}");
        soft_hls::ir::schedule::check_modulo(&g, &cfg.resources, &ms)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // The downstream hardware covers the kernel's ops.
        assert_eq!(out.fsmd.microops.len(), out.scheduler.graph().len());
    }
}

#[test]
fn portfolio_winner_supports_further_refinement() {
    // The winner is a live soft scheduler: post-portfolio ECO
    // refinement (the paper's Figure 1 scenario) must keep working on
    // it, including the growth of its scheduled-cone bits.
    let g = bench_graphs::ewf();
    let r = ResourceSet::classic(2, 2);
    let out = run_portfolio(&g, &r, &PortfolioConfig::default(), &soft_hls::ir::Budget::NONE)
        .expect("portfolio runs");
    let mut ts = out.winner;
    let before = ts.diameter();
    let edges: Vec<_> = ts.graph().edges().collect();
    let (from, to) = edges[0];
    ts.refine_splice(
        from,
        to,
        [(OpKind::WireDelay, 1, "w".to_string())],
    )
    .expect("splice onto the winner state");
    assert!(ts.diameter() >= before);
    ts.check_invariants().unwrap();
}
