//! `compile-cold`: the whole flow at mid size.
//!
//! One caller compiles a seeded corpus of distinct `stress_dag`-shaped
//! designs of 150–320 ops, handed over as textfmt text, through
//! `run_flow_dfg` with `FlowConfig::default()`; every third design
//! carries a register budget so the spill path runs. Each compiled
//! design is then resubmitted with 1–3 appended ops through
//! `eco_flow`, the incremental path the paper argues for. The run
//! makes whole passes over the corpus and counts each design's median
//! pass.

use crate::layers::{self, set};
use crate::measure::{self, timed, HostSpeed, ItemTimes, Rng, Tally};
use crate::trace::Tracer;
use crate::{gen, setup_repeated, Ctx, Outcome};
use hls_flow::{
    eco_flow, eval_dfg, run_flow, run_flow_dfg, simulate_datapath, synth_inputs, EcoBase,
    FlowConfig, FlowOutcome,
};
use hls_ir::{schedule, Budget, OpId, PrecedenceGraph, ReachIndex};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use threaded_sched::{refine, ThreadedScheduler};

const DESIGNS: usize = 192;
const MIN_OPS: usize = 150;
/// Flow cost grows about as ops^4.6 on this shape, so the largest
/// designs set the throughput and the p95, and their structure swings
/// each by ±35%. Up to 280 ops, a pass of 192 designs is short enough
/// for several passes in a run, and ten designs lie above the p95 to
/// average their structure out.
const MAX_OPS: usize = 280;
/// Register budget of every third design.
const REGISTER_BUDGET: usize = 24;

struct Design {
    graph: PrecedenceGraph,
    text: String,
    cfg: FlowConfig,
    inputs: BTreeMap<String, i64>,
    reference: BTreeMap<OpId, i64>,
    eco: PrecedenceGraph,
}

fn setup(seed: u64) -> Vec<Design> {
    let mut rng = Rng::new(seed);
    (0..DESIGNS)
        .map(|i| {
            let graph = gen::design(rng.next_u64(), gen::spread_size(i, MIN_OPS, MAX_OPS));
            let text = hls_ir::textfmt::to_text(&graph);
            let cfg = FlowConfig {
                register_budget: (i % 3 == 2).then_some(REGISTER_BUDGET),
                ..FlowConfig::default()
            };
            let inputs = synth_inputs(&graph, seed as i64);
            let reference = eval_dfg(&graph, &inputs).expect("generated designs evaluate");
            let eco = gen::eco_target(&graph, 1 + i / 3 % 3, &mut rng);
            Design {
                graph,
                text,
                cfg,
                inputs,
                reference,
                eco,
            }
        })
        .collect()
}

/// The hard schedule validates and simulating the datapath reproduces
/// the reference value of every submitted op.
fn check(
    out: &FlowOutcome,
    cfg: &FlowConfig,
    inputs: &BTreeMap<String, i64>,
    reference: &BTreeMap<OpId, i64>,
) -> Result<(), String> {
    let g = out.scheduler.graph();
    schedule::validate(g, &cfg.resources, &out.schedule).map_err(|e| e.to_string())?;
    let got =
        simulate_datapath(g, &out.schedule, &out.registers, inputs).map_err(|e| e.to_string())?;
    match reference.iter().find(|(op, val)| got.get(op) != Some(val)) {
        Some((op, _)) => Err(format!(
            "simulated value of {op} differs from the reference"
        )),
        None => Ok(()),
    }
}

fn eco(out: &FlowOutcome, d: &Design) -> Result<FlowOutcome, String> {
    let base = EcoBase::of_outcome(d.graph.len(), out);
    eco_flow(base, &d.eco, &d.cfg, &Budget::NONE)
        .map(|(o, _)| o)
        .map_err(|e| e.to_string())
}

/// Per-design results of the first compile, to hold repeats to.
type Expected = Vec<Option<(u64, u64)>>;

/// Checks design `i`'s answers and holds its states to its first
/// compile, whose states go to `schedule_states`.
fn record(
    tally: &mut Tally,
    expected: &mut Expected,
    i: usize,
    d: &Design,
    cold: Result<FlowOutcome, String>,
    eco_out: Option<Result<FlowOutcome, String>>,
) -> Option<(FlowOutcome, FlowOutcome)> {
    tally.attempted += 2;
    let outs = cold.and_then(|c| {
        check(&c, &d.cfg, &d.inputs, &d.reference)?;
        let e = eco_out.ok_or("no ECO ran")??;
        // Grafted ops carry no operands, so an ECO answer is checked
        // structurally, not simulated.
        schedule::validate(e.scheduler.graph(), &d.cfg.resources, &e.schedule)
            .map_err(|err| format!("ECO: {err}"))?;
        Ok((c, e))
    });
    match outs {
        Ok((c, e)) => {
            let states = (c.report.final_states, e.report.final_states);
            match expected[i] {
                None => {
                    expected[i] = Some(states);
                    tally.states += states.0 + states.1;
                    tally.ii += states.0 + states.1;
                }
                Some(first) if first != states => {
                    tally.fail(format!(
                        "design {i}: states {states:?} differ from first pass {first:?}"
                    ));
                    return None;
                }
                Some(_) => {}
            }
            Some((c, e))
        }
        Err(msg) => {
            tally.fail(format!("design {i}: {msg}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (designs, setup_s) = setup_repeated(|| setup(ctx.seed));
    if ctx.trace {
        return traced(ctx, &designs);
    }
    let mut tally = Tally::default();
    let mut expected: Expected = vec![None; designs.len()];
    let mut times = ItemTimes::new(designs.len());
    measure::reset_peak();
    let start = Instant::now();
    let mut host = HostSpeed::start();
    let mut passes = 0;
    while ctx.another_pass(start, passes) {
        passes += 1;
        for (i, d) in designs.iter().enumerate() {
            host.tick();
            let (cold, t_cold) =
                timed(|| run_flow_dfg(&d.text, &d.cfg).map_err(|e| e.to_string()));
            let (eco_out, t_eco) = match &cold {
                Ok(c) => {
                    let (e, t) = timed(|| eco(c, d));
                    (Some(e), t)
                }
                Err(_) => (None, Duration::ZERO),
            };
            if record(&mut tally, &mut expected, i, d, cold, eco_out).is_some() {
                let ops = (d.graph.len() + d.eco.len()) as u64;
                times.record(i, t_cold, t_eco, ops);
            }
        }
    }
    times.fill(&mut tally, host.scale());
    let metrics = tally.end_to_end(setup_s, measure::peak_bytes());
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        samples: vec![
            ("designs", DESIGNS),
            ("passes", passes as usize),
            ("latency", tally.latency_ms.len()),
            ("eco", tally.eco_ms.len()),
        ],
        calibration_ms: Some(host.calibration_ms()),
        failures: tally.failures,
        metrics,
        trace: None,
    }
}

/// The traced run. Each design is compiled once untraced (the
/// baseline for `trace_overhead_share`) and once traced; φ-free designs
/// without a register budget are then replayed through public calls to
/// split placement from wire-delay absorption.
fn traced(ctx: &Ctx, designs: &[Design]) -> Outcome {
    const ROOTS: [&str; 2] = ["flow.run", "flow.eco"];
    let mut tally = Tally::default();
    let mut expected: Expected = vec![None; designs.len()];
    let mut t = Tracer::default();
    let mut plain_us = 0u64;
    let (mut spills, mut wires, mut splices, mut replays, mut chains, mut chains_final) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let mut id = 0u64;
    hls_obs::recorder::clear_events();
    let start = Instant::now();
    while ctx.in_window(start) {
        let i = id as usize % designs.len();
        let d = &designs[i];
        id += 1;
        // The untraced copy runs before the traced one on even designs
        // and after it on odd ones, so warm caches favour neither side
        // of the overhead comparison.
        let plain = || {
            let run = || run_flow_dfg(&d.text, &d.cfg).map(|c| eco(&c, d));
            timed(run).1.as_micros() as u64
        };
        if id.is_multiple_of(2) {
            plain_us += plain();
        }

        t.design(id);
        hls_obs::set_enabled(true);
        t.begin("flow.run");
        t.begin("ir.parse");
        let parsed = hls_ir::textfmt::from_text(&d.text);
        t.end();
        let cold = parsed
            .map_err(|e| e.to_string())
            .and_then(|g| run_flow(g, &d.cfg).map_err(|e| e.to_string()));
        t.end();
        t.ingest_obs();
        let eco_out = cold.as_ref().ok().map(|c| {
            t.begin("flow.eco");
            let e = eco(c, d);
            t.end();
            t.ingest_obs();
            e
        });
        hls_obs::set_enabled(false);
        if !id.is_multiple_of(2) {
            plain_us += plain();
        }

        let Some((c, _)) = record(&mut tally, &mut expected, i, d, cold, eco_out) else {
            continue;
        };
        spills += c.report.spills;
        wires += c.report.wire_delays;

        // Index build on its own: the part of `ThreadedScheduler::new`
        // the `ir` layer owns.
        t.begin("ir.reach_build");
        let index = ReachIndex::build(&d.graph);
        t.end();
        chains += index.chain_count();
        drop(index);

        if d.cfg.register_budget.is_none() && c.report.phis_to_moves + c.report.phis_voided == 0 {
            match replay(&mut t, d, &c) {
                Ok((n, final_chains)) => {
                    replays += 1;
                    splices += n;
                    chains_final += final_chains;
                }
                Err(msg) => tally.fail(format!("design {i} replay: {msg}")),
            }
        }
    }
    let per = |n: usize| n as f64 / id.max(1) as f64;
    let replayed = |n: usize| n as f64 / replays.max(1) as f64;
    let mut metrics = layers::metrics(&t);
    set(&mut metrics, "ir.chains", per(chains));
    set(&mut metrics, "ir.chains_final", replayed(chains_final));
    set(&mut metrics, "core.splices", replayed(splices));
    set(&mut metrics, "phys.wire_delays", per(wires));
    set(&mut metrics, "alloc.spills", per(spills));
    set(
        &mut metrics,
        "trace_overhead_share",
        layers::overhead(t.root_us(&ROOTS), plain_us),
    );
    set(
        &mut metrics,
        "trace.accounted_share",
        t.accounted_share(&ROOTS),
    );
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        samples: vec![("designs", id as usize), ("replays", replays)],
        calibration_ms: None,
        failures: tally.failures,
        metrics,
        trace: Some(t),
    }
}

/// Replays the flow's steps 1 and 4–5 for a φ-free design without a
/// register budget through public calls — meta order, scheduler
/// construction, `select`/`commit` per op, then `traffic_matrix`,
/// `place`, `annotate` and one `insert_wire_delay` per transfer — and
/// checks it reproduces the flow's wire delays and final states.
/// Returns the splices made and the final chain count.
fn replay(t: &mut Tracer, d: &Design, flow: &FlowOutcome) -> Result<(usize, usize), String> {
    let cfg = &d.cfg;
    t.begin("replay");
    let r = (|| {
        t.begin("core.order");
        let order = cfg
            .meta
            .order(&d.graph, &cfg.resources)
            .map_err(|e| e.to_string());
        t.end();
        let order = order?;
        t.begin("core.new");
        let ts = ThreadedScheduler::new(d.graph.clone(), cfg.resources.clone());
        t.end();
        let mut ts = ts.map_err(|e| e.to_string())?;
        layers::select_commit(t, &mut ts, &order)?;

        t.begin("phys.place");
        let hard = ts.extract_hard();
        let start_fp = hls_phys::Floorplan::row_major(cfg.resources.k(), cfg.grid.0, cfg.grid.1);
        let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &cfg.resources);
        let floorplan = hls_phys::place(&start_fp, &matrix, &cfg.place);
        let transfers = hls_phys::annotate(ts.graph(), &hard, &floorplan, cfg.wire_model);
        t.end();

        t.begin("core.splice");
        let n = transfers.len();
        let spliced: Result<(), String> = transfers.into_iter().try_for_each(|tr| {
            refine::insert_wire_delay(&mut ts, tr.from, tr.to, tr.cycles)
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        t.end();
        spliced?;

        t.begin("ir.validate");
        let schedule = ts.extract_hard();
        let valid = schedule::validate(ts.graph(), &cfg.resources, &schedule);
        t.end();
        valid.map_err(|e| e.to_string())?;
        if n != flow.report.wire_delays || ts.diameter() != flow.report.final_states {
            return Err(format!(
                "replay made {n} wire delays and {} states, the flow {} and {}",
                ts.diameter(),
                flow.report.wire_delays,
                flow.report.final_states
            ));
        }
        Ok((n, ts.reach_index().chain_count()))
    })();
    t.end();
    r
}
