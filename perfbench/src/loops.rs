//! `loops`: loop pipelining through the flow's pipeline seat.
//!
//! One caller runs `run_flow` with `FlowConfig::pipeline` set on the
//! four `bench_graphs::loops()` kernels plus seeded `cyclic_kernel`
//! bodies of 24–64 ops. It is the only workload that reaches the
//! modulo II search (`ModuloScheduler` via `run_modulo_portfolio`).
//! Each pipelined kernel's one-iteration body is then extended by 1–3
//! ops through `eco_flow`. The run makes whole passes and counts each
//! kernel's median one.

use crate::layers::{self, set};
use crate::measure::{self, timed, HostSpeed, ItemTimes, Rng, Tally};
use crate::trace::Tracer;
use crate::{gen, setup_repeated, Ctx, Outcome};
use hls_flow::{eco_flow, run_flow, EcoBase, FlowConfig, FlowOutcome};
use hls_ir::generate::{cyclic_kernel, CyclicConfig};
use hls_ir::{bench_graphs, schedule, Budget, PrecedenceGraph};
use hls_obs::metrics::{counter_get, Counter};
use std::time::{Duration, Instant};

const RANDOM_KERNELS: usize = 1020;
const MIN_OPS: usize = 24;
const MAX_OPS: usize = 64;

struct Kernel {
    graph: PrecedenceGraph,
    /// The one-iteration body plus 1–3 ops.
    eco: PrecedenceGraph,
}

/// The pipeline seat with one race worker. The II search's winner does
/// not depend on the worker count; with two workers every 2-ms kernel
/// needs both vCPUs free at once, and on a shared host that pushed the
/// p95's spread over ten seeds to 0.44–0.61.
fn config() -> FlowConfig {
    FlowConfig {
        pipeline: Some(hls_search::PipelineConfig {
            threads: 1,
            ..hls_search::PipelineConfig::default()
        }),
        ..FlowConfig::default()
    }
}

fn setup(seed: u64) -> Vec<Kernel> {
    let mut rng = Rng::new(seed);
    let fixed = bench_graphs::loops().into_iter().map(|(_, g)| g);
    let random: Vec<PrecedenceGraph> = gen::sizes(RANDOM_KERNELS, MIN_OPS, MAX_OPS)
        .map(|ops| {
            let cfg = CyclicConfig {
                ops,
                width: (ops / 8).max(3),
                back_edges: 3 + ops / 16,
                ..CyclicConfig::default()
            };
            cyclic_kernel(rng.next_u64(), &cfg)
        })
        .collect();
    fixed
        .chain(random)
        .enumerate()
        .map(|(i, graph)| {
            let eco = gen::eco_target(&graph.kernel_dag(), 1 + i % 3, &mut rng);
            Kernel { graph, eco }
        })
        .collect()
}

/// The modulo schedule checks out against the kernel and does not beat
/// the certified bound; the body's hard schedule validates. Returns
/// `(states, ii, mii)`.
fn check(k: &Kernel, cfg: &FlowConfig, out: &FlowOutcome) -> Result<(u64, u64, u64), String> {
    let p = out.report.pipeline.ok_or("no pipeline report")?;
    let ms = out.modulo.as_ref().ok_or("no modulo schedule")?;
    schedule::check_modulo(&k.graph, &cfg.resources, ms).map_err(|e| e.to_string())?;
    if p.ii < p.mii {
        return Err(format!("II {} below MII {}", p.ii, p.mii));
    }
    schedule::validate(out.scheduler.graph(), &cfg.resources, &out.schedule)
        .map_err(|e| e.to_string())?;
    Ok((out.report.final_states, p.ii, p.mii))
}

fn eco(k: &Kernel, cfg: &FlowConfig, out: &FlowOutcome) -> Result<FlowOutcome, String> {
    let base = EcoBase::of_outcome(k.graph.len(), out);
    eco_flow(base, &k.eco, cfg, &Budget::NONE)
        .map(|(e, _)| e)
        .map_err(|e| e.to_string())
}

/// First-pass `(states, eco states, ii)` per kernel.
type Expected = Vec<Option<(u64, u64, u64)>>;

/// Checks one kernel's answers and holds them to the first pass.
/// Returns `ii − mii` when every check passed.
fn record(
    tally: &mut Tally,
    expected: &mut Expected,
    i: usize,
    k: &Kernel,
    cfg: &FlowConfig,
    cold: Result<FlowOutcome, String>,
    eco_out: Option<Result<FlowOutcome, String>>,
) -> Option<u64> {
    tally.attempted += 2;
    let r = cold.and_then(|out| {
        let (states, ii, mii) = check(k, cfg, &out)?;
        let e = eco_out.ok_or("no ECO ran")??;
        schedule::validate(e.scheduler.graph(), &cfg.resources, &e.schedule)
            .map_err(|err| format!("ECO: {err}"))?;
        Ok(((states, e.report.final_states, ii), mii))
    });
    match r {
        Ok((got, mii)) => {
            match expected[i] {
                None => {
                    expected[i] = Some(got);
                    tally.states += got.0 + got.1;
                    tally.ii += got.2;
                }
                Some(first) if first != got => {
                    tally.fail(format!(
                        "kernel {i}: {got:?} differs from first pass {first:?}"
                    ));
                    return None;
                }
                Some(_) => {}
            }
            Some(got.2 - mii)
        }
        Err(e) => {
            tally.fail(format!("kernel {i}: {e}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (kernels, setup_s) = setup_repeated(|| setup(ctx.seed));
    if ctx.trace {
        return traced(ctx, &kernels);
    }
    let cfg = config();
    let mut tally = Tally::default();
    let mut expected: Expected = vec![None; kernels.len()];
    let mut times = ItemTimes::new(kernels.len());
    measure::reset_peak();
    let start = Instant::now();
    let mut host = HostSpeed::start();
    let mut passes = 0;
    while ctx.another_pass(start, passes) {
        passes += 1;
        for (i, k) in kernels.iter().enumerate() {
            host.tick();
            let g = k.graph.clone();
            let (cold, t_cold) = timed(|| run_flow(g, &cfg).map_err(|e| e.to_string()));
            let (eco_out, t_eco) = match &cold {
                Ok(out) => {
                    let (e, t) = timed(|| eco(k, &cfg, out));
                    (Some(e), t)
                }
                Err(_) => (None, Duration::ZERO),
            };
            if record(&mut tally, &mut expected, i, k, &cfg, cold, eco_out).is_some() {
                let ops = (k.graph.len() + k.eco.len()) as u64;
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
            ("kernels", kernels.len()),
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

/// The traced run: each kernel runs once untraced (the overhead
/// baseline) and once with `hls-obs` on, whose caller-thread phase
/// spans split the flow.
fn traced(ctx: &Ctx, kernels: &[Kernel]) -> Outcome {
    const ROOTS: [&str; 2] = ["flow.run", "flow.eco"];
    let cfg = config();
    let mut tally = Tally::default();
    let mut expected: Expected = vec![None; kernels.len()];
    let mut t = Tracer::default();
    let (mut plain_us, mut id, mut gap, mut passes) = (0u64, 0u64, 0u64, 0u32);
    hls_obs::recorder::clear_events();
    let candidates0 = counter_get(Counter::ModuloCandidates);
    let start = Instant::now();
    while ctx.another_pass(start, passes) {
        passes += 1;
        for (i, k) in kernels.iter().enumerate() {
            id += 1;
            // The untraced copy runs before the traced one on even
            // kernels and after it on odd ones, so warm caches favour
            // neither side of the overhead comparison.
            let plain = || {
                let g = k.graph.clone();
                timed(|| run_flow(g, &cfg).map(|out| eco(k, &cfg, &out)))
                    .1
                    .as_micros() as u64
            };
            if id.is_multiple_of(2) {
                plain_us += plain();
            }

            t.design(id);
            let g = k.graph.clone();
            hls_obs::set_enabled(true);
            t.begin("flow.run");
            let cold = run_flow(g, &cfg).map_err(|e| e.to_string());
            t.end();
            t.ingest_obs();
            let eco_out = cold.as_ref().ok().map(|out| {
                t.begin("flow.eco");
                let e = eco(k, &cfg, out);
                t.end();
                t.ingest_obs();
                e
            });
            hls_obs::set_enabled(false);
            if !id.is_multiple_of(2) {
                plain_us += plain();
            }
            if let Some(g) = record(&mut tally, &mut expected, i, k, &cfg, cold, eco_out) {
                gap += g;
            }
        }
    }
    let candidates = counter_get(Counter::ModuloCandidates) - candidates0;
    let mut metrics = layers::metrics(&t);
    set(
        &mut metrics,
        "search.modulo_candidates",
        candidates as f64 / id.max(1) as f64,
    );
    set(
        &mut metrics,
        "search.ii_gap",
        gap as f64 / passes.max(1) as f64,
    );
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
        samples: vec![("kernels", id as usize)],
        calibration_ms: None,
        failures: tally.failures,
        metrics,
        trace: Some(t),
    }
}
