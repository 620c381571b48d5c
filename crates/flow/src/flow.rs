//! The flow driver.

use hls_alloc::{left_edge, lifetimes, spill, RegAllocation};
use hls_ir::{
    schedule as sched_check, DelayModel, HardSchedule, OpKind, PrecedenceGraph, ResourceClass,
    ResourceSet,
};
use hls_phys::{annotate, place, Floorplan, PlaceConfig, WireModel};
use threaded_sched::{meta::MetaSchedule, refine, SchedError, ThreadedScheduler};

use std::error::Error;
use std::fmt;

/// The scheduler of the flow's step 1. Each engine hands a live
/// [`ThreadedScheduler`] to the rest of the flow.
#[derive(Clone, Debug)]
pub enum Engine {
    /// One meta order feeds Algorithm 1, stopping within one commit of
    /// [`FlowConfig::budget`]'s expiry.
    Meta(MetaSchedule),
    /// The parallel portfolio race
    /// ([`hls_search::run_portfolio`]), deterministic whatever its
    /// thread count, under [`FlowConfig::budget`].
    Portfolio(hls_search::PortfolioConfig),
}

/// Configuration of the end-to-end flow.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Functional-unit allocation. A memory port is required if spilling
    /// can occur (register budget set).
    pub resources: ResourceSet,
    /// Register-file size; `None` disables spilling.
    pub register_budget: Option<usize>,
    /// The scheduler of step 1.
    pub engine: Engine,
    /// When set, the behavior is treated as a *loop kernel*: the
    /// modulo portfolio ([`hls_search::run_modulo_portfolio`]) derives
    /// a loop-pipelined schedule first — achieved II, certified MII
    /// and fill latency land in [`FlowReport::pipeline`], the winning
    /// [`hls_ir::ModuloSchedule`] in [`FlowOutcome::modulo`] — and the
    /// rest of the flow (engine, registers, placement, FSMD) proceeds
    /// on the one-iteration [`kernel DAG`](PrecedenceGraph::kernel_dag).
    /// Behaviors without loop-carried edges are legal too (the kernel
    /// DAG is then the behavior itself and the II is purely
    /// resource-bound). `None` keeps the acyclic-only flow: a graph
    /// carrying loop edges is rejected with
    /// [`FlowError::NeedsPipeline`] (the acyclic scheduler would
    /// silently misread inter-iteration dependencies as
    /// same-iteration ones).
    pub pipeline: Option<hls_search::PipelineConfig>,
    /// Floorplan grid (width, height); must fit `resources.k()` cells.
    pub grid: (usize, usize),
    /// Interconnect delay model.
    pub wire_model: WireModel,
    /// Placement annealing parameters.
    pub place: PlaceConfig,
    /// Delay model (for φ-resolution move delay).
    pub delays: DelayModel,
    /// Budget of the modulo portfolio and the engine; its wall
    /// deadline also bounds the spills and wire-delay splices after
    /// scheduling. An expired budget surfaces as [`FlowError::Timeout`];
    /// [`crate::run_flow_degraded`] instead walks the degradation
    /// ladder. The default is unlimited.
    pub budget: hls_ir::Budget,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            resources: ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1),
            register_budget: None,
            engine: Engine::Meta(MetaSchedule::ListBased),
            pipeline: None,
            grid: (2, 2),
            wire_model: WireModel::default(),
            place: PlaceConfig::default(),
            delays: DelayModel::classic(),
            budget: hls_ir::Budget::NONE,
        }
    }
}

/// `config.meta` reads the meta order of `config.engine`'s sequential
/// path (list scheduling for the portfolio) under the field name it
/// had before [`Engine`], for code that replays that path by hand.
impl std::ops::Deref for FlowConfig {
    type Target = SequentialMeta;

    fn deref(&self) -> &SequentialMeta {
        let meta = match &self.engine {
            Engine::Meta(meta) => meta,
            Engine::Portfolio(_) => &MetaSchedule::ListBased,
        };
        // SAFETY: `SequentialMeta` is `repr(transparent)` over
        // `MetaSchedule`, so the two references have the same layout
        // and the borrow keeps `self`'s lifetime.
        unsafe { &*(meta as *const MetaSchedule).cast::<SequentialMeta>() }
    }
}

/// The meta order of an engine's sequential path as a read-only
/// field; the `Deref` target of [`FlowConfig`].
#[repr(transparent)]
pub struct SequentialMeta {
    /// The meta order.
    pub meta: MetaSchedule,
}

/// Loop-pipelining quantities reported when [`FlowConfig::pipeline`]
/// is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineReport {
    /// Achieved initiation interval (steady-state steps per
    /// iteration).
    pub ii: u64,
    /// The certified lower bound `max(ResMII, RecMII)`; `ii == mii`
    /// is provably throughput-optimal.
    pub mii: u64,
    /// Single-iteration latency (pipeline fill depth).
    pub latency: u64,
}

/// Quantities reported by the flow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    /// Loop-pipelining results, when the pipeline seat was configured.
    pub pipeline: Option<PipelineReport>,
    /// Diameter right after soft scheduling.
    pub initial_states: u64,
    /// Spills absorbed.
    pub spills: usize,
    /// φ operations resolved to moves.
    pub phis_to_moves: usize,
    /// φ operations resolved to nothing (same register both sides).
    pub phis_voided: usize,
    /// Wire-delay vertices absorbed after placement.
    pub wire_delays: usize,
    /// Final schedule length (control states).
    pub final_states: u64,
    /// Registers used by the final allocation.
    pub registers: usize,
    /// Total traffic-weighted wirelength of the placement.
    pub wirelength: u64,
    /// The degradation-ladder rung that produced this answer
    /// ([`crate::DegradeRung::name`]), or `None` when the flow ran
    /// directly (no ladder involved). Clients use this to see *why*
    /// they got a degraded answer.
    pub rung: Option<&'static str>,
}

/// Everything the flow produces.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// The winning loop-pipelined schedule of the original kernel,
    /// when [`FlowConfig::pipeline`] was set (it validates under
    /// `hls_ir::schedule::check_modulo` against the input behavior).
    pub modulo: Option<hls_ir::ModuloSchedule>,
    /// The soft scheduler holding the final refined state (and the
    /// refined behavior graph). [`eco_flow`] extends this state
    /// directly when the design is resubmitted with a delta.
    pub scheduler: ThreadedScheduler,
    /// The extracted, validated hard schedule.
    pub schedule: HardSchedule,
    /// Final register allocation.
    pub registers: RegAllocation,
    /// The annealed floorplan.
    pub floorplan: Floorplan,
    /// The controller/datapath model.
    pub fsmd: crate::Fsmd,
    /// Headline numbers.
    pub report: FlowReport,
}

/// Errors of the end-to-end flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlowError {
    /// The behavior carries loop-carried (positive-distance) edges
    /// but [`FlowConfig::pipeline`] is not set — the acyclic flow
    /// would drop the inter-iteration semantics.
    NeedsPipeline,
    /// The front end rejected the source.
    Lang(hls_lang::LangError),
    /// The scheduler failed.
    Sched(SchedError),
    /// The extracted schedule failed validation (internal bug guard).
    Invalid(String),
    /// Lifetime extraction failed (internal bug guard).
    Lifetime(String),
    /// The [`FlowConfig::budget`] expired before a design was
    /// produced. [`crate::run_flow_degraded`] turns this into a
    /// descent down the degradation ladder instead.
    Timeout,
    /// A scheduling phase panicked; the panic was contained at the
    /// flow boundary and the message preserved. No panic crosses the
    /// public API.
    Poisoned(String),
    /// The textual DFG input did not parse ([`crate::run_flow_dfg`]).
    Malformed(String),
    /// An input exceeded a structural capacity limit (e.g. delays
    /// summing past the portfolio race's score range).
    ResourceExhausted(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NeedsPipeline => write!(
                f,
                "behavior has loop-carried edges; set FlowConfig::pipeline to schedule it"
            ),
            FlowError::Lang(e) => write!(f, "front end: {e}"),
            FlowError::Sched(e) => write!(f, "scheduler: {e}"),
            FlowError::Invalid(msg) => write!(f, "invalid extracted schedule: {msg}"),
            FlowError::Lifetime(msg) => write!(f, "lifetime extraction: {msg}"),
            FlowError::Timeout => write!(f, "flow budget expired before a design was produced"),
            FlowError::Poisoned(msg) => write!(f, "scheduling phase panicked: {msg}"),
            FlowError::Malformed(msg) => write!(f, "malformed DFG input: {msg}"),
            FlowError::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
        }
    }
}

impl Error for FlowError {}

impl From<hls_lang::LangError> for FlowError {
    fn from(e: hls_lang::LangError) -> Self {
        FlowError::Lang(e)
    }
}

impl From<SchedError> for FlowError {
    fn from(e: SchedError) -> Self {
        match e {
            SchedError::Timeout => FlowError::Timeout,
            SchedError::Poisoned(msg) => FlowError::Poisoned(msg),
            SchedError::ResourceExhausted(msg) => FlowError::ResourceExhausted(msg),
            other => FlowError::Sched(other),
        }
    }
}

/// Compiles behavioral source and runs the full flow.
///
/// # Errors
///
/// Any [`FlowError`].
pub fn run_flow_source(source: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let compiled = hls_lang::compile(source, &config.delays)?;
    run_flow(compiled.graph, config)
}

/// Parses a textual DFG ([`hls_ir::textfmt`]) and runs the full flow.
///
/// # Errors
///
/// [`FlowError::Malformed`] when the text does not parse (carrying
/// the parser's line/column diagnostic); otherwise any [`FlowError`].
pub fn run_flow_dfg(text: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let graph =
        hls_ir::textfmt::from_text(text).map_err(|e| FlowError::Malformed(e.to_string()))?;
    run_flow(graph, config)
}

/// Runs the full flow on an already-built behavior graph.
///
/// No panic crosses this boundary: anything unwinding out of a flow
/// phase is caught and returned as [`FlowError::Poisoned`].
///
/// # Errors
///
/// Any [`FlowError`].
pub fn run_flow(graph: PrecedenceGraph, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    contained(|| run_engine(graph, config, &config.engine, &config.budget))
}

/// Runs `f`, returning anything unwinding out of it as
/// [`FlowError::Poisoned`].
pub(crate) fn contained<T>(f: impl FnOnce() -> Result<T, FlowError>) -> Result<T, FlowError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(FlowError::Poisoned(threaded_sched::panic_message(
            payload.as_ref(),
        )))
    })
}

/// A finished design an ECO resubmission can extend incrementally:
/// the post-flow scheduler state, the id map from the graph *as
/// submitted* to that state, and the placement to reuse. The serve
/// layer's schedule cache stores one of these per entry.
#[derive(Clone, Debug)]
pub struct EcoBase {
    /// The post-flow scheduler (spills, φ rewrites and wire delays
    /// already absorbed).
    pub scheduler: ThreadedScheduler,
    /// Submitted-graph op index → op id in `scheduler`'s behavior.
    /// For a cold outcome this is the identity over the submitted
    /// graph; each [`eco_flow`] extends it with the delta ids.
    pub map: Vec<hls_ir::OpId>,
    /// The annealed floorplan of the base design. The delta rides on
    /// it — placement does not rerun.
    pub floorplan: Floorplan,
}

impl EcoBase {
    /// The base for a cold outcome of `submitted`: identity map onto
    /// the outcome's scheduler and floorplan.
    pub fn of_outcome(submitted_ops: usize, out: &FlowOutcome) -> EcoBase {
        EcoBase {
            scheduler: out.scheduler.clone(),
            map: (0..submitted_ops).map(hls_ir::OpId::from_index).collect(),
            floorplan: out.floorplan.clone(),
        }
    }
}

/// Absorbs an ECO delta into a finished design: `target` (the graph
/// as resubmitted) must extend the base graph behind `base` — the
/// caller checks [`PrecedenceGraph::extends`]; this function trusts
/// `base.map`. The delta cone is scheduled incrementally onto the
/// cached post-flow state
/// ([`ThreadedScheduler::refine_graft`](threaded_sched::ThreadedScheduler::refine_graft)),
/// wire delays are annotated for the *new* edges only against the
/// cached floorplan, and the design is re-extracted, re-validated and
/// re-built. Nothing already absorbed — spills, φ rewrites, the
/// existing wire delays, the placement — is recomputed; that is what
/// makes resubmission fast.
///
/// Returns the new outcome plus the extended [`EcoBase`] for
/// re-caching under the resubmitted graph's hash. Like [`run_flow`],
/// no panic crosses this boundary.
///
/// # Errors
///
/// [`FlowError::Sched`] with
/// [`SchedError::NotAnExtension`] when the delta cannot ride the
/// cached state (loop edges, or delta ops of kind `Phi`, which need
/// the flow's register-aware resolution); [`FlowError::Timeout`] on
/// budget expiry; otherwise the errors of the finishing phases.
/// Callers fall back to the cold flow on non-timeout errors.
pub fn eco_flow(
    base: EcoBase,
    target: &PrecedenceGraph,
    config: &FlowConfig,
    budget: &hls_ir::Budget,
) -> Result<(FlowOutcome, EcoBase), FlowError> {
    contained(|| eco_flow_inner(base, target, config, budget))
}

fn eco_flow_inner(
    mut base: EcoBase,
    target: &PrecedenceGraph,
    config: &FlowConfig,
    budget: &hls_ir::Budget,
) -> Result<(FlowOutcome, EcoBase), FlowError> {
    let _span = hls_obs::obs_span!(EcoGraft, "", target.len() as u64);
    hls_obs::obs_count!(EcoGrafts);
    // Delta φs would need register allocation to resolve; that is the
    // cold flow's job, not the delta path's.
    for i in base.map.len()..target.len() {
        if target.kind(hls_ir::OpId::from_index(i)) == OpKind::Phi {
            return Err(FlowError::Sched(SchedError::NotAnExtension));
        }
    }

    let mut ts = base.scheduler;
    let initial_states = ts.diameter();
    let before_len = ts.graph().len();
    let added = ts.refine_graft(target, &mut base.map, budget)?;

    // Wire delays for the delta only: edges between pre-existing ops
    // already carry theirs (as absorbed delay vertices), so only
    // transfers touching a grafted op are new.
    let hard = ts.extract_hard();
    let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &config.resources);
    let transfers = annotate(ts.graph(), &hard, &base.floorplan, config.wire_model);
    let mut wire_delays = 0usize;
    for t in transfers {
        if t.from.index() < before_len && t.to.index() < before_len {
            continue;
        }
        if budget.expired((added.len() + wire_delays) as u64) {
            return Err(FlowError::Timeout);
        }
        refine::insert_wire_delay(&mut ts, t.from, t.to, t.cycles)?;
        wire_delays += 1;
    }
    let wirelength = base.floorplan.wirelength(&matrix);

    let report = FlowReport {
        initial_states,
        wire_delays,
        wirelength,
        ..FlowReport::default()
    };
    let outcome = extract_and_build(ts, base.floorplan, None, report, config)?;
    let next_base = EcoBase {
        scheduler: outcome.scheduler.clone(),
        map: base.map,
        floorplan: outcome.floorplan.clone(),
    };
    Ok((outcome, next_base))
}

/// The flow scheduling with `engine` under `budget` in place of
/// `config.engine` under `config.budget`: each degradation-ladder
/// rung's entry. Panics unwind; wrap calls in [`contained`].
pub(crate) fn run_engine(
    graph: PrecedenceGraph,
    config: &FlowConfig,
    engine: &Engine,
    budget: &hls_ir::Budget,
) -> Result<FlowOutcome, FlowError> {
    // 0. Loop pipelining: modulo-schedule the kernel (acyclic
    // behaviors are kernels without recurrences), then hand the
    // one-iteration kernel DAG to the rest of the flow. Without
    // pipelining, a graph with loop edges is rejected.
    let mut pipeline = None;
    let mut modulo = None;
    let graph = match &config.pipeline {
        Some(pcfg) => {
            let out = hls_search::run_modulo_portfolio(&graph, &config.resources, pcfg, budget)?;
            pipeline = Some(PipelineReport {
                ii: out.ii,
                mii: out.mii,
                latency: out.latency,
            });
            modulo = Some(out.schedule);
            graph.kernel_dag()
        }
        None => {
            if graph.has_loop_edges() {
                return Err(FlowError::NeedsPipeline);
            }
            graph
        }
    };

    // 1. Soft scheduling by the configured engine.
    let _sched_span = hls_obs::obs_span!(FlowSchedule, "", graph.len() as u64);
    let ts = match engine {
        Engine::Portfolio(pcfg) => {
            hls_search::run_portfolio(&graph, &config.resources, pcfg, budget)?.winner
        }
        Engine::Meta(meta) => {
            let order = meta.order(&graph, &config.resources)?;
            let mut ts = ThreadedScheduler::new(graph, config.resources.clone())?;
            match ts.schedule_all_budgeted(order, budget, |_| false)? {
                threaded_sched::RunOutcome::DeadlineExpired { .. } => {
                    return Err(FlowError::Timeout)
                }
                _ => ts,
            }
        }
    };
    drop(_sched_span);
    finish_flow(ts, pipeline, modulo, config, budget)
}

/// The post-scheduling phases of [`run_flow`]: spilling, φ
/// resolution, placement, extraction and the FSMD. Each spill and
/// each wire-delay splice first checks `budget`'s wall deadline (its
/// step quota counts scheduling commits only).
fn finish_flow(
    mut ts: ThreadedScheduler,
    pipeline: Option<PipelineReport>,
    modulo: Option<hls_ir::ModuloSchedule>,
    config: &FlowConfig,
    budget: &hls_ir::Budget,
) -> Result<FlowOutcome, FlowError> {
    let initial_states = ts.diameter();

    // 2. Register allocation with spilling, absorbed softly. Spilling
    // stops at the register budget, on stall (pressure no longer
    // dropping — the remaining pressure is inherent), or at a hard
    // bound.
    let spill_span = hls_obs::obs_span!(FlowSpill);
    let mut spills = 0usize;
    if let Some(registers) = config.register_budget {
        let max_spills = ts.graph().len();
        let mut best_pressure = usize::MAX;
        let mut stalled = 0usize;
        while spills < max_spills {
            let hard = ts.extract_hard();
            let ls = lifetimes::lifetimes(ts.graph(), &hard)
                .map_err(|e| FlowError::Lifetime(e.to_string()))?;
            let pressure = left_edge::allocate(&ls).register_count();
            if pressure <= registers {
                break;
            }
            if pressure < best_pressure {
                best_pressure = pressure;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 3 {
                    break;
                }
            }
            let Some(decision) = spill::pick_spill(ts.graph(), &ls) else {
                break;
            };
            if budget.wall_expired() {
                return Err(FlowError::Timeout);
            }
            refine::insert_spill(&mut ts, decision.producer, decision.consumer)?;
            spills += 1;
        }
    }

    drop(spill_span);

    // 3. φ resolution: same-register sources vanish, others become moves.
    let phi_span = hls_obs::obs_span!(FlowPhi);
    let hard = ts.extract_hard();
    let ls = lifetimes::lifetimes(ts.graph(), &hard)
        .map_err(|e| FlowError::Lifetime(e.to_string()))?;
    let regs = left_edge::allocate(&ls);
    // Each decision reads only the allocation above and the φ's
    // predecessors, which retyping leaves alone, so all are made
    // first and the state is relabelled once for the whole batch.
    let g = ts.graph();
    let retypes: Vec<_> = g
        .op_ids()
        .filter(|&phi| g.kind(phi) == OpKind::Phi)
        .map(|phi| {
            // Data sources are every predecessor that produces a value
            // (the condition also feeds the φ; it selects, it is not
            // data — but for register comparison only value sources
            // matter).
            let regs_of: Vec<Option<usize>> =
                g.preds(phi).iter().map(|&p| regs.register_of(p)).collect();
            let all_same = regs_of.len() >= 2
                && regs_of.iter().skip(1).all(|r| *r == regs_of[1])
                && regs_of[1].is_some();
            if all_same {
                (phi, OpKind::Nop, 0)
            } else {
                (phi, OpKind::Move, config.delays.delay_of(OpKind::Move))
            }
        })
        .collect();
    let phis_voided = retypes.iter().filter(|r| r.1 == OpKind::Nop).count();
    let phis_to_moves = retypes.len() - phis_voided;
    ts.retype_ops(&retypes);

    drop(phi_span);

    // 4–5. Binding is the thread assignment; place and absorb wire
    // delays.
    let place_span = hls_obs::obs_span!(FlowPlace);
    let hard = ts.extract_hard();
    let start_fp =
        Floorplan::row_major(config.resources.k(), config.grid.0, config.grid.1);
    let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &config.resources);
    let floorplan = place(&start_fp, &matrix, &config.place);
    let wirelength = floorplan.wirelength(&matrix);
    let transfers = annotate(ts.graph(), &hard, &floorplan, config.wire_model);
    let wire_delays = transfers.len();
    for t in transfers {
        if budget.wall_expired() {
            return Err(FlowError::Timeout);
        }
        refine::insert_wire_delay(&mut ts, t.from, t.to, t.cycles)?;
    }

    drop(place_span);

    // 6. Extract, validate, build the FSMD.
    let _extract_span = hls_obs::obs_span!(FlowExtract);
    let report = FlowReport {
        pipeline,
        initial_states,
        spills,
        phis_to_moves,
        phis_voided,
        wire_delays,
        wirelength,
        ..FlowReport::default()
    };
    extract_and_build(ts, floorplan, modulo, report, config)
}

/// The tail of the cold flow and of [`eco_flow`]: extract and validate
/// the hard schedule, allocate registers, build the FSMD, and fill in
/// `report`'s `final_states` and `registers`.
fn extract_and_build(
    ts: ThreadedScheduler,
    floorplan: Floorplan,
    modulo: Option<hls_ir::ModuloSchedule>,
    mut report: FlowReport,
    config: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    let schedule = ts.extract_hard();
    sched_check::validate(ts.graph(), &config.resources, &schedule)
        .map_err(|e| FlowError::Invalid(e.to_string()))?;
    let ls = lifetimes::lifetimes(ts.graph(), &schedule)
        .map_err(|e| FlowError::Lifetime(e.to_string()))?;
    let registers = left_edge::allocate(&ls);
    let fsmd = crate::Fsmd::build(ts.graph(), &schedule, &registers, &config.resources);
    report.final_states = ts.diameter();
    report.registers = registers.register_count();
    Ok(FlowOutcome {
        modulo,
        scheduler: ts,
        schedule,
        registers,
        floorplan,
        fsmd,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    const HAL_SRC: &str = "
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
    fn full_flow_from_source_produces_valid_hardware() {
        let out = run_flow_source(HAL_SRC, &FlowConfig::default()).unwrap();
        assert!(out.report.final_states >= out.report.initial_states);
        assert!(out.report.registers > 0);
        assert_eq!(out.fsmd.states, out.report.final_states);
        out.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn register_budget_triggers_spills() {
        let cfg = FlowConfig {
            register_budget: Some(1),
            ..FlowConfig::default()
        };
        let out = run_flow_source(HAL_SRC, &cfg).unwrap();
        assert!(out.report.spills > 0, "budget 1 must force spilling");
        // The spilled design still validates and fits the budget.
        assert!(out.report.registers <= 3, "pressure must drop near budget");
    }

    #[test]
    fn config_meta_reads_the_engines_sequential_order() {
        let with = |engine| FlowConfig {
            engine,
            ..FlowConfig::default()
        };
        assert_eq!(FlowConfig::default().meta, MetaSchedule::ListBased);
        assert_eq!(
            with(Engine::Meta(MetaSchedule::Random(7))).meta,
            MetaSchedule::Random(7)
        );
        let port = hls_search::PortfolioConfig::default();
        assert_eq!(with(Engine::Portfolio(port)).meta, MetaSchedule::ListBased);
    }

    /// A graft that panics is typed like a panic in any other flow
    /// phase: `FlowError::Poisoned`, not a `Sched` wrapper around the
    /// scheduler's own poisoned error.
    #[test]
    fn eco_graft_panic_surfaces_as_poisoned() {
        use hls_ir::faultinject::{arm, FaultPlan, RunScope};
        let g = bench_graphs::hal();
        let cfg = FlowConfig::default();
        let out = run_flow(g.clone(), &cfg).unwrap();
        let mut target = g.clone();
        let d = target.add_op(OpKind::Add, 1, "delta");
        target
            .add_edge(hls_ir::OpId::from_index(g.len() - 1), d)
            .unwrap();

        let _armed = arm(FaultPlan::panic_at(1).in_run("eco"));
        let _scope = RunScope::enter("eco");
        let base = EcoBase::of_outcome(g.len(), &out);
        let err = eco_flow(base, &target, &cfg, &hls_ir::Budget::NONE).unwrap_err();
        assert!(matches!(err, FlowError::Poisoned(_)), "{err:?}");
    }

    #[test]
    fn tight_wire_model_inserts_wire_delays() {
        let cfg = FlowConfig {
            wire_model: WireModel::new(1),
            grid: (4, 1), // a strip stretches distances
            ..FlowConfig::default()
        };
        let out = run_flow(bench_graphs::ewf(), &cfg).unwrap();
        assert!(out.report.wire_delays > 0);
        assert!(out.report.final_states >= out.report.initial_states);
    }

    #[test]
    fn pipeline_seat_runs_the_cyclic_kernel_through_the_flow() {
        use hls_ir::schedule::check_modulo;
        let g = bench_graphs::mac_loop();
        let cfg = FlowConfig {
            resources: ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1),
            pipeline: Some(hls_search::PipelineConfig::default()),
            ..FlowConfig::default()
        };
        // Without the pipeline seat a loop-carrying behavior is
        // rejected — even an *acyclic* one like the FIR delay line,
        // whose inter-iteration edges the acyclic scheduler would
        // silently misread as same-iteration.
        let acyclic_only = FlowConfig {
            pipeline: None,
            ..cfg.clone()
        };
        assert_eq!(
            run_flow(g.clone(), &acyclic_only).unwrap_err(),
            FlowError::NeedsPipeline
        );
        assert_eq!(
            run_flow(bench_graphs::fir_loop(4), &acyclic_only).unwrap_err(),
            FlowError::NeedsPipeline
        );
        let out = run_flow(g.clone(), &cfg).unwrap();
        let p = out.report.pipeline.expect("pipeline seat reports");
        assert_eq!(p.ii, p.mii, "MAC pipelines at the certified bound");
        let ms = out.modulo.expect("modulo schedule kept");
        assert_eq!(check_modulo(&g, &cfg.resources, &ms), Ok(()));
        // Downstream hardware came from the one-iteration kernel DAG.
        assert_eq!(out.fsmd.microops.len(), out.scheduler.graph().len());
        out.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn pipeline_seat_accepts_acyclic_behaviors() {
        let cfg = FlowConfig {
            pipeline: Some(hls_search::PipelineConfig::default()),
            ..FlowConfig::default()
        };
        let out = run_flow_source(HAL_SRC, &cfg).unwrap();
        let p = out.report.pipeline.expect("reported");
        assert_eq!(p.mii, p.ii);
        assert!(p.latency >= p.ii || p.ii == 1);
    }

    #[test]
    fn phis_are_resolved_one_way_or_another() {
        let src = "
            input a, b; output o;
            if (a < b) { s = a + 1; } else { s = b + 2; }
            o = s * 3;
        ";
        let out = run_flow_source(src, &FlowConfig::default()).unwrap();
        assert_eq!(out.report.phis_to_moves + out.report.phis_voided, 1);
        // No Phi survives in the final behavior.
        assert!(out
            .scheduler
            .graph()
            .op_ids()
            .all(|v| out.scheduler.graph().kind(v) != OpKind::Phi));
    }

    #[test]
    fn portfolio_flow_matches_or_beats_the_single_meta_flow() {
        let single = run_flow(bench_graphs::ewf(), &FlowConfig::default()).unwrap();
        let cfg = FlowConfig {
            engine: Engine::Portfolio(hls_search::PortfolioConfig {
                threads: 2,
                ..hls_search::PortfolioConfig::default()
            }),
            ..FlowConfig::default()
        };
        let port = run_flow(bench_graphs::ewf(), &cfg).unwrap();
        // The portfolio contains the single meta, so its soft schedule
        // cannot be longer; the rest of the flow still validates.
        assert!(port.report.initial_states <= single.report.initial_states);
        assert!(port.report.final_states >= port.report.initial_states);
        port.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn front_end_errors_propagate() {
        let err = run_flow_source("output o;", &FlowConfig::default()).unwrap_err();
        assert!(matches!(err, FlowError::Lang(_)));
    }

    #[test]
    fn missing_units_propagate_as_sched_errors() {
        let cfg = FlowConfig {
            resources: ResourceSet::classic(2, 0), // no multiplier
            ..FlowConfig::default()
        };
        let err = run_flow(bench_graphs::hal(), &cfg).unwrap_err();
        assert!(matches!(err, FlowError::Sched(_)));
    }
}
