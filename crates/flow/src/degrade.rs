//! The graceful-degradation ladder.
//!
//! A budgeted flow should come back with *something* — the best answer
//! its budget allowed, plus an honest record of what it had to give
//! up. [`run_flow_degraded`] walks a fixed ladder of scheduling
//! strategies, each cheaper and more predictable than the last, and
//! settles on the first rung that produces a validated design:
//!
//! 1. [`DegradeRung::Portfolio`] — the configured [`Engine::Portfolio`]
//!    (or the default one), under half the budget;
//! 2. [`DegradeRung::SingleMeta`] — the configured engine if it is
//!    [`Engine::Meta`], otherwise `Engine::Meta(ListBased)`, under
//!    three quarters of the budget;
//! 3. [`DegradeRung::ListSchedule`] — `Engine::Meta(ListBased)`, under
//!    the full budget;
//! 4. [`DegradeRung::BoundOnly`] — no schedule at all: the certified
//!    lower bound
//!    ([`ResourceSet::lower_bound`](hls_ir::ResourceSet::lower_bound)),
//!    read from the graph in `O(V + E)` with no index and no commits,
//!    and therefore no budget.
//!
//! A rung is abandoned only for *recoverable* failures — its budget
//! slice expired ([`DegradeReason::Timeout`]), it panicked
//! ([`DegradeReason::Poisoned`]), or it failed in a way a simpler
//! strategy may avoid ([`DegradeReason::Error`]); the reason is
//! recorded in [`DegradedOutcome::degraded`] so callers can tell a
//! first-choice answer from a fallback. Failures that every rung
//! would share (a malformed graph, a missing unit class) surface from
//! the last schedule-producing rung as the flow's own typed error.
//!
//! Under a pure step-quota budget the ladder is deterministic: which
//! rung answers, and with what design, reproduces across thread
//! counts (`crates/flow/tests/degradation.rs`).

use crate::flow::{Engine, FlowConfig, FlowError, FlowOutcome};
use hls_ir::{Budget, PrecedenceGraph};
use threaded_sched::{meta::MetaSchedule, SchedError};

/// One rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeRung {
    /// The parallel portfolio race (the full engine).
    Portfolio,
    /// The configured single-meta engine.
    SingleMeta,
    /// Plain list scheduling.
    ListSchedule,
    /// No schedule: only the certified lower bound is reported.
    BoundOnly,
}

impl DegradeRung {
    /// Display name of the rung.
    pub fn name(self) -> &'static str {
        match self {
            DegradeRung::Portfolio => "portfolio",
            DegradeRung::SingleMeta => "single-meta",
            DegradeRung::ListSchedule => "list-schedule",
            DegradeRung::BoundOnly => "bound-only",
        }
    }

    /// Ladder depth: 0 for the full portfolio down to 3 for
    /// bound-only. Monotone in budget starvation — a larger budget
    /// never answers from a *deeper* rung than a smaller one (the
    /// concurrent-load suite asserts this).
    pub fn rank(self) -> u8 {
        match self {
            DegradeRung::Portfolio => 0,
            DegradeRung::SingleMeta => 1,
            DegradeRung::ListSchedule => 2,
            DegradeRung::BoundOnly => 3,
        }
    }
}

/// Why a rung was abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The rung's budget slice expired.
    Timeout,
    /// The rung panicked (message preserved; the panic never left the
    /// ladder).
    Poisoned(String),
    /// The rung failed in a way a simpler strategy may avoid.
    Error(String),
}

/// One abandoned rung: what was tried and why it was given up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradeStep {
    /// The rung that was tried.
    pub rung: DegradeRung,
    /// Why it was abandoned.
    pub reason: DegradeReason,
}

/// What a degraded flow settled on.
#[derive(Debug)]
pub struct DegradedOutcome {
    /// The rung that answered.
    pub rung: DegradeRung,
    /// The produced design — `None` exactly when `rung` is
    /// [`DegradeRung::BoundOnly`].
    pub outcome: Option<FlowOutcome>,
    /// The certified lower bound on any schedule of this behavior
    /// under these resources. Always present, even bound-only.
    pub lower_bound: u64,
    /// The rungs abandoned on the way down, in ladder order — empty
    /// when the portfolio answered first try.
    pub degraded: Vec<DegradeStep>,
}

/// Is this failure worth descending a rung for, and if so why?
fn recoverable(e: &FlowError) -> Option<DegradeReason> {
    match e {
        FlowError::Timeout => Some(DegradeReason::Timeout),
        FlowError::Poisoned(msg) => Some(DegradeReason::Poisoned(msg.clone())),
        // Structural rejections no rung can fix: descending would just
        // re-fail slower.
        FlowError::NeedsPipeline
        | FlowError::Lang(_)
        | FlowError::Malformed(_)
        | FlowError::ResourceExhausted(_) => None,
        other => Some(DegradeReason::Error(other.to_string())),
    }
}

/// Runs the flow down the degradation ladder; see the
/// [module docs](self).
///
/// # Errors
///
/// Only failures no rung can recover from: structural rejections
/// ([`FlowError::NeedsPipeline`], [`FlowError::Malformed`],
/// [`FlowError::ResourceExhausted`], front-end errors) and a
/// bound-only rung that itself cannot validate the graph.
pub fn run_flow_degraded(
    graph: &PrecedenceGraph,
    config: &FlowConfig,
) -> Result<DegradedOutcome, FlowError> {
    let mut degraded = Vec::new();

    for (rung, engine, budget) in schedule_rungs(config) {
        let attempt = {
            let _span = hls_obs::obs_span!(DegradeRung, rung.name(), u64::from(rung.rank()));
            crate::flow::contained(|| {
                crate::flow::run_engine(graph.clone(), config, &engine, &budget)
            })
        };
        match attempt {
            Ok(mut outcome) => {
                answered_at(rung);
                outcome.report.rung = Some(rung.name());
                let lower_bound = outcome.scheduler.schedule_lower_bound();
                return Ok(DegradedOutcome {
                    rung,
                    outcome: Some(outcome),
                    lower_bound,
                    degraded,
                });
            }
            Err(e) => match recoverable(&e) {
                Some(reason) => {
                    demotion(rung, &reason);
                    degraded.push(DegradeStep { rung, reason });
                }
                None => return Err(e),
            },
        }
    }

    // Bound-only: the certified lower bound needs graph validation but
    // no index and not a single commit, so it answers even with a
    // fully exhausted budget. Loop kernels are bounded on their
    // one-iteration kernel DAG.
    let kernel;
    let g = if graph.has_loop_edges() {
        kernel = graph.kernel_dag();
        &kernel
    } else {
        graph
    };
    g.validate().map_err(SchedError::from)?;
    let lower_bound = config.resources.lower_bound(g);
    answered_at(DegradeRung::BoundOnly);
    Ok(DegradedOutcome {
        rung: DegradeRung::BoundOnly,
        outcome: None,
        lower_bound,
        degraded,
    })
}

/// Rungs 1–3 for `config` with their engines and budget slices (see
/// the [module docs](self)).
fn schedule_rungs(config: &FlowConfig) -> [(DegradeRung, Engine, Budget); 3] {
    let (portfolio, single) = match &config.engine {
        Engine::Portfolio(p) => (p.clone(), MetaSchedule::ListBased),
        Engine::Meta(meta) => (hls_search::PortfolioConfig::default(), *meta),
    };
    let list = Engine::Meta(MetaSchedule::ListBased);
    [
        (
            DegradeRung::Portfolio,
            Engine::Portfolio(portfolio),
            config.budget.slice(1, 2),
        ),
        (DegradeRung::SingleMeta, Engine::Meta(single), config.budget.slice(3, 4)),
        (DegradeRung::ListSchedule, list, config.budget),
    ]
}

/// Counts a ladder demotion by typed reason and drops a ring marker
/// naming the abandoned rung, so traces and STATS both show every
/// transition. A poisoned rung is a caught panic, so it additionally
/// freezes a flight-recorder post-mortem — the ladder absorbs the
/// crash, but the evidence survives.
fn demotion(rung: DegradeRung, reason: &DegradeReason) {
    match reason {
        DegradeReason::Timeout => hls_obs::obs_count!(DegradeTimeout),
        DegradeReason::Poisoned(msg) => {
            hls_obs::obs_count!(DegradePoisoned);
            hls_obs::flight::dump(&format!("ladder rung '{}' poisoned: {msg}", rung.name()));
        }
        DegradeReason::Error(_) => hls_obs::obs_count!(DegradeError),
    }
    hls_obs::obs_instant!(DegradeRung, rung.name(), u64::from(rung.rank()));
}

/// Counts which rung finally answered.
fn answered_at(rung: DegradeRung) {
    match rung {
        DegradeRung::Portfolio => hls_obs::obs_count!(AnsweredPortfolio),
        DegradeRung::SingleMeta => hls_obs::obs_count!(AnsweredSingleMeta),
        DegradeRung::ListSchedule => hls_obs::obs_count!(AnsweredListSchedule),
        DegradeRung::BoundOnly => hls_obs::obs_count!(AnsweredBoundOnly),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    fn base_config() -> FlowConfig {
        FlowConfig::default()
    }

    #[test]
    fn unlimited_budget_answers_on_the_portfolio_rung() {
        let cfg = base_config();
        let out = run_flow_degraded(&bench_graphs::ewf(), &cfg).unwrap();
        assert_eq!(out.rung, DegradeRung::Portfolio);
        assert!(out.degraded.is_empty());
        let flow = out.outcome.expect("a schedule was produced");
        assert!(flow.report.final_states >= out.lower_bound);
    }

    #[test]
    fn exhausted_budget_degrades_to_the_bound_only_report() {
        // A zero-step quota starves every schedule-producing rung; the
        // ladder still answers with the certified bound, and records
        // each abandoned rung as a timeout.
        let cfg = FlowConfig {
            budget: hls_ir::Budget::steps(0),
            ..base_config()
        };
        let out = run_flow_degraded(&bench_graphs::ewf(), &cfg).unwrap();
        assert_eq!(out.rung, DegradeRung::BoundOnly);
        assert!(out.outcome.is_none());
        assert!(out.lower_bound > 0);
        assert_eq!(out.degraded.len(), 3);
        assert!(out
            .degraded
            .iter()
            .all(|s| s.reason == DegradeReason::Timeout));
    }

    #[test]
    fn structural_failures_are_not_degraded_away() {
        // A loop-carrying behavior without the pipeline seat fails
        // identically on every rung — the ladder must surface the
        // typed error, not burn the budget re-failing.
        let cfg = base_config();
        let err = run_flow_degraded(&bench_graphs::mac_loop(), &cfg).unwrap_err();
        assert_eq!(err, FlowError::NeedsPipeline);
    }

    /// The rung → engine mapping for each configured engine: rung 1
    /// is the configured (or default) portfolio, rung 2 the configured
    /// meta (list-based under a portfolio), rung 3 list-based meta;
    /// budget slices ½, ¾, 1.
    #[test]
    fn rungs_map_each_configured_engine() {
        fn shape(e: &Engine) -> (&'static str, Option<MetaSchedule>, usize) {
            match e {
                Engine::Meta(m) => ("meta", Some(*m), 0),
                Engine::Portfolio(p) => ("portfolio", None, p.threads),
            }
        }
        let budget = Budget::steps(400);
        let with = |engine| FlowConfig {
            engine,
            budget,
            ..base_config()
        };
        let port = hls_search::PortfolioConfig {
            threads: 3,
            ..Default::default()
        };
        let default_threads = hls_search::PortfolioConfig::default().threads;
        let cases = [
            (
                with(Engine::Meta(MetaSchedule::PathBased)),
                [
                    ("portfolio", None, default_threads),
                    ("meta", Some(MetaSchedule::PathBased), 0),
                    ("meta", Some(MetaSchedule::ListBased), 0),
                ],
            ),
            (
                with(Engine::Portfolio(port)),
                [
                    ("portfolio", None, 3),
                    ("meta", Some(MetaSchedule::ListBased), 0),
                    ("meta", Some(MetaSchedule::ListBased), 0),
                ],
            ),
        ];
        for (cfg, want) in cases {
            let rungs = schedule_rungs(&cfg);
            let got: Vec<_> = rungs.iter().map(|(_, e, _)| shape(e)).collect();
            assert_eq!(got, want, "{:?}", cfg.engine);
            let names: Vec<_> = rungs.iter().map(|(r, _, _)| r.name()).collect();
            assert_eq!(names, ["portfolio", "single-meta", "list-schedule"]);
            let budgets: Vec<_> = rungs.iter().map(|(_, _, b)| *b).collect();
            assert_eq!(budgets, [budget.slice(1, 2), budget.slice(3, 4), budget]);
        }
    }

    #[test]
    fn mid_budget_lands_on_a_lower_schedule_rung() {
        // Enough steps for one plain run but not for the portfolio's
        // half-slice: the ladder descends yet still returns a design.
        let g = bench_graphs::ewf();
        let n = g.len() as u64;
        let cfg = FlowConfig {
            budget: hls_ir::Budget::steps(n + n / 2),
            ..base_config()
        };
        let out = run_flow_degraded(&g, &cfg).unwrap();
        assert_ne!(out.rung, DegradeRung::BoundOnly, "budget affords a schedule");
        let flow = out.outcome.expect("a schedule was produced");
        flow.scheduler.check_invariants().unwrap();
        assert!(flow.report.final_states >= out.lower_bound);
    }
}
