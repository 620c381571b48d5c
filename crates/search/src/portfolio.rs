//! The parallel portfolio race and the refinement driver.
//!
//! # The race
//!
//! Candidates (meta orders) race on the crate's race executor, scored
//! by final state diameter. Each run probes the shared incumbent after
//! every scheduled operation (the early-abort hook of
//! [`ThreadedScheduler::schedule_all_budgeted`]) with its certified
//! final-diameter lower bound, and aborts once that bound can no longer
//! win: the diameter is monotone (Lemma 4), and ties resolve to the
//! earlier candidate. The argmin run's bound never exceeds its own
//! final, so it is never aborted and the winner — `argmin
//! (final_diameter, index)` — does not depend on thread count or
//! timing; only the losers' [`RunReport`]s do. `DESIGN.md` §7 spells
//! out the argument.
//!
//! # The refinement driver
//!
//! [`run_portfolio`] runs the base race over the paper's four meta
//! schedules plus the seeded perturbation populations, then iterates
//! the feedback loop: extract the winner's critical cone
//! ([`crate::cone::critical_cone`]), race seeded cone-local
//! perturbations ([`crate::perturb::perturb_within`]) against the
//! incumbent diameter (strict improvement required), adopt a winner,
//! and stop after a configured number of improvement-free rounds.

use crate::race::{self, End};
use crate::{cone, perturb};
use hls_ir::{OpId, PrecedenceGraph, ResourceSet};
use threaded_sched::meta::MetaSchedule;
use threaded_sched::{RunOutcome, SchedError, ThreadedScheduler};

/// What the race calls its candidates in post-mortems and errors.
const WHAT: &str = "portfolio strategy";

/// Where a candidate's feed order comes from.
///
/// Meta sources are resolved *inside* the race worker that picks the
/// candidate up: order construction (list scheduling for
/// [`MetaSchedule::ListBased`], longest-path peeling for
/// [`MetaSchedule::PathBased`]) is real work that parallelises with
/// everything else and must be charged to the strategy that needs it.
#[derive(Clone, Debug)]
pub enum OrderSource {
    /// Compute the order from a meta schedule at run time.
    Meta(MetaSchedule),
    /// An explicit order (the refinement perturbations).
    Explicit(Vec<OpId>),
}

impl OrderSource {
    /// Resolves the concrete feed order.
    fn resolve(
        &self,
        g: &PrecedenceGraph,
        resources: &ResourceSet,
    ) -> Result<Vec<OpId>, SchedError> {
        match self {
            OrderSource::Meta(m) => m.order(g, resources),
            OrderSource::Explicit(order) => Ok(order.clone()),
        }
    }
}

/// One strategy racing in a portfolio.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Display name (meta-schedule name or perturbation tag).
    pub name: String,
    /// The operation feed order (or the recipe for it).
    pub source: OrderSource,
}

/// What happened to one candidate in a race.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The candidate's name.
    pub name: String,
    /// Operations scheduled before completing, aborting, timing out
    /// or panicking.
    pub scheduled: usize,
    /// Final state diameter — `None` if the run did not complete.
    /// Which losing runs abort (and after how many operations) depends
    /// on thread timing; the race *result* does not.
    pub diameter: Option<u64>,
    /// Set when the run panicked mid-schedule (the panic message):
    /// the strategy was excluded and the race continued with the
    /// survivors. Panics never escape the race.
    pub poisoned: Option<String>,
    /// `true` when the run's [`hls_ir::Budget`] expired before it
    /// finished.
    pub timed_out: bool,
}

/// The race winner: the candidate with the lexicographically smallest
/// `(final diameter, index)`.
#[derive(Debug)]
pub struct RaceWinner {
    /// Final state diameter.
    pub diameter: u64,
    /// Index into the candidate list.
    pub index: usize,
    /// The winning scheduler, holding the completed state.
    pub scheduler: ThreadedScheduler,
    /// The resolved feed order that produced it.
    pub order: Vec<OpId>,
}

/// The outcome of one [`race`].
#[derive(Debug)]
pub struct RaceOutcome {
    /// Per-candidate reports, in candidate order.
    pub reports: Vec<RunReport>,
    /// The winner — `None` if every run aborted against the external
    /// bound.
    pub best: Option<RaceWinner>,
}

/// Races `candidates` over `g` on up to `threads` OS threads.
///
/// `bound`, when given, pre-seeds the incumbent with slot 0 at that
/// diameter: only candidates *strictly better* than the bound can
/// complete and win (ties abort). With no bound the incumbent starts
/// at infinity and the best candidate always completes.
///
/// `budget` applies to **every run independently** (each draws its own
/// step quota; a wall deadline is a shared absolute instant). Runs
/// stopped by the budget report `timed_out`; runs that panic are
/// *poisoned* — recorded and excluded while the race continues with
/// the survivors, and no panic escapes this function.
///
/// The winner — `argmin (final diameter, index)` over the completed
/// runs — is deterministic for a fixed candidate list regardless of
/// `threads`; see the [module docs](self). Under a *step-quota*
/// budget the completed set itself is deterministic too, so budgeted
/// results reproduce across thread counts; a wall deadline's completed
/// set depends on machine speed.
///
/// # Errors
///
/// Propagates the first [`SchedError`] raised by any run (a cyclic
/// graph or an operation with no compatible unit). Poisoned and
/// timed-out runs are *not* errors at this level — callers decide
/// (e.g. [`run_portfolio`] errors only when nothing survived).
///
/// # Panics
///
/// Panics if `candidates.len() > 65534` (the packed-slot budget).
pub fn race(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    candidates: &[Candidate],
    threads: usize,
    bound: Option<u64>,
    budget: &hls_ir::Budget,
) -> Result<RaceOutcome, SchedError> {
    // Every run starts from the same pristine state; building it once
    // and cloning (one clone per worker, then one per run) pays the
    // graph validation, chain-cover decomposition, sink-distance
    // sweep and resource floor once instead of once per candidate.
    let template = ThreadedScheduler::new(g.clone(), resources.clone())?;
    Ok(race_from(&template, g, resources, candidates, threads, bound, budget)?.0)
}

/// [`race`] with a caller-supplied pristine scheduler — what
/// [`run_portfolio`] uses so the base race and every refinement round
/// share one index build instead of re-deriving it per call. Next to
/// the outcome it returns the race's no-survivor verdict (`None` when a
/// candidate won).
fn race_from(
    template: &ThreadedScheduler,
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    candidates: &[Candidate],
    threads: usize,
    bound: Option<u64>,
    budget: &hls_ir::Budget,
) -> Result<(RaceOutcome, Option<SchedError>), SchedError> {
    if candidates.is_empty() {
        let outcome = RaceOutcome {
            reports: Vec::new(),
            best: None,
        };
        return Ok((outcome, None));
    }
    let _race_span = hls_obs::obs_span!(PortfolioRace, "", candidates.len() as u64);
    let tags: Vec<&str> = candidates.iter().map(|c| c.name.as_str()).collect();
    // One template clone per *worker* (RefCell scratch makes the
    // scheduler !Sync); each run then clones that copy. Scheduler-level
    // panics surface as `SchedError::Poisoned` (the scheduler catches
    // them); the executor catches anything else.
    let raced = race::run(
        WHAT,
        &tags,
        threads,
        bound,
        || template.clone(),
        |template, index, probe| {
            let cand = &candidates[index];
            hls_obs::obs_count!(StrategySpawned);
            let _span = hls_obs::obs_span!(PortfolioRun, &cand.name, index as u64 + 1);
            let order = cand.source.resolve(g, resources)?;
            // Boxed: the scheduler dwarfs every other result the
            // workers send, and most results are losers.
            let mut ts = Box::new(template.clone());
            let outcome =
                ts.schedule_all_budgeted(order.iter().copied(), budget, |b| probe.loses(b));
            Ok(match outcome {
                Ok(RunOutcome::Completed) => {
                    let scheduled = order.len();
                    (End::Completed(ts.diameter(), (ts, order)), scheduled)
                }
                Ok(RunOutcome::Aborted { scheduled }) => {
                    hls_obs::obs_count!(StrategyAborted);
                    (End::Pruned, scheduled)
                }
                Ok(RunOutcome::DeadlineExpired { scheduled }) => {
                    hls_obs::obs_count!(StrategyTimedOut);
                    (End::TimedOut, scheduled)
                }
                Err(SchedError::Poisoned(msg)) => (End::Poisoned(msg), ts.scheduled_count()),
                Err(e) => return Err(e),
            })
        },
    )?;
    let verdict = raced.no_survivor(WHAT, &tags);
    let reports = raced
        .ends
        .into_iter()
        .zip(candidates)
        .map(|((end, scheduled), cand)| RunReport {
            name: cand.name.clone(),
            scheduled,
            diameter: match end {
                End::Completed(d, ()) => Some(d),
                _ => None,
            },
            timed_out: matches!(end, End::TimedOut),
            poisoned: match end {
                End::Poisoned(msg) => {
                    hls_obs::obs_count!(StrategyPoisoned);
                    hls_obs::obs_instant!(PortfolioRun, &cand.name, 1);
                    Some(msg)
                }
                _ => None,
            },
        })
        .collect();
    let best = raced.best.map(|w| {
        hls_obs::obs_count!(StrategyWon);
        hls_obs::obs_instant!(PortfolioRace, &candidates[w.index].name, w.score);
        let (scheduler, order) = w.value;
        RaceWinner {
            diameter: w.score,
            index: w.index,
            scheduler: *scheduler,
            order,
        }
    });
    Ok((RaceOutcome { reports, best }, verdict))
}

/// Configuration of the feedback-guided refinement loop.
#[derive(Clone, Debug)]
pub struct RefineConfig {
    /// Stop after this many consecutive rounds without a strict
    /// diameter improvement (the paper-inspired `R`). `0` disables
    /// refinement entirely.
    pub stall_rounds: usize,
    /// Hard cap on refinement rounds, improvement or not.
    pub max_rounds: usize,
    /// Perturbed orders raced per round. `0` disables refinement.
    pub candidates_per_round: usize,
    /// Slack band of the critical-cone extraction: operations with
    /// `diameter − ‖←v→‖ ≤ slack_band` seed the cone. A band of 1
    /// (default) pulls in the near-critical ops whose placement the
    /// perturbations most often need to vary; 0 is the pure critical
    /// cone.
    pub slack_band: u64,
    /// Base seed of the perturbation shuffles.
    pub seed: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            stall_rounds: 2,
            max_rounds: 8,
            candidates_per_round: 4,
            slack_band: 1,
            seed: 0x5EED_F00D,
        }
    }
}

/// Configuration of [`run_portfolio`].
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// OS threads the races may use. Affects wall time only — the
    /// result is deterministic for a fixed strategy/seed set.
    pub threads: usize,
    /// Seeds for the [`MetaSchedule::Random`] perturbation population
    /// (fully random permutations).
    pub random_seeds: Vec<u64>,
    /// Seeds for the [`MetaSchedule::RandomTopo`] population (random
    /// topological tie-breaks).
    pub topo_seeds: Vec<u64>,
    /// The feedback-refinement parameters.
    pub refine: RefineConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            // 4 paper metas + 2 + 2 perturbations = 8 strategies.
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            random_seeds: vec![0xA11CE, 0xB0B5],
            topo_seeds: vec![0x7E40_0001, 0x7E40_0002],
            refine: RefineConfig::default(),
        }
    }
}

/// Everything [`run_portfolio`] produces.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The winning scheduler, holding the final (possibly refined)
    /// state; use it exactly like a directly-driven
    /// [`ThreadedScheduler`] (extract, refine further, snapshot).
    pub winner: ThreadedScheduler,
    /// Name of the winning candidate (a meta schedule, a perturbation
    /// seed tag, or a refinement-round tag).
    pub winner_name: String,
    /// The feed order that produced the winner (the refinement loop
    /// perturbs this order further).
    pub winner_order: Vec<OpId>,
    /// Final state diameter after refinement.
    pub diameter: u64,
    /// Diameter of the portfolio winner *before* refinement — by
    /// construction `≤` every single meta schedule in the portfolio.
    pub initial_diameter: u64,
    /// The certified lower bound on any schedule of this behavior
    /// under these resources
    /// ([`ThreadedScheduler::schedule_lower_bound`]). When
    /// `diameter == lower_bound` the result is provably optimal and
    /// refinement was skipped.
    pub lower_bound: u64,
    /// Refinement rounds executed.
    pub refine_rounds: usize,
    /// Reports of every run: the base portfolio first, then each
    /// refinement round's candidates.
    pub runs: Vec<RunReport>,
}

/// The base candidate list of a portfolio configuration: the paper's
/// four meta schedules, then the [`MetaSchedule::Random`] and
/// [`MetaSchedule::RandomTopo`] populations. Exposed so benchmarks
/// and tools can race exactly what [`run_portfolio`] races.
pub fn base_candidates(cfg: &PortfolioConfig) -> Vec<Candidate> {
    let mut candidates = Vec::new();
    for m in MetaSchedule::PAPER {
        candidates.push(Candidate {
            name: m.name().to_string(),
            source: OrderSource::Meta(m),
        });
    }
    for &seed in &cfg.random_seeds {
        candidates.push(Candidate {
            name: format!("random({seed:#x})"),
            source: OrderSource::Meta(MetaSchedule::Random(seed)),
        });
    }
    for &seed in &cfg.topo_seeds {
        candidates.push(Candidate {
            name: format!("random-topo({seed:#x})"),
            source: OrderSource::Meta(MetaSchedule::RandomTopo(seed)),
        });
    }
    candidates
}

/// Runs the full portfolio: the paper's four meta schedules plus the
/// seeded perturbation populations race once, then the feedback loop
/// refines the winner. See the [module docs](self).
///
/// `budget` applies to every run of the base race and of each
/// refinement round, as in [`race`]; refinement rounds stop launching
/// once its wall deadline passes. [`hls_ir::Budget::NONE`] runs
/// unconstrained.
///
/// The returned diameter is never worse than the best single meta
/// schedule in the portfolio (the base race contains them), and the
/// result is deterministic for a fixed configuration regardless of
/// `cfg.threads`.
///
/// # Errors
///
/// Propagates [`SchedError`] from order construction (e.g.
/// [`MetaSchedule::ListBased`] without compatible units) or from any
/// run. When *no* base candidate completes — every run timed out or
/// was poisoned — returns [`SchedError::Timeout`] (if any run hit the
/// budget) or [`SchedError::Poisoned`] naming the dead strategies;
/// a race with at least one survivor succeeds with the best survivor.
pub fn run_portfolio(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    cfg: &PortfolioConfig,
    budget: &hls_ir::Budget,
) -> Result<PortfolioOutcome, SchedError> {
    let candidates = base_candidates(cfg);
    // One pristine scheduler (graph validation, chain cover, bound
    // caches) shared by the base race and every refinement round.
    let template = ThreadedScheduler::new(g.clone(), resources.clone())?;
    let (base, verdict) =
        race_from(&template, g, resources, &candidates, cfg.threads, None, budget)?;
    let mut runs = base.reports;
    let Some(win) = base.best else {
        // An unbounded race only fails to produce a winner when every
        // run was cut down by the budget or by a panic (acyclic runs
        // never merely fail, so the verdict is always set).
        return Err(verdict.unwrap_or(SchedError::Timeout));
    };
    let initial_diameter = win.diameter;
    let mut winner = win.scheduler;
    let mut winner_name = candidates[win.index].name.clone();
    let mut winner_order = win.order;
    let mut diameter = initial_diameter;

    let lower_bound = winner.schedule_lower_bound();
    let mut rounds = 0usize;
    let mut stall = 0usize;
    while diameter > lower_bound
        && stall < cfg.refine.stall_rounds
        && rounds < cfg.refine.max_rounds
        && cfg.refine.candidates_per_round > 0
        && !budget.wall_expired()
    {
        rounds += 1;
        hls_obs::obs_count!(RefineRounds);
        let _round_span = hls_obs::obs_span!(RefineRound, "", rounds as u64);
        let cone = cone::critical_cone(&winner, cfg.refine.slack_band);
        if cone.len() < 2 {
            break; // nothing to permute
        }
        let mut in_cone = vec![false; g.len()];
        for &v in &cone {
            in_cone[v.index()] = true;
        }
        // Candidate 0 is the deterministic cone-first move — but only
        // while the winner is fresh (repeating it against an unchanged
        // winner would just replay a known loser); the rest are seeded
        // cone-local shuffles.
        let with_front = stall == 0;
        let perturbed: Vec<Candidate> = (0..cfg.refine.candidates_per_round)
            .map(|i| {
                let (name, order) = if i == 0 && with_front {
                    (
                        format!("refine r{rounds}.front"),
                        perturb::cone_first(&winner_order, &in_cone),
                    )
                } else {
                    (
                        format!("refine r{rounds}.{i}"),
                        perturb::perturb_within(
                            &winner_order,
                            &in_cone,
                            perturb::mix_seed(cfg.refine.seed, rounds as u64, i as u64),
                        ),
                    )
                };
                Candidate {
                    name,
                    source: OrderSource::Explicit(order),
                }
            })
            .collect();
        let (round, _) = race_from(
            &template,
            g,
            resources,
            &perturbed,
            cfg.threads,
            Some(diameter),
            budget,
        )?;
        let mut improved = false;
        if let Some(w) = round.best {
            // A bounded race only completes strict improvements.
            debug_assert!(w.diameter < diameter);
            diameter = w.diameter;
            winner = w.scheduler;
            winner_name = perturbed[w.index].name.clone();
            winner_order = w.order;
            improved = true;
        }
        runs.extend(round.reports);
        if improved {
            stall = 0;
        } else {
            stall += 1;
        }
    }

    Ok(PortfolioOutcome {
        winner,
        winner_name,
        winner_order,
        diameter,
        initial_diameter,
        lower_bound,
        refine_rounds: rounds,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    fn two_identical(g: &PrecedenceGraph, r: &ResourceSet) -> Vec<Candidate> {
        let order = MetaSchedule::Topological.order(g, r).unwrap();
        vec![
            Candidate {
                name: "first".into(),
                source: OrderSource::Explicit(order.clone()),
            },
            Candidate {
                name: "twin".into(),
                source: OrderSource::Explicit(order),
            },
        ]
    }

    #[test]
    fn single_threaded_race_prunes_the_identical_twin_by_slot() {
        // With one worker, jobs run sequentially: the first completes
        // and sets the incumbent; the identical twin ties the diameter
        // with a larger slot and must abort — deterministically.
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let out = race(&g, &r, &two_identical(&g, &r), 1, None, &hls_ir::Budget::NONE).unwrap();
        let win = out.best.expect("first candidate completes");
        assert_eq!(win.index, 0);
        assert_eq!(win.scheduler.diameter(), win.diameter);
        assert_eq!(win.order.len(), g.len());
        assert_eq!(out.reports[0].diameter, Some(win.diameter));
        assert_eq!(out.reports[0].scheduled, g.len());
        assert_eq!(out.reports[1].diameter, None, "twin must abort on the tie");
        assert!(out.reports[1].scheduled <= g.len());
    }

    #[test]
    fn bounded_race_with_unbeatable_bound_completes_nothing() {
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        // The graph's critical path lower-bounds every schedule, so a
        // bound at that value admits no strict improvement.
        let bound = hls_ir::algo::diameter(&g);
        let out = race(&g, &r, &two_identical(&g, &r), 2, Some(bound), &hls_ir::Budget::NONE)
            .unwrap();
        assert!(out.best.is_none());
        assert!(out.reports.iter().all(|rep| rep.diameter.is_none()));
    }

    #[test]
    fn race_reports_line_up_with_candidates() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let cands: Vec<Candidate> = MetaSchedule::PAPER
            .into_iter()
            .map(|m| Candidate {
                name: m.name().to_string(),
                source: OrderSource::Meta(m),
            })
            .collect();
        let out = race(&g, &r, &cands, 4, None, &hls_ir::Budget::NONE).unwrap();
        assert_eq!(out.reports.len(), 4);
        for (rep, c) in out.reports.iter().zip(&cands) {
            assert_eq!(rep.name, c.name);
        }
    }

    #[test]
    fn empty_candidate_list_is_a_clean_no_op() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let out = race(&g, &r, &[], 4, None, &hls_ir::Budget::NONE).unwrap();
        assert!(out.reports.is_empty());
        assert!(out.best.is_none());
    }

    #[test]
    fn scheduling_errors_propagate_out_of_the_race() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 0); // no multiplier
        let order: Vec<OpId> = g.op_ids().collect();
        let cands = vec![Candidate {
            name: "doomed".into(),
            source: OrderSource::Explicit(order),
        }];
        assert!(race(&g, &r, &cands, 2, None, &hls_ir::Budget::NONE).is_err());
    }

    #[test]
    fn poisoned_strategy_is_excluded_and_the_best_survivor_wins() {
        // Arm a fault plan targeting only the doomed candidate's run
        // scope (names unique to this test, so concurrently running
        // tests never match the plan): its panic is caught and
        // recorded, the twin survives and wins the race.
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let order = MetaSchedule::Topological.order(&g, &r).unwrap();
        let cands = vec![
            Candidate {
                name: "race-poison-target".into(),
                source: OrderSource::Explicit(order.clone()),
            },
            Candidate {
                name: "race-poison-survivor".into(),
                source: OrderSource::Explicit(order),
            },
        ];
        let _armed = hls_ir::faultinject::arm(
            hls_ir::faultinject::FaultPlan::panic_at(3).in_run("race-poison-target"),
        );
        let out = race(&g, &r, &cands, 2, None, &hls_ir::Budget::NONE).unwrap();
        let win = out.best.expect("the unpoisoned twin completes");
        assert_eq!(win.index, 1, "the survivor wins, not the poisoned slot");
        let dead = &out.reports[0];
        assert!(
            dead.poisoned.as_deref().is_some_and(|m| m.contains("injected panic")),
            "poisoned report carries the panic message: {dead:?}"
        );
        assert_eq!(dead.diameter, None);
        assert!(out.reports[1].poisoned.is_none());
    }

    #[test]
    fn step_quota_times_out_every_run_and_the_race_reports_it() {
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let budget = hls_ir::Budget::steps(3);
        let out = race(&g, &r, &two_identical(&g, &r), 1, None, &budget).unwrap();
        assert!(out.best.is_none());
        for rep in &out.reports {
            assert!(rep.timed_out, "both runs hit the 3-step quota: {rep:?}");
            assert_eq!(rep.scheduled, 3);
        }
    }

    #[test]
    fn exhausted_portfolio_budget_is_a_typed_timeout() {
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let cfg = PortfolioConfig {
            threads: 2,
            ..PortfolioConfig::default()
        };
        match run_portfolio(&g, &r, &cfg, &hls_ir::Budget::steps(1)) {
            Err(SchedError::Timeout) => {}
            other => panic!("expected SchedError::Timeout, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_runs_cover_base_and_refinement() {
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let cfg = PortfolioConfig {
            threads: 2,
            ..PortfolioConfig::default()
        };
        let out = run_portfolio(&g, &r, &cfg, &hls_ir::Budget::NONE).unwrap();
        assert!(out.runs.len() >= 8, "base portfolio is 8 strategies");
        assert!(out.diameter <= out.initial_diameter);
        assert_eq!(out.winner.diameter(), out.diameter);
        out.winner.check_invariants().unwrap();
    }
}
