//! The parallel portfolio race.
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
//! [`run_portfolio`] is one such race over [`base_candidates`]: the
//! paper's four meta schedules plus the seeded perturbation
//! populations.

use crate::race::{self, End, SCORE_LIMIT};
use hls_ir::{OpId, PrecedenceGraph, ResourceSet};
use threaded_sched::meta::MetaSchedule;
use threaded_sched::{RunOutcome, SchedError, ThreadedScheduler};

/// What the race calls its candidates in post-mortems and errors.
const WHAT: &str = "portfolio strategy";

/// One strategy racing in a portfolio.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Display name (meta-schedule name or perturbation seed tag).
    pub name: String,
    /// The meta schedule whose order the candidate feeds. It is
    /// resolved *inside* the race worker that picks the candidate up:
    /// order construction (list scheduling for
    /// [`MetaSchedule::ListBased`], longest-path peeling for
    /// [`MetaSchedule::PathBased`]) is real work that parallelises with
    /// everything else and must be charged to the strategy that needs
    /// it.
    pub meta: MetaSchedule,
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
    /// The winner — `None` if no run completed (every run timed out or
    /// panicked, or the candidate list was empty).
    pub best: Option<RaceWinner>,
}

/// Races `candidates` over `g` on up to `threads` OS threads.
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
/// graph or an operation with no compatible unit), and returns
/// [`SchedError::ResourceExhausted`] when the delays of `g` sum to
/// 2⁴⁸ or more: every diameter and certified bound is at most that
/// sum, and the race's packed incumbent holds scores below 2⁴⁸ only.
/// Poisoned and timed-out runs are *not* errors at this level — callers
/// decide (e.g. [`run_portfolio`] errors only when nothing survived).
///
/// # Panics
///
/// Panics if `candidates.len() > 65535` (the packed-slot budget).
pub fn race(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    candidates: &[Candidate],
    threads: usize,
    budget: &hls_ir::Budget,
) -> Result<RaceOutcome, SchedError> {
    Ok(race_with_verdict(g, resources, candidates, threads, budget)?.0)
}

/// [`race`], plus the race's no-survivor verdict (`None` when a
/// candidate won) for [`run_portfolio`]'s error.
fn race_with_verdict(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    candidates: &[Candidate],
    threads: usize,
    budget: &hls_ir::Budget,
) -> Result<(RaceOutcome, Option<SchedError>), SchedError> {
    let delay_sum = g
        .op_ids()
        .try_fold(0u64, |sum, v| sum.checked_add(g.delay(v)));
    if delay_sum.is_none_or(|sum| sum >= SCORE_LIMIT) {
        return Err(SchedError::ResourceExhausted(
            "operation delays sum to 2^48 or more, past the race's score range".into(),
        ));
    }
    // Every run starts from the same pristine state; building it once
    // and cloning (one clone per worker, then one per run) pays the
    // graph validation, sink-distance sweep and resource floor once
    // instead of once per candidate.
    let template = ThreadedScheduler::new(g.clone(), resources.clone())?;
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
        || template.clone(),
        |template, index, probe| {
            let cand = &candidates[index];
            hls_obs::obs_count!(StrategySpawned);
            let _span = hls_obs::obs_span!(PortfolioRun, &cand.name, index as u64 + 1);
            let order = cand.meta.order(g, resources)?;
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

/// Configuration of [`run_portfolio`].
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// OS threads the race may use. Affects wall time only — the
    /// result is deterministic for a fixed strategy/seed set.
    pub threads: usize,
    /// Seeds for the [`MetaSchedule::Random`] perturbation population
    /// (fully random permutations).
    pub random_seeds: Vec<u64>,
    /// Seeds for the [`MetaSchedule::RandomTopo`] population (random
    /// topological tie-breaks).
    pub topo_seeds: Vec<u64>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            // 4 paper metas + 2 + 2 perturbations = 8 strategies.
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            random_seeds: vec![0xA11CE, 0xB0B5],
            topo_seeds: vec![0x7E40_0001, 0x7E40_0002],
        }
    }
}

/// Everything [`run_portfolio`] produces.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The winning scheduler, holding the completed state; use it
    /// exactly like a directly-driven [`ThreadedScheduler`] (extract,
    /// refine, snapshot).
    pub winner: ThreadedScheduler,
    /// Name of the winning candidate (a meta schedule or a
    /// perturbation seed tag).
    pub winner_name: String,
    /// The feed order that produced the winner.
    pub winner_order: Vec<OpId>,
    /// Final state diameter — by construction `≤` every single meta
    /// schedule in the portfolio.
    pub diameter: u64,
    /// The certified lower bound on any schedule of this behavior
    /// under these resources
    /// ([`ThreadedScheduler::schedule_lower_bound`]). When
    /// `diameter == lower_bound` the result is provably optimal.
    pub lower_bound: u64,
    /// Reports of every run, in [`base_candidates`] order.
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
            meta: m,
        });
    }
    for &seed in &cfg.random_seeds {
        candidates.push(Candidate {
            name: format!("random({seed:#x})"),
            meta: MetaSchedule::Random(seed),
        });
    }
    for &seed in &cfg.topo_seeds {
        candidates.push(Candidate {
            name: format!("random-topo({seed:#x})"),
            meta: MetaSchedule::RandomTopo(seed),
        });
    }
    candidates
}

/// Runs the portfolio: one [`race`] over [`base_candidates`] — the
/// paper's four meta schedules plus the seeded perturbation
/// populations. See the [module docs](self).
///
/// `budget` applies to every run, as in [`race`];
/// [`hls_ir::Budget::NONE`] runs unconstrained.
///
/// The returned diameter is never worse than the best single meta
/// schedule in the portfolio, and the result is deterministic for a
/// fixed configuration regardless of `cfg.threads`.
///
/// # Errors
///
/// Propagates [`SchedError`] from order construction (e.g.
/// [`MetaSchedule::ListBased`] without compatible units), from any run,
/// or from [`race`]'s score-range check. When *no* candidate completes
/// — every run timed out or was poisoned — returns
/// [`SchedError::Timeout`] (if any run hit the budget) or
/// [`SchedError::Poisoned`] naming the dead strategies; a race with at
/// least one survivor succeeds with the best survivor.
pub fn run_portfolio(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    cfg: &PortfolioConfig,
    budget: &hls_ir::Budget,
) -> Result<PortfolioOutcome, SchedError> {
    let candidates = base_candidates(cfg);
    let (raced, verdict) = race_with_verdict(g, resources, &candidates, cfg.threads, budget)?;
    let Some(win) = raced.best else {
        // A race over a non-empty list only fails to produce a winner
        // when every run was cut down by the budget or by a panic
        // (acyclic runs never merely fail, so the verdict is set).
        return Err(verdict.unwrap_or(SchedError::Timeout));
    };
    Ok(PortfolioOutcome {
        lower_bound: win.scheduler.schedule_lower_bound(),
        winner_name: candidates[win.index].name.clone(),
        winner: win.scheduler,
        winner_order: win.order,
        diameter: win.diameter,
        runs: raced.reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    fn two_identical() -> Vec<Candidate> {
        ["first", "twin"]
            .map(|name| Candidate {
                name: name.into(),
                meta: MetaSchedule::Topological,
            })
            .to_vec()
    }

    #[test]
    fn single_threaded_race_prunes_the_identical_twin_by_slot() {
        // With one worker, jobs run sequentially: the first completes
        // and sets the incumbent; the identical twin ties the diameter
        // with a larger slot and must abort — deterministically.
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let out = race(&g, &r, &two_identical(), 1, &hls_ir::Budget::NONE).unwrap();
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
    fn race_reports_line_up_with_candidates() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let cands: Vec<Candidate> = MetaSchedule::PAPER
            .into_iter()
            .map(|m| Candidate {
                name: m.name().to_string(),
                meta: m,
            })
            .collect();
        let out = race(&g, &r, &cands, 4, &hls_ir::Budget::NONE).unwrap();
        assert_eq!(out.reports.len(), 4);
        for (rep, c) in out.reports.iter().zip(&cands) {
            assert_eq!(rep.name, c.name);
        }
    }

    #[test]
    fn empty_candidate_list_is_a_clean_no_op() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let out = race(&g, &r, &[], 4, &hls_ir::Budget::NONE).unwrap();
        assert!(out.reports.is_empty());
        assert!(out.best.is_none());
    }

    #[test]
    fn scheduling_errors_propagate_out_of_the_race() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 0); // no multiplier
        let cands = vec![Candidate {
            name: "doomed".into(),
            meta: MetaSchedule::Topological,
        }];
        assert!(race(&g, &r, &cands, 2, &hls_ir::Budget::NONE).is_err());
    }

    #[test]
    fn poisoned_strategy_is_excluded_and_the_best_survivor_wins() {
        // Arm a fault plan targeting only the doomed candidate's run
        // scope (names unique to this test, so concurrently running
        // tests never match the plan): its panic is caught and
        // recorded, the twin survives and wins the race.
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 2);
        let cands = ["race-poison-target", "race-poison-survivor"].map(|name| Candidate {
            name: name.into(),
            meta: MetaSchedule::Topological,
        });
        let _armed = hls_ir::faultinject::arm(
            hls_ir::faultinject::FaultPlan::panic_at(3).in_run("race-poison-target"),
        );
        let out = race(&g, &r, &cands, 2, &hls_ir::Budget::NONE).unwrap();
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
        let out = race(&g, &r, &two_identical(), 1, &budget).unwrap();
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
    fn portfolio_is_exactly_the_base_race() {
        let cfg = PortfolioConfig {
            threads: 2,
            ..PortfolioConfig::default()
        };
        let mut inputs: Vec<(String, PrecedenceGraph, ResourceSet)> = Vec::new();
        for (name, g) in bench_graphs::all()
            .into_iter()
            .filter(|(n, _)| *n != "FIG1")
        {
            for r in [
                ResourceSet::classic(2, 2),
                ResourceSet::classic(4, 4),
                ResourceSet::classic(2, 1),
            ] {
                inputs.push((name.to_string(), g.clone(), r));
            }
        }
        for seed in [13, 19] {
            let g = hls_ir::generate::stress_dag(seed, 300);
            inputs.push((
                format!("stress({seed}, 300)"),
                g,
                ResourceSet::classic(2, 2),
            ));
        }
        let candidates = base_candidates(&cfg);
        for (name, g, r) in inputs {
            let out = run_portfolio(&g, &r, &cfg, &hls_ir::Budget::NONE).unwrap();
            let raced = race(&g, &r, &candidates, cfg.threads, &hls_ir::Budget::NONE).unwrap();
            let win = raced.best.expect("an unbudgeted race has a winner");
            assert_eq!(out.runs.len(), candidates.len(), "{name} {r:?}");
            assert_eq!(out.winner_name, candidates[win.index].name, "{name} {r:?}");
            assert_eq!(out.diameter, win.diameter, "{name} {r:?}");
            assert_eq!(out.winner_order, win.order, "{name} {r:?}");
            assert_eq!(out.winner.diameter(), out.diameter, "{name} {r:?}");
        }
    }

    /// `g` with every delay shifted left by `shift` bits.
    fn scaled(g: &PrecedenceGraph, shift: u32) -> PrecedenceGraph {
        let mut g = g.clone();
        for v in g.op_ids() {
            g.set_delay(v, g.delay(v) << shift);
        }
        g
    }

    #[test]
    fn race_rejects_scores_the_packed_incumbent_cannot_hold() {
        let g = hls_ir::generate::stress_dag(4, 60);
        let r = ResourceSet::classic(2, 2);
        let candidates = base_candidates(&PortfolioConfig::default());
        let none = &hls_ir::Budget::NONE;
        for threads in [1, 2] {
            let winner = |g: &PrecedenceGraph| {
                race(g, &r, &candidates, threads, none).map(|out| out.best.expect("no budget"))
            };
            let want = winner(&g).unwrap();
            let got = winner(&scaled(&g, 40)).unwrap();
            assert_eq!(got.index, want.index, "threads {threads}");
            assert_eq!(got.diameter, want.diameter << 40, "threads {threads}");
            match winner(&scaled(&g, 45)) {
                Err(SchedError::ResourceExhausted(_)) => {}
                other => panic!("expected ResourceExhausted, got {other:?}"),
            }
        }
    }
}
