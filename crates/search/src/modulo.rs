//! The modulo portfolio: meta schedules race per candidate II.
//!
//! Loop pipelining adds a second axis to the portfolio. For an acyclic
//! behavior the only thing a candidate chooses is a feed order; for a
//! loop kernel each candidate is an *(II, order)* pair — an initiation
//! interval from the window above the certified bound
//! `MII = max(ResMII, RecMII)`, and a placement priority (the
//! scheduler's default height priority, a paper meta schedule computed
//! over the kernel DAG, or a seeded random-topological tie-break).
//!
//! Candidates race on the crate's shared race executor, scored
//! lexicographically as `(II, latency)`: II dominates because the II
//! *is* the steady-state throughput; latency (pipeline fill depth)
//! breaks ties, and the candidate index makes the order total. A
//! worker checks the incumbent before starting a candidate and prunes
//! it when even a latency-0 completion could not win — once some run
//! completes at `II*`, every candidate at a higher II is pruned.
//! Candidates at the incumbent's own II (or below) always run to
//! completion or failure, so the winner — `argmin (II, latency, index)`
//! over completions — is deterministic for a fixed candidate list
//! regardless of thread count or timing, by the executor's argument
//! (`DESIGN.md` §7, §8).

use crate::race::{self, End};
use hls_ir::schedule::ModuloSchedule;
use hls_ir::{OpId, PrecedenceGraph, ResourceSet};
use threaded_sched::meta::MetaSchedule;
use threaded_sched::{ModuloScheduler, SchedError};

/// What the race calls its candidates in post-mortems and errors.
const WHAT: &str = "modulo candidate";

/// Bits of a candidate's score holding the single-iteration latency.
const LAT_BITS: u32 = 32;

/// A candidate's race score: `(ii, latency)` ordered lexicographically,
/// or `None` when the pair does not fit the race's packed incumbent
/// (II below 2¹⁶, latency below 2³²).
fn score(ii: u64, latency: u64) -> Option<u64> {
    (ii < race::SCORE_LIMIT >> LAT_BITS && latency < 1 << LAT_BITS)
        .then_some((ii << LAT_BITS) | latency)
}

/// The error for a candidate whose score cannot be packed.
fn unpackable(what: &str) -> SchedError {
    SchedError::ResourceExhausted(format!(
        "{what} past the modulo race's score range (II < 2^16, latency < 2^32)"
    ))
}

/// Configuration of [`run_modulo_portfolio`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// OS threads the race may use. Affects wall time only — the
    /// result is deterministic for a fixed configuration.
    pub threads: usize,
    /// Width of the II window: candidate IIs are
    /// `MII ..= MII + ii_span`. If the whole window fails, the driver
    /// falls back to a sequential search strictly *above* the window
    /// (up to `ModuloScheduler::max_ii`) so a schedule is always
    /// produced for well-formed kernels.
    pub ii_span: u64,
    /// Seeds for extra [`MetaSchedule::RandomTopo`] placement orders
    /// per candidate II (on top of the height priority and the four
    /// paper metas).
    pub topo_seeds: Vec<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            ii_span: 2,
            topo_seeds: vec![0xF1B0_0001, 0xF1B0_0002],
        }
    }
}

/// What happened to one `(II, order)` candidate.
#[derive(Clone, Debug)]
pub struct ModuloRunReport {
    /// Candidate tag: `"ii=N/<order>"`.
    pub name: String,
    /// The candidate's II.
    pub ii: u64,
    /// `Some(latency)` if the candidate found a schedule; `None` if it
    /// was infeasible at that II or pruned by the incumbent.
    pub latency: Option<u64>,
    /// `true` if the incumbent pruned the candidate before it ran.
    pub pruned: bool,
    /// Set when the run panicked mid-placement (the panic message):
    /// the candidate was excluded while the race continued. Panics
    /// never escape the race.
    pub poisoned: Option<String>,
    /// `true` when the run's [`hls_ir::Budget`] expired before the
    /// placement finished.
    pub timed_out: bool,
}

/// Everything [`run_modulo_portfolio`] produces.
#[derive(Clone, Debug)]
pub struct ModuloPortfolioOutcome {
    /// The winning modulo schedule (passes `check_modulo`).
    pub schedule: ModuloSchedule,
    /// Achieved initiation interval.
    pub ii: u64,
    /// The certified bound the window started from; `ii == mii` is
    /// provably throughput-optimal.
    pub mii: u64,
    /// Resource component of the bound.
    pub res_mii: u64,
    /// Recurrence component of the bound.
    pub rec_mii: u64,
    /// Single-iteration latency of the winner.
    pub latency: u64,
    /// Tag of the winning candidate.
    pub winner_name: String,
    /// Per-candidate reports, in candidate order.
    pub runs: Vec<ModuloRunReport>,
}

/// Races meta placement orders per candidate II over the loop kernel
/// `g` and returns the best `(II, latency)` schedule.
///
/// Candidates are ordered II-major (all orders at `MII`, then
/// `MII+1`, ...) and share one `(II, latency, index)` incumbent: a
/// worker skips a candidate whose II can no longer win. The winner is
/// `argmin (II, latency, index)` over completions — deterministic for a
/// fixed configuration regardless of `cfg.threads`. `budget` applies
/// to every candidate run independently (each run draws its own step
/// quota; a wall deadline is a shared absolute instant);
/// [`hls_ir::Budget::NONE`] runs unconstrained. If every candidate in
/// the window fails, the driver falls back to the sequential II search
/// so an outcome is always produced for well-formed kernels.
///
/// # Errors
///
/// Propagates [`SchedError`] from kernel validation (distance-0
/// cycle), missing unit classes, or meta-order construction. Returns
/// [`SchedError::ResourceExhausted`] when the window's top II reaches
/// 2¹⁶ or [`ModuloScheduler::latency_bound`] there reaches 2³²: the
/// race packs `(II, latency)` into 48 bits. When no
/// candidate completes, returns [`SchedError::Timeout`] if any run hit
/// `budget`, or [`SchedError::Poisoned`] naming the dead candidates
/// when every non-pruned run panicked — budget exhaustion and panics
/// don't prove the window infeasible, so the sequential fallback only
/// runs when the window genuinely failed.
///
/// # Panics
///
/// Panics if the II window × order recipes exceed 65535 candidates
/// (the packed-slot budget).
pub fn run_modulo_portfolio(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    cfg: &PipelineConfig,
    budget: &hls_ir::Budget,
) -> Result<ModuloPortfolioOutcome, SchedError> {
    let sched = ModuloScheduler::new(g.clone(), resources.clone())?;
    let mii = sched.mii();
    // Refuse a window the packed score cannot hold before any
    // placement allocates a reservation table of the window's size.
    // The latency bound grows with the II, so checking the top one
    // covers the window.
    let top = mii.saturating_add(cfg.ii_span);
    if sched.latency_bound(top).and_then(|lat| score(top, lat)).is_none() {
        return Err(unpackable(&format!(
            "II window {mii}..={top} or its latency bound"
        )));
    }
    let kernel = g.kernel_dag();
    // Resolve orders once: the same order is reused at every II. The
    // scheduler's height priority leads, then the paper metas and the
    // seeded topological tie-breaks over the kernel DAG.
    let mut orders: Vec<(String, Option<Vec<OpId>>)> = vec![("height".to_string(), None)];
    let topo = cfg.topo_seeds.iter().map(|&seed| MetaSchedule::RandomTopo(seed));
    for m in MetaSchedule::PAPER.into_iter().chain(topo) {
        let name = match m {
            MetaSchedule::RandomTopo(seed) => format!("random-topo({seed:#x})"),
            _ => m.name().to_string(),
        };
        orders.push((name, Some(m.order(&kernel, resources)?)));
    }
    // II-major candidate list: low IIs first so early completions
    // prune the rest of the window.
    let candidates: Vec<(u64, usize)> = (mii..=mii + cfg.ii_span)
        .flat_map(|ii| (0..orders.len()).map(move |o| (ii, o)))
        .collect();
    let tags: Vec<String> = candidates
        .iter()
        .map(|&(ii, oi)| format!("ii={ii}/{}", orders[oi].0))
        .collect();

    let _race_span = hls_obs::obs_span!(ModuloRace, "", candidates.len() as u64);
    let raced = race::run(
        WHAT,
        &tags,
        cfg.threads,
        || (),
        |_, index, probe| {
            let (ii, oi) = candidates[index];
            // Prune: even a latency-0 completion at this II loses.
            let floor = score(ii, 0).ok_or_else(|| unpackable(&format!("II {ii}")))?;
            if probe.loses(floor) {
                return Ok((End::Pruned, None));
            }
            hls_obs::obs_count!(ModuloCandidates);
            let _span = hls_obs::obs_span!(ModuloCandidate, &tags[index], ii);
            Ok(match sched.schedule_at(ii, orders[oi].1.as_deref(), budget) {
                Ok(ms) => {
                    let latency = ms.latency(g);
                    let s = score(ii, latency)
                        .ok_or_else(|| unpackable(&format!("latency {latency} at II {ii}")))?;
                    (End::Completed(s, ms), Some(latency))
                }
                Err(SchedError::Timeout) => (End::TimedOut, None),
                Err(SchedError::Poisoned(msg)) => (End::Poisoned(msg), None),
                // Infeasible at that II (or any other placement failure
                // that only rules out this candidate).
                Err(_) => (End::Failed, None),
            })
        },
    )?;
    // Budget exhaustion and panics don't prove the window infeasible,
    // so the fallback (which would re-run the same work) is pointless
    // there — surface the typed error instead.
    if let Some(e) = raced.no_survivor(WHAT, &tags) {
        return Err(e);
    }
    let runs: Vec<ModuloRunReport> = raced
        .ends
        .into_iter()
        .zip(tags)
        .zip(&candidates)
        .map(|(((end, latency), name), &(ii, _))| ModuloRunReport {
            name,
            ii,
            latency,
            pruned: matches!(end, End::Pruned),
            timed_out: matches!(end, End::TimedOut),
            poisoned: match end {
                End::Poisoned(msg) => Some(msg),
                _ => None,
            },
        })
        .collect();

    let (ii, schedule, winner_name) = match raced.best {
        Some(w) => (candidates[w.index].0, w.value, runs[w.index].name.clone()),
        None => {
            // The whole window failed — every recipe (including the
            // height priority) is proven infeasible there, so the
            // sequential fallback starts strictly *above* the window,
            // one step quota per II.
            let mut fallback = None;
            for ii in (mii + cfg.ii_span + 1)..=sched.max_ii() {
                match sched.schedule_at(ii, None, budget) {
                    Ok(ms) => {
                        fallback = Some((ii, ms));
                        break;
                    }
                    Err(SchedError::IiInfeasible(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            let (ii, ms) = fallback.ok_or(SchedError::IiInfeasible(sched.max_ii()))?;
            (ii, ms, format!("ii={ii}/height (fallback)"))
        }
    };
    Ok(ModuloPortfolioOutcome {
        latency: schedule.latency(g),
        schedule,
        ii,
        mii,
        res_mii: sched.res_mii(),
        rec_mii: sched.rec_mii(),
        winner_name,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::schedule::check_modulo;
    use hls_ir::{bench_graphs, Budget, OpKind, ResourceClass};

    fn mem_classic(alus: usize, muls: usize) -> ResourceSet {
        ResourceSet::classic(alus, muls).with(ResourceClass::MemPort, 1)
    }

    #[test]
    fn portfolio_matches_mii_on_the_mac_loop() {
        let g = bench_graphs::mac_loop();
        let r = mem_classic(1, 1);
        let out = run_modulo_portfolio(&g, &r, &PipelineConfig::default(), &Budget::NONE).unwrap();
        assert_eq!(out.ii, out.mii);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
        assert!(out.runs.iter().any(|r| r.latency.is_some()));
    }

    #[test]
    fn exhausted_modulo_budget_is_a_typed_timeout() {
        let g = bench_graphs::mac_loop();
        let r = mem_classic(1, 1);
        let cfg = PipelineConfig {
            threads: 2,
            ..PipelineConfig::default()
        };
        match run_modulo_portfolio(&g, &r, &cfg, &Budget::steps(1)) {
            Err(SchedError::Timeout) => {}
            other => panic!("expected SchedError::Timeout, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_thread_counts() {
        for (name, g) in bench_graphs::loops() {
            let r = mem_classic(2, 2);
            let mut results = Vec::new();
            for threads in [1usize, 2, 8] {
                let cfg = PipelineConfig {
                    threads,
                    ..PipelineConfig::default()
                };
                let out = run_modulo_portfolio(&g, &r, &cfg, &Budget::NONE).unwrap();
                results.push(out);
            }
            for w in results.windows(2) {
                assert_eq!(w[0].ii, w[1].ii, "{name}");
                assert_eq!(w[0].latency, w[1].latency, "{name}");
                assert_eq!(w[0].winner_name, w[1].winner_name, "{name}");
                assert_eq!(w[0].schedule, w[1].schedule, "{name}");
            }
        }
    }

    #[test]
    fn portfolio_never_loses_to_the_sequential_search() {
        for (name, g) in bench_graphs::loops() {
            for r in [mem_classic(1, 1), mem_classic(2, 2), mem_classic(2, 1)] {
                let single = ModuloScheduler::new(g.clone(), r.clone())
                    .unwrap()
                    .schedule(&Budget::NONE)
                    .unwrap();
                let cfg = PipelineConfig::default();
                let out = run_modulo_portfolio(&g, &r, &cfg, &Budget::NONE).unwrap();
                assert!(
                    (out.ii, out.latency) <= (single.ii, single.latency),
                    "{name} {r:?}: portfolio ({}, {}) vs sequential ({}, {})",
                    out.ii,
                    out.latency,
                    single.ii,
                    single.latency
                );
                assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
            }
        }
    }

    /// One multiply `delay` steps long: its ResMII is `delay`.
    fn one_long_multiply(delay: u64) -> PrecedenceGraph {
        let mut g = PrecedenceGraph::new();
        g.add_op(OpKind::Mul, delay, "m");
        g
    }

    #[test]
    fn scores_past_the_packing_are_resource_exhausted() {
        let r = mem_classic(1, 1);
        // A wire delay past 2^32: every completion's latency is too.
        let mut deep = PrecedenceGraph::new();
        let a = deep.add_op(OpKind::Add, 1, "a");
        let w = deep.add_op(OpKind::WireDelay, 1 << 33, "w");
        let b = deep.add_op(OpKind::Add, 1, "b");
        deep.add_dep_edge(a, w, 0).unwrap();
        deep.add_dep_edge(w, b, 0).unwrap();
        // MII 2^16, the first II the score cannot hold; refused before
        // any placement builds a 2^16-slot reservation table.
        for g in [one_long_multiply(1 << 16), deep] {
            for threads in [1, 2] {
                let cfg = PipelineConfig {
                    threads,
                    ..PipelineConfig::default()
                };
                match run_modulo_portfolio(&g, &r, &cfg, &Budget::NONE) {
                    Err(SchedError::ResourceExhausted(_)) => {}
                    other => panic!("expected ResourceExhausted, got {other:?}"),
                }
            }
        }
        // The widest window that still packs: its top II is 2^16 - 1.
        let cfg = PipelineConfig::default();
        let mii = (1 << 16) - 1 - cfg.ii_span;
        let out = run_modulo_portfolio(&one_long_multiply(mii), &r, &cfg, &Budget::NONE).unwrap();
        assert_eq!((out.ii, out.latency), (mii, mii));
    }
}
