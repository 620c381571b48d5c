//! The race executor shared by the acyclic and the modulo portfolio.
//!
//! Scoped workers pull candidate indices from one shared counter. The
//! only coordination state is the *incumbent*: the smallest
//! `(score, slot)` over completed runs, packed into one `AtomicU64` as
//! `score << 16 | slot` and maintained with `fetch_min`; candidate `i`
//! owns slot `i`. A candidate that gives up only when
//! [`Probe::loses`] holds for a lower bound on its own final score
//! keeps the winner — `argmin (score, index)` over completions —
//! independent of worker count and timing (`DESIGN.md` §7).
//!
//! Each candidate runs under `catch_unwind` in a fault-injection
//! [`RunScope`](hls_ir::faultinject::RunScope) named by its tag; a
//! panic poisons that candidate alone and leaves a flight dump.
//! Results stream to the calling thread, whose fold keeps only the
//! best completed value, so losing runs' state is dropped on arrival.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use threaded_sched::SchedError;

/// Bits of the packed incumbent reserved for the candidate slot.
const SLOT_BITS: u32 = 16;
/// Largest raceable candidate count. Slot `u16::MAX` is never taken,
/// so no completion packs to the empty incumbent `u64::MAX`.
const MAX_CANDIDATES: usize = (1 << SLOT_BITS) - 1;
/// Scores must stay below this to survive the packing; callers whose
/// scores input can inflate check it before racing.
pub(crate) const SCORE_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// Packs a `(score, slot)` pair so that `u64` ordering is the
/// lexicographic ordering of the pair.
fn pack(score: u64, slot: u64) -> u64 {
    debug_assert!(score < SCORE_LIMIT, "score overflows the packing");
    (score << SLOT_BITS) | slot
}

/// Workers a race will actually spawn for a given thread cap and
/// candidate count: `threads` clamped to the candidate count and to
/// the machine's physical parallelism. Runs are CPU-bound, so
/// spawning more workers than cores buys no latency and actively
/// hurts — oversubscription timeslices all runs to the same pace,
/// delaying the first completion and with it the incumbent every
/// abort decision feeds on. Exposed so reporting (BENCH_3) states the
/// effective parallelism the race used.
pub fn race_workers(threads: usize, n_candidates: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.clamp(1, n_candidates.max(1)).min(cores)
}

/// A running candidate's view of the shared incumbent.
pub(crate) struct Probe<'a> {
    incumbent: &'a AtomicU64,
    slot: u64,
}

impl Probe<'_> {
    /// `true` when a completion scoring `score` could no longer win:
    /// the incumbent holds a smaller score, or the same score from a
    /// smaller slot (ties resolve to the smaller slot).
    pub(crate) fn loses(&self, score: u64) -> bool {
        pack(score, self.slot) > self.incumbent.load(Ordering::Relaxed)
    }
}

/// How one candidate's run ended.
pub(crate) enum End<T> {
    /// Ran to completion with this score (lower is better) and value;
    /// eligible to win.
    Completed(u64, T),
    /// Ruled out by the incumbent: aborted mid-run or pruned before it
    /// started.
    Pruned,
    /// Failed in a way that rules out only this candidate (an
    /// infeasible II).
    Failed,
    /// Stopped by the budget.
    TimedOut,
    /// Panicked (the panic message): excluded while the race continues.
    Poisoned(String),
}

impl<T> End<T> {
    /// Splits off a completion's score and value, leaving the
    /// report's view.
    fn split(self) -> (End<()>, Option<(u64, T)>) {
        match self {
            End::Completed(score, value) => (End::Completed(score, ()), Some((score, value))),
            End::Pruned => (End::Pruned, None),
            End::Failed => (End::Failed, None),
            End::TimedOut => (End::TimedOut, None),
            End::Poisoned(msg) => (End::Poisoned(msg), None),
        }
    }
}

/// The completed run with the smallest `(score, index)`.
pub(crate) struct Winner<T> {
    /// Index into the candidate list.
    pub index: usize,
    /// The winning score.
    pub score: u64,
    /// The winning run's value.
    pub value: T,
}

/// Everything a race produced.
pub(crate) struct Raced<T, D> {
    /// One `(end, detail)` per candidate, in candidate order.
    pub ends: Vec<(End<()>, D)>,
    /// The winner — `None` if no run completed.
    pub best: Option<Winner<T>>,
}

impl<T, D> Raced<T, D> {
    /// Why a race without a winner failed, for a race over candidates
    /// named `tags` whose members are called `what` in messages.
    /// Budget exhaustion and panics don't prove anything about the
    /// candidates: [`SchedError::Timeout`] if any run hit the budget,
    /// else [`SchedError::Poisoned`] naming the dead when every run
    /// panicked or was pruned. `None` when a candidate won, or when
    /// some candidate genuinely [`End::Failed`] — evidence the caller
    /// may act on.
    pub(crate) fn no_survivor<S: AsRef<str>>(&self, what: &str, tags: &[S]) -> Option<SchedError> {
        if self.best.is_some() {
            return None;
        }
        let ends = || self.ends.iter().map(|(end, _)| end);
        if ends().any(|end| matches!(end, End::TimedOut)) {
            return Some(SchedError::Timeout);
        }
        if !ends().all(|end| matches!(end, End::Poisoned(_) | End::Pruned)) {
            return None;
        }
        let dead: Vec<&str> = self
            .ends
            .iter()
            .zip(tags)
            .filter(|((end, _), _)| matches!(end, End::Poisoned(_)))
            .map(|(_, tag)| tag.as_ref())
            .collect();
        Some(SchedError::Poisoned(format!(
            "every {what} panicked: {}",
            dead.join(", ")
        )))
    }
}

/// Races one candidate per entry of `tags` on up to `threads` workers
/// (see [`race_workers`]).
///
/// `init` builds each worker's private state on the calling thread
/// (state that is `Send` but not `Sync`, such as a scheduler to clone
/// runs from); `candidate(state, index, probe)` runs candidate `index`
/// and reports how it ended plus a detail for its report. A completion
/// enters the incumbent. A panic in `candidate` becomes
/// [`End::Poisoned`] with a default detail, and every poisoned
/// candidate, however it died, leaves a flight dump naming `what` and
/// its tag.
///
/// # Errors
///
/// The lowest-index error any `candidate` call returned — arrival
/// order is timing-dependent, the candidate list is not.
///
/// # Panics
///
/// Panics if there are more than 65535 candidates (the packed-slot
/// budget).
pub(crate) fn run<S, W, T, D>(
    what: &str,
    tags: &[S],
    threads: usize,
    init: impl Fn() -> W,
    candidate: impl Fn(&mut W, usize, &Probe<'_>) -> Result<(End<T>, D), SchedError> + Sync,
) -> Result<Raced<T, D>, SchedError>
where
    S: AsRef<str> + Sync,
    W: Send,
    T: Send,
    D: Default + Send,
{
    let n = tags.len();
    assert!(n <= MAX_CANDIDATES, "too many candidates for the packed incumbent");
    let incumbent = AtomicU64::new(u64::MAX);
    let next = AtomicUsize::new(0);
    let mut ends: Vec<Option<(End<()>, D)>> = Vec::new();
    ends.resize_with(n, || None);
    let mut best: Option<Winner<T>> = None;
    let mut fatal: Option<(usize, SchedError)> = None;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..race_workers(threads, n) {
            let tx = tx.clone();
            let mut state = init();
            let (incumbent, next, candidate) = (&incumbent, &next, &candidate);
            s.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let tag = tags[index].as_ref();
                let probe = Probe {
                    incumbent,
                    slot: index as u64,
                };
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _scope = hls_ir::faultinject::RunScope::enter(tag);
                    candidate(&mut state, index, &probe)
                }));
                let result = attempt.unwrap_or_else(|payload| {
                    let msg = threaded_sched::panic_message(payload.as_ref());
                    Ok((End::Poisoned(msg), D::default()))
                });
                match &result {
                    Ok((End::Completed(score, _), _)) => {
                        incumbent.fetch_min(pack(*score, probe.slot), Ordering::Relaxed);
                    }
                    Ok((End::Poisoned(msg), _)) => {
                        hls_obs::flight::dump(&format!("{what} '{tag}' poisoned: {msg}"));
                    }
                    _ => {}
                }
                if tx.send((index, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            match result {
                Ok((end, detail)) => {
                    let (end, completed) = end.split();
                    if let Some((score, value)) = completed {
                        if best.as_ref().is_none_or(|b| (score, index) < (b.score, b.index)) {
                            best = Some(Winner {
                                index,
                                score,
                                value,
                            });
                        }
                    }
                    ends[index] = Some((end, detail));
                }
                Err(e) => {
                    if fatal.as_ref().is_none_or(|(i, _)| index < *i) {
                        fatal = Some((index, e));
                    }
                }
            }
        }
    });
    if let Some((_, e)) = fatal {
        return Err(e);
    }
    let ends = ends
        .into_iter()
        .map(|end| end.expect("every candidate reports exactly once"))
        .collect();
    Ok(Raced { ends, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::OpId;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn tags(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("synthetic-{i}")).collect()
    }

    /// A candidate that completes with its score unless the incumbent
    /// already rules it out; the detail is its own index.
    fn scored(
        scores: &[u64],
    ) -> impl Fn(&mut (), usize, &Probe<'_>) -> Result<(End<u64>, usize), SchedError> + Sync + '_
    {
        move |_, i, probe| {
            let s = scores[i];
            Ok(if probe.loses(s) {
                (End::Pruned, i)
            } else {
                (End::Completed(s, 10 * s), i)
            })
        }
    }

    #[test]
    fn winner_is_the_same_at_any_worker_count() {
        let scores = [9, 4, 7, 4, 5, 12, 4, 8];
        for threads in [1, 2, 8] {
            let raced = run("test", &tags(scores.len()), threads, || (), scored(&scores)).unwrap();
            let w = raced.best.expect("an unbounded race has a winner");
            assert_eq!((w.index, w.score, w.value), (1, 4, 40), "threads {threads}");
            assert!(matches!(raced.ends[1].0, End::Completed(4, ())));
        }
    }

    #[test]
    fn a_panicking_candidate_is_poisoned_and_the_rest_complete() {
        let scores = [3u64, 1, 2];
        let candidate = |_: &mut (), i: usize, probe: &Probe<'_>| {
            if i == 1 {
                panic!("synthetic candidate blew up");
            }
            scored(&scores)(&mut (), i, probe)
        };
        let raced = run("test", &tags(3), 2, || (), candidate).unwrap();
        match &raced.ends[1] {
            (End::Poisoned(msg), detail) => {
                assert!(msg.contains("synthetic candidate blew up"));
                assert_eq!(*detail, 0, "a caught panic reports the default detail");
            }
            _ => panic!("candidate 1 must be reported poisoned"),
        }
        let w = raced.best.expect("the survivors still race");
        assert_eq!((w.index, w.score), (2, 2));
        assert!(matches!(raced.ends[2].0, End::Completed(2, ())));
    }

    #[test]
    fn the_lowest_index_error_wins_even_when_it_arrives_last() {
        // Candidate 0 holds its error back until candidate 3 has
        // started — by then the worker that ran candidate 2 has already
        // sent 2's error. On a single core the wait times out and the
        // errors arrive in index order; the verdict is the same.
        let three_started = AtomicBool::new(false);
        let candidate =
            |_: &mut (), i: usize, _: &Probe<'_>| -> Result<(End<()>, ()), SchedError> {
                match i {
                    0 => {
                        let t0 = Instant::now();
                        while !three_started.load(Ordering::Acquire)
                            && t0.elapsed() < Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                        Err(SchedError::UnknownOp(OpId::from_index(0)))
                    }
                    2 => Err(SchedError::UnknownOp(OpId::from_index(2))),
                    _ => {
                        if i == 3 {
                            three_started.store(true, Ordering::Release);
                        }
                        Ok((End::Failed, ()))
                    }
                }
            };
        match run("test", &tags(5), 2, || (), candidate) {
            Err(SchedError::UnknownOp(v)) => assert_eq!(v, OpId::from_index(0)),
            Err(e) => panic!("expected candidate 0's error, got {e:?}"),
            Ok(_) => panic!("expected candidate 0's error, got a result"),
        }
    }

    #[test]
    fn every_candidate_reports_exactly_once_in_candidate_order() {
        let n = 200;
        let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let scores: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 101).collect();
        let candidate = |_: &mut (), i: usize, probe: &Probe<'_>| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            scored(&scores)(&mut (), i, probe)
        };
        let raced = run("test", &tags(n), 8, || (), candidate).unwrap();
        assert_eq!(raced.ends.len(), n);
        for (i, (_, detail)) in raced.ends.iter().enumerate() {
            assert_eq!(*detail, i, "reports line up with candidates");
            assert_eq!(
                calls[i].load(Ordering::Relaxed),
                1,
                "candidate {i} ran once"
            );
        }
    }

    #[test]
    fn no_survivor_prefers_timeout_then_poisoned_then_evidence() {
        let verdict = |ends: Vec<End<()>>| {
            let n = ends.len();
            let raced: Raced<(), ()> = Raced {
                ends: ends.into_iter().map(|e| (e, ())).collect(),
                best: None,
            };
            raced.no_survivor("test candidate", &tags(n))
        };
        assert_eq!(
            verdict(vec![End::Failed, End::TimedOut, End::Poisoned("x".into())]),
            Some(SchedError::Timeout)
        );
        assert_eq!(
            verdict(vec![
                End::Poisoned("x".into()),
                End::Pruned,
                End::Poisoned("y".into())
            ]),
            Some(SchedError::Poisoned(
                "every test candidate panicked: synthetic-0, synthetic-2".into()
            ))
        );
        assert_eq!(verdict(vec![End::Poisoned("x".into()), End::Failed]), None);
    }
}
