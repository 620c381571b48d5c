//! The threaded scheduler — Algorithm 1 of the paper.
//!
//! The scheduling state is a *threaded graph* (Definition 4): its vertices
//! are partitioned into `K` threads — one per functional unit — such that
//! each thread is totally ordered. Internally every thread is a doubly
//! linked chain between two sentinels (`s[k]`, `t[k]`, exactly as in the
//! paper's `ThreadedGraph` constructor), and every vertex keeps at most
//! one incoming and one outgoing *cross edge per thread* (the compression
//! that yields the degree bound of Lemma 7 and the linear complexity of
//! Theorem 3).
//!
//! Three clarifications relative to the paper's pseudocode are documented
//! in `DESIGN.md` §3: the inclusive distance convention, the per-thread
//! *feasible window* (computed from the state order, not just immediate
//! chain neighbours) and tight-edge hygiene in `commit` when several
//! ancestors share a thread.
//!
//! # Incremental engine
//!
//! This implementation meets the Theorem 3 per-operation bound in
//! practice (see `DESIGN.md` §4 and the `bench_json` study). Compared to
//! the frozen [`crate::ReferenceScheduler`] seed it differs only in
//! *how* the same state is computed:
//!
//! * node storage is structure-of-arrays (`inc[n·stride + j]`) instead
//!   of per-node heap vectors;
//! * chain positions are *gap numbered* (spacing `2³²`, midpoint
//!   insertion), so renumbering is amortized `O(1)` instead of a full
//!   chain walk per commit;
//! * `sdist`/`tdist` are maintained by increase-only worklist relaxation
//!   over the affected cone instead of a full `relabel()` per commit;
//! * every node carries *reach vectors* — its latest per-thread
//!   state-ancestor and earliest per-thread state-descendant — so
//!   `select` computes its feasible windows from the scheduled frontier
//!   in `O(K²)` instead of marking the whole state;
//! * behavior-graph reachability is a chain-cover index
//!   ([`hls_ir::ReachIndex`], `O(|V| · #chains)` memory) instead of the
//!   dense `Θ(|V|²)`-bit ancestor/descendant closure matrices the seed
//!   carries; the frontier walk's "any scheduled ancestor/descendant"
//!   pruning probes compare the per-op chain vectors against per-chain
//!   scheduled-position extrema in `O(#chains)` (see `DESIGN.md` §5);
//! * `sync_graph_growth` repairs that index locally for the spliced
//!   vertices instead of recomputing (or widening) a full transitive
//!   closure.
//!
//! The golden-equivalence suite (`tests/golden_equivalence.rs`) pins the
//! observable behavior — placement sequences and extracted schedules —
//! to the reference implementation.

use crate::{SchedError, soft::StateSnapshot};
use hls_ir::{
    ChainExtrema, HardSchedule, OpId, OpKind, PrecedenceGraph, ReachIndex, ResourceClass,
    ResourceSet,
};
use std::cell::RefCell;
use std::sync::Arc;

/// Missing-edge / missing-node sentinel in the flat edge and reach
/// tables.
const NONE: u32 = u32::MAX;

/// The immutable graph-side state of a scheduler: the behavior graph,
/// the chain-cover reachability index over it, and its static sink
/// distances. Everything in here is a pure function of the *behavior*
/// — it never changes while operations are merely scheduled, only
/// under behavior-extending refinement (splice, add-op, retype). The
/// scheduler holds it behind an [`Arc`] so clones (portfolio runs,
/// parallel-stitch materialisation, serve-cache templates) share one
/// copy; refinement goes through [`Arc::make_mut`] copy-on-write.
#[derive(Clone, Debug)]
struct GraphCore {
    g: PrecedenceGraph,
    /// Chain-cover reachability index over the behavior graph —
    /// `O(|V| · #chains)` memory instead of the seed's two dense
    /// `Θ(|V|²)`-bit closure matrices — repaired locally under
    /// refinement.
    reach: ReachIndex,
    /// Static behavior-graph sink distances `‖v→‖_G` (inclusive),
    /// indexed by op — the tail term of the final-diameter lower
    /// bound. Recomputed on graph growth and delay retyping (cold
    /// paths).
    gdist: Vec<u64>,
}

/// `(sdist, tdist, reach_b, reach_f)` of a from-scratch recomputation.
type FullLabels = (Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>);

/// Gap between freshly numbered chain positions. Midpoint insertion
/// needs ~32 inserts into the same gap before a chain renumber; tail
/// inserts extend the numbering instead and never exhaust it.
const GAP: u64 = 1 << 32;

/// How a budgeted [`ThreadedScheduler::schedule_all_until`] /
/// [`ThreadedScheduler::schedule_all_budgeted`] run ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Every operation of the order was scheduled.
    Completed,
    /// The abort hook fired; `scheduled` operations had been fed
    /// (including the one whose commit triggered the hook).
    Aborted {
        /// Operations scheduled before the abort.
        scheduled: usize,
    },
    /// The run's [`hls_ir::Budget`] expired — wall deadline or step
    /// quota — before the order was exhausted. Cooperative
    /// cancellation: the budget is checked after every commit, so the
    /// run stops within one commit of its deadline.
    DeadlineExpired {
        /// Operations committed before the budget expired.
        scheduled: usize,
    },
}

/// Where `select` decided to put an operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Thread (functional-unit) index.
    pub thread: usize,
    /// The operation after which the new vertex is inserted; `None` means
    /// the head of the thread (right after the `s[k]` sentinel).
    pub after: Option<OpId>,
    /// The distance `‖←v→‖` the new vertex will have — by Theorem 2 also
    /// the diameter of the new state if it exceeds the old diameter.
    pub cost: u64,
}

/// Hot per-node scalar labels, packed so the chain walks (`select`'s
/// window scan, the commit-time `sdist` cascade, gap renumbering) pay
/// one cache-line fill per node instead of one per parallel array.
#[derive(Clone, Copy, Debug, Default)]
struct NodeHot {
    /// Gap-numbered chain position (order within the thread is all
    /// that is observable; values are never exported).
    pos: u64,
    /// Longest state-graph source distance, inclusive of own delay.
    sdist: u64,
    /// The operation's delay (sentinels: 0).
    delay: u64,
}

/// Reusable, epoch-stamped scratch space for the hot path. Owning these
/// buffers (instead of allocating per call) is what makes
/// `select`/`commit` allocation-free in steady state.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Visitation epoch; bumping it invalidates all stamps at once.
    epoch: u32,
    /// Per op: last epoch the frontier walk saw it.
    op_seen: Vec<u32>,
    /// Frontier walk stack (op indices).
    stack: Vec<u32>,
    /// Scheduled frontier on the predecessor side (node ids).
    preds_f: Vec<u32>,
    /// Scheduled frontier on the successor side (node ids).
    succs_f: Vec<u32>,
    /// Per thread: the latest state-ancestor node (window lower bound).
    lo: Vec<u32>,
    /// Per thread: the earliest state-descendant node (window upper
    /// bound).
    hi: Vec<u32>,
    /// Worklist for label/reach propagation (node ids).
    queue: Vec<u32>,
    /// Per node: whether it currently sits in `queue` — dedup for the
    /// propagation worklists (a node improved through several in-edges
    /// is rescanned once, not once per improvement).
    in_queue: Vec<bool>,
    /// One node's effective reach row, copied out so the merge loop
    /// runs slice-to-slice (no re-reads through the strided table).
    row: Vec<u32>,
}

/// Lazily maintained sink distances.
///
/// A tail commit raises `tdist` for nearly *all* of its state-ancestors
/// — eagerly repairing them is `Θ(|V|²)` over a run, even though the
/// hot path only ever reads `tdist` near the chain tails. So commits
/// just *invalidate* the backward cone (stopping at already-dirty
/// nodes, amortized `O(K)`), and readers repair exactly the dirty
/// forward cone of the nodes they touch. Values observable through the
/// API are always exact.
#[derive(Clone, Debug, Default)]
struct TdistLazy {
    val: Vec<u64>,
    dirty: Vec<bool>,
    /// Reusable traversal stacks for invalidation and repair.
    stack: Vec<u32>,
}

/// The threaded (soft) scheduler: an online automaton that adds one
/// operation at a time to a threaded scheduling state.
///
/// See the [crate docs](crate) and the paper's Section 4. The scheduler
/// owns a working copy of the precedence graph so that [`refinement
/// operations`](Self::refine_splice) can extend the behavior (spill code,
/// wire delays) and the state coherently.
#[derive(Clone, Debug)]
pub struct ThreadedScheduler {
    /// The immutable graph-side core — behavior graph, reachability
    /// index, static sink distances — shared (`Arc`) across scheduler
    /// clones: a portfolio of runs over one behavior, or the parallel
    /// scheduler's stitched state, pays for the graph and its index
    /// once. Refinement operations that *do* extend the behavior
    /// (splice, add-op, retype, index growth) go through
    /// [`Arc::make_mut`] — copy-on-write, so divergent clones stay
    /// isolated while read-only clones stay free.
    core: Arc<GraphCore>,
    /// Per-chain scheduled-position extrema, maintained with one
    /// `O(1)` insert per commit. `select`'s frontier-walk pruning
    /// probes the set through [`ReachIndex::set_reaches`] /
    /// [`ReachIndex::set_reached_by`] in `O(#chains)`.
    sched_extrema: ChainExtrema,
    resources: ResourceSet,
    /// Cached state diameter `max(sdist)`. `sdist` labels only grow
    /// under scheduling (Lemma 4; delay retyping relabels and
    /// recomputes), so the cache is a running maximum — this makes
    /// [`ThreadedScheduler::diameter`] `O(1)`, cheap enough for the
    /// per-operation early-abort probes of
    /// [`ThreadedScheduler::schedule_all_until`].
    diam: u64,
    /// Running maximum of `sdist(a) − D(a) + ‖a→‖_G` over scheduled
    /// ops: a certified lower bound on the diameter any *completed*
    /// run extending this state must reach (every graph descendant of
    /// `a` still has to be ordered after it — the correctness
    /// condition). Much tighter than the prefix diameter early in a
    /// run; see [`ThreadedScheduler::final_lower_bound`].
    proj: u64,
    /// Static resource floor: for every group of operations sharing
    /// the same compatible-unit set, the group's delay-sum divided by
    /// the unit count. Any completed schedule serialises that work on
    /// those units, so its diameter is at least the floor — the
    /// binding term of the lower bound on resource-bound workloads.
    res_floor: u64,
    // ---- structure-of-arrays node storage ----
    /// Per node: its thread.
    n_thread: Vec<u32>,
    /// Per node: packed hot labels (chain position, source distance,
    /// delay) — see [`NodeHot`].
    nh: Vec<NodeHot>,
    /// Sink distances, lazily repaired (see [`TdistLazy`]). Interior
    /// mutability lets `&self` readers (`select`,
    /// `feasible_placements`) repair on demand; they must not be
    /// re-entered from the placement callback.
    n_tdist: RefCell<TdistLazy>,
    /// Flat edge tables: `inc[n·stride + j]` is the node in thread `j`
    /// with an edge into `n` (or [`NONE`]).
    inc: Vec<u32>,
    out: Vec<u32>,
    /// Reach vectors: `reach_b[n·stride + j]` is the latest (max `pos`)
    /// thread-`j` state-ancestor of `n`; `reach_f` the earliest
    /// state-descendant. [`NONE`] when the thread holds no such node.
    reach_b: Vec<u32>,
    reach_f: Vec<u32>,
    /// Row width of the flat tables; `>= threads`, grown by doubling
    /// when wire threads are pushed.
    stride: usize,
    /// Per thread: source/sink sentinel node indices.
    sent_s: Vec<u32>,
    sent_t: Vec<u32>,
    /// Per op: its node, if scheduled.
    node_of: Vec<Option<u32>>,
    /// Per node: its op (`None` for sentinels).
    op_of: Vec<Option<OpId>>,
    /// Number of threads (resource units plus wire singleton threads).
    threads: usize,
    /// Set when a commit panicked mid-update (e.g. under fault
    /// injection): the state may violate its invariants, so every
    /// subsequent scheduling call short-circuits to
    /// [`SchedError::Poisoned`] instead of computing on corrupt data.
    poisoned: Option<String>,
    /// Sum of all node delays — an upper bound on any legal `sdist`,
    /// used to fail fast (like the seed's per-commit relabel assert)
    /// if an invalid placement ever closes a state cycle.
    total_delay: u64,
    history: Vec<OpId>,
    scratch: RefCell<Scratch>,
}

impl ThreadedScheduler {
    /// Creates a scheduler over `g` with one thread per unit of
    /// `resources`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `g` is cyclic.
    pub fn new(g: PrecedenceGraph, resources: ResourceSet) -> Result<Self, SchedError> {
        g.validate()?;
        let reach = ReachIndex::try_build(&g)?;
        let sched_extrema = ChainExtrema::empty(&reach);
        let gdist = hls_ir::algo::sink_distances(&g);
        let k = resources.k();
        let mut ts = ThreadedScheduler {
            node_of: vec![None; g.len()],
            core: Arc::new(GraphCore { g, reach, gdist }),
            sched_extrema,
            resources,
            diam: 0,
            proj: 0,
            res_floor: 0,
            n_thread: Vec::with_capacity(2 * k),
            nh: Vec::new(),
            n_tdist: RefCell::new(TdistLazy::default()),
            inc: Vec::new(),
            out: Vec::new(),
            reach_b: Vec::new(),
            reach_f: Vec::new(),
            stride: k.max(1),
            sent_s: Vec::with_capacity(k),
            sent_t: Vec::with_capacity(k),
            op_of: Vec::new(),
            threads: 0,
            poisoned: None,
            total_delay: 0,
            history: Vec::new(),
            scratch: RefCell::new(Scratch::default()),
        };
        for _ in 0..k {
            ts.push_thread();
        }
        ts.res_floor = ts.resource_floor();
        Ok(ts)
    }

    /// The scheduler's working copy of the precedence graph (grows under
    /// refinement).
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.core.g
    }

    /// The functional-unit allocation.
    pub fn resources(&self) -> &ResourceSet {
        &self.resources
    }

    /// Current number of threads, including wire singleton threads.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// `true` if `v` is already in the scheduling state.
    pub fn is_scheduled(&self, v: OpId) -> bool {
        self.node_of.get(v.index()).copied().flatten().is_some()
    }

    /// Number of scheduled operations.
    pub fn scheduled_count(&self) -> usize {
        self.history.len()
    }

    /// The operations in the order they were scheduled.
    pub fn history(&self) -> &[OpId] {
        &self.history
    }

    /// The thread of a scheduled operation.
    pub fn thread_of(&self, v: OpId) -> Option<usize> {
        self.node_of
            .get(v.index())
            .copied()
            .flatten()
            .map(|n| self.n_thread[n as usize] as usize)
    }

    /// The operations of thread `k` in chain order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.thread_count()`.
    pub fn chain(&self, k: usize) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = self.out[self.sent_s[k] as usize * self.stride + k];
        while cur != NONE {
            if cur == self.sent_t[k] {
                break;
            }
            out.push(self.op_of[cur as usize].expect("chain nodes are real ops"));
            cur = self.out[cur as usize * self.stride + k];
        }
        out
    }

    /// The diameter `‖S‖` of the scheduling state — the critical-path
    /// delay-sum including all artificial serialisation edges. By
    /// Lemma 4 this is monotone under scheduling. `O(1)` (cached
    /// running maximum of the `sdist` labels).
    pub fn diameter(&self) -> u64 {
        self.diam
    }

    /// A certified lower bound on the diameter of any *completed*
    /// schedule extending the current state: the maximum of
    ///
    /// * the current diameter (monotone, Lemma 4);
    /// * the *projection* — over scheduled ops `a`,
    ///   `sdist(a) − D(a) + ‖a→‖_G` (every graph descendant of `a`,
    ///   scheduled yet or not, must end up ordered after `a` by the
    ///   correctness condition, so the longest behavior-graph tail out
    ///   of `a` is still owed) — the binding term on latency-bound
    ///   workloads;
    /// * the static resource floor (work per compatible-unit set) —
    ///   the binding term on resource-bound workloads.
    ///
    /// `O(1)` — all terms are cached maxima.
    ///
    /// This is what the early-abort hook of
    /// [`ThreadedScheduler::schedule_all_until`] reports: it lets a
    /// portfolio run prove it cannot beat an incumbent long before its
    /// prefix diameter says so.
    pub fn final_lower_bound(&self) -> u64 {
        self.diam.max(self.proj).max(self.res_floor)
    }

    /// A certified lower bound on *any* complete schedule of the
    /// behavior under the current resources, independent of this
    /// state: the behavior-graph diameter folded with the resource
    /// floor. A schedule whose length equals this value is provably
    /// optimal — the portfolio uses that certificate to skip futile
    /// refinement rounds.
    pub fn schedule_lower_bound(&self) -> u64 {
        self.res_floor
            .max(self.core.gdist.iter().copied().max().unwrap_or(0))
    }

    /// The distance `‖←v→‖ = sdist(v) + tdist(v) − D(v)` of a scheduled
    /// operation — the length of the longest state path through `v`.
    /// `None` if `v` is unscheduled or out of range. An operation is
    /// *critical* when its distance equals [`ThreadedScheduler::diameter`];
    /// `diameter − distance` is its slack, the selection key of the
    /// critical-cone extraction in the portfolio's refinement loop.
    pub fn distance(&self, v: OpId) -> Option<u64> {
        let n = self.node_of.get(v.index()).copied().flatten()?;
        Some(self.nh[n as usize].sdist + self.tdist_of(n) - self.nh[n as usize].delay)
    }

    /// The chain-cover reachability index the scheduler maintains over
    /// its working behavior graph (kept exact under refinement growth).
    /// Exposed so portfolio-level tooling can run `O(#chains)` set
    /// probes — e.g. [`ReachIndex::convex_closure`] for critical-cone
    /// extraction — without rebuilding the index.
    pub fn reach_index(&self) -> &ReachIndex {
        &self.core.reach
    }

    /// Schedules one operation: `select` then `commit` (the paper's
    /// `schedule` method). Scheduling an operation already in the state
    /// is a no-op returning its current placement (Definition 3's
    /// incremental condition).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::UnknownOp`] for out-of-range ids,
    /// [`SchedError::NoCompatibleUnit`] if no thread can execute the
    /// operation, and [`SchedError::Poisoned`] if a previous commit
    /// panicked (the panic is caught here — it never crosses this
    /// boundary — but the state is permanently unusable afterwards).
    pub fn schedule(&mut self, v: OpId) -> Result<Placement, SchedError> {
        self.check_poisoned()?;
        if v.index() >= self.core.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        if let Some(n) = self.node_of[v.index()] {
            let after = self.chain_pred_op(n);
            return Ok(Placement {
                thread: self.n_thread[n as usize] as usize,
                after,
                cost: self.nh[n as usize].sdist + self.tdist_of(n) - self.nh[n as usize].delay,
            });
        }
        self.schedule_isolated(v, false)
    }

    /// `true` once a commit panicked and left the state unusable; see
    /// [`SchedError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn check_poisoned(&self) -> Result<(), SchedError> {
        match &self.poisoned {
            Some(msg) => Err(SchedError::Poisoned(msg.clone())),
            None => Ok(()),
        }
    }

    /// Runs one select+commit under `catch_unwind`: a panic mid-commit
    /// (a bug, or the fault-injection harness) may leave the linked
    /// chains and labels inconsistent, so it poisons the scheduler and
    /// surfaces as [`SchedError::Poisoned`] instead of unwinding
    /// through the public API.
    fn schedule_isolated(&mut self, v: OpId, late: bool) -> Result<Placement, SchedError> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if self.core.g.kind(v).resource_class() == ResourceClass::Wire {
                return self.schedule_wire(v);
            }
            let placement = if late { self.select_late(v)? } else { self.select(v)? };
            // `select` just walked the scheduled frontier of `v` and the
            // state is unchanged since, so `commit` can reuse it instead
            // of re-walking (the walk is the probe-heavy half of commit).
            self.commit_inner(placement, v, true);
            Ok(placement)
        }));
        match attempt {
            Ok(result) => result,
            Err(payload) => {
                let msg = crate::panic_message(payload.as_ref());
                self.poisoned = Some(msg.clone());
                Err(SchedError::Poisoned(msg))
            }
        }
    }

    /// Schedules every operation of `order` in sequence.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SchedError`] encountered.
    pub fn schedule_all(
        &mut self,
        order: impl IntoIterator<Item = OpId>,
    ) -> Result<(), SchedError> {
        for v in order {
            self.schedule(v)?;
        }
        Ok(())
    }

    /// Like [`ThreadedScheduler::schedule_all`], but with an
    /// early-abort hook: after every scheduled operation, `abort` is
    /// called with the current
    /// [`final-diameter lower bound`](ThreadedScheduler::final_lower_bound);
    /// returning `true` stops the run and reports how far it got.
    ///
    /// This is the budget hook behind the parallel portfolio
    /// scheduler (`hls-search`): the bound is monotone under
    /// scheduling and certified (a completed extension of this state
    /// can never beat it), so a run whose bound already rules out
    /// beating a completed rival's diameter can abort without changing
    /// the portfolio's result — the portfolio threads an atomic
    /// incumbent into this callback and losing runs stop paying for
    /// themselves. The hook is `O(1)` per operation on top of the
    /// schedule itself.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SchedError`] encountered.
    pub fn schedule_all_until(
        &mut self,
        order: impl IntoIterator<Item = OpId>,
        abort: impl FnMut(u64) -> bool,
    ) -> Result<RunOutcome, SchedError> {
        self.schedule_all_budgeted(order, &hls_ir::Budget::NONE, abort)
    }

    /// The fully budgeted run: [`ThreadedScheduler::schedule_all_until`]
    /// plus a cooperative [`hls_ir::Budget`]. The budget is checked
    /// before *every* commit, so a run never overshoots its deadline
    /// by more than the one commit in flight:
    ///
    /// * an already-expired budget commits nothing and returns
    ///   [`RunOutcome::DeadlineExpired`] with `scheduled: 0`;
    /// * a step quota of `q` commits exactly `min(q, |order|)`
    ///   operations — deterministic across machines and thread counts
    ///   (the quota is per-run, not global);
    /// * a wall deadline stops at the first commit that observes it
    ///   (through the fault-injectable clock).
    ///
    /// # Errors
    ///
    /// Propagates the first [`SchedError`] encountered.
    pub fn schedule_all_budgeted(
        &mut self,
        order: impl IntoIterator<Item = OpId>,
        budget: &hls_ir::Budget,
        mut abort: impl FnMut(u64) -> bool,
    ) -> Result<RunOutcome, SchedError> {
        for (fed, v) in order.into_iter().enumerate() {
            if budget.expired(fed as u64) {
                return Ok(RunOutcome::DeadlineExpired { scheduled: fed });
            }
            self.schedule(v)?;
            if abort(self.final_lower_bound()) {
                return Ok(RunOutcome::Aborted { scheduled: fed + 1 });
            }
        }
        Ok(RunOutcome::Completed)
    }

    /// The paper's `select`: finds the feasible insertion position
    /// minimising the distance of the new vertex — hence, by Theorem 2,
    /// the diameter of the resulting state — without speculative commits
    /// and without touching nodes outside the feasible windows.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadedScheduler::schedule`].
    pub fn select(&self, v: OpId) -> Result<Placement, SchedError> {
        self.select_impl(v, false)
    }

    /// Like [`ThreadedScheduler::select`], but among cost-tied optimal
    /// positions prefers the *last* one in scan order (latest chain
    /// position). Online optimality is unaffected (Theorem 2 fixes only
    /// the cost); the bias matters for register pressure: spill reloads
    /// scheduled late keep their values in memory longest.
    pub fn select_late(&self, v: OpId) -> Result<Placement, SchedError> {
        self.select_impl(v, true)
    }

    /// The shared body of [`ThreadedScheduler::select`] /
    /// [`ThreadedScheduler::select_late`]: the window scan of
    /// [`Self::for_each_feasible`], walked *backward* with monotone
    /// pruning. Along a thread chain `tdist` is non-increasing (each
    /// chain edge is a precedence), so scanning candidates from the
    /// window's tail toward its head makes the `tdist(next)` cost term
    /// non-decreasing, and every remaining candidate costs at least
    /// `isrc + tdist(next) ⊔ isnk + delay`. Once that floor can no
    /// longer beat the incumbent, the rest of the thread's window is
    /// skipped — on tail-heavy workloads (a topological order feeding
    /// empty-descendant windows) this collapses the scan from the full
    /// window to a handful of candidates. Scanning backward also means
    /// each candidate's `tdist` repair is the previous candidate's
    /// node, so the lazy repairs hit their clean fast path.
    ///
    /// Tie handling mirrors the forward scan exactly: `select` keeps
    /// the *earliest* minimal position (backward: ties replace, prune
    /// only at `floor > best`), `select_late` the *latest* (backward:
    /// first minimum sticks, prune at `floor ≥ best`). Both stay
    /// bit-identical to the exhaustive forward scan — pinned by the
    /// Theorem 2 oracle tests and the golden-equivalence suite.
    fn select_impl(&self, v: OpId, late: bool) -> Result<Placement, SchedError> {
        hls_obs::obs_count!(SelectCalls);
        if v.index() >= self.core.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        let kind = self.core.g.kind(v);
        if !(0..self.resources.k()).any(|k| self.resources.compatible(k, kind)) {
            return Err(SchedError::NoCompatibleUnit(v, kind));
        }
        let mut sc = self.scratch.take();
        self.prep_scratch(&mut sc);
        self.collect_frontiers(v, &mut sc);
        let (isrc, isnk) = self.absorb_windows(&mut sc);
        let delay = self.core.g.delay(v);
        let s = self.stride;
        let mut best: Option<Placement> = None;
        // One borrow of the lazy-tdist cell for the whole scan instead
        // of one per candidate.
        let mut lz = self.n_tdist.borrow_mut();
        for k in 0..self.resources.k() {
            if !self.resources.compatible(k, kind) {
                continue;
            }
            // The window's insertion points are `lo..hi` (exclusive at
            // `hi`): insert-after nodes from the latest state-ancestor
            // (or the head sentinel) up to just before the earliest
            // state-descendant (or the tail sentinel's predecessor).
            let lo = if sc.lo[k] != NONE { sc.lo[k] } else { self.sent_s[k] };
            let lo_pos = self.nh[lo as usize].pos;
            // First candidate pair from the tail: `next` is the window's
            // upper bound, `cur` its chain predecessor.
            let mut next = if sc.hi[k] != NONE { sc.hi[k] } else { self.sent_t[k] };
            let mut cur = self.inc[next as usize * s + k];
            debug_assert_ne!(cur, NONE, "chains are closed by sentinels");
            while self.nh[cur as usize].pos >= lo_pos {
                let sd = self.nh[cur as usize].sdist.max(isrc);
                self.repair_tdist(&mut lz, next);
                let raw_td = lz.val[next as usize];
                let cost = sd + raw_td.max(isnk) + delay;
                // The forward scan's update rules pick, among minimal
                // costs, the lexicographically earliest (thread, pos)
                // for `select` and the latest for `select_late`.
                // Threads are still visited in ascending order, but
                // positions arrive in descending order, so ties within
                // the *same* thread now replace for `select` (the later
                // visit is the earlier position) and stick for
                // `select_late`; cross-thread ties keep the earlier
                // thread for `select` and take the later for
                // `select_late` — exactly the forward semantics.
                let better = match best {
                    None => true,
                    Some(b) => {
                        cost < b.cost
                            || (cost == b.cost && if late { k > b.thread } else { k == b.thread })
                    }
                };
                if better {
                    best = Some(Placement {
                        thread: k,
                        after: self.op_of[cur as usize],
                        cost,
                    });
                }
                if cur == lo {
                    break;
                }
                next = cur;
                cur = self.inc[cur as usize * s + k];
                debug_assert_ne!(cur, NONE, "window stays above the head sentinel");
                if let Some(b) = best {
                    // Monotone floor for every remaining candidate in
                    // this thread: `tdist` only grows walking backward,
                    // and along the chain edge `next → old next` the
                    // (possibly still dirty) new `next` satisfies
                    // `tdist(next) ≥ delay(next) + tdist(old next)`, so
                    // the just-repaired old value gives a sound bound
                    // without repairing `next` yet. Prune once no
                    // remaining candidate can become the winner under
                    // the tie rules above.
                    let lb_td = raw_td + self.nh[next as usize].delay;
                    let floor = isrc + lb_td.max(isnk) + delay;
                    let dead = if late {
                        floor > b.cost || (floor == b.cost && k <= b.thread)
                    } else {
                        floor > b.cost || (floor == b.cost && k != b.thread)
                    };
                    if dead {
                        break;
                    }
                }
            }
        }
        drop(lz);
        self.scratch.replace(sc);
        best.ok_or(SchedError::NoCompatibleUnit(v, self.core.g.kind(v)))
    }

    /// Schedules `v` at the latest cost-optimal position (see
    /// [`ThreadedScheduler::select_late`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadedScheduler::schedule`].
    pub fn schedule_late(&mut self, v: OpId) -> Result<Placement, SchedError> {
        self.check_poisoned()?;
        if v.index() >= self.core.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        if self.is_scheduled(v) {
            return self.schedule(v);
        }
        self.schedule_isolated(v, true)
    }

    /// Every feasible placement for `v` with its cost, in deterministic
    /// (thread, position) order. Used by the exhaustive oracle and by
    /// tests of Theorem 2.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadedScheduler::schedule`].
    pub fn feasible_placements(&self, v: OpId) -> Result<Vec<Placement>, SchedError> {
        let mut out = Vec::new();
        self.for_each_feasible(v, |p| out.push(p))?;
        Ok(out)
    }

    /// Commits a placement produced by [`ThreadedScheduler::select`] or
    /// [`ThreadedScheduler::feasible_placements`] — the paper's `commit`
    /// with the Figure 2 update rules, followed by incremental label and
    /// reach propagation over the affected cone only.
    ///
    /// # Panics
    ///
    /// Panics if the placement refers to an unknown thread or an
    /// operation that is not in that thread (placements must come from
    /// this scheduler's `select`/`feasible_placements` on the current
    /// state).
    pub fn commit(&mut self, placement: Placement, v: OpId) {
        self.commit_inner(placement, v, false);
    }

    /// [`ThreadedScheduler::commit`] body. With `frontier_ready` the
    /// scheduled-frontier vectors already sitting in the scratch are
    /// trusted (set by the `select` that produced `placement`, against
    /// this exact state) instead of being recomputed — the internal
    /// select-then-commit path uses this; the public entry never does.
    fn commit_inner(&mut self, placement: Placement, v: OpId, frontier_ready: bool) {
        hls_obs::obs_count!(CommitCalls);
        // Fault-injection hook: a no-op unless the test harness armed
        // a plan (and always in release builds).
        hls_ir::faultinject::tick_commit();
        assert!(placement.thread < self.threads, "unknown thread");
        let k = placement.thread;
        let s = self.stride;
        let pos_node = match placement.after {
            None => self.sent_s[k],
            Some(op) => {
                let n = self.node_of[op.index()].expect("placement.after must be scheduled");
                assert_eq!(
                    self.n_thread[n as usize] as usize, k,
                    "after-op not in thread"
                );
                n
            }
        };
        let n = self.alloc_raw_node(k, self.core.g.delay(v));

        // Chain insertion after pos_node, with gap-numbered positions.
        let next = self.out[pos_node as usize * s + k];
        assert_ne!(next, NONE, "chain is closed by sentinels");
        self.out[n as usize * s + k] = next;
        self.inc[next as usize * s + k] = n;
        self.out[pos_node as usize * s + k] = n;
        self.inc[n as usize * s + k] = pos_node;
        self.assign_pos(n, pos_node, next, k);

        self.node_of[v.index()] = Some(n);
        self.op_of[n as usize] = Some(v);
        self.sched_extrema.insert(&self.core.reach, v.index());

        // Figure 2 rules for the scheduled frontier (dominated ancestors
        // and descendants are already ordered through it — DESIGN.md §4).
        let mut sc = std::mem::take(self.scratch.get_mut());
        if !frontier_ready {
            self.prep_scratch(&mut sc);
            self.collect_frontiers(v, &mut sc);
        }
        let preds = std::mem::take(&mut sc.preds_f);
        let succs = std::mem::take(&mut sc.succs_f);
        for &p in &preds {
            self.apply_pred_rule(p, n, k);
        }
        for &q in &succs {
            self.apply_succ_rule(q, n, k);
        }
        sc.preds_f = preds;
        sc.succs_f = succs;

        // The new node's own labels read its (final) out-neighbours, so
        // repair those first; everything upstream is merely invalidated.
        let mut lz = std::mem::take(self.n_tdist.get_mut());
        for j in 0..self.threads {
            let m = self.out[n as usize * self.stride + j];
            if m != NONE {
                self.repair_tdist(&mut lz, m);
            }
        }
        self.init_new_node(n, &mut lz);
        self.propagate_forward(n, &mut sc);
        self.propagate_reach_backward(n, &mut sc);
        self.invalidate_tdist_backward(n, &mut lz);
        *self.n_tdist.get_mut() = lz;
        *self.scratch.get_mut() = sc;

        self.history.push(v);
    }

    /// Extracts the hard schedule implied by the current state: every
    /// scheduled operation starts at `sdist − delay` (the ASAP schedule of
    /// the threaded graph; resource exclusion is already encoded in the
    /// thread chains). Unscheduled operations are left unassigned.
    pub fn extract_hard(&self) -> HardSchedule {
        let mut sched = HardSchedule::new(self.core.g.len());
        for v in self.core.g.op_ids() {
            if let Some(n) = self.node_of[v.index()] {
                let n = n as usize;
                let unit = if (self.n_thread[n] as usize) < self.resources.k() {
                    Some(self.n_thread[n] as usize)
                } else {
                    None
                };
                sched.assign(v, self.nh[n].sdist - self.nh[n].delay, unit);
            }
        }
        // Spill reloads issue as late as their state slack allows, so
        // the spilled value stays in background memory instead of a
        // register. Pushing a Load to `min(successor starts) − delay`
        // respects every state edge (including the memory-port chain),
        // so the schedule stays legal.
        for v in self.core.g.op_ids() {
            if self.core.g.kind(v) != OpKind::Load {
                continue;
            }
            let Some(n) = self.node_of[v.index()] else { continue };
            let n = n as usize;
            let mut latest = u64::MAX;
            for j in 0..self.threads {
                let m = self.out[n * self.stride + j];
                if m != NONE {
                    if let Some(succ) = self.op_of[m as usize] {
                        let st = sched.start(succ).expect("state successors are scheduled");
                        latest = latest.min(st);
                    }
                }
            }
            if latest != u64::MAX {
                let asap = self.nh[n].sdist - self.nh[n].delay;
                let alap = latest.saturating_sub(self.nh[n].delay);
                if alap > asap {
                    let unit = sched.unit(v);
                    sched.assign(v, alap, unit);
                }
            }
        }
        sched
    }

    /// Exports the scheduling state as a plain precedence graph plus
    /// thread assignment (Definition 6: the subgraph spanned by
    /// `V \ s \ t`).
    pub fn snapshot(&self) -> StateSnapshot {
        let mut graph = PrecedenceGraph::with_capacity(self.history.len());
        let mut ops = Vec::with_capacity(self.history.len());
        let mut threads = Vec::with_capacity(self.history.len());
        let mut snap_of = vec![usize::MAX; self.op_of.len()];
        for (n, &op) in self.op_of.iter().enumerate() {
            let Some(op) = op else { continue };
            let id = graph.add_op(self.core.g.kind(op), self.nh[n].delay, self.core.g.label(op));
            snap_of[n] = id.index();
            ops.push(op);
            threads.push(self.n_thread[n] as usize);
        }
        for n in 0..self.op_of.len() {
            if self.op_of[n].is_none() {
                continue;
            }
            for j in 0..self.threads {
                let m = self.out[n * self.stride + j];
                if m != NONE && self.op_of[m as usize].is_some() {
                    let from = OpId::from_index(snap_of[n]);
                    let to = OpId::from_index(snap_of[m as usize]);
                    graph.add_edge(from, to).expect("state edges are valid");
                }
            }
        }
        StateSnapshot::new(graph, ops, threads)
    }

    /// Splices a chain of new operations onto the edge `from -> to` of the
    /// behavior *and* schedules them, in order — the soft-scheduling
    /// refinement of the paper's Figure 1(c)/(d) (spill code, wire
    /// delays). Returns the new operation ids.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `from -> to` is not an edge, plus the
    /// scheduling errors of [`ThreadedScheduler::schedule`].
    pub fn refine_splice(
        &mut self,
        from: OpId,
        to: OpId,
        chain: impl IntoIterator<Item = (OpKind, u64, String)>,
    ) -> Result<Vec<OpId>, SchedError> {
        let inserted = Arc::make_mut(&mut self.core).g.splice_on_edge(from, to, chain)?;
        self.sync_graph_growth()?;
        for &v in &inserted {
            // Reloads go as late as their slack allows so the spilled
            // value stays in memory, not in a register; everything else
            // keeps the default (earliest-optimal) tie-break.
            if self.core.g.kind(v) == OpKind::Load {
                self.schedule_late(v)?;
            } else {
                self.schedule(v)?;
            }
        }
        Ok(inserted)
    }

    /// Adds a brand-new operation with the given dependencies to the
    /// behavior and schedules it (an engineering change / ECO).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::WouldCycle`] if the new edges close a cycle,
    /// plus the scheduling errors of [`ThreadedScheduler::schedule`].
    pub fn refine_add_op(
        &mut self,
        kind: OpKind,
        delay: u64,
        label: impl Into<String>,
        preds: &[OpId],
        succs: &[OpId],
    ) -> Result<OpId, SchedError> {
        let core = Arc::make_mut(&mut self.core);
        let v = core.g.add_op(kind, delay, label);
        for &p in preds {
            core.g.add_edge(p, v)?;
        }
        for &q in succs {
            core.g.add_edge(v, q)?;
        }
        if self.core.g.validate().is_err() {
            return Err(SchedError::WouldCycle(v));
        }
        self.sync_graph_growth()?;
        self.schedule(v)?;
        Ok(v)
    }

    /// Grafts the ops of `target` beyond `map.len()` onto this state,
    /// translating edge endpoints through `map` (submitted-graph index
    /// → id in this state), by
    /// [`refine_add_op`](Self::refine_add_op)-ing each new operation in
    /// id order, with its edges attached as both endpoints become
    /// available. Only the added cone is scheduled. This is the one
    /// engineering-change entry point: a state whose ids still match
    /// the submitted base takes the identity map, and a state whose
    /// behavior has *diverged in ids* from it — e.g. a finished flow
    /// state that appended spill, move and wire-delay operations after
    /// the base ops — takes the map the flow recorded. The serve
    /// layer's schedule cache uses this as its ECO-delta fast path:
    /// the delta cone is scheduled incrementally onto the cached
    /// post-flow state, everything already absorbed stays absorbed.
    ///
    /// The caller asserts that the first `map.len()` ops of `target`
    /// are the base behavior behind `map` (the cache checks
    /// [`PrecedenceGraph::extends`] against the graph as submitted).
    /// `map` is extended in place with the ids of the grafted ops.
    /// The `budget` is checked before every added op (the wall
    /// deadline and a step quota counted over *added* ops), so a
    /// pathological delta of ten thousand operations degrades into a
    /// typed [`SchedError::Timeout`], never an unbounded stall.
    ///
    /// # Errors
    ///
    /// [`SchedError::NotAnExtension`] if `target` carries loop edges,
    /// is shorter than `map`, or a delta op's edge points at an op the
    /// map does not cover; [`SchedError::Malformed`] if `map` carries
    /// duplicate entries (two submitted indices aliasing one scheduled
    /// op — translating through such a map would silently merge their
    /// edge sets, last-write-wins); [`SchedError::Timeout`] on budget
    /// expiry; otherwise the errors of
    /// [`refine_add_op`](Self::refine_add_op). On every error the
    /// state and `map` are unchanged unless ops were already added
    /// (partial grafts extend `map` alongside the state).
    pub fn refine_graft(
        &mut self,
        target: &PrecedenceGraph,
        map: &mut Vec<OpId>,
        budget: &hls_ir::Budget,
    ) -> Result<Vec<OpId>, SchedError> {
        if target.has_loop_edges() || target.len() < map.len() {
            return Err(SchedError::NotAnExtension);
        }
        // An injective map is a precondition of the whole translation:
        // with an alias, every edge at the duplicated entry lands on
        // one op and the other submitted op silently loses its cone.
        // Checked up front so the rejection leaves the state pristine.
        let mut seen = vec![false; self.core.g.len()];
        for &m in map.iter() {
            match seen.get_mut(m.index()) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    return Err(SchedError::Malformed(format!(
                        "graft map aliases scheduled op {m} under two submitted indices"
                    )))
                }
                None => {
                    return Err(SchedError::Malformed(format!(
                        "graft map entry {m} is outside this state's id space"
                    )))
                }
            }
        }
        let base_len = map.len();
        let mut added = Vec::with_capacity(target.len() - base_len);
        for i in base_len..target.len() {
            if budget.expired(added.len() as u64) {
                return Err(SchedError::Timeout);
            }
            let v = OpId::from_index(i);
            // Edges to delta ops not yet grafted are attached later,
            // from the other endpoint (target ids grow monotonically,
            // so the other endpoint sees this one in the map).
            fn translate(
                ends: &[OpId],
                upto: usize,
                map: &[OpId],
            ) -> Result<Vec<OpId>, SchedError> {
                ends.iter()
                    .filter(|e| e.index() < upto)
                    .map(|e| map.get(e.index()).copied().ok_or(SchedError::NotAnExtension))
                    .collect()
            }
            let preds = translate(target.preds(v), i, map)?;
            let succs = translate(target.succs(v), i, map)?;
            let id =
                self.refine_add_op(target.kind(v), target.delay(v), target.label(v), &preds, &succs)?;
            map.push(id);
            added.push(id);
        }
        Ok(added)
    }

    /// Renders the scheduling state as a DOT digraph: one colour per
    /// thread, solid edges for the thread chains, dashed edges for cross
    /// (dependence/serialisation) edges. Sentinels are omitted.
    pub fn state_to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        const COLORS: [&str; 8] = [
            "lightblue", "lightsalmon", "palegreen", "plum", "khaki", "lightgrey", "orange",
            "cyan",
        ];
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  node [shape=box, style=filled, fontsize=10];");
        for (n, &op) in self.op_of.iter().enumerate() {
            let Some(op) = op else { continue };
            let _ = writeln!(
                out,
                "  n{} [label=\"{} ({})\\nthr {} @{}\", fillcolor={}];",
                n,
                self.core.g.label(op),
                self.core.g.kind(op),
                self.n_thread[n],
                self.nh[n].sdist - self.nh[n].delay,
                COLORS[self.n_thread[n] as usize % COLORS.len()],
            );
        }
        for n in 0..self.op_of.len() {
            if self.op_of[n].is_none() {
                continue;
            }
            for j in 0..self.threads {
                let m = self.out[n * self.stride + j];
                if m == NONE || self.op_of[m as usize].is_none() {
                    continue;
                }
                let style = if j == self.n_thread[n] as usize { "solid" } else { "dashed" };
                let _ = writeln!(out, "  n{n} -> n{m} [style={style}];");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Changes the kind and delay of an operation in place — the SSA φ
    /// resolution of the paper's Section 1 (a φ becomes a register move
    /// or a void operation only after register allocation). The state's
    /// partial order is untouched; only the labels move.
    ///
    /// The new kind must stay zero-resource (or match the thread the
    /// operation already occupies); this is the caller's contract.
    pub fn retype_op(&mut self, v: OpId, kind: OpKind, delay: u64) {
        let core = Arc::make_mut(&mut self.core);
        core.g.set_kind(v, kind);
        core.g.set_delay(v, delay);
        if let Some(n) = self.node_of[v.index()] {
            self.total_delay = self.total_delay - self.nh[n as usize].delay + delay;
            self.nh[n as usize].delay = delay;
            // Delays may shrink, so increase-only propagation does not
            // apply; this cold path relabels from scratch (which also
            // refreshes the lower-bound caches).
            self.relabel_full();
        } else {
            // The graph changed even though the state did not: the
            // static sink distances and the resource floor feeding
            // `final_lower_bound` must not go stale (a stale bound
            // stops being a *lower* bound when delays shrink).
            self.refresh_proj();
        }
    }

    /// Verifies the internal invariants of the state: pointer symmetry,
    /// chain integrity, strictly increasing gap positions, the Lemma 7
    /// degree bound, acyclicity, label freshness, reach-vector
    /// freshness (the incremental engine against a from-scratch
    /// recomputation), and exact agreement of the chain-cover
    /// reachability index and its per-chain scheduled extrema with the
    /// dense-closure oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = self.stride;
        if s < self.threads {
            return Err(format!("stride {s} below thread count {}", self.threads));
        }
        let n_nodes = self.op_of.len();
        for n in 0..n_nodes {
            for j in 0..self.threads {
                let m = self.out[n * s + j];
                if m != NONE {
                    if self.n_thread[m as usize] as usize != j {
                        return Err(format!(
                            "node {n}: out[{j}] lands in thread {}",
                            self.n_thread[m as usize]
                        ));
                    }
                    if self.inc[m as usize * s + self.n_thread[n] as usize] != n as u32 {
                        return Err(format!("node {n}: out[{j}] not mirrored by inc"));
                    }
                }
                let m = self.inc[n * s + j];
                if m != NONE {
                    if self.n_thread[m as usize] as usize != j {
                        return Err(format!(
                            "node {n}: inc[{j}] from thread {}",
                            self.n_thread[m as usize]
                        ));
                    }
                    if self.out[m as usize * s + self.n_thread[n] as usize] != n as u32 {
                        return Err(format!("node {n}: inc[{j}] not mirrored by out"));
                    }
                }
            }
        }
        for k in 0..self.threads {
            let mut cur = self.sent_s[k];
            let mut last_pos = self.nh[cur as usize].pos;
            let mut count = 0usize;
            loop {
                let next = self.out[cur as usize * s + k];
                if next == NONE {
                    if cur != self.sent_t[k] {
                        return Err(format!("thread {k}: chain does not end at sentinel"));
                    }
                    break;
                }
                let np = self.nh[next as usize].pos;
                if np <= last_pos {
                    return Err(format!("thread {k}: positions not increasing"));
                }
                last_pos = np;
                cur = next;
                count += 1;
                if count > n_nodes {
                    return Err(format!("thread {k}: chain cycle"));
                }
            }
            let members = (0..n_nodes)
                .filter(|&i| self.n_thread[i] as usize == k && self.op_of[i].is_some())
                .count();
            if members + 1 != count {
                return Err(format!(
                    "thread {k}: chain covers {count} hops but thread has {members} ops"
                ));
            }
        }
        // The chain-cover index must agree exactly with the dense
        // closure oracle, and the per-chain scheduled extrema with the
        // actual scheduled set.
        self.core.reach
            .check(&self.core.g)
            .map_err(|e| format!("reach index: {e}"))?;
        if self.sched_extrema.chain_count() != self.core.reach.chain_count() {
            return Err("scheduled extrema disagree with chain count".to_string());
        }
        let want = self.core.reach.extrema(
            self.core.g
                .op_ids()
                .filter(|v| self.node_of[v.index()].is_some())
                .map(|v| v.index()),
        );
        if want != self.sched_extrema {
            return Err("stale per-chain scheduled extrema".to_string());
        }
        // Acyclicity + freshness of the incrementally maintained labels
        // and reach vectors, against a from-scratch recomputation.
        let (sdist, tdist, rb, rf) = self
            .compute_labels_full()
            .ok_or_else(|| "scheduling state must stay acyclic".to_string())?;
        if self.diam != sdist.iter().copied().max().unwrap_or(0) {
            return Err(format!(
                "cached diameter {} disagrees with label maximum",
                self.diam
            ));
        }
        if self.core.gdist != hls_ir::algo::sink_distances(&self.core.g) {
            return Err("stale graph sink distances".to_string());
        }
        let want_proj = (0..n_nodes)
            .filter_map(|n| {
                self.op_of[n]
                    .map(|op| sdist[n] - self.nh[n].delay + self.core.gdist[op.index()])
            })
            .max()
            .unwrap_or(0);
        if self.proj != want_proj {
            return Err(format!(
                "final-diameter projection {} disagrees with label recomputation {want_proj}",
                self.proj
            ));
        }
        if self.final_lower_bound() < self.diam {
            return Err("final lower bound below the diameter".to_string());
        }
        if self.res_floor != self.resource_floor() {
            return Err("stale resource floor".to_string());
        }
        for n in 0..n_nodes {
            if self.nh[n].sdist != sdist[n] || self.tdist_of(n as u32) != tdist[n] {
                return Err(format!("node {n}: stale labels"));
            }
            for j in 0..self.threads {
                if self.reach_b[n * s + j] != rb[n * s + j] {
                    return Err(format!("node {n}: stale backward reach in thread {j}"));
                }
                if self.reach_f[n * s + j] != rf[n * s + j] {
                    return Err(format!("node {n}: stale forward reach in thread {j}"));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn push_thread(&mut self) -> usize {
        let k = self.threads;
        self.threads += 1;
        if self.threads > self.stride {
            self.grow_stride((self.stride * 2).max(self.threads));
        }
        let s_node = self.alloc_raw_node(k, 0);
        let t_node = self.alloc_raw_node(k, 0);
        self.out[s_node as usize * self.stride + k] = t_node;
        self.inc[t_node as usize * self.stride + k] = s_node;
        self.nh[t_node as usize].pos = GAP;
        self.sent_s.push(s_node);
        self.sent_t.push(t_node);
        k
    }

    /// Re-lays the flat per-node tables for a wider row. Only wire
    /// scheduling grows `K`, and doubling keeps the total relayout work
    /// amortized over those pushes.
    fn grow_stride(&mut self, new_stride: usize) {
        let old = self.stride;
        let n = self.op_of.len();
        let relayout = |tab: &mut Vec<u32>| {
            let mut next = vec![NONE; n * new_stride];
            for i in 0..n {
                next[i * new_stride..i * new_stride + old]
                    .copy_from_slice(&tab[i * old..(i + 1) * old]);
            }
            *tab = next;
        };
        relayout(&mut self.inc);
        relayout(&mut self.out);
        relayout(&mut self.reach_b);
        relayout(&mut self.reach_f);
        self.stride = new_stride;
    }

    fn alloc_raw_node(&mut self, thread: usize, delay: u64) -> u32 {
        // Strictly below NONE: index u32::MAX would collide with the
        // missing-edge sentinel of the flat tables.
        assert!(
            self.op_of.len() < NONE as usize,
            "node count exceeds u32 sentinel space"
        );
        let idx = self.op_of.len() as u32;
        self.total_delay += delay;
        self.n_thread.push(thread as u32);
        self.nh.push(NodeHot { pos: 0, sdist: 0, delay });
        {
            let lz = self.n_tdist.get_mut();
            lz.val.push(0);
            lz.dirty.push(false);
        }
        self.op_of.push(None);
        self.inc.extend(std::iter::repeat_n(NONE, self.stride));
        self.out.extend(std::iter::repeat_n(NONE, self.stride));
        self.reach_b.extend(std::iter::repeat_n(NONE, self.stride));
        self.reach_f.extend(std::iter::repeat_n(NONE, self.stride));
        idx
    }

    /// Assigns a gap-numbered position to `n`, just inserted between
    /// `prev` and `next` in thread `k`. Tail inserts extend the
    /// numbering (bumping the sentinel); mid-chain inserts bisect the
    /// gap, renumbering the chain only when a gap is exhausted.
    fn assign_pos(&mut self, n: u32, prev: u32, next: u32, k: usize) {
        if next == self.sent_t[k] {
            let p = self.nh[prev as usize].pos + GAP;
            self.nh[n as usize].pos = p;
            self.nh[next as usize].pos = p + GAP;
        } else {
            let lo = self.nh[prev as usize].pos;
            let hi = self.nh[next as usize].pos;
            if hi - lo >= 2 {
                self.nh[n as usize].pos = lo + (hi - lo) / 2;
            } else {
                self.renumber_chain(k);
            }
        }
    }

    fn renumber_chain(&mut self, k: usize) {
        let mut pos = 0u64;
        let mut cur = self.sent_s[k];
        loop {
            self.nh[cur as usize].pos = pos;
            pos += GAP;
            let next = self.out[cur as usize * self.stride + k];
            if next == NONE {
                break;
            }
            cur = next;
        }
    }

    fn chain_pred_op(&self, n: u32) -> Option<OpId> {
        let k = self.n_thread[n as usize] as usize;
        let prev = self.inc[n as usize * self.stride + k];
        debug_assert_ne!(prev, NONE, "real nodes have chain predecessors");
        self.op_of[prev as usize]
    }

    /// Wire-class operations occupy no functional unit: each becomes its
    /// own singleton thread, keeping the state a well-formed threaded
    /// graph (Definition 4 with a grown `K`).
    fn schedule_wire(&mut self, v: OpId) -> Result<Placement, SchedError> {
        let k = self.push_thread();
        let placement = Placement {
            thread: k,
            after: None,
            cost: 0,
        };
        self.commit(placement, v);
        let n = self.node_of[v.index()].expect("just committed");
        Ok(Placement {
            cost: self.nh[n as usize].sdist + self.tdist_of(n) - self.nh[n as usize].delay,
            ..placement
        })
    }

    /// Exact `tdist(x)`, repairing the dirty forward cone on demand.
    fn tdist_of(&self, x: u32) -> u64 {
        let mut lz = self.n_tdist.borrow_mut();
        self.repair_tdist(&mut lz, x);
        lz.val[x as usize]
    }

    /// Pull-based repair: recomputes every dirty node in the forward
    /// cone of `x` from its (recursively repaired) out-neighbours.
    fn repair_tdist(&self, lz: &mut TdistLazy, x: u32) {
        if !lz.dirty[x as usize] {
            return;
        }
        let s = self.stride;
        // Repairing a (never-legal) cyclic state would chase dirty
        // nodes around the cycle forever; the stack bound fails fast
        // instead, mirroring the seed's relabel assert.
        let stack_bound = self.op_of.len() * (self.threads + 1) + 64;
        let mut stack = std::mem::take(&mut lz.stack);
        stack.clear();
        stack.push(x);
        while let Some(&y) = stack.last() {
            assert!(stack.len() <= stack_bound, "scheduling state must stay acyclic");
            let yi = y as usize;
            if !lz.dirty[yi] {
                stack.pop();
                continue;
            }
            let mut pending = false;
            for j in 0..self.threads {
                let z = self.out[yi * s + j];
                if z != NONE && lz.dirty[z as usize] {
                    stack.push(z);
                    pending = true;
                }
            }
            if pending {
                continue;
            }
            let mut best = 0;
            for j in 0..self.threads {
                let z = self.out[yi * s + j];
                if z != NONE {
                    best = best.max(lz.val[z as usize]);
                }
            }
            lz.val[yi] = best + self.nh[yi].delay;
            lz.dirty[yi] = false;
            stack.pop();
        }
        lz.stack = stack;
    }

    /// Marks the backward cone of `n` dirty, stopping at already-dirty
    /// nodes. Each node is marked at most once between repairs, so the
    /// steady-state cost per commit is `O(K)` — this is what removes
    /// the seed's full-relabel `Θ(|V|·K)` from every commit.
    fn invalidate_tdist_backward(&self, n: u32, lz: &mut TdistLazy) {
        let s = self.stride;
        let mut stack = std::mem::take(&mut lz.stack);
        stack.clear();
        stack.push(n);
        while let Some(y) = stack.pop() {
            for j in 0..self.threads {
                let p = self.inc[y as usize * s + j];
                if p != NONE && !lz.dirty[p as usize] {
                    lz.dirty[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        lz.stack = stack;
    }

    /// Sizes the scratch buffers and opens a fresh visitation epoch.
    fn prep_scratch(&self, sc: &mut Scratch) {
        if sc.epoch == u32::MAX {
            sc.op_seen.iter_mut().for_each(|e| *e = 0);
            sc.epoch = 0;
        }
        sc.epoch += 1;
        if sc.op_seen.len() < self.core.g.len() {
            sc.op_seen.resize(self.core.g.len(), 0);
        }
        if sc.lo.len() < self.threads {
            sc.lo.resize(self.threads, NONE);
            sc.hi.resize(self.threads, NONE);
        }
    }

    /// `true` iff op `x` has a scheduled strict ancestor: some chain
    /// holds a scheduled op at or before the highest position that
    /// reaches `x`. `O(#chains)`, branchless — this replaces the seed's
    /// `Θ(|V|/64)` closure-row ∩ scheduled-mask probe.
    fn has_scheduled_ancestor(&self, x: usize) -> bool {
        self.core.reach.set_reaches(&self.sched_extrema, x)
    }

    /// `true` iff op `x` has a scheduled strict descendant — the mirror
    /// of [`Self::has_scheduled_ancestor`] against the per-chain
    /// scheduled maxima.
    fn has_scheduled_descendant(&self, x: usize) -> bool {
        self.core.reach.set_reached_by(&self.sched_extrema, x)
    }

    /// Walks the *scheduled frontier* of `v`: the first scheduled
    /// operation along every predecessor (resp. successor) path of the
    /// behavior graph. Every other scheduled ancestor/descendant is
    /// ordered through a frontier member (correctness condition), so the
    /// frontier alone determines the feasible windows and intrinsic
    /// distances. The walk descends through unscheduled ops only, pruned
    /// by `O(#chains)` chain-cover reachability probes.
    fn collect_frontiers(&self, v: OpId, sc: &mut Scratch) {
        let e = sc.epoch;
        sc.preds_f.clear();
        sc.succs_f.clear();
        sc.stack.clear();
        for &p in self.core.g.preds(v) {
            sc.stack.push(p.index() as u32);
        }
        while let Some(x) = sc.stack.pop() {
            let xi = x as usize;
            if sc.op_seen[xi] == e {
                continue;
            }
            sc.op_seen[xi] = e;
            if let Some(n) = self.node_of[xi] {
                sc.preds_f.push(n);
            } else if self.has_scheduled_ancestor(xi) {
                for &p in self.core.g.preds(OpId::from_index(xi)) {
                    sc.stack.push(p.index() as u32);
                }
            }
        }
        // An op's ancestors and descendants are disjoint (DAG), so the
        // epoch marks are shared between the two walks.
        if self.has_scheduled_descendant(v.index()) {
            sc.stack.clear();
            for &q in self.core.g.succs(v) {
                sc.stack.push(q.index() as u32);
            }
            while let Some(x) = sc.stack.pop() {
                let xi = x as usize;
                if sc.op_seen[xi] == e {
                    continue;
                }
                sc.op_seen[xi] = e;
                if let Some(n) = self.node_of[xi] {
                    sc.succs_f.push(n);
                } else if self.has_scheduled_descendant(xi) {
                    for &q in self.core.g.succs(OpId::from_index(xi)) {
                        sc.stack.push(q.index() as u32);
                    }
                }
            }
        }
        // Deterministic rule-application and window order, matching the
        // seed's ancestor-row iteration (increasing op index).
        sc.preds_f.sort_unstable_by_key(|&n| self.op_of[n as usize]);
        sc.succs_f.sort_unstable_by_key(|&n| self.op_of[n as usize]);
    }

    /// Folds the frontier and its reach vectors into per-thread windows
    /// (`sc.lo`/`sc.hi`) and returns `(intrinsic_src, intrinsic_snk)`.
    fn absorb_windows(&self, sc: &mut Scratch) -> (u64, u64) {
        sc.lo[..self.threads].fill(NONE);
        sc.hi[..self.threads].fill(NONE);
        let s = self.stride;
        let mut isrc = 0u64;
        let mut isnk = 0u64;
        for &p in &sc.preds_f {
            let pi = p as usize;
            isrc = isrc.max(self.nh[pi].sdist);
            let tp = self.n_thread[pi] as usize;
            sc.lo[tp] = self.later(sc.lo[tp], p);
            for (j, slot) in sc.lo[..self.threads].iter_mut().enumerate() {
                let r = self.reach_b[pi * s + j];
                if r != NONE {
                    *slot = self.later(*slot, r);
                }
            }
        }
        for &q in &sc.succs_f {
            let qi = q as usize;
            isnk = isnk.max(self.tdist_of(q));
            let tq = self.n_thread[qi] as usize;
            sc.hi[tq] = self.earlier(sc.hi[tq], q);
            for (j, slot) in sc.hi[..self.threads].iter_mut().enumerate() {
                let r = self.reach_f[qi * s + j];
                if r != NONE {
                    *slot = self.earlier(*slot, r);
                }
            }
        }
        (isrc, isnk)
    }

    /// Later (max-pos) of two same-thread nodes; [`NONE`] loses.
    fn later(&self, a: u32, b: u32) -> u32 {
        if a == NONE {
            b
        } else if b == NONE || self.nh[a as usize].pos >= self.nh[b as usize].pos {
            a
        } else {
            b
        }
    }

    /// Earlier (min-pos) of two same-thread nodes; [`NONE`] loses.
    fn earlier(&self, a: u32, b: u32) -> u32 {
        if a == NONE {
            b
        } else if b == NONE || self.nh[a as usize].pos <= self.nh[b as usize].pos {
            a
        } else {
            b
        }
    }

    fn for_each_feasible(
        &self,
        v: OpId,
        mut f: impl FnMut(Placement),
    ) -> Result<(), SchedError> {
        if v.index() >= self.core.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        let kind = self.core.g.kind(v);
        if !(0..self.resources.k()).any(|k| self.resources.compatible(k, kind)) {
            return Err(SchedError::NoCompatibleUnit(v, kind));
        }
        let mut sc = self.scratch.take();
        self.prep_scratch(&mut sc);
        self.collect_frontiers(v, &mut sc);
        let (isrc, isnk) = self.absorb_windows(&mut sc);
        let delay = self.core.g.delay(v);
        let s = self.stride;
        for k in 0..self.resources.k() {
            if !self.resources.compatible(k, kind) {
                continue;
            }
            // The feasible positions form one contiguous window per
            // thread: from the latest state-ancestor (inclusive) up to
            // the earliest state-descendant (exclusive). Start the scan
            // there instead of at the chain head.
            let mut cur = if sc.lo[k] != NONE { sc.lo[k] } else { self.sent_s[k] };
            let hi_pos = if sc.hi[k] != NONE {
                self.nh[sc.hi[k] as usize].pos
            } else {
                u64::MAX
            };
            loop {
                let next = self.out[cur as usize * s + k];
                if next == NONE || self.nh[cur as usize].pos >= hi_pos {
                    break;
                }
                let sd = self.nh[cur as usize].sdist.max(isrc);
                let td = self.tdist_of(next).max(isnk);
                f(Placement {
                    thread: k,
                    after: self.op_of[cur as usize],
                    cost: sd + td + delay,
                });
                cur = next;
            }
        }
        self.scratch.replace(sc);
        Ok(())
    }

    /// Figure 2 rules (a)–(c): link a scheduled G-ancestor `p` to the new
    /// node `n` in thread `k`, keeping only tightest representative edges.
    fn apply_pred_rule(&mut self, p: u32, n: u32, k: usize) {
        let s = self.stride;
        let j = self.n_thread[p as usize] as usize;
        let q = self.out[p as usize * s + k];
        if q != NONE {
            // Rule (a): existing edge to a vertex at or before `n` already
            // implies `p ≺ n` through the chain.
            if q == n || self.nh[q as usize].pos < self.nh[n as usize].pos {
                return;
            }
            // Rule (c): the edge overshoots `n`; retarget it.
            debug_assert_eq!(self.inc[q as usize * s + j], p);
            self.inc[q as usize * s + j] = NONE;
            self.out[p as usize * s + k] = NONE;
        }
        // Rule (b) otherwise: no edge into thread `k` yet.
        let p2 = self.inc[n as usize * s + j];
        if p2 == p {
            self.out[p as usize * s + k] = n;
        } else if p2 != NONE && self.nh[p2 as usize].pos > self.nh[p as usize].pos {
            // A later vertex of thread `j` already guards `n`; `p ≺ p2 ≺ n`.
        } else {
            // `p` is tighter than the recorded predecessor; displace it.
            if p2 != NONE {
                self.out[p2 as usize * s + k] = NONE;
            }
            self.inc[n as usize * s + j] = p;
            self.out[p as usize * s + k] = n;
        }
    }

    /// Figure 2 rules (d)–(f): link the new node `n` (thread `k`) to a
    /// scheduled G-descendant `q`.
    fn apply_succ_rule(&mut self, q: u32, n: u32, k: usize) {
        let s = self.stride;
        let j2 = self.n_thread[q as usize] as usize;
        let u = self.inc[q as usize * s + k];
        if u != NONE {
            // Rule (d): `q` already follows a vertex after `n` in thread
            // `k`; `n ≺ u ≺ q` through the chain.
            if u == n || self.nh[u as usize].pos > self.nh[n as usize].pos {
                return;
            }
            // Rule (f): the edge comes from before `n`; retarget it.
            debug_assert_eq!(self.out[u as usize * s + j2], q);
            self.out[u as usize * s + j2] = NONE;
            self.inc[q as usize * s + k] = NONE;
        }
        // Rule (e) otherwise: no edge from thread `k` yet.
        let q2 = self.out[n as usize * s + j2];
        if q2 == q {
            self.inc[q as usize * s + k] = n;
        } else if q2 != NONE && self.nh[q2 as usize].pos < self.nh[q as usize].pos {
            // An earlier vertex of thread `j2` is already guarded;
            // `n ≺ q2 ≺ q`.
        } else {
            if q2 != NONE {
                self.inc[q2 as usize * s + k] = NONE;
            }
            self.out[n as usize * s + j2] = q;
            self.inc[q as usize * s + k] = n;
        }
    }

    /// Seeds the labels and reach vectors of a freshly linked node from
    /// its (final) direct state edges. The out-neighbours' `tdist` must
    /// already be repaired.
    fn init_new_node(&mut self, n: u32, lz: &mut TdistLazy) {
        let s = self.stride;
        let ni = n as usize;
        let mut sd = 0u64;
        let mut td = 0u64;
        for j in 0..self.threads {
            let m = self.inc[ni * s + j];
            if m != NONE {
                let mi = m as usize;
                sd = sd.max(self.nh[mi].sdist);
                for t in 0..self.threads {
                    let mut c = self.reach_b[mi * s + t];
                    if self.n_thread[mi] as usize == t && self.op_of[mi].is_some() {
                        c = self.later(c, m);
                    }
                    if c != NONE {
                        self.reach_b[ni * s + t] = self.later(self.reach_b[ni * s + t], c);
                    }
                }
            }
            let m = self.out[ni * s + j];
            if m != NONE {
                let mi = m as usize;
                debug_assert!(!lz.dirty[mi], "out-neighbour tdist must be repaired");
                td = td.max(lz.val[mi]);
                for t in 0..self.threads {
                    let mut c = self.reach_f[mi * s + t];
                    if self.n_thread[mi] as usize == t && self.op_of[mi].is_some() {
                        c = self.earlier(c, m);
                    }
                    if c != NONE {
                        self.reach_f[ni * s + t] = self.earlier(self.reach_f[ni * s + t], c);
                    }
                }
            }
        }
        self.nh[ni].sdist = sd + self.nh[ni].delay;
        self.diam = self.diam.max(self.nh[ni].sdist);
        self.note_proj(ni);
        lz.val[ni] = td + self.nh[ni].delay;
        lz.dirty[ni] = false;
    }

    /// Folds node `n`'s current label into the final-diameter lower
    /// bound (no-op for sentinels).
    fn note_proj(&mut self, n: usize) {
        if let Some(op) = self.op_of[n] {
            self.proj = self
                .proj
                .max(self.nh[n].sdist - self.nh[n].delay + self.core.gdist[op.index()]);
        }
    }

    /// Recomputes the static graph sink distances, the projection
    /// maximum and the resource floor from scratch — the cold-path
    /// companion of [`Self::relabel_full`] and
    /// [`Self::sync_graph_growth`] (graph growth only raises `gdist`,
    /// but delay retyping can shrink it, so the running maxima must be
    /// rebuilt, not folded).
    fn refresh_proj(&mut self) {
        let core = Arc::make_mut(&mut self.core);
        core.gdist = hls_ir::algo::sink_distances(&core.g);
        self.proj = 0;
        for n in 0..self.op_of.len() {
            self.note_proj(n);
        }
        self.res_floor = self.resource_floor();
    }

    /// Computes the static resource floor: operations are grouped by
    /// their exact compatible-unit set; each group's delay-sum must
    /// serialise over its units, so `⌈W_U / |U|⌉` lower-bounds every
    /// completed schedule. Wire-class operations occupy no unit and
    /// are exempt. Cold path only (`O(|V| · K)`).
    fn resource_floor(&self) -> u64 {
        let k = self.resources.k();
        let mut groups: std::collections::HashMap<Vec<bool>, u64> =
            std::collections::HashMap::new();
        for v in self.core.g.op_ids() {
            let kind = self.core.g.kind(v);
            if kind.resource_class() == ResourceClass::Wire {
                continue;
            }
            let set: Vec<bool> = (0..k).map(|u| self.resources.compatible(u, kind)).collect();
            if set.iter().any(|&b| b) {
                *groups.entry(set).or_insert(0) += self.core.g.delay(v);
            }
        }
        groups
            .iter()
            .map(|(set, &w)| {
                let units = set.iter().filter(|&&b| b).count() as u64;
                w.div_ceil(units)
            })
            .max()
            .unwrap_or(0)
    }

    /// Increase-only relaxation of `sdist` and the backward reach
    /// vectors over the forward cone of `from`. Edge retargeting during
    /// `commit` only replaces an edge by a longer-or-equal path through
    /// the new node, so labels are monotone and the worklist touches
    /// only nodes whose values actually change.
    ///
    /// The two relaxations are independent (`sdist` never reads the
    /// reach rows and vice versa), so they run as *separate* worklist
    /// passes: the row merge self-limits after a handful of nodes (only
    /// nodes that previously had no later thread-`k` ancestor change),
    /// while the `sdist` cascade of a mid-chain insert runs down the
    /// whole tail cone — keeping its inner loop free of the `threads²`
    /// row merge is the difference between ~4 and ~10 random cache
    /// lines per popped node.
    fn propagate_forward(&mut self, from: u32, sc: &mut Scratch) {
        let s = self.stride;
        let tn = self.threads;
        if sc.in_queue.len() < self.op_of.len() {
            sc.in_queue.resize(self.op_of.len(), false);
        }
        // Pass 1: backward-reach rows over the forward cone.
        sc.queue.clear();
        sc.queue.push(from);
        while let Some(x) = sc.queue.pop() {
            let xi = x as usize;
            sc.in_queue[xi] = false;
            // x's effective row — its backward-reach entries with x
            // itself folded into its own thread's slot — copied out
            // once, so the per-successor merge is slice-to-slice.
            sc.row.clear();
            sc.row.extend_from_slice(&self.reach_b[xi * s..xi * s + tn]);
            if self.op_of[xi].is_some() {
                let t = self.n_thread[xi] as usize;
                sc.row[t] = self.later(sc.row[t], x);
            }
            for j in 0..tn {
                let z = self.out[xi * s + j];
                if z == NONE {
                    continue;
                }
                let zi = z as usize;
                let mut improved = false;
                let nh = &self.nh;
                for (slot, &c) in self.reach_b[zi * s..zi * s + tn].iter_mut().zip(&sc.row) {
                    // Inlined `later(cur, c)` against the split-borrowed
                    // position table.
                    if c != NONE
                        && (*slot == NONE || nh[*slot as usize].pos < nh[c as usize].pos)
                    {
                        *slot = c;
                        improved = true;
                    }
                }
                if improved && !sc.in_queue[zi] {
                    sc.in_queue[zi] = true;
                    sc.queue.push(z);
                }
            }
        }
        // Pass 2: the lean `sdist` cascade.
        sc.queue.clear();
        sc.queue.push(from);
        while let Some(x) = sc.queue.pop() {
            let xi = x as usize;
            sc.in_queue[xi] = false;
            let xsd = self.nh[xi].sdist;
            for j in 0..tn {
                let z = self.out[xi * s + j];
                if z == NONE {
                    continue;
                }
                let zi = z as usize;
                let cand = xsd + self.nh[zi].delay;
                // No legal path exceeds the sum of all delays; a larger
                // label means an invalid placement closed a state cycle
                // and the relaxation is orbiting it.
                assert!(cand <= self.total_delay, "scheduling state must stay acyclic");
                if cand > self.nh[zi].sdist {
                    self.nh[zi].sdist = cand;
                    self.diam = self.diam.max(cand);
                    self.note_proj(zi);
                    if !sc.in_queue[zi] {
                        sc.in_queue[zi] = true;
                        sc.queue.push(z);
                    }
                }
            }
        }
    }

    /// Mirror of [`Self::propagate_forward`] for the forward reach
    /// vectors over the backward cone. (`tdist` itself is *not* pushed
    /// eagerly — see [`TdistLazy`] — because a tail commit's backward
    /// cone is nearly the whole state; reach entries, by contrast, only
    /// change for nodes that previously had no thread-`k` descendant,
    /// so this walk self-limits.)
    fn propagate_reach_backward(&mut self, from: u32, sc: &mut Scratch) {
        let s = self.stride;
        let tn = self.threads;
        if sc.in_queue.len() < self.op_of.len() {
            sc.in_queue.resize(self.op_of.len(), false);
        }
        sc.queue.clear();
        sc.queue.push(from);
        while let Some(x) = sc.queue.pop() {
            let xi = x as usize;
            sc.in_queue[xi] = false;
            sc.row.clear();
            sc.row.extend_from_slice(&self.reach_f[xi * s..xi * s + tn]);
            if self.op_of[xi].is_some() {
                let t = self.n_thread[xi] as usize;
                sc.row[t] = self.earlier(sc.row[t], x);
            }
            for j in 0..tn {
                let z = self.inc[xi * s + j];
                if z == NONE {
                    continue;
                }
                let zi = z as usize;
                let mut improved = false;
                let nh = &self.nh;
                for (slot, &c) in self.reach_f[zi * s..zi * s + tn].iter_mut().zip(&sc.row) {
                    // Inlined `earlier(cur, c)`.
                    if c != NONE
                        && (*slot == NONE || nh[*slot as usize].pos > nh[c as usize].pos)
                    {
                        *slot = c;
                        improved = true;
                    }
                }
                if improved && !sc.in_queue[zi] {
                    sc.in_queue[zi] = true;
                    sc.queue.push(z);
                }
            }
        }
    }

    /// Topological order of the threaded-graph nodes, or `None` if the
    /// state has a cycle (it never should).
    fn topo_nodes(&self) -> Option<Vec<u32>> {
        let s = self.stride;
        let n_nodes = self.op_of.len();
        let mut indeg = vec![0usize; n_nodes];
        for (i, d) in indeg.iter_mut().enumerate() {
            *d = (0..self.threads).filter(|&j| self.inc[i * s + j] != NONE).count();
        }
        let mut queue: Vec<u32> = (0..n_nodes as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head] as usize;
            head += 1;
            for j in 0..self.threads {
                let m = self.out[i * s + j];
                if m != NONE {
                    indeg[m as usize] -= 1;
                    if indeg[m as usize] == 0 {
                        queue.push(m);
                    }
                }
            }
        }
        (queue.len() == n_nodes).then_some(queue)
    }

    /// From-scratch recomputation of labels and reach vectors — the
    /// verification oracle for the incremental engine, and the engine
    /// behind [`Self::relabel_full`].
    fn compute_labels_full(&self) -> Option<FullLabels> {
        let topo = self.topo_nodes()?;
        let s = self.stride;
        let n_nodes = self.op_of.len();
        let mut sdist = vec![0u64; n_nodes];
        let mut tdist = vec![0u64; n_nodes];
        let mut rb = vec![NONE; n_nodes * s];
        let mut rf = vec![NONE; n_nodes * s];
        for &i in &topo {
            let ii = i as usize;
            let mut best = 0;
            for j in 0..self.threads {
                let m = self.inc[ii * s + j];
                if m == NONE {
                    continue;
                }
                let mi = m as usize;
                best = best.max(sdist[mi]);
                for t in 0..self.threads {
                    let mut c = rb[mi * s + t];
                    if self.n_thread[mi] as usize == t && self.op_of[mi].is_some() {
                        c = self.later(c, m);
                    }
                    if c != NONE {
                        rb[ii * s + t] = self.later(rb[ii * s + t], c);
                    }
                }
            }
            sdist[ii] = best + self.nh[ii].delay;
        }
        for &i in topo.iter().rev() {
            let ii = i as usize;
            let mut best = 0;
            for j in 0..self.threads {
                let m = self.out[ii * s + j];
                if m == NONE {
                    continue;
                }
                let mi = m as usize;
                best = best.max(tdist[mi]);
                for t in 0..self.threads {
                    let mut c = rf[mi * s + t];
                    if self.n_thread[mi] as usize == t && self.op_of[mi].is_some() {
                        c = self.earlier(c, m);
                    }
                    if c != NONE {
                        rf[ii * s + t] = self.earlier(rf[ii * s + t], c);
                    }
                }
            }
            tdist[ii] = best + self.nh[ii].delay;
        }
        Some((sdist, tdist, rb, rf))
    }

    /// The paper's `forwardLabel` / `backwardLabel` from scratch — used
    /// only on the cold paths (delay retyping), never per commit.
    fn relabel_full(&mut self) {
        let (sdist, tdist, rb, rf) = self
            .compute_labels_full()
            .expect("scheduling state must stay acyclic");
        for (h, &sd) in self.nh.iter_mut().zip(&sdist) {
            h.sdist = sd;
        }
        // Labels may have shrunk (delay retyping): recompute the cached
        // maxima instead of folding into the running ones.
        self.diam = self.nh.iter().map(|h| h.sdist).max().unwrap_or(0);
        self.refresh_proj();
        let lz = self.n_tdist.get_mut();
        lz.dirty.iter_mut().for_each(|d| *d = false);
        lz.val = tdist;
        self.reach_b = rb;
        self.reach_f = rf;
    }

    /// Absorbs behavior-graph growth (splices, ECO ops) into the
    /// scheduler: resizes the op-indexed tables and repairs the
    /// chain-cover reachability index *locally* — the new ops are
    /// covered by fresh chains and a min/max relaxation walks only the
    /// affected cone ([`ReachIndex::grow`]), replacing the seed's
    /// per-row dense-closure surgery.
    fn sync_graph_growth(&mut self) -> Result<(), SchedError> {
        let old = self.node_of.len();
        let new = self.core.g.len();
        self.node_of.resize(new, None);
        if new == old {
            return Ok(());
        }
        let core = Arc::make_mut(&mut self.core);
        core.reach.try_grow(&core.g)?;
        self.sched_extrema.sync_chain_count(&self.core.reach);
        self.refresh_proj();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    fn fig1_scheduler() -> (ThreadedScheduler, [OpId; 7]) {
        let f = bench_graphs::fig1();
        let ts = ThreadedScheduler::new(f.graph, ResourceSet::uniform(2)).unwrap();
        (ts, f.v)
    }

    #[test]
    fn step_quota_halts_after_exactly_that_many_commits() {
        let g = bench_graphs::hal();
        let n = g.len();
        let order: Vec<OpId> = g.op_ids().collect();
        for quota in [0u64, 1, 3, n as u64, n as u64 + 5] {
            let mut ts = ThreadedScheduler::new(g.clone(), ResourceSet::classic(2, 2)).unwrap();
            let out = ts
                .schedule_all_budgeted(order.iter().copied(), &hls_ir::Budget::steps(quota), |_| false)
                .unwrap();
            let expect = (quota as usize).min(n);
            if expect < n {
                assert_eq!(out, RunOutcome::DeadlineExpired { scheduled: expect });
            } else {
                assert_eq!(out, RunOutcome::Completed);
            }
            assert_eq!(ts.scheduled_count(), expect, "quota {quota}");
            ts.check_invariants().unwrap();
            // The interrupted state is a valid prefix: the run resumes
            // to completion under a fresh budget.
            let resumed = ts
                .schedule_all_budgeted(order.iter().copied(), &hls_ir::Budget::NONE, |_| false)
                .unwrap();
            assert_eq!(resumed, RunOutcome::Completed);
            assert_eq!(ts.scheduled_count(), n);
            ts.check_invariants().unwrap();
        }
    }

    #[test]
    fn skewed_clock_expires_a_wall_deadline_within_one_commit() {
        use std::time::Duration;
        // Every commit advances the injected clock by an hour, so a
        // 30-minute deadline must be seen expired at the first
        // post-commit check — one scheduled op, no more.
        let _armed = hls_ir::faultinject::arm(hls_ir::faultinject::FaultPlan {
            clock_skew_per_commit: Duration::from_secs(3600),
            ..Default::default()
        }
        .in_run("skewed-run"));
        let _scope = hls_ir::faultinject::RunScope::enter("skewed-run");
        let g = bench_graphs::hal();
        let order: Vec<OpId> = g.op_ids().collect();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 2)).unwrap();
        let budget = hls_ir::Budget::deadline_in(Duration::from_secs(1800));
        let out = ts.schedule_all_budgeted(order, &budget, |_| false).unwrap();
        assert_eq!(out, RunOutcome::DeadlineExpired { scheduled: 1 });
        ts.check_invariants().unwrap();
    }

    #[test]
    fn injected_panic_poisons_the_scheduler_not_the_caller() {
        let _armed =
            hls_ir::faultinject::arm(hls_ir::faultinject::FaultPlan::panic_at(3).in_run("victim"));
        let _scope = hls_ir::faultinject::RunScope::enter("victim");
        let g = bench_graphs::hal();
        let order: Vec<OpId> = g.op_ids().collect();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 2)).unwrap();
        let err = ts.schedule_all(order.iter().copied()).unwrap_err();
        assert!(matches!(err, SchedError::Poisoned(_)), "{err}");
        assert!(ts.is_poisoned());
        // Poisoning is sticky: every later call short-circuits.
        let again = ts.schedule(order[0]).unwrap_err();
        assert!(matches!(again, SchedError::Poisoned(_)), "{again}");
        let run = ts
            .schedule_all_budgeted(order.iter().copied(), &hls_ir::Budget::NONE, |_| false)
            .unwrap_err();
        assert!(matches!(run, SchedError::Poisoned(_)), "{run}");
    }

    #[test]
    fn empty_state_has_zero_diameter() {
        let (ts, _) = fig1_scheduler();
        assert_eq!(ts.diameter(), 0);
        assert_eq!(ts.scheduled_count(), 0);
        ts.check_invariants().unwrap();
    }

    #[test]
    fn paper_figure1e_schedule_is_reproduced() {
        // Thread A: 3,4,6,7; thread B: 1,2,5 — the soft schedule of
        // Figure 1(e), 5 states.
        let (mut ts, v) = fig1_scheduler();
        for (op, thread) in [
            (v[2], 0), // 3
            (v[3], 0), // 4
            (v[5], 0), // 6
            (v[6], 0), // 7
            (v[0], 1), // 1
            (v[1], 1), // 2
            (v[4], 1), // 5
        ] {
            // Schedule into the exact threads of Figure 1(e): take the
            // feasible tail position of the desired thread.
            let placements = ts.feasible_placements(op).unwrap();
            let p = placements
                .iter()
                .copied()
                .rfind(|p| p.thread == thread)
                .unwrap();
            ts.commit(p, op);
        }
        ts.check_invariants().unwrap();
        assert_eq!(ts.diameter(), 5);
        assert_eq!(ts.chain(0), vec![v[2], v[3], v[5], v[6]]);
        assert_eq!(ts.chain(1), vec![v[0], v[1], v[4]]);
        // The artificial serialisation 2 ≺ 5 exists in the state even
        // though the dataflow graph has no such edge.
        let snap = ts.snapshot();
        let closure = hls_ir::algo::transitive_closure(&snap.graph);
        let i2 = snap.ops.iter().position(|&o| o == v[1]).unwrap();
        let i5 = snap.ops.iter().position(|&o| o == v[4]).unwrap();
        assert!(closure.get(i2, i5), "2 ≺ 5 must be serialised");
    }

    #[test]
    fn select_is_greedy_diameter_optimal_on_fig1() {
        let (mut ts, v) = fig1_scheduler();
        // Any topological meta order; select must keep the state diameter
        // equal to the best achievable at every step (Theorem 2).
        for op in [v[0], v[2], v[1], v[4], v[3], v[5], v[6]] {
            let best_possible: u64 = ts
                .feasible_placements(op)
                .unwrap()
                .into_iter()
                .map(|p| {
                    let mut clone = ts.clone();
                    clone.commit(p, op);
                    clone.diameter()
                })
                .min()
                .unwrap();
            ts.schedule(op).unwrap();
            assert_eq!(ts.diameter(), best_possible, "scheduling {op}");
            ts.check_invariants().unwrap();
        }
        assert_eq!(ts.diameter(), 5);
    }

    #[test]
    fn schedule_all_until_aborts_on_the_hook_and_reports_progress() {
        let (mut ts, v) = fig1_scheduler();
        // Abort as soon as the certified final-diameter bound reaches
        // 3 — with the graph-tail projection that happens well before
        // the prefix diameter itself does.
        let outcome = ts.schedule_all_until(v, |bound| bound >= 3).unwrap();
        let RunOutcome::Aborted { scheduled } = outcome else {
            panic!("must abort: the full schedule reaches diameter 5");
        };
        assert!(scheduled < 7, "aborted before the full order");
        assert_eq!(ts.scheduled_count(), scheduled);
        assert!(ts.final_lower_bound() >= 3);
        ts.check_invariants().unwrap();
        // A hook that never fires degenerates to schedule_all.
        let (mut ts2, v2) = fig1_scheduler();
        assert_eq!(
            ts2.schedule_all_until(v2, |_| false).unwrap(),
            RunOutcome::Completed
        );
        assert_eq!(ts2.scheduled_count(), 7);
    }

    #[test]
    fn final_lower_bound_is_certified_and_converges_to_the_diameter() {
        let g = bench_graphs::ewf();
        let order = hls_ir::algo::topo_order(&g).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 2)).unwrap();
        // Final diameter of this run, from a twin.
        let mut twin = ts.clone();
        twin.schedule_all(order.iter().copied()).unwrap();
        let final_d = twin.diameter();
        let mut last = 0;
        for &v in &order {
            ts.schedule(v).unwrap();
            let b = ts.final_lower_bound();
            assert!(b <= final_d, "bound {b} overshoots the final diameter {final_d}");
            assert!(b >= last, "bound must be monotone within a run");
            assert!(b >= ts.diameter(), "bound folds the prefix diameter");
            last = b;
        }
        assert_eq!(ts.final_lower_bound(), final_d, "at completion the bound is exact");
    }

    #[test]
    fn retyping_an_unscheduled_op_refreshes_the_bound_caches() {
        // Regression: retype_op mutates the graph even when the op is
        // not yet in the state; the static bound terms must follow or
        // final_lower_bound stops being a lower bound.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Mul, 4, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 1)).unwrap();
        ts.retype_op(a, OpKind::Nop, 0); // before scheduling anything
        ts.schedule_all([a, b]).unwrap();
        assert_eq!(ts.diameter(), 1);
        assert!(ts.final_lower_bound() <= ts.diameter());
        assert!(ts.schedule_lower_bound() <= ts.diameter());
        ts.check_invariants().unwrap();
    }

    #[test]
    fn cached_diameter_tracks_retyping_shrinkage() {
        // retype_op may shrink delays; the cached running maximum must
        // be recomputed, not kept.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Mul, 4, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 1)).unwrap();
        ts.schedule_all([a, b]).unwrap();
        assert_eq!(ts.diameter(), 5);
        ts.retype_op(a, OpKind::Nop, 0);
        assert_eq!(ts.diameter(), 1, "diameter must shrink with the delay");
        ts.check_invariants().unwrap();
    }

    #[test]
    fn distance_matches_placement_cost_and_gates_on_scheduling() {
        let (mut ts, v) = fig1_scheduler();
        assert_eq!(ts.distance(v[0]), None, "unscheduled has no distance");
        let p = ts.schedule(v[0]).unwrap();
        assert_eq!(ts.distance(v[0]), Some(p.cost));
        assert_eq!(ts.distance(OpId::from_index(999)), None);
        // After a full run, critical ops have distance == diameter.
        for op in [v[1], v[2], v[3], v[4], v[5], v[6]] {
            ts.schedule(op).unwrap();
        }
        let crit = ts
            .graph()
            .op_ids()
            .filter(|&op| ts.distance(op) == Some(ts.diameter()))
            .count();
        assert!(crit > 0, "some op must lie on the critical path");
    }

    #[test]
    fn scheduling_is_idempotent() {
        let (mut ts, v) = fig1_scheduler();
        let p1 = ts.schedule(v[0]).unwrap();
        let before = ts.snapshot();
        let p2 = ts.schedule(v[0]).unwrap();
        assert_eq!(p1.thread, p2.thread);
        assert_eq!(ts.scheduled_count(), 1);
        let after = ts.snapshot();
        assert_eq!(before.graph.len(), after.graph.len());
    }

    #[test]
    fn placement_cost_predicts_new_distance() {
        let (mut ts, v) = fig1_scheduler();
        for &op in &[v[0], v[1], v[3], v[2]] {
            let p = ts.select(op).unwrap();
            ts.commit(p, op);
            let n = ts.node_of[op.index()].unwrap();
            assert_eq!(
                ts.nh[n as usize].sdist + ts.tdist_of(n) - ts.nh[n as usize].delay,
                p.cost,
                "select's cost must equal the committed distance of {op}"
            );
        }
    }

    #[test]
    fn no_compatible_unit_is_reported() {
        let g = bench_graphs::hal();
        let muls: Vec<OpId> = g
            .op_ids()
            .filter(|&v| g.kind(v) == hls_ir::OpKind::Mul)
            .collect();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 0)).unwrap();
        assert!(matches!(
            ts.schedule(muls[0]),
            Err(SchedError::NoCompatibleUnit(_, hls_ir::OpKind::Mul))
        ));
    }

    #[test]
    fn unknown_op_is_reported() {
        let (mut ts, _) = fig1_scheduler();
        let bogus = OpId::from_index(999);
        assert_eq!(ts.schedule(bogus), Err(SchedError::UnknownOp(bogus)));
    }

    #[test]
    fn typed_threads_respect_compatibility() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let order = hls_ir::algo::topo_order(&g).unwrap();
        let mut ts = ThreadedScheduler::new(g, r).unwrap();
        ts.schedule_all(order).unwrap();
        ts.check_invariants().unwrap();
        for v in ts.graph().op_ids() {
            let k = ts.thread_of(v).unwrap();
            assert!(
                ts.resources().compatible(k, ts.graph().kind(v)),
                "{v} on incompatible thread {k}"
            );
        }
    }

    #[test]
    fn diameter_is_monotone_under_scheduling() {
        let g = bench_graphs::ewf();
        let order = hls_ir::algo::topo_order(&g).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(2, 1)).unwrap();
        let mut last = 0;
        for v in order {
            ts.schedule(v).unwrap();
            let d = ts.diameter();
            assert!(d >= last, "Lemma 4 violated at {v}");
            last = d;
        }
    }

    #[test]
    fn extract_hard_matches_state_diameter_and_validates() {
        let g = bench_graphs::fir();
        let r = ResourceSet::classic(2, 2);
        let order = hls_ir::algo::topo_order(&g).unwrap();
        let mut ts = ThreadedScheduler::new(g, r.clone()).unwrap();
        ts.schedule_all(order).unwrap();
        let hard = ts.extract_hard();
        assert_eq!(hard.length(ts.graph()), ts.diameter());
        hls_ir::schedule::validate(ts.graph(), &r, &hard).unwrap();
    }

    #[test]
    fn wire_ops_get_singleton_threads() {
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let w = g.add_op(OpKind::WireDelay, 1, "w");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, w).unwrap();
        g.add_edge(w, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 0)).unwrap();
        ts.schedule_all([a, w, b]).unwrap();
        ts.check_invariants().unwrap();
        assert_eq!(ts.thread_count(), 2);
        assert_eq!(ts.thread_of(w), Some(1));
        assert_eq!(ts.diameter(), 3);
        let hard = ts.extract_hard();
        assert_eq!(hard.unit(w), None);
        assert_eq!(hard.start(b), Some(2));
    }

    #[test]
    fn refine_splice_absorbs_a_spill() {
        // Figure 1(c) scenario: spill the value of vertex 3; the threaded
        // schedule stretches from 5 to 6 states (the paper's number).
        let (mut ts, v) = fig1_scheduler();
        for (op, thread) in [
            (v[2], 0),
            (v[3], 0),
            (v[5], 0),
            (v[6], 0),
            (v[0], 1),
            (v[1], 1),
            (v[4], 1),
        ] {
            let placements = ts.feasible_placements(op).unwrap();
            let p = placements.iter().copied().rfind(|p| p.thread == thread).unwrap();
            ts.commit(p, op);
        }
        assert_eq!(ts.diameter(), 5);
        let inserted = ts
            .refine_splice(
                v[2],
                v[3],
                [
                    (OpKind::WireDelay, 1, "st".to_string()),
                    (OpKind::WireDelay, 1, "ld".to_string()),
                ],
            )
            .unwrap();
        assert_eq!(inserted.len(), 2);
        ts.check_invariants().unwrap();
        assert_eq!(ts.diameter(), 6, "paper: spill stretches 5 -> 6 states");
    }

    #[test]
    fn refine_add_op_rejects_cycles() {
        let (mut ts, v) = fig1_scheduler();
        ts.schedule_all(v).unwrap();
        let err = ts.refine_add_op(OpKind::Add, 1, "bad", &[v[6]], &[v[0]]);
        assert!(matches!(err, Err(SchedError::WouldCycle(_))));
    }

    #[test]
    fn state_dot_shows_threads_and_both_edge_styles() {
        let (mut ts, v) = fig1_scheduler();
        ts.schedule_all(v).unwrap();
        let dot = ts.state_to_dot("fig1");
        assert!(dot.starts_with("digraph \"fig1\""));
        assert!(dot.contains("style=solid"), "chain edges present");
        assert!(dot.contains("thr 0"));
        assert!(dot.contains("thr 1"));
        // No sentinels leak into the rendering: node count = 7.
        assert_eq!(dot.matches("fillcolor").count(), 7);
    }

    #[test]
    fn snapshot_spans_exactly_the_scheduled_ops() {
        let (mut ts, v) = fig1_scheduler();
        ts.schedule(v[0]).unwrap();
        ts.schedule(v[2]).unwrap();
        let snap = ts.snapshot();
        assert_eq!(snap.graph.len(), 2);
        assert_eq!(snap.ops.len(), 2);
        assert!(snap.ops.contains(&v[0]));
        assert!(snap.ops.contains(&v[2]));
    }

    #[test]
    fn repeated_head_insertion_exhausts_gaps_and_renumbers() {
        // 200 independent ops forced into the head of one thread: the
        // midpoint positions collapse until renumber_chain fires (many
        // times), and the state must stay coherent throughout.
        let mut g = PrecedenceGraph::new();
        let ids: Vec<OpId> = (0..200)
            .map(|i| g.add_op(OpKind::Add, 1, format!("h{i}")))
            .collect();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::uniform(1)).unwrap();
        for &v in &ids {
            ts.commit(
                Placement {
                    thread: 0,
                    after: None,
                    cost: 0,
                },
                v,
            );
        }
        ts.check_invariants().unwrap();
        let chain = ts.chain(0);
        let reversed: Vec<OpId> = ids.iter().rev().copied().collect();
        assert_eq!(chain, reversed, "head insertion reverses the order");
        assert_eq!(ts.diameter(), 200);
    }

    #[test]
    #[should_panic(expected = "scheduling state must stay acyclic")]
    fn forged_placement_that_closes_a_cycle_fails_fast() {
        // commit() documents panicking on placements not produced by
        // select(): placing an ancestor *after* its scheduled
        // descendant closes a state cycle, and the incremental engine
        // must fail fast like the seed's relabel did.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::uniform(1)).unwrap();
        ts.schedule(b).unwrap();
        ts.commit(
            Placement {
                thread: 0,
                after: Some(b),
                cost: 0,
            },
            a,
        );
    }

    #[test]
    fn identity_graft_matches_scheduling_the_extension_directly() {
        use hls_ir::Budget;
        // Schedule a base graph, extend it with a small cone, graft it
        // through the identity map.
        let base = hls_ir::bench_graphs::ewf();
        let resources = ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1);
        let order = crate::meta::MetaSchedule::ListBased
            .order(&base, &resources)
            .unwrap();
        let mut ts = ThreadedScheduler::new(base.clone(), resources.clone()).unwrap();
        ts.schedule_all(order).unwrap();

        let mut target = base.clone();
        let sinks = target.sinks();
        let c1 = target.add_op(OpKind::Add, 1, "eco1");
        target.add_edge(sinks[0], c1).unwrap();
        let c2 = target.add_op(OpKind::Add, 1, "eco2");
        target.add_edge(c1, c2).unwrap();
        // A new op whose pred has a *larger* id than an earlier new op
        // (exercises the deferred-edge path).
        let c3 = target.add_op(OpKind::Mul, 2, "eco3");
        target.add_edge(c3, c2).unwrap();

        let identity = |n: usize| (0..n).map(OpId::from_index).collect::<Vec<_>>();
        let mut map = identity(base.len());
        let added = ts.refine_graft(&target, &mut map, &Budget::NONE).unwrap();
        assert_eq!(added, vec![c1, c2, c3]);
        assert_eq!(map, identity(target.len()), "the identity map stays the identity");
        assert!(ts.graph().extends(&target) && target.extends(ts.graph()));
        ts.check_invariants().unwrap();
        let hard = ts.extract_hard();
        hls_ir::schedule::validate(&target, &resources, &hard).unwrap();

        // Non-extensions and exhausted budgets are typed errors: the
        // base is not an extension of the longer target.
        let mut ts2 = ThreadedScheduler::new(target.clone(), resources.clone()).unwrap();
        assert!(matches!(
            ts2.refine_graft(&base, &mut identity(target.len()), &Budget::NONE),
            Err(SchedError::NotAnExtension)
        ));
        let mut ts3 = ThreadedScheduler::new(base.clone(), resources).unwrap();
        assert!(matches!(
            ts3.refine_graft(&target, &mut identity(base.len()), &Budget::steps(1)),
            Err(SchedError::Timeout)
        ));
    }

    #[test]
    fn refine_graft_extends_a_state_whose_ids_have_diverged() {
        use hls_ir::Budget;
        // Schedule the base, then mutate the state's behavior the way
        // the flow does (append a refinement op), so target ids no
        // longer line up with state ids — the case the submitted-index
        // map exists for.
        let base = hls_ir::bench_graphs::ewf();
        let resources = ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1);
        let order = crate::meta::MetaSchedule::ListBased
            .order(&base, &resources)
            .unwrap();
        let mut ts = ThreadedScheduler::new(base.clone(), resources).unwrap();
        ts.schedule_all(order).unwrap();
        let sink = ts.graph().sinks()[0];
        ts.refine_add_op(OpKind::Nop, 1, "wire", &[sink], &[])
            .unwrap();

        let mut target = base.clone();
        let sinks = target.sinks();
        let c1 = target.add_op(OpKind::Add, 1, "eco1");
        target.add_edge(sinks[0], c1).unwrap();
        let c2 = target.add_op(OpKind::Mul, 2, "eco2");
        target.add_edge(c1, c2).unwrap();

        let mut map: Vec<OpId> = (0..base.len()).map(OpId::from_index).collect();
        let before = ts.graph().len();
        let added = ts.refine_graft(&target, &mut map, &Budget::NONE).unwrap();
        assert_eq!(added.len(), 2);
        assert_eq!(map.len(), target.len());
        // The grafted ops landed beyond the diverged prefix, wired to
        // the *mapped* endpoints.
        assert!(added.iter().all(|v| v.index() >= before));
        assert!(ts.graph().has_edge(sinks[0], map[c1.index()]));
        assert!(ts.graph().has_edge(map[c1.index()], map[c2.index()]));
        ts.check_invariants().unwrap();

        // Budget expiry stays typed.
        let mut map2: Vec<OpId> = (0..base.len()).map(OpId::from_index).collect();
        assert!(matches!(
            ts.refine_graft(&target, &mut map2, &Budget::steps(0)),
            Err(SchedError::Timeout)
        ));
    }

    #[test]
    fn wire_threads_grow_the_stride_coherently() {
        // Enough wire ops to force several stride doublings.
        let mut g = PrecedenceGraph::new();
        let mut prev = g.add_op(OpKind::Add, 1, "a0");
        let mut all = vec![prev];
        for i in 0..20 {
            let w = g.add_op(OpKind::WireDelay, 1, format!("w{i}"));
            g.add_edge(prev, w).unwrap();
            prev = w;
            all.push(w);
        }
        let mut ts = ThreadedScheduler::new(g, ResourceSet::uniform(1)).unwrap();
        ts.schedule_all(all).unwrap();
        ts.check_invariants().unwrap();
        assert_eq!(ts.thread_count(), 21);
        assert_eq!(ts.diameter(), 21);
    }
}
