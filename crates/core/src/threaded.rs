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
//! practice (see `DESIGN.md` §4 and the `bench scaling` study). Compared to
//! the frozen [`crate::ReferenceScheduler`] seed it differs only in
//! *how* the same state is computed:
//!
//! * node storage is structure-of-arrays (`inc[n·K + j]`, one column
//!   per functional unit) instead of per-node heap vectors; a wire op
//!   is the only member of a thread of its own, so it takes no column:
//!   the state edges touching it live in an ordered side set (see
//!   [`Edges`]);
//! * chain positions are *gap numbered* (spacing `2³²`, midpoint
//!   insertion), so renumbering is amortized `O(1)` instead of a full
//!   chain walk per commit;
//! * `sdist`/`tdist` are maintained by increase-only worklist relaxation
//!   over the affected cone instead of a full `relabel()` per commit;
//! * every node carries *reach vectors* — its latest per-thread
//!   state-ancestor and earliest per-thread state-descendant — so
//!   `select` computes its feasible windows from the scheduled frontier
//!   in `O(K²)` instead of marking the whole state;
//! * the frontier walk's "any scheduled ancestor/descendant" pruning
//!   reads two bits per op instead of the dense `Θ(|V|²)`-bit
//!   ancestor/descendant closure matrices the seed carries. Ops are
//!   never unscheduled, so each bit only ever turns on: a commit marks
//!   the new op's cone, a growth marks the new ops from their
//!   neighbours, and every walk stops at ops already marked, so a
//!   whole run costs `O(|V| + |E|)` (see `DESIGN.md` §5);
//! * behavior growth (splice, ECO op) raises the static sink distances
//!   and the lower-bound caches over the new ops' backward cone only,
//!   so absorbing a wire delay costs its cone, not the design.
//!
//! The golden-equivalence suite (`tests/golden_equivalence.rs`) pins the
//! observable behavior — placement sequences and extracted schedules —
//! to the reference implementation.

use crate::{SchedError, soft::StateSnapshot};
use hls_ir::{
    HardSchedule, KindWork, OpId, OpKind, Operand, PrecedenceGraph, ReachIndex, ResourceClass,
    ResourceSet,
};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Missing-edge / missing-node sentinel in the flat edge and reach
/// tables.
const NONE: u32 = u32::MAX;

/// Edge direction: successors.
const OUT: usize = 0;
/// Edge direction: predecessors.
const IN: usize = 1;

/// The edges of the threaded graph. Per direction, a node keeps its
/// neighbours in the unit threads in a `k`-wide row —
/// `rows[OUT][n·k + j]` is its successor in thread `j`, at most one per
/// thread (Lemma 7), [`NONE`] when absent. A wire op is the only member
/// of its thread, so its edges take no column: each is one
/// `(node, wire neighbour)` entry of an ordered side set, where a
/// node's entries form one range. A node without wire neighbours pays
/// nothing for them, and the rows never widen as wire ops are absorbed.
#[derive(Clone, Debug, Default)]
struct Edges {
    /// Row width: the number of functional units.
    k: usize,
    rows: [Vec<u32>; 2],
    side: [BTreeSet<(u32, u32)>; 2],
}

impl Edges {
    fn push_node(&mut self) {
        for row in &mut self.rows {
            row.extend(std::iter::repeat_n(NONE, self.k));
        }
    }

    /// `n`'s `dir` neighbour in unit thread `j`, or [`NONE`].
    fn at(&self, n: u32, dir: usize, j: usize) -> u32 {
        self.rows[dir][n as usize * self.k + j]
    }

    /// Every neighbour of `n` in direction `dir`: the row entries, then
    /// the side entries.
    fn walk(&self, n: u32, dir: usize) -> Walk<'_> {
        let row = n as usize * self.k;
        let side = &self.side[dir];
        Walk {
            row: self.rows[dir][row..row + self.k].iter(),
            // A state without wire edges skips the range lookup.
            side: (!side.is_empty()).then(|| side.range((n, 0)..=(n, NONE))),
        }
    }

    /// Records the edge `a → b`; `ta`/`tb` are the endpoints' threads.
    fn link(&mut self, a: u32, ta: usize, b: u32, tb: usize) {
        self.set(a, OUT, b, tb, true);
        self.set(b, IN, a, ta, true);
    }

    /// Drops the edge `a → b`; `ta`/`tb` are the endpoints' threads.
    fn unlink(&mut self, a: u32, ta: usize, b: u32, tb: usize) {
        self.set(a, OUT, b, tb, false);
        self.set(b, IN, a, ta, false);
    }

    /// Enters (`on`) or removes `m`, of thread `t`, as a `dir`
    /// neighbour of `n`.
    fn set(&mut self, n: u32, dir: usize, m: u32, t: usize, on: bool) {
        if t < self.k {
            let slot = &mut self.rows[dir][n as usize * self.k + t];
            debug_assert!(on || *slot == m, "dropped edge must be recorded");
            *slot = if on { m } else { NONE };
        } else if on {
            self.side[dir].insert((n, m));
        } else {
            assert!(self.side[dir].remove(&(n, m)), "dropped edge must be recorded");
        }
    }
}

/// Iterator of [`Edges::walk`].
struct Walk<'a> {
    row: std::slice::Iter<'a, u32>,
    side: Option<std::collections::btree_set::Range<'a, (u32, u32)>>,
}

impl Iterator for Walk<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if let Some(&m) = self.row.by_ref().find(|&&m| m != NONE) {
            return Some(m);
        }
        self.side.as_mut()?.next().map(|&(_, m)| m)
    }
}

/// The immutable graph-side state of a scheduler: the behavior graph,
/// its static sink distances and its per-kind delay sums. Everything
/// in here is a pure function of the *behavior* — it never changes
/// while operations are merely scheduled, only under
/// behavior-extending refinement (splice, add-op, retype). The
/// scheduler holds it behind an [`Arc`] so clones
/// (portfolio runs, serve-cache templates) share one copy; refinement goes through
/// [`Arc::make_mut`] copy-on-write.
#[derive(Clone, Debug)]
struct GraphCore {
    g: PrecedenceGraph,
    /// Static behavior-graph sink distances `‖v→‖_G` (inclusive),
    /// indexed by op — the tail term of the final-diameter lower
    /// bound. Graph growth only adds paths, so it raises these in
    /// place over the new ops' backward cone
    /// ([`ThreadedScheduler::sync_graph_growth`]); delay retyping,
    /// which can lower them, recomputes them
    /// ([`ThreadedScheduler::refresh_proj`]).
    gdist: Vec<u64>,
    /// [`hls_ir::kind_work`] of `g`, kept current the same way: the
    /// input of the cached resource floor.
    work: KindWork,
}

/// `(sdist, tdist, reach_b, reach_f)` of a from-scratch recomputation.
type FullLabels = (Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>);

/// Gap between freshly numbered chain positions. Midpoint insertion
/// needs ~32 inserts into the same gap before a chain renumber; tail
/// inserts extend the numbering instead and never exhaust it.
const GAP: u64 = 1 << 32;

/// How a [`ThreadedScheduler::schedule_all_budgeted`] run ended.
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
    /// Growth's backward raise: `(pre-growth gdist, raised gdist, op)`,
    /// popped lowest pre-growth value first, ties highest value first.
    raise_heap: BinaryHeap<(Reverse<u64>, u64, u32)>,
    /// Per op stamped in `op_seen`: its `gdist` before the growth step.
    gdist_was: Vec<u64>,
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
    /// The immutable graph-side core — behavior graph, static sink
    /// distances — shared (`Arc`) across scheduler clones: a portfolio
    /// of runs over one behavior, or a cached state the serve daemon
    /// clones per request, pays for the graph once. Refinement operations that *do*
    /// extend the behavior (splice, add-op, retype) go through
    /// [`Arc::make_mut`] — copy-on-write, so divergent clones stay
    /// isolated while read-only clones stay free.
    core: Arc<GraphCore>,
    /// Per op: whether it has a scheduled strict ancestor in the
    /// behavior graph. Monotone — ops are never unscheduled — so the
    /// set of marked ops only grows and stays closed under successors.
    has_sched_anc: Vec<bool>,
    /// Per op: whether it has a scheduled strict descendant — the
    /// mirror of `has_sched_anc`, closed under predecessors.
    has_sched_desc: Vec<bool>,
    resources: ResourceSet,
    /// Cached state diameter `max(sdist)`. `sdist` labels only grow
    /// under scheduling (Lemma 4; delay retyping relabels and
    /// recomputes), so the cache is a running maximum — this makes
    /// [`ThreadedScheduler::diameter`] `O(1)`, cheap enough for the
    /// per-operation early-abort probes of
    /// [`ThreadedScheduler::schedule_all_budgeted`].
    diam: u64,
    /// Running maximum of `sdist(a) − D(a) + ‖a→‖_G` over scheduled
    /// ops: a certified lower bound on the diameter any *completed*
    /// run extending this state must reach (every graph descendant of
    /// `a` still has to be ordered after it — the correctness
    /// condition). Much tighter than the prefix diameter early in a
    /// run; see [`ThreadedScheduler::final_lower_bound`].
    proj: u64,
    /// Cached [`ResourceSet::work_floor`] of the working graph — the
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
    /// The state edges: `K`-wide unit rows plus the wire side sets.
    edges: Edges,
    /// Reach vectors over the unit threads: `reach_b[n·K + j]` is the
    /// latest (max `pos`) thread-`j` state-ancestor of `n`; `reach_f`
    /// the earliest state-descendant. [`NONE`] when the thread holds
    /// no such node.
    reach_b: Vec<u32>,
    reach_f: Vec<u32>,
    /// Per unit thread: source/sink sentinel node indices. Wire
    /// threads have no chain, hence no sentinels.
    sent_s: Vec<u32>,
    sent_t: Vec<u32>,
    /// Per wire thread, in scheduling order: its one node. Wire thread
    /// `i` is thread `K + i` of the public numbering.
    wire_nodes: Vec<u32>,
    /// Per op: its node, if scheduled.
    node_of: Vec<Option<u32>>,
    /// Per node: its op (`None` for sentinels).
    op_of: Vec<Option<OpId>>,
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
        let gdist = hls_ir::algo::sink_distances(&g);
        let work = hls_ir::kind_work(&g);
        let k = resources.k();
        let mut ts = ThreadedScheduler {
            node_of: vec![None; g.len()],
            has_sched_anc: vec![false; g.len()],
            has_sched_desc: vec![false; g.len()],
            core: Arc::new(GraphCore { g, gdist, work }),
            resources,
            diam: 0,
            proj: 0,
            res_floor: 0,
            n_thread: Vec::with_capacity(2 * k),
            nh: Vec::new(),
            n_tdist: RefCell::new(TdistLazy::default()),
            edges: Edges { k, ..Edges::default() },
            reach_b: Vec::new(),
            reach_f: Vec::new(),
            sent_s: Vec::with_capacity(k),
            sent_t: Vec::with_capacity(k),
            wire_nodes: Vec::new(),
            op_of: Vec::new(),
            poisoned: None,
            total_delay: 0,
            history: Vec::new(),
            scratch: RefCell::new(Scratch::default()),
        };
        for j in 0..k {
            let s_node = ts.alloc_raw_node(j, 0);
            let t_node = ts.alloc_raw_node(j, 0);
            ts.edges.link(s_node, j, t_node, j);
            ts.nh[t_node as usize].pos = GAP;
            ts.sent_s.push(s_node);
            ts.sent_t.push(t_node);
        }
        ts.res_floor = ts.resources.floor_of(&ts.core.work);
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

    /// Current number of threads: one per functional unit, then one
    /// per scheduled wire-class op.
    pub fn thread_count(&self) -> usize {
        self.resources.k() + self.wire_nodes.len()
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
        if let Some(i) = k.checked_sub(self.resources.k()) {
            let n = self.wire_nodes[i];
            return vec![self.op_of[n as usize].expect("wire nodes are real ops")];
        }
        let mut out = Vec::new();
        let mut cur = self.edges.at(self.sent_s[k], OUT, k);
        while cur != self.sent_t[k] {
            out.push(self.op_of[cur as usize].expect("chain nodes are real ops"));
            cur = self.edges.at(cur, OUT, k);
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
    /// [`ThreadedScheduler::schedule_all_budgeted`] reports: it lets a
    /// portfolio run prove it cannot beat an incumbent long before its
    /// prefix diameter says so.
    pub fn final_lower_bound(&self) -> u64 {
        self.diam.max(self.proj).max(self.res_floor)
    }

    /// A certified lower bound on *any* complete schedule of the
    /// behavior under the current resources, independent of this
    /// state: the behavior-graph diameter folded with the resource
    /// floor. A schedule whose length equals this value is provably
    /// optimal.
    pub fn schedule_lower_bound(&self) -> u64 {
        self.res_floor
            .max(self.core.gdist.iter().copied().max().unwrap_or(0))
    }

    /// A chain-cover reachability index over the working behavior
    /// graph, built on demand. A diagnostic for tooling (the chain
    /// count of the grown graph, pair probes): the scheduler itself
    /// keeps no index, and each call pays a full
    /// [`ReachIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds the index's capacity (see
    /// [`ReachIndex::try_build`]).
    pub fn reach_index(&self) -> ReachIndex {
        ReachIndex::build(&self.core.g)
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
    /// early-abort hook and a cooperative [`hls_ir::Budget`].
    ///
    /// After every scheduled operation, `abort` is called with the
    /// current
    /// [`final-diameter lower bound`](ThreadedScheduler::final_lower_bound);
    /// returning `true` stops the run and reports how far it got. The
    /// bound is monotone and certified, so the parallel portfolio
    /// (`hls-search`) aborts a run as soon as it cannot beat a
    /// completed rival without changing the result. The hook costs
    /// `O(1)` per operation; pass `|_| false` for none.
    ///
    /// The budget ([`hls_ir::Budget::NONE`] for none) is checked before
    /// *every* commit, so a run never overshoots its deadline by more
    /// than the one commit in flight:
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
    fn select_late(&self, v: OpId) -> Result<Placement, SchedError> {
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
            let mut cur = self.edges.at(next, IN, k);
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
                cur = self.edges.at(cur, IN, k);
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
    fn schedule_late(&mut self, v: OpId) -> Result<Placement, SchedError> {
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
    /// Panics if the placement's thread is not a functional unit (a
    /// wire thread has no chain to insert into; wire ops go through
    /// [`ThreadedScheduler::schedule`]) or its `after` operation is not
    /// in that thread (placements must come from this scheduler's
    /// `select`/`feasible_placements` on the current state).
    pub fn commit(&mut self, placement: Placement, v: OpId) {
        assert!(
            placement.thread < self.resources.k(),
            "placement thread {} is not a functional unit",
            placement.thread
        );
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
        let k = placement.thread;
        let n = if k < self.resources.k() {
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
            let next = self.edges.at(pos_node, OUT, k);
            assert_ne!(next, NONE, "chain is closed by sentinels");
            self.edges.link(n, k, next, k);
            self.edges.link(pos_node, k, n, k);
            self.assign_pos(n, pos_node, next, k);
            n
        } else {
            // A wire op opens the next wire thread, of which it stays
            // the only member.
            debug_assert_eq!(k, self.thread_count(), "wire threads are numbered in order");
            let n = self.alloc_raw_node(k, self.core.g.delay(v));
            self.wire_nodes.push(n);
            n
        };

        self.node_of[v.index()] = Some(n);
        self.op_of[n as usize] = Some(v);

        // Figure 2 rules for the scheduled frontier (dominated ancestors
        // and descendants are already ordered through it — DESIGN.md §4).
        let mut sc = std::mem::take(self.scratch.get_mut());
        if !frontier_ready {
            self.prep_scratch(&mut sc);
            self.collect_frontiers(v, &mut sc);
        }
        let g = &self.core.g;
        mark_cone(g, &mut self.has_sched_anc, v, OUT, &mut sc.stack);
        mark_cone(g, &mut self.has_sched_desc, v, IN, &mut sc.stack);
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
        for m in self.edges.walk(n, OUT) {
            self.repair_tdist(&mut lz, m);
        }
        self.init_new_node(n, &mut lz);
        sc.in_queue.resize(self.op_of.len(), false);
        self.propagate_reach(n, OUT, &mut sc);
        self.propagate_reach(n, IN, &mut sc);
        self.propagate_sdist(n, &mut sc);
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
            for m in self.edges.walk(n as u32, OUT) {
                if let Some(succ) = self.op_of[m as usize] {
                    let st = sched.start(succ).expect("state successors are scheduled");
                    latest = latest.min(st);
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
            for m in self.edges.walk(n as u32, OUT) {
                if self.op_of[m as usize].is_some() {
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
        self.sync_graph_growth();
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
    /// The new edges close a cycle exactly when some of `succs`
    /// reaches some of `preds`, so the check is a forward search from
    /// `succs`: it costs their descendant cone, nothing for an op
    /// without successors. Both checks run before the graph is
    /// touched, so a rejected op leaves the state as it was.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::UnknownOp`] for an id in `preds` or
    /// `succs` outside the graph and [`SchedError::WouldCycle`] (with
    /// the id the op would have had) if the new edges close a cycle,
    /// plus the scheduling errors of [`ThreadedScheduler::schedule`].
    pub fn refine_add_op(
        &mut self,
        kind: OpKind,
        delay: u64,
        label: impl Into<String>,
        preds: &[OpId],
        succs: &[OpId],
    ) -> Result<OpId, SchedError> {
        let len = self.core.g.len();
        if let Some(&u) = preds.iter().chain(succs).find(|u| u.index() >= len) {
            return Err(SchedError::UnknownOp(u));
        }
        if self.reaches_any(succs, preds) {
            return Err(SchedError::WouldCycle(OpId::from_index(len)));
        }
        let core = Arc::make_mut(&mut self.core);
        let v = core.g.add_op(kind, delay, label);
        for &p in preds {
            core.g.add_edge(p, v).expect("endpoints checked above");
        }
        for &q in succs {
            core.g.add_edge(v, q).expect("endpoints checked above");
        }
        self.sync_graph_growth();
        self.schedule(v)?;
        Ok(v)
    }

    /// Grafts the ops of `target` beyond `map.len()` onto this state,
    /// translating edge endpoints through `map` (submitted-graph index
    /// → id in this state), by
    /// [`refine_add_op`](Self::refine_add_op)-ing each new operation in
    /// id order, with its edges attached as both endpoints become
    /// available, then copying each new operation's operands through
    /// the same map. Only the added cone is scheduled. This is the one
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
    /// is shorter than `map`, or a delta op's edge or operand points
    /// at an op the map does not cover; [`SchedError::Malformed`] if
    /// `map` carries duplicate entries (two submitted indices aliasing
    /// one scheduled op — translating through such a map would silently
    /// merge their edge sets, last-write-wins); [`SchedError::Timeout`]
    /// on budget expiry; otherwise the errors of
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
        // Operands go on once the whole delta has ids, so a delta op
        // may read a later one. Inputs and constants carry over as
        // they are.
        for (i, &id) in (base_len..target.len()).zip(&added) {
            let operands = target
                .operands(OpId::from_index(i))
                .iter()
                .map(|o| match o {
                    Operand::Op(e) => map
                        .get(e.index())
                        .map(|&m| Operand::Op(m))
                        .ok_or(SchedError::NotAnExtension),
                    other => Ok(other.clone()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Arc::make_mut(&mut self.core).g.set_operands(id, operands);
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
            for m in self.edges.walk(n as u32, OUT) {
                if self.op_of[m as usize].is_none() {
                    continue;
                }
                let same = self.n_thread[m as usize] == self.n_thread[n];
                let style = if same { "solid" } else { "dashed" };
                let _ = writeln!(out, "  n{n} -> n{m} [style={style}];");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Changes the kind and delay of each `(op, kind, delay)` in place —
    /// the SSA φ resolution of the paper's Section 1 (a φ becomes a
    /// register move or a void operation only after register
    /// allocation). The state's partial order is untouched; only the
    /// labels move, and the state is relabelled once for the whole
    /// batch. An empty batch changes nothing.
    ///
    /// Each new kind must stay zero-resource (or match the thread the
    /// operation already occupies); this is the caller's contract.
    pub fn retype_ops(&mut self, retypes: &[(OpId, OpKind, u64)]) {
        if retypes.is_empty() {
            return;
        }
        let core = Arc::make_mut(&mut self.core);
        let mut in_state = false;
        for &(v, kind, delay) in retypes {
            core.g.set_kind(v, kind);
            core.g.set_delay(v, delay);
            if let Some(n) = self.node_of[v.index()] {
                self.total_delay = self.total_delay - self.nh[n as usize].delay + delay;
                self.nh[n as usize].delay = delay;
                in_state = true;
            }
        }
        if in_state {
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
    /// recomputation), and exact agreement of the per-op
    /// scheduled-ancestor/descendant bits with a from-scratch
    /// topological recomputation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let k_units = self.resources.k();
        let e = &self.edges;
        let n_nodes = self.op_of.len();
        if e.k != k_units
            || [&e.rows[OUT], &e.rows[IN], &self.reach_b, &self.reach_f]
                .iter()
                .any(|t| t.len() != n_nodes * k_units)
        {
            return Err(format!("flat tables are not {n_nodes} x {k_units}"));
        }
        // Wire thread `i` is thread `K + i` and holds one node.
        let wires: Vec<u32> = (0..n_nodes as u32)
            .filter(|&n| self.n_thread[n as usize] as usize >= k_units)
            .collect();
        let numbered = |(i, &w): (usize, &u32)| self.n_thread[w as usize] as usize == k_units + i;
        if wires != self.wire_nodes || !wires.iter().enumerate().all(numbered) {
            return Err("wire threads are not one node each, numbered in order".to_string());
        }
        // Row column `j` holds a thread-`j` node and the side sets hold
        // wire ops; every edge is recorded once at each end.
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for n in 0..n_nodes as u32 {
            for dir in [OUT, IN] {
                let row = &e.rows[dir][n as usize * k_units..(n as usize + 1) * k_units];
                if let Some((j, _)) = row.iter().enumerate().find(|&(j, &m)| {
                    m != NONE && self.n_thread[m as usize] as usize != j
                }) {
                    return Err(format!("node {n}: row column {j} holds another thread's node"));
                }
                let mut side = e.side[dir].range((n, 0)..=(n, NONE));
                if side.any(|&(_, m)| (self.n_thread[m as usize] as usize) < k_units) {
                    return Err(format!("node {n}: side set holds a unit-thread node"));
                }
            }
            fwd.extend(e.walk(n, OUT).map(|m| (n, m)));
            bwd.extend(e.walk(n, IN).map(|m| (m, n)));
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd || fwd.windows(2).any(|w| w[0] == w[1]) {
            return Err("a state edge is not recorded exactly once at each end".to_string());
        }
        for k in 0..k_units {
            let mut cur = self.sent_s[k];
            let mut last_pos = self.nh[cur as usize].pos;
            let mut count = 0usize;
            loop {
                let next = e.at(cur, OUT, k);
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
        // The scheduled-cone bits against a from-scratch recomputation
        // in topological order.
        let g = &self.core.g;
        let order = hls_ir::algo::topo_order(g).map_err(|e| format!("behavior graph: {e}"))?;
        let sched = |u: &OpId| self.node_of[u.index()].is_some();
        let (mut anc, mut desc) = (vec![false; g.len()], vec![false; g.len()]);
        for &v in &order {
            anc[v.index()] = g.preds(v).iter().any(|p| sched(p) || anc[p.index()]);
        }
        for &v in order.iter().rev() {
            desc[v.index()] = g.succs(v).iter().any(|q| sched(q) || desc[q.index()]);
        }
        if anc != self.has_sched_anc || desc != self.has_sched_desc {
            return Err("stale scheduled-ancestor/descendant bits".to_string());
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
        if self.core.work != hls_ir::kind_work(&self.core.g)
            || self.res_floor != self.resources.work_floor(&self.core.g)
        {
            return Err("stale resource floor".to_string());
        }
        for n in 0..n_nodes {
            if self.nh[n].sdist != sdist[n] || self.tdist_of(n as u32) != tdist[n] {
                return Err(format!("node {n}: stale labels"));
            }
            for j in n * k_units..(n + 1) * k_units {
                if self.reach_b[j] != rb[j] {
                    return Err(format!("node {n}: stale backward reach in thread {}", j % k_units));
                }
                if self.reach_f[j] != rf[j] {
                    return Err(format!("node {n}: stale forward reach in thread {}", j % k_units));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

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
        self.edges.push_node();
        self.reach_b.extend(std::iter::repeat_n(NONE, self.edges.k));
        self.reach_f.extend(std::iter::repeat_n(NONE, self.edges.k));
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
            let next = self.edges.at(cur, OUT, k);
            if next == NONE {
                break;
            }
            cur = next;
        }
    }

    fn chain_pred_op(&self, n: u32) -> Option<OpId> {
        let k = self.n_thread[n as usize] as usize;
        if k >= self.resources.k() {
            return None;
        }
        let prev = self.edges.at(n, IN, k);
        debug_assert_ne!(prev, NONE, "real nodes have chain predecessors");
        self.op_of[prev as usize]
    }

    /// Wire-class operations occupy no functional unit: each becomes
    /// the only member of a thread of its own, keeping the state a
    /// well-formed threaded graph (Definition 4 with a grown `K`). The
    /// thread is numbered after the units and the earlier wire threads;
    /// it has no chain, so the op keeps only its state edges, in the
    /// side sets of [`Edges`].
    fn schedule_wire(&mut self, v: OpId) -> Result<Placement, SchedError> {
        let placement = Placement {
            thread: self.thread_count(),
            after: None,
            cost: 0,
        };
        self.commit_inner(placement, v, false);
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
        // Repairing a (never-legal) cyclic state would chase dirty
        // nodes around the cycle forever; the stack bound fails fast
        // instead, mirroring the seed's relabel assert. A legal repair
        // stacks at most one frame per node of a path, each holding at
        // most the node's out-degree: a row plus its side entries.
        let side = self.edges.side[OUT].len();
        let stack_bound = self.op_of.len() * (self.edges.k + 1) + side + 64;
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
            for z in self.edges.walk(y, OUT) {
                if lz.dirty[z as usize] {
                    stack.push(z);
                    pending = true;
                }
            }
            if pending {
                continue;
            }
            let best = self.edges.walk(y, OUT).map(|z| lz.val[z as usize]).max().unwrap_or(0);
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
        let mut stack = std::mem::take(&mut lz.stack);
        stack.clear();
        stack.push(n);
        while let Some(y) = stack.pop() {
            for p in self.edges.walk(y, IN) {
                if !lz.dirty[p as usize] {
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
        if sc.lo.len() < self.edges.k {
            sc.lo.resize(self.edges.k, NONE);
            sc.hi.resize(self.edges.k, NONE);
        }
    }

    /// Walks the *scheduled frontier* of `v`: the first scheduled
    /// operation along every predecessor (resp. successor) path of the
    /// behavior graph. Every other scheduled ancestor/descendant is
    /// ordered through a frontier member (correctness condition), so the
    /// frontier alone determines the feasible windows and intrinsic
    /// distances. The walk descends through unscheduled ops only, and
    /// only into those with a scheduled ancestor (resp. descendant) —
    /// one bit read each, replacing the seed's `Θ(|V|/64)` closure-row
    /// ∩ scheduled-mask probe.
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
            } else if self.has_sched_anc[xi] {
                for &p in self.core.g.preds(OpId::from_index(xi)) {
                    sc.stack.push(p.index() as u32);
                }
            }
        }
        // An op's ancestors and descendants are disjoint (DAG), so the
        // epoch marks are shared between the two walks.
        if self.has_sched_desc[v.index()] {
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
                } else if self.has_sched_desc[xi] {
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
    /// Only the unit threads get windows: wire ops are never placement
    /// targets.
    fn absorb_windows(&self, sc: &mut Scratch) -> (u64, u64) {
        let k = self.edges.k;
        sc.lo[..k].fill(NONE);
        sc.hi[..k].fill(NONE);
        let mut isrc = 0u64;
        let mut isnk = 0u64;
        for &p in &sc.preds_f {
            let pi = p as usize;
            isrc = isrc.max(self.nh[pi].sdist);
            self.merge_reach(&mut sc.lo[..k], &self.reach_b[pi * k..(pi + 1) * k], true);
            self.merge_self(&mut sc.lo[..k], p, true);
        }
        for &q in &sc.succs_f {
            let qi = q as usize;
            isnk = isnk.max(self.tdist_of(q));
            self.merge_reach(&mut sc.hi[..k], &self.reach_f[qi * k..(qi + 1) * k], false);
            self.merge_self(&mut sc.hi[..k], q, false);
        }
        (isrc, isnk)
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
                let next = self.edges.at(cur, OUT, k);
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
    /// A wire thread holds one node, so when `n` is a wire op no edge
    /// into its thread exists yet, and when `p` is one the only
    /// thread-`j` neighbour `n` can have recorded is `p` itself.
    fn apply_pred_rule(&mut self, p: u32, n: u32, k: usize) {
        let units = self.edges.k;
        let j = self.n_thread[p as usize] as usize;
        let q = if k < units { self.edges.at(p, OUT, k) } else { NONE };
        if q != NONE {
            // Rule (a): existing edge to a vertex at or before `n` already
            // implies `p ≺ n` through the chain.
            if q == n || self.nh[q as usize].pos < self.nh[n as usize].pos {
                return;
            }
            // Rule (c): the edge overshoots `n`; retarget it.
            self.edges.unlink(p, j, q, k);
        }
        // Rule (b) otherwise: no edge into thread `k` yet.
        let p2 = if j < units { self.edges.at(n, IN, j) } else { NONE };
        if p2 != NONE && self.nh[p2 as usize].pos > self.nh[p as usize].pos {
            // A later vertex of thread `j` already guards `n`; `p ≺ p2 ≺ n`.
            return;
        }
        if p2 != NONE && p2 != p {
            // `p` is tighter than the recorded predecessor; displace it.
            self.edges.unlink(p2, j, n, k);
        }
        self.edges.link(p, j, n, k);
    }

    /// Figure 2 rules (d)–(f): link the new node `n` (thread `k`) to a
    /// scheduled G-descendant `q`; the mirror of
    /// [`Self::apply_pred_rule`].
    fn apply_succ_rule(&mut self, q: u32, n: u32, k: usize) {
        let units = self.edges.k;
        let j2 = self.n_thread[q as usize] as usize;
        let u = if k < units { self.edges.at(q, IN, k) } else { NONE };
        if u != NONE {
            // Rule (d): `q` already follows a vertex after `n` in thread
            // `k`; `n ≺ u ≺ q` through the chain.
            if u == n || self.nh[u as usize].pos > self.nh[n as usize].pos {
                return;
            }
            // Rule (f): the edge comes from before `n`; retarget it.
            self.edges.unlink(u, k, q, j2);
        }
        // Rule (e) otherwise: no edge from thread `k` yet.
        let q2 = if j2 < units { self.edges.at(n, OUT, j2) } else { NONE };
        if q2 != NONE && self.nh[q2 as usize].pos < self.nh[q as usize].pos {
            // An earlier vertex of thread `j2` is already guarded;
            // `n ≺ q2 ≺ q`.
            return;
        }
        if q2 != NONE && q2 != q {
            self.edges.unlink(n, k, q2, j2);
        }
        self.edges.link(n, k, q, j2);
    }

    /// Seeds the labels and reach vectors of a freshly linked node from
    /// its (final) direct state edges. The out-neighbours' `tdist` must
    /// already be repaired.
    fn init_new_node(&mut self, n: u32, lz: &mut TdistLazy) {
        let ni = n as usize;
        let k = self.edges.k;
        let mut rb = std::mem::take(&mut self.reach_b);
        let mut rf = std::mem::take(&mut self.reach_f);
        // `n` is the newest node: its rows are the tails of the tables.
        let (rb_old, rb_n) = rb.split_at_mut(ni * k);
        let (rf_old, rf_n) = rf.split_at_mut(ni * k);
        let mut sd = 0u64;
        for m in self.edges.walk(n, IN) {
            let mi = m as usize;
            sd = sd.max(self.nh[mi].sdist);
            self.merge_reach(rb_n, &rb_old[mi * k..(mi + 1) * k], true);
            self.merge_self(rb_n, m, true);
        }
        let mut td = 0u64;
        for m in self.edges.walk(n, OUT) {
            let mi = m as usize;
            debug_assert!(!lz.dirty[mi], "out-neighbour tdist must be repaired");
            td = td.max(lz.val[mi]);
            self.merge_reach(rf_n, &rf_old[mi * k..(mi + 1) * k], false);
            self.merge_self(rf_n, m, false);
        }
        (self.reach_b, self.reach_f) = (rb, rf);
        self.nh[ni].sdist = sd + self.nh[ni].delay;
        self.diam = self.diam.max(self.nh[ni].sdist);
        self.note_proj(ni);
        lz.val[ni] = td + self.nh[ni].delay;
        lz.dirty[ni] = false;
    }

    /// A node's rank in the order reach rows and windows keep: the later
    /// node wins for backward reach (`back`), the earlier for forward
    /// reach.
    fn reach_rank(&self, x: u32, back: bool) -> u64 {
        self.nh[x as usize].pos ^ if back { 0 } else { u64::MAX }
    }

    /// Merges the reach row `src` into `into`, per thread keeping the
    /// higher [`Self::reach_rank`]. Returns whether `into` changed.
    #[inline]
    fn merge_reach(&self, into: &mut [u32], src: &[u32], back: bool) -> bool {
        let mut changed = false;
        for (slot, &c) in into.iter_mut().zip(src) {
            if c != NONE
                && (*slot == NONE || self.reach_rank(*slot, back) < self.reach_rank(c, back))
            {
                *slot = c;
                changed = true;
            }
        }
        changed
    }

    /// Merges node `m` itself into its own unit thread's slot of `row`.
    fn merge_self(&self, row: &mut [u32], m: u32, back: bool) {
        let t = self.n_thread[m as usize] as usize;
        if t < row.len()
            && self.op_of[m as usize].is_some()
            && (row[t] == NONE || self.reach_rank(row[t], back) < self.reach_rank(m, back))
        {
            row[t] = m;
        }
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
    /// maximum and the resource floor from scratch, over the whole
    /// graph. Only delay retyping needs it (through
    /// [`Self::relabel_full`] or directly): a retyped delay can shrink
    /// `gdist`, so the running maxima must be rebuilt, not folded.
    /// Graph growth only raises them and takes the cone-sized path of
    /// [`Self::sync_graph_growth`]. Counted as
    /// [`hls_obs::Counter::ProjRefreshes`].
    fn refresh_proj(&mut self) {
        hls_obs::obs_count!(ProjRefreshes);
        let core = Arc::make_mut(&mut self.core);
        core.gdist = hls_ir::algo::sink_distances(&core.g);
        core.work = hls_ir::kind_work(&core.g);
        self.res_floor = self.resources.floor_of(&core.work);
        self.proj = 0;
        for n in 0..self.op_of.len() {
            self.note_proj(n);
        }
    }

    /// Increase-only relaxation of `sdist` over the forward cone of
    /// `from`. Edge retargeting during `commit` only replaces an edge by
    /// a longer-or-equal path through the new node, so labels are
    /// monotone and the worklist touches only nodes whose values
    /// actually change. Every raised node is queued, and its label only
    /// grows until it is popped, so the running maxima are folded in at
    /// the pop.
    ///
    /// The reach rows relax in their own passes
    /// ([`Self::propagate_reach`]), which keeps this inner loop free of
    /// the `K²` row merge — the difference between ~4 and ~10 random
    /// cache lines per popped node.
    fn propagate_sdist(&mut self, from: u32, sc: &mut Scratch) {
        sc.queue.clear();
        sc.queue.push(from);
        while let Some(x) = sc.queue.pop() {
            let xi = x as usize;
            sc.in_queue[xi] = false;
            let xsd = self.nh[xi].sdist;
            self.diam = self.diam.max(xsd);
            self.note_proj(xi);
            for z in self.edges.walk(x, OUT) {
                let zi = z as usize;
                let cand = xsd + self.nh[zi].delay;
                // No legal path exceeds the sum of all delays; a larger
                // label means an invalid placement closed a state cycle
                // and the relaxation is orbiting it.
                assert!(cand <= self.total_delay, "scheduling state must stay acyclic");
                if cand > self.nh[zi].sdist {
                    self.nh[zi].sdist = cand;
                    if !sc.in_queue[zi] {
                        sc.in_queue[zi] = true;
                        sc.queue.push(z);
                    }
                }
            }
        }
    }

    /// Increase-only relaxation of the reach rows over the cone of
    /// `from`: the backward reach down the successors (`dir == OUT`,
    /// the later ancestor wins), the forward reach up the predecessors
    /// (the earlier descendant wins). A node is pushed only when its
    /// row improves, so the walk stops where rows already hold a better
    /// entry — but it does not stop after a handful of nodes. Counted
    /// on the 100k-op `bench scaling` sweep (topological order,
    /// `classic(2,2)`), the two passes pop 1.23M nodes per 100k
    /// commits, 868k of them in the backward (`reach_f`) pass, against
    /// 784k for the `sdist` cascade. (`tdist` is *not* pushed eagerly —
    /// see [`TdistLazy`] — because a tail commit's backward cone is
    /// nearly the whole state.)
    fn propagate_reach(&mut self, from: u32, dir: usize, sc: &mut Scratch) {
        let k = self.edges.k;
        let back = dir == OUT;
        let mut rows = std::mem::take(if back { &mut self.reach_b } else { &mut self.reach_f });
        sc.queue.clear();
        sc.queue.push(from);
        while let Some(x) = sc.queue.pop() {
            let xi = x as usize;
            sc.in_queue[xi] = false;
            // x's effective row — its reach entries with x itself in its
            // own unit thread — copied out once, so the per-neighbour
            // merge is slice-to-slice.
            sc.row.clear();
            sc.row.extend_from_slice(&rows[xi * k..(xi + 1) * k]);
            self.merge_self(&mut sc.row, x, back);
            for z in self.edges.walk(x, dir) {
                let zi = z as usize;
                let improved = self.merge_reach(&mut rows[zi * k..(zi + 1) * k], &sc.row, back);
                if improved && !sc.in_queue[zi] {
                    sc.in_queue[zi] = true;
                    sc.queue.push(z);
                }
            }
        }
        *(if back { &mut self.reach_b } else { &mut self.reach_f }) = rows;
    }

    /// Topological order of the threaded-graph nodes, or `None` if the
    /// state has a cycle (it never should).
    fn topo_nodes(&self) -> Option<Vec<u32>> {
        let n_nodes = self.op_of.len();
        let mut indeg: Vec<usize> =
            (0..n_nodes as u32).map(|i| self.edges.walk(i, IN).count()).collect();
        let mut queue: Vec<u32> = (0..n_nodes as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            for m in self.edges.walk(i, OUT) {
                indeg[m as usize] -= 1;
                if indeg[m as usize] == 0 {
                    queue.push(m);
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
        let k = self.edges.k;
        let n_nodes = self.op_of.len();
        let mut sdist = vec![0u64; n_nodes];
        let mut tdist = vec![0u64; n_nodes];
        let mut rb = vec![NONE; n_nodes * k];
        let mut rf = vec![NONE; n_nodes * k];
        let mut src = vec![NONE; k];
        for &i in &topo {
            let ii = i as usize;
            let mut best = 0;
            for m in self.edges.walk(i, IN) {
                let mi = m as usize;
                best = best.max(sdist[mi]);
                src.copy_from_slice(&rb[mi * k..(mi + 1) * k]);
                let row = &mut rb[ii * k..(ii + 1) * k];
                self.merge_reach(row, &src, true);
                self.merge_self(row, m, true);
            }
            sdist[ii] = best + self.nh[ii].delay;
        }
        for &i in topo.iter().rev() {
            let ii = i as usize;
            let mut best = 0;
            for m in self.edges.walk(i, OUT) {
                let mi = m as usize;
                best = best.max(tdist[mi]);
                src.copy_from_slice(&rf[mi * k..(mi + 1) * k]);
                let row = &mut rf[ii * k..(ii + 1) * k];
                self.merge_reach(row, &src, false);
                self.merge_self(row, m, false);
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
    /// scheduler in time proportional to the cone the growth touches:
    /// resizes the op-indexed tables, sets the new ops'
    /// scheduled-cone bits and raises the lower-bound caches.
    ///
    /// Every new edge has a new (unscheduled) op at one end, so a new
    /// op is marked when a neighbour on that side is scheduled or
    /// marked, and the walk goes on from it into old ops that gain a
    /// scheduled ancestor (descendant) through it. A new op whose
    /// neighbour is marked only later, in id order (a spliced
    /// `Store → Load` learns its scheduled descendant from the `Load`),
    /// is reached by that later walk instead.
    ///
    /// Growth only adds paths (a splice replaces an edge by a path
    /// through it), so static sink distances only rise: see
    /// [`Self::raise_gdist`]. The per-kind delay sums gain the new
    /// ops' delays and the resource floor is re-folded from them.
    fn sync_graph_growth(&mut self) {
        let old = self.node_of.len();
        let new = self.core.g.len();
        self.node_of.resize(new, None);
        if new == old {
            return;
        }
        let g = &self.core.g;
        let node_of = &self.node_of;
        let stack = &mut self.scratch.get_mut().stack;
        for (bits, dir) in [
            (&mut self.has_sched_anc, OUT),
            (&mut self.has_sched_desc, IN),
        ] {
            bits.resize(new, false);
            for i in old..new {
                let v = OpId::from_index(i);
                let behind = if dir == OUT { g.preds(v) } else { g.succs(v) };
                let fed = |u: &OpId| node_of[u.index()].is_some() || bits[u.index()];
                if !bits[i] && behind.iter().any(fed) {
                    bits[i] = true;
                    mark_cone(g, bits, v, dir, stack);
                }
            }
        }
        self.raise_gdist(old);
        let core = Arc::make_mut(&mut self.core);
        for v in (old..new).map(OpId::from_index) {
            core.work[core.g.kind(v) as usize] += core.g.delay(v);
        }
        self.res_floor = self.resources.floor_of(&core.work);
    }

    /// Gives the ops from id `old` on their static sink distance and
    /// raises the distances their addition lengthens, folding every
    /// raised *scheduled* op into `proj` (growth never lowers a
    /// distance, so the running maximum stays exact).
    ///
    /// The new ops are given their values in reverse id order — a
    /// spliced chain's later ops are its successors — from their
    /// successors, whose values the step cannot raise (an old
    /// successor reaching a new op's predecessor would close a cycle).
    /// The raise then runs backward through `preds` in topological
    /// order, stopping where a value does not rise. The pre-growth
    /// distances are that order: `gdist[p] >= gdist[s] + delay(p)` on
    /// every edge, so a heap that pops the lowest of them first settles
    /// each successor before its predecessors. Ties are zero-delay edges;
    /// among them the larger current value goes first, which is final
    /// because a zero-delay edge only passes a value on unchanged. So
    /// every raised op is relaxed from exactly once, and an op is
    /// pushed at most once per raised successor: `O(e log e)` for the
    /// `e` edges into the raised cone, whatever the number of paths by
    /// which a rise reaches an op. Counted as
    /// [`hls_obs::Counter::GrowthRaises`].
    fn raise_gdist(&mut self, old: usize) {
        let sc = &mut *self.scratch.borrow_mut();
        self.prep_scratch(sc);
        let (e, seen, heap) = (sc.epoch, &mut sc.op_seen, &mut sc.raise_heap);
        let was = &mut sc.gdist_was;
        let core = Arc::make_mut(&mut self.core);
        let (g, gdist) = (&core.g, &mut core.gdist);
        gdist.resize(g.len(), 0);
        if was.len() < g.len() {
            was.resize(g.len(), 0);
        }
        for v in (old..g.len()).rev().map(OpId::from_index) {
            let tail = g.succs(v).iter().map(|q| gdist[q.index()]).max();
            gdist[v.index()] = tail.unwrap_or(0) + g.delay(v);
        }
        heap.clear();
        let mut new_ops = old..g.len();
        let mut raised = 0;
        loop {
            let x = match new_ops.next() {
                Some(i) => i,
                None => match heap.pop() {
                    Some((_, dx, x)) if dx == gdist[x as usize] => {
                        raised += 1;
                        x as usize
                    }
                    Some(_) => continue, // superseded by a later raise
                    None => break,
                },
            };
            let dx = gdist[x];
            for &p in g.preds(OpId::from_index(x)) {
                let (pi, cand) = (p.index(), dx + g.delay(p));
                if pi >= old || cand <= gdist[pi] {
                    continue;
                }
                if seen[pi] != e {
                    seen[pi] = e;
                    was[pi] = gdist[pi];
                }
                gdist[pi] = cand;
                if let Some(n) = self.node_of[pi] {
                    let h = &self.nh[n as usize];
                    self.proj = self.proj.max(h.sdist - h.delay + cand);
                }
                heap.push((Reverse(was[pi]), cand, pi as u32));
            }
        }
        hls_obs::obs_count!(GrowthRaises, raised);
    }

    /// `true` if some op of `from` reaches (or is) some op of `to` in
    /// the behavior graph. A forward search from `from` over its
    /// descendant cone, stamped with a fresh scratch epoch.
    fn reaches_any(&self, from: &[OpId], to: &[OpId]) -> bool {
        if from.is_empty() || to.is_empty() {
            return false;
        }
        let g = &self.core.g;
        let sc = &mut *self.scratch.borrow_mut();
        self.prep_scratch(sc);
        let e = sc.epoch;
        sc.stack.clear();
        for &u in from {
            if sc.op_seen[u.index()] != e {
                sc.op_seen[u.index()] = e;
                sc.stack.push(u.index() as u32);
            }
        }
        while let Some(x) = sc.stack.pop() {
            for &y in g.succs(OpId::from_index(x as usize)) {
                if sc.op_seen[y.index()] != e {
                    sc.op_seen[y.index()] = e;
                    sc.stack.push(y.index() as u32);
                }
            }
        }
        to.iter().any(|u| sc.op_seen[u.index()] == e)
    }
}

/// Marks the strict cone of `from` in direction `dir` (its descendants
/// for [`OUT`], its ancestors for [`IN`]) in `bits`. The walk stops at
/// ops already marked: the marked set stays closed in `dir`, so their
/// cones are marked already, and each op is pushed at most once over
/// the scheduler's life.
fn mark_cone(g: &PrecedenceGraph, bits: &mut [bool], from: OpId, dir: usize, stack: &mut Vec<u32>) {
    stack.clear();
    stack.push(from.index() as u32);
    while let Some(x) = stack.pop() {
        let x = OpId::from_index(x as usize);
        for &y in if dir == OUT { g.succs(x) } else { g.preds(x) } {
            if !bits[y.index()] {
                bits[y.index()] = true;
                stack.push(y.index() as u32);
            }
        }
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
    fn schedule_all_budgeted_aborts_on_the_hook_and_reports_progress() {
        let (mut ts, v) = fig1_scheduler();
        // Abort as soon as the certified final-diameter bound reaches
        // 3 — with the graph-tail projection that happens well before
        // the prefix diameter itself does.
        let outcome = ts
            .schedule_all_budgeted(v, &hls_ir::Budget::NONE, |bound| bound >= 3)
            .unwrap();
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
            ts2.schedule_all_budgeted(v2, &hls_ir::Budget::NONE, |_| false).unwrap(),
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
        // Regression: retyping mutates the graph even when the op is
        // not yet in the state; the static bound terms must follow or
        // final_lower_bound stops being a lower bound.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Mul, 4, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 1)).unwrap();
        ts.retype_ops(&[(a, OpKind::Nop, 0)]); // before scheduling anything
        ts.schedule_all([a, b]).unwrap();
        assert_eq!(ts.diameter(), 1);
        assert!(ts.final_lower_bound() <= ts.diameter());
        assert!(ts.schedule_lower_bound() <= ts.diameter());
        ts.check_invariants().unwrap();
    }

    #[test]
    fn retype_op_resolves_a_scheduled_phi_in_place() {
        // SSA φ resolution: a free φ becomes a one-step register move
        // under the same id, and the state pays for the new delay.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let phi = g.add_op(OpKind::Phi, 0, "phi");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, phi).unwrap();
        g.add_edge(phi, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::uniform(1)).unwrap();
        ts.schedule_all([a, phi, b]).unwrap();
        assert_eq!(ts.diameter(), 2, "free phi costs nothing");
        ts.retype_ops(&[(phi, OpKind::Move, 1)]);
        assert_eq!(ts.graph().kind(phi), OpKind::Move);
        assert_eq!(ts.diameter(), 3, "the move now takes a step");
        ts.check_invariants().unwrap();
    }

    #[test]
    fn cached_diameter_tracks_retyping_shrinkage() {
        // Retyping may shrink delays; the cached running maximum must
        // be recomputed, not kept.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Mul, 4, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::classic(1, 1)).unwrap();
        ts.schedule_all([a, b]).unwrap();
        assert_eq!(ts.diameter(), 5);
        ts.retype_ops(&[(a, OpKind::Nop, 0)]);
        assert_eq!(ts.diameter(), 1, "diameter must shrink with the delay");
        ts.check_invariants().unwrap();
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
        let len = ts.graph().len();
        let err = ts.refine_add_op(OpKind::Add, 1, "bad", &[v[6]], &[v[0]]);
        assert_eq!(err, Err(SchedError::WouldCycle(OpId::from_index(len))));
        let err = ts.refine_add_op(OpKind::Add, 1, "loop", &[v[2]], &[v[2]]);
        assert!(matches!(err, Err(SchedError::WouldCycle(_))));
        let unknown = OpId::from_index(len + 5);
        let err = ts.refine_add_op(OpKind::Add, 1, "far", &[v[0]], &[unknown]);
        assert_eq!(err, Err(SchedError::UnknownOp(unknown)));
        // A rejection leaves the state as it was, so a valid ECO op
        // still goes in.
        assert_eq!(ts.graph().len(), len);
        ts.check_invariants().unwrap();
        let ok = ts
            .refine_add_op(OpKind::Add, 1, "ok", &[v[0]], &[v[6]])
            .unwrap();
        assert_eq!(ok, OpId::from_index(len));
        ts.check_invariants().unwrap();
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

    /// Every flat table holds exactly one `K`-wide row per node, and
    /// the only nodes besides the scheduled ops are the unit sentinels.
    fn assert_rows_are_k_wide(ts: &ThreadedScheduler) {
        let k = ts.resources().k();
        let nodes = ts.op_of.len();
        assert_eq!(ts.edges.k, k, "row width");
        for table in [&ts.edges.rows[OUT], &ts.edges.rows[IN], &ts.reach_b, &ts.reach_f] {
            assert_eq!(table.len(), nodes * k);
        }
        assert_eq!(nodes, 2 * k + ts.scheduled_count());
    }

    #[test]
    fn wire_ops_keep_the_rows_k_wide() {
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
        ts.schedule_all(all.iter().copied()).unwrap();
        ts.check_invariants().unwrap();
        assert_eq!(ts.thread_count(), 21);
        assert_eq!(ts.diameter(), 21);
        assert_rows_are_k_wide(&ts);
        for (i, &w) in all[1..].iter().enumerate() {
            assert_eq!(ts.thread_of(w), Some(1 + i));
            assert_eq!(ts.chain(1 + i), vec![w]);
        }

        // 600 wire delays spliced onto a scheduled design.
        let g = hls_ir::generate::stress_dag(31, 400);
        let r = ResourceSet::classic(2, 1);
        let order = hls_ir::algo::topo_order(&g).unwrap();
        let mut ts = ThreadedScheduler::new(g, r).unwrap();
        ts.schedule_all(order).unwrap();
        let edges: Vec<(OpId, OpId)> = ts.graph().edges().take(600).collect();
        assert_eq!(edges.len(), 600);
        for (i, (from, to)) in edges.into_iter().enumerate() {
            ts.refine_splice(from, to, [(OpKind::WireDelay, 1, format!("wd{i}"))])
                .unwrap();
        }
        ts.check_invariants().unwrap();
        assert_eq!(ts.thread_count(), 3 + 600);
        assert_rows_are_k_wide(&ts);
    }

    #[test]
    #[should_panic(expected = "is not a functional unit")]
    fn commit_on_a_wire_thread_panics() {
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let w = g.add_op(OpKind::WireDelay, 1, "w");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, w).unwrap();
        let mut ts = ThreadedScheduler::new(g, ResourceSet::uniform(1)).unwrap();
        ts.schedule_all([a, w]).unwrap();
        // Thread 1 is `w`'s wire thread: there is no chain to insert `b`
        // into.
        ts.commit(
            Placement {
                thread: 1,
                after: Some(w),
                cost: 0,
            },
            b,
        );
    }
}
