//! The pre-optimization threaded scheduler, retained verbatim as the
//! golden baseline.
//!
//! This is the seed implementation of Algorithm 1: correct, but with a
//! full `relabel()` + chain renumber after every `commit` (`O(|V|·K)`
//! work per operation) and fresh heap allocations on every `select`.
//! The optimized [`crate::ThreadedScheduler`] must produce *bit-identical*
//! placement sequences and extracted schedules — the golden-equivalence
//! suite (`tests/golden_equivalence.rs`) enforces this on seeded random
//! graphs, and `bench scaling` reports the measured speedup against
//! this implementation.
//!
//! Do not "improve" this file: its value is being frozen.

use crate::{Placement, SchedError};
use hls_ir::{algo, BitMatrix, HardSchedule, OpId, OpKind, PrecedenceGraph, ResourceClass, ResourceSet};

#[derive(Clone, Debug)]
struct Node {
    /// Per thread `j`: the node in thread `j` with an edge into this node.
    inc: Vec<Option<u32>>,
    /// Per thread `j`: the node in thread `j` this node has an edge to.
    out: Vec<Option<u32>>,
    thread: usize,
    /// Chain position; consecutive integers, renumbered after insertion.
    pos: u64,
    sdist: u64,
    tdist: u64,
    delay: u64,
}

impl Node {
    fn new(threads: usize, thread: usize, delay: u64) -> Self {
        Node {
            inc: vec![None; threads],
            out: vec![None; threads],
            thread,
            pos: 0,
            sdist: 0,
            tdist: 0,
            delay,
        }
    }
}

/// The seed (pre-refactor) threaded scheduler — see the module docs.
#[derive(Clone, Debug)]
pub struct ReferenceScheduler {
    g: PrecedenceGraph,
    /// Strict ancestors per op (row `v` = `{p : p ≺_G v}`).
    anc: BitMatrix,
    /// Strict descendants per op.
    desc: BitMatrix,
    resources: ResourceSet,
    nodes: Vec<Node>,
    /// Per thread: source/sink sentinel node indices.
    sent_s: Vec<u32>,
    sent_t: Vec<u32>,
    /// Per op: its node, if scheduled.
    node_of: Vec<Option<u32>>,
    /// Per node: its op (`None` for sentinels).
    op_of: Vec<Option<OpId>>,
    /// Number of threads (resource units plus wire singleton threads).
    threads: usize,
    history: Vec<OpId>,
}

impl ReferenceScheduler {
    /// Creates a scheduler over `g` with one thread per unit of
    /// `resources`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `g` is cyclic.
    pub fn new(g: PrecedenceGraph, resources: ResourceSet) -> Result<Self, SchedError> {
        g.validate()?;
        let (anc, desc) = closures(&g);
        let k = resources.k();
        let mut ts = ReferenceScheduler {
            node_of: vec![None; g.len()],
            g,
            anc,
            desc,
            resources,
            nodes: Vec::with_capacity(2 * k),
            sent_s: Vec::with_capacity(k),
            sent_t: Vec::with_capacity(k),
            op_of: Vec::new(),
            threads: 0,
            history: Vec::new(),
        };
        for _ in 0..k {
            ts.push_thread();
        }
        Ok(ts)
    }

    /// The scheduler's working copy of the precedence graph.
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.g
    }

    /// `true` if `v` is already in the scheduling state.
    pub fn is_scheduled(&self, v: OpId) -> bool {
        self.node_of.get(v.index()).copied().flatten().is_some()
    }

    /// The thread of a scheduled operation.
    pub fn thread_of(&self, v: OpId) -> Option<usize> {
        self.node_of
            .get(v.index())
            .copied()
            .flatten()
            .map(|n| self.nodes[n as usize].thread)
    }

    /// The operations of thread `k` in chain order.
    pub fn chain(&self, k: usize) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[self.sent_s[k] as usize].out[k];
        while let Some(n) = cur {
            if n == self.sent_t[k] {
                break;
            }
            out.push(self.op_of[n as usize].expect("chain nodes are real ops"));
            cur = self.nodes[n as usize].out[k];
        }
        out
    }

    /// The diameter `‖S‖` of the scheduling state.
    pub fn diameter(&self) -> u64 {
        self.nodes.iter().map(|n| n.sdist).max().unwrap_or(0)
    }

    /// `select` then `commit` (the paper's `schedule` method).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::UnknownOp`] for out-of-range ids and
    /// [`SchedError::NoCompatibleUnit`] if no thread can execute the
    /// operation.
    pub fn schedule(&mut self, v: OpId) -> Result<Placement, SchedError> {
        if v.index() >= self.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        if let Some(n) = self.node_of[v.index()] {
            let node = &self.nodes[n as usize];
            let after = self.chain_pred_op(n);
            return Ok(Placement {
                thread: node.thread,
                after,
                cost: node.sdist + node.tdist - node.delay,
            });
        }
        if self.g.kind(v).resource_class() == ResourceClass::Wire {
            return self.schedule_wire(v);
        }
        let placement = self.select(v)?;
        self.commit(placement, v);
        Ok(placement)
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

    /// The paper's `select`: earliest cost-minimal feasible position.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReferenceScheduler::schedule`].
    pub fn select(&self, v: OpId) -> Result<Placement, SchedError> {
        let mut best: Option<Placement> = None;
        self.for_each_feasible(v, |p| {
            if best.is_none_or(|b| p.cost < b.cost) {
                best = Some(p);
            }
        })?;
        best.ok_or(SchedError::NoCompatibleUnit(v, self.g.kind(v)))
    }

    /// Latest cost-minimal feasible position.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReferenceScheduler::schedule`].
    pub fn select_late(&self, v: OpId) -> Result<Placement, SchedError> {
        let mut best: Option<Placement> = None;
        self.for_each_feasible(v, |p| {
            if best.is_none_or(|b| p.cost <= b.cost) {
                best = Some(p);
            }
        })?;
        best.ok_or(SchedError::NoCompatibleUnit(v, self.g.kind(v)))
    }

    /// Schedules `v` at the latest cost-optimal position.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReferenceScheduler::schedule`].
    pub fn schedule_late(&mut self, v: OpId) -> Result<Placement, SchedError> {
        if v.index() >= self.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        if self.is_scheduled(v) {
            return self.schedule(v);
        }
        if self.g.kind(v).resource_class() == ResourceClass::Wire {
            return self.schedule_wire(v);
        }
        let placement = self.select_late(v)?;
        self.commit(placement, v);
        Ok(placement)
    }

    /// Every feasible placement for `v` with its cost, in deterministic
    /// (thread, position) order.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReferenceScheduler::schedule`].
    pub fn feasible_placements(&self, v: OpId) -> Result<Vec<Placement>, SchedError> {
        let mut out = Vec::new();
        self.for_each_feasible(v, |p| out.push(p))?;
        Ok(out)
    }

    /// The paper's `commit` with the Figure 2 update rules.
    ///
    /// # Panics
    ///
    /// Panics if the placement refers to an unknown thread or an
    /// operation that is not in that thread.
    pub fn commit(&mut self, placement: Placement, v: OpId) {
        assert!(placement.thread < self.threads, "unknown thread");
        let k = placement.thread;
        let pos_node = match placement.after {
            None => self.sent_s[k],
            Some(op) => {
                let n = self.node_of[op.index()].expect("placement.after must be scheduled");
                assert_eq!(self.nodes[n as usize].thread, k, "after-op not in thread");
                n
            }
        };
        let n = self.new_node(k, self.g.delay(v));

        // Chain insertion after pos_node.
        let next = self.nodes[pos_node as usize].out[k].expect("chain is closed by sentinels");
        self.nodes[n as usize].out[k] = Some(next);
        self.nodes[next as usize].inc[k] = Some(n);
        self.nodes[pos_node as usize].out[k] = Some(n);
        self.nodes[n as usize].inc[k] = Some(pos_node);
        self.renumber_chain(k);

        self.node_of[v.index()] = Some(n);
        self.op_of[n as usize] = Some(v);

        // Figure 2 rules, predecessors then successors.
        let preds: Vec<u32> = self.scheduled_ancestors(v);
        for p in preds {
            self.apply_pred_rule(p, n, k);
        }
        let succs: Vec<u32> = self.scheduled_descendants(v);
        for q in succs {
            self.apply_succ_rule(q, n, k);
        }

        self.history.push(v);
        self.relabel();
    }

    /// Extracts the hard schedule implied by the current state.
    pub fn extract_hard(&self) -> HardSchedule {
        let mut sched = HardSchedule::new(self.g.len());
        for v in self.g.op_ids() {
            if let Some(n) = self.node_of[v.index()] {
                let node = &self.nodes[n as usize];
                let unit = if node.thread < self.resources.k() {
                    Some(node.thread)
                } else {
                    None
                };
                sched.assign(v, node.sdist - node.delay, unit);
            }
        }
        for v in self.g.op_ids() {
            if self.g.kind(v) != OpKind::Load {
                continue;
            }
            let Some(n) = self.node_of[v.index()] else { continue };
            let node = &self.nodes[n as usize];
            let mut latest = u64::MAX;
            for j in 0..self.threads {
                if let Some(m) = node.out[j] {
                    if let Some(succ) = self.op_of[m as usize] {
                        let s = sched.start(succ).expect("state successors are scheduled");
                        latest = latest.min(s);
                    }
                }
            }
            if latest != u64::MAX {
                let asap = node.sdist - node.delay;
                let alap = latest.saturating_sub(node.delay);
                if alap > asap {
                    let unit = sched.unit(v);
                    sched.assign(v, alap, unit);
                }
            }
        }
        sched
    }

    /// Splices a chain of new operations onto the edge `from -> to` and
    /// schedules them, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `from -> to` is not an edge, plus the
    /// scheduling errors of [`ReferenceScheduler::schedule`].
    pub fn refine_splice(
        &mut self,
        from: OpId,
        to: OpId,
        chain: impl IntoIterator<Item = (OpKind, u64, String)>,
    ) -> Result<Vec<OpId>, SchedError> {
        let inserted = self.g.splice_on_edge(from, to, chain)?;
        self.sync_graph_growth();
        for &v in &inserted {
            if self.g.kind(v) == OpKind::Load {
                self.schedule_late(v)?;
            } else {
                self.schedule(v)?;
            }
        }
        Ok(inserted)
    }

    // ------------------------------------------------------------------
    // Internals (identical to the seed implementation).
    // ------------------------------------------------------------------

    fn push_thread(&mut self) -> usize {
        let k = self.threads;
        self.threads += 1;
        for node in &mut self.nodes {
            node.inc.push(None);
            node.out.push(None);
        }
        let s = self.alloc_raw_node(k, 0);
        let t = self.alloc_raw_node(k, 0);
        self.nodes[s as usize].out[k] = Some(t);
        self.nodes[t as usize].inc[k] = Some(s);
        self.nodes[t as usize].pos = 1;
        self.sent_s.push(s);
        self.sent_t.push(t);
        k
    }

    fn alloc_raw_node(&mut self, thread: usize, delay: u64) -> u32 {
        let idx = u32::try_from(self.nodes.len()).expect("node count exceeds u32");
        self.nodes.push(Node::new(self.threads, thread, delay));
        self.op_of.push(None);
        idx
    }

    fn new_node(&mut self, thread: usize, delay: u64) -> u32 {
        self.alloc_raw_node(thread, delay)
    }

    fn chain_pred_op(&self, n: u32) -> Option<OpId> {
        let node = &self.nodes[n as usize];
        let prev = node.inc[node.thread].expect("real nodes have chain predecessors");
        self.op_of[prev as usize]
    }

    fn scheduled_ancestors(&self, v: OpId) -> Vec<u32> {
        self.anc
            .iter_row(v.index())
            .filter_map(|i| self.node_of[i])
            .collect()
    }

    fn scheduled_descendants(&self, v: OpId) -> Vec<u32> {
        self.desc
            .iter_row(v.index())
            .filter_map(|i| self.node_of[i])
            .collect()
    }

    fn schedule_wire(&mut self, v: OpId) -> Result<Placement, SchedError> {
        let k = self.push_thread();
        let placement = Placement {
            thread: k,
            after: None,
            cost: 0,
        };
        self.commit(placement, v);
        let n = self.node_of[v.index()].expect("just committed");
        let node = &self.nodes[n as usize];
        Ok(Placement {
            cost: node.sdist + node.tdist - node.delay,
            ..placement
        })
    }

    fn for_each_feasible(
        &self,
        v: OpId,
        mut f: impl FnMut(Placement),
    ) -> Result<(), SchedError> {
        if v.index() >= self.g.len() {
            return Err(SchedError::UnknownOp(v));
        }
        let kind = self.g.kind(v);
        let eligible: Vec<usize> = (0..self.resources.k())
            .filter(|&k| self.resources.compatible(k, kind))
            .collect();
        if eligible.is_empty() {
            return Err(SchedError::NoCompatibleUnit(v, kind));
        }

        let pred_nodes = self.scheduled_ancestors(v);
        let succ_nodes = self.scheduled_descendants(v);
        let intrinsic_src = pred_nodes
            .iter()
            .map(|&p| self.nodes[p as usize].sdist)
            .max()
            .unwrap_or(0);
        let intrinsic_snk = succ_nodes
            .iter()
            .map(|&q| self.nodes[q as usize].tdist)
            .max()
            .unwrap_or(0);

        let back = self.mark(&pred_nodes, Direction::Backward);
        let fwd = self.mark(&succ_nodes, Direction::Forward);
        let mut lo = vec![0u64; self.threads];
        let mut hi = vec![u64::MAX; self.threads];
        for (ni, node) in self.nodes.iter().enumerate() {
            if back[ni] {
                lo[node.thread] = lo[node.thread].max(node.pos);
            }
            if fwd[ni] {
                hi[node.thread] = hi[node.thread].min(node.pos);
            }
        }

        let delay = self.g.delay(v);
        for k in eligible {
            let mut cur = self.sent_s[k];
            loop {
                let node = &self.nodes[cur as usize];
                let Some(next) = node.out[k] else { break };
                if node.pos >= lo[k] && node.pos < hi[k] {
                    let nn = &self.nodes[next as usize];
                    let sdist = node.sdist.max(intrinsic_src);
                    let tdist = nn.tdist.max(intrinsic_snk);
                    f(Placement {
                        thread: k,
                        after: self.op_of[cur as usize],
                        cost: sdist + tdist + delay,
                    });
                }
                cur = next;
            }
        }
        Ok(())
    }

    fn mark(&self, roots: &[u32], dir: Direction) -> Vec<bool> {
        let mut marked = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &r in roots {
            if !marked[r as usize] {
                marked[r as usize] = true;
                stack.push(r);
            }
        }
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            let edges = match dir {
                Direction::Backward => &node.inc,
                Direction::Forward => &node.out,
            };
            for &e in edges.iter().flatten() {
                if !marked[e as usize] {
                    marked[e as usize] = true;
                    stack.push(e);
                }
            }
        }
        marked
    }

    fn apply_pred_rule(&mut self, p: u32, n: u32, k: usize) {
        let j = self.nodes[p as usize].thread;
        match self.nodes[p as usize].out[k] {
            Some(q) if q == n || self.nodes[q as usize].pos < self.nodes[n as usize].pos => {
                return;
            }
            Some(q) => {
                debug_assert_eq!(self.nodes[q as usize].inc[j], Some(p));
                self.nodes[q as usize].inc[j] = None;
                self.nodes[p as usize].out[k] = None;
            }
            None => {}
        }
        match self.nodes[n as usize].inc[j] {
            Some(p2) if p2 == p => {
                self.nodes[p as usize].out[k] = Some(n);
            }
            Some(p2) if self.nodes[p2 as usize].pos > self.nodes[p as usize].pos => {}
            Some(p2) => {
                self.nodes[p2 as usize].out[k] = None;
                self.nodes[n as usize].inc[j] = Some(p);
                self.nodes[p as usize].out[k] = Some(n);
            }
            None => {
                self.nodes[n as usize].inc[j] = Some(p);
                self.nodes[p as usize].out[k] = Some(n);
            }
        }
    }

    fn apply_succ_rule(&mut self, q: u32, n: u32, k: usize) {
        let j2 = self.nodes[q as usize].thread;
        match self.nodes[q as usize].inc[k] {
            Some(u) if u == n || self.nodes[u as usize].pos > self.nodes[n as usize].pos => {
                return;
            }
            Some(u) => {
                debug_assert_eq!(self.nodes[u as usize].out[j2], Some(q));
                self.nodes[u as usize].out[j2] = None;
                self.nodes[q as usize].inc[k] = None;
            }
            None => {}
        }
        match self.nodes[n as usize].out[j2] {
            Some(q2) if q2 == q => {
                self.nodes[q as usize].inc[k] = Some(n);
            }
            Some(q2) if self.nodes[q2 as usize].pos < self.nodes[q as usize].pos => {}
            Some(q2) => {
                self.nodes[q2 as usize].inc[k] = None;
                self.nodes[n as usize].out[j2] = Some(q);
                self.nodes[q as usize].inc[k] = Some(n);
            }
            None => {
                self.nodes[n as usize].out[j2] = Some(q);
                self.nodes[q as usize].inc[k] = Some(n);
            }
        }
    }

    fn renumber_chain(&mut self, k: usize) {
        let mut pos = 0u64;
        let mut cur = self.sent_s[k];
        loop {
            self.nodes[cur as usize].pos = pos;
            pos += 1;
            match self.nodes[cur as usize].out[k] {
                Some(next) => cur = next,
                None => break,
            }
        }
    }

    /// Full `forwardLabel` / `backwardLabel` passes over the whole state —
    /// the `O(|V|·K)`-per-commit cost the optimized scheduler removes.
    fn relabel(&mut self) {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self
            .nodes
            .iter()
            .map(|nd| nd.inc.iter().flatten().count())
            .collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut head = 0;
        let mut topo: Vec<u32> = Vec::with_capacity(n);
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            topo.push(i);
            let best = self.nodes[i as usize]
                .inc
                .iter()
                .flatten()
                .map(|&p| self.nodes[p as usize].sdist)
                .max()
                .unwrap_or(0);
            self.nodes[i as usize].sdist = best + self.nodes[i as usize].delay;
            for j in 0..self.threads {
                if let Some(m) = self.nodes[i as usize].out[j] {
                    indeg[m as usize] -= 1;
                    if indeg[m as usize] == 0 {
                        queue.push(m);
                    }
                }
            }
        }
        assert_eq!(topo.len(), n, "scheduling state must stay acyclic");
        for &i in topo.iter().rev() {
            let best = self.nodes[i as usize]
                .out
                .iter()
                .flatten()
                .map(|&q| self.nodes[q as usize].tdist)
                .max()
                .unwrap_or(0);
            self.nodes[i as usize].tdist = best + self.nodes[i as usize].delay;
        }
    }

    /// Full-closure recompute on graph growth — the `O(|V|³/64)` cost the
    /// optimized scheduler replaces with incremental growth.
    fn sync_graph_growth(&mut self) {
        self.node_of.resize(self.g.len(), None);
        let (anc, desc) = closures(&self.g);
        self.anc = anc;
        self.desc = desc;
    }
}

enum Direction {
    Backward,
    Forward,
}

/// Closure construction is the one shared (frozen-behavior-neutral)
/// piece: it delegates to the canonical word-parallel
/// [`hls_ir::algo::closures`], which produces bit-identical matrices to
/// the seed's bit-by-bit ancestor build. Construction is excluded from
/// every timed comparison, so the frozen *scheduling* behavior above is
/// untouched.
fn closures(g: &PrecedenceGraph) -> (BitMatrix, BitMatrix) {
    algo::closures(g)
}
