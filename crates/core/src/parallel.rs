//! Partition-parallel scheduling: block-decomposed soft scheduling for
//! million-op behaviors.
//!
//! [`ParallelScheduler`] schedules a behavior by decomposition, so no
//! run ever holds whole-graph per-node tables. The sequential engine
//! builds no whole-graph index either, and on a 2-vCPU host it is as
//! fast or faster at 3·10⁵ and 10⁶ ops with 2 or 8 workers
//! (EXPERIMENTS.md, §BENCH_6): the decomposition no longer pays for
//! itself, and only `bench parallel` and its own tests run it. Steps:
//!
//! 1. **Partition.** [`hls_ir::partition`] splits the behavior into
//!    balanced blocks whose quotient is acyclic and topologically
//!    numbered (every edge goes to an equal-or-higher block).
//! 2. **Block scheduling.** Scoped worker threads claim blocks and run
//!    the ordinary [`ThreadedScheduler`] on each induced subgraph with
//!    the *full* resource set — each block time-slices the same
//!    functional units, so per-unit chains concatenate across blocks.
//!    Blocks share nothing while they run: the certified lower bound
//!    is static ([`ResourceSet::lower_bound`]), read from the graph,
//!    not from the blocks.
//! 3. **Stitch.** Per-unit chains are concatenated in block (quotient
//!    topological) order, and the cut edges are spliced back: one
//!    linear longest-path pass over the combined threaded graph
//!    (behavior edges ∪ chain edges) assigns every operation its start
//!    time. The combination is acyclic *by construction* — behavior
//!    edges never cross blocks backwards, chain edges are intra-block
//!    or seam-forward — so the stitched schedule is always valid.
//!
//! Every run partitions, whatever the graph's size: the stitched
//! result is valid by construction and its quality is pinned
//! differentially against the sequential engine (see
//! `crates/core/tests/parallel_golden.rs`).
//!
//! Results are deterministic in (graph, resources, config): block
//! schedules depend only on their subgraph, never on which worker ran
//! them or in what order — so 1, 2 and 8 workers produce bit-identical
//! schedules.
//!
//! [`ParallelScheduler::materialize`] replays a stitched run into a
//! live [`ThreadedScheduler`] through the engine's own `commit` (tail
//! inserts in combined topological order). It rebuilds the whole-graph
//! state, so it is a verification oracle, not a fast path: the
//! rebuilt state passes `check_invariants`, reproduces the stitched
//! diameter, and accepts ECO refinement (`refine_splice`,
//! `refine_graft`) exactly as a sequential state does.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hls_ir::partition::{self, Partition, PartitionConfig};
use hls_ir::{HardSchedule, OpId, PrecedenceGraph, ResourceSet};

use crate::meta::MetaSchedule;
use crate::threaded::{Placement, ThreadedScheduler};
use crate::SchedError;

/// Configuration for [`ParallelScheduler`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Worker threads scheduling blocks. Results never depend on this
    /// (workers only change wall time), so any value is safe.
    pub workers: usize,
    /// Number of partition blocks; `0` picks
    /// [`hls_ir::partition::auto_parts`] from the graph size and
    /// worker count.
    pub parts: usize,
    /// Meta order used inside every block.
    pub meta: MetaSchedule,
    /// Partition balance tolerance (see [`PartitionConfig`]).
    pub tolerance: f64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 8,
            parts: 0,
            meta: MetaSchedule::Topological,
            tolerance: 0.10,
        }
    }
}

/// The result of one partition-parallel run.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// The stitched hard schedule: start time for every op, unit for
    /// every non-wire op.
    pub schedule: HardSchedule,
    /// Stitched state diameter (`max` finish time).
    pub diameter: u64,
    /// Certified lower bound on any complete schedule of this graph,
    /// [`ResourceSet::lower_bound`]: `max` of the resource floor and
    /// the behavior critical path. Always `<= diameter`.
    pub lower_bound: u64,
    /// Per-unit chains of the stitched state, in execution order.
    pub unit_threads: Vec<Vec<OpId>>,
    /// A topological order of the *combined* threaded graph (behavior
    /// edges plus chain edges) — the replay order used by
    /// [`ParallelScheduler::materialize`].
    pub meta_order: Vec<OpId>,
    /// Cut edges of the partition.
    pub cut_edges: usize,
    /// Diameter of each block's local schedule.
    pub block_diameters: Vec<u64>,
}

/// Per-block output produced by a worker.
struct BlockOut {
    /// Per-unit chains in global op ids.
    unit_chains: Vec<Vec<OpId>>,
    diameter: u64,
}

/// The partition-parallel scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct ParallelScheduler {
    g: PrecedenceGraph,
    resources: ResourceSet,
    cfg: ParallelConfig,
    partition: Partition,
}

impl ParallelScheduler {
    /// Partitions `g` and prepares a parallel run.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `g` is cyclic (loop kernels go
    /// through the modulo scheduler, not this one).
    pub fn new(
        g: PrecedenceGraph,
        resources: ResourceSet,
        cfg: ParallelConfig,
    ) -> Result<Self, SchedError> {
        g.validate()?;
        let parts = if cfg.parts == 0 {
            partition::auto_parts(g.len(), cfg.workers.max(1))
        } else {
            cfg.parts
        };
        let pcfg = PartitionConfig {
            parts,
            tolerance: cfg.tolerance,
            ..PartitionConfig::default()
        };
        let partition = {
            let _span = hls_obs::obs_span!(ParallelPartition, "", g.len() as u64);
            partition::partition(&g, &pcfg)?
        };
        Ok(ParallelScheduler { g, resources, cfg, partition })
    }

    /// The behavior graph.
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.g
    }

    /// The block assignment this scheduler will run with.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Schedules the whole behavior: block scheduling on worker
    /// threads, then the stitch pass. Deterministic in
    /// (graph, resources, config); independent of `workers`.
    ///
    /// # Errors
    ///
    /// Propagates the first block's [`SchedError`]; a panicking worker
    /// surfaces as [`SchedError::Poisoned`] (the panic does not cross
    /// this boundary).
    pub fn run(&self) -> Result<ParallelRun, SchedError> {
        let blocks = self.partition.blocks();
        let outs = {
            let _span = hls_obs::obs_span!(ParallelBlocks, "", blocks.len() as u64);
            self.schedule_blocks(&blocks)?
        };
        let _span = hls_obs::obs_span!(ParallelStitch, "", blocks.len() as u64);
        self.stitch(&blocks, &outs)
    }

    /// Schedules every block on `cfg.workers` scoped threads and
    /// returns the block outputs in block order.
    fn schedule_blocks(&self, blocks: &[Vec<OpId>]) -> Result<Vec<BlockOut>, SchedError> {
        let next = AtomicUsize::new(0);
        let outs: Mutex<Vec<Option<BlockOut>>> = Mutex::new((0..blocks.len()).map(|_| None).collect());
        let failure: Mutex<Option<SchedError>> = Mutex::new(None);

        let worker = || {
            // Reusable global → local id map, cleared between blocks.
            let mut local_of: Vec<u32> = vec![u32::MAX; self.g.len()];
            loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= blocks.len() || failure.lock().unwrap().is_some() {
                    break;
                }
                let job = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.schedule_block(&blocks[b], &mut local_of)
                }));
                let result = match job {
                    Ok(r) => r,
                    Err(payload) => {
                        Err(SchedError::Poisoned(crate::panic_message(payload.as_ref())))
                    }
                };
                match result {
                    Ok(out) => outs.lock().unwrap()[b] = Some(out),
                    Err(e) => {
                        failure.lock().unwrap().get_or_insert(e);
                    }
                }
            }
        };

        let workers = self.cfg.workers.clamp(1, blocks.len().max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
        }

        if let Some(e) = failure.lock().unwrap().take() {
            return Err(e);
        }
        let outs = outs.into_inner().unwrap();
        let mut done = Vec::with_capacity(outs.len());
        for (b, o) in outs.into_iter().enumerate() {
            done.push(o.unwrap_or_else(|| panic!("block {b} finished without a result")));
        }
        Ok(done)
    }

    /// Schedules one block's induced subgraph with the ordinary
    /// sequential engine and returns its chains in global ids.
    fn schedule_block(&self, ops: &[OpId], local_of: &mut [u32]) -> Result<BlockOut, SchedError> {
        let mut sub = PrecedenceGraph::with_capacity(ops.len());
        for (i, &v) in ops.iter().enumerate() {
            local_of[v.index()] = i as u32;
            sub.add_op(self.g.kind(v), self.g.delay(v), self.g.label(v));
        }
        for &v in ops {
            for &s in self.g.succs(v) {
                let t = local_of[s.index()];
                if t != u32::MAX {
                    sub.add_edge(
                        OpId::from_index(local_of[v.index()] as usize),
                        OpId::from_index(t as usize),
                    )?;
                }
            }
        }
        let order = self.cfg.meta.order(&sub, &self.resources)?;
        let mut ts = ThreadedScheduler::new(sub, self.resources.clone())?;
        ts.schedule_all(order)?;
        let unit_chains = (0..self.resources.k())
            .map(|k| ts.chain(k).into_iter().map(|l| ops[l.index()]).collect())
            .collect();
        let out = BlockOut { unit_chains, diameter: ts.diameter() };
        for &v in ops {
            local_of[v.index()] = u32::MAX;
        }
        Ok(out)
    }

    /// The stitch pass: concatenates per-unit chains in block order and
    /// computes start times by one longest-path sweep over the combined
    /// threaded graph — behavior edges (cut edges included) plus chain
    /// edges. See the module docs for the acyclicity argument.
    fn stitch(&self, blocks: &[Vec<OpId>], outs: &[BlockOut]) -> Result<ParallelRun, SchedError> {
        let n = self.g.len();
        let k = self.resources.k();
        let mut schedule = HardSchedule::new(n);
        let mut finish: Vec<u64> = vec![0; n];
        let mut placed: Vec<bool> = vec![false; n];
        let mut unit_threads: Vec<Vec<OpId>> = vec![Vec::new(); k];
        let mut meta_order: Vec<OpId> = Vec::with_capacity(n);
        // Available time of each unit chain after the blocks stitched
        // so far.
        let mut chain_avail: Vec<u64> = vec![0; k];
        let mut diameter = 0u64;

        // Per-block scratch, reused.
        let mut local_of: Vec<u32> = vec![u32::MAX; n];
        let mut unit_of: Vec<(u32, u32)> = Vec::new(); // (chain, index on segment)
        let mut indeg: Vec<u32> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();

        for (b, ops) in blocks.iter().enumerate() {
            let out = &outs[b];
            for (i, &v) in ops.iter().enumerate() {
                local_of[v.index()] = i as u32;
            }
            unit_of.clear();
            unit_of.resize(ops.len(), (u32::MAX, 0));
            for (c, chain) in out.unit_chains.iter().enumerate() {
                for (i, &v) in chain.iter().enumerate() {
                    unit_of[local_of[v.index()] as usize] = (c as u32, i as u32);
                }
            }
            // Kahn over the block's combined subgraph: intra-block
            // behavior edges + chain-successor edges.
            indeg.clear();
            indeg.resize(ops.len(), 0);
            for (i, &v) in ops.iter().enumerate() {
                let mut d = 0u32;
                for &p in self.g.preds(v) {
                    if local_of[p.index()] != u32::MAX {
                        d += 1;
                    }
                }
                let (c, ci) = unit_of[i];
                if c != u32::MAX && ci > 0 {
                    d += 1;
                }
                indeg[i] = d;
            }
            queue.clear();
            for (i, &d) in indeg.iter().enumerate() {
                if d == 0 {
                    queue.push(i as u32);
                }
            }
            let mut popped = 0usize;
            let mut head = 0usize;
            while head < queue.len() {
                let i = queue[head] as usize;
                head += 1;
                popped += 1;
                let v = ops[i];
                let mut start = 0u64;
                for &p in self.g.preds(v) {
                    // Cross-block predecessors are already placed
                    // (blocks are quotient-topologically numbered);
                    // intra-block ones were popped before us.
                    debug_assert!(placed[p.index()] || local_of[p.index()] != u32::MAX);
                    start = start.max(finish[p.index()]);
                }
                let (c, ci) = unit_of[i];
                if c != u32::MAX {
                    let chain = &outs[b].unit_chains[c as usize];
                    if ci == 0 {
                        start = start.max(chain_avail[c as usize]);
                    } else {
                        start = start.max(finish[chain[ci as usize - 1].index()]);
                    }
                }
                let f = start + self.g.delay(v);
                finish[v.index()] = f;
                placed[v.index()] = true;
                diameter = diameter.max(f);
                let unit = (c != u32::MAX).then_some(c as usize);
                schedule.assign(v, start, unit);
                meta_order.push(v);
                // Release intra-block behavior successors and the
                // chain successor.
                for &s in self.g.succs(v) {
                    let t = local_of[s.index()];
                    if t != u32::MAX {
                        indeg[t as usize] -= 1;
                        if indeg[t as usize] == 0 {
                            queue.push(t);
                        }
                    }
                }
                if c != u32::MAX {
                    let chain = &outs[b].unit_chains[c as usize];
                    if (ci as usize) + 1 < chain.len() {
                        let t = local_of[chain[ci as usize + 1].index()];
                        indeg[t as usize] -= 1;
                        if indeg[t as usize] == 0 {
                            queue.push(t);
                        }
                    }
                }
            }
            assert_eq!(popped, ops.len(), "block {b}: combined subgraph has a cycle");
            for (c, chain) in out.unit_chains.iter().enumerate() {
                if let Some(&last) = chain.last() {
                    chain_avail[c] = finish[last.index()];
                }
                unit_threads[c].extend_from_slice(chain);
            }
            for &v in ops {
                local_of[v.index()] = u32::MAX;
            }
        }

        Ok(ParallelRun {
            schedule,
            diameter,
            lower_bound: self.resources.lower_bound(&self.g),
            unit_threads,
            meta_order,
            cut_edges: self.partition.cut_size(&self.g),
            block_diameters: outs.iter().map(|o| o.diameter).collect(),
        })
    }

    /// Materialises a stitched run back into a live
    /// [`ThreadedScheduler`]: replays the stitched placement through
    /// the engine's own `commit` (tail inserts, combined topological
    /// order). The materialised state's diameter equals `run.diameter`
    /// (same threaded graph, same longest path).
    ///
    /// This is the stitch's verification oracle: it rebuilds a
    /// whole-graph scheduling state so that `check_invariants` can
    /// cross-validate the stitched threading and ECO refinement can be
    /// exercised on it. It is not a production path.
    ///
    /// # Errors
    ///
    /// The errors of [`ThreadedScheduler::new`] and
    /// [`ThreadedScheduler::schedule`].
    pub fn materialize(&self, run: &ParallelRun) -> Result<ThreadedScheduler, SchedError> {
        let _span = hls_obs::obs_span!(ParallelMaterialize, "", self.g.len() as u64);
        let mut ts = ThreadedScheduler::new(self.g.clone(), self.resources.clone())?;
        let mut tails: Vec<Option<OpId>> = vec![None; self.resources.k()];
        for &v in &run.meta_order {
            match run.schedule.unit(v) {
                None => {
                    // Wire-class ops get their own singleton threads,
                    // exactly as in sequential scheduling.
                    ts.schedule(v)?;
                }
                Some(k) => {
                    ts.commit(Placement { thread: k, after: tails[k], cost: 0 }, v);
                    tails[k] = Some(v);
                }
            }
        }
        Ok(ts)
    }
}
