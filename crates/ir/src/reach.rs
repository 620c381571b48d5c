//! Chain-cover reachability index — a sub-quadratic replacement for the
//! dense transitive-closure [`BitMatrix`](crate::BitMatrix) pair.
//!
//! The vertex set of a DAG is partitioned into *chains*: sequences
//! `x₁, x₂, …` in which every element reaches the next (both
//! decompositions below follow graph edges, which is sufficient). The
//! initial cover is a *minimum path cover* via Hopcroft–Karp matching,
//! so `#chains` tracks the graph's width rather than degrading with
//! scale. Every vertex gets one `(chain, position)` coordinate, and two
//! per-vertex vectors of length `#chains`:
//!
//! * `down[v][c]` — the **lowest** position in chain `c` occupied by a
//!   strict descendant of `v` ([`NO_DOWN`] when none). Because chain
//!   members reach all of their chain successors, *every* position
//!   `≥ down[v][c]` is reachable from `v`.
//! * `up[v][c]` — the **highest** position in chain `c` occupied by a
//!   strict ancestor of `v` ([`NO_UP`] when none); every position
//!   `≤ up[v][c]` reaches `v`.
//!
//! So `reaches(u, v)` is one comparison (`down[u][chain(v)] ≤ pos(v)`),
//! an existential probe against a vertex set reduces to `#chains`
//! comparisons against a per-chain extremum, and the whole index costs
//! `O(|V| · #chains)` memory — `o(|V|²)` whenever the cover is small,
//! which it is for bounded-width behavior DAGs (by Dilworth the optimal
//! cover equals the maximum antichain). The dense matrices remain
//! available through [`crate::algo::closures`] as the small-`V` oracle;
//! [`ReachIndex::check`] cross-validates against them.
//!
//! The index is *incrementally maintainable*: [`ReachIndex::grow`]
//! absorbs appended vertices (refinement splices, ECO ops) by chaining
//! the new vertices, seeding their vectors from their neighbours, and
//! running a localized min/max relaxation over the affected cone only —
//! no from-scratch rebuild, no `O(|V|²)` row surgery.

use crate::{algo, OpId, PrecedenceGraph};

/// Chain position type. Positions are chain-local and chains are split
/// at `MAX_POS` members, so 16 bits always suffice — this halves the
/// `O(|V| · #chains)` tables relative to a `u32` encoding (the tables
/// dominate the index's footprint at production sizes).
pub type Pos = u16;

/// Longest permitted chain; longer paths are split into several chains
/// (still a valid cover), keeping every position below the sentinels.
const MAX_POS: u32 = u16::MAX as u32 - 1;

/// Hard vertex capacity: chain ids live in `u32` with `u32::MAX` as
/// the "unassigned" sentinel, and every chain holds at least one
/// vertex, so `#chains ≤ |V|` must stay strictly below the sentinel.
const MAX_VERTICES: usize = u32::MAX as usize - 1;

/// The graph exceeds the index's capacity limits (vertex-id width or
/// table size) — see [`ReachIndex::try_build`]. Schedulers surface
/// this as their `ResourceExhausted` error rather than truncating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityError {
    /// Human-readable description of the exceeded limit.
    msg: String,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reachability index capacity exceeded: {}", self.msg)
    }
}

impl std::error::Error for CapacityError {}

/// Rejects vertex counts that would overflow the chain-id space, and
/// table sizes that would overflow `usize`.
fn capacity_check(n: usize, stride: usize) -> Result<(), CapacityError> {
    if n > MAX_VERTICES {
        return Err(CapacityError {
            msg: format!("{n} vertices exceed the {MAX_VERTICES}-vertex chain-id space"),
        });
    }
    if n.checked_mul(stride).is_none() {
        return Err(CapacityError {
            msg: format!("down/up tables of {n} x {stride} positions overflow usize"),
        });
    }
    Ok(())
}

/// "No descendant in this chain" sentinel: larger than every position.
pub const NO_DOWN: Pos = Pos::MAX;
/// "No ancestor in this chain" sentinel: smaller than every position
/// (positions are 1-based).
pub const NO_UP: Pos = 0;

/// Per-chain position extrema of a vertex subset — the shared
/// ingredient of every `O(#chains)` existential probe ("does any
/// member of the set strictly reach / get reached by `v`?").
///
/// For a set `S`, `min[c]` is the lowest chain-`c` position occupied
/// by a member (or [`NO_DOWN`] when none) and `max[c]` the highest (or
/// [`NO_UP`]). Because chain members reach their chain successors, the
/// chain-minimum member reaches everything any member of that chain
/// reaches, so the extrema alone decide set-level reachability — see
/// [`ReachIndex::set_reaches`] and [`ReachIndex::set_reached_by`].
///
/// Build one for an ad-hoc set with [`ReachIndex::extrema`], or keep
/// one incrementally with [`ChainExtrema::insert`] (the threaded
/// scheduler maintains its scheduled-set extrema this way, one `O(1)`
/// insert per commit). After [`ReachIndex::grow`] adds chains, call
/// [`ChainExtrema::sync_chain_count`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainExtrema {
    /// Per chain: lowest member position, [`NO_DOWN`] when empty.
    min: Vec<Pos>,
    /// Per chain: highest member position, [`NO_UP`] when empty.
    max: Vec<Pos>,
}

impl ChainExtrema {
    /// The extrema of the empty set over the chains of `index`.
    pub fn empty(index: &ReachIndex) -> ChainExtrema {
        ChainExtrema {
            min: vec![NO_DOWN; index.chain_count()],
            max: vec![NO_UP; index.chain_count()],
        }
    }

    /// Adds vertex `v` to the set. `O(1)`.
    pub fn insert(&mut self, index: &ReachIndex, v: usize) {
        let c = index.chain_of(v);
        let p = index.pos_of(v);
        self.min[c] = self.min[c].min(p);
        self.max[c] = self.max[c].max(p);
    }

    /// Number of chains the extrema cover.
    pub fn chain_count(&self) -> usize {
        self.min.len()
    }

    /// Extends the per-chain tables with empty entries after the
    /// underlying index grew new chains ([`ReachIndex::grow`]).
    pub fn sync_chain_count(&mut self, index: &ReachIndex) {
        self.min.resize(index.chain_count(), NO_DOWN);
        self.max.resize(index.chain_count(), NO_UP);
    }

    /// The lowest member position in chain `c` ([`NO_DOWN`] when the
    /// chain holds no member).
    pub fn min_of(&self, c: usize) -> Pos {
        self.min[c]
    }

    /// The highest member position in chain `c` ([`NO_UP`] when none).
    pub fn max_of(&self, c: usize) -> Pos {
        self.max[c]
    }
}

/// The chain-cover reachability index of a [`PrecedenceGraph`].
///
/// Answers strict-reachability queries (`u ≺_G v`) in `O(1)` and
/// "does `v` reach / is `v` reached by any member of a set" probes in
/// `O(#chains)`, using `O(|V| · #chains)` memory. See the [module
/// docs](self).
#[derive(Clone, Debug)]
pub struct ReachIndex {
    /// Number of indexed vertices.
    n: usize,
    /// Number of chains in the cover.
    chains: usize,
    /// Row width of `down`/`up`; `>= chains`, grown by doubling under
    /// [`ReachIndex::grow`] so relayouts stay amortized.
    stride: usize,
    /// Per vertex: its chain.
    chain: Vec<u32>,
    /// Per vertex: its 1-based position within its chain.
    pos: Vec<Pos>,
    /// Per chain: number of members (positions are `1..=len`).
    chain_len: Vec<Pos>,
    /// `down[v·stride + c]`: lowest chain-`c` position strictly
    /// reachable from `v`, or [`NO_DOWN`].
    down: Vec<Pos>,
    /// `up[v·stride + c]`: highest chain-`c` position strictly reaching
    /// `v`, or [`NO_UP`].
    up: Vec<Pos>,
}

impl ReachIndex {
    /// Builds the index for `g`: a *minimum path cover* (König/Dilworth
    /// reduction to bipartite matching, solved with Hopcroft–Karp in
    /// `O(|E|·√|V|)`) for the chains, then one sweep per direction for
    /// the vectors (`O(|E| · #chains)`).
    ///
    /// The matching matters: a greedy cover of a wide layered DAG
    /// fragments into `Θ(|V|)` chains once early chains steal later
    /// vertices' successors, which silently re-inflates the index to
    /// quadratic; the matching cover tracks the graph's width
    /// (`|V| − |matching|` paths) independent of scale.
    ///
    /// # Panics
    ///
    /// Panics if `g` is cyclic or exceeds the index's capacity; use
    /// [`ReachIndex::try_build`] for a fallible variant.
    pub fn build(g: &PrecedenceGraph) -> ReachIndex {
        match ReachIndex::try_build(g) {
            Ok(idx) => idx,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ReachIndex::build`]: rejects graphs whose vertex
    /// count would overflow the `u32` chain-id space or whose
    /// `|V| × #chains` tables would overflow `usize`, instead of
    /// silently truncating ids.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] when a capacity limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `g` is cyclic.
    pub fn try_build(g: &PrecedenceGraph) -> Result<ReachIndex, CapacityError> {
        let order = algo::topo_order(g).expect("ReachIndex requires an acyclic graph");
        let n = g.len();
        capacity_check(n, 1)?;
        let mut idx = ReachIndex {
            n,
            chains: 0,
            stride: 0,
            chain: vec![u32::MAX; n],
            pos: vec![0; n],
            chain_len: Vec::new(),
            down: Vec::new(),
            up: Vec::new(),
        };
        // Minimum path cover: each vertex is matched to at most one
        // successor and one predecessor; the matched edges decompose
        // `V` into `|V| − |matching|` vertex-disjoint paths. Chains
        // follow edges, so membership order is reachability order.
        let pair_succ = max_matching(g);
        let mut is_head = vec![true; n];
        for &s in &pair_succ {
            if s != u32::MAX {
                is_head[s as usize] = false;
            }
        }
        for &v in &order {
            if !is_head[v.index()] {
                continue;
            }
            idx.cover_path(v.index(), |_, cur| {
                (pair_succ[cur] != u32::MAX).then_some(pair_succ[cur] as usize)
            });
        }
        idx.chains = idx.chain_len.len();
        idx.stride = idx.chains.max(1);
        capacity_check(n, idx.stride)?;
        idx.down = vec![NO_DOWN; n * idx.stride];
        idx.up = vec![NO_UP; n * idx.stride];
        let mut buf = vec![0 as Pos; idx.chains];
        for &v in order.iter().rev() {
            for &s in g.succs(v) {
                idx.refl_down_into(s.index(), &mut buf);
                min_into(idx.down_row_mut(v.index()), &buf);
            }
        }
        for &v in &order {
            for &p in g.preds(v) {
                idx.refl_up_into(p.index(), &mut buf);
                max_into(idx.up_row_mut(v.index()), &buf);
            }
        }
        Ok(idx)
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the empty index.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of chains in the cover.
    pub fn chain_count(&self) -> usize {
        self.chains
    }

    /// The chain of vertex `v`.
    pub fn chain_of(&self, v: usize) -> usize {
        self.chain[v] as usize
    }

    /// The 1-based position of vertex `v` within its chain.
    pub fn pos_of(&self, v: usize) -> Pos {
        self.pos[v]
    }

    /// `true` iff `u` strictly reaches `v` (`u ≺_G v`).
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        hls_obs::obs_count!(ReachPairProbes);
        self.down[u * self.stride + self.chain[v] as usize] <= self.pos[v]
    }

    /// The `down` vector of `v`, one entry per chain: the lowest
    /// position strictly reachable from `v`, or [`NO_DOWN`]. A vertex
    /// set containing any chain-`c` member at position `≥ down[c]`
    /// contains a strict descendant of `v`.
    pub fn down_row(&self, v: usize) -> &[Pos] {
        &self.down[v * self.stride..v * self.stride + self.chains]
    }

    /// The `up` vector of `v`: the highest chain position strictly
    /// reaching `v`, or [`NO_UP`] — the mirror of
    /// [`ReachIndex::down_row`].
    pub fn up_row(&self, v: usize) -> &[Pos] {
        &self.up[v * self.stride..v * self.stride + self.chains]
    }

    /// Builds the [`ChainExtrema`] of an ad-hoc vertex set.
    pub fn extrema(&self, set: impl IntoIterator<Item = usize>) -> ChainExtrema {
        let mut ex = ChainExtrema::empty(self);
        for v in set {
            ex.insert(self, v);
        }
        ex
    }

    /// `true` iff some member of the set behind `ex` strictly reaches
    /// `v`. `O(#chains)`: a chain's minimum member reaches everything
    /// any member of that chain reaches, so chain `c` contributes an
    /// ancestor exactly when `ex.min_of(c) ≤ up[v][c]`.
    pub fn set_reaches(&self, ex: &ChainExtrema, v: usize) -> bool {
        hls_obs::obs_count!(ReachSetProbes);
        debug_assert_eq!(
            ex.min.len(),
            self.chains,
            "extrema must be synced to the index (sync_chain_count after grow)"
        );
        kernels::any_le(&ex.min, self.up_row(v))
    }

    /// `true` iff some member of the set behind `ex` is strictly
    /// reached by `v` — the mirror of [`ReachIndex::set_reaches`]
    /// against the per-chain maxima and the `down` vector.
    pub fn set_reached_by(&self, ex: &ChainExtrema, v: usize) -> bool {
        hls_obs::obs_count!(ReachSetProbes);
        debug_assert_eq!(
            ex.max.len(),
            self.chains,
            "extrema must be synced to the index (sync_chain_count after grow)"
        );
        kernels::any_le(self.down_row(v), &ex.max)
    }

    /// The *convex closure* of `seed`: the seed vertices plus every
    /// vertex lying on a path between two of them (a strict ancestor of
    /// one seed member and a strict descendant of another). This is the
    /// critical-path *cone* extraction used by the feedback-guided
    /// refinement loop: seeded with the zero-slack operations, it
    /// returns a dependence-convex subgraph whose internal order is the
    /// only thing the re-scheduling perturbations need to vary.
    ///
    /// `O(|V| · #chains)` — two set-probes per vertex against the
    /// seed's [`ChainExtrema`]. The result is sorted ascending and
    /// duplicate-free (assuming `seed` is).
    pub fn convex_closure(&self, seed: &[usize]) -> Vec<usize> {
        let ex = self.extrema(seed.iter().copied());
        let mut in_seed = vec![false; self.n];
        for &v in seed {
            in_seed[v] = true;
        }
        (0..self.n)
            .filter(|&v| {
                in_seed[v] || (self.set_reaches(&ex, v) && self.set_reached_by(&ex, v))
            })
            .collect()
    }

    /// Absorbs vertices appended to `g` since the index was built or
    /// last grown (refinement splices, ECO ops — the mutation API only
    /// appends). New vertices are covered by fresh chains following
    /// their forward edges, seeded from their neighbours' vectors, and
    /// the existing entries are repaired by a *localized* min/max
    /// relaxation: only vertices whose vectors actually change are
    /// visited (all new reachability routes through the new vertices,
    /// and every affected ancestor/descendant strictly improves in a
    /// fresh-chain column, so the worklist reaches exactly the affected
    /// cone).
    ///
    /// # Panics
    ///
    /// Panics if the grown graph exceeds the index's capacity; use
    /// [`ReachIndex::try_grow`] for a fallible variant.
    pub fn grow(&mut self, g: &PrecedenceGraph) {
        if let Err(e) = self.try_grow(g) {
            panic!("{e}");
        }
    }

    /// Fallible [`ReachIndex::grow`] — the growth analogue of
    /// [`ReachIndex::try_build`]. On `Err` the index is unchanged.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] when a capacity limit is exceeded.
    pub fn try_grow(&mut self, g: &PrecedenceGraph) -> Result<(), CapacityError> {
        let old = self.n;
        let new = g.len();
        if new == old {
            return Ok(());
        }
        // Check the worst-case post-growth table up front (stride at
        // most doubles or becomes #chains ≤ |V|) so a failure leaves
        // the index untouched.
        capacity_check(new, self.stride.saturating_mul(2).max(new).max(1))?;
        let old_chains = self.chains;
        self.chain.resize(new, u32::MAX);
        self.pos.resize(new, 0);
        for w in old..new {
            if self.chain[w] != u32::MAX {
                continue;
            }
            // New chains extend greedily along edges, and only through
            // this batch's vertices: old vertices are already covered.
            self.cover_path(w, |chain, cur| {
                g.succs(OpId::from_index(cur))
                    .iter()
                    .map(|s| s.index())
                    .find(|&s| s >= old && chain[s] == u32::MAX)
            });
        }
        self.chains = self.chain_len.len();
        self.n = new;
        if self.chains > self.stride {
            let old_stride = self.stride;
            let stride = (old_stride * 2).max(self.chains);
            let relayout = |tab: &mut Vec<Pos>, fill: Pos| {
                let mut next = vec![fill; new * stride];
                for i in 0..old {
                    next[i * stride..i * stride + old_chains]
                        .copy_from_slice(&tab[i * old_stride..i * old_stride + old_chains]);
                }
                *tab = next;
            };
            relayout(&mut self.down, NO_DOWN);
            relayout(&mut self.up, NO_UP);
            self.stride = stride;
        } else {
            self.down.resize(new * self.stride, NO_DOWN);
            self.up.resize(new * self.stride, NO_UP);
        }
        // Seed the new vertices from their direct neighbours. Edges of
        // a growth batch run forward (old → new, new → higher-new,
        // new → old), so a reverse pass finalises `down` seeds and a
        // forward pass `up` seeds; any residual staleness is closed by
        // the relaxation below.
        let mut buf = vec![0 as Pos; self.chains];
        for w in (old..new).rev() {
            for &s in g.succs(OpId::from_index(w)) {
                self.refl_down_into(s.index(), &mut buf);
                min_into(self.down_row_mut(w), &buf);
            }
        }
        for w in old..new {
            for &p in g.preds(OpId::from_index(w)) {
                self.refl_up_into(p.index(), &mut buf);
                max_into(self.up_row_mut(w), &buf);
            }
        }
        // Backward min-relaxation: every vertex gaining reachability
        // gains it through a new vertex, so propagating the (reflexive)
        // down vectors of the new vertices to fixpoint repairs exactly
        // the affected backward cone.
        let mut queue: Vec<u32> = (old as u32..new as u32).collect();
        while let Some(x) = queue.pop() {
            self.refl_down_into(x as usize, &mut buf);
            for &p in g.preds(OpId::from_index(x as usize)) {
                if min_into(self.down_row_mut(p.index()), &buf) {
                    queue.push(p.index() as u32);
                }
            }
        }
        // Forward max-relaxation for `up`, mirrored.
        let mut queue: Vec<u32> = (old as u32..new as u32).collect();
        while let Some(x) = queue.pop() {
            self.refl_up_into(x as usize, &mut buf);
            for &s in g.succs(OpId::from_index(x as usize)) {
                if max_into(self.up_row_mut(s.index()), &buf) {
                    queue.push(s.index() as u32);
                }
            }
        }
        Ok(())
    }

    /// Verifies the index against the dense closures of `g` — the
    /// small-`V` oracle: chain well-formedness (positions `1..=len`,
    /// members in reachability order) and exact agreement of
    /// `reaches`/`down`/`up` with the [`BitMatrix`](crate::BitMatrix)
    /// pair. `O(|V|²)` — verification only, never on a hot path.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    pub fn check(&self, g: &PrecedenceGraph) -> Result<(), String> {
        if self.n != g.len() {
            return Err(format!("index covers {} vertices, graph has {}", self.n, g.len()));
        }
        if self.chains != self.chain_len.len() {
            return Err("chain count disagrees with chain_len".to_string());
        }
        // Chains partition the vertices with positions exactly 1..=len,
        // in reachability order.
        let mut members: Vec<Vec<(Pos, usize)>> = vec![Vec::new(); self.chains];
        for v in 0..self.n {
            let c = self.chain[v] as usize;
            if c >= self.chains {
                return Err(format!("vertex {v}: chain {c} out of range"));
            }
            members[c].push((self.pos[v], v));
        }
        let (anc, desc) = algo::closures(g);
        for (c, mem) in members.iter_mut().enumerate() {
            mem.sort_unstable();
            if mem.len() != self.chain_len[c] as usize {
                return Err(format!("chain {c}: {} members, recorded {}", mem.len(), self.chain_len[c]));
            }
            for (i, &(p, v)) in mem.iter().enumerate() {
                if p as usize != i + 1 {
                    return Err(format!("chain {c}: vertex {v} at position {p}, expected {}", i + 1));
                }
                if i > 0 && !desc.get(mem[i - 1].1, v) {
                    return Err(format!("chain {c}: member {} does not reach member {v}", mem[i - 1].1));
                }
            }
        }
        // down/up agree exactly with the dense closures.
        for v in 0..self.n {
            for (c, mem) in members.iter().enumerate() {
                let want_down = mem
                    .iter()
                    .find(|&&(_, m)| desc.get(v, m))
                    .map_or(NO_DOWN, |&(p, _)| p);
                if self.down_row(v)[c] != want_down {
                    return Err(format!(
                        "vertex {v}: down[{c}] = {} but closure says {want_down}",
                        self.down_row(v)[c]
                    ));
                }
                let want_up = mem
                    .iter()
                    .rev()
                    .find(|&&(_, m)| anc.get(v, m))
                    .map_or(NO_UP, |&(p, _)| p);
                if self.up_row(v)[c] != want_up {
                    return Err(format!(
                        "vertex {v}: up[{c}] = {} but closure says {want_up}",
                        self.up_row(v)[c]
                    ));
                }
            }
            for u in 0..self.n {
                if self.reaches(v, u) != desc.get(v, u) {
                    return Err(format!(
                        "reaches({v}, {u}) = {} but closure says {}",
                        self.reaches(v, u),
                        desc.get(v, u)
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Covers one path starting at `head`: assigns chain ids and
    /// 1-based positions along the vertices yielded by `next` (which
    /// sees the current chain-assignment table and the current vertex),
    /// splitting at [`MAX_POS`] members so positions always fit
    /// [`Pos`] — a path prefix is still a valid chain.
    fn cover_path(
        &mut self,
        head: usize,
        mut next: impl FnMut(&[u32], usize) -> Option<usize>,
    ) {
        let mut c = self.chain_len.len() as u32;
        let mut cur = head;
        let mut p = 0u32;
        loop {
            if p >= MAX_POS {
                self.chain_len.push(p as Pos);
                c = self.chain_len.len() as u32;
                p = 0;
            }
            p += 1;
            // A full chain ends exactly at MAX_POS = 65534: strictly
            // below NO_DOWN (65535) and strictly above NO_UP (0), so
            // both sentinels stay outside the position range even for
            // the boundary member.
            debug_assert!(p as Pos > NO_UP && (p as Pos) < NO_DOWN);
            self.chain[cur] = c;
            self.pos[cur] = p as Pos;
            match next(&self.chain, cur) {
                Some(s) => cur = s,
                None => break,
            }
        }
        self.chain_len.push(p as Pos);
    }

    fn down_row_mut(&mut self, v: usize) -> &mut [Pos] {
        &mut self.down[v * self.stride..v * self.stride + self.chains]
    }

    fn up_row_mut(&mut self, v: usize) -> &mut [Pos] {
        &mut self.up[v * self.stride..v * self.stride + self.chains]
    }

    /// Copies the *reflexive* down vector of `v` into `buf`: `down[v]`
    /// with `v`'s own coordinate folded in.
    fn refl_down_into(&self, v: usize, buf: &mut [Pos]) {
        buf.copy_from_slice(self.down_row(v));
        let c = self.chain[v] as usize;
        buf[c] = buf[c].min(self.pos[v]);
    }

    /// Reflexive up vector of `v` — the mirror of
    /// [`ReachIndex::refl_down_into`].
    fn refl_up_into(&self, v: usize, buf: &mut [Pos]) {
        buf.copy_from_slice(self.up_row(v));
        let c = self.chain[v] as usize;
        buf[c] = buf[c].max(self.pos[v]);
    }
}

/// Maximum bipartite matching of the DAG's edge set (left copy =
/// vertices as edge *sources*, right copy = vertices as *targets*) via
/// Hopcroft–Karp — `O(|E|·√|V|)`. Returns `pair_succ`: per vertex, its
/// matched successor or `u32::MAX`. The matched edges form the minimum
/// path cover used as the chain decomposition.
fn max_matching(g: &PrecedenceGraph) -> Vec<u32> {
    const FREE: u32 = u32::MAX;
    const INF: u32 = u32::MAX;
    let n = g.len();
    let mut pair_succ = vec![FREE; n];
    let mut pair_pred = vec![FREE; n];
    let mut dist = vec![INF; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    // DFS stack: (left vertex, index of the next successor to try).
    let mut stack: Vec<(u32, usize)> = Vec::new();
    loop {
        // BFS phase: layer the left vertices by alternating-path depth
        // from the free ones; stop when a free right vertex is seen.
        queue.clear();
        for u in 0..n {
            if pair_succ[u] == FREE {
                dist[u] = 0;
                queue.push(u as u32);
            } else {
                dist[u] = INF;
            }
        }
        let mut augmenting = false;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v in g.succs(OpId::from_index(u)) {
                let w = pair_pred[v.index()];
                if w == FREE {
                    augmenting = true;
                } else if dist[w as usize] == INF {
                    dist[w as usize] = dist[u] + 1;
                    queue.push(w);
                }
            }
        }
        if !augmenting {
            return pair_succ;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths along
        // the BFS layering, iterative to keep the stack off the call
        // stack for deep phases.
        for u0 in 0..n {
            if pair_succ[u0] != FREE {
                continue;
            }
            stack.clear();
            stack.push((u0 as u32, 0));
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                let ui = u as usize;
                let succs = g.succs(OpId::from_index(ui));
                if *i >= succs.len() {
                    // Dead end: bar this vertex for the rest of the phase.
                    dist[ui] = INF;
                    stack.pop();
                    continue;
                }
                let v = succs[*i];
                *i += 1;
                let w = pair_pred[v.index()];
                if w == FREE {
                    // Free right vertex: flip the whole alternating
                    // path. Every frame's chosen edge is its previous
                    // successor (`i - 1`); re-matching from the top
                    // down rewrites each link exactly once.
                    while let Some((u, i)) = stack.pop() {
                        let chosen = g.succs(OpId::from_index(u as usize))[i - 1];
                        pair_succ[u as usize] = chosen.index() as u32;
                        pair_pred[chosen.index()] = u;
                    }
                } else if dist[w as usize] == dist[ui] + 1 {
                    stack.push((w, 0));
                }
            }
        }
    }
}

pub use kernels::{max_into, min_into};

/// Word-parallel (SWAR) kernels over the `u16` extremum rows.
///
/// Every row walk the index performs — the build/grow min/max
/// relaxations and the `O(#chains)` set probes — reduces to an
/// elementwise `min`/`max`/`≤` over two `u16` vectors. These kernels
/// process **4 lanes per iteration** by packing four positions into one
/// `u64` and doing per-lane unsigned comparison with plain integer
/// arithmetic, so they run on stable Rust with no `unsafe` and no
/// target-feature gates (the CI toolchain has no nightly `std::simd`).
///
/// The word trick: split a packed word into its even lanes (bits
/// 0–15, 32–47) and odd lanes (shifted right 16). With 16-bit values
/// `a`, `b` in even-lane slots, `(b | GUARD) − a` cannot borrow across
/// lanes — `0x1_0000 + b − a` always fits in 17 bits — and its guard
/// bit (bit 16 of each 32-bit slot) survives exactly when `a ≤ b`.
/// That bit yields an "any lane ≤" probe directly, or a full-lane
/// select mask via `(guard_bits >> 16) * 0xFFFF`. The scalar
/// `*_scalar` twins are the oracles for the differential fuzz suite
/// (`reach_properties.rs`) and for the microbench before/after.
pub mod kernels {
    use super::Pos;

    /// Even-lane mask of a packed 4×`u16` word: lanes 0 and 2.
    const EVEN: u64 = 0x0000_FFFF_0000_FFFF;
    /// Per-even-lane borrow guards: bit 16 of each 32-bit slot.
    const GUARD: u64 = 0x0001_0000_0001_0000;

    /// Packs 4 consecutive positions into a `u64`, lane 0 lowest.
    /// Compiles to a single 8-byte load on little-endian targets.
    #[inline(always)]
    fn pack(c: &[Pos]) -> u64 {
        (c[0] as u64) | (c[1] as u64) << 16 | (c[2] as u64) << 32 | (c[3] as u64) << 48
    }

    /// Guard bits (16 and 48) set where `a ≤ b`, for even-lane values.
    /// No inter-lane borrow: `0x1_0000 + b − a` fits in 17 bits.
    #[inline(always)]
    fn le_guards(a: u64, b: u64) -> u64 {
        ((b | GUARD).wrapping_sub(a)) & GUARD
    }

    /// `0xFFFF` in each even lane where `a ≤ b`, `0` elsewhere. The
    /// multiply broadcasts the isolated guard bits (at 0 and 32 after
    /// the shift) into full lanes without overlap.
    #[inline(always)]
    fn le_mask(a: u64, b: u64) -> u64 {
        (le_guards(a, b) >> 16).wrapping_mul(0xFFFF)
    }

    /// Per-lane minimum of two packed 4×`u16` words.
    #[inline(always)]
    fn lane_min(a: u64, b: u64) -> u64 {
        let (ae, be) = (a & EVEN, b & EVEN);
        let (ao, bo) = ((a >> 16) & EVEN, (b >> 16) & EVEN);
        // Select `a` where `a ≤ b`, else `b`: b ^ ((a^b) & mask).
        let me = be ^ ((ae ^ be) & le_mask(ae, be));
        let mo = bo ^ ((ao ^ bo) & le_mask(ao, bo));
        me | (mo << 16)
    }

    /// Per-lane maximum of two packed 4×`u16` words.
    #[inline(always)]
    fn lane_max(a: u64, b: u64) -> u64 {
        let (ae, be) = (a & EVEN, b & EVEN);
        let (ao, bo) = ((a >> 16) & EVEN, (b >> 16) & EVEN);
        // Select `b` where `a ≤ b`, else `a`: a ^ ((a^b) & mask).
        let me = ae ^ ((ae ^ be) & le_mask(ae, be));
        let mo = ao ^ ((ao ^ bo) & le_mask(ao, bo));
        me | (mo << 16)
    }

    /// Unpacks a word back into 4 consecutive positions.
    #[inline(always)]
    fn unpack(w: u64, c: &mut [Pos]) {
        c[0] = w as Pos;
        c[1] = (w >> 16) as Pos;
        c[2] = (w >> 32) as Pos;
        c[3] = (w >> 48) as Pos;
    }

    /// `dst = min(dst, src)` elementwise; `true` if anything changed.
    /// 4 lanes per iteration, scalar ragged tail.
    pub fn min_into(dst: &mut [Pos], src: &[Pos]) -> bool {
        let n = dst.len().min(src.len());
        let mut diff = 0u64;
        let mut i = 0;
        while i + 4 <= n {
            let d = pack(&dst[i..i + 4]);
            let m = lane_min(d, pack(&src[i..i + 4]));
            diff |= d ^ m;
            unpack(m, &mut dst[i..i + 4]);
            i += 4;
        }
        let mut changed = diff != 0;
        for (d, &s) in dst[i..n].iter_mut().zip(&src[i..n]) {
            if s < *d {
                *d = s;
                changed = true;
            }
        }
        changed
    }

    /// `dst = max(dst, src)` elementwise; `true` if anything changed.
    pub fn max_into(dst: &mut [Pos], src: &[Pos]) -> bool {
        let n = dst.len().min(src.len());
        let mut diff = 0u64;
        let mut i = 0;
        while i + 4 <= n {
            let d = pack(&dst[i..i + 4]);
            let m = lane_max(d, pack(&src[i..i + 4]));
            diff |= d ^ m;
            unpack(m, &mut dst[i..i + 4]);
            i += 4;
        }
        let mut changed = diff != 0;
        for (d, &s) in dst[i..n].iter_mut().zip(&src[i..n]) {
            if s > *d {
                *d = s;
                changed = true;
            }
        }
        changed
    }

    /// `true` iff some lane has `a[i] ≤ b[i]` — the shared body of the
    /// two set probes ([`super::ReachIndex::set_reaches`] is
    /// `any_le(min, up_row)`; [`super::ReachIndex::set_reached_by`] is
    /// `any_le(down_row, max)`). The all-false case — the common one
    /// while a probe's answer is "no" — runs the full row at 4 lanes
    /// per iteration with no data-dependent branches.
    pub fn any_le(a: &[Pos], b: &[Pos]) -> bool {
        let n = a.len().min(b.len());
        let mut i = 0;
        while i + 4 <= n {
            let aw = pack(&a[i..i + 4]);
            let bw = pack(&b[i..i + 4]);
            let even = le_guards(aw & EVEN, bw & EVEN);
            let odd = le_guards((aw >> 16) & EVEN, (bw >> 16) & EVEN);
            if even | odd != 0 {
                return true;
            }
            i += 4;
        }
        a[i..n].iter().zip(&b[i..n]).any(|(&x, &y)| x <= y)
    }

    /// Scalar oracle for [`min_into`] — reference semantics for the
    /// differential fuzz suite and the kernel microbench.
    pub fn min_into_scalar(dst: &mut [Pos], src: &[Pos]) -> bool {
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src) {
            if s < *d {
                *d = s;
                changed = true;
            }
        }
        changed
    }

    /// Scalar oracle for [`max_into`].
    pub fn max_into_scalar(dst: &mut [Pos], src: &[Pos]) -> bool {
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src) {
            if s > *d {
                *d = s;
                changed = true;
            }
        }
        changed
    }

    /// Scalar oracle for [`any_le`].
    pub fn any_le_scalar(a: &[Pos], b: &[Pos]) -> bool {
        a.iter().zip(b).any(|(&x, &y)| x <= y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    /// a -> b -> d, a -> c -> d.
    fn diamond() -> (PrecedenceGraph, [OpId; 4]) {
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let b = g.add_op(OpKind::Mul, 2, "b");
        let c = g.add_op(OpKind::Sub, 1, "c");
        let d = g.add_op(OpKind::Add, 1, "d");
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn diamond_reachability_and_cover() {
        let (g, [a, b, c, d]) = diamond();
        let idx = ReachIndex::build(&g);
        idx.check(&g).unwrap();
        assert!(idx.reaches(a.index(), d.index()));
        assert!(idx.reaches(a.index(), b.index()));
        assert!(!idx.reaches(b.index(), c.index()));
        assert!(!idx.reaches(d.index(), a.index()));
        assert!(!idx.reaches(a.index(), a.index()), "strict");
        // A 4-vertex diamond is covered by 2 chains (Dilworth: max
        // antichain {b, c}).
        assert_eq!(idx.chain_count(), 2);
    }

    #[test]
    fn empty_and_singleton() {
        let g = PrecedenceGraph::new();
        let idx = ReachIndex::build(&g);
        assert!(idx.is_empty());
        assert_eq!(idx.chain_count(), 0);
        idx.check(&g).unwrap();

        let mut g = PrecedenceGraph::new();
        let v = g.add_op(OpKind::Add, 1, "v");
        let idx = ReachIndex::build(&g);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.chain_count(), 1);
        assert!(!idx.reaches(v.index(), v.index()));
        idx.check(&g).unwrap();
    }

    #[test]
    fn antichain_degenerates_to_one_chain_per_vertex() {
        let mut g = PrecedenceGraph::new();
        for i in 0..17 {
            g.add_op(OpKind::Add, 1, format!("n{i}"));
        }
        let idx = ReachIndex::build(&g);
        assert_eq!(idx.chain_count(), 17);
        idx.check(&g).unwrap();
    }

    #[test]
    fn chain_graph_is_one_chain() {
        let mut g = PrecedenceGraph::new();
        let ids: Vec<OpId> = (0..130).map(|i| g.add_op(OpKind::Add, 1, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let idx = ReachIndex::build(&g);
        assert_eq!(idx.chain_count(), 1);
        assert!(idx.reaches(0, 129));
        assert!(!idx.reaches(129, 0));
        idx.check(&g).unwrap();
    }

    #[test]
    fn grow_absorbs_a_splice() {
        let (mut g, [a, b, _c, d]) = diamond();
        let mut idx = ReachIndex::build(&g);
        let inserted = g
            .splice_on_edge(
                a,
                b,
                [
                    (OpKind::WireDelay, 1, "w0".to_string()),
                    (OpKind::WireDelay, 1, "w1".to_string()),
                ],
            )
            .unwrap();
        idx.grow(&g);
        idx.check(&g).unwrap();
        assert!(idx.reaches(a.index(), inserted[0].index()));
        assert!(idx.reaches(inserted[0].index(), inserted[1].index()));
        assert!(idx.reaches(inserted[1].index(), d.index()));
        assert!(!idx.reaches(inserted[0].index(), a.index()));
        // The spliced pair forms one new chain.
        assert_eq!(idx.chain_of(inserted[0].index()), idx.chain_of(inserted[1].index()));
    }

    #[test]
    fn grow_absorbs_an_eco_op_bridging_old_vertices() {
        // b and c are incomparable; an added op b -> x -> c creates the
        // new old-to-old reachability b ≺ c that must propagate to b's
        // ancestors.
        let (mut g, [a, b, c, d]) = diamond();
        let mut idx = ReachIndex::build(&g);
        assert!(!idx.reaches(b.index(), c.index()));
        let x = g.add_op(OpKind::Add, 1, "x");
        g.add_edge(b, x).unwrap();
        g.add_edge(x, c).unwrap();
        idx.grow(&g);
        idx.check(&g).unwrap();
        assert!(idx.reaches(b.index(), c.index()), "new path b -> x -> c");
        assert!(idx.reaches(a.index(), x.index()), "ancestors learn the new vertex");
        assert!(idx.reaches(x.index(), d.index()));
    }

    #[test]
    fn repeated_grows_stay_exact() {
        let (mut g, [a, _b, c, d]) = diamond();
        let mut idx = ReachIndex::build(&g);
        // Enough batches to force several stride doublings.
        let mut last = c;
        for i in 0..10 {
            let w = g.add_op(OpKind::WireDelay, 1, format!("w{i}"));
            g.add_edge(last, w).unwrap();
            g.add_edge(w, d).unwrap();
            idx.grow(&g);
            idx.check(&g).unwrap();
            assert!(idx.reaches(a.index(), w.index()));
            last = w;
        }
        assert_eq!(idx.len(), g.len());
    }

    #[test]
    fn set_probes_match_the_dense_closure() {
        let (g, ids) = {
            let (g, ids) = diamond();
            (g, ids.to_vec())
        };
        let idx = ReachIndex::build(&g);
        let (anc, desc) = crate::algo::closures(&g);
        // Every nonempty subset of the 4 vertices, both probes, every
        // probe vertex — exhaustive against the dense oracle.
        for bits in 1u32..16 {
            let set: Vec<usize> = (0..4).filter(|i| bits & (1 << i) != 0).collect();
            let ex = idx.extrema(set.iter().copied());
            for v in 0..4 {
                let want_anc = set.iter().any(|&u| desc.get(u, v));
                let want_desc = set.iter().any(|&u| anc.get(u, v));
                assert_eq!(idx.set_reaches(&ex, v), want_anc, "set {set:?} reaches {v}");
                assert_eq!(idx.set_reached_by(&ex, v), want_desc, "set {set:?} reached by {v}");
            }
        }
        let _ = ids;
    }

    #[test]
    fn convex_closure_fills_in_the_between_vertices() {
        // a -> b -> d, a -> c -> d: the closure of {a, d} must pull in
        // b and c (both between), while {b} alone stays {b}.
        let (g, [a, b, c, d]) = diamond();
        let idx = ReachIndex::build(&g);
        let cone = idx.convex_closure(&[a.index(), d.index()]);
        assert_eq!(cone, vec![a.index(), b.index(), c.index(), d.index()]);
        assert_eq!(idx.convex_closure(&[b.index()]), vec![b.index()]);
        assert_eq!(idx.convex_closure(&[]), Vec::<usize>::new());
    }

    #[test]
    fn extrema_track_grow_and_incremental_inserts() {
        let (mut g, [a, b, _c, d]) = diamond();
        let mut idx = ReachIndex::build(&g);
        let mut ex = ChainExtrema::empty(&idx);
        ex.insert(&idx, a.index());
        assert!(idx.set_reaches(&ex, d.index()));
        assert!(!idx.set_reaches(&ex, a.index()), "strict: a does not reach itself");
        // Grow the graph; the extrema must resize before further use.
        let x = g.add_op(OpKind::Add, 1, "x");
        g.add_edge(b, x).unwrap();
        idx.grow(&g);
        ex.sync_chain_count(&idx);
        assert_eq!(ex.chain_count(), idx.chain_count());
        assert!(idx.set_reaches(&ex, x.index()), "a reaches the new vertex");
        // Incremental inserts agree with the batch constructor.
        ex.insert(&idx, x.index());
        let batch = idx.extrema([a.index(), x.index()]);
        assert_eq!(ex, batch);
    }

    #[test]
    fn chain_split_at_the_u16_boundary_keeps_reachability_exact() {
        // A path one longer than the largest single chain: MAX_POS + 2
        // vertices force a split into exactly two chains, with the
        // first holding MAX_POS members at positions 1..=MAX_POS. The
        // dense-oracle `check` is out of reach here (Θ(|V|²) closures),
        // so assert the split geometry and reachability directly.
        let n = MAX_POS as usize + 2; // 65536
        let mut g = PrecedenceGraph::new();
        let ids: Vec<OpId> = (0..n).map(|i| g.add_op(OpKind::Add, 1, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let idx = ReachIndex::try_build(&g).unwrap();
        assert_eq!(idx.chain_count(), 2, "one split at MAX_POS");
        let first = ids[0].index();
        let boundary = ids[MAX_POS as usize - 1].index(); // last of chain 0
        let after = ids[MAX_POS as usize].index(); // first of chain 1
        let last = ids[n - 1].index();
        assert_eq!(idx.pos_of(boundary) as u32, MAX_POS, "no truncation at the boundary");
        assert_ne!(idx.chain_of(boundary), idx.chain_of(after));
        assert_eq!(idx.pos_of(after), 1, "split chain restarts at position 1");
        // Reachability across the split stays exact in both directions.
        assert!(idx.reaches(first, last));
        assert!(idx.reaches(boundary, after));
        assert!(idx.reaches(first, after));
        assert!(!idx.reaches(after, boundary));
        assert!(!idx.reaches(last, first));
        // Set probes see through the split too.
        let ex = idx.extrema([first]);
        assert!(idx.set_reaches(&ex, last));
        assert!(!idx.set_reached_by(&ex, last));
    }

    #[test]
    fn exactly_full_chain_at_the_u16_limit_probes_both_endpoints() {
        // A path of exactly MAX_POS = 65534 vertices: the largest graph
        // a single chain may cover. The boundary member sits at
        // position 65534 — one below the NO_DOWN sentinel (65535) — so
        // any off-by-one in the extremum/sentinel arithmetic (a split
        // one early, a position colliding with a sentinel, an extremum
        // saturating at the wrong end) shows up here first.
        let n = MAX_POS as usize; // 65534
        let mut g = PrecedenceGraph::new();
        let ids: Vec<OpId> = (0..n).map(|i| g.add_op(OpKind::Add, 1, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let idx = ReachIndex::try_build(&g).unwrap();
        assert_eq!(idx.chain_count(), 1, "an exactly-full path must not split");
        let first = ids[0].index();
        let last = ids[n - 1].index();
        assert_eq!(idx.pos_of(first), 1);
        assert_eq!(idx.pos_of(last) as u32, MAX_POS, "last position is 65534, not a sentinel");
        assert!((idx.pos_of(last)) < NO_DOWN && idx.pos_of(first) > NO_UP);
        // Pair probes at both endpoints, both directions.
        assert!(idx.reaches(first, last));
        assert!(!idx.reaches(last, first));
        assert!(!idx.reaches(first, first), "strict at the head");
        assert!(!idx.reaches(last, last), "strict at the boundary member");
        // Extremum rows at the endpoints: the head's down entry is 2
        // (its first strict descendant), the tail's up entry is 65533.
        assert_eq!(idx.down_row(first)[0], 2);
        assert_eq!(idx.up_row(first)[0], NO_UP);
        assert_eq!(idx.down_row(last)[0], NO_DOWN);
        assert_eq!(idx.up_row(last)[0] as u32, MAX_POS - 1);
        // Set probes with each endpoint as the singleton set: min/max
        // at the saturated position must compare correctly against the
        // sentinels on the far side.
        let head_ex = idx.extrema([first]);
        assert!(idx.set_reaches(&head_ex, last), "head (min = 1) reaches the boundary member");
        assert!(!idx.set_reached_by(&head_ex, last));
        let tail_ex = idx.extrema([last]);
        assert_eq!(tail_ex.min_of(0) as u32, MAX_POS);
        assert_eq!(tail_ex.max_of(0) as u32, MAX_POS);
        assert!(idx.set_reached_by(&tail_ex, first), "head is reached by the boundary member");
        assert!(!idx.set_reaches(&tail_ex, first));
        // One more vertex would split: pin the transition too.
        let next = g.add_op(OpKind::Add, 1, "overflow");
        g.add_edge(ids[n - 1], next).unwrap();
        let mut idx2 = ReachIndex::try_build(&g).unwrap();
        assert_eq!(idx2.chain_count(), 2, "the 65535th member starts a fresh chain");
        assert_eq!(idx2.pos_of(next.index()), 1);
        assert!(idx2.reaches(first, next.index()));
        // And grow() across the boundary agrees with a fresh build.
        let mut grown = ReachIndex::try_build(&{
            let mut base = PrecedenceGraph::new();
            let ids2: Vec<OpId> =
                (0..n).map(|i| base.add_op(OpKind::Add, 1, format!("n{i}"))).collect();
            for w in ids2.windows(2) {
                base.add_edge(w[0], w[1]).unwrap();
            }
            base
        })
        .unwrap();
        grown.try_grow(&g).unwrap();
        assert!(grown.reaches(first, next.index()));
        assert!(!grown.reaches(next.index(), first));
        assert_eq!(grown.pos_of(last) as u32, MAX_POS);
        let _ = idx2.try_grow(&g);
    }

    /// In-module spot checks of the word-parallel kernels; the ragged
    /// tail / saturated-row fuzz lives in `tests/reach_properties.rs`.
    #[test]
    fn word_kernels_agree_with_scalar_oracles_on_edge_rows() {
        use kernels::*;
        let rows: [&[Pos]; 6] = [
            &[],
            &[NO_DOWN; 7],
            &[NO_UP; 7],
            &[1, NO_DOWN, MAX_POS as Pos, 0, 2, 65535, 3],
            &[MAX_POS as Pos; 8],
            &[5, 4, 3, 2, 1, 0, NO_DOWN, 9],
        ];
        for a in rows {
            for b in rows {
                if a.len() != b.len() {
                    continue;
                }
                assert_eq!(any_le(a, b), any_le_scalar(a, b), "{a:?} vs {b:?}");
                let mut d1 = a.to_vec();
                let mut d2 = a.to_vec();
                assert_eq!(min_into(&mut d1, b), min_into_scalar(&mut d2, b));
                assert_eq!(d1, d2, "min {a:?} {b:?}");
                let mut d1 = a.to_vec();
                let mut d2 = a.to_vec();
                assert_eq!(max_into(&mut d1, b), max_into_scalar(&mut d2, b));
                assert_eq!(d1, d2, "max {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn capacity_limits_are_explicit_errors() {
        // The guard itself (a graph this size cannot be materialized).
        assert!(capacity_check(MAX_VERTICES, 1).is_ok());
        let too_many = capacity_check(MAX_VERTICES + 1, 1).unwrap_err();
        assert!(too_many.to_string().contains("chain-id space"), "{too_many}");
        let overflow = capacity_check(MAX_VERTICES, usize::MAX).unwrap_err();
        assert!(overflow.to_string().contains("overflow"), "{overflow}");
        // Ordinary graphs are untouched by the guard.
        let (g, _) = diamond();
        assert!(ReachIndex::try_build(&g).is_ok());
        let mut idx = ReachIndex::try_build(&g).unwrap();
        assert!(idx.try_grow(&g).is_ok(), "no-op grow stays Ok");
    }

    #[test]
    fn probe_rows_encode_set_membership() {
        let (g, [a, b, _c, d]) = diamond();
        let idx = ReachIndex::build(&g);
        // "Does a reach anything in {d}": d's coordinate is at or after
        // a's down entry for d's chain.
        let dc = idx.chain_of(d.index());
        assert!(idx.down_row(a.index())[dc] <= idx.pos_of(d.index()));
        // "Does anything in {a} reach b": a's coordinate is at or
        // before b's up entry for a's chain.
        let ac = idx.chain_of(a.index());
        assert!(idx.up_row(b.index())[ac] >= idx.pos_of(a.index()));
        // Sources have all-NO_UP rows; sinks all-NO_DOWN.
        assert!(idx.up_row(a.index()).iter().all(|&u| u == NO_UP));
        assert!(idx.down_row(d.index()).iter().all(|&x| x == NO_DOWN));
    }
}
