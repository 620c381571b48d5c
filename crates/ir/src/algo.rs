//! Graph algorithms on precedence graphs.
//!
//! The distance terminology follows Definition 1 of the paper, with the
//! *inclusive* convention spelled out in `DESIGN.md`:
//!
//! * `sdist(v)` — delay-sum of the longest path from a primary input to `v`,
//!   **including** `v`'s own delay (`‖←v‖` in the paper);
//! * `tdist(v)` — delay-sum of the longest path from `v` to a primary
//!   output, **including** `v` (`‖v→‖`);
//! * distance through `v` — `sdist(v) + tdist(v) − D(v)` (`‖←v→‖`,
//!   Lemma 5);
//! * diameter `‖G‖` — the maximum distance over all vertices, i.e. the
//!   critical-path length.

use crate::{BitMatrix, IrError, OpId, PrecedenceGraph};

/// Computes a topological order of `g` (Kahn's algorithm).
///
/// # Errors
///
/// Returns [`IrError::Cycle`] with a vertex on a cycle if `g` is cyclic.
pub fn topo_order(g: &PrecedenceGraph) -> Result<Vec<OpId>, IrError> {
    let n = g.len();
    let mut indeg: Vec<usize> = g.op_ids().map(|v| g.preds(v).len()).collect();
    let mut queue: Vec<OpId> = g.op_ids().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &s in g.succs(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let witness = g
            .op_ids()
            .find(|&v| indeg[v.index()] > 0)
            .expect("cycle implies a vertex with positive residual in-degree");
        Err(IrError::Cycle(witness))
    }
}

/// `true` if `g` contains no cycle.
pub fn is_acyclic(g: &PrecedenceGraph) -> bool {
    topo_order(g).is_ok()
}

/// Source distances `‖←v‖` (inclusive) for all vertices, indexed by op.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn source_distances(g: &PrecedenceGraph) -> Vec<u64> {
    let order = topo_order(g).expect("source_distances requires an acyclic graph");
    let mut sdist = vec![0u64; g.len()];
    for &v in &order {
        let best = g
            .preds(v)
            .iter()
            .map(|&p| sdist[p.index()])
            .max()
            .unwrap_or(0);
        sdist[v.index()] = best + g.delay(v);
    }
    sdist
}

/// Sink distances `‖v→‖` (inclusive) for all vertices, indexed by op.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn sink_distances(g: &PrecedenceGraph) -> Vec<u64> {
    let order = topo_order(g).expect("sink_distances requires an acyclic graph");
    let mut tdist = vec![0u64; g.len()];
    for &v in order.iter().rev() {
        let best = g
            .succs(v)
            .iter()
            .map(|&q| tdist[q.index()])
            .max()
            .unwrap_or(0);
        tdist[v.index()] = best + g.delay(v);
    }
    tdist
}

/// The diameter `‖G‖`: the critical-path delay-sum, 0 for an empty graph.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn diameter(g: &PrecedenceGraph) -> u64 {
    source_distances(g).into_iter().max().unwrap_or(0)
}

/// One critical path (a vertex sequence of maximum delay-sum), possibly
/// empty for an empty graph.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn critical_path(g: &PrecedenceGraph) -> Vec<OpId> {
    if g.is_empty() {
        return Vec::new();
    }
    let sdist = source_distances(g);
    let tdist = sink_distances(g);
    let target = diameter(g);
    // Start from a source on the critical path, walk greedily forward.
    let mut cur = g
        .op_ids()
        .filter(|&v| g.preds(v).is_empty())
        .find(|&v| tdist[v.index()] == target)
        .expect("some source starts a critical path");
    let mut path = vec![cur];
    loop {
        let next = g
            .succs(cur)
            .iter()
            .copied()
            .find(|&q| sdist[cur.index()] + tdist[q.index()] == target);
        match next {
            Some(q) => {
                path.push(q);
                cur = q;
            }
            None => break,
        }
    }
    path
}

/// Depth-first pre-order of `g`, starting from the sources in id order.
///
/// This is "meta schedule 1" of the paper's Section 5 (a DFS traversal of
/// the precedence graph). The traversal visits every vertex exactly once
/// even if it is not reachable from a source (defensive; cannot happen in a
/// DAG).
pub fn dfs_order(g: &PrecedenceGraph) -> Vec<OpId> {
    let mut seen = vec![false; g.len()];
    let mut order = Vec::with_capacity(g.len());
    let mut stack: Vec<OpId> = Vec::new();
    let roots: Vec<OpId> = g.sources();
    for root in roots.into_iter().chain(g.op_ids()) {
        if seen[root.index()] {
            continue;
        }
        stack.push(root);
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            order.push(v);
            // Push successors in reverse so the first successor is visited
            // first, giving the conventional DFS order.
            for &s in g.succs(v).iter().rev() {
                if !seen[s.index()] {
                    stack.push(s);
                }
            }
        }
    }
    order
}

/// Transitive closure of `g`: bit `(u, v)` is set iff `u ≺_G v` (strictly).
///
/// This realises the partial order `≺_G` of Definition 1.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn transitive_closure(g: &PrecedenceGraph) -> BitMatrix {
    let order = topo_order(g).expect("transitive_closure requires an acyclic graph");
    let mut m = BitMatrix::new(g.len());
    for &v in order.iter().rev() {
        for &q in g.succs(v) {
            m.set(v.index(), q.index());
            m.or_row_into(q.index(), v.index());
        }
    }
    m
}

/// Both strict closures of `g` — `(ancestors, descendants)`, where row
/// `v` of the ancestor matrix is `{p : p ≺_G v}` and row `v` of the
/// descendant matrix is `{d : v ≺_G d}`.
///
/// The descendant matrix is one topological sweep of word-parallel row
/// unions ([`transitive_closure`]); the ancestor matrix is its
/// word-parallel [`BitMatrix::transpose`]. This is the single dense
/// closure constructor shared by every scheduler and oracle in the
/// workspace. The threaded scheduler's hot path needs none of it (it
/// keeps two bits per op), and [`crate::reach::ReachIndex`] is the
/// sub-quadratic reachability structure; this stays the small-`V`
/// verification oracle.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn closures(g: &PrecedenceGraph) -> (BitMatrix, BitMatrix) {
    let desc = transitive_closure(g);
    let anc = desc.transpose();
    (anc, desc)
}

/// Partitions the vertices of `g` into vertex-disjoint paths, greedily
/// extracting a longest (delay-weighted) remaining path each round.
///
/// This is the decomposition behind "meta schedule 3" of the paper: the
/// online scheduler is fed path by path, longest first. Every vertex
/// appears in exactly one path; paths follow graph edges.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn longest_path_partition(g: &PrecedenceGraph) -> Vec<Vec<OpId>> {
    let order = topo_order(g).expect("longest_path_partition requires an acyclic graph");
    let mut assigned = vec![false; g.len()];
    let mut paths: Vec<Vec<OpId>> = Vec::new();
    let mut remaining = g.len();
    while remaining > 0 {
        // Longest path over unassigned vertices only.
        let mut best_end: Option<OpId> = None;
        let mut dist = vec![0u64; g.len()];
        let mut pred: Vec<Option<OpId>> = vec![None; g.len()];
        for &v in &order {
            if assigned[v.index()] {
                continue;
            }
            let mut d = 0;
            let mut from = None;
            for &p in g.preds(v) {
                if !assigned[p.index()] && dist[p.index()] >= d {
                    d = dist[p.index()];
                    from = Some(p);
                }
            }
            dist[v.index()] = d + g.delay(v);
            pred[v.index()] = from;
            if best_end.is_none_or(|b| dist[v.index()] > dist[b.index()]) {
                best_end = Some(v);
            }
        }
        let mut path = Vec::new();
        let mut cur = best_end.expect("remaining > 0 implies an unassigned vertex");
        loop {
            path.push(cur);
            assigned[cur.index()] = true;
            remaining -= 1;
            match pred[cur.index()] {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        paths.push(path);
    }
    paths
}

/// Assigns each vertex its ASAP level under unit step (ignoring delays):
/// level = length (in vertices) of the longest incoming chain.
pub fn levels(g: &PrecedenceGraph) -> Vec<usize> {
    let order = topo_order(g).expect("levels requires an acyclic graph");
    let mut level = vec![0usize; g.len()];
    for &v in &order {
        let best = g
            .preds(v)
            .iter()
            .map(|&p| level[p.index()] + 1)
            .max()
            .unwrap_or(0);
        level[v.index()] = best;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    /// a -> b -> d, a -> c -> d; delays a=1 b=2 c=1 d=1.
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
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = topo_order(&g).unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (i, v) in order.iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn topo_order_detects_cycles() {
        let (mut g, [a, _, _, d]) = diamond();
        g.add_edge(d, a).unwrap();
        assert!(matches!(topo_order(&g), Err(IrError::Cycle(_))));
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn distances_follow_inclusive_convention() {
        let (g, [a, b, c, d]) = diamond();
        let s = source_distances(&g);
        assert_eq!(s[a.index()], 1);
        assert_eq!(s[b.index()], 3);
        assert_eq!(s[c.index()], 2);
        assert_eq!(s[d.index()], 4);
        let t = sink_distances(&g);
        assert_eq!(t[d.index()], 1);
        assert_eq!(t[b.index()], 3);
        assert_eq!(t[c.index()], 2);
        assert_eq!(t[a.index()], 4);
    }

    #[test]
    fn lemma5_distance_identity_holds() {
        let (g, _) = diamond();
        let s = source_distances(&g);
        let t = sink_distances(&g);
        assert_eq!(t[0], 4, "tdist(a) spans the whole critical path a,b,d");
        for v in g.op_ids() {
            // ‖←v→‖ = sdist(v) + tdist(v) − D(v) (Lemma 5), bounded by ‖G‖.
            let through = s[v.index()] + t[v.index()] - g.delay(v);
            assert!(through <= diameter(&g));
        }
        assert_eq!(diameter(&g), 4);
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        let g = PrecedenceGraph::new();
        assert_eq!(diameter(&g), 0);
        let mut g = PrecedenceGraph::new();
        g.add_op(OpKind::Mul, 2, "m");
        assert_eq!(diameter(&g), 2);
    }

    #[test]
    fn critical_path_has_diameter_weight() {
        let (g, _) = diamond();
        let cp = critical_path(&g);
        let w: u64 = cp.iter().map(|&v| g.delay(v)).sum();
        assert_eq!(w, diameter(&g));
        for pair in cp.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn dfs_order_visits_all_once_and_parents_first() {
        let (g, _) = diamond();
        let order = dfs_order(&g);
        assert_eq!(order.len(), g.len());
        let mut seen = vec![false; g.len()];
        for v in &order {
            seen[v.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // In a single-source DAG, DFS sees a vertex only after some pred.
        let mut pos = vec![0; g.len()];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for v in g.op_ids() {
            if !g.preds(v).is_empty() {
                assert!(g.preds(v).iter().any(|&p| pos[p.index()] < pos[v.index()]));
            }
        }
    }

    #[test]
    fn transitive_closure_is_strict_and_transitive() {
        let (g, [a, b, c, d]) = diamond();
        let m = transitive_closure(&g);
        assert!(m.get(a.index(), d.index()));
        assert!(m.get(a.index(), b.index()));
        assert!(m.get(b.index(), d.index()));
        assert!(!m.get(d.index(), a.index()));
        assert!(!m.get(b.index(), c.index()));
        assert!(!m.get(a.index(), a.index()), "closure is strict");
    }

    #[test]
    fn longest_path_partition_covers_all_vertices_once() {
        let (g, _) = diamond();
        let paths = longest_path_partition(&g);
        let mut seen = vec![0usize; g.len()];
        for path in &paths {
            for pair in path.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
            for v in path {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // First path is the critical path of the diamond: a, b, d.
        let w: u64 = paths[0].iter().map(|&v| g.delay(v)).sum();
        assert_eq!(w, diameter(&g));
    }

    #[test]
    fn levels_count_chain_depth() {
        let (g, [a, b, c, d]) = diamond();
        let lv = levels(&g);
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[b.index()], 1);
        assert_eq!(lv[c.index()], 1);
        assert_eq!(lv[d.index()], 2);
    }

    #[test]
    fn closure_on_larger_random_shape() {
        // A chain of 130 vertices crosses multiple bitmatrix words.
        let mut g = PrecedenceGraph::new();
        let ids: Vec<OpId> = (0..130).map(|i| g.add_op(OpKind::Add, 1, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let m = transitive_closure(&g);
        assert!(m.get(0, 129));
        assert!(!m.get(129, 0));
        assert_eq!(m.row_count(0), 129);
        assert_eq!(diameter(&g), 130);
    }
}
