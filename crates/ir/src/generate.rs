//! Deterministic random precedence-graph generators.
//!
//! Used by property tests (small adversarial shapes) and by the complexity
//! benchmarks (large layered DFGs). All generators are seeded, so every
//! test and bench run is reproducible.

use crate::{DelayModel, OpId, OpKind, PrecedenceGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`layered_dag`].
#[derive(Clone, Debug)]
pub struct LayeredConfig {
    /// Total number of operations.
    pub ops: usize,
    /// Mean layer width (vertices per rank).
    pub width: usize,
    /// Probability of an edge between vertices in adjacent layers.
    pub edge_prob: f64,
    /// Probability that an op is a multiply (the rest are ALU ops).
    pub mul_ratio: f64,
    /// Delay model applied to generated kinds.
    pub delays: DelayModel,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            ops: 64,
            width: 8,
            edge_prob: 0.35,
            mul_ratio: 0.4,
            delays: DelayModel::classic(),
        }
    }
}

fn random_kind(rng: &mut StdRng, mul_ratio: f64) -> OpKind {
    if rng.random_bool(mul_ratio.clamp(0.0, 1.0)) {
        OpKind::Mul
    } else {
        match rng.random_range(0..4u8) {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Cmp,
            _ => OpKind::Logic,
        }
    }
}

/// Generates a layered (ranked) DAG: vertices are arranged in layers and
/// edges only go from one layer to the next, guaranteeing acyclicity and a
/// controllable depth/width profile — the shape of real basic-block DFGs.
///
/// Every non-first-layer vertex gets at least one predecessor, so the graph
/// has no accidental islands.
pub fn layered_dag(seed: u64, cfg: &LayeredConfig) -> PrecedenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PrecedenceGraph::with_capacity(cfg.ops);
    let width = cfg.width.max(1);
    let mut layers: Vec<Vec<OpId>> = Vec::new();
    let mut made = 0;
    while made < cfg.ops {
        let take = width.min(cfg.ops - made);
        let layer: Vec<OpId> = (0..take)
            .map(|_| {
                let kind = random_kind(&mut rng, cfg.mul_ratio);
                let id = g.add_op(kind, cfg.delays.delay_of(kind), format!("v{made}"));
                made += 1;
                id
            })
            .collect();
        layers.push(layer);
        // `made` advanced inside the closure chain above.
    }
    for li in 1..layers.len() {
        let (prev, cur) = (&layers[li - 1], &layers[li]);
        for &v in cur {
            let mut has_pred = false;
            for &p in prev {
                if rng.random_bool(cfg.edge_prob.clamp(0.0, 1.0)) {
                    g.add_edge(p, v).expect("layered edges are acyclic");
                    has_pred = true;
                }
            }
            if !has_pred {
                let p = prev[rng.random_range(0..prev.len())];
                g.add_edge(p, v).expect("layered edges are acyclic");
            }
        }
    }
    g
}

/// Generates a general random DAG over `n` vertices: every candidate edge
/// `(i, j)` with `i < j` (in a random relabelling) is kept with probability
/// `density`. Denser and less structured than [`layered_dag`].
pub fn random_dag(seed: u64, n: usize, density: f64, delays: &DelayModel) -> PrecedenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PrecedenceGraph::with_capacity(n);
    let ids: Vec<OpId> = (0..n)
        .map(|i| {
            let kind = random_kind(&mut rng, 0.3);
            g.add_op(kind, delays.delay_of(kind), format!("r{i}"))
        })
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(density.clamp(0.0, 1.0)) {
                g.add_edge(ids[i], ids[j]).expect("i<j edges are acyclic");
            }
        }
    }
    g
}

/// Generates a balanced binary expression tree of the given depth
/// (leaves are multiplies, inner nodes alternate add/sub), rooted at the
/// last op. A common accelerator-kernel shape.
pub fn expression_tree(depth: u32, delays: &DelayModel) -> PrecedenceGraph {
    let mut g = PrecedenceGraph::new();
    fn build(
        g: &mut PrecedenceGraph,
        depth: u32,
        delays: &DelayModel,
        counter: &mut usize,
    ) -> OpId {
        *counter += 1;
        let label = format!("t{counter}");
        if depth == 0 {
            g.add_op(OpKind::Mul, delays.delay_of(OpKind::Mul), label)
        } else {
            let l = build(g, depth - 1, delays, counter);
            let r = build(g, depth - 1, delays, counter);
            let kind = if depth.is_multiple_of(2) { OpKind::Add } else { OpKind::Sub };
            let v = g.add_op(kind, delays.delay_of(kind), label);
            g.add_edge(l, v).expect("tree edges are acyclic");
            g.add_edge(r, v).expect("tree edges are acyclic");
            v
        }
    }
    let mut counter = 0;
    build(&mut g, depth, delays, &mut counter);
    g
}

/// Configuration for [`cyclic_kernel`].
#[derive(Clone, Debug)]
pub struct CyclicConfig {
    /// Number of operations in the loop body.
    pub ops: usize,
    /// Mean layer width of the body DAG.
    pub width: usize,
    /// Probability of an intra-iteration edge between adjacent layers.
    pub edge_prob: f64,
    /// Probability that an op is a multiply.
    pub mul_ratio: f64,
    /// Loop-carried (positive-distance) edges to add on top of the
    /// body. Each goes from a random op to a random op at the same or
    /// an earlier layer, so many of them close genuine recurrence
    /// cycles through the body.
    pub back_edges: usize,
    /// Distances are drawn uniformly from `1..=max_distance`.
    pub max_distance: u32,
    /// Delay model applied to generated kinds.
    pub delays: DelayModel,
}

impl Default for CyclicConfig {
    fn default() -> Self {
        CyclicConfig {
            ops: 12,
            width: 3,
            edge_prob: 0.4,
            mul_ratio: 0.3,
            back_edges: 3,
            max_distance: 2,
            delays: DelayModel::classic(),
        }
    }
}

/// Generates a seeded random *loop kernel*: a layered body DAG (as
/// [`layered_dag`]) plus `back_edges` loop-carried edges with random
/// positive distances, aimed backwards (or self-loops) so they close
/// recurrence cycles through the body. The distance-0 subgraph is the
/// body DAG, so [`PrecedenceGraph::validate_kernel`] always holds.
pub fn cyclic_kernel(seed: u64, cfg: &CyclicConfig) -> PrecedenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PrecedenceGraph::with_capacity(cfg.ops);
    let width = cfg.width.max(1);
    let mut layer_of = Vec::with_capacity(cfg.ops);
    let mut layers: Vec<Vec<OpId>> = Vec::new();
    let mut made = 0;
    while made < cfg.ops {
        let take = width.min(cfg.ops - made);
        let li = layers.len();
        let layer: Vec<OpId> = (0..take)
            .map(|_| {
                let kind = random_kind(&mut rng, cfg.mul_ratio);
                let id = g.add_op(kind, cfg.delays.delay_of(kind), format!("k{made}"));
                layer_of.push(li);
                made += 1;
                id
            })
            .collect();
        layers.push(layer);
    }
    for li in 1..layers.len() {
        let (prev, cur) = (&layers[li - 1], &layers[li]);
        for &v in cur {
            let mut has_pred = false;
            for &p in prev {
                if rng.random_bool(cfg.edge_prob.clamp(0.0, 1.0)) {
                    g.add_edge(p, v).expect("layered edges are acyclic");
                    has_pred = true;
                }
            }
            if !has_pred {
                let p = prev[rng.random_range(0..prev.len())];
                g.add_edge(p, v).expect("layered edges are acyclic");
            }
        }
    }
    // Loop-carried edges: from any op back to an op at the same or an
    // earlier layer (self-loops included), with positive distance.
    let n = g.len();
    for _ in 0..cfg.back_edges {
        if n == 0 {
            break;
        }
        let from = rng.random_range(0..n);
        let to = rng.random_range(0..n);
        let (from, to) = if layer_of[to] <= layer_of[from] {
            (from, to)
        } else {
            (to, from)
        };
        let d = rng.random_range(1..cfg.max_distance.max(1) + 1);
        g.add_dep_edge(OpId::from_index(from), OpId::from_index(to), d)
            .expect("positive-distance edges are always addable");
    }
    g
}

/// The standard mid-size layered stress DAG shared by the cross-crate
/// test suites (portfolio determinism, end-to-end flow, reachability
/// fuzzing pick their sizes through `ops`): one seeded shape instead
/// of per-test ad-hoc generator configs.
pub fn stress_dag(seed: u64, ops: usize) -> PrecedenceGraph {
    layered_dag(
        seed,
        &LayeredConfig {
            ops,
            width: (ops / 25).clamp(4, 32),
            edge_prob: 0.25,
            ..LayeredConfig::default()
        },
    )
}

/// Splices a 1–3 op wire-delay chain onto a random existing edge — the
/// spill / wire-delay refinement shape the schedulers produce. No-op
/// on edgeless graphs. Used by the reachability fuzz suite.
pub fn random_splice(g: &mut PrecedenceGraph, rng: &mut StdRng, tag: usize) {
    let edges: Vec<(OpId, OpId)> = g.edges().collect();
    if edges.is_empty() {
        return;
    }
    let (from, to) = edges[rng.random_range(0..edges.len())];
    let len = rng.random_range(1usize..4);
    let chain: Vec<(OpKind, u64, String)> = (0..len)
        .map(|i| (OpKind::WireDelay, 1 + (i as u64 % 2), format!("w{tag}_{i}")))
        .collect();
    g.splice_on_edge(from, to, chain)
        .expect("edge was sampled from g.edges()");
}

/// Adds one new op with random already-existing predecessors and
/// successors, chosen from disjoint topological prefix/suffix so the
/// graph stays acyclic — the ECO refinement shape. Used by the
/// reachability fuzz suite.
pub fn random_eco_op(g: &mut PrecedenceGraph, rng: &mut StdRng, tag: usize) {
    let order = crate::algo::topo_order(g).expect("mutated graph stays a DAG");
    let v = g.add_op(OpKind::Add, 1, format!("eco{tag}"));
    if order.is_empty() {
        return;
    }
    let cut = rng.random_range(0..order.len());
    for _ in 0..rng.random_range(0usize..3) {
        if cut > 0 {
            let p = order[rng.random_range(0..cut)];
            let _ = g.add_edge(p, v);
        }
    }
    for _ in 0..rng.random_range(0usize..3) {
        if cut < order.len() {
            let q = order[rng.random_range(cut..order.len())];
            let _ = g.add_edge(v, q);
        }
    }
}

/// Generates `chains` independent multiply/accumulate chains of `len`
/// operations each — the maximally parallel workload (no cross edges).
pub fn independent_chains(chains: usize, len: usize, delays: &DelayModel) -> PrecedenceGraph {
    let mut g = PrecedenceGraph::with_capacity(chains * len);
    for c in 0..chains {
        let mut prev: Option<OpId> = None;
        for i in 0..len {
            let kind = if i % 2 == 0 { OpKind::Mul } else { OpKind::Add };
            let v = g.add_op(kind, delays.delay_of(kind), format!("c{c}_{i}"));
            if let Some(p) = prev {
                g.add_edge(p, v).expect("chain edges are acyclic");
            }
            prev = Some(v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn layered_dag_is_acyclic_and_sized() {
        let g = layered_dag(1, &LayeredConfig::default());
        assert_eq!(g.len(), 64);
        assert!(g.validate().is_ok());
        // Every non-source vertex has a predecessor by construction.
        let sources = g.sources();
        assert!(sources.len() <= 8, "only the first layer can be sources");
    }

    #[test]
    fn layered_dag_is_deterministic_per_seed() {
        let cfg = LayeredConfig::default();
        let g1 = layered_dag(42, &cfg);
        let g2 = layered_dag(42, &cfg);
        assert_eq!(g1.len(), g2.len());
        assert_eq!(g1.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        let g3 = layered_dag(43, &cfg);
        assert!(
            g1.edges().collect::<Vec<_>>() != g3.edges().collect::<Vec<_>>()
                || g1.kind_histogram() != g3.kind_histogram(),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn random_dag_respects_density_extremes() {
        let dm = DelayModel::classic();
        let empty = random_dag(7, 20, 0.0, &dm);
        assert_eq!(empty.edge_count(), 0);
        let full = random_dag(7, 20, 1.0, &dm);
        assert_eq!(full.edge_count(), 20 * 19 / 2);
        assert!(full.validate().is_ok());
    }

    #[test]
    fn expression_tree_shape() {
        let dm = DelayModel::unit();
        let g = expression_tree(3, &dm);
        assert_eq!(g.len(), 15);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.sources().len(), 8);
        assert_eq!(algo::diameter(&g), 4);
    }

    #[test]
    fn cyclic_kernel_is_a_valid_kernel_and_deterministic() {
        let cfg = CyclicConfig::default();
        let g1 = cyclic_kernel(5, &cfg);
        let g2 = cyclic_kernel(5, &cfg);
        assert_eq!(g1.len(), cfg.ops);
        assert!(g1.validate_kernel().is_ok());
        assert!(g1.has_loop_edges() || cfg.back_edges == 0);
        assert_eq!(
            g1.edges_dist().collect::<Vec<_>>(),
            g2.edges_dist().collect::<Vec<_>>()
        );
    }

    #[test]
    fn stress_dag_is_seeded_and_acyclic() {
        let g = stress_dag(7, 200);
        assert_eq!(g.len(), 200);
        assert!(g.validate().is_ok());
        let h = stress_dag(7, 200);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            h.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_mutators_keep_the_graph_a_dag() {
        use rand::SeedableRng;
        let mut g = stress_dag(3, 40);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for m in 0..6 {
            random_splice(&mut g, &mut rng, m);
            random_eco_op(&mut g, &mut rng, m);
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn independent_chains_have_no_cross_edges() {
        let dm = DelayModel::unit();
        let g = independent_chains(3, 5, &dm);
        assert_eq!(g.len(), 15);
        assert_eq!(g.edge_count(), 3 * 4);
        assert_eq!(g.sources().len(), 3);
        assert_eq!(g.sinks().len(), 3);
        assert_eq!(algo::diameter(&g), 5);
    }
}
