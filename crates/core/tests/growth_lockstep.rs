//! Behavior growth on a partly scheduled state, in lockstep with the
//! frozen [`ReferenceScheduler`].
//!
//! The engine answers "does this op have a scheduled ancestor /
//! descendant" from two monotone bits per op. When the behavior grows,
//! a new op's bit comes from its neighbours, and the new op's marking
//! walks on into the ops that gain a scheduled ancestor or descendant
//! through it. That must not depend on id order: in a spliced
//! `Store → Load`, the `Store` is created first, but it learns its
//! scheduled descendant only through the `Load`. This suite grows
//! states that were half scheduled in a random, non-topological order:
//! engineering-change ops whose predecessor is unscheduled and
//! successor scheduled (and the reverse), then multi-op splices onto
//! edges whose endpoints are both unscheduled. Every step is compared
//! with the seed and followed by `check_invariants`, which recomputes
//! both bit sets from scratch.

use hls_ir::{generate, DelayModel, OpId, OpKind, ResourceClass, ResourceSet};
use proptest::prelude::*;
use threaded_sched::{ReferenceScheduler, ThreadedScheduler};

/// A small deterministic generator (xorshift), so the fuzz draws its
/// choices from the proptest seed alone.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Schedules `v` in both engines (a no-op returning the current
/// placement where it is already scheduled) and asserts they agree,
/// then checks the engine's invariants.
fn lockstep(
    fast: &mut ThreadedScheduler,
    gold: &mut ReferenceScheduler,
    v: OpId,
    what: &str,
) -> Result<(), TestCaseError> {
    let pf = fast.schedule(v).unwrap();
    let pg = gold.schedule(v).unwrap();
    prop_assert_eq!(pf, pg, "{}: placement of {} diverged", what, v);
    prop_assert_eq!(
        fast.diameter(),
        gold.diameter(),
        "{}: diameter at {}",
        what,
        v
    );
    if let Err(e) = fast.check_invariants() {
        return Err(TestCaseError::fail(format!(
            "{what}: invariants after {v}: {e}"
        )));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn growth_on_a_partly_scheduled_state_matches_the_seed(
        seed in 0u64..10_000,
        ops in 8usize..40,
        adds in 1usize..5,
        splices in 1usize..6,
        alus in 1usize..3,
    ) {
        let mut draw = Draw(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let base = generate::layered_dag(seed, &generate::LayeredConfig {
            ops,
            width: 5,
            edge_prob: 0.3,
            mul_ratio: 0.35,
            delays: DelayModel::classic(),
        });
        let r = ResourceSet::classic(alus, 1).with(ResourceClass::MemPort, 1);
        // A random permutation; its first half is scheduled before the
        // behavior grows.
        let mut order: Vec<OpId> = base.op_ids().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, draw.below(i + 1));
        }
        let (prefix, rest) = order.split_at(order.len() / 2);
        let mut scheduled = vec![false; base.len()];
        for &v in prefix {
            scheduled[v.index()] = true;
        }

        // ECO ops, each bridging an existing edge `x → y`. Its
        // predecessor already reaches its successor, so the base ops'
        // reachability is unchanged and the seed can hold the op from
        // the start. Even ops sit under a scheduled `y` with `x`
        // unscheduled, odd ops the reverse, where such an edge exists.
        let edges: Vec<(OpId, OpId)> = base.edges().collect();
        let mut target = base.clone();
        let mut eco = Vec::new();
        for i in 0..adds {
            let mixed: Vec<(OpId, OpId)> = edges
                .iter()
                .copied()
                .filter(|&(x, y)| scheduled[x.index()] != scheduled[y.index()])
                .filter(|&(_, y)| scheduled[y.index()] == (i % 2 == 0))
                .collect();
            let pool = if mixed.is_empty() { &edges } else { &mixed };
            if pool.is_empty() {
                break;
            }
            let (x, y) = pool[draw.below(pool.len())];
            let (kind, delay) = if i % 2 == 0 { (OpKind::Add, 1) } else { (OpKind::Mul, 2) };
            let v = target.add_op(kind, delay, format!("eco{i}"));
            target.add_edge(x, v).unwrap();
            target.add_edge(v, y).unwrap();
            eco.push((v, x, y));
        }

        let mut fast = ThreadedScheduler::new(base, r.clone()).unwrap();
        let mut gold = ReferenceScheduler::new(target.clone(), r.clone()).unwrap();
        for &v in prefix {
            lockstep(&mut fast, &mut gold, v, "prefix")?;
        }
        for &(v, x, y) in &eco {
            let id = fast
                .refine_add_op(target.kind(v), target.delay(v), target.label(v), &[x], &[y])
                .unwrap();
            prop_assert_eq!(id, v);
            lockstep(&mut fast, &mut gold, v, "add-op")?;
        }

        // Multi-op splices onto edges with both endpoints unscheduled
        // where there is one: a spill pair (`Store → Load`, the `Load`
        // placed late) or a chain of two or three unit ops.
        for i in 0..splices {
            let edges: Vec<(OpId, OpId)> = fast.graph().edges().collect();
            let open: Vec<(OpId, OpId)> = edges
                .iter()
                .copied()
                .filter(|&(a, b)| !fast.is_scheduled(a) && !fast.is_scheduled(b))
                .collect();
            let pool = if open.is_empty() { &edges } else { &open };
            if pool.is_empty() {
                break;
            }
            let (from, to) = pool[draw.below(pool.len())];
            let chain: Vec<(OpKind, u64, String)> = if i % 2 == 0 {
                vec![
                    (OpKind::Store, 1, format!("st{i}")),
                    (OpKind::Load, 1, format!("ld{i}")),
                ]
            } else {
                (0..2 + draw.below(2))
                    .map(|j| {
                        let (kind, delay) = if j % 2 == 0 { (OpKind::Add, 1) } else { (OpKind::Mul, 2) };
                        (kind, delay, format!("sp{i}.{j}"))
                    })
                    .collect()
            };
            let a = fast.refine_splice(from, to, chain.clone()).unwrap();
            let b = gold.refine_splice(from, to, chain).unwrap();
            prop_assert_eq!(&a, &b, "splice {} inserted different ids", i);
            for &v in &a {
                lockstep(&mut fast, &mut gold, v, "splice")?;
            }
            for k in 0..fast.thread_count() {
                prop_assert_eq!(fast.chain(k), gold.chain(k), "chain {} after splice {}", k, i);
            }
        }

        for &v in rest {
            lockstep(&mut fast, &mut gold, v, "rest")?;
        }
        for k in 0..fast.thread_count() {
            prop_assert_eq!(fast.chain(k), gold.chain(k), "chain {}", k);
        }
        prop_assert_eq!(fast.extract_hard(), gold.extract_hard());
    }
}
