//! Bound-soundness oracle (end-to-end): the portfolio's certified
//! lower bound must never exceed what any actual scheduler achieves.
//!
//! On random DAGs of ≤ 10 operations we drive the
//! [`ExhaustiveScheduler`] — the paper's speculative implementation,
//! kept as the optimality oracle (Theorem 2) — over the four paper
//! metas plus a population of seeded random orders, take the best
//! diameter it ever reaches, and assert:
//!
//! * `PortfolioOutcome::lower_bound ≤` that optimum (a certified
//!   bound above an achievable schedule would be a soundness bug);
//! * the monotone per-step `final_lower_bound` probed by the race's
//!   abort hook never exceeds the *same run's* final diameter (the
//!   property the early-abort protocol relies on);
//! * the portfolio's own result respects its bound.

use hls_ir::{generate, DelayModel, OpId, ResourceSet};
use hls_search::{run_portfolio, PortfolioConfig};
use proptest::prelude::*;
use threaded_sched::meta::MetaSchedule;
use threaded_sched::{ExhaustiveScheduler, ThreadedScheduler};

fn small_config() -> PortfolioConfig {
    PortfolioConfig {
        threads: 2,
        random_seeds: vec![0xA11CE],
        topo_seeds: vec![0x7E40_0001],
    }
}

/// Every order the oracle sweeps: the paper metas plus seeded
/// shuffles and topological tie-breaks.
fn oracle_orders(
    g: &hls_ir::PrecedenceGraph,
    r: &ResourceSet,
) -> Vec<Vec<OpId>> {
    let mut metas: Vec<MetaSchedule> = MetaSchedule::PAPER.to_vec();
    for s in 0..12u64 {
        metas.push(MetaSchedule::Random(s));
        metas.push(MetaSchedule::RandomTopo(s));
    }
    metas
        .into_iter()
        .map(|m| m.order(g, r).expect("small DAGs order fine"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certified_lower_bound_never_exceeds_the_exhaustive_optimum(
        seed in 0u64..100_000,
        n in 1usize..11,
        density_pct in 0u32..60,
        alus in 1usize..3,
        muls in 1usize..3,
    ) {
        let g = generate::random_dag(
            seed,
            n,
            f64::from(density_pct) / 100.0,
            &DelayModel::classic(),
        );
        let r = ResourceSet::classic(alus, muls);

        // The exhaustive oracle's best diameter over the order sweep.
        let mut optimum = u64::MAX;
        for order in oracle_orders(&g, &r) {
            let mut ex = ExhaustiveScheduler::new(g.clone(), r.clone()).unwrap();
            ex.schedule_all(order.iter().copied()).unwrap();
            optimum = optimum.min(ex.diameter());
        }

        // Per-step certified bounds of a live run never exceed that
        // run's own final diameter (abort-hook soundness).
        let order = MetaSchedule::Topological.order(&g, &r).unwrap();
        let mut ts = ThreadedScheduler::new(g.clone(), r.clone()).unwrap();
        let mut probes = Vec::new();
        ts.schedule_all_budgeted(order.iter().copied(), &hls_ir::Budget::NONE, |bound| {
            probes.push(bound);
            false
        }).unwrap();
        let final_diameter = ts.diameter();
        for (i, &b) in probes.iter().enumerate() {
            prop_assert!(
                b <= final_diameter,
                "probe {} certifies {} above the run's own final {}",
                i, b, final_diameter
            );
        }
        prop_assert!(
            ts.schedule_lower_bound() <= optimum,
            "static bound {} exceeds exhaustive optimum {}",
            ts.schedule_lower_bound(), optimum
        );

        // The portfolio's certified bound and result agree with the
        // oracle.
        let out = run_portfolio(&g, &r, &small_config(), &hls_ir::Budget::NONE).unwrap();
        prop_assert!(
            out.lower_bound <= optimum,
            "portfolio certifies {} but the exhaustive oracle achieves {}",
            out.lower_bound, optimum
        );
        prop_assert!(out.lower_bound <= out.diameter);
    }
}
