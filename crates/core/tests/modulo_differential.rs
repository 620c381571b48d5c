//! The cross-crate differential harness for modulo scheduling.
//!
//! `hls_ir::schedule::check_modulo` is a *cycle-accurate* checker: it
//! reads time modulo the II and must accept exactly the schedules
//! whose flat execution is legal. The oracle for "flat execution" is
//! the machinery this repo already trusts — unroll `k` iterations
//! ([`hls_ir::schedule::unroll`], `k` from
//! [`hls_ir::schedule::unroll_iterations`]) and run the acyclic
//! checker `hls_ir::schedule::validate` over the flat graph.
//!
//! Two fuzzed properties pin the agreement on ≥ 500 random cyclic
//! kernels per run:
//!
//! * every schedule the [`ModuloScheduler`] produces passes **both**
//!   checkers;
//! * on randomly *perturbed* schedules (starts nudged, units swapped,
//!   ops unassigned) the two checkers still agree — accept together or
//!   reject together — so neither is weaker than the other.

use hls_ir::schedule::{check_modulo, unroll, unroll_iterations, validate, ModuloSchedule};
use hls_ir::{generate, OpId, ResourceClass, ResourceSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use threaded_sched::{ModuloScheduler, SchedError};

/// The allocation grid the fuzz draws from (index by `alloc`).
fn allocation(alloc: usize) -> ResourceSet {
    match alloc % 4 {
        0 => ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1),
        1 => ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1),
        2 => ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 2),
        _ => ResourceSet::uniform(3),
    }
}

fn kernel(seed: u64, ops: usize, back_edges: usize, max_distance: u32) -> hls_ir::PrecedenceGraph {
    generate::cyclic_kernel(
        seed,
        &generate::CyclicConfig {
            ops,
            width: (ops / 3).max(2),
            back_edges,
            max_distance,
            ..generate::CyclicConfig::default()
        },
    )
}

/// Runs both checkers and asserts they agree; returns the shared
/// verdict.
fn checkers_agree(
    g: &hls_ir::PrecedenceGraph,
    r: &ResourceSet,
    ms: &ModuloSchedule,
    tag: &str,
) -> Result<bool, TestCaseError> {
    let modulo = check_modulo(g, r, ms);
    let iters = unroll_iterations(g, ms);
    let (flat, fs) = unroll(g, ms, iters);
    let oracle = validate(&flat, r, &fs);
    prop_assert_eq!(
        modulo.is_ok(),
        oracle.is_ok(),
        "[{}] checker {:?} vs oracle {:?} (unrolled {} iterations)",
        tag,
        modulo,
        oracle,
        iters
    );
    Ok(modulo.is_ok())
}

/// Nudges a schedule: move a start, swap a unit, or drop an
/// assignment. Returns how many mutations were applied.
fn perturb(ms: &mut ModuloSchedule, rng: &mut StdRng, n: usize, k: usize) -> usize {
    let count = rng.random_range(1usize..4);
    for _ in 0..count {
        let v = OpId::from_index(rng.random_range(0..n));
        match rng.random_range(0u32..4) {
            0 => {
                // Nudge the start by ±1..3.
                if let Some(s) = ms.start(v) {
                    let delta = rng.random_range(1u64..4);
                    let s = if rng.random_range(0..2u32) == 0 {
                        s.saturating_sub(delta)
                    } else {
                        s + delta
                    };
                    ms.assign(v, s, ms.unit(v));
                }
            }
            1 => {
                // Rebind to a random unit (possibly incompatible or
                // out of range).
                if let Some(s) = ms.start(v) {
                    ms.assign(v, s, Some(rng.random_range(0..k + 2)));
                }
            }
            2 => ms.unassign(v),
            _ => {
                // Collide: copy another op's start.
                let w = OpId::from_index(rng.random_range(0..n));
                if let (Some(sw), Some(_)) = (ms.start(w), ms.start(v)) {
                    ms.assign(v, sw, ms.unit(v));
                }
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scheduler output is accepted by the checker AND the unrolled
    /// oracle, at the achieved II and at looser IIs.
    #[test]
    fn scheduler_output_agrees_with_unrolled_oracle(
        seed in 0u64..1_000_000,
        ops in 2usize..16,
        back_edges in 0usize..5,
        max_distance in 1u32..4,
        alloc in 0usize..4,
    ) {
        let g = kernel(seed, ops, back_edges, max_distance);
        let r = allocation(alloc);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).expect("valid kernel");
        let out = sched
            .schedule(&hls_ir::Budget::NONE)
            .expect("well-formed kernels always schedule");
        prop_assert!(out.ii >= out.mii);
        let ok = checkers_agree(&g, &r, &out.schedule, "scheduler output")?;
        prop_assert!(ok, "scheduler output must be legal");
        // A strictly looser II (more slots, laxer recurrences) must
        // also succeed and agree.
        if let Ok(loose) = sched.schedule_at(out.ii + 3, None, &hls_ir::Budget::NONE) {
            let ok = checkers_agree(&g, &r, &loose, "loose II")?;
            prop_assert!(ok);
        }
    }

    /// On randomly perturbed (usually broken) schedules, the checker
    /// and the unrolled oracle still agree.
    #[test]
    fn checker_agrees_with_oracle_on_perturbed_schedules(
        seed in 0u64..1_000_000,
        ops in 2usize..14,
        back_edges in 0usize..4,
        max_distance in 1u32..4,
        alloc in 0usize..4,
    ) {
        let g = kernel(seed, ops, back_edges, max_distance);
        let r = allocation(alloc);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).expect("valid kernel");
        let out = sched
            .schedule(&hls_ir::Budget::NONE)
            .expect("well-formed kernels always schedule");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        for round in 0..3 {
            let mut ms = out.schedule.clone();
            perturb(&mut ms, &mut rng, g.len(), r.k());
            checkers_agree(&g, &r, &ms, &format!("perturbation {round}"))?;
        }
    }

    /// The certified MII is sound: no schedule exists below it. The
    /// scheduler itself must refuse (`IiInfeasible`), and for the
    /// recurrence component the checker must reject *any* complete
    /// assignment we can cook up at II = RecMII − 1.
    #[test]
    fn no_schedule_below_the_certified_bound(
        seed in 0u64..1_000_000,
        ops in 2usize..12,
        back_edges in 1usize..5,
        alloc in 0usize..4,
    ) {
        let g = kernel(seed, ops, back_edges, 2);
        let r = allocation(alloc);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).expect("valid kernel");
        let mii = sched.mii();
        prop_assume!(mii > 1);
        let probe = mii - 1;
        match sched.schedule_at(probe, None, &hls_ir::Budget::NONE) {
            Ok(ms) => {
                // The IMS budget is heuristic, but a *successful*
                // placement below the bound would disprove the bound:
                // it must never validate.
                let bad = check_modulo(&g, &r, &ms);
                prop_assert!(bad.is_err(), "schedule below MII validated: {:?}", bad);
            }
            Err(SchedError::IiInfeasible(ii)) => prop_assert_eq!(ii, probe),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }
}
