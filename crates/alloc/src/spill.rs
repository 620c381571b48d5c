//! Spill-candidate selection.
//!
//! When MAXLIVE exceeds the register budget, some value must move to
//! background memory. Following classic practice the candidate is the
//! value with the **longest lifetime** crossing a maximally congested
//! step; spilling it replaces one long interval by two short ones (birth
//! to `st`, `ld` to consumer) — exactly the `st`/`ld` insertion of the
//! paper's Figure 1(c). The insertion into a live soft schedule is done
//! by `threaded_sched::refine::insert_spill`, driven from `hls-flow`.

use crate::lifetimes::Lifetime;
use hls_ir::{OpId, PrecedenceGraph};

/// A concrete spill decision: the value produced by `producer`, carried
/// on the edge to `consumer`, should go through memory.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SpillDecision {
    /// The producing operation whose value is spilled.
    pub producer: OpId,
    /// The (latest) consumer that will reload the value.
    pub consumer: OpId,
}

/// Picks the spill candidate for one allocation round: the longest
/// lifetime alive at a step of maximal pressure, together with its
/// latest consumer. Returns `None` when `lifetimes` is empty.
pub fn pick_spill(
    g: &PrecedenceGraph,
    lifetimes: &[Lifetime],
) -> Option<SpillDecision> {
    let live: Vec<Lifetime> = lifetimes.iter().copied().filter(|l| !l.is_empty()).collect();
    if live.is_empty() {
        return None;
    }
    // Find a step of maximum pressure.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for l in &live {
        events.push((l.birth, 1));
        events.push((l.death, -1));
    }
    events.sort();
    let mut pressure = 0i64;
    let mut best_step = 0u64;
    let mut best_pressure = -1i64;
    for (t, d) in events {
        pressure += d;
        if pressure > best_pressure {
            best_pressure = pressure;
            best_step = t;
        }
    }
    // Longest lifetime crossing that step. Values produced by reloads
    // are never re-spilled (that would only add memory traffic).
    let victim = live
        .iter()
        .filter(|l| l.birth <= best_step && best_step < l.death)
        .filter(|l| g.kind(l.producer) != hls_ir::OpKind::Load)
        .max_by_key(|l| (l.len(), l.producer))?;
    // Reload before its latest consumer (the one defining `death`).
    let consumer = g
        .succs(victim.producer)
        .iter()
        .copied()
        .max_by_key(|&q| (victim.producer, q))?;
    Some(SpillDecision {
        producer: victim.producer,
        consumer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetimes::lifetimes;
    use hls_ir::{HardSchedule, OpKind};

    /// One producer feeding a far consumer (long lifetime) and a pair of
    /// short-lived values.
    fn pressure_case() -> (PrecedenceGraph, HardSchedule) {
        let mut g = PrecedenceGraph::new();
        let long = g.add_op(OpKind::Add, 1, "long");
        let far = g.add_op(OpKind::Add, 1, "far");
        g.add_edge(long, far).unwrap();
        let s1 = g.add_op(OpKind::Add, 1, "s1");
        let u1 = g.add_op(OpKind::Add, 1, "u1");
        g.add_edge(s1, u1).unwrap();
        let mut sched = HardSchedule::new(g.len());
        sched.assign(long, 0, Some(0));
        sched.assign(far, 9, Some(0));
        sched.assign(s1, 1, Some(1));
        sched.assign(u1, 4, Some(1));
        (g, sched)
    }

    #[test]
    fn picks_the_longest_lifetime_at_peak_pressure() {
        let (g, sched) = pressure_case();
        let ls = lifetimes(&g, &sched).unwrap();
        let d = pick_spill(&g, &ls).unwrap();
        assert_eq!(g.label(d.producer), "long");
        assert_eq!(g.label(d.consumer), "far");
    }

    #[test]
    fn no_spill_needed_for_empty_lifetimes() {
        let g = PrecedenceGraph::new();
        assert_eq!(pick_spill(&g, &[]), None);
    }
}
