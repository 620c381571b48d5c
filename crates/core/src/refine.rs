//! Schedule refinement — the payoff of soft scheduling (Section 1,
//! Figure 1 of the paper).
//!
//! After later design phases discover new operations — spill code from
//! register allocation, register moves from SSA φ resolution, wire
//! delays from physical design — a *soft* schedule absorbs them by
//! scheduling the new vertices into the existing partial order
//! ([`insert_spill`], [`insert_wire_delay`]); a φ resolved to a
//! register move is retyped in place
//! ([`ThreadedScheduler::retype_ops`]).
//!
//! For comparison this module also implements the "trivial fix" the
//! paper attributes to hard schedulers (Figures 1(c)/(d)): keep every
//! operation at its fixed step and open new time steps for the inserted
//! ones ([`patch_hard_splice`]), which always pays the full inserted
//! delay.

use crate::{SchedError, ThreadedScheduler};
use hls_ir::{HardSchedule, OpId, OpKind, PrecedenceGraph, ResourceClass, ResourceSet};

/// Inserts a spill of the value `producer -> consumer` (a `Store` and a
/// `Load`, one step each by default) into both the behavior and the soft
/// schedule. Returns `(store, load)`.
///
/// The resource set must contain a memory port
/// ([`ResourceClass::MemPort`]) for the spill operations to execute on.
///
/// # Errors
///
/// Returns [`SchedError::Ir`] if `producer -> consumer` is not an edge
/// and [`SchedError::NoCompatibleUnit`] if there is no memory port.
pub fn insert_spill(
    ts: &mut ThreadedScheduler,
    producer: OpId,
    consumer: OpId,
) -> Result<(OpId, OpId), SchedError> {
    let label_st = format!("st({})", ts.graph().label(producer));
    let label_ld = format!("ld({})", ts.graph().label(producer));
    let inserted = ts.refine_splice(
        producer,
        consumer,
        [(OpKind::Store, 1, label_st), (OpKind::Load, 1, label_ld)],
    )?;
    Ok((inserted[0], inserted[1]))
}

/// Inserts a wire-delay vertex of the given delay on the edge
/// `from -> to` (the Figure 1(d) scenario) into both the behavior and
/// the soft schedule. Returns the new vertex.
///
/// # Errors
///
/// Returns [`SchedError::Ir`] if `from -> to` is not an edge.
pub fn insert_wire_delay(
    ts: &mut ThreadedScheduler,
    from: OpId,
    to: OpId,
    delay: u64,
) -> Result<OpId, SchedError> {
    let label = format!("wd({}->{})", ts.graph().label(from), ts.graph().label(to));
    let inserted = ts.refine_splice(from, to, [(OpKind::WireDelay, delay, label)])?;
    Ok(inserted[0])
}

/// Outcome of patching a *hard* schedule by the trivial fix.
#[derive(Clone, Debug)]
pub struct PatchedHard {
    /// The modified behavior (with the inserted operations).
    pub graph: PrecedenceGraph,
    /// The patched schedule.
    pub schedule: HardSchedule,
    /// Ids of the inserted operations.
    pub inserted: Vec<OpId>,
}

/// The paper's Figure 1(c)/(d) "trivial fix" of a hard schedule: splice
/// `chain` onto the edge `from -> to` of `g`, open `Σ delay` fresh time
/// steps at `start(to)` by shifting every operation at or below it, and
/// place the chain into the gap.
///
/// Resource-consuming inserted operations are bound greedily to a
/// compatible unit that is free in the gap.
///
/// # Errors
///
/// Returns [`SchedError::Ir`] if `from -> to` is not an edge,
/// [`SchedError::NotScheduled`] if either endpoint is unscheduled, and
/// [`SchedError::NoCompatibleUnit`] if an inserted operation cannot be
/// bound.
pub fn patch_hard_splice(
    g: &PrecedenceGraph,
    sched: &HardSchedule,
    resources: &ResourceSet,
    from: OpId,
    to: OpId,
    chain: impl IntoIterator<Item = (OpKind, u64, String)>,
) -> Result<PatchedHard, SchedError> {
    let mut graph = g.clone();
    let at = sched.start(to).ok_or(SchedError::NotScheduled(to))?;
    if sched.start(from).is_none() {
        return Err(SchedError::NotScheduled(from));
    }
    let inserted = graph.splice_on_edge(from, to, chain)?;
    let extra: u64 = inserted.iter().map(|&v| graph.delay(v)).sum();

    let mut schedule = sched.clone();
    schedule.grow(graph.len());
    schedule.shift_from(at, extra);

    // Fill the gap sequentially, binding each inserted op to a unit that
    // is idle during its slot.
    let mut t = at;
    for &v in &inserted {
        let kind = graph.kind(v);
        let unit = if kind.resource_class() == ResourceClass::Wire {
            None
        } else {
            let slot_end = t + graph.delay(v);
            let free = resources.compatible_units(kind).into_iter().find(|&u| {
                graph.op_ids().all(|w| {
                    schedule.unit(w) != Some(u)
                        || schedule
                            .start(w)
                            .is_none_or(|s| s >= slot_end || s + graph.delay(w) <= t)
                })
            });
            Some(free.ok_or(SchedError::NoCompatibleUnit(v, kind))?)
        };
        schedule.assign(v, t, unit);
        t += graph.delay(v);
    }
    Ok(PatchedHard {
        graph,
        schedule,
        inserted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{bench_graphs, schedule as sched_check, ResourceClass};

    /// Builds the Figure 1(e) soft schedule (threads {3,4,6,7} / {1,2,5})
    /// with a memory port available for spills.
    fn fig1_soft() -> (ThreadedScheduler, [OpId; 7]) {
        let f = bench_graphs::fig1();
        let r = ResourceSet::uniform(2).with(ResourceClass::MemPort, 1);
        let mut ts = ThreadedScheduler::new(f.graph, r).unwrap();
        for (op, thread) in [
            (f.v[2], 0),
            (f.v[3], 0),
            (f.v[5], 0),
            (f.v[6], 0),
            (f.v[0], 1),
            (f.v[1], 1),
            (f.v[4], 1),
        ] {
            let placements = ts.feasible_placements(op).unwrap();
            let p = placements
                .iter()
                .copied()
                .rfind(|p| p.thread == thread)
                .unwrap();
            ts.commit(p, op);
        }
        (ts, f.v)
    }

    #[test]
    fn figure1_spill_soft_vs_hard_patch() {
        // Soft: 5 -> 6 states (paper). Hard trivial fix: 5 -> 7 states.
        let (mut ts, v) = fig1_soft();
        assert_eq!(ts.diameter(), 5);
        let before_hard = ts.extract_hard();
        let g_before = ts.graph().clone();

        let (st, ld) = insert_spill(&mut ts, v[2], v[3]).unwrap();
        assert_eq!(ts.graph().kind(st), OpKind::Store);
        assert_eq!(ts.graph().kind(ld), OpKind::Load);
        assert_eq!(ts.diameter(), 6, "soft refinement absorbs one step");
        ts.check_invariants().unwrap();
        let refined = ts.extract_hard();
        sched_check::validate(ts.graph(), ts.resources(), &refined).unwrap();

        let patched = patch_hard_splice(
            &g_before,
            &before_hard,
            ts.resources(),
            v[2],
            v[3],
            [
                (OpKind::Store, 1, "st".to_string()),
                (OpKind::Load, 1, "ld".to_string()),
            ],
        )
        .unwrap();
        sched_check::validate(&patched.graph, ts.resources(), &patched.schedule).unwrap();
        assert_eq!(
            patched.schedule.length(&patched.graph),
            7,
            "the trivial fix pays the full two steps"
        );
    }

    #[test]
    fn figure1_wire_delay_is_absorbed_for_free() {
        // Paper: the wire-delay refinement still yields a 5-state
        // schedule — vertex 3's slack absorbs it entirely.
        let (mut ts, v) = fig1_soft();
        let wd = insert_wire_delay(&mut ts, v[2], v[3], 1).unwrap();
        assert_eq!(ts.graph().kind(wd), OpKind::WireDelay);
        assert_eq!(ts.diameter(), 5, "paper: wire delay absorbed, still 5 states");
        ts.check_invariants().unwrap();
        let hard = ts.extract_hard();
        sched_check::validate(ts.graph(), ts.resources(), &hard).unwrap();
    }

    #[test]
    fn hard_patch_of_wire_delay_pays_a_step() {
        let (ts, v) = fig1_soft();
        let patched = patch_hard_splice(
            ts.graph(),
            &ts.extract_hard(),
            ts.resources(),
            v[2],
            v[3],
            [(OpKind::WireDelay, 1, "wd".to_string())],
        )
        .unwrap();
        assert_eq!(patched.schedule.length(&patched.graph), 6);
        sched_check::validate(&patched.graph, ts.resources(), &patched.schedule).unwrap();
    }

    #[test]
    fn spill_needs_a_memory_port() {
        // Typed ALUs cannot run Store/Load; without a MemPort the spill
        // must be rejected. (Uniform units would accept it.)
        let f = bench_graphs::fig1();
        let mut ts = ThreadedScheduler::new(f.graph, ResourceSet::classic(2, 0)).unwrap();
        ts.schedule_all(f.v).unwrap();
        assert!(matches!(
            insert_spill(&mut ts, f.v[2], f.v[3]),
            Err(SchedError::NoCompatibleUnit(_, OpKind::Store))
        ));
    }

    #[test]
    fn patch_rejects_unscheduled_endpoints() {
        let f = bench_graphs::fig1();
        let sched = HardSchedule::new(f.graph.len());
        let err = patch_hard_splice(
            &f.graph,
            &sched,
            &ResourceSet::uniform(2),
            f.v[2],
            f.v[3],
            [(OpKind::WireDelay, 1, "wd".to_string())],
        );
        assert!(matches!(err, Err(SchedError::NotScheduled(_))));
    }
}
