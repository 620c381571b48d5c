//! Resource-constrained list scheduling.
//!
//! The classic cycle-by-cycle greedy scheduler: at every control step the
//! ready operations are sorted by priority and packed onto free compatible
//! functional units. This is the baseline ("list sched") of the paper's
//! Figure 3, and its issue order is the paper's "meta schedule 4".

use crate::BaselineError;
use hls_ir::{algo, HardSchedule, OpId, PrecedenceGraph, ResourceClass, ResourceSet};

/// Ready-list priority function.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Priority {
    /// Longest path to a sink (critical-path priority) — the standard
    /// choice, used for the Figure 3 reproduction.
    #[default]
    CriticalPath,
    /// Inverse mobility under the critical-path latency (ties broken by
    /// sink distance).
    Mobility,
    /// Graph input order (a deliberately weak priority, for ablations).
    InputOrder,
}

impl Priority {
    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::CriticalPath => "critical-path",
            Priority::Mobility => "mobility",
            Priority::InputOrder => "input-order",
        }
    }
}

/// The result of [`list_schedule`].
#[derive(Clone, Debug)]
pub struct ListOutcome {
    /// The hard schedule (start step and unit per operation).
    pub schedule: HardSchedule,
    /// Operations in issue order — `(start, priority)` lexicographic. This
    /// realises the paper's "meta schedule 4".
    pub order: Vec<OpId>,
}

impl ListOutcome {
    /// Schedule length in control steps.
    pub fn length(&self, g: &PrecedenceGraph) -> u64 {
        self.schedule.length(g)
    }
}

/// Schedules `g` under the resource constraints of `resources` with the
/// given ready-list priority.
///
/// Zero-resource operations ([`ResourceClass::Wire`]) issue as soon as
/// their predecessors finish; they occupy no unit.
///
/// # Errors
///
/// Returns [`BaselineError::CyclicInput`] for cyclic graphs and
/// [`BaselineError::NoCompatibleUnit`] if some operation has no unit able
/// to execute it.
pub fn list_schedule(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    priority: Priority,
) -> Result<ListOutcome, BaselineError> {
    if algo::topo_order(g).is_err() {
        return Err(BaselineError::CyclicInput);
    }
    for v in g.op_ids() {
        let kind = g.kind(v);
        if kind.resource_class() != ResourceClass::Wire
            && resources.compatible_units(kind).is_empty()
        {
            return Err(BaselineError::NoCompatibleUnit(v, kind));
        }
    }

    let prio = priority_keys(g, priority);
    let n = g.len();
    // Compatible units per op; empty for wire ops, which need none.
    let compat: Vec<Vec<usize>> = g
        .op_ids()
        .map(|v| {
            let kind = g.kind(v);
            if kind.resource_class() == ResourceClass::Wire {
                Vec::new()
            } else {
                resources.compatible_units(kind)
            }
        })
        .collect();
    let mut sched = HardSchedule::new(n);
    let mut unit_free = vec![0u64; resources.k()];
    let mut remaining_preds: Vec<usize> = g.op_ids().map(|v| g.preds(v).len()).collect();
    // ready_at[v] = max finish of scheduled preds; valid once remaining==0.
    let mut ready_at = vec![0u64; n];
    let mut unscheduled = n;
    let mut order = Vec::with_capacity(n);
    let mut t = 0u64;

    while unscheduled > 0 {
        // Ready ops at step t, highest priority first (ties: op id).
        let mut ready: Vec<OpId> = g
            .op_ids()
            .filter(|&v| {
                sched.start(v).is_none() && remaining_preds[v.index()] == 0 && ready_at[v.index()] <= t
            })
            .collect();
        ready.sort_by_key(|&v| (std::cmp::Reverse(prio[v.index()]), v));

        for v in ready {
            let units = &compat[v.index()];
            let placed = if units.is_empty() {
                Some(None)
            } else {
                units.iter().copied().find(|&u| unit_free[u] <= t).map(Some)
            };
            if let Some(unit) = placed {
                sched.assign(v, t, unit);
                if let Some(u) = unit {
                    unit_free[u] = t + g.delay(v);
                }
                let finish = t + g.delay(v);
                for &q in g.succs(v) {
                    remaining_preds[q.index()] -= 1;
                    ready_at[q.index()] = ready_at[q.index()].max(finish);
                }
                order.push(v);
                unscheduled -= 1;
            }
        }
        // Jump to the next step at which some op can issue: an op whose
        // predecessors are all scheduled issues no earlier than its
        // ready time and the earliest free compatible unit. Nothing
        // changes in the skipped steps, so the schedule is the one a
        // step-by-step scan builds, at a cost independent of the delays.
        let next = g
            .op_ids()
            .filter(|&v| sched.start(v).is_none() && remaining_preds[v.index()] == 0)
            .map(|v| {
                let unit_at = compat[v.index()].iter().map(|&u| unit_free[u]).min();
                ready_at[v.index()].max(unit_at.unwrap_or(0))
            })
            .min();
        t = next.map_or(t + 1, |next| next.max(t + 1));
    }
    Ok(ListOutcome {
        schedule: sched,
        order,
    })
}

fn priority_keys(g: &PrecedenceGraph, priority: Priority) -> Vec<u64> {
    match priority {
        Priority::CriticalPath => algo::sink_distances(g),
        Priority::Mobility => {
            let latency = algo::diameter(g);
            let tdist = algo::sink_distances(g);
            match crate::mobility(g, latency) {
                Ok(mob) => {
                    let max_mob = mob.iter().copied().max().unwrap_or(0);
                    g.op_ids()
                        // Scale so low mobility dominates; sink distance
                        // breaks ties.
                        .map(|v| (max_mob - mob[v.index()]) * 1024 + tdist[v.index()].min(1023))
                        .collect()
                }
                Err(_) => tdist,
            }
        }
        Priority::InputOrder => g.op_ids().map(|v| (g.len() - v.index()) as u64).collect(),
    }
}

/// Greedily binds a complete start-time assignment onto unit instances:
/// operations are sorted by start step and each takes the first compatible
/// instance that is free for its whole execution interval.
///
/// # Errors
///
/// Returns [`BaselineError::BindingOverflow`] if, at some step, more
/// operations of a class execute than instances exist, and
/// [`BaselineError::NoCompatibleUnit`] if an operation has no compatible
/// instance at all.
pub fn bind_units(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    starts: &HardSchedule,
) -> Result<HardSchedule, BaselineError> {
    let mut out = starts.clone();
    let mut ops: Vec<OpId> = g.op_ids().collect();
    ops.sort_by_key(|&v| (starts.start(v).unwrap_or(u64::MAX), v));
    let mut unit_free = vec![0u64; resources.k()];
    for v in ops {
        let kind = g.kind(v);
        if kind.resource_class() == ResourceClass::Wire {
            continue;
        }
        let compat = resources.compatible_units(kind);
        if compat.is_empty() {
            return Err(BaselineError::NoCompatibleUnit(v, kind));
        }
        let Some(s) = starts.start(v) else {
            return Err(BaselineError::BindingOverflow(v));
        };
        match compat.into_iter().find(|&u| unit_free[u] <= s) {
            Some(u) => {
                unit_free[u] = s + g.delay(v);
                out.assign(v, s, Some(u));
            }
            None => return Err(BaselineError::BindingOverflow(v)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{bench_graphs, schedule, OpKind, PrecedenceGraph};

    #[test]
    fn hal_lengths_under_the_figure3_allocations() {
        let g = bench_graphs::hal();
        let table: [(usize, usize, u64); 3] = [(2, 2, 7), (4, 4, 6), (2, 1, 13)];
        for (alus, muls, expect) in table {
            let r = ResourceSet::classic(alus, muls);
            let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
            assert_eq!(
                out.length(&g),
                expect,
                "HAL with {alus} ALU {muls} MUL"
            );
            schedule::validate(&g, &r, &out.schedule).unwrap();
        }
    }

    #[test]
    fn fir_lengths_match_the_paper_exactly() {
        // FIR row of Figure 3: 11 / 7 / 19.
        let g = bench_graphs::fir();
        for (alus, muls, expect) in [(2, 2, 11), (4, 4, 7), (2, 1, 19)] {
            let r = ResourceSet::classic(alus, muls);
            let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
            assert_eq!(out.length(&g), expect, "FIR with {alus} ALU {muls} MUL");
        }
    }

    #[test]
    fn single_unit_serialises_everything() {
        let g = bench_graphs::fir();
        let r = ResourceSet::uniform(1);
        let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
        // 8 muls * 2 + 7 adds * 1 = 23 steps, fully serial.
        assert_eq!(out.length(&g), 23);
        schedule::validate(&g, &r, &out.schedule).unwrap();
    }

    #[test]
    fn missing_unit_class_is_an_error() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 0);
        assert!(matches!(
            list_schedule(&g, &r, Priority::CriticalPath),
            Err(BaselineError::NoCompatibleUnit(_, OpKind::Mul))
        ));
    }

    #[test]
    fn issue_order_respects_dependencies() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
        assert_eq!(out.order.len(), g.len());
        let mut pos = vec![0usize; g.len()];
        for (i, &v) in out.order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for (p, q) in g.edges() {
            assert!(pos[p.index()] < pos[q.index()]);
        }
    }

    #[test]
    fn wire_ops_issue_without_units() {
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let w = g.add_op(OpKind::WireDelay, 1, "w");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, w).unwrap();
        g.add_edge(w, b).unwrap();
        let r = ResourceSet::classic(1, 0);
        let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
        assert_eq!(out.length(&g), 3);
        assert_eq!(out.schedule.unit(w), None);
        schedule::validate(&g, &r, &out.schedule).unwrap();
    }

    #[test]
    fn priorities_are_all_usable() {
        let g = bench_graphs::ewf();
        let r = ResourceSet::classic(2, 1);
        for p in [Priority::CriticalPath, Priority::Mobility, Priority::InputOrder] {
            let out = list_schedule(&g, &r, p).unwrap();
            schedule::validate(&g, &r, &out.schedule).unwrap();
            assert!(out.length(&g) >= hls_ir::algo::diameter(&g));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn huge_delays_scale_the_schedule_without_stepping_through_it() {
        // Every start is a sum of delays, so scaling all delays scales
        // every start and keeps the issue order.
        let g = hls_ir::generate::stress_dag(4, 60);
        let mut big = g.clone();
        for v in big.op_ids() {
            big.set_delay(v, g.delay(v) << 40);
        }
        for r in [ResourceSet::classic(2, 2), ResourceSet::classic(1, 1)] {
            let small = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
            let large = list_schedule(&big, &r, Priority::CriticalPath).unwrap();
            assert_eq!(large.order, small.order);
            for v in g.op_ids() {
                assert_eq!(
                    large.schedule.start(v),
                    small.schedule.start(v).map(|s| s << 40)
                );
                assert_eq!(large.schedule.unit(v), small.schedule.unit(v));
            }
            schedule::validate(&big, &r, &large.schedule).unwrap();
        }
    }

    #[test]
    fn bind_units_assigns_disjoint_intervals() {
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let out = list_schedule(&g, &r, Priority::CriticalPath).unwrap();
        // Strip units, re-bind, and validate.
        let mut starts = HardSchedule::new(g.len());
        for v in g.op_ids() {
            starts.assign(v, out.schedule.start(v).unwrap(), None);
        }
        let bound = bind_units(&g, &r, &starts).unwrap();
        schedule::validate(&g, &r, &bound).unwrap();
    }

    #[test]
    fn bind_units_detects_overflow() {
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        let mut starts = HardSchedule::new(g.len());
        starts.assign(a, 0, None);
        starts.assign(b, 0, None);
        let r = ResourceSet::classic(1, 0);
        assert!(matches!(
            bind_units(&g, &r, &starts),
            Err(BaselineError::BindingOverflow(_))
        ));
    }
}
