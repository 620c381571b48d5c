//! The per-layer metric table shared by every workload's traced run.
//!
//! Each `*_ms` metric is the mean self time per design (or request) of
//! the span of the same name, over the designs that layer ran in; a
//! layer a workload never reaches reads 0. The other metrics are
//! counts and ratios the workload fills in.

use crate::measure::{metric, Metric};
use crate::trace::Tracer;
use hls_ir::OpId;
use std::time::{Duration, Instant};
use threaded_sched::ThreadedScheduler;

/// Every per-layer metric, named after the crate that owns the layer.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("ir.parse_ms", "ms"),
    ("ir.hash_ms", "ms"),
    ("ir.reach_build_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("ir.chains", "count"),
    ("ir.chains_final", "count"),
    ("core.order_ms", "ms"),
    ("core.new_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.commit_ms", "ms"),
    ("core.splice_ms", "ms"),
    ("core.splices", "count"),
    ("core.graft_ms", "ms"),
    ("phys.place_ms", "ms"),
    ("phys.wire_delays", "count"),
    ("alloc.spills", "count"),
    ("flow.schedule_ms", "ms"),
    ("flow.spill_ms", "ms"),
    ("flow.phi_ms", "ms"),
    ("flow.place_ms", "ms"),
    ("flow.extract_ms", "ms"),
    ("search.portfolio_ms", "ms"),
    ("search.runs", "count"),
    ("search.completed_share", "ratio"),
    ("search.modulo_ms", "ms"),
    ("search.modulo_candidates", "count"),
    ("search.ii_gap", "count"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.transport_share", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.eco_ratio", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
];

/// The per-layer table with every `*_ms` entry filled from the
/// tracer's self times and every other entry at 0.
pub fn metrics(t: &Tracer) -> Vec<Metric> {
    let layers = t.layers();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = name
                .strip_suffix("_ms")
                .map_or(0.0, |l| t.self_ms(&layers, l));
            metric(name, value, unit)
        })
        .collect()
}

pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    let m = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    m.value = value;
}

/// Extra wall share the traced calls took over the same calls untraced.
pub fn overhead(traced_us: u64, plain_us: u64) -> f64 {
    traced_us as f64 / plain_us.max(1) as f64 - 1.0
}

/// Schedules `order` through the public `select` and `commit` per op,
/// timing each, and records the two totals as aggregate spans under a
/// `core.schedule` span.
pub fn select_commit(
    t: &mut Tracer,
    ts: &mut ThreadedScheduler,
    order: &[OpId],
) -> Result<(), String> {
    t.begin("core.schedule");
    let at = hls_obs::recorder::now_us();
    let (mut select, mut commit) = (Duration::ZERO, Duration::ZERO);
    let r = order.iter().try_for_each(|&v| {
        let t0 = Instant::now();
        let placement = ts.select(v).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        ts.commit(placement, v);
        commit += t1.elapsed();
        select += t1 - t0;
        Ok(())
    });
    let mid = t.aggregate("core.select", at, select.as_micros() as u64);
    t.aggregate("core.commit", mid, commit.as_micros() as u64);
    t.end();
    r
}
