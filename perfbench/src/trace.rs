//! The traced run's span recorder.
//!
//! The benchmark opens its own spans around each call into a layer
//! (name, start, end, parent, design or request id). Where a phase sits
//! behind `run_flow` with no public seam, the `hls-obs` phase spans of
//! the calling thread are read back after each call and merged in.
//! Spans stay in memory; [`Tracer::write`] saves them at the end.
//!
//! A layer's self time is its span's duration minus the time its
//! direct children cover.

use hls_obs::recorder::{self, EventKind};
use hls_obs::Phase;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    /// Design or request id.
    pub id: u64,
    /// Where the span came from: the benchmark, an `hls-obs` phase
    /// span, or an aggregate of many short calls laid end to end.
    pub source: &'static str,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// `hls-obs` phases recorded on the thread that called the flow, and
/// the layer each one is attributed to. Per-candidate phases run on
/// race worker threads and are left out: the caller's race span covers
/// them.
fn obs_layer(p: Phase) -> Option<&'static str> {
    Some(match p {
        Phase::FlowSchedule => "flow.schedule",
        Phase::FlowSpill => "flow.spill",
        Phase::FlowPhi => "flow.phi",
        Phase::FlowPlace => "flow.place",
        Phase::FlowExtract => "flow.extract",
        Phase::ModuloRace => "search.modulo",
        Phase::PortfolioRace => "search.portfolio",
        Phase::EcoGraft => "core.graft",
        _ => return None,
    })
}

#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// First span of the design being recorded.
    design_start: usize,
    id: u64,
}

impl Tracer {
    /// Starts a new design (or request): later spans carry `id`.
    pub fn design(&mut self, id: u64) {
        self.id = id;
        self.design_start = self.spans.len();
    }

    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_us: recorder::now_us(),
            end_us: 0,
            parent,
            id: self.id,
            source: "bench",
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_us = recorder::now_us();
    }

    /// Records `total_us` of many short calls as one child span of the
    /// open span, placed right after `at_us`. Returns its end.
    pub fn aggregate(&mut self, name: &'static str, at_us: u64, total_us: u64) -> u64 {
        self.spans.push(Span {
            name,
            start_us: at_us,
            end_us: at_us + total_us,
            parent: self.open.last().copied(),
            id: self.id,
            source: "aggregate",
        });
        at_us + total_us
    }

    /// Moves the caller-thread `hls-obs` phase spans recorded since the
    /// last call into this trace, under the benchmark span that
    /// contains each of them, and empties the recorder's rings.
    pub fn ingest_obs(&mut self) {
        let mut obs: Vec<Span> = recorder::snapshot_events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .filter_map(|e| {
                Some(Span {
                    name: obs_layer(e.phase)?,
                    start_us: e.ts_us,
                    end_us: e.ts_us + e.dur_us,
                    parent: None,
                    id: self.id,
                    source: "hls-obs",
                })
            })
            .collect();
        recorder::clear_events();
        // Outer spans first, so each one is on the stack before the
        // spans it contains.
        obs.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.end_us)));
        let base = self.spans.len();
        let mut stack: Vec<usize> = Vec::new();
        for (k, mut s) in obs.into_iter().enumerate() {
            while let Some(&top) = stack.last() {
                if self.spans[top].end_us >= s.end_us {
                    break;
                }
                stack.pop();
            }
            s.parent = match stack.last() {
                Some(&top) => Some(top),
                None => self.innermost_bench(&s),
            };
            self.spans.push(s);
            stack.push(base + k);
        }
    }

    /// The innermost benchmark span of the current design containing `s`.
    fn innermost_bench(&self, s: &Span) -> Option<usize> {
        (self.design_start..self.spans.len())
            .filter(|&i| {
                let b = &self.spans[i];
                b.source == "bench"
                    && b.start_us <= s.start_us
                    && (b.end_us >= s.end_us || b.end_us == 0)
            })
            .max_by_key(|&i| (self.spans[i].start_us, i))
    }

    /// Appends another (finished) trace, e.g. one client thread's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.design_start = self.spans.len();
    }

    /// Self time per layer name, in µs, and the number of distinct
    /// designs each layer appeared in.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur();
            }
        }
        let mut self_us: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut ids: BTreeMap<&'static str, BTreeSet<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *self_us.entry(s.name).or_default() += s.dur().saturating_sub(child_us[i]);
            ids.entry(s.name).or_default().insert(s.id);
        }
        self_us
            .into_iter()
            .map(|(name, us)| (name, (us, ids[name].len())))
            .collect()
    }

    /// Mean self time of `layer` per design it appeared in, ms (0 when
    /// the layer never ran).
    pub fn self_ms(&self, layers: &BTreeMap<&'static str, (u64, usize)>, layer: &str) -> f64 {
        layers
            .get(layer)
            .map_or(0.0, |&(us, n)| us as f64 / 1e3 / n.max(1) as f64)
    }

    /// Total duration of the root spans named in `roots`, µs.
    pub fn root_us(&self, roots: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && roots.contains(&s.name))
            .map(Span::dur)
            .sum()
    }

    /// Share of the named roots' wall covered by named layers beneath
    /// them (1 minus the roots' own unattributed self time).
    pub fn accounted_share(&self, roots: &[&str]) -> f64 {
        let layers = self.layers();
        let total = self.root_us(roots);
        let unattributed: u64 = roots.iter().map(|r| layers.get(r).map_or(0, |l| l.0)).sum();
        1.0 - unattributed as f64 / total.max(1) as f64
    }

    /// Writes every span as a JSON array.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"id\":{},\"source\":\"{}\"}}{}",
                s.name,
                s.start_us,
                s.end_us,
                s.id,
                s.source,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
