//! The flight-recorder span ring: per-thread, fixed-capacity,
//! lock-free on the write path.
//!
//! Every thread that records gets its own ring of [`RING_DEFAULT`]
//! slots (override with `HLS_OBS_RING` before the first event).
//! Writes never take a lock and never allocate in steady state: the
//! owning thread bumps a head counter and seqlock-stamps the slot, so
//! a concurrent snapshot ([`snapshot_events`]) either reads a slot
//! consistently or discards it as torn. When the ring wraps, the
//! *oldest* events are overwritten — the newest window survives,
//! which is exactly what a post-mortem wants.
//!
//! Dynamic labels (strategy names, rung names, log messages) are
//! interned into a bounded global table; the ring slots themselves
//! hold only fixed-width words.

use crate::metrics::{self, Hist};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (slots).
pub const RING_DEFAULT: usize = 4096;

/// Everything a span or instant event can be tagged with. The set is
/// closed so trace consumers can rely on the names; free-form detail
/// goes in the interned label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Phase {
    /// The soft-scheduling phase of a flow (whole phase 1).
    FlowSchedule = 0,
    /// Spill absorption.
    FlowSpill = 1,
    /// φ resolution.
    FlowPhi = 2,
    /// Placement + wire-delay absorption.
    FlowPlace = 3,
    /// Extraction, validation, FSMD build.
    FlowExtract = 4,
    /// One portfolio race.
    PortfolioRace = 5,
    /// One strategy's run inside a race.
    PortfolioRun = 6,
    /// The modulo portfolio (II search).
    ModuloRace = 7,
    /// One candidate (II, meta) modulo run.
    ModuloCandidate = 8,
    /// One degradation-ladder rung attempt.
    DegradeRung = 9,
    /// One served request, admission to answer.
    ServeRequest = 10,
    /// An ECO delta graft on a cached base.
    EcoGraft = 11,
    /// Daemon lifecycle (boot, drain, shutdown).
    ServeLifecycle = 12,
    /// Writing one response line to its client (write + flush).
    ServeRespond = 13,
}

impl Phase {
    /// Every phase, for exporters.
    pub const ALL: [Phase; 14] = [
        Phase::FlowSchedule,
        Phase::FlowSpill,
        Phase::FlowPhi,
        Phase::FlowPlace,
        Phase::FlowExtract,
        Phase::PortfolioRace,
        Phase::PortfolioRun,
        Phase::ModuloRace,
        Phase::ModuloCandidate,
        Phase::DegradeRung,
        Phase::ServeRequest,
        Phase::EcoGraft,
        Phase::ServeLifecycle,
        Phase::ServeRespond,
    ];

    /// Stable name, used in the Chrome trace and the smoke checks.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FlowSchedule => "flow:schedule",
            Phase::FlowSpill => "flow:spill",
            Phase::FlowPhi => "flow:phi",
            Phase::FlowPlace => "flow:place",
            Phase::FlowExtract => "flow:extract",
            Phase::PortfolioRace => "portfolio:race",
            Phase::PortfolioRun => "portfolio:run",
            Phase::ModuloRace => "modulo:race",
            Phase::ModuloCandidate => "modulo:candidate",
            Phase::DegradeRung => "degrade:rung",
            Phase::ServeRequest => "serve:request",
            Phase::EcoGraft => "serve:eco-graft",
            Phase::ServeLifecycle => "serve:lifecycle",
            Phase::ServeRespond => "serve:respond",
        }
    }

    /// Chrome-trace category (the subsystem).
    pub fn category(self) -> &'static str {
        match self {
            Phase::FlowSchedule
            | Phase::FlowSpill
            | Phase::FlowPhi
            | Phase::FlowPlace
            | Phase::FlowExtract => "flow",
            Phase::PortfolioRace | Phase::PortfolioRun => "portfolio",
            Phase::ModuloRace | Phase::ModuloCandidate => "modulo",
            Phase::DegradeRung => "degrade",
            Phase::ServeRequest
            | Phase::EcoGraft
            | Phase::ServeLifecycle
            | Phase::ServeRespond => "serve",
        }
    }

    /// The latency histogram this phase's spans feed, if any.
    /// Histograms record on *every* span end (they are cheap
    /// atomics); the ring event itself is subject to sampling.
    pub fn hist(self) -> Option<Hist> {
        match self {
            Phase::FlowSchedule => Some(Hist::FlowScheduleUs),
            Phase::PortfolioRace => Some(Hist::PortfolioRaceUs),
            Phase::PortfolioRun => Some(Hist::PortfolioRunUs),
            Phase::ModuloRace => Some(Hist::ModuloRaceUs),
            Phase::DegradeRung => Some(Hist::DegradeRungUs),
            Phase::EcoGraft => Some(Hist::EcoGraftUs),
            _ => None,
        }
    }

    fn from_u16(v: u16) -> Option<Phase> {
        Phase::ALL.get(v as usize).copied()
    }
}

/// What one ring slot records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_us` is the start, `dur_us` the length.
    Span,
    /// A point-in-time marker.
    Instant,
    /// A leveled log event (level in `arg`'s low byte).
    Log,
}

impl EventKind {
    fn as_u8(self) -> u8 {
        match self {
            EventKind::Span => 0,
            EventKind::Instant => 1,
            EventKind::Log => 2,
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        match v {
            0 => Some(EventKind::Span),
            1 => Some(EventKind::Instant),
            2 => Some(EventKind::Log),
            _ => None,
        }
    }
}

/// One decoded event, as returned by [`snapshot_events`].
#[derive(Clone, Debug)]
pub struct EventOut {
    /// Span / instant / log.
    pub kind: EventKind,
    /// The phase tag.
    pub phase: Phase,
    /// Resolved dynamic label (empty when none was attached).
    pub label: String,
    /// Small stable id of the recording thread.
    pub tid: u32,
    /// Microseconds since the recorder epoch (start of span for
    /// spans).
    pub ts_us: u64,
    /// Span length in microseconds (0 for instants and logs).
    pub dur_us: u64,
    /// Free argument (trace id, request id, log level…).
    pub arg: u64,
    /// Ring sequence number on the recording thread — strictly
    /// increasing per `tid`, with no gaps among surviving events of
    /// one snapshot except the wrap cutoff.
    pub seq: u64,
}

const SLOT_WORDS: usize = 5;

/// One seqlock-stamped slot. `seq` is odd while the owner writes,
/// `2·generation + 2` once the payload is consistent.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    #[allow(clippy::declare_interior_mutable_const)] // array init seed
    const EMPTY: Slot = Slot {
        seq: AtomicU64::new(0),
        words: [
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ],
    };
}

/// A per-thread ring. The owning thread is the only writer; snapshot
/// readers validate each slot's seqlock stamp.
pub(crate) struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
    tid: u32,
}

impl Ring {
    fn new(capacity: usize, tid: u32) -> Ring {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Slot::EMPTY);
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            tid,
        }
    }

    /// Owner-thread write. Not safe for concurrent *writers* — the
    /// thread-local handoff guarantees there is exactly one.
    fn push(&self, words: [u64; SLOT_WORDS]) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot.seq.store(2 * h + 1, Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Snapshot every consistently-readable slot.
    fn collect(&self, out: &mut Vec<EventOut>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let mut words = [0u64; SLOT_WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // torn: overwritten while reading
            }
            let generation = s1 / 2 - 1;
            if let Some(ev) = decode(words, self.tid, generation) {
                out.push(ev);
            }
        }
    }
}

fn encode(
    kind: EventKind,
    phase: Phase,
    label: u32,
    ts_us: u64,
    dur_us: u64,
    arg: u64,
) -> [u64; SLOT_WORDS] {
    let w0 = u64::from(kind.as_u8()) | (u64::from(phase as u16) << 8);
    [w0, u64::from(label), ts_us, dur_us, arg]
}

fn decode(words: [u64; SLOT_WORDS], tid: u32, seq: u64) -> Option<EventOut> {
    let kind = EventKind::from_u8((words[0] & 0xFF) as u8)?;
    let phase = Phase::from_u16(((words[0] >> 8) & 0xFFFF) as u16)?;
    Some(EventOut {
        kind,
        phase,
        label: resolve_label(words[1] as u32),
        tid,
        ts_us: words[2],
        dur_us: words[3],
        arg: words[4],
        seq,
    })
}

/// Global registry of every thread's ring. Rings outlive their
/// threads so a flight dump still sees a dead worker's last events.
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("HLS_OBS_RING")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n >= 16)
            .unwrap_or(RING_DEFAULT)
    })
}

thread_local! {
    static MY_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new(
            ring_capacity(),
            NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ));
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&ring));
        ring
    };
}

/// Microsecond timestamp on the process-wide recorder epoch.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

// ---- label interner -------------------------------------------------

/// Bounded label table: id 0 is the empty label; past
/// [`INTERN_CAP`] entries every new label degrades to id 0 instead of
/// growing without bound.
const INTERN_CAP: usize = 4096;

fn interner() -> &'static Mutex<Vec<String>> {
    static INTERNER: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(vec![String::new()]))
}

/// Interns `label`, returning its stable id (0 for the empty string
/// or when the table is full and the label is novel).
pub fn intern_label(label: &str) -> u32 {
    if label.is_empty() {
        return 0;
    }
    let mut t = interner()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(i) = t.iter().position(|s| s == label) {
        return i as u32;
    }
    if t.len() >= INTERN_CAP {
        return 0;
    }
    t.push(label.to_string());
    (t.len() - 1) as u32
}

fn resolve_label(id: u32) -> String {
    let t = interner()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    t.get(id as usize).cloned().unwrap_or_default()
}

// ---- sampling -------------------------------------------------------

static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(1);

/// Record only every `n`-th span/instant into the ring (histograms
/// and counters are unaffected). `n == 0` is treated as 1.
pub fn set_sample_every(n: u32) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

thread_local! {
    static SAMPLE_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn sampled() -> bool {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every <= 1 {
        return true;
    }
    SAMPLE_TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v % every == 0
    })
}

// ---- write paths ----------------------------------------------------

fn push_event(words: [u64; SLOT_WORDS]) {
    MY_RING.with(|r| r.push(words));
}

/// Records an instant event (subject to sampling).
pub fn instant(phase: Phase, label: &str, arg: u64) {
    if !crate::recording() || !sampled() {
        return;
    }
    let label = intern_label(label);
    push_event(encode(EventKind::Instant, phase, label, now_us(), 0, arg));
}

/// Records a log event into the ring (always, when recording — logs
/// are rare and load-bearing in a post-mortem).
pub(crate) fn log_record(level: u8, message: &str) {
    if !crate::recording() {
        return;
    }
    let label = intern_label(message);
    push_event(encode(
        EventKind::Log,
        Phase::ServeLifecycle,
        label,
        now_us(),
        0,
        u64::from(level),
    ));
}

/// An open span. Created by [`span`] (or the `obs_span!` macro);
/// records on drop. Inert (and nearly free) when recording is
/// disabled or the span was not sampled into the ring — the phase
/// histogram still gets the duration whenever recording is enabled.
pub struct SpanGuard {
    /// `None` when recording was disabled at creation.
    start: Option<(Phase, u32, u64, u64, bool)>,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub const fn inert() -> SpanGuard {
        SpanGuard { start: None }
    }
}

/// Opens a span over `phase` with a dynamic `label` and free `arg`.
pub fn span(phase: Phase, label: &str, arg: u64) -> SpanGuard {
    if !crate::recording() {
        return SpanGuard::inert();
    }
    let ringed = sampled();
    let label = if ringed { intern_label(label) } else { 0 };
    SpanGuard {
        start: Some((phase, label, now_us(), arg, ringed)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, label, t0, arg, ringed)) = self.start.take() else {
            return;
        };
        let dur = now_us().saturating_sub(t0);
        if let Some(h) = phase.hist() {
            metrics::hist_record(h, dur);
        }
        if ringed {
            push_event(encode(EventKind::Span, phase, label, t0, dur, arg));
        }
    }
}

/// Collects every consistently-readable event from every thread's
/// ring, ordered by `(ts_us, tid, seq)`. Concurrent writers keep
/// writing; slots caught mid-write are skipped, not mis-read.
pub fn snapshot_events() -> Vec<EventOut> {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let mut out = Vec::new();
    for ring in rings {
        ring.collect(&mut out);
    }
    out.sort_by_key(|e| (e.ts_us, e.tid, e.seq));
    out
}

/// Drops every recorded event (test isolation; rings stay allocated,
/// their heads keep counting so wrap accounting stays truthful).
pub fn clear_events() {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    for ring in rings {
        for slot in ring.slots.iter() {
            // Stamp as "never written": readers skip seq == 0.
            slot.seq.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?} discriminant mismatch");
            assert_eq!(Phase::from_u16(i as u16), Some(*p));
            assert!(!p.name().is_empty() && !p.category().is_empty());
        }
        assert_eq!(Phase::from_u16(Phase::ALL.len() as u16), None);
    }

    #[test]
    fn interner_is_stable_and_bounded() {
        let a = intern_label("alpha-label");
        assert_eq!(intern_label("alpha-label"), a);
        assert_eq!(resolve_label(a), "alpha-label");
        assert_eq!(intern_label(""), 0);
        assert_eq!(resolve_label(0), "");
    }
}
