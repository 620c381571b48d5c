//! Multi-threaded recorder torture tests: concurrent writers with a
//! racing snapshot reader must yield only well-formed events, and a
//! wrapped ring must keep the newest window.
//!
//! These tests share process-global recorder state, so they all
//! funnel through one lock and restore the master switch on exit.

use hls_obs::recorder::{self, EventKind, Phase};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

struct Recording<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl Recording<'_> {
    fn start() -> Recording<'static> {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        recorder::clear_events();
        hls_obs::set_enabled(true);
        Recording { _guard: guard }
    }
}

impl Drop for Recording<'_> {
    fn drop(&mut self) {
        hls_obs::set_enabled(false);
        recorder::clear_events();
    }
}

/// Eight writer threads race while a snapshot reader polls: every
/// event that comes out must decode cleanly, belong to a writer, and
/// per-thread sequence numbers must be strictly increasing — i.e.
/// concurrent writers never interleave *within* one event.
#[test]
fn eight_writers_yield_well_formed_spans() {
    let _rec = Recording::start();
    const WRITERS: usize = 8;
    const SPANS_PER_WRITER: usize = 200;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    let label = format!("writer-{w}");
                    let _span =
                        recorder::span(Phase::PortfolioRun, &label, (w * 10_000 + i) as u64);
                    std::hint::spin_loop();
                }
            });
        }
        // Racing reader: snapshots taken mid-write must not observe
        // torn slots — every event decodes or is skipped.
        scope.spawn(|| {
            for _ in 0..50 {
                for ev in recorder::snapshot_events() {
                    assert_eq!(ev.kind, EventKind::Span);
                    assert_eq!(ev.phase, Phase::PortfolioRun);
                    assert!(
                        ev.label.is_empty() || ev.label.starts_with("writer-"),
                        "interleaved label: {:?}",
                        ev.label
                    );
                }
                std::thread::yield_now();
            }
        });
    });

    let events = recorder::snapshot_events();
    assert!(
        events.len() >= WRITERS * SPANS_PER_WRITER.min(100),
        "expected a healthy number of surviving events, got {}",
        events.len()
    );
    // Group by tid: a writer's surviving events keep strictly
    // increasing seq, and label/arg stay consistent per writer.
    let mut by_tid: std::collections::HashMap<u32, Vec<&recorder::EventOut>> =
        std::collections::HashMap::new();
    for ev in &events {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    for (tid, mut evs) in by_tid {
        evs.sort_by_key(|e| e.seq);
        let mut writer: Option<u64> = None;
        for pair in evs.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "tid {tid}: duplicate or reordered seq"
            );
        }
        for ev in evs {
            if ev.label.is_empty() {
                continue; // label interner can degrade to id 0 when full
            }
            let w = ev.arg / 10_000;
            assert_eq!(ev.label, format!("writer-{w}"), "label/arg cross-talk");
            match writer {
                None => writer = Some(w),
                Some(prev) => assert_eq!(prev, w, "tid {tid} carries two writers' events"),
            }
        }
    }
}

/// Overfill one thread's ring: the newest events must survive the
/// wrap, the oldest must be gone.
#[test]
fn ring_wrap_keeps_newest_events() {
    let _rec = Recording::start();
    let overfill = recorder::RING_DEFAULT + 512;
    for i in 0..overfill {
        recorder::instant(Phase::ModuloCandidate, "wrap", i as u64);
    }
    let mut mine: Vec<u64> = recorder::snapshot_events()
        .into_iter()
        .filter(|e| e.phase == Phase::ModuloCandidate)
        .map(|e| e.arg)
        .collect();
    mine.sort_unstable();
    assert!(!mine.is_empty());
    assert!(
        mine.len() <= recorder::RING_DEFAULT,
        "ring held more than its capacity"
    );
    // The newest event always survives; the oldest `overfill - cap`
    // must have been overwritten.
    assert_eq!(*mine.last().unwrap(), overfill as u64 - 1);
    assert!(
        *mine.first().unwrap() >= (overfill - recorder::RING_DEFAULT) as u64,
        "an event older than the ring window survived: {}",
        mine.first().unwrap()
    );
    // The surviving window is gap-free: wrap evicts strictly oldest-first.
    for pair in mine.windows(2) {
        assert_eq!(pair[0] + 1, pair[1], "gap inside the surviving window");
    }
}

/// Sampling thins ring traffic without corrupting anything.
#[test]
fn sampling_records_every_nth() {
    let _rec = Recording::start();
    recorder::set_sample_every(10);
    for i in 0..100u64 {
        recorder::instant(Phase::ModuloCandidate, "sampled", i);
    }
    recorder::set_sample_every(1);
    let n = recorder::snapshot_events()
        .into_iter()
        .filter(|e| e.phase == Phase::ModuloCandidate)
        .count();
    assert_eq!(n, 10, "1-in-10 sampling must keep exactly 10 of 100");
}

/// Disabled recording leaves the ring untouched.
#[test]
fn disabled_recorder_records_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    recorder::clear_events();
    hls_obs::set_enabled(false);
    for _ in 0..64 {
        let _span = recorder::span(Phase::FlowSpill, "ghost", 0);
        recorder::instant(Phase::FlowSpill, "ghost", 0);
    }
    assert!(recorder::snapshot_events().is_empty());
}
