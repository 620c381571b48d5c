//! Byte-counting global allocator for memory-scaling studies.
//!
//! [`CountingAlloc`] wraps the system allocator. The `bench` binary
//! installs it for every subcommand (`#[global_allocator]`), but only
//! `bench scaling` [`arm`]s it: while disarmed the hook costs one
//! relaxed load and does no bookkeeping, so the wall-time studies run
//! as under the plain allocator. Library consumers and tests that link
//! this module without installing it simply read zeros.
//!
//! Armed, it tracks live and peak heap bytes *relative to the moment
//! of arming*, in signed atomics: freeing a block allocated before
//! arming drives the live count below zero instead of wrapping it.
//! The counters use relaxed atomics: the studies are single-threaded,
//! and even concurrent use only risks a slightly stale peak, never a
//! torn value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// A [`GlobalAlloc`] delegating to [`System`] while counting live and
/// peak bytes once [`arm`]ed. See the [module docs](self).
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(delta: i64) {
        if ARMED.load(Ordering::Relaxed) {
            let cur = CURRENT.fetch_add(delta, Ordering::Relaxed) + delta;
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates allocation verbatim to `System`; the bookkeeping
// only touches atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::record(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::record(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::record(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Account as alloc(new) then dealloc(old): a moving realloc
            // briefly holds both blocks, and the peak must see that
            // overlap (delta accounting would under-report it).
            Self::record(new_size as i64);
            Self::record(-(layout.size() as i64));
        }
        p
    }
}

/// Starts counting from zero live bytes.
pub fn arm() {
    CURRENT.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting; the counters keep their last values.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Live heap bytes allocated since [`arm`] minus those freed (negative
/// once more pre-arm memory was freed than allocated; 0 unless
/// [`CountingAlloc`] is installed and armed).
pub fn current_bytes() -> i64 {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak of [`current_bytes`] since the last [`reset_peak`] or [`arm`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live size, so a subsequent
/// [`peak_bytes`] − (baseline) measures one phase in isolation.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    // The allocator is not installed in the unit-test harness, so only
    // the pass-through accessors are exercised here; counting itself is
    // covered by `tests/mem_counting.rs`, which installs it.
    #[test]
    fn uninstalled_counters_read_zero_and_reset_is_safe() {
        super::reset_peak();
        assert_eq!(super::current_bytes(), 0);
        assert_eq!(super::peak_bytes(), 0);
    }
}
