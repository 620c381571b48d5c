//! `CountingAlloc` installed as this test binary's global allocator:
//! flat while disarmed, exact once armed, and no wrap when blocks
//! allocated before arming are freed.
//!
//! One test function, because the counters are process-wide.

use hls_bench::mem::{self, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

#[test]
fn counts_only_while_armed_and_never_wraps() {
    // Disarmed: allocations and frees leave the counters untouched.
    let (cur, peak) = (mem::current_bytes(), mem::peak_bytes());
    drop(black_box(vec![1u8; MIB]));
    assert_eq!((mem::current_bytes(), mem::peak_bytes()), (cur, peak));

    // Armed: a 1 MiB block shows up in the peak and leaves with its free.
    let pre_arm = black_box(vec![1u8; MIB]);
    mem::arm();
    let block = black_box(vec![1u8; MIB]);
    assert!(
        mem::peak_bytes() >= MIB as i64,
        "peak {}",
        mem::peak_bytes()
    );
    let live = mem::current_bytes();
    drop(block);
    assert!(mem::current_bytes() <= live - MIB as i64);

    // Freeing a pre-arm block goes below the arming baseline instead of
    // wrapping to a huge live count or peak.
    mem::reset_peak();
    drop(pre_arm);
    assert!(mem::current_bytes() < 0, "current {}", mem::current_bytes());
    assert!(mem::peak_bytes() < MIB as i64, "peak {}", mem::peak_bytes());
    mem::disarm();
    let frozen = mem::current_bytes();
    drop(black_box(vec![1u8; MIB]));
    assert_eq!(mem::current_bytes(), frozen);
}
