//! Measurement primitives: the counting allocator behind
//! `peak_heap_mb`, latency samples, and the end-to-end tally every
//! workload fills.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a live-byte and peak-byte count.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the
// bookkeeping only touches two atomics, never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A moving realloc holds both blocks for a moment.
            grew(new_size as u64);
            CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

fn grew(size: u64) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Restarts peak tracking from the live size now.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// The host's speed over a run, from a fixed piece of work in the
/// benchmark's own code ([`calibrate`]) timed between the run's items.
///
/// The shared host runs slower for stretches of minutes, longer than a
/// run, and a median over the run's passes cannot see past those.
/// Times are therefore reported at a reference speed: each is scaled
/// by [`REFERENCE_CALIBRATION_MS`] over the run's median calibration.
/// The calibration is the benchmark's own code, so a change to the
/// program moves the scaled times as it moves the raw ones.
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

/// The calibration's median time, ms, on the 2-vCPU host the reported
/// first numbers come from: scaled times read as that host's.
const REFERENCE_CALIBRATION_MS: f64 = 16.0;
/// How often a run samples the calibration.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

impl HostSpeed {
    /// Takes the first sample.
    pub fn start() -> HostSpeed {
        let mut h = HostSpeed {
            samples: Vec::new(),
            last: Instant::now(),
        };
        h.sample();
        h
    }

    /// Samples the calibration if [`CALIBRATE_EVERY`] has passed since
    /// the last sample. Called between items, outside their timing.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIBRATE_EVERY {
            self.sample();
        }
    }

    fn sample(&mut self) {
        self.samples.push(ms(calibrate()));
        self.last = Instant::now();
    }

    /// The run's median calibration, ms.
    pub fn calibration_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// The factor that brings this run's times to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_CALIBRATION_MS / self.calibration_ms()
    }
}

/// Times a fixed piece of work: fill a 256 KiB table, walk it in a
/// dependent pseudo-random order, sort it, then mix integers in
/// registers. Like the workloads' graph code it is branchy, chases
/// pointers and stays in cache, so it slows as they do when the host
/// gives the core less; a table larger than the caches would time
/// memory latency instead. The peak-heap count is left as it was: the
/// workloads call it single-threaded, between items.
fn calibrate() -> Duration {
    const WORDS: usize = 1 << 16;
    let peak = PEAK.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut table = vec![0u32; WORDS];
    let mut x = 0x9e37_79b9u32;
    for w in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *w = x;
    }
    let mut i = 0usize;
    for j in 0..(1usize << 20) {
        i = (table[i] as usize ^ j) & (WORDS - 1);
    }
    table.sort_unstable();
    let mut h = i as u64 ^ u64::from(table[WORDS / 2]);
    for k in 0..(1u64 << 22) {
        h = (h ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    }
    std::hint::black_box((h, table));
    let d = t0.elapsed();
    PEAK.store(peak, Ordering::Relaxed);
    d
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed())
}

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a workload's measured loop accumulates toward the end-to-end
/// metrics. Times count only the program calls a user pays for; the
/// benchmark's own correctness checks run outside them.
#[derive(Default)]
pub struct Tally {
    /// Per-design (or per-request) latency, ms.
    pub latency_ms: Vec<f64>,
    /// Per-ECO-resubmission latency, ms.
    pub eco_ms: Vec<f64>,
    /// Wall time the throughput figures divide by.
    pub busy: Duration,
    /// Answered submissions (designs, ECOs, requests).
    pub answered: u64,
    /// Input operations of the answered submissions.
    pub ops: u64,
    /// Σ final control states over the workload's fixed reference set.
    pub states: u64,
    /// Σ achieved initiation interval over the same set.
    pub ii: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records a failed check. Only the first few messages are kept.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// The end-to-end metrics, `setup_s` first.
    pub fn end_to_end(&self, setup_s: f64, peak: u64) -> Vec<Metric> {
        let busy = self.busy.as_secs_f64().max(1e-9);
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("ops_per_s", self.ops as f64 / busy, "ops/s"),
            metric("requests_per_s", self.answered as f64 / busy, "1/s"),
            metric("latency_p50_ms", percentile(&self.latency_ms, 0.5), "ms"),
            metric("latency_p95_ms", percentile(&self.latency_ms, 0.95), "ms"),
            // A mean, not a median: an ECO either splices a new wire
            // delay or not, so its latency is bimodal and a median
            // jumps between the modes as the sample set shifts.
            metric(
                "eco_mean_ms",
                self.eco_ms.iter().sum::<f64>() / self.eco_ms.len() as f64,
                "ms",
            ),
            metric("ok_share", ok, "ratio"),
            metric("peak_heap_mb", peak as f64 / 1e6, "MB"),
            metric("schedule_states", self.states as f64, "count"),
            metric("ii_sum", self.ii as f64, "count"),
        ]
    }
}

/// Each item's answer times over a run's whole passes. A shared host
/// slows some passes of a run and not others, so an item counts with
/// its median pass, and once however many passes fit in the window.
pub struct ItemTimes {
    /// Per item: input ops, then cold and ECO time, ms, of each
    /// answered pass.
    items: Vec<(u64, Vec<f64>, Vec<f64>)>,
}

impl ItemTimes {
    pub fn new(items: usize) -> ItemTimes {
        ItemTimes {
            items: vec![(0, Vec::new(), Vec::new()); items],
        }
    }

    /// Records one answered pass of item `i`.
    pub fn record(&mut self, i: usize, cold: Duration, eco: Duration, ops: u64) {
        let (n, colds, ecos) = &mut self.items[i];
        *n = ops;
        colds.push(ms(cold));
        ecos.push(ms(eco));
    }

    /// One pass made of every item's median answers, each time scaled
    /// by `scale` (see [`HostSpeed`]), goes into the tally: latencies,
    /// busy time, answers and ops.
    pub fn fill(&self, tally: &mut Tally, scale: f64) {
        for (ops, colds, ecos) in self.items.iter().filter(|it| !it.1.is_empty()) {
            let (cold, eco) = (median(colds) * scale, median(ecos) * scale);
            tally.latency_ms.push(cold);
            tally.eco_ms.push(eco);
            tally.busy += Duration::from_secs_f64((cold + eco) / 1e3);
            tally.answered += 2;
            tally.ops += ops;
        }
    }
}

/// Deterministic 64-bit generator (splitmix64): inputs derive from the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}
