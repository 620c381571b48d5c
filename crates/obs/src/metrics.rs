//! The metrics registry: typed counters and log2-bucketed latency
//! histograms — all plain atomics, aggregated on demand.
//!
//! Counters are sharded eight ways on a per-thread affinity so hot
//! paths (one `count!` per scheduler op) don't ping-pong a cacheline
//! between workers. Histograms are single-copy: they are touched at
//! phase granularity, not per-op.
//!
//! The registry is process-global and holds *library* metrics only
//! (engine, search, flow). A daemon keeps its own per-instance
//! accounting and reuses [`HistCell`] for its latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters. Keep the order stable — snapshots and
/// the STATS plane key off [`Counter::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Scheduler `select` calls (one candidate chosen).
    SelectCalls = 0,
    /// Scheduler `commit` calls (one op placed).
    CommitCalls,
    /// Single pair reachability probes against the reach index.
    ReachPairProbes,
    /// Set-vs-node reachability probes (SWAR kernels).
    ReachSetProbes,
    /// Portfolio strategies spawned into a race.
    StrategySpawned,
    /// Strategies aborted because an incumbent already won.
    StrategyAborted,
    /// Strategies that exhausted their budget.
    StrategyTimedOut,
    /// Strategies that panicked and were isolated.
    StrategyPoisoned,
    /// Strategies whose schedule won their race.
    StrategyWon,
    /// Feedback-refinement rounds run after the base race.
    RefineRounds,
    /// (II, meta) candidates attempted by the modulo portfolio.
    ModuloCandidates,
    /// Ladder demotions because a rung ran out of time.
    DegradeTimeout,
    /// Ladder demotions because a rung panicked.
    DegradePoisoned,
    /// Ladder demotions because a rung returned an error.
    DegradeError,
    /// Flows answered at the Portfolio rung.
    AnsweredPortfolio,
    /// Flows answered at the SingleMeta rung.
    AnsweredSingleMeta,
    /// Flows answered at the ListSchedule rung.
    AnsweredListSchedule,
    /// Flows that fell all the way to a bound-only answer.
    AnsweredBoundOnly,
    /// ECO grafts taken instead of a full flow.
    EcoGrafts,
    /// Log events emitted (at or above the active `HLS_LOG` level).
    LogEvents,
    /// Flight-recorder dumps written.
    FlightDumps,
}

impl Counter {
    /// Number of counters (size of the backing array).
    pub const COUNT: usize = Counter::FlightDumps as usize + 1;

    /// All counters, in snapshot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SelectCalls,
        Counter::CommitCalls,
        Counter::ReachPairProbes,
        Counter::ReachSetProbes,
        Counter::StrategySpawned,
        Counter::StrategyAborted,
        Counter::StrategyTimedOut,
        Counter::StrategyPoisoned,
        Counter::StrategyWon,
        Counter::RefineRounds,
        Counter::ModuloCandidates,
        Counter::DegradeTimeout,
        Counter::DegradePoisoned,
        Counter::DegradeError,
        Counter::AnsweredPortfolio,
        Counter::AnsweredSingleMeta,
        Counter::AnsweredListSchedule,
        Counter::AnsweredBoundOnly,
        Counter::EcoGrafts,
        Counter::LogEvents,
        Counter::FlightDumps,
    ];

    /// Stable snake_case name used in snapshots and STATS output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SelectCalls => "select_calls",
            Counter::CommitCalls => "commit_calls",
            Counter::ReachPairProbes => "reach_pair_probes",
            Counter::ReachSetProbes => "reach_set_probes",
            Counter::StrategySpawned => "strategy_spawned",
            Counter::StrategyAborted => "strategy_aborted",
            Counter::StrategyTimedOut => "strategy_timed_out",
            Counter::StrategyPoisoned => "strategy_poisoned",
            Counter::StrategyWon => "strategy_won",
            Counter::RefineRounds => "refine_rounds",
            Counter::ModuloCandidates => "modulo_candidates",
            Counter::DegradeTimeout => "degrade_timeout",
            Counter::DegradePoisoned => "degrade_poisoned",
            Counter::DegradeError => "degrade_error",
            Counter::AnsweredPortfolio => "answered_portfolio",
            Counter::AnsweredSingleMeta => "answered_single_meta",
            Counter::AnsweredListSchedule => "answered_list_schedule",
            Counter::AnsweredBoundOnly => "answered_bound_only",
            Counter::EcoGrafts => "eco_grafts",
            Counter::LogEvents => "log_events",
            Counter::FlightDumps => "flight_dumps",
        }
    }
}

/// Log2-bucketed microsecond histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Whole scheduling phase of a flow.
    FlowScheduleUs = 0,
    /// One portfolio race.
    PortfolioRaceUs,
    /// One strategy run inside a race.
    PortfolioRunUs,
    /// The modulo (II search) portfolio.
    ModuloRaceUs,
    /// The parallel seam stitch.
    ParallelStitchUs,
    /// One degradation-ladder rung attempt.
    DegradeRungUs,
    /// An ECO graft fast path.
    EcoGraftUs,
}

impl Hist {
    /// Number of histograms.
    pub const COUNT: usize = Hist::EcoGraftUs as usize + 1;

    /// All histograms, in snapshot order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::FlowScheduleUs,
        Hist::PortfolioRaceUs,
        Hist::PortfolioRunUs,
        Hist::ModuloRaceUs,
        Hist::ParallelStitchUs,
        Hist::DegradeRungUs,
        Hist::EcoGraftUs,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::FlowScheduleUs => "flow_schedule_us",
            Hist::PortfolioRaceUs => "portfolio_race_us",
            Hist::PortfolioRunUs => "portfolio_run_us",
            Hist::ModuloRaceUs => "modulo_race_us",
            Hist::ParallelStitchUs => "parallel_stitch_us",
            Hist::DegradeRungUs => "degrade_rung_us",
            Hist::EcoGraftUs => "eco_graft_us",
        }
    }
}

// ---- storage --------------------------------------------------------

const SHARDS: usize = 8;

/// One cacheline-aligned shard of every counter.
#[repr(align(64))]
struct CounterShard {
    vals: [AtomicU64; Counter::COUNT],
}

impl CounterShard {
    #[allow(clippy::declare_interior_mutable_const)] // array init seed
    const ZERO_CELL: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)] // array init seed
    const EMPTY: CounterShard = CounterShard {
        vals: [Self::ZERO_CELL; Counter::COUNT],
    };
}

static COUNTERS: [CounterShard; SHARDS] = [CounterShard::EMPTY; SHARDS];

/// 2^40 µs ≈ 12.7 days: bucket `i` holds samples with
/// `floor(log2(us)) == i` (bucket 0 also takes 0 µs).
pub const HIST_BUCKETS: usize = 40;

/// One log2-bucketed microsecond histogram: the storage behind every
/// [`Hist`], public so per-instance accounting (the serve daemon's
/// request and queue-wait latencies) shares the bucket code.
pub struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl HistCell {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_CELL: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)] // array init seed
    const EMPTY: HistCell = HistCell {
        buckets: [Self::ZERO_CELL; HIST_BUCKETS],
        count: AtomicU64::new(0),
        sum_us: AtomicU64::new(0),
    };

    /// Records one sample (microseconds).
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A read-only copy; each cell is read atomically.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
    }
}

impl Default for HistCell {
    fn default() -> HistCell {
        HistCell::EMPTY
    }
}

static HISTS: [HistCell; Hist::COUNT] = [HistCell::EMPTY; Hist::COUNT];

thread_local! {
    static MY_SHARD: usize = {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

/// Adds `n` to a counter on this thread's shard.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    let shard = MY_SHARD.with(|s| *s);
    COUNTERS[shard].vals[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current cross-shard total of a counter.
pub fn counter_get(c: Counter) -> u64 {
    COUNTERS
        .iter()
        .map(|s| s.vals[c as usize].load(Ordering::Relaxed))
        .sum()
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((63 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Records one sample (microseconds) into a histogram.
#[inline]
pub fn hist_record(h: Hist, us: u64) {
    HISTS[h as usize].record(us);
}

/// A read-only copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-log2-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
}

impl HistSnapshot {
    /// Approximate quantile (`q` in `[0, 1]`) as the upper bound of
    /// the bucket holding the `q`-th sample; 0 when empty. Bucket
    /// bounds are powers of two, so the answer is within 2× of the
    /// true value — plenty for a p50/p99 dashboard.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << self.buckets.len().min(63)
    }

    /// Mean sample, microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time copy of the whole registry (or of a daemon's own
/// accounting followed by the registry).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in [`Counter::ALL`] order for the
    /// registry.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, histogram)` per histogram.
    pub hists: Vec<(&'static str, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }
}

/// Captures the registry. Concurrent updates keep landing; each
/// individual cell is read atomically, so totals are monotone
/// between two snapshots even if not mutually perfectly coherent.
pub fn snapshot() -> MetricsSnapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), counter_get(c)))
        .collect();
    let hists = Hist::ALL
        .iter()
        .map(|&h| (h.name(), HISTS[h as usize].snapshot()))
        .collect();
    MetricsSnapshot { counters, hists }
}

/// Zeroes every counter and histogram (test isolation only;
/// concurrent writers may land increments mid-reset).
pub fn reset() {
    for shard in &COUNTERS {
        for v in &shard.vals {
            v.store(0, Ordering::Relaxed);
        }
    }
    for cell in &HISTS {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_us: 0,
        };
        for us in [3u64, 5, 9, 17, 800] {
            h.buckets[super::bucket_of(us)] += 1;
            h.count += 1;
            h.sum_us += us;
        }
        // p50 lands in the bucket of 9 (bucket 3 → upper bound 16).
        assert_eq!(h.quantile_us(0.5), 16);
        // p99 lands in the bucket of 800 (bucket 9 → upper bound 1024).
        assert_eq!(h.quantile_us(0.99), 1024);
        assert_eq!(h.mean_us(), (3 + 5 + 9 + 17 + 800) / 5);
        assert_eq!(HistSnapshot::default().quantile_us(0.5), 0);
    }

    #[test]
    fn a_private_hist_cell_buckets_like_the_registry() {
        let cell = HistCell::default();
        for us in [0u64, 3, 1024] {
            cell.record(us);
        }
        let snap = cell.snapshot();
        assert_eq!((snap.count, snap.sum_us), (3, 1027));
        assert_eq!(snap.buckets.len(), HIST_BUCKETS);
        assert_eq!(
            (snap.buckets[0], snap.buckets[1], snap.buckets[10]),
            (1, 1, 1)
        );
        cell.reset();
        assert_eq!(
            cell.snapshot(),
            HistSnapshot {
                buckets: vec![0; HIST_BUCKETS],
                ..Default::default()
            }
        );
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }
}
