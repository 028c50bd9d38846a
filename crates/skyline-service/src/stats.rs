//! Lock-free service metrics: hit/miss/error counters and a latency histogram.
//!
//! Per-query latencies land in power-of-two buckets (bucket `i` covers
//! `[2^i, 2^{i+1})` nanoseconds), so recording is a single relaxed atomic increment and
//! percentile estimates are a scan over 64 counters — no locks on the serve path, which is
//! exactly where a throughput-bound service cannot afford them. The price is quantization:
//! a reported percentile is the *upper bound* of its bucket (within 2× of the true value).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// Shared, lock-free counters updated by every served query.
#[derive(Debug)]
pub struct ServiceMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    mutations: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    degraded: AtomicU64,
    streams_started: AtomicU64,
    snapshot_loads: AtomicU64,
    snapshot_load_ns: AtomicU64,
    preprocess_build_ns: AtomicU64,
    template_skyline_builds: AtomicU64,
    global_skyline_rows: AtomicU64,
    latency_ns: [AtomicU64; BUCKETS],
    ttfr_ns: [AtomicU64; BUCKETS],
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            streams_started: AtomicU64::new(0),
            snapshot_loads: AtomicU64::new(0),
            snapshot_load_ns: AtomicU64::new(0),
            preprocess_build_ns: AtomicU64::new(0),
            template_skyline_builds: AtomicU64::new(0),
            global_skyline_rows: AtomicU64::new(0),
            latency_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            ttfr_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServiceMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one answered query.
    pub fn record(&self, cache_hit: bool, latency: Duration) {
        if cache_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let ns = latency.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.latency_ns[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed query (failures are not cached and carry no latency sample).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dataset mutation (an insert or a live delete that bumped the epoch).
    pub fn record_mutation(&self) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss that waited on another request's in-flight build of the global
    /// template skyline at the same skyline-epoch vector instead of starting its own.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request rejected by admission control (the queue was full, the request was
    /// shed with [`skyline_core::SkylineError::Overloaded`] without touching the engine).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that expired its [`skyline_core::Deadline`] (or was cancelled)
    /// before completing.
    pub fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a degraded (partial) response: one or more shards were quarantined or missed
    /// the deadline and the configured policy tolerated answering from the healthy rest.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one streaming serve handed out (live scatter and cache replay alike).
    pub fn record_stream_started(&self) {
        self.streams_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Records engine cold starts served from persistent snapshots: `engines` structures
    /// rehydrated in `elapsed` total wall time (no preprocessing ran).
    pub fn record_snapshot_load(&self, engines: u64, elapsed: Duration) {
        self.snapshot_loads.fetch_add(engines, Ordering::Relaxed);
        self.snapshot_load_ns.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records wall time spent in from-scratch preprocessing builds (the cost a snapshot
    /// load avoids — compare [`StatsSnapshot::preprocess_build_ms`] against
    /// [`StatsSnapshot::snapshot_load_ms`]).
    pub fn record_preprocess_build(&self, elapsed: Duration) {
        self.preprocess_build_ns.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records one complete build of the global template skyline (once per epoch vector a
    /// sharded miss reached) and its row count.
    pub fn record_template_skyline_build(&self, rows: usize) {
        self.template_skyline_builds.fetch_add(1, Ordering::Relaxed);
        self.global_skyline_rows
            .store(rows as u64, Ordering::Relaxed);
    }

    /// Records a stream's time-to-first-row: the delay between the serve call and its first
    /// delivered skyline member. The whole point of the progressive path — compare
    /// [`StatsSnapshot::ttfr_p99`] against [`StatsSnapshot::p99`] (whole-answer latency).
    pub fn record_ttfr(&self, ttfr: Duration) {
        let ns = ttfr.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.ttfr_ns[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the counters (individual loads are relaxed).
    pub fn snapshot(&self) -> StatsSnapshot {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let errors = self.errors.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .latency_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let ttfr: Vec<u64> = self
            .ttfr_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        StatsSnapshot {
            hits,
            misses,
            errors,
            mutations: self.mutations.load(Ordering::Relaxed),
            stale_evictions: 0,
            remapped_hits: 0,
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            streams_started: self.streams_started.load(Ordering::Relaxed),
            queue_depth: 0,
            rebuilds: 0,
            reclaimed_rows: 0,
            snapshot_loads: self.snapshot_loads.load(Ordering::Relaxed),
            snapshot_load_ms: self.snapshot_load_ns.load(Ordering::Relaxed) / 1_000_000,
            preprocess_build_ms: self.preprocess_build_ns.load(Ordering::Relaxed) / 1_000_000,
            template_skyline_builds: self.template_skyline_builds.load(Ordering::Relaxed),
            global_skyline_rows: self.global_skyline_rows.load(Ordering::Relaxed),
            p50: percentile(&buckets, 0.50),
            p99: percentile(&buckets, 0.99),
            ttfr_p50: percentile(&ttfr, 0.50),
            ttfr_p99: percentile(&ttfr, 0.99),
        }
    }
}

/// Upper bound of the bucket containing the `q`-quantile sample.
fn percentile(buckets: &[u64], q: f64) -> Duration {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let upper_ns = if i + 1 >= BUCKETS {
                u64::MAX
            } else {
                1u64 << (i + 1)
            };
            return Duration::from_nanos(upper_ns);
        }
    }
    Duration::from_nanos(u64::MAX)
}

/// Point-in-time view of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries answered from the result cache.
    pub hits: u64,
    /// Queries that had to run the engine.
    pub misses: u64,
    /// Queries that returned an error (not cached, not counted in `hits`/`misses`).
    pub errors: u64,
    /// Dataset mutations served (inserts and live deletes; each bumped the epoch).
    pub mutations: u64,
    /// Cached results dropped because a mutation made their epoch stale (lazy expiry; filled
    /// in from the result cache by `ShardedService::stats`).
    pub stale_evictions: u64,
    /// Always 0. A generation swap expires the cached answers it renumbers instead of
    /// carrying them across, so no hit is ever served from a remapped entry. The field stays
    /// only because the benchmark adapter reads it; the `[benchmark]` slice of ROADMAP item
    /// (i) that moves the adapter deletes it.
    pub remapped_hits: u64,
    /// Misses that waited on another request's in-flight build of the global template
    /// skyline at the same skyline-epoch vector instead of starting their own (only services
    /// of two or more shards build one).
    pub coalesced: u64,
    /// Requests rejected by admission control: the bounded queue was full and the request was
    /// shed with `Overloaded` before touching the engine (reject-newest).
    pub shed: u64,
    /// Requests that expired their deadline (or were cancelled) before completing.
    pub deadline_misses: u64,
    /// Degraded (partial) responses served from healthy shards while others were quarantined
    /// or past deadline — only non-zero under a tolerant degrade policy.
    pub degraded: u64,
    /// Streaming serves handed out (live scatters and cache replays alike).
    pub streams_started: u64,
    /// Requests inside the admission queue right now (a gauge, not a counter; filled in from
    /// the admission queue by the owning service's `stats`).
    pub queue_depth: u64,
    /// Generation rebuilds installed across every shard's engine — background compaction +
    /// IPO re-materialization swaps (filled in from the engines by `ShardedService::stats`).
    pub rebuilds: u64,
    /// Tombstoned rows physically reclaimed by those rebuilds (filled in from the engines by
    /// `ShardedService::stats`).
    pub reclaimed_rows: u64,
    /// Engines cold-started from a persistent snapshot instead of a preprocessing build
    /// (one per shard for a sharded bootstrap).
    pub snapshot_loads: u64,
    /// Total wall time spent rehydrating engines from snapshots, in milliseconds.
    pub snapshot_load_ms: u64,
    /// Total wall time spent in from-scratch preprocessing builds, in milliseconds — the
    /// cost [`StatsSnapshot::snapshot_load_ms`] replaces on a snapshot bootstrap.
    pub preprocess_build_ms: u64,
    /// Complete builds of the service-wide template skyline `G = SKY(R)` that every sharded
    /// miss is served from: one per epoch vector a miss reached, so it counts how often
    /// writes and swaps forced a rebuild (0 on one shard, where the engine's own structure
    /// is `G`). Builds over the healthy shards of a degraded request are not counted.
    pub template_skyline_builds: u64,
    /// `|G|`, the paper's `|SKY(R)|` over every shard's rows, at the last complete build
    /// (0 before the first).
    pub global_skyline_rows: u64,
    /// Median latency (upper bound of its power-of-two bucket).
    pub p50: Duration,
    /// 99th-percentile latency (upper bound of its power-of-two bucket).
    pub p99: Duration,
    /// Median time-to-first-row across streaming serves (upper bound of its bucket).
    pub ttfr_p50: Duration,
    /// 99th-percentile time-to-first-row across streaming serves.
    pub ttfr_p99: Duration,
}

impl StatsSnapshot {
    /// Total successfully served queries.
    pub fn served(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of served queries answered from the cache (0 when nothing was served).
    pub fn hit_rate(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            self.hits as f64 / self.served() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record(true, Duration::from_micros(10));
        m.record(false, Duration::from_micros(100));
        m.record(false, Duration::from_micros(100));
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.served(), 3);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = ServiceMetrics::new().snapshot();
        assert_eq!(s.served(), 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.streams_started, 0);
        assert_eq!(s.ttfr_p50, Duration::ZERO);
        assert_eq!(s.ttfr_p99, Duration::ZERO);
    }

    #[test]
    fn streaming_counters_and_ttfr_are_independent_of_batch_latency() {
        let m = ServiceMetrics::new();
        m.record_stream_started();
        m.record_stream_started();
        m.record_ttfr(Duration::from_micros(2));
        m.record_ttfr(Duration::from_micros(2));
        m.record(false, Duration::from_millis(10));
        let s = m.snapshot();
        assert_eq!(s.streams_started, 2);
        assert!(s.ttfr_p50 >= Duration::from_micros(2));
        assert!(s.ttfr_p99 <= Duration::from_micros(8));
        // Whole-answer latency stays an order of magnitude above first-row latency.
        assert!(s.p50 >= Duration::from_millis(8));
    }

    #[test]
    fn percentiles_bound_the_recorded_latencies() {
        let m = ServiceMetrics::new();
        // 99 fast queries at ~1 µs, one slow outlier at ~1 ms.
        for _ in 0..99 {
            m.record(false, Duration::from_micros(1));
        }
        m.record(false, Duration::from_millis(1));
        let s = m.snapshot();
        // p50 is in the microsecond range (within its 2× bucket), p99 well below p100.
        assert!(s.p50 >= Duration::from_micros(1));
        assert!(s.p50 <= Duration::from_micros(4));
        assert!(s.p99 <= Duration::from_micros(4));
        // And the p100-ish quantile catches the outlier.
        let buckets: Vec<u64> = m
            .latency_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert!(percentile(&buckets, 1.0) >= Duration::from_millis(1));
    }

    #[test]
    fn snapshot_and_preprocess_timers_accumulate() {
        let m = ServiceMetrics::new();
        m.record_snapshot_load(4, Duration::from_millis(6));
        m.record_snapshot_load(2, Duration::from_millis(5));
        m.record_preprocess_build(Duration::from_millis(250));
        let s = m.snapshot();
        assert_eq!(s.snapshot_loads, 6);
        assert_eq!(s.snapshot_load_ms, 11);
        assert_eq!(s.preprocess_build_ms, 250);
        let zeroed = ServiceMetrics::new().snapshot();
        assert_eq!(zeroed.snapshot_loads, 0);
        assert_eq!(zeroed.snapshot_load_ms, 0);
        assert_eq!(zeroed.preprocess_build_ms, 0);
    }

    #[test]
    fn subnanosecond_latencies_do_not_panic() {
        let m = ServiceMetrics::new();
        m.record(true, Duration::ZERO);
        assert_eq!(m.snapshot().served(), 1);
    }
}
