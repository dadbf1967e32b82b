//! Structured per-route service metrics.
//!
//! Every request that reaches the server is attributed to a [`Route`];
//! completion latency lands in a log-bucketed histogram (power-of-√2
//! buckets over microseconds) so p50/p99 stay cheap to compute under
//! load — the whole snapshot path is lock-per-route, no allocation per
//! request. Queue depth, batch occupancy, and plan-cache hit rate come
//! from the batcher, engine busy time from its workers. [`Metrics::snapshot_json`] renders the whole thing
//! as one JSON object for the `STATS` route, and [`Metrics::log_line`]
//! gives the periodic one-line operator summary.

use crate::resilience::lock_unpoisoned;
use meshsort_stats::json::Value;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Latency histogram bucket count: bucket `i` covers
/// `[√2^i, √2^(i+1))` microseconds, spanning 1 µs to ~16 s.
const BUCKETS: usize = 48;

/// A log-bucketed latency histogram over microseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; BUCKETS], count: 0, sum_us: 0, max_us: 0 }
    }

    fn bucket_of(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        // ⌊2·log2(us)⌋ indexes √2-spaced buckets.
        let idx = (2 * (63 - us.leading_zeros()) as usize)
            + usize::from(us & (us - 1).wrapping_shr(1) > (1u64 << (63 - us.leading_zeros())) / 2);
        idx.min(BUCKETS - 1)
    }

    /// Records one latency observation.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile in microseconds: the upper edge of the
    /// bucket holding the q-th observation. Within a factor of √2 of the
    /// true value, which is all an operator dashboard needs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                #[allow(clippy::cast_precision_loss)]
                let edge = 2f64.powf((i as f64 + 1.0) / 2.0);
                #[allow(clippy::cast_precision_loss)]
                return edge.min(self.max_us as f64);
            }
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.max_us as f64
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The routes the server serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Batched sorting.
    Sort,
    /// Static plan facts.
    Analyze,
    /// Resilient runs under faults.
    Chaos,
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
}

impl Route {
    /// All routes, snapshot order.
    pub const ALL: [Route; 5] =
        [Route::Sort, Route::Analyze, Route::Chaos, Route::Stats, Route::Ping];

    /// Snapshot/JSON key for the route.
    pub fn name(self) -> &'static str {
        match self {
            Route::Sort => "sort",
            Route::Analyze => "analyze",
            Route::Chaos => "chaos",
            Route::Stats => "stats",
            Route::Ping => "ping",
        }
    }

    fn index(self) -> usize {
        match self {
            Route::Sort => 0,
            Route::Analyze => 1,
            Route::Chaos => 2,
            Route::Stats => 3,
            Route::Ping => 4,
        }
    }
}

#[derive(Debug, Default)]
struct RouteStats {
    completed: u64,
    errors: u64,
    latency: LatencyHistogram,
}

#[derive(Debug, Default)]
struct BatchStats {
    batches: u64,
    grids: u64,
    max_occupancy: u64,
    occupancy_sum: u64,
    plan_hits: u64,
    plan_misses: u64,
}

/// Shared service metrics. Cheap to clone behind an `Arc`; every method
/// takes `&self`.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    routes: [Mutex<RouteStats>; 5],
    batch: Mutex<BatchStats>,
    /// Current sort-queue depth (requests admitted, not yet completed).
    queue_depth: AtomicUsize,
    /// Requests rejected with `QueueFull`.
    rejected: AtomicU64,
    /// Frames that failed wire decoding.
    protocol_errors: AtomicU64,
    /// Connections accepted over the lifetime.
    connections: AtomicU64,
    /// Batch-engine panics caught and converted to error responses.
    panics_quarantined: AtomicU64,
    /// Requests shed because their deadline expired while queued.
    deadline_shed: AtomicU64,
    /// Connections dropped because the peer stalled mid-frame.
    stalled_disconnects: AtomicU64,
    /// Measured drain latency (drain signal → full worker-tree join),
    /// microseconds; 0 until a drain completes.
    drain_latency_us: AtomicU64,
    /// Engine workers the batcher runs units on.
    engine_workers: AtomicUsize,
    /// Microseconds engine workers spent inside `run_batch`, summed over
    /// workers.
    engine_busy_us: AtomicU64,
}

impl Metrics {
    /// Fresh metrics anchored at "now".
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            routes: std::array::from_fn(|_| Mutex::new(RouteStats::default())),
            batch: Mutex::new(BatchStats::default()),
            queue_depth: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            panics_quarantined: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            stalled_disconnects: AtomicU64::new(0),
            drain_latency_us: AtomicU64::new(0),
            engine_workers: AtomicUsize::new(0),
            engine_busy_us: AtomicU64::new(0),
        }
    }

    /// Records a completed request on `route` with its latency.
    pub fn record(&self, route: Route, latency_us: u64, ok: bool) {
        let mut stats = lock_unpoisoned(&self.routes[route.index()]);
        if ok {
            stats.completed += 1;
        } else {
            stats.errors += 1;
        }
        stats.latency.record(latency_us);
    }

    /// Records one executed batch: how many grids it coalesced and
    /// whether its plan key was already warm in the cache.
    pub fn record_batch(&self, occupancy: usize, plan_hit: bool) {
        let mut b = lock_unpoisoned(&self.batch);
        b.batches += 1;
        b.grids += occupancy as u64;
        b.occupancy_sum += occupancy as u64;
        b.max_occupancy = b.max_occupancy.max(occupancy as u64);
        if plan_hit {
            b.plan_hits += 1;
        } else {
            b.plan_misses += 1;
        }
    }

    /// Adjusts the sort-queue depth gauge.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Metrics::queue_enter`].
    pub fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current sort-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Counts one `QueueFull` rejection.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one malformed frame.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one quarantined batch-engine panic.
    pub fn record_panic_quarantined(&self) {
        self.panics_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Quarantined panics so far.
    pub fn panics_quarantined(&self) -> u64 {
        self.panics_quarantined.load(Ordering::Relaxed)
    }

    /// Counts one request shed past its deadline.
    pub fn record_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline-shed requests so far.
    pub fn deadline_shed(&self) -> u64 {
        self.deadline_shed.load(Ordering::Relaxed)
    }

    /// Counts one stalled-peer disconnect.
    pub fn record_stalled_disconnect(&self) {
        self.stalled_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Stalled-peer disconnects so far.
    pub fn stalled_disconnects(&self) -> u64 {
        self.stalled_disconnects.load(Ordering::Relaxed)
    }

    /// Records the measured drain latency once the worker tree joined.
    #[allow(clippy::cast_possible_truncation)]
    pub fn record_drain_latency(&self, latency: Duration) {
        self.drain_latency_us.store(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Measured drain latency in microseconds (0 until a drain
    /// completes).
    pub fn drain_latency_us(&self) -> u64 {
        self.drain_latency_us.load(Ordering::Relaxed)
    }

    /// Records how many engine workers the batcher started.
    pub fn set_engine_workers(&self, workers: usize) {
        self.engine_workers.store(workers, Ordering::Relaxed);
    }

    /// Engine workers serving sorts (0 before the batcher starts).
    pub fn engine_workers(&self) -> usize {
        self.engine_workers.load(Ordering::Relaxed)
    }

    /// Adds one engine call's wall time to the engine's busy total.
    #[allow(clippy::cast_possible_truncation)]
    pub fn record_engine_busy(&self, busy: Duration) {
        self.engine_busy_us.fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    }

    /// Microseconds engine workers have spent inside `run_batch`.
    pub fn engine_busy_us(&self) -> u64 {
        self.engine_busy_us.load(Ordering::Relaxed)
    }

    /// Total completed requests across routes.
    pub fn total_completed(&self) -> u64 {
        Route::ALL.iter().map(|r| lock_unpoisoned(&self.routes[r.index()]).completed).sum()
    }

    /// Plan-cache hit rate over executed batches, in `[0, 1]`
    /// (1.0 when no batch has run yet).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        hit_rate(&lock_unpoisoned(&self.batch))
    }

    /// The whole snapshot as one JSON object.
    pub fn snapshot_json(&self) -> String {
        let routes = Route::ALL.map(|route| {
            let s = lock_unpoisoned(&self.routes[route.index()]);
            let stats = Value::object([
                ("completed", s.completed.into()),
                ("errors", s.errors.into()),
                ("p50_us", Value::fixed(s.latency.quantile_us(0.50), 1)),
                ("p99_us", Value::fixed(s.latency.quantile_us(0.99), 1)),
                ("mean_us", Value::fixed(s.latency.mean_us(), 1)),
            ]);
            (route.name(), stats)
        });
        let b = lock_unpoisoned(&self.batch);
        #[allow(clippy::cast_precision_loss)]
        let mean_occupancy =
            if b.batches == 0 { 0.0 } else { b.occupancy_sum as f64 / b.batches as f64 };
        let batches = Value::object([
            ("count", b.batches.into()),
            ("grids", b.grids.into()),
            ("mean_occupancy", Value::fixed(mean_occupancy, 2)),
            ("max_occupancy", b.max_occupancy.into()),
            ("plan_cache_hits", b.plan_hits.into()),
            ("plan_cache_misses", b.plan_misses.into()),
            ("plan_cache_hit_rate", Value::fixed(hit_rate(&b), 4)),
        ]);
        Value::object([
            ("uptime_secs", Value::fixed(self.started.elapsed().as_secs_f64(), 1)),
            ("connections", self.connections.load(Ordering::Relaxed).into()),
            ("queue_depth", self.queue_depth().into()),
            ("rejected", self.rejected.load(Ordering::Relaxed).into()),
            ("protocol_errors", self.protocol_errors.load(Ordering::Relaxed).into()),
            ("panics_quarantined", self.panics_quarantined().into()),
            ("deadline_shed", self.deadline_shed().into()),
            ("stalled_disconnects", self.stalled_disconnects().into()),
            ("drain_latency_us", self.drain_latency_us().into()),
            ("routes", Value::object(routes)),
            ("batches", batches),
            (
                "engine",
                Value::object([
                    ("workers", self.engine_workers().into()),
                    ("busy_us", self.engine_busy_us().into()),
                ]),
            ),
        ])
        .to_string()
    }

    /// One-line operator summary for the periodic log.
    pub fn log_line(&self) -> String {
        let sort = lock_unpoisoned(&self.routes[Route::Sort.index()]);
        let b = lock_unpoisoned(&self.batch);
        #[allow(clippy::cast_precision_loss)]
        let mean_occupancy =
            if b.batches == 0 { 0.0 } else { b.occupancy_sum as f64 / b.batches as f64 };
        format!(
            "meshsortd: sorted={} errors={} p50={:.0}us p99={:.0}us depth={} batches={} occ={:.1} rejected={} proto_err={} shed={} panics={} stalled={} workers={} busy_us={}",
            sort.completed,
            sort.errors,
            sort.latency.quantile_us(0.50),
            sort.latency.quantile_us(0.99),
            self.queue_depth(),
            b.batches,
            mean_occupancy,
            self.rejected.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed),
            self.deadline_shed(),
            self.panics_quarantined(),
            self.stalled_disconnects(),
            self.engine_workers(),
            self.engine_busy_us(),
        )
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Plan-cache hit rate over executed batches (1.0 before the first).
fn hit_rate(b: &BatchStats) -> f64 {
    let total = b.plan_hits + b.plan_misses;
    if total == 0 {
        return 1.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        b.plan_hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_in_latency() {
        let mut last = 0;
        for us in [1u64, 2, 3, 5, 8, 16, 100, 1000, 10_000, 1_000_000] {
            let b = LatencyHistogram::bucket_of(us);
            assert!(b >= last, "bucket({us}) = {b} < {last}");
            last = b;
        }
        assert!(LatencyHistogram::bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_bracket_the_observations() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(us);
        }
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= p50 && p99 <= 1000.0, "p99 = {p99}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn snapshot_reports_hit_rate_and_routes() {
        let m = Metrics::new();
        m.record(Route::Sort, 120, true);
        m.record(Route::Sort, 480, true);
        m.record(Route::Chaos, 90, false);
        m.record_batch(8, false);
        m.record_batch(8, true);
        m.record_batch(4, true);
        let json = m.snapshot_json();
        assert!(json.contains("\"sort\": {\"completed\": 2"), "{json}");
        assert!(json.contains("\"plan_cache_hit_rate\": 0.6667"), "{json}");
        assert!(json.contains("\"grids\": 20"), "{json}");
        assert!((m.plan_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.total_completed(), 2);
    }

    #[test]
    fn resilience_counters_flow_into_snapshot_and_log_line() {
        let m = Metrics::new();
        m.record_panic_quarantined();
        m.record_deadline_shed();
        m.record_deadline_shed();
        m.record_stalled_disconnect();
        m.record_drain_latency(Duration::from_micros(1234));
        m.set_engine_workers(2);
        m.record_engine_busy(Duration::from_micros(300));
        m.record_engine_busy(Duration::from_micros(200));
        assert_eq!(m.panics_quarantined(), 1);
        assert_eq!(m.deadline_shed(), 2);
        assert_eq!(m.stalled_disconnects(), 1);
        assert_eq!(m.drain_latency_us(), 1234);
        let json = m.snapshot_json();
        assert!(json.contains("\"panics_quarantined\": 1"), "{json}");
        assert!(json.contains("\"deadline_shed\": 2"), "{json}");
        assert!(json.contains("\"stalled_disconnects\": 1"), "{json}");
        assert!(json.contains("\"drain_latency_us\": 1234"), "{json}");
        let line = m.log_line();
        assert!(json.contains("\"engine\": {\"workers\": 2, \"busy_us\": 500}"), "{json}");
        assert!(line.contains("shed=2") && line.contains("panics=1"), "{line}");
        assert!(line.contains("workers=2 busy_us=500"), "{line}");
    }

    #[test]
    fn empty_metrics_report_perfect_hit_rate() {
        let m = Metrics::new();
        assert!((m.plan_cache_hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(m.queue_depth(), 0);
        assert!(m.log_line().contains("sorted=0"));
    }
}
