//! Request counters and per-stage latency histograms.
//!
//! One [`Metrics`] handle is shared by every connection and worker
//! thread; a `metrics` request serializes a [`MetricsSnapshot`] of
//! the current counters. Latencies are recorded into fixed
//! log-spaced millisecond buckets — coarse, allocation-free, and
//! enough to see queue-wait vs. solve-time separation in the
//! `service_sweep` bench.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::recover;

/// Upper bounds (ms) of the latency buckets; observations beyond the
/// last bound land in the snapshot's `overflow` counter (JSON has no
/// `inf`, and the vendored serializer prints non-finite floats as
/// `null`).
const BUCKET_BOUNDS_MS: [f64; 14] =
    [0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0];

/// A cumulative-style latency histogram (non-cumulative counts per
/// bucket, fixed bounds).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Histogram {
    /// Record one observation in milliseconds.
    pub fn record_ms(&mut self, ms: f64) {
        let idx = BUCKET_BOUNDS_MS.iter().position(|&b| ms <= b).unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = BUCKET_BOUNDS_MS
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .map(|(le_ms, count)| HistogramBucket { le_ms, count })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum_ms: self.sum_ms,
            max_ms: self.max_ms,
            buckets,
            overflow: self.counts[BUCKET_BOUNDS_MS.len()],
        }
    }
}

/// One bucket of a serialized histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Upper bound of the bucket in milliseconds.
    pub le_ms: f64,
    /// Observations that fell in this bucket.
    pub count: u64,
}

/// A serialized histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (ms) — `sum_ms / count` is the mean.
    pub sum_ms: f64,
    /// Largest observation (ms).
    pub max_ms: f64,
    /// Per-bucket counts, bounds ascending.
    pub buckets: Vec<HistogramBucket>,
    /// Observations above the last bucket bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    requests_total: u64,
    form_requests: u64,
    batch_requests: u64,
    execute_requests: u64,
    registry_mutations: u64,
    snapshot_requests: u64,
    ping_requests: u64,
    busy_rejections: u64,
    deadline_rejections: u64,
    anytime_served: u64,
    request_errors: u64,
    queue_wait: Histogram,
    service_time: Histogram,
    leases_acquired: u64,
    leases_released: u64,
    leases_expired: u64,
    pool_exhausted_rejections: u64,
    throttled_rejections: u64,
}

/// Shared, thread-safe metrics registry (clones share storage).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

/// One application's outstanding-request depth, for the snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppQueueDepth {
    /// The application name (`form --app`).
    pub app: String,
    /// Requests queued or in flight for it right now.
    pub depth: usize,
}

/// The admission gauges the server passes into [`Metrics::snapshot`],
/// each read from its owner when the snapshot is taken (like the cache
/// counters): the job queue, the current epoch snapshot's leases and
/// the per-application queues.
#[derive(Debug, Clone, Default)]
pub struct MarketGauges {
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Distinct GSPs committed to a live lease right now.
    pub committed_gsps: usize,
    /// Live leases right now.
    pub live_leases: usize,
    /// Non-zero per-application depths in app-name order, as
    /// `gridvo_market::AppQueues::depths` lists them.
    pub app_depths: Vec<(String, usize)>,
}

/// What a `metrics` request returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every request received (including rejected ones).
    pub requests_total: u64,
    /// Formation requests accepted into the queue.
    pub form_requests: u64,
    /// Batch-formation requests accepted into the queue (each may
    /// stream many `form` reply lines).
    pub batch_requests: u64,
    /// Execution requests accepted into the queue.
    pub execute_requests: u64,
    /// Registry mutations (add/remove/trust report).
    pub registry_mutations: u64,
    /// Metrics + registry snapshot requests.
    pub snapshot_requests: u64,
    /// Ping requests accepted into the queue.
    pub ping_requests: u64,
    /// Requests shed with `Busy` (queue full).
    pub busy_rejections: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub deadline_rejections: u64,
    /// Formation responses served with a truncated (anytime,
    /// non-proven) result because the deadline expired mid-solve.
    pub anytime_served: u64,
    /// Requests answered with a typed error.
    pub request_errors: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Solve-cache lookups that hit.
    pub cache_hits: u64,
    /// Solve-cache lookups that missed.
    pub cache_misses: u64,
    /// Solve-cache entries resident.
    pub cache_entries: usize,
    /// `hits / (hits + misses)`; 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait_ms: HistogramSnapshot,
    /// Time workers spent actually serving jobs, including encoding
    /// each reply line (workers hand the connection finished bytes).
    pub service_ms: HistogramSnapshot,
    /// Leases acquired by market formations.
    pub leases_acquired: u64,
    /// Leases released by clients (complete or abandon).
    pub leases_released: u64,
    /// Leases released by the server because their TTL expired.
    pub leases_expired: u64,
    /// Market requests shed with `PoolExhausted`.
    pub pool_exhausted_rejections: u64,
    /// Requests shed with `Throttled` (per-client rate limit).
    pub throttled_rejections: u64,
    /// Distinct GSPs committed to a live lease right now (the
    /// committed-GSP gauge).
    pub committed_gsps: usize,
    /// Live leases right now.
    pub live_leases: usize,
    /// Per-application outstanding-request depths, app-name order.
    pub app_queue_depths: Vec<AppQueueDepth>,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = recover(self.inner.lock());
        f(&mut inner)
    }

    /// Count one received request of the given protocol op.
    pub fn request_received(&self, op: &str) {
        self.with(|m| {
            m.requests_total += 1;
            match op {
                "form" => m.form_requests += 1,
                "form_batch" => m.batch_requests += 1,
                "execute" => m.execute_requests += 1,
                "add_gsp" | "remove_gsp" | "report_trust" | "report_receipt" | "release_lease" => {
                    m.registry_mutations += 1
                }
                "metrics" | "registry" | "leases" => m.snapshot_requests += 1,
                "ping" => m.ping_requests += 1,
                _ => {}
            }
        });
    }

    /// Count a `Busy` load-shed.
    pub fn busy_rejected(&self) {
        self.with(|m| m.busy_rejections += 1);
    }

    /// Count a deadline drop.
    pub fn deadline_rejected(&self) {
        self.with(|m| m.deadline_rejections += 1);
    }

    /// Count a formation served with an anytime (truncated) result.
    pub fn anytime_served(&self) {
        self.with(|m| m.anytime_served += 1);
    }

    /// Count a request answered with `Response::Error`.
    pub fn request_errored(&self) {
        self.with(|m| m.request_errors += 1);
    }

    /// Count a lease acquired by a market formation.
    pub fn lease_acquired(&self) {
        self.with(|m| m.leases_acquired += 1);
    }

    /// Count a lease released (`expired` distinguishes a TTL sweep
    /// from a client release).
    pub fn lease_released(&self, expired: bool) {
        self.with(|m| {
            if expired {
                m.leases_expired += 1;
            } else {
                m.leases_released += 1;
            }
        });
    }

    /// Count a market request shed with `PoolExhausted`.
    pub fn pool_exhausted_shed(&self) {
        self.with(|m| m.pool_exhausted_rejections += 1);
    }

    /// Count a request shed with `Throttled`.
    pub fn throttled(&self) {
        self.with(|m| m.throttled_rejections += 1);
    }

    /// Record how long a job waited in the queue.
    pub fn record_queue_wait_ms(&self, ms: f64) {
        self.with(|m| m.queue_wait.record_ms(ms));
    }

    /// Record how long a job took to serve once dequeued, reply
    /// encoding included.
    pub fn record_service_ms(&self, ms: f64) {
        self.with(|m| m.service_time.record_ms(ms));
    }

    /// Snapshot everything, merging in the solve cache's counters and
    /// the admission gauges.
    pub fn snapshot(&self, cache: CacheStats, gauges: MarketGauges) -> MetricsSnapshot {
        self.with(|m| {
            let lookups = cache.hits + cache.misses;
            MetricsSnapshot {
                requests_total: m.requests_total,
                form_requests: m.form_requests,
                batch_requests: m.batch_requests,
                execute_requests: m.execute_requests,
                registry_mutations: m.registry_mutations,
                snapshot_requests: m.snapshot_requests,
                ping_requests: m.ping_requests,
                busy_rejections: m.busy_rejections,
                deadline_rejections: m.deadline_rejections,
                anytime_served: m.anytime_served,
                request_errors: m.request_errors,
                queue_depth: gauges.queue_depth,
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                cache_entries: cache.entries,
                cache_hit_rate: if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 },
                queue_wait_ms: m.queue_wait.snapshot(),
                service_ms: m.service_time.snapshot(),
                leases_acquired: m.leases_acquired,
                leases_released: m.leases_released,
                leases_expired: m.leases_expired,
                pool_exhausted_rejections: m.pool_exhausted_rejections,
                throttled_rejections: m.throttled_rejections,
                committed_gsps: gauges.committed_gsps,
                live_leases: gauges.live_leases,
                app_queue_depths: gauges
                    .app_depths
                    .into_iter()
                    .map(|(app, depth)| AppQueueDepth { app, depth })
                    .collect(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        h.record_ms(0.1);
        h.record_ms(3.0);
        h.record_ms(532.0);
        h.record_ms(10_000.0);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.mean_ms() - 10_535.1 / 4.0).abs() < 1e-9);
        assert_eq!(s.max_ms, 10_000.0);
        assert_eq!(s.buckets.first().unwrap().count, 1);
        let bucket = |le: f64| s.buckets.iter().find(|b| b.le_ms == le).unwrap().count;
        assert_eq!(bucket(1000.0), 1, "a deadline-phase p99 of 532 ms lands in the 1 s bucket");
        assert_eq!(s.overflow, 1, "overflow counter catches 10 s");
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>() + s.overflow, 4);
    }

    #[test]
    fn counters_aggregate_by_op() {
        let m = Metrics::new();
        for op in [
            "form",
            "form",
            "form_batch",
            "execute",
            "report_trust",
            "release_lease",
            "metrics",
            "leases",
            "ping",
            "bogus",
        ] {
            m.request_received(op);
        }
        m.busy_rejected();
        m.deadline_rejected();
        m.anytime_served();
        m.request_errored();
        let gauges = MarketGauges { queue_depth: 4, ..MarketGauges::default() };
        let s = m.snapshot(CacheStats { hits: 3, misses: 1, entries: 2 }, gauges);
        assert_eq!(s.requests_total, 10);
        assert_eq!(s.form_requests, 2);
        assert_eq!(s.batch_requests, 1);
        assert_eq!(s.execute_requests, 1);
        assert_eq!(s.registry_mutations, 2, "release_lease counts as a mutation");
        assert_eq!(s.snapshot_requests, 2, "leases counts as a snapshot read");
        assert_eq!(s.ping_requests, 1);
        assert_eq!((s.busy_rejections, s.deadline_rejections, s.request_errors), (1, 1, 1));
        assert_eq!(s.anytime_served, 1);
        assert_eq!(s.queue_depth, 4);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn market_counters_and_app_depths() {
        let m = Metrics::new();
        m.lease_acquired();
        m.lease_acquired();
        m.lease_released(false);
        m.lease_released(true);
        m.pool_exhausted_shed();
        m.throttled();
        let s = m.snapshot(
            CacheStats { hits: 0, misses: 0, entries: 0 },
            MarketGauges {
                committed_gsps: 5,
                live_leases: 2,
                app_depths: vec![("atlas".to_string(), 1), ("beta".to_string(), 2)],
                ..MarketGauges::default()
            },
        );
        assert_eq!(s.leases_acquired, 2);
        assert_eq!((s.leases_released, s.leases_expired), (1, 1));
        assert_eq!(s.pool_exhausted_rejections, 1);
        assert_eq!(s.throttled_rejections, 1);
        assert_eq!((s.committed_gsps, s.live_leases), (5, 2));
        let depths: Vec<(&str, usize)> =
            s.app_queue_depths.iter().map(|d| (d.app.as_str(), d.depth)).collect();
        assert_eq!(depths, vec![("atlas", 1), ("beta", 2)]);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let m = Metrics::new();
        m.request_received("form");
        m.record_queue_wait_ms(1.5);
        m.record_service_ms(12.0);
        m.lease_acquired();
        let s = m.snapshot(
            CacheStats { hits: 0, misses: 0, entries: 0 },
            MarketGauges {
                committed_gsps: 3,
                live_leases: 1,
                app_depths: vec![("atlas".to_string(), 1)],
                ..MarketGauges::default()
            },
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
