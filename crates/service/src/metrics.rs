//! Request counters and per-stage latency histograms.
//!
//! One [`Metrics`] handle is shared by every connection thread; a `metrics` request serializes a [`MetricsSnapshot`] of
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

impl Default for HistogramSnapshot {
    /// An empty histogram over the daemon's bucket bounds.
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
            buckets: BUCKET_BOUNDS_MS
                .iter()
                .map(|&le_ms| HistogramBucket { le_ms, count: 0 })
                .collect(),
            overflow: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one observation in milliseconds: it lands in the first
    /// bucket whose bound it does not exceed, else in `overflow`.
    pub fn record_ms(&mut self, ms: f64) {
        match self.buckets.iter_mut().find(|b| ms <= b.le_ms) {
            Some(bucket) => bucket.count += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }
}

/// Shared, thread-safe metrics registry (clones share storage). It
/// keeps the counters and histograms in the snapshot they are served
/// as; the gauges and cache fields stay zero until a snapshot reads
/// them from their owners.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsSnapshot>>,
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
/// counters): the worker permits, the current epoch snapshot's leases
/// and the per-application queues.
#[derive(Debug, Clone, Default)]
pub struct MarketGauges {
    /// Requests waiting for a worker permit right now.
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every request received (including rejected ones).
    pub requests_total: u64,
    /// Formation requests received.
    pub form_requests: u64,
    /// Batch-formation requests received (each may stream many `form`
    /// reply lines).
    pub batch_requests: u64,
    /// Execution requests received.
    pub execute_requests: u64,
    /// Registry mutations (add/remove/trust report).
    pub registry_mutations: u64,
    /// Metrics + registry snapshot requests.
    pub snapshot_requests: u64,
    /// Ping requests received.
    pub ping_requests: u64,
    /// Requests shed with `Busy` (too many waiting for a permit, or
    /// an application's queue full).
    pub busy_rejections: u64,
    /// Requests dropped without being served because their deadline
    /// passed while they waited for a permit.
    pub deadline_rejections: u64,
    /// Formation responses served with a truncated (anytime,
    /// non-proven) result because the deadline expired mid-solve.
    pub anytime_served: u64,
    /// Requests answered with a typed error.
    pub request_errors: u64,
    /// Requests waiting for a worker permit right now.
    pub queue_depth: usize,
    /// Solve-cache lookups that hit.
    pub cache_hits: u64,
    /// Solve-cache lookups that missed.
    pub cache_misses: u64,
    /// Solve-cache entries resident.
    pub cache_entries: usize,
    /// `hits / (hits + misses)`; 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Time requests waited for a worker permit.
    pub queue_wait_ms: HistogramSnapshot,
    /// Time requests held their worker permit: serving them, including
    /// encoding each reply line, and for a batch writing the lines the
    /// socket took at once. A one-line reply is written after the
    /// permit is returned.
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

    fn with<R>(&self, f: impl FnOnce(&mut MetricsSnapshot) -> R) -> R {
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

    /// Record how long a request waited for a worker permit.
    pub fn record_queue_wait_ms(&self, ms: f64) {
        self.with(|m| m.queue_wait_ms.record_ms(ms));
    }

    /// Record how long a request held its worker permit, reply
    /// encoding included.
    pub fn record_service_ms(&self, ms: f64) {
        self.with(|m| m.service_ms.record_ms(ms));
    }

    /// Snapshot everything, merging in the solve cache's counters and
    /// the admission gauges.
    pub fn snapshot(&self, cache: CacheStats, gauges: MarketGauges) -> MetricsSnapshot {
        let mut snapshot = self.with(|m| m.clone());
        let lookups = cache.hits + cache.misses;
        snapshot.queue_depth = gauges.queue_depth;
        snapshot.cache_hits = cache.hits;
        snapshot.cache_misses = cache.misses;
        snapshot.cache_entries = cache.entries;
        snapshot.cache_hit_rate =
            if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };
        snapshot.committed_gsps = gauges.committed_gsps;
        snapshot.live_leases = gauges.live_leases;
        snapshot.app_queue_depths = gauges
            .app_depths
            .into_iter()
            .map(|(app, depth)| AppQueueDepth { app, depth })
            .collect();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut s = HistogramSnapshot::default();
        s.record_ms(0.1);
        s.record_ms(3.0);
        s.record_ms(532.0);
        s.record_ms(10_000.0);
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
