//! Contention-aware admission primitives.
//!
//! [`TokenBucket`] rate-limits a single client connection;
//! [`AppQueues`] bounds how many requests each application may have
//! queued or in flight, so one greedy application cannot starve the
//! daemon's workers for everyone else.

use std::collections::BTreeMap;
use std::time::Instant;

/// A classic token bucket: `rate` tokens per second refill up to
/// `burst`; each admitted request spends one token.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Option<Instant>,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second with capacity
    /// `burst`. Non-finite or non-positive inputs are clamped to a
    /// minimal but functional bucket (1 token/second, burst 1).
    pub fn new(rate: f64, burst: f64) -> Self {
        let rate = if rate.is_finite() && rate > 0.0 { rate } else { 1.0 };
        let burst = if burst.is_finite() && burst >= 1.0 { burst } else { 1.0 };
        Self { rate, burst, tokens: burst, last: None }
    }

    /// Admit a request observed at `now`, spending one token. Taking
    /// the clock as a parameter keeps the bucket deterministic under
    /// test.
    pub fn allow(&mut self, now: Instant) -> bool {
        if let Some(last) = self.last {
            let elapsed = now.saturating_duration_since(last).as_secs_f64();
            self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        }
        self.last = Some(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-application depth counters with a shared bound: an application
/// may hold at most `capacity` requests queued or in flight.
#[derive(Debug, Clone)]
pub struct AppQueues {
    capacity: usize,
    depths: BTreeMap<String, usize>,
}

impl AppQueues {
    /// Bound every application to `capacity` outstanding requests
    /// (0 disables market admission entirely: every enter is refused).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, depths: BTreeMap::new() }
    }

    /// Admit one request for `app`, or refuse if it is at capacity.
    pub fn try_enter(&mut self, app: &str) -> bool {
        if self.depth(app) >= self.capacity {
            return false;
        }
        *self.depths.entry(app.to_string()).or_insert(0) += 1;
        true
    }

    /// A request for `app` finished (served or shed after admission).
    pub fn leave(&mut self, app: &str) {
        if let Some(depth) = self.depths.get_mut(app) {
            *depth = depth.saturating_sub(1);
            if *depth == 0 {
                self.depths.remove(app);
            }
        }
    }

    /// Outstanding requests for `app`.
    pub fn depth(&self, app: &str) -> usize {
        self.depths.get(app).copied().unwrap_or(0)
    }

    /// All non-zero depths, sorted by application name.
    pub fn depths(&self) -> Vec<(String, usize)> {
        self.depths.iter().map(|(app, &d)| (app.clone(), d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_spends_and_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 2.0);
        assert!(b.allow(t0));
        assert!(b.allow(t0));
        assert!(!b.allow(t0), "burst exhausted");
        // 100 ms at 10/s refills one token.
        assert!(b.allow(t0 + Duration::from_millis(100)));
        assert!(!b.allow(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn bucket_clamps_to_burst() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(1000.0, 1.0);
        assert!(b.allow(t0));
        // A long idle period still refills only to burst.
        assert!(b.allow(t0 + Duration::from_secs(60)));
        assert!(!b.allow(t0 + Duration::from_secs(60)));
    }

    #[test]
    fn bucket_survives_bad_inputs() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(f64::NAN, -3.0);
        assert!(b.allow(t0), "clamped bucket still admits its burst");
        assert!(!b.allow(t0));
    }

    #[test]
    fn app_queues_bound_each_application() {
        let mut q = AppQueues::new(2);
        assert!(q.try_enter("a"));
        assert!(q.try_enter("a"));
        assert!(!q.try_enter("a"), "a is at capacity");
        assert!(q.try_enter("b"), "b is independent");
        assert_eq!(q.depths(), vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        q.leave("a");
        assert!(q.try_enter("a"));
        q.leave("b");
        assert_eq!(q.depth("b"), 0);
        // Leaving an unknown app is a no-op, not a panic.
        q.leave("ghost");
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let mut q = AppQueues::new(0);
        assert!(!q.try_enter("a"));
        assert_eq!(q.depths(), vec![]);
    }
}
