//! Trace summary statistics.
//!
//! Used to validate that a synthetic trace matches the published
//! marginals of the real LLNL Atlas log, and to report trace
//! properties in the experiment harness.

use crate::swf::SwfTrace;
use crate::LARGE_JOB_RUNTIME;

/// Summary of one SWF trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total job records.
    pub jobs: usize,
    /// Completed jobs.
    pub completed: usize,
    /// Completed jobs with runtime ≥ [`LARGE_JOB_RUNTIME`] (the paper's
    /// "large").
    pub large_completed: usize,
    /// Smallest allocated processor count.
    pub min_procs: i64,
    /// Largest allocated processor count.
    pub max_procs: i64,
    /// Runtime quantiles (seconds) over completed jobs:
    /// `[min, p25, p50, p75, p95, max]`.
    pub runtime_quantiles: [f64; 6],
    /// Fraction of jobs completed.
    pub completion_rate: f64,
    /// Fraction of completed jobs that are large.
    pub large_fraction: f64,
}

/// Compute summary statistics. Returns `None` on an empty trace.
pub fn trace_stats(trace: &SwfTrace) -> Option<TraceStats> {
    if trace.jobs.is_empty() {
        return None;
    }
    let jobs = trace.jobs.len();
    let completed: Vec<_> = trace.completed().collect();
    let n_completed = completed.len();
    let large = trace.large_completed(LARGE_JOB_RUNTIME).count();
    let min_procs = trace.jobs.iter().map(|j| j.allocated_procs).min().unwrap_or(0);
    let max_procs = trace.jobs.iter().map(|j| j.allocated_procs).max().unwrap_or(0);

    let mut runtimes: Vec<f64> = completed.iter().map(|j| j.task_runtime()).collect();
    runtimes.sort_by(|a, b| a.partial_cmp(b).expect("finite runtimes"));
    let q = |p: f64| -> f64 {
        if runtimes.is_empty() {
            return 0.0;
        }
        let idx = ((runtimes.len() - 1) as f64 * p).round() as usize;
        runtimes[idx]
    };
    Some(TraceStats {
        jobs,
        completed: n_completed,
        large_completed: large,
        min_procs,
        max_procs,
        runtime_quantiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(0.95), q(1.0)],
        completion_rate: n_completed as f64 / jobs as f64,
        large_fraction: if n_completed > 0 { large as f64 / n_completed as f64 } else { 0.0 },
    })
}

/// Histogram of job sizes (allocated processors) over completed jobs,
/// bucketed by powers of two: bucket `i` counts sizes in
/// `[2^i, 2^{i+1})`.
pub fn size_histogram(trace: &SwfTrace) -> Vec<usize> {
    let mut hist = vec![0usize; 16];
    for j in trace.completed() {
        if j.allocated_procs < 1 {
            continue;
        }
        let bucket = (63 - (j.allocated_procs as u64).leading_zeros()) as usize;
        if bucket < hist.len() {
            hist[bucket] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas;
    use rand::SeedableRng;

    #[test]
    fn empty_trace_has_no_stats() {
        assert!(trace_stats(&SwfTrace::default()).is_none());
    }

    #[test]
    fn synthetic_atlas_stats_match_published_marginals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2006);
        let trace = atlas::generate(&mut rng, 20_000);
        let s = trace_stats(&trace).unwrap();
        assert_eq!(s.jobs, 20_000);
        assert!((s.completion_rate - 0.5).abs() < 0.02);
        assert!((s.large_fraction - 0.13).abs() < 0.03);
        assert!(s.min_procs >= 8);
        assert!(s.max_procs <= 8832);
        // quantiles are sorted
        for w in s.runtime_quantiles.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn size_histogram_counts_completed_only() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let trace = atlas::generate(&mut rng, 5_000);
        let hist = size_histogram(&trace);
        let total: usize = hist.iter().sum();
        assert_eq!(total, trace.completed().count());
        // sizes start at 8 ⇒ buckets 0..3 (sizes 1..7) are empty
        assert_eq!(hist[0] + hist[1] + hist[2], 0);
    }
}
