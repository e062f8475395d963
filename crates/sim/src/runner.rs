//! Multi-seed experiment runner and aggregation.
//!
//! The paper reports "a series of ten experiments for each case,
//! \[representing\] the average of the obtained results". The runner
//! executes seeds in parallel on scoped threads, one contiguous chunk
//! of seeds per available core — each seed derives its own
//! deterministic RNG, so results are reproducible regardless of thread
//! scheduling.

use std::num::NonZeroUsize;

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Deterministic per-seed RNG: a `StdRng` keyed by (experiment, seed).
pub fn seeded_rng(experiment_tag: u64, seed: u64) -> rand::rngs::StdRng {
    // SplitMix64-style mix of tag and seed into one key.
    let mut z = experiment_tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    rand::rngs::StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Mean / standard deviation / count of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Sample size.
    pub n: usize,
}

impl Aggregate {
    /// Aggregate a sample. Empty samples yield zeros.
    pub fn of(values: &[f64]) -> Aggregate {
        let n = values.len();
        if n == 0 {
            return Aggregate { mean: 0.0, std: 0.0, n: 0 };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Aggregate { mean, std, n }
    }
}

/// Run `per_seed` for every seed in parallel, preserving seed order in
/// the output: the seeds split into at most `available_parallelism()`
/// contiguous chunks, one scoped thread each. Failures are surfaced
/// per seed; a panic in `per_seed` resumes on the caller.
pub fn run_seeds<T, E, F>(experiment_tag: u64, seeds: &[u64], per_seed: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
    F: Fn(u64, &mut rand::rngs::StdRng) -> Result<T, E> + Sync,
{
    let run = |chunk: &[u64]| -> Vec<Result<T, E>> {
        chunk.iter().map(|&seed| per_seed(seed, &mut seeded_rng(experiment_tag, seed))).collect()
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let chunk = seeds.len().div_ceil(cores).max(1);
    std::thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> = seeds.chunks(chunk).map(|c| scope.spawn(move || run(c))).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_of_known_sample() {
        let a = Aggregate::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((a.mean - 5.0).abs() < 1e-12);
        assert!((a.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.n, 8);
    }

    #[test]
    fn aggregate_edge_cases() {
        assert_eq!(Aggregate::of(&[]), Aggregate { mean: 0.0, std: 0.0, n: 0 });
        let single = Aggregate::of(&[3.0]);
        assert_eq!(single.mean, 3.0);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn seeded_rng_is_deterministic_and_distinct() {
        use rand::Rng;
        let a: u64 = seeded_rng(1, 7).gen();
        let b: u64 = seeded_rng(1, 7).gen();
        let c: u64 = seeded_rng(1, 8).gen();
        let d: u64 = seeded_rng(2, 7).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn run_seeds_preserves_order() {
        let seeds = [5u64, 1, 9, 3];
        let out: Vec<Result<u64, ()>> = run_seeds(0, &seeds, |seed, _rng| Ok(seed * 10));
        let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![50, 10, 90, 30]);
    }

    #[test]
    fn run_seeds_uses_at_most_one_thread_per_core() {
        let seeds: Vec<u64> = (0..64).collect();
        let out: Vec<Result<(u64, std::thread::ThreadId), ()>> =
            run_seeds(0, &seeds, |seed, _| Ok((seed, std::thread::current().id())));
        let (order, mut threads): (Vec<u64>, Vec<_>) = out.into_iter().map(Result::unwrap).unzip();
        assert_eq!(order, seeds);
        threads.dedup();
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert!(threads.len() <= cores, "{} threads for {cores} cores", threads.len());
    }

    #[test]
    fn run_seeds_propagates_errors() {
        let seeds = [1u64, 2];
        let out: Vec<Result<u64, String>> =
            run_seeds(
                0,
                &seeds,
                |seed, _| {
                    if seed == 2 {
                        Err("boom".to_string())
                    } else {
                        Ok(seed)
                    }
                },
            );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err("boom".to_string()));
    }
}
