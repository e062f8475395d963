//! Solver-side caching hook for the formation driver.
//!
//! Algorithm 1 solves one task-assignment IP per eviction round. In a
//! request-driven deployment (the `gridvo-service` daemon), many
//! formation requests hit the *same* reduced instances — a repeated
//! request replays the identical solve sequence, and overlapping
//! requests share prefixes of it. The driver therefore accepts a
//! [`SolveCache`]: before each exact solve it asks the cache for the
//! result, and after a miss it stores what the solver produced.
//!
//! ## Keying
//!
//! The key ([`solve_key`]) combines
//! [`AssignmentInstance::canonical_hash`] — a canonical, field-order-
//! independent content hash of the reduced IP — with a hash of the
//! warm incumbent seeded into the solve (if any). Including the warm
//! seed keeps cached replays *bit-identical* to fresh runs: an exact
//! solver always returns an optimal cost regardless of its incumbent,
//! but with multiple cost-ties the *assignment* it lands on (and the
//! `nodes` / `incumbent_source` telemetry) can depend on the seed, so
//! two solves only share a cache slot when their entire input matches.
//!
//! Because the key is derived purely from solver inputs, reputation /
//! trust state is invisible to it: trust-only registry updates
//! invalidate **nothing** solver-side.

use gridvo_solver::instance::Fnv1a;
use gridvo_solver::{Assignment, AssignmentInstance};

/// One memoized IP solve: exactly the data the formation driver
/// consumes from a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSolve {
    /// `(assignment, cost, proven_optimal)` when feasible.
    pub solved: Option<(Assignment, f64, bool)>,
    /// Search-tree nodes the original solve expanded.
    pub nodes: u64,
    /// Final-incumbent provenance of the original solve.
    pub incumbent_source: Option<String>,
    /// Relative optimality gap of the original solve (`Some(0.0)` when
    /// proven optimal; positive when a node cap truncated it).
    pub gap: Option<f64>,
    /// Global ids of the candidate VO the solve was for. Not part of
    /// the key — the instance content hash already covers the member
    /// columns — but carried so cache owners can *target* eviction at
    /// entries whose member set includes a given GSP instead of
    /// flushing everything.
    pub members: Vec<usize>,
    /// Registry epoch the solve ran against. Like `members`, not part
    /// of the key: cache owners use it to *age* eviction — a mutation
    /// at epoch `e` only needs to touch entries stored before `e`,
    /// because entries stamped at or after `e` were computed against
    /// state that already includes the mutation. The driver itself is
    /// epoch-ignorant and stamps `0`; epoch-aware owners re-stamp on
    /// store (see `gridvo-service`'s `SharedSolveCache::at_epoch`).
    pub epoch: u64,
}

/// A memo table for exact IP solves, keyed by [`solve_key`].
///
/// Implementations decide storage, capacity and eviction; the driver
/// only promises that anything it `store`s under a key is a valid
/// replay for any later `lookup` of the same key (guaranteed by the
/// key covering the full solver input and the solvers being
/// deterministic).
pub trait SolveCache {
    /// The memoized result for `key`, if present.
    fn lookup(&mut self, key: u64) -> Option<CachedSolve>;
    /// Memoize `value` under `key`.
    fn store(&mut self, key: u64, value: &CachedSolve);
}

/// The no-op cache: every lookup misses, every store is dropped.
/// [`crate::mechanism::Mechanism::run`] uses this — plain library
/// calls pay zero caching overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl SolveCache for NoCache {
    fn lookup(&mut self, _key: u64) -> Option<CachedSolve> {
        None
    }
    fn store(&mut self, _key: u64, _value: &CachedSolve) {}
}

/// Cache key of one exact solve: the instance's canonical content
/// hash combined with the warm incumbent (task → local-GSP vector)
/// seeded into the search, or a distinct tag when the solve is cold.
///
/// A finite node cap changes what a truncated solve returns, so capped
/// solves get their own key space (the cap is appended to the hash);
/// `node_cap = None` — the unlimited default — appends nothing, keeping
/// every pre-budget cache line addressable. Wall-clock deadlines are
/// deliberately *not* part of any key: deadline-truncated results are
/// not reproducible, so formation never stores them.
pub fn solve_key(
    inst: &AssignmentInstance,
    warm: Option<&Assignment>,
    node_cap: Option<u64>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(inst.canonical_hash());
    match warm {
        Some(a) => {
            h.write(b"warm");
            for &g in a.as_slice() {
                h.write_u64(g as u64);
            }
        }
        None => h.write(b"cold"),
    }
    if let Some(cap) = node_cap {
        h.write(b"cap");
        h.write_u64(cap);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> AssignmentInstance {
        AssignmentInstance::new(
            3,
            2,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            4.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn warm_and_cold_keys_differ() {
        let i = inst();
        let warm = Assignment::new(vec![0, 1, 0]);
        assert_ne!(solve_key(&i, None, None), solve_key(&i, Some(&warm), None));
        let other = Assignment::new(vec![0, 1, 1]);
        assert_ne!(solve_key(&i, Some(&warm), None), solve_key(&i, Some(&other), None));
        assert_eq!(solve_key(&i, Some(&warm), None), solve_key(&i, Some(&warm.clone()), None));
    }

    #[test]
    fn no_cache_never_hits() {
        let mut c = NoCache;
        let v = CachedSolve {
            solved: None,
            nodes: 3,
            incumbent_source: None,
            gap: None,
            members: vec![0, 1],
            epoch: 0,
        };
        c.store(7, &v);
        assert_eq!(c.lookup(7), None);
    }

    #[test]
    fn keys_keep_their_bytes() {
        // Pinned values: a key change would orphan every stored cache
        // line and every golden computed against it.
        let i = inst();
        let warm = Assignment::new(vec![0, 1, 0]);
        assert_eq!(solve_key(&i, None, None), 0xb5f6_b244_0630_f172);
        assert_eq!(solve_key(&i, Some(&warm), None), 0xb156_ac3f_a722_94dc);
        assert_eq!(solve_key(&i, None, Some(1000)), 0x0ed7_e458_e286_7b6f);
    }

    #[test]
    fn node_cap_gets_its_own_key_space_and_none_preserves_old_keys() {
        let i = inst();
        assert_ne!(solve_key(&i, None, None), solve_key(&i, None, Some(1000)));
        assert_ne!(solve_key(&i, None, Some(1000)), solve_key(&i, None, Some(2000)));
    }
}
