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
//! A round's key ([`round_key`]) is built without the reduced IP, so a
//! hit costs one key and a lookup. It combines
//!
//! * the pool's [`AssignmentInstance::canonical_hash`] — a canonical,
//!   field-order-independent content hash of the scenario's whole
//!   cost/time instance, computed once per scenario and memoized in
//!   it (a daemon snapshot hashes its pool on its first formation);
//! * the round's member ids, in VO order (the columns the reduced IP
//!   keeps);
//! * the carried warm start — the previous round's assignment and the
//!   evicted member's local index within the previous VO — or a cold
//!   tag.
//!
//! Together these determine the whole solver input: the reduced
//! instance is a function of the pool's content and the member
//! columns, and the warm incumbent is the carry repaired against that
//! instance. So cached replays stay *bit-identical* to fresh runs
//! (with cost-ties the *assignment* an exact solver lands on, and the
//! `nodes` / `incumbent_source` telemetry, can depend on its seed).
//! The carry enters the key as content, not as the previous round's
//! key: a deadline-truncated round is never stored, and its assignment
//! is not a function of its key. The price is sharing: equal reduced
//! inputs reached through another carry or another pool no longer
//! share a slot.
//!
//! The solver configuration is not part of the key, so one cache
//! serves one configuration (the daemon's serves the default
//! [`gridvo_solver::BranchBound`]); the node cap is that
//! configuration's, and the key has no cap dimension.
//!
//! ## The round's reputation
//!
//! An entry also carries the round's reputation, under a tag
//! ([`reputation_tag`]) that digests every input of
//! [`ReputationEngine::compute_with_start`] the key leaves out: the
//! engine, the scenario's trust weights and the warm-start vector. A
//! hit whose tag matches skips the power method; any other round
//! computes the reputation and attaches it to its entry. Trust stays
//! out of the key, so a trust-only registry update leaves every solve
//! valid: the next hit's tag differs, and only the reputation is
//! recomputed. The warm start stays out of the key too: its bits
//! depend on the whole tie-broken eviction chain, so keying on them
//! would split one solve into many entries.
//!
//! [`AssignmentInstance::canonical_hash`]: gridvo_solver::AssignmentInstance::canonical_hash

use crate::reputation::{ReputationEngine, VoReputation};
use gridvo_solver::instance::Fnv1a;
use gridvo_solver::Assignment;

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
    /// Global ids of the candidate VO the solve was for. The key hashes
    /// the same ids, but only a tag can be read back, so cache owners
    /// can *target* eviction at entries whose member set includes a
    /// given GSP instead of flushing everything.
    pub members: Vec<usize>,
    /// Registry epoch the solve ran against. Like `members`, not part
    /// of the key: cache owners use it to *age* eviction — a mutation
    /// at epoch `e` only needs to touch entries stored before `e`,
    /// because entries stamped at or after `e` were computed against
    /// state that already includes the mutation. The driver itself is
    /// epoch-ignorant and stamps `0`; epoch-aware owners re-stamp on
    /// store (see `gridvo-service`'s `SharedSolveCache::at_epoch`).
    pub epoch: u64,
    /// `(tag, reputation)` of the round the solve was for, once the
    /// driver has computed it: a later hit serves the reputation when
    /// its own [`reputation_tag`] equals `tag`. Its member ids are the
    /// formation's own, never lifted like `members`.
    pub reputation: Option<(u64, VoReputation)>,
}

/// A memo table for exact IP solves, keyed by [`round_key`].
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
/// calls pay only the key hashing (one pool hash per run, one short
/// key per round).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl SolveCache for NoCache {
    fn lookup(&mut self, _key: u64) -> Option<CachedSolve> {
        None
    }
    fn store(&mut self, _key: u64, _value: &CachedSolve) {}
}

/// Cache key of one round's exact solve: the pool's canonical content
/// hash `pool`, the round's `members` (ids into that pool, in VO
/// order), and the `carry` seeded into the search — the previous
/// round's assignment (task → local GSP of the previous VO) and the
/// evicted member's local index — or a distinct tag when the solve is
/// cold.
///
/// The solver configuration (its node cap included) is not part of the
/// key: one cache serves one solver configuration, as the daemon's
/// does. Wall-clock deadlines are deliberately *not* part of the key
/// either: deadline-truncated results are not reproducible, so
/// formation never stores them.
pub fn round_key(pool: u64, members: &[usize], carry: Option<(&Assignment, usize)>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(pool);
    h.write_u64(members.len() as u64);
    for &m in members {
        h.write_u64(m as u64);
    }
    match carry {
        Some((prev, evicted)) => {
            h.write(b"warm");
            h.write_u64(evicted as u64);
            for &g in prev.as_slice() {
                h.write_u64(g as u64);
            }
        }
        None => h.write(b"cold"),
    }
    h.finish()
}

/// Tag of one round's reputation: a digest of `engine`, of the
/// scenario's trust weights (`trust`, see
/// `FormationScenario::trust_digest`) and of the warm-start vector's
/// bits, or a distinct tag when the power method starts cold. With
/// the member ids, which the entry's [`round_key`] holds, these are
/// every input of [`ReputationEngine::compute_with_start`], a
/// deterministic function of them.
pub fn reputation_tag(engine: &ReputationEngine, trust: u64, start: Option<&[f64]>) -> u64 {
    let mut h = Fnv1a::new();
    match *engine {
        ReputationEngine::Power(power) => {
            h.write(b"power");
            h.write_u64(power.damping.to_bits());
        }
        ReputationEngine::PathPropagation => h.write(b"path"),
        ReputationEngine::InDegree => h.write(b"in-degree"),
    }
    h.write_u64(trust);
    match start {
        Some(start) => {
            h.write(b"warm");
            h.write_u64(start.len() as u64);
            for s in start {
                h.write_u64(s.to_bits());
            }
        }
        None => h.write(b"cold"),
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_solver::AssignmentInstance;

    fn inst() -> AssignmentInstance {
        AssignmentInstance::new(
            3,
            3,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0, 3.0],
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0],
            4.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn each_key_input_separates_keys() {
        let pool = inst().canonical_hash();
        let members = [0, 2];
        let prev = Assignment::new(vec![0, 1, 2]);
        let base = round_key(pool, &members, Some((&prev, 1)));
        assert_eq!(base, round_key(pool, &members, Some((&prev.clone(), 1))));
        // Cold and carried solves of the same round.
        assert_ne!(base, round_key(pool, &members, None));
        // The pool digest.
        assert_ne!(base, round_key(pool ^ 1, &members, Some((&prev, 1))));
        // One member id.
        assert_ne!(base, round_key(pool, &[1, 2], Some((&prev, 1))));
        // The evicted index.
        assert_ne!(base, round_key(pool, &members, Some((&prev, 0))));
        // One carried task.
        let moved = Assignment::new(vec![0, 1, 0]);
        assert_ne!(base, round_key(pool, &members, Some((&moved, 1))));
    }

    #[test]
    fn each_reputation_input_separates_tags() {
        let engine = ReputationEngine::default();
        let start = [0.25, 0.75];
        let base = reputation_tag(&engine, 7, Some(&start));
        assert_eq!(base, reputation_tag(&engine, 7, Some(&[0.25, 0.75])));
        // A cold start.
        assert_ne!(base, reputation_tag(&engine, 7, None));
        // The trust digest.
        assert_ne!(base, reputation_tag(&engine, 8, Some(&start)));
        // One bit of the start vector.
        let nudged = f64::from_bits(0.75f64.to_bits() + 1);
        assert_ne!(base, reputation_tag(&engine, 7, Some(&[0.25, nudged])));
        // The engine and its settings.
        assert_ne!(base, reputation_tag(&ReputationEngine::pagerank(0.85), 7, Some(&start)));
        assert_ne!(base, reputation_tag(&ReputationEngine::InDegree, 7, Some(&start)));
        assert_ne!(base, reputation_tag(&ReputationEngine::PathPropagation, 7, Some(&start)));
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
            reputation: None,
        };
        c.store(7, &v);
        assert_eq!(c.lookup(7), None);
    }

    #[test]
    fn keys_keep_their_bytes() {
        // Pinned values: a key change orphans every stored cache entry.
        // Keys live only in memory (no journal, snapshot or wire line
        // holds one), so a re-pin only empties a running cache.
        let pool = inst().canonical_hash();
        let prev = Assignment::new(vec![0, 1, 2]);
        assert_eq!(round_key(pool, &[0, 2], None), 0x04ad_db37_b58b_3e05);
        assert_eq!(round_key(pool, &[0, 2], Some((&prev, 1))), 0xd1ea_7709_1c06_c384);
    }
}
