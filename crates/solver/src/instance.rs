//! The task-assignment problem instance (eqs. (9)–(14) data).

use crate::{Result, SolverError};
use serde::{Deserialize, Serialize};

/// One instance of the paper's task-assignment IP: `n` independent
/// tasks, `k` GSPs (the candidate VO's members), cost and execution
/// time matrices, a deadline and a payment.
///
/// Matrices are stored **task-major**: entry `(task, gsp)` lives at
/// `task * gsps + gsp`, matching the paper's `c(T, G)` / `t(T, G)`
/// notation. Row `t` is therefore the per-GSP cost/time profile of one
/// task — the unit the branch-and-bound branches over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawInstance")]
pub struct AssignmentInstance {
    tasks: usize,
    gsps: usize,
    cost: Vec<f64>,
    time: Vec<f64>,
    deadline: f64,
    payment: f64,
}

/// Serde shadow: deserialization re-runs full instance validation.
#[derive(Deserialize)]
struct RawInstance {
    tasks: usize,
    gsps: usize,
    cost: Vec<f64>,
    time: Vec<f64>,
    deadline: f64,
    payment: f64,
}

impl TryFrom<RawInstance> for AssignmentInstance {
    type Error = String;
    fn try_from(raw: RawInstance) -> std::result::Result<Self, String> {
        AssignmentInstance::new(raw.tasks, raw.gsps, raw.cost, raw.time, raw.deadline, raw.payment)
            .map_err(|e| e.to_string())
    }
}

impl AssignmentInstance {
    /// Build and validate an instance.
    ///
    /// * `cost`/`time` — task-major `tasks × gsps` matrices, all entries
    ///   finite and non-negative (`time` entries strictly positive);
    /// * `deadline`/`payment` — finite and strictly positive.
    ///
    /// Rejects shapes where `tasks < gsps`, because constraint (13)
    /// (every GSP gets at least one task) is then trivially infeasible:
    /// TVOF relies on this signal to stop shrinking VOs.
    pub fn new(
        tasks: usize,
        gsps: usize,
        cost: Vec<f64>,
        time: Vec<f64>,
        deadline: f64,
        payment: f64,
    ) -> Result<Self> {
        if tasks == 0 || gsps == 0 {
            return Err(SolverError::Empty);
        }
        if cost.len() != tasks * gsps {
            return Err(SolverError::BadDimensions { context: "cost matrix" });
        }
        if time.len() != tasks * gsps {
            return Err(SolverError::BadDimensions { context: "time matrix" });
        }
        for t in 0..tasks {
            for g in 0..gsps {
                let c = cost[t * gsps + g];
                if !c.is_finite() || c < 0.0 {
                    return Err(SolverError::BadEntry { task: t, gsp: g, value: c });
                }
                let tm = time[t * gsps + g];
                if !tm.is_finite() || tm <= 0.0 {
                    return Err(SolverError::BadEntry { task: t, gsp: g, value: tm });
                }
            }
        }
        if !deadline.is_finite() || deadline <= 0.0 {
            return Err(SolverError::BadScalar { name: "deadline", value: deadline });
        }
        if !payment.is_finite() || payment <= 0.0 {
            return Err(SolverError::BadScalar { name: "payment", value: payment });
        }
        if tasks < gsps {
            return Err(SolverError::TooFewTasks { tasks, gsps });
        }
        Ok(AssignmentInstance { tasks, gsps, cost, time, deadline, payment })
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of GSPs `k = |C|`.
    #[inline]
    pub fn gsps(&self) -> usize {
        self.gsps
    }

    /// Execution cost `c(T, G)`.
    #[inline]
    pub fn cost(&self, task: usize, gsp: usize) -> f64 {
        self.cost[task * self.gsps + gsp]
    }

    /// Execution time `t(T, G)` in seconds.
    #[inline]
    pub fn time(&self, task: usize, gsp: usize) -> f64 {
        self.time[task * self.gsps + gsp]
    }

    /// Per-GSP cost profile of one task (slice of length `gsps`).
    #[inline]
    pub fn cost_row(&self, task: usize) -> &[f64] {
        &self.cost[task * self.gsps..(task + 1) * self.gsps]
    }

    /// Per-GSP time profile of one task (slice of length `gsps`).
    #[inline]
    pub fn time_row(&self, task: usize) -> &[f64] {
        &self.time[task * self.gsps..(task + 1) * self.gsps]
    }

    /// The deadline `d` (constraint (11) right-hand side).
    #[inline]
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The user's payment `P` (constraint (10) right-hand side).
    #[inline]
    pub fn payment(&self) -> f64 {
        self.payment
    }

    /// Cheapest possible cost of `task` over all GSPs.
    pub fn min_cost(&self, task: usize) -> f64 {
        self.cost_row(task).iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Fastest possible execution time of `task` over all GSPs.
    pub fn min_time(&self, task: usize) -> f64 {
        self.time_row(task).iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Sum over tasks of the per-task minimum cost — the root lower
    /// bound of the branch-and-bound and a quick infeasibility test
    /// against the payment cap.
    pub fn min_cost_sum(&self) -> f64 {
        (0..self.tasks).map(|t| self.min_cost(t)).sum()
    }

    /// Scale each GSP's execution-time column by a per-GSP factor —
    /// the instance a VO faces after slowdown faults degrade some
    /// members. Costs, deadline and payment are untouched: a slowed
    /// GSP charges the same but eats more of the deadline budget.
    /// Errors when `factors` has the wrong length or contains a
    /// non-finite or non-positive factor (via full revalidation).
    pub fn scale_gsp_times(&self, factors: &[f64]) -> Result<AssignmentInstance> {
        if factors.len() != self.gsps {
            return Err(SolverError::BadDimensions { context: "time scale factors" });
        }
        let mut time = Vec::with_capacity(self.time.len());
        for t in 0..self.tasks {
            for (g, &f) in factors.iter().enumerate() {
                time.push(self.time(t, g) * f);
            }
        }
        AssignmentInstance::new(
            self.tasks,
            self.gsps,
            self.cost.clone(),
            time,
            self.deadline,
            self.payment,
        )
    }

    /// Canonical 64-bit content hash of the instance: 64-bit FNV-1a
    /// over a versioned byte encoding of the *semantic* content —
    /// shape, both matrices in task-major order as IEEE-754 bit
    /// patterns, deadline, payment. Because the hash is computed from
    /// the validated fields and never from a serialized form, it is
    /// independent of JSON field order, whitespace, and float
    /// formatting, and stable across processes and platforms (no
    /// `RandomState` seeding). Two instances hash equal iff they
    /// compare equal (negative zeros are normalized to `+0.0` first,
    /// matching `==` on the entries).
    ///
    /// Over a scenario's whole instance, this is the pool digest in the
    /// formation driver's solve-cache key: a repeated formation request
    /// over an unchanged registry hashes the same pool, while
    /// trust-only registry updates — which never touch cost/time
    /// matrices — leave the hash intact.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"gridvo.instance.v1");
        h.write_u64(self.tasks as u64);
        h.write_u64(self.gsps as u64);
        for &c in &self.cost {
            h.write_f64(c);
        }
        for &t in &self.time {
            h.write_f64(t);
        }
        h.write_f64(self.deadline);
        h.write_f64(self.payment);
        h.finish()
    }

    /// Restrict the instance to a subset of GSPs (by index), producing
    /// the IP a *smaller VO* faces. Column `j` of the result is GSP
    /// `keep[j]` of `self`. Errors if the subset is empty or larger
    /// than the task count.
    pub fn restrict_gsps(&self, keep: &[usize]) -> Result<AssignmentInstance> {
        let k = keep.len();
        if k == 0 {
            return Err(SolverError::Empty);
        }
        let mut cost = Vec::with_capacity(self.tasks * k);
        let mut time = Vec::with_capacity(self.tasks * k);
        for t in 0..self.tasks {
            for &g in keep {
                cost.push(self.cost(t, g));
                time.push(self.time(t, g));
            }
        }
        AssignmentInstance::new(self.tasks, k, cost, time, self.deadline, self.payment)
    }
}

/// Minimal 64-bit FNV-1a hasher — deterministic across runs and
/// platforms, unlike `std::collections::hash_map::DefaultHasher`
/// (which is `RandomState`-seeded per process and would make solve
/// cache keys unusable for cross-run reproducibility assertions).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` by IEEE-754 bit pattern, normalizing `-0.0`
    /// to `+0.0` so the hash agrees with `==` on the value.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64((v + 0.0).to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AssignmentInstance {
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
    fn accessors_match_layout() {
        let inst = small();
        assert_eq!(inst.tasks(), 3);
        assert_eq!(inst.gsps(), 2);
        assert_eq!(inst.cost(0, 1), 4.0);
        assert_eq!(inst.cost(2, 0), 3.0);
        assert_eq!(inst.time(1, 1), 2.0);
        assert_eq!(inst.cost_row(1), &[2.0, 1.0]);
        assert_eq!(inst.time_row(0), &[1.0, 2.0]);
        assert_eq!(inst.deadline(), 4.0);
        assert_eq!(inst.payment(), 100.0);
    }

    #[test]
    fn min_helpers() {
        let inst = small();
        assert_eq!(inst.min_cost(0), 1.0);
        assert_eq!(inst.min_cost(1), 1.0);
        assert_eq!(inst.min_cost(2), 2.0);
        assert_eq!(inst.min_cost_sum(), 4.0);
        assert_eq!(inst.min_time(0), 1.0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            AssignmentInstance::new(0, 2, vec![], vec![], 1.0, 1.0),
            Err(SolverError::Empty)
        );
        assert_eq!(
            AssignmentInstance::new(2, 0, vec![], vec![], 1.0, 1.0),
            Err(SolverError::Empty)
        );
    }

    #[test]
    fn rejects_bad_dimensions() {
        let e = AssignmentInstance::new(2, 2, vec![1.0; 3], vec![1.0; 4], 1.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadDimensions { .. })));
        let e = AssignmentInstance::new(2, 2, vec![1.0; 4], vec![1.0; 5], 1.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadDimensions { .. })));
    }

    #[test]
    fn rejects_bad_entries() {
        let e = AssignmentInstance::new(1, 1, vec![-1.0], vec![1.0], 1.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadEntry { .. })));
        // zero time is rejected (a task cannot be free to execute)
        let e = AssignmentInstance::new(1, 1, vec![1.0], vec![0.0], 1.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadEntry { .. })));
        let e = AssignmentInstance::new(1, 1, vec![f64::NAN], vec![1.0], 1.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadEntry { .. })));
    }

    #[test]
    fn rejects_bad_scalars() {
        let e = AssignmentInstance::new(1, 1, vec![1.0], vec![1.0], 0.0, 1.0);
        assert!(matches!(e, Err(SolverError::BadScalar { name: "deadline", .. })));
        let e = AssignmentInstance::new(1, 1, vec![1.0], vec![1.0], 1.0, f64::INFINITY);
        assert!(matches!(e, Err(SolverError::BadScalar { name: "payment", .. })));
    }

    #[test]
    fn rejects_fewer_tasks_than_gsps() {
        let e = AssignmentInstance::new(1, 2, vec![1.0; 2], vec![1.0; 2], 1.0, 1.0);
        assert_eq!(e, Err(SolverError::TooFewTasks { tasks: 1, gsps: 2 }));
    }

    #[test]
    fn restrict_gsps_keeps_columns() {
        let inst = small();
        let sub = inst.restrict_gsps(&[1]).unwrap();
        assert_eq!(sub.gsps(), 1);
        assert_eq!(sub.cost(0, 0), 4.0);
        assert_eq!(sub.cost(2, 0), 2.0);
        assert_eq!(sub.time(1, 0), 2.0);
    }

    #[test]
    fn restrict_gsps_empty_subset_is_error() {
        let inst = small();
        assert_eq!(inst.restrict_gsps(&[]), Err(SolverError::Empty));
    }

    #[test]
    fn scale_gsp_times_scales_one_column() {
        let inst = small();
        let scaled = inst.scale_gsp_times(&[2.0, 1.0]).unwrap();
        assert_eq!(scaled.time(0, 0), 2.0);
        assert_eq!(scaled.time(0, 1), 2.0); // column 1 untouched
        assert_eq!(scaled.time(2, 0), 2.0);
        // costs, deadline and payment are untouched
        assert_eq!(scaled.cost(0, 0), inst.cost(0, 0));
        assert_eq!(scaled.deadline(), inst.deadline());
        assert_eq!(scaled.payment(), inst.payment());
    }

    #[test]
    fn scale_gsp_times_identity_is_bitwise_identical() {
        let inst = small();
        let scaled = inst.scale_gsp_times(&[1.0, 1.0]).unwrap();
        assert_eq!(scaled, inst);
    }

    #[test]
    fn canonical_hash_round_trips_through_serde() {
        let inst = small();
        let json = serde_json::to_string(&inst).unwrap();
        let back: AssignmentInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.canonical_hash(), inst.canonical_hash());
    }

    #[test]
    fn canonical_hash_is_field_order_independent() {
        // The same instance serialized with two different JSON field
        // orders must parse to the same hash: the hash is computed
        // from the validated fields, never from the wire form.
        let natural = r#"{"tasks":3,"gsps":2,
            "cost":[1.0,4.0,2.0,1.0,3.0,2.0],
            "time":[1.0,2.0,1.0,2.0,1.0,2.0],
            "deadline":4.0,"payment":100.0}"#;
        let permuted = r#"{"payment":100.0,"deadline":4.0,
            "time":[1.0,2.0,1.0,2.0,1.0,2.0],
            "cost":[1.0,4.0,2.0,1.0,3.0,2.0],
            "gsps":2,"tasks":3}"#;
        let a: AssignmentInstance = serde_json::from_str(natural).unwrap();
        let b: AssignmentInstance = serde_json::from_str(permuted).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_hash(), small().canonical_hash());
    }

    #[test]
    fn canonical_hash_separates_semantic_changes() {
        let base = small();
        let mut cost = vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0];
        cost[0] = 1.5;
        let changed_cost =
            AssignmentInstance::new(3, 2, cost, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 4.0, 100.0)
                .unwrap();
        assert_ne!(base.canonical_hash(), changed_cost.canonical_hash());
        let changed_deadline = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            5.0,
            100.0,
        )
        .unwrap();
        assert_ne!(base.canonical_hash(), changed_deadline.canonical_hash());
        // swapping the cost and time matrices must change the hash
        // even though the multiset of entries is identical
        let swapped = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            4.0,
            100.0,
        )
        .unwrap();
        assert_ne!(base.canonical_hash(), swapped.canonical_hash());
    }

    #[test]
    fn canonical_hash_is_stable_across_releases() {
        // Locked-in literal: if this assertion ever fails, the hash
        // function (and with it every persisted/shared solve-cache
        // key) changed — bump the version tag string deliberately
        // instead of silently re-keying.
        assert_eq!(small().canonical_hash(), CANONICAL_HASH_OF_SMALL);
    }

    /// See `canonical_hash_is_stable_across_releases`.
    const CANONICAL_HASH_OF_SMALL: u64 = 0xc52b_6c33_ab50_cc67;

    #[test]
    fn canonical_hash_normalizes_negative_zero() {
        let a = AssignmentInstance::new(1, 1, vec![0.0], vec![1.0], 1.0, 1.0).unwrap();
        let b = AssignmentInstance::new(1, 1, vec![-0.0], vec![1.0], 1.0, 1.0).unwrap();
        assert_eq!(a, b, "IEEE equality treats -0.0 == 0.0");
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn scale_gsp_times_rejects_bad_factors() {
        let inst = small();
        assert!(matches!(inst.scale_gsp_times(&[1.0]), Err(SolverError::BadDimensions { .. })));
        assert!(matches!(inst.scale_gsp_times(&[1.0, 0.0]), Err(SolverError::BadEntry { .. })));
        assert!(matches!(
            inst.scale_gsp_times(&[1.0, f64::NAN]),
            Err(SolverError::BadEntry { .. })
        ));
        assert!(matches!(inst.scale_gsp_times(&[-2.0, 1.0]), Err(SolverError::BadEntry { .. })));
    }
}
