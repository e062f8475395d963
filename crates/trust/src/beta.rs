//! Beta reputation over execution evidence, with λ-discounted history.
//!
//! The paper's trust edges are *exogenous* reports. This module turns
//! them into *earned* trust: each directed pair `(rater, ratee)`
//! accumulates Beta pseudo-counts — `r` for witnessed successes, `s`
//! for witnessed failures — and the posterior mean
//!
//! ```text
//! reputation = (r + 1) / (r + s + 2)
//! ```
//!
//! (the mean of `Beta(r + 1, s + 1)` under a uniform prior) maps
//! directly onto a trust-edge weight in `(0, 1)`, so the power method
//! of [`crate::power`] scores behavior instead of declarations.
//!
//! Two ideas are borrowed from Acurast's on-chain `BetaReputation`:
//!
//! * **λ discount** — each new observation first multiplies the
//!   edge's history by `λ ∈ (0, 1]`, so old evidence fades
//!   geometrically and an oscillating defector cannot coast on a good
//!   phase ([`DEFAULT_LAMBDA`] = 0.98, Acurast's 98/100);
//! * **reward weighting** — an observation backed by a reward `w` is
//!   weighted `w / (w + w̄)` against the running mean reward `w̄`, so
//!   trivial jobs cannot buy the reputation a large job earns.
//!
//! The ledger is deliberately *not* tied to the receipt type that
//! feeds it in practice (`gridvo-core`'s `ExecutionReceipt`, which
//! depends on this crate): callers fold receipts edge by edge via
//! [`BetaLedger::observe`] / [`BetaLedger::observe_weighted`].

use crate::graph::TrustGraph;
use crate::{Result, TrustError};
use serde::{Deserialize, Serialize};

/// Acurast's discount factor: history halves in ≈ 34 observations.
pub const DEFAULT_LAMBDA: f64 = 0.98;

/// Beta pseudo-counts of one directed edge: `r` success mass, `s`
/// failure mass (both ≥ 0, not necessarily integral — observations
/// are reward-weighted).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BetaParams {
    /// Accumulated (discounted, weighted) success evidence.
    pub r: f64,
    /// Accumulated (discounted, weighted) failure evidence.
    pub s: f64,
}

impl BetaParams {
    /// The no-evidence prior.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posterior mean `(r + 1) / (r + s + 2)` — strictly inside
    /// `(0, 1)` for any finite non-negative evidence, and exactly
    /// `0.5` with no evidence.
    pub fn reputation(&self) -> f64 {
        (self.r + 1.0) / (self.r + self.s + 2.0)
    }

    /// Total evidence mass `r + s`.
    pub fn evidence(&self) -> f64 {
        self.r + self.s
    }

    /// Add one observation of the given weight (≥ 0) to the success
    /// or failure side. Plain counting: weight 1 per observation.
    pub fn observe(&mut self, weight: f64, success: bool) {
        if success {
            self.r += weight;
        } else {
            self.s += weight;
        }
    }

    /// One λ discount step: `r ← λ·r`, `s ← λ·s`. `λ = 1` keeps the
    /// history intact (plain counting).
    pub fn discount(&mut self, lambda: f64) {
        self.r *= lambda;
        self.s *= lambda;
    }

    /// Discount for `epochs` elapsed steps at once (`λ^epochs`).
    /// `epochs = 0` is exactly the identity (λ⁰ = 1), so catching up
    /// an edge that is already current changes nothing.
    pub fn discount_epochs(&mut self, lambda: f64, epochs: u32) {
        if epochs == 0 {
            return;
        }
        let factor = lambda.powi(epochs as i32);
        self.r *= factor;
        self.s *= factor;
    }
}

/// Per-edge Beta evidence over a pool of `n` GSPs.
///
/// Dense `n × n` storage (row-major, `edge(rater, ratee)`); the pools
/// this library targets are tens of GSPs. Serializable so a service
/// snapshot can carry it; `None` entries are pairs that never
/// interacted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BetaLedger {
    /// Pool size.
    n: usize,
    /// Discount factor applied to an edge's history at each new
    /// observation on that edge.
    lambda: f64,
    /// Running mean of observation rewards (the `w̄` of the weight
    /// rule), over all weighted observations so far.
    avg_reward: f64,
    /// Number of observations folded in (weighted and plain).
    observations: u64,
    /// Row-major `n × n` edge evidence; `edges[rater * n + ratee]`.
    edges: Vec<Option<BetaParams>>,
}

impl BetaLedger {
    /// An empty ledger over `n` GSPs with discount factor `lambda`
    /// (callers pass a value in `(0, 1]`; [`DEFAULT_LAMBDA`] is the
    /// recommended choice, `1.0` disables discounting).
    pub fn new(n: usize, lambda: f64) -> Self {
        BetaLedger { n, lambda, avg_reward: 0.0, observations: 0, edges: vec![None; n * n] }
    }

    /// Pool size the ledger covers.
    pub fn gsp_count(&self) -> usize {
        self.n
    }

    /// The discount factor.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Whether no evidence has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    fn check(&self, rater: usize, ratee: usize) -> Result<()> {
        let n = self.n;
        if rater >= n {
            return Err(TrustError::NodeOutOfRange { node: rater, len: n });
        }
        if ratee >= n {
            return Err(TrustError::NodeOutOfRange { node: ratee, len: n });
        }
        Ok(())
    }

    /// Record one reward-backed observation: the weight is
    /// `reward / (reward + w̄)` against the running mean reward `w̄`
    /// (weight 1 for the first rewarded observation, 0 when both are
    /// zero), then the edge is λ-discounted and updated.
    pub fn observe(
        &mut self,
        rater: usize,
        ratee: usize,
        reward: f64,
        success: bool,
    ) -> Result<()> {
        if !reward.is_finite() || reward < 0.0 {
            return Err(TrustError::InvalidWeight { from: rater, to: ratee, weight: reward });
        }
        let denom = reward + self.avg_reward;
        let weight = if denom > 0.0 { reward / denom } else { 0.0 };
        self.observe_weighted(rater, ratee, weight, success)?;
        // Running mean over all observations (update after weighting,
        // so the current reward does not discount itself).
        self.avg_reward += (reward - self.avg_reward) / self.observations as f64;
        Ok(())
    }

    /// Record one observation with an explicit weight (no reward
    /// normalization): discount the edge's history by λ, then add
    /// `weight` to its success or failure mass. With `λ = 1` and
    /// weight 1 this is plain counting.
    pub fn observe_weighted(
        &mut self,
        rater: usize,
        ratee: usize,
        weight: f64,
        success: bool,
    ) -> Result<()> {
        self.check(rater, ratee)?;
        if rater == ratee {
            return Err(TrustError::InvalidWeight { from: rater, to: ratee, weight });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(TrustError::InvalidWeight { from: rater, to: ratee, weight });
        }
        let params = self.edges[rater * self.n + ratee].get_or_insert_with(BetaParams::new);
        params.discount(self.lambda);
        params.observe(weight, success);
        self.observations += 1;
        Ok(())
    }

    /// The evidence on edge `(rater, ratee)`, if any.
    pub fn params(&self, rater: usize, ratee: usize) -> Option<BetaParams> {
        if rater >= self.n || ratee >= self.n {
            return None;
        }
        self.edges[rater * self.n + ratee]
    }

    /// Posterior mean of edge `(rater, ratee)`, if it has evidence.
    pub fn posterior(&self, rater: usize, ratee: usize) -> Option<f64> {
        self.params(rater, ratee).map(|p| p.reputation())
    }

    /// Erase every edge touching `node`, in both directions — the
    /// whitewashing move: a re-registered identity starts from the
    /// no-evidence prior.
    pub fn forget(&mut self, node: usize) -> Result<()> {
        if node >= self.n {
            return Err(TrustError::NodeOutOfRange { node, len: self.n });
        }
        for other in 0..self.n {
            self.edges[node * self.n + other] = None;
            self.edges[other * self.n + node] = None;
        }
        Ok(())
    }

    /// Grow the pool by one GSP (no evidence about it yet).
    pub fn grow(&mut self) {
        let n = self.n;
        let mut next = vec![None; (n + 1) * (n + 1)];
        for i in 0..n {
            for j in 0..n {
                next[i * (n + 1) + j] = self.edges[i * n + j];
            }
        }
        self.n = n + 1;
        self.edges = next;
    }

    /// Remove GSP `node`; ids above it shift down by one (the
    /// registry's compacting-id rule).
    pub fn remove(&mut self, node: usize) -> Result<()> {
        if node >= self.n {
            return Err(TrustError::NodeOutOfRange { node, len: self.n });
        }
        let n = self.n;
        let survivors: Vec<usize> = (0..n).filter(|&k| k != node).collect();
        let mut next = vec![None; (n - 1) * (n - 1)];
        for (i2, &i) in survivors.iter().enumerate() {
            for (j2, &j) in survivors.iter().enumerate() {
                next[i2 * (n - 1) + j2] = self.edges[i * n + j];
            }
        }
        self.n = n - 1;
        self.edges = next;
        Ok(())
    }

    /// Overlay earned trust onto a declared-trust graph: edges with
    /// Beta evidence are *replaced* by the posterior mean (behavior
    /// overrides declarations); edges without evidence keep the
    /// declared weight. With an empty ledger this is exactly
    /// `base.clone()`.
    pub fn apply_to(&self, base: &TrustGraph) -> Result<TrustGraph> {
        if base.node_count() != self.n {
            return Err(TrustError::DimensionMismatch {
                context: "beta ledger size != trust graph size",
            });
        }
        let mut g = base.clone();
        for rater in 0..self.n {
            for ratee in 0..self.n {
                if let Some(p) = self.edges[rater * self.n + ratee] {
                    g.set_trust(rater, ratee, p.reputation());
                }
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_evidence_posterior_is_half() {
        assert_eq!(BetaParams::new().reputation(), 0.5);
    }

    #[test]
    fn posterior_moves_with_evidence() {
        let mut p = BetaParams::new();
        p.observe(1.0, true);
        assert!(p.reputation() > 0.5);
        let mut q = BetaParams::new();
        q.observe(1.0, false);
        assert!(q.reputation() < 0.5);
    }

    #[test]
    fn lambda_one_is_plain_counting() {
        let mut ledger = BetaLedger::new(3, 1.0);
        for _ in 0..5 {
            ledger.observe_weighted(0, 1, 1.0, true).unwrap();
        }
        for _ in 0..3 {
            ledger.observe_weighted(0, 1, 1.0, false).unwrap();
        }
        let p = ledger.params(0, 1).unwrap();
        assert_eq!(p.r, 5.0);
        assert_eq!(p.s, 3.0);
        assert!((p.reputation() - 6.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_epoch_discount_is_identity() {
        let mut p = BetaParams { r: 3.25, s: 1.5 };
        let before = p;
        p.discount_epochs(0.9, 0);
        assert_eq!(p, before);
        p.discount_epochs(0.9, 2);
        assert!((p.r - 3.25 * 0.81).abs() < 1e-12);
    }

    #[test]
    fn discount_fades_old_evidence() {
        // A long failure history followed by recent successes: with
        // λ < 1 the posterior recovers faster than plain counting.
        let run = |lambda: f64| {
            let mut ledger = BetaLedger::new(2, lambda);
            for _ in 0..50 {
                ledger.observe_weighted(0, 1, 1.0, false).unwrap();
            }
            for _ in 0..10 {
                ledger.observe_weighted(0, 1, 1.0, true).unwrap();
            }
            ledger.posterior(0, 1).unwrap()
        };
        assert!(run(0.9) > run(1.0));
    }

    #[test]
    fn reward_weighting_damps_trivial_jobs() {
        let mut ledger = BetaLedger::new(2, 1.0);
        ledger.observe(0, 1, 10.0, true).unwrap(); // first job: weight 1
        let after_big = ledger.params(0, 1).unwrap().r;
        assert!((after_big - 1.0).abs() < 1e-12);
        ledger.observe(0, 1, 0.01, true).unwrap(); // trivial follow-up
        let gained = ledger.params(0, 1).unwrap().r - after_big;
        assert!(gained < 0.01, "a trivial reward must earn almost nothing, got {gained}");
    }

    #[test]
    fn self_edges_and_bad_input_are_rejected() {
        let mut ledger = BetaLedger::new(2, 0.98);
        assert!(ledger.observe_weighted(0, 0, 1.0, true).is_err());
        assert!(ledger.observe_weighted(0, 5, 1.0, true).is_err());
        assert!(ledger.observe(0, 1, f64::NAN, true).is_err());
        assert!(ledger.observe(0, 1, -1.0, true).is_err());
        assert!(ledger.is_empty(), "rejected observations must not count");
    }

    #[test]
    fn forget_erases_both_directions() {
        let mut ledger = BetaLedger::new(3, 0.98);
        ledger.observe_weighted(0, 1, 1.0, false).unwrap();
        ledger.observe_weighted(1, 2, 1.0, true).unwrap();
        ledger.observe_weighted(2, 1, 1.0, true).unwrap();
        ledger.forget(1).unwrap();
        assert!(ledger.params(0, 1).is_none());
        assert!(ledger.params(1, 2).is_none());
        assert!(ledger.params(2, 1).is_none());
    }

    #[test]
    fn grow_and_remove_keep_surviving_evidence() {
        let mut ledger = BetaLedger::new(3, 0.98);
        ledger.observe_weighted(0, 2, 1.0, true).unwrap();
        ledger.grow();
        assert_eq!(ledger.gsp_count(), 4);
        assert!(ledger.params(0, 2).is_some());
        assert!(ledger.params(0, 3).is_none());
        ledger.remove(1).unwrap();
        assert_eq!(ledger.gsp_count(), 3);
        // Old id 2 is now id 1 and keeps its evidence.
        assert!(ledger.params(0, 1).is_some());
        assert!(ledger.params(0, 2).is_none());
    }

    #[test]
    fn empty_overlay_is_the_base_graph() {
        let mut base = TrustGraph::new(3);
        base.set_trust(0, 1, 0.7);
        base.set_trust(1, 2, 0.4);
        let ledger = BetaLedger::new(3, 0.98);
        let out = ledger.apply_to(&base).unwrap();
        assert_eq!(out.weight_matrix(), base.weight_matrix());
    }

    #[test]
    fn overlay_overrides_declared_trust_with_behavior() {
        let mut base = TrustGraph::new(3);
        base.set_trust(0, 1, 0.95); // declared: highly trusted
        let mut ledger = BetaLedger::new(3, 0.98);
        for _ in 0..20 {
            ledger.observe_weighted(0, 1, 1.0, false).unwrap(); // behavior: fails
        }
        let out = ledger.apply_to(&base).unwrap();
        assert!(out.trust(0, 1) < 0.2, "earned trust must override the declaration");
        let mismatch = BetaLedger::new(2, 0.98);
        assert!(mismatch.apply_to(&base).is_err());
    }

    #[test]
    fn ledger_serde_round_trip() {
        let mut ledger = BetaLedger::new(2, 0.98);
        ledger.observe(0, 1, 4.0, true).unwrap();
        ledger.observe(1, 0, 2.0, false).unwrap();
        let json = serde_json::to_string(&ledger).unwrap();
        let back: BetaLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
    }
}
