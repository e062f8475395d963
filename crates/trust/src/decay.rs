//! Interaction ledger and time-decaying trust (Azzedin & Maheswaran).
//!
//! The paper's related work critiques trust models in which direct
//! trust and reputation *decay with time*: such systems converge to a
//! state where GSPs only trust the members of their past VOs, and the
//! formation of new VOs becomes impossible. This module implements
//! that model so the critique can be demonstrated experimentally:
//!
//! * [`InteractionLedger`] records pairwise interaction outcomes
//!   (delivered / failed-to-deliver resources) with timestamps;
//! * [`DecayModel`] converts the ledger into a [`TrustGraph`] at any
//!   query time, exponentially discounting old evidence;
//! * the `decay_freeze` experiment in `gridvo-bench` shows
//!   trust mass collapsing onto recent collaborators as time advances.

use crate::TrustGraph;

/// Outcome of one interaction between two GSPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The provider delivered the promised resources.
    Delivered,
    /// The provider failed to deliver.
    Failed,
}

/// One recorded interaction: `rater` observed `ratee` at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// The observing GSP.
    pub rater: usize,
    /// The observed GSP.
    pub ratee: usize,
    /// Simulation time of the interaction (seconds).
    pub time: f64,
    /// What happened.
    pub outcome: Outcome,
}

/// Append-only log of pairwise interactions among `n` GSPs.
#[derive(Debug, Clone, Default)]
pub struct InteractionLedger {
    n: usize,
    records: Vec<Interaction>,
}

impl InteractionLedger {
    /// Ledger over `n` GSPs with no history.
    pub fn new(n: usize) -> Self {
        InteractionLedger { n, records: Vec::new() }
    }

    /// Number of GSPs.
    pub fn gsp_count(&self) -> usize {
        self.n
    }

    /// Number of recorded interactions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record an interaction. Panics if either GSP index is out of
    /// range (programming error, not data error).
    pub fn record(&mut self, rater: usize, ratee: usize, time: f64, outcome: Outcome) {
        assert!(rater < self.n && ratee < self.n, "GSP index out of range");
        self.records.push(Interaction { rater, ratee, time, outcome });
    }

    /// Iterate over all interactions.
    pub fn iter(&self) -> impl Iterator<Item = &Interaction> {
        self.records.iter()
    }
}

/// Exponential trust decay: evidence of age `Δt` carries weight
/// `exp(−Δt / half_life · ln 2)`. A delivery credits its weight to the
/// rater's edge and a failure debits it; the resulting edge trust is
/// clamped at 0 (distrust floor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayModel {
    /// Age at which evidence weight halves, in the ledger's time unit.
    /// `f64::INFINITY` disables decay (all history counts equally —
    /// the behaviour the ICPP 2012 paper advocates).
    pub half_life: f64,
}

impl Default for DecayModel {
    fn default() -> Self {
        DecayModel { half_life: f64::INFINITY }
    }
}

impl DecayModel {
    /// Evidence weight for an interaction of age `age ≥ 0`.
    pub fn age_weight(&self, age: f64) -> f64 {
        if self.half_life.is_infinite() {
            1.0
        } else if self.half_life <= 0.0 {
            0.0
        } else {
            (-age / self.half_life * std::f64::consts::LN_2).exp()
        }
    }

    /// Materialize the direct-trust graph implied by `ledger` when
    /// queried at time `now`. Interactions later than `now` are
    /// ignored (the graph is causal).
    pub fn trust_at(&self, ledger: &InteractionLedger, now: f64) -> TrustGraph {
        let n = ledger.gsp_count();
        let mut acc = vec![0.0f64; n * n];
        for rec in ledger.iter() {
            if rec.time > now {
                continue;
            }
            let w = self.age_weight(now - rec.time);
            let delta = match rec.outcome {
                Outcome::Delivered => w,
                Outcome::Failed => -w,
            };
            acc[rec.rater * n + rec.ratee] += delta;
        }
        let mut g = TrustGraph::new(n);
        for i in 0..n {
            for j in 0..n {
                let v = acc[i * n + j];
                if v > 0.0 {
                    g.set_trust(i, j, v);
                }
            }
        }
        g
    }

    /// Total trust mass in the ledger-implied graph at `now` — the
    /// quantity whose collapse demonstrates the freezing critique.
    pub fn total_trust_at(&self, ledger: &InteractionLedger, now: f64) -> f64 {
        let g = self.trust_at(ledger, now);
        (0..g.node_count()).map(|i| g.out_trust_sum(i)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> InteractionLedger {
        let mut l = InteractionLedger::new(3);
        l.record(0, 1, 0.0, Outcome::Delivered);
        l.record(0, 1, 10.0, Outcome::Delivered);
        l.record(1, 2, 5.0, Outcome::Failed);
        l.record(2, 0, 5.0, Outcome::Delivered);
        l
    }

    #[test]
    fn no_decay_counts_all_history_equally() {
        let l = ledger();
        let m = DecayModel::default();
        let g = m.trust_at(&l, 100.0);
        assert_eq!(g.trust(0, 1), 2.0);
        assert_eq!(g.trust(2, 0), 1.0);
    }

    #[test]
    fn failures_subtract_and_clamp_at_zero() {
        let l = ledger();
        let g = DecayModel::default().trust_at(&l, 100.0);
        // 1→2 had a single failure: net −1 clamps to no edge.
        assert_eq!(g.trust(1, 2), 0.0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn future_interactions_invisible() {
        let l = ledger();
        let g = DecayModel::default().trust_at(&l, 4.0);
        assert_eq!(g.trust(0, 1), 1.0); // only the t=0 interaction
        assert_eq!(g.trust(2, 0), 0.0); // t=5 not yet happened
    }

    #[test]
    fn half_life_halves_weight() {
        let m = DecayModel { half_life: 10.0 };
        assert!((m.age_weight(0.0) - 1.0).abs() < 1e-12);
        assert!((m.age_weight(10.0) - 0.5).abs() < 1e-12);
        assert!((m.age_weight(20.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn decay_erodes_trust_over_time() {
        let l = ledger();
        let m = DecayModel { half_life: 5.0 };
        let early = m.total_trust_at(&l, 10.0);
        let late = m.total_trust_at(&l, 100.0);
        assert!(late < early, "trust must decay: {late} !< {early}");
        assert!(late < 0.01, "after 18 half-lives trust is gone");
    }

    #[test]
    fn zero_half_life_kills_everything() {
        let l = ledger();
        let m = DecayModel { half_life: 0.0 };
        assert_eq!(m.total_trust_at(&l, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        let mut l = InteractionLedger::new(2);
        l.record(0, 5, 0.0, Outcome::Delivered);
    }

    #[test]
    fn ledger_basics() {
        let l = ledger();
        assert_eq!(l.gsp_count(), 3);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
        assert!(InteractionLedger::new(2).is_empty());
    }
}
