//! Adversary models for the receipt-driven reputation loop.
//!
//! The paper's trust graph is exogenous — GSPs *declare* trust. The
//! Beta-reputation overlay ([`gridvo_trust::beta`]) replaces declared
//! edges with evidence earned from execution receipts, and the point
//! of earning trust is that the classic reputation attacks stop
//! paying. This module parameterizes a dynamic simulation
//! ([`crate::dynamic::simulate`]) with the three canonical attacks:
//!
//! * **whitewashing** — an unreliable GSP periodically sheds its
//!   identity, re-entering with a clean (prior-only) record;
//! * **oscillating defection** — a GSP alternates honest phases
//!   (building reputation) with defection phases (spending it);
//! * **badmouthing ring** — a colluding clique rates its own members
//!   `Delivered` and every honest co-member `Failed`, regardless of
//!   what actually happened.
//!
//! The suite in `tests/adversaries.rs` asserts the economic claim:
//! under receipt-driven Beta trust, each attacker's selection rate and
//! payoff share collapse below the honest baseline within a bounded
//! number of rounds.

/// Which reputation attack the designated attackers play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Attackers play honestly — the baseline the attacks are
    /// measured against (same ids, same reliabilities, no strategy).
    Honest,
    /// Every `period` rounds the attacker re-enters under a fresh
    /// identity: all Beta evidence touching it (both directions) is
    /// forgotten, leaving only the prior.
    Whitewash {
        /// Rounds between identity resets.
        period: usize,
    },
    /// The attacker alternates phases of `period` rounds: honest
    /// phases at [`OSCILLATE_GOOD`] reliability, defection phases at
    /// [`OSCILLATE_BAD`].
    Oscillate {
        /// Phase length in rounds.
        period: usize,
    },
    /// Attackers form a collusion ring: each ring member's reports
    /// rate fellow ring members `Delivered` and honest co-members
    /// `Failed`, always. Their actual (low) reliability is whatever
    /// the config assigns them.
    BadmouthRing,
}

/// Delivery probability of an oscillating defector in its honest
/// phase.
pub const OSCILLATE_GOOD: f64 = 0.95;
/// Delivery probability of an oscillating defector in its defection
/// phase.
pub const OSCILLATE_BAD: f64 = 0.05;

/// Switches a dynamic simulation from net delivery-count trust to
/// receipt-driven Beta reputation, optionally with adversaries. The
/// ledger discounts at [`gridvo_trust::beta::DEFAULT_LAMBDA`].
#[derive(Debug, Clone, PartialEq)]
pub struct BetaDynamics {
    /// GSP ids playing the adversary strategy. Empty means everyone
    /// is honest (pure closed-loop reputation, no attack).
    pub attackers: Vec<usize>,
    /// The strategy the attackers play.
    pub kind: AdversaryKind,
}

impl BetaDynamics {
    /// `attackers` playing `kind`.
    pub fn attack(attackers: Vec<usize>, kind: AdversaryKind) -> Self {
        BetaDynamics { attackers, kind }
    }

    /// Whether `gsp` is one of the designated attackers.
    pub fn is_attacker(&self, gsp: usize) -> bool {
        self.attackers.contains(&gsp)
    }

    /// The attacker's *effective* reliability at `round`, given its
    /// configured baseline: oscillating defectors override it by
    /// phase, every other strategy keeps it.
    pub fn effective_reliability(&self, gsp: usize, round: usize, configured: f64) -> f64 {
        match self.kind {
            AdversaryKind::Oscillate { period } if self.is_attacker(gsp) && period > 0 => {
                if (round / period).is_multiple_of(2) {
                    OSCILLATE_GOOD
                } else {
                    OSCILLATE_BAD
                }
            }
            _ => configured,
        }
    }

    /// Whether `gsp` resets its identity *before* `round` forms.
    /// Round 0 never resets (there is nothing to shed yet).
    pub fn whitewashes_at(&self, gsp: usize, round: usize) -> bool {
        match self.kind {
            AdversaryKind::Whitewash { period } => {
                period > 0 && round > 0 && round.is_multiple_of(period) && self.is_attacker(gsp)
            }
            _ => false,
        }
    }

    /// What `rater` *reports* about `ratee`, given the truthful
    /// outcome: badmouth-ring members lie along ring lines, everyone
    /// else reports the truth.
    pub fn reported_outcome(&self, rater: usize, ratee: usize, truthful: bool) -> bool {
        match self.kind {
            AdversaryKind::BadmouthRing if self.is_attacker(rater) => self.is_attacker(ratee),
            _ => truthful,
        }
    }
}

/// Selection rate of `gsp` over `records`: the fraction of formed
/// rounds whose VO includes it.
pub fn selection_rate(records: &[crate::dynamic::RoundRecord], gsp: usize) -> f64 {
    let formed: Vec<_> = records.iter().filter(|r| !r.members.is_empty()).collect();
    if formed.is_empty() {
        return 0.0;
    }
    formed.iter().filter(|r| r.members.contains(&gsp)).count() as f64 / formed.len() as f64
}

/// Mean per-round payoff `gsp` earned over `records` (0 in rounds it
/// was not selected or the program failed).
pub fn mean_payoff(records: &[crate::dynamic::RoundRecord], gsp: usize) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(|r| if r.members.contains(&gsp) { r.payoff_share } else { 0.0 }).sum::<f64>()
        / records.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oscillation_phases_alternate() {
        let d = BetaDynamics::attack(vec![3], AdversaryKind::Oscillate { period: 2 });
        assert_eq!(d.effective_reliability(3, 0, 0.5), OSCILLATE_GOOD);
        assert_eq!(d.effective_reliability(3, 1, 0.5), OSCILLATE_GOOD);
        assert_eq!(d.effective_reliability(3, 2, 0.5), OSCILLATE_BAD);
        assert_eq!(d.effective_reliability(3, 3, 0.5), OSCILLATE_BAD);
        assert_eq!(d.effective_reliability(3, 4, 0.5), OSCILLATE_GOOD);
        // Non-attackers keep their configured reliability.
        assert_eq!(d.effective_reliability(0, 2, 0.5), 0.5);
    }

    #[test]
    fn whitewash_schedule_skips_round_zero() {
        let d = BetaDynamics::attack(vec![1], AdversaryKind::Whitewash { period: 3 });
        assert!(!d.whitewashes_at(1, 0));
        assert!(!d.whitewashes_at(1, 2));
        assert!(d.whitewashes_at(1, 3));
        assert!(d.whitewashes_at(1, 6));
        assert!(!d.whitewashes_at(0, 3), "honest GSPs never reset");
    }

    #[test]
    fn badmouth_ring_lies_along_ring_lines() {
        let d = BetaDynamics::attack(vec![4, 5], AdversaryKind::BadmouthRing);
        // Ring rater: fellow ring member always Delivered…
        assert!(d.reported_outcome(4, 5, false));
        // …honest co-member always Failed.
        assert!(!d.reported_outcome(4, 0, true));
        // Honest raters tell the truth about everyone.
        assert!(d.reported_outcome(0, 5, true));
        assert!(!d.reported_outcome(0, 4, false));
    }

    #[test]
    fn honest_dynamics_change_nothing() {
        let d = BetaDynamics::attack(Vec::new(), AdversaryKind::Honest);
        assert!(!d.is_attacker(0));
        assert_eq!(d.effective_reliability(0, 9, 0.7), 0.7);
        assert!(!d.whitewashes_at(0, 9));
        assert!(d.reported_outcome(0, 1, true));
        assert!(!d.reported_outcome(0, 1, false));
    }

    #[test]
    fn rate_helpers_handle_empty_records() {
        assert_eq!(selection_rate(&[], 0), 0.0);
        assert_eq!(mean_payoff(&[], 0), 0.0);
    }
}
