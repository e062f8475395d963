//! The input to a formation run: GSPs, trust, and the grand-coalition
//! assignment instance.

use std::sync::OnceLock;

use crate::gsp::Gsp;
use crate::{CoreError, Result};
use gridvo_solver::instance::Fnv1a;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use serde::{Deserialize, Serialize};

/// Everything the mechanism needs for one program:
///
/// * the set of GSPs (speeds),
/// * the trust graph over them,
/// * the full `tasks × m` assignment instance for the grand coalition
///   (cost matrix, time matrix, deadline `d`, payment `P`).
///
/// Instances for smaller VOs are derived by column restriction.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "RawScenario")]
pub struct FormationScenario {
    gsps: Vec<Gsp>,
    trust: TrustGraph,
    instance: AssignmentInstance,
    /// `instance`'s canonical hash, computed on first use: a daemon
    /// snapshot serves many formations over one pool. Lazy, because
    /// every registry write builds a scenario that may never form.
    #[serde(skip)]
    pool_digest: OnceLock<u64>,
    /// A digest of `trust`'s weight bits, computed on first use and
    /// reset by [`FormationScenario::replace_trust`]: it tags the
    /// reputations the solve cache carries.
    #[serde(skip)]
    trust_digest: OnceLock<u64>,
}

/// Serde shadow: deserialization re-runs the cross-shape validation,
/// so a hand-edited scenario file cannot desynchronize the trust
/// graph, GSP list and instance.
#[derive(serde::Deserialize)]
struct RawScenario {
    gsps: Vec<Gsp>,
    trust: TrustGraph,
    instance: AssignmentInstance,
}

impl TryFrom<RawScenario> for FormationScenario {
    type Error = String;
    fn try_from(raw: RawScenario) -> std::result::Result<Self, String> {
        FormationScenario::new(raw.gsps, raw.trust, raw.instance).map_err(|e| e.to_string())
    }
}

impl FormationScenario {
    /// Build and cross-validate a scenario. The trust graph and the
    /// instance's GSP dimension must both match `gsps.len()`.
    pub fn new(gsps: Vec<Gsp>, trust: TrustGraph, instance: AssignmentInstance) -> Result<Self> {
        let m = gsps.len();
        if trust.node_count() != m {
            return Err(CoreError::ShapeMismatch { context: "trust graph vs GSP count" });
        }
        if instance.gsps() != m {
            return Err(CoreError::ShapeMismatch { context: "instance columns vs GSP count" });
        }
        Ok(FormationScenario {
            gsps,
            trust,
            instance,
            pool_digest: OnceLock::new(),
            trust_digest: OnceLock::new(),
        })
    }

    /// Number of GSPs `m`.
    pub fn gsp_count(&self) -> usize {
        self.gsps.len()
    }

    /// Number of tasks `n`.
    pub fn task_count(&self) -> usize {
        self.instance.tasks()
    }

    /// The GSPs.
    pub fn gsps(&self) -> &[Gsp] {
        &self.gsps
    }

    /// The trust graph over all GSPs.
    pub fn trust(&self) -> &TrustGraph {
        &self.trust
    }

    /// Replace the trust graph over the same GSPs. The instance, and
    /// with it the memoized pool digest, is kept; the trust digest is
    /// computed afresh on its next use.
    pub fn replace_trust(&mut self, trust: TrustGraph) -> Result<()> {
        if trust.node_count() != self.gsps.len() {
            return Err(CoreError::ShapeMismatch { context: "trust graph vs GSP count" });
        }
        self.trust = trust;
        self.trust_digest = OnceLock::new();
        Ok(())
    }

    /// The grand-coalition assignment instance.
    pub fn instance(&self) -> &AssignmentInstance {
        &self.instance
    }

    /// The pool digest that keys every round's solve
    /// ([`AssignmentInstance::canonical_hash`] of
    /// [`FormationScenario::instance`]), computed once per scenario.
    pub(crate) fn pool_digest(&self) -> u64 {
        *self.pool_digest.get_or_init(|| self.instance.canonical_hash())
    }

    /// A digest of the trust graph's size and weight bit patterns,
    /// computed once per trust graph: the trust input of
    /// [`crate::solve_cache::reputation_tag`].
    pub(crate) fn trust_digest(&self) -> u64 {
        *self.trust_digest.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write_u64(self.trust.node_count() as u64);
            for w in self.trust.weight_matrix().as_slice() {
                h.write_u64(w.to_bits());
            }
            h.finish()
        })
    }

    /// The payment `P`.
    pub fn payment(&self) -> f64 {
        self.instance.payment()
    }

    /// A VO's value and each member's share when its IP costs `cost`:
    /// eq. (15)'s `v(C) = max(P − C(T, C), 0)` and eq. (18)'s equal
    /// split `v(C) / |C|` over `size` members.
    pub fn payoff(&self, cost: f64, size: usize) -> (f64, f64) {
        let value = (self.payment() - cost).max(0.0);
        (value, value / size as f64)
    }

    /// The deadline `d`.
    pub fn deadline(&self) -> f64 {
        self.instance.deadline()
    }

    /// Whether a VO of `size` members can possibly host the program:
    /// it is non-empty and has no more members than tasks (with more,
    /// constraint (13) is infeasible).
    pub(crate) fn can_host(&self, size: usize) -> bool {
        size > 0 && size <= self.instance.tasks()
    }

    /// The IP a candidate VO (given by global GSP indices) faces.
    /// Returns `None` when the VO cannot possibly host the program
    /// (fewer tasks than members — constraint (13) infeasible — or an
    /// empty member list).
    pub fn instance_for(&self, members: &[usize]) -> Option<AssignmentInstance> {
        if !self.can_host(members.len()) {
            return None;
        }
        self.instance.restrict_gsps(members).ok()
    }

    /// The trust subgraph of a candidate VO.
    pub fn trust_for(&self, members: &[usize]) -> Result<TrustGraph> {
        Ok(self.trust.restrict(members)?)
    }

    /// The scenario over the sub-pool `ids` (global ids), renumbered
    /// `0..ids.len()`: local GSP `k` is global GSP `ids[k]`, with its
    /// speed, trust edges and cost and time columns. Lift results back
    /// with [`FormationOutcome::map_members`](crate::FormationOutcome::map_members).
    /// `None` when an id is out of range or the sub-pool cannot host
    /// the program (see [`FormationScenario::instance_for`]).
    pub fn restrict(&self, ids: &[usize]) -> Option<FormationScenario> {
        if ids.iter().any(|&id| id >= self.gsp_count()) {
            return None;
        }
        let instance = self.instance_for(ids)?;
        let trust = self.trust_for(ids).ok()?;
        let gsps =
            ids.iter().enumerate().map(|(k, &g)| Gsp::new(k, self.gsps[g].speed_gflops)).collect();
        Some(FormationScenario {
            gsps,
            trust,
            instance,
            pool_digest: OnceLock::new(),
            trust_digest: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(tasks: usize, gsps: usize) -> AssignmentInstance {
        AssignmentInstance::new(
            tasks,
            gsps,
            vec![1.0; tasks * gsps],
            vec![1.0; tasks * gsps],
            100.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn validates_shapes() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0)];
        let ok = FormationScenario::new(gsps.clone(), TrustGraph::new(2), instance(4, 2));
        assert!(ok.is_ok());
        let bad_trust = FormationScenario::new(gsps.clone(), TrustGraph::new(3), instance(4, 2));
        assert!(matches!(bad_trust, Err(CoreError::ShapeMismatch { .. })));
        let bad_inst = FormationScenario::new(gsps, TrustGraph::new(2), instance(4, 3));
        assert!(matches!(bad_inst, Err(CoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn instance_for_restricts_columns() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0), Gsp::new(2, 30.0)];
        let mut cost = Vec::new();
        for t in 0..4 {
            for g in 0..3 {
                cost.push((t * 3 + g) as f64 + 1.0);
            }
        }
        let inst = AssignmentInstance::new(4, 3, cost, vec![1.0; 12], 100.0, 100.0).unwrap();
        let s = FormationScenario::new(gsps, TrustGraph::new(3), inst).unwrap();
        let sub = s.instance_for(&[0, 2]).unwrap();
        assert_eq!(sub.gsps(), 2);
        assert_eq!(sub.cost(0, 1), 3.0); // task 0, old GSP 2
    }

    #[test]
    fn instance_for_rejects_undersized() {
        // A valid scenario always has tasks ≥ m ≥ |members|, so the
        // reachable degenerate input is the empty member list.
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0)];
        let s = FormationScenario::new(gsps, TrustGraph::new(2), instance(2, 2)).unwrap();
        assert!(s.instance_for(&[]).is_none());
        assert!(s.instance_for(&[0]).is_some());
        assert!(s.instance_for(&[0, 1]).is_some());
    }

    /// `m` GSPs over `2m` tasks, with distinct speeds, trust weights
    /// and cost and time columns.
    fn pool(m: usize) -> FormationScenario {
        let gsps: Vec<Gsp> = (0..m).map(|i| Gsp::new(i, 100.0 - 10.0 * i as f64)).collect();
        let mut trust = TrustGraph::new(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    trust.set_trust(i, j, 0.4 + 0.1 * ((i + j) % 3) as f64);
                }
            }
        }
        let tasks = 2 * m;
        let cost: Vec<f64> = (0..tasks * m).map(|k| 1.0 + (k % 7) as f64).collect();
        let time: Vec<f64> = (0..tasks * m).map(|k| 0.5 + (k % 5) as f64 * 0.3).collect();
        let inst = AssignmentInstance::new(tasks, m, cost, time, 50.0, 400.0).unwrap();
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn restrict_renumbers_the_sub_pool() {
        let full = pool(5);
        let free = vec![0, 2, 4];
        let sub = full.restrict(&free).unwrap();
        assert_eq!(sub.gsp_count(), 3);
        assert_eq!(sub.task_count(), full.task_count());
        // Local ids are 0..k; speeds carry over from the survivors.
        for (k, &g) in free.iter().enumerate() {
            assert_eq!(sub.gsps()[k].id, k);
            assert_eq!(sub.gsps()[k].speed_gflops, full.gsps()[g].speed_gflops);
        }
        // Trust edges restrict with the members.
        assert_eq!(sub.trust().trust(0, 1), full.trust().trust(0, 2));
        // Cost columns restrict with the members.
        assert_eq!(sub.instance().cost(1, 2), full.instance().cost(1, 4));
    }

    #[test]
    fn restrict_refuses_bad_sub_pools() {
        let full = pool(4);
        assert!(full.restrict(&[]).is_none());
        assert!(full.restrict(&[0, 9]).is_none());
    }

    #[test]
    fn the_pool_digest_memo_stays_off_the_wire() {
        let scenario = pool(4);
        let before = serde_json::to_string(&scenario).unwrap();
        let digest = scenario.pool_digest();
        assert_eq!(digest, scenario.instance().canonical_hash());
        assert_eq!(serde_json::to_string(&scenario).unwrap(), before, "the memo is not serialized");
        assert!(!before.contains("pool_digest") && !before.contains(&digest.to_string()));
        let back: FormationScenario = serde_json::from_str(&before).unwrap();
        assert_eq!(back.pool_digest(), digest);
        let sub = scenario.restrict(&[0, 2, 3]).unwrap();
        assert_eq!(sub.pool_digest(), sub.instance().canonical_hash());
    }

    #[test]
    fn replace_trust_keeps_the_instance_and_its_digest() {
        let mut scenario = pool(4);
        let digest = scenario.pool_digest();
        let mut trust = TrustGraph::new(4);
        trust.set_trust(3, 0, 0.9);
        scenario.replace_trust(trust).unwrap();
        assert_eq!(scenario.trust().trust(3, 0), 0.9);
        assert_eq!(scenario.trust().trust(0, 1), 0.0);
        assert_eq!(scenario.pool_digest(), digest);
        assert_eq!(scenario.pool_digest(), scenario.instance().canonical_hash());
        let wrong = scenario.replace_trust(TrustGraph::new(5));
        assert!(matches!(wrong, Err(CoreError::ShapeMismatch { .. })));
        assert_eq!(scenario.trust().trust(3, 0), 0.9, "a refused graph changes nothing");
    }

    #[test]
    fn the_trust_digest_follows_the_trust_graph() {
        let mut scenario = pool(4);
        let text = serde_json::to_string(&scenario).unwrap();
        let digest = scenario.trust_digest();
        assert_eq!(serde_json::to_string(&scenario).unwrap(), text, "the memo is not serialized");
        let back: FormationScenario = serde_json::from_str(&text).unwrap();
        assert_eq!(back.trust_digest(), digest);
        // A restriction digests its own trust graph.
        let sub = scenario.restrict(&[0, 2, 3]).unwrap();
        let (gsps, trust) = (sub.gsps().to_vec(), sub.trust().clone());
        let fresh = FormationScenario::new(gsps, trust, sub.instance().clone()).unwrap();
        assert_eq!(sub.trust_digest(), fresh.trust_digest());
        assert_ne!(sub.trust_digest(), digest);
        // Replacing the trust graph resets the memo, for one edge too;
        // a clone taken before keeps the old digest.
        let before = scenario.clone();
        let mut trust = scenario.trust().clone();
        trust.set_trust(3, 0, 0.9);
        scenario.replace_trust(trust).unwrap();
        assert_ne!(scenario.trust_digest(), digest);
        assert_eq!(before.trust_digest(), digest);
        scenario.replace_trust(before.trust().clone()).unwrap();
        assert_eq!(scenario.trust_digest(), digest);
    }

    #[test]
    fn trust_for_restricts() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0), Gsp::new(2, 30.0)];
        let mut t = TrustGraph::new(3);
        t.set_trust(0, 2, 0.7);
        let s = FormationScenario::new(gsps, t, instance(4, 3)).unwrap();
        let sub = s.trust_for(&[0, 2]).unwrap();
        assert_eq!(sub.trust(0, 1), 0.7);
    }
}
