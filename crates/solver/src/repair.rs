//! Assignment repair across eviction rounds — the warm-start half of
//! the incremental formation engine.
//!
//! Algorithm 1 shrinks the VO by exactly one GSP per round, so the
//! previous round's optimal assignment is *almost* feasible for the
//! next round: only the evicted GSP's tasks are orphaned. This module
//! greedily re-homes those orphans onto the survivors, producing a
//! feasible incumbent that upper-bounds the next IP — usually far
//! tighter than the heuristic portfolio, since it inherits an optimal
//! placement of every non-orphaned task.
//!
//! The repair is *best-effort*: it returns `None` whenever the greedy
//! re-homing violates any constraint (deadline, payment), and callers
//! ([`crate::branch_bound::BranchBound::solve_status_with_budget`]) fall
//! back to the heuristic seed. Because a warm incumbent only tightens
//! the initial upper bound of an exact search, a failed (or suboptimal)
//! repair can never change the solved cost — only the node count.
//!
//! VO execution recovers from member faults with the same greedy
//! placement: [`repair_after_eviction`] after a member is evicted, and
//! [`rehome`] for tasks a member silently dropped.

use crate::instance::AssignmentInstance;
use crate::solution::Assignment;
use std::cmp::Ordering;

/// Repair `prev` — a feasible assignment onto a VO of `inst.gsps() + 1`
/// members — after the member at local index `evicted` leaves.
///
/// `inst` is the *new* (restricted) instance over the survivors, whose
/// GSP columns are the previous columns with `evicted` removed (the
/// member order is otherwise preserved, matching
/// `FormationScenario::instance_for` after `Vec::retain`). Survivors
/// keep their tasks; the orphans are re-homed by the greedy placement
/// described at [`rehome`].
///
/// Returns `None` when `prev` does not match the expected shape or when
/// the greedy re-homing cannot produce a fully feasible assignment.
pub fn repair_after_eviction(
    prev: &Assignment,
    evicted: usize,
    inst: &AssignmentInstance,
) -> Option<Assignment> {
    let k = inst.gsps();
    if prev.len() != inst.tasks() || evicted > k {
        return None; // shape mismatch: prev must cover k + 1 GSPs
    }
    let mut gsp_of = Vec::with_capacity(prev.len());
    for &g in prev.as_slice() {
        if g > k {
            return None; // prev referenced a GSP beyond the old VO
        }
        // Columns right of the evicted one shift left by one.
        gsp_of.push(if g == evicted { UNPLACED } else { g - usize::from(g > evicted) });
    }
    place(gsp_of, None, inst)
}

/// Move `tasks` off `holder` onto the other members, leaving every
/// other task where `prev` put it: `holder` is not trusted with them
/// again. `inst` is the instance `prev` assigns onto.
///
/// The placement is greedy: the orphans go largest first (by their
/// fastest possible execution time), each to the cheapest host that
/// can still take it within the deadline, and the result must pass
/// the full feasibility audit. Returns `None` when the shapes disagree
/// or the placement is infeasible.
pub fn rehome(
    prev: &Assignment,
    holder: usize,
    tasks: &[usize],
    inst: &AssignmentInstance,
) -> Option<Assignment> {
    if prev.len() != inst.tasks() {
        return None;
    }
    let mut gsp_of = prev.as_slice().to_vec();
    for &t in tasks {
        *gsp_of.get_mut(t)? = UNPLACED;
    }
    place(gsp_of, Some(holder), inst)
}

/// A task [`place`] still has to find a host for.
const UNPLACED: usize = usize::MAX;

/// The greedy placement behind [`repair_after_eviction`] and
/// [`rehome`]: every `UNPLACED` task gets a host other than `barred`.
fn place(
    mut gsp_of: Vec<usize>,
    barred: Option<usize>,
    inst: &AssignmentInstance,
) -> Option<Assignment> {
    let k = inst.gsps();
    let mut loads = vec![0.0f64; k];
    let mut orphans: Vec<usize> = Vec::new();
    for (t, &g) in gsp_of.iter().enumerate() {
        if g == UNPLACED {
            orphans.push(t);
        } else {
            *loads.get_mut(g)? += inst.time(t, g);
        }
    }
    let hosts = || (0..k).filter(|&g| Some(g) != barred);
    // Largest orphans first (by their fastest possible execution time):
    // they constrain the packing most, so place them while slack lasts.
    let min_time = |t: usize| hosts().map(|g| inst.time(t, g)).fold(f64::INFINITY, f64::min);
    orphans.sort_by(|&a, &b| min_time(b).total_cmp(&min_time(a)));
    for t in orphans {
        // The cheapest host with room left; the lowest index on ties.
        let cost = |g: &usize| inst.cost(t, *g);
        let g = hosts()
            .filter(|&g| loads[g] + inst.time(t, g) <= inst.deadline())
            .min_by(|a, b| cost(a).partial_cmp(&cost(b)).unwrap_or(Ordering::Equal))?;
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }
    // Participation holds automatically when every host already had a
    // task; the full audit also enforces the payment cap (10).
    let a = Assignment::new(gsp_of);
    a.is_feasible(inst).then_some(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 tasks × 3 GSPs with distinct costs; loose constraints.
    fn inst3() -> AssignmentInstance {
        AssignmentInstance::new(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, //
                2.0, 1.0, 3.0, //
                3.0, 2.0, 1.0, //
                1.0, 3.0, 2.0,
            ],
            vec![1.0; 12],
            10.0,
            100.0,
        )
        .unwrap()
    }

    fn drop_column(inst: &AssignmentInstance, evicted: usize) -> AssignmentInstance {
        let keep: Vec<usize> = (0..inst.gsps()).filter(|&g| g != evicted).collect();
        inst.restrict_gsps(&keep).unwrap()
    }

    #[test]
    fn repaired_incumbent_is_feasible_when_slack_exists() {
        let full = inst3();
        // optimal-ish assignment using all three GSPs
        let prev = Assignment::new(vec![0, 1, 2, 0]);
        prev.check_feasible(&full).unwrap();
        for evicted in 0..3 {
            let sub = drop_column(&full, evicted);
            let repaired = repair_after_eviction(&prev, evicted, &sub)
                .unwrap_or_else(|| panic!("evicting {evicted} leaves plenty of slack"));
            repaired.check_feasible(&sub).unwrap();
            // survivors keep their tasks
            for (t, &g_old) in prev.as_slice().iter().enumerate() {
                if g_old == evicted {
                    continue;
                }
                let g_new = if g_old > evicted { g_old - 1 } else { g_old };
                assert_eq!(repaired.gsp_of(t), g_new, "survivor task {t} moved");
            }
        }
    }

    #[test]
    fn orphans_go_to_the_cheapest_feasible_survivor() {
        let full = inst3();
        let prev = Assignment::new(vec![0, 1, 2, 0]);
        // evict GSP 2: task 2 (cost row [3, 2, 1]) is orphaned and must
        // land on survivor 1 (cost 2 < 3).
        let sub = drop_column(&full, 2);
        let repaired = repair_after_eviction(&prev, 2, &sub).unwrap();
        assert_eq!(repaired.gsp_of(2), 1);
    }

    #[test]
    fn deadline_pressure_makes_repair_degrade_to_none() {
        // Two GSPs, each exactly full at the deadline; evicting either
        // leaves no room for its orphans.
        let full = AssignmentInstance::new(
            2,
            2,
            vec![1.0, 1.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0, 2.0],
            2.0,
            100.0,
        )
        .unwrap();
        let prev = Assignment::new(vec![0, 1]);
        prev.check_feasible(&full).unwrap();
        let sub = drop_column(&full, 1);
        assert!(repair_after_eviction(&prev, 1, &sub).is_none());
    }

    #[test]
    fn payment_pressure_makes_repair_degrade_to_none() {
        // Orphan re-homing is time-feasible but busts the payment cap.
        let full =
            AssignmentInstance::new(2, 2, vec![1.0, 50.0, 50.0, 1.0], vec![1.0; 4], 10.0, 52.0)
                .unwrap();
        let prev = Assignment::new(vec![0, 1]); // cost 2
        prev.check_feasible(&full).unwrap();
        // evict GSP 0: both tasks must run on survivor 1 → cost 51 ≤ 52
        let sub = drop_column(&full, 0);
        let ok = repair_after_eviction(&prev, 0, &sub).unwrap();
        assert!((ok.total_cost(&sub) - 51.0).abs() < 1e-12);
        // tighten the payment below 51: repair must give up
        let tight =
            AssignmentInstance::new(2, 1, vec![50.0, 1.0], vec![1.0; 2], 10.0, 40.0).unwrap();
        assert!(repair_after_eviction(&prev, 0, &tight).is_none());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let sub = drop_column(&inst3(), 0);
        // wrong task count
        assert!(repair_after_eviction(&Assignment::new(vec![0, 1]), 0, &sub).is_none());
        // evicted index beyond the old VO (old VO had 3 GSPs → 0..=2)
        let prev = Assignment::new(vec![0, 1, 0, 1]);
        assert!(repair_after_eviction(&prev, 3, &sub).is_none());
        // prev references a GSP the old VO never had
        let bad = Assignment::new(vec![0, 1, 5, 1]);
        assert!(repair_after_eviction(&bad, 0, &sub).is_none());
    }

    #[test]
    fn rehome_moves_tasks_off_the_holder_to_the_cheapest_other_host() {
        let full = inst3();
        let prev = Assignment::new(vec![0, 1, 2, 0]);
        // task 3 (cost row [1, 3, 2]) leaves GSP 0, its cheapest host:
        // it must land on GSP 2, the cheapest of the others.
        let moved = rehome(&prev, 0, &[3], &full).unwrap();
        assert_eq!(moved.as_slice(), &[0, 1, 2, 2]);
        // Moving both of GSP 0's tasks would leave it idle: the audit
        // (participation) rejects that.
        assert!(rehome(&prev, 0, &[0, 3], &full).is_none());
        assert!(rehome(&Assignment::new(vec![0, 1]), 0, &[0], &full).is_none());
        assert!(rehome(&prev, 0, &[9], &full).is_none());
    }

    #[test]
    fn rehome_never_uses_the_holder_even_when_only_it_has_room() {
        // GSP 1 is full at the deadline, so the dropped task fits only
        // back on its holder: the re-homing must fail instead.
        let inst = AssignmentInstance::new(3, 2, vec![1.0; 6], vec![1.0; 6], 2.0, 100.0).unwrap();
        let prev = Assignment::new(vec![0, 1, 1]);
        prev.check_feasible(&inst).unwrap();
        assert!(rehome(&prev, 0, &[0], &inst).is_none());
    }

    #[test]
    fn solver_falls_back_to_heuristic_seed_on_failed_repair() {
        use crate::branch_bound::{BranchBound, Budget, IncumbentSource};
        let full = inst3();
        let sub = drop_column(&full, 2);
        // A deliberately infeasible warm assignment (idle GSP): the
        // solver must ignore it and still solve to optimality.
        let bogus = Assignment::new(vec![0, 0, 0, 0]);
        let cold = BranchBound::default().solve(&sub).unwrap();
        let warm = BranchBound::default()
            .solve_status_with_budget(&sub, Some(&bogus), &Budget::unlimited())
            .into_outcome()
            .unwrap();
        assert_eq!(cold.cost, warm.cost);
        assert!(warm.optimal);
        assert_ne!(warm.incumbent_source, IncumbentSource::Warm);
    }

    #[test]
    fn good_repair_seeds_the_solver_and_never_changes_the_optimum() {
        let full = inst3();
        let opt_full = crate::branch_bound::BranchBound::default().solve(&full).unwrap();
        for evicted in 0..3 {
            let sub = drop_column(&full, evicted);
            let warm = repair_after_eviction(&opt_full.assignment, evicted, &sub);
            let cold = crate::branch_bound::BranchBound::default().solve(&sub).unwrap();
            let seeded = crate::branch_bound::BranchBound::default()
                .solve_status_with_budget(&sub, warm.as_ref(), &crate::Budget::unlimited())
                .into_outcome()
                .unwrap();
            assert!((cold.cost - seeded.cost).abs() < 1e-9);
            assert!(seeded.nodes <= cold.nodes, "warm start expanded more nodes");
        }
    }
}
