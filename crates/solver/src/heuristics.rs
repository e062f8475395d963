//! Inexact assignment heuristics (the Braun et al. family).
//!
//! The paper's cost model follows Braun et al. (JPDC 2001), whose
//! benchmark heuristics — min-min, max-min, sufferage — map independent
//! tasks onto heterogeneous machines. Here they are adapted to the IP's
//! constraint set (deadline per GSP, payment cap, every GSP gets ≥ 1
//! task) and used in three roles:
//!
//! 1. **incumbent seeding** for the branch-and-bound (a good feasible
//!    solution up front makes the cost bound bite immediately);
//! 2. **fast inexact mode** of the VO-formation mechanism for very
//!    large programs;
//! 3. **baselines** in the solver-ablation benches (what exactness buys).
//!
//! Every heuristic returns `Some(assignment)` only if the result passes
//! the full feasibility audit, and `None` otherwise — a heuristic never
//! returns a constraint-violating map.

use crate::bounds::BoundTables;
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;

/// Which heuristic to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// Cheapest-GSP-first with a participation pre-pass.
    GreedyCost,
    /// Min-min on completion time (Braun et al.).
    MinMin,
    /// Max-min on completion time (Braun et al.).
    MaxMin,
    /// Sufferage on completion time (Braun et al.).
    Sufferage,
}

/// Run the chosen heuristic.
pub fn run(kind: Heuristic, inst: &AssignmentInstance) -> Option<Assignment> {
    match kind {
        Heuristic::GreedyCost => greedy_cost(inst),
        Heuristic::MinMin => min_min(inst),
        Heuristic::MaxMin => max_min(inst),
        Heuristic::Sufferage => sufferage(inst),
    }
}

/// Greedy cost heuristic, `O(n·k·log k)`.
///
/// Phase 1 guarantees participation: each GSP grabs the unassigned
/// task it can execute most cheaply. Phase 2 sweeps the remaining
/// tasks in branch order (largest first) onto the cheapest GSP whose
/// deadline slack accepts them.
pub fn greedy_cost(inst: &AssignmentInstance) -> Option<Assignment> {
    greedy_cost_with(inst, &BoundTables::new(inst))
}

/// [`greedy_cost`] over bound tables the caller already built for
/// `inst` (its branch order and cost-sorted children).
pub(crate) fn greedy_cost_with(
    inst: &AssignmentInstance,
    tables: &BoundTables,
) -> Option<Assignment> {
    let n = inst.tasks();
    let k = inst.gsps();
    let d = inst.deadline();

    let mut gsp_of = vec![usize::MAX; n];
    let mut loads = vec![0.0f64; k];

    // Phase 1: one cheapest-feasible task per GSP.
    #[allow(clippy::needless_range_loop)] // g and t each index several arrays
    for g in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for t in 0..n {
            if gsp_of[t] != usize::MAX {
                continue;
            }
            let c = inst.cost(t, g);
            if inst.time(t, g) <= d && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((t, c));
            }
        }
        let (t, _) = best?;
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }

    // Phase 2: remaining tasks, biggest first, cheapest feasible GSP.
    for &t in &tables.order {
        if gsp_of[t] != usize::MAX {
            continue;
        }
        let mut placed = false;
        for &g in tables.children(t, k) {
            let g = g as usize;
            if loads[g] + inst.time(t, g) <= d {
                gsp_of[t] = g;
                loads[g] += inst.time(t, g);
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }

    finish(inst, gsp_of)
}

/// Min-min (Braun et al.): repeatedly assign the task whose best
/// completion time is smallest. `O(n²·k)` — intended for moderate `n`.
pub fn min_min(inst: &AssignmentInstance) -> Option<Assignment> {
    completion_time_sweep(inst, SweepPick::MinOfMins)
}

/// Max-min (Braun et al.): repeatedly assign the task whose best
/// completion time is *largest* (big tasks first). `O(n²·k)`.
pub fn max_min(inst: &AssignmentInstance) -> Option<Assignment> {
    completion_time_sweep(inst, SweepPick::MaxOfMins)
}

/// Sufferage (Braun et al.): repeatedly assign the task that would
/// "suffer" most if denied its best GSP (largest gap between its best
/// and second-best completion times). `O(n²·k)`.
pub fn sufferage(inst: &AssignmentInstance) -> Option<Assignment> {
    completion_time_sweep(inst, SweepPick::Sufferage)
}

#[derive(Clone, Copy)]
enum SweepPick {
    MinOfMins,
    MaxOfMins,
    Sufferage,
}

fn completion_time_sweep(inst: &AssignmentInstance, pick: SweepPick) -> Option<Assignment> {
    let n = inst.tasks();
    let k = inst.gsps();
    let d = inst.deadline();
    let mut gsp_of = vec![usize::MAX; n];
    let mut loads = vec![0.0f64; k];
    let mut unassigned: Vec<usize> = (0..n).collect();

    while !unassigned.is_empty() {
        let mut chosen: Option<(usize, usize, f64)> = None; // (slot, gsp, score)
        for (slot, &t) in unassigned.iter().enumerate() {
            // best and second-best completion times over deadline-feasible GSPs
            let mut best: Option<(usize, f64)> = None;
            let mut second = f64::INFINITY;
            #[allow(clippy::needless_range_loop)] // g indexes loads and the instance
            for g in 0..k {
                let ct = loads[g] + inst.time(t, g);
                if ct > d {
                    continue;
                }
                match best {
                    None => best = Some((g, ct)),
                    Some((_, bct)) if ct < bct => {
                        second = bct;
                        best = Some((g, ct));
                    }
                    Some(_) => second = second.min(ct),
                }
            }
            let (g, bct) = best?; // some task has no feasible GSP: give up
            let score = match pick {
                SweepPick::MinOfMins => -bct, // maximize −ct ⇒ minimize ct
                SweepPick::MaxOfMins => bct,
                SweepPick::Sufferage => {
                    if second.is_finite() {
                        second - bct
                    } else {
                        f64::INFINITY // only one feasible GSP: most urgent
                    }
                }
            };
            if chosen.is_none_or(|(_, _, s)| score > s) {
                chosen = Some((slot, g, score));
            }
        }
        let (slot, g, _) = chosen?;
        let t = unassigned.swap_remove(slot);
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }

    finish(inst, gsp_of)
}

/// Repair participation, then audit. Consumes a complete task→GSP map
/// that may leave GSPs idle; moves the cheapest-detour tasks from
/// multi-task GSPs onto idle ones.
fn finish(inst: &AssignmentInstance, mut gsp_of: Vec<usize>) -> Option<Assignment> {
    let k = inst.gsps();
    let d = inst.deadline();
    let mut counts = vec![0usize; k];
    let mut loads = vec![0.0f64; k];
    for (t, &g) in gsp_of.iter().enumerate() {
        counts[g] += 1;
        loads[g] += inst.time(t, g);
    }
    #[allow(clippy::needless_range_loop)] // g indexes counts and loads together
    for g in 0..k {
        if counts[g] > 0 {
            continue;
        }
        // Move the task whose transfer to g costs least, from a GSP
        // that can spare it, subject to g's deadline.
        let mut best: Option<(usize, f64)> = None;
        for (t, &src) in gsp_of.iter().enumerate() {
            if counts[src] <= 1 {
                continue;
            }
            if loads[g] + inst.time(t, g) > d {
                continue;
            }
            let detour = inst.cost(t, g) - inst.cost(t, src);
            if best.is_none_or(|(_, bd)| detour < bd) {
                best = Some((t, detour));
            }
        }
        let (t, _) = best?;
        let src = gsp_of[t];
        counts[src] -= 1;
        loads[src] -= inst.time(t, src);
        gsp_of[t] = g;
        counts[g] += 1;
        loads[g] += inst.time(t, g);
    }
    let a = Assignment::new(gsp_of);
    a.is_feasible(inst).then_some(a)
}

/// Best available incumbent for branch-and-bound seeding: the cheapest
/// feasible result among the fast heuristics (greedy always; the
/// `O(n²k)` sweeps only on small instances where they are affordable).
pub fn seed_incumbent(inst: &AssignmentInstance) -> Option<Assignment> {
    seed_incumbent_with(inst, &BoundTables::new(inst))
}

/// [`seed_incumbent`] over bound tables the caller already built for
/// `inst`, so a solver that searches with them builds them only once.
pub(crate) fn seed_incumbent_with(
    inst: &AssignmentInstance,
    tables: &BoundTables,
) -> Option<Assignment> {
    let mut best: Option<(Assignment, f64)> = None;
    let mut consider = |a: Option<Assignment>| {
        if let Some(a) = a {
            let c = a.total_cost(inst);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((a, c));
            }
        }
    };
    consider(greedy_cost_with(inst, tables));
    if inst.tasks() <= 512 {
        consider(min_min(inst));
        consider(sufferage(inst));
    }
    best.map(|(a, _)| a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AssignmentInstance {
        // 4 tasks × 2 GSPs; deadline forces a split.
        AssignmentInstance::new(
            4,
            2,
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            vec![2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0],
            3.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn greedy_produces_feasible() {
        let i = tight();
        let a = greedy_cost(&i).expect("feasible exists");
        a.check_feasible(&i).unwrap();
    }

    #[test]
    fn min_min_produces_feasible() {
        let i = tight();
        let a = min_min(&i).expect("feasible exists");
        a.check_feasible(&i).unwrap();
    }

    #[test]
    fn max_min_produces_feasible() {
        let i = tight();
        let a = max_min(&i).expect("feasible exists");
        a.check_feasible(&i).unwrap();
    }

    #[test]
    fn sufferage_produces_feasible() {
        let i = tight();
        let a = sufferage(&i).expect("feasible exists");
        a.check_feasible(&i).unwrap();
    }

    #[test]
    fn impossible_deadline_returns_none() {
        let i = AssignmentInstance::new(2, 2, vec![1.0; 4], vec![10.0; 4], 1.0, 100.0).unwrap();
        for kind in
            [Heuristic::GreedyCost, Heuristic::MinMin, Heuristic::MaxMin, Heuristic::Sufferage]
        {
            assert!(run(kind, &i).is_none(), "{kind:?} must fail on impossible deadline");
        }
    }

    #[test]
    fn payment_violation_returns_none() {
        let i = AssignmentInstance::new(
            2,
            2,
            vec![10.0, 10.0, 10.0, 10.0],
            vec![1.0; 4],
            10.0,
            5.0, // any assignment costs 20 > 5
        )
        .unwrap();
        assert!(greedy_cost(&i).is_none());
        assert!(min_min(&i).is_none());
    }

    #[test]
    fn participation_repair_moves_a_task() {
        // Both tasks are far cheaper on GSP 0; repair must still give
        // GSP 1 one of them.
        let i = AssignmentInstance::new(
            2,
            2,
            vec![1.0, 100.0, 1.0, 100.0],
            vec![1.0, 1.0, 1.0, 1.0],
            10.0,
            1000.0,
        )
        .unwrap();
        let a = min_min(&i).expect("repairable");
        let counts = a.task_counts(&i);
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn seed_incumbent_prefers_cheapest() {
        let i = tight();
        let seed = seed_incumbent(&i).unwrap();
        let g = greedy_cost(&i).unwrap();
        assert!(seed.total_cost(&i) <= g.total_cost(&i) + 1e-12);
    }

    #[test]
    fn heuristics_scale_to_hundreds_of_tasks() {
        // smoke: 300 tasks, 8 GSPs, loose constraints
        let n = 300;
        let k = 8;
        let mut cost = Vec::with_capacity(n * k);
        let mut time = Vec::with_capacity(n * k);
        for t in 0..n {
            for g in 0..k {
                cost.push(1.0 + ((t * 7 + g * 13) % 50) as f64);
                time.push(1.0 + ((t * 3 + g * 5) % 10) as f64);
            }
        }
        let i = AssignmentInstance::new(n, k, cost, time, 1e6, 1e9).unwrap();
        let a = greedy_cost(&i).unwrap();
        a.check_feasible(&i).unwrap();
        let b = min_min(&i).unwrap();
        b.check_feasible(&i).unwrap();
    }
}
