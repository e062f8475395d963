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
//!
//! The public [`min_min`], [`max_min`] and [`sufferage`] always run to
//! the end. Inside the seed portfolio ([`seed_incumbent`]) min-min and
//! sufferage run *bounded*: each gets a cutoff, the cheapest seed so far
//! (and the caller's warm incumbent), and gives up as soon as a running
//! lower bound on its finished cost clears it. A sweep that gives up
//! could only have returned a seed the portfolio would not pick, so the
//! bound changes which work runs, never which seed wins.

use crate::bounds::SeedTables;
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
    greedy_cost_with(inst, &SeedTables::new(inst))
}

/// [`greedy_cost`] over seed tables the caller already built for
/// `inst` (its branch order and cost-sorted children).
pub(crate) fn greedy_cost_with(
    inst: &AssignmentInstance,
    tables: &SeedTables,
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
    completion_time_sweep(inst, SweepPick::MinOfMins, None)
}

/// Max-min (Braun et al.): repeatedly assign the task whose best
/// completion time is *largest* (big tasks first). `O(n²·k)`.
pub fn max_min(inst: &AssignmentInstance) -> Option<Assignment> {
    completion_time_sweep(inst, SweepPick::MaxOfMins, None)
}

/// Sufferage (Braun et al.): repeatedly assign the task that would
/// "suffer" most if denied its best GSP (largest gap between its best
/// and second-best completion times). `O(n²·k)`.
pub fn sufferage(inst: &AssignmentInstance) -> Option<Assignment> {
    completion_time_sweep(inst, SweepPick::Sufferage, None)
}

#[derive(Clone, Copy)]
enum SweepPick {
    MinOfMins,
    MaxOfMins,
    Sufferage,
}

/// Relative margin by which a bounded sweep's running lower bound must
/// clear its cutoff before the sweep gives up. Summing a few hundred
/// non-negative costs in another order moves the last ~1e-13 of the
/// total, so a sweep stops only when its finished cost is certainly
/// above the cutoff.
const SWEEP_MARGIN: f64 = 1e-9;

/// A sweep's cutoff: the cost it must not exceed to be worth finishing,
/// and the tables whose per-task minimum costs its running bound uses.
#[derive(Clone, Copy)]
struct Cutoff<'a> {
    cost: f64,
    tables: &'a SeedTables,
}

/// Run one completion-time sweep. With a `cutoff`, give up (`None`) as
/// soon as a lower bound on the finished cost clears `cutoff.cost` by
/// [`SWEEP_MARGIN`]. The bound is
///
/// ```text
/// Σ_t min_g c(t,g) + Σ_{placed t} excess(t) − idle · max_{placed t} excess(t)
/// ```
///
/// where `excess(t) = c(t, g_t) − min_g c(t,g)` and `idle` counts the
/// GSPs with no task yet. Unplaced tasks cost at least their minimum;
/// [`finish`]'s participation repair moves at most one distinct task
/// onto each GSP idle at the end (never more than `idle` now), and each
/// move saves at most that task's excess.
fn completion_time_sweep(
    inst: &AssignmentInstance,
    pick: SweepPick,
    cutoff: Option<Cutoff>,
) -> Option<Assignment> {
    let n = inst.tasks();
    let k = inst.gsps();
    let d = inst.deadline();
    let mut gsp_of = vec![usize::MAX; n];
    let mut loads = vec![0.0f64; k];
    let mut unassigned: Vec<usize> = (0..n).collect();
    // running bound state: placed excess, its maximum, idle GSPs
    let base = cutoff.map_or(0.0, |c| c.tables.min_cost_sum());
    let (mut excess_sum, mut max_excess, mut idle) = (0.0f64, 0.0f64, k);

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
        if loads[g] == 0.0 {
            idle -= 1; // times are strictly positive: a zero load is an idle GSP
        }
        loads[g] += inst.time(t, g);
        if let Some(cutoff) = cutoff {
            let excess = inst.cost(t, g) - cutoff.tables.min_cost[t];
            excess_sum += excess;
            max_excess = max_excess.max(excess);
            let relief = idle as f64 * max_excess;
            let bound = base + excess_sum - relief;
            if bound - cutoff.cost > SWEEP_MARGIN * (base + excess_sum + relief) {
                return None;
            }
        }
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
/// feasible result among the fast heuristics, the first on a tie
/// (greedy always; the `O(n²k)` min-min and sufferage sweeps only on
/// small instances where they are affordable).
///
/// The sweeps run bounded: each stops at a cutoff, the cheapest seed so
/// far, once a lower bound on its finished cost shows it cannot be
/// cheaper (see the module docs). The seed is the one the unbounded
/// sweeps would give.
pub fn seed_incumbent(inst: &AssignmentInstance) -> Option<Assignment> {
    seed_incumbent_with(inst, &SeedTables::new(inst), None).map(|(a, _)| a)
}

/// [`seed_incumbent`] and its cost, over seed tables the caller
/// already built for `inst`, so a solver that searches with them builds
/// them only once. `warm_cost` is the cost of the caller's feasible warm
/// incumbent, which a heuristic seed displaces only at equal or lower
/// cost: it caps each sweep's cutoff too, and a returned seed dearer
/// than it is one the caller discards.
pub(crate) fn seed_incumbent_with(
    inst: &AssignmentInstance,
    tables: &SeedTables,
    warm_cost: Option<f64>,
) -> Option<(Assignment, f64)> {
    let priced = |a: Assignment| {
        let c = a.total_cost(inst);
        (a, c)
    };
    let mut best = greedy_cost_with(inst, tables).map(priced);
    if inst.tasks() <= 512 {
        for pick in [SweepPick::MinOfMins, SweepPick::Sufferage] {
            let cost = best.as_ref().map_or(f64::INFINITY, |(_, c)| *c);
            let cutoff = Cutoff { cost: warm_cost.map_or(cost, |w| w.min(cost)), tables };
            if let Some((a, c)) = completion_time_sweep(inst, pick, Some(cutoff)).map(priced) {
                if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    best = Some((a, c));
                }
            }
        }
    }
    best
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

    /// A seeded family of small instances: 1–6 GSPs, deadlines from
    /// loose to tight, loose and tight payments.
    fn family() -> Vec<AssignmentInstance> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for k in 1..=6usize {
            for n in [k, k + 2, 2 * k + 5, 3 * k + 9] {
                let cost: Vec<f64> = (0..n * k).map(|_| 1.0 + 99.0 * unit()).collect();
                let time: Vec<f64> = (0..n * k).map(|_| 0.5 + 9.5 * unit()).collect();
                let probe = AssignmentInstance::new(n, k, cost.clone(), time.clone(), 1.0, 1.0)
                    .expect("valid shape");
                let min_time: f64 = (0..n).map(|t| probe.min_time(t)).sum();
                let min_cost = probe.min_cost_sum();
                for slack in [1e3, 2.0, 1.3] {
                    for pay in [1e9, 1.3 * min_cost + 30.0 * k as f64] {
                        let d = slack * min_time / k as f64;
                        out.push(
                            AssignmentInstance::new(n, k, cost.clone(), time.clone(), d, pay)
                                .expect("valid instance"),
                        );
                    }
                }
            }
        }
        out
    }

    #[test]
    fn bounded_sweeps_give_up_only_on_seeds_that_cannot_win() {
        let mut gave_up = 0;
        for inst in family() {
            let tables = SeedTables::new(&inst);
            let greedy = greedy_cost(&inst).map(|a| a.total_cost(&inst));
            for pick in [SweepPick::MinOfMins, SweepPick::Sufferage] {
                let full = completion_time_sweep(&inst, pick, None);
                let full_cost = full.as_ref().map(|a| a.total_cost(&inst));
                // Cutoffs from a cheaper greedy or warm seed, a tie, a
                // hair on either side of the sweep's own cost, and none.
                let mut cutoffs = vec![0.0, f64::INFINITY];
                cutoffs.extend(greedy);
                if let Some(c) = full_cost {
                    cutoffs.extend([c, c * (1.0 - 1e-6), c * (1.0 + 1e-6), c - 1.0, c + 1.0]);
                }
                for cost in cutoffs {
                    let bounded =
                        completion_time_sweep(&inst, pick, Some(Cutoff { cost, tables: &tables }));
                    match bounded {
                        Some(a) => assert_eq!(Some(a), full, "a finished sweep is the full sweep"),
                        None => {
                            gave_up += usize::from(full.is_some());
                            assert!(
                                full_cost.is_none_or(|c| c > cost),
                                "gave up below the cutoff {cost}: full sweep costs {full_cost:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(gave_up > 100, "the bound must bite on this family ({gave_up} give-ups)");
    }

    #[test]
    fn bounded_portfolio_picks_what_the_full_portfolio_picks() {
        // The reference: greedy, then the full sweeps, the first
        // cheapest wins; a warm incumbent wins only when strictly
        // cheaper than that.
        let pick = |seed: Option<(Assignment, f64)>, warm: Option<f64>| match (seed, warm) {
            (Some((_, hc)), Some(w)) if w < hc => None,
            (seed, _) => seed,
        };
        let mut sweep_wins = 0;
        for inst in family() {
            let tables = SeedTables::new(&inst);
            let greedy = greedy_cost(&inst);
            let greedy_cost = greedy.as_ref().map_or(f64::INFINITY, |a| a.total_cost(&inst));
            let mut full: Option<(Assignment, f64)> = None;
            for a in [greedy, min_min(&inst), sufferage(&inst)].into_iter().flatten() {
                let c = a.total_cost(&inst);
                if full.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    full = Some((a, c));
                }
            }
            sweep_wins += usize::from(full.as_ref().is_some_and(|(_, c)| *c < greedy_cost));
            let mut warms = vec![None, Some(0.0), Some(f64::MAX)];
            if let Some((_, c)) = &full {
                warms.extend([Some(*c), Some(c * (1.0 - 1e-6)), Some(c * (1.0 + 1e-6))]);
            }
            for a in [min_min(&inst), sufferage(&inst)].into_iter().flatten() {
                warms.push(Some(a.total_cost(&inst)));
            }
            for warm in warms {
                let bounded = seed_incumbent_with(&inst, &tables, warm);
                assert_eq!(pick(bounded, warm), pick(full.clone(), warm), "warm cost {warm:?}");
            }
        }
        assert!(sweep_wins > 0, "some sweep must beat greedy on this family");
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
