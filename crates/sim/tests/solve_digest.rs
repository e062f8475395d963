//! Byte pin of the exact solver: every `SolveStatus` that
//! `BranchBound::solve_status_with_budget` returns over a fixed
//! instance family folds into one FNV-1a digest of its variant, node
//! count, assignment, cost, `optimal` flag, incumbent source, lower
//! bound, gap and deadline flag (floats by their bits).
//!
//! The family is a seeded grid of small instances (1–8 GSPs; loose,
//! binding, tight and aggregate-infeasible deadlines; loose and tight
//! payments) plus the daemon benchmark's pool — Table-I 8 GSPs × 32
//! tasks drawn from seed 8, deadline and payment widened ×3 — with each
//! of its 255 sub-coalitions. Every instance is solved cold and from
//! two feasible warm seeds (its cold optimum and its max-min
//! assignment) at node caps 0, 1, 100 and the default. A change to the
//! solver's root step or search must leave the digest unchanged.

use gridvo_core::FormationScenario;
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_solver::branch_bound::SolveStatus;
use gridvo_solver::{heuristics, Assignment, AssignmentInstance, BranchBound, Budget};
use rand::SeedableRng;

const CAPS: [u64; 4] = [0, 1, 100, 50_000_000];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }

    fn status(&mut self, s: &SolveStatus) {
        match s {
            SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => {
                self.u64(if matches!(s, SolveStatus::Optimal(_)) { 0 } else { 1 });
                self.u64(o.nodes);
                self.u64(o.assignment.len() as u64);
                for &g in o.assignment.as_slice() {
                    self.u64(g as u64);
                }
                self.f64(o.cost);
                self.u64(u64::from(o.optimal));
                self.bytes(o.incumbent_source.as_str().as_bytes());
                self.opt_f64(o.lower_bound);
                self.opt_f64(o.gap);
                self.u64(u64::from(o.deadline_hit));
            }
            SolveStatus::Infeasible { nodes } => {
                self.u64(2);
                self.u64(*nodes);
            }
            SolveStatus::Unknown { nodes } => {
                self.u64(3);
                self.u64(*nodes);
            }
        }
    }
}

/// How many statuses of each kind the family produced, so a family
/// that stops reaching a path fails loudly instead of pinning less.
#[derive(Debug, Default)]
struct Tally {
    optimal: usize,
    feasible: usize,
    infeasible: usize,
    unknown: usize,
    searched_optimal: usize,
    warm_source: usize,
    /// Instances where min-min or sufferage seeds cheaper than greedy.
    sweep_wins: usize,
}

/// Solve `inst` cold and from each feasible warm seed at every cap,
/// folding each status into `h`.
fn fold(inst: &AssignmentInstance, h: &mut Fnv, tally: &mut Tally) {
    let cost = |a: Option<Assignment>| a.map(|a| a.total_cost(inst));
    let greedy = cost(heuristics::greedy_cost(inst)).unwrap_or(f64::INFINITY);
    let sweep = [cost(heuristics::min_min(inst)), cost(heuristics::sufferage(inst))];
    tally.sweep_wins += usize::from(sweep.iter().flatten().any(|&c| c < greedy));
    let default = BranchBound::default();
    let optimum = default.solve(inst).map(|o| o.assignment);
    let warms: Vec<Assignment> = optimum
        .into_iter()
        .chain(heuristics::max_min(inst))
        .filter(|a| a.is_feasible(inst))
        .collect();
    for max_nodes in CAPS {
        let solver = BranchBound { max_nodes };
        for warm in std::iter::once(None).chain(warms.iter().map(Some)) {
            let status = solver.solve_status_with_budget(inst, warm, &Budget::unlimited());
            h.status(&status);
            match &status {
                SolveStatus::Optimal(o) => {
                    tally.optimal += 1;
                    tally.searched_optimal += usize::from(o.nodes > 0);
                    tally.warm_source += usize::from(o.incumbent_source.as_str() == "warm");
                }
                SolveStatus::Feasible(o) => {
                    tally.feasible += 1;
                    tally.warm_source += usize::from(o.incumbent_source.as_str() == "warm");
                }
                SolveStatus::Infeasible { .. } => tally.infeasible += 1,
                SolveStatus::Unknown { .. } => tally.unknown += 1,
            }
        }
    }
}

/// Deterministic xorshift stream for the synthetic family.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The synthetic grid: for each GSP count 1–8, a few task counts, each
/// under four deadline regimes and two payment regimes. Costs and
/// times are inconsistent (no GSP dominates), as in Braun's matrices.
fn synthetic() -> Vec<AssignmentInstance> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::new();
    for k in 1..=8usize {
        for n in [k, k + 3, k + 7, k + 12] {
            let cost: Vec<f64> = (0..n * k).map(|_| 1.0 + 99.0 * rng.unit()).collect();
            let time: Vec<f64> = (0..n * k).map(|_| 0.5 + 9.5 * rng.unit()).collect();
            let min_time: f64 = (0..n)
                .map(|t| time[t * k..(t + 1) * k].iter().cloned().fold(f64::INFINITY, f64::min))
                .sum();
            let max_time: f64 =
                (0..n).map(|t| time[t * k..(t + 1) * k].iter().cloned().fold(0.0, f64::max)).sum();
            let min_cost: f64 = (0..n)
                .map(|t| cost[t * k..(t + 1) * k].iter().cloned().fold(f64::INFINITY, f64::min))
                .sum();
            let deadlines = [
                max_time,                   // loose: any assignment meets it
                2.0 * min_time / k as f64,  // binding: the cheapest GSPs overflow
                1.15 * min_time / k as f64, // tight: little slack per GSP
                0.9 * min_time / k as f64,  // aggregate-infeasible: Σ min time > k·d
            ];
            let payments = [1e6, 1.25 * min_cost + 20.0 * k as f64];
            for d in deadlines {
                for p in payments {
                    let inst = AssignmentInstance::new(n, k, cost.clone(), time.clone(), d, p)
                        .expect("synthetic instance is valid");
                    out.push(inst);
                }
            }
        }
    }
    out
}

/// The daemon benchmark's provider pool (`gvbench/src/pool.rs`):
/// Table-I 8 GSPs × 32 tasks from seed 8, deadline and payment ×3.
fn bench_pool() -> FormationScenario {
    const SLACK: f64 = 3.0;
    let cfg = TableI { gsps: 8, task_sizes: vec![32], ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let drawn = ScenarioGenerator::new(cfg).scenario(32, &mut rng).expect("pool draws");
    let inst = drawn.instance();
    let (mut cost, mut time) = (Vec::new(), Vec::new());
    for t in 0..inst.tasks() {
        cost.extend_from_slice(inst.cost_row(t));
        time.extend_from_slice(inst.time_row(t));
    }
    let widened = AssignmentInstance::new(
        inst.tasks(),
        inst.gsps(),
        cost,
        time,
        inst.deadline() * SLACK,
        inst.payment() * SLACK,
    )
    .expect("widened pool is valid");
    FormationScenario::new(drawn.gsps().to_vec(), drawn.trust().clone(), widened)
        .expect("pool scenario is valid")
}

#[test]
fn synthetic_family_solves_are_pinned() {
    let mut h = Fnv::new();
    let mut tally = Tally::default();
    let family = synthetic();
    assert_eq!(family.len(), 256);
    for inst in &family {
        fold(inst, &mut h, &mut tally);
    }
    assert!(
        tally.optimal > 0
            && tally.feasible > 0
            && tally.infeasible > 0
            && tally.unknown > 0
            && tally.searched_optimal > 0
            && tally.warm_source > 0
            && tally.sweep_wins > 0,
        "the family must reach every status: {tally:?}"
    );
    assert_eq!(h.0, 0x063c_e27a_79b0_44d6, "synthetic solve digest {:#018x} ({tally:?})", h.0);
}

#[test]
fn bench_pool_sub_coalition_solves_are_pinned() {
    let pool = bench_pool();
    assert_eq!((pool.gsp_count(), pool.task_count()), (8, 32));
    let mut h = Fnv::new();
    let mut tally = Tally::default();
    for mask in 1u32..256 {
        let members: Vec<usize> = (0..8).filter(|g| mask & (1 << g) != 0).collect();
        let inst = pool.instance_for(&members).expect("every sub-coalition can host 32 tasks");
        fold(&inst, &mut h, &mut tally);
    }
    assert!(
        tally.optimal > 0 && tally.infeasible > 0 && tally.searched_optimal > 0,
        "the pool must reach certified, searched and infeasible solves: {tally:?}"
    );
    assert_eq!(h.0, 0xec9a_002b_c1dc_6300, "bench pool solve digest {:#018x} ({tally:?})", h.0);
}
