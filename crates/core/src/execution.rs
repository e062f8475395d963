//! VO execution under injected faults, and the recovery policy.
//!
//! Formation (Algorithm 1) selects a VO; this module *runs* it. A
//! [`FaultPlan`] — a deterministic, pre-drawn schedule of member
//! faults — is replayed against the selected VO round by round:
//!
//! * **crash** — the member disappears; its tasks are orphaned;
//! * **slowdown** — the member's execution times are multiplied by a
//!   factor, eating deadline slack;
//! * **silent drop** — the member quietly fails to execute some of its
//!   tasks, which must be redone elsewhere.
//!
//! Recovery is one ladder over the live VO, with two moves: a
//! **re-solve in place** of the members' IP with the mechanism's
//! solver, and an **eviction** — drop the member, greedily re-home its
//! tasks onto the survivors ([`repair::repair_after_eviction`]), else
//! re-solve over them, else **abandon**: the program cannot be
//! completed. A crash evicts. A slowdown the deadline slack cannot
//! absorb re-solves in place, then evicts. A silent drop of all the
//! member holds evicts; a partial one re-homes the dropped tasks off
//! the member ([`repair::rehome`]), else re-solves in place. After
//! every recovery the power method re-runs on the surviving trust
//! subgraph, so post-failure reputations are part of the telemetry.
//!
//! The key invariant (asserted by `tests/differential_faults.rs`):
//! executing against an **empty** fault plan is bit-identical to the
//! formation output — no solver call, no re-costing, no RNG draw.

use crate::mechanism::Mechanism;
use crate::scenario::FormationScenario;
use crate::vo::VoRecord;
use crate::{CoreError, Result};
use gridvo_solver::{repair, Assignment, AssignmentInstance, Budget};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What goes wrong with one GSP in one execution round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultKind {
    /// The GSP disappears; all of its tasks are orphaned and it can
    /// never rejoin the VO.
    Crash,
    /// The GSP's execution times are multiplied by `factor` (> 1 slows
    /// it down). Factors compound across rounds.
    Slowdown {
        /// Multiplicative time factor (finite, > 0).
        factor: f64,
    },
    /// The GSP silently drops its first `tasks` assigned tasks; they
    /// must be re-executed. Dropping everything it holds is treated as
    /// a crash (the member contributed nothing).
    SilentDrop {
        /// Number of the member's tasks dropped (≥ 1).
        tasks: usize,
    },
}

/// One scheduled fault: `gsp` suffers `kind` in execution round
/// `round`. Events targeting GSPs no longer in the VO are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Execution round (0-based) at which the fault strikes.
    pub round: usize,
    /// Global id of the faulted GSP.
    pub gsp: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: the full list of faults an
/// execution will face, drawn up front (seeded) so replays are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawFaultPlan")]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Serde shadow: decoding sorts the events through [`FaultPlan::new`].
#[derive(Deserialize)]
struct RawFaultPlan {
    events: Vec<FaultEvent>,
}

impl From<RawFaultPlan> for FaultPlan {
    fn from(raw: RawFaultPlan) -> Self {
        FaultPlan::new(raw.events)
    }
}

impl FaultPlan {
    /// Build a plan from events, stably sorted by round (events within
    /// a round keep their given order — the replay order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.round);
        FaultPlan { events }
    }

    /// The no-fault plan.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Whether the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of execution rounds the plan spans (`last round + 1`;
    /// 0 for the empty plan).
    pub fn horizon(&self) -> usize {
        self.events.iter().map(|e| e.round + 1).max().unwrap_or(0)
    }

    /// All events, sorted by round.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events striking in one round, in replay order.
    pub fn events_at(&self, round: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.round == round)
    }
}

/// How one fault was absorbed (the per-recovery `recovery_kind`
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RecoveryKind {
    /// The fault required no reassignment (e.g. a slowdown within the
    /// current assignment's deadline slack).
    Absorbed,
    /// Greedy repair re-homed the affected tasks onto survivors.
    Repair,
    /// The reduced IP was re-solved from scratch.
    Resolve,
    /// No feasible recovery existed: the VO disbands.
    Abandon,
}

impl RecoveryKind {
    /// Stable lower-case name (also the serialized form).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Absorbed => "absorbed",
            RecoveryKind::Repair => "repair",
            RecoveryKind::Resolve => "resolve",
            RecoveryKind::Abandon => "abandon",
        }
    }
}

/// Telemetry of one fault-recovery episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Execution round of the fault.
    pub round: usize,
    /// Global id of the faulted GSP.
    pub gsp: usize,
    /// The fault itself.
    pub fault: FaultKind,
    /// How (whether) execution recovered.
    pub recovery_kind: RecoveryKind,
    /// Tasks that had to move (0 for absorbed slowdowns).
    pub orphaned_tasks: usize,
    /// Total assignment cost before the fault.
    pub cost_before: f64,
    /// Total assignment cost after recovery (= `cost_before` when the
    /// VO was abandoned or the fault was absorbed).
    pub cost_after: f64,
    /// `cost_after − cost_before` — the repair cost delta.
    pub cost_delta: f64,
    /// Branch-and-bound nodes expanded by re-solves during this
    /// recovery (0 for pure repairs and absorbed faults).
    pub resolve_nodes: u64,
    /// VO size after the recovery.
    pub survivors: usize,
    /// Average reputation of the surviving members, re-computed on
    /// the surviving trust subgraph (the power method re-runs after
    /// every recovery).
    pub avg_reputation_after: f64,
    /// Wall-clock seconds this recovery took (recovery latency).
    pub seconds: f64,
}

/// Terminal state of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum ExecutionStatus {
    /// Every fault was recovered (or none struck); the program ran to
    /// completion.
    Completed {
        /// Whether any fault forced a reassignment or membership
        /// change (degraded-but-feasible).
        degraded: bool,
    },
    /// A fault could not be recovered; the VO disbanded in `round`.
    Abandoned {
        /// Round of the unrecoverable fault.
        round: usize,
    },
}

/// Full result of executing a selected VO against a fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Members at the start of execution (the selected VO).
    pub initial_members: Vec<usize>,
    /// Members still standing at the end.
    pub final_members: Vec<usize>,
    /// Assignment cost at the start (the formation optimum).
    pub initial_cost: f64,
    /// Assignment cost at the end (last feasible cost when abandoned).
    pub final_cost: f64,
    /// Per-member payoff share at the start.
    pub initial_payoff_share: f64,
    /// Per-member payoff share at the end (0 when abandoned).
    pub final_payoff_share: f64,
    /// `final_payoff_share / initial_payoff_share` (1 for fault-free
    /// runs, 0 when abandoned).
    pub payoff_retention: f64,
    /// The final task assignment onto `final_members` (local indices);
    /// `None` when the VO was abandoned.
    pub final_assignment: Option<Assignment>,
    /// Accumulated per-GSP slowdown factors (global ids; 1.0 =
    /// unslowed). Together with `final_members` this reconstructs the
    /// instance the final assignment must be feasible on.
    pub time_factors: Vec<f64>,
    /// One record per fault that struck a live member, in replay
    /// order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Terminal state.
    pub status: ExecutionStatus,
    /// Execution rounds replayed (the plan's horizon).
    pub rounds: usize,
    /// Wall-clock seconds for the whole execution phase.
    pub total_seconds: f64,
}

impl ExecutionReport {
    /// Whether the program ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self.status, ExecutionStatus::Completed { .. })
    }

    /// Faults that were successfully recovered (everything but
    /// abandonment).
    pub fn recovered_count(&self) -> usize {
        self.recoveries.iter().filter(|r| r.recovery_kind != RecoveryKind::Abandon).count()
    }

    /// Zero every wall-clock timing field, leaving only the
    /// deterministic content. Served responses are canonicalized this
    /// way so identical requests are byte-identical (and cache replays
    /// indistinguishable from fresh solves).
    pub fn zero_timings(&mut self) {
        self.total_seconds = 0.0;
        for r in &mut self.recoveries {
            r.seconds = 0.0;
        }
    }

    /// Derive the execution receipts this report attests to:
    ///
    /// * one **failure** receipt per non-absorbed recovery (the
    ///   faulted GSP misbehaved; absorbed slowdowns never surfaced),
    ///   witnessed by the other initial members and weighted by the
    ///   payoff share that was at stake when execution started;
    /// * one **success** receipt per final member when the program
    ///   completed, witnessed by its final co-members and weighted by
    ///   the payoff share actually earned.
    ///
    /// Purely a projection of the report — deterministic, no RNG —
    /// so replaying an execution replays its receipts bit-for-bit.
    pub fn receipts(&self) -> Vec<ExecutionReceipt> {
        let mut out = Vec::new();
        for rec in &self.recoveries {
            if rec.recovery_kind == RecoveryKind::Absorbed {
                continue;
            }
            let witnesses: Vec<usize> =
                self.initial_members.iter().copied().filter(|&g| g != rec.gsp).collect();
            out.push(ExecutionReceipt::new(
                rec.round,
                rec.gsp,
                false,
                self.initial_payoff_share.max(0.0),
                witnesses,
            ));
        }
        if self.completed() {
            for &g in &self.final_members {
                let witnesses: Vec<usize> =
                    self.final_members.iter().copied().filter(|&w| w != g).collect();
                out.push(ExecutionReceipt::new(
                    self.rounds,
                    g,
                    true,
                    self.final_payoff_share.max(0.0),
                    witnesses,
                ));
            }
        }
        out
    }
}

/// A signed-shape attestation of one GSP's conduct in one execution
/// round: who (`gsp`), what (`success`), how much was at stake
/// (`reward`), who can attest (`witnesses`), sealed by a content
/// `digest` standing in for a signature. Receipts feed
/// [`gridvo_trust::beta::BetaLedger`]: every witness contributes one
/// reward-weighted Beta observation about the subject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReceipt {
    /// Execution round the conduct was observed in.
    pub round: usize,
    /// Global id of the GSP the receipt is about.
    pub gsp: usize,
    /// Delivered (`true`) or failed (`false`).
    pub success: bool,
    /// Task reward backing the observation (≥ 0); the Beta update
    /// weighs the evidence by `reward / (reward + mean reward)`.
    pub reward: f64,
    /// Co-members attesting to the conduct (never includes `gsp`).
    pub witnesses: Vec<usize>,
    /// FNV-1a content digest over every other field — the
    /// signature-shaped seal. [`ExecutionReceipt::verify`] recomputes
    /// it; a mismatch means the receipt was tampered with or
    /// hand-rolled incorrectly.
    pub digest: u64,
}

impl ExecutionReceipt {
    /// Build a receipt and seal it with its content digest.
    pub fn new(
        round: usize,
        gsp: usize,
        success: bool,
        reward: f64,
        witnesses: Vec<usize>,
    ) -> Self {
        let digest = Self::digest_of(round, gsp, success, reward, &witnesses);
        ExecutionReceipt { round, gsp, success, reward, witnesses, digest }
    }

    /// The content digest a well-formed receipt must carry.
    pub fn digest_of(
        round: usize,
        gsp: usize,
        success: bool,
        reward: f64,
        witnesses: &[usize],
    ) -> u64 {
        let mut h = gridvo_solver::instance::Fnv1a::new();
        h.write(b"execution-receipt-v1");
        h.write_u64(round as u64);
        h.write_u64(gsp as u64);
        h.write_u64(success as u64);
        h.write_f64(reward);
        h.write_u64(witnesses.len() as u64);
        for &w in witnesses {
            h.write_u64(w as u64);
        }
        // Masked to 63 bits: journals hold masked digests, which
        // `verify` must keep accepting (the wire itself carries any u64).
        h.finish() & (i64::MAX as u64)
    }

    /// Whether the carried digest matches the content.
    pub fn verify(&self) -> bool {
        self.digest
            == Self::digest_of(self.round, self.gsp, self.success, self.reward, &self.witnesses)
    }

    /// Fold this receipt into a Beta ledger: one reward-weighted
    /// observation about `gsp` per witness. Receipts with no
    /// witnesses (single-member VOs) fold nothing.
    pub fn fold_into(
        &self,
        ledger: &mut gridvo_trust::beta::BetaLedger,
    ) -> gridvo_trust::Result<()> {
        for &w in &self.witnesses {
            ledger.observe(w, self.gsp, self.reward, self.success)?;
        }
        Ok(())
    }
}

/// The VO while it executes: the state every recovery rung acts on.
struct LiveVo<'a> {
    mechanism: &'a Mechanism,
    scenario: &'a FormationScenario,
    members: Vec<usize>,
    assignment: Assignment,
    cost: f64,
    /// Accumulated slowdown factor per GSP (global ids).
    time_factors: Vec<f64>,
    /// Nodes spent by the re-solves of the recovery in progress.
    resolve_nodes: u64,
}

impl LiveVo<'_> {
    /// The instance `members` face under the accumulated slowdowns.
    fn instance(&self, members: &[usize]) -> Option<AssignmentInstance> {
        let factors: Vec<f64> = members.iter().map(|&g| self.time_factors[g]).collect();
        self.scenario.instance_for(members)?.scale_gsp_times(&factors).ok()
    }

    /// Re-solve `inst` with the mechanism's solver and adopt the
    /// optimum, if there is one; its nodes count either way.
    fn resolve(&mut self, inst: &AssignmentInstance) -> bool {
        let report = self.mechanism.solve_instance(inst, None, &Budget::unlimited());
        self.resolve_nodes += report.nodes;
        let Some((a, c, _)) = report.solved else { return false };
        (self.assignment, self.cost) = (a, c);
        true
    }

    /// Adopt a greedy `repaired` assignment on `inst`, else re-solve
    /// `inst`. Returns the rung that recovered, if any.
    fn recover(
        &mut self,
        repaired: Option<Assignment>,
        inst: &AssignmentInstance,
    ) -> Option<RecoveryKind> {
        if let Some(a) = repaired {
            (self.cost, self.assignment) = (a.total_cost(inst), a);
            return Some(RecoveryKind::Repair);
        }
        self.resolve(inst).then_some(RecoveryKind::Resolve)
    }

    /// Drop the member at `local` and recover on the survivors. `None`
    /// leaves the VO untouched: it is abandoned.
    fn evict(&mut self, local: usize) -> Option<RecoveryKind> {
        let mut survivors = self.members.clone();
        survivors.remove(local);
        let inst = self.instance(&survivors)?;
        let kind =
            self.recover(repair::repair_after_eviction(&self.assignment, local, &inst), &inst)?;
        self.members = survivors;
        Some(kind)
    }
}

impl Mechanism {
    /// Execute a selected VO against a fault plan.
    ///
    /// Deterministic: consumes no RNG — the plan *is* the randomness,
    /// drawn up front. With an empty plan the report echoes the VO
    /// bit-identically (no solve, no re-costing).
    pub fn execute(
        &self,
        scenario: &FormationScenario,
        vo: &VoRecord,
        plan: &FaultPlan,
    ) -> Result<ExecutionReport> {
        use RecoveryKind::{Abandon, Absorbed, Resolve};
        let started = Instant::now();
        let mut live = LiveVo {
            mechanism: self,
            scenario,
            members: vo.members.clone(),
            assignment: vo.assignment.clone(),
            cost: vo.cost,
            time_factors: vec![1.0f64; scenario.gsp_count()],
            resolve_nodes: 0,
        };
        let lost = || CoreError::EmptyVo { context: "live VO lost its instance" };
        let mut recoveries: Vec<RecoveryRecord> = Vec::new();
        let mut abandoned_in: Option<usize> = None;
        let rounds = plan.horizon();

        'rounds: for round in 0..rounds {
            for ev in plan.events_at(round) {
                // Faults on GSPs outside the VO (never members, or
                // already crashed) hit nobody.
                let Some(local) = live.members.iter().position(|&m| m == ev.gsp) else {
                    continue;
                };
                let rec_started = Instant::now();
                let cost_before = live.cost;
                live.resolve_nodes = 0;
                let held = live.assignment.tasks_of(local);
                let (kind, orphaned) = match ev.kind {
                    FaultKind::Crash => (live.evict(local).unwrap_or(Abandon), held.len()),
                    FaultKind::Slowdown { factor } => {
                        if !factor.is_finite() || factor <= 0.0 {
                            continue; // malformed event: no fault occurs
                        }
                        live.time_factors[ev.gsp] *= factor;
                        let inst = live.instance(&live.members).ok_or_else(lost)?;
                        if live.assignment.is_feasible(&inst) {
                            (Absorbed, 0)
                        } else if live.resolve(&inst) {
                            (Resolve, 0)
                        } else {
                            // The slowed member must go; whichever rung
                            // then recovers, the record says `resolve`.
                            (live.evict(local).map_or(Abandon, |_| Resolve), held.len())
                        }
                    }
                    FaultKind::SilentDrop { tasks } => {
                        let dropped = tasks.min(held.len());
                        if dropped == 0 {
                            continue; // malformed event: nothing dropped
                        }
                        let kind = if dropped == held.len() {
                            // Delivered nothing: same as a crash.
                            live.evict(local).unwrap_or(Abandon)
                        } else {
                            // A partial drop never evicts: re-home the
                            // dropped tasks off the dropper, else re-solve
                            // (which may trust it with them again).
                            let inst = live.instance(&live.members).ok_or_else(lost)?;
                            let rehomed =
                                repair::rehome(&live.assignment, local, &held[..dropped], &inst);
                            live.recover(rehomed, &inst).unwrap_or(Abandon)
                        };
                        (kind, dropped)
                    }
                };
                let reputation = self.config.reputation.compute_with_start(
                    scenario.trust(),
                    &live.members,
                    None,
                )?;
                recoveries.push(RecoveryRecord {
                    round,
                    gsp: ev.gsp,
                    fault: ev.kind,
                    recovery_kind: kind,
                    orphaned_tasks: orphaned,
                    cost_before,
                    cost_after: live.cost,
                    cost_delta: live.cost - cost_before,
                    resolve_nodes: live.resolve_nodes,
                    survivors: live.members.len(),
                    avg_reputation_after: reputation.average,
                    seconds: rec_started.elapsed().as_secs_f64(),
                });
                if kind == RecoveryKind::Abandon {
                    abandoned_in = Some(round);
                    break 'rounds;
                }
            }
        }

        let LiveVo { members, assignment, cost, time_factors, .. } = live;
        let degraded = recoveries.iter().any(|r| r.recovery_kind != RecoveryKind::Absorbed);
        let status = match abandoned_in {
            Some(round) => ExecutionStatus::Abandoned { round },
            None => ExecutionStatus::Completed { degraded },
        };
        // Fault-free completions echo the VO's own payoff bitwise; the
        // general formula below is algebraically identical but keeping
        // the stored value makes the empty-plan invariant unmissable.
        let final_payoff_share = match status {
            ExecutionStatus::Abandoned { .. } => 0.0,
            ExecutionStatus::Completed { .. } if recoveries.is_empty() => vo.payoff_share,
            ExecutionStatus::Completed { .. } => scenario.payoff(cost, members.len()).1,
        };
        let payoff_retention =
            if vo.payoff_share > 0.0 { final_payoff_share / vo.payoff_share } else { 1.0 };
        Ok(ExecutionReport {
            initial_members: vo.members.clone(),
            final_members: members,
            initial_cost: vo.cost,
            final_cost: cost,
            initial_payoff_share: vo.payoff_share,
            final_payoff_share,
            payoff_retention,
            final_assignment: if abandoned_in.is_none() { Some(assignment) } else { None },
            time_factors,
            recoveries,
            status,
            rounds,
            total_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsp::Gsp;
    use crate::mechanism::FormationConfig;
    use gridvo_trust::TrustGraph;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    /// 4 GSPs, 8 tasks, mutual trust among 0–2; loose constraints so
    /// recoveries have room to work.
    fn scenario(deadline: f64, payment: f64) -> FormationScenario {
        let gsps: Vec<Gsp> = (0..4).map(|i| Gsp::new(i, 100.0 - 10.0 * i as f64)).collect();
        let n = 8;
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..4usize {
                cost.push(1.0 + (t % 3) as f64 + g as f64 * 0.5);
                time.push(1.0 + 0.2 * g as f64);
            }
        }
        let inst = AssignmentInstance::new(n, 4, cost, time, deadline, payment).unwrap();
        let mut trust = TrustGraph::new(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    trust.set_trust(i, j, 1.0);
                }
            }
        }
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    fn formed_vo(s: &FormationScenario) -> VoRecord {
        let mut rng = TestRng::seed_from_u64(7);
        Mechanism::tvof(FormationConfig::default())
            .run(s, &mut rng)
            .unwrap()
            .selected
            .expect("feasible scenario")
    }

    /// The grand-coalition VO at its brute-force optimum — formation
    /// may select a smaller VO (better payoff share), but the fault
    /// tests want several members so recovery has survivors to use.
    fn full_vo(s: &FormationScenario) -> VoRecord {
        let members: Vec<usize> = (0..s.gsp_count()).collect();
        let inst = s.instance_for(&members).unwrap();
        let (assignment, cost) =
            gridvo_solver::brute::solve(&inst).unwrap().expect("loose constraints");
        let value = (s.payment() - cost).max(0.0);
        VoRecord {
            members: members.clone(),
            assignment,
            cost,
            value,
            payoff_share: value / members.len() as f64,
            avg_reputation: 1.0,
            optimal: true,
            gap: Some(0.0),
        }
    }

    #[test]
    fn empty_plan_is_a_pure_pass_through() {
        let s = scenario(20.0, 200.0);
        let vo = formed_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        let report = mech.execute(&s, &vo, &FaultPlan::empty()).unwrap();
        assert_eq!(report.status, ExecutionStatus::Completed { degraded: false });
        assert_eq!(report.final_members, vo.members);
        assert_eq!(report.final_cost.to_bits(), vo.cost.to_bits());
        assert_eq!(report.final_payoff_share.to_bits(), vo.payoff_share.to_bits());
        assert_eq!(report.final_assignment.as_ref(), Some(&vo.assignment));
        assert!(report.recoveries.is_empty());
        assert_eq!(report.payoff_retention, 1.0);
        assert_eq!(report.rounds, 0);
        assert!(report.time_factors.iter().all(|&f| f == 1.0));
    }

    #[test]
    fn crash_is_recovered_and_telemetry_recorded() {
        let s = scenario(20.0, 200.0);
        let vo = full_vo(&s);
        let crashed = vo.members[0];
        let mech = Mechanism::tvof(FormationConfig::default());
        let plan =
            FaultPlan::new(vec![FaultEvent { round: 0, gsp: crashed, kind: FaultKind::Crash }]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert!(report.completed(), "plenty of slack to recover: {:?}", report.status);
        assert!(!report.final_members.contains(&crashed));
        assert_eq!(report.final_members.len(), vo.members.len() - 1);
        assert_eq!(report.recoveries.len(), 1);
        let r = &report.recoveries[0];
        assert!(matches!(r.recovery_kind, RecoveryKind::Repair | RecoveryKind::Resolve));
        assert!((r.cost_delta - (r.cost_after - r.cost_before)).abs() < 1e-12);
        assert!(r.avg_reputation_after > 0.0);
        assert_eq!(r.survivors, report.final_members.len());
        // the recovered assignment is feasible on the reduced instance
        let inst = s.instance_for(&report.final_members).unwrap();
        report.final_assignment.unwrap().check_feasible(&inst).unwrap();
    }

    #[test]
    fn crashes_of_non_members_are_skipped() {
        let s = scenario(20.0, 200.0);
        let vo = formed_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        let plan = FaultPlan::new(vec![
            FaultEvent { round: 0, gsp: 99, kind: FaultKind::Crash },
            FaultEvent { round: 1, gsp: 99, kind: FaultKind::Crash },
        ]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert!(report.recoveries.is_empty());
        assert_eq!(report.status, ExecutionStatus::Completed { degraded: false });
        assert_eq!(report.final_cost.to_bits(), vo.cost.to_bits());
    }

    #[test]
    fn unrecoverable_crash_abandons() {
        // 2 tasks on 2 GSPs, deadline exactly one task each: losing
        // either member leaves the survivor unable to take both tasks.
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 10.0)];
        let inst = AssignmentInstance::new(2, 2, vec![1.0; 4], vec![2.0; 4], 2.0, 100.0).unwrap();
        let mut trust = TrustGraph::new(2);
        trust.set_trust(0, 1, 1.0);
        trust.set_trust(1, 0, 1.0);
        let s = FormationScenario::new(gsps, trust, inst).unwrap();
        let vo = formed_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        let plan = FaultPlan::new(vec![FaultEvent {
            round: 2,
            gsp: vo.members[0],
            kind: FaultKind::Crash,
        }]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert_eq!(report.status, ExecutionStatus::Abandoned { round: 2 });
        assert!(report.final_assignment.is_none());
        assert_eq!(report.final_payoff_share, 0.0);
        assert_eq!(report.payoff_retention, 0.0);
        assert_eq!(report.recoveries.last().unwrap().recovery_kind, RecoveryKind::Abandon);
    }

    #[test]
    fn small_slowdown_is_absorbed_large_one_is_not() {
        let s = scenario(20.0, 200.0);
        let vo = full_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        let g = vo.members[0];
        // tiny slowdown: deadline slack absorbs it
        let plan = FaultPlan::new(vec![FaultEvent {
            round: 0,
            gsp: g,
            kind: FaultKind::Slowdown { factor: 1.01 },
        }]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert_eq!(report.recoveries[0].recovery_kind, RecoveryKind::Absorbed);
        assert_eq!(report.status, ExecutionStatus::Completed { degraded: false });
        assert_eq!(report.final_cost.to_bits(), vo.cost.to_bits());
        assert!((report.time_factors[g] - 1.01).abs() < 1e-12);
        // massive slowdown: the member cannot hold any task any more
        let plan = FaultPlan::new(vec![FaultEvent {
            round: 0,
            gsp: g,
            kind: FaultKind::Slowdown { factor: 1000.0 },
        }]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert_ne!(report.recoveries[0].recovery_kind, RecoveryKind::Absorbed);
        assert!(report.completed(), "survivors have slack: {:?}", report.status);
    }

    #[test]
    fn silent_drop_rehomes_tasks_off_the_dropper() {
        let s = scenario(20.0, 200.0);
        let vo = full_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        // find a member holding ≥ 2 tasks so the drop is partial
        let holder = (0..vo.members.len())
            .find(|&l| vo.assignment.tasks_of(l).len() >= 2)
            .expect("8 tasks on ≤4 members: someone holds 2");
        let g = vo.members[holder];
        let victim_task = vo.assignment.tasks_of(holder)[0];
        let plan = FaultPlan::new(vec![FaultEvent {
            round: 0,
            gsp: g,
            kind: FaultKind::SilentDrop { tasks: 1 },
        }]);
        let report = mech.execute(&s, &vo, &plan).unwrap();
        assert!(report.completed());
        assert_eq!(report.final_members, vo.members, "partial drop keeps the member");
        let r = &report.recoveries[0];
        assert_eq!(r.orphaned_tasks, 1);
        if r.recovery_kind == RecoveryKind::Repair {
            let a = report.final_assignment.as_ref().unwrap();
            assert_ne!(a.gsp_of(victim_task), holder, "dropped task must leave the dropper");
        }
    }

    #[test]
    fn plan_sorts_by_round_and_reports_horizon() {
        let plan = FaultPlan::new(vec![
            FaultEvent { round: 3, gsp: 0, kind: FaultKind::Crash },
            FaultEvent { round: 1, gsp: 1, kind: FaultKind::Crash },
            FaultEvent { round: 1, gsp: 2, kind: FaultKind::Crash },
        ]);
        assert_eq!(plan.horizon(), 4);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events()[0].round, 1);
        assert_eq!(plan.events_at(1).count(), 2);
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::empty().horizon(), 0);
    }

    #[test]
    fn plan_and_report_round_trip_as_json() {
        let plan = FaultPlan::new(vec![
            FaultEvent { round: 0, gsp: 2, kind: FaultKind::Crash },
            FaultEvent { round: 1, gsp: 0, kind: FaultKind::Slowdown { factor: 2.5 } },
            FaultEvent { round: 2, gsp: 1, kind: FaultKind::SilentDrop { tasks: 2 } },
        ]);
        let text = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);

        let s = scenario(20.0, 200.0);
        let vo = formed_vo(&s);
        let mech = Mechanism::tvof(FormationConfig::default());
        let report = mech.execute(&s, &vo, &plan).unwrap();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: ExecutionReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.status, report.status);
        assert_eq!(back.recoveries, report.recoveries);
        assert_eq!(back.final_members, report.final_members);
    }
}
