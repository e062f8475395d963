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
//! Recovery is *repair-first*: orphaned tasks are greedily re-homed
//! onto the survivors ([`gridvo_solver::repair`] for crashes, the same
//! greedy rule for drops). When the greedy repair is infeasible the
//! engine falls back to a **full re-solve** of the reduced IP with the
//! mechanism's configured solver, and when even that is infeasible the
//! VO is **abandoned** — the program cannot be completed. After every
//! membership change the power method is re-run on the surviving trust
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
use serde::{de_field, Deserialize, Error, Serialize, Value};
use std::time::Instant;

/// What goes wrong with one GSP in one execution round.
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        let tag = |s: &str| ("kind".to_string(), Value::Str(s.to_string()));
        match self {
            FaultKind::Crash => Value::Object(vec![tag("crash")]),
            FaultKind::Slowdown { factor } => {
                Value::Object(vec![tag("slowdown"), ("factor".to_string(), factor.to_value())])
            }
            FaultKind::SilentDrop { tasks } => {
                Value::Object(vec![tag("silent_drop"), ("tasks".to_string(), tasks.to_value())])
            }
        }
    }
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> std::result::Result<Self, Error> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "crash" => Ok(FaultKind::Crash),
            "slowdown" => Ok(FaultKind::Slowdown { factor: de_field(v, "factor")? }),
            "silent_drop" => Ok(FaultKind::SilentDrop { tasks: de_field(v, "tasks")? }),
            other => Err(Error::custom(format!("unknown fault kind {other:?}"))),
        }
    }
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> std::result::Result<Self, Error> {
        let events: Vec<FaultEvent> = de_field(v, "events")?;
        Ok(FaultPlan::new(events))
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl Serialize for RecoveryKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for RecoveryKind {
    fn from_value(v: &Value) -> std::result::Result<Self, Error> {
        let s = String::from_value(v)?;
        match s.as_str() {
            "absorbed" => Ok(RecoveryKind::Absorbed),
            "repair" => Ok(RecoveryKind::Repair),
            "resolve" => Ok(RecoveryKind::Resolve),
            "abandon" => Ok(RecoveryKind::Abandon),
            other => Err(Error::custom(format!("unknown recovery kind {other:?}"))),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl Serialize for ExecutionStatus {
    fn to_value(&self) -> Value {
        let tag = |s: &str| ("status".to_string(), Value::Str(s.to_string()));
        match self {
            ExecutionStatus::Completed { degraded } => {
                Value::Object(vec![tag("completed"), ("degraded".to_string(), degraded.to_value())])
            }
            ExecutionStatus::Abandoned { round } => {
                Value::Object(vec![tag("abandoned"), ("round".to_string(), round.to_value())])
            }
        }
    }
}

impl Deserialize for ExecutionStatus {
    fn from_value(v: &Value) -> std::result::Result<Self, Error> {
        let status: String = de_field(v, "status")?;
        match status.as_str() {
            "completed" => Ok(ExecutionStatus::Completed { degraded: de_field(v, "degraded")? }),
            "abandoned" => Ok(ExecutionStatus::Abandoned { round: de_field(v, "round")? }),
            other => Err(Error::custom(format!("unknown execution status {other:?}"))),
        }
    }
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
        // Masked to 63 bits so the digest survives a JSON round trip
        // as an exact integer (the wire format carries i64).
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

/// Outcome of one eviction-based recovery attempt.
enum EvictOutcome {
    /// Greedy repair succeeded.
    Repaired(Assignment, f64),
    /// The reduced IP was re-solved.
    Resolved(Assignment, f64, u64),
    /// Nothing works on the survivors.
    Infeasible(u64),
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
        let started = Instant::now();
        let mut members = vo.members.clone();
        let mut assignment = vo.assignment.clone();
        let mut cost = vo.cost;
        let mut time_factors = vec![1.0f64; scenario.gsp_count()];
        let mut recoveries: Vec<RecoveryRecord> = Vec::new();
        let mut abandoned_in: Option<usize> = None;
        let rounds = plan.horizon();

        'rounds: for round in 0..rounds {
            for ev in plan.events_at(round) {
                // Faults on GSPs outside the VO (never members, or
                // already crashed) hit nobody.
                let Some(local) = members.iter().position(|&m| m == ev.gsp) else {
                    continue;
                };
                let rec_started = Instant::now();
                let cost_before = cost;
                let mut resolve_nodes = 0u64;
                let (kind, orphaned) = match ev.kind {
                    FaultKind::Crash => {
                        let orphaned = assignment.tasks_of(local).len();
                        let kind = match self.evict_and_recover(
                            scenario,
                            &members,
                            &assignment,
                            &time_factors,
                            local,
                            &mut resolve_nodes,
                        ) {
                            Some((survivors, a, c, k)) => {
                                members = survivors;
                                assignment = a;
                                cost = c;
                                k
                            }
                            None => RecoveryKind::Abandon,
                        };
                        (kind, orphaned)
                    }
                    FaultKind::Slowdown { factor } => {
                        if !factor.is_finite() || factor <= 0.0 {
                            continue; // malformed event: no fault occurs
                        }
                        time_factors[ev.gsp] *= factor;
                        let inst = self
                            .scaled_instance(scenario, &members, &time_factors)
                            .ok_or(CoreError::EmptyVo { context: "live VO lost its instance" })?;
                        if assignment.is_feasible(&inst) {
                            (RecoveryKind::Absorbed, 0)
                        } else {
                            // Re-solve over the same members first …
                            let report = self.solve_instance(&inst, None, &Budget::unlimited());
                            resolve_nodes += report.nodes;
                            match report.solved {
                                Some((a, c, _)) => {
                                    assignment = a;
                                    cost = c;
                                    (RecoveryKind::Resolve, 0)
                                }
                                None => {
                                    // … else the slowed member must go.
                                    let orphaned = assignment.tasks_of(local).len();
                                    let kind = match self.evict_and_recover(
                                        scenario,
                                        &members,
                                        &assignment,
                                        &time_factors,
                                        local,
                                        &mut resolve_nodes,
                                    ) {
                                        Some((survivors, a, c, _)) => {
                                            members = survivors;
                                            assignment = a;
                                            cost = c;
                                            RecoveryKind::Resolve
                                        }
                                        None => RecoveryKind::Abandon,
                                    };
                                    (kind, orphaned)
                                }
                            }
                        }
                    }
                    FaultKind::SilentDrop { tasks } => {
                        let mine = assignment.tasks_of(local);
                        let dropped = tasks.min(mine.len());
                        if dropped == 0 {
                            continue; // malformed event: nothing dropped
                        }
                        if dropped == mine.len() {
                            // Delivered nothing: same as a crash.
                            let kind = match self.evict_and_recover(
                                scenario,
                                &members,
                                &assignment,
                                &time_factors,
                                local,
                                &mut resolve_nodes,
                            ) {
                                Some((survivors, a, c, k)) => {
                                    members = survivors;
                                    assignment = a;
                                    cost = c;
                                    k
                                }
                                None => RecoveryKind::Abandon,
                            };
                            (kind, dropped)
                        } else {
                            let inst =
                                self.scaled_instance(scenario, &members, &time_factors).ok_or(
                                    CoreError::EmptyVo { context: "live VO lost its instance" },
                                )?;
                            match rehome_dropped(&assignment, local, &mine[..dropped], &inst) {
                                Some(a) => {
                                    cost = a.total_cost(&inst);
                                    assignment = a;
                                    (RecoveryKind::Repair, dropped)
                                }
                                None => {
                                    // Transient fault: a full re-solve
                                    // may re-trust the dropper.
                                    let report =
                                        self.solve_instance(&inst, None, &Budget::unlimited());
                                    resolve_nodes += report.nodes;
                                    match report.solved {
                                        Some((a, c, _)) => {
                                            assignment = a;
                                            cost = c;
                                            (RecoveryKind::Resolve, dropped)
                                        }
                                        None => (RecoveryKind::Abandon, dropped),
                                    }
                                }
                            }
                        }
                    }
                };
                let reputation = self.config.reputation.compute(scenario.trust(), &members)?;
                recoveries.push(RecoveryRecord {
                    round,
                    gsp: ev.gsp,
                    fault: ev.kind,
                    recovery_kind: kind,
                    orphaned_tasks: orphaned,
                    cost_before,
                    cost_after: cost,
                    cost_delta: cost - cost_before,
                    resolve_nodes,
                    survivors: members.len(),
                    avg_reputation_after: reputation.average,
                    seconds: rec_started.elapsed().as_secs_f64(),
                });
                if kind == RecoveryKind::Abandon {
                    abandoned_in = Some(round);
                    break 'rounds;
                }
            }
        }

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
            ExecutionStatus::Completed { .. } => {
                (scenario.payment() - cost).max(0.0) / members.len() as f64
            }
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

    /// The instance a (possibly slowed) member set currently faces.
    fn scaled_instance(
        &self,
        scenario: &FormationScenario,
        members: &[usize],
        time_factors: &[f64],
    ) -> Option<AssignmentInstance> {
        let inst = scenario.instance_for(members)?;
        let factors: Vec<f64> = members.iter().map(|&g| time_factors[g]).collect();
        inst.scale_gsp_times(&factors).ok()
    }

    /// Remove the member at `local` and recover: greedy repair first,
    /// full re-solve second. Returns the surviving member set with the
    /// new assignment and cost, or `None` when no recovery exists.
    fn evict_and_recover(
        &self,
        scenario: &FormationScenario,
        members: &[usize],
        assignment: &Assignment,
        time_factors: &[f64],
        local: usize,
        resolve_nodes: &mut u64,
    ) -> Option<(Vec<usize>, Assignment, f64, RecoveryKind)> {
        let survivors: Vec<usize> =
            members.iter().enumerate().filter(|&(i, _)| i != local).map(|(_, &g)| g).collect();
        let inst = self.scaled_instance(scenario, &survivors, time_factors)?;
        match self.recover_on(&inst, assignment, local) {
            EvictOutcome::Repaired(a, c) => Some((survivors, a, c, RecoveryKind::Repair)),
            EvictOutcome::Resolved(a, c, nodes) => {
                *resolve_nodes += nodes;
                Some((survivors, a, c, RecoveryKind::Resolve))
            }
            EvictOutcome::Infeasible(nodes) => {
                *resolve_nodes += nodes;
                None
            }
        }
    }

    /// Repair-first, re-solve-second on an already-reduced instance.
    fn recover_on(
        &self,
        inst: &AssignmentInstance,
        prev: &Assignment,
        evicted_local: usize,
    ) -> EvictOutcome {
        if let Some(a) = repair::repair_after_eviction(prev, evicted_local, inst) {
            let c = a.total_cost(inst);
            return EvictOutcome::Repaired(a, c);
        }
        let report = self.solve_instance(inst, None, &Budget::unlimited());
        match report.solved {
            Some((a, c, _)) => EvictOutcome::Resolved(a, c, report.nodes),
            None => EvictOutcome::Infeasible(report.nodes),
        }
    }
}

/// Greedily re-home `dropped` tasks (currently on `dropper`) onto the
/// *other* members — the dropper is not trusted with them again.
/// Largest orphans first, cheapest deadline-feasible host, full
/// feasibility audit at the end (mirrors
/// [`gridvo_solver::repair::repair_after_eviction`]).
fn rehome_dropped(
    prev: &Assignment,
    dropper: usize,
    dropped: &[usize],
    inst: &AssignmentInstance,
) -> Option<Assignment> {
    let k = inst.gsps();
    let d = inst.deadline();
    let mut gsp_of = prev.as_slice().to_vec();
    let mut loads = prev.loads(inst);
    for &t in dropped {
        loads[dropper] -= inst.time(t, dropper);
    }
    let mut orphans = dropped.to_vec();
    let min_time = |t: usize| {
        (0..k).filter(|&g| g != dropper).map(|g| inst.time(t, g)).fold(f64::INFINITY, f64::min)
    };
    orphans.sort_by(|&a, &b| min_time(b).total_cmp(&min_time(a)));
    for t in orphans {
        let mut best: Option<(usize, f64)> = None;
        for g in (0..k).filter(|&g| g != dropper) {
            if loads[g] + inst.time(t, g) > d {
                continue;
            }
            let c = inst.cost(t, g);
            if best.is_none_or(|(_, bc)| c < bc) {
                best = Some((g, c));
            }
        }
        let (g, _) = best?;
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }
    let a = Assignment::new(gsp_of);
    a.is_feasible(inst).then_some(a)
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
