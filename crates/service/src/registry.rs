//! The live GSP pool a daemon serves requests against.
//!
//! A [`GspRegistry`] holds the one [`FormationScenario`] it serves
//! and replaces it as the pool evolves between requests: the set of
//! providers, the trust graph over them (receipt evidence included),
//! and the per-task cost / time columns. Every mutation bumps a
//! monotone **epoch** and appends to an event log, so clients can
//! correlate responses with the registry state that produced them.
//!
//! ## One write path
//!
//! Every write is a typed `Mutation` passed to
//! `GspRegistry::commit`, which applies it to a staged copy of the
//! pool (so staging produces the next scenario served), journals its
//! [`RegistryEvent`], and only then swaps the copy in (see
//! [`crate::persist`] for the ordering contract). Replay
//! decodes each event back into its mutation and commits it the same
//! way, so live and recovered state agree by construction.
//!
//! Ids are **compacting positions**: GSP `k` is column `k` of the
//! matrices and node `k` of the trust graph. Removing a GSP shifts
//! the ids above it down by one (the response to a removal reports
//! the new epoch; the event log records the removal).
//!
//! The pool-wide reputation vector is refreshed **incrementally**:
//! each recompute warm-starts [`ReputationEngine::compute_with_start`]
//! from the previous vector (restricted to the survivors after a
//! removal), so a single trust report costs a handful of power
//! iterations instead of a cold solve.

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::{CoreError, ExecutionReceipt, FormationScenario, Gsp};
use gridvo_market::{Lease, LeaseError, LeaseTable};
use gridvo_solver::AssignmentInstance;
use gridvo_store::Store;
use gridvo_trust::beta::{BetaLedger, DEFAULT_LAMBDA};
use gridvo_trust::TrustGraph;
use serde::{Deserialize, Serialize};

use crate::{Result, ServiceError};

/// One epoch-stamped registry mutation: the flat wire form of a
/// registry write.
///
/// Events carry the **full mutation payload** (not just the target
/// ids) so that a journaled event stream is replayable: applying the
/// events of an uninterrupted run to the bootstrap state reconstructs
/// the registry exactly. This is the wire format `gridvo-store`
/// journals line-by-line; `tests/persistence.rs` locks it down.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryEvent {
    /// Epoch the mutation produced (the first mutation is epoch 1).
    pub epoch: u64,
    /// Operation name: `"add_gsp"`, `"remove_gsp"`, `"report_trust"`,
    /// `"report_receipt"`, `"acquire_lease"` or `"release_lease"`.
    pub op: String,
    /// The GSP the operation targeted (the new id for additions, the
    /// removed id for removals, the *reporting* GSP for trust reports).
    pub gsp: Option<usize>,
    /// The reported-on GSP for trust reports.
    pub to: Option<usize>,
    /// The reported trust value, when applicable.
    pub value: Option<f64>,
    /// The joining GSP's speed, for `add_gsp` events.
    pub speed_gflops: Option<f64>,
    /// The joining GSP's per-task cost column, for `add_gsp` events.
    pub cost: Option<Vec<f64>>,
    /// The joining GSP's per-task time column, for `add_gsp` events.
    pub time: Option<Vec<f64>>,
    /// The attested execution receipt, for `report_receipt` events.
    /// Absent from journals written before receipts existed — those
    /// still deserialize (missing `Option` fields parse as `None`).
    pub receipt: Option<ExecutionReceipt>,
    /// The application acquiring a lease, for `acquire_lease` events.
    /// Like `receipt`, absent from pre-market journals — all four
    /// market fields parse as `None` on legacy lines.
    pub app: Option<String>,
    /// The lease id assigned (acquire) or released (release).
    pub lease: Option<u64>,
    /// The leased coalition's global GSP ids, for `acquire_lease`.
    pub members: Option<Vec<usize>>,
    /// Why the lease ended (`"complete"`, `"abandon"` or `"expired"`),
    /// for `release_lease` events.
    pub reason: Option<String>,
}

impl gridvo_store::Stamped for RegistryEvent {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One registry write, as [`GspRegistry::commit`] takes it; each
/// variant is documented at the public method that commits it.
#[derive(Debug)]
pub(crate) enum Mutation {
    /// [`GspRegistry::add_gsp`].
    AddGsp { speed_gflops: f64, cost: Vec<f64>, time: Vec<f64> },
    /// [`GspRegistry::remove_gsp`].
    RemoveGsp { id: usize },
    /// [`GspRegistry::report_trust`].
    ReportTrust { from: usize, to: usize, value: f64 },
    /// [`GspRegistry::report_receipt`].
    ReportReceipt(ExecutionReceipt),
    /// [`GspRegistry::acquire_lease`].
    AcquireLease { app: String, members: Vec<usize> },
    /// [`GspRegistry::release_lease`].
    ReleaseLease { lease: u64, reason: String },
}

impl Mutation {
    /// The journal line of this mutation, committed at `epoch` with
    /// `assigned` as its [`Committed::assigned`] id and leaving
    /// `pool` behind.
    fn into_event(self, epoch: u64, assigned: u64, pool: &Pool) -> RegistryEvent {
        let op = |op: &str| RegistryEvent { epoch, op: op.to_string(), ..RegistryEvent::default() };
        match self {
            Mutation::AddGsp { speed_gflops, cost, time } => RegistryEvent {
                gsp: Some(assigned as usize),
                speed_gflops: Some(speed_gflops),
                cost: Some(cost),
                time: Some(time),
                ..op("add_gsp")
            },
            Mutation::RemoveGsp { id } => RegistryEvent { gsp: Some(id), ..op("remove_gsp") },
            Mutation::ReportTrust { from, to, value } => RegistryEvent {
                gsp: Some(from),
                to: Some(to),
                value: Some(value),
                ..op("report_trust")
            },
            Mutation::ReportReceipt(receipt) => RegistryEvent {
                gsp: Some(receipt.gsp),
                receipt: Some(receipt),
                ..op("report_receipt")
            },
            Mutation::AcquireLease { app, members } => RegistryEvent {
                app: Some(app),
                lease: Some(assigned),
                // The lease table's sorted, deduplicated copy.
                members: Some(pool.market.leases().last().map_or(members, |l| l.members.clone())),
                ..op("acquire_lease")
            },
            Mutation::ReleaseLease { lease, reason } => {
                RegistryEvent { lease: Some(lease), reason: Some(reason), ..op("release_lease") }
            }
        }
    }
}

impl TryFrom<&RegistryEvent> for Mutation {
    type Error = ServiceError;

    /// Decode a journaled event. A missing payload field or an unknown
    /// op is a [`ServiceError::Storage`] error.
    fn try_from(event: &RegistryEvent) -> Result<Mutation> {
        let lacks = || {
            ServiceError::Storage(format!(
                "{} event at epoch {} lacks its payload",
                event.op, event.epoch
            ))
        };
        Ok(match event.op.as_str() {
            "add_gsp" => Mutation::AddGsp {
                speed_gflops: event.speed_gflops.ok_or_else(lacks)?,
                cost: event.cost.clone().ok_or_else(lacks)?,
                time: event.time.clone().ok_or_else(lacks)?,
            },
            "remove_gsp" => Mutation::RemoveGsp { id: event.gsp.ok_or_else(lacks)? },
            "report_trust" => Mutation::ReportTrust {
                from: event.gsp.ok_or_else(lacks)?,
                to: event.to.ok_or_else(lacks)?,
                value: event.value.ok_or_else(lacks)?,
            },
            "report_receipt" => Mutation::ReportReceipt(event.receipt.clone().ok_or_else(lacks)?),
            "acquire_lease" => Mutation::AcquireLease {
                app: event.app.clone().ok_or_else(lacks)?,
                members: event.members.clone().ok_or_else(lacks)?,
            },
            "release_lease" => Mutation::ReleaseLease {
                lease: event.lease.ok_or_else(lacks)?,
                reason: event.reason.clone().unwrap_or_else(|| "complete".to_string()),
            },
            other => {
                return Err(ServiceError::Storage(format!(
                    "unknown journaled op {other:?} at epoch {}",
                    event.epoch
                )))
            }
        })
    }
}

/// What [`GspRegistry::commit`] acknowledges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Committed {
    /// The epoch the mutation produced.
    pub(crate) epoch: u64,
    /// The id the mutation assigned: the joining GSP's for
    /// [`Mutation::AddGsp`], the new lease's for
    /// [`Mutation::AcquireLease`], and 0 for every other mutation.
    pub(crate) assigned: u64,
}

/// The registry's complete durable state: what a `gridvo-store`
/// snapshot holds. Recovery = [`GspRegistry::from_persisted`] on the
/// newest snapshot, then [`GspRegistry::apply_event`] over the
/// journal tail — which reproduces the uninterrupted run's state
/// bit-for-bit, including the warm-start chain of the reputation
/// refreshes (the snapshot carries the exact reputation vector the
/// next refresh warm-starts from). Its size depends on the pool, not
/// on the history: snapshots written before the event log was dropped
/// from it still load, and their `events` key is ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistedState {
    /// Epoch of the last applied mutation.
    pub epoch: u64,
    /// The pool as an immutable scenario (GSPs, trust graph, cost and
    /// time matrices, deadline, payment).
    pub scenario: FormationScenario,
    /// Pool-wide reputation vector at `epoch` (the warm start of the
    /// next refresh — persisting it keeps recovered refreshes on the
    /// uninterrupted run's warm-start chain).
    pub reputation: Vec<f64>,
    /// Power iterations of the refresh that produced `reputation`.
    pub power_iterations: usize,
    /// Receipt-driven Beta evidence, when any receipt has been
    /// reported. Absent from snapshots written before receipts
    /// existed — those still deserialize with no ledger.
    pub beta: Option<BetaLedger>,
    /// Live GSP leases, once any lease has been acquired. Absent
    /// from pre-market snapshots (and from market-idle registries),
    /// which deserialize with a pristine table.
    pub market: Option<LeaseTable>,
}

impl gridvo_store::Stamped for PersistedState {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A serializable view of the registry for `registry` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Current epoch (number of mutations since bootstrap).
    pub epoch: u64,
    /// Number of GSPs in the pool.
    pub gsps: usize,
    /// Number of tasks in the standing program.
    pub tasks: usize,
    /// Pool-wide reputation scores, aligned with GSP ids.
    pub reputation: Vec<f64>,
    /// Power-method iterations the last refresh needed (warm starts
    /// show up as small numbers here).
    pub power_iterations: usize,
    /// Total mutations logged.
    pub events: usize,
}

/// The registry's state apart from its epoch, event log and journal:
/// everything a mutation can change. [`GspRegistry::commit`] applies
/// each mutation to a copy of it.
#[derive(Debug, Clone)]
struct Pool {
    /// The served pool: GSPs, the cost and time instance, and the one
    /// trust graph, whose receipt-evidenced edges hold their Beta
    /// posteriors and whose other edges hold the last reported trust.
    scenario: FormationScenario,
    engine: ReputationEngine,
    /// Last pool-wide reputation vector (aligned with the GSPs); the
    /// warm start of the next refresh.
    reputation: Vec<f64>,
    power_iterations: usize,
    /// Receipt-driven Beta evidence; `None` until the first receipt,
    /// so a receipt-free registry stays bit-identical to the
    /// pre-receipt behavior (declared trust only).
    beta: Option<BetaLedger>,
    /// Live GSP leases: which providers are committed to an executing
    /// VO and therefore out of the market's candidate pool.
    market: LeaseTable,
}

impl Pool {
    /// Apply `mutation` in place as the write producing `epoch`, and
    /// refresh the reputation vector when trust or membership changed.
    /// Returns the [`Committed::assigned`] id. An error may leave the
    /// pool half-updated, so [`GspRegistry::commit`] applies to a copy.
    fn apply(&mut self, mutation: &Mutation, epoch: u64) -> Result<u64> {
        let assigned = match mutation {
            Mutation::AddGsp { speed_gflops, cost, time } => {
                self.join(*speed_gflops, cost, time)?
            }
            Mutation::RemoveGsp { id } => self.leave(*id).map(|()| 0)?,
            Mutation::ReportTrust { from, to, value } => {
                let mut trust = self.scenario.trust().clone();
                trust.try_set_trust(*from, *to, *value)?;
                self.scenario.replace_trust(trust)?;
                0
            }
            Mutation::ReportReceipt(receipt) => self.fold(receipt).map(|()| 0)?,
            // A lease changes availability, not trust: no refresh.
            Mutation::AcquireLease { app, members } => return self.lease(app, members, epoch),
            Mutation::ReleaseLease { lease, .. } => {
                self.market.release(*lease).ok_or(ServiceError::UnknownLease { lease: *lease })?;
                return Ok(0);
            }
        };
        self.refresh_reputation()?;
        Ok(assigned)
    }

    /// [`Mutation::AddGsp`]; returns the new id. The grown instance is
    /// validated like any other, so a GSP the task count cannot cover
    /// is refused here.
    fn join(&mut self, speed_gflops: f64, cost: &[f64], time: &[f64]) -> Result<u64> {
        let (inst, m) = (self.scenario.instance(), self.scenario.gsp_count());
        let tasks = inst.tasks();
        if !speed_gflops.is_finite() || speed_gflops <= 0.0 {
            return Err(ServiceError::BadColumn { context: "speed must be finite and positive" });
        }
        if cost.len() != tasks || time.len() != tasks {
            return Err(ServiceError::BadColumn { context: "column length != task count" });
        }
        if cost.iter().chain(time.iter()).any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(ServiceError::BadColumn { context: "entries must be finite and positive" });
        }
        // Append the new column to each task's row.
        let splice = |row: fn(&AssignmentInstance, usize) -> &[f64], column: &[f64]| {
            (0..tasks).flat_map(|t| row(inst, t).iter().chain(&column[t..=t])).copied().collect()
        };
        let (deadline, payment) = (inst.deadline(), inst.payment());
        let (cost, time) = (
            splice(AssignmentInstance::cost_row, cost),
            splice(AssignmentInstance::time_row, time),
        );
        let grown = AssignmentInstance::new(tasks, m + 1, cost, time, deadline, payment)
            .map_err(CoreError::from)?;
        // The newcomer enters with no trust edges.
        let mut trust = TrustGraph::new(m + 1);
        for (i, j, w) in self.scenario.trust().edges() {
            trust.try_set_trust(i, j, w)?;
        }
        let mut gsps = self.scenario.gsps().to_vec();
        gsps.push(Gsp::new(m, speed_gflops));
        self.scenario = FormationScenario::new(gsps, trust, grown)?;
        if let Some(ledger) = &mut self.beta {
            ledger.grow();
        }
        // The warm start no longer matches the pool size; the refresh
        // falls back to a cold solve for this one recompute.
        self.reputation.clear();
        Ok(m as u64)
    }

    /// [`Mutation::RemoveGsp`].
    fn leave(&mut self, id: usize) -> Result<()> {
        let m = self.scenario.gsp_count();
        if id >= m {
            return Err(ServiceError::UnknownGsp { id });
        }
        // The survivors of a valid pool can host its program unless
        // there are none.
        let survivors: Vec<usize> = (0..m).filter(|&g| g != id).collect();
        let rest = self.scenario.restrict(&survivors).ok_or(ServiceError::LastGsp)?;
        if let Some(held) = self.market.holder_of(id) {
            return Err(ServiceError::Leased { id, lease: held.id });
        }
        if let Some(ledger) = &mut self.beta {
            ledger.remove(id)?;
        }
        self.scenario = rest;
        // Carry the survivors' scores as the next refresh's warm start.
        let prev = std::mem::take(&mut self.reputation);
        self.reputation = survivors.iter().filter_map(|&old| prev.get(old).copied()).collect();
        self.market.shift_down(id);
        Ok(())
    }

    /// [`Mutation::ReportReceipt`].
    fn fold(&mut self, receipt: &ExecutionReceipt) -> Result<()> {
        if !receipt.verify() {
            return Err(ServiceError::BadReceipt { context: "digest does not match content" });
        }
        let m = self.scenario.gsp_count();
        if receipt.gsp >= m {
            return Err(ServiceError::UnknownGsp { id: receipt.gsp });
        }
        if let Some(&w) = receipt.witnesses.iter().find(|&&w| w >= m) {
            return Err(ServiceError::UnknownGsp { id: w });
        }
        if receipt.witnesses.contains(&receipt.gsp) {
            return Err(ServiceError::BadReceipt { context: "subject cannot witness itself" });
        }
        if !receipt.reward.is_finite() || receipt.reward < 0.0 {
            return Err(ServiceError::BadReceipt { context: "reward must be finite and >= 0" });
        }
        let ledger = self.beta.get_or_insert_with(|| BetaLedger::new(m, DEFAULT_LAMBDA));
        Ok(receipt.fold_into(ledger)?)
    }

    /// [`Mutation::AcquireLease`] at `epoch`; returns the lease id.
    fn lease(&mut self, app: &str, members: &[usize], epoch: u64) -> Result<u64> {
        if let Some(&id) = members.iter().find(|&&id| id >= self.scenario.gsp_count()) {
            return Err(ServiceError::UnknownGsp { id });
        }
        match self.market.acquire(app, members, epoch) {
            Ok(lease) => Ok(lease),
            Err(LeaseError::Empty) => {
                Err(ServiceError::BadColumn { context: "cannot lease an empty coalition" })
            }
            Err(LeaseError::Held { gsp, lease }) => Err(ServiceError::Leased { id: gsp, lease }),
        }
    }

    /// Overlay the Beta evidence onto the served trust graph (every
    /// evidenced edge takes its posterior; the registry never erases
    /// evidence, so overlaying onto the last served graph equals
    /// overlaying onto the reported one), then recompute the
    /// pool-wide reputation from the previous vector.
    fn refresh_reputation(&mut self) -> Result<()> {
        if let Some(ledger) = &self.beta {
            let served = ledger.apply_to(self.scenario.trust())?;
            self.scenario.replace_trust(served)?;
        }
        // An empty vector (at bootstrap, after a join) starts the
        // power method cold.
        let members: Vec<usize> = (0..self.scenario.gsp_count()).collect();
        let rep = self.engine.compute_with_start(
            self.scenario.trust(),
            &members,
            Some(&self.reputation),
        )?;
        self.reputation = rep.scores;
        self.power_iterations = rep.iterations;
        Ok(())
    }
}

/// The mutable provider pool. See the module docs.
#[derive(Debug)]
pub struct GspRegistry {
    pool: Pool,
    epoch: u64,
    events: Vec<RegistryEvent>,
    /// Where commits are journaled (see [`crate::persist`]); `None`
    /// keeps the registry in memory only.
    pub(crate) journal: Option<Store<PersistedState, RegistryEvent>>,
}

impl GspRegistry {
    /// Bootstrap a registry from a scenario (the `gridvo serve`
    /// startup path: scenario file or `gridvo-sim` generation).
    pub fn from_scenario(scenario: &FormationScenario, engine: ReputationEngine) -> Result<Self> {
        let mut pool = Pool {
            scenario: scenario.clone(),
            engine,
            reputation: Vec::new(),
            power_iterations: 0,
            beta: None,
            market: LeaseTable::new(),
        };
        pool.refresh_reputation()?;
        Ok(GspRegistry { pool, epoch: 0, events: Vec::new(), journal: None })
    }

    /// Rebuild a registry from a durable snapshot. Unlike
    /// [`GspRegistry::from_scenario`] this restores the epoch and the
    /// exact reputation vector instead of recomputing cold — so
    /// subsequent refreshes continue the uninterrupted run's
    /// warm-start chain bit-for-bit. The snapshot's scenario is the
    /// served pool, whose trust graph already carries the ledger's
    /// posteriors. The event log starts empty.
    pub fn from_persisted(state: &PersistedState, engine: ReputationEngine) -> Result<Self> {
        let m = state.scenario.gsp_count();
        if state.reputation.len() != m {
            return Err(ServiceError::Storage(format!(
                "snapshot reputation has {} entries for {m} GSPs",
                state.reputation.len()
            )));
        }
        if let Some(ledger) = state.beta.as_ref().filter(|l| l.gsp_count() != m) {
            return Err(ServiceError::Storage(format!(
                "snapshot Beta ledger covers {} GSPs for {m} GSPs",
                ledger.gsp_count()
            )));
        }
        let pool = Pool {
            scenario: state.scenario.clone(),
            engine,
            reputation: state.reputation.clone(),
            power_iterations: state.power_iterations,
            beta: state.beta.clone(),
            market: state.market.clone().unwrap_or_default(),
        };
        Ok(GspRegistry { pool, epoch: state.epoch, events: Vec::new(), journal: None })
    }

    /// The registry's complete durable state (what compaction
    /// snapshots). Never fails; the `Result` is kept for callers that
    /// chain it.
    pub fn persisted_state(&self) -> Result<PersistedState> {
        let market = &self.pool.market;
        Ok(PersistedState {
            epoch: self.epoch,
            scenario: self.pool.scenario.clone(),
            reputation: self.pool.reputation.clone(),
            power_iterations: self.pool.power_iterations,
            beta: self.pool.beta.clone(),
            market: if market.is_pristine() { None } else { Some(market.clone()) },
        })
    }

    /// The registry's one write path. Applies `mutation` to a staged
    /// copy of the pool (reputation refresh included), appends its
    /// [`RegistryEvent`] to the journal when there is one, and only
    /// then swaps the copy in, bumps the epoch and logs the event — so
    /// a write refused at any step leaves no trace. A journal that has
    /// grown past its threshold is compacted after the swap; see
    /// [`crate::persist`] for why a failed compaction does not fail
    /// the write.
    pub(crate) fn commit(&mut self, mutation: Mutation) -> Result<Committed> {
        let epoch = self.epoch + 1;
        let mut staged = self.pool.clone();
        let assigned = staged.apply(&mutation, epoch)?;
        let event = mutation.into_event(epoch, assigned, &staged);
        if let Some(journal) = &mut self.journal {
            journal.append(&event)?;
        }
        self.pool = staged;
        self.epoch = epoch;
        self.events.push(event);
        self.compact_if_due();
        Ok(Committed { epoch, assigned })
    }

    /// Replay one journaled event through the live write path.
    /// Events at or below the current epoch are skipped (idempotent
    /// replay); an applied event must land exactly on the next epoch,
    /// and a replayed acquire must be assigned the lease id the
    /// journal recorded — anything else means the journal does not
    /// match the state it is being replayed onto.
    pub fn apply_event(&mut self, event: &RegistryEvent) -> Result<()> {
        if event.epoch <= self.epoch {
            return Ok(());
        }
        if event.epoch != self.epoch + 1 {
            return Err(ServiceError::Storage(format!(
                "journal gap: event epoch {} after registry epoch {}",
                event.epoch, self.epoch
            )));
        }
        let mutation = Mutation::try_from(event)?;
        let acquires = matches!(mutation, Mutation::AcquireLease { .. });
        let committed = self.commit(mutation)?;
        if acquires && event.lease.is_some_and(|recorded| recorded != committed.assigned) {
            return Err(ServiceError::Storage(format!(
                "acquire_lease replay at epoch {} assigned lease {} but the journal recorded \
                 {:?} — the journal does not match this state",
                event.epoch, committed.assigned, event.lease
            )));
        }
        Ok(())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of GSPs in the pool.
    pub fn gsp_count(&self) -> usize {
        self.pool.scenario.gsp_count()
    }

    /// The events committed since this registry was bootstrapped or
    /// loaded from a snapshot, oldest first.
    pub fn events(&self) -> &[RegistryEvent] {
        &self.events
    }

    /// Pool-wide reputation scores, aligned with GSP ids.
    pub fn reputation(&self) -> &[f64] {
        &self.pool.reputation
    }

    /// Join the pool: a new GSP with its per-task cost and time
    /// columns (length = task count, finite and positive). It enters
    /// with no trust edges — reputation accrues from later reports.
    /// Returns `(new id, new epoch)`.
    pub fn add_gsp(
        &mut self,
        speed_gflops: f64,
        cost: &[f64],
        time: &[f64],
    ) -> Result<(usize, u64)> {
        self.commit(Mutation::AddGsp { speed_gflops, cost: cost.to_vec(), time: time.to_vec() })
            .map(|c| (c.assigned as usize, c.epoch))
    }

    /// Leave the pool. Ids above `id` shift down by one (compacting
    /// positional ids). Refuses to empty the pool or to remove a GSP
    /// committed to a live lease. Returns the new epoch.
    pub fn remove_gsp(&mut self, id: usize) -> Result<u64> {
        self.commit(Mutation::RemoveGsp { id }).map(|c| c.epoch)
    }

    /// Ingest a direct-trust report `u_{from,to} = value`. Returns the
    /// new epoch. The reputation refresh warm-starts from the previous
    /// vector — for small perturbations this converges in a few power
    /// iterations.
    pub fn report_trust(&mut self, from: usize, to: usize, value: f64) -> Result<u64> {
        self.commit(Mutation::ReportTrust { from, to, value }).map(|c| c.epoch)
    }

    /// Ingest one execution receipt: every witness contributes a
    /// reward-weighted Beta observation about `receipt.gsp`, and the
    /// served trust graph takes the Beta posterior on every edge with
    /// evidence before the reputation refresh. The receipt's digest must verify — a signed-shape
    /// integrity check on what is, in practice, replayed from a
    /// journal. Returns the new epoch.
    pub fn report_receipt(&mut self, receipt: &ExecutionReceipt) -> Result<u64> {
        self.commit(Mutation::ReportReceipt(receipt.clone())).map(|c| c.epoch)
    }

    /// Commit `members` to a live VO held by `app`: the market's
    /// lease-acquire mutation. Validates that every member exists and
    /// that none is already committed to another live VO — the
    /// no-double-lease invariant every acked history must satisfy.
    /// Reputation is untouched (a lease changes availability, not
    /// trust). Returns `(lease id, new epoch)`.
    pub fn acquire_lease(&mut self, app: &str, members: &[usize]) -> Result<(u64, u64)> {
        self.commit(Mutation::AcquireLease { app: app.to_string(), members: members.to_vec() })
            .map(|c| (c.assigned, c.epoch))
    }

    /// Release lease `lease` (the VO completed, was abandoned, or its
    /// TTL expired — `reason` records which); its members return to
    /// the candidate pool. Returns the new epoch.
    pub fn release_lease(&mut self, lease: u64, reason: &str) -> Result<u64> {
        self.commit(Mutation::ReleaseLease { lease, reason: reason.to_string() }).map(|c| c.epoch)
    }

    /// The live lease table.
    pub fn market(&self) -> &LeaseTable {
        &self.pool.market
    }

    /// Global ids of the GSPs held by no live lease — the sub-pool
    /// market-aware formation runs against.
    pub fn free_members(&self) -> Vec<usize> {
        self.pool.market.free_members(self.gsp_count())
    }

    /// Live leases, in acquisition order.
    pub fn leases(&self) -> &[Lease] {
        self.pool.market.leases()
    }

    /// The receipt-driven Beta ledger, once any receipt has been
    /// reported.
    pub fn beta(&self) -> Option<&BetaLedger> {
        self.pool.beta.as_ref()
    }

    /// The served pool — what a formation / execution request runs
    /// against.
    pub(crate) fn served(&self) -> &FormationScenario {
        &self.pool.scenario
    }

    /// A copy of the served pool. Never fails; the `Result` is kept for
    /// callers that chain it.
    pub fn scenario(&self) -> Result<FormationScenario> {
        Ok(self.served().clone())
    }

    /// A serializable view for `registry` requests.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            epoch: self.epoch,
            gsps: self.gsp_count(),
            tasks: self.pool.scenario.task_count(),
            reputation: self.pool.reputation.clone(),
            power_iterations: self.pool.power_iterations,
            // Every epoch logs exactly one event.
            events: self.epoch as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> GspRegistry {
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0), Gsp::new(2, 60.0)];
        let mut trust = TrustGraph::new(3);
        for i in 0..3usize {
            for j in 0..3usize {
                if i != j {
                    trust.set_trust(i, j, 0.5);
                }
            }
        }
        let inst =
            AssignmentInstance::new(4, 3, vec![1.0; 12], vec![1.0; 12], 10.0, 100.0).unwrap();
        let scenario = FormationScenario::new(gsps, trust, inst).unwrap();
        GspRegistry::from_scenario(&scenario, ReputationEngine::default()).unwrap()
    }

    /// A hand-written journal line with no payload beyond the ids.
    fn slim(
        epoch: u64,
        op: &str,
        gsp: Option<usize>,
        to: Option<usize>,
        value: Option<f64>,
    ) -> RegistryEvent {
        RegistryEvent { epoch, op: op.to_string(), gsp, to, value, ..RegistryEvent::default() }
    }

    #[test]
    fn bootstrap_computes_reputation_at_epoch_zero() {
        let reg = registry();
        assert_eq!(reg.epoch(), 0);
        assert_eq!(reg.reputation().len(), 3);
        assert!(reg.events().is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.gsps, 3);
        assert_eq!(snap.tasks, 4);
    }

    #[test]
    fn trust_report_bumps_epoch_and_logs() {
        let mut reg = registry();
        let before = reg.reputation().to_vec();
        let epoch = reg.report_trust(0, 2, 1.0).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.events()[0].op, "report_trust");
        // GSP 2 is now more trusted than before.
        assert!(reg.reputation()[2] > before[2]);
    }

    #[test]
    fn trust_report_rejects_bad_input() {
        let mut reg = registry();
        assert!(matches!(reg.report_trust(0, 9, 0.5), Err(ServiceError::Trust(_))));
        assert!(matches!(reg.report_trust(0, 1, -1.0), Err(ServiceError::Trust(_))));
        assert_eq!(reg.epoch(), 0, "failed mutations must not bump the epoch");
    }

    #[test]
    fn add_gsp_grows_everything_consistently() {
        let mut reg = registry();
        let (id, epoch) = reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        assert_eq!((id, epoch), (3, 1));
        assert_eq!(reg.gsp_count(), 4);
        assert_eq!(reg.reputation().len(), 4);
        let s = reg.scenario().unwrap();
        assert_eq!(s.gsp_count(), 4);
        assert_eq!(s.instance().cost(0, 3), 2.0);
        assert_eq!(s.instance().time(2, 3), 1.5);
        // Pre-existing trust survived the graph growth.
        assert_eq!(s.trust().trust(0, 1), 0.5);
        assert_eq!(s.trust().trust(0, 3), 0.0);
    }

    #[test]
    fn add_gsp_validates_columns() {
        let mut reg = registry();
        assert!(reg.add_gsp(90.0, &[1.0; 3], &[1.0; 4]).is_err());
        assert!(reg.add_gsp(90.0, &[1.0, 1.0, f64::NAN, 1.0], &[1.0; 4]).is_err());
        assert!(reg.add_gsp(-5.0, &[1.0; 4], &[1.0; 4]).is_err());
        assert_eq!(reg.epoch(), 0);
    }

    #[test]
    fn a_join_past_the_task_count_changes_nothing() {
        let mut reg = registry();
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap(); // 4 GSPs over 4 tasks
        let events = reg.events().to_vec();
        let scenario = serde_json::to_string(&reg.scenario().unwrap()).unwrap();
        let refused = reg.add_gsp(70.0, &[1.0; 4], &[1.0; 4]).unwrap_err();
        assert_eq!(
            refused.to_string(),
            "core error: solver error: 4 tasks cannot cover 5 GSPs (constraint 13 infeasible)"
        );
        assert_eq!(reg.epoch(), 1);
        assert_eq!(reg.events(), events);
        assert_eq!(serde_json::to_string(&reg.scenario().unwrap()).unwrap(), scenario);
    }

    #[test]
    fn remove_gsp_compacts_ids() {
        let mut reg = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        let epoch = reg.remove_gsp(1).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(reg.gsp_count(), 2);
        let s = reg.scenario().unwrap();
        // Old GSP 2 is now id 1 and keeps its incoming trust.
        assert_eq!(s.trust().trust(0, 1), 0.9);
        assert_eq!(s.gsps()[1].id, 1);
        assert!((s.gsps()[1].speed_gflops - 60.0).abs() < 1e-12);
    }

    #[test]
    fn remove_refuses_to_empty_the_pool() {
        let mut reg = registry();
        reg.remove_gsp(0).unwrap();
        reg.remove_gsp(0).unwrap();
        assert!(matches!(reg.remove_gsp(0), Err(ServiceError::LastGsp)));
        assert!(matches!(reg.remove_gsp(7), Err(ServiceError::UnknownGsp { id: 7 })));
    }

    #[test]
    fn persisted_state_round_trips_through_json() {
        let mut reg = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let back: PersistedState = serde_json::from_str(&json).unwrap();
        let rebuilt = GspRegistry::from_persisted(&back, ReputationEngine::default()).unwrap();
        assert_eq!(rebuilt.epoch(), reg.epoch());
        assert_eq!(rebuilt.reputation(), reg.reputation(), "reputation must survive bit-exactly");
        assert_eq!(
            serde_json::to_string(&rebuilt.snapshot()).unwrap(),
            serde_json::to_string(&reg.snapshot()).unwrap()
        );
    }

    #[test]
    fn replaying_logged_events_rebuilds_the_registry() {
        let mut reg = registry();
        let mut replayed = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        reg.remove_gsp(1).unwrap();
        reg.report_trust(2, 0, 0.4).unwrap();
        for ev in reg.events().to_vec() {
            replayed.apply_event(&ev).unwrap();
            // Idempotence: re-applying a covered event is a no-op.
            replayed.apply_event(&ev).unwrap();
        }
        assert_eq!(replayed.reputation(), reg.reputation());
        assert_eq!(replayed.events(), reg.events());
        assert_eq!(
            replayed.scenario().unwrap().instance().canonical_hash(),
            reg.scenario().unwrap().instance().canonical_hash()
        );
    }

    #[test]
    fn journal_gaps_and_missing_payloads_are_typed_errors() {
        let mut reg = registry();
        let gap = slim(5, "report_trust", Some(0), Some(1), Some(0.5));
        assert!(matches!(reg.apply_event(&gap), Err(ServiceError::Storage(_))));
        let bare_add = slim(1, "add_gsp", Some(3), None, None);
        assert!(matches!(reg.apply_event(&bare_add), Err(ServiceError::Storage(_))));
        let unknown = slim(1, "fly", None, None, None);
        assert!(matches!(reg.apply_event(&unknown), Err(ServiceError::Storage(_))));
        assert_eq!(reg.epoch(), 0, "failed replays must not mutate the registry");
    }

    #[test]
    fn lease_lifecycle_bumps_epochs_and_logs() {
        let mut reg = registry();
        let rep = reg.reputation().to_vec();
        let (lease, epoch) = reg.acquire_lease("alice", &[2, 0]).unwrap();
        assert_eq!((lease, epoch), (1, 1));
        assert_eq!(reg.free_members(), vec![1]);
        assert_eq!(reg.events()[0].op, "acquire_lease");
        assert_eq!(reg.events()[0].members, Some(vec![0, 2]));
        assert_eq!(reg.reputation(), rep, "leases must not touch reputation");
        // The contested member is refused with a typed error.
        assert!(matches!(
            reg.acquire_lease("bob", &[0]),
            Err(ServiceError::Leased { id: 0, lease: 1 })
        ));
        assert!(matches!(reg.acquire_lease("bob", &[9]), Err(ServiceError::UnknownGsp { id: 9 })));
        // A leased GSP cannot leave the pool.
        assert!(matches!(reg.remove_gsp(2), Err(ServiceError::Leased { id: 2, lease: 1 })));
        let epoch = reg.release_lease(lease, "complete").unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(reg.free_members(), vec![0, 1, 2]);
        assert!(matches!(
            reg.release_lease(lease, "complete"),
            Err(ServiceError::UnknownLease { lease: 1 })
        ));
        assert_eq!(reg.epoch(), 2, "failed mutations must not bump the epoch");
    }

    #[test]
    fn remove_gsp_renumbers_live_leases() {
        let mut reg = registry();
        reg.acquire_lease("alice", &[2]).unwrap();
        reg.remove_gsp(0).unwrap();
        // Old GSP 2 is now id 1 and still held by the lease.
        assert_eq!(reg.leases()[0].members, vec![1]);
        assert_eq!(reg.free_members(), vec![0]);
    }

    #[test]
    fn lease_events_replay_and_persist() {
        let mut reg = registry();
        let mut replayed = registry();
        reg.acquire_lease("alice", &[0, 1]).unwrap();
        reg.report_trust(0, 2, 0.9).unwrap();
        let (b, _) = reg.acquire_lease("bob", &[2]).unwrap();
        reg.release_lease(b, "abandon").unwrap();
        for ev in reg.events().to_vec() {
            replayed.apply_event(&ev).unwrap();
            replayed.apply_event(&ev).unwrap();
        }
        assert_eq!(replayed.market(), reg.market());
        assert_eq!(replayed.free_members(), vec![2]);
        // Snapshot round trip carries the table (including next_id, so
        // post-recovery acquires keep matching the uninterrupted run).
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let back: PersistedState = serde_json::from_str(&json).unwrap();
        let mut rebuilt = GspRegistry::from_persisted(&back, ReputationEngine::default()).unwrap();
        assert_eq!(rebuilt.market(), reg.market());
        assert_eq!(rebuilt.acquire_lease("carol", &[2]).unwrap().0, 3);
    }

    #[test]
    fn lease_replay_detects_id_divergence() {
        let mut reg = registry();
        let mut event = slim(1, "acquire_lease", None, None, None);
        event.app = Some("alice".to_string());
        event.members = Some(vec![0]);
        event.lease = Some(7); // a fresh table would assign 1
        assert!(matches!(reg.apply_event(&event), Err(ServiceError::Storage(_))));
    }

    #[test]
    fn snapshots_whose_state_disagrees_with_the_pool_are_refused() {
        let mut reg = registry();
        reg.report_receipt(&ExecutionReceipt::new(0, 1, true, 4.0, vec![0, 2])).unwrap();
        let mut state = reg.persisted_state().unwrap();
        state.beta = Some(BetaLedger::new(4, DEFAULT_LAMBDA));
        let loaded = GspRegistry::from_persisted(&state, ReputationEngine::default());
        assert!(matches!(loaded, Err(ServiceError::Storage(_))));
        state.beta = None;
        state.reputation.pop();
        let loaded = GspRegistry::from_persisted(&state, ReputationEngine::default());
        assert!(matches!(loaded, Err(ServiceError::Storage(_))));
    }

    #[test]
    fn pristine_market_is_absent_from_snapshots() {
        let reg = registry();
        assert!(reg.persisted_state().unwrap().market.is_none());
        // Legacy snapshot JSON (no market field) still deserializes.
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let legacy = json.replace(",\"market\":null", "");
        assert_ne!(legacy, json, "the pristine table serializes as an explicit null");
        let back: PersistedState = serde_json::from_str(&legacy).unwrap();
        assert!(GspRegistry::from_persisted(&back, ReputationEngine::default()).is_ok());
    }

    #[test]
    fn legacy_snapshots_with_an_event_log_still_load() {
        let mut reg = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        assert!(!json.contains("\"events\""), "snapshots no longer carry the event log");
        // Snapshots written before the log was dropped carried it in
        // full; the key is ignored on load.
        let log = serde_json::to_string(reg.events()).unwrap();
        let legacy = json.replace(",\"beta\":", &format!(",\"events\":{log},\"beta\":"));
        assert_ne!(legacy, json);
        let back: PersistedState = serde_json::from_str(&legacy).unwrap();
        let rebuilt = GspRegistry::from_persisted(&back, ReputationEngine::default()).unwrap();
        assert_eq!(rebuilt.snapshot(), reg.snapshot());
    }

    #[test]
    fn scenario_round_trips_the_bootstrap_input() {
        // With no mutations, the served scenario must equal the
        // bootstrap scenario (the differential tests depend on this).
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0)];
        let mut trust = TrustGraph::new(2);
        trust.set_trust(0, 1, 0.7);
        trust.set_trust(1, 0, 0.3);
        let inst = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![1.0; 6],
            10.0,
            50.0,
        )
        .unwrap();
        let scenario = FormationScenario::new(gsps, trust, inst).unwrap();
        let reg = GspRegistry::from_scenario(&scenario, ReputationEngine::default()).unwrap();
        let back = reg.scenario().unwrap();
        assert_eq!(back.instance().canonical_hash(), scenario.instance().canonical_hash());
        assert_eq!(back.trust().weight_matrix(), scenario.trust().weight_matrix());
        assert_eq!(back.gsps(), scenario.gsps());
    }
}
