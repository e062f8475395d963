//! The traced per-layer split.
//!
//! The traced run records every exchange. This module rebuilds the
//! pinned inputs of each request from them — the registry epoch it ran
//! against, its seed, and the per-round member sets, node counts and
//! power iterations of the served iteration records — and replays them
//! serially into each layer's public function, timing every call. A
//! mirror of the daemon's registry and solve cache (same shard count,
//! same capacity, same invalidation) receives the recorded writes in
//! epoch order, so each replayed read sees exactly the state the daemon
//! served it from; every replayed reply must equal the served bytes.

use std::time::{Duration, Instant};

use gridvo_core::solve_cache::{CachedSolve, SolveCache};
use gridvo_core::{
    ExecutionReceipt, FaultPlan, FormationConfig, FormationOutcome, FormationScenario, Mechanism,
    RecoveryKind,
};
use gridvo_service::market::{free_scenario, MarketCache};
use gridvo_service::protocol::{decode, encode, Request, Response};
use gridvo_service::{
    DurableRegistry, EpochSnapshot, GspRegistry, PersistConfig, PersistedState, RegistryEvent,
    ShardedRegistry, SharedSolveCache, Touched, DEFAULT_SHARDS,
};
use gridvo_solver::branch_bound::{BranchBound, Budget, SolveStatus};
use gridvo_solver::repair::repair_after_eviction;
use gridvo_store::{Store, StoreConfig};
use gridvo_trust::beta::{BetaLedger, DEFAULT_LAMBDA};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{mean, percentile, self_time, Ratio};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Exchange, Run, Tally, Workload};
use crate::Metric;

/// The daemon's default solve-cache capacity (`gridvo serve --cache`).
const CACHE_CAPACITY: usize = 4096;
/// Reads whose rounds are also re-solved directly (evenly spaced).
const DIRECT_SOLVE_READS: usize = 150;
/// Receipts in the probe write sequence of a workload that records no
/// receipts.
const PROBE_CYCLES: usize = 64;
/// `BetaLedger::apply_to` calls timed per run.
const BETA_APPLIES: usize = 200;

/// A recorded registry write.
#[derive(Debug, Clone)]
enum WriteOp {
    Receipt(ExecutionReceipt),
    Acquire { app: String, members: Vec<usize>, lease: u64 },
    Release { lease: u64 },
}

impl WriteOp {
    fn touched(&self) -> Vec<usize> {
        match self {
            WriteOp::Receipt(r) => vec![r.gsp],
            WriteOp::Acquire { members, .. } => members.clone(),
            WriteOp::Release { .. } => Vec::new(),
        }
    }

    /// Apply through the daemon's write path; returns the new epoch.
    fn mutate(&self, reg: &ShardedRegistry) -> gridvo_service::Result<u64> {
        let touched = self.touched();
        match self {
            WriteOp::Receipt(r) => reg.mutate(Touched::Ids(&touched), |d| d.report_receipt(r)),
            WriteOp::Acquire { app, members, .. } => reg
                .mutate(Touched::Ids(&touched), |d| d.acquire_lease(app, members))
                .map(|(_, epoch)| epoch),
            WriteOp::Release { lease } => {
                reg.mutate(Touched::All, |d| d.release_lease(*lease, "complete"))
            }
        }
    }

    /// Apply straight to a registry; returns the new epoch.
    fn apply(&self, reg: &mut GspRegistry) -> gridvo_service::Result<u64> {
        match self {
            WriteOp::Receipt(r) => reg.report_receipt(r),
            WriteOp::Acquire { app, members, .. } => {
                reg.acquire_lease(app, members).map(|(_, epoch)| epoch)
            }
            WriteOp::Release { lease } => reg.release_lease(*lease, "complete"),
        }
    }
}

/// Timed samples, one vector per measured call.
#[derive(Default)]
struct Samples {
    formation_ns: Vec<f64>,
    self_ns: Vec<f64>,
    rounds: Vec<f64>,
    restrict_ns: Vec<f64>,
    power_ns: Vec<f64>,
    power_iterations: Vec<f64>,
    solve_ns: Vec<f64>,
    solve_nodes: u64,
    served_nodes: Vec<f64>,
    warm: Ratio,
    execute_ns: Vec<f64>,
    recovery_resolves: Vec<f64>,
    free_scenario_ns: Vec<f64>,
    sub_pool: Vec<f64>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    response_bytes: Vec<f64>,
    mutate_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    snapshot_ns: Vec<f64>,
    refresh_iterations: Vec<f64>,
    beta_apply_ns: Vec<f64>,
    append_ns: Vec<f64>,
    fsyncs_per_kevent: f64,
    bytes_per_event: f64,
    replay_events_per_s: f64,
}

/// A solve cache that times each miss: the solver runs between a
/// missed lookup and the store of its result.
struct TracingCache<'a> {
    inner: &'a mut dyn SolveCache,
    tracer: &'a mut Tracer,
    request: u64,
    parent: u64,
    missed_at: Option<Instant>,
    /// `(start, end)` of every timed solve, ns since the formation began.
    solves: Vec<(u64, u64)>,
    began: Instant,
}

impl SolveCache for TracingCache<'_> {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let hit = self.inner.lookup(key);
        self.missed_at = hit.is_none().then(Instant::now);
        hit
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        if let Some(missed) = self.missed_at.take() {
            let now = Instant::now();
            self.tracer.record("solver.solve", self.request, Some(self.parent), missed, now);
            let since = |t: Instant| (t - self.began).as_nanos() as u64;
            self.solves.push((since(missed), since(now)));
        }
        self.inner.store(key, value);
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

struct Replayer<'a> {
    ctx: &'a Ctx,
    mechanism: Mechanism,
    mirror: ShardedRegistry,
    cache: SharedSolveCache,
    tracer: Tracer,
    samples: Samples,
    tally: Tally,
    request: u64,
}

/// What the per-layer replay produced.
pub struct Layers {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Replay mismatches, counted as failed output checks.
    pub tally: Tally,
    /// Replay spans.
    pub tracer: Tracer,
    /// Whether the replay stopped early at its time budget.
    pub truncated: bool,
}

/// Replay the traced run `run` into every layer.
pub fn replay(ctx: &Ctx, run: &Run) -> Result<Layers, String> {
    let engine = FormationConfig::default().reputation;
    let (mirror, _) = ShardedRegistry::open(&ctx.scenario, engine, DEFAULT_SHARDS, None)
        .map_err(|e| format!("mirror registry: {e}"))?;
    let mut r = Replayer {
        ctx,
        mechanism: Mechanism::tvof(FormationConfig::default()),
        mirror,
        cache: SharedSolveCache::new(CACHE_CAPACITY),
        tracer: Tracer::new(run.tracer.origin(), true, 100),
        samples: Samples::default(),
        tally: Tally::default(),
        request: 100 << 32,
    };

    let (writes, reads) = timeline(&run.log, &mut r.tally);
    let stride = (reads.len() / DIRECT_SOLVE_READS).max(1);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut truncated = false;
    let mut next_write = 0;
    for (i, (epoch, ex)) in reads.iter().enumerate() {
        while next_write < writes.len() && writes[next_write].0 <= *epoch {
            r.mirror_write(&writes[next_write]);
            next_write += 1;
        }
        r.read(*epoch, ex, i % stride == 0);
        if started.elapsed() > budget {
            truncated = true;
            break;
        }
    }
    r.wire(&run.log);
    let ops: Vec<WriteOp> = if writes.is_empty() {
        probe_receipts(ctx)?.into_iter().map(WriteOp::Receipt).collect()
    } else {
        writes.into_iter().map(|(_, op)| op).collect()
    };
    let plain = r.write_path(&ops)?;
    r.beta(&plain)?;
    r.store(&plain)?;
    for ex in &run.log {
        if let Response::Execute { report: Some(report), .. } = ex.reply.last() {
            let resolves = report
                .recoveries
                .iter()
                .filter(|rec| rec.recovery_kind == RecoveryKind::Resolve)
                .count();
            r.samples.recovery_resolves.push(resolves as f64);
        }
    }
    let metrics = metrics(run, &r.samples);
    Ok(Layers { metrics, tally: r.tally, tracer: r.tracer, truncated })
}

/// Recorded writes, `(acked epoch, op)`.
type Writes = Vec<(u64, WriteOp)>;
/// Recorded reads, `(pinned epoch, exchange)`.
type Reads<'a> = Vec<(u64, &'a Exchange)>;

/// Split the log into writes `(epoch, op)` in epoch order and reads
/// `(pinned epoch, exchange)` in epoch order (log order within one
/// epoch). A write history with a gap is a failed check.
fn timeline<'a>(log: &'a [Exchange], tally: &mut Tally) -> (Writes, Reads<'a>) {
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for ex in log {
        match (&ex.request, ex.reply.last()) {
            (Request::ReportReceipt { receipt }, Response::Ack { epoch, .. }) => {
                writes.push((*epoch, WriteOp::Receipt(receipt.clone())));
            }
            (Request::Release { lease, .. }, Response::Ack { epoch, .. }) => {
                writes.push((*epoch, WriteOp::Release { lease: *lease }));
            }
            (
                Request::Form { app: Some(app), .. },
                Response::Form {
                    outcome,
                    lease: Some(lease),
                    lease_epoch: Some(lease_epoch),
                    formed_epoch: Some(formed_epoch),
                    ..
                },
            ) => {
                let members =
                    outcome.selected.as_ref().map(|v| v.members.clone()).unwrap_or_default();
                writes.push((
                    *lease_epoch,
                    WriteOp::Acquire { app: app.clone(), members, lease: *lease },
                ));
                reads.push((*formed_epoch, ex));
            }
            (
                Request::Form { app: None, .. } | Request::Execute { .. },
                Response::Form { .. } | Response::Execute { .. },
            )
            | (Request::FormBatch { .. }, Response::BatchEnd { .. }) => {
                reads.push((ex.epoch.unwrap_or(0), ex));
            }
            _ => {}
        }
    }
    writes.sort_by_key(|(epoch, _)| *epoch);
    reads.sort_by_key(|(epoch, _)| *epoch);
    let gapless = writes.iter().enumerate().all(|(i, (epoch, _))| *epoch == i as u64 + 1);
    tally.check(gapless, || "acked write epochs are not 1, 2, 3, …".to_string());
    (writes, reads)
}

/// Receipts a workload that reports none would produce if it reported
/// its executions: the fault-free execution of the pool's TVOF VO,
/// repeated [`PROBE_CYCLES`] times.
fn probe_receipts(ctx: &Ctx) -> Result<Vec<ExecutionReceipt>, String> {
    let mechanism = Mechanism::tvof(FormationConfig::default());
    let outcome = mechanism
        .run(&ctx.scenario, &mut StdRng::seed_from_u64(0))
        .map_err(|e| format!("probe formation: {e}"))?;
    let vo = outcome.selected.ok_or("probe formation selected no VO")?;
    let report = mechanism
        .execute(&ctx.scenario, &vo, &FaultPlan::empty())
        .map_err(|e| format!("probe execution: {e}"))?;
    let receipts = report.receipts();
    Ok((0..PROBE_CYCLES).flat_map(|_| receipts.iter().cloned()).collect())
}

impl Replayer<'_> {
    /// Apply one recorded write to the mirror exactly as the daemon's
    /// dispatcher does, cache eviction included.
    fn mirror_write(&mut self, (epoch, op): &(u64, WriteOp)) {
        let result = op.mutate(&self.mirror);
        if let (Ok(e), WriteOp::Receipt(r)) = (&result, op) {
            self.cache.invalidate_members(&self.mirror.shard_members(&[r.gsp]), *e);
        }
        if let (Ok(_), WriteOp::Acquire { lease, .. }) = (&result, op) {
            let newest = self.mirror.snapshot().leases.last().map(|l| l.id);
            self.tally.check(newest == Some(*lease), || {
                format!("replayed lease id {newest:?} != {lease}")
            });
        }
        let got = result.as_ref().ok().copied();
        self.tally.check(got == Some(*epoch), || {
            format!("replayed write landed at {got:?}, served at {epoch}")
        });
    }

    /// Replay one read against the mirror.
    fn read(&mut self, epoch: u64, ex: &Exchange, direct_solve: bool) {
        let snapshot = self.mirror.snapshot();
        self.tally.check(snapshot.epoch == epoch, || {
            format!("read pinned to {epoch} replayed at {}", snapshot.epoch)
        });
        match &ex.request {
            Request::Form { seed, app, .. } => {
                let market = app.is_some();
                let line = self.formation(&snapshot, *seed, market, direct_solve, ex, None);
                self.tally.check(line.as_deref() == Some(ex.reply.lines[0].as_str()), || {
                    format!("replayed form seed {seed} differs from the served reply")
                });
            }
            Request::FormBatch { seeds, .. } => {
                for (seed, served) in seeds.iter().zip(&ex.reply.lines) {
                    let line = self.formation(&snapshot, *seed, false, direct_solve, ex, None);
                    self.tally.check(line.as_deref() == Some(served.as_str()), || {
                        format!("replayed batch seed {seed} differs from the served reply")
                    });
                }
            }
            Request::Execute { seed, faults, .. } => {
                let line = self.formation(&snapshot, *seed, false, direct_solve, ex, Some(faults));
                self.tally.check(line.as_deref() == Some(ex.reply.lines[0].as_str()), || {
                    format!("replayed execute seed {seed} differs from the served reply")
                });
            }
            _ => {}
        }
    }

    /// Run one formation the way the daemon serves it (plain, market or
    /// execute), time it and its layers, and return the reply line it
    /// would have sent.
    fn formation(
        &mut self,
        snapshot: &EpochSnapshot,
        seed: u64,
        market: bool,
        direct_solve: bool,
        ex: &Exchange,
        faults: Option<&FaultPlan>,
    ) -> Option<String> {
        self.request += 1;
        let request = self.request;

        let free = &snapshot.free;
        let t = Instant::now();
        let sub = free_scenario(&snapshot.scenario, free);
        self.samples.free_scenario_ns.push(ns(t.elapsed()));
        self.samples.sub_pool.push(free.len() as f64);
        let contended = market && free.len() < snapshot.scenario.gsp_count();
        let scenario: &FormationScenario =
            if contended { sub.as_ref()? } else { &snapshot.scenario };

        let mut shared = self.cache.at_epoch(snapshot.epoch);
        let mut salted = MarketCache::new(shared.clone(), snapshot.free_digest, free);
        let inner: &mut dyn SolveCache = if market { &mut salted } else { &mut shared };
        let span = self.tracer.open();
        let started = Instant::now();
        let mut cache = TracingCache {
            inner,
            tracer: &mut self.tracer,
            request,
            parent: span,
            missed_at: None,
            solves: Vec::new(),
            began: started,
        };
        let outcome = self.mechanism.run_cached_with_budget(
            scenario,
            &mut StdRng::seed_from_u64(seed),
            &mut cache,
            &Budget::unlimited(),
        );
        let finished = Instant::now();
        let solves = std::mem::take(&mut cache.solves);
        self.tracer.close(span, "core.formation", request, None, started, finished);
        let mut outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.tally.check(false, || format!("replayed formation failed: {e}"));
                return None;
            }
        };
        outcome.zero_timings();
        let power_ns = self.rounds(scenario, &outcome, direct_solve, request);
        let formation = (0, (finished - started).as_nanos() as u64);
        self.samples.formation_ns.push(ns(finished - started));
        self.samples.self_ns.push(self_time(formation, &solves) as f64 - power_ns);

        let mut execute_faults = faults;
        let empty = FaultPlan::empty();
        if faults.is_none() {
            // Workloads that never execute time the fault-free path.
            execute_faults = Some(&empty);
        }
        let report = outcome.selected.as_ref().map(|vo| {
            let t = Instant::now();
            let report = self.mechanism.execute(scenario, vo, execute_faults.expect("set above"));
            let elapsed = Instant::now();
            self.tracer.record("core.execute", request, None, t, elapsed);
            self.samples.execute_ns.push(ns(elapsed - t));
            report
        });

        if faults.is_some() {
            let report = match report.transpose() {
                Ok(r) => r.map(|mut r| {
                    r.zero_timings();
                    r
                }),
                Err(e) => {
                    self.tally.check(false, || format!("replayed execution failed: {e}"));
                    return None;
                }
            };
            return Some(encode(&Response::Execute { outcome, report }));
        }
        if !market {
            return Some(encode(&Response::form_from(outcome)));
        }
        if contended {
            outcome.map_members(free);
        }
        match ex.reply.last() {
            Response::Form { lease, lease_epoch, formed_epoch, .. } => {
                let leased = lease.zip(*lease_epoch);
                Some(encode(&Response::market_form_from(
                    outcome,
                    leased,
                    formed_epoch.unwrap_or(0),
                )))
            }
            _ => None,
        }
    }

    /// Replay each round of `outcome` (ids local to `scenario`) into
    /// the restriction, the power method and, for sampled reads, the
    /// solver. Returns the power method's total ns.
    fn rounds(
        &mut self,
        scenario: &FormationScenario,
        outcome: &FormationOutcome,
        direct_solve: bool,
        request: u64,
    ) -> f64 {
        let engine = FormationConfig::default().reputation;
        let solver = BranchBound::default();
        let mut power_total = 0.0;
        let span = self.tracer.open();
        let started = Instant::now();
        let mut served_nodes = 0u64;
        for (k, it) in outcome.iterations.iter().enumerate() {
            served_nodes += it.nodes;
            self.samples.power_iterations.push(it.power_iterations as f64);
            if it.feasible {
                self.samples.warm.base += 1;
                if it.incumbent_source.as_deref() == Some("warm") {
                    self.samples.warm.part += 1;
                }
            }

            let t = Instant::now();
            let inst = scenario.instance_for(&it.members);
            std::hint::black_box(inst.as_ref().map(|i| i.canonical_hash()));
            let restricted = Instant::now();
            self.tracer.record("core.restrict", request, Some(span), t, restricted);
            self.samples.restrict_ns.push(ns(restricted - t));

            let prev = k.checked_sub(1).map(|p| &outcome.iterations[p]);
            let start: Option<Vec<f64>> = prev.map(|p| {
                it.members
                    .iter()
                    .map(|m| {
                        p.members
                            .iter()
                            .position(|x| x == m)
                            .map_or(0.0, |i| p.reputation_scores[i])
                    })
                    .collect()
            });
            let t = Instant::now();
            let rep = engine.compute_with_start(scenario.trust(), &it.members, start.as_deref());
            let powered = Instant::now();
            self.tracer.record("trust.power", request, Some(span), t, powered);
            self.samples.power_ns.push(ns(powered - t));
            power_total += ns(powered - t);
            let iterations = rep.map(|r| r.iterations).ok();
            self.tally.check(iterations == Some(it.power_iterations), || {
                format!(
                    "power method replay took {iterations:?} iterations, served {}",
                    it.power_iterations
                )
            });

            if let (true, Some(inst)) = (direct_solve, inst) {
                let warm = prev.zip(k.checked_sub(1).map(|p| &outcome.feasible_vos[p])).and_then(
                    |(p, vo)| {
                        let evicted = p.evicted?;
                        let local = p.members.iter().position(|&m| m == evicted)?;
                        repair_after_eviction(&vo.assignment, local, &inst)
                    },
                );
                let t = Instant::now();
                let status =
                    solver.solve_status_with_budget(&inst, warm.as_ref(), &Budget::unlimited());
                let solved = Instant::now();
                self.tracer.record("solver.solve_direct", request, Some(span), t, solved);
                let nodes = match status {
                    SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => o.nodes,
                    SolveStatus::Infeasible { nodes } | SolveStatus::Unknown { nodes } => nodes,
                };
                self.tally.check(nodes == it.nodes, || {
                    format!("direct solve expanded {nodes} nodes, served {}", it.nodes)
                });
                self.samples.solve_ns.push(ns(solved - t));
                self.samples.solve_nodes += nodes;
            }
        }
        self.tracer.close(span, "core.rounds_replay", request, None, started, Instant::now());
        self.samples.rounds.push(outcome.iterations.len() as f64);
        self.samples.served_nodes.push(served_nodes as f64);
        power_total
    }

    /// Decode and re-encode every recorded reply line.
    fn wire(&mut self, log: &[Exchange]) {
        for ex in log {
            for line in &ex.reply.lines {
                let t = Instant::now();
                let decoded = decode::<Response>(line);
                let d = Instant::now();
                let Ok(response) = decoded else {
                    self.tally.check(false, || "a recorded reply no longer decodes".to_string());
                    continue;
                };
                let encoded = encode(&response);
                let e = Instant::now();
                self.samples.decode_ns.push(ns(d - t));
                self.samples.encode_ns.push(ns(e - d));
                self.samples.response_bytes.push(line.len() as f64);
                self.tally.check(encoded == *line, || {
                    "a reply does not re-encode to its bytes".to_string()
                });
            }
        }
    }

    /// Time the write path on the recorded (or probe) write sequence:
    /// `ShardedRegistry::mutate` on an in-memory registry, the bare
    /// `GspRegistry` mutation, and the snapshot build after it.
    fn write_path(&mut self, ops: &[WriteOp]) -> Result<GspRegistry, String> {
        let engine = FormationConfig::default().reputation;
        let (sharded, _) = ShardedRegistry::open(&self.ctx.scenario, engine, DEFAULT_SHARDS, None)
            .map_err(|e| format!("write-path registry: {e}"))?;
        let mut plain = GspRegistry::from_scenario(&self.ctx.scenario, engine)
            .map_err(|e| format!("write-path registry: {e}"))?;
        for op in ops {
            let t = Instant::now();
            let via_shards = op.mutate(&sharded);
            let mutated = Instant::now();
            let direct = op.apply(&mut plain);
            let applied = Instant::now();
            let scenario = plain.scenario();
            let view = plain.snapshot();
            let built = Instant::now();
            std::hint::black_box(&scenario);
            self.samples.mutate_ns.push(ns(mutated - t));
            self.samples.apply_ns.push(ns(applied - mutated));
            self.samples.snapshot_ns.push(ns(built - applied));
            self.samples.refresh_iterations.push(view.power_iterations as f64);
            let agree = matches!((&via_shards, &direct), (Ok(a), Ok(b)) if a == b);
            self.tally
                .check(agree, || format!("write replay diverged: {via_shards:?} vs {direct:?}"));
        }
        Ok(plain)
    }

    /// Time `BetaLedger::apply_to` over the declared trust graph, on the
    /// write path's ledger (or one folded from probe receipts).
    fn beta(&mut self, plain: &GspRegistry) -> Result<(), String> {
        let ledger = match plain.beta() {
            Some(l) => l.clone(),
            None => {
                let mut l = BetaLedger::new(self.ctx.scenario.gsp_count(), DEFAULT_LAMBDA);
                for r in probe_receipts(self.ctx)? {
                    r.fold_into(&mut l).map_err(|e| format!("probe ledger: {e}"))?;
                }
                l
            }
        };
        for _ in 0..BETA_APPLIES {
            let t = Instant::now();
            let applied = ledger.apply_to(self.ctx.scenario.trust());
            self.samples.beta_apply_ns.push(ns(t.elapsed()));
            std::hint::black_box(applied.map_err(|e| format!("beta apply: {e}"))?);
        }
        Ok(())
    }

    /// Append the write path's journal events to a fresh store under
    /// the default fsync policy, then time recovery from it.
    fn store(&mut self, plain: &GspRegistry) -> Result<(), String> {
        let engine = FormationConfig::default().reputation;
        let dir = self.ctx.work.join("store-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let events: &[RegistryEvent] = plain.events();
        let genesis = GspRegistry::from_scenario(&self.ctx.scenario, engine)
            .and_then(|r| r.persisted_state())
            .map_err(|e| format!("genesis state: {e}"))?;
        {
            let (mut store, _) =
                Store::<PersistedState, RegistryEvent>::open(&StoreConfig::new(&dir))
                    .map_err(|e| format!("store open: {e}"))?;
            store.bootstrap(&genesis).map_err(|e| format!("store bootstrap: {e}"))?;
            let base = store.stats();
            for event in events {
                let t = Instant::now();
                store.append(event).map_err(|e| format!("store append: {e}"))?;
                self.samples.append_ns.push(ns(t.elapsed()));
            }
            let stats = store.stats();
            let n = events.len().max(1) as f64;
            self.samples.fsyncs_per_kevent = (stats.fsyncs - base.fsyncs) as f64 * 1000.0 / n;
            self.samples.bytes_per_event =
                (stats.journal_bytes_written - base.journal_bytes_written) as f64 / n;
        }
        let t = Instant::now();
        let (recovered, epoch) =
            DurableRegistry::open(&self.ctx.scenario, engine, Some(&PersistConfig::new(&dir)))
                .map_err(|e| format!("store recovery: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&recovered);
        self.samples.replay_events_per_s = events.len() as f64 / secs;
        let want = plain.epoch();
        self.tally.check(epoch == Some(want), || {
            format!("store recovered epoch {epoch:?}, wrote {want}")
        });
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

fn metric(name: &str, unit: &'static str, value: Option<f64>, detail: String) -> Metric {
    Metric { name: name.to_string(), unit, value: value.unwrap_or(0.0), detail }
}

fn mean_of(name: &str, unit: &'static str, xs: &[f64], scale: f64) -> Metric {
    metric(name, unit, mean(xs).map(|m| m * scale), format!("mean of {}", xs.len()))
}

/// Assemble the per-layer metrics (everything but
/// `bench.trace_overhead_frac`, which needs the untraced run).
fn metrics(run: &Run, s: &Samples) -> Vec<Metric> {
    let queue_mean = (run.queue_wait.1 > 0).then(|| run.queue_wait.0 / run.queue_wait.1 as f64);
    let serve_mean = (run.serve.1 > 0).then(|| run.serve.0 / run.serve.1 as f64);
    let client_mean = mean(&run.queued_ms);
    let wire = match (client_mean, serve_mean, queue_mean) {
        (Some(c), Some(sv), Some(q)) => Some(c - sv - q),
        _ => None,
    };
    let solve_total: f64 = s.solve_ns.iter().sum();
    let ns_per_node = (s.solve_nodes > 0).then(|| solve_total / s.solve_nodes as f64);
    let attempted = run.tally.attempted.max(1) as f64;
    let market = run.workload == Workload::MarketContend;
    let lease = Ratio { part: run.leases, base: run.market_forms };
    vec![
        metric(
            "service.queue_wait_ms",
            "ms",
            queue_mean,
            format!("daemon mean of {}", run.queue_wait.1),
        ),
        metric("service.serve_ms", "ms", serve_mean, format!("daemon mean of {}", run.serve.1)),
        metric(
            "service.wire_ms",
            "ms",
            wire,
            format!("client mean of {} − serve − queue", run.queued_ms.len()),
        ),
        mean_of("service.encode_us", "us", &s.encode_ns, 1e-3),
        mean_of("service.decode_us", "us", &s.decode_ns, 1e-3),
        mean_of("service.response_bytes", "bytes", &s.response_bytes, 1.0),
        metric("service.cache_hit_ratio", "ratio", run.cache.value(), run.cache.describe()),
        mean_of("service.mutate_us", "us", &s.mutate_ns, 1e-3),
        mean_of("service.apply_us", "us", &s.apply_ns, 1e-3),
        mean_of("service.snapshot_build_us", "us", &s.snapshot_ns, 1e-3),
        mean_of("trust.power_us", "us", &s.power_ns, 1e-3),
        mean_of("trust.power_iterations", "count", &s.power_iterations, 1.0),
        mean_of("trust.refresh_power_iterations", "count", &s.refresh_iterations, 1.0),
        mean_of("trust.beta_apply_us", "us", &s.beta_apply_ns, 1e-3),
        mean_of("core.formation_ms", "ms", &s.formation_ns, 1e-6),
        mean_of("core.rounds", "count", &s.rounds, 1.0),
        mean_of("core.self_ms", "ms", &s.self_ns, 1e-6),
        mean_of("core.restrict_us", "us", &s.restrict_ns, 1e-3),
        mean_of("core.execute_ms", "ms", &s.execute_ns, 1e-6),
        mean_of("core.recovery_resolves", "count", &s.recovery_resolves, 1.0),
        mean_of("solver.nodes", "count", &s.served_nodes, 1.0),
        mean_of("solver.solve_ms", "ms", &s.solve_ns, 1e-6),
        metric("solver.ns_per_node", "ns", ns_per_node, format!("{} nodes", s.solve_nodes)),
        metric("solver.warm_ratio", "ratio", s.warm.value(), s.warm.describe()),
        metric(
            "solver.capped_rounds",
            "count",
            Some(run.capped_rounds as f64),
            "served rounds".to_string(),
        ),
        mean_of("market.free_scenario_us", "us", &s.free_scenario_ns, 1e-3),
        mean_of("market.sub_pool_gsps", "count", &s.sub_pool, 1.0),
        metric(
            "market.lease_ratio",
            "ratio",
            Some(if market { lease.value().unwrap_or(0.0) } else { 0.0 }),
            lease.describe(),
        ),
        metric(
            "market.pool_exhausted",
            "count",
            Some(run.tally.pool_exhausted as f64),
            String::new(),
        ),
        metric("market.busy", "count", Some(run.tally.busy as f64), String::new()),
        mean_of("store.append_us", "us", &s.append_ns, 1e-3),
        metric(
            "store.fsyncs_per_kevent",
            "count",
            Some(s.fsyncs_per_kevent),
            format!("{} events", s.append_ns.len()),
        ),
        metric(
            "store.bytes_per_event",
            "bytes",
            Some(s.bytes_per_event),
            format!("{} events", s.append_ns.len()),
        ),
        metric(
            "store.replay_events_per_s",
            "1/s",
            Some(s.replay_events_per_s),
            format!("{} events", s.append_ns.len()),
        ),
        metric(
            "loadgen.late_p99_ms",
            "ms",
            percentile(&run.late_ms, 99.0),
            format!("p99 of {}", run.late_ms.len()),
        ),
        metric(
            "bench.shed_frac",
            "ratio",
            Some(run.tally.shed as f64 / attempted),
            format!("{} of {}", run.tally.shed, run.tally.attempted),
        ),
        metric(
            "bench.error_frac",
            "ratio",
            Some(run.tally.failed as f64 / attempted),
            format!("{} of {}", run.tally.failed, run.tally.attempted),
        ),
    ]
}
