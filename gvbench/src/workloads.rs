//! The three workloads: set-up, the timed load, and the output checks.
//!
//! Every workload launches its own `gridvo serve` child several times
//! (set-up is timed each time and the last daemon is kept), runs its
//! load generator against it for the run length, then checks the
//! daemon's outputs. Failures never abort a run: they are counted.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gridvo_core::{FormationConfig, FormationScenario, Mechanism};
use gridvo_service::protocol::{encode, MechanismKind, Request, Response};
use gridvo_service::{GspRegistry, MetricsSnapshot};
use gridvo_sim::faults::FaultModel;
use gridvo_sim::market::synthetic_trace;
use gridvo_solver::BranchBound;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::daemon::{children_cpu_s, Daemon};
use crate::pool;
use crate::stats::Ratio;
use crate::trace::Tracer;
use crate::wire::{Conn, Reply};

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit formations over a registry that never changes.
    FormHot,
    /// Execute, then report every receipt, on a durable registry.
    ReformLoop,
    /// Two applications leasing coalitions from one pool.
    MarketContend,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::FormHot, Workload::ReformLoop, Workload::MarketContend];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::FormHot => "form-hot",
            Workload::ReformLoop => "reform-loop",
            Workload::MarketContend => "market-contend",
        }
    }
}

/// What one run needs.
#[derive(Clone)]
pub struct Ctx {
    /// The `gridvo` release binary.
    pub gridvo: PathBuf,
    /// This run's scratch directory (data dirs, the scenario file).
    pub work: PathBuf,
    /// The pool scenario file the daemon loads.
    pub scenario_path: PathBuf,
    /// The pool, parsed back from that file.
    pub scenario: FormationScenario,
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// One request and its reply, kept for the per-layer replay.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// What was sent.
    pub request: Request,
    /// What came back.
    pub reply: Reply,
    /// The registry epoch a read was pinned to, where the load
    /// generator knows it (single-writer workloads). Market replies
    /// carry their epochs themselves.
    pub epoch: Option<u64>,
}

/// Counts of attempted, failed and shed requests, plus the first few
/// failure descriptions.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent, and end-of-run output checks made.
    pub attempted: u64,
    /// Error replies, transport failures and failed output checks.
    pub failed: u64,
    /// `busy`, `pool_exhausted`, `throttled` and `deadline_exceeded`.
    pub shed: u64,
    /// `pool_exhausted` replies.
    pub pool_exhausted: u64,
    /// `busy` replies.
    pub busy: u64,
    /// Up to [`MAX_FAILURE_NOTES`] failure descriptions.
    pub failures: Vec<String>,
}

const MAX_FAILURE_NOTES: usize = 20;

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(note);
        }
    }

    /// An output check: one attempt, failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.pool_exhausted += other.pool_exhausted;
        self.busy += other.busy;
        for note in other.failures {
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(note);
            }
        }
    }
}

/// Everything one run measured.
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Each set-up: daemon launch to first timed request (s).
    pub setup_s: Vec<f64>,
    /// Wall clock of the timed phase (s).
    pub elapsed_s: f64,
    /// `(completed at, latency)` of every `form`, `form --app` and
    /// `execute` that formed: seconds since the timed phase began, and
    /// client-observed ms (market forms from their due time).
    pub forms: Vec<(f64, f64)>,
    /// `(completed at, seeds formed)` of every formation reply, batches
    /// included.
    pub formed_at: Vec<(f64, u64)>,
    /// Ack latency of every `report_receipt` and `release_lease` (ms).
    pub write_ms: Vec<f64>,
    /// Send-to-reply latency of every queued request that was served
    /// (ms) — the client side of the daemon's queue + serve histograms.
    pub queued_ms: Vec<f64>,
    /// How far each send ran behind its schedule (ms).
    pub late_ms: Vec<f64>,
    /// `market-contend` only: latency of each market form timed from
    /// its due time (ms), so it includes the generator's lateness.
    pub due_ms: Vec<f64>,
    /// Seeds formed, batch seeds included.
    pub seeds_formed: u64,
    /// Request and check counts.
    pub tally: Tally,
    /// CPU seconds the measured daemon used, from launch to exit (the
    /// timed phase is nearly all of it).
    pub daemon_cpu_s: f64,
    /// Restart on the run's data dir until the first ping answered (s).
    pub recovery_s: Option<f64>,
    /// Solve-cache hits over lookups in the timed phase.
    pub cache: Ratio,
    /// The daemon's queue-wait histogram over the timed phase:
    /// `(sum_ms, count)`.
    pub queue_wait: (f64, u64),
    /// The daemon's service-time histogram over the timed phase.
    pub serve: (f64, u64),
    /// Market forms sent.
    pub market_forms: u64,
    /// Leases acquired.
    pub leases: u64,
    /// Served solver rounds that ended at the node cap.
    pub capped_rounds: u64,
    /// Exchanges of the timed phase, in completion order per
    /// connection (kept only when tracing).
    pub log: Vec<Exchange>,
    /// Load-generator spans (empty unless tracing).
    pub tracer: Tracer,
}

/// Daemon launches per run; set-up time is their median. One launch
/// takes a few ms, so a single one is mostly process-spawn noise.
const SETUPS: usize = 15;
/// Distinct formation seeds `form-hot` cycles through.
const WORKING_SET: usize = 32;
/// Seeds per `form_batch` request.
const BATCH: usize = 16;
/// `reform-loop` fault plans: per-member, per-round probabilities over
/// this many execution rounds. Crashes and silent drops only: a
/// slowdown rescales task times, and re-solving a rescaled instance
/// can need the whole node cap, which the pool sizing cannot bound.
const FAULT_MODEL: FaultModel = FaultModel {
    rounds: 3,
    crash_rate: 0.075,
    slowdown_rate: 0.0,
    slowdown_range: (1.5, 4.0),
    drop_rate: 0.03,
    max_dropped_tasks: 2,
};
/// `market-contend` time scaling: trace seconds → milliseconds. The
/// arrival scale puts the trace's offered load at the two apps'
/// capacity, so they run back to back and rarely idle: on a shared
/// two-vCPU machine, idle-to-busy wake-ups made the latency of a lightly
/// loaded market swing by ±40% between runs of one seed. Holds average
/// about a third of an app's cycle, so most forms see the other app's
/// lease.
const ARRIVAL_MS_PER_TRACE_S: f64 = 0.0008;
const HOLD_MS_PER_TRACE_S: f64 = 0.00003;
/// The two market applications.
const APPS: [&str; 2] = ["atlas", "cms"];
/// A market application checks the lease table every this many jobs.
const LEASE_CHECK_EVERY: usize = 8;

/// Formation seeds stay below 2^40 so they survive the wire's i64.
fn formation_seed(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..1u64 << 40)
}

/// Served solves that used the whole node budget: formation rounds,
/// and fault recoveries whose re-solves reached it.
fn capped_rounds(response: &Response) -> u64 {
    let cap = BranchBound::default().max_nodes;
    let capped = |nodes: u64| u64::from(nodes >= cap);
    match response {
        Response::Form { outcome, .. } => {
            outcome.iterations.iter().map(|it| capped(it.nodes)).sum()
        }
        Response::Execute { outcome, report } => {
            let rounds: u64 = outcome.iterations.iter().map(|it| capped(it.nodes)).sum();
            let recoveries: u64 = report
                .iter()
                .flat_map(|r| &r.recoveries)
                .map(|rec| capped(rec.resolve_nodes))
                .sum();
            rounds + recoveries
        }
        _ => 0,
    }
}

/// One connection's load generator.
struct Gen {
    addr: String,
    conn: Conn,
    tracer: Tracer,
    keep_log: bool,
    closed_loop: bool,
    request_id: u64,
    last_reply: Option<Instant>,
    origin: Instant,
    tally: Tally,
    forms: Vec<(f64, f64)>,
    formed_at: Vec<(f64, u64)>,
    write_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    late_ms: Vec<f64>,
    due_ms: Vec<f64>,
    seeds_formed: u64,
    market_forms: u64,
    leases: u64,
    capped_rounds: u64,
    log: Vec<Exchange>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Gen {
    fn new(
        addr: &str,
        origin: Instant,
        trace: bool,
        block: u64,
        closed_loop: bool,
    ) -> Result<Gen, String> {
        Ok(Gen {
            addr: addr.to_string(),
            conn: Conn::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?,
            tracer: Tracer::new(origin, trace, block),
            keep_log: trace,
            closed_loop,
            request_id: block << 32,
            last_reply: None,
            origin,
            tally: Tally::default(),
            forms: Vec::new(),
            formed_at: Vec::new(),
            write_ms: Vec::new(),
            queued_ms: Vec::new(),
            late_ms: Vec::new(),
            due_ms: Vec::new(),
            seeds_formed: 0,
            market_forms: 0,
            leases: 0,
            capped_rounds: 0,
            log: Vec::new(),
        })
    }

    /// Send one request. Returns the reply and its send-to-reply
    /// latency in ms, or `None` after counting a transport failure
    /// (the connection is re-opened for the next request). Error
    /// replies are counted as failures here; callers classify the
    /// rest.
    fn call(&mut self, request: Request, epoch: Option<u64>) -> Option<(Reply, f64)> {
        self.tally.attempted += 1;
        self.request_id += 1;
        let sent = Instant::now();
        if self.closed_loop {
            if let Some(last) = self.last_reply {
                self.late_ms.push(ms(sent - last));
            }
        }
        let result = self.conn.call(&request, &mut self.tracer, self.request_id);
        let done = Instant::now();
        self.last_reply = Some(done);
        match result {
            Ok(reply) => {
                for r in &reply.responses {
                    if let Response::Error { message } = r {
                        self.tally.fail(format!("{} answered error: {message}", request.op()));
                    }
                    self.capped_rounds += capped_rounds(r);
                }
                if self.keep_log {
                    self.log.push(Exchange { request, reply: reply.clone(), epoch });
                }
                Some((reply, ms(done - sent)))
            }
            Err(e) => {
                self.tally.fail(format!("{}: {e}", request.op()));
                if let Ok(conn) = Conn::connect(&self.addr) {
                    self.conn = conn;
                }
                None
            }
        }
    }

    /// Count a formation reply: its latency sample (none for a batch)
    /// and the seeds it formed.
    fn formed(&mut self, latency_ms: Option<f64>, seeds: u64) {
        let at = self.origin.elapsed().as_secs_f64();
        if let Some(latency) = latency_ms {
            self.forms.push((at, latency));
        }
        self.formed_at.push((at, seeds));
        self.seeds_formed += seeds;
    }

    /// Classify a reply that is not what the request should get.
    fn unexpected(&mut self, response: &Response) {
        match response {
            Response::Busy => {
                self.tally.shed += 1;
                self.tally.busy += 1;
            }
            Response::PoolExhausted { .. } => {
                self.tally.shed += 1;
                self.tally.pool_exhausted += 1;
            }
            Response::Throttled | Response::DeadlineExceeded => self.tally.shed += 1,
            // Already counted by `call`.
            Response::Error { .. } => {}
            other => self.tally.fail(format!("unexpected {} reply", other.kind())),
        }
    }

    /// Fold this generator's results into `run`.
    fn finish(self, run: &mut Run) {
        run.tally.absorb(self.tally);
        run.forms.extend(self.forms);
        run.formed_at.extend(self.formed_at);
        run.write_ms.extend(self.write_ms);
        run.queued_ms.extend(self.queued_ms);
        run.late_ms.extend(self.late_ms);
        run.due_ms.extend(self.due_ms);
        run.seeds_formed += self.seeds_formed;
        run.market_forms += self.market_forms;
        run.leases += self.leases;
        run.capped_rounds += self.capped_rounds;
        run.log.extend(self.log);
        run.tracer.absorb(self.tracer);
    }
}

/// A request and its single reply, outside the timed phase.
fn ask(conn: &mut Conn, request: &Request) -> Result<Reply, String> {
    let mut off = Tracer::new(Instant::now(), false, 0);
    conn.call(request, &mut off, 0)
}

fn ping(conn: &mut Conn) -> Result<(), String> {
    match ask(conn, &Request::Ping { sleep_ms: 0 })?.last() {
        Response::Pong => Ok(()),
        other => Err(format!("ping answered {}", other.kind())),
    }
}

fn form_request(seed: u64, app: Option<&str>) -> Request {
    Request::Form {
        seed,
        mechanism: MechanismKind::Tvof,
        deadline_ms: None,
        app: app.map(str::to_string),
    }
}

fn metrics(addr: &str) -> Result<MetricsSnapshot, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match ask(&mut conn, &Request::Metrics)?.last() {
        Response::Metrics { snapshot } => Ok(snapshot.clone()),
        other => Err(format!("metrics answered {}", other.kind())),
    }
}

fn serve_args(ctx: &Ctx, data: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--scenario".to_string(),
        ctx.scenario_path.display().to_string(),
        "--workers".to_string(),
        "2".to_string(),
    ];
    if let Some(dir) = data {
        args.push("--data-dir".to_string());
        args.push(dir.display().to_string());
    }
    args
}

/// Launch the daemon [`SETUPS`] times (each on a fresh data dir),
/// timing launch + `warm` each time; keep the last daemon.
fn setup(
    ctx: &Ctx,
    data: Option<&Path>,
    mut warm: impl FnMut(&mut Conn) -> Result<(), String>,
) -> Result<(Daemon, Vec<f64>), String> {
    let args = serve_args(ctx, data);
    let mut times = Vec::new();
    let mut kept: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.stop()?;
        }
        if let Some(dir) = data {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let daemon = Daemon::launch(&ctx.gridvo, &args)?;
        let mut conn =
            Conn::connect(&daemon.addr).map_err(|e| format!("cannot connect to daemon: {e}"))?;
        warm(&mut conn)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(daemon);
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

impl Run {
    fn new(workload: Workload, setup_s: Vec<f64>, origin: Instant) -> Run {
        Run {
            workload,
            setup_s,
            elapsed_s: 0.0,
            forms: Vec::new(),
            formed_at: Vec::new(),
            write_ms: Vec::new(),
            queued_ms: Vec::new(),
            late_ms: Vec::new(),
            due_ms: Vec::new(),
            seeds_formed: 0,
            tally: Tally::default(),
            daemon_cpu_s: 0.0,
            recovery_s: None,
            cache: Ratio { part: 0, base: 0 },
            queue_wait: (0.0, 0),
            serve: (0.0, 0),
            market_forms: 0,
            leases: 0,
            capped_rounds: 0,
            log: Vec::new(),
            tracer: Tracer::new(origin, false, 0),
        }
    }

    /// Record the daemon-side counters of the timed phase.
    fn daemon_delta(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        self.cache = Ratio { part: hits, base: hits + misses };
        self.queue_wait = (
            after.queue_wait_ms.sum_ms - before.queue_wait_ms.sum_ms,
            after.queue_wait_ms.count - before.queue_wait_ms.count,
        );
        self.serve = (
            after.service_ms.sum_ms - before.service_ms.sum_ms,
            after.service_ms.count - before.service_ms.count,
        );
    }
}

/// Run one workload.
pub fn run(ctx: &Ctx, workload: Workload, trace: bool) -> Result<Run, String> {
    match workload {
        Workload::FormHot => form_hot(ctx, trace),
        Workload::ReformLoop => reform_loop(ctx, trace),
        Workload::MarketContend => market_contend(ctx, trace),
    }
}

/// `form-hot`: client A sends single TVOF forms over a 32-seed working
/// set, client B sends 16-seed batches drawn from the same set. The
/// cache is warmed during set-up, so every timed solve is a hit.
fn form_hot(ctx: &Ctx, trace: bool) -> Result<Run, String> {
    let mut rng = pool::rng(ctx.seed, 1);
    let set: Vec<u64> = (0..WORKING_SET).map(|_| formation_seed(&mut rng)).collect();
    let mut expected: HashMap<u64, String> = HashMap::new();
    let (daemon, setup_s) = setup(ctx, None, |conn| {
        for &seed in &set {
            let reply = ask(conn, &form_request(seed, None))?;
            if !matches!(reply.last(), Response::Form { .. }) {
                return Err(format!("warm-up form answered {}", reply.last().kind()));
            }
            expected.insert(seed, reply.lines[0].clone());
        }
        Ok(())
    })?;
    let cpu_before = children_cpu_s();
    let before = metrics(&daemon.addr)?;
    let origin = Instant::now();
    let mut run = Run::new(Workload::FormHot, setup_s, origin);
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let (a, b) = std::thread::scope(|s| {
        let singles = s.spawn(|| -> Result<Gen, String> {
            let mut g = Gen::new(&daemon.addr, origin, trace, 1, true)?;
            let mut i = 0;
            while Instant::now() < deadline {
                let seed = set[i % set.len()];
                i += 1;
                let Some((reply, latency)) = g.call(form_request(seed, None), Some(0)) else {
                    continue;
                };
                match reply.last() {
                    Response::Form { .. } => {
                        g.formed(Some(latency), 1);
                        g.queued_ms.push(latency);
                        if reply.lines[0] != expected[&seed] {
                            g.tally.fail(format!("form seed {seed}: reply bytes changed"));
                        }
                    }
                    other => g.unexpected(other),
                }
            }
            Ok(g)
        });
        let batches = s.spawn(|| -> Result<Gen, String> {
            let mut g = Gen::new(&daemon.addr, origin, trace, 2, true)?;
            let mut rng = pool::rng(ctx.seed, 2);
            while Instant::now() < deadline {
                let seeds: Vec<u64> =
                    (0..BATCH).map(|_| set[rng.gen_range(0..set.len())]).collect();
                let request = Request::FormBatch {
                    seeds: seeds.clone(),
                    mechanism: MechanismKind::Tvof,
                    deadline_ms: None,
                };
                let Some((reply, latency)) = g.call(request, Some(0)) else { continue };
                match reply.last() {
                    Response::BatchEnd { served, .. } => {
                        g.queued_ms.push(latency);
                        g.formed(None, *served);
                        if *served as usize != seeds.len() || reply.lines.len() != seeds.len() + 1 {
                            g.tally.fail(format!("batch served {served} of {} seeds", seeds.len()));
                        }
                        for (seed, line) in seeds.iter().zip(&reply.lines) {
                            if *line != expected[seed] {
                                g.tally.fail(format!("batch seed {seed}: reply bytes differ"));
                            }
                        }
                    }
                    other => g.unexpected(other),
                }
            }
            Ok(g)
        });
        (
            singles.join().expect("form thread panicked"),
            batches.join().expect("batch thread panicked"),
        )
    });
    run.elapsed_s = origin.elapsed().as_secs_f64();
    a?.finish(&mut run);
    b?.finish(&mut run);
    let after = metrics(&daemon.addr)?;
    run.daemon_delta(&before, &after);

    // One reply per seed must equal a direct run on the registry's
    // scenario.
    let engine = FormationConfig::default().reputation;
    let scenario = GspRegistry::from_scenario(&ctx.scenario, engine)
        .and_then(|r| r.scenario())
        .map_err(|e| format!("registry scenario: {e}"))?;
    for &seed in &set {
        let direct = Mechanism::tvof(FormationConfig::default())
            .run(&scenario, &mut StdRng::seed_from_u64(seed))
            .map(|mut outcome| {
                outcome.zero_timings();
                encode(&Response::form_from(outcome))
            });
        run.tally.check(direct.as_ref() == Ok(&expected[&seed]), || {
            format!("form seed {seed}: served reply differs from a direct Mechanism::run")
        });
    }
    daemon.stop()?;
    run.daemon_cpu_s = children_cpu_s() - cpu_before;
    Ok(run)
}

/// `reform-loop`: one connection, durable data dir. Each cycle sends a
/// TVOF `execute` with a seeded fault plan, then a `report_receipt`
/// for every receipt of the returned report. After the timed phase the
/// daemon is killed and restarted on the same data dir.
fn reform_loop(ctx: &Ctx, trace: bool) -> Result<Run, String> {
    let data = ctx.work.join("reform-data");
    let (daemon, setup_s) = setup(ctx, Some(&data), ping)?;
    let cpu_before = children_cpu_s();
    let before = metrics(&daemon.addr)?;
    let origin = Instant::now();
    let mut run = Run::new(Workload::ReformLoop, setup_s, origin);
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let mut g = Gen::new(&daemon.addr, origin, trace, 1, true)?;
    let mut rng = pool::rng(ctx.seed, 3);
    let ids: Vec<usize> = (0..ctx.scenario.gsp_count()).collect();
    let mut epoch = 0u64;
    while Instant::now() < deadline {
        let request = Request::Execute {
            seed: formation_seed(&mut rng),
            mechanism: MechanismKind::Tvof,
            faults: FAULT_MODEL.plan(&ids, &mut rng),
            deadline_ms: None,
        };
        let Some((reply, latency)) = g.call(request, Some(epoch)) else { continue };
        let receipts = match reply.last() {
            Response::Execute { report, .. } => {
                g.formed(Some(latency), 1);
                g.queued_ms.push(latency);
                report.as_ref().map(|r| r.receipts()).unwrap_or_default()
            }
            other => {
                g.unexpected(other);
                continue;
            }
        };
        for receipt in receipts {
            let Some((reply, latency)) = g.call(Request::ReportReceipt { receipt }, None) else {
                continue;
            };
            match reply.last() {
                Response::Ack { epoch: acked, .. } => {
                    g.write_ms.push(latency);
                    if *acked != epoch + 1 {
                        g.tally.fail(format!("receipt acked epoch {acked} after {epoch}"));
                    }
                    epoch = *acked;
                }
                other => g.unexpected(other),
            }
        }
    }
    run.elapsed_s = origin.elapsed().as_secs_f64();
    let after = metrics(&daemon.addr)?;

    // What the daemon says before it stops …
    let check_seed = formation_seed(&mut rng);
    let registry_before = g.call(Request::Registry, Some(epoch)).map(|(r, _)| r.lines[0].clone());
    let form_before =
        g.call(form_request(check_seed, None), Some(epoch)).map(|(r, _)| r.lines[0].clone());
    g.finish(&mut run);
    run.daemon_delta(&before, &after);
    daemon.kill();
    run.daemon_cpu_s = children_cpu_s() - cpu_before;

    // … must be what it says after recovering from the data dir.
    let restarted = Instant::now();
    let recovered = Daemon::launch(&ctx.gridvo, &serve_args(ctx, Some(&data)))?;
    let mut conn = Conn::connect(&recovered.addr)
        .map_err(|e| format!("cannot reconnect after restart: {e}"))?;
    ping(&mut conn)?;
    run.recovery_s = Some(restarted.elapsed().as_secs_f64());
    let recovered_epoch = recovered.recovered_epoch;
    run.tally.check(recovered_epoch == Some(epoch), || {
        format!("recovered epoch {recovered_epoch:?}, expected {epoch}")
    });
    let registry_after = ask(&mut conn, &Request::Registry).map(|r| r.lines[0].clone());
    run.tally.check(registry_before.is_some() && registry_after.ok() == registry_before, || {
        "registry bytes changed across recovery".to_string()
    });
    let form_after = ask(&mut conn, &form_request(check_seed, None)).map(|r| r.lines[0].clone());
    run.tally.check(form_before.is_some() && form_after.ok() == form_before, || {
        "form bytes changed across recovery".to_string()
    });
    drop(conn);
    recovered.stop()?;
    Ok(run)
}

/// One market job: when it is due and how long it holds its lease.
struct Job {
    due_ms: f64,
    hold_ms: f64,
    seed: u64,
}

/// `market-contend`: two applications replay a synthetic SWF trace.
/// Each sends `form --app` at its job's due time (or as soon as its
/// previous job ends, if that is later), holds the lease for the
/// scaled runtime, then releases it. Form latency is timed from the
/// send; the latency from the due time, which adds the generator's
/// backlog, is kept beside it.
fn market_contend(ctx: &Ctx, trace: bool) -> Result<Run, String> {
    let (daemon, setup_s) = setup(ctx, None, ping)?;
    let cpu_before = children_cpu_s();

    // Enough trace to outlast the run (mean inter-arrival ≈ 465 s of
    // trace time, one job in six fails and is dropped).
    let wanted = (ctx.seconds * 1e3 / ARRIVAL_MS_PER_TRACE_S / 465.0 * 1.4) as usize + 64;
    let swf = synthetic_trace(wanted, ctx.seed);
    let mut jobs: [Vec<Job>; 2] = [Vec::new(), Vec::new()];
    for (k, job) in swf.completed().enumerate() {
        jobs[k % APPS.len()].push(Job {
            due_ms: job.submit_time * ARRIVAL_MS_PER_TRACE_S,
            hold_ms: job.run_time * HOLD_MS_PER_TRACE_S,
            seed: (job.job_id as u64) ^ (ctx.seed << 20),
        });
    }

    let before = metrics(&daemon.addr)?;
    let origin = Instant::now();
    let mut run = Run::new(Workload::MarketContend, setup_s, origin);
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let gens: Vec<Result<Gen, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = APPS
            .iter()
            .zip(&jobs)
            .enumerate()
            .map(|(i, (app, jobs))| {
                let addr = &daemon.addr;
                s.spawn(move || market_app(addr, origin, deadline, trace, i as u64 + 1, app, jobs))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("market thread panicked")).collect()
    });
    run.elapsed_s = origin.elapsed().as_secs_f64();
    for g in gens {
        g?.finish(&mut run);
    }
    let after = metrics(&daemon.addr)?;
    run.daemon_delta(&before, &after);

    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("cannot connect: {e}"))?;
    let live = match ask(&mut conn, &Request::Leases)?.last() {
        Response::Leases { leases, .. } => leases.len(),
        other => return Err(format!("leases answered {}", other.kind())),
    };
    run.tally.check(live == 0, || format!("{live} lease(s) still live at the end"));
    run.tally.check(after.leases_released - before.leases_released == run.leases, || {
        "leases acquired and released differ".to_string()
    });
    drop(conn);
    daemon.stop()?;
    run.daemon_cpu_s = children_cpu_s() - cpu_before;
    Ok(run)
}

/// Wait until `t` by yielding the CPU in a loop rather than sleeping.
/// A sleep lets both vCPUs of a small machine go idle, and waking an
/// idle vCPU on a shared host sometimes takes milliseconds; that delay
/// would land in the daemon's next reply and make the latency a
/// property of the host's mood rather than of the code.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

fn market_app(
    addr: &str,
    origin: Instant,
    deadline: Instant,
    trace: bool,
    block: u64,
    app: &str,
    jobs: &[Job],
) -> Result<Gen, String> {
    let mut g = Gen::new(addr, origin, trace, block, false)?;
    for (n, job) in jobs.iter().enumerate() {
        let due = origin + Duration::from_secs_f64(job.due_ms / 1e3);
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        wait_until(due);
        g.late_ms.push(ms(Instant::now().saturating_duration_since(due)));
        g.market_forms += 1;
        let Some((reply, latency)) = g.call(form_request(job.seed, Some(app)), None) else {
            continue;
        };
        match reply.last() {
            Response::Form { lease: Some(lease), .. } => {
                g.formed(Some(latency), 1);
                g.due_ms.push(ms(Instant::now().saturating_duration_since(due)));
                g.queued_ms.push(latency);
                g.leases += 1;
                wait_until(Instant::now() + Duration::from_secs_f64(job.hold_ms / 1e3));
                let release = Request::Release { lease: *lease, abandon: false };
                if let Some((reply, latency)) = g.call(release, None) {
                    match reply.last() {
                        Response::Ack { .. } => g.write_ms.push(latency),
                        other => g.unexpected(other),
                    }
                }
            }
            Response::Form { lease: None, .. } => {
                g.tally.fail(format!("{app}: market form committed no lease"));
            }
            other => g.unexpected(other),
        }
        if n % LEASE_CHECK_EVERY == LEASE_CHECK_EVERY - 1 {
            if let Some((reply, _)) = g.call(Request::Leases, None) {
                match reply.last() {
                    Response::Leases { leases, .. } => {
                        let mut held: Vec<usize> =
                            leases.iter().flat_map(|l| l.members.iter().copied()).collect();
                        let total = held.len();
                        held.sort_unstable();
                        held.dedup();
                        if held.len() != total {
                            g.tally.fail("a GSP is held by two live leases".to_string());
                        }
                    }
                    other => g.unexpected(other),
                }
            }
        }
    }
    Ok(g)
}
