//! The daemon: listener, connection threads, bounded job queue, and
//! the worker pool.
//!
//! ## Thread model
//!
//! * **Listener** — polls a non-blocking `TcpListener` (loopback),
//!   spawning one connection thread per accepted client. Polling
//!   (rather than a blocking `accept`) lets shutdown work without a
//!   self-connect trick.
//! * **Connection threads** — read one JSON line at a time (raw
//!   bytes; a non-UTF-8 line gets a typed error instead of killing
//!   the connection). Registry mutations are answered inline through
//!   the registry's one write path; registry / metrics snapshots are
//!   answered inline from the current [`EpochSnapshot`] without
//!   taking any registry lock. Solve-bearing requests (`form`,
//!   `form_batch`, `execute`, `ping`) are enqueued for the worker
//!   pool and the connection writes the wire lines it receives off a
//!   per-job channel — so one slow client never ties up a worker with
//!   I/O, and a batch's per-seed lines go out as they are computed.
//!   Accepted streams read and write with the same 50 ms timeout: an
//!   idle connection and one whose client stopped reading both notice
//!   shutdown, and a write that times out resumes where it stopped.
//!   The channel counts the bytes it holds: once a connection has more
//!   than [`MAX_UNREAD_BYTES`] unread, its batch stops with
//!   [`Response::ReaderStalled`], so a client that stops reading holds
//!   a bounded share of the daemon's memory and a worker never waits
//!   on a socket.
//! * **Workers** — `workers` threads popping the bounded queue
//!   (Mutex + Condvar). Each solve is single-threaded; the pool is the
//!   only place request-level concurrency happens. A worker encodes
//!   each reply into its wire line (JSON plus `\n`) where it builds
//!   it, so the channel carries bytes and the connection thread only
//!   writes them; inline replies are encoded on the connection thread.
//!
//! Every lock the daemon takes recovers a poisoned guard (see
//! `crate::recover`), so one thread that panics under a lock leaves
//! the others serving.
//!
//! ## Snapshot consistency
//!
//! Every read-side answer — a formation, every seed of a batch, a
//! registry dump — is computed from exactly one [`EpochSnapshot`]
//! pinned at the start of the request. Writers Arc-swap a fresh
//! snapshot per mutation (see [`crate::shard`]), so a response can
//! never mix state from two epochs; `tests/torture.rs` checks served
//! bytes against a serial replay of the acked mutation order.
//!
//! ## Admission control
//!
//! A request arriving at a full queue is answered [`Response::Busy`]
//! immediately — the queue bound is the daemon's backpressure, chosen
//! at startup. A request that a worker dequeues after its deadline
//! (per-request `deadline_ms`, defaulting to the server's) is dropped
//! with [`Response::DeadlineExceeded`] *without* being solved: under
//! overload, stale work is shed instead of amplified. A request
//! dequeued *before* its deadline carries the remaining budget into
//! the solve itself (as a [`Budget`] wall-clock deadline), so a solve
//! that would overrun is cut short and answered with its best anytime
//! incumbent — `truncated: Some(true)` plus an optimality `gap` —
//! instead of holding the worker hostage. `deadline_ms` is therefore
//! a bound on *service time*, not just queue wait, up to one solver
//! bound-check interval plus non-solver overhead.
//!
//! ## Market admission
//!
//! `form --app` requests contend for the shared pool (see
//! [`crate::market`]). Three more gates apply before such a request is
//! queued: a per-connection token bucket (when
//! [`ServerConfig::rate_limit`] is set) answers [`Response::Throttled`],
//! a free-pool floor ([`ServerConfig::min_free`]) sheds with
//! [`Response::PoolExhausted`] when too few uncommitted GSPs remain,
//! and a per-application depth bound
//! ([`ServerConfig::app_queue_capacity`]) answers `Busy` so one
//! application cannot monopolize the worker pool. Lease TTLs
//! ([`ServerConfig::lease_ttl_ms`]) are wall-clock state held *outside*
//! the registry: expiry is journaled as an ordinary release event
//! (reason `"expired"`), so replay stays deterministic.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gridvo_core::mechanism::FormationConfig;
use gridvo_core::{FaultPlan, FormationScenario};
use gridvo_market::{AppQueues, TokenBucket};
use gridvo_solver::Budget;
use rand::SeedableRng;

use crate::cache::SharedSolveCache;
use crate::market::MarketCache;
use crate::metrics::{MarketGauges, Metrics, MetricsSnapshot};
use crate::persist::PersistConfig;
use crate::protocol::{decode, encode, MechanismKind, Request, Response};
use crate::recover;
use crate::registry::{Committed, Mutation};
use crate::shard::{EpochSnapshot, ShardedRegistry, Touched, DEFAULT_SHARDS};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job-queue bound; a full queue sheds load with `Busy`.
    pub queue_capacity: usize,
    /// Solve-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Default per-request deadline in ms; 0 means no deadline.
    pub default_deadline_ms: u64,
    /// Journal registry mutations to this data directory; `None` (the
    /// default) keeps the registry purely in memory, exactly the
    /// pre-durability behavior.
    pub persistence: Option<PersistConfig>,
    /// Per-connection request rate limit (requests/second, burst =
    /// `rate.max(1)`); `None` disables throttling.
    pub rate_limit: Option<f64>,
    /// Outstanding market (`form --app`) requests allowed per
    /// application before the app is answered `Busy`; clamped ≥ 1.
    pub app_queue_capacity: usize,
    /// A market form is shed with `PoolExhausted` when fewer than this
    /// many GSPs are uncommitted; clamped ≥ 1.
    pub min_free: usize,
    /// Lease time-to-live in ms; 0 disables expiry. Expiry is swept
    /// lazily before market-facing requests and journaled as a normal
    /// release (reason `"expired"`).
    pub lease_ttl_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 4096,
            default_deadline_ms: 0,
            persistence: None,
            rate_limit: None,
            app_queue_capacity: 16,
            min_free: 1,
            lease_ttl_ms: 0,
        }
    }
}

/// How often a connection thread wakes from a blocked read or write
/// to check for shutdown.
const POLL: Duration = Duration::from_millis(50);

/// Reply bytes a connection may leave unread before a worker stops
/// solving its batch: 4 MiB, the ceiling the kernel lets a loopback
/// socket's send buffer grow to by default.
pub const MAX_UNREAD_BYTES: usize = 4 << 20;

/// A job's reply channel. It counts the bytes sent and not yet taken
/// off by the connection thread.
struct Reply {
    lines: mpsc::Sender<Vec<u8>>,
    unread: Arc<AtomicUsize>,
}

impl Reply {
    fn send(&self, line: Vec<u8>) -> Result<(), mpsc::SendError<Vec<u8>>> {
        self.unread.fetch_add(line.len(), Ordering::SeqCst);
        self.lines.send(line)
    }
}

/// One queued solve-bearing request. The worker sends one wire line
/// per reply (a batch sends several) and drops the sender when the job
/// is done; the connection thread streams until the channel closes.
struct Job {
    request: Request,
    enqueued: Instant,
    deadline: Option<Duration>,
    /// Market requests hold a per-application queue slot from
    /// admission until the worker finishes (or sheds) them.
    app: Option<String>,
    reply: Reply,
}

/// State shared by every thread of one server.
struct Shared {
    registry: ShardedRegistry,
    cache: SharedSolveCache,
    metrics: Metrics,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
    app_queues: Mutex<AppQueues>,
    min_free: usize,
    rate_limit: Option<f64>,
    lease_ttl: Option<Duration>,
    /// TTL sidecar: `(lease id, expires at)`. Wall-clock never enters
    /// registry state — expiry is journaled as a release event.
    lease_clock: Mutex<Vec<(u64, Instant)>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// The metrics, with each gauge read from its owner: the queues
    /// under their own locks, the leases from the current snapshot.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let snapshot = self.registry.snapshot();
        let committed: std::collections::BTreeSet<usize> =
            snapshot.leases.iter().flat_map(|l| l.members.iter().copied()).collect();
        let gauges = MarketGauges {
            queue_depth: recover(self.queue.lock()).len(),
            committed_gsps: committed.len(),
            live_leases: snapshot.leases.len(),
            app_depths: recover(self.app_queues.lock()).depths(),
        };
        self.metrics.snapshot(self.cache.stats(), gauges)
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves detached threads running until
/// process exit; tests and the CLI always shut down explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    recovered_epoch: Option<u64>,
}

impl ServerHandle {
    /// Bind and start a daemon serving `scenario`'s provider pool.
    /// With [`ServerConfig::persistence`] set and a non-empty data
    /// directory, the durable state wins over `scenario` — see
    /// [`crate::registry::GspRegistry::open`].
    pub fn spawn(scenario: &FormationScenario, config: ServerConfig) -> std::io::Result<Self> {
        let (registry, recovered_epoch) = ShardedRegistry::open(
            scenario,
            FormationConfig::default().reputation,
            DEFAULT_SHARDS,
            config.persistence.as_ref(),
        )
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            registry,
            cache: SharedSolveCache::new(config.cache_capacity),
            metrics: Metrics::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            default_deadline: match config.default_deadline_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            app_queues: Mutex::new(AppQueues::new(config.app_queue_capacity.max(1))),
            min_free: config.min_free.max(1),
            rate_limit: config.rate_limit.filter(|r| *r > 0.0),
            lease_ttl: match config.lease_ttl_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            lease_clock: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || listener_loop(listener, &shared)));
        }
        Ok(ServerHandle { addr, shared, threads, recovered_epoch })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The epoch recovered from the data directory at startup:
    /// `Some(n)` when prior durable state was replayed, `None` for a
    /// fresh boot (in-memory or empty data directory).
    pub fn recovered_epoch(&self) -> Option<u64> {
        self.recovered_epoch
    }

    /// Journal / snapshot I/O counters, when persistence is on.
    pub fn store_stats(&self) -> Option<gridvo_store::StoreStats> {
        self.shared.registry.store_stats()
    }

    /// A point-in-time view of the served registry (the recovered
    /// pool when persistence kicked in, not necessarily the spawn
    /// scenario).
    pub fn registry_snapshot(&self) -> crate::registry::RegistrySnapshot {
        self.shared.registry.snapshot().view.clone()
    }

    /// The current metrics, straight from shared state (no request).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Stop accepting, drain nothing further, and join every thread.
    /// Queued-but-unserved jobs are answered `Busy`.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        // Flush any jobs the workers never picked up.
        let mut queue = recover(self.shared.queue.lock());
        while let Some(job) = queue.pop_front() {
            let _ = job.reply.send(wire_line(&Response::Busy));
        }
    }
}

fn listener_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Without this, Nagle holds every streamed line after
                // the first until the client's delayed ACK (~40 ms):
                // a multi-line `form_batch` response would be slower
                // than the sequential forms it replaces.
                stream.set_nodelay(true).ok();
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || connection_loop(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        connections.retain(|c| !c.is_finished());
    }
    for c in connections {
        let _ = c.join();
    }
}

/// How a dispatched request answers: one line, or a worker-fed stream
/// of lines (each written as it arrives) with its [`Reply`]'s count of
/// unread bytes.
enum Dispatched {
    One(Vec<u8>),
    Stream(mpsc::Receiver<Vec<u8>>, Arc<AtomicUsize>),
}

impl Dispatched {
    /// An inline reply, encoded on the connection thread.
    fn one(response: Response) -> Self {
        Dispatched::One(wire_line(&response))
    }
}

/// `response` as one wire line: its JSON and the newline.
fn wire_line(response: &Response) -> Vec<u8> {
    let mut line = encode(response);
    line.push('\n');
    line.into_bytes()
}

/// Write all of `line`. A write that times out (the client is not
/// reading) resumes where it stopped, until the client drains it or
/// shutdown is requested.
fn write_line(writer: &mut TcpStream, mut line: &[u8], shared: &Shared) -> std::io::Result<()> {
    while !line.is_empty() {
        match writer.write(line) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(written) => line = &line[written..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Short timeouts so the thread notices shutdown while the client
    // is idle or not reading.
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    // One bucket per connection: each client pays for its own burst.
    let mut bucket = shared.rate_limit.map(|rate| TokenBucket::new(rate, rate.max(1.0)));
    loop {
        // Raw bytes, not `read_line`: a client feeding us non-UTF-8
        // garbage deserves a typed error, not a dropped connection.
        // `buf` is only cleared after a complete line is handled, so
        // a read timeout mid-line never loses the partial prefix.
        let complete = match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                if buf.is_empty() {
                    return; // client closed
                }
                true // EOF terminated the final, newline-less line
            }
            Ok(_) => buf.last() == Some(&b'\n'),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                false
            }
            Err(_) => return,
        };
        if !complete {
            continue;
        }
        let dispatched = match std::str::from_utf8(&buf) {
            Ok(text) if text.trim().is_empty() => {
                buf.clear();
                continue;
            }
            Ok(text) => match decode::<Request>(text.trim()) {
                Ok(request) => {
                    shared.metrics.request_received(request.op());
                    let throttled = bucket.as_mut().is_some_and(|b| !b.allow(Instant::now()));
                    if throttled {
                        shared.metrics.throttled();
                        Dispatched::one(Response::Throttled)
                    } else {
                        dispatch(request, shared)
                    }
                }
                Err(e) => {
                    shared.metrics.request_errored();
                    Dispatched::one(Response::Error { message: format!("bad request: {e}") })
                }
            },
            Err(_) => {
                shared.metrics.request_errored();
                Dispatched::one(Response::Error { message: "bad request: not UTF-8".to_string() })
            }
        };
        buf.clear();
        match dispatched {
            Dispatched::One(line) => {
                if write_line(&mut writer, &line, shared).is_err() {
                    return;
                }
            }
            Dispatched::Stream(rx, unread) => {
                // The worker drops the sender when the job is done
                // (or the shutdown flush answers `Busy`); either way
                // the iterator ends.
                for line in rx {
                    unread.fetch_sub(line.len(), Ordering::SeqCst);
                    if write_line(&mut writer, &line, shared).is_err() {
                        return;
                    }
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Route one request: inline for registry/snapshot ops, queued for
/// solve-bearing ops.
fn dispatch(request: Request, shared: &Arc<Shared>) -> Dispatched {
    match request {
        Request::AddGsp { speed_gflops, cost, time } => {
            Dispatched::one(ack(shared, Mutation::AddGsp { speed_gflops, cost, time }))
        }
        Request::RemoveGsp { id } => Dispatched::one(ack(shared, Mutation::RemoveGsp { id })),
        Request::ReportTrust { from, to, value } => {
            Dispatched::one(ack(shared, Mutation::ReportTrust { from, to, value }))
        }
        Request::ReportReceipt { receipt } => {
            Dispatched::one(ack(shared, Mutation::ReportReceipt(receipt)))
        }
        Request::Registry => {
            let snapshot = shared.registry.snapshot();
            Dispatched::one(Response::Registry {
                snapshot: snapshot.view.clone(),
                epoch: Some(snapshot.epoch),
            })
        }
        Request::Metrics => {
            Dispatched::one(Response::Metrics { snapshot: shared.metrics_snapshot() })
        }
        Request::Release { lease, abandon } => {
            sweep_expired(shared);
            let reason = if abandon { "abandon" } else { "complete" };
            let response =
                ack(shared, Mutation::ReleaseLease { lease, reason: reason.to_string() });
            if matches!(response, Response::Ack { .. }) {
                shared.metrics.lease_released(false);
                if shared.lease_ttl.is_some() {
                    recover(shared.lease_clock.lock()).retain(|(id, _)| *id != lease);
                }
            }
            Dispatched::one(response)
        }
        Request::Leases => {
            sweep_expired(shared);
            let snapshot = shared.registry.snapshot();
            Dispatched::one(Response::Leases {
                leases: snapshot.leases.clone(),
                free: snapshot.free.clone(),
                epoch: snapshot.epoch,
            })
        }
        Request::Form { app: Some(app), seed, mechanism, deadline_ms } => {
            // Market admission, cheapest gate first: shed while the
            // pool is exhausted, then claim a per-application slot
            // (held until the worker finishes the job).
            sweep_expired(shared);
            let free = shared.registry.snapshot().free.len();
            if free < shared.min_free {
                shared.metrics.pool_exhausted_shed();
                return Dispatched::one(Response::PoolExhausted { free });
            }
            if !recover(shared.app_queues.lock()).try_enter(&app) {
                shared.metrics.busy_rejected();
                return Dispatched::one(Response::Busy);
            }
            enqueue(Request::Form { app: Some(app), seed, mechanism, deadline_ms }, shared)
        }
        queued @ (Request::Form { .. }
        | Request::FormBatch { .. }
        | Request::Execute { .. }
        | Request::Ping { .. }) => enqueue(queued, shared),
    }
}

/// Journal releases for every lease whose TTL has lapsed. Runs lazily
/// before market-facing requests; a lease the client already released
/// is simply gone from the table (`UnknownLease`), which is fine.
fn sweep_expired(shared: &Arc<Shared>) {
    if shared.lease_ttl.is_none() {
        return;
    }
    let now = Instant::now();
    let due: Vec<u64> = {
        let mut clock = recover(shared.lease_clock.lock());
        let due = clock.iter().filter(|(_, at)| *at <= now).map(|(id, _)| *id).collect();
        clock.retain(|(_, at)| *at > now);
        due
    };
    for lease in due {
        let expired = Mutation::ReleaseLease { lease, reason: "expired".to_string() };
        if write(shared, expired).is_ok() {
            shared.metrics.lease_released(true);
        }
    }
}

/// Release a job's per-application queue slot, if it held one.
fn leave_app(shared: &Arc<Shared>, app: Option<&str>) {
    if let Some(app) = app {
        recover(shared.app_queues.lock()).leave(app);
    }
}

/// The daemon's one write path: commit `mutation`, and evict the
/// solve-cache entries it left stale.
fn write(shared: &Shared, mutation: Mutation) -> crate::Result<Committed> {
    // The solve key already covers every solver input, so eviction only
    // frees memory. Trust reports and receipts keep ids stable: they
    // evict the solves stored before this epoch whose members include
    // a GSP they touch. A removal renumbers ids, so it flushes the
    // cache; other writes evict nothing.
    let touched = match &mutation {
        Mutation::ReportTrust { from, to, .. } => vec![*from, *to],
        Mutation::ReportReceipt(receipt) => vec![receipt.gsp],
        _ => Vec::new(),
    };
    let flush = matches!(mutation, Mutation::RemoveGsp { .. });
    let committed = shared.registry.mutate(Touched::All, |reg| reg.commit(mutation))?;
    if flush {
        shared.cache.clear();
    } else if !touched.is_empty() {
        shared.cache.invalidate_members(&touched, committed.epoch);
    }
    Ok(committed)
}

/// [`write`] `mutation` and answer the client: an ack (carrying the
/// new id of a joining GSP) or the error.
fn ack(shared: &Arc<Shared>, mutation: Mutation) -> Response {
    let joins = matches!(mutation, Mutation::AddGsp { .. });
    match write(shared, mutation) {
        Ok(c) => Response::Ack { epoch: c.epoch, id: joins.then_some(c.assigned as usize) },
        Err(e) => error_response(shared, e.to_string()),
    }
}

fn error_response(shared: &Arc<Shared>, message: String) -> Response {
    shared.metrics.request_errored();
    Response::Error { message }
}

fn enqueue(request: Request, shared: &Arc<Shared>) -> Dispatched {
    let deadline = match &request {
        Request::Form { deadline_ms, .. }
        | Request::FormBatch { deadline_ms, .. }
        | Request::Execute { deadline_ms, .. } => {
            deadline_ms.map(Duration::from_millis).or(shared.default_deadline)
        }
        _ => shared.default_deadline,
    };
    let app = match &request {
        Request::Form { app, .. } => app.clone(),
        _ => None,
    };
    let (lines, rx) = mpsc::channel();
    let unread = Arc::new(AtomicUsize::new(0));
    let reply = Reply { lines, unread: Arc::clone(&unread) };
    {
        let mut queue = recover(shared.queue.lock());
        if queue.len() >= shared.queue_capacity {
            // A market form already holds its app slot; give it back.
            drop(queue);
            leave_app(shared, app.as_deref());
            shared.metrics.busy_rejected();
            return Dispatched::one(Response::Busy);
        }
        queue.push_back(Job { request, enqueued: Instant::now(), deadline, app, reply });
    }
    shared.queue_cv.notify_one();
    Dispatched::Stream(rx, unread)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = recover(shared.queue.lock());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = recover(shared.queue_cv.wait_timeout(queue, Duration::from_millis(100))).0;
            }
        };
        let waited = job.enqueued.elapsed();
        shared.metrics.record_queue_wait_ms(waited.as_secs_f64() * 1e3);
        // The absolute deadline governs both halves of the request's
        // lifetime: already past it → shed without solving; still
        // ahead of it → the remaining budget bounds the solve.
        let deadline_at = job.deadline.map(|d| job.enqueued + d);
        if let Some(at) = deadline_at {
            if Instant::now() >= at {
                shared.metrics.deadline_rejected();
                let _ = job.reply.send(wire_line(&Response::DeadlineExceeded));
                leave_app(shared, job.app.as_deref());
                continue;
            }
        }
        let served_at = Instant::now();
        serve(job.request, shared, &job.reply, deadline_at);
        shared.metrics.record_service_ms(served_at.elapsed().as_secs_f64() * 1e3);
        leave_app(shared, job.app.as_deref());
        // `job.reply` drops here, closing the connection's stream.
    }
}

/// Execute one dequeued job, streaming its reply lines, encoded here,
/// into `reply`. Solves run against the epoch snapshot pinned at the
/// start of the job — no registry lock is held during a solve, and
/// every seed of a batch sees the same epoch.
fn serve(request: Request, shared: &Arc<Shared>, reply: &Reply, deadline_at: Option<Instant>) {
    let budget = Budget { deadline: deadline_at };
    // Every reply leaves through here, so anytime answers are counted
    // in one place.
    let send = |response: Response| {
        if matches!(response, Response::Form { truncated: Some(true), .. }) {
            shared.metrics.anytime_served();
        }
        reply.send(wire_line(&response))
    };
    match request {
        Request::Ping { sleep_ms } => {
            std::thread::sleep(Duration::from_millis(sleep_ms));
            let _ = send(Response::Pong);
        }
        Request::Form { seed, mechanism, app, .. } => {
            let response = match app {
                Some(app) => market_form(shared, &app, seed, mechanism, &budget),
                None => {
                    let snapshot = shared.registry.snapshot();
                    match run_formation(shared, &snapshot, seed, mechanism, &budget) {
                        Ok(outcome) => Response::form_from(outcome),
                        Err(message) => error_response(shared, message),
                    }
                }
            };
            let _ = send(response);
        }
        Request::FormBatch { seeds, mechanism, .. } => {
            let snapshot = shared.registry.snapshot();
            let mut served = 0u64;
            for &seed in &seeds {
                let unread_bytes = reply.unread.load(Ordering::SeqCst);
                if unread_bytes > MAX_UNREAD_BYTES {
                    // The client stopped reading: solve nothing more.
                    let _ = send(Response::ReaderStalled { unread_bytes: unread_bytes as u64 });
                    break;
                }
                let response = match run_formation(shared, &snapshot, seed, mechanism, &budget) {
                    Ok(outcome) => {
                        served += 1;
                        Response::form_from(outcome)
                    }
                    Err(message) => error_response(shared, message),
                };
                if send(response).is_err() {
                    return; // client gone: stop solving for it
                }
            }
            let _ = send(Response::BatchEnd { epoch: snapshot.epoch, served });
        }
        Request::Execute { seed, mechanism, faults, .. } => {
            let snapshot = shared.registry.snapshot();
            let response = match run_execution(shared, &snapshot, seed, mechanism, &faults, &budget)
            {
                Ok((outcome, report)) => Response::Execute { outcome, report },
                Err(message) => error_response(shared, message),
            };
            let _ = send(response);
        }
        other => {
            let _ = send(error_response(shared, format!("op {:?} is not queueable", other.op())));
        }
    }
}

/// One market formation: pin a snapshot, form over its free sub-pool,
/// and commit the winning coalition as a lease. A commit that loses a
/// race (another VO leased an overlapping coalition between the pin
/// and the write) retries against a fresher snapshot; after a few
/// spins the pool is genuinely contended and the request sheds.
fn market_form(
    shared: &Arc<Shared>,
    app: &str,
    seed: u64,
    kind: MechanismKind,
    budget: &Budget,
) -> Response {
    let mut free_len = 0;
    for _attempt in 0..3 {
        let snapshot = shared.registry.snapshot();
        let free = &snapshot.free;
        free_len = free.len();
        if free_len < shared.min_free {
            break;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // The round keys hash the sub-pool's own instance, so the
        // committed set needs no place in them (see crate::market).
        let mut cache = MarketCache::new(shared.cache.at_epoch(snapshot.epoch), 0, free);
        let mut outcome = match kind.mechanism().run_on_free_pool(
            &snapshot.scenario,
            free,
            &mut rng,
            &mut cache,
            budget,
        ) {
            Ok(Some(outcome)) => outcome,
            // The leftovers cannot host the program: contention.
            Ok(None) => break,
            Err(e) => return error_response(shared, e.to_string()),
        };
        outcome.zero_timings();
        let Some(vo) = &outcome.selected else {
            // Not even the whole pool can host the program.
            return Response::market_form_from(outcome, None, snapshot.epoch);
        };
        let members = vo.members.clone();
        match write(shared, Mutation::AcquireLease { app: app.to_string(), members }) {
            Ok(Committed { epoch, assigned: lease }) => {
                shared.metrics.lease_acquired();
                if let Some(ttl) = shared.lease_ttl {
                    recover(shared.lease_clock.lock()).push((lease, Instant::now() + ttl));
                }
                return Response::market_form_from(outcome, Some((lease, epoch)), snapshot.epoch);
            }
            Err(crate::ServiceError::Leased { .. }) => continue,
            Err(e) => return error_response(shared, e.to_string()),
        }
    }
    shared.metrics.pool_exhausted_shed();
    Response::PoolExhausted { free: free_len }
}

fn run_formation(
    shared: &Arc<Shared>,
    snapshot: &EpochSnapshot,
    seed: u64,
    kind: MechanismKind,
    budget: &Budget,
) -> std::result::Result<gridvo_core::FormationOutcome, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Stores through this handle are stamped with the snapshot's
    // epoch, so a mutation committing concurrently (at a later epoch)
    // still evicts them — only entries stored against a state that
    // already includes a mutation survive it. Deadline-truncated
    // solves are never stored at all (see `Mechanism::solve_vo`).
    let mut cache = shared.cache.at_epoch(snapshot.epoch);
    let mut outcome = kind
        .mechanism()
        .run_cached_with_budget(&snapshot.scenario, &mut rng, &mut cache, budget)
        .map_err(|e| e.to_string())?;
    outcome.zero_timings();
    Ok(outcome)
}

fn run_execution(
    shared: &Arc<Shared>,
    snapshot: &EpochSnapshot,
    seed: u64,
    kind: MechanismKind,
    faults: &FaultPlan,
    budget: &Budget,
) -> std::result::Result<
    (gridvo_core::FormationOutcome, Option<gridvo_core::ExecutionReport>),
    String,
> {
    // The budget bounds the formation phase; execution replay (and
    // its fault-recovery re-solves) stays unbudgeted for now.
    let outcome = run_formation(shared, snapshot, seed, kind, budget)?;
    let report = match &outcome.selected {
        Some(vo) => {
            let mut report = kind
                .mechanism()
                .execute(&snapshot.scenario, vo, faults)
                .map_err(|e| e.to_string())?;
            report.zero_timings();
            Some(report)
        }
        None => None,
    };
    Ok((outcome, report))
}
