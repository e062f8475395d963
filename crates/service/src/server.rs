//! The daemon: listener, connection threads, and the worker permits
//! that bound how many solve-bearing requests run at once.
//!
//! ## Thread model
//!
//! * **Listener** — blocks in `accept` on a `TcpListener` (loopback),
//!   spawning one connection thread per accepted client, so a new
//!   client is served at once. Shutdown wakes it with one connection
//!   of its own, which it drops before it exits.
//! * **Connection threads** — read one JSON line at a time (raw
//!   bytes; a non-UTF-8 line gets a typed error instead of killing
//!   the connection, and a line longer than [`MAX_LINE_BYTES`] is
//!   refused as soon as it passes the cap, its rest dropped unread).
//!   Registry mutations are answered inline through
//!   the registry's one write path; registry / metrics snapshots are
//!   answered inline from the current [`EpochSnapshot`] without
//!   taking any registry lock. Solve-bearing requests (`form`,
//!   `form_batch`, `execute`, `ping`) are served on the connection
//!   thread too, once it holds one of [`ServerConfig::workers`]
//!   permits. Permits are granted in arrival order, and each solve is
//!   single-threaded, so the permits are the one place request-level
//!   concurrency is bounded; no request crosses to another thread and
//!   no reply crosses back.
//!
//!   The thread returns its permit before it writes a one-line reply,
//!   so a client that stops reading never holds one. A `form_batch`
//!   writes each line as it is computed, through a non-blocking sink
//!   on the socket: bytes the socket will not take wait in the sink,
//!   and once more than [`MAX_UNREAD_BYTES`] wait there the batch
//!   stops with [`Response::ReaderStalled`]. The rest is written after
//!   the permit is returned. So a client that stops reading holds a
//!   bounded share of the daemon's memory, and a permit never waits on
//!   a socket.
//!
//!   Accepted streams read and write with the same 50 ms timeout: an
//!   idle connection and one whose client stopped reading both notice
//!   shutdown, and a write that times out resumes where it stopped.
//!
//! Every lock the daemon takes recovers a poisoned guard (see
//! `crate::recover`), so one thread that panics under a lock leaves
//! the others serving, and a permit held by a thread that panics is
//! returned as the thread unwinds.
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
//! A request that finds [`ServerConfig::queue_capacity`] requests
//! already waiting for a permit is answered [`Response::Busy`]
//! immediately — that bound is the daemon's backpressure, chosen at
//! startup. A request whose deadline (per-request `deadline_ms`,
//! defaulting to the server's) passed while it waited is answered
//! [`Response::DeadlineExceeded`] *without* being solved: under
//! overload, stale work is shed instead of amplified. A request
//! granted its permit *before* its deadline carries the remaining
//! budget into the solve itself (as a [`Budget`] wall-clock deadline),
//! so a solve that would overrun is cut short and answered with its
//! best anytime incumbent — `truncated: Some(true)` plus an optimality
//! `gap` — instead of holding the permit hostage. `deadline_ms` is
//! therefore a bound on *service time*, not just the wait, up to one
//! solver bound-check interval plus non-solver overhead.
//!
//! ## Market admission
//!
//! `form --app` requests contend for the shared pool (see
//! [`crate::market`]). Three more gates apply before such a request
//! waits for a permit: a per-connection token bucket (when
//! [`ServerConfig::rate_limit`] is set) answers [`Response::Throttled`],
//! a free-pool floor ([`ServerConfig::min_free`]) sheds with
//! [`Response::PoolExhausted`] when too few uncommitted GSPs remain,
//! and a per-application depth bound
//! ([`ServerConfig::app_queue_capacity`]) answers `Busy` so one
//! application cannot monopolize the permits. Lease TTLs
//! ([`ServerConfig::lease_ttl_ms`]) are wall-clock state held *outside*
//! the registry: expiry is journaled as an ordinary release event
//! (reason `"expired"`), so replay stays deterministic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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
use crate::ServiceError;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Solve-bearing requests (`form`, `form_batch`, `execute`,
    /// `ping`) served at once: each holds one of this many permits
    /// while its connection's thread serves it.
    pub workers: usize,
    /// Requests that may wait for a permit; a request that finds this
    /// many waiting is shed with `Busy`.
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

/// How often a connection thread wakes from a blocked read or write,
/// or from waiting for a permit, to check for shutdown.
const POLL: Duration = Duration::from_millis(50);

/// Reply bytes a `form_batch` may leave waiting in its connection's
/// sink, because the socket would not take them, before the batch
/// stops solving: 4 MiB, the ceiling the kernel lets a loopback
/// socket's send buffer grow to by default.
pub const MAX_UNREAD_BYTES: usize = 4 << 20;

/// The longest request line a connection reads, newline excluded. A
/// longer line is answered `bad request: line longer than N bytes`
/// once its first `N + 1` bytes are in, and the rest of it is dropped
/// unread, so no client grows a connection's buffer past this. It
/// shares [`MAX_UNREAD_BYTES`]'s 4 MiB: 14× the longest line the
/// repo's own clients send, an `add_gsp` on an 8 192-task pool
/// (297 791 bytes).
pub const MAX_LINE_BYTES: usize = MAX_UNREAD_BYTES;

/// The permits a solve-bearing request holds while it is served,
/// granted in arrival order. At most `capacity` requests wait for one.
struct Permits {
    line: Mutex<Line>,
    turn: Condvar,
    capacity: u64,
}

/// The permits' state. Each request that has to wait draws the next
/// ticket, and tickets are granted in the order they were drawn.
struct Line {
    /// Permits no request holds.
    free: usize,
    /// Tickets drawn so far.
    drawn: u64,
    /// Tickets granted a permit so far: `drawn - granted` requests
    /// wait, and ticket `granted` is next.
    granted: u64,
}

/// A held permit. Dropping it hands the permit to the next request in
/// line, also when the thread holding it unwinds from a panic.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut line = recover(self.0.line.lock());
        line.free += 1;
        let waiting = line.drawn > line.granted;
        drop(line);
        if waiting {
            self.0.turn.notify_all();
        }
    }
}

impl Permits {
    fn new(permits: usize, capacity: usize) -> Self {
        Permits {
            line: Mutex::new(Line { free: permits, drawn: 0, granted: 0 }),
            turn: Condvar::new(),
            capacity: capacity as u64,
        }
    }

    /// Requests waiting for a permit right now.
    fn waiting(&self) -> usize {
        let line = recover(self.line.lock());
        (line.drawn - line.granted) as usize
    }

    /// Wait for a permit, behind every request already waiting. `None`
    /// when `capacity` requests already wait, or when shutdown begins
    /// before this request's turn.
    fn take(&self, shutdown: &AtomicBool) -> Option<Permit<'_>> {
        let mut line = recover(self.line.lock());
        if line.free > 0 && line.drawn == line.granted {
            line.free -= 1;
            return Some(Permit(self));
        }
        if line.drawn - line.granted >= self.capacity {
            return None;
        }
        let ticket = line.drawn;
        line.drawn += 1;
        loop {
            if line.granted == ticket && line.free > 0 {
                line.granted += 1;
                line.free -= 1;
                // Several permits may have come free at once.
                let next = line.free > 0 && line.drawn > line.granted;
                drop(line);
                if next {
                    self.turn.notify_all();
                }
                return Some(Permit(self));
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            line = recover(self.turn.wait_timeout(line, POLL)).0;
        }
    }
}

/// State shared by every thread of one server.
struct Shared {
    registry: ShardedRegistry,
    cache: SharedSolveCache,
    metrics: Metrics,
    permits: Permits,
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
    /// The metrics, with each gauge read from its owner: the waiting
    /// requests and the application queues under their own locks, the
    /// leases from the current snapshot.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let snapshot = self.registry.snapshot();
        let committed: std::collections::BTreeSet<usize> =
            snapshot.leases.iter().flat_map(|l| l.members.iter().copied()).collect();
        let gauges = MarketGauges {
            queue_depth: self.permits.waiting(),
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
    listener: std::thread::JoinHandle<()>,
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
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            registry,
            cache: SharedSolveCache::new(config.cache_capacity),
            metrics: Metrics::new(),
            permits: Permits::new(config.workers.max(1), config.queue_capacity.max(1)),
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

        let listener = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || listener_loop(listener, &shared))
        };
        Ok(ServerHandle { addr, shared, listener, recovered_epoch })
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

    /// Stop accepting and join every thread. A request being served
    /// is finished; one still waiting for a permit is answered `Busy`.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the listener from `accept`: it sees the flag and exits.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = self.listener.join();
    }
}

fn listener_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // Once shutdown is flagged, the stream is its wake-up call (or
        // a client too late to be served): drop it.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        // Without this, Nagle holds every streamed line after the
        // first until the client's delayed ACK (~40 ms): a multi-line
        // `form_batch` response would be slower than the sequential
        // forms it replaces.
        stream.set_nodelay(true).ok();
        let shared = Arc::clone(shared);
        connections.push(std::thread::spawn(move || connection_loop(stream, &shared)));
        connections.retain(|c| !c.is_finished());
    }
    for c in connections {
        let _ = c.join();
    }
}

/// How a dispatched request answers.
enum Dispatched {
    /// Inline, with this wire line.
    One(Vec<u8>),
    /// Solve-bearing: served once it holds a permit.
    Queued(Request),
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
    let mut skipping = false;
    // One bucket per connection: each client pays for its own burst.
    let mut bucket = shared.rate_limit.map(|rate| TokenBucket::new(rate, rate.max(1.0)));
    loop {
        let dispatched = match next_line(&mut reader, &mut buf, &mut skipping) {
            Ok(LineRead::Line) => match std::str::from_utf8(&buf) {
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
                    Err(e) => Dispatched::one(error_response(shared, format!("bad request: {e}"))),
                },
                Err(_) => {
                    Dispatched::one(error_response(shared, "bad request: not UTF-8".to_string()))
                }
            },
            Ok(LineRead::TooLong) => Dispatched::one(error_response(
                shared,
                format!("bad request: line longer than {MAX_LINE_BYTES} bytes"),
            )),
            Ok(LineRead::Pending) => continue,
            Ok(LineRead::Closed) => return,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        buf.clear();
        let written = match dispatched {
            Dispatched::One(line) => write_line(&mut writer, &line, shared),
            Dispatched::Queued(request) => serve_queued(request, shared, &mut writer),
        };
        if written.is_err() || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// What one [`next_line`] call left for the connection loop.
enum LineRead {
    /// `buf` holds one whole line: newline-terminated, or cut by EOF.
    Line,
    /// The line passed [`MAX_LINE_BYTES`]: `buf` is cleared and the
    /// rest of the line will be dropped unread.
    TooLong,
    /// Mid-line or mid-skip: read again.
    Pending,
    /// The client closed the connection between lines.
    Closed,
}

/// Read toward the next request line. Raw bytes, not `read_line`: a
/// client feeding us non-UTF-8 garbage deserves a typed error, not a
/// dropped connection. `buf` keeps a partial line across calls, so a
/// read timeout mid-line never loses the prefix, and holds at most
/// [`MAX_LINE_BYTES`] + 1 bytes. `skipping` is set while the rest of
/// a refused line is dropped up to its newline.
fn next_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    skipping: &mut bool,
) -> std::io::Result<LineRead> {
    if *skipping {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(LineRead::Closed);
        }
        let (used, ended) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        reader.consume(used);
        *skipping = !ended;
        return Ok(LineRead::Pending);
    }
    let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
    let read = reader.by_ref().take(room).read_until(b'\n', buf)?;
    Ok(if buf.last() == Some(&b'\n') || (read == 0 && !buf.is_empty()) {
        LineRead::Line
    } else if read == 0 {
        LineRead::Closed
    } else if buf.len() > MAX_LINE_BYTES {
        buf.clear();
        *skipping = true;
        LineRead::TooLong
    } else {
        LineRead::Pending
    })
}

/// Route one request: inline for registry/snapshot ops, under a permit
/// for solve-bearing ops.
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
            // (held until the request has its answer).
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
            Dispatched::Queued(Request::Form { app: Some(app), seed, mechanism, deadline_ms })
        }
        queued @ (Request::Form { .. }
        | Request::FormBatch { .. }
        | Request::Execute { .. }
        | Request::Ping { .. }) => Dispatched::Queued(queued),
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

/// The application whose queue slot a market form holds, if any.
fn market_app(request: &Request) -> Option<&str> {
    match request {
        Request::Form { app, .. } => app.as_deref(),
        _ => None,
    }
}

/// Release a request's per-application queue slot, if it held one.
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
/// new id of a joining GSP) or the refusal.
fn ack(shared: &Arc<Shared>, mutation: Mutation) -> Response {
    let joins = matches!(mutation, Mutation::AddGsp { .. });
    match write(shared, mutation) {
        Ok(c) => Response::Ack { epoch: c.epoch, id: joins.then_some(c.assigned as usize) },
        Err(e) => refusal(shared, e),
    }
}

/// A refused request's answer, counted as an error. The two lease
/// conflicts carry the ids a client acts on; any other failure is
/// answered as text.
fn refusal(shared: &Arc<Shared>, e: ServiceError) -> Response {
    shared.metrics.request_errored();
    match e {
        ServiceError::UnknownLease { lease } => Response::UnknownLease { lease },
        ServiceError::Leased { id, lease } => Response::Leased { gsp: id, lease },
        e => Response::Error { message: e.to_string() },
    }
}

fn error_response(shared: &Shared, message: String) -> Response {
    shared.metrics.request_errored();
    Response::Error { message }
}

/// Serve a solve-bearing request on the connection's own thread, and
/// write its reply. The request first waits for a permit behind those
/// already waiting; it is shed with `Busy` when too many wait, and with
/// `DeadlineExceeded` when its deadline passed while it waited. The
/// permit is returned before the reply is written.
fn serve_queued(
    request: Request,
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let deadline = match &request {
        Request::Form { deadline_ms, .. }
        | Request::FormBatch { deadline_ms, .. }
        | Request::Execute { deadline_ms, .. } => {
            deadline_ms.map(Duration::from_millis).or(shared.default_deadline)
        }
        _ => shared.default_deadline,
    };
    let arrived = Instant::now();
    let Some(permit) = shared.permits.take(&shared.shutdown) else {
        // A market form already holds its app slot; give it back.
        leave_app(shared, market_app(&request));
        shared.metrics.busy_rejected();
        return write_line(writer, &wire_line(&Response::Busy), shared);
    };
    let granted = Instant::now();
    shared.metrics.record_queue_wait_ms((granted - arrived).as_secs_f64() * 1e3);
    // The absolute deadline governs both halves of the request's
    // lifetime: already past it → shed without solving; still ahead
    // of it → the remaining budget bounds the solve.
    let deadline_at = deadline.map(|d| arrived + d);
    if deadline_at.is_some_and(|at| granted >= at) {
        drop(permit);
        shared.metrics.deadline_rejected();
        leave_app(shared, market_app(&request));
        return write_line(writer, &wire_line(&Response::DeadlineExceeded), shared);
    }
    let unwritten = serve(request, shared, writer, deadline_at);
    drop(permit);
    shared.metrics.record_service_ms(granted.elapsed().as_secs_f64() * 1e3);
    write_line(writer, &unwritten?, shared)
}

/// `response` as its wire line. Every reply to a served request is
/// encoded here, so anytime answers are counted in one place.
fn reply_line(shared: &Shared, response: &Response) -> Vec<u8> {
    if matches!(response, Response::Form { truncated: Some(true), .. }) {
        shared.metrics.anytime_served();
    }
    wire_line(response)
}

/// Serve one request that holds a permit, and return the reply bytes
/// left to write once the permit is returned: a one-line reply whole,
/// or what of a batch's lines the socket has not taken yet. Solves run
/// against the epoch snapshot pinned at the start of the request — no
/// registry lock is held during a solve, and every seed of a batch
/// sees the same epoch.
fn serve(
    request: Request,
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    deadline_at: Option<Instant>,
) -> std::io::Result<Vec<u8>> {
    let budget = Budget { deadline: deadline_at };
    let response = match request {
        Request::Ping { sleep_ms } => {
            std::thread::sleep(Duration::from_millis(sleep_ms));
            Response::Pong
        }
        Request::Form { seed, mechanism, app, .. } => {
            let response = match &app {
                Some(app) => market_form(shared, app, seed, mechanism, &budget),
                None => {
                    let snapshot = shared.registry.snapshot();
                    match run_formation(shared, &snapshot, seed, mechanism, &budget) {
                        Ok(outcome) => Response::form_from(outcome),
                        Err(message) => error_response(shared, message),
                    }
                }
            };
            // Free the app's slot before the client can read the
            // answer: its next form for the app may follow at once.
            leave_app(shared, app.as_deref());
            response
        }
        Request::FormBatch { seeds, mechanism, .. } => {
            let snapshot = shared.registry.snapshot();
            let mut sink = Sink::new(writer)?;
            let mut served = 0u64;
            for &seed in &seeds {
                let unread_bytes = sink.unread();
                if unread_bytes > MAX_UNREAD_BYTES {
                    // The client stopped reading: solve nothing more.
                    let stalled = Response::ReaderStalled { unread_bytes: unread_bytes as u64 };
                    sink.push(reply_line(shared, &stalled))?;
                    break;
                }
                let response = match run_formation(shared, &snapshot, seed, mechanism, &budget) {
                    Ok(outcome) => {
                        served += 1;
                        Response::form_from(outcome)
                    }
                    Err(message) => error_response(shared, message),
                };
                sink.push(reply_line(shared, &response))?;
            }
            let end = Response::BatchEnd { epoch: snapshot.epoch, served };
            sink.push(reply_line(shared, &end))?;
            return sink.finish();
        }
        Request::Execute { seed, mechanism, faults, .. } => {
            let snapshot = shared.registry.snapshot();
            match run_execution(shared, &snapshot, seed, mechanism, &faults, &budget) {
                Ok((outcome, report)) => Response::Execute { outcome, report },
                Err(message) => error_response(shared, message),
            }
        }
        other => error_response(shared, format!("op {:?} is not queueable", other.op())),
    };
    Ok(reply_line(shared, &response))
}

/// A batch's reply on its way to the socket, which writes without
/// blocking while the batch is served: each line goes out as far as
/// the socket takes it, and the rest waits here.
struct Sink<'a> {
    stream: &'a mut TcpStream,
    bytes: Vec<u8>,
    /// The prefix of `bytes` the socket has taken.
    sent: usize,
}

impl<'a> Sink<'a> {
    fn new(stream: &'a mut TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(Sink { stream, bytes: Vec::new(), sent: 0 })
    }

    /// Bytes the socket has not taken yet.
    fn unread(&self) -> usize {
        self.bytes.len() - self.sent
    }

    /// Queue `line` behind the bytes still waiting, and write what the
    /// socket takes now. An error means the client is gone.
    fn push(&mut self, line: Vec<u8>) -> std::io::Result<()> {
        if self.unread() == 0 {
            (self.bytes, self.sent) = (line, 0);
        } else {
            self.bytes.extend_from_slice(&line);
        }
        while self.sent < self.bytes.len() {
            match self.stream.write(&self.bytes[self.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(written) => self.sent += written,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drop the written prefix once it is at least half the buffer,
        // so the bytes moved stay linear in the bytes pushed.
        if self.sent > 0 && 2 * self.sent >= self.bytes.len() {
            self.bytes.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }

    /// Return the socket to blocking writes, and the bytes it has not
    /// taken.
    fn finish(mut self) -> std::io::Result<Vec<u8>> {
        self.stream.set_nonblocking(false)?;
        self.bytes.drain(..self.sent);
        Ok(self.bytes)
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
            Err(e) => return refusal(shared, e),
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
