//! A client that sends a large `form_batch` and then stops reading
//! must hold up neither the worker pool nor shutdown, and must not
//! make the daemon hold its whole reply. The batch's reply is sized
//! well past what the loopback socket buffers hold, so the connection
//! thread ends up blocked writing it and the unread lines pile up in
//! the daemon until the worker stops the batch.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use gridvo_core::{FormationScenario, Gsp};
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;

/// Seeds in the stalled batch: about 18 MB of reply, four times what
/// the kernel lets a loopback socket's send buffer grow to (4 MB by
/// default), and more than the socket buffers plus the daemon's
/// 4 MiB bound on unread bytes. Eight distinct seeds repeat, so after
/// the first few every formation is a cache hit.
const BATCH: u64 = 4_000;

/// How long computing and reading the batch may take before the test
/// calls it hung (a few seconds in a debug build).
const PATIENCE: Duration = Duration::from_secs(60);

/// How long shutdown may take: a connection thread polls for it every
/// 50 ms.
const SHUTDOWN: Duration = Duration::from_secs(5);

/// Four GSPs over 256 tasks, all trusting each other, with easy
/// deadlines: a cheap formation with a long `form` line (about 4.6 kB,
/// mostly the 256-task assignments of its VOs).
fn scenario() -> FormationScenario {
    let (gsps, tasks) = (4, 256);
    let cost = (0..tasks * gsps).map(|k| 1.0 + (k % 3) as f64).collect();
    let time = vec![0.01; tasks * gsps];
    let instance = AssignmentInstance::new(tasks, gsps, cost, time, 1e6, 1e6).expect("instance");
    let mut trust = TrustGraph::new(gsps);
    for i in 0..gsps {
        for j in (0..gsps).filter(|&j| j != i) {
            trust.set_trust(i, j, 0.3 + 0.1 * ((i * 7 + j) % 5) as f64);
        }
    }
    let pool = (0..gsps).map(|i| Gsp::new(i, 10.0 + i as f64)).collect();
    FormationScenario::new(pool, trust, instance).expect("consistent shapes")
}

fn one_worker() -> ServerHandle {
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    ServerHandle::spawn(&scenario(), config).expect("bind loopback")
}

/// Send the batch, wait for its first reply bytes (the worker has
/// started it), and return the socket without reading anything.
fn stall(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let seeds = (0..BATCH).map(|i| i % 8).collect();
    let request = Request::FormBatch { seeds, mechanism: MechanismKind::Tvof, deadline_ms: None };
    stream.write_all(format!("{}\n", encode(&request)).as_bytes()).expect("send batch");
    stream.peek(&mut [0u8; 1]).expect("the first reply line arrives");
    stream
}

/// Run `step` on its own thread; fail the test if it has not finished
/// within `limit`.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    step: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(step());
    });
    rx.recv_timeout(limit).unwrap_or_else(|_| panic!("{what} did not finish in {limit:?}"))
}

/// A `ping` from a second client, answered once the single worker has
/// finished the stalled batch queued ahead of it.
fn ping(addr: SocketAddr) -> Response {
    within(PATIENCE, "a ping queued behind the stalled batch", move || {
        ServiceClient::connect(addr).expect("connect").ping(0).expect("ping answered")
    })
}

#[test]
fn workers_finish_a_stalled_batch_and_serve_the_next_client() {
    let handle = one_worker();
    let stalled = stall(handle.addr());
    assert_eq!(ping(handle.addr()), Response::Pong);
    // The worker stopped solving once the client fell behind: the
    // stalled client reads the forms sent so far, a `reader_stalled`
    // line and the batch's end.
    stalled.set_read_timeout(Some(PATIENCE)).expect("read timeout");
    let mut reply = BufReader::new(stalled);
    let (mut forms, mut stalled_lines) = (0, 0);
    loop {
        let mut line = String::new();
        assert!(reply.read_line(&mut line).expect("read the batch") > 0, "connection closed");
        if line.contains(r#""kind":"reader_stalled""#) {
            stalled_lines += 1;
            continue;
        }
        match decode(line.trim()) {
            Ok(Response::Form { .. }) => forms += 1,
            Ok(Response::BatchEnd { served, .. }) => {
                assert!(served < BATCH, "all {BATCH} seeds were computed for a stalled reader");
                break assert_eq!(served, forms);
            }
            other => panic!("unexpected reply line: {other:?}"),
        }
    }
    assert_eq!(stalled_lines, 1);
    within(SHUTDOWN, "shutdown", move || handle.shutdown());
}

#[test]
fn shutdown_returns_while_a_client_has_stopped_reading() {
    let handle = one_worker();
    let stalled = stall(handle.addr());
    assert_eq!(ping(handle.addr()), Response::Pong);
    // What the worker sent now waits in the connection's channel and
    // the socket buffers are full: its thread is blocked writing.
    within(SHUTDOWN, "shutdown with a client that stopped reading", move || handle.shutdown());
    drop(stalled);
}
