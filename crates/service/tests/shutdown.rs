//! `ServerHandle::shutdown` returns promptly whether or not a client
//! is connected. The listener blocks in `accept`, so shutdown has to
//! wake it; an idle connection's thread notices shutdown at its next
//! 50 ms read timeout.

use std::sync::mpsc;
use std::time::Duration;

use gridvo_core::{FormationScenario, Gsp};
use gridvo_service::protocol::Response;
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;

/// Far above the 50 ms poll of an idle connection, far below a hang.
const PROMPT: Duration = Duration::from_secs(2);

/// Three GSPs over six tasks, all trusting each other.
fn scenario() -> FormationScenario {
    let (gsps, tasks) = (3, 6);
    let cost = (0..tasks * gsps).map(|k| 1.0 + (k % 4) as f64).collect();
    let instance = AssignmentInstance::new(tasks, gsps, cost, vec![1.0; tasks * gsps], 10.0, 100.0)
        .expect("instance");
    let mut trust = TrustGraph::new(gsps);
    for i in 0..gsps {
        for j in (0..gsps).filter(|&j| j != i) {
            trust.set_trust(i, j, 0.5);
        }
    }
    let pool = (0..gsps).map(|i| Gsp::new(i, 10.0 + i as f64)).collect();
    FormationScenario::new(pool, trust, instance).expect("consistent shapes")
}

fn spawn(addr: &str) -> ServerHandle {
    let config = ServerConfig { addr: addr.to_string(), ..ServerConfig::default() };
    ServerHandle::spawn(&scenario(), config).expect("bind")
}

/// Shut `handle` down on its own thread; fail the test if that takes
/// longer than [`PROMPT`].
fn shutdown_within_prompt(handle: ServerHandle, what: &str) {
    let (tx, rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    match rx.recv_timeout(PROMPT) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("shutdown {what} took over {PROMPT:?}"),
        _ => stopper.join().expect("shutdown does not panic"),
    }
}

#[test]
fn shutdown_returns_promptly_with_no_client() {
    shutdown_within_prompt(spawn("127.0.0.1:0"), "with no client");
}

#[test]
fn shutdown_returns_promptly_with_an_idle_client() {
    let handle = spawn("127.0.0.1:0");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    assert_eq!(client.ping(0).expect("ping answered"), Response::Pong);
    shutdown_within_prompt(handle, "with an idle client");
    drop(client);
}

#[test]
fn shutdown_wakes_a_listener_bound_to_every_interface() {
    // The wake-up connects to loopback, not to the unspecified address.
    shutdown_within_prompt(spawn("0.0.0.0:0"), "on 0.0.0.0");
}
