//! # gridvo-service
//!
//! The request-driven face of the mechanism: a long-running daemon
//! that owns a live pool of GSPs and serves VO-formation / execution
//! requests over a newline-delimited-JSON protocol on a loopback
//! `std::net::TcpListener`.
//!
//! Everything the one-shot `gridvo form` / `gridvo execute` commands
//! do in a single process run is re-cast as a request against durable
//! server state:
//!
//! * [`registry::GspRegistry`] — the provider pool. Every write is a
//!   typed mutation with one commit path: apply it to a
//!   staged copy (refreshing the pool-wide reputation vector from a
//!   power-method warm start), journal it ([`persist`]), then swap it
//!   in at the next epoch. Journal replay runs the same path;
//! * [`shard::ShardedRegistry`] — the concurrency shell around the
//!   pool: a write commits and publishes a fresh immutable
//!   [`shard::EpochSnapshot`] (Arc-swapped) under one writer lock;
//!   reads — formations, batches, registry dumps — clone the current
//!   `Arc` and never block a writer, so every response is consistent
//!   with exactly one epoch (`tests/torture.rs` proves this
//!   byte-for-byte against a serial replay of the acked mutation
//!   order);
//! * [`cache::SharedSolveCache`] — a bounded, shared memo table for
//!   the per-round exact IP solves, keyed by
//!   [`gridvo_core::solve_cache::round_key`] (pool digest, member ids,
//!   carried warm start). Repeated formation requests against an
//!   unchanged registry replay branch-and-bound results
//!   bit-identically at the cost of one key per round; trust-only
//!   updates invalidate nothing (the key covers solver inputs only),
//!   and a write evicts, to free memory, just the solves whose
//!   members include a GSP it touched;
//! * [`server`] — one thread per connection, which serves a
//!   solve-bearing request itself once it holds one of the daemon's
//!   worker permits (granted in arrival order; each solve
//!   single-threaded), with admission control: a request that finds
//!   the wait for a permit full is shed with a typed
//!   [`protocol::Response::Busy`], and one whose deadline passed while
//!   it waited is answered [`protocol::Response::DeadlineExceeded`]
//!   instead of being solved;
//! * [`metrics`] — request counters, cache hit rate, queue depth and
//!   per-stage latency histograms, all served as a snapshot request;
//! * [`client::ServiceClient`] — the blocking client library used by
//!   `gridvo request`, the differential tests and the
//!   `service_sweep` bench.
//!
//! Served results are *canonicalized*: wall-clock timing fields are
//! zeroed (`zero_timings`) so that identical requests produce
//! byte-identical responses — the differential test in
//! `tests/differential.rs` asserts a served formation equals the
//! direct [`gridvo_core::Mechanism`] call byte for byte, cached or
//! not.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::sync::{LockResult, PoisonError};

pub mod cache;
pub mod client;
pub mod market;
pub mod metrics;
pub mod persist;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod shard;

pub use cache::SharedSolveCache;
pub use client::{ClientError, ServiceClient};
pub use gridvo_market::Lease;
pub use metrics::MetricsSnapshot;
pub use persist::{DurableRegistry, PersistConfig};
pub use protocol::{MechanismKind, Request, Response};
pub use registry::{GspRegistry, PersistedState, RegistryEvent, RegistrySnapshot};
pub use server::{ServerConfig, ServerHandle};
pub use shard::{EpochSnapshot, ShardedRegistry, Touched, DEFAULT_SHARDS};

/// Errors from registry operations and request handling.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A GSP id not present in the registry.
    UnknownGsp {
        /// The offending id.
        id: usize,
    },
    /// Removing this GSP would empty the pool.
    LastGsp,
    /// The GSP is committed to a live VO and cannot be leased again
    /// or removed until that lease is released.
    Leased {
        /// The contested GSP id.
        id: usize,
        /// The lease currently holding it.
        lease: u64,
    },
    /// No live lease with this id.
    UnknownLease {
        /// The offending lease id.
        lease: u64,
    },
    /// A per-task column had the wrong length or a non-finite entry.
    BadColumn {
        /// What was malformed.
        context: &'static str,
    },
    /// An execution receipt failed validation (bad digest, self
    /// witness, or malformed reward).
    BadReceipt {
        /// What was malformed.
        context: &'static str,
    },
    /// The trust substrate rejected an update.
    Trust(gridvo_trust::TrustError),
    /// The mechanism / solver substrate failed.
    Core(gridvo_core::CoreError),
    /// The durable store failed or holds state inconsistent with the
    /// journal (message-only: `std::io::Error` is neither `Clone` nor
    /// `PartialEq`).
    Storage(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownGsp { id } => write!(f, "unknown GSP id {id}"),
            ServiceError::LastGsp => write!(f, "cannot remove the last GSP"),
            ServiceError::Leased { id, lease } => {
                write!(f, "GSP {id} is committed to live lease {lease}")
            }
            ServiceError::UnknownLease { lease } => write!(f, "unknown lease id {lease}"),
            ServiceError::BadColumn { context } => write!(f, "bad per-task column: {context}"),
            ServiceError::BadReceipt { context } => write!(f, "bad execution receipt: {context}"),
            ServiceError::Trust(e) => write!(f, "trust error: {e}"),
            ServiceError::Core(e) => write!(f, "core error: {e}"),
            ServiceError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<gridvo_trust::TrustError> for ServiceError {
    fn from(e: gridvo_trust::TrustError) -> Self {
        ServiceError::Trust(e)
    }
}

impl From<gridvo_core::CoreError> for ServiceError {
    fn from(e: gridvo_core::CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<gridvo_store::StoreError> for ServiceError {
    fn from(e: gridvo_store::StoreError) -> Self {
        ServiceError::Storage(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// The guard of `result` (a `Mutex::lock`, an `RwLock` read or write,
/// or a `Condvar` wait), recovered when a thread panicked while holding
/// the lock. Every daemon lock goes through here, so one panicking
/// thread cannot wedge the others.
///
/// This is sound because nothing run under a daemon lock leaves its
/// state half-updated at a panic point:
/// - the registry's writer lock: `GspRegistry::commit` stages the write
///   on a copy; after the journal append there are only assignments and
///   a compaction whose steps are each crash-safe, so a panic leaves the
///   registry at its old state or at its new, fully committed one, which
///   the next committed write publishes along with its own;
/// - the published-snapshot lock only swaps an `Arc`;
/// - the worker permits only count, and the lease clock and the
///   per-application queues only push, retain or count;
/// - the metrics lock only adds to counters and histograms;
/// - the solve cache only relinks indices it holds.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    #[test]
    fn recover_returns_the_data_of_a_poisoned_mutex() {
        let shared = Arc::new(Mutex::new(vec![1, 2]));
        let holder = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let mut data = holder.lock().unwrap();
            data.push(3);
            panic!("panic while holding the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.is_poisoned(), "the panic poisoned the mutex");
        assert_eq!(*super::recover(shared.lock()), vec![1, 2, 3]);
    }
}
