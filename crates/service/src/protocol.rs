//! The wire protocol: newline-delimited JSON over loopback TCP.
//!
//! One request per line, one response line per request, in order.
//! Requests are tagged with `"op"`, responses with `"kind"`; both are
//! plain JSON objects so any language (or `nc`) can speak the
//! protocol. Every wire shape is a derive attribute: the tag comes
//! first, then the fields in declaration order; a `default` field
//! reads as its default when absent or null; unknown keys are ignored
//! and key order is free.
//!
//! Responses embedding mechanism results ([`Response::Form`],
//! [`Response::Execute`]) carry timing-zeroed payloads (see
//! [`gridvo_core::FormationOutcome::zero_timings`]) — the server
//! canonicalizes before serializing so identical requests are
//! byte-identical, cached or not.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::{ExecutionReceipt, ExecutionReport, FaultPlan, FormationOutcome};
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::registry::RegistrySnapshot;

/// Which formation mechanism a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MechanismKind {
    /// Reputation-guided eviction (the paper's mechanism).
    #[default]
    Tvof,
    /// Random eviction (the paper's baseline).
    Rvof,
}

impl MechanismKind {
    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<MechanismKind> {
        match s {
            "tvof" => Some(MechanismKind::Tvof),
            "rvof" => Some(MechanismKind::Rvof),
            _ => None,
        }
    }

    /// The mechanism this kind names, under the default configuration.
    pub fn mechanism(self) -> Mechanism {
        match self {
            MechanismKind::Tvof => Mechanism::tvof(FormationConfig::default()),
            MechanismKind::Rvof => Mechanism::rvof(FormationConfig::default()),
        }
    }
}

/// A client request. `Form`, `FormBatch`, `Execute` and `Ping` are
/// served under a worker permit (and are subject to admission
/// control); the registry and snapshot operations are answered inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// Run Algorithm 1 against the current registry state.
    Form {
        /// RNG seed (eviction tie-breaks); same seed → same trace.
        seed: u64,
        /// TVOF or RVOF.
        #[serde(default)]
        mechanism: MechanismKind,
        /// Per-request deadline override (ms); `None` uses the
        /// server's default.
        deadline_ms: Option<u64>,
        /// Market mode: the requesting application's name. When set,
        /// formation runs against the **free sub-pool** only (GSPs
        /// held by no live lease), the winning coalition is leased to
        /// this application, and admission applies the per-application
        /// queue bound. `None` (the legacy wire form — the field is
        /// omitted, not null) is the contention-blind path.
        #[serde(skip_serializing_if = "Option::is_none")]
        app: Option<String>,
    },
    /// Run Algorithm 1 once per seed, every seed against the *same*
    /// epoch snapshot and one cache handle. The response is a
    /// stream: one [`Response::Form`] line per seed (in seed order,
    /// byte-identical to the equivalent sequential `form` requests
    /// against a quiesced daemon), terminated by a
    /// [`Response::BatchEnd`] line carrying the snapshot epoch.
    FormBatch {
        /// One formation per seed, in order.
        seeds: Vec<u64>,
        /// TVOF or RVOF (applied to every seed).
        #[serde(default)]
        mechanism: MechanismKind,
        /// Per-request deadline override (ms) for the whole batch.
        deadline_ms: Option<u64>,
    },
    /// Run Algorithm 1, then execute the selected VO against a fault
    /// plan.
    Execute {
        /// RNG seed, as in `Form`.
        seed: u64,
        /// TVOF or RVOF.
        #[serde(default)]
        mechanism: MechanismKind,
        /// The fault schedule to replay (empty = fault-free).
        faults: FaultPlan,
        /// Per-request deadline override (ms).
        deadline_ms: Option<u64>,
    },
    /// A new provider joins: speed plus its per-task cost/time columns.
    AddGsp {
        /// Aggregate speed in GFLOPS.
        speed_gflops: f64,
        /// Per-task execution costs (length = task count).
        cost: Vec<f64>,
        /// Per-task execution times (length = task count).
        time: Vec<f64>,
    },
    /// A provider leaves the pool.
    RemoveGsp {
        /// Its current id.
        id: usize,
    },
    /// A direct-trust report `u_{from,to} = value`.
    ReportTrust {
        /// Reporting GSP.
        from: usize,
        /// Reported-on GSP.
        to: usize,
        /// New direct-trust weight (≥ 0, finite).
        value: f64,
    },
    /// An attested execution receipt: witnessed success/failure
    /// evidence folded into the pool's Beta reputation.
    ReportReceipt {
        /// The receipt (digest must verify).
        receipt: ExecutionReceipt,
    },
    /// Release a lease acquired by `form` with an `app`: the VO
    /// completed (or was abandoned) and its GSPs return to the pool.
    #[serde(rename = "release_lease")]
    Release {
        /// The lease id from the `form` response.
        lease: u64,
        /// True when the VO was abandoned rather than completed
        /// (recorded in the journal's release reason).
        #[serde(default)]
        abandon: bool,
    },
    /// Fetch the live leases and the free sub-pool.
    Leases,
    /// Fetch the registry snapshot.
    Registry,
    /// Fetch the metrics snapshot.
    Metrics,
    /// A no-op that holds a worker permit for `sleep_ms` — exists so
    /// tests and the bench can exercise admission control
    /// deterministically.
    Ping {
        /// How long the permit is held before the reply.
        sleep_ms: u64,
    },
}

impl Request {
    /// The request's `"op"` tag (also the metrics counter key).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Form { .. } => "form",
            Request::FormBatch { .. } => "form_batch",
            Request::Execute { .. } => "execute",
            Request::AddGsp { .. } => "add_gsp",
            Request::RemoveGsp { .. } => "remove_gsp",
            Request::ReportTrust { .. } => "report_trust",
            Request::ReportReceipt { .. } => "report_receipt",
            Request::Release { .. } => "release_lease",
            Request::Leases => "leases",
            Request::Registry => "registry",
            Request::Metrics => "metrics",
            Request::Ping { .. } => "ping",
        }
    }
}

/// A server response, tagged with `"kind"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Response {
    /// Formation result (timings zeroed).
    Form {
        /// The full Algorithm-1 trace and selection.
        outcome: FormationOutcome,
        /// Whether any recorded VO carries a non-proven (anytime)
        /// cost — i.e. the request's deadline or node budget cut at
        /// least one per-round solve short. `None` on wire lines
        /// written before the field existed.
        truncated: Option<bool>,
        /// Relative optimality gap of the *selected* VO's solve
        /// (`Some(0.0)` when proven optimal). `None` when nothing was
        /// selected, or on pre-gap wire lines.
        gap: Option<f64>,
        /// Market mode only: the lease acquired on the selected
        /// coalition. The three market fields are omitted from the
        /// wire (not null) on contention-blind responses, keeping
        /// legacy `form` lines byte-identical.
        #[serde(skip_serializing_if = "Option::is_none")]
        lease: Option<u64>,
        /// Market mode only: the registry epoch the lease acquisition
        /// produced.
        #[serde(skip_serializing_if = "Option::is_none")]
        lease_epoch: Option<u64>,
        /// Market mode only: the epoch of the pinned snapshot the
        /// formation was computed against (≤ `lease_epoch` − 1 when a
        /// lease was acquired; recorded so a serial replay can
        /// recompute this exact response).
        #[serde(skip_serializing_if = "Option::is_none")]
        formed_epoch: Option<u64>,
    },
    /// Formation + execution result (timings zeroed). `report` is
    /// `None` when no feasible VO existed to execute.
    Execute {
        /// The formation trace.
        outcome: FormationOutcome,
        /// The execution telemetry, if a VO was selected.
        report: Option<ExecutionReport>,
    },
    /// A registry mutation succeeded.
    Ack {
        /// Registry epoch after the mutation.
        epoch: u64,
        /// New GSP id, for `add_gsp`.
        id: Option<usize>,
    },
    /// Terminates a `form_batch` response stream.
    BatchEnd {
        /// The epoch snapshot every seed in the batch resolved
        /// against — the batch's staleness bound.
        epoch: u64,
        /// How many seeds were actually formed (every `Form` line
        /// streamed before this one).
        served: u64,
    },
    /// The client stopped reading a `form_batch` reply, so the daemon
    /// stopped solving its seeds. Sent just before the batch's
    /// [`Response::BatchEnd`], whose `served` counts the forms sent.
    ReaderStalled {
        /// Reply bytes the socket had not taken, held by the daemon,
        /// when the batch stopped.
        unread_bytes: u64,
    },
    /// Registry snapshot.
    Registry {
        /// The current pool state.
        snapshot: RegistrySnapshot,
        /// Epoch of the immutable snapshot that served this dump
        /// (equals `snapshot.epoch`; carried at the top level so
        /// clients can check staleness without parsing the dump).
        /// `None` on wire lines written before the field existed.
        epoch: Option<u64>,
    },
    /// Metrics snapshot.
    Metrics {
        /// The current counters.
        snapshot: MetricsSnapshot,
    },
    /// Live leases and the free sub-pool.
    Leases {
        /// Live leases, in acquisition order.
        leases: Vec<gridvo_market::Lease>,
        /// Global ids of the uncommitted GSPs.
        free: Vec<usize>,
        /// Epoch of the snapshot that served this view.
        epoch: u64,
    },
    /// Market admission shed: too few uncommitted GSPs remain for a
    /// feasible formation (or every acquire attempt lost its race).
    /// Retry after a lease releases.
    PoolExhausted {
        /// How many GSPs were free when the request was shed.
        free: usize,
    },
    /// Per-client rate limit exceeded (`gridvo serve --rate-limit`).
    /// Back off and retry.
    Throttled,
    /// Reply to `Ping`.
    Pong,
    /// Load shed: too many requests were already waiting for a
    /// permit. Retry later.
    Busy,
    /// The request waited for a permit past its deadline and was
    /// dropped without being served.
    DeadlineExceeded,
    /// A `release_lease` named no live lease: it was never granted, or
    /// it was already released or expired.
    UnknownLease {
        /// The lease id the request named.
        lease: u64,
    },
    /// A `remove_gsp` named a GSP committed to a live lease; it can
    /// leave once the lease is released.
    Leased {
        /// The GSP the request named.
        gsp: usize,
        /// The live lease holding it.
        lease: u64,
    },
    /// The request was understood but failed.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Wrap a formation outcome as a [`Response::Form`], deriving the
    /// anytime summary fields: `truncated` is true when any recorded
    /// VO's cost is not a proven optimum, and `gap` is the selected
    /// VO's relative optimality gap. Server and differential tests
    /// share this constructor so served and replayed lines agree byte
    /// for byte.
    pub fn form_from(outcome: FormationOutcome) -> Response {
        let truncated = Some(outcome.feasible_vos.iter().any(|v| !v.optimal));
        let gap = outcome.selected.as_ref().and_then(|v| v.gap);
        Response::Form {
            outcome,
            truncated,
            gap,
            lease: None,
            lease_epoch: None,
            formed_epoch: None,
        }
    }

    /// Wrap a market formation outcome: [`Response::form_from`] plus
    /// the lease fields. `leased` is `(lease id, acquire epoch)` when
    /// a coalition was committed, `None` for an uncontended
    /// infeasible result.
    pub fn market_form_from(
        outcome: FormationOutcome,
        leased: Option<(u64, u64)>,
        formed_epoch: u64,
    ) -> Response {
        let mut response = Response::form_from(outcome);
        if let Response::Form { lease, lease_epoch, formed_epoch: fe, .. } = &mut response {
            *lease = leased.map(|(id, _)| id);
            *lease_epoch = leased.map(|(_, epoch)| epoch);
            *fe = Some(formed_epoch);
        }
        response
    }

    /// The response's `"kind"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Form { .. } => "form",
            Response::Execute { .. } => "execute",
            Response::Ack { .. } => "ack",
            Response::BatchEnd { .. } => "batch_end",
            Response::ReaderStalled { .. } => "reader_stalled",
            Response::Registry { .. } => "registry",
            Response::Metrics { .. } => "metrics",
            Response::Leases { .. } => "leases",
            Response::PoolExhausted { .. } => "pool_exhausted",
            Response::Throttled => "throttled",
            Response::Pong => "pong",
            Response::Busy => "busy",
            Response::DeadlineExceeded => "deadline_exceeded",
            Response::UnknownLease { .. } => "unknown_lease",
            Response::Leased { .. } => "leased",
            Response::Error { .. } => "error",
        }
    }
}

/// Serialize a protocol message as one wire line (no trailing
/// newline; the transport appends it).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).unwrap_or_else(|_| "{}".to_string())
}

/// Parse one wire line.
pub fn decode<T: Deserialize>(line: &str) -> std::result::Result<T, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::{FaultEvent, FaultKind};

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Form {
                seed: 7,
                mechanism: MechanismKind::Rvof,
                deadline_ms: Some(250),
                app: None,
            },
            Request::Form {
                seed: 7,
                mechanism: MechanismKind::Tvof,
                deadline_ms: None,
                app: Some("atlas".to_string()),
            },
            Request::Release { lease: 12, abandon: true },
            Request::Leases,
            Request::FormBatch {
                seeds: vec![3, 1, 4, 1, 5],
                mechanism: MechanismKind::Tvof,
                deadline_ms: Some(900),
            },
            Request::Execute {
                seed: 1,
                mechanism: MechanismKind::Tvof,
                faults: FaultPlan::new(vec![FaultEvent {
                    round: 0,
                    gsp: 2,
                    kind: FaultKind::Crash,
                }]),
                deadline_ms: None,
            },
            Request::AddGsp { speed_gflops: 99.5, cost: vec![1.0, 2.0], time: vec![0.5, 0.25] },
            Request::RemoveGsp { id: 3 },
            Request::ReportTrust { from: 0, to: 1, value: 0.8 },
            Request::ReportReceipt {
                receipt: ExecutionReceipt::new(2, 1, false, 12.5, vec![0, 3]),
            },
            Request::Registry,
            Request::Metrics,
            Request::Ping { sleep_ms: 15 },
        ];
        for req in reqs {
            let line = encode(&req);
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let back: Request = decode(&line).unwrap();
            assert_eq!(req, back, "round trip failed for {line}");
        }
    }

    #[test]
    fn form_defaults_mechanism_to_tvof() {
        let req: Request = decode(r#"{"op":"form","seed":3}"#).unwrap();
        assert_eq!(
            req,
            Request::Form { seed: 3, mechanism: MechanismKind::Tvof, deadline_ms: None, app: None }
        );
    }

    #[test]
    fn appless_form_omits_the_app_field() {
        let line = encode(&Request::Form {
            seed: 3,
            mechanism: MechanismKind::Tvof,
            deadline_ms: None,
            app: None,
        });
        assert!(!line.contains("app"), "legacy requests must keep their exact bytes: {line}");
    }

    #[test]
    fn release_defaults_abandon_to_false() {
        let req: Request = decode(r#"{"op":"release_lease","lease":4}"#).unwrap();
        assert_eq!(req, Request::Release { lease: 4, abandon: false });
    }

    #[test]
    fn a_trust_value_beyond_f64_is_refused_not_read_as_infinity() {
        let line = r#"{"op":"report_trust","from":0,"to":2,"value":1e400}"#;
        assert_eq!(decode::<Request>(line), Err("number out of range at byte 45".to_string()));
        let twin = r#"{"op":"report_trust","from":0,"to":2,"value":1e308}"#;
        let request = Request::ReportTrust { from: 0, to: 2, value: 1e308 };
        assert_eq!(decode::<Request>(twin), Ok(request.clone()));
        assert_eq!(decode::<Request>(&encode(&request)), Ok(request));
    }

    #[test]
    fn unknown_ops_are_typed_errors() {
        assert!(decode::<Request>(r#"{"op":"fly"}"#).is_err());
        assert!(decode::<Request>(r#"{"seed":3}"#).is_err());
        assert!(decode::<Request>("not json").is_err());
        assert!(decode::<Response>(r#"{"kind":"nope"}"#).is_err());
    }

    #[test]
    fn terse_responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Busy,
            Response::DeadlineExceeded,
            Response::Error { message: "queue exploded".to_string() },
            Response::Ack { epoch: 4, id: Some(2) },
            Response::BatchEnd { epoch: 17, served: 5 },
            Response::Throttled,
            Response::PoolExhausted { free: 2 },
            Response::UnknownLease { lease: 7 },
            Response::Leased { gsp: 2, lease: 7 },
            Response::Leases {
                leases: vec![gridvo_market::Lease {
                    id: 3,
                    app: "atlas".to_string(),
                    members: vec![1, 4],
                    acquired_epoch: 9,
                }],
                free: vec![0, 2, 3],
                epoch: 11,
            },
        ] {
            let back: Response = decode(&encode(&resp)).unwrap();
            assert_eq!(resp, back);
        }
    }
}
