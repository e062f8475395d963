//! The blocking client library.
//!
//! One [`ServiceClient`] is one TCP connection; requests are written
//! as single JSON lines and the matching response line is read back
//! before the next request goes out (the protocol is strictly
//! request/response in order). Used by `gridvo request`, the
//! differential tests, and the `service_sweep` bench — all three
//! speak to the daemon exclusively through this type, so the wire
//! format has exactly one implementation on each side.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use gridvo_core::FaultPlan;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{decode, encode, MechanismKind, Request, Response};
use crate::registry::RegistrySnapshot;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or broke mid-request.
    Io(std::io::Error),
    /// The server closed the connection before replying.
    ServerClosed,
    /// The response line did not parse.
    Protocol(String),
    /// The server answered with a different kind than the request
    /// implies (e.g. `form` answered with `ack`). Boxed: a full
    /// `Response` can carry a formation trace, and an `Err` that
    /// large bloats every `Result` on the happy path.
    UnexpectedResponse(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::UnexpectedResponse(r) => {
                write!(f, "unexpected response kind {:?}", r.kind())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connect to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(ServiceClient { reader: BufReader::new(stream), writer })
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut wire = encode(request);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::ServerClosed);
        }
        decode(line.trim()).map_err(ClientError::Protocol)
    }

    /// Run a formation and return the raw response (which may be
    /// `Busy` / `DeadlineExceeded` under load).
    pub fn form(
        &mut self,
        seed: u64,
        mechanism: MechanismKind,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Form { seed, mechanism, deadline_ms, app: None })
    }

    /// Run a *market* formation on behalf of `app`: the server forms
    /// over the free sub-pool and, when a VO is selected, commits it
    /// as a lease (the response's `lease` / `lease_epoch` fields).
    /// May answer `PoolExhausted`, `Throttled`, or `Busy` under
    /// contention.
    pub fn form_in_app(
        &mut self,
        app: &str,
        seed: u64,
        mechanism: MechanismKind,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Form { seed, mechanism, deadline_ms, app: Some(app.to_string()) })
    }

    /// Release a lease (`abandon: false` means the VO completed);
    /// returns the new registry epoch.
    pub fn release_lease(&mut self, lease: u64, abandon: bool) -> Result<u64, ClientError> {
        self.write(&Request::Release { lease, abandon }).map(|(epoch, _)| epoch)
    }

    /// Fetch the live lease table: `(leases, free GSP ids, epoch)`.
    pub fn leases(&mut self) -> Result<(Vec<gridvo_market::Lease>, Vec<usize>, u64), ClientError> {
        match self.request(&Request::Leases)? {
            Response::Leases { leases, free, epoch } => Ok((leases, free, epoch)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Run a batch of formations against one registry snapshot. The
    /// server streams one reply line per seed (each byte-identical to
    /// the equivalent sequential `form`) followed by a terminating
    /// [`Response::BatchEnd`]; this returns every line in order. A
    /// shed batch returns a single `Busy` / `DeadlineExceeded`, and a
    /// batch whose reader fell too far behind carries a
    /// [`Response::ReaderStalled`] line before its `BatchEnd`.
    pub fn form_batch(
        &mut self,
        seeds: &[u64],
        mechanism: MechanismKind,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Response>, ClientError> {
        let mut wire =
            encode(&Request::FormBatch { seeds: seeds.to_vec(), mechanism, deadline_ms });
        wire.push('\n');
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        let mut responses = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::ServerClosed);
            }
            let response: Response = decode(line.trim()).map_err(ClientError::Protocol)?;
            let terminal = matches!(
                response,
                Response::BatchEnd { .. } | Response::Busy | Response::DeadlineExceeded
            );
            responses.push(response);
            if terminal {
                return Ok(responses);
            }
        }
    }

    /// Run a formation + execution and return the raw response.
    pub fn execute(
        &mut self,
        seed: u64,
        mechanism: MechanismKind,
        faults: FaultPlan,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Execute { seed, mechanism, faults, deadline_ms })
    }

    /// Fetch the metrics snapshot.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Fetch the registry snapshot.
    pub fn registry(&mut self) -> Result<RegistrySnapshot, ClientError> {
        self.registry_with_epoch().map(|(snapshot, _)| snapshot)
    }

    /// Fetch the registry snapshot plus the epoch of the immutable
    /// snapshot that served it (`None` only from pre-epoch daemons).
    pub fn registry_with_epoch(&mut self) -> Result<(RegistrySnapshot, Option<u64>), ClientError> {
        match self.request(&Request::Registry)? {
            Response::Registry { snapshot, epoch } => Ok((snapshot, epoch)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Report direct trust `u_{from,to} = value`; returns the new
    /// registry epoch.
    pub fn report_trust(&mut self, from: usize, to: usize, value: f64) -> Result<u64, ClientError> {
        self.write(&Request::ReportTrust { from, to, value }).map(|(epoch, _)| epoch)
    }

    /// Submit a verified execution receipt; returns the new registry
    /// epoch.
    pub fn report_receipt(
        &mut self,
        receipt: gridvo_core::ExecutionReceipt,
    ) -> Result<u64, ClientError> {
        self.write(&Request::ReportReceipt { receipt }).map(|(epoch, _)| epoch)
    }

    /// Add a provider; returns `(id, epoch)`.
    pub fn add_gsp(
        &mut self,
        speed_gflops: f64,
        cost: Vec<f64>,
        time: Vec<f64>,
    ) -> Result<(usize, u64), ClientError> {
        match self.write(&Request::AddGsp { speed_gflops, cost, time })? {
            (epoch, Some(id)) => Ok((id, epoch)),
            (epoch, None) => {
                Err(ClientError::UnexpectedResponse(Box::new(Response::Ack { epoch, id: None })))
            }
        }
    }

    /// Remove a provider; returns the new epoch.
    pub fn remove_gsp(&mut self, id: usize) -> Result<u64, ClientError> {
        self.write(&Request::RemoveGsp { id }).map(|(epoch, _)| epoch)
    }

    /// Send a registry write; returns the ack's `(epoch, id)`, or the
    /// refusal as [`ClientError::Protocol`].
    fn write(&mut self, request: &Request) -> Result<(u64, Option<usize>), ClientError> {
        match self.request(request)? {
            Response::Ack { epoch, id } => Ok((epoch, id)),
            Response::Error { message } => Err(ClientError::Protocol(message)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Queue-routed no-op holding a worker for `sleep_ms`.
    pub fn ping(&mut self, sleep_ms: u64) -> Result<Response, ClientError> {
        self.request(&Request::Ping { sleep_ms })
    }
}
