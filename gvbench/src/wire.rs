//! The load generator's side of the wire: one TCP connection speaking
//! the daemon's newline-delimited JSON, keeping every raw reply line
//! so outputs can be checked byte for byte.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gridvo_service::protocol::{decode, encode, Request, Response};

use crate::trace::Tracer;

/// One request's reply: the raw lines and their decoded form.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Raw reply lines, without the trailing newline.
    pub lines: Vec<String>,
    /// `lines`, decoded.
    pub responses: Vec<Response>,
}

impl Reply {
    /// The last (for a batch: terminating) response.
    pub fn last(&self) -> &Response {
        self.responses.last().expect("a reply holds at least one line")
    }
}

/// A connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect, with Nagle off as the daemon's own client does.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung daemon must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Send `request` and read its reply: one line, or for a batch the
    /// stream up to its terminating line. With tracing on, records a
    /// `client.request` span with `client.encode`, `client.send`,
    /// `client.wait` and `client.decode` children.
    pub fn call(
        &mut self,
        request: &Request,
        tracer: &mut Tracer,
        request_id: u64,
    ) -> Result<Reply, String> {
        let started = Instant::now();
        let span = tracer.open();
        let mut wire = encode(request);
        wire.push('\n');
        let encoded = Instant::now();
        tracer.record("client.encode", request_id, Some(span), started, encoded);
        self.writer.write_all(wire.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
        let sent = Instant::now();
        tracer.record("client.send", request_id, Some(span), encoded, sent);

        let batch = matches!(request, Request::FormBatch { .. });
        let mut reply = Reply { lines: Vec::new(), responses: Vec::new() };
        let mut waiting_since = sent;
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive failed: {e}")),
            }
            let read = Instant::now();
            tracer.record("client.wait", request_id, Some(span), waiting_since, read);
            let line = line.trim_end().to_string();
            let response: Response =
                decode(&line).map_err(|e| format!("undecodable reply {line:?}: {e}"))?;
            let decoded = Instant::now();
            tracer.record("client.decode", request_id, Some(span), read, decoded);
            waiting_since = decoded;
            let terminal = !batch
                || matches!(
                    response,
                    Response::BatchEnd { .. }
                        | Response::Busy
                        | Response::DeadlineExceeded
                        | Response::Throttled
                );
            reply.lines.push(line);
            reply.responses.push(response);
            if terminal {
                break;
            }
        }
        tracer.close(span, "client.request", request_id, None, started, Instant::now());
        Ok(reply)
    }
}
