//! Fuzz-style property tests for the line-JSON protocol parser:
//! arbitrary byte lines interleaved with valid requests must never
//! panic the daemon or desynchronize the connection.
//!
//! The per-line oracle mirrors the server's documented behavior:
//!
//! * a whitespace-only (UTF-8) line is skipped silently — no response;
//! * any other line that is not a valid request — non-UTF-8 bytes
//!   included — gets exactly one typed `error` response;
//! * the connection survives, in order: a `ping` written after the
//!   garbage is answered `pong` right after the garbage's errors, and
//!   a `form` after that is byte-identical to the direct library call.

use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::FormationScenario;
use gridvo_service::protocol::{decode, encode, Request, Response};
use gridvo_service::server::MAX_LINE_BYTES;
use gridvo_service::{ServerConfig, ServerHandle};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use proptest::prelude::*;
use rand::SeedableRng;

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

/// Random lines: up to 8 lines of up to 32 arbitrary bytes each.
/// Newlines are remapped to spaces so one write is always one line.
fn lines_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..=255u8, 0usize..32), 0usize..8)
}

/// What the server owes us for one garbage line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Nothing,
    Error,
}

/// Sanitize one raw line and predict its response. Lines that would
/// accidentally parse as a *valid* request (possible in principle,
/// since the bytes are arbitrary) are defanged into unambiguous
/// garbage so the oracle stays two-valued.
fn prepare(mut line: Vec<u8>) -> (Vec<u8>, Expect) {
    for b in &mut line {
        if *b == b'\n' {
            *b = b' ';
        }
    }
    match std::str::from_utf8(&line) {
        Ok(text) if text.trim().is_empty() => (line, Expect::Nothing),
        Ok(text) => {
            if decode::<Request>(text.trim()).is_ok() {
                (b"{\"op\":".to_vec(), Expect::Error)
            } else {
                (line, Expect::Error)
            }
        }
        Err(_) => (line, Expect::Error),
    }
}

struct RawConn {
    writer: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let writer = stream.try_clone().unwrap();
        RawConn { writer, reader: BufReader::new(stream) }
    }

    fn send_raw(&mut self, line: &[u8]) {
        self.writer.write_all(line).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn send(&mut self, request: &Request) {
        self.send_raw(encode(request).as_bytes());
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("daemon reply within the timeout");
        assert!(n > 0, "daemon closed the connection on garbage input");
        decode(line.trim()).expect("daemon replies are always valid protocol lines")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn garbage_lines_never_panic_or_desynchronize(raw_lines in lines_strategy()) {
        let s = scenario();
        let handle = ServerHandle::spawn(&s, ServerConfig::default()).expect("bind loopback");
        let mut conn = RawConn::connect(handle.addr());

        // Fire all garbage in one burst, then a ping: the protocol is
        // strictly in-order, so we must see exactly one error per
        // non-skipped line, then the pong.
        let mut owed = 0usize;
        for raw in raw_lines {
            let (line, expect) = prepare(raw);
            conn.send_raw(&line);
            if expect == Expect::Error {
                owed += 1;
            }
        }
        conn.send(&Request::Ping { sleep_ms: 0 });
        for i in 0..owed {
            let response = conn.recv();
            prop_assert!(
                matches!(response, Response::Error { .. }),
                "garbage line {i} got {:?} instead of a typed error",
                response.kind()
            );
        }
        prop_assert_eq!(conn.recv(), Response::Pong);

        // Valid requests after garbage are answered correctly: a form
        // on the same connection is byte-identical to the direct call.
        conn.send(&Request::Form { seed: 42, mechanism: Default::default(), deadline_ms: None, app: None });
        let served = conn.recv();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut direct = Mechanism::tvof(FormationConfig::default())
            .run(&s, &mut rng)
            .expect("formation runs");
        direct.zero_timings();
        prop_assert_eq!(encode(&served), encode(&Response::form_from(direct)));
        handle.shutdown();
    }
}

#[test]
fn non_utf8_line_gets_a_typed_error_and_the_connection_survives() {
    let handle = ServerHandle::spawn(&scenario(), ServerConfig::default()).expect("bind loopback");
    let mut conn = RawConn::connect(handle.addr());

    conn.send_raw(&[0xFF, 0xFE, 0x80, 0xC0]);
    match conn.recv() {
        Response::Error { message } => assert!(message.contains("not UTF-8"), "{message}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    conn.send(&Request::Ping { sleep_ms: 0 });
    assert_eq!(conn.recv(), Response::Pong);
    handle.shutdown();
}

#[test]
fn a_line_nested_past_the_limit_is_refused_and_the_connection_survives() {
    let handle = ServerHandle::spawn(&scenario(), ServerConfig::default()).expect("bind loopback");
    let mut conn = RawConn::connect(handle.addr());

    // 200 000 levels under an unknown key (400 KB): deep enough to
    // overflow a connection thread's stack if the reader recursed
    // through all of them.
    let levels = 200_000;
    let deep =
        format!(r#"{{"op":"ping","sleep_ms":0,"x":{}{}}}"#, "[".repeat(levels), "]".repeat(levels));
    conn.send_raw(deep.as_bytes());
    match conn.recv() {
        Response::Error { message } => {
            assert_eq!(message, "bad request: recursion limit exceeded at byte 157")
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    conn.send(&Request::Ping { sleep_ms: 0 });
    assert_eq!(conn.recv(), Response::Pong);
    handle.shutdown();
}

#[test]
fn a_line_past_the_length_cap_is_refused_and_the_connection_survives() {
    let handle = ServerHandle::spawn(&scenario(), ServerConfig::default()).expect("bind loopback");
    let mut conn = RawConn::connect(handle.addr());

    // One byte over the cap, then a ping on the same connection: the
    // daemon refuses the long line without buffering its rest and
    // answers the ping after it.
    conn.send_raw(&vec![b'x'; MAX_LINE_BYTES + 1]);
    conn.send(&Request::Ping { sleep_ms: 0 });
    match conn.recv() {
        Response::Error { message } => {
            assert_eq!(message, "bad request: line longer than 4194304 bytes")
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(conn.recv(), Response::Pong);
    // A line of exactly the cap is read and answered as usual.
    let mut longest = encode(&Request::Ping { sleep_ms: 0 }).into_bytes();
    longest.resize(MAX_LINE_BYTES, b' ');
    conn.send_raw(&longest);
    assert_eq!(conn.recv(), Response::Pong);
    handle.shutdown();
}

#[test]
fn a_newline_split_across_writes_is_reassembled() {
    let handle = ServerHandle::spawn(&scenario(), ServerConfig::default()).expect("bind loopback");
    let mut conn = RawConn::connect(handle.addr());

    // Dribble a valid ping in three writes with pauses longer than
    // the server's read timeout: the partial prefix must survive the
    // timeouts and parse once the newline lands.
    let wire = encode(&Request::Ping { sleep_ms: 0 });
    let (head, tail) = wire.as_bytes().split_at(wire.len() / 2);
    conn.writer.write_all(head).unwrap();
    conn.writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    conn.writer.write_all(tail).unwrap();
    conn.writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    conn.writer.write_all(b"\n").unwrap();
    conn.writer.flush().unwrap();
    assert_eq!(conn.recv(), Response::Pong);
    handle.shutdown();
}
