//! End-to-end test of the daemon: spawn `gridvo serve` on an
//! ephemeral loopback port, drive it with `gridvo request`
//! subprocesses, and assert clean shutdown on both stdin close and
//! SIGTERM.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn gridvo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridvo"))
}

/// Spawn the daemon and block until it prints its bound address.
fn spawn_daemon(extra: &[&str]) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = gridvo()
        .args(["serve", "--tasks", "12", "--gsps", "4", "--seed", "7", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon announces its port");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    (child, reader, addr)
}

/// Wait for the child to exit, panicking after `secs` seconds.
fn wait_with_timeout(child: &mut Child, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait works") {
            return status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("daemon did not exit within {secs} s");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn serve_and_request_roundtrip_with_clean_stdin_shutdown() {
    let (mut child, mut reader, addr) = spawn_daemon(&[]);

    // form — twice, so the second run exercises the solve cache.
    let out = run_ok(gridvo().args(["request", "form", "--addr", &addr, "--seed", "3"]));
    assert!(out.contains("selected VO"), "no VO in: {out}");
    let out2 = run_ok(gridvo().args(["request", "form", "--addr", &addr, "--seed", "3"]));
    assert_eq!(out, out2, "repeated form request must print identical results");

    // execute (fault-free) against the same daemon
    let out = run_ok(gridvo().args(["request", "execute", "--addr", &addr, "--seed", "3"]));
    assert!(out.contains("executed:"), "no execution in: {out}");
    assert!(out.contains("completed: true"), "did not complete: {out}");

    // registry + trust report
    let out = run_ok(gridvo().args(["request", "registry", "--addr", &addr]));
    assert!(out.contains("epoch 0"), "fresh registry not at epoch 0: {out}");
    let out = run_ok(gridvo().args([
        "request",
        "report-trust",
        "--addr",
        &addr,
        "--from",
        "0",
        "--to",
        "1",
        "--value",
        "0.9",
    ]));
    assert!(out.contains("epoch now 1"), "trust report did not bump epoch: {out}");

    // metrics reflect the traffic above
    let out = run_ok(gridvo().args(["request", "metrics", "--addr", &addr]));
    assert!(out.contains("cache:"), "no cache stats in: {out}");
    assert!(out.contains("form 2"), "form counter wrong in: {out}");

    // closing stdin shuts the daemon down cleanly (exit 0)
    drop(child.stdin.take());
    let status = wait_with_timeout(&mut child, 10);
    assert!(status.success(), "stdin-close shutdown must exit 0, got {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).ok();
    assert!(rest.contains("shut down cleanly"), "no shutdown line in: {rest:?}");
}

#[cfg(unix)]
#[test]
fn sigterm_shuts_the_daemon_down_cleanly() {
    let (mut child, mut reader, addr) = spawn_daemon(&[]);

    // It is actually serving before we signal it.
    let out = run_ok(gridvo().args(["request", "ping", "--addr", &addr]));
    assert!(out.contains("pong"), "no pong in: {out}");

    let status =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(status.success(), "kill -TERM failed");

    let status = wait_with_timeout(&mut child, 10);
    assert!(status.success(), "SIGTERM shutdown must exit 0, got {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).ok();
    assert!(rest.contains("shut down cleanly"), "no shutdown line in: {rest:?}");
}

#[test]
fn request_subcommand_fails_cleanly_without_a_daemon() {
    // Port 1 on loopback is never listening; the client must error,
    // not hang or panic.
    let out = gridvo()
        .args(["request", "metrics", "--addr", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
}

#[test]
fn form_batch_exits_nonzero_on_a_stalled_reader_line() {
    // A scripted peer answers the batch the way the daemon ends one
    // whose client fell behind.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the CLI connects");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("clone")).read_line(&mut request).expect("read");
        let reply = "{\"kind\":\"reader_stalled\",\"unread_bytes\":4196196}\n\
                     {\"kind\":\"batch_end\",\"epoch\":0,\"served\":0}\n";
        std::io::Write::write_all(&mut &stream, reply.as_bytes()).expect("reply");
        request
    });
    let out = gridvo()
        .args(["request", "form-batch", "--addr", &addr, "--seeds", "1,2"])
        .output()
        .expect("binary runs");
    assert!(peer.join().expect("peer thread").contains("\"op\":\"form_batch\""));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("batch stopped: 4196196 reply bytes were left unread"), "{stderr}");
}
