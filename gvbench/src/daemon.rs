//! The daemon under test: `gridvo serve` run as a child process of the
//! release binary. Its stdin is a pipe the benchmark holds; closing it
//! is the clean stop, and a kill is the crash.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    /// `127.0.0.1:PORT`.
    pub addr: String,
    /// The epoch recovered from the data directory, if any.
    pub recovered_epoch: Option<u64>,
}

impl Daemon {
    /// Start `gridvo serve ARGS` and wait until it prints its pool line
    /// (after the listening and recovery lines).
    pub fn launch(gridvo: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(gridvo)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gridvo.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut recovered_epoch = None;
        loop {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("gridvo serve {} exited before it was ready", args.join(" ")));
            }
            let line = line.trim();
            if let Some(a) = line.strip_prefix("listening on ") {
                addr = Some(a.to_string());
            } else if let Some(e) = line.strip_prefix("recovered registry at epoch ") {
                recovered_epoch = e.parse().ok();
            } else if line.starts_with("pool:") {
                break;
            }
        }
        let addr = addr.ok_or("gridvo serve printed no listening address")?;
        Ok(Daemon { child, stdin, _stdout: stdout, addr, recovered_epoch })
    }

    /// Clean stop: close the supervising pipe and wait for exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not stop within 10 s".to_string());
                }
            }
        }
    }

    /// Crash: SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters this benchmark does not read.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds (user + system) of every child process reaped so far.
/// A daemon's share is the difference across its reap. Time the host
/// steals from the machine is not counted, so unlike wall-clock
/// figures this one does not move with the neighbours' load.
pub fn children_cpu_s() -> f64 {
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], counters: [0; 14] };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux, and getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path; stop() and kill() have
        // already reaped the child otherwise (and kill is a no-op then).
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
