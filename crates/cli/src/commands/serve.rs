//! `gridvo serve` — run the formation daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::args::Flags;
use crate::commands::load_scenario;
use gridvo_service::{PersistConfig, ServerConfig, ServerHandle};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_store::FsyncPolicy;
use rand::SeedableRng;

const HELP: &str = "\
usage: gridvo serve [--scenario FILE | --tasks N --gsps M --seed S]
                    [--addr 127.0.0.1:0] [--workers W] [--queue Q]
                    [--cache C] [--deadline-ms D]
                    [--data-dir DIR] [--fsync POLICY] [--compact-bytes B]
                    [--rate-limit R] [--app-queue Q] [--min-free K]
                    [--lease-ttl-ms T]

Starts the long-running VO-formation daemon on a loopback TCP port,
serving the newline-delimited-JSON protocol (see `gridvo request`).
The provider pool is bootstrapped from --scenario, or generated from
Table-I parameters when no file is given. Prints `listening on
HOST:PORT` once ready; runs until SIGTERM (or, when stdin is a
supervising pipe, until that pipe closes), then shuts
down cleanly (exit 0). Registry writes commit one at a time;
formations read lock-free epoch snapshots.

  --workers      worker threads draining the job queue (default 2)
  --queue        job-queue bound; beyond it requests get Busy (default 64)
  --cache        solve-cache capacity in entries, 0 disables (default 4096)
  --deadline-ms  default per-request deadline, 0 = none (default 0)

Durability (off by default — without --data-dir the registry lives
purely in memory):

  --data-dir       journal registry mutations here; a non-empty
                   directory is recovered from, and then wins over
                   --scenario / generation
  --fsync          per-event | per-epoch | per-epoch=N | off
                   (default per-epoch: one fdatasync per 32-epoch
                   durability window)
  --compact-bytes  journal size triggering snapshot+truncate
                   compaction (default 1048576)

Market admission (see `gridvo request form --app` / `leases`):

  --rate-limit     per-connection request rate (req/s); beyond it
                   requests get Throttled (default off)
  --app-queue      outstanding market forms allowed per application
                   before Busy (default 16)
  --min-free       shed market forms with PoolExhausted when fewer
                   than K GSPs are uncommitted (default 1)
  --lease-ttl-ms   lease time-to-live; expired leases are released
                   server-side, journaled as reason \"expired\"
                   (default 0 = never)";

/// SIGTERM flag, set by a minimal C-ABI handler. The daemon's main
/// loop polls it; no async-signal-unsafe work happens in the handler.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::{AtomicBool, Ordering, TERM};

    /// Quiet-shutdown marker so double signals don't re-enter.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            const SIGTERM: i32 = 15;
            const SIGINT: i32 = 2;
            // SAFETY: registering a handler that only stores to an
            // AtomicBool — async-signal-safe by construction.
            unsafe {
                signal(SIGTERM, on_term);
                signal(SIGINT, on_term);
            }
        }
    }
}

/// Is stdin a pipe (as opposed to a terminal, /dev/null, …)?
/// Resolved via procfs; anywhere that's unreadable we assume pipe,
/// preserving the close-to-shutdown contract.
fn stdin_is_pipe() -> bool {
    match std::fs::read_link("/proc/self/fd/0") {
        Ok(target) => target.to_string_lossy().starts_with("pipe:"),
        Err(_) => true,
    }
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &[
            "scenario",
            "tasks",
            "gsps",
            "seed",
            "addr",
            "workers",
            "queue",
            "cache",
            "deadline-ms",
            "data-dir",
            "fsync",
            "compact-bytes",
            "rate-limit",
            "app-queue",
            "min-free",
            "lease-ttl-ms",
        ],
        &[],
    )
    .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;

    let scenario = match flags.get("scenario") {
        Some(path) => load_scenario(path)?,
        None => {
            let tasks: usize = flags.num("tasks", 32)?;
            let gsps: usize = flags.num("gsps", 6)?;
            let seed: u64 = flags.num("seed", 1)?;
            if tasks < gsps {
                return Err(format!("--tasks {tasks} must be at least --gsps {gsps}"));
            }
            let cfg = TableI { gsps, task_sizes: vec![tasks], ..TableI::small() };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            ScenarioGenerator::new(cfg)
                .scenario(tasks, &mut rng)
                .map_err(|e| format!("generation failed: {e}"))?
        }
    };

    let persistence = match flags.get("data-dir") {
        None => {
            for durability_only in ["fsync", "compact-bytes"] {
                if flags.get(durability_only).is_some() {
                    return Err(format!("--{durability_only} requires --data-dir"));
                }
            }
            None
        }
        Some(dir) => {
            let mut persist = PersistConfig::new(dir);
            if let Some(policy) = flags.get("fsync") {
                persist.fsync = FsyncPolicy::parse(policy).ok_or_else(|| {
                    format!(
                        "invalid --fsync {policy:?} (per-event | per-epoch | per-epoch=N | off)"
                    )
                })?;
            }
            persist.compact_bytes = flags.num("compact-bytes", persist.compact_bytes)?;
            Some(persist)
        }
    };

    let config = ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flags.num("workers", 2)?,
        queue_capacity: flags.num("queue", 64)?,
        cache_capacity: flags.num("cache", 4096)?,
        default_deadline_ms: flags.num("deadline-ms", 0)?,
        persistence,
        rate_limit: match flags.get("rate-limit") {
            None => None,
            Some(_) => {
                let rate: f64 = flags.num("rate-limit", 0.0)?;
                if rate <= 0.0 {
                    return Err(format!("--rate-limit {rate} must be positive"));
                }
                Some(rate)
            }
        },
        app_queue_capacity: flags.num("app-queue", 16)?,
        min_free: flags.num("min-free", 1)?,
        lease_ttl_ms: flags.num("lease-ttl-ms", 0)?,
    };
    let handle =
        ServerHandle::spawn(&scenario, config).map_err(|e| format!("cannot start daemon: {e}"))?;

    // The e2e test and scripts parse this exact line for the port.
    println!("listening on {}", handle.addr());
    // The crash-injection harness parses this line for the epoch.
    if let Some(epoch) = handle.recovered_epoch() {
        println!("recovered registry at epoch {epoch}");
    }
    let pool = handle.registry_snapshot();
    println!("pool: {} GSPs, {} tasks; shutdown on SIGTERM or stdin close", pool.gsps, pool.tasks);
    use std::io::Write;
    std::io::stdout().flush().ok();

    #[cfg(unix)]
    sig::install();

    // Stdin-EOF watcher: a supervisor (or a test) holding our stdin
    // open as a pipe can stop us by closing it. Only armed when stdin
    // actually IS a pipe — a terminal would stop a backgrounded
    // daemon with SIGTTIN on read, and /dev/null (systemd-style) is
    // at EOF from the start, which would shut us down instantly.
    let stdin_closed = Arc::new(AtomicBool::new(false));
    if stdin_is_pipe() {
        let stdin_closed = Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            stdin_closed.store(true, Ordering::SeqCst);
        });
    }

    while !TERM.load(Ordering::SeqCst) && !stdin_closed.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    let metrics = handle.metrics_snapshot();
    handle.shutdown();
    println!(
        "shut down cleanly: {} requests served, {} busy-shed, cache hit rate {:.2}",
        metrics.requests_total, metrics.busy_rejections, metrics.cache_hit_rate
    );
    Ok(())
}
