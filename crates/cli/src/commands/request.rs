//! `gridvo request` — speak the daemon protocol from the shell.

use crate::args::Flags;
use crate::commands::{mechanism, write_json};
use gridvo_core::FaultPlan;
use gridvo_service::protocol::Response;
use gridvo_service::ServiceClient;

const HELP: &str = "\
usage: gridvo request <op> --addr HOST:PORT [op flags]

ops:
  form          --seed S [--app NAME] [--mechanism tvof|rvof]
                [--deadline-ms D] [--out f.json]    (--app contends on
                the shared market: forms over the uncommitted sub-pool
                and leases the winning coalition)
  form-batch    --seeds S1,S2,.. [--mechanism tvof|rvof] [--deadline-ms D]
                [--out f.json]    (one snapshot, one cache pass, streamed
                per-seed responses; --out captures the whole stream)
  execute       --seed S [--plan plan.json] [--mechanism tvof|rvof]
                [--deadline-ms D] [--out f.json]
  release-lease --lease L [--abandon]
  leases        [--out f.json]
  metrics       [--out f.json]
  registry      [--json] [--out f.json]
  report-trust  --from I --to J --value V
  report-receipt --gsp G --round R --reward W --witnesses i,j,..
                [--success]
  add-gsp       --speed S --cost c1,c2,.. --time t1,t2,..
  remove-gsp    --id I
  ping          [--sleep-ms N]

Sends one request to a running `gridvo serve` daemon and prints the
response. Busy / throttled / pool-exhausted / deadline-exceeded
responses exit non-zero so shell loops can back off and retry.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((op, rest)) = argv.split_first() else {
        return Err(HELP.to_string());
    };
    let flags = Flags::parse(
        rest,
        &[
            "addr",
            "seed",
            "seeds",
            "mechanism",
            "deadline-ms",
            "out",
            "plan",
            "from",
            "to",
            "value",
            "speed",
            "cost",
            "time",
            "id",
            "sleep-ms",
            "gsp",
            "round",
            "reward",
            "witnesses",
            "app",
            "lease",
        ],
        &["json", "success", "abandon"],
    )
    .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;
    let addr = flags.require("addr")?;
    let mut client =
        ServiceClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    match op.as_str() {
        "form" => form(&mut client, &flags),
        "form-batch" => form_batch(&mut client, &flags),
        "execute" => execute(&mut client, &flags),
        "release-lease" => {
            let lease: u64 = flags.require_num("lease")?;
            let abandon = flags.has("abandon");
            let epoch = client.release_lease(lease, abandon).map_err(|e| e.to_string())?;
            let how = if abandon { "abandoned" } else { "completed" };
            outln!("lease {lease} {how}; registry epoch now {epoch}");
            Ok(())
        }
        "leases" => {
            let (leases, free, epoch) = client.leases().map_err(|e| e.to_string())?;
            outln!("{} live lease(s), {} free GSP(s), epoch {}", leases.len(), free.len(), epoch);
            for lease in &leases {
                outln!(
                    "  lease {} (app {:?}): GSPs {:?}, acquired at epoch {}",
                    lease.id,
                    lease.app,
                    lease.members,
                    lease.acquired_epoch,
                );
            }
            maybe_out(&flags, &leases)
        }
        "metrics" => {
            let snapshot = client.metrics().map_err(|e| e.to_string())?;
            outln!(
                "requests {} (form {}, execute {}), busy {}, deadline-dropped {}, \
                 anytime {}, errors {}",
                snapshot.requests_total,
                snapshot.form_requests,
                snapshot.execute_requests,
                snapshot.busy_rejections,
                snapshot.deadline_rejections,
                snapshot.anytime_served,
                snapshot.request_errors,
            );
            outln!(
                "cache: {} hits / {} misses (rate {:.2}), {} entries; queue depth {}",
                snapshot.cache_hits,
                snapshot.cache_misses,
                snapshot.cache_hit_rate,
                snapshot.cache_entries,
                snapshot.queue_depth,
            );
            outln!(
                "latency: queue wait mean {:.3} ms (max {:.3}), service mean {:.3} ms (max {:.3})",
                snapshot.queue_wait_ms.mean_ms(),
                snapshot.queue_wait_ms.max_ms,
                snapshot.service_ms.mean_ms(),
                snapshot.service_ms.max_ms,
            );
            outln!(
                "market: {} GSP(s) committed across {} lease(s); acquired {}, released {}, \
                 expired {}; shed {} pool-exhausted, {} throttled",
                snapshot.committed_gsps,
                snapshot.live_leases,
                snapshot.leases_acquired,
                snapshot.leases_released,
                snapshot.leases_expired,
                snapshot.pool_exhausted_rejections,
                snapshot.throttled_rejections,
            );
            for d in &snapshot.app_queue_depths {
                outln!("  app {:?}: {} outstanding", d.app, d.depth);
            }
            maybe_out(&flags, &snapshot)
        }
        "registry" => {
            let (snapshot, served_epoch) =
                client.registry_with_epoch().map_err(|e| e.to_string())?;
            // The epoch of the immutable snapshot that served the
            // dump, reported alongside it so scripts can detect
            // staleness without digging into the dump itself.
            let snapshot_epoch = served_epoch.unwrap_or(snapshot.epoch);
            if flags.has("json") {
                // Snapshot JSON plus its epoch on stdout, for scripts
                // (`--out` still writes the same document to a file).
                let doc = RegistryDump { snapshot_epoch, snapshot };
                let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
                outln!("{json}");
                maybe_out(&flags, &doc)
            } else {
                outln!(
                    "epoch {} (snapshot epoch {}): {} GSPs, {} tasks, {} logged events, last \
                     refresh {} power iteration(s)",
                    snapshot.epoch,
                    snapshot_epoch,
                    snapshot.gsps,
                    snapshot.tasks,
                    snapshot.events,
                    snapshot.power_iterations,
                );
                maybe_out(&flags, &snapshot)
            }
        }
        "report-trust" => {
            let from: usize = flags.require_num("from")?;
            let to: usize = flags.require_num("to")?;
            let value: f64 = flags.require_num("value")?;
            let epoch = client.report_trust(from, to, value).map_err(|e| e.to_string())?;
            outln!("trust {from} -> {to} = {value}; registry epoch now {epoch}");
            Ok(())
        }
        "report-receipt" => {
            let gsp: usize = flags.require_num("gsp")?;
            let round: usize = flags.num("round", 0)?;
            let reward: f64 = flags.num("reward", 0.0)?;
            let witnesses = flags
                .list("witnesses")?
                .ok_or_else(|| "report-receipt needs --witnesses i,j,..".to_string())?;
            let success = flags.has("success");
            let receipt =
                gridvo_core::ExecutionReceipt::new(round, gsp, success, reward, witnesses);
            let epoch = client.report_receipt(receipt).map_err(|e| e.to_string())?;
            let verdict = if success { "success" } else { "failure" };
            outln!(
                "receipt for GSP {gsp} ({verdict}, reward {reward}); registry epoch now {epoch}"
            );
            Ok(())
        }
        "add-gsp" => {
            let speed: f64 = flags.num("speed", 0.0)?;
            let cost = float_list(&flags, "cost")?;
            let time = float_list(&flags, "time")?;
            let (id, epoch) = client.add_gsp(speed, cost, time).map_err(|e| e.to_string())?;
            outln!("joined as GSP {id}; registry epoch now {epoch}");
            Ok(())
        }
        "remove-gsp" => {
            let id: usize = flags.require_num("id")?;
            let epoch = client.remove_gsp(id).map_err(|e| e.to_string())?;
            outln!("GSP {id} removed; registry epoch now {epoch}");
            Ok(())
        }
        "ping" => {
            let sleep_ms: u64 = flags.num("sleep-ms", 0)?;
            match client.ping(sleep_ms).map_err(|e| e.to_string())? {
                Response::Pong => {
                    outln!("pong");
                    Ok(())
                }
                other => shed(other),
            }
        }
        other => Err(format!("unknown request op {other:?}\n{HELP}")),
    }
}

fn deadline(flags: &Flags) -> Result<Option<u64>, String> {
    Ok(match flags.num("deadline-ms", 0u64)? {
        0 => None,
        ms => Some(ms),
    })
}

fn form(client: &mut ServiceClient, flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.num("seed", 1)?;
    let response = match flags.get("app") {
        Some(app) => client.form_in_app(app, seed, mechanism(flags)?, deadline(flags)?),
        None => client.form(seed, mechanism(flags)?, deadline(flags)?),
    }
    .map_err(|e| e.to_string())?;
    match response {
        Response::Form { outcome, truncated, gap, lease, lease_epoch, .. } => {
            match &outcome.selected {
                Some(vo) => outln!(
                    "selected VO {:?}: payoff/GSP {:.2}, avg reputation {:.4}, cost {:.1} \
                     ({} iteration(s))",
                    vo.members,
                    vo.payoff_share,
                    vo.avg_reputation,
                    vo.cost,
                    outcome.iterations.len(),
                ),
                None => outln!("no feasible VO"),
            }
            if truncated == Some(true) {
                outln!(
                    "anytime result: a budget truncated the solve (gap {})",
                    gap.map_or("unknown".to_string(), |g| format!("{:.2}%", g * 100.0)),
                );
            }
            if let Some(lease) = lease {
                outln!(
                    "coalition committed as lease {} (epoch {}); release with \
                     `gridvo request release-lease --lease {}`",
                    lease,
                    lease_epoch.map_or("?".to_string(), |e| e.to_string()),
                    lease,
                );
            }
            maybe_out(flags, &outcome)
        }
        other => shed(other),
    }
}

/// The `registry --json` document: the snapshot plus the epoch of
/// the immutable snapshot that served it.
#[derive(serde::Serialize)]
struct RegistryDump {
    snapshot_epoch: u64,
    snapshot: gridvo_service::RegistrySnapshot,
}

fn form_batch(client: &mut ServiceClient, flags: &Flags) -> Result<(), String> {
    let seeds: Vec<u64> = flags
        .require("seeds")?
        .split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("invalid seed in --seeds: {p:?}")))
        .collect::<Result<Vec<u64>, String>>()?;
    let responses = client
        .form_batch(&seeds, mechanism(flags)?, deadline(flags)?)
        .map_err(|e| e.to_string())?;
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Form { outcome, .. } => match &outcome.selected {
                Some(vo) => outln!(
                    "seed {}: VO {:?}, payoff/GSP {:.2}, avg reputation {:.4} ({} iteration(s))",
                    seeds[i],
                    vo.members,
                    vo.payoff_share,
                    vo.avg_reputation,
                    outcome.iterations.len(),
                ),
                None => outln!("seed {}: no feasible VO", seeds[i]),
            },
            Response::BatchEnd { epoch, served } => {
                outln!("batch done: {served} seed(s) formed against snapshot epoch {epoch}");
            }
            Response::Error { message } => outln!("seed {}: error: {message}", seeds[i]),
            other => return shed(other.clone()),
        }
    }
    maybe_out(flags, &responses)
}

fn execute(client: &mut ServiceClient, flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.num("seed", 1)?;
    let plan = match flags.get("plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read plan {path}: {e}"))?;
            serde_json::from_str::<FaultPlan>(&text)
                .map_err(|e| format!("invalid fault plan JSON in {path}: {e}"))?
        }
        None => FaultPlan::empty(),
    };
    match client
        .execute(seed, mechanism(flags)?, plan, deadline(flags)?)
        .map_err(|e| e.to_string())?
    {
        Response::Execute { outcome, report } => {
            match &report {
                Some(r) => outln!(
                    "executed: {} -> {} member(s), cost {:.1} -> {:.1}, {} recover(ies), \
                     completed: {}",
                    r.initial_members.len(),
                    r.final_members.len(),
                    r.initial_cost,
                    r.final_cost,
                    r.recoveries.len(),
                    r.completed(),
                ),
                None => outln!("no feasible VO — nothing executed"),
            }
            if let Some(out) = flags.get("out") {
                write_json(out, &Response::Execute { outcome, report })?;
            }
            Ok(())
        }
        other => shed(other),
    }
}

fn shed(response: Response) -> Result<(), String> {
    match response {
        Response::Busy => Err("server busy (queue full) — retry later".to_string()),
        Response::DeadlineExceeded => Err("request dropped: deadline exceeded".to_string()),
        Response::Throttled => Err("request throttled (rate limit) — back off".to_string()),
        Response::PoolExhausted { free } => {
            Err(format!("pool exhausted ({free} free GSP(s)) — release a lease or retry later"))
        }
        Response::ReaderStalled { unread_bytes } => Err(format!(
            "batch stopped: {unread_bytes} reply bytes were left unread (read the reply as it \
             streams)"
        )),
        Response::Error { message } => Err(format!("server error: {message}")),
        other => Err(format!("unexpected response kind {:?}", other.kind())),
    }
}

fn maybe_out<T: serde::Serialize>(flags: &Flags, value: &T) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => write_json(path, value),
        None => Ok(()),
    }
}

fn float_list(flags: &Flags, name: &str) -> Result<Vec<f64>, String> {
    flags
        .require(name)?
        .split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("invalid number in --{name}: {p:?}")))
        .collect()
}
