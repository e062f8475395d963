//! Trace-driven multi-application market simulation.
//!
//! Closes the loop on the concurrent-market subsystem: real (or
//! synthetic) SWF traces drive arrival processes for several
//! applications that contend for one shared GSP pool. Each completed
//! trace job becomes a formation request; a formed VO holds its
//! coalition under a lease for the job's runtime, and later arrivals
//! can only form over the uncommitted leftovers — the same admission
//! policy the daemon applies, replayed here as a deterministic
//! discrete-event loop so contention effects (shed rate, lease waits,
//! hedonic-stability violations across concurrently-live VOs) can be
//! measured without a server.
//!
//! Time in this module is trace time (seconds since trace start),
//! never wall-clock, so runs are exactly reproducible.

use std::collections::VecDeque;

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::solve_cache::NoCache;
use gridvo_market::{stability, CommittedVo, LeaseTable};
use gridvo_solver::Budget;
use gridvo_workload::swf::{SwfJob, SwfStatus, SwfTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::instance_gen::ScenarioGenerator;
use crate::{Result, SimError, TableI};

/// Program size (#tasks) of every formation request.
pub const TASKS: usize = 12;
/// Seed for pool/scenario generation.
const SCENARIO_SEED: u64 = 7;
/// Pending-retry slots per application; beyond them jobs shed.
const APP_QUEUE: usize = 4;

/// Knobs for one market simulation. A formed VO holds its lease for
/// the job's `task_runtime()` seconds (at least one).
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Instance-generation parameters for the shared pool.
    pub table: TableI,
    /// Concurrent applications; trace job `i` belongs to `app-{i mod apps}`.
    pub apps: usize,
    /// Seed mixed into each job's formation RNG.
    pub seed: u64,
    /// Jobs shed while fewer than this many GSPs are uncommitted.
    pub min_free: usize,
}

impl MarketConfig {
    /// A small, fast default built on [`TableI::small`].
    pub fn small() -> Self {
        MarketConfig { table: TableI::small(), apps: 3, seed: 11, min_free: 1 }
    }
}

/// Per-application tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// Application name (`app-0`, `app-1`, …).
    pub app: String,
    /// Jobs that formed a VO (and held a lease).
    pub formed: u64,
    /// Jobs shed (pool exhausted past the retry queue, queue full, or
    /// infeasible even on the idle pool).
    pub shed: u64,
    /// Mean seconds formed jobs waited between arrival and formation.
    pub mean_wait_s: f64,
}

/// What one market simulation measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketReport {
    /// Eligible (completed) trace jobs fed in.
    pub jobs: u64,
    /// Jobs that formed a VO.
    pub formed: u64,
    /// Jobs shed.
    pub shed: u64,
    /// Mean lease wait over formed jobs, seconds of trace time.
    pub mean_wait_s: f64,
    /// Most leases live at once.
    pub max_live_leases: usize,
    /// Hedonic-stability violations summed over every acquire instant:
    /// members of a live VO that could defect to a concurrently-live
    /// richer coalition (see [`gridvo_market::stability`]).
    pub stability_violations: u64,
    /// Per-application breakdown, app-name order.
    pub per_app: Vec<AppOutcome>,
}

/// A deterministic synthetic SWF trace (Poisson-ish arrivals, mixed
/// outcomes) for driving [`run_market`] without an archive file.
pub fn synthetic_trace(jobs: usize, seed: u64) -> SwfTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = SwfTrace {
        header: vec![
            ("Version".to_string(), "2.1".to_string()),
            ("Computer".to_string(), "gridvo-synthetic".to_string()),
            ("MaxJobs".to_string(), jobs.to_string()),
        ],
        jobs: Vec::with_capacity(jobs),
    };
    let mut t = 0.0;
    for i in 0..jobs {
        t += rng.gen_range(30.0..900.0);
        let run = rng.gen_range(1_800.0..18_000.0);
        let procs = rng.gen_range(4..64);
        // ~1 in 6 jobs fails and is filtered out by `completed()`.
        let status =
            if rng.gen_range(0..6) == 0 { SwfStatus::Failed } else { SwfStatus::Completed };
        trace.jobs.push(SwfJob {
            job_id: i as i64 + 1,
            submit_time: (t as u64) as f64,
            wait_time: 0.0,
            run_time: (run as u64) as f64,
            allocated_procs: procs,
            avg_cpu_time: ((run * 0.9) as u64) as f64,
            used_memory: -1.0,
            requested_procs: procs,
            requested_time: ((run * 1.2) as u64) as f64,
            requested_memory: -1.0,
            status,
            user_id: rng.gen_range(1..8),
            group_id: 1,
            executable: -1,
            queue: 1,
            partition: -1,
            preceding_job: -1,
            think_time: -1.0,
        });
    }
    trace
}

/// One job flowing through the market.
struct Arrival {
    idx: usize,
    app: usize,
    submit: f64,
    hold: f64,
}

/// Jobs waiting for the pool to free up.
struct PendingJob {
    arrival: Arrival,
}

/// What one formation attempt did.
enum Attempt {
    /// A coalition formed and holds a lease.
    Formed,
    /// Contention blocked it; retry after a release.
    Blocked,
    /// Infeasible on the idle pool: it never forms (shed).
    Infeasible,
}

/// A lease scheduled to end.
struct LiveVo {
    lease: u64,
    ends: f64,
    committed: CommittedVo,
}

/// Run the discrete-event market over `trace`'s completed jobs. A
/// mechanism error ends the run as [`SimError::Core`].
pub fn run_market(trace: &SwfTrace, cfg: &MarketConfig) -> Result<MarketReport> {
    let apps = cfg.apps.max(1);
    let mut rng = StdRng::seed_from_u64(SCENARIO_SEED);
    let gen = ScenarioGenerator::new(cfg.table.clone());
    let scenario = gen.scenario(TASKS, &mut rng)?;
    let mechanism = Mechanism::tvof(FormationConfig::default());

    let mut arrivals: Vec<Arrival> = trace
        .completed()
        .enumerate()
        .map(|(idx, job)| Arrival {
            idx,
            app: idx % apps,
            submit: job.submit_time,
            hold: job.task_runtime().max(1.0),
        })
        .collect();
    arrivals.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.idx.cmp(&b.idx)));

    let jobs = arrivals.len() as u64;
    let mut table = LeaseTable::new();
    let mut live: Vec<LiveVo> = Vec::new();
    let mut pending: VecDeque<PendingJob> = VecDeque::new();
    let mut formed = vec![0u64; apps];
    let mut shed = vec![0u64; apps];
    let mut waits: Vec<Vec<f64>> = vec![Vec::new(); apps];
    let mut max_live = 0usize;
    let mut violations = 0u64;

    // One attempt: form over the free sub-pool at time `now`. A
    // mechanism error is a bug, not contention, and ends the run.
    let attempt = |now: f64,
                   job: &Arrival,
                   table: &mut LeaseTable,
                   live: &mut Vec<LiveVo>|
     -> Result<Attempt> {
        let free = table.free_members(scenario.gsp_count());
        if free.len() < cfg.min_free.max(1) {
            return Ok(Attempt::Blocked);
        }
        let mut job_rng = StdRng::seed_from_u64(cfg.seed ^ (job.idx as u64).wrapping_mul(0x9e37));
        let outcome = mechanism.run_on_free_pool(
            &scenario,
            &free,
            &mut job_rng,
            &mut NoCache,
            &Budget::unlimited(),
        )?;
        let Some(outcome) = outcome else { return Ok(Attempt::Blocked) };
        // Only the idle pool comes back without a VO: this program can
        // never form.
        let Some(vo) = outcome.selected else { return Ok(Attempt::Infeasible) };
        let app_name = format!("app-{}", job.app);
        let lease =
            table.acquire(&app_name, &vo.members, 0).expect("free-sub-pool members cannot be held");
        live.push(LiveVo {
            lease,
            ends: now + job.hold,
            committed: CommittedVo {
                app: app_name,
                members: vo.members.clone(),
                payoff_share: vo.payoff_share,
            },
        });
        Ok(Attempt::Formed)
    };

    // Release every lease ending at or before `now`, retrying pending
    // jobs (FIFO) after each batch of releases.
    macro_rules! settle {
        ($now:expr) => {{
            loop {
                let due: Vec<usize> = {
                    let mut idx: Vec<usize> =
                        (0..live.len()).filter(|&i| live[i].ends <= $now).collect();
                    idx.sort_by(|&a, &b| live[a].ends.total_cmp(&live[b].ends));
                    idx
                };
                if due.is_empty() {
                    break;
                }
                let release_at = live[due[0]].ends;
                // Release everything ending at this instant, then retry.
                let batch: Vec<usize> =
                    due.iter().copied().filter(|&i| live[i].ends == release_at).collect();
                for &i in batch.iter().rev() {
                    let gone = live.swap_remove(i);
                    table.release(gone.lease);
                }
                let mut still = VecDeque::new();
                while let Some(p) = pending.pop_front() {
                    match attempt(release_at, &p.arrival, &mut table, &mut live)? {
                        Attempt::Formed => {
                            formed[p.arrival.app] += 1;
                            waits[p.arrival.app].push(release_at - p.arrival.submit);
                            max_live = max_live.max(live.len());
                            violations += count_violations(&live);
                        }
                        Attempt::Blocked => still.push_back(p),
                        Attempt::Infeasible => shed[p.arrival.app] += 1,
                    }
                }
                pending = still;
            }
        }};
    }

    let all = std::mem::take(&mut arrivals);
    for job in all {
        settle!(job.submit);
        let app = job.app;
        match attempt(job.submit, &job, &mut table, &mut live)? {
            Attempt::Formed => {
                formed[app] += 1;
                waits[app].push(0.0);
                max_live = max_live.max(live.len());
                violations += count_violations(&live);
            }
            Attempt::Blocked => {
                let depth = pending.iter().filter(|p| p.arrival.app == app).count();
                if depth < APP_QUEUE {
                    pending.push_back(PendingJob { arrival: job });
                } else {
                    shed[app] += 1;
                }
            }
            Attempt::Infeasible => shed[app] += 1,
        }
    }
    // Drain: let every live lease expire so queued jobs get their shot.
    settle!(f64::INFINITY);
    // Anything still pending can never form (e.g. min_free > pool).
    for p in pending {
        shed[p.arrival.app] += 1;
    }

    if jobs == 0 {
        return Err(SimError::NoQualifyingJob);
    }
    let mean = |w: &[f64]| if w.is_empty() { 0.0 } else { w.iter().sum::<f64>() / w.len() as f64 };
    let all_waits: Vec<f64> = waits.iter().flatten().copied().collect();
    Ok(MarketReport {
        jobs,
        formed: formed.iter().sum(),
        shed: shed.iter().sum(),
        mean_wait_s: mean(&all_waits),
        max_live_leases: max_live,
        stability_violations: violations,
        per_app: (0..apps)
            .map(|a| AppOutcome {
                app: format!("app-{a}"),
                formed: formed[a],
                shed: shed[a],
                mean_wait_s: mean(&waits[a]),
            })
            .collect(),
    })
}

/// Stability violations among the currently-live coalitions.
fn count_violations(live: &[LiveVo]) -> u64 {
    let committed: Vec<CommittedVo> = live.iter().map(|l| l.committed.clone()).collect();
    stability::violations(&committed).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MarketConfig {
        MarketConfig { table: TableI { gsps: 4, ..TableI::small() }, ..MarketConfig::small() }
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_monotone() {
        let a = synthetic_trace(40, 3);
        let b = synthetic_trace(40, 3);
        assert_eq!(a, b);
        assert!(a.jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
        assert!(a.completed().count() > 0);
    }

    #[test]
    fn market_report_is_deterministic_and_conserves_jobs() {
        let trace = synthetic_trace(24, 5);
        let r1 = run_market(&trace, &cfg()).unwrap();
        let r2 = run_market(&trace, &cfg()).unwrap();
        assert_eq!(r1, r2, "same trace + config must reproduce the report");
        assert_eq!(r1.formed + r1.shed, r1.jobs, "every job either forms or sheds");
        assert_eq!(r1.jobs, trace.completed().count() as u64);
        let per_app_formed: u64 = r1.per_app.iter().map(|a| a.formed).sum();
        assert_eq!(per_app_formed, r1.formed);
    }

    #[test]
    fn strict_min_free_serializes_leases_and_kills_violations() {
        // min_free = pool size: a second lease can never coexist with
        // a first, so at most one VO is live at a time — and a single
        // live coalition has nothing to defect to.
        let mut c = cfg();
        c.min_free = c.table.gsps;
        let trace = synthetic_trace(16, 9);
        let r = run_market(&trace, &c).unwrap();
        assert!(r.max_live_leases <= 1);
        assert_eq!(r.stability_violations, 0);
        assert!(r.formed > 0, "jobs still form once the pool drains");
    }

    #[test]
    fn contention_scales_with_app_count() {
        // More apps on the same trace cannot reduce total demand; the
        // report stays internally consistent at every app count.
        let trace = synthetic_trace(20, 13);
        for apps in [1, 2, 4] {
            let mut c = cfg();
            c.apps = apps;
            let r = run_market(&trace, &c).unwrap();
            assert_eq!(r.per_app.len(), apps);
            assert_eq!(r.formed + r.shed, r.jobs);
        }
    }
}
