//! Jobs → application programs (bags of independent tasks).
//!
//! §IV-A of the paper: for each selected Atlas job, "the number of
//! allocated processors the job uses gives the number of tasks, and
//! the average CPU time used in seconds gives the average runtime of a
//! task". The per-task workload in GFLOP is the task runtime times the
//! per-processor peak (4.91 GFLOPS), scaled by a uniform factor in
//! `[0.5, 1.0]` ("we assume that the workload of each task is in
//! [0.5, 1.0] of the maximum GFLOP of the job").

use crate::swf::{SwfJob, SwfTrace};
use crate::{ATLAS_GFLOPS_PER_PROC, LARGE_JOB_RUNTIME};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An application program `T = {T_1 … T_n}` of independent tasks; the
/// unit the VOs bid to execute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Trace job this program was extracted from.
    pub source_job: i64,
    /// The job's per-task average runtime (s) — the paper's `Runtime`
    /// parameter used in deadline generation.
    pub base_runtime: f64,
    /// Per-task workloads `w(T_j)` in GFLOP.
    workloads: Vec<f64>,
}

impl Program {
    /// Build directly from workloads.
    pub fn new(source_job: i64, base_runtime: f64, workloads: Vec<f64>) -> Self {
        Program { source_job, base_runtime, workloads }
    }

    /// Number of tasks `n`.
    pub fn tasks(&self) -> usize {
        self.workloads.len()
    }

    /// Workload of task `j` in GFLOP.
    pub fn workload(&self, task: usize) -> f64 {
        self.workloads[task]
    }

    /// All task workloads.
    pub fn workloads(&self) -> &[f64] {
        &self.workloads
    }

    /// Total workload of the program in GFLOP.
    pub fn total_workload(&self) -> f64 {
        self.workloads.iter().sum()
    }
}

/// Per-task workload scale: each task draws `U[0.5, 1.0]` of the job's
/// maximum GFLOP (§IV-A).
const SCALE_RANGE: std::ops::Range<f64> = 0.5..1.0;

/// Extract one program from a job (regardless of the job's status or
/// size — the caller selects jobs): one task per allocated processor.
pub fn extract<R: Rng + ?Sized>(job: &SwfJob, rng: &mut R) -> Program {
    let runtime = job.task_runtime();
    let max_gflop = runtime * ATLAS_GFLOPS_PER_PROC;
    let n = job.allocated_procs.max(1) as usize;
    let workloads = (0..n).map(|_| max_gflop * rng.gen_range(SCALE_RANGE)).collect();
    Program::new(job.job_id, runtime, workloads)
}

/// Extract programs from every qualifying job of a trace (completed,
/// runtime ≥ [`LARGE_JOB_RUNTIME`]).
pub fn extract_all<R: Rng + ?Sized>(trace: &SwfTrace, rng: &mut R) -> Vec<Program> {
    trace.large_completed(LARGE_JOB_RUNTIME).map(|job| extract(job, rng)).collect()
}

/// Extract one program whose task count is as close as possible to
/// `target_tasks` among qualifying jobs (the paper picks programs of
/// 256, 512, …, 8192 tasks from the log). Ties broken toward the
/// earlier job. Returns `None` when no job qualifies.
pub fn extract_with_size<R: Rng + ?Sized>(
    trace: &SwfTrace,
    target_tasks: usize,
    rng: &mut R,
) -> Option<Program> {
    let job = trace
        .large_completed(LARGE_JOB_RUNTIME)
        .min_by_key(|j| (j.allocated_procs - target_tasks as i64).unsigned_abs())?;
    let mut p = extract(job, rng);
    // Force the exact requested size: replicate or truncate tasks.
    // (The paper selects jobs whose sizes equal the targets; a
    // synthetic trace may only come close.)
    let max_gflop = p.base_runtime * ATLAS_GFLOPS_PER_PROC;
    while p.workloads.len() < target_tasks {
        p.workloads.push(max_gflop * rng.gen_range(SCALE_RANGE));
    }
    p.workloads.truncate(target_tasks);
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas;
    use crate::swf::SwfStatus;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    fn job(id: i64, procs: i64, runtime: f64, status: SwfStatus) -> SwfJob {
        SwfJob {
            job_id: id,
            submit_time: 0.0,
            wait_time: 0.0,
            run_time: runtime,
            allocated_procs: procs,
            avg_cpu_time: runtime,
            used_memory: -1.0,
            requested_procs: procs,
            requested_time: runtime,
            requested_memory: -1.0,
            status,
            user_id: 1,
            group_id: 1,
            executable: 1,
            queue: 1,
            partition: 1,
            preceding_job: -1,
            think_time: -1.0,
        }
    }

    #[test]
    fn task_count_equals_processors() {
        let mut rng = TestRng::seed_from_u64(1);
        let p = extract(&job(1, 64, 8000.0, SwfStatus::Completed), &mut rng);
        assert_eq!(p.tasks(), 64);
        assert_eq!(p.source_job, 1);
        assert_eq!(p.base_runtime, 8000.0);
    }

    #[test]
    fn workloads_inside_paper_range() {
        let mut rng = TestRng::seed_from_u64(2);
        let runtime = 10_000.0;
        let p = extract(&job(1, 256, runtime, SwfStatus::Completed), &mut rng);
        let max_gflop = runtime * ATLAS_GFLOPS_PER_PROC;
        for t in 0..p.tasks() {
            let w = p.workload(t);
            assert!(w >= 0.5 * max_gflop - 1e-9 && w <= max_gflop + 1e-9, "w = {w}");
        }
    }

    #[test]
    fn table_i_workload_bounds_hold() {
        // Table I: workloads in [17676, 1682922.14] GFLOP. The lower
        // end is 7200 s × 4.91 × 0.5 = 17 676; the upper end comes from
        // the longest Atlas jobs. Verify our extraction hits the
        // documented lower bound exactly at threshold runtime.
        let mut rng = TestRng::seed_from_u64(3);
        let p = extract(&job(1, 1000, 7200.0, SwfStatus::Completed), &mut rng);
        for t in 0..p.tasks() {
            assert!(p.workload(t) >= 7200.0 * 4.91 * 0.5 - 1e-6);
        }
    }

    #[test]
    fn extract_all_filters_small_and_failed() {
        let mut rng = TestRng::seed_from_u64(4);
        let trace = SwfTrace {
            header: vec![],
            jobs: vec![
                job(1, 64, 8000.0, SwfStatus::Completed), // qualifies
                job(2, 64, 100.0, SwfStatus::Completed),  // too short
                job(3, 64, 9000.0, SwfStatus::Failed),    // failed
                job(4, 32, 7200.0, SwfStatus::Completed), // boundary: qualifies
            ],
        };
        let programs = extract_all(&trace, &mut rng);
        let ids: Vec<i64> = programs.iter().map(|p| p.source_job).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn extract_with_size_hits_exact_target() {
        let mut rng = TestRng::seed_from_u64(5);
        let trace = atlas::generate(&mut rng, 5_000);
        for target in [256usize, 1024] {
            let p = extract_with_size(&trace, target, &mut rng)
                .expect("synthetic trace has large jobs");
            assert_eq!(p.tasks(), target);
        }
    }

    #[test]
    fn extract_with_size_empty_trace_is_none() {
        let mut rng = TestRng::seed_from_u64(6);
        let trace = SwfTrace::default();
        assert!(extract_with_size(&trace, 256, &mut rng).is_none());
    }
}
