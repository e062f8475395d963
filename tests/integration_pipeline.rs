//! Integration tests for the workload pipeline: SWF text ↔ trace ↔
//! program ↔ scenario, including a handwritten archive-format file to
//! pin parser compatibility with real Parallel Workloads Archive logs.

use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_workload::stats::trace_stats;
use gridvo_workload::{atlas, program};
use gridvo_workload::{SwfStatus, SwfTrace};

/// A fragment in the exact style of the real LLNL Atlas header + rows.
const ARCHIVE_STYLE: &str = "\
; Version: 2.1
; Computer: Atlas
; Installation: LLNL
; MaxJobs: 43778
; MaxRecords: 43778
; UnixStartTime: 1163011722
; MaxNodes: 1152
; MaxProcs: 9216
;
1 0 1103 21720 8 21715.0 -1 8 43200 -1 1 6 4 -1 1 -1 -1 -1
2 413 0 102 512 98.2 -1 512 7200 -1 0 12 2 -1 1 -1 -1 -1
3 2672 35 86400 8832 86390.5 -1 8832 86400 -1 1 3 1 -1 2 -1 -1 -1
";

#[test]
fn archive_style_file_parses() {
    let trace = SwfTrace::parse(ARCHIVE_STYLE).unwrap();
    assert_eq!(trace.jobs.len(), 3);
    assert_eq!(trace.header.iter().filter(|(k, _)| k == "MaxProcs").count(), 1);
    assert_eq!(trace.jobs[2].allocated_procs, 8832);
    assert_eq!(trace.jobs[1].status, SwfStatus::Failed);
    // the paper's filters
    let large: Vec<i64> = trace.large_completed(7200.0).map(|j| j.job_id).collect();
    assert_eq!(large, vec![1, 3]);
}

#[test]
fn archive_style_extraction_matches_paper_formulas() {
    let trace = SwfTrace::parse(ARCHIVE_STYLE).unwrap();
    let mut rng = seeded_rng(0xA1, 0);
    let programs = program::extract_all(&trace, &mut rng);
    assert_eq!(programs.len(), 2);
    // job 1: 8 processors ⇒ 8 tasks; workload = cpu_time × 4.91 × U[.5,1]
    let p = &programs[0];
    assert_eq!(p.tasks(), 8);
    let max_w = 21715.0 * 4.91;
    for t in 0..p.tasks() {
        assert!(p.workload(t) >= 0.5 * max_w - 1e-6 && p.workload(t) <= max_w + 1e-6);
    }
}

#[test]
fn synthetic_trace_survives_disk_round_trip() {
    let mut rng = seeded_rng(0xA2, 0);
    let trace = atlas::generate(&mut rng, 500);
    let text = trace.to_swf();
    let reparsed = SwfTrace::parse(&text).unwrap();
    assert_eq!(reparsed.jobs.len(), 500);
    let a = trace_stats(&trace).unwrap();
    let b = trace_stats(&reparsed).unwrap();
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.large_completed, b.large_completed);
    assert_eq!(a.min_procs, b.min_procs);
    assert_eq!(a.max_procs, b.max_procs);
}

#[test]
fn generator_accepts_external_trace_end_to_end() {
    // external trace → scenario → the numbers the mechanism consumes
    let mut rng = seeded_rng(0xA3, 0);
    let trace = atlas::generate(&mut rng, 4_000);
    let cfg = TableI {
        gsps: 6,
        task_sizes: vec![20],
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let generator = ScenarioGenerator::with_trace(cfg, trace);
    let scenario = generator.scenario(20, &mut rng).unwrap();
    assert_eq!(scenario.task_count(), 20);
    assert_eq!(scenario.gsp_count(), 6);
    // the instance's time matrix equals workload/speed for the
    // extracted program and drawn speeds — spot-check consistency:
    // every column ratio t(T,Ga)/t(T,Gb) must be constant across tasks.
    let inst = scenario.instance();
    let ratio0 = inst.time(0, 0) / inst.time(0, 1);
    for t in 1..inst.tasks() {
        let r = inst.time(t, 0) / inst.time(t, 1);
        assert!((r - ratio0).abs() < 1e-9 * ratio0.abs());
    }
}

#[test]
fn table_i_workload_range_holds_on_generated_programs() {
    // Table I: workloads within [17676, 1682922.14] GFLOP — lower end
    // = 7200 s × 4.91 × 0.5. Upper end depends on the longest job; our
    // synthetic ceiling (200 000 s × 4.91) never exceeds the table's
    // spirit of "very large", and the lower bound is exact.
    let cfg = TableI { gsps: 6, task_sizes: vec![64], ..TableI::default() };
    let generator = ScenarioGenerator::new(cfg);
    let mut rng = seeded_rng(0xA4, 1);
    let program = generator.program(64, &mut rng).unwrap();
    for t in 0..program.tasks() {
        assert!(
            program.workload(t) >= 7200.0 * 4.91 * 0.5 - 1e-6,
            "workload below Table I lower bound"
        );
    }
}
