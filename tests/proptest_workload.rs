//! Property-based tests for the workload substrate.

use gridvo_sim::braun::time_matrix;
use gridvo_workload::program::{self, Program};
use gridvo_workload::swf::{SwfJob, SwfStatus, SwfTrace};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_status() -> impl Strategy<Value = SwfStatus> {
    prop_oneof![
        Just(SwfStatus::Completed),
        Just(SwfStatus::Failed),
        Just(SwfStatus::Cancelled),
        Just(SwfStatus::Unknown),
    ]
}

fn arb_job() -> impl Strategy<Value = SwfJob> {
    (1i64..100_000, 0.0f64..1e7, 0.0f64..1e4, 1.0f64..2e5, 1i64..9216, arb_status()).prop_map(
        |(id, submit, wait, run, procs, status)| SwfJob {
            job_id: id,
            submit_time: submit,
            wait_time: wait,
            run_time: run,
            allocated_procs: procs,
            avg_cpu_time: run * 0.95,
            used_memory: -1.0,
            requested_procs: procs,
            requested_time: run * 1.5,
            requested_memory: -1.0,
            status,
            user_id: 1,
            group_id: 1,
            executable: 1,
            queue: 1,
            partition: 1,
            preceding_job: -1,
            think_time: -1.0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn swf_text_round_trip(jobs in proptest::collection::vec(arb_job(), 0..40)) {
        let trace = SwfTrace { header: vec![("Version".into(), "2.1".into())], jobs };
        let text = trace.to_swf();
        let back = SwfTrace::parse(&text).expect("own output parses");
        prop_assert_eq!(back.jobs.len(), trace.jobs.len());
        for (a, b) in trace.jobs.iter().zip(back.jobs.iter()) {
            prop_assert_eq!(a.job_id, b.job_id);
            prop_assert_eq!(a.allocated_procs, b.allocated_procs);
            prop_assert_eq!(a.status, b.status);
            prop_assert!((a.run_time - b.run_time).abs() <= 1e-9 * a.run_time.abs().max(1.0));
            prop_assert!((a.submit_time - b.submit_time).abs()
                <= 1e-9 * a.submit_time.abs().max(1.0));
        }
    }

    #[test]
    fn filters_partition_the_trace(jobs in proptest::collection::vec(arb_job(), 0..60)) {
        let trace = SwfTrace { header: vec![], jobs };
        let completed = trace.completed().count();
        let not_completed =
            trace.jobs.iter().filter(|j| j.status != SwfStatus::Completed).count();
        prop_assert_eq!(completed + not_completed, trace.jobs.len());
        // large_completed ⊆ completed, monotone in the threshold
        let large1 = trace.large_completed(1000.0).count();
        let large2 = trace.large_completed(10_000.0).count();
        prop_assert!(large2 <= large1);
        prop_assert!(large1 <= completed);
    }

    #[test]
    fn extraction_respects_formulas(job in arb_job(), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = program::extract(&job, &mut rng);
        prop_assert_eq!(p.tasks(), job.allocated_procs.max(1) as usize);
        let max_w = job.task_runtime() * 4.91;
        for t in 0..p.tasks() {
            let w = p.workload(t);
            prop_assert!(w >= 0.5 * max_w - 1e-9 && w <= max_w + 1e-9,
                "workload {w} outside [{}, {}]", 0.5 * max_w, max_w);
        }
        prop_assert!((p.base_runtime - job.task_runtime()).abs() < 1e-12);
    }

    #[test]
    fn whole_valued_fields_round_trip_exactly(
        jobs in proptest::collection::vec(arb_job(), 1..30),
    ) {
        // Whole-valued floats print as integers (the normalized form),
        // so truncating every float field makes the round trip exact —
        // not just within tolerance.
        let mut trace = SwfTrace { header: vec![], jobs };
        for j in &mut trace.jobs {
            for f in [
                &mut j.submit_time, &mut j.wait_time, &mut j.run_time,
                &mut j.avg_cpu_time, &mut j.requested_time, &mut j.think_time,
            ] {
                *f = f.trunc();
            }
        }
        let back = SwfTrace::parse(&trace.to_swf()).expect("own output parses");
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn synthetic_trace_arrivals_are_monotone(jobs in 1usize..80, seed in 0u64..500) {
        let trace = gridvo_sim::market::synthetic_trace(jobs, seed);
        prop_assert_eq!(trace.jobs.len(), jobs);
        prop_assert!(trace.jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time),
            "submit times must never go backwards");
        prop_assert!(trace.jobs.iter().all(|j| j.submit_time >= 0.0 && j.run_time > 0.0));
        // Job ids are the 1-based trace order.
        for (i, j) in trace.jobs.iter().enumerate() {
            prop_assert_eq!(j.job_id, i as i64 + 1);
        }
    }

    #[test]
    fn execution_time_scales_inversely_with_speed(
        workloads in proptest::collection::vec(1.0f64..1e6, 1..20),
        speed in 10.0f64..1000.0,
    ) {
        let p = Program::new(1, 7200.0, workloads.clone());
        let time = time_matrix(p.workloads(), &[speed, 2.0 * speed]);
        for t in 0..p.tasks() {
            let (t1, t2) = (time[2 * t], time[2 * t + 1]);
            prop_assert!((t1 - 2.0 * t2).abs() < 1e-9 * t1.max(1.0));
            prop_assert_eq!(t1, p.workload(t) / speed);
        }
        prop_assert!((p.total_workload() - workloads.iter().sum::<f64>()).abs()
            < 1e-9 * p.total_workload().max(1.0));
    }
}

/// The golden SWF fixture is stored in the normalized form `to_swf`
/// emits (whole-valued floats printed as integers), so parse → emit
/// must reproduce it byte for byte. This pins both the parser's field
/// handling and the writer's number formatting.
#[test]
fn golden_swf_fixture_is_byte_stable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/golden.swf");
    let text = std::fs::read_to_string(path).expect("golden fixture readable");
    let trace = SwfTrace::parse(&text).expect("golden fixture parses");
    assert_eq!(trace.jobs.len(), 6);
    assert_eq!(trace.header.len(), 5);
    assert_eq!(trace.completed().count(), 4, "statuses 0 and 5 filtered out");
    assert_eq!(trace.jobs[3].avg_cpu_time, 12000.5, "fractional fields survive");
    assert_eq!(trace.to_swf(), text, "normalized trace must round-trip byte-identically");
}
