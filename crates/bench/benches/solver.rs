//! Criterion benches for the task-assignment solvers: exact
//! branch-and-bound and the heuristic family, on Table-I-like
//! instances of growing size. Backs Fig. 9's solver-time component and
//! the solver ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::BranchBound;
use gridvo_solver::heuristics::{self, Heuristic};
use gridvo_solver::AssignmentInstance;

fn instance(tasks: usize) -> AssignmentInstance {
    let cfg = TableI { task_sizes: vec![tasks], ..TableI::default() };
    let generator = ScenarioGenerator::new(cfg);
    let mut rng = seeded_rng(0xBE7C5, tasks as u64);
    generator.scenario(tasks, &mut rng).expect("calibrated scenario").instance().clone()
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_and_bound");
    for tasks in [64usize, 128, 256, 512] {
        let inst = instance(tasks);
        group.bench_with_input(BenchmarkId::new("sequential", tasks), &inst, |b, inst| {
            let bb = BranchBound { max_nodes: 2_000_000 };
            b.iter(|| bb.solve(inst));
        });
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    let inst = instance(256);
    for (name, kind) in [
        ("greedy_cost", Heuristic::GreedyCost),
        ("min_min", Heuristic::MinMin),
        ("max_min", Heuristic::MaxMin),
        ("sufferage", Heuristic::Sufferage),
    ] {
        group.bench_function(name, |b| b.iter(|| heuristics::run(kind, &inst)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exact, bench_heuristics
}
criterion_main!(benches);
