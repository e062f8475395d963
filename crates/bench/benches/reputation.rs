//! Criterion benches for the reputation substrate: the power method
//! (Algorithm 2) across graph sizes and densities, and the alternative
//! engines (PageRank damping, path propagation) from the
//! reputation-engine ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridvo_sim::runner::seeded_rng;
use gridvo_trust::generators;
use gridvo_trust::normalize::row_normalize;
use gridvo_trust::propagation::propagation_scores;
use gridvo_trust::PowerMethod;

fn bench_power_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_method");
    for m in [16usize, 64, 256] {
        let mut rng = seeded_rng(0xBE9, m as u64);
        let graph = generators::erdos_renyi(&mut rng, m, 0.1, 0.05..1.0);
        let a = row_normalize(&graph);
        group.bench_with_input(BenchmarkId::new("er_p0.1", m), &a, |b, a| {
            b.iter(|| PowerMethod::default().run(a).unwrap());
        });
    }
    // density sweep at the paper's m = 16
    for p in [1usize, 3, 6, 10] {
        let mut rng = seeded_rng(0xBEA, p as u64);
        let graph = generators::erdos_renyi(&mut rng, 16, p as f64 / 10.0, 0.05..1.0);
        let a = row_normalize(&graph);
        group.bench_with_input(BenchmarkId::new("m16_density", p), &a, |b, a| {
            b.iter(|| PowerMethod::default().run(a).unwrap());
        });
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("reputation_engines");
    let mut rng = seeded_rng(0xBEB, 1);
    let graph = generators::erdos_renyi(&mut rng, 16, 0.2, 0.05..1.0);
    let a = row_normalize(&graph);
    group.bench_function("power_method", |b| b.iter(|| PowerMethod::default().run(&a).unwrap()));
    group.bench_function("pagerank_085", |b| b.iter(|| PowerMethod::damped(0.85).run(&a).unwrap()));
    group.bench_function("path_propagation_3hop", |b| {
        b.iter(|| propagation_scores(&graph_unit(&graph), 3).unwrap())
    });
    group.finish();
}

/// Path propagation needs weights in [0, 1]; rescale defensively.
fn graph_unit(g: &gridvo_trust::TrustGraph) -> gridvo_trust::TrustGraph {
    let mut out = gridvo_trust::TrustGraph::new(g.node_count());
    let max = g.edges().map(|(_, _, w)| w).fold(1.0f64, f64::max);
    for (i, j, w) in g.edges() {
        out.set_trust(i, j, w / max);
    }
    out
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_power_method, bench_engines
}
criterion_main!(benches);
