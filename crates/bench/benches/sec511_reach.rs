//! EXP-B: graph reachability (Section 5.1.1) under semi-naive evaluation.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec511/reachability");
    for (nodes, edges) in [(8usize, 16usize), (16, 48)] {
        group.bench_with_input(
            BenchmarkId::new("semi_naive", nodes),
            &(nodes, edges),
            |b, &(n, e)| b.iter(|| seqdl_bench::reachability_run(n, e, 1)),
        );
    }
    group.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
