//! Evaluation scaling: the reachability (Section 5.1.1) and NFA-product (Example 2.1)
//! workloads at sizes where the pre-index quadratic relation scan dominated.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling/reachability");
    for (nodes, edges) in [(32usize, 128usize), (64, 384), (128, 1024)] {
        group.bench_with_input(
            BenchmarkId::new("semi_naive", nodes),
            &(nodes, edges),
            |b, &(n, e)| b.iter(|| seqdl_bench::reachability_run(n, e, 1)),
        );
    }
    group.finish();
}

fn bench_nfa(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling/nfa");
    for (states, words, len) in [(8usize, 16usize, 24usize), (12, 32, 40), (16, 48, 64)] {
        group.bench_with_input(
            BenchmarkId::new("semi_naive", format!("{states}x{len}")),
            &(states, words, len),
            |b, &(s, w, l)| b.iter(|| seqdl_bench::nfa_run(s, w, l, 1)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reachability, bench_nfa);
criterion_main!(benches);
