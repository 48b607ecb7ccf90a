//! EXP-NFA: NFA acceptance (Example 2.1) under semi-naive evaluation.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/nfa");
    for (states, words, len) in [(3usize, 8usize, 8usize), (5, 8, 16)] {
        group.bench_with_input(
            BenchmarkId::new("semi_naive", format!("{states}x{len}")),
            &(states, words, len),
            |b, &(s, w, l)| b.iter(|| seqdl_bench::nfa_run(s, w, l, 1)),
        );
    }
    group.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
