//! Thread-count scaling of the executor on the two recursive
//! engine workloads (Section 5.1.1 reachability and Example 2.1 NFA product) at
//! their largest configured sizes.  `threads = 1` runs in place (no pool) and
//! is the baseline; higher counts measure the delta-sharded parallel fixpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const THREADS: [usize; 3] = [1, 2, 4];

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_parallel/reachability");
    let (nodes, edges) = (128usize, 1024usize);
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new(&format!("exec_t{threads}"), nodes),
            &threads,
            |b, &t| b.iter(|| seqdl_bench::reachability_run(nodes, edges, t)),
        );
    }
    group.finish();
}

fn bench_nfa(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_parallel/nfa");
    let (states, words, len) = (16usize, 48usize, 64usize);
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new(&format!("exec_t{threads}"), format!("{states}x{len}")),
            &threads,
            |b, &t| b.iter(|| seqdl_bench::nfa_run(states, words, len, t)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reachability, bench_nfa);
criterion_main!(benches);
