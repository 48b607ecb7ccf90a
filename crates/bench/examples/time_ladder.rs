use std::time::Instant;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn time_us<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f(); // warm-up
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(15);
    for (n, e) in [
        (8usize, 16usize),
        (16, 48),
        (32, 128),
        (64, 384),
        (128, 1024),
    ] {
        let m = time_us(
            || {
                seqdl_bench::reachability_run(n, e);
            },
            iters,
        );
        println!("reachability/semi_naive/{n} {m:.1}");
    }
    for (s, w, l) in [
        (3usize, 8usize, 8usize),
        (5, 8, 16),
        (8, 16, 24),
        (12, 32, 40),
        (16, 48, 64),
    ] {
        let m = time_us(
            || {
                seqdl_bench::nfa_run(s, w, l);
            },
            iters,
        );
        println!("nfa/semi_naive/{s}x{l} {m:.1}");
    }
}
