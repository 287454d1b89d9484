// Release-mode timing sanity checks for the f32 kernels (ignored by default;
// the tracked numbers live in esti-bench / BENCH_runtime.json).
//
//   cargo test --release -p esti-tensor --test kernel_speed -- --ignored --nocapture
use esti_tensor::{ops::{matmul, matmul_naive}, Tensor};
use std::time::Instant;

fn fill(n: usize, scale: f32) -> Tensor {
    let data: Vec<f32> = (0..n * n).map(|i| scale * ((i % 17) as f32 - 8.0)).collect();
    Tensor::from_vec(vec![n, n], data)
}

#[test]
#[ignore]
fn speed_check() {
    let n = 256;
    let a = fill(n, 0.1);
    let b = fill(n, 0.05);
    let _ = matmul(&a, &b);
    let _ = matmul_naive(&a, &b);
    let t0 = Instant::now();
    for _ in 0..10 {
        std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
    }
    let blocked = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..10 {
        std::hint::black_box(matmul_naive(std::hint::black_box(&a), std::hint::black_box(&b)));
    }
    let naive = t1.elapsed();
    eprintln!(
        "blocked {blocked:?} naive {naive:?} speedup {:.2}",
        naive.as_secs_f64() / blocked.as_secs_f64()
    );
}

/// Decode-shaped GEMMs are weight-bandwidth problems: `[m, k] × [k, n]` with
/// `m` a handful of live rows reads `k·n` weights to do `m·k·n` multiplies.
/// Prints, for m = 1..=8 at the model's five (k, n) shapes, the time per call
/// and the rate the weights stream at. Each shape cycles through 16 MB of
/// distinct weight matrices, as a decode step walks distinct layers, so the
/// weights come from memory rather than from whatever cache the last call
/// left warm.
#[test]
#[ignore]
fn decode_shape_weight_bandwidth() {
    const WORKING_SET: usize = 16 << 20;
    eprintln!("simd_active={}", esti_tensor::ops::simd_active());
    eprintln!("{:>12} {:>2} {:>9} {:>7}", "(k, n)", "m", "us/call", "GB/s");
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let bytes = k * n * 4;
        let copies = WORKING_SET.div_ceil(bytes);
        let weights: Vec<Tensor> = (0..copies)
            .map(|c| {
                let w = (0..k * n).map(|i| 0.01 * (((i + c) % 23) as f32 - 11.0)).collect();
                Tensor::from_vec(vec![k, n], w)
            })
            .collect();
        for m in 1..=8 {
            let a = Tensor::from_vec(
                vec![m, k],
                (0..m * k).map(|i| 0.1 * ((i % 13) as f32 - 6.0)).collect(),
            );
            let calls = 2 * copies;
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                for w in weights.iter().cycle().take(calls) {
                    std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(w)));
                }
                best = best.min(t.elapsed().as_secs_f64() / calls as f64);
            }
            eprintln!(
                "{:>12} {m:>2} {:>9.1} {:>7.1}",
                format!("({k}, {n})"),
                best * 1e6,
                bytes as f64 / best / 1e9
            );
        }
    }
}
