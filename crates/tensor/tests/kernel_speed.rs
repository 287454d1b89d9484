// Release-mode timings of the GEMM tiers (ignored by default). The gated
// numbers are `bench_runtime`'s (crates/bench/src/bin/bench_runtime.rs,
// written to BENCH_runtime.json at the workspace root); these are for
// deciding which tiers ship.
//
//   cargo test --release -p esti-tensor --test kernel_speed -- --ignored --nocapture
use esti_tensor::ops::{self, matmul, matmul_naive, MatmulKernel};
use esti_tensor::{QuantizedMatrix, Tensor};
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

/// Best-of-`reps` seconds per call of `f`, after one warm-up call.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The tiers at the GEMM shapes of the benchmark's `palm-micro` model
/// (`d_model` 256, `d_ff` 1024, 8 × 32 multiquery heads, vocab 512) as
/// `(M, K, N)`: its projections over 1024 and 4096 prompt tokens, one
/// 256-token prompt and small batches. f32 naive oracle vs the shipped
/// blocked tier, and int8 blocked vs the AVX2 tier (`simd_active` says
/// whether AVX2 ran; with `ESTI_DISABLE_SIMD=1` both int8 columns are the
/// blocked tier). Best of 15 runs each. A `blocked/avx2` ratio above 1
/// means the AVX2 int8 kernel is faster.
#[test]
#[ignore]
fn tiers_at_workload_shapes() {
    const REPS: usize = 15;
    let shapes = [
        (1024, 256, 1024),
        (1024, 1024, 256),
        (1024, 256, 256),
        (1024, 256, 32),
        (256, 256, 1024),
        (32, 256, 1024),
        (12, 256, 256),
        (4096, 256, 512),
    ];
    let restore = ops::matmul_kernel();
    eprintln!("simd_active={}", ops::simd_active());
    eprintln!(
        "{:>18} {:>10} {:>10} {:>7} {:>10} {:>10} {:>12}",
        "(M, K, N)", "naive us", "f32 us", "speedup", "i8 blk us", "i8 avx2 us", "blocked/avx2"
    );
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|i| 0.1 * ((i % 13) as f32 - 6.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| 0.01 * ((i % 23) as f32 - 11.0)).collect();
        let (a, b) = (Tensor::from_vec(vec![m, k], a), Tensor::from_vec(vec![k, n], b));
        let q = QuantizedMatrix::quantize(&b);
        let run = |kernel, int8: bool| {
            ops::set_matmul_kernel(kernel);
            best_of(REPS, || {
                if int8 {
                    std::hint::black_box(q.matmul(std::hint::black_box(&a)));
                } else {
                    std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
                }
            })
        };
        let naive = run(MatmulKernel::Naive, false);
        let f32_blocked = run(MatmulKernel::Simd, false);
        let i8_blocked = run(MatmulKernel::Blocked, true);
        let i8_simd = run(MatmulKernel::Simd, true);
        eprintln!(
            "{:>18} {:>10.1} {:>10.1} {:>7.2} {:>10.1} {:>10.1} {:>12.2}",
            format!("({m}, {k}, {n})"),
            naive * 1e6,
            f32_blocked * 1e6,
            naive / f32_blocked,
            i8_blocked * 1e6,
            i8_simd * 1e6,
            i8_blocked / i8_simd
        );
    }
    ops::set_matmul_kernel(restore);
}
