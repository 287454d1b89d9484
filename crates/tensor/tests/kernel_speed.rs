// Release-mode timings of the GEMM tile and its oracles (ignored by default). The gated
// numbers are `bench_runtime`'s (crates/bench/src/bin/bench_runtime.rs,
// written to BENCH_runtime.json at the workspace root); these are for
// deciding what ships.
//
//   cargo test --release -p esti-tensor --test kernel_speed -- --ignored --nocapture
use esti_tensor::ops::{self, matmul, matmul_naive, MatmulKernel};
use esti_tensor::{PackedMatrix, Tensor};
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

/// `m × k` activations.
fn activations(m: usize, k: usize) -> Tensor {
    Tensor::from_vec(vec![m, k], (0..m * k).map(|i| 0.1 * ((i % 13) as f32 - 6.0)).collect())
}

/// A `k × n` weight, varied by `c`.
fn weight(k: usize, n: usize, c: usize) -> Tensor {
    Tensor::from_vec(vec![k, n], (0..k * n).map(|i| 0.01 * (((i + c) % 23) as f32 - 11.0)).collect())
}

/// The tiers at the GEMM shapes of the benchmark's `palm-micro` model
/// (`d_model` 256, `d_ff` 1024, 8 × 32 multiquery heads, vocab 512) as
/// `(M, K, N)`.
///
/// **Hot:** its projections over 1024 and 4096 prompt tokens, one 256-token
/// prompt and small batches, each weight reused call after call. Columns:
/// the f32 naive oracle, row-major `ops::matmul` (which packs `b` per call
/// from 16 rows and streams below), f32 packed once (the stored form) under
/// the safe-Rust tile and under the shipped setting, and int8 under the
/// same two. Best of 15 runs each.
///
/// **Cold:** the decode shapes (1, 4, 8 and 16 rows at the five weight
/// shapes), each call reading the next of enough distinct weights to fill
/// 16 MB, as a decode step walks distinct layers, so the weights come from
/// memory: row-major `ops::matmul` against the packed f32 and int8 forms.
///
/// `simd_active` says whether the shipped setting ran the AVX-512 tile;
/// with `ESTI_DISABLE_SIMD=1` both columns of a pair are the safe-Rust
/// tile. A `blk/simd` ratio above 1 means the AVX-512 tile is faster.
#[test]
#[ignore]
fn tiers_at_workload_shapes() {
    const REPS: usize = 15;
    let restore = ops::matmul_kernel();
    let time = |kernel, f: &mut dyn FnMut()| {
        ops::set_matmul_kernel(kernel);
        best_of(REPS, f)
    };
    eprintln!("simd_active={}", ops::simd_active());
    eprintln!("hot weights:");
    eprintln!(
        "{:>18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "(M, K, N)", "naive us", "rowmaj us", "f32 blk", "f32 simd", "i8 blk", "i8 simd", "f32 b/s", "i8 b/s"
    );
    let hot = [
        (1024, 256, 1024),
        (1024, 1024, 256),
        (1024, 256, 256),
        (1024, 256, 32),
        (256, 256, 1024),
        (128, 256, 1024),
        (64, 256, 1024),
        (32, 256, 1024),
        (12, 256, 256),
        (4096, 256, 512),
    ];
    for (m, k, n) in hot {
        let (a, b) = (activations(m, k), weight(k, n, 0));
        let (p, q) = (PackedMatrix::pack(&b), PackedMatrix::quantize(&b));
        let mut row_major = || drop(std::hint::black_box(matmul(std::hint::black_box(&a), &b)));
        let naive = time(MatmulKernel::Naive, &mut row_major);
        let rowmaj = time(MatmulKernel::Simd, &mut row_major);
        let mut f32_packed = || drop(std::hint::black_box(p.matmul(std::hint::black_box(&a))));
        let f32_blk = time(MatmulKernel::Blocked, &mut f32_packed);
        let f32_simd = time(MatmulKernel::Simd, &mut f32_packed);
        let mut i8_packed = || drop(std::hint::black_box(q.matmul(std::hint::black_box(&a))));
        let i8_blk = time(MatmulKernel::Blocked, &mut i8_packed);
        let i8_simd = time(MatmulKernel::Simd, &mut i8_packed);
        eprintln!(
            "{:>18} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>8.2}",
            format!("({m}, {k}, {n})"),
            naive * 1e6,
            rowmaj * 1e6,
            f32_blk * 1e6,
            f32_simd * 1e6,
            i8_blk * 1e6,
            i8_simd * 1e6,
            f32_blk / f32_simd,
            i8_blk / i8_simd
        );
    }
    const WORKING_SET: usize = 16 << 20;
    eprintln!("cold weights (a {} MB working set of distinct matrices):", WORKING_SET >> 20);
    eprintln!(
        "{:>18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "(M, K, N)", "rowmaj us", "f32 blk", "f32 simd", "i8 blk", "i8 simd", "f32 r/s", "i8 b/s"
    );
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let copies = WORKING_SET.div_ceil(k * n * 4);
        let dense: Vec<Tensor> = (0..copies).map(|c| weight(k, n, c)).collect();
        let packed: Vec<PackedMatrix> = dense.iter().map(PackedMatrix::pack).collect();
        let quant: Vec<PackedMatrix> = dense.iter().map(PackedMatrix::quantize).collect();
        for m in [1, 4, 8, 16] {
            let a = activations(m, k);
            let cold = |kernel, f: &dyn Fn(usize)| {
                ops::set_matmul_kernel(kernel);
                best_of(5, || (0..2 * copies).for_each(f)) / (2 * copies) as f64
            };
            let rowmaj = cold(MatmulKernel::Simd, &|c| drop(std::hint::black_box(matmul(&a, &dense[c % copies]))));
            let f32_blk = cold(MatmulKernel::Blocked, &|c| drop(std::hint::black_box(packed[c % copies].matmul(&a))));
            let f32_simd = cold(MatmulKernel::Simd, &|c| drop(std::hint::black_box(packed[c % copies].matmul(&a))));
            let i8_blk = cold(MatmulKernel::Blocked, &|c| drop(std::hint::black_box(quant[c % copies].matmul(&a))));
            let i8_simd = cold(MatmulKernel::Simd, &|c| drop(std::hint::black_box(quant[c % copies].matmul(&a))));
            eprintln!(
                "{:>18} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>8.2}",
                format!("({m}, {k}, {n})"),
                rowmaj * 1e6,
                f32_blk * 1e6,
                f32_simd * 1e6,
                i8_blk * 1e6,
                i8_simd * 1e6,
                rowmaj / f32_simd,
                i8_blk / i8_simd
            );
        }
    }
    ops::set_matmul_kernel(restore);
}
