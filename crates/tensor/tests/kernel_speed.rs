// Release-mode timings of the GEMM tile and scalar baselines (ignored by default).
// `speed_check` and `int8_speed_check` assert the tile's bounds at 256³; the
// rest print tables for deciding what ships. Run once as is and once with
// `ESTI_DISABLE_SIMD=1` to time the safe-Rust form of the tile; each run
// prints `simd_active` to say which form it timed.
//
//   cargo test --release -p esti-tensor --test kernel_speed -- --ignored --nocapture
use esti_tensor::ops::{self, matmul, matmul_naive};
use esti_tensor::{PackedMatrix, Tensor};
use std::hint::black_box;
use std::time::Instant;

fn fill(n: usize, scale: f32) -> Tensor {
    let data: Vec<f32> = (0..n * n).map(|i| scale * ((i % 17) as f32 - 8.0)).collect();
    Tensor::from_vec(vec![n, n], data)
}

/// The f32 tile over a weight packed once (its stored form) is at least
/// 1.8× faster than the row-major scalar chain, `matmul_naive`, at 256³.
#[test]
#[ignore]
fn speed_check() {
    let n = 256;
    let (a, b) = (fill(n, 0.1), fill(n, 0.05));
    let packed = PackedMatrix::pack(&b);
    let naive = best_of(5, || drop(black_box(matmul_naive(black_box(&a), &b))));
    let tile = best_of(5, || drop(black_box(packed.matmul(black_box(&a)))));
    let speedup = naive / tile;
    eprintln!(
        "simd_active={} f32 256³: naive {:.0} us, tile {:.0} us, {speedup:.2}x (bound >= 1.8x)",
        ops::simd_active(),
        naive * 1e6,
        tile * 1e6
    );
    assert!(speedup >= 1.8, "f32 tile {speedup:.2}x over the naive kernel, bound 1.8x");
}

/// The int8 tile is at least 2.1× faster at 256³ than `matmul_naive` over
/// the weight's integer values followed by its column scales: the int8
/// GEMM's arithmetic, read front to back.
#[test]
#[ignore]
fn int8_speed_check() {
    let n = 256;
    let a = fill(n, 0.1);
    let w = PackedMatrix::quantize(&fill(n, 0.05));
    let scales = w.scales().expect("a quantized matrix");
    let values = w.unpack().data().iter().enumerate().map(|(i, &x)| (x / scales[i % n]).round()).collect();
    let values = Tensor::from_vec(vec![n, n], values);
    let scalar = best_of(5, || {
        let mut out = matmul_naive(black_box(&a), &values);
        w.apply_scales(out.data_mut());
        black_box(out);
    });
    let tile = best_of(5, || drop(black_box(w.matmul(black_box(&a)))));
    let speedup = scalar / tile;
    eprintln!(
        "simd_active={} int8 256³: scalar {:.0} us, tile {:.0} us, {speedup:.2}x (bound >= 2.1x)",
        ops::simd_active(),
        scalar * 1e6,
        tile * 1e6
    );
    assert!(speedup >= 2.1, "int8 tile {speedup:.2}x over the scalar chain, bound 2.1x");
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
                    black_box(matmul(black_box(&a), black_box(w)));
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
/// `matmul_naive`, row-major `ops::matmul` (which packs `b` per call
/// from 8 rows and streams below), f32 packed once (the stored form) and
/// int8. Best of 15 runs each.
///
/// **Cold:** the decode shapes (1, 4, 8 and 16 rows at the five weight
/// shapes), each call reading the next of enough distinct weights to fill
/// 16 MB, as a decode step walks distinct layers, so the weights come from
/// memory: row-major `ops::matmul` against the packed f32 and int8 forms.
///
/// Each tile column is the form of the tile the run chose (`simd_active`);
/// compare a default run with an `ESTI_DISABLE_SIMD=1` run.
#[test]
#[ignore]
fn tiers_at_workload_shapes() {
    const REPS: usize = 15;
    eprintln!("simd_active={}", ops::simd_active());
    eprintln!("hot weights:");
    eprintln!("{:>18} {:>9} {:>9} {:>9} {:>9}", "(M, K, N)", "naive us", "rowmaj us", "f32 us", "i8 us");
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
        let naive = best_of(REPS, || drop(black_box(matmul_naive(black_box(&a), &b))));
        let rowmaj = best_of(REPS, || drop(black_box(matmul(black_box(&a), &b))));
        let packed_f32 = best_of(REPS, || drop(black_box(p.matmul(black_box(&a)))));
        let packed_i8 = best_of(REPS, || drop(black_box(q.matmul(black_box(&a)))));
        eprintln!(
            "{:>18} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            format!("({m}, {k}, {n})"),
            naive * 1e6,
            rowmaj * 1e6,
            packed_f32 * 1e6,
            packed_i8 * 1e6
        );
    }
    const WORKING_SET: usize = 16 << 20;
    eprintln!("cold weights (a {} MB working set of distinct matrices):", WORKING_SET >> 20);
    eprintln!("{:>18} {:>9} {:>9} {:>9} {:>8}", "(M, K, N)", "rowmaj us", "f32 us", "i8 us", "f32 r/t");
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let copies = WORKING_SET.div_ceil(k * n * 4);
        let dense: Vec<Tensor> = (0..copies).map(|c| weight(k, n, c)).collect();
        let packed: Vec<PackedMatrix> = dense.iter().map(PackedMatrix::pack).collect();
        let quant: Vec<PackedMatrix> = dense.iter().map(PackedMatrix::quantize).collect();
        for m in [1, 4, 8, 16] {
            let a = activations(m, k);
            let cold = |f: &dyn Fn(usize)| best_of(5, || (0..2 * copies).for_each(f)) / (2 * copies) as f64;
            let rowmaj = cold(&|c| drop(black_box(matmul(&a, &dense[c % copies]))));
            let packed_f32 = cold(&|c| drop(black_box(packed[c % copies].matmul(&a))));
            let packed_i8 = cold(&|c| drop(black_box(quant[c % copies].matmul(&a))));
            eprintln!(
                "{:>18} {:>9.1} {:>9.1} {:>9.1} {:>8.2}",
                format!("({m}, {k}, {n})"),
                rowmaj * 1e6,
                packed_f32 * 1e6,
                packed_i8 * 1e6,
                rowmaj / packed_f32
            );
        }
    }
}
