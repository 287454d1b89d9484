//! The fused accumulation contract against f64. Every GEMM output is one
//! chain of fused multiply-adds, `acc = a.mul_add(b, acc)`, in ascending
//! `k`: one rounding per step where a separate multiply and add take two.
//! At the serving workloads' contraction lengths (`k` of 64, 256 and 1024;
//! f32 and int8 weights) each output is computed three ways — the shipped
//! kernel, a test-local unfused `acc += a * b` chain, and f64 — and:
//!
//! - the shipped kernel is a test-local `mul_add` chain's bits, so what is
//!   measured is the contract, not one tier;
//! - every fused output lies within the a-priori bound of a `k`-step chain,
//!   `γ_{k+1} · Σ|a·b|` (`γ_n = n·u / (1 − n·u)`, `u = 2⁻²⁴`; the `+1` is an
//!   int8 column's scale);
//! - at `k` of 64 and 256 the fused mean |error| against f64 is no larger
//!   than the unfused chain's.
//!
//! The max |error| is printed, not compared: with zero-mean data the sum's
//! error is mostly the additions' roundings, which fusing leaves alone.
//! Over these 16k outputs, on 50 other seeds, the fused max exceeded the
//! unfused one on 13 to 22 seeds at every `k` and dtype, and the fused mean
//! did on 5 at `k` = 1024, where the products' roundings are a thousandth
//! of the chain's.
//!
//!   cargo test --release -p esti-tensor --test numerics -- --nocapture

use esti_tensor::{ops, PackedMatrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 32;
const COLS: usize = 512;

/// Max and mean |x − reference| over `xs`.
fn errors(xs: &[f32], reference: &[f64]) -> (f64, f64) {
    let errs: Vec<f64> = xs.iter().zip(reference).map(|(&x, &r)| (f64::from(x) - r).abs()).collect();
    (errs.iter().copied().fold(0.0, f64::max), errs.iter().sum::<f64>() / errs.len() as f64)
}

/// `a [ROWS, k] × w [k, COLS]`, each output one chain from `zero` in
/// ascending `k`, stepped by `step`, then times its column's scale.
fn chains<T: Copy + std::ops::Mul<Output = T>>(
    a: &[f32],
    w: &[f32],
    k: usize,
    scales: &[T],
    zero: T,
    step: impl Fn(T, f32, f32) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(ROWS * COLS);
    for i in 0..ROWS {
        for (j, &s) in scales.iter().enumerate() {
            out.push((0..k).fold(zero, |acc, kk| step(acc, a[i * k + kk], w[kk * COLS + j])) * s);
        }
    }
    out
}

#[test]
fn fused_chains_against_f64() {
    const U: f64 = 1.0 / (1u64 << 24) as f64;
    let gamma = |n: usize| n as f64 * U / (1.0 - n as f64 * U);
    let mut rng = StdRng::seed_from_u64(47);
    println!("dtype     k   fused max unfused max  fused mean unfused mean");
    for k in [64, 256, 1024] {
        let a = Tensor::randn(&mut rng, vec![ROWS, k], 1.0);
        let w = Tensor::randn(&mut rng, vec![k, COLS], 1.0);
        for int8 in [false, true] {
            // The shipped kernel and the values it multiplies: an int8
            // matrix's integers (recovered exactly from its dequantized
            // form) and per-column scales, or the f32 weights, unscaled.
            let (shipped, values, scales) = if int8 {
                let q = PackedMatrix::quantize(&w);
                let s = q.scales().expect("an int8 matrix").to_vec();
                let values = q.unpack().data().iter().enumerate().map(|(i, &x)| (x / s[i % COLS]).round()).collect();
                (q.matmul(&a), values, s)
            } else {
                (ops::matmul(&a, &w), w.data().to_vec(), vec![1.0; COLS])
            };
            let wide: Vec<f64> = scales.iter().map(|&s| f64::from(s)).collect();
            let fused = chains(a.data(), &values, k, &scales, 0.0f32, |acc, x, y| x.mul_add(y, acc));
            let unfused = chains(a.data(), &values, k, &scales, 0.0f32, |acc, x, y| acc + x * y);
            let exact = chains(a.data(), &values, k, &wide, 0.0f64, |acc, x, y| acc + f64::from(x) * f64::from(y));
            let magnitude = chains(a.data(), &values, k, &wide, 0.0f64, |acc, x, y| acc + f64::from(x * y).abs());

            let dtype = if int8 { "int8" } else { "f32" };
            let same = |xs: &[f32]| xs.iter().zip(&fused).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same(shipped.data()), "{dtype} k={k}: the shipped kernel is not the fused chain's bits");
            if !int8 {
                // Below eight rows `ops::matmul` streams the weights instead.
                let few = ops::matmul(&a.slice(0, 0, 4), &w);
                assert!(same(few.data()), "f32 k={k}: the streamed schedule is not the fused chain's bits");
            }
            for (i, ((&f, &e), &m)) in fused.iter().zip(&exact).zip(&magnitude).enumerate() {
                // `magnitude` is Σ|a·b| up to a product's rounding; the f64
                // reference is off by at most k·2⁻⁵³ of it.
                let bound = (gamma(k + 1) * (1.0 + U) + k as f64 * f64::EPSILON / 2.0) * m;
                assert!((f64::from(f) - e).abs() <= bound, "{dtype} k={k} output {i}: |{f} − {e}| > {bound:e}");
            }
            let (f_max, f_mean) = errors(&fused, &exact);
            let (u_max, u_mean) = errors(&unfused, &exact);
            println!("{dtype:>5} {k:>5} {f_max:>11.3e} {u_max:>11.3e} {f_mean:>11.3e} {u_mean:>12.3e}");
            if k <= 256 {
                assert!(f_mean <= u_mean, "{dtype} k={k}: fused mean |error| {f_mean:e} > unfused {u_mean:e}");
            }
        }
    }
}
