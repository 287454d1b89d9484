//! AQT-style int8 weight quantization (Section 3.6).
//!
//! Weights are stored as `i8` with one symmetric `f32` scale per *output
//! channel* (matrix column). This halves weight bytes relative to bf16 —
//! the memory-time saving that drives the paper's low-latency int8 results —
//! while matmul arithmetic stays in floating point, matching "the matmuls
//! still use bfloat16 arithmetic" (Section 4.4).
//!
//! A quantized matrix is a [`PackedMatrix`] with int8 values: it is stored
//! in panel order and runs the same register tile and GEMM family as f32
//! weights, widening its values exactly and applying each column's scale
//! once, after the column's whole contraction — so splitting the
//! contraction (or the column range) into chunks reproduces the monolithic
//! result bit for bit.

use crate::packed::{panel_rows, PackedMatrix, Values};
use crate::Tensor;

/// The int8 form of [`PackedMatrix`], under the name the quantization API
/// has always used: [`PackedMatrix::quantize`] builds it.
///
/// # Examples
///
/// ```
/// use esti_tensor::quant::QuantizedMatrix;
/// use esti_tensor::Tensor;
///
/// let w = Tensor::from_vec(vec![2, 2], vec![0.1, -2.0, 0.2, 1.0]);
/// let q = QuantizedMatrix::quantize(&w);
/// assert!(q.unpack().approx_eq(&w, 0.02));
/// assert_eq!(q.storage_bytes(), 2 * 2 + 2 * 4); // i8 data + f32 scales
/// ```
pub type QuantizedMatrix = PackedMatrix;

impl PackedMatrix {
    /// Quantizes a rank-2 tensor symmetrically per output channel (column)
    /// and packs it.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2.
    #[must_use]
    pub fn quantize(w: &Tensor) -> Self {
        assert_eq!(w.rank(), 2, "quantize requires a rank-2 weight matrix");
        let (rows, cols) = (w.dim(0), w.dim(1));
        let mut scales = vec![0.0f32; cols];
        for row in w.data().chunks_exact(cols.max(1)) {
            for (s, &v) in scales.iter_mut().zip(row) {
                *s = s.max(v.abs());
            }
        }
        for s in &mut scales {
            *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
        }
        let mut values = Vec::with_capacity(rows * cols);
        for r in panel_rows(rows, cols) {
            let j0 = r.start % cols;
            let quantized = w.data()[r].iter().zip(&scales[j0..]).map(|(&v, &s)| (v / s).round().clamp(-127.0, 127.0));
            values.extend(quantized.map(|q| q as i8));
        }
        PackedMatrix { rows, cols, values: Values::I8 { values, scales } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Worst-case absolute quantization error for column `j`: half a step.
    fn max_error(q: &PackedMatrix, j: usize) -> f32 {
        q.scales().expect("an int8 matrix")[j] * 0.5
    }

    /// The scalar chain for `x × q`: [`ops::matmul_naive`] over the stored
    /// integers, recovered as `round(unpack() / scale)`, then the column
    /// scales.
    fn naive(q: &PackedMatrix, x: &Tensor) -> Tensor {
        let scales = q.scales().expect("an int8 matrix");
        let ints = q.unpack().data().iter().enumerate().map(|(i, &v)| (v / scales[i % q.cols()]).round()).collect();
        let mut out = ops::matmul_naive(x, &Tensor::from_vec(vec![q.rows(), q.cols()], ints));
        q.apply_scales(out.data_mut());
        out
    }

    #[test]
    fn roundtrip_error_bounded_per_column() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Tensor::randn(&mut rng, vec![16, 40], 2.0);
        let q = QuantizedMatrix::quantize(&w);
        let d = q.unpack();
        for i in 0..16 {
            for j in 0..40 {
                let err = (w.at(&[i, j]) - d.at(&[i, j])).abs();
                assert!(err <= max_error(&q, j) + 1e-6, "err {err} > bound {}", max_error(&q, j));
            }
        }
    }

    #[test]
    fn zero_column_is_stable() {
        let w = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 0.0, -1.0]);
        let q = QuantizedMatrix::quantize(&w);
        assert!(q.unpack().approx_eq(&w, 1e-6));
    }

    #[test]
    fn extreme_values_hit_127() {
        let w = Tensor::from_vec(vec![1, 1], vec![-5.0]);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.values, Values::I8 { values: vec![-127], scales: vec![5.0 / 127.0] });
        assert!((q.unpack().at(&[0, 0]) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_matches_dequantized_matmul() {
        let mut rng = StdRng::seed_from_u64(12);
        let w = Tensor::randn(&mut rng, vec![12, 6], 1.0);
        let x = Tensor::randn(&mut rng, vec![4, 12], 1.0);
        let q = QuantizedMatrix::quantize(&w);
        let fused = q.matmul(&x);
        let explicit = ops::matmul(&x, &q.unpack());
        assert!(fused.approx_eq(&explicit, 1e-4));
    }

    #[test]
    fn storage_is_half_of_bf16_plus_scales() {
        let w = Tensor::zeros(vec![128, 64]);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.storage_bytes(), 128 * 64 + 64 * 4);
        assert!(q.storage_bytes() < 128 * 64 * 2); // beats bf16
    }

    #[test]
    fn blocked_matches_scalar_oracle_bitwise() {
        // The host's tile (the safe-Rust one under `ESTI_DISABLE_SIMD`)
        // against the scalar chain. Odd sizes exercise the narrow panel and
        // both int8 widenings.
        let mut rng = StdRng::seed_from_u64(21);
        for (m, k, n) in [(1, 64, 96), (7, 33, 67), (4, 128, 32), (13, 5, 130), (17, 40, 70)] {
            let w = Tensor::randn(&mut rng, vec![k, n], 0.7);
            let x = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let q = QuantizedMatrix::quantize(&w);
            assert_eq!(q.matmul(&x).data(), naive(&q, &x).data(), "kernel divergence at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_handles_exact_zero_activations() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(vec![1, 2], vec![0.0, 2.0]);
        let q = QuantizedMatrix::quantize(&w);
        let full = ops::matmul(&x, &q.unpack());
        let shipped = q.matmul(&x);
        assert!(shipped.approx_eq(&full, 1e-6));
        assert_eq!(shipped.data(), naive(&q, &x).data());
    }

    #[test]
    fn matmul_into_cols_assembles_full_product() {
        let mut rng = StdRng::seed_from_u64(25);
        let wa = Tensor::randn(&mut rng, vec![16, 33], 0.5);
        let wb = Tensor::randn(&mut rng, vec![16, 31], 0.5);
        let x = Tensor::randn(&mut rng, vec![4, 16], 1.0);
        let (qa, qb) = (QuantizedMatrix::quantize(&wa), QuantizedMatrix::quantize(&wb));
        let mut out = Tensor::zeros(vec![4, 64]);
        qa.matmul_into_cols(&x, 0..4, &mut out, 0);
        qb.matmul_into_cols(&x, 0..4, &mut out, 33);
        let expect = Tensor::concat(&[&qa.matmul(&x), &qb.matmul(&x)], 1);
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn acc_window_chunked_contraction_is_bitwise_exact() {
        // Split the contraction dim at every chunking granularity; ascending
        // accumulation + one deferred scale must equal the monolithic path
        // bit-for-bit.
        let mut rng = StdRng::seed_from_u64(26);
        let w = Tensor::randn(&mut rng, vec![48, 37], 0.9);
        let x = Tensor::randn(&mut rng, vec![3, 48], 1.0);
        let q = QuantizedMatrix::quantize(&w);
        let mono = q.matmul(&x);
        for chunks in [1usize, 2, 3, 4, 6, 8] {
            let step = 48 / chunks;
            let mut acc = Tensor::zeros(vec![3, 37]);
            for c in 0..chunks {
                q.matmul_acc_window(&x, 0..3, c * step, c * step, step, acc.data_mut());
            }
            q.apply_scales(acc.data_mut());
            assert_eq!(acc.data(), mono.data(), "chunks={chunks}");
        }
    }

    proptest! {
        #[test]
        fn prop_dequantize_bounded(seed in 0u64..200, std in 0.01f32..4.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![8, 5], std);
            let q = QuantizedMatrix::quantize(&w);
            let d = q.unpack();
            for j in 0..5 {
                for i in 0..8 {
                    let err = (w.at(&[i, j]) - d.at(&[i, j])).abs();
                    prop_assert!(err <= max_error(&q, j) + 1e-5);
                }
            }
        }

        #[test]
        fn prop_quantize_idempotent_on_grid(seed in 0u64..100) {
            // Quantizing an already-dequantized matrix is exact.
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![6, 3], 1.0);
            let d = QuantizedMatrix::quantize(&w).unpack();
            let d2 = QuantizedMatrix::quantize(&d).unpack();
            prop_assert!(d.approx_eq(&d2, 1e-5));
        }

        #[test]
        fn prop_blocked_equals_oracle(seed in 0u64..60, m in 1usize..20, k in 1usize..70, n in 1usize..70) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![k, n], 0.8);
            let x = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let q = QuantizedMatrix::quantize(&w);
            prop_assert_eq!(q.matmul(&x).data(), naive(&q, &x).data());
        }
    }
}
