//! AQT-style int8 weight quantization (Section 3.6).
//!
//! Weights are stored as `i8` with one symmetric `f32` scale per *output
//! channel* (matrix column). This halves weight bytes relative to bf16 —
//! the memory-time saving that drives the paper's low-latency int8 results —
//! while matmul arithmetic stays in floating point, matching "the matmuls
//! still use bfloat16 arithmetic" (Section 4.4).
//!
//! The GEMM family here has three tiers behind the
//! [`crate::ops::set_matmul_kernel`] knob: an AVX2 SIMD kernel that widens
//! int8 panels with vector converts and folds the per-column scale once at
//! tile store (`Simd`, the default), the blocked core — each int8 column
//! block widened to an f32 panel once, then run through `ops`' own f32
//! register tile — and a scalar oracle kernel. The chunk-safe
//! [`QuantizedMatrix::matmul_acc_window`] / `matmul_into_cols` variants let
//! quantized weights compose with the streamed weight-gather paths.
//! Every kernel accumulates each output element by one serial chain of adds
//! in strictly ascending `k` order, and the per-column scale is applied
//! exactly once after the full contraction (folding it at tile store over a
//! zeroed target is the same arithmetic) — so splitting the contraction
//! (or the column range) into chunks or switching kernel tiers reproduces
//! the monolithic result bit-for-bit.

use crate::ops::{matmul_kernel, mm_stream, mm_tile_edge, mm_tile_full, MatmulKernel, MR, NR};
use crate::Tensor;

/// A rank-2 weight matrix stored as int8 with per-column scales.
///
/// # Examples
///
/// ```
/// use esti_tensor::{QuantizedMatrix, Tensor};
///
/// let w = Tensor::from_vec(vec![2, 2], vec![0.1, -2.0, 0.2, 1.0]);
/// let q = QuantizedMatrix::quantize(&w);
/// assert!(q.dequantize().approx_eq(&w, 0.02));
/// assert_eq!(q.storage_bytes(), 2 * 2 + 2 * 4); // i8 data + f32 scales
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major int8 values.
    values: Vec<i8>,
    /// One scale per column; `w[i][j] ≈ values[i][j] * scales[j]`.
    scales: Vec<f32>,
}

/// Register-tiled int8 GEMM core accumulating `out += a × values` (unscaled),
/// with explicit strides so callers can address sub-blocks of larger
/// matrices without copying. Each `NR`-wide column block of the int8 rhs is
/// widened to an f32 panel *once*; `ops`' f32 tiles then run over it as a
/// `b` operand of row stride `nr`, whole `MR`-row tiles first and the
/// `m % MR` rows left over streamed. The i8→f32 conversion costs `O(k·n)`
/// instead of `O(m·k·n / MR)`, and widening is exact precomputation, so
/// every element is the f32 tiles' ascending-`k` chain over the int values.
#[allow(clippy::too_many_arguments)]
fn qmm_kernel(
    ad: &[f32],
    a_stride: usize,
    vd: &[i8],
    v_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut panel = vec![0.0f32; k * NR];
    let mut j = 0;
    while j < n {
        let nr = NR.min(n - j);
        for kk in 0..k {
            let src = &vd[kk * v_stride + j..][..nr];
            for (x, &v) in panel[kk * nr..kk * nr + nr].iter_mut().zip(src) {
                *x = f32::from(v);
            }
        }
        let panel = &panel[..k * nr];
        let tiled = m / MR * MR;
        for i in (0..tiled).step_by(MR) {
            if nr == NR {
                mm_tile_full(ad, a_stride, panel, nr, &mut out[j..], o_stride, i, 0, k);
            } else {
                mm_tile_edge(ad, a_stride, panel, nr, &mut out[j..], o_stride, i, 0, k, nr);
            }
        }
        if tiled < m {
            let (a, o) = (&ad[tiled * a_stride..], &mut out[tiled * o_stride + j..]);
            mm_stream(a, a_stride, panel, nr, o, o_stride, m - tiled, k, nr);
        }
        j += NR;
    }
}

/// The scalar oracle kernel: plain i-k-j accumulation over strided
/// sub-blocks, unscaled. Unlike the f32 oracle this has no `av == 0.0`
/// skip — the branch was near-never taken on real activations and poisoned
/// the hot loop. For dense blocks (`a_stride == k`, `v_stride == o_stride
/// == n`) this is the historical oracle's exact loop, bit for bit.
#[allow(clippy::too_many_arguments)]
fn qmm_scalar_kernel(
    ad: &[f32],
    a_stride: usize,
    vd: &[i8],
    v_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let arow = &ad[i * a_stride..i * a_stride + k];
        let orow = &mut out[i * o_stride..i * o_stride + n];
        for (kk, &av) in arow.iter().enumerate() {
            let vrow = &vd[kk * v_stride..kk * v_stride + n];
            for (o, &wv) in orow.iter_mut().zip(vrow) {
                *o += av * f32::from(wv);
            }
        }
    }
}

/// Strided int8 GEMM dispatch: resolves the process-wide kernel knob (AVX2
/// SIMD when active, blocked or scalar-oracle otherwise) and applies the
/// per-column `scales` exactly once after each element's full contraction —
/// folded at tile store on the SIMD path, as a post-pass on the scalar
/// paths; both require and assume a zeroed target, which every scaled
/// entry point guarantees. `scales: None` leaves the accumulation unscaled
/// (the [`QuantizedMatrix::matmul_acc_window`] contraction-chunk protocol,
/// paired with one deferred [`QuantizedMatrix::apply_scales`]).
#[allow(clippy::too_many_arguments)]
fn qmm_dispatch(
    ad: &[f32],
    a_stride: usize,
    vd: &[i8],
    v_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
    scales: Option<&[f32]>,
) {
    if crate::ops::simd_active() {
        crate::simd::mm_i8(ad, a_stride, vd, v_stride, out, o_stride, m, k, n, scales);
        return;
    }
    if matmul_kernel() == MatmulKernel::Naive {
        qmm_scalar_kernel(ad, a_stride, vd, v_stride, out, o_stride, m, k, n);
    } else {
        qmm_kernel(ad, a_stride, vd, v_stride, out, o_stride, m, k, n);
    }
    if let Some(s) = scales {
        for r in 0..m {
            let orow = &mut out[r * o_stride..r * o_stride + n];
            for (o, &sv) in orow.iter_mut().zip(s) {
                *o *= sv;
            }
        }
    }
}

impl QuantizedMatrix {
    /// Quantizes a rank-2 tensor symmetrically per output channel (column).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2.
    #[must_use]
    pub fn quantize(w: &Tensor) -> Self {
        assert_eq!(w.rank(), 2, "quantize requires a rank-2 weight matrix");
        let (rows, cols) = (w.dim(0), w.dim(1));
        let mut scales = vec![0.0f32; cols];
        for i in 0..rows {
            for (j, s) in scales.iter_mut().enumerate() {
                *s = s.max(w.data()[i * cols + j].abs());
            }
        }
        for s in &mut scales {
            *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
        }
        let mut values = vec![0i8; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                let q = (w.data()[i * cols + j] / scales[j]).round();
                values[i * cols + j] = q.clamp(-127.0, 127.0) as i8;
            }
        }
        QuantizedMatrix { rows, cols, values, scales }
    }

    /// Number of rows (input channels).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output channels).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-column scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The raw row-major int8 values — the payload the quantized collectives
    /// move on the wire.
    #[must_use]
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Reconstructs the floating-point matrix.
    #[must_use]
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[i * self.cols + j] =
                    f32::from(self.values[i * self.cols + j]) * self.scales[j];
            }
        }
        Tensor::from_vec(vec![self.rows, self.cols], out)
    }

    /// Multiplies activations by the quantized matrix: `x [m, rows] → [m, cols]`.
    ///
    /// Accumulates in f32 over the int8 values, applying the column scale
    /// once per output — the standard inference dataflow for weight-only
    /// quantization. Dispatches through [`crate::ops::matmul_kernel`]: the
    /// AVX2 SIMD kernel when active, the blocked kernel, or the scalar
    /// oracle. All accumulate in strictly ascending `k` order and are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or its inner dimension mismatches.
    #[must_use]
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "quantized matmul lhs must be rank-2");
        let mut out = Tensor::zeros(vec![x.dim(0), self.cols]);
        self.scaled_into(x, &mut out);
        out
    }

    /// [`Self::matmul`] writing into a preallocated output, overwriting its
    /// contents — avoids the per-call allocation in steady state decode
    /// loops. Leading dims flatten: `x [.., rows] → out [.., cols]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `x`, `self`, and `out`.
    pub fn matmul_into(&self, x: &Tensor, out: &mut Tensor) {
        out.data_mut().fill(0.0);
        self.scaled_into(x, out);
    }

    /// The scaled product of `x [.., rows]` into a zeroed `out [.., cols]`
    /// (the same rows): the one body behind every scaled entry point.
    fn scaled_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.dim(x.rank() - 1), self.rows, "quantized matmul inner dimension mismatch");
        let m = x.numel() / self.rows.max(1);
        assert_eq!(out.dim(out.rank() - 1), self.cols, "matmul_into output col mismatch");
        assert_eq!(out.numel(), m * self.cols, "matmul_into output row mismatch");
        qmm_dispatch(
            x.data(),
            self.rows,
            &self.values,
            self.cols,
            out.data_mut(),
            self.cols,
            m,
            self.rows,
            self.cols,
            Some(&self.scales),
        );
    }

    /// Writes the *scaled* product `x × self` into columns
    /// `[c0, c0 + cols)` of a wider output, in place — the fused
    /// scale-on-arrival step of the weight-gathered overlap loop. The target
    /// column range must contain zeros (the scale is applied in place after
    /// the unscaled accumulation). `x`'s and `out`'s leading dims flatten.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if the column range exceeds the output.
    pub fn matmul_into_cols(&self, x: &Tensor, out: &mut Tensor, c0: usize) {
        assert_eq!(x.dim(x.rank() - 1), self.rows, "matmul_into_cols inner dimension mismatch");
        let m = x.numel() / self.rows.max(1);
        let n_out = out.dim(out.rank() - 1);
        assert_eq!(out.numel(), m * n_out, "matmul_into_cols output row mismatch");
        assert!(c0 + self.cols <= n_out, "column range {c0}+{} exceeds {n_out}", self.cols);
        qmm_dispatch(
            x.data(),
            self.rows,
            &self.values,
            self.cols,
            &mut out.data_mut()[c0..],
            n_out,
            m,
            self.rows,
            self.cols,
            Some(&self.scales),
        );
    }

    /// Accumulates the **unscaled** partial product
    /// `x[rows, c0..c0+kc] × self[r0..r0+kc, :]` into `out`'s `rows.len()`
    /// rows of `cols` — the contraction-chunking primitive. The block of
    /// `x`'s rows (its leading dims flattened) and its window of columns are
    /// read in place at row stride `x`'s trailing dim. Because every kernel
    /// accumulates in ascending `k` order, running consecutive row chunks in
    /// order and then applying [`Self::apply_scales`] once reproduces the
    /// monolithic [`Self::matmul`] bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if a window exceeds its operand.
    pub fn matmul_acc_window(
        &self,
        x: &Tensor,
        rows: std::ops::Range<usize>,
        c0: usize,
        r0: usize,
        kc: usize,
        out: &mut [f32],
    ) {
        let k = x.dim(x.rank() - 1);
        let m = x.numel().checked_div(k).unwrap_or(0);
        assert!(rows.start <= rows.end && rows.end <= m, "row block {rows:?} exceeds {m}");
        assert!(c0 + kc <= k, "column window {c0}+{kc} exceeds {k}");
        assert!(r0 + kc <= self.rows, "row range {r0}+{kc} exceeds {}", self.rows);
        assert_eq!(out.len(), rows.len() * self.cols, "matmul_acc_window output row mismatch");
        if rows.is_empty() {
            return;
        }
        qmm_dispatch(
            &x.data()[rows.start * k + c0..],
            k,
            &self.values[r0 * self.cols..],
            self.cols,
            out,
            self.cols,
            rows.len(),
            kc,
            self.cols,
            None,
        );
    }

    /// Multiplies each column `j` of a `[*, cols]` tensor by `scales[j]` in
    /// place — the single deferred scale application paired with the
    /// unscaled [`Self::matmul_acc_window`] accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimension of `out` is not `cols`.
    pub fn apply_scales(&self, out: &mut Tensor) {
        assert_eq!(out.dim(out.rank() - 1), self.cols, "apply_scales trailing dim mismatch");
        for row in out.data_mut().chunks_exact_mut(self.cols) {
            for (o, &s) in row.iter_mut().zip(&self.scales) {
                *o *= s;
            }
        }
    }

    /// Bytes occupied by the quantized representation (int8 values plus
    /// f32 scales), the quantity the memory-time model charges for.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * 4
    }

    /// Worst-case absolute quantization error for column `j`: half a step.
    #[must_use]
    pub fn max_error(&self, col: usize) -> f32 {
        self.scales[col] * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_error_bounded_per_column() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Tensor::randn(&mut rng, vec![16, 8], 2.0);
        let q = QuantizedMatrix::quantize(&w);
        let d = q.dequantize();
        for i in 0..16 {
            for j in 0..8 {
                let err = (w.at(&[i, j]) - d.at(&[i, j])).abs();
                assert!(err <= q.max_error(j) + 1e-6, "err {err} > bound {}", q.max_error(j));
            }
        }
    }

    #[test]
    fn zero_column_is_stable() {
        let w = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 0.0, -1.0]);
        let q = QuantizedMatrix::quantize(&w);
        assert!(q.dequantize().approx_eq(&w, 1e-6));
    }

    #[test]
    fn extreme_values_hit_127() {
        let w = Tensor::from_vec(vec![1, 1], vec![-5.0]);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.values, vec![-127]);
        assert!((q.dequantize().at(&[0, 0]) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_matches_dequantized_matmul() {
        let mut rng = StdRng::seed_from_u64(12);
        let w = Tensor::randn(&mut rng, vec![12, 6], 1.0);
        let x = Tensor::randn(&mut rng, vec![4, 12], 1.0);
        let q = QuantizedMatrix::quantize(&w);
        let fused = q.matmul(&x);
        let explicit = ops::matmul(&x, &q.dequantize());
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
        let _guard = ops::KNOB_TEST_LOCK.lock().unwrap();
        // Odd sizes exercise both edge-tile paths.
        let mut rng = StdRng::seed_from_u64(21);
        for (m, k, n) in [(1, 64, 96), (7, 33, 67), (4, 128, 32), (13, 5, 130)] {
            let w = Tensor::randn(&mut rng, vec![k, n], 0.7);
            let x = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let q = QuantizedMatrix::quantize(&w);
            ops::set_matmul_kernel(ops::MatmulKernel::Naive);
            let oracle = q.matmul(&x);
            ops::set_matmul_kernel(ops::MatmulKernel::Blocked);
            let blocked = q.matmul(&x);
            assert_eq!(blocked.data(), oracle.data(), "kernel divergence at {m}x{k}x{n}");
        }
        ops::set_matmul_kernel(ops::MatmulKernel::Simd);
    }

    #[test]
    fn matmul_handles_exact_zero_activations() {
        // The old scalar loop skipped zero activations; both kernels must
        // now produce the identical (and correct) result on sparse input.
        let _guard = ops::KNOB_TEST_LOCK.lock().unwrap();
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(vec![1, 2], vec![0.0, 2.0]);
        let q = QuantizedMatrix::quantize(&w);
        let full = ops::matmul(&x, &q.dequantize());
        ops::set_matmul_kernel(ops::MatmulKernel::Naive);
        let oracle = q.matmul(&x);
        ops::set_matmul_kernel(ops::MatmulKernel::Blocked);
        let blocked = q.matmul(&x);
        ops::set_matmul_kernel(ops::MatmulKernel::Simd);
        assert!(oracle.approx_eq(&full, 1e-6));
        assert_eq!(oracle.data(), blocked.data());
    }

    #[test]
    fn matmul_into_matches_matmul_and_overwrites() {
        let mut rng = StdRng::seed_from_u64(22);
        let w = Tensor::randn(&mut rng, vec![40, 24], 0.5);
        let x = Tensor::randn(&mut rng, vec![3, 40], 1.0);
        let q = QuantizedMatrix::quantize(&w);
        let expect = q.matmul(&x);
        let mut out = Tensor::from_vec(vec![3, 24], vec![7.0; 3 * 24]); // stale garbage
        q.matmul_into(&x, &mut out);
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn matmul_into_cols_assembles_full_product() {
        let mut rng = StdRng::seed_from_u64(25);
        let wa = Tensor::randn(&mut rng, vec![16, 33], 0.5);
        let wb = Tensor::randn(&mut rng, vec![16, 31], 0.5);
        let x = Tensor::randn(&mut rng, vec![4, 16], 1.0);
        let (qa, qb) = (QuantizedMatrix::quantize(&wa), QuantizedMatrix::quantize(&wb));
        let mut out = Tensor::zeros(vec![4, 64]);
        qa.matmul_into_cols(&x, &mut out, 0);
        qb.matmul_into_cols(&x, &mut out, 33);
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
            q.apply_scales(&mut acc);
            assert_eq!(acc.data(), mono.data(), "chunks={chunks}");
        }
    }

    proptest! {
        #[test]
        fn prop_dequantize_bounded(seed in 0u64..200, std in 0.01f32..4.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![8, 5], std);
            let q = QuantizedMatrix::quantize(&w);
            let d = q.dequantize();
            for j in 0..5 {
                for i in 0..8 {
                    let err = (w.at(&[i, j]) - d.at(&[i, j])).abs();
                    prop_assert!(err <= q.max_error(j) + 1e-5);
                }
            }
        }

        #[test]
        fn prop_quantize_idempotent_on_grid(seed in 0u64..100) {
            // Quantizing an already-dequantized matrix is exact.
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![6, 3], 1.0);
            let d = QuantizedMatrix::quantize(&w).dequantize();
            let d2 = QuantizedMatrix::quantize(&d).dequantize();
            prop_assert!(d.approx_eq(&d2, 1e-5));
        }

        #[test]
        fn prop_blocked_equals_oracle(seed in 0u64..60, m in 1usize..9, k in 1usize..70, n in 1usize..70) {
            let _guard = ops::KNOB_TEST_LOCK.lock().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::randn(&mut rng, vec![k, n], 0.8);
            let x = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let q = QuantizedMatrix::quantize(&w);
            ops::set_matmul_kernel(ops::MatmulKernel::Naive);
            let oracle = q.matmul(&x);
            ops::set_matmul_kernel(ops::MatmulKernel::Blocked);
            let blocked = q.matmul(&x);
            ops::set_matmul_kernel(ops::MatmulKernel::Simd);
            prop_assert_eq!(blocked.data(), oracle.data());
        }
    }
}
