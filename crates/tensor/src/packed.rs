//! Weights packed once, in panel order: the one stored form of a weight
//! matrix, f32 or int8 with per-column scales, and the GEMM family over it.
//!
//! A `rows × cols` matrix is stored as column panels of `rows × NR` (`NR` =
//! 32), each panel row by row; the last panel is `cols % NR` wide when that
//! is not zero, and nothing is padded, so a packed matrix holds exactly the
//! bytes of its row-major form. The register tile in `simd` walks one panel
//! front to back, so a GEMM reads each weight once, in address order,
//! whatever the matrix's width — which is why the packing happens once, when
//! a weight is stored, rather than per call.
//!
//! Every entry point runs one body, `PackedMatrix::gemm`: per panel, the
//! tile over all rows of the activations, reading the panel where it is
//! stored (a narrow last panel too, through the tile's one-vector path or
//! its masks). An int8 panel is widened in registers when there are few
//! rows, and once into an f32 scratch panel when there are at least `8·MR`
//! (or the panel is narrow); widening is exact, so both read the same
//! values. The scale of an int8 column is applied once, after the column's
//! whole contraction. Each element is the chain of
//! [`crate::ops::matmul_naive`] over the stored values, then its scale.

use std::ops::Range;

use crate::ops;
use crate::simd::{self, MR, NR};
use crate::Tensor;

/// Rows the GEMM tile computes at a time: a product over fewer rows still
/// costs a whole pass over the weight.
pub const TILE_ROWS: usize = MR;

/// A weight matrix stored in panel order: f32 values, or int8 values with
/// one f32 scale per column (see [`PackedMatrix::quantize`]).
///
/// # Examples
///
/// ```
/// use esti_tensor::{PackedMatrix, Tensor};
///
/// let w = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let p = PackedMatrix::pack(&w);
/// assert_eq!(p.unpack(), w);
/// let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]);
/// assert_eq!(p.matmul(&x).data(), &[5., 7., 9.]);
/// assert_eq!(p.storage_bytes(), 2 * 3 * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) values: Values,
}

/// A packed matrix's values, in panel order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Values {
    F32(Vec<f32>),
    /// `w[i][j] ≈ values[i][j] · scales[j]`.
    I8 { values: Vec<i8>, scales: Vec<f32> },
}

/// Row count from which an int8 panel is widened once into an f32 scratch
/// panel rather than in registers by every row tile that reads it.
/// Measured with `kernel_speed tiers_at_workload_shapes`: widening in
/// registers ran 10–20 % faster at 16 and 32 rows, the scratch panel about
/// 10 % faster from 64.
const WIDEN_FROM: usize = 8 * MR;

/// The row-major index ranges of a `rows × cols` matrix in panel order:
/// panel by panel, each panel's rows in turn.
pub(crate) fn panel_rows(rows: usize, cols: usize) -> impl Iterator<Item = Range<usize>> {
    (0..cols).step_by(NR).flat_map(move |j0| {
        let j1 = (j0 + NR).min(cols);
        (0..rows).map(move |i| i * cols + j0..i * cols + j1)
    })
}

impl PackedMatrix {
    /// Packs a rank-2 f32 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2.
    #[must_use]
    pub fn pack(w: &Tensor) -> Self {
        assert_eq!(w.rank(), 2, "pack requires a rank-2 matrix");
        let (rows, cols) = (w.dim(0), w.dim(1));
        let mut values = Vec::with_capacity(rows * cols);
        for r in panel_rows(rows, cols) {
            values.extend_from_slice(&w.data()[r]);
        }
        PackedMatrix { rows, cols, values: Values::F32(values) }
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

    /// The per-column scales of an int8 matrix; `None` for f32.
    #[must_use]
    pub fn scales(&self) -> Option<&[f32]> {
        match &self.values {
            Values::F32(_) => None,
            Values::I8 { scales, .. } => Some(scales),
        }
    }

    /// The row-major matrix this one stands for, int8 values dequantized
    /// (value × column scale).
    #[must_use]
    pub fn unpack(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        let mut at = 0;
        for r in panel_rows(self.rows, self.cols) {
            let (j0, dst) = (r.start % self.cols, &mut out[r.clone()]);
            match &self.values {
                Values::F32(v) => dst.copy_from_slice(&v[at..][..r.len()]),
                Values::I8 { values, scales } => {
                    for ((o, &q), &s) in dst.iter_mut().zip(&values[at..]).zip(&scales[j0..]) {
                        *o = f32::from(q) * s;
                    }
                }
            }
            at += r.len();
        }
        Tensor::from_vec(vec![self.rows, self.cols], out)
    }

    /// Stored bytes: 4 per f32 value, or 1 per int8 value plus 4 per scale —
    /// the same as the row-major form, since panels are not padded.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match &self.values {
            Values::F32(v) => v.len() * 4,
            Values::I8 { values, scales } => values.len() + scales.len() * 4,
        }
    }

    /// `x [m, rows] → [m, cols]`, int8 columns scaled.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or its inner dimension mismatches.
    #[must_use]
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "matmul lhs must be rank-2");
        let mut out = Tensor::zeros(vec![x.dim(0), self.cols]);
        self.matmul_into_cols(x, 0..x.dim(0), &mut out, 0);
        out
    }

    /// The product `x × self` over rows `rows` of `x` and `out` (their
    /// leading dims flattened), int8 columns scaled, written into columns
    /// `[c0, c0 + cols)` of a wider `out`: what was there is overwritten,
    /// never read (the tile's write mode), and every other row and column
    /// of `out` is left as it is. Lets an all-gathered weight's parts
    /// assemble the output column block by column block, and a pass skip
    /// rows that hold padding: a row's product does not depend on which
    /// rows share the call.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if the column range exceeds `out` or
    /// the row range `x`.
    pub fn matmul_into_cols(&self, x: &Tensor, rows: Range<usize>, out: &mut Tensor, c0: usize) {
        let (m, k) = rows_of(x);
        assert_eq!(k, self.rows, "matmul inner dimension mismatch: {k} vs {}", self.rows);
        let (m_out, n_out) = rows_of(out);
        assert_eq!(m_out, m, "matmul output row count mismatch");
        assert!(c0 + self.cols <= n_out, "column range {c0}+{} exceeds {n_out}", self.cols);
        assert!(rows.start <= rows.end && rows.end <= m, "row block {rows:?} exceeds {m}");
        if rows.is_empty() {
            return;
        }
        let (a, o) = (&x.data()[rows.start * k..], &mut out.data_mut()[rows.start * n_out + c0..]);
        self.gemm(a, k, rows.len(), 0..k, o, n_out, true, true);
    }

    /// Accumulates the **unscaled** partial product `x[rows, c0..c0+kc] ×
    /// self[r0..r0+kc, :]` into `out`'s `rows.len()` rows of `cols`: the
    /// contraction-chunking primitive. The block of `x`'s rows (its leading
    /// dims flattened) and its window of columns are read in place at row
    /// stride `x`'s trailing dim. Every element accumulates in ascending
    /// `k`, so consecutive chunks in order, then [`Self::apply_scales`] once,
    /// reproduce [`Self::matmul`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if a window exceeds its operand.
    pub fn matmul_acc_window(&self, x: &Tensor, rows: Range<usize>, c0: usize, r0: usize, kc: usize, out: &mut [f32]) {
        self.window(x, rows, c0, r0, kc, out, false);
    }

    /// [`Self::matmul_acc_window`] written into `out` rather than added to
    /// it: each element's chain starts from `+0.0`, so the result is the
    /// bits `matmul_acc_window` leaves in a zeroed `out`, and `out`'s old
    /// contents are never read. A contraction chunked this way starts with
    /// this call and accumulates the rest.
    ///
    /// # Panics
    ///
    /// As [`Self::matmul_acc_window`].
    pub fn matmul_window(&self, x: &Tensor, rows: Range<usize>, c0: usize, r0: usize, kc: usize, out: &mut [f32]) {
        self.window(x, rows, c0, r0, kc, out, true);
    }

    /// The unscaled window product of [`Self::matmul_acc_window`], added to
    /// `out` or, with `write`, written into it.
    #[allow(clippy::too_many_arguments)]
    fn window(&self, x: &Tensor, rows: Range<usize>, c0: usize, r0: usize, kc: usize, out: &mut [f32], write: bool) {
        let (m, k) = rows_of(x);
        assert!(rows.start <= rows.end && rows.end <= m, "row block {rows:?} exceeds {m}");
        assert!(c0 + kc <= k, "column window {c0}+{kc} exceeds {k}");
        assert!(r0 + kc <= self.rows, "row range {r0}+{kc} exceeds {}", self.rows);
        assert_eq!(out.len(), rows.len() * self.cols, "matmul window output shape mismatch");
        if rows.is_empty() {
            return;
        }
        let a = &x.data()[rows.start * k + c0..];
        self.gemm(a, k, rows.len(), r0..r0 + kc, out, self.cols, false, write);
    }

    /// Multiplies each column `j` of rows of `cols` values by an int8
    /// matrix's `scales[j]`, in place: the one deferred scale paired with
    /// [`Self::matmul_acc_window`]. A no-op for f32.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not whole rows of `cols`.
    pub fn apply_scales(&self, out: &mut [f32]) {
        assert!(out.len().is_multiple_of(self.cols.max(1)), "apply_scales row width mismatch");
        let Some(scales) = self.scales() else { return };
        for row in out.chunks_exact_mut(self.cols) {
            for (o, &s) in row.iter_mut().zip(scales) {
                *o *= s;
            }
        }
    }

    /// The one GEMM body: `out[i][j] += Σ a[i][kk] · self[ks.start + kk][j]`
    /// (`=` with `write`: the tile's write mode) for the `m` rows of `a`
    /// (stride `a_stride`) and `out` (stride `o_stride`), `kk` ascending over
    /// `ks`, then each element times its column's scale if `scale` and the
    /// matrix is int8.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm(
        &self,
        a: &[f32],
        a_stride: usize,
        m: usize,
        ks: Range<usize>,
        out: &mut [f32],
        o_stride: usize,
        scale: bool,
        write: bool,
    ) {
        let scales = if scale { self.scales() } else { None };
        let (rows, cols, tile, kc) = (self.rows, self.cols, ops::tile(), ks.len());
        let mut scratch = Vec::new();
        for j0 in (0..cols).step_by(NR) {
            let w = NR.min(cols - j0);
            // Panel `j0 / NR` starts after `j0` full columns of every row;
            // the window is its rows `ks`.
            let window = j0 * rows + ks.start * w..j0 * rows + ks.end * w;
            let (out, sc) = (&mut out[j0..], scales.map(|s| &s[j0..]));
            match &self.values {
                Values::F32(v) => simd::run(tile, a, a_stride, m, kc, &v[window], w, out, o_stride, w, sc, write),
                Values::I8 { values, .. } if w == NR && m < WIDEN_FROM => {
                    simd::run(tile, a, a_stride, m, kc, &values[window], w, out, o_stride, w, sc, write);
                }
                Values::I8 { values, .. } => {
                    scratch.clear();
                    scratch.extend(values[window].iter().map(|&q| f32::from(q)));
                    simd::run(tile, a, a_stride, m, kc, &scratch, w, out, o_stride, w, sc, write);
                }
            }
        }
    }
}

/// `(rows, last)`: a tensor's trailing dim and how many rows of it the
/// leading dims hold — the `[m, k]` view the kernels read without a copy.
pub(crate) fn rows_of(t: &Tensor) -> (usize, usize) {
    let last = t.dim(t.rank() - 1);
    (t.numel().checked_div(last).unwrap_or(0), last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn acc_window_chunked_contraction_is_bitwise_exact() {
        // Accumulating ascending k-chunks must reproduce the monolithic
        // product bit-for-bit — the invariant the rank folds use.
        let mut rng = StdRng::seed_from_u64(13);
        let a = Tensor::randn(&mut rng, vec![5, 12], 1.0);
        let b = Tensor::randn(&mut rng, vec![12, 7], 1.0);
        let (full, packed) = (matmul_naive(&a, &b), PackedMatrix::pack(&b));
        for chunk in [1usize, 2, 3, 4, 6, 12] {
            let mut acc = Tensor::zeros(vec![5, 7]);
            let mut k0 = 0;
            while k0 < 12 {
                let kc = chunk.min(12 - k0);
                packed.matmul_acc_window(&a, 0..5, k0, k0, kc, acc.data_mut());
                k0 += kc;
            }
            assert_eq!(acc.max_abs_diff(&full), 0.0, "chunk {chunk}");
        }
    }

    #[test]
    fn into_cols_assembles_column_blocks() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Tensor::randn(&mut rng, vec![4, 9], 1.0);
        let b = Tensor::randn(&mut rng, vec![9, 10], 1.0);
        let full = matmul_naive(&a, &b);
        let mut out = Tensor::zeros(vec![4, 10]);
        for c0 in [6, 0, 3] {
            PackedMatrix::pack(&b.slice(1, c0, 3)).matmul_into_cols(&a, 0..4, &mut out, c0);
        }
        PackedMatrix::pack(&b.slice(1, 9, 1)).matmul_into_cols(&a, 0..4, &mut out, 9);
        assert_eq!(out.max_abs_diff(&full), 0.0);
        // A row window computes those rows alone and leaves the rest.
        let mut window = Tensor::full(vec![4, 10], 0.0);
        window.data_mut()[..10].fill(5.0);
        PackedMatrix::pack(&b).matmul_into_cols(&a, 1..3, &mut window, 0);
        assert_eq!(&window.data()[10..30], &full.data()[10..30]);
        assert!(window.data()[..10].iter().all(|&v| v == 5.0) && window.data()[30..].iter().all(|&v| v == 0.0));
    }
}
