//! Numeric operators for Transformer inference.
//!
//! Includes the low-level optimizations called out in Section 3.5 of the
//! paper: softmax ([`softmax_base2`]) and the swish inside SwiGLU
//! ([`swiglu`]) are computed in base 2, `e^x = 2^(x·log2 e)`, through one
//! branch-free polynomial [`exp2`] that vectorises. It is the forward
//! path's only exponent, so every layout gets the same bits.
//!
//! The f32 GEMM has one shipped tier: an `MR × NR` register tile in safe
//! Rust that autovectorises under `target-cpu=native`. GEMMs of fewer than
//! `STREAM_BELOW` (8) rows (a decode step) and the `m % MR` rows left over
//! go to `mm_stream`, which reads each weight row once, front to back. The
//! int8 GEMM in [`crate::quant`] runs the same tile over a widened panel.
//! [`matmul_naive`] is the oracle.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::Tensor;

/// Which inner kernel the GEMM entry points dispatch to.
///
/// f32 has one shipped tier, the blocked register tile (autovectorised
/// under `target-cpu=native`), which `Simd` and `Blocked` both run, and one
/// oracle, `Naive`. The setting tells the two apart only for int8
/// products ([`crate::QuantizedMatrix`]): `Simd`, the default, runs the
/// explicit AVX2 int8 kernel when the host supports it and
/// `ESTI_DISABLE_SIMD` is unset, and the blocked tier otherwise. Every tier
/// accumulates every output element by one serial chain of mul-then-add
/// steps in strictly ascending `k` order, so for inputs without exact zeros
/// all of them produce bit-identical results (the f32 naive tier's
/// `av == 0.0` skip is the only divergence, and only on exact-zero
/// activations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// The shipped setting: the blocked f32 tile, and the explicit AVX2
    /// int8 kernel with runtime feature detection (falling back to
    /// `Blocked` on hosts without AVX2).
    Simd,
    /// The blocked register tile for both dtypes (the int8 oracle the AVX2
    /// kernel is checked against).
    Blocked,
    /// Scalar i-k-j kernels (f32 with the historical `av == 0.0` skip).
    Naive,
}

static MATMUL_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Serializes tests (here, in `quant`, and the kernel conformance suite)
/// that flip the process-wide kernel knob, so concurrently running tests
/// never observe a mid-test setting.
#[cfg(test)]
pub(crate) static KNOB_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Selects the kernel the GEMM entry points use, process-wide.
/// All kernels are correct; this is a benchmarking and oracle escape hatch.
pub fn set_matmul_kernel(kernel: MatmulKernel) {
    let v = match kernel {
        MatmulKernel::Simd => 0,
        MatmulKernel::Blocked => 1,
        MatmulKernel::Naive => 2,
    };
    MATMUL_KERNEL.store(v, Ordering::Relaxed);
}

/// The currently selected matmul kernel.
#[must_use]
pub fn matmul_kernel() -> MatmulKernel {
    match MATMUL_KERNEL.load(Ordering::Relaxed) {
        0 => MatmulKernel::Simd,
        1 => MatmulKernel::Blocked,
        _ => MatmulKernel::Naive,
    }
}

/// True unless `ESTI_DISABLE_SIMD` is set (to anything but `0`), read once.
fn simd_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !std::env::var_os("ESTI_DISABLE_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// True when the int8 GEMM entry points will actually run the AVX2 kernel:
/// the `Simd` tier is selected, `ESTI_DISABLE_SIMD` is unset, and the host
/// supports AVX2.
#[must_use]
pub fn simd_active() -> bool {
    matmul_kernel() == MatmulKernel::Simd && simd_enabled() && crate::simd::supported()
}

/// Column width of one register tile: `MR` accumulator rows of `NR` floats
/// stay resident in vector registers across the entire `k` loop.
pub(crate) const NR: usize = 32;
/// Row count of one register tile: independent accumulator chains per lane.
pub(crate) const MR: usize = 4;

/// Full-tile microkernel: `out[i..i+MR, j..j+NR] += a[i..i+MR, :] × b[:, j..j+NR]`.
/// All loop bounds are compile-time constants so the accumulator tile is
/// promoted to registers — the `k` loop touches memory only for the `b` row
/// slice and `MR` scalars of `a`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn mm_tile_full(
    ad: &[f32],
    a_stride: usize,
    bd: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    i: usize,
    j: usize,
    k: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        let o0 = (i + r) * o_stride + j;
        row.copy_from_slice(&out[o0..o0 + NR]);
    }
    for kk in 0..k {
        // Vetted: `[..NR]` fixes the slice length to NR before the
        // conversion; the microkernel is only entered on full tiles.
        #[allow(clippy::expect_used)]
        let brow: &[f32; NR] = bd[kk * b_stride + j..][..NR].try_into().expect("NR slice");
        for (r, row) in acc.iter_mut().enumerate() {
            let av = ad[(i + r) * a_stride + kk];
            // One separate add per k step — never a fused multi-term sum —
            // so every output element is a single serial chain in strictly
            // ascending k order, matching the scalar kernel bit-for-bit.
            for (x, &bv) in row.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let o0 = (i + r) * o_stride + j;
        out[o0..o0 + NR].copy_from_slice(row);
    }
}

/// Row count from which the register kernels take a GEMM's whole tiles.
/// Measured at this workspace's decode shapes (`kernel_speed.rs`,
/// `decode_shape_weight_bandwidth`): below two tiles of rows streaming reads
/// the weights 1.3–3× faster at 1–3 rows and is level or ahead up to 7 on all
/// but the narrowest shape; at 8 the register kernel is level or ahead.
const STREAM_BELOW: usize = 2 * MR;

/// Edge-tile microkernel for the `n % NR` column remainder: identical
/// accumulation order to [`mm_tile_full`], with a runtime tile width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_tile_edge(
    ad: &[f32],
    a_stride: usize,
    bd: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    i: usize,
    j: usize,
    k: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        let o0 = (i + r) * o_stride + j;
        row[..nr].copy_from_slice(&out[o0..o0 + nr]);
    }
    for kk in 0..k {
        let brow = &bd[kk * b_stride + j..][..nr];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = ad[(i + r) * a_stride + kk];
            for (x, &bv) in row[..nr].iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let o0 = (i + r) * o_stride + j;
        out[o0..o0 + nr].copy_from_slice(&row[..nr]);
    }
}

/// Register-tiled matmul core accumulating `out += a × b` over whole `MR`-row
/// tiles (`m` is a multiple of `MR`; [`mm_dispatch`] sends the rows that
/// cannot fill a tile to [`mm_stream`]), with explicit row strides so callers
/// can address sub-blocks of larger matrices without copying. Tiles the
/// output into `MR × NR` register blocks; the `j`-outer loop keeps the active
/// `k × NR` panel of `b` hot in L1/L2 across row tiles. Each output element
/// is accumulated by a single serial chain of additions in strictly
/// ascending `k` order — the property the gathered contractions rely on for
/// bit-identical results regardless of how the contraction is split.
#[allow(clippy::too_many_arguments)]
fn mm_kernel(
    ad: &[f32],
    a_stride: usize,
    bd: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(m.is_multiple_of(MR), "partial row tiles belong to mm_stream");
    let mut j = 0;
    while j + NR <= n {
        for i in (0..m).step_by(MR) {
            mm_tile_full(ad, a_stride, bd, b_stride, out, o_stride, i, j, k);
        }
        j += NR;
    }
    if j < n {
        for i in (0..m).step_by(MR) {
            mm_tile_edge(ad, a_stride, bd, b_stride, out, o_stride, i, j, k, n - j);
        }
    }
}

/// Small-`m` core: `out += a × b` walked `k`-outer / `j`-inner, so each row
/// of `b` is read once, front to back, while the few output rows stay in L1.
/// The register kernels instead walk `b` one narrow column panel at a time,
/// at a `b_stride` stride — the right trade once a panel is reused by many
/// row tiles, but with a handful of rows (a decode step) it is the whole cost
/// and the weights arrive at a third of the rate a sequential pass reads them
/// (EXPERIMENTS.md, "Decode what is live"). Per element this is the tiles'
/// chain exactly — `out += a[k]·b[k][j]`, one separate multiply and add per
/// ascending `k` — so the bits are theirs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_stream(
    ad: &[f32],
    a_stride: usize,
    bd: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    for kk in 0..k {
        let brow = &bd[kk * b_stride..][..n];
        for r in 0..m {
            let av = ad[r * a_stride + kk];
            for (x, &bv) in out[r * o_stride..][..n].iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
}

/// Strided GEMM core with kernel dispatch: fewer than [`STREAM_BELOW`] rows
/// (the decode regime) go to [`mm_stream`] whole; otherwise the whole
/// `MR`-row tiles go to the register kernel and only the `m % MR` left over
/// stream. The row split preserves bit identity: every output element is
/// one ascending-`k` mul+add chain either way.
#[allow(clippy::too_many_arguments)]
fn mm_dispatch(
    ad: &[f32],
    a_stride: usize,
    bd: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let tiled = if m < STREAM_BELOW { 0 } else { m / MR * MR };
    if tiled > 0 {
        mm_kernel(ad, a_stride, bd, b_stride, out, o_stride, tiled, k, n);
    }
    if tiled < m {
        let (a, out) = (&ad[tiled * a_stride..], &mut out[tiled * o_stride..]);
        mm_stream(a, a_stride, bd, b_stride, out, o_stride, m - tiled, k, n);
    }
}

/// The historical scalar kernel (i-k-j with a zero-skip), on raw slices.
fn mm_naive_kernel(ad: &[f32], bd: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Matrix product of rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// Runs the blocked register tile (see [`set_matmul_kernel`] for the
/// escape hatch back to the naive oracle). Every output element is accumulated in strictly ascending `k` order, so
/// splitting the contraction into chunks and accumulating the chunks in
/// order reproduces the monolithic result bit-for-bit.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use esti_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]);
/// let b = Tensor::from_vec(vec![2, 1], vec![3.0, 4.0]);
/// assert_eq!(ops::matmul(&a, &b).data(), &[11.0]);
/// ```
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let mut out = Tensor::zeros(vec![a.dim(0), b.dim(1)]);
    matmul_into(a, b, &mut out);
    out
}

/// `(rows, last)`: a tensor's trailing dim and how many rows of it the
/// leading dims hold — the `[m, k]` view the rank-2 kernels read without a
/// reshape copy.
fn rows_of(t: &Tensor) -> (usize, usize) {
    let last = t.dim(t.rank() - 1);
    (t.numel().checked_div(last).unwrap_or(0), last)
}

/// [`matmul`] into `out`, flattening leading dims: `a [.., k] × b [k, n]`
/// accumulates into `out [.., n]`, which holds `a`'s rows and which the
/// caller zeroes first. Same kernels and bits as [`matmul`] over the
/// flattened `[m, k]` view; nothing is copied to change a shape.
///
/// # Panics
///
/// Panics if `b` is not rank 2, the inner dimensions disagree, or `out`
/// does not hold `a`'s rows of `n` columns.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = rows_of(a);
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    assert_eq!(rows_of(out), (m, n), "matmul output shape mismatch");
    if matmul_kernel() == MatmulKernel::Naive {
        mm_naive_kernel(a.data(), b.data(), out.data_mut(), m, k, n);
    } else {
        mm_dispatch(a.data(), k, b.data(), n, out.data_mut(), n, m, k, n);
    }
}

/// The pre-optimization scalar matmul, kept as a correctness oracle: i-k-j
/// loop order with an `av == 0.0` skip. Bit-identical to [`matmul`] for
/// inputs without exact zeros (both accumulate in ascending `k` order).
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
#[must_use]
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    mm_naive_kernel(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec(vec![m, n], out)
}

/// Accumulates `out += a[rows, c0..c0+kc] × b[r0..r0+kc, :]`: one source
/// rank's contraction chunk over a block of `a`'s rows (its leading dims
/// flattened), its window of columns read in place at row stride `a`'s
/// trailing dim, into `out`'s `rows.len()` rows of `b`'s width.
/// Ascending-`k` accumulation, so chunking an ascending range reproduces
/// one matmul over the whole range bit-for-bit.
///
/// # Panics
///
/// Panics on shape mismatch or if a window exceeds its operand.
pub fn matmul_acc_window(
    a: &Tensor,
    rows: std::ops::Range<usize>,
    c0: usize,
    b: &Tensor,
    r0: usize,
    kc: usize,
    out: &mut [f32],
) {
    assert_eq!(b.rank(), 2, "matmul_acc_window rhs must be rank-2");
    let (m, k) = rows_of(a);
    let n = b.dim(1);
    assert!(rows.start <= rows.end && rows.end <= m, "row block {rows:?} exceeds {m}");
    assert!(c0 + kc <= k, "column window {c0}+{kc} exceeds {k}");
    assert!(r0 + kc <= b.dim(0), "row range {r0}+{kc} exceeds {}", b.dim(0));
    assert_eq!(out.len(), rows.len() * n, "matmul_acc_window output shape mismatch");
    if rows.is_empty() {
        return;
    }
    let bd = &b.data()[r0 * n..];
    mm_dispatch(&a.data()[rows.start * k + c0..], k, bd, n, out, n, rows.len(), kc, n);
}

/// Writes `a × b` into columns `[c0, c0 + b.dim(1))` of `out`
/// (accumulating; the target region is normally zero-initialized), `a`'s
/// and `out`'s leading dims flattened. Lets a streamed weight-gather
/// assemble its output column block by column block.
///
/// # Panics
///
/// Panics on rank/shape mismatch or if the column range exceeds `out`.
pub fn matmul_into_cols(a: &Tensor, b: &Tensor, out: &mut Tensor, c0: usize) {
    assert_eq!(b.rank(), 2, "matmul_into_cols rhs must be rank-2");
    let (m, k) = rows_of(a);
    let (k2, cn) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_into_cols inner dimension mismatch: {k} vs {k2}");
    let (m_out, n_out) = rows_of(out);
    assert_eq!(m_out, m, "matmul_into_cols row count mismatch");
    assert!(c0 + cn <= n_out, "column range {c0}+{cn} exceeds {n_out}");
    mm_dispatch(a.data(), k, b.data(), cn, &mut out.data_mut()[c0..], n_out, m, k, cn);
}

/// `out = a + b` elementwise, overwriting every element of `out`: the
/// write-into form of `&a + &b`.
///
/// # Panics
///
/// Panics unless all three shapes agree.
pub fn add_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in zip_with");
    assert_eq!(out.shape(), a.shape(), "add_into output shape mismatch");
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = x + y;
    }
}

/// In-place elementwise `out += src` in flat index order — the same serial
/// per-element add as the allocating `&out + &src`, without the allocation.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add_assign(out: &mut Tensor, src: &Tensor) {
    assert_eq!(out.shape(), src.shape(), "add_assign shape mismatch");
    for (o, s) in out.data_mut().iter_mut().zip(src.data()) {
        *o += s;
    }
}

/// `2^x`, branch-free so that a loop over it vectorises: the forward
/// path's one exponent (softmax, the attention kernel, SwiGLU).
///
/// `x` is split as `n + f` with `n = round(x)` (the `1.5·2²³` add and
/// subtract, ties to even) and `f ∈ [−½, ½]`; `2^f` is Cephes' degree-6
/// polynomial `1 + f·P(f)` in Horner form, a separate multiply and add per
/// step (no FMA, like every other chain here); `2^n` is built from its
/// exponent bits. Within 1 ULP of the correctly rounded `2^x` on
/// `[−126, 127]`. Outside it: `x < −126` (and `−∞`) gives `+0` rather than
/// a subnormal, `x ≥ 127.5` (and `+∞`) gives `+∞`, and NaN gives NaN.
#[must_use]
#[inline]
pub fn exp2(x: f32) -> f32 {
    /// Adding it rounds any `|x| < 2²²` to an integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    const P: [f32; 6] = [
        1.535_336_2e-4,
        1.339_887_4e-3,
        9.618_437e-3,
        5.550_332_4e-2,
        2.402_264_8e-1,
        6.931_472e-1,
    ];
    // Both compares are false for NaN, which flows through to the result.
    let c = if x < -126.0 { -126.0 } else { x };
    let c = if c > 128.0 { 128.0 } else { c };
    let t = c + ROUND;
    let f = c - (t - ROUND);
    let mut p = P[0];
    for &k in &P[1..] {
        p = p * f + k;
    }
    let p = 1.0 + f * p;
    // n + 127 is the biased exponent of 2^n: 1 at n = −126, 255 (= +∞) at 128.
    let scale = f32::from_bits(t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(127) << 23);
    // The flush selects the scale, not the result: with the product inside
    // an `if`, LLVM sinks the polynomial into a branch and nothing vectorises.
    let scale = if x < -126.0 { 0.0 } else { scale };
    p * scale
}

/// Softmax along the last dimension, computed in base 2 (Section 3.5's
/// "faster log-base-2 implementations of Softmax"): `e^(v − max)` is
/// [`exp2`]`((v − max)·log2 e)`, and the base cancels in the normalization.
/// Each row sums its terms from `0` in ascending order, then divides.
///
/// # Panics
///
/// Panics on a rank-0 tensor or an empty last dimension.
#[must_use]
pub fn softmax_base2(t: &Tensor) -> Tensor {
    // Vetted: the documented shape-check panic for rank-0 input — an
    // assert with a message, not a swallowed runtime fault.
    #[allow(clippy::expect_used)]
    let last = *t.shape().last().expect("softmax of rank-0 tensor");
    assert!(last > 0, "softmax over empty dimension");
    let rows = t.numel() / last;
    let mut out = vec![0.0f32; t.numel()];
    for r in 0..rows {
        let row = &t.data()[r * last..(r + 1) * last];
        let orow = &mut out[r * last..(r + 1) * last];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = exp2((v - max) * std::f32::consts::LOG2_E);
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    Tensor::from_vec(t.shape().to_vec(), out)
}

/// Layer normalization along the last dimension with learned `gain`
/// (PaLM-style: no bias, epsilon inside the square root).
///
/// # Panics
///
/// Panics if `gain` is not rank 1 matching the last dimension of `t`.
#[must_use]
pub fn layernorm(t: &Tensor, gain: &Tensor, eps: f32) -> Tensor {
    let mut out = Tensor::zeros(t.shape().to_vec());
    layernorm_into(t, gain, eps, &mut out);
    out
}

/// [`layernorm`] into `out` (shaped like `t`), overwriting every element.
///
/// # Panics
///
/// As [`layernorm`], or if `out` is not shaped like `t`.
pub fn layernorm_into(t: &Tensor, gain: &Tensor, eps: f32, out: &mut Tensor) {
    // Vetted: the documented shape-check panic for rank-0 input — an
    // assert with a message, not a swallowed runtime fault.
    #[allow(clippy::expect_used)]
    let last = *t.shape().last().expect("layernorm of rank-0 tensor");
    assert_eq!(gain.shape(), &[last], "layernorm gain shape mismatch");
    assert_eq!(out.shape(), t.shape(), "layernorm output shape mismatch");
    for (row, orow) in t.data().chunks(last).zip(out.data_mut().chunks_mut(last)) {
        let mean: f32 = row.iter().sum::<f32>() / last as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((o, &v), &g) in orow.iter_mut().zip(row).zip(gain.data()) {
            *o = (v - mean) * inv * g;
        }
    }
}

/// SwiGLU combination: `swish(gate) ⊙ up`, the element-wise product at the
/// heart of PaLM's feedforward block, with swish `g · sigmoid(g)` computed
/// in base 2 (Section 3.5) as `g / (1 + 2^(−g·log2 e))`.
///
/// # Panics
///
/// Panics if the two tensors have different shapes.
#[must_use]
pub fn swiglu(gate: &Tensor, up: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(gate.shape().to_vec());
    swiglu_into(gate, up, &mut out);
    out
}

/// [`swiglu`] into `out`, overwriting every element, in one pass: each
/// element is the rounded swish `g / (1 + 2^(−g·log2 e))` times `up`.
///
/// # Panics
///
/// Panics unless all three shapes agree.
pub fn swiglu_into(gate: &Tensor, up: &Tensor, out: &mut Tensor) {
    assert_eq!(gate.shape(), up.shape(), "shape mismatch in zip_with");
    assert_eq!(out.shape(), gate.shape(), "swiglu output shape mismatch");
    for ((o, &g), &u) in out.data_mut().iter_mut().zip(gate.data()).zip(up.data()) {
        *o = swiglu1(g, u);
    }
}

/// [`swiglu`] in place over one operand: `out` holds `gate` when
/// `out_is_gate`, else `up`, and `other` holds the other; each element
/// becomes the same rounded `swish(gate) · up`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn swiglu_assign(out: &mut Tensor, other: &Tensor, out_is_gate: bool) {
    assert_eq!(out.shape(), other.shape(), "shape mismatch in zip_with");
    for (o, &v) in out.data_mut().iter_mut().zip(other.data()) {
        *o = if out_is_gate { swiglu1(*o, v) } else { swiglu1(v, *o) };
    }
}

/// One SwiGLU element: the rounded swish `g / (1 + 2^(−g·log2 e))`, times `u`.
#[inline]
fn swiglu1(g: f32, u: f32) -> f32 {
    g / (1.0 + exp2(-g * std::f32::consts::LOG2_E)) * u
}

/// Applies a lower-triangular causal mask to attention scores shaped
/// `[..., l_q, l_k]`, where query position `i` may attend to key positions
/// `0..=i + (l_k - l_q)` (the offset handles decode steps where cached keys
/// precede the queries).
///
/// # Panics
///
/// Panics if `l_k < l_q` interpreted from the final two dimensions.
#[must_use]
pub fn causal_mask(scores: &Tensor) -> Tensor {
    let rank = scores.rank();
    assert!(rank >= 2, "causal_mask needs rank >= 2");
    let l_q = scores.dim(rank - 2);
    let l_k = scores.dim(rank - 1);
    assert!(l_k >= l_q, "key length {l_k} shorter than query length {l_q}");
    let offset = l_k - l_q;
    let mats = scores.numel() / (l_q * l_k);
    let mut out = scores.data().to_vec();
    for m in 0..mats {
        for i in 0..l_q {
            for j in (offset + i + 1)..l_k {
                out[(m * l_q + i) * l_k + j] = f32::NEG_INFINITY;
            }
        }
    }
    Tensor::from_vec(scores.shape().to_vec(), out)
}

/// Rotary positional embedding (RoPE; Su et al. 2021, used by PaLM).
///
/// `t` is `[B, L, H·d_head]`; each head's dimension pairs `(2i, 2i+1)` are
/// rotated by angle `p / 10000^(2i/d_head)` where `p = base_pos + l` is the
/// token's absolute position. `base_pos` carries the KV-cache offset so
/// incremental prefill and decode rotate consistently with a single-shot
/// prefill.
///
/// The rotation is local to each head's dimensions and depends only on the
/// absolute position, so it commutes with head sharding and batch sharding
/// — the property the partitioned runtime relies on.
///
/// # Panics
///
/// Panics if `t` is not rank 3, `d_head` is odd, or the last dimension is
/// not a multiple of `d_head`.
#[must_use]
pub fn rope(t: &Tensor, d_head: usize, base_pos: usize) -> Tensor {
    rope_rows(t, d_head, &vec![base_pos; t.shape().first().copied().unwrap_or(0)])
}

/// Per-row-base variant of [`rope`]: batch row `bi`'s positions start at
/// `bases[bi]` instead of one shared `base_pos`, so sequences of different
/// ages can share a batch (continuous batching). Each element's rotation
/// depends only on its own row's absolute position, so for uniform `bases`
/// this is bit-identical to [`rope`].
///
/// # Panics
///
/// Panics if `t` is not rank 3, `d_head` is odd, the last dimension is not
/// a multiple of `d_head`, or `bases` disagrees with the batch dim.
#[must_use]
pub fn rope_rows(t: &Tensor, d_head: usize, bases: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(t.shape().to_vec());
    rope_rows_into(t, d_head, bases, &mut out);
    out
}

/// [`rope_rows`] into `out` (shaped like `t`), overwriting every element.
///
/// # Panics
///
/// As [`rope_rows`], or if `out` is not shaped like `t`.
pub fn rope_rows_into(t: &Tensor, d_head: usize, bases: &[usize], out: &mut Tensor) {
    assert_eq!(t.rank(), 3, "rope expects [B, L, H*d_head]");
    assert!(d_head.is_multiple_of(2), "rope requires an even d_head");
    let (l, hd) = (t.dim(1), t.dim(2));
    assert!(hd % d_head == 0, "last dimension must be a multiple of d_head");
    assert_eq!(bases.len(), t.dim(0), "one position base per batch row");
    assert_eq!(out.shape(), t.shape(), "rope output shape mismatch");
    let heads = hd / d_head;
    let half = d_head / 2;
    // Inverse frequencies once; sin/cos once per (position, i).
    let inv_freq: Vec<f32> = (0..half)
        .map(|i| 1.0 / 10000f32.powf(2.0 * i as f32 / d_head as f32))
        .collect();
    let (src, dst) = (t.data(), out.data_mut());
    for (bi, &base) in bases.iter().enumerate() {
        for li in 0..l {
            let p = (base + li) as f32;
            for (i, &f) in inv_freq.iter().enumerate() {
                let (sin, cos) = (p * f).sin_cos();
                for h in 0..heads {
                    let off = ((bi * l + li) * hd) + h * d_head + 2 * i;
                    let (x0, x1) = (src[off], src[off + 1]);
                    dst[off] = x0 * cos - x1 * sin;
                    dst[off + 1] = x0 * sin + x1 * cos;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&mut rng, vec![4, 6], 1.0);
        assert!(matmul(&a, &Tensor::eye(6)).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_checks_dims() {
        let _ = matmul(&Tensor::zeros(vec![2, 3]), &Tensor::zeros(vec![4, 2]));
    }

    #[test]
    fn add_assign_is_bit_identical_to_the_allocating_add() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&mut rng, vec![3, 4], 1.0);
        let b = Tensor::randn(&mut rng, vec![3, 4], 1.0);
        let mut acc = a.clone();
        add_assign(&mut acc, &b);
        assert_eq!(acc.data(), (&a + &b).data());
    }

    /// ULPs between `exp2(x)` and the correctly rounded `2^x`, over every
    /// `step`-th bit pattern of `[−126, 127]`; returns the largest distance
    /// and how many patterns were off by one.
    fn exp2_ulp_sweep(step: usize) -> (u32, u64) {
        let (mut worst, mut off) = (0, 0);
        let negative = (-0.0f32).to_bits()..=(-126.0f32).to_bits();
        for bits in (0..=127.0f32.to_bits()).step_by(step).chain(negative.step_by(step)) {
            let x = f32::from_bits(bits);
            let want = (f64::exp2(f64::from(x)) as f32).to_bits();
            let ulps = exp2(x).to_bits().abs_diff(want);
            assert!(ulps <= 1, "exp2({x:e}) is {ulps} ULPs from 2^x");
            worst = worst.max(ulps);
            off += u64::from(ulps);
        }
        (worst, off)
    }

    #[test]
    fn exp2_is_within_one_ulp_on_a_strided_sweep() {
        exp2_ulp_sweep(1021);
    }

    #[test]
    #[ignore = "exhaustive: every f32 in [−126, 127], about a minute in release"]
    fn exp2_is_within_one_ulp_everywhere() {
        let (worst, off) = exp2_ulp_sweep(1);
        println!("exp2: worst {worst} ULP, {off} inputs off by one");
    }

    #[test]
    fn exp2_special_values_and_clamps() {
        let bits = |x: f32| exp2(x).to_bits();
        // A masked key scores −∞ and must add exactly +0 to Σe.
        assert_eq!(bits(f32::NEG_INFINITY), 0.0f32.to_bits());
        assert_eq!(bits(0.0), 1.0f32.to_bits());
        assert_eq!(bits(-0.0), 1.0f32.to_bits());
        assert_eq!(bits(-126.0), f32::MIN_POSITIVE.to_bits());
        assert_eq!(bits(127.0), 2.0f32.powi(127).to_bits());
        assert!(exp2(f32::NAN).is_nan());
        // Below −126 the result flushes to +0 rather than a subnormal.
        let below = f32::from_bits((-126.0f32).to_bits() + 1);
        for x in [below, -126.5, -149.0, -1e30] {
            assert_eq!(bits(x), 0.0f32.to_bits(), "exp2({x})");
        }
        // From 127.5 up the result is +∞.
        let under = f32::from_bits(127.5f32.to_bits() - 1);
        assert!(exp2(under).is_finite());
        for x in [127.5, 128.0, 1e30, f32::INFINITY] {
            assert_eq!(bits(x), f32::INFINITY.to_bits(), "exp2({x})");
        }
    }

    #[test]
    fn swiglu_into_and_assign_are_swiglu1_elementwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut gate = Tensor::randn(&mut rng, vec![4, 33], 4.0);
        // Gates whose `−g·log2 e` leaves `[−126, 127.5)` meet exp2's clamps.
        gate.data_mut()[..6].copy_from_slice(&[-200.0, -90.0, -0.0, 90.0, 200.0, f32::INFINITY]);
        let up = Tensor::randn(&mut rng, vec![4, 33], 1.0);
        let want: Vec<u32> =
            gate.data().iter().zip(up.data()).map(|(&g, &u)| swiglu1(g, u).to_bits()).collect();
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = Tensor::zeros(vec![4, 33]);
        swiglu_into(&gate, &up, &mut out);
        assert_eq!(bits(&out), want);
        let mut in_gate = gate.clone();
        swiglu_assign(&mut in_gate, &up, true);
        assert_eq!(bits(&in_gate), want);
        let mut in_up = up.clone();
        swiglu_assign(&mut in_up, &gate, false);
        assert_eq!(bits(&in_up), want);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_base2(&t);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_vec(vec![1, 2], vec![1000.0, 1000.0]);
        let s = softmax_base2(&t);
        assert!((s.at(&[0, 0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn layernorm_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor::randn(&mut rng, vec![3, 32], 4.0);
        let n = layernorm(&t, &Tensor::ones(vec![32]), 1e-6);
        for r in 0..3 {
            let row = &n.data()[r * 32..(r + 1) * 32];
            let mean: f32 = row.iter().sum::<f32>() / 32.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 32.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layernorm_applies_gain() {
        let t = Tensor::from_vec(vec![1, 2], vec![-1.0, 1.0]);
        let n = layernorm(&t, &Tensor::from_vec(vec![2], vec![2.0, 3.0]), 0.0);
        assert!((n.at(&[0, 0]) + 2.0).abs() < 1e-5);
        assert!((n.at(&[0, 1]) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn causal_mask_prefill_shape() {
        let s = Tensor::zeros(vec![1, 3, 3]);
        let m = causal_mask(&s);
        // row i can see columns 0..=i
        assert_eq!(m.at(&[0, 0, 1]), f32::NEG_INFINITY);
        assert_eq!(m.at(&[0, 1, 1]), 0.0);
        assert_eq!(m.at(&[0, 1, 2]), f32::NEG_INFINITY);
        assert_eq!(m.at(&[0, 2, 2]), 0.0);
    }

    #[test]
    fn causal_mask_decode_offset() {
        // one query attending over 4 cached keys: nothing masked
        let s = Tensor::zeros(vec![1, 1, 4]);
        let m = causal_mask(&s);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn swiglu_zero_gate_kills_output() {
        let gate = Tensor::zeros(vec![4]);
        let up = Tensor::ones(vec![4]);
        assert!(swiglu(&gate, &up).data().iter().all(|&v| v == 0.0));
    }

    proptest! {
        #[test]
        fn prop_matmul_distributes_over_addition(seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&mut rng, vec![3, 4], 1.0);
            let b = Tensor::randn(&mut rng, vec![4, 2], 1.0);
            let c = Tensor::randn(&mut rng, vec![4, 2], 1.0);
            let lhs = matmul(&a, &(&b + &c));
            let rhs = &matmul(&a, &b) + &matmul(&a, &c);
            prop_assert!(lhs.approx_eq(&rhs, 1e-4));
        }

        #[test]
        fn prop_matmul_transpose_identity(seed in 0u64..100) {
            // (A B)^T == B^T A^T
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&mut rng, vec![3, 5], 1.0);
            let b = Tensor::randn(&mut rng, vec![5, 2], 1.0);
            let lhs = matmul(&a, &b).transpose();
            let rhs = matmul(&b.transpose(), &a.transpose());
            prop_assert!(lhs.approx_eq(&rhs, 1e-4));
        }

        #[test]
        fn prop_softmax_invariant_to_shift(seed in 0u64..100, shift in -10.0f32..10.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Tensor::randn(&mut rng, vec![2, 9], 1.0);
            let shifted = t.map(|v| v + shift);
            prop_assert!(softmax_base2(&t).approx_eq(&softmax_base2(&shifted), 1e-5));
        }

        #[test]
        fn prop_rope_preserves_norm(seed in 0u64..100, base in 0usize..64) {
            // Rotation is an isometry on every (2i, 2i+1) pair.
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Tensor::randn(&mut rng, vec![2, 3, 8], 1.0);
            let r = rope(&t, 4, base);
            let norm = |x: &Tensor| x.data().iter().map(|v| v * v).sum::<f32>();
            prop_assert!((norm(&t) - norm(&r)).abs() / norm(&t) < 1e-4);
        }

        #[test]
        fn prop_rope_dot_product_is_relative(seed in 0u64..50, shift in 0usize..32) {
            // The defining property: <rope(q, p+s), rope(k, p'+s)> depends
            // only on p - p', so shifting both positions leaves attention
            // scores unchanged.
            let mut rng = StdRng::seed_from_u64(seed);
            let q = Tensor::randn(&mut rng, vec![1, 1, 8], 1.0);
            let k = Tensor::randn(&mut rng, vec![1, 1, 8], 1.0);
            let dot = |a: &Tensor, b: &Tensor| -> f32 {
                a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
            };
            let d0 = dot(&rope(&q, 8, 5), &rope(&k, 8, 2));
            let d1 = dot(&rope(&q, 8, 5 + shift), &rope(&k, 8, 2 + shift));
            prop_assert!((d0 - d1).abs() < 1e-3, "{d0} vs {d1}");
        }
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = Tensor::randn(&mut rng, vec![1, 1, 8], 1.0);
        assert!(rope(&t, 8, 0).approx_eq(&t, 1e-6));
    }

    #[test]
    fn rope_base_offset_matches_position() {
        // rope over [L=2] at base 3 must equal per-row rope at bases 3, 4.
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&mut rng, vec![1, 2, 8], 1.0);
        let whole = rope(&t, 4, 3);
        let row0 = rope(&t.slice(1, 0, 1), 4, 3);
        let row1 = rope(&t.slice(1, 1, 1), 4, 4);
        assert!(whole.slice(1, 0, 1).approx_eq(&row0, 1e-6));
        assert!(whole.slice(1, 1, 1).approx_eq(&row1, 1e-6));
    }

    #[test]
    fn rope_rows_uniform_bases_bitwise_equals_rope() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = Tensor::randn(&mut rng, vec![3, 2, 8], 1.0);
        let uniform = rope_rows(&t, 4, &[7, 7, 7]);
        assert_eq!(uniform.data(), rope(&t, 4, 7).data());
    }

    #[test]
    fn rope_rows_rotates_each_row_at_its_own_base() {
        // Ragged bases must match slicing each row out and applying the
        // uniform rope at that row's base — bitwise, since per-element
        // arithmetic is identical.
        let mut rng = StdRng::seed_from_u64(13);
        let t = Tensor::randn(&mut rng, vec![2, 3, 8], 1.0);
        let ragged = rope_rows(&t, 4, &[0, 11]);
        for (bi, base) in [(0usize, 0usize), (1, 11)] {
            let row = rope(&t.slice(0, bi, 1), 4, base);
            assert_eq!(ragged.slice(0, bi, 1).data(), row.data(), "row {bi}");
        }
    }

    #[test]
    #[should_panic(expected = "one position base per batch row")]
    fn rope_rows_checks_base_count() {
        let _ = rope_rows(&Tensor::zeros(vec![2, 1, 4]), 4, &[0]);
    }

    #[test]
    fn rope_is_head_local() {
        // Rotating a two-head tensor equals rotating each head separately.
        let mut rng = StdRng::seed_from_u64(8);
        let t = Tensor::randn(&mut rng, vec![1, 2, 8], 1.0);
        let both = rope(&t, 4, 9);
        let h0 = rope(&t.slice(2, 0, 4), 4, 9);
        let h1 = rope(&t.slice(2, 4, 4), 4, 9);
        assert!(both.slice(2, 0, 4).approx_eq(&h0, 1e-6));
        assert!(both.slice(2, 4, 4).approx_eq(&h1, 1e-6));
    }

    #[test]
    #[should_panic(expected = "even d_head")]
    fn rope_rejects_odd_head_dim() {
        let _ = rope(&Tensor::zeros(vec![1, 1, 3]), 3, 0);
    }

    #[test]
    fn blocked_matches_naive_oracle_bitwise() {
        // Sizes crossing the NB/MR tile boundaries and k % 4 remainders.
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 13, 9), (4, 4, 129), (5, 130, 131), (33, 17, 257)] {
            let a = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let b = Tensor::randn(&mut rng, vec![k, n], 1.0);
            let blocked = matmul(&a, &b);
            let naive = matmul_naive(&a, &b);
            assert_eq!(blocked.max_abs_diff(&naive), 0.0, "({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_acc_window_chunked_contraction_is_bitwise_exact() {
        // Accumulating ascending k-chunks must reproduce the monolithic
        // product bit-for-bit — the invariant the looped collectives use.
        let mut rng = StdRng::seed_from_u64(13);
        let a = Tensor::randn(&mut rng, vec![5, 12], 1.0);
        let b = Tensor::randn(&mut rng, vec![12, 7], 1.0);
        let full = matmul(&a, &b);
        for chunk in [1usize, 2, 3, 4, 6, 12] {
            let mut acc = Tensor::zeros(vec![5, 7]);
            let mut k0 = 0;
            while k0 < 12 {
                let kc = chunk.min(12 - k0);
                matmul_acc_window(&a, 0..5, k0, &b, k0, kc, acc.data_mut());
                k0 += kc;
            }
            assert_eq!(acc.max_abs_diff(&full), 0.0, "chunk {chunk}");
        }
    }

    #[test]
    fn matmul_into_cols_assembles_column_blocks() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Tensor::randn(&mut rng, vec![4, 9], 1.0);
        let b = Tensor::randn(&mut rng, vec![9, 10], 1.0);
        let full = matmul(&a, &b);
        let mut out = Tensor::zeros(vec![4, 10]);
        for c0 in [6, 0, 3] {
            matmul_into_cols(&a, &b.slice(1, c0, 3), &mut out, c0);
        }
        matmul_into_cols(&a, &b.slice(1, 9, 1), &mut out, 9);
        assert_eq!(out.max_abs_diff(&full), 0.0);
    }

    #[test]
    fn kernel_knob_roundtrips() {
        let _guard = KNOB_TEST_LOCK.lock().unwrap();
        assert_eq!(matmul_kernel(), MatmulKernel::Simd, "Simd is the default tier");
        for kernel in [MatmulKernel::Blocked, MatmulKernel::Naive, MatmulKernel::Simd] {
            set_matmul_kernel(kernel);
            assert_eq!(matmul_kernel(), kernel);
        }
    }

    #[test]
    fn blocked_knob_forces_the_blocked_fallback() {
        let _guard = KNOB_TEST_LOCK.lock().unwrap();
        set_matmul_kernel(MatmulKernel::Blocked);
        assert!(!simd_active(), "the Blocked setting must not run the AVX2 tier");
        set_matmul_kernel(MatmulKernel::Simd);
        assert_eq!(simd_active(), simd_enabled() && crate::simd::supported());
    }

    proptest! {
        #[test]
        fn prop_blocked_equals_naive(seed in 0u64..200, m in 1usize..9, k in 1usize..40, n in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let b = Tensor::randn(&mut rng, vec![k, n], 1.0);
            prop_assert_eq!(matmul(&a, &b).max_abs_diff(&matmul_naive(&a, &b)), 0.0);
        }
    }
}
