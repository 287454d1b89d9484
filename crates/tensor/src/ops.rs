//! Numeric operators for Transformer inference.
//!
//! Includes the low-level optimizations called out in Section 3.5 of the
//! paper: a log-base-2 softmax ([`softmax_base2`]) and log-base-2 swish
//! ([`swish_base2`]) that replace `exp` with the cheaper `exp2`, exploiting
//! `e^x = 2^(x·log2 e)`.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::Tensor;

/// Which inner matmul kernel [`matmul`] dispatches to.
///
/// `Simd` is the default and resolves at dispatch time: the AVX2 kernels
/// run when the host supports them and SIMD has not been disabled
/// ([`set_simd_enabled`] / `ESTI_DISABLE_SIMD=1`), otherwise execution
/// falls back to the blocked tier. The blocked and naive kernels are kept
/// as the bitwise oracles and so benchmarks can measure the older tiers
/// in the same binary. Every tier accumulates every output element by one
/// serial chain of mul-then-add steps in strictly ascending `k` order, so
/// for inputs without exact zeros all three produce bit-identical results
/// (the naive tier's `av == 0.0` skip is the only divergence, and only on
/// exact-zero activations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// Explicit AVX2 SIMD kernel with runtime feature detection; falls
    /// back to `Blocked` on hosts without AVX2.
    Simd,
    /// Cache-blocked, 4×-unrolled scalar kernel (the bitwise oracle).
    Blocked,
    /// Scalar i-k-j kernel with the historical `av == 0.0` skip.
    Naive,
}

static MATMUL_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Serializes tests (here, in `quant`, and the kernel conformance suite)
/// that flip the process-wide kernel knob, so concurrently running tests
/// never observe a mid-test setting.
#[cfg(test)]
pub(crate) static KNOB_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Selects the kernel used by [`matmul`] / [`batched_matmul`] process-wide.
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

/// SIMD enablement: 0 = undecided (consult `ESTI_DISABLE_SIMD` once),
/// 1 = enabled, 2 = disabled.
static SIMD_STATE: AtomicU8 = AtomicU8::new(0);

fn simd_enabled() -> bool {
    match SIMD_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = std::env::var_os("ESTI_DISABLE_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
            SIMD_STATE.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Enables or disables the AVX2 SIMD tier process-wide, overriding the
/// `ESTI_DISABLE_SIMD` environment default. With SIMD disabled the `Simd`
/// knob setting resolves to the blocked tier — the forced-scalar fallback
/// non-AVX2 hosts take automatically.
pub fn set_simd_enabled(on: bool) {
    SIMD_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// True when the GEMM entry points will actually run the AVX2 kernels:
/// the `Simd` tier is selected, SIMD is not disabled, and the host
/// supports AVX2.
#[must_use]
pub fn simd_active() -> bool {
    matmul_kernel() == MatmulKernel::Simd && simd_enabled() && crate::simd::supported()
}

/// Column width of one register tile: `MR` accumulator rows of `NR` floats
/// stay resident in vector registers across the entire `k` loop.
const NR: usize = 32;
/// Row count of one register tile: independent accumulator chains per lane.
/// The SIMD tier tiles the same number of rows, so one rule in
/// [`mm_dispatch`] decides which rows fill a tile under either tier.
const MR: usize = crate::simd::MR;

/// Full-tile microkernel: `out[i..i+MR, j..j+NR] += a[i..i+MR, :] × b[:, j..j+NR]`.
/// All loop bounds are compile-time constants so the accumulator tile is
/// promoted to registers — the `k` loop touches memory only for the `b` row
/// slice and `MR` scalars of `a`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn mm_tile_full(
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

/// Row count from which the register kernels take a band's whole tiles.
/// Measured at this workspace's decode shapes (`kernel_speed.rs`,
/// `decode_shape_weight_bandwidth`): below two tiles of rows streaming reads
/// the weights 1.3–3× faster at 1–3 rows and is level or ahead up to 7 on all
/// but the narrowest shape; at 8 the register kernel is level or ahead.
const STREAM_BELOW: usize = 2 * MR;

/// Edge-tile microkernel for the `n % NR` column remainder: identical
/// accumulation order to [`mm_tile_full`], with a runtime tile width.
#[allow(clippy::too_many_arguments)]
fn mm_tile_edge(
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
fn mm_stream(
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

/// Strided GEMM core with kernel dispatch and deterministic row-banded
/// parallelism: when the calling thread has a chip worker pool installed
/// ([`crate::pool::with_worker_pool`]), splits the `m` output rows into
/// disjoint bands — one per worker. A band of fewer than [`STREAM_BELOW`]
/// rows (the decode regime) goes to [`mm_stream`] whole; otherwise its whole
/// `MR`-row tiles go to the register kernel the process-wide knob resolves
/// to (AVX2 SIMD when active, blocked scalar otherwise) and only the
/// `rows % MR` left over stream. Kernel tier, row split and banding are all
/// bit-identity preserving: every output element is one ascending-`k`
/// mul+add chain computed by exactly one worker, so any knob/worker-count
/// combination produces identical bits.
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
    let simd = simd_active();
    crate::pool::partition_rows(m, k, n, out, o_stride, |r0, rows, band| {
        let a = &ad[r0 * a_stride..];
        let tiled = if rows < STREAM_BELOW { 0 } else { rows / MR * MR };
        if tiled > 0 {
            if simd {
                crate::simd::mm_f32(a, a_stride, bd, b_stride, band, o_stride, tiled, k, n);
            } else {
                mm_kernel(a, a_stride, bd, b_stride, band, o_stride, tiled, k, n);
            }
        }
        if tiled < rows {
            let (a, band) = (&a[tiled * a_stride..], &mut band[tiled * o_stride..]);
            mm_stream(a, a_stride, bd, b_stride, band, o_stride, rows - tiled, k, n);
        }
    });
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
/// Dispatches to the AVX2 SIMD kernel when active, falling back to the
/// cache-blocked scalar kernel (see [`set_matmul_kernel`] and
/// [`set_simd_enabled`] for the escape hatches back to the oracles).
/// Every output element is accumulated in strictly ascending `k` order, so
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
    if matmul_kernel() == MatmulKernel::Naive {
        return matmul_naive(a, b);
    }
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    mm_dispatch(a.data(), k, b.data(), n, &mut out, n, m, k, n);
    Tensor::from_vec(vec![m, n], out)
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

/// Accumulates `out += a × b[r0..r0+a.dim(1), :]` — a contraction-chunk
/// update against a row range of `b`, used to stream all-gathered chunks
/// through an einsum. Accumulation stays in ascending `k` order within the
/// chunk, so chunk-by-chunk accumulation over an ascending range equals a
/// single matmul over the whole range bit-for-bit.
///
/// # Panics
///
/// Panics on rank/shape mismatch or if the row range exceeds `b`.
pub fn matmul_acc_rows(a: &Tensor, b: &Tensor, r0: usize, out: &mut Tensor) {
    assert_eq!(a.rank(), 2, "matmul_acc_rows lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_acc_rows rhs must be rank-2");
    assert_eq!(out.rank(), 2, "matmul_acc_rows out must be rank-2");
    let (m, kc) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    assert!(r0 + kc <= b.dim(0), "row range {r0}+{kc} exceeds {}", b.dim(0));
    assert_eq!(out.shape(), &[m, n], "matmul_acc_rows output shape mismatch");
    let bd = &b.data()[r0 * n..];
    mm_dispatch(a.data(), kc, bd, n, out.data_mut(), n, m, kc, n);
}

/// Writes `a × b` into columns `[c0, c0 + b.dim(1))` of `out`
/// (accumulating; the target region is normally zero-initialized). Lets a
/// streamed weight-gather assemble its output column block by column block.
///
/// # Panics
///
/// Panics on rank/shape mismatch or if the column range exceeds `out`.
pub fn matmul_into_cols(a: &Tensor, b: &Tensor, out: &mut Tensor, c0: usize) {
    assert_eq!(a.rank(), 2, "matmul_into_cols lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_into_cols rhs must be rank-2");
    assert_eq!(out.rank(), 2, "matmul_into_cols out must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, cn) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_into_cols inner dimension mismatch: {k} vs {k2}");
    assert_eq!(out.dim(0), m, "matmul_into_cols row count mismatch");
    let n_out = out.dim(1);
    assert!(c0 + cn <= n_out, "column range {c0}+{cn} exceeds {n_out}");
    mm_dispatch(a.data(), k, b.data(), cn, &mut out.data_mut()[c0..], n_out, m, k, cn);
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

/// Batched matrix product: `[b, m, k] × [b, k, n] → [b, m, n]`.
///
/// Writes every batch element directly into one preallocated output buffer
/// — no per-batch slice/reshape/concat allocations on the attention hot
/// path.
///
/// # Panics
///
/// Panics if inputs are not rank 3 or batch/inner dimensions disagree.
#[must_use]
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "batched_matmul lhs must be rank-3");
    assert_eq!(b.rank(), 3, "batched_matmul rhs must be rank-3");
    assert_eq!(a.dim(0), b.dim(0), "batch dimension mismatch");
    let (batch, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let (k2, n) = (b.dim(1), b.dim(2));
    assert_eq!(k, k2, "batched_matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; batch * m * n];
    let (ad, bd) = (a.data(), b.data());
    let naive = matmul_kernel() == MatmulKernel::Naive;
    for i in 0..batch {
        let a_i = &ad[i * m * k..(i + 1) * m * k];
        let b_i = &bd[i * k * n..(i + 1) * k * n];
        let o_i = &mut out[i * m * n..(i + 1) * m * n];
        if naive {
            mm_naive_kernel(a_i, b_i, o_i, m, k, n);
        } else {
            mm_dispatch(a_i, k, b_i, n, o_i, n, m, k, n);
        }
    }
    Tensor::from_vec(vec![batch, m, n], out)
}

/// Numerically-stable softmax along the last dimension.
#[must_use]
pub fn softmax(t: &Tensor) -> Tensor {
    softmax_impl(t, f32::exp)
}

/// Softmax computed in base 2 (Section 3.5's "faster log-base-2
/// implementations of Softmax").
///
/// Mathematically identical to [`softmax`] because the base cancels in the
/// normalization after rescaling logits by `log2(e)`; on real hardware
/// `exp2` is cheaper than `exp`.
#[must_use]
pub fn softmax_base2(t: &Tensor) -> Tensor {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    softmax_impl(t, |v| (v * LOG2_E).exp2())
}

fn softmax_impl(t: &Tensor, exp: impl Fn(f32) -> f32) -> Tensor {
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
            *o = exp(v - max);
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
    // Vetted: the documented shape-check panic for rank-0 input — an
    // assert with a message, not a swallowed runtime fault.
    #[allow(clippy::expect_used)]
    let last = *t.shape().last().expect("layernorm of rank-0 tensor");
    assert_eq!(gain.shape(), &[last], "layernorm gain shape mismatch");
    let rows = t.numel() / last;
    let mut out = vec![0.0f32; t.numel()];
    for r in 0..rows {
        let row = &t.data()[r * last..(r + 1) * last];
        let orow = &mut out[r * last..(r + 1) * last];
        let mean: f32 = row.iter().sum::<f32>() / last as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((o, &v), &g) in orow.iter_mut().zip(row).zip(gain.data()) {
            *o = (v - mean) * inv * g;
        }
    }
    Tensor::from_vec(t.shape().to_vec(), out)
}

/// The swish / SiLU activation `x · sigmoid(x)` used inside PaLM's SwiGLU.
#[must_use]
pub fn swish(t: &Tensor) -> Tensor {
    t.map(|v| v / (1.0 + (-v).exp()))
}

/// Swish computed with `exp2` (Section 3.5). Identical to [`swish`] up to
/// floating-point rounding.
#[must_use]
pub fn swish_base2(t: &Tensor) -> Tensor {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    t.map(|v| v / (1.0 + (-v * LOG2_E).exp2()))
}

/// SwiGLU combination: `swish(gate) ⊙ up`, the element-wise product at the
/// heart of PaLM's feedforward block.
///
/// # Panics
///
/// Panics if the two tensors have different shapes.
#[must_use]
pub fn swiglu(gate: &Tensor, up: &Tensor) -> Tensor {
    &swish(gate) * up
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
    assert_eq!(t.rank(), 3, "rope expects [B, L, H*d_head]");
    assert!(d_head.is_multiple_of(2), "rope requires an even d_head");
    let (b, l, hd) = (t.dim(0), t.dim(1), t.dim(2));
    assert!(hd % d_head == 0, "last dimension must be a multiple of d_head");
    let heads = hd / d_head;
    let half = d_head / 2;
    // Precompute inverse frequencies and per-(position, i) sin/cos.
    let inv_freq: Vec<f32> = (0..half)
        .map(|i| 1.0 / 10000f32.powf(2.0 * i as f32 / d_head as f32))
        .collect();
    let mut out = t.data().to_vec();
    for li in 0..l {
        let p = (base_pos + li) as f32;
        for (i, &f) in inv_freq.iter().enumerate() {
            let (sin, cos) = (p * f).sin_cos();
            for bi in 0..b {
                for h in 0..heads {
                    let off = ((bi * l + li) * hd) + h * d_head + 2 * i;
                    let (x0, x1) = (out[off], out[off + 1]);
                    out[off] = x0 * cos - x1 * sin;
                    out[off + 1] = x0 * sin + x1 * cos;
                }
            }
        }
    }
    Tensor::from_vec(vec![b, l, hd], out)
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
    assert_eq!(t.rank(), 3, "rope expects [B, L, H*d_head]");
    assert!(d_head.is_multiple_of(2), "rope requires an even d_head");
    let (b, l, hd) = (t.dim(0), t.dim(1), t.dim(2));
    assert!(hd % d_head == 0, "last dimension must be a multiple of d_head");
    assert_eq!(bases.len(), b, "one position base per batch row");
    let heads = hd / d_head;
    let half = d_head / 2;
    let inv_freq: Vec<f32> = (0..half)
        .map(|i| 1.0 / 10000f32.powf(2.0 * i as f32 / d_head as f32))
        .collect();
    let mut out = t.data().to_vec();
    for (bi, &base) in bases.iter().enumerate() {
        for li in 0..l {
            let p = (base + li) as f32;
            for (i, &f) in inv_freq.iter().enumerate() {
                let (sin, cos) = (p * f).sin_cos();
                for h in 0..heads {
                    let off = ((bi * l + li) * hd) + h * d_head + 2 * i;
                    let (x0, x1) = (out[off], out[off + 1]);
                    out[off] = x0 * cos - x1 * sin;
                    out[off + 1] = x0 * sin + x1 * cos;
                }
            }
        }
    }
    Tensor::from_vec(vec![b, l, hd], out)
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
    fn batched_matmul_matches_loop() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(&mut rng, vec![3, 2, 4], 1.0);
        let b = Tensor::randn(&mut rng, vec![3, 4, 5], 1.0);
        let c = batched_matmul(&a, &b);
        assert_eq!(c.shape(), &[3, 2, 5]);
        for i in 0..3 {
            let ai = a.slice(0, i, 1).into_reshape(vec![2, 4]);
            let bi = b.slice(0, i, 1).into_reshape(vec![4, 5]);
            let ci = c.slice(0, i, 1).into_reshape(vec![2, 5]);
            assert!(matmul(&ai, &bi).approx_eq(&ci, 1e-6));
        }
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

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax(&t);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_vec(vec![1, 2], vec![1000.0, 1000.0]);
        let s = softmax(&t);
        assert!((s.at(&[0, 0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_base2_matches_softmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(&mut rng, vec![5, 17], 3.0);
        assert!(softmax(&t).approx_eq(&softmax_base2(&t), 1e-5));
    }

    #[test]
    fn swish_base2_matches_swish() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::randn(&mut rng, vec![64], 2.0);
        assert!(swish(&t).approx_eq(&swish_base2(&t), 1e-5));
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
            prop_assert!(softmax(&t).approx_eq(&softmax(&shifted), 1e-5));
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
    fn matmul_acc_rows_chunked_contraction_is_bitwise_exact() {
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
                matmul_acc_rows(&a.slice(1, k0, kc), &b, k0, &mut acc);
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
    fn simd_toggle_forces_the_blocked_fallback() {
        let _guard = KNOB_TEST_LOCK.lock().unwrap();
        let initial = simd_enabled();
        set_simd_enabled(false);
        assert!(!simd_active(), "disabled SIMD must not be active");
        set_simd_enabled(true);
        assert_eq!(simd_active(), crate::simd::supported());
        // Restore the ESTI_DISABLE_SIMD-derived state for later tests.
        set_simd_enabled(initial);
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
