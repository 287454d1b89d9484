//! Numeric operators for Transformer inference.
//!
//! Includes the low-level optimizations called out in Section 3.5 of the
//! paper: softmax ([`softmax_base2`]) and the swish inside SwiGLU
//! ([`swiglu`]) are computed in base 2, `e^x = 2^(x·log2 e)`, through one
//! branch-free polynomial [`exp2`] that vectorises. It is the forward
//! path's only exponent, so every layout gets the same bits.
//!
//! Every GEMM runs one register tile (the crate's `simd` module) over a
//! weight stored in panel order ([`crate::PackedMatrix`]). A row-major
//! [`matmul`] of at least `STREAM_BELOW` (8) rows packs its right operand
//! for the call and runs that tile; one of fewer rows goes to `mm_stream`,
//! which reads each weight row once, front to back. [`gemm_strided`] runs
//! the tile over operands read in place at their row strides (the
//! attention kernel's two contractions). [`matmul_naive`] is the oracle.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::packed::rows_of;
use crate::simd::{self, Tile, MR, NR};
use crate::{PackedMatrix, Tensor};

/// Which inner kernel the GEMM entry points dispatch to.
///
/// There is one tile, written twice: `Simd`, the default, runs its explicit
/// AVX-512F form when the host supports it and `ESTI_DISABLE_SIMD` is unset,
/// and its safe-Rust form otherwise; `Blocked` always runs the safe-Rust
/// form, for f32 and int8 alike. `Naive` runs the scalar oracles. Every
/// tier accumulates every output element by one serial chain of fused
/// multiply-adds, `acc = a.mul_add(b, acc)`, in strictly ascending `k`
/// order, so all of them produce bit-identical results, except that the row-major f32 oracle
/// [`matmul_naive`] skips exact-zero activations (`av == 0.0`), which can
/// turn a `-0.0` into `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// The shipped setting: the AVX-512F tile with runtime feature
    /// detection, falling back to `Blocked` on hosts without AVX-512F.
    Simd,
    /// The safe-Rust tile (the reference the AVX-512F tile is checked
    /// against).
    Blocked,
    /// Scalar i-k-j kernels (row-major f32 with the historical `av == 0.0`
    /// skip).
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

/// The tile the GEMMs run under the current setting, or `None` for the
/// scalar oracles.
pub(crate) fn tile() -> Option<Tile> {
    match matmul_kernel() {
        MatmulKernel::Naive => None,
        MatmulKernel::Blocked => Some(Tile::Portable),
        MatmulKernel::Simd if simd_enabled() && simd::supported() => Some(Tile::Avx512),
        MatmulKernel::Simd => Some(Tile::Portable),
    }
}

/// True when the GEMM entry points will actually run the AVX-512F tile:
/// the `Simd` setting is selected, `ESTI_DISABLE_SIMD` is unset, and the
/// host supports AVX-512F.
#[must_use]
pub fn simd_active() -> bool {
    tile() == Some(Tile::Avx512)
}

/// Row count from which a row-major [`matmul`] packs its right operand and
/// runs the tile; below it, [`mm_stream`] reads the weights once, row by
/// row, and packing them would cost more than it saves. Measured with
/// `kernel_speed tiers_at_workload_shapes`: at 12 rows over a hot
/// `256 × 256` weight, packing then tiling took 50 µs against streaming's
/// 119; at 8 rows over cold weights the two were level but for one shape.
const STREAM_BELOW: usize = MR;

/// Small-`m` core: `out += a × b` walked `k`-outer / `j`-inner, so each row
/// of `b` is read once, front to back, while the few output rows stay in L1.
/// Per element this is the tile's chain exactly — `out = fma(a[k], b[k][j],
/// out)`, one fused multiply-add per ascending `k` — so the bits are its.
fn mm_stream(ad: &[f32], bd: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for kk in 0..k {
        let brow = &bd[kk * n..][..n];
        for r in 0..m {
            let av = ad[r * k + kk];
            for (x, &bv) in out[r * n..][..n].iter_mut().zip(brow) {
                *x = av.mul_add(bv, *x);
            }
        }
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
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Matrix product of rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// Runs the register tile over `b` packed for the call, or the streamed
/// schedule for fewer than `STREAM_BELOW` rows (see [`set_matmul_kernel`]
/// for the escape hatch back to the naive oracle). Every output element is
/// accumulated in strictly ascending `k` order.
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
    match tile() {
        None => mm_naive_kernel(a.data(), b.data(), out.data_mut(), m, k, n),
        Some(_) if m < STREAM_BELOW => mm_stream(a.data(), b.data(), out.data_mut(), m, k, n),
        Some(_) => PackedMatrix::pack(b).gemm(a.data(), k, m, 0..k, out.data_mut(), n, false),
    }
}

/// `out[i][j] = (out[i][j] + Σ_kk a[i][kk]·b[kk][j])·scale` over slices
/// read in place: the `m` rows of `a` (row stride `a_stride`, `k` values
/// each), the `k` rows of `b` (row stride `b_stride`, `n` values each) and
/// the `m` rows of `out` (row stride `o_stride`, `n` values each), the sum
/// one fused multiply-add per ascending `kk` onto the value already in
/// `out`, then one multiply by `scale` if given. Dispatches like every GEMM
/// ([`set_matmul_kernel`]): the register tile over `b`'s columns 32 at a
/// time, AVX-512F or safe Rust, or under `Naive` the scalar chain; all
/// three give the same bits. The attention kernel's two contractions run
/// here: scores over a KV page's stored `Kᵀ` (`b_stride` = the page size)
/// and outputs over its V rows.
///
/// # Panics
///
/// Panics if a slice is shorter than its rows and stride imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided(
    a: &[f32],
    a_stride: usize,
    m: usize,
    k: usize,
    b: &[f32],
    b_stride: usize,
    n: usize,
    out: &mut [f32],
    o_stride: usize,
    scale: Option<f32>,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(k == 0 || (k - 1) * b_stride + n <= b.len(), "b slice too short");
    assert!((m - 1) * o_stride + n <= out.len(), "out slice too short");
    let scales = scale.map(|s| [s; NR]);
    let tile = tile();
    for j0 in (0..n).step_by(NR) {
        let w = NR.min(n - j0);
        let (b, out, sc) = (&b[j0..], &mut out[j0..], scales.as_ref().map(|s| &s[..]));
        match tile {
            Some(t) => simd::run(t, a, a_stride, m, k, b, b_stride, out, o_stride, w, sc),
            None => simd::scalar(a, a_stride, m, k, b, b_stride, out, o_stride, w, sc),
        }
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
/// step. The GEMM and attention chains fuse every step; this one stays
/// unfused, because the exhaustive 1-ULP sweep below proved this form and
/// a fused Horner rounds differently. Every caller shares this function,
/// so the bits agree across layouts either way. `2^n` is built from its
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
    rope_rows_into(t, d_head, bases, &vec![t.dim(1); bases.len()], &mut out);
    out
}

/// [`rope_rows`] of the first `lens[bi]` positions of each batch row `bi`
/// into `out` (shaped like `t`); the positions past them are written as
/// zeros, and no rotation is computed for them.
///
/// # Panics
///
/// As [`rope_rows`], if `out` is not shaped like `t`, or if `lens` does not
/// give each batch row at most `L` positions.
pub fn rope_rows_into(t: &Tensor, d_head: usize, bases: &[usize], lens: &[usize], out: &mut Tensor) {
    assert_eq!(t.rank(), 3, "rope expects [B, L, H*d_head]");
    assert!(d_head.is_multiple_of(2), "rope requires an even d_head");
    let (l, hd) = (t.dim(1), t.dim(2));
    assert!(hd % d_head == 0, "last dimension must be a multiple of d_head");
    assert_eq!(bases.len(), t.dim(0), "one position base per batch row");
    assert_eq!(out.shape(), t.shape(), "rope output shape mismatch");
    assert_eq!(lens.len(), t.dim(0), "one length per batch row");
    let heads = hd / d_head;
    let half = d_head / 2;
    // Inverse frequencies once; sin/cos once per (position, i).
    let inv_freq: Vec<f32> = (0..half)
        .map(|i| 1.0 / 10000f32.powf(2.0 * i as f32 / d_head as f32))
        .collect();
    let (src, dst) = (t.data(), out.data_mut());
    for (bi, (&base, &n)) in bases.iter().zip(lens).enumerate() {
        assert!(n <= l, "row {bi} has {n} positions, more than {l}");
        dst[(bi * l + n) * hd..(bi + 1) * l * hd].fill(0.0);
        for li in 0..n {
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
        // Sizes on both sides of STREAM_BELOW, crossing the MR / NR tile
        // boundaries.
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [(1, 1, 1), (3, 5, 2), (7, 13, 9), (4, 4, 129), (5, 130, 131), (33, 17, 257), (16, 8, 32), (21, 3, 70)];
        for (m, k, n) in shapes {
            let a = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let b = Tensor::randn(&mut rng, vec![k, n], 1.0);
            let blocked = matmul(&a, &b);
            let naive = matmul_naive(&a, &b);
            assert_eq!(blocked.max_abs_diff(&naive), 0.0, "({m},{k},{n})");
        }
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
        assert!(!simd_active(), "the Blocked setting must not run the AVX-512 tile");
        set_matmul_kernel(MatmulKernel::Simd);
        assert_eq!(simd_active(), simd_enabled() && crate::simd::supported());
    }

    proptest! {
        #[test]
        fn prop_blocked_equals_naive(seed in 0u64..200, m in 1usize..40, k in 1usize..40, n in 1usize..70) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&mut rng, vec![m, k], 1.0);
            let b = Tensor::randn(&mut rng, vec![k, n], 1.0);
            prop_assert_eq!(matmul(&a, &b).max_abs_diff(&matmul_naive(&a, &b)), 0.0);
        }
    }
}
