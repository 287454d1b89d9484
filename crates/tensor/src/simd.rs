//! The explicit AVX2 int8 GEMM kernel: the `Simd` setting of
//! [`crate::ops::set_matmul_kernel`] runs int8 products here. f32 has no
//! explicit SIMD kernel; its blocked tile autovectorises under
//! `target-cpu=native` and measured faster (EXPERIMENTS.md, "One f32 GEMM
//! tier").
//!
//! # Bit-identity by construction
//!
//! The kernel vectorizes across output **columns**: each SIMD lane owns
//! one output element, and every element is accumulated by one serial
//! chain of mul-then-add steps in strictly ascending `k` order — always
//! `_mm256_mul_ps` followed by `_mm256_add_ps`, never an FMA, which
//! would fuse the intermediate rounding and change the bits. A lane
//! therefore performs exactly the scalar kernel's arithmetic, element
//! for element, and the SIMD tier is bit-identical to the blocked and
//! scalar oracles regardless of tile shape (each element sees exactly one
//! full-`k` pass, so MR/NR choices only affect traversal order *between*
//! elements, never the chain *within* one).
//!
//! It widens `i8` panels with SIMD (`_mm256_cvtepi8_epi32` +
//! `_mm256_cvtepi32_ps`, exact — every `i8` is representable in f32) and
//! folds the per-column scale once at tile store. Folding at store is
//! bitwise identical to the scalar path's post-pass multiply because the
//! scaled entry points all start from a zeroed target: `(0 + sum) * s`
//! either way.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m128i, __m256, _mm256_add_ps, _mm256_cvtepi8_epi32, _mm256_cvtepi32_ps, _mm256_loadu_ps,
    _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm_loadl_epi64,
};

/// Columns per SIMD tile: two 8-lane ymm vectors of independent outputs.
const NR: usize = 16;
/// Rows per SIMD tile: 4 rows × 2 column vectors = 8 ymm accumulators,
/// which with the broadcast register and two b-row loads stays within
/// the 16 ymm registers AVX2 offers.
const MR: usize = 4;

/// True when the host can run the AVX2 kernel in this module.
#[must_use]
pub fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Bounds contract for the strided kernel below; the `unsafe` pointer
/// arithmetic inside the tiles stays within these slices.
#[allow(clippy::too_many_arguments)]
fn check_gemm_bounds(
    a_len: usize,
    a_stride: usize,
    b_len: usize,
    b_stride: usize,
    o_len: usize,
    o_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 {
        return;
    }
    assert!(k <= a_stride || m == 1, "a rows must not overlap");
    assert!((m - 1) * a_stride + k <= a_len, "a slice too short");
    assert!(k == 0 || (k - 1) * b_stride + n <= b_len, "b slice too short");
    assert!((m - 1) * o_stride + n <= o_len, "out slice too short");
}

/// AVX2 int8 GEMM core, strided like `quant::qmm_kernel`: widens NR-wide
/// `i8` column panels once per block with SIMD, contracts with the same
/// ascending-`k` mul+add chains as the scalar tiers, and (when `scales` is
/// given) folds the per-column scale once at tile store. The scaled form
/// requires a zeroed `out` (all scaled entry points guarantee it).
///
/// # Panics
///
/// Panics if the host lacks AVX2, the slices are shorter than the
/// dimensions imply, or `scales` is shorter than `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_i8(
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
    assert!(supported(), "AVX2 kernel dispatched on a non-AVX2 host");
    check_gemm_bounds(ad.len(), a_stride, vd.len(), v_stride, out.len(), o_stride, m, k, n);
    if let Some(s) = scales {
        assert!(s.len() >= n, "scales slice shorter than the column count");
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 availability asserted above; index arithmetic bounded
    // by check_gemm_bounds and the scales length check.
    unsafe {
        mm_i8_avx2(ad, a_stride, vd, v_stride, out, o_stride, m, k, n, scales);
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("supported() is false off x86_64");
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn mm_i8_avx2(
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
    // k×NR f32 panel, widened once per column block and reused across
    // every row tile — the dequant cost amortizes over all m rows.
    let mut panel = vec![0.0f32; k * NR];
    let mut j = 0;
    while j + NR <= n {
        // SAFETY: j+NR <= n and the vd bounds were checked in mm_i8.
        unsafe {
            for kk in 0..k {
                let src = vd.as_ptr().add(kk * v_stride + j);
                let dst = panel.as_mut_ptr().add(kk * NR);
                // 8 i8 lanes → 8 f32 lanes, exact (i8 ⊂ f32).
                let lo = _mm_loadl_epi64(src.cast::<__m128i>());
                let hi = _mm_loadl_epi64(src.add(8).cast::<__m128i>());
                _mm256_storeu_ps(dst, _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(lo)));
                _mm256_storeu_ps(dst.add(8), _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(hi)));
            }
        }
        let sc = scales.map(|s| {
            // SAFETY: s.len() >= n >= j + NR, checked in mm_i8.
            unsafe { (_mm256_loadu_ps(s.as_ptr().add(j)), _mm256_loadu_ps(s.as_ptr().add(j + 8))) }
        });
        let mut i = 0;
        while i + MR <= m {
            i8_tile::<MR>(ad, a_stride, &panel, out, o_stride, i, j, k, sc);
            i += MR;
        }
        while i < m {
            i8_tile::<1>(ad, a_stride, &panel, out, o_stride, i, j, k, sc);
            i += 1;
        }
        j += NR;
    }
    if j < n {
        // Column remainder: scalar widen + ascending-k chains + one
        // post-contraction scale — the scalar oracle's exact arithmetic.
        for i in 0..m {
            for jj in j..n {
                let mut acc = out[i * o_stride + jj];
                for kk in 0..k {
                    acc += ad[i * a_stride + kk] * f32::from(vd[kk * v_stride + jj]);
                }
                if let Some(s) = scales {
                    acc *= s[jj];
                }
                out[i * o_stride + jj] = acc;
            }
        }
    }
}

/// One `R×NR` int8 tile over the pre-widened panel; when `sc` is given
/// the per-column scale is folded exactly once, at store, after the full
/// contraction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn i8_tile<const R: usize>(
    ad: &[f32],
    a_stride: usize,
    panel: &[f32],
    out: &mut [f32],
    o_stride: usize,
    i: usize,
    j: usize,
    k: usize,
    sc: Option<(__m256, __m256)>,
) {
    // SAFETY (all pointer math in this fn): caller keeps i+R <= m and
    // j+NR <= n under the bounds checked in mm_i8; panel is k×NR.
    unsafe {
        let ap = ad.as_ptr();
        let pp = panel.as_ptr();
        let op = out.as_mut_ptr();
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for (r, a) in acc.iter_mut().enumerate() {
            let o0 = op.add((i + r) * o_stride + j);
            a[0] = _mm256_loadu_ps(o0);
            a[1] = _mm256_loadu_ps(o0.add(8));
        }
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(pp.add(kk * NR));
            let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
            for (r, a) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add((i + r) * a_stride + kk));
                a[0] = _mm256_add_ps(a[0], _mm256_mul_ps(av, b0));
                a[1] = _mm256_add_ps(a[1], _mm256_mul_ps(av, b1));
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let (mut v0, mut v1) = (a[0], a[1]);
            if let Some((s0, s1)) = sc {
                v0 = _mm256_mul_ps(v0, s0);
                v1 = _mm256_mul_ps(v1, s1);
            }
            let o0 = op.add((i + r) * o_stride + j);
            _mm256_storeu_ps(o0, v0);
            _mm256_storeu_ps(o0.add(8), v1);
        }
    }
}
