//! The GEMM register tile: `MR × NR` outputs over one `k × NR` weight panel,
//! the one microkernel every GEMM in the crate runs
//! ([`crate::PackedMatrix`]'s family, and row-major [`crate::ops::matmul`]
//! once it has packed its right operand).
//!
//! # Bit-identity by construction
//!
//! The tile vectorises across output **columns**: each lane owns one output
//! element, which starts from the value already in `out` and takes one
//! serial chain of fused multiply-adds `acc = fma(a, b, acc)` in strictly
//! ascending `k`: the product is not rounded before it is added, and the
//! one rounding per step is the same on every tier, because every tier
//! (this tile in both forms, the scalar oracles, `mm_stream`, the attention
//! kernel) runs the same chain. An int8 panel is widened to f32 as it is
//! read, which is exact (every `i8` is an f32), and a per-column scale,
//! when given, multiplies each element once, at store, after its whole
//! chain. A lane therefore does the scalar oracle's arithmetic, element for
//! element, whatever the tile's shape or the vector width: `MR` and `NR`
//! decide the order *between* elements, never the chain *within* one.
//!
//! The tile is written twice with that arithmetic: explicit AVX-512F
//! (`_mm512_fmadd_ps`, masked loads and stores on a narrow panel's
//! columns), selected at run time, and safe Rust (`f32::mul_add`), which
//! runs when `ESTI_DISABLE_SIMD` is set or the host lacks AVX-512F or FMA
//! (see [`crate::ops::set_matmul_kernel`]). LLVM keeps the safe tile in
//! 256-bit registers under `target-cpu=native` on hosts that prefer them,
//! which is why the 512-bit one is written out; the safe tile walks its
//! panel one 16-column half at a time, so a half's `MR × 16` accumulators
//! stay in those registers too.
//!
//! # Safety contract of the AVX-512 tile
//!
//! [`run`] is the only way in, and it establishes every condition the
//! `unsafe` code relies on before it runs any:
//!
//! - **Feature detection.** [`Tile::Avx512`] reaches the explicit tile
//!   only after `run` asserts [`supported`], which asks the CPU at run
//!   time (`is_x86_feature_detected!` for `avx512f` and `fma`, the two
//!   features the tile is compiled with); `ops` selects it only then in the
//!   first place.
//! - **Slice bounds.** `run` asserts that the panel is exactly `k × NR`,
//!   that `a` holds `m` rows of `k` at stride `a_stride`, that `out` holds
//!   `m` rows of `w ≤ NR` at stride `o_stride`, and that `scales` holds at
//!   least `w`. The tile forms pointers only to row `r < R` of the rows
//!   left, column `kk < k` of `a`, row `kk < k` of the panel, and columns
//!   below `w` of `out` and `scales`.
//! - **The mask on a narrow panel.** Columns `w..NR` of `out` and `scales`
//!   may lie past the end of their slices. They are read and written only
//!   through `_mm512_maskz_loadu_ps` / `_mm512_mask_storeu_ps` under masks
//!   with exactly the lanes below `w` set, which access no masked-off lane
//!   (an all-zero mask touches no memory), and the pointer to the upper
//!   half is formed with `wrapping_add`, so no out-of-bounds pointer is
//!   ever offset or dereferenced.

/// Column width of the tile and of a stored panel: two 512-bit vectors.
pub(crate) const NR: usize = 32;
/// Row count of the tile: `MR × 2` accumulators, plus the two panel
/// vectors and a broadcast, fit the 32 vector registers of AVX-512.
pub(crate) const MR: usize = 8;

/// Which implementation of the tile runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tile {
    /// The safe-Rust tile.
    Portable,
    /// The explicit AVX-512F tile.
    Avx512,
}

/// A panel element: f32, or int8, widened (exactly) to f32 as it is read.
pub(crate) trait Elem: Copy + Into<f32> {
    /// Whether the element is an `i8`.
    const INT8: bool;
}

impl Elem for f32 {
    const INT8: bool = false;
}

impl Elem for i8 {
    const INT8: bool = true;
}

/// True when the host can run the AVX-512 tile.
#[must_use]
pub(crate) fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Calls `$body` with `$r` (1 to [`MR`]) bound to the constant `$R`, so a
/// tile of any row count keeps its accumulators in registers.
macro_rules! with_rows {
    ($r:expr, $R:ident => $body:expr) => {
        match $r {
            1 => { const $R: usize = 1; $body }
            2 => { const $R: usize = 2; $body }
            3 => { const $R: usize = 3; $body }
            4 => { const $R: usize = 4; $body }
            5 => { const $R: usize = 5; $body }
            6 => { const $R: usize = 6; $body }
            7 => { const $R: usize = 7; $body }
            8 => { const $R: usize = 8; $body }
            r => unreachable!("a tile has 1 to {MR} rows, not {r}"),
        }
    };
}

/// `out[i][j] = (out[i][j] + Σ_kk a[i][kk]·panel[kk][j]) · scales[j]`, the
/// sum one fused multiply-add per `kk`, for
/// the `m` rows of `a` (row stride `a_stride`) and `out` (row stride
/// `o_stride`), `kk` ascending over `0..k` and `j` over the first `w ≤ NR`
/// columns of the `k × NR` panel; unscaled when `scales` is `None`. Rows go
/// `MR` at a time, the last tile holding what is left.
///
/// # Panics
///
/// Panics if a slice is shorter than the dimensions imply, the panel is not
/// `k × NR`, `w > NR`, or `tile` is [`Tile::Avx512`] on a host without
/// AVX-512F and FMA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: Elem>(
    tile: Tile,
    a: &[f32],
    a_stride: usize,
    m: usize,
    k: usize,
    panel: &[T],
    out: &mut [f32],
    o_stride: usize,
    w: usize,
    scales: Option<&[f32]>,
) {
    if m == 0 || w == 0 {
        return;
    }
    assert!(w <= NR, "a panel is at most {NR} columns wide, not {w}");
    assert_eq!(panel.len(), k * NR, "a panel holds k = {k} rows of {NR}");
    assert!((m - 1) * a_stride + k <= a.len(), "a slice too short");
    assert!((m - 1) * o_stride + w <= out.len(), "out slice too short");
    assert!(scales.is_none_or(|s| s.len() >= w), "scales shorter than the panel's columns");
    assert!(tile == Tile::Portable || supported(), "the AVX-512 tile dispatched on a host without AVX-512F and FMA");
    let mut i = 0;
    while i < m {
        let r = MR.min(m - i);
        let (a, out) = (&a[i * a_stride..], &mut out[i * o_stride..]);
        with_rows!(r, R => match tile {
            Tile::Portable => portable::<R, T>(a, a_stride, k, panel, out, o_stride, w, scales),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the asserts above establish the module's contract:
            // AVX-512F and FMA are present, and `a` / `out` hold the
            // `R ≤ m - i` rows starting here, the panel `k × NR`, and
            // `scales` `w` columns.
            Tile::Avx512 => unsafe { avx512::tile::<R, T>(a, a_stride, k, panel, out, o_stride, w, scales) },
            #[cfg(not(target_arch = "x86_64"))]
            Tile::Avx512 => unreachable!("supported() is false off x86_64"),
        });
        i += r;
    }
}

/// Columns of a panel the safe tile holds at once: one half, so its `R × HALF`
/// accumulators fit the vector registers at 256 bits as well as at 512.
const HALF: usize = NR / 2;

/// The safe-Rust tile: `R` rows of [`run`]'s product over one panel, one
/// half of its columns at a time.
#[allow(clippy::too_many_arguments)]
fn portable<const R: usize, T: Elem>(
    a: &[f32],
    a_stride: usize,
    k: usize,
    panel: &[T],
    out: &mut [f32],
    o_stride: usize,
    w: usize,
    scales: Option<&[f32]>,
) {
    let brows = &panel.as_chunks::<NR>().0[..k];
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * a_stride..][..k]);
    for c0 in [0, HALF] {
        if c0 >= w {
            break;
        }
        let wc = HALF.min(w - c0);
        let acc = std::array::from_fn(|r| {
            let o = &out[r * o_stride + c0..][..wc];
            std::array::from_fn(|j| if j < wc { o[j] } else { 0.0 })
        });
        let acc = half_chain::<R, T>(&a_rows, brows, c0, acc);
        for (r, row) in acc.iter().enumerate() {
            let o = &mut out[r * o_stride + c0..][..wc];
            match scales {
                Some(s) => o.iter_mut().zip(row).zip(&s[c0..]).for_each(|((o, &x), &sv)| *o = x * sv),
                None => o.copy_from_slice(&row[..wc]),
            }
        }
    }
}

/// The chains of one half of [`portable`]'s tile: `acc[r][j] = fma(a[r][kk],
/// panel[kk][c0 + j], acc[r][j])` for every `kk` in ascending order. Every
/// index is a constant or bounded by `k`, so the accumulators stay in
/// registers for the whole walk.
#[inline(always)]
fn half_chain<const R: usize, T: Elem>(
    a_rows: &[&[f32]; R],
    brows: &[[T; NR]],
    c0: usize,
    mut acc: [[f32; HALF]; R],
) -> [[f32; HALF]; R] {
    for (kk, brow) in brows.iter().enumerate() {
        let b: [f32; HALF] = std::array::from_fn(|j| brow[c0 + j].into());
        for (row, a_r) in acc.iter_mut().zip(a_rows) {
            let av = a_r[kk];
            *row = std::array::from_fn(|j| av.mul_add(b[j], row[j]));
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m128i, __m512, __mmask16, _mm512_cvtepi32_ps, _mm512_cvtepi8_epi32, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm_loadu_si128,
    };

    use super::{Elem, NR};

    /// The lanes below `n ≤ 16` set.
    fn mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// Row `kk` of a panel whose row starts at `p`: `NR` values as two
    /// f32 vectors, an int8 row widened exactly.
    ///
    /// # Safety
    ///
    /// AVX-512F is present and `p` points at `NR` readable elements.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_row<T: Elem>(p: *const T) -> (__m512, __m512) {
        // SAFETY: the caller guarantees NR = 32 readable elements at `p`:
        // two 16-byte halves of an int8 row, two 16-lane halves of an f32 one.
        unsafe {
            if T::INT8 {
                let p = p.cast::<__m128i>();
                let widen = |q: *const __m128i| _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(q)));
                (widen(p), widen(p.add(1)))
            } else {
                let p = p.cast::<f32>();
                (_mm512_loadu_ps(p), _mm512_loadu_ps(p.add(16)))
            }
        }
    }

    /// The AVX-512F tile: `R` rows of `run`'s product over one panel.
    ///
    /// # Safety
    ///
    /// The host has AVX-512F and FMA; `a` holds `R` rows of `k` at `a_stride`,
    /// `out` `R` rows of `w ≤ NR` at `o_stride`, the panel `k × NR`, and
    /// `scales`, if given, at least `w` (the module's contract, which
    /// `super::run` asserts).
    #[target_feature(enable = "avx512f,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile<const R: usize, T: Elem>(
        a: &[f32],
        a_stride: usize,
        k: usize,
        panel: &[T],
        out: &mut [f32],
        o_stride: usize,
        w: usize,
        scales: Option<&[f32]>,
    ) {
        let (lo, hi) = (mask(w.min(16)), mask(w.saturating_sub(16)));
        let (ap, pp, op) = (a.as_ptr(), panel.as_ptr(), out.as_mut_ptr());
        // SAFETY: per the module contract, row r < R of `out` starts inside
        // the slice and its lanes below `w` are in bounds; lanes from `w`
        // are masked off and their upper-half pointer wraps; `a` row r
        // holds `k` values and the panel `k` rows of NR.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); 2]; R];
            for (r, v) in acc.iter_mut().enumerate() {
                let o = op.add(r * o_stride);
                *v = [_mm512_maskz_loadu_ps(lo, o), _mm512_maskz_loadu_ps(hi, o.wrapping_add(16))];
            }
            for kk in 0..k {
                let (b0, b1) = load_row(pp.add(kk * NR));
                for (r, v) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(r * a_stride + kk));
                    v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                    v[1] = _mm512_fmadd_ps(av, b1, v[1]);
                }
            }
            let sc = scales.map(|s| {
                let s = s.as_ptr();
                (_mm512_maskz_loadu_ps(lo, s), _mm512_maskz_loadu_ps(hi, s.wrapping_add(16)))
            });
            for (r, v) in acc.iter().enumerate() {
                let [mut v0, mut v1] = *v;
                if let Some((s0, s1)) = sc {
                    v0 = _mm512_mul_ps(v0, s0);
                    v1 = _mm512_mul_ps(v1, s1);
                }
                let o = op.add(r * o_stride);
                _mm512_mask_storeu_ps(o, lo, v0);
                _mm512_mask_storeu_ps(o.wrapping_add(16), hi, v1);
            }
        }
    }
}
