//! The register tile: `MR × w` outputs (`w ≤ NR`) over one `k × w` panel,
//! the one microkernel every GEMM and the attention kernel run
//! ([`crate::PackedMatrix`]'s family, row-major [`crate::ops::matmul`]
//! once it has packed its right operand, and [`crate::ops::gemm_strided`],
//! through which `esti-model`'s attention scores `Q·Kᵀ` and sums `P·V`
//! over its KV pages).
//!
//! A panel is `k` rows of `w` values, each row starting `p_stride` values
//! after the one before: a packed weight's panel has `p_stride = w`, a KV
//! page's `Kᵀ` panel the page size, a V page's the cache's row width.
//!
//! # Bit-identity by construction
//!
//! The tile vectorises across output **columns**: each lane owns one output
//! element, which starts from the value already in `out` (accumulate mode)
//! or from `+0.0` in a register (write mode, where `out` is only stored to)
//! and takes one serial chain of fused multiply-adds `acc = fma(a, b, acc)`
//! in strictly ascending `k`: the product is not rounded before it is
//! added, and the one rounding per step is the same everywhere, because
//! this tile in both forms, `mm_stream` and [`crate::ops::matmul_naive`],
//! the scalar chain every entry point is held to, all run it. A chain
//! started from `+0.0` in a register is the chain started from a stored
//! `+0.0`, so write mode gives the bits accumulate mode gives over a zeroed
//! `out`, without the caller's zero-fill or the tile's load of it.
//! An int8 panel is widened to f32 as it is read, which is exact (every
//! `i8` is an f32), and a per-column scale, when given, multiplies each
//! element once, at store, after its whole chain. A lane therefore does the
//! scalar chain's arithmetic, element for element, whatever the tile's
//! shape, the panel's stride or the vector width: `MR` and `NR` decide the
//! order *between* elements, never the chain *within* one.
//!
//! The tile is written twice with that arithmetic: explicit AVX-512F
//! (`_mm512_fmadd_ps`, masked loads and stores on a panel's columns),
//! selected at run time, and safe Rust (`f32::mul_add`), which runs when
//! `ESTI_DISABLE_SIMD` is set or the host lacks AVX-512F or FMA (the one
//! switch, read in `ops`). LLVM keeps the safe tile in 256-bit
//! registers under `target-cpu=native` on hosts that prefer them, which is
//! why the 512-bit one is written out; the safe tile walks its panel one
//! 16-column half at a time, so a half's `MR × 16` accumulators stay in
//! those registers too. A panel at most 16 columns wide (a KV page of 16
//! keys, a narrow last weight panel, a `d_head` of 16) takes the AVX-512
//! tile's one-vector path: one accumulator per row and one masked panel
//! load per step, so no lane of a second vector is computed and dropped.
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
//! - **Slice bounds.** `run` asserts that `a` holds `m` rows of `k` at
//!   stride `a_stride`, that the panel holds `k` rows of `w ≤ NR` at stride
//!   `p_stride` (`(k − 1)·p_stride + w` values), that `out` holds `m` rows
//!   of `w` at stride `o_stride`, that `scales` holds at least `w`, and that
//!   an int8 panel is `NR` wide. The tile forms pointers only to row `r <
//!   R` of the rows left, column `kk < k` of `a`, row `kk < k` of the
//!   panel, and columns below `w` of `out`, `scales` and a panel row.
//! - **The masks.** A row's columns are covered by `V` vectors of 16
//!   lanes: one when `w ≤ 16`, two otherwise, so the second vector's
//!   pointer, 16 columns into a row, is formed only when column 16 exists.
//!   Every f32 load and store goes through `_mm512_maskz_loadu_ps` /
//!   `_mm512_mask_storeu_ps` under a mask with exactly the lanes below `w`
//!   of that vector set; a masked-off lane is not accessed, so the columns
//!   from `w` on (the next panel row, the end of a slice) are never read or
//!   written. An int8 row is `NR` wide, so its two 16-byte loads read
//!   inside it.

/// Column width of the tile and of a stored panel: two 512-bit vectors.
pub(crate) const NR: usize = 32;
/// Row count of the tile: `MR × 2` accumulators, plus the two panel
/// vectors and a broadcast, fit the 32 vector registers of AVX-512.
pub(crate) const MR: usize = 8;
/// Columns of one vector, and the widest panel the one-vector path takes.
const HALF: usize = NR / 2;

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
/// sum one fused multiply-add per `kk`, for the `m` rows of `a` (row stride
/// `a_stride`) and `out` (row stride `o_stride`), `kk` ascending over
/// `0..k` and `j` over the `w ≤ NR` columns of the panel, whose rows start
/// `p_stride` apart; unscaled when `scales` is `None`. With `write`, each
/// sum starts from `+0.0` instead of `out[i][j]`, which is then only
/// written. Rows go `MR` at a time, the last tile holding what is left.
///
/// # Panics
///
/// Panics if a slice is shorter than the dimensions imply, `w > NR`, an
/// int8 panel is narrower than `NR`, or `tile` is [`Tile::Avx512`] on a
/// host without AVX-512F and FMA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: Elem>(
    tile: Tile,
    a: &[f32],
    a_stride: usize,
    m: usize,
    k: usize,
    panel: &[T],
    p_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    w: usize,
    scales: Option<&[f32]>,
    write: bool,
) {
    if m == 0 || w == 0 {
        return;
    }
    assert!(w <= NR, "a panel is at most {NR} columns wide, not {w}");
    assert!(!T::INT8 || w == NR, "an int8 panel is read {NR} columns at a time, not {w}");
    assert!(k == 0 || (k - 1) * p_stride + w <= panel.len(), "panel slice too short");
    assert!((m - 1) * a_stride + k <= a.len(), "a slice too short");
    assert!((m - 1) * o_stride + w <= out.len(), "out slice too short");
    assert!(scales.is_none_or(|s| s.len() >= w), "scales shorter than the panel's columns");
    assert!(tile == Tile::Portable || supported(), "the AVX-512 tile dispatched on a host without AVX-512F and FMA");
    let mut i = 0;
    while i < m {
        let r = MR.min(m - i);
        let (a, out) = (&a[i * a_stride..], &mut out[i * o_stride..]);
        with_rows!(r, R => match tile {
            Tile::Portable => portable::<R, T>(a, a_stride, k, panel, p_stride, out, o_stride, w, scales, write),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the asserts above establish the module's contract:
            // AVX-512F and FMA are present, `a` / `out` hold the `R ≤ m - i`
            // rows starting here, the panel `k` rows of `w` at `p_stride`
            // (`NR` wide if int8), and `scales` `w` columns. `V` is the
            // vector count the contract ties to `w`.
            Tile::Avx512 if w > HALF => unsafe {
                avx512::tile::<R, 2, T>(a, a_stride, k, panel, p_stride, out, o_stride, w, scales, write);
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, with `w ≤ 16`: one vector per row.
            Tile::Avx512 => unsafe {
                avx512::tile::<R, 1, T>(a, a_stride, k, panel, p_stride, out, o_stride, w, scales, write);
            },
            #[cfg(not(target_arch = "x86_64"))]
            Tile::Avx512 => unreachable!("supported() is false off x86_64"),
        });
        i += r;
    }
}

/// The safe-Rust tile: `R` rows of [`run`]'s product over one panel, one
/// half of its columns at a time.
#[allow(clippy::too_many_arguments)]
fn portable<const R: usize, T: Elem>(
    a: &[f32],
    a_stride: usize,
    k: usize,
    panel: &[T],
    p_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    w: usize,
    scales: Option<&[f32]>,
    write: bool,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * a_stride..][..k]);
    for c0 in [0, HALF] {
        if c0 >= w {
            break;
        }
        let wc = HALF.min(w - c0);
        let acc = std::array::from_fn(|r| {
            let o = &out[r * o_stride + c0..][..wc];
            std::array::from_fn(|j| if j < wc && !write { o[j] } else { 0.0 })
        });
        let row = |kk: usize| &panel[kk * p_stride + c0..];
        let acc = if wc == HALF {
            half_chain::<R>(&a_rows, |kk| {
                let b = &row(kk)[..HALF];
                std::array::from_fn(|j| b[j].into())
            }, acc)
        } else {
            half_chain::<R>(&a_rows, |kk| {
                let mut b = [0.0; HALF];
                b.iter_mut().zip(&row(kk)[..wc]).for_each(|(d, &x)| *d = x.into());
                b
            }, acc)
        };
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
/// b(kk)[j], acc[r][j])` for every `kk` in ascending order, `b(kk)` the
/// half's panel row `kk`, zero-padded past the panel's width. Every index
/// is a constant or bounded by `k`, so the accumulators stay in registers
/// for the whole walk.
#[inline(always)]
fn half_chain<const R: usize>(
    a_rows: &[&[f32]; R],
    b: impl Fn(usize) -> [f32; HALF],
    mut acc: [[f32; HALF]; R],
) -> [[f32; HALF]; R] {
    let k = a_rows.first().map_or(0, |r| r.len());
    for kk in 0..k {
        let b = b(kk);
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
        __m128i, __m512, __mmask16, _mm512_cvtepi32_ps, _mm512_cvtepi8_epi32, _mm512_fmadd_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm_loadu_si128,
    };

    use super::{Elem, HALF};

    /// The lanes below `n ≤ 16` set.
    fn mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// One panel row starting at `p`: `V` f32 vectors, lanes off in
    /// `masks` left zero; an int8 row (`V` = 2, `NR` wide) widened exactly.
    ///
    /// # Safety
    ///
    /// AVX-512F is present, and `p` points at a row whose columns below
    /// the set lanes of `masks` are readable (all `NR` for int8); when `V`
    /// is 2, column 16 is among them.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_row<const V: usize, T: Elem>(p: *const T, masks: &[__mmask16; V]) -> [__m512; V] {
        // SAFETY: per the caller, every unmasked lane is readable, and the
        // second vector's start, column 16, lies inside the row.
        unsafe {
            let mut b = [_mm512_setzero_ps(); V];
            for (v, (b, &mk)) in b.iter_mut().zip(masks).enumerate() {
                *b = if T::INT8 {
                    let q = p.cast::<__m128i>().add(v);
                    _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(q)))
                } else {
                    _mm512_maskz_loadu_ps(mk, p.cast::<f32>().add(v * HALF))
                };
            }
            b
        }
    }

    /// The AVX-512F tile: `R` rows of `run`'s product over one panel, its
    /// `w` columns in `V` vectors, each accumulator loaded from `out` or,
    /// with `write`, zeroed in its register.
    ///
    /// # Safety
    ///
    /// The host has AVX-512F and FMA; `a` holds `R` rows of `k` at `a_stride`,
    /// `out` `R` rows of `w ≤ NR` at `o_stride`, the panel `k` rows of `w`
    /// at `p_stride` (`NR` wide if int8), `scales`, if given, at least `w`,
    /// and `V` is 1 when `w ≤ 16` and 2 otherwise (the module's contract,
    /// which `super::run` asserts).
    #[target_feature(enable = "avx512f,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile<const R: usize, const V: usize, T: Elem>(
        a: &[f32],
        a_stride: usize,
        k: usize,
        panel: &[T],
        p_stride: usize,
        out: &mut [f32],
        o_stride: usize,
        w: usize,
        scales: Option<&[f32]>,
        write: bool,
    ) {
        let mut masks = [0; V];
        for (v, mk) in masks.iter_mut().enumerate() {
            *mk = mask((w - v * HALF).min(HALF));
        }
        let (ap, pp, op) = (a.as_ptr(), panel.as_ptr(), out.as_mut_ptr());
        // SAFETY: per the module contract, row r < R of `out` starts inside
        // the slice and its columns below `w` are in bounds, as are those of
        // panel row kk < k and of `scales`; every access to them is masked
        // to those columns, and a second vector (column 16 on) exists only
        // when `w > 16`. `a` row r holds `k` values.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); V]; R];
            if !write {
                for (r, row) in acc.iter_mut().enumerate() {
                    let o = op.add(r * o_stride);
                    for (v, (x, &mk)) in row.iter_mut().zip(&masks).enumerate() {
                        *x = _mm512_maskz_loadu_ps(mk, o.add(v * HALF));
                    }
                }
            }
            for kk in 0..k {
                let b = load_row::<V, T>(pp.add(kk * p_stride), &masks);
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(r * a_stride + kk));
                    for (x, &bv) in row.iter_mut().zip(&b) {
                        *x = _mm512_fmadd_ps(av, bv, *x);
                    }
                }
            }
            let mut sc = [_mm512_setzero_ps(); V];
            if let Some(s) = scales {
                for (v, (x, &mk)) in sc.iter_mut().zip(&masks).enumerate() {
                    *x = _mm512_maskz_loadu_ps(mk, s.as_ptr().add(v * HALF));
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let o = op.add(r * o_stride);
                for (v, (&x, &mk)) in row.iter().zip(&masks).enumerate() {
                    let x = if scales.is_some() { _mm512_mul_ps(x, sc[v]) } else { x };
                    _mm512_mask_storeu_ps(o.add(v * HALF), mk, x);
                }
            }
        }
    }
}
