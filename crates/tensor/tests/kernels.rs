//! Kernel-core conformance: the one register tile (`MR` = 8 rows × up to
//! `NR` = 32 columns over a panel read at its row stride), in whichever form
//! the process runs it — AVX-512F by default, the safe-Rust tile under
//! `ESTI_DISABLE_SIMD` or on a host without AVX-512F — must be
//! **bit-identical** to the one scalar chain, `ops::matmul_naive`, for every
//! GEMM entry point, at every shape: every `m % MR` remainder, a narrow last
//! panel, int8 widened in registers (few rows) and into a scratch panel
//! (many), scaled and unscaled, and `ops::gemm_strided` over panels at any
//! row stride, at most 16 columns wide (the one-vector path) and wider.
//!
//! Every expected value is `matmul_naive` over the stored values — f32,
//! bf16-rounded f32, or an int8 matrix's integers — then the column scales
//! where the entry point scales: every element is one serial chain of fused
//! multiply-adds in ascending `k`, regardless of SIMD width, tile shape or
//! panel stride. CI runs this file under both `ESTI_DISABLE_SIMD` settings,
//! so both forms of the tile meet the chain.

use esti_tensor::ops::{self, matmul_naive};
use esti_tensor::{bf16, PackedMatrix, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6_364_136_223_846_793_005).wrapping_add(seed);
            ((x >> 33) % 2003) as f32 / 251.0 - 4.0
        })
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The stored form of `w` in one of the formats a chip keeps — f32 as cut,
/// bf16-rounded f32, or int8 — and the values the scalar chain reads for
/// it: the stored f32 values, or the int8 integers, recovered as
/// `round(unpack() / scale)`.
fn stored(w: &Tensor, format: usize) -> (PackedMatrix, Tensor) {
    let packed = match format {
        0 => PackedMatrix::pack(w),
        1 => PackedMatrix::pack(&bf16::quantize_tensor(w)),
        _ => PackedMatrix::quantize(w),
    };
    let mut values = packed.unpack();
    if let Some(scales) = packed.scales() {
        let n = packed.cols();
        values.data_mut().iter_mut().enumerate().for_each(|(i, v)| *v = (*v / scales[i % n]).round());
    }
    (packed, values)
}

/// Every entry point of `w` (whose chain reads `values`) against `x [m, k]`,
/// as `(got, want)` bits: the scaled product, the product into a wider
/// zeroed target at two column offsets (one inside the first panel's width,
/// one past it), for every split of the contraction the two unscaled
/// windows (the second reading `x` at a column offset) then one deferred
/// scale, and each row alone. Every one must equal `matmul_naive(x,
/// values)` with `w`'s column scales applied.
fn entry_points(w: &PackedMatrix, values: &Tensor, x: &Tensor) -> Vec<(Vec<u32>, Vec<u32>)> {
    let (m, k, n) = (x.dim(0), w.rows(), w.cols());
    let mut want = matmul_naive(x, values);
    w.apply_scales(want.data_mut());
    let mut checks = vec![(bits(w.matmul(x).data()), bits(want.data()))];
    for c0 in [3, 35] {
        let mut wide = Tensor::zeros(vec![m, n + 40]);
        w.matmul_into_cols(x, 0..m, &mut wide, c0);
        let mut expect = Tensor::zeros(vec![m, n + 40]);
        for (e, r) in expect.data_mut().chunks_mut(n + 40).zip(want.data().chunks(n)) {
            e[c0..c0 + n].copy_from_slice(r);
        }
        checks.push((bits(wide.data()), bits(expect.data())));
    }
    for split in 0..=k {
        let mut acc = Tensor::zeros(vec![m, n]);
        w.matmul_acc_window(x, 0..m, 0, 0, split, acc.data_mut());
        w.matmul_acc_window(x, 0..m, split, split, k - split, acc.data_mut());
        w.apply_scales(acc.data_mut());
        checks.push((bits(acc.data()), bits(want.data())));
    }
    for r in 0..m {
        let mut acc = vec![0.0; n];
        w.matmul_acc_window(x, r..r + 1, 0, 0, k, &mut acc);
        w.apply_scales(&mut acc);
        checks.push((bits(&acc), bits(&want.data()[r * n..][..n])));
    }
    checks
}

/// `ops::gemm_strided` of `x [m, k]` over panels cut from `b` at row strides
/// 1, 3, 16 and 40 (rows overlap where the stride is below the width), `wd`
/// columns wide, as `(got, want)` bits, scaled and unscaled. The target has
/// row stride `wd + 3`; its `wd` columns already hold `matmul_naive` over a
/// first split of the contraction (0, ¼, ½ or ¾ of `k`, one per stride), so
/// the call continues those chains over the rest to the whole product, and
/// its other columns hold values the call must leave.
fn strided_entry_points(x: &Tensor, b: &Tensor, wd: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let (m, k, o_stride) = (x.dim(0), x.dim(1), wd + 3);
    let mut checks = Vec::new();
    for (i, stride) in [1, 3, 16, 40].into_iter().enumerate() {
        let panel = &b.data()[..(k - 1) * stride + wd];
        let rows: Vec<f32> = (0..k).flat_map(|kk| panel[kk * stride..][..wd].to_vec()).collect();
        let rows = Tensor::from_vec(vec![k, wd], rows);
        let split = k * i / 4;
        let first = matmul_naive(&x.slice(1, 0, split), &rows.slice(0, 0, split));
        let full = matmul_naive(x, &rows);
        for scale in [None, Some(0.375)] {
            let mut out = tensor(m, o_stride, wd as u64).data().to_vec();
            let mut want = out.clone();
            for (r, row) in out.chunks_mut(o_stride).enumerate() {
                row[..wd].copy_from_slice(&first.data()[r * wd..][..wd]);
                let full = &full.data()[r * wd..][..wd];
                want[r * o_stride..][..wd].iter_mut().zip(full).for_each(|(w, &f)| *w = scale.map_or(f, |s| f * s));
            }
            let rest = &panel[split * stride..];
            ops::gemm_strided(&x.data()[split..], k, m, k - split, rest, stride, wd, &mut out, o_stride, scale);
            checks.push((bits(&out), bits(&want)));
        }
    }
    checks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every entry point equals `matmul_naive` over the stored values bit
    /// for bit, for f32, bf16-rounded f32 and int8 weights. `m` covers every
    /// remainder of `MR` = 8 up to 20 rows and, for `tall` cases, 61 to 80
    /// rows, across the row count (64) from which int8 panels are widened
    /// once into a scratch panel; `n` covers up to three panels and every
    /// narrow last one. The strided entry point runs at a width of 1–16 and
    /// one of 17–32 per case.
    #[test]
    fn every_entry_point_equals_the_scalar_oracle_bitwise(
        m in 1usize..21,
        tall in 0usize..2,
        k in 1usize..80,
        n in 1usize..100,
        format in 0usize..3,
        seed in 0u64..1000,
    ) {
        let x = tensor(m + 60 * tall, k, seed);
        let (w, values) = stored(&tensor(k, n, seed ^ 0xFACE), format);
        let b = tensor(k, 40, seed ^ 0xBEEF);
        let mut checks = entry_points(&w, &values, &x);
        for wd in [1 + n % 16, 17 + n % 16] {
            checks.extend(strided_entry_points(&x, &b, wd));
        }
        for (i, (got, want)) in checks.into_iter().enumerate() {
            prop_assert_eq!(got, want, "check {}", i);
        }
    }

    /// Write mode — each chain started from `+0.0` in a register, the
    /// target never read — equals accumulating onto zeros, bit for bit:
    /// `matmul_window` against `matmul_acc_window`
    /// (unscaled), `matmul_into_cols` against the window then its deferred
    /// scale (int8 scaled in the tile), and `gemm_strided_write` against
    /// `gemm_strided`, scaled and unscaled. Targets in write mode start
    /// full of NaN, so a read of one shows. Panels are 1–16 columns wide
    /// (the one-vector path), 32, or a full one and a narrow one; `m`
    /// covers every remainder of `MR` = 8, and the int8 scratch-widened
    /// panels from 64 rows.
    #[test]
    fn write_mode_equals_accumulating_onto_zeros_bitwise(
        m in 1usize..21,
        tall in 0usize..2,
        k in 1usize..70,
        width in 0usize..18,
        int8 in 0usize..2,
        scaled in 0usize..2,
        seed in 0u64..1000,
    ) {
        let m = m + 60 * tall;
        let n = match width {
            0..16 => width + 1,
            16 => 32,
            _ => 45,
        };
        let x = tensor(m, k, seed);
        let (w, _) = stored(&tensor(k, n, seed ^ 0xFACE), 2 * int8);
        let b = tensor(k, n, seed ^ 0xBEEF);
        let scale = (scaled == 1).then_some(0.375);
        let nan = |len: usize| vec![f32::NAN; len];
        let mut window = nan(m * n);
        w.matmul_window(&x, 0..m, 0, 0, k, &mut window);
        let mut acc = vec![0.0; m * n];
        w.matmul_acc_window(&x, 0..m, 0, 0, k, &mut acc);
        let mut cols = Tensor::from_vec(vec![m, n + 7], nan(m * (n + 7)));
        w.matmul_into_cols(&x, 0..m, &mut cols, 5);
        let cols: Vec<f32> = cols.data().chunks(n + 7).flat_map(|r| r[5..5 + n].to_vec()).collect();
        let mut scaled_acc = acc.clone();
        w.apply_scales(&mut scaled_acc);
        let mut strided = nan(m * n);
        ops::gemm_strided_write(x.data(), k, m, k, b.data(), n, n, &mut strided, n, scale);
        let mut strided_acc = vec![0.0; m * n];
        ops::gemm_strided(x.data(), k, m, k, b.data(), n, n, &mut strided_acc, n, scale);
        prop_assert_eq!(
            [bits(&window), bits(&cols), bits(&strided)],
            [bits(&acc), bits(&scaled_acc), bits(&strided_acc)]
        );
    }

    /// Row-major `matmul` equals `matmul_naive` bitwise on both sides of the row count from which it packs `b` for
    /// the call (8).
    #[test]
    fn matmul_equals_naive_oracle_bitwise(
        m in 1usize..40,
        k in 1usize..38,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0xABCD);
        prop_assert_eq!(bits(ops::matmul(&a, &b).data()), bits(matmul_naive(&a, &b).data()));
    }

    /// Packing is a permutation: unpacking gives the matrix back, and the
    /// stored bytes are the row-major form's, with no padding.
    #[test]
    fn pack_then_unpack_round_trips_at_the_row_major_byte_count(
        k in 1usize..80,
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let w = tensor(k, n, seed);
        let p = PackedMatrix::pack(&w);
        prop_assert_eq!(bits(p.unpack().data()), bits(w.data()));
        prop_assert_eq!(p.storage_bytes(), k * n * 4);
        let q = PackedMatrix::quantize(&w);
        prop_assert_eq!(q.storage_bytes(), k * n + n * 4);
        let scales = q.scales().unwrap();
        for (i, (&got, &want)) in q.unpack().data().iter().zip(w.data()).enumerate() {
            prop_assert!((got - want).abs() <= scales[i % n] * 0.5 + 1e-6);
        }
    }
}

/// The decode regime at the model's own GEMM shapes, 1–7 live rows and 9 and
/// 11 (a full tile plus a remainder): row-major `matmul` (streamed below 8
/// rows) and every packed entry point must equal `matmul_naive` bitwise.
#[test]
fn decode_shapes_equal_naive_oracle_through_every_entry_point() {
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let b = tensor(k, n, (k * n) as u64);
        let packed = PackedMatrix::pack(&b);
        for m in (1..=7).chain([9, 11]) {
            let a = tensor(m, k, m as u64);
            let oracle = matmul_naive(&a, &b);
            let ctx = format!("m={m} k={k} n={n}");
            assert_eq!(ops::matmul(&a, &b).data(), oracle.data(), "matmul {ctx}");
            assert_eq!(packed.matmul(&a).data(), oracle.data(), "packed {ctx}");
            // Two ascending contraction chunks, the second against rows kc..
            let kc = k / 2 + 1;
            let mut acc = Tensor::zeros(vec![m, n]);
            packed.matmul_acc_window(&a, 0..m, 0, 0, kc, acc.data_mut());
            packed.matmul_acc_window(&a, 0..m, kc, kc, k - kc, acc.data_mut());
            assert_eq!(acc.data(), oracle.data(), "matmul_acc_window {ctx}");
            // A column block of a wider target, its neighbours untouched.
            let mut wide = Tensor::zeros(vec![m, n + 5]);
            packed.matmul_into_cols(&a, 0..m, &mut wide, 3);
            for r in 0..m {
                let row = &wide.data()[r * (n + 5)..(r + 1) * (n + 5)];
                assert_eq!(&row[3..3 + n], &oracle.data()[r * n..(r + 1) * n], "into_cols {ctx}");
                assert!(row[..3].iter().chain(&row[3 + n..]).all(|&x| x == 0.0), "{ctx}");
            }
        }
    }
}
