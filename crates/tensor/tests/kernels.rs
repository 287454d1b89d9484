//! Kernel-core conformance: the one register tile (`MR` = 8 rows × up to
//! `NR` = 32 columns over a panel read at its row stride), in whichever form
//! the process runs it — AVX-512F by default, the safe-Rust tile under
//! `ESTI_DISABLE_SIMD` or on a host without AVX-512F — must be
//! **bit-identical** to the serial scalar oracles for every GEMM entry
//! point, at every shape: every `m % MR` remainder, a narrow last panel, int8
//! widened in registers (few rows) and into a scratch panel (many), scaled
//! and unscaled, and `ops::gemm_strided` over panels at any row stride, at
//! most 16 columns wide (the one-vector path) and wider.
//!
//! Bit-identity is the contract that keeps `set_matmul_kernel` a pure
//! performance knob: every element is one serial chain of fused
//! multiply-adds in ascending `k`, regardless of SIMD width, tile shape or
//! panel stride. CI runs this file under both `ESTI_DISABLE_SIMD` settings,
//! so both forms of the tile meet the oracle.

use std::sync::{Mutex, OnceLock};

use esti_tensor::ops::{self, MatmulKernel};
use esti_tensor::{bf16, PackedMatrix, Tensor};
use proptest::prelude::*;

/// The kernel knob is process-global; every test that toggles it holds
/// this lock so parallel test threads cannot observe each other's state.
fn knob_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with the kernel knob pinned to `kernel`, restoring the SIMD
/// default afterwards (on panic too, so a failing assertion cannot leak a
/// scalar knob into sibling tests).
fn with_kernel<R>(kernel: MatmulKernel, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            ops::set_matmul_kernel(MatmulKernel::Simd);
        }
    }
    let _restore = Restore;
    ops::set_matmul_kernel(kernel);
    f()
}

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

/// The stored form of `w` in one of the formats a chip keeps: f32 as cut,
/// bf16-rounded f32, or int8.
fn stored(w: &Tensor, format: usize) -> PackedMatrix {
    match format {
        0 => PackedMatrix::pack(w),
        1 => PackedMatrix::pack(&bf16::quantize_tensor(w)),
        _ => PackedMatrix::quantize(w),
    }
}

/// Every entry point of `w` against `x [m, k]`, as bits: the scaled
/// product, the product into a wider zeroed target at two column offsets
/// (one inside the first panel's width, one past it), and for
/// every split of the contraction the two unscaled windows (the second
/// reading `x` at a column offset) then one deferred scale.
fn entry_points(w: &PackedMatrix, x: &Tensor) -> Vec<Vec<u32>> {
    let (m, k, n) = (x.dim(0), w.rows(), w.cols());
    let mut got = vec![bits(w.matmul(x).data())];
    for c0 in [3, 35] {
        let mut wide = Tensor::zeros(vec![m, n + 40]);
        w.matmul_into_cols(x, 0..m, &mut wide, c0);
        got.push(bits(wide.data()));
    }
    for split in 0..=k {
        let mut acc = Tensor::zeros(vec![m, n]);
        w.matmul_acc_window(x, 0..m, 0, 0, split, acc.data_mut());
        w.matmul_acc_window(x, 0..m, split, split, k - split, acc.data_mut());
        w.apply_scales(acc.data_mut());
        got.push(bits(acc.data()));
    }
    // A block of rows, each alone, into its own accumulator.
    for r in 0..m {
        let mut acc = vec![0.0; n];
        w.matmul_acc_window(x, r..r + 1, 0, 0, k, &mut acc);
        let mut acc = Tensor::from_vec(vec![1, n], acc);
        w.apply_scales(acc.data_mut());
        got.push(bits(acc.data()));
    }
    got
}

/// `ops::gemm_strided` of `x [m, k]` over panels cut from `b` at row strides
/// 1, 3, 16 and 40 (rows overlap where the stride is below the width), `wd`
/// columns wide, as bits: into a target of row stride `wd + 3` that already
/// holds values (the product accumulates onto them), scaled and unscaled.
fn strided_entry_points(x: &Tensor, b: &Tensor, wd: usize) -> Vec<Vec<u32>> {
    let (m, k) = (x.dim(0), x.dim(1));
    let mut got = Vec::new();
    for stride in [1, 3, 16, 40] {
        let panel = &b.data()[..(k - 1) * stride + wd];
        for scale in [None, Some(0.375)] {
            let o_stride = wd + 3;
            let mut out = tensor(m, o_stride, wd as u64).data().to_vec();
            ops::gemm_strided(x.data(), k, m, k, panel, stride, wd, &mut out, o_stride, scale);
            got.push(bits(&out));
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packed entry point under the shipped setting equals the scalar
    /// oracle (knob = `Naive`) bit for bit, for f32, bf16-rounded f32 and
    /// int8 weights. `m` covers every remainder of `MR` = 8 up to 20 rows
    /// and, for `tall` cases, 61 to 80 rows, across the row count (64) from
    /// which int8 panels are widened once into a scratch panel; `n` covers
    /// up to three panels and every narrow last one. The strided entry
    /// point runs at a width of 1–16 and one of 17–32 per case.
    #[test]
    fn every_entry_point_equals_the_scalar_oracle_bitwise(
        m in 1usize..21,
        tall in 0usize..2,
        k in 1usize..80,
        n in 1usize..100,
        format in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let x = tensor(m + 60 * tall, k, seed);
        let w = stored(&tensor(k, n, seed ^ 0xFACE), format);
        let b = tensor(k, 40, seed ^ 0xBEEF);
        let all = || {
            let mut got = entry_points(&w, &x);
            for wd in [1 + n % 16, 17 + n % 16] {
                got.extend(strided_entry_points(&x, &b, wd));
            }
            got
        };
        let oracle = with_kernel(MatmulKernel::Naive, all);
        let got = with_kernel(MatmulKernel::Simd, all);
        prop_assert_eq!(got, oracle);
    }

    /// Row-major `matmul` under the default setting equals the naive oracle
    /// bitwise on both sides of the row count from which it packs `b` for
    /// the call (8).
    #[test]
    fn matmul_equals_naive_oracle_bitwise(
        m in 1usize..40,
        k in 1usize..38,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0xABCD);
        let oracle = ops::matmul_naive(&a, &b);
        let got = with_kernel(MatmulKernel::Simd, || ops::matmul(&a, &b));
        prop_assert_eq!(bits(got.data()), bits(oracle.data()));
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
/// rows) and every packed entry point must equal the naive oracle bitwise.
#[test]
fn decode_shapes_equal_naive_oracle_through_every_entry_point() {
    let _guard = knob_lock().lock().unwrap();
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let b = tensor(k, n, (k * n) as u64);
        let packed = PackedMatrix::pack(&b);
        for m in (1..=7).chain([9, 11]) {
            let a = tensor(m, k, m as u64);
            let oracle = ops::matmul_naive(&a, &b);
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

/// The `Blocked` setting (what `ESTI_DISABLE_SIMD=1` or a host without
/// AVX-512F leaves the default at) runs the safe-Rust tile and produces
/// the default setting's bits, f32 and int8.
#[test]
fn forced_blocked_fallback_is_bit_identical() {
    let _guard = knob_lock().lock().unwrap();
    let a = tensor(19, 29, 7);
    let b = tensor(29, 45, 13);
    let (p, q) = (PackedMatrix::pack(&b), PackedMatrix::quantize(&b));
    let run = || (ops::matmul(&a, &b), p.matmul(&a), q.matmul(&a), q.matmul(&a.slice(0, 0, 3)));
    let shipped = run();
    let fallback = with_kernel(MatmulKernel::Blocked, || {
        assert!(!ops::simd_active(), "the Blocked setting must not run the AVX-512 tile");
        run()
    });
    assert_eq!(shipped.0.data(), fallback.0.data());
    assert_eq!(shipped.1.data(), fallback.1.data());
    assert_eq!(shipped.2.data(), fallback.2.data());
    assert_eq!(shipped.3.data(), fallback.3.data());
}
