//! Kernel-core conformance: the AVX2 SIMD tier and the banded worker-pool
//! execution must be **bit-identical** to the serial scalar oracle for
//! every GEMM entry point, at every shape — including shapes that exercise
//! the m/n/k remainder paths (NR = 16 column lanes, MR = 4 row tiles).
//!
//! Bit-identity is the contract that keeps `set_matmul_kernel` a pure
//! performance knob: every element is one serial mul-then-add chain in
//! ascending `k`, regardless of SIMD width, tile shape, or worker count.

use std::sync::{Arc, Mutex, OnceLock};

use esti_tensor::ops::{self, MatmulKernel};
use esti_tensor::pool::{active_workers, with_worker_pool, ChipPool};
use esti_tensor::{QuantizedMatrix, Tensor};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul` under the SIMD tier equals the naive oracle bitwise at
    /// every shape, including m % MR, n % NR and odd-k remainders.
    #[test]
    fn simd_matmul_equals_naive_oracle_bitwise(
        // Spans below, at, and beyond one SIMD column block (NR = 16) and
        // one row tile (MR = 4), so every remainder path is exercised.
        m in 1usize..14,
        k in 1usize..38,
        n in 1usize..42,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0xABCD);
        let oracle = ops::matmul_naive(&a, &b);
        let got = with_kernel(MatmulKernel::Simd, || ops::matmul(&a, &b));
        prop_assert_eq!(got.data(), oracle.data());
    }

    /// The chunked f32 entry point (`matmul_acc_rows` contraction chunks)
    /// stays bitwise equal to the monolithic naive product under the SIMD
    /// tier.
    #[test]
    fn simd_chunked_f32_entry_points_match_monolithic(
        m in 1usize..14,
        k in 2usize..38,
        n in 2usize..42,
        split in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0x5EED);
        let oracle = ops::matmul_naive(&a, &b);
        with_kernel(MatmulKernel::Simd, || {
            // Contraction chunking: ascending row chunks of b accumulate
            // to the monolithic result bit-for-bit.
            let kc = 1 + ((split * (k - 1) as f64) as usize).min(k - 1);
            let mut acc = Tensor::zeros(vec![m, n]);
            let a_lo = tensor_cols(&a, 0, kc);
            let a_hi = tensor_cols(&a, kc, k - kc);
            ops::matmul_acc_rows(&a_lo, &b, 0, &mut acc);
            ops::matmul_acc_rows(&a_hi, &b, kc, &mut acc);
            prop_assert_eq!(acc.data(), oracle.data());
        });
    }

    /// Int8 entry points under the SIMD tier equal the scalar oracle
    /// (knob = `Naive`) bitwise: monolithic, into-cols, and
    /// the unscaled row-accumulate + deferred `apply_scales` path.
    #[test]
    fn simd_int8_entry_points_equal_scalar_oracle_bitwise(
        m in 1usize..14,
        k in 2usize..38,
        n in 2usize..42,
        split in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let x = tensor(m, k, seed);
        let q = QuantizedMatrix::quantize(&tensor(k, n, seed ^ 0xFACE));
        let oracle = with_kernel(MatmulKernel::Naive, || q.matmul(&x));
        with_kernel(MatmulKernel::Simd, || {
            prop_assert_eq!(q.matmul(&x).data(), oracle.data());
            // Scale-on-arrival into a wider zeroed target.
            let mut wide = Tensor::zeros(vec![m, n + 5]);
            q.matmul_into_cols(&x, &mut wide, 3);
            for r in 0..m {
                prop_assert_eq!(
                    &wide.data()[r * (n + 5) + 3..r * (n + 5) + 3 + n],
                    &oracle.data()[r * n..(r + 1) * n]
                );
            }
            // Unscaled contraction chunks + one deferred scale pass.
            let kc = 1 + ((split * (k - 1) as f64) as usize).min(k - 1);
            let mut acc = Tensor::zeros(vec![m, n]);
            q.matmul_acc_rows(&tensor_cols(&x, 0, kc), 0, &mut acc);
            q.matmul_acc_rows(&tensor_cols(&x, kc, k - kc), kc, &mut acc);
            q.apply_scales(&mut acc);
            prop_assert_eq!(acc.data(), oracle.data());
        });
    }

    /// Worker-pool banding is invisible in the bits: the same product at
    /// 1 (no pool), 2, and 5 workers is bitwise identical, f32 and int8.
    /// Shapes are sized past the banding cutoff so the pool really splits.
    #[test]
    fn worker_count_never_changes_the_bits(
        workers in prop::sample::select(vec![2usize, 3, 5]),
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let (m, k, n) = (37, 64, 96); // m·k·n ≫ the banding cutoff
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0xBEEF);
        let q = QuantizedMatrix::quantize(&b);
        let serial = (ops::matmul(&a, &b), q.matmul(&a));
        let pooled = with_worker_pool(Some(Arc::new(ChipPool::new(workers))), || {
            assert_eq!(active_workers(), workers);
            (ops::matmul(&a, &b), q.matmul(&a))
        });
        prop_assert_eq!(serial.0.data(), pooled.0.data());
        prop_assert_eq!(serial.1.data(), pooled.1.data());
    }
}

/// Column slice of a rank-2 tensor (test-local helper; the library slices
/// via strides internally).
fn tensor_cols(t: &Tensor, c0: usize, cn: usize) -> Tensor {
    let (m, n) = (t.dim(0), t.dim(1));
    let mut data = Vec::with_capacity(m * cn);
    for r in 0..m {
        data.extend_from_slice(&t.data()[r * n + c0..r * n + c0 + cn]);
    }
    Tensor::from_vec(vec![m, cn], data)
}

/// The decode regime at the model's own GEMM shapes: 1–7 live rows stream
/// whole, 9 and 11 run as register tiles plus a streamed remainder. Every
/// f32 entry point — a contraction chunk against a row range of `b`, a
/// column block of a wider `out` — must equal the naive oracle bitwise,
/// serial and banded over a worker pool.
#[test]
fn decode_shapes_equal_naive_oracle_through_every_entry_point() {
    let _guard = knob_lock().lock().unwrap();
    let pool = Arc::new(ChipPool::new(2));
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let b = tensor(k, n, (k * n) as u64);
        for m in (1..=7).chain([9, 11]) {
            let a = tensor(m, k, m as u64);
            let oracle = ops::matmul_naive(&a, &b);
            for pool in [None, Some(Arc::clone(&pool))] {
                let ctx = format!("m={m} k={k} n={n} pooled={}", pool.is_some());
                with_worker_pool(pool, || {
                    assert_eq!(ops::matmul(&a, &b).data(), oracle.data(), "matmul {ctx}");
                    // Two ascending contraction chunks, the second against
                    // rows kc.. of b.
                    let kc = k / 2 + 1;
                    let mut acc = Tensor::zeros(vec![m, n]);
                    ops::matmul_acc_rows(&tensor_cols(&a, 0, kc), &b, 0, &mut acc);
                    ops::matmul_acc_rows(&tensor_cols(&a, kc, k - kc), &b, kc, &mut acc);
                    assert_eq!(acc.data(), oracle.data(), "matmul_acc_rows {ctx}");
                    // A column block of a wider target.
                    let mut wide = Tensor::zeros(vec![m, n + 5]);
                    ops::matmul_into_cols(&a, &b, &mut wide, 3);
                    assert_eq!(tensor_cols(&wide, 3, n).data(), oracle.data(), "into_cols {ctx}");
                    assert!(tensor_cols(&wide, 0, 3).data().iter().all(|&x| x == 0.0), "{ctx}");
                    assert!(tensor_cols(&wide, n + 3, 2).data().iter().all(|&x| x == 0.0), "{ctx}");
                });
            }
        }
    }
}

/// Disabling SIMD at runtime (the `ESTI_DISABLE_SIMD` escape hatch's
/// programmatic twin) must drop to the blocked scalar kernel and still
/// produce bit-identical results.
#[test]
fn forced_scalar_fallback_is_bit_identical() {
    let _guard = knob_lock().lock().unwrap();
    let a = tensor(11, 29, 7);
    let b = tensor(29, 33, 13);
    let q = QuantizedMatrix::quantize(&b);
    let initial = ops::simd_active();
    let with_simd = (ops::matmul(&a, &b), q.matmul(&a));
    ops::set_simd_enabled(false);
    assert!(!ops::simd_active(), "fallback must disable the SIMD tier");
    let fallback = (ops::matmul(&a, &b), q.matmul(&a));
    ops::set_simd_enabled(initial);
    assert_eq!(with_simd.0.data(), fallback.0.data());
    assert_eq!(with_simd.1.data(), fallback.1.data());
}
