//! Kernel-core conformance: the shipped f32 tier (the blocked register
//! tile plus the streamed small-`m` schedule), the AVX2 int8 tier and the
//! blocked int8 tier must be **bit-identical** to the serial scalar
//! oracles for every GEMM entry point, at every shape — including shapes
//! that exercise the m/n/k remainder paths (NR = 32 f32 and 16 AVX2 int8
//! column lanes, MR = 4 row tiles).
//!
//! Bit-identity is the contract that keeps `set_matmul_kernel` a pure
//! performance knob: every element is one serial mul-then-add chain in
//! ascending `k`, regardless of SIMD width or tile shape.

use std::sync::{Mutex, OnceLock};

use esti_tensor::ops::{self, MatmulKernel};
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

    /// `matmul` under the default setting equals the naive oracle bitwise
    /// at every shape, including m % MR, n % NR and odd-k remainders.
    #[test]
    fn matmul_equals_naive_oracle_bitwise(
        // Spans below, at, and beyond one column block (NR = 32) and two
        // row tiles (MR = 4; 8 rows start the tiles), so every remainder
        // path is exercised.
        m in 1usize..14,
        k in 1usize..38,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let _guard = knob_lock().lock().unwrap();
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 0xABCD);
        let oracle = ops::matmul_naive(&a, &b);
        let got = with_kernel(MatmulKernel::Simd, || ops::matmul(&a, &b));
        prop_assert_eq!(got.data(), oracle.data());
    }

    /// The chunked f32 entry point (`matmul_acc_window` contraction
    /// chunks) stays bitwise equal to the monolithic naive product.
    #[test]
    fn chunked_f32_entry_points_match_monolithic(
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
            ops::matmul_acc_window(&a, 0..m, 0, &b, 0, kc, acc.data_mut());
            ops::matmul_acc_window(&a, 0..m, kc, &b, kc, k - kc, acc.data_mut());
            prop_assert_eq!(acc.data(), oracle.data());
        });
    }

    /// Int8 entry points under the SIMD tier equal the scalar oracle
    /// (knob = `Naive`) bitwise: monolithic, into-cols, and
    /// the unscaled window-accumulate + deferred `apply_scales` path.
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
            q.matmul_acc_window(&x, 0..m, 0, 0, kc, acc.data_mut());
            q.matmul_acc_window(&x, 0..m, kc, kc, k - kc, acc.data_mut());
            q.apply_scales(&mut acc);
            prop_assert_eq!(acc.data(), oracle.data());
        });
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
/// column block of a wider `out` — must equal the naive oracle bitwise.
#[test]
fn decode_shapes_equal_naive_oracle_through_every_entry_point() {
    let _guard = knob_lock().lock().unwrap();
    for (k, n) in [(256, 1024), (1024, 256), (256, 256), (256, 64), (64, 256)] {
        let b = tensor(k, n, (k * n) as u64);
        for m in (1..=7).chain([9, 11]) {
            let a = tensor(m, k, m as u64);
            let oracle = ops::matmul_naive(&a, &b);
            let ctx = format!("m={m} k={k} n={n}");
            assert_eq!(ops::matmul(&a, &b).data(), oracle.data(), "matmul {ctx}");
            // Two ascending contraction chunks, the second against rows kc..
            // of b.
            let kc = k / 2 + 1;
            let mut acc = Tensor::zeros(vec![m, n]);
            ops::matmul_acc_window(&a, 0..m, 0, &b, 0, kc, acc.data_mut());
            ops::matmul_acc_window(&a, 0..m, kc, &b, kc, k - kc, acc.data_mut());
            assert_eq!(acc.data(), oracle.data(), "matmul_acc_window {ctx}");
            // A column block of a wider target.
            let mut wide = Tensor::zeros(vec![m, n + 5]);
            ops::matmul_into_cols(&a, &b, &mut wide, 3);
            assert_eq!(tensor_cols(&wide, 3, n).data(), oracle.data(), "into_cols {ctx}");
            assert!(tensor_cols(&wide, 0, 3).data().iter().all(|&x| x == 0.0), "{ctx}");
            assert!(tensor_cols(&wide, n + 3, 2).data().iter().all(|&x| x == 0.0), "{ctx}");
        }
    }
}

/// The `Blocked` setting (what `ESTI_DISABLE_SIMD=1` or a host without
/// AVX2 leaves the default at) turns the AVX2 int8 tier off and still
/// produces the default setting's bits, f32 and int8.
#[test]
fn forced_blocked_fallback_is_bit_identical() {
    let _guard = knob_lock().lock().unwrap();
    let a = tensor(11, 29, 7);
    let b = tensor(29, 33, 13);
    let q = QuantizedMatrix::quantize(&b);
    let shipped = (ops::matmul(&a, &b), q.matmul(&a));
    let fallback = with_kernel(MatmulKernel::Blocked, || {
        assert!(!ops::simd_active(), "the Blocked setting must not run the AVX2 tier");
        (ops::matmul(&a, &b), q.matmul(&a))
    });
    assert_eq!(shipped.0.data(), fallback.0.data());
    assert_eq!(shipped.1.data(), fallback.1.data());
}
