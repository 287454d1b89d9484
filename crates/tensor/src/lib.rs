//! Minimal dense tensor library for the `esti` inference-scaling simulator.
//!
//! The functional runtime (`esti-runtime`) executes *actual* partitioned
//! Transformer forward passes to prove the paper's sharding algebra correct.
//! This crate supplies the numeric substrate for that: a row-major `f32`
//! [`Tensor`], the handful of operators a PaLM-style decoder needs
//! ([`ops`]: matmul, layernorm, and softmax and SwiGLU in Section 3.5's
//! log-base-2 form over one vectorised polynomial [`ops::exp2`]),
//! AQT-style per-channel int8 weight quantization ([`quant`], Section 3.6),
//! bf16 storage emulation ([`bf16`]), and the top-k/top-p decode samplers
//! of Section 3.5 ([`sample`]).
//!
//! Everything is dependency-light and portable. Weights are stored once,
//! in panel order ([`PackedMatrix`], f32 or int8), and every GEMM runs one
//! `MR × NR` register tile over such a panel: explicit AVX-512F with
//! runtime feature detection, or the same tile in safe Rust under
//! `ESTI_DISABLE_SIMD` or on other hosts. Either form is bit-identical to
//! the one serial scalar chain, [`ops::matmul_naive`]. [`ops::gemm_strided`]
//! runs the same tile over panels read in place at any row stride, which
//! is how `esti-model`'s attention kernel scores and sums its KV pages. The
//! crate starts no threads: each simulated chip's kernels run on the
//! runtime's executor that steps it.
//!
//! # Examples
//!
//! ```
//! use esti_tensor::{ops, Tensor};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::eye(3);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```

// Panic discipline: library code must not `unwrap`/`expect` its way past
// conditions a caller could plausibly trigger — those get shape-checked
// asserts with messages. The vetted remainder (infallible numeric
// invariants) carries targeted, justified `allow`s at each site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bf16;
pub mod ops;
pub mod packed;
pub mod quant;
pub mod sample;
mod simd;
pub mod tensor;

pub use packed::PackedMatrix;
pub use tensor::Tensor;
