//! Transformer model definitions for the `esti` inference-scaling simulator.
//!
//! Two consumers share these definitions:
//!
//! * the **analytical performance model** (`esti-core`), which needs only
//!   the *shapes*: parameter counts, FLOPs per token, weight and KV-cache
//!   byte footprints — provided by [`ModelConfig`] at the paper's exact
//!   hyperparameters ([`ModelConfig::palm_540b`],
//!   [`ModelConfig::mt_nlg_530b`], …, Table D.1);
//! * the **functional runtime** (`esti-runtime`), which executes real
//!   forward passes on tiny structurally-identical configs and validates
//!   them against the single-chip reference implementation in [`mod@reference`].
//!
//! The reference model implements everything the paper's inference stack
//! relies on: multiquery *and* multihead attention (Section 3.3), the
//! parallel attention/feedforward block of PaLM as well as the serialized
//! formulation (Section 3.4), SwiGLU feedforward layers, KV caching, and
//! incremental (chunked) prefill.
//!
//! # Examples
//!
//! ```
//! use esti_model::ModelConfig;
//!
//! let palm = ModelConfig::palm_540b();
//! // Parameter count matches the published 540B (±1%).
//! let b = palm.param_count() as f64;
//! assert!((b - 540e9).abs() / 540e9 < 0.01);
//! ```

// Panic discipline: library code must not `unwrap`/`expect` its way past
// conditions a caller could plausibly trigger — those get shape-checked
// asserts with messages. The vetted remainder (infallible numeric
// invariants) carries targeted, justified `allow`s at each site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod kvcache;
pub mod reference;
pub mod weights;

pub use config::{AttentionKind, BlockKind, MlpKind, ModelConfig, PositionKind};
pub use kvcache::{KvCache, KvRun, PageStats, DEFAULT_KV_PAGE_SIZE};
pub use reference::{attention_over_cache, attention_over_rows, AttentionScratch, ReferenceModel};
pub use weights::{LayerWeights, Weights};
