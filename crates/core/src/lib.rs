//! The paper's contribution, as a library: partitioning strategies and the
//! analytical inference performance model of *Efficiently Scaling
//! Transformer Inference* (Pope et al., MLSYS 2023).
//!
//! The paper asks: given a large decoder-only Transformer, a slice of
//! accelerator chips on a 3D torus, and an application requirement (tight
//! latency, maximum throughput, long context), **how should the model be
//! partitioned**? Its answer is a small algebra of layouts with closed-form
//! costs, which this crate implements end to end:
//!
//! * [`sharding`] — the subscript notation of Section 3.1 (`BLE_xyz`,
//!   `E_x F_yz`, partial sums) as typed values;
//! * [`layout`] — the feedforward layouts of Section 3.2 (1D/2D
//!   weight-stationary, X/XY/XYZ weight-gathered) and the attention
//!   shardings of Section 3.3 (head vs. batch), with per-layer
//!   communication-volume formulas (Appendix A.2, Figure 3);
//! * [`memory`] — per-chip HBM accounting: weight shards and the KV cache
//!   under every attention variant (Table 1's max-context model);
//! * [`perf`] — the latency / MFU / cost model (Section 2, Appendix A.1)
//!   combining compute, memory and communication time;
//! * [`pareto`] — batch × chips × layout sweeps and Pareto frontiers
//!   (Figures 1, C.1);
//! * [`planner`] — the layout-selection strategy of Section 4.1 and an
//!   application-requirements advisor;
//! * [`schedule`] — per-chip execution schedules in the algebra's
//!   notation, verifiable against its rewrite rules: the program the
//!   runtime runs for the 1D family, a mirror of its 2D / XYZ forwards;
//! * [`scheduler`] and [`serving`] — the serving policy of Section 4.4
//!   (admission, preemption, shedding, KV page charging) written once, and
//!   the trace simulator that drives it in simulated time;
//! * [`ft`] — the published FasterTransformer baseline numbers used in
//!   Section 5 / Appendix D.
//!
//! # Examples
//!
//! ```
//! use esti_core::perf::{estimate, Phase, PhaseSpec};
//! use esti_core::planner::decode_layout;
//! use esti_core::Machine;
//! use esti_hal::DType;
//! use esti_model::ModelConfig;
//!
//! // PaLM 540B on 64 TPU v4 chips, generating with batch 64, int8 weights:
//! let machine = Machine::tpu_v4_slice(64).unwrap();
//! let model = ModelConfig::palm_540b_padded();
//! let layout = decode_layout(&model, &machine);
//! let spec = PhaseSpec::decode(64, 2048);
//! let est = estimate(&machine, &model, &layout, &spec, DType::Int8);
//! // The paper's headline: ~29 ms per token (Section 1). Our simulated
//! // hardware reproduces the order of magnitude.
//! assert!(est.step_time > 0.015 && est.step_time < 0.045);
//! ```

pub mod calibrate;
pub mod claims;
pub mod ft;
pub mod layout;
pub mod machine;
pub mod memory;
pub mod pareto;
pub mod perf;
pub mod pipeline;
pub mod planner;
pub mod schedule;
pub mod scheduler;
pub mod serving;
pub mod sharding;

pub use layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
pub use machine::Machine;
pub use perf::{estimate, Estimate, Phase, PhaseSpec};
