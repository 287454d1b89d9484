//! Discrete-event simulation of collective communication on a 3D torus.
//!
//! Appendix A.1 of *Efficiently Scaling Transformer Inference* derives the
//! closed-form collective costs the whole paper builds on:
//!
//! > For an all-gather over `K` partitions where each chip produces an
//! > output of size `D`, the communication time is
//! > `T = D/(network bandwidth) · (K-1)/K`.
//!
//! This crate *checks* that algebra instead of trusting it: it schedules the
//! individual chunk transfers of bidirectional-ring collectives onto the
//! torus links of a [`esti_hal::ChipSpec`] and reports the makespan. The
//! analytic model in `esti-core` and this simulator must agree (tests assert
//! they do, up to the ceil-rounding of pipelined ring steps), which gives us
//! confidence that every latency number in the reproduced figures rests on a
//! validated communication model.
//!
//! # Examples
//!
//! ```
//! use esti_hal::ChipSpec;
//! use esti_netsim::{simulate_collective, CollectiveKind};
//! use esti_topology::{Axis, AxisSet, TorusShape};
//!
//! let torus = TorusShape::for_chip_count(64).unwrap();
//! let chip = ChipSpec::tpu_v4();
//! let t = simulate_collective(
//!     &chip,
//!     torus,
//!     CollectiveKind::AllGather,
//!     AxisSet::of(&[Axis::X]),
//!     (1 << 20) as f64, // 1 MiB per-chip output
//! );
//! let analytic = (1u64 << 20) as f64 / chip.axis_bandwidth(1) * 3.0 / 4.0;
//! assert!((t - analytic).abs() / analytic < 0.05);
//! ```

pub mod dag;
pub mod fault;
pub mod overlap;
pub mod schedule;

pub use dag::{DagSim, LinkId, TransferId};
pub use fault::{crash_recovery_cost, LiveRequest, RecoveryCost, RecoveryModel};
pub use overlap::{looped_einsum_time, overlap_speedup, unfused_einsum_time, EinsumSpec};
pub use schedule::{
    analytic_time, simulate_collective, simulate_collective_with_straggler, CollectiveKind,
};
