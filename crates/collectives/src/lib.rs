//! Shared-memory collective operations for the functional runtime.
//!
//! `esti-runtime` proves the paper's partitioning algebra by actually
//! executing sharded Transformer forward passes: simulated chips,
//! communicating *only* through the collectives in this crate —
//! all-gather, reduce-scatter, all-reduce and all-to-all, the four
//! primitives of Section 3.1 (Figure A.1).
//!
//! Chips live in one process, run by a few executor threads, each of which
//! may post for several members of a group before it completes any
//! ([`CommGroup::post`], [`CommGroup::complete`]); the implementation exchanges
//! tensors through per-group mailboxes guarded by a reusable barrier. That
//! is obviously not how a TPU pod moves bytes — timing comes from
//! `esti-netsim` and the analytic model — but the *semantics* (which chip
//! ends up with which shard) are exactly those of the paper's collectives,
//! which is what the correctness tests need.
//!
//! Every call is also recorded in a [`TrafficStats`] ledger using the
//! paper's byte-accounting conventions (per-chip output for an all-gather,
//! per-chip input for a reduce-scatter), so integration tests can assert
//! that a partitioned layer moved exactly the communication volume the
//! analytical model charges it for.
//!
//! # Examples
//!
//! ```
//! use esti_collectives::CommGroup;
//! use esti_tensor::Tensor;
//!
//! let members = CommGroup::create(2);
//! let handles: Vec<_> = members
//!     .into_iter()
//!     .map(|m| {
//!         std::thread::spawn(move || {
//!             let shard = Tensor::full(vec![1, 2], m.rank() as f32);
//!             m.all_gather(&shard, 0)
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     let full = h.join().unwrap();
//!     assert_eq!(full.shape(), &[2, 2]);
//!     assert_eq!(full.data(), &[0.0, 0.0, 1.0, 1.0]);
//! }
//! ```

// Fault tolerance discipline: runtime failures (peer death, stalls,
// poisoned locks) must travel as typed errors, never as `unwrap`/`expect`
// panics. The vetted remainder — protocol invariants whose violation is a
// caller bug, not a runtime fault — carries targeted `allow`s in `group`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod group;
pub mod protocol;
pub mod stats;
pub mod sync;

pub use fault::{CollectiveError, FaultKind, FaultPlan, FaultState, InjectedCrash, Trigger};
pub use group::{Call, CommGroup, Part, Posted, Received};
pub use protocol::{ProtocolEdge, ProtocolModel};
pub use stats::{quant_wire_bytes, CollectiveOp, CommTimes, TrafficStats, ACT_BYTES};
pub use sync::BarrierFate;
