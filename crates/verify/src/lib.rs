//! Static partition-plan and SPMD collective-schedule analyzer.
//!
//! Six passes over the partitioning layouts of Pope et al. (MLSYS 2023),
//! run without executing the runtime:
//!
//! * [`comm_table`] — the paper's comm table against the schedule that
//!   runs: projects the verified schedule's per-layer collectives
//!   ([`esti_core::schedule`]) onto Appendix A's pieces and compares them
//!   with `Layout::layer_comm` bucket by bucket, every difference named;
//! * [`spmd`] — plays the collective calls of the program every chip runs
//!   ([`esti_core::schedule::ChipProgram`], the verified schedule compiled
//!   as the engine compiles it) and proves every communication group's
//!   members issue identical sequences (no shape, exchange, or wire-format
//!   mismatch, no deadlock);
//! * [`memfit`] — sums the weight shards and KV rows the verified schedule
//!   cuts per chip (or the page pool the shipped scheduler's ledger charges
//!   for a request set), plus the peak of the schedule's buffer plan (the
//!   slots the engine's lanes hold), against the esti-hal HBM capacity,
//!   reporting margins and weight-gathered working-set warnings;
//! * [`liveness`] — injects every single crash/stall fault into the
//!   program's collective calls and explores the barrier/deadline/cancel protocol
//!   ([`esti_collectives::ProtocolModel`]) to prove every surviving rank
//!   terminates with a typed error — no hang, no post into a cancelled
//!   group;
//! * [`quantflow`] — sizes every int8 weight gather of the program as the
//!   matrix the engine stores, rejecting quantized wire volumes that do not
//!   undercut the dense ones (an int8 wire anywhere else fails to compile);
//! * [`lifecycle`] — drives the shipped scheduler core
//!   ([`esti_core::scheduler::Scheduler`], configured by
//!   [`esti_runtime::BatcherSpec`]) over abstract request traces with
//!   faults, preemptions and drains, checking slot occupancy, eviction,
//!   replay, conservation, page and recovery-budget invariants.
//!
//! The `esti-lint` binary sweeps every built-in layout × model × slice
//! combination ([`scenarios`]), compiling each schedule it accepts into the
//! program the engine runs, and exits nonzero on any failure (or, with
//! `--strict`, on any warning); `--json` emits the machine-readable report.

pub mod comm_table;
pub mod lifecycle;
pub mod liveness;
pub mod memfit;
pub mod quantflow;
pub mod scenarios;
pub mod spmd;

pub use comm_table::{check_comm_table, CommTableReport};
pub use lifecycle::{check_lifecycle, Defect, LifecycleError, LifecycleReport};
pub use liveness::{
    check_liveness, check_program_liveness, AbstractFault, FaultSite, LivenessError,
    LivenessReport,
};
pub use memfit::{check_memory_fit, check_memory_fit_paged, MemReport};
pub use quantflow::{check_quantflow, QuantflowError, QuantflowReport};
pub use scenarios::{builtin_scenarios, run_all, ComboResult, Outcome, Scenario};
pub use spmd::{check_program_spmd, check_spmd, SpmdError, SpmdReport};
