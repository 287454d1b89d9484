//! Communication-volume accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The four collective primitives (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// all-gather.
    AllGather,
    /// reduce-scatter.
    ReduceScatter,
    /// all-reduce.
    AllReduce,
    /// all-to-all.
    AllToAll,
}

impl CollectiveOp {
    /// All variants, for iteration in reports.
    pub const ALL: [CollectiveOp; 4] = [
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllReduce,
        CollectiveOp::AllToAll,
    ];

    pub(crate) const fn slot(self) -> usize {
        match self {
            CollectiveOp::AllGather => 0,
            CollectiveOp::ReduceScatter => 1,
            CollectiveOp::AllReduce => 2,
            CollectiveOp::AllToAll => 3,
        }
    }
}

/// Logical activation width used for traffic accounting (bf16, Section 2):
/// the per-element byte cost the ledger charges dense collectives.
pub const ACT_BYTES: u64 = 2;

/// Closed-form per-chip wire volume of a quantized all-gather (Section 3.6).
///
/// A gathered int8 `rows × cols` shard costs 1 byte per value plus one f32
/// scale per column, received from each of `group_size` ranks (own shard
/// included, per the ledger's output-bytes convention):
/// `group_size × (rows·cols + 4·cols)`.
///
/// This is the single source of truth shared by the runtime's quantized
/// collectives (which charge the ledger) and `esti-verify`'s quant-dataflow
/// pass (which statically checks schedules against the same accounting).
///
/// # Examples
///
/// ```
/// use esti_collectives::quant_wire_bytes;
///
/// assert_eq!(quant_wire_bytes(4, 128, 64), 4 * (128 * 64 + 64 * 4));
/// ```
#[must_use]
pub const fn quant_wire_bytes(group_size: usize, rows: usize, cols: usize) -> usize {
    group_size * (rows * cols + cols * 4)
}

/// Thread-safe ledger of collective calls and their per-chip byte volumes.
///
/// Byte conventions follow Appendix A.1: an all-gather is charged its
/// per-chip *output* bytes, a reduce-scatter its per-chip *input* bytes, an
/// all-reduce the sum of both phases, and an all-to-all its per-chip payload
/// bytes. Volumes are recorded once per *call* (they are identical on every
/// rank), so a test can compare the ledger directly against the analytical
/// model's per-layer communication volume.
///
/// # Examples
///
/// ```
/// use esti_collectives::{CollectiveOp, TrafficStats};
///
/// let stats = TrafficStats::new();
/// stats.record(CollectiveOp::AllGather, 1024);
/// assert_eq!(stats.bytes(CollectiveOp::AllGather), 1024);
/// assert_eq!(stats.calls(CollectiveOp::AllGather), 1);
/// assert_eq!(stats.total_bytes(), 1024);
/// ```
#[derive(Debug, Default)]
pub struct TrafficStats {
    bytes: [AtomicU64; 4],
    calls: [AtomicU64; 4],
}

impl TrafficStats {
    /// Creates an empty ledger behind an [`Arc`] so chips can share it.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(TrafficStats::default())
    }

    /// Records one collective call of `bytes` per-chip volume.
    pub fn record(&self, op: CollectiveOp, bytes: u64) {
        self.bytes[op.slot()].fetch_add(bytes, Ordering::Relaxed);
        self.calls[op.slot()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total per-chip bytes recorded for `op`.
    #[must_use]
    pub fn bytes(&self, op: CollectiveOp) -> u64 {
        self.bytes[op.slot()].load(Ordering::Relaxed)
    }

    /// Number of calls recorded for `op`.
    #[must_use]
    pub fn calls(&self, op: CollectiveOp) -> u64 {
        self.calls[op.slot()].load(Ordering::Relaxed)
    }

    /// Total per-chip bytes across all collective kinds.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        CollectiveOp::ALL.iter().map(|&op| self.bytes(op)).sum()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        for i in 0..4 {
            self.bytes[i].store(0, Ordering::Relaxed);
            self.calls[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_op() {
        let s = TrafficStats::new();
        s.record(CollectiveOp::AllGather, 100);
        s.record(CollectiveOp::AllGather, 50);
        s.record(CollectiveOp::AllToAll, 7);
        assert_eq!(s.bytes(CollectiveOp::AllGather), 150);
        assert_eq!(s.calls(CollectiveOp::AllGather), 2);
        assert_eq!(s.bytes(CollectiveOp::AllToAll), 7);
        assert_eq!(s.bytes(CollectiveOp::ReduceScatter), 0);
        assert_eq!(s.total_bytes(), 157);
    }

    #[test]
    fn reset_clears() {
        let s = TrafficStats::new();
        s.record(CollectiveOp::AllReduce, 10);
        s.reset();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.calls(CollectiveOp::AllReduce), 0);
    }

    #[test]
    fn concurrent_recording() {
        let s = TrafficStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record(CollectiveOp::ReduceScatter, 3);
                    }
                });
            }
        });
        assert_eq!(s.bytes(CollectiveOp::ReduceScatter), 24_000);
        assert_eq!(s.calls(CollectiveOp::ReduceScatter), 8_000);
    }
}
