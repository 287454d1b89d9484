//! Mailbox-and-barrier collective groups.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esti_tensor::{ops, QuantizedMatrix, Tensor};

use crate::fault::{FaultKind, FaultState, InjectedCrash};
use crate::stats::{CollectiveOp, CommTimes, TrafficStats, ACT_BYTES};
use crate::sync::{Barrier, BarrierFate, Mutex, PoisonError};

/// What one mailbox slot carries: a dense activation tensor, or a quantized
/// weight shard moved in its wire format (int8 values + per-column f32
/// scales). Keeping the quantized form first-class in the mailbox is what
/// lets weight-gathered layouts move int8 bytes instead of the dequantized
/// f32 view — the ledger then charges the true quantized volume.
#[derive(Clone)]
enum Payload {
    Dense(Tensor),
    Quant(QuantizedMatrix),
}

impl Payload {
    fn into_dense(self) -> Tensor {
        match self {
            Payload::Dense(t) => t,
            Payload::Quant(_) => panic!("expected dense payload in mailbox slot"),
        }
    }

    fn into_quant(self) -> QuantizedMatrix {
        match self {
            Payload::Dense(_) => panic!("expected quantized payload in mailbox slot"),
            Payload::Quant(q) => q,
        }
    }
}

/// What one member claims to be doing, deposited before each collective in
/// debug builds so divergent members fail an assertion instead of
/// deadlocking at the barrier or corrupting each other's mailboxes.
#[cfg(all(debug_assertions, not(loom)))]
#[derive(Clone, PartialEq, Debug)]
struct CallMeta {
    /// Index of this call in the member's collective sequence.
    seq: u64,
    op: CollectiveOp,
    shape: Vec<usize>,
    /// Operative dimensions: `[dim, dim]` for gather/scatter/reduce,
    /// `[split_dim, concat_dim]` for all-to-all.
    dims: [usize; 2],
    /// Whether the payload moves in the quantized wire format. A member
    /// posting a dense tensor while a peer posts int8 values would corrupt
    /// the exchange, so the payload form is part of the agreement check.
    quant: bool,
}

struct Shared {
    slots: Vec<Mutex<Option<Payload>>>,
    barrier: Barrier,
    stats: Option<Arc<TrafficStats>>,
    #[cfg(all(debug_assertions, not(loom)))]
    meta: Vec<Mutex<Option<CallMeta>>>,
}

/// One member's handle to a collective group of simulated chips.
///
/// All members of a group must call the *same* collective with compatible
/// shapes, in the same order — exactly the SPMD discipline of the real
/// system. A group of size 1 degenerates to identity operations.
///
/// # Examples
///
/// ```
/// use esti_collectives::CommGroup;
/// use esti_tensor::Tensor;
///
/// // A group of one: collectives are identities.
/// let mut solo = CommGroup::create(1);
/// let g = solo.remove(0);
/// let t = Tensor::ones(vec![2, 2]);
/// assert_eq!(g.all_reduce(&t), t);
/// assert_eq!(g.all_gather(&t, 0), t);
/// ```
pub struct CommGroup {
    shared: Arc<Shared>,
    rank: usize,
    /// Per-member wall-clock nanoseconds blocked in each collective kind.
    times: [Cell<u64>; 4],
    /// Deadline applied to every barrier wait this member performs. `None`
    /// (the default for raw groups) blocks forever like the pre-fault
    /// protocol; the engine arms a finite deadline so a stalled peer
    /// surfaces a structured [`CollectiveError`](crate::CollectiveError)
    /// instead of a hang.
    deadline: Cell<Option<Duration>>,
    /// Armed fault plan, shared (with per-chip call counters) by all of
    /// this chip's group handles. `chip` is the *global* chip id, which may
    /// differ from `rank` inside a sub-communicator.
    fault: RefCell<Option<FaultArm>>,
    /// Number of collectives this member has issued (debug-build SPMD check).
    #[cfg(all(debug_assertions, not(loom)))]
    calls: Cell<u64>,
}

struct FaultArm {
    state: Arc<FaultState>,
    chip: usize,
}

impl std::fmt::Debug for CommGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommGroup")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .finish()
    }
}

impl CommGroup {
    /// Creates a group of `size` members. The returned handles are in rank
    /// order; hand one to each chip thread.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn create(size: usize) -> Vec<CommGroup> {
        CommGroup::create_impl(size, None)
    }

    /// Like [`CommGroup::create`], recording every collective call in
    /// `stats`.
    #[must_use]
    pub fn create_with_stats(size: usize, stats: Arc<TrafficStats>) -> Vec<CommGroup> {
        CommGroup::create_impl(size, Some(stats))
    }

    fn create_impl(size: usize, stats: Option<Arc<TrafficStats>>) -> Vec<CommGroup> {
        assert!(size > 0, "group size must be positive");
        let shared = Arc::new(Shared {
            slots: (0..size).map(|_| Mutex::new(None)).collect(),
            barrier: Barrier::new(size),
            stats,
            #[cfg(all(debug_assertions, not(loom)))]
            meta: (0..size).map(|_| Mutex::new(None)).collect(),
        });
        (0..size)
            .map(|rank| CommGroup {
                shared: Arc::clone(&shared),
                rank,
                times: Default::default(),
                deadline: Cell::new(None),
                fault: RefCell::new(None),
                #[cfg(all(debug_assertions, not(loom)))]
                calls: Cell::new(0),
            })
            .collect()
    }

    /// This member's rank within the group.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members in the group.
    #[must_use]
    pub fn size(&self) -> usize {
        self.shared.slots.len()
    }

    /// Sets the deadline applied to every barrier wait this member
    /// performs. `None` restores the pre-fault block-forever behaviour.
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.deadline.set(deadline);
    }

    /// This member's barrier-wait deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline.get()
    }

    /// Arms `state`'s fault plan on this handle. `chip` is the global chip
    /// id owning the handle (its trigger key and the rank reported to peers
    /// on a crash); all of one chip's handles share one `state` so its
    /// collective calls are counted across groups.
    pub fn arm_faults(&self, state: Arc<FaultState>, chip: usize) {
        *self.fault.borrow_mut() = Some(FaultArm { state, chip });
    }

    /// Disarms any fault plan on this handle.
    pub fn clear_faults(&self) {
        *self.fault.borrow_mut() = None;
    }

    /// Marks the group dead because global chip `chip` crashed and wakes
    /// every member blocked in a collective; they surface
    /// [`CollectiveError::PeerCrashed`](crate::CollectiveError::PeerCrashed).
    /// Idempotent; the first recorded cause wins.
    pub fn cancel(&self, chip: usize) {
        self.shared.barrier.cancel(chip);
    }

    /// Marks the group dead because a member's deadline expired; blocked
    /// members surface
    /// [`CollectiveError::Timeout`](crate::CollectiveError::Timeout).
    pub fn cancel_timeout(&self) {
        self.shared.barrier.cancel_timeout();
    }

    /// One barrier phase under this member's deadline. A structured failure
    /// (peer crash, timeout) propagates as a typed panic payload so the
    /// tensor-returning collective API stays unchanged; the engine's
    /// per-chip `catch_unwind` harvests it into an `EngineError`.
    fn barrier_wait(&self) {
        if let Err(err) = self.shared.barrier.wait_deadline(self.deadline.get()) {
            std::panic::panic_any(err);
        }
    }

    /// Fault-injection hook at the top of every collective entry point:
    /// counts this chip's call and fires its armed trigger, if any.
    fn fault_point(&self) {
        let Some((state, chip)) = self
            .fault
            .borrow()
            .as_ref()
            .map(|arm| (Arc::clone(&arm.state), arm.chip))
        else {
            return;
        };
        match state.on_call(chip) {
            None => {}
            Some(FaultKind::Crash) => {
                // Die before touching the mailbox: peers observe the
                // cancellation (here for this group; the engine cancels the
                // chip's other groups when the unwind reaches it).
                self.shared.barrier.cancel(chip);
                std::panic::panic_any(InjectedCrash { chip });
            }
            Some(FaultKind::Stall(dur)) => {
                // Freeze in small slices, abandoning the stall early once a
                // peer has cancelled the group (its deadline expired) — the
                // engine then tears down in ~the deadline, not the full
                // stall duration.
                let slice = Duration::from_millis(2);
                let mut left = dur;
                while left > Duration::ZERO {
                    if self.shared.barrier.fate() != BarrierFate::Alive {
                        break;
                    }
                    let nap = slice.min(left);
                    std::thread::sleep(nap);
                    left -= nap;
                }
            }
            Some(FaultKind::Delay(dur)) => std::thread::sleep(dur),
        }
    }

    /// Core exchange: every member deposits a tensor and receives clones of
    /// everyone's deposits, in rank order. Two barrier phases ensure no
    /// member races ahead and overwrites a slot that others still read.
    fn exchange(&self, t: Tensor) -> Vec<Tensor> {
        self.exchange_payload(Payload::Dense(t))
            .into_iter()
            .map(Payload::into_dense)
            .collect()
    }

    /// [`exchange`](Self::exchange) for quantized weight shards: every
    /// member deposits int8 values + scales and receives everyone's, in
    /// rank order.
    fn exchange_quant(&self, q: QuantizedMatrix) -> Vec<QuantizedMatrix> {
        self.exchange_payload(Payload::Quant(q))
            .into_iter()
            .map(Payload::into_quant)
            .collect()
    }

    // Vetted: "peer deposited" is a two-phase-barrier protocol invariant
    // (every member deposits before any reads); its violation is a bug in
    // this file, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    fn exchange_payload(&self, p: Payload) -> Vec<Payload> {
        if self.size() == 1 {
            return vec![p];
        }
        *self.shared.slots[self.rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(p);
        self.barrier_wait();
        let all: Vec<Payload> = self
            .shared
            .slots
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .expect("peer deposited")
            })
            .collect();
        self.barrier_wait();
        all
    }

    /// Debug-build SPMD conformance check: every member deposits what it is
    /// about to do; after a barrier, each asserts all deposits agree. A
    /// member that diverged (wrong op, wrong shape, out-of-order call) fails
    /// fast with a message naming both sides, instead of deadlocking at the
    /// exchange barrier or silently mixing shards. Every member performs the
    /// identical comparison, so on disagreement *all* members panic and no
    /// thread is left waiting on a barrier that will never fill.
    ///
    /// Disabled under `--cfg loom` to keep the model-checked state space at
    /// the size of the production protocol.
    #[cfg(all(debug_assertions, not(loom)))]
    // Vetted: "peer deposited" is a two-phase-barrier protocol invariant
    // (every member deposits before any reads); its violation is a bug in
    // this file, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    fn debug_check_agreement(&self, op: CollectiveOp, shape: &[usize], dims: [usize; 2], quant: bool) {
        if self.size() == 1 {
            return;
        }
        let seq = self.calls.get();
        self.calls.set(seq + 1);
        let mine = CallMeta { seq, op, shape: shape.to_vec(), dims, quant };
        *self.shared.meta[self.rank].lock().unwrap_or_else(PoisonError::into_inner) =
            Some(mine.clone());
        self.barrier_wait();
        for (peer, slot) in self.shared.meta.iter().enumerate() {
            let theirs = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .expect("peer deposited call metadata");
            assert!(
                mine == theirs,
                "SPMD violation: rank {} issued {mine:?} but rank {peer} issued {theirs:?} — \
                 all members of a group must execute the same collective sequence",
                self.rank,
            );
        }
        self.barrier_wait();
    }

    #[cfg(not(all(debug_assertions, not(loom))))]
    fn debug_check_agreement(
        &self,
        _op: CollectiveOp,
        _shape: &[usize],
        _dims: [usize; 2],
        _quant: bool,
    ) {
    }

    fn record(&self, op: CollectiveOp, elems: usize) {
        self.record_raw(op, elems as u64 * ACT_BYTES);
    }

    /// Records an exact byte count — the quantized collectives charge their
    /// true wire volume (int8 values + f32 scales) instead of
    /// `elements × ACT_BYTES`.
    fn record_raw(&self, op: CollectiveOp, bytes: u64) {
        if self.rank == 0 {
            if let Some(stats) = &self.shared.stats {
                stats.record(op, bytes);
            }
        }
    }

    /// Accumulates wall-clock time blocked in a collective: always into this
    /// member's [`times`](CommGroup::times), and on rank 0 into the shared
    /// [`TrafficStats`] ledger.
    fn note_time(&self, op: CollectiveOp, start: Instant) {
        let d = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cell = &self.times[op.slot()];
        cell.set(cell.get().wrapping_add(d));
        if self.rank == 0 {
            if let Some(stats) = &self.shared.stats {
                stats.record_nanos(op, d);
            }
        }
    }

    /// This member's accumulated wall-clock time blocked per collective
    /// kind.
    #[must_use]
    pub fn times(&self) -> CommTimes {
        CommTimes::from_nanos([
            self.times[0].get(),
            self.times[1].get(),
            self.times[2].get(),
            self.times[3].get(),
        ])
    }

    /// Clears this member's accumulated collective times.
    pub fn reset_times(&self) {
        for t in &self.times {
            t.set(0);
        }
    }

    /// all-gather(`dim`): concatenates every member's `shard` along `dim`
    /// in rank order, replicating the result on all members.
    ///
    /// Traffic ledger: per-chip *output* bytes (Appendix A.1).
    ///
    /// # Panics
    ///
    /// Panics if members pass incompatible shapes.
    #[must_use]
    pub fn all_gather(&self, shard: &Tensor, dim: usize) -> Tensor {
        let parts = self.all_gather_parts(shard, dim);
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, dim)
    }

    /// [`all_gather`](Self::all_gather) without the concatenation: every
    /// rank's `shard`, in rank order — the dense counterpart of
    /// [`all_gather_quant`](Self::all_gather_quant), for callers that
    /// contract each source rank's shard separately. `dim` is the logical
    /// concatenation dimension; here it only participates in the SPMD
    /// agreement check.
    ///
    /// Traffic ledger: per-chip *output* bytes (Appendix A.1).
    #[must_use]
    pub fn all_gather_parts(&self, shard: &Tensor, dim: usize) -> Vec<Tensor> {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllGather, shard.shape(), [dim, dim], false);
        self.record(CollectiveOp::AllGather, shard.numel() * self.size());
        let parts = self.exchange(shard.clone());
        self.note_time(CollectiveOp::AllGather, t0);
        parts
    }

    /// reduce-scatter(`dim`): sums every member's `input` element-wise, then
    /// returns to each member its rank's slice of the sum along `dim`.
    ///
    /// Traffic ledger: per-chip *input* bytes (Appendix A.1).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by the group size or shapes differ.
    #[must_use]
    pub fn reduce_scatter(&self, input: &Tensor, dim: usize) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::ReduceScatter, input.shape(), [dim, dim], false);
        self.record(CollectiveOp::ReduceScatter, input.numel());
        if self.size() == 1 {
            return input.clone();
        }
        let sum = rank_sum(self.exchange(input.clone()));
        let k = self.size();
        assert!(
            sum.dim(dim).is_multiple_of(k),
            "reduce-scatter dim {dim} of size {} not divisible by group size {k}",
            sum.dim(dim)
        );
        let part = sum.dim(dim) / k;
        let out = sum.slice(dim, self.rank * part, part);
        self.note_time(CollectiveOp::ReduceScatter, t0);
        out
    }

    /// all-reduce: sums every member's `input` element-wise, replicating the
    /// result. Equivalent to reduce-scatter followed by all-gather
    /// (Section 3.1) and charged as both in the traffic ledger.
    #[must_use]
    pub fn all_reduce(&self, input: &Tensor) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllReduce, input.shape(), [0, 0], false);
        self.record(CollectiveOp::AllReduce, input.numel() * 2);
        if self.size() == 1 {
            return input.clone();
        }
        let sum = rank_sum(self.exchange(input.clone()));
        self.note_time(CollectiveOp::AllReduce, t0);
        sum
    }

    /// all-to-all: splits every member's `input` into `size()` slices along
    /// `split_dim`; member `r` receives slice `r` from everyone,
    /// concatenated along `concat_dim` in rank order. This is the resharding
    /// primitive that moves multiquery attention from head-sharded to
    /// batch-sharded layout (Section 3.3, Figure 5b).
    ///
    /// Traffic ledger: per-chip payload bytes (the full input; the `1/K`
    /// that stays local is excluded by the analytic model, not the ledger).
    ///
    /// # Panics
    ///
    /// Panics if `split_dim` is not divisible by the group size.
    #[must_use]
    pub fn all_to_all(&self, input: &Tensor, split_dim: usize, concat_dim: usize) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllToAll, input.shape(), [split_dim, concat_dim], false);
        self.record(CollectiveOp::AllToAll, input.numel());
        if self.size() == 1 {
            return input.clone();
        }
        let k = self.size();
        assert!(
            input.dim(split_dim).is_multiple_of(k),
            "all-to-all split dim {split_dim} of size {} not divisible by group size {k}",
            input.dim(split_dim)
        );
        let parts = self.exchange(input.clone());
        let part = input.dim(split_dim) / k;
        let mine: Vec<Tensor> = parts
            .iter()
            .map(|p| p.slice(split_dim, self.rank * part, part))
            .collect();
        let refs: Vec<&Tensor> = mine.iter().collect();
        let out = Tensor::concat(&refs, concat_dim);
        self.note_time(CollectiveOp::AllToAll, t0);
        out
    }

    /// Quantized all-gather: every member deposits its int8 weight shard in
    /// wire format (values + per-column scales) and receives every rank's
    /// shard, in rank order. The caller reassembles (or streams) them —
    /// returning the parts rather than a concatenation keeps each shard's
    /// scales attached to its values.
    ///
    /// `dim` is the logical concatenation dimension of the gather (0 = row
    /// shards sharing no scales, 1 = column shards partitioning the scale
    /// vector); it only participates in the SPMD agreement check here.
    ///
    /// Traffic ledger: per-chip *output* bytes like the dense
    /// [`all_gather`](Self::all_gather), but at the true quantized volume —
    /// `size() × shard.storage_bytes()` (1 byte per value + 4 per scale)
    /// instead of `elements × 2`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if members disagree on op, shape or dims.
    #[must_use]
    pub fn all_gather_quant(&self, shard: &QuantizedMatrix, dim: usize) -> Vec<QuantizedMatrix> {
        let t0 = Instant::now();
        self.fault_point();
        let shape = [shard.rows(), shard.cols()];
        self.debug_check_agreement(CollectiveOp::AllGather, &shape, [dim, dim], true);
        self.record_raw(
            CollectiveOp::AllGather,
            crate::stats::quant_wire_bytes(self.size(), shard.rows(), shard.cols()) as u64,
        );
        let parts = self.exchange_quant(shard.clone());
        self.note_time(CollectiveOp::AllGather, t0);
        parts
    }
}

/// Sums the rank-ordered deposits of a reduction in ascending rank order, in
/// place in rank 0's buffer: each element sees the serial add chain
/// `p₀ += p₁; p₀ += p₂; …`, which fixes the result's bits.
// Vetted expect: groups have at least one member (asserted at creation), so
// an exchange always returns at least one deposit.
#[allow(clippy::expect_used)]
fn rank_sum(parts: Vec<Tensor>) -> Tensor {
    parts
        .into_iter()
        .reduce(|mut sum, p| {
            ops::add_assign(&mut sum, &p);
            sum
        })
        .expect("group has at least one member")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(rank, group)` on one thread per group member and collects
    /// results in rank order.
    fn run_group<T: Send>(
        size: usize,
        f: impl Fn(usize, &CommGroup) -> T + Sync,
    ) -> Vec<T> {
        let members = CommGroup::create(size);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| s.spawn(move || f(r, &m)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("member panicked")).collect()
        })
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let outs = run_group(4, |r, g| {
            let shard = Tensor::full(vec![1, 3], r as f32);
            g.all_gather(&shard, 0)
        });
        for out in outs {
            assert_eq!(out.shape(), &[4, 3]);
            for r in 0..4 {
                assert_eq!(out.at(&[r, 0]), r as f32);
            }
        }
    }

    #[test]
    fn all_gather_along_inner_dim() {
        let outs = run_group(2, |r, g| {
            let shard = Tensor::full(vec![2, 2], r as f32);
            g.all_gather(&shard, 1)
        });
        assert_eq!(outs[0].shape(), &[2, 4]);
        assert_eq!(outs[0].data(), &[0., 0., 1., 1., 0., 0., 1., 1.]);
    }

    #[test]
    fn reduce_scatter_sums_and_shards() {
        let outs = run_group(2, |r, g| {
            // member r holds [r, r, r, r] over dim of size 4
            let input = Tensor::full(vec![4], r as f32 + 1.0);
            g.reduce_scatter(&input, 0)
        });
        // sum = [3,3,3,3]; rank 0 gets first half, rank 1 second
        assert_eq!(outs[0].shape(), &[2]);
        assert_eq!(outs[0].data(), &[3.0, 3.0]);
        assert_eq!(outs[1].data(), &[3.0, 3.0]);
    }

    #[test]
    fn all_reduce_replicates_sum() {
        let outs = run_group(3, |r, g| {
            let input = Tensor::from_vec(vec![2], vec![r as f32, 1.0]);
            g.all_reduce(&input)
        });
        for out in outs {
            assert_eq!(out.data(), &[3.0, 3.0]);
        }
    }

    #[test]
    fn all_reduce_equals_reduce_scatter_then_all_gather() {
        let inputs: Vec<Tensor> = (0..4)
            .map(|r| Tensor::from_vec(vec![8], (0..8).map(|i| (r * 8 + i) as f32).collect()))
            .collect();
        let via_ar = {
            let inputs = inputs.clone();
            run_group(4, move |r, g| g.all_reduce(&inputs[r]))
        };
        let via_rs_ag = run_group(4, move |r, g| {
            let rs = g.reduce_scatter(&inputs[r], 0);
            g.all_gather(&rs, 0)
        });
        for (a, b) in via_ar.iter().zip(&via_rs_ag) {
            assert!(a.approx_eq(b, 1e-6));
        }
    }

    #[test]
    fn all_to_all_transposes_sharding() {
        // Member r holds a [2, K] tensor with value 10*r + column.
        let outs = run_group(2, |r, g| {
            let input = Tensor::from_vec(
                vec![2, 2],
                vec![10.0 * r as f32, 10.0 * r as f32 + 1.0, 10.0 * r as f32, 10.0 * r as f32 + 1.0],
            );
            g.all_to_all(&input, 1, 0)
        });
        // Rank 0 receives column 0 from both peers, stacked along dim 0.
        assert_eq!(outs[0].shape(), &[4, 1]);
        assert_eq!(outs[0].data(), &[0.0, 0.0, 10.0, 10.0]);
        assert_eq!(outs[1].data(), &[1.0, 1.0, 11.0, 11.0]);
    }

    #[test]
    fn all_to_all_roundtrip_restores_layout() {
        // B-shard -> H-shard -> B-shard returns the original tensor.
        let outs = run_group(2, |r, g| {
            let original = Tensor::from_vec(
                vec![2, 4],
                (0..8).map(|i| (r * 8 + i) as f32).collect(),
            );
            let resharded = g.all_to_all(&original, 1, 0); // [4, 2]
            let back = g.all_to_all(&resharded, 0, 1); // [2, 4]
            (original, back)
        });
        for (original, back) in outs {
            assert!(original.approx_eq(&back, 0.0));
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_leak_state() {
        let outs = run_group(3, |r, g| {
            let mut acc = Tensor::full(vec![3], r as f32);
            for _ in 0..50 {
                acc = g.all_reduce(&acc.scale(0.5));
            }
            acc
        });
        for (a, b) in outs.iter().zip(&outs[1..]) {
            assert!(a.approx_eq(b, 1e-4));
        }
    }

    #[test]
    fn traffic_stats_recorded_once_per_call() {
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(2, Arc::clone(&stats));
        std::thread::scope(|s| {
            for m in members {
                s.spawn(move || {
                    let t = Tensor::ones(vec![4]);
                    let _ = m.all_gather(&t, 0);
                    let _ = m.reduce_scatter(&Tensor::ones(vec![8]), 0);
                });
            }
        });
        // all-gather output = 8 elements * 2 bytes; reduce-scatter input = 8 * 2.
        assert_eq!(stats.bytes(CollectiveOp::AllGather), 16);
        assert_eq!(stats.bytes(CollectiveOp::ReduceScatter), 16);
        assert_eq!(stats.calls(CollectiveOp::AllGather), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_collective_ops_fail_fast() {
        // One member all-gathers while the other all-reduces: a schedule
        // divergence that would deadlock or mis-shard in release. The debug
        // agreement check makes every member panic instead.
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_gather(&Tensor::ones(vec![2]), 0);
            });
            let _ = g0.all_reduce(&Tensor::ones(vec![2]));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_shapes_fail_fast() {
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_reduce(&Tensor::ones(vec![3]));
            });
            let _ = g0.all_reduce(&Tensor::ones(vec![2]));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_dims_fail_fast() {
        // Same op and shape but different gather dimension.
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_gather(&Tensor::ones(vec![2, 2]), 1);
            });
            let _ = g0.all_gather(&Tensor::ones(vec![2, 2]), 0);
        });
    }

    #[test]
    fn all_gather_parts_and_quant_hand_back_every_shard_in_rank_order() {
        // Every rank must receive every peer's shard unconcatenated, in rank
        // order — dense shards bit-exact, quantized shards with values AND
        // scales identical to the sender's local quantization.
        for size in [1usize, 2, 4] {
            let shard = |r: usize| {
                Tensor::from_vec(vec![3, 5], (0..15).map(|i| (r * 31 + i * 7) as f32 * 0.25 - 9.0).collect())
            };
            let outs = run_group(size, |r, g| {
                let q = QuantizedMatrix::quantize(&shard(r));
                (g.all_gather_parts(&shard(r), 0), g.all_gather(&shard(r), 0), g.all_gather_quant(&q, 0))
            });
            for (parts, gathered, quant) in outs {
                assert_eq!(parts.len(), size);
                assert_eq!(quant.len(), size);
                let refs: Vec<&Tensor> = parts.iter().collect();
                assert_eq!(Tensor::concat(&refs, 0), gathered);
                for r in 0..size {
                    assert_eq!(parts[r], shard(r));
                    let want = QuantizedMatrix::quantize(&shard(r));
                    assert_eq!(quant[r].values(), want.values());
                    assert_eq!(quant[r].scales(), want.scales());
                }
            }
        }
    }

    #[test]
    fn gather_ledger_charges_dense_and_quantized_volumes() {
        // Dense gathers charge output elements x ACT_BYTES whether or not
        // the caller wants the concatenation; the quantized gather charges
        // 1 byte per int8 value + 4 per f32 scale from each rank.
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(4, Arc::clone(&stats));
        std::thread::scope(|s| {
            for m in members {
                s.spawn(move || {
                    let t = Tensor::ones(vec![8, 6]);
                    let _ = m.all_gather(&t, 1);
                    let _ = m.all_gather_parts(&t, 1);
                    let _ = m.all_gather_quant(&QuantizedMatrix::quantize(&t), 1);
                });
            }
        });
        let dense = 4 * 8 * 6 * ACT_BYTES;
        let quant = 4 * (8 * 6 + 6 * 4);
        assert_eq!(stats.bytes(CollectiveOp::AllGather), 2 * dense + quant);
        assert_eq!(stats.calls(CollectiveOp::AllGather), 3);
    }

    #[test]
    fn collective_times_accumulate_blocking_time() {
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(2, Arc::clone(&stats));
        let times = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| {
                    s.spawn(move || {
                        if r == 0 {
                            // Make rank 1 demonstrably block in the barrier.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        let _ = m.all_reduce(&Tensor::ones(vec![4]));
                        m.times()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("member")).collect::<Vec<_>>()
        });
        assert!(
            times[1].nanos(CollectiveOp::AllReduce) >= 1_000_000,
            "rank 1 blocked {} ns, expected >= 1ms",
            times[1].nanos(CollectiveOp::AllReduce)
        );
        assert_eq!(times[1].nanos(CollectiveOp::AllGather), 0);
        assert!(stats.nanos(CollectiveOp::AllReduce) > 0);
        assert_eq!(times[1].total_nanos(), times[1].nanos(CollectiveOp::AllReduce));
        let mut merged = times[0];
        merged.merge(&times[1]);
        assert_eq!(
            merged.total_nanos(),
            times[0].total_nanos() + times[1].total_nanos()
        );
    }

    #[test]
    fn crash_fault_cancels_group_with_peer_crashed() {
        use crate::fault::{CollectiveError, FaultPlan, FaultState, InjectedCrash};
        let members = CommGroup::create(3);
        let state = Arc::new(FaultState::new(FaultPlan::new().crash(1, 0), 3));
        for (chip, m) in members.iter().enumerate() {
            m.arm_faults(Arc::clone(&state), chip);
        }
        let results: Vec<std::thread::Result<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .map(|m| s.spawn(move || m.all_reduce(&Tensor::ones(vec![2]))))
                .collect();
            handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect()
        });
        let crash = results[1].as_ref().expect_err("chip 1 was crashed");
        assert_eq!(crash.downcast_ref::<InjectedCrash>(), Some(&InjectedCrash { chip: 1 }));
        for r in [0, 2] {
            let err = results[r].as_ref().expect_err("peers observe the crash");
            assert_eq!(
                err.downcast_ref::<CollectiveError>(),
                Some(&CollectiveError::PeerCrashed { rank: 1 }),
                "rank {r}"
            );
        }
    }

    #[test]
    fn stalled_peer_surfaces_timeout_within_deadline() {
        use crate::fault::CollectiveError;
        let members = CommGroup::create(2);
        for m in &members {
            m.set_deadline(Some(Duration::from_millis(40)));
        }
        let t0 = Instant::now();
        let results: Vec<std::thread::Result<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| {
                    s.spawn(move || {
                        if r == 1 {
                            // Stalled chip: shows up long after the peer's
                            // deadline. It must then observe the timeout
                            // fate instead of waiting its own full deadline.
                            std::thread::sleep(Duration::from_millis(120));
                        }
                        m.all_reduce(&Tensor::ones(vec![2]))
                    })
                })
                .collect();
            handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect()
        });
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "structured timeout must not degenerate into a long wait"
        );
        for (r, res) in results.iter().enumerate() {
            let err = res.as_ref().expect_err("both sides surface the timeout");
            assert!(
                matches!(err.downcast_ref::<CollectiveError>(), Some(CollectiveError::Timeout { .. })),
                "rank {r}"
            );
        }
    }

    #[test]
    fn delay_fault_is_transparent_to_results() {
        use crate::fault::{FaultPlan, FaultState};
        let members = CommGroup::create(2);
        let plan = FaultPlan::new().delay(0, 0, Duration::from_millis(5));
        let state = Arc::new(FaultState::new(plan, 2));
        for (chip, m) in members.iter().enumerate() {
            m.arm_faults(Arc::clone(&state), chip);
            m.set_deadline(Some(Duration::from_secs(5)));
        }
        let outs: Vec<Tensor> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| {
                    s.spawn(move || m.all_reduce(&Tensor::full(vec![2], r as f32 + 1.0)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("delay is not an error")).collect()
        });
        for out in outs {
            assert_eq!(out.data(), &[3.0, 3.0]);
        }
    }

    #[test]
    fn deadline_barrier_matches_blocking_barrier_results() {
        let blocking = run_group(4, |r, g| {
            g.set_deadline(None);
            g.all_gather(&Tensor::full(vec![1, 2], r as f32), 0)
        });
        let deadlined = run_group(4, |r, g| {
            g.set_deadline(Some(Duration::from_secs(30)));
            g.all_gather(&Tensor::full(vec![1, 2], r as f32), 0)
        });
        for (a, b) in blocking.iter().zip(&deadlined) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn reduce_scatter_requires_divisibility() {
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.reduce_scatter(&Tensor::ones(vec![3]), 0);
            });
            let _ = g0.reduce_scatter(&Tensor::ones(vec![3]), 0);
        });
    }
}
