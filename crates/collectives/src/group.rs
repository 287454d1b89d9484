//! Mailbox-and-barrier collective groups.
//!
//! One collective is one rendezvous, in two halves. [`CommGroup::post`]
//! deposits the member's payload into its mailbox of the call's
//! *generation parity* (a member's calls alternate between two mailboxes)
//! and arrives at the group's barrier, without waiting for anyone.
//! [`CommGroup::complete`] awaits the barrier generation, reads every
//! peer's deposit of that parity in place — a dense result straight into
//! the caller's buffer, a parts gather as [`Part`]s, views of the deposits
//! themselves, no peer's deposit sliced or copied first — and counts the
//! member done; the last member to finish reading a generation empties
//! that parity's mailboxes. The blocking collectives
//! ([`CommGroup::all_reduce`] and the rest) are post, then complete.
//!
//! Each byte moves at most once on the host. [`Call`] takes a dense input
//! as a [`Cow`]: a borrowed one is copied into the deposit once, and an
//! owned one — an input the caller no longer needs — is moved in and
//! *lent*: the member keeps a reference to the deposit, and its next
//! completion on the group hands the buffer back to the caller, unless a
//! reader still holds a [`Part`] of it (the deposit is then freed with the
//! last part). A weight gather deposits the shard the chip stores, by
//! [`Arc`]. [`CommGroup::drain`] drops what a member lent last and never
//! had back.
//!
//! The split lets one thread run several members of a group in lockstep:
//! it posts for all of them, then completes each. A thread that completed
//! one member before posting another would wait on itself.
//!
//! No second barrier is needed, neither to keep a fast member from
//! overwriting a mailbox a slow one still reads nor to know when a lent
//! deposit is free: the next deposit into the same parity belongs to
//! generation g + 2, which a member posts only after completing g + 1 —
//! and every member arrives at g + 1 only once it has finished reading
//! generation g, the last of them after emptying g's mailboxes. So when a
//! member's completion of g + 1 is released, its deposit of g is held by
//! nothing but its own reference and the parts its readers keep.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use esti_tensor::{ops, PackedMatrix, Tensor};

use crate::fault::{FaultKind, FaultState, InjectedCrash};
use crate::stats::{CollectiveOp, TrafficStats, ACT_BYTES};
use crate::sync::{Arrival, Barrier, BarrierFate, Mutex, PoisonError};

/// What one mailbox slot carries: a dense activation tensor, or a weight
/// shard in its stored, panel-packed form (f32, or int8 values +
/// per-column f32 scales), shared with the chip that stores it. Keeping the
/// stored form first-class in the mailbox is what lets weight-gathered
/// layouts move int8 bytes instead of a dequantized f32 view, and hand
/// every rank's part to the GEMM tile without repacking or copying it.
enum Payload {
    Dense(Tensor),
    Packed(Arc<PackedMatrix>),
}

/// One member's deposit for one collective: its payload and, in debug
/// builds, what it claims to be doing.
struct Deposit {
    payload: Payload,
    #[cfg(all(debug_assertions, not(loom)))]
    meta: CallMeta,
}

impl Deposit {
    fn dense(&self) -> &Tensor {
        match &self.payload {
            Payload::Dense(t) => t,
            Payload::Packed(_) => panic!("expected dense payload in mailbox slot"),
        }
    }

    fn packed(&self) -> &Arc<PackedMatrix> {
        match &self.payload {
            Payload::Dense(_) => panic!("expected a packed weight in mailbox slot"),
            Payload::Packed(p) => p,
        }
    }
}

#[cfg(all(debug_assertions, not(loom)))]
impl Payload {
    fn shape(&self) -> Vec<usize> {
        match self {
            Payload::Dense(t) => t.shape().to_vec(),
            Payload::Packed(p) => vec![p.rows(), p.cols()],
        }
    }
}

/// What one member claims to be doing, deposited with each collective's
/// payload in debug builds so divergent members fail an assertion instead
/// of corrupting each other's results.
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
    /// The payload's form: a dense tensor (`None`) or a packed weight, int8
    /// (`Some(true)`) or f32. A member posting a dense tensor while a peer
    /// posts int8 values would corrupt the exchange, so the payload form is
    /// part of the agreement check.
    packed: Option<bool>,
}

/// A mailbox: empty, or one member's deposit of the generation in flight.
/// The deposit sits behind an `Arc` so readers hold the lock only to take a
/// reference, never while they fold or copy, a parts read hands the
/// reference on, and a member keeps one to what it lent.
type Mailbox = Mutex<Option<Arc<Deposit>>>;

struct Shared {
    /// One mailbox per rank for each generation parity.
    slots: [Vec<Mailbox>; 2],
    /// Per parity, how many members have finished reading the generation in
    /// flight; the last one empties that parity's mailboxes.
    readers: [Mutex<usize>; 2],
    barrier: Barrier,
    stats: Option<Arc<TrafficStats>>,
}

/// One collective call as a member [`post`](CommGroup::post)s it: each
/// variant carries one blocking collective's arguments. A dense input is
/// deposited as it comes: an owned one is moved into the deposit, a
/// borrowed one copied once.
pub enum Call<'a> {
    /// [`CommGroup::all_gather`] of `shard` along `dim`.
    AllGather { shard: Cow<'a, Tensor>, dim: usize },
    /// [`CommGroup::all_gather`] of `shard` without the concatenation:
    /// every rank's shard, in rank order, for a caller that contracts each
    /// source rank's shard separately. `dim` is the logical concatenation
    /// dimension; it only takes part in the SPMD agreement check. Charged
    /// as the dense all-gather's output bytes.
    AllGatherParts { shard: Cow<'a, Tensor>, dim: usize },
    /// A weight all-gather: every rank's packed `shard`, in rank order, as
    /// stored (an int8 shard's scales kept with its values) and shared, not
    /// copied. `dim` is the logical concatenation dimension (0 = row
    /// shards, 1 = column shards); it only takes part in the SPMD agreement
    /// check. An int8 shard is
    /// charged at its true quantized volume, `size() ×
    /// shard.storage_bytes()` (1 byte per value + 4 per scale); an f32 one
    /// as the dense gather's output elements × [`ACT_BYTES`], the wire
    /// format the ledger models for dense weights.
    AllGatherPacked { shard: Arc<PackedMatrix>, dim: usize },
    /// [`CommGroup::reduce_scatter`] of `input` along `dim`.
    ReduceScatter { input: Cow<'a, Tensor>, dim: usize },
    /// [`CommGroup::all_reduce`] of `input`.
    AllReduce { input: Cow<'a, Tensor> },
    /// [`CommGroup::all_to_all`] of `input`, split along `split` and
    /// concatenated along `concat`.
    AllToAll { input: Cow<'a, Tensor>, split: usize, concat: usize },
}

impl Call<'_> {
    /// Whether the call hands over its dense input, to be moved into the
    /// deposit and lent.
    fn lends(&self) -> bool {
        match self {
            Call::AllGather { shard: t, .. }
            | Call::AllGatherParts { shard: t, .. }
            | Call::ReduceScatter { input: t, .. }
            | Call::AllReduce { input: t }
            | Call::AllToAll { input: t, .. } => matches!(t, Cow::Owned(_)),
            Call::AllGatherPacked { .. } => false,
        }
    }
}

/// What a [`complete`](CommGroup::complete)d call hands back.
pub enum Received {
    /// A gather's concatenation, a reduction's sum or slice of it, or an
    /// all-to-all's result.
    Tensor(Tensor),
    /// [`Call::AllGatherParts`]: every rank's shard, in rank order, read in
    /// place.
    Parts(Vec<Part>),
    /// [`Call::AllGatherPacked`]: every rank's packed shard, in rank order,
    /// shared with the rank that stores it.
    Packed(Vec<Arc<PackedMatrix>>),
}

/// One rank's shard of a parts gather ([`Call::AllGatherParts`]), read in
/// place: a view of the rank's deposit, not a copy. The deposit's buffer
/// goes back to its poster only once no part of it is held, so a reader
/// drops its parts before its next rendezvous on the group.
pub struct Part(Arc<Deposit>);

impl std::ops::Deref for Part {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        self.0.dense()
    }
}

impl Received {
    fn tensor(self) -> Tensor {
        match self {
            Received::Tensor(t) => t,
            _ => unreachable!("this call reads one tensor"),
        }
    }
}

/// A call one member has posted and not yet completed: `read` turns the
/// released deposits into the result.
#[must_use = "a posted collective must be completed"]
pub struct Posted {
    read: Read,
    parity: usize,
    flight: Flight,
}

enum Flight {
    /// A group of one: its own deposit, read on completion.
    Solo(Arc<Deposit>),
    /// Deposited and arrived at the barrier.
    Arrived(Arrival),
}

/// How a member reads the rank-ordered deposits of a released generation.
#[derive(Clone, Copy)]
enum Read {
    /// Concatenated along the dim.
    Concat(usize),
    /// Every dense deposit, unconcatenated.
    Parts,
    /// Every packed deposit.
    Packed,
    /// This member's `part`-wide slice along `dim` of the rank-ordered sum.
    Slice { dim: usize, part: usize },
    /// The rank-ordered sum.
    Sum,
    /// This member's `part`-wide slice along `split` of every deposit,
    /// concatenated along `concat`.
    Transpose { split: usize, concat: usize, part: usize },
}

impl Read {
    /// The result of reading `all`, a dense one written into `buf` straight
    /// from the deposits: concatenated, folded in ascending rank order, or
    /// cut, with no peer's deposit sliced or copied first. Given `rows`, a
    /// read that keeps rows reads only those ([`Read::apply_rows`]).
    fn apply(self, all: &[Arc<Deposit>], rank: usize, buf: Vec<f32>, rows: Option<&[Range<usize>]>) -> Received {
        let mut out = match rows {
            Some(rows) => match self.apply_rows(all, rank, buf, rows) {
                Ok(t) => return Received::Tensor(t),
                Err(buf) => buf,
            },
            None => buf,
        };
        out.clear();
        Received::Tensor(match self {
            Read::Parts => return Received::Parts(all.iter().map(|d| Part(Arc::clone(d))).collect()),
            Read::Packed => return Received::Packed(all.iter().map(|d| Arc::clone(d.packed())).collect()),
            Read::Concat(dim) => Tensor::concat_into(&all.iter().map(|d| d.dense()).collect::<Vec<_>>(), dim, out),
            Read::Slice { dim, part } => {
                let mut sum = all[0].dense().slice_into(dim, rank * part, part, out);
                for d in &all[1..] {
                    add_slice(&mut sum, d.dense(), dim, rank * part);
                }
                sum
            }
            Read::Sum => {
                let first = all[0].dense();
                out.reserve_exact(first.numel());
                out.extend_from_slice(first.data());
                let mut sum = Tensor::from_vec(first.shape().to_vec(), out);
                for d in &all[1..] {
                    ops::add_assign(&mut sum, d.dense());
                }
                sum
            }
            Read::Transpose { split, concat, part } => {
                let shape = all[0].dense().shape();
                // One deposit's share: `part` wide along `split`, from `rank·part`.
                let mut piece = shape.to_vec();
                piece[split] = part;
                let mut start = vec![0; shape.len()];
                start[split] = rank * part;
                // Output order: each index over the dims before `concat`, then
                // every rank's share of the dims from `concat` on.
                let mut extent = piece.clone();
                extent[..concat].fill(1);
                let outer: usize = piece[..concat].iter().product();
                out.reserve_exact(outer * piece[concat..].iter().product::<usize>() * all.len());
                for o in 0..outer {
                    let mut rest = o;
                    for d in (0..concat).rev() {
                        start[d] = rest % piece[d] + if d == split { rank * part } else { 0 };
                        rest /= piece[d];
                    }
                    for dep in all {
                        extend_box(&mut out, dep.dense(), &start, &extent);
                    }
                }
                piece[concat] *= all.len();
                Tensor::from_vec(piece, out)
            }
        })
    }

    /// A read that keeps its deposits' rows (their leading dims flattened)
    /// — the sum, or a concatenation or this member's slice along the last
    /// dim — over only the rows `rows` of the result, into `buf`: each of
    /// them is its deposits' rows, side by side or folded in ascending rank
    /// order exactly as the whole read folds them, and every other row is
    /// zero. Any other read hands `buf` back.
    fn apply_rows(self, all: &[Arc<Deposit>], rank: usize, buf: Vec<f32>, rows: &[Range<usize>]) -> Result<Tensor, Vec<f32>> {
        let first = match self {
            Read::Sum | Read::Slice { .. } | Read::Concat(_) => all[0].dense(),
            _ => return Err(buf),
        };
        let (last, w) = (first.rank() - 1, first.dim(first.rank() - 1));
        // The result's width, and the columns of each deposit's row it reads.
        let (width, cols) = match self {
            Read::Sum => (w, 0..w),
            Read::Slice { dim, part } if dim == last => (part, rank * part..(rank + 1) * part),
            Read::Concat(dim) if dim == last => (w * all.len(), 0..w),
            _ => return Err(buf),
        };
        let mut shape = first.shape().to_vec();
        shape[last] = width;
        let n = shape.iter().product();
        let mut out = buf;
        out.clear();
        out.resize(n, 0.0);
        for t in rows.iter().cloned().flatten() {
            let dst = &mut out[t * width..(t + 1) * width];
            for (r, d) in all.iter().enumerate() {
                let src = &d.dense().data()[t * w + cols.start..t * w + cols.end];
                match (self, r) {
                    (Read::Concat(_), _) => dst[r * w..(r + 1) * w].copy_from_slice(src),
                    (_, 0) => dst.copy_from_slice(src),
                    _ => dst.iter_mut().zip(src).for_each(|(o, &s)| *o += s),
                }
            }
        }
        Ok(Tensor::from_vec(shape, out))
    }
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
    /// Number of collectives this member has issued: its next call's
    /// generation, whose parity picks the mailbox.
    calls: Cell<u64>,
    /// Per parity, the deposit this member lent (moved an input into) and
    /// has not yet had back.
    lent: RefCell<[Option<Arc<Deposit>>; 2]>,
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
    /// order; hand one to each member (a chip).
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
        let mailboxes = || (0..size).map(|_| Mutex::new(None)).collect();
        let shared = Arc::new(Shared {
            slots: [mailboxes(), mailboxes()],
            readers: [Mutex::new(0), Mutex::new(0)],
            barrier: Barrier::new(size),
            stats,
        });
        (0..size)
            .map(|rank| CommGroup {
                shared: Arc::clone(&shared),
                rank,
                deadline: Cell::new(None),
                fault: RefCell::new(None),
                calls: Cell::new(0),
                lent: RefCell::new([None, None]),
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
        self.shared.slots[0].len()
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
                // stall duration. The thread stalling here may also be the
                // one that runs those peers (an executor runs several
                // chips), so once this member's own deadline has passed it
                // times the group out itself, as the first of them would.
                let slice = Duration::from_millis(2);
                let (limit, t0) = (self.deadline.get(), Instant::now());
                let mut left = dur;
                while left > Duration::ZERO {
                    if self.shared.barrier.fate() != BarrierFate::Alive {
                        break;
                    }
                    if limit.is_some_and(|limit| t0.elapsed() >= limit) {
                        self.shared.barrier.cancel_timeout();
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

    /// Posts this member's half of `call`: the fault point, the ledger
    /// entry, the deposit into this member's mailbox of the call's
    /// generation parity, and its arrival at the barrier. Never waits for a
    /// peer. The member must [`complete`](Self::complete) the call before
    /// it posts again.
    ///
    /// The deposit holds the input itself where the caller hands it over:
    /// an owned dense input is moved in and lent until the member's next
    /// completion on the group, a borrowed one copied once, and a weight
    /// shard shared.
    ///
    /// A thread running several members of one group posts for every one
    /// of them before it completes any: each completion waits until all of
    /// the group has posted.
    ///
    /// # Panics
    ///
    /// Panics with an [`InjectedCrash`] at an armed crash, with a
    /// [`CollectiveError`](crate::CollectiveError) if the group is already
    /// cancelled, and if a reduce-scatter's or all-to-all's split dim does
    /// not divide by the group size.
    pub fn post(&self, call: Call<'_>) -> Posted {
        self.fault_point();
        let k = self.size();
        let divide = |t: &Tensor, dim: usize, what: &str| {
            assert!(
                t.dim(dim).is_multiple_of(k),
                "{what} dim {dim} of size {} not divisible by group size {k}",
                t.dim(dim)
            );
            t.dim(dim) / k
        };
        let lends = call.lends();
        let (op, dims, read, payload) = match call {
            Call::AllGather { shard, dim } => {
                self.record(CollectiveOp::AllGather, shard.numel() * k);
                (CollectiveOp::AllGather, [dim, dim], Read::Concat(dim), Payload::Dense(shard.into_owned()))
            }
            Call::AllGatherParts { shard, dim } => {
                self.record(CollectiveOp::AllGather, shard.numel() * k);
                (CollectiveOp::AllGather, [dim, dim], Read::Parts, Payload::Dense(shard.into_owned()))
            }
            Call::AllGatherPacked { shard, dim } => {
                let (rows, cols) = (shard.rows(), shard.cols());
                if shard.scales().is_some() {
                    self.record_raw(CollectiveOp::AllGather, crate::stats::quant_wire_bytes(k, rows, cols) as u64);
                } else {
                    self.record(CollectiveOp::AllGather, rows * cols * k);
                }
                (CollectiveOp::AllGather, [dim, dim], Read::Packed, Payload::Packed(shard))
            }
            Call::ReduceScatter { input, dim } => {
                self.record(CollectiveOp::ReduceScatter, input.numel());
                let part = divide(&input, dim, "reduce-scatter");
                (CollectiveOp::ReduceScatter, [dim, dim], Read::Slice { dim, part }, Payload::Dense(input.into_owned()))
            }
            Call::AllReduce { input } => {
                self.record(CollectiveOp::AllReduce, input.numel() * 2);
                (CollectiveOp::AllReduce, [0, 0], Read::Sum, Payload::Dense(input.into_owned()))
            }
            Call::AllToAll { input, split, concat } => {
                self.record(CollectiveOp::AllToAll, input.numel());
                let part = divide(&input, split, "all-to-all split");
                let read = Read::Transpose { split, concat, part };
                (CollectiveOp::AllToAll, [split, concat], read, Payload::Dense(input.into_owned()))
            }
        };
        let generation = self.calls.get();
        self.calls.set(generation + 1);
        #[cfg(all(debug_assertions, not(loom)))]
        let meta = CallMeta {
            seq: generation,
            op,
            shape: payload.shape(),
            dims,
            packed: match &payload {
                Payload::Dense(_) => None,
                Payload::Packed(p) => Some(p.scales().is_some()),
            },
        };
        #[cfg(not(all(debug_assertions, not(loom))))]
        let _ = (op, dims);
        let mine = Arc::new(Deposit {
            payload,
            #[cfg(all(debug_assertions, not(loom)))]
            meta,
        });
        let parity = usize::from(generation % 2 == 1);
        if lends {
            self.lent.borrow_mut()[parity] = Some(Arc::clone(&mine));
        }
        if k == 1 {
            // A group of one has no peer to wait for.
            return Posted { read, parity, flight: Flight::Solo(mine) };
        }
        *self.shared.slots[parity][self.rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(mine);
        match self.shared.barrier.arrive(self.deadline.get()) {
            Ok(arrival) => Posted { read, parity, flight: Flight::Arrived(arrival) },
            Err(err) => std::panic::panic_any(err),
        }
    }

    /// Completes a call this member [`post`](Self::post)ed: awaits the
    /// barrier generation it joined, takes back the deposit this member lent
    /// at its previous call on the group, checks in debug builds that every
    /// deposit describes the same call, reads the deposits in rank order,
    /// in place, and counts this member done reading. The last member to
    /// finish reading empties the parity's mailboxes, so no deposit stays
    /// in a mailbox past its collective.
    ///
    /// A dense result (a gather's concatenation, a reduction's sum or this
    /// member's slice of it, an all-to-all's share) is written into `buf`,
    /// grown if short, straight from the deposits: a caller that keeps its
    /// buffers across calls reads without allocating. A parts read leaves
    /// `buf` unused and hands back [`Part`]s, views of the deposits; a
    /// weight gather, the shards the peers store.
    ///
    /// The second value is the buffer this member moved into its deposit at
    /// its previous call on the group, which every member finished reading
    /// before it arrived at this call (see the module doc): `None` if that
    /// call copied or shared its input, or if a reader still holds a
    /// [`Part`] of the deposit, which is then freed with the last part. A
    /// buffer this call lends comes back at the member's next completion on
    /// the group, or is dropped by [`drain`](Self::drain).
    ///
    /// # Panics
    ///
    /// Panics with a [`CollectiveError`](crate::CollectiveError) payload if
    /// the group is cancelled or the deadline expires first, so the
    /// tensor-returning API stays unchanged; the engine's per-chip
    /// `catch_unwind` harvests it into an `EngineError`.
    #[must_use]
    pub fn complete(&self, posted: Posted, buf: Vec<f32>) -> (Received, Option<Vec<f32>>) {
        self.complete_rows(posted, buf, None)
    }

    /// [`complete`](Self::complete), reading only the rows `rows` of a
    /// result that keeps its deposits' rows (their leading dims flattened):
    /// an all-reduce's sum, or a gather or reduce-scatter along the last
    /// dim. Every other row of such a result is zero; any other read reads
    /// every row. `None` reads every row. What the call moves, and what the
    /// ledger counts, does not change.
    ///
    /// # Panics
    ///
    /// As [`complete`](Self::complete).
    // Vetted: "peer deposited" is a protocol invariant (every member deposits
    // before it arrives, and a parity's mailboxes are emptied only after
    // every member has read them); its violation is a bug in this file, not
    // a runtime fault. Faults surface as the await's error.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn complete_rows(
        &self,
        posted: Posted,
        buf: Vec<f32>,
        rows: Option<&[Range<usize>]>,
    ) -> (Received, Option<Vec<f32>>) {
        let Posted { read, parity, flight } = posted;
        let arrival = match flight {
            Flight::Solo(mine) => return (read.apply(&[mine], self.rank, buf, rows), self.take_back(1 - parity)),
            Flight::Arrived(arrival) => arrival,
        };
        if let Err(err) = self.shared.barrier.await_generation(arrival) {
            std::panic::panic_any(err);
        }
        let back = self.take_back(1 - parity);
        let all: Vec<Arc<Deposit>> = self.shared.slots[parity]
            .iter()
            .map(|s| {
                let slot = s.lock().unwrap_or_else(PoisonError::into_inner);
                Arc::clone(slot.as_ref().expect("peer deposited"))
            })
            .collect();
        self.debug_check_agreement(&all);
        let out = read.apply(&all, self.rank, buf, rows);
        drop(all);
        self.release(parity);
        (out, back)
    }

    /// One blocking collective: [`post`](Self::post), then
    /// [`complete`](Self::complete) into a new buffer.
    fn call(&self, call: Call<'_>) -> Received {
        self.complete(self.post(call), Vec::new()).0
    }

    /// Counts this member done reading the generation in flight at
    /// `parity`. The last reader empties that parity's mailboxes: every
    /// peer has dropped its references by then, so a deposit nobody lent or
    /// holds a part of frees here.
    fn release(&self, parity: usize) {
        let mut done = self.shared.readers[parity].lock().unwrap_or_else(PoisonError::into_inner);
        *done += 1;
        if *done < self.size() {
            return;
        }
        *done = 0;
        drop(done);
        for s in &self.shared.slots[parity] {
            *s.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// The buffer of the deposit this member lent at `parity`, if no one
    /// else holds the deposit any more; either way the member lets go of it.
    /// Every member has finished reading it once the member's next
    /// completion on the group is released.
    fn take_back(&self, parity: usize) -> Option<Vec<f32>> {
        let mine = self.lent.borrow_mut()[parity].take()?;
        match Arc::try_unwrap(mine).ok()?.payload {
            Payload::Dense(t) => Some(t.into_vec()),
            Payload::Packed(_) => None,
        }
    }

    /// Lets go of what this member lent and has not had back: its last
    /// moved input on the group, which no later completion takes back. A
    /// caller that lends runs this between runs of its program, so no
    /// buffer is kept from one to the next; the deposit frees once its
    /// readers are done with it.
    pub fn drain(&self) {
        *self.lent.borrow_mut() = [None, None];
    }

    /// Debug-build SPMD conformance check, run on one rendezvous's deposits
    /// before any payload is read: every member asserts that all deposits
    /// describe the call it made. A member that diverged (wrong op, wrong
    /// shape, wrong payload form) fails fast with a message naming both
    /// sides instead of silently mixing shards. Every member performs the
    /// identical comparison, so on disagreement *all* members panic and no
    /// thread is left waiting on a barrier that will never fill.
    ///
    /// Disabled under `--cfg loom` to keep the model-checked state space at
    /// the size of the production protocol.
    #[cfg(all(debug_assertions, not(loom)))]
    fn debug_check_agreement(&self, all: &[Arc<Deposit>]) {
        let mine = &all[self.rank].meta;
        for (peer, theirs) in all.iter().map(|d| &d.meta).enumerate() {
            assert!(
                mine == theirs,
                "SPMD violation: rank {} issued {mine:?} but rank {peer} issued {theirs:?} — \
                 all members of a group must execute the same collective sequence",
                self.rank,
            );
        }
    }

    #[cfg(not(all(debug_assertions, not(loom))))]
    fn debug_check_agreement(&self, _all: &[Arc<Deposit>]) {}

    /// Whether any mailbox of either parity still holds a deposit.
    #[cfg(test)]
    fn holds_deposits(&self) -> bool {
        self.shared
            .slots
            .iter()
            .flatten()
            .any(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_some())
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
        self.call(Call::AllGather { shard: Cow::Borrowed(shard), dim }).tensor()
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
        self.call(Call::ReduceScatter { input: Cow::Borrowed(input), dim }).tensor()
    }

    /// all-reduce: sums every member's `input` element-wise, replicating the
    /// result. Equivalent to reduce-scatter followed by all-gather
    /// (Section 3.1) and charged as both in the traffic ledger.
    #[must_use]
    pub fn all_reduce(&self, input: &Tensor) -> Tensor {
        self.call(Call::AllReduce { input: Cow::Borrowed(input) }).tensor()
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
        self.call(Call::AllToAll { input: Cow::Borrowed(input), split: split_dim, concat: concat_dim }).tensor()
    }
}

/// `sum += src.slice(dim, start, sum.dim(dim))`, read in place: the next
/// link of a slice's rank-ordered add chain `p₀ + p₁ + p₂ + …`, which fixes
/// the result's bits.
fn add_slice(sum: &mut Tensor, src: &Tensor, dim: usize, start: usize) {
    let inner: usize = src.shape()[dim + 1..].iter().product();
    let (run, stride) = (sum.dim(dim) * inner, src.dim(dim) * inner);
    for (o, dst) in sum.data_mut().chunks_mut(run.max(1)).enumerate() {
        let from = o * stride + start * inner;
        for (d, &s) in dst.iter_mut().zip(&src.data()[from..from + run]) {
            *d += s;
        }
    }
}

/// Appends the box of `t` from `start`, `extent` wide along each dim, to
/// `out` in row-major order.
fn extend_box(out: &mut Vec<f32>, t: &Tensor, start: &[usize], extent: &[usize]) {
    fn walk(out: &mut Vec<f32>, data: &[f32], shape: &[usize], start: &[usize], extent: &[usize]) {
        if shape.len() == 1 {
            out.extend_from_slice(&data[start[0]..start[0] + extent[0]]);
            return;
        }
        let inner: usize = shape[1..].iter().product();
        for i in start[0]..start[0] + extent[0] {
            walk(out, &data[i * inner..(i + 1) * inner], &shape[1..], &start[1..], &extent[1..]);
        }
    }
    walk(out, t.data(), t.shape(), start, extent);
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
    fn no_deposit_outlives_its_collective() {
        // Once every member has returned from a collective, the last reader
        // has emptied its mailboxes: nothing of either parity stays pinned
        // until the group's next call.
        let members = CommGroup::create(4);
        let members: Vec<CommGroup> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .map(|g| {
                    s.spawn(move || {
                        let t = Tensor::full(vec![4, 8], g.rank() as f32);
                        let _ = g.all_reduce(&t);
                        let _ = g.all_gather(&t, 1);
                        let _ = g.reduce_scatter(&t, 0);
                        let _ = g.all_to_all(&t, 1, 0);
                        g
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("member")).collect()
        });
        for g in &members {
            assert!(!g.holds_deposits(), "rank {} sees a deposit left behind", g.rank());
        }
    }

    /// Posts member `g`'s call and completes it.
    fn run_call(g: &CommGroup, call: Call<'_>) -> (Received, Option<Vec<f32>>) {
        g.complete(g.post(call), Vec::new())
    }

    #[test]
    fn a_read_of_some_rows_is_the_whole_read_there_and_zero_elsewhere() {
        // Three members, `[2, 3, 6]` inputs (six token rows of six): a
        // row-keeping read of rows {1, 3, 4} gives those rows the whole
        // read's bits and zeros elsewhere, into a stale buffer; a read that
        // moves rows between dims reads them all.
        fn call<'t>(name: &str, t: Cow<'t, Tensor>) -> Call<'t> {
            match name {
                "all-reduce" => Call::AllReduce { input: t },
                "reduce-scatter" => Call::ReduceScatter { input: t, dim: 2 },
                "gather" => Call::AllGather { shard: t, dim: 2 },
                _ => Call::AllToAll { input: t, split: 2, concat: 0 },
            }
        }
        let rows = [1..2, 3..5];
        for name in ["all-reduce", "reduce-scatter", "gather", "all-to-all"] {
            let outs = run_group(3, |r, g| {
                let input: Vec<f32> = (0..36).map(|i| ((i * 7 + r * 13) % 17) as f32 * 0.37 - 2.9).collect();
                let input = Tensor::from_vec(vec![2, 3, 6], input);
                let whole = g.complete(g.post(call(name, Cow::Borrowed(&input))), Vec::new()).0;
                let some = g.complete_rows(g.post(call(name, Cow::Borrowed(&input))), vec![9.0; 64], Some(&rows)).0;
                let dense = |x: Received| match x {
                    Received::Tensor(t) => t,
                    _ => unreachable!("a dense read"),
                };
                (dense(whole), dense(some))
            });
            for (r, (whole, some)) in outs.into_iter().enumerate() {
                assert_eq!(whole.shape(), some.shape(), "{name} rank {r}");
                let w = whole.dim(2);
                for (t, (a, b)) in whole.data().chunks(w).zip(some.data().chunks(w)).enumerate() {
                    let kept = name == "all-to-all" || rows.iter().any(|rr| rr.contains(&t));
                    let want: Vec<u32> = if kept { a.iter().map(|v| v.to_bits()).collect() } else { vec![0; w] };
                    assert_eq!(b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "{name} rank {r} row {t}");
                }
            }
        }
    }

    #[test]
    fn parts_and_packed_reads_point_at_the_posters_deposit() {
        // A parts gather hands every rank a view of each poster's deposit,
        // which holds the very buffer the poster moved in; a weight gather
        // hands it the shard the poster stores. Nothing is copied.
        let inputs: Vec<Tensor> = (0..3).map(|r| Tensor::full(vec![2, 4], r as f32)).collect();
        let ptrs: Vec<usize> = inputs.iter().map(|t| t.data().as_ptr() as usize).collect();
        let shards: Vec<Arc<PackedMatrix>> = inputs.iter().map(|t| Arc::new(PackedMatrix::quantize(t))).collect();
        let inputs = std::sync::Mutex::new(inputs.into_iter().map(Some).collect::<Vec<_>>());
        let outs = run_group(3, |r, g| {
            let mine = inputs.lock().expect("inputs")[r].take().expect("one input per rank");
            let (Received::Parts(parts), _) = run_call(g, Call::AllGatherParts { shard: Cow::Owned(mine), dim: 1 }) else {
                unreachable!("a parts gather reads parts")
            };
            let (Received::Packed(weights), _) = run_call(g, Call::AllGatherPacked { shard: Arc::clone(&shards[r]), dim: 0 })
            else {
                unreachable!("a weight gather reads packed parts")
            };
            (parts.iter().map(|p| p.data().as_ptr() as usize).collect::<Vec<_>>(), weights)
        });
        for (parts, weights) in outs {
            assert_eq!(parts, ptrs, "a part is the poster's own buffer");
            for (w, s) in weights.iter().zip(&shards) {
                assert!(Arc::ptr_eq(w, s), "a gathered weight is the poster's stored shard");
            }
        }
    }

    #[test]
    fn the_next_rendezvous_hands_back_the_previous_deposit() {
        // Each member moves its input into the deposit; its next completion
        // on the group hands back that very allocation, with the buffer's
        // capacity intact, and a group of one does the same.
        for size in [1usize, 2, 3] {
            let backs = run_group(size, |r, g| {
                let mut buf = Vec::with_capacity(64);
                buf.extend((0..8).map(|i| (r * 8 + i) as f32));
                let x = Tensor::from_vec(vec![8], buf);
                let ptr = x.data().as_ptr() as usize;
                let (_, first) = run_call(g, Call::AllReduce { input: Cow::Owned(x) });
                let (_, back) = run_call(g, Call::AllReduce { input: Cow::Owned(Tensor::ones(vec![8])) });
                let back = back.expect("every member finished reading the first deposit");
                (first.is_none(), ptr, back.as_ptr() as usize, back.capacity())
            });
            for (r, (first, ptr, back, cap)) in backs.into_iter().enumerate() {
                assert!(first, "rank {r}: nothing was deposited before the first call");
                assert_eq!(back, ptr, "rank {r}: the allocation moved in is the one handed back");
                assert!(cap >= 64, "rank {r}: the buffer comes back whole");
            }
        }
    }

    #[test]
    fn a_reader_holding_a_part_makes_the_take_back_fall_back() {
        // Member 1 holds rank 0's part of the first gather until its third
        // call, after member 0's second completion has tried to take its
        // deposit back: that take-back hands nothing back, the deposit lives
        // on in the part, and the part still reads member 0's values.
        let outs = run_group(2, |r, g| {
            let x = Tensor::full(vec![2, 2], r as f32 + 1.0);
            let (Received::Parts(parts), _) = run_call(g, Call::AllGatherParts { shard: Cow::Owned(x), dim: 1 }) else {
                unreachable!("a parts gather reads parts")
            };
            // Member 1 keeps rank 0's part only, and drops its own.
            let kept = parts.into_iter().next().filter(|_| r == 1);
            let (_, back) = run_call(g, Call::AllReduce { input: Cow::Owned(Tensor::ones(vec![2])) });
            let _ = g.all_reduce(&Tensor::ones(vec![2]));
            let first = kept.map(|part| part.data().to_vec());
            (back.is_some(), first)
        });
        assert_eq!(outs[0], (false, None), "rank 0's deposit is still held by rank 1's part");
        assert_eq!(outs[1], (true, Some(vec![1.0; 4])), "rank 1's deposit was read by value only");
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
    fn all_gather_parts_and_packed_hand_back_every_shard_in_rank_order() {
        // Every rank must receive every peer's shard unconcatenated, in rank
        // order — dense shards bit-exact, quantized shards with values AND
        // scales identical to the sender's local quantization.
        for size in [1usize, 2, 4] {
            let shard = |r: usize| {
                Tensor::from_vec(vec![3, 5], (0..15).map(|i| (r * 31 + i * 7) as f32 * 0.25 - 9.0).collect())
            };
            let outs = run_group(size, |r, g| {
                let q = PackedMatrix::quantize(&shard(r));
                let Received::Parts(parts) = g.call(Call::AllGatherParts { shard: Cow::Owned(shard(r)), dim: 0 }) else {
                    unreachable!("a parts gather reads parts")
                };
                let parts: Vec<Tensor> = parts.iter().map(|p| (**p).clone()).collect();
                let gathered = g.all_gather(&shard(r), 0);
                let Received::Packed(quant) = g.call(Call::AllGatherPacked { shard: Arc::new(q), dim: 0 }) else {
                    unreachable!("a quantized gather reads int8 parts")
                };
                (parts, gathered, quant)
            });
            for (parts, gathered, quant) in outs {
                assert_eq!(parts.len(), size);
                assert_eq!(quant.len(), size);
                let refs: Vec<&Tensor> = parts.iter().collect();
                assert_eq!(Tensor::concat(&refs, 0), gathered);
                for r in 0..size {
                    assert_eq!(parts[r], shard(r));
                    assert_eq!(*quant[r], PackedMatrix::quantize(&shard(r)));
                }
            }
        }
    }

    #[test]
    fn gather_ledger_charges_dense_and_quantized_volumes() {
        // Dense gathers, and the gather of a packed f32 weight, charge output
        // elements x ACT_BYTES whether or not the caller wants the
        // concatenation; an int8 weight's gather charges 1 byte per int8
        // value + 4 per f32 scale from each rank.
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(4, Arc::clone(&stats));
        std::thread::scope(|s| {
            for m in members {
                s.spawn(move || {
                    let t = Tensor::ones(vec![8, 6]);
                    let _ = m.all_gather(&t, 1);
                    let _ = m.call(Call::AllGatherParts { shard: Cow::Borrowed(&t), dim: 1 });
                    let _ = m.call(Call::AllGatherPacked { shard: Arc::new(PackedMatrix::pack(&t)), dim: 1 });
                    let _ = m.call(Call::AllGatherPacked { shard: Arc::new(PackedMatrix::quantize(&t)), dim: 1 });
                });
            }
        });
        let dense = 4 * 8 * 6 * ACT_BYTES;
        let quant = 4 * (8 * 6 + 6 * 4);
        assert_eq!(stats.bytes(CollectiveOp::AllGather), 3 * dense + quant);
        assert_eq!(stats.calls(CollectiveOp::AllGather), 4);
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
