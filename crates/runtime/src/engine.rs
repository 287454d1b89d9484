//! The partitioned execution engine: the simulated chips as lockstep
//! tasks on a few resident executors.
//!
//! Every chip runs the same program — the layout's [`Schedule`] — so one
//! thread can run step k for several chips in turn. The engine owns
//! `T = min(available_parallelism, chips)` executors (a `ChipPool` of `T`
//! workers, which spawns `T − 1` threads when the engine is built and
//! joins them when it drops); they are its only threads, and each chip's
//! kernels run serially on its executor. A pass
//! hands each executor a contiguous block of ranks, so a 2×2 2D mesh's yz
//! groups complete inside one executor, and the calling thread runs the
//! first block. With `T = chips` this is one thread per chip; pinned to one
//! CPU, the whole mesh runs on the caller.
//!
//! The engine builds and verifies its layout's [`Schedule`] once, so an
//! invalid plan fails with the offending step instead of a shape panic in
//! an executor, and compiles it, once, into a [`ChipProgram`]: one
//! instruction per step, each collective's group resolved to an index into
//! every chip's groups, and the schedule's buffer plan, which gives every
//! step value a slot by liveness. In a pass each chip allocates one buffer per
//! slot, at the slot's first use, and every layer writes its values into
//! the buffers the first layer's took. A weight-gathered layout also
//! compiles its decode partner, a 1D weight-stationary program over the
//! same stored shards: prefill passes gather the weights, decode steps run
//! where the weights are stored.
//!
//! Each executor then *runs* the program for its chips (`run_schedule`):
//! the layer steps once per model layer, then the final steps, every step
//! on each of its chips before the next step. An einsum is a matmul into
//! its slot (or, over an all-gather's parts, one column block or
//! accumulator per source rank), a local op its write-into kernel, and a
//! collective two halves on each chip's group over the step's axes: the
//! executor posts for every one of its chips, then completes each, reading
//! a dense result into the step's slot. All posts of a step precede every
//! wait on every executor, so the lockstep cannot deadlock; deposits,
//! rank-ordered folds and per-chip fault counters are those of a thread
//! per chip, so the bits are too.

// Vetted against the crate's no-unwrap/no-expect discipline: every
// `expect`/`unwrap` below asserts a sharding-arithmetic or protocol
// invariant established at construction (divisibility checked by the
// verified schedule, "one handle per rank", "a verified schedule's
// operands exist"), not a runtime fault. Faults travel through
// `try_forward`'s typed error path.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use esti_collectives::{
    Call, CollectiveError, CommGroup, FaultPlan, FaultState, InjectedCrash, Part, Posted, Received,
    TrafficStats,
};
use esti_core::layout::Layout;
use esti_core::schedule::{
    b_axes, build_schedule, decode_partner, matrix_dims, ChipProgram, Exchange, Gain, Instr, LocalOp, Mm, Operand,
    Role, Schedule, Step, SymTensor, WireFormat,
};
use esti_hal::DType;
use esti_model::reference::{attention_over_rows_into, gelu_into, AttentionScratch};
use esti_model::{KvCache, ModelConfig, PageStats, PositionKind, ReferenceModel, Weights};
use esti_tensor::packed::TILE_ROWS;
use esti_tensor::ops::{self, RopeTable};
use esti_tensor::{PackedMatrix, Tensor};
use esti_topology::{AxisSet, ChipCoord};

use crate::executors::ChipPool;

pub use crate::shard::WeightFormat;

/// Deadline applied to every collective of a fresh engine: generous enough
/// that no healthy run ever trips it, but a stalled or dead chip surfaces as
/// a structured [`EngineError`] instead of hanging the process forever.
/// Override with [`PartitionedEngine::set_collective_deadline`].
pub const DEFAULT_COLLECTIVE_DEADLINE: Duration = Duration::from_secs(60);

/// A partitioned forward pass failed instead of completing.
///
/// When any chip unwinds (an injected fault, a peer's crash propagated
/// through a cancelled barrier, or an ordinary panic), every other chip is
/// released from its collectives and
/// the whole step reports the *root cause*: the chip that died first, not
/// the cascade of peers that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A chip panicked; `rank` is the chip that originated
    /// the failure (for a propagated crash, the dead peer — not the
    /// observer).
    ChipCrashed {
        /// Global chip id of the chip that died.
        rank: usize,
        /// Human-readable panic payload or fault description.
        message: String,
    },
    /// A collective exceeded the engine's deadline (a chip is stalled or a
    /// link is pathologically slow) and no crashed chip explains it.
    CollectiveTimeout {
        /// The deadline that expired.
        deadline: Duration,
    },
    /// The engine already failed a step; its distributed state (KV caches,
    /// in-flight barriers) cannot be trusted until
    /// [`PartitionedEngine::reset`] (or [`PartitionedEngine::begin_slots`])
    /// clears it.
    Poisoned,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ChipCrashed { rank, message } => {
                write!(f, "chip {rank} crashed: {message}")
            }
            EngineError::CollectiveTimeout { deadline } => {
                write!(f, "collective exceeded the {deadline:?} deadline")
            }
            EngineError::Poisoned => {
                write!(f, "engine is poisoned by an earlier failure; reset it")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-chip state: its cut of the weights and gains, KV-cache shard, and
/// group handles.
struct ChipState {
    rank: usize,
    /// The chip's place on the schedule's mesh, which picks its cuts.
    coord: ChipCoord,
    /// What the chip stores for each pass of the program: every layer,
    /// then the final steps.
    stored: Vec<Stored>,
    cache: KvCache,
    /// The chip's group over each of the program's group axes.
    groups: Vec<CommGroup>,
}

/// A chip's cut of what one pass reads — a layer, or the final steps: each
/// stored weight, in `Schedule.weights` order, shared with the weight
/// gathers that deposit it, and each layernorm gain.
struct Stored {
    weights: Vec<(Role, Arc<PackedMatrix>)>,
    gains: Vec<(Gain, Tensor)>,
}

impl Stored {
    fn weight(&self, role: Role) -> &Arc<PackedMatrix> {
        &self.weights.iter().find(|w| w.0 == role).expect("a pass stores every weight it reads").1
    }

    fn gain(&self, gain: Gain) -> &Tensor {
        &self.gains.iter().find(|g| g.0 == gain).expect("a pass stores every gain it applies").1
    }
}

/// A Transformer partitioned over `n` simulated chips.
///
/// Construct with a [`ReferenceModel`] (whose weights are sharded according
/// to the [`Layout`]). The engine holds a batch of *slots*, each a sequence
/// of its own age, and a pass runs any set of them
/// ([`PartitionedEngine::try_prefill_rows`] /
/// [`PartitionedEngine::try_decode_rows`]); [`PartitionedEngine::try_prefill`]
/// / [`PartitionedEngine::try_decode_step`] are the pass over every slot,
/// driven exactly like the reference. All inter-chip dataflow goes through
/// `esti-collectives`, and is recorded in the [`TrafficStats`] ledger
/// available via [`PartitionedEngine::traffic`].
pub struct PartitionedEngine {
    cfg: ModelConfig,
    layout: Layout,
    /// The schedule compiled once for the chips: what every chip runs in a
    /// prefill pass, and what each chip's weights and KV cache are cut by.
    program: ChipProgram,
    /// What every chip runs in a decode step when that is not `program`: a
    /// weight-gathered layout's 1D weight-stationary partner, which runs on
    /// the same stored shards and KV cut ([`decode_partner`]).
    decode: Option<ChipProgram>,
    chips: Vec<ChipState>,
    stats: Arc<TrafficStats>,
    /// Full embedding table, used host-side for the input lookup.
    embed: Tensor,
    /// Learned position table, for models that have one.
    pos_embed: Option<Tensor>,
    /// RoPE's `(sin, cos)` angles, for models that rotate: grown before a
    /// pass to its last position and lent read-only to every chip.
    rope: Option<RopeTable>,
    /// Cached positions per slot: slot `s`'s next token occupies absolute
    /// position `ages[s]`. The slot count is the batch (cache sharding
    /// depends on it); empty until the first prefill or
    /// [`PartitionedEngine::begin_slots`].
    ages: Vec<usize>,
    /// Deadline applied to every chip group's collectives.
    deadline: Option<Duration>,
    /// The chips' executors, `min(available_parallelism, chips)` workers:
    /// a pass hands each a contiguous block of ranks, the calling thread
    /// runs the first, and the other threads live as long as the engine.
    executors: ChipPool,
    /// Set the first time a step fails: the distributed KV state is no
    /// longer trustworthy and every further `try_*` call reports
    /// [`EngineError::Poisoned`] until [`PartitionedEngine::reset`].
    poisoned: bool,
}

/// One request's KV cache in canonical (layout-independent) form, as
/// extracted from / inserted into an engine's slot: per layer, `(K, V)`
/// tensors of shape `[len, Hkv·d_head]` holding every attention head. K is
/// stored post-RoPE (rotations bake in absolute positions), so moving a
/// request between engines of *any* layout preserves its values exactly.
#[derive(Debug, Clone)]
pub struct RequestKv {
    /// Cached positions (prompt so far).
    pub len: usize,
    /// Per-layer canonical `(K, V)`, each `[len, Hkv·d_head]`.
    layers: Vec<(Tensor, Tensor)>,
}

impl RequestKv {
    /// Per-layer canonical `(K, V)`, each `[len, Hkv·d_head]`.
    #[must_use]
    pub fn layers(&self) -> &[(Tensor, Tensor)] {
        &self.layers
    }

    /// Keeps only the first `len` cached positions. Causal attention makes
    /// K/V at a position a function of the tokens up to it alone, so the
    /// result is exactly the KV of the first `len` tokens: the prefix a
    /// longer-lived request can lend to one sharing it, or a prompt's own KV
    /// cut free of the padding positions appended after it.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the cached length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len, "cannot truncate {} cached positions to {len}", self.len);
        if len < self.len {
            for (k, v) in &mut self.layers {
                *k = k.slice(0, 0, len);
                *v = v.slice(0, 0, len);
            }
            self.len = len;
        }
    }
}

impl std::fmt::Debug for PartitionedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedEngine")
            .field("model", &self.cfg.name)
            .field("layout", &self.layout.describe())
            .field("chips", &self.chips.len())
            .finish()
    }
}

impl PartitionedEngine {
    /// Shards `model` according to `layout` and builds the chip states.
    ///
    /// The engine compiles the layout's schedule once; prefill passes run
    /// it. A weight-gathered layout also compiles its decode partner, the
    /// first 1D weight-stationary layout on its mesh that cuts every weight
    /// and the KV cache as it does ([`decode_partner`]): the engine stores
    /// the shards once and decode steps run the partner, which gathers no
    /// weights. Every other layout, and a weight-gathered one with no
    /// partner, decodes on its own program.
    ///
    /// # Panics
    ///
    /// Panics if the model dimensions do not divide the mesh, or if
    /// batch-sharded attention is requested for a multihead model: the
    /// layout's schedule, built for the smallest batch the engine accepts,
    /// fails to verify.
    #[must_use]
    pub fn new(model: &ReferenceModel, layout: Layout, fmt: WeightFormat) -> Self {
        let n = layout.mesh.n_chips();
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        PartitionedEngine::with_executors(model, layout, fmt, cpus.min(n))
    }

    /// [`PartitionedEngine::new`] with the chips run on `executors`
    /// threads (the caller's among them).
    fn with_executors(model: &ReferenceModel, layout: Layout, fmt: WeightFormat, executors: usize) -> Self {
        let cfg = model.config().clone();
        let n = layout.mesh.n_chips();
        let dtype = if fmt == WeightFormat::Int8 { DType::Int8 } else { DType::Bf16 };
        let (schedule, mut program) = build_schedule(&cfg, &layout, n, 1)
            .and_then(|s| s.verify().map(|()| s.with_weight_dtype(dtype)))
            .and_then(|s| ChipProgram::compile(&s, &cfg).map(|p| (s, p)))
            .unwrap_or_else(|e| panic!("invalid partition plan for {}: {e}", layout.describe()));
        let decode = decode_partner(&schedule, &program).ok().flatten().map(|(_, mut decode)| {
            regroup(&mut decode, &mut program.group_axes);
            decode
        });

        let stats = TrafficStats::new();
        let groups = build_groups(&program, &stats);
        let torus = schedule.torus;
        let weights = model.weights();
        let embed_t = weights.embed.transpose();
        let chips = groups
            .into_iter()
            .enumerate()
            .map(|(rank, groups)| {
                let coord = torus.coord_of(rank);
                let stored =
                    (0..=cfg.n_layers).map(|li| store(&schedule, &program, weights, &embed_t, li, coord, fmt)).collect();
                ChipState { rank, coord, stored, cache: KvCache::new(cfg.n_layers), groups }
            })
            .collect();
        let mut engine = PartitionedEngine {
            embed: weights.embed.clone(),
            pos_embed: weights.pos_embed.clone(),
            rope: (cfg.position == PositionKind::Rope).then(|| RopeTable::new(cfg.d_head)),
            cfg,
            layout,
            program,
            decode,
            chips,
            stats,
            ages: Vec::new(),
            deadline: None,
            executors: ChipPool::new(executors),
            poisoned: false,
        };
        engine.set_collective_deadline(Some(DEFAULT_COLLECTIVE_DEADLINE));
        engine
    }

    /// Sets the deadline every collective waits under (`None` blocks
    /// forever, the pre-fault-model behavior). A fresh engine starts at
    /// [`DEFAULT_COLLECTIVE_DEADLINE`].
    pub fn set_collective_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        for g in self.chips.iter().flat_map(|c| &c.groups) {
            g.set_deadline(deadline);
        }
    }

    /// The deadline collectives currently wait under.
    #[must_use]
    pub fn collective_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Rebuilds every chip's (necessarily empty) KV cache with `page_size`
    /// positions per page. Fresh engines start at
    /// [`crate::DEFAULT_KV_PAGE_SIZE`]. The page size decides how much of a
    /// prompt requests can share and how finely memory is charged, never a
    /// token.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero, or if the engine already holds slots
    /// (set it before the first prefill, or after
    /// [`PartitionedEngine::reset`] / before
    /// [`PartitionedEngine::begin_slots`]).
    pub fn set_kv_page_size(&mut self, page_size: usize) {
        assert!(self.ages.is_empty(), "set_kv_page_size requires an empty engine (reset() first)");
        for c in &mut self.chips {
            c.cache = KvCache::paged(self.cfg.n_layers, page_size);
        }
    }

    /// Positions per page of this engine's KV caches.
    #[must_use]
    pub fn kv_page_size(&self) -> usize {
        self.chips[0].cache.page_size()
    }

    /// Page-pool occupancy of the busiest chip (the chip holding the most
    /// live pages — the one the per-chip memory bound cares about). Under
    /// head-sharded attention every chip holds the same rows and
    /// block-table structure, so any chip is representative; under batch
    /// sharding chips hold disjoint row sets and the max is the binding
    /// one. Always `Some` (an engine has at least one chip).
    ///
    /// # Examples
    ///
    /// ```
    /// use esti_core::{planner::decode_layout, Machine};
    /// use esti_model::{ModelConfig, ReferenceModel};
    /// use esti_runtime::{PartitionedEngine, WeightFormat};
    ///
    /// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
    /// let layout = decode_layout(model.config(), &Machine::tpu_v4_slice(4).unwrap());
    /// let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    /// engine.set_kv_page_size(8);
    /// assert_eq!(engine.kv_page_stats().unwrap().page_size, 8);
    /// ```
    #[must_use]
    pub fn kv_page_stats(&self) -> Option<PageStats> {
        self.chips
            .iter()
            .map(|c| c.cache.page_stats())
            .max_by_key(|s| (s.pages_live, s.pages_allocated))
    }

    /// Arms `plan` into every chip's group handles: each chip counts its
    /// collective calls (across all of its groups) against the plan's
    /// triggers, firing crashes, stalls, and link delays deterministically.
    /// Replaces any previously armed plan.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        let state = Arc::new(FaultState::new(plan, self.chips.len()));
        for c in &self.chips {
            for g in &c.groups {
                g.arm_faults(Arc::clone(&state), c.rank);
            }
        }
    }

    /// True once a step has failed, until [`PartitionedEngine::reset`]: the
    /// engine's distributed state cannot be trusted (see
    /// [`EngineError::Poisoned`]).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Number of simulated chips.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.chips.len()
    }

    /// The communication ledger shared by all chip groups.
    #[must_use]
    pub fn traffic(&self) -> &TrafficStats {
        &self.stats
    }

    /// Tokens cached by the oldest slot — every slot's, after passes over
    /// every slot ([`PartitionedEngine::try_prefill`] /
    /// [`PartitionedEngine::try_decode_step`]); 0 with no slots.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.ages.iter().copied().max().unwrap_or(0)
    }

    /// KV-cache elements held by the busiest chip — the quantity the memory
    /// model bounds (Table 1).
    #[must_use]
    pub fn max_cache_elements_per_chip(&self) -> usize {
        self.chips.iter().map(|c| c.cache.total_elements()).max().unwrap_or(0)
    }

    /// Replicates every cached sequence `k` times — the paper's
    /// low-latency recipe (Section 4.4): prefill at batch 1 for minimum
    /// prefill latency, then expand the cache and decode `k` samples per
    /// prompt "with negligible latency impact" since decode is
    /// weight-loading bound at these batch sizes.
    ///
    /// Every slot becomes `k` adjacent slots of its age, each replica
    /// mapping its source's pages by refcount (copy-on-write on later
    /// divergence), so subsequent [`PartitionedEngine::try_decode_step`]
    /// calls pass `k ×` the original batch of tokens, each prompt's samples
    /// adjacent.
    ///
    /// # Panics
    ///
    /// Panics if the engine holds no slots, `k` is zero, or the expanded
    /// batch violates the layout's divisibility requirements.
    pub fn expand_batch(&mut self, k: usize) {
        assert!(k > 0, "expansion factor must be positive");
        assert!(!self.ages.is_empty(), "expand_batch requires a prior prefill");
        let b = self.ages.len();
        self.validate_batch(b * k);
        for ci in 0..self.chips.len() {
            let span = self.program.kv_rows(self.chips[ci].coord, b).len();
            self.chips[ci].cache.repeat_batch(k, span);
        }
        self.ages = self.ages.iter().flat_map(|&age| std::iter::repeat_n(age, k)).collect();
    }

    /// Clears all KV caches and drops every slot, so a new batch can be
    /// served: the one way to a clean engine. A poisoned engine also gets
    /// fresh collective groups over the same [`TrafficStats`] ledger, under
    /// its collective deadline and with no fault plan armed; a healthy one
    /// keeps its groups, and any plan armed into them. The stored weight
    /// shards, the RoPE table and the executors stay either way.
    pub fn reset(&mut self) {
        if std::mem::take(&mut self.poisoned) {
            for (chip, groups) in self.chips.iter_mut().zip(build_groups(&self.program, &self.stats)) {
                chip.groups = groups;
            }
            self.set_collective_deadline(self.deadline);
        }
        for c in &mut self.chips {
            c.cache.clear();
        }
        self.ages.clear();
    }

    /// Replaces the engine's slots with `slots` empty ones, each an
    /// independent sequence of its own age, on an engine
    /// [`PartitionedEngine::reset`] leaves clean. `reserve`
    /// is ignored (pages allocate on demand) and stays only because the
    /// frozen benchmark passes it. A pass then runs the slots it is given
    /// and no others ([`PartitionedEngine::try_prefill_rows`], and its
    /// one-token call [`PartitionedEngine::try_decode_rows`]): every op
    /// treats batch rows independently, so which other rows share a pass
    /// changes no bit of a row's logits, and a slot left out neither ages
    /// nor allocates. (A decode step runs the engine's decode program, which on a paired
    /// weight-gathered engine is not the prefill program; see
    /// [`PartitionedEngine::try_decode_rows`].)
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or violates the layout's batch
    /// divisibility requirements.
    pub fn begin_slots(&mut self, slots: usize, _reserve: usize) {
        assert!(slots > 0, "slot count must be positive");
        self.validate_batch(slots);
        self.reset();
        self.ages = vec![0; slots];
    }

    /// Cached positions per slot (empty with no slots).
    #[must_use]
    pub fn slot_lens(&self) -> &[usize] {
        &self.ages
    }

    /// The smallest batch size this engine's layout accepts. It is also
    /// the number of spans the chips split the slots into (one where every
    /// chip sees every row), so a pass with one row per span carries
    /// exactly `min_batch` rows whether or not it has requests for all of
    /// them (rows are independent, so what fills the others changes no bit
    /// of a request's row).
    #[must_use]
    pub fn min_batch(&self) -> usize {
        self.program.spans()
    }

    /// Index of the span of slots holding `slot`, in `0..min_batch()`:
    /// spans are equal and contiguous, and a pass carries equally many rows
    /// in each ([`PartitionedEngine::try_prefill_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub(crate) fn slot_span(&self, slot: usize) -> usize {
        let spans = self.row_spans(self.ages.len());
        spans.iter().position(|&(r0, rc)| (r0..r0 + rc).contains(&slot)).expect("slot out of range")
    }

    /// Cache rows `chip` holds for a batch of `b`: its span.
    fn cache_rows(&self, chip: &ChipState, b: usize) -> usize {
        self.program.kv_rows(chip.coord, b).len()
    }

    /// Row of `chip`'s cache that slot `row` of `b` lives in, if the chip's
    /// span holds it.
    fn local_row(&self, chip: &ChipState, b: usize, row: usize) -> Option<usize> {
        let rows = self.program.kv_rows(chip.coord, b);
        rows.contains(&row).then(|| row - rows.start)
    }

    /// Extracts slot `row`'s KV cache in canonical form, assembling head
    /// shards across chips (replicated shards are written idempotently).
    ///
    /// # Panics
    ///
    /// Panics if nothing is cached or `row` is out of range.
    #[must_use]
    pub fn extract_kv(&self, row: usize) -> RequestKv {
        let b = self.ages.len();
        assert!(row < b, "row {row} out of range for batch {b}");
        let dh = self.cfg.d_head;
        let d = self.cfg.n_kv_heads() * dh;
        let mut len = None;
        let layers = (0..self.cfg.n_layers)
            .map(|li| {
                let mut k = None;
                let mut v = None;
                for chip in &self.chips {
                    let Some(local) = self.local_row(chip, b, row) else {
                        continue;
                    };
                    let l = chip.cache.row_lens(li)[local];
                    assert!(*len.get_or_insert(l) == l, "chips disagree on row length");
                    let k = k.get_or_insert_with(|| Tensor::zeros(vec![l, d]));
                    let v = v.get_or_insert_with(|| Tensor::zeros(vec![l, d]));
                    let heads = self.program.kv_heads(chip.coord);
                    let w = heads.len() * dh;
                    // The chip's `[l, w]` head shard into its heads' columns
                    // of the canonical `[l, d]` rows.
                    let (sk, sv) = chip.cache.read_slot(li, local);
                    let rows = sk.data().chunks(w).zip(sv.data().chunks(w));
                    for (r, (rk, rv)) in rows.enumerate() {
                        let dst = r * d + heads.start * dh;
                        k.data_mut()[dst..dst + w].copy_from_slice(rk);
                        v.data_mut()[dst..dst + w].copy_from_slice(rv);
                    }
                }
                (k.expect("some chip covers every row"), v.expect("some chip covers every row"))
            })
            .collect();
        RequestKv { len: len.expect("model has at least one layer"), layers }
    }

    /// Inserts a request's canonical KV, produced by `tokens`, into slot
    /// `slot`, replacing whatever the slot held: each covering chip inserts
    /// its head shard of the request through the cache's prefix registry
    /// ([`KvCache::insert_row_shared`]), mapping pages already cached for
    /// `tokens`' page-aligned prefixes by refcount instead of rewriting
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, the KV's layer count or width
    /// disagrees with the model, or `tokens` is not exactly `kv.len` tokens.
    pub fn insert_kv_shared(&mut self, slot: usize, kv: &RequestKv, tokens: &[usize]) {
        let b = self.ages.len();
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        assert_eq!(kv.layers.len(), self.cfg.n_layers, "layer count mismatch");
        assert_eq!(tokens.len(), kv.len, "one prompt token per cached position");
        let dh = self.cfg.d_head;
        let n_kv = self.cfg.n_kv_heads();
        for ci in 0..self.chips.len() {
            let Some(row) = self.local_row(&self.chips[ci], b, slot) else {
                continue;
            };
            let rows = self.cache_rows(&self.chips[ci], b);
            let heads = self.program.kv_heads(self.chips[ci].coord);
            let (c0, w) = (heads.start * dh, heads.len() * dh);
            let shards: Vec<(Tensor, Tensor)> = kv
                .layers
                .iter()
                .map(|(k, v)| {
                    assert_eq!(k.dim(1), n_kv * dh, "canonical KV width mismatch");
                    (k.slice(1, c0, w), v.slice(1, c0, w))
                })
                .collect();
            self.chips[ci].cache.insert_row_shared(row, rows, &shards, tokens);
        }
        self.ages[slot] = kv.len;
    }

    /// Settles slot `slot` in place after a prefill of `tokens` (a pass
    /// appends only a row's own tokens, so the slot holds exactly them):
    /// keys its prompt pages for later sharers on every chip holding it
    /// ([`KvCache::register_row`]), leaving the KV exactly as
    /// [`PartitionedEngine::insert_kv_shared`] of the slot's own extracted
    /// KV would, without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or does not hold exactly
    /// `tokens.len()` positions.
    pub fn register_slot(&mut self, slot: usize, tokens: &[usize]) {
        let b = self.ages.len();
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        for ci in 0..self.chips.len() {
            if let Some(row) = self.local_row(&self.chips[ci], b, slot) {
                self.chips[ci].cache.register_row(row, tokens);
            }
        }
        self.ages[slot] = tokens.len();
    }

    /// Evicts slot `slot`: its pages lose this slot's reference and its age
    /// resets to zero. An empty slot costs a pass nothing: passes run the
    /// slots they are given, and a slot that only fills its span's share of
    /// a pass is not touched ([`PartitionedEngine::try_prefill_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn evict_slot(&mut self, slot: usize) {
        let b = self.ages.len();
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        for ci in 0..self.chips.len() {
            if let Some(local) = self.local_row(&self.chips[ci], b, slot) {
                self.chips[ci].cache.clear_slot(local);
            }
        }
        self.ages[slot] = 0;
    }

    /// Prefill over a chunk of tokens (`[B][L]`), one row per slot in slot
    /// order, returning logits `[B, L, V]`: the
    /// [`PartitionedEngine::try_prefill_rows`] pass over every slot. An
    /// engine with no slots first begins `B` of them
    /// ([`PartitionedEngine::begin_slots`]); calling again before
    /// [`PartitionedEngine::reset`] performs incremental prefill over
    /// additional chunks. A chip crash, collective timeout, or prior
    /// poisoning surfaces as a typed [`EngineError`]; shape/vocabulary
    /// misuse panics — those are caller bugs, not faults.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned until
    /// [`PartitionedEngine::reset`] / [`PartitionedEngine::begin_slots`].
    ///
    /// # Panics
    ///
    /// Panics on an empty row, out-of-vocabulary tokens, a batch size
    /// change mid-conversation, or a batch that does not divide evenly for
    /// the batch-sharded paths.
    pub fn try_prefill(&mut self, tokens: &[Vec<usize>]) -> Result<Tensor, EngineError> {
        if self.ages.is_empty() {
            self.begin_slots(tokens.len(), 0);
        }
        assert_eq!(tokens.len(), self.ages.len(), "batch size changed mid-conversation; call reset()");
        let rows: Vec<(usize, &[usize])> = tokens.iter().map(Vec::as_slice).enumerate().collect();
        self.try_prefill_rows(&rows)
    }

    /// One pass over the `(slot, tokens)` rows given and no others, row `i`
    /// carrying `lᵢ ≥ 1` tokens (lengths may differ), returning logits
    /// `[rows.len(), L, V]` in the order given, `L = max lᵢ`: row `i`'s
    /// first `lᵢ` positions are its tokens' logits and the rest are zero.
    /// Any non-empty set of distinct slots is a pass: each appends its
    /// tokens at its own age and ages by its own `lᵢ`; a slot left out is
    /// not touched. Rows are independent, so a row's logits and KV do not
    /// depend on which other rows share its pass, nor on how long they are.
    ///
    /// The pass is `[B, L, ·]` throughout, so every collective keeps its
    /// shape, but padding costs no arithmetic: each einsum runs over the
    /// runs of valid token rows only (rounded out to the GEMM tile's
    /// rows), attention scores only valid queries, and only valid
    /// positions are appended. Where every chip sees every row (head-sharded
    /// 1D / 2D) the pass carries exactly the rows given. Where chips own
    /// spans of the rows (batch-sharded attention, weight-gathered layouts)
    /// every span must carry equally many for the collectives to stay
    /// regular, so each span is filled up to the largest count any span was
    /// given ([`PartitionedEngine::decode_rows_carried`]) with filler rows:
    /// slots of its own not in the pass, each of length 0 — carried through
    /// the collectives, never computed, appended to or aged.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned until
    /// [`PartitionedEngine::reset`] / [`PartitionedEngine::begin_slots`].
    ///
    /// # Panics
    ///
    /// Panics on an empty pass, a row of no tokens, a slot out of range or
    /// given twice, or an out-of-vocabulary token.
    pub fn try_prefill_rows(&mut self, rows: &[(usize, &[usize])]) -> Result<Tensor, EngineError> {
        self.try_rows(rows, false)
    }

    /// The pass over `rows` of [`PartitionedEngine::try_prefill_rows`], run
    /// by the decode program if `decode`, else by the prefill program: the
    /// rows and their spans' filler rows laid out
    /// ([`PartitionedEngine::lay_out_step`]), each row's own tokens
    /// embedded at its own positions, and every other position — a short
    /// row's right padding, a filler row — left zero and given length 0.
    fn try_rows(&mut self, rows: &[(usize, &[usize])], decode: bool) -> Result<Tensor, EngineError> {
        if self.poisoned {
            return Err(EngineError::Poisoned);
        }
        assert!(!rows.is_empty(), "empty batch");
        assert!(rows.iter().all(|r| !r.1.is_empty()), "empty sequence");
        let l = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
        let slots: Vec<usize> = rows.iter().map(|r| r.0).collect();
        let step = self.lay_out_step(&slots);
        let (b, e, v) = (step.rows.len(), self.cfg.d_model, self.cfg.vocab);
        // Filler rows carry no token; a row's positions past its own tokens
        // stay zero.
        let mut tokens: Vec<&[usize]> = vec![&[]; b];
        for (&at, row) in step.at.iter().zip(rows) {
            tokens[at] = row.1;
        }
        let bases = self.row_bases(&step.rows);
        let mut x = Tensor::zeros(vec![b, l, e]);
        for ((seq, &base), out) in tokens.iter().zip(&bases).zip(x.data_mut().chunks_mut(l * e)) {
            for ((p, &tok), row) in seq.iter().enumerate().zip(out.chunks_mut(e)) {
                self.embed_token(tok, base + p, row);
            }
        }
        let lens: Vec<usize> = tokens.iter().map(|t| t.len()).collect();
        let logits = self.try_forward(x, &step.rows, &lens, decode)?;
        if step.at.iter().copied().eq(0..b) {
            return Ok(logits);
        }
        let n = l * v;
        let mut out = Vec::with_capacity(rows.len() * n);
        for &r in &step.at {
            out.extend_from_slice(&logits.data()[r * n..(r + 1) * n]);
        }
        Ok(Tensor::from_vec(vec![rows.len(), l, v], out))
    }

    /// One decode step over every slot (one token per slot, in slot order),
    /// returning logits `[B, V]`: [`PartitionedEngine::try_decode_rows`]
    /// with slot `i` carrying `tokens[i]`.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned until
    /// [`PartitionedEngine::reset`] / [`PartitionedEngine::begin_slots`].
    ///
    /// # Panics
    ///
    /// Panics unless there is one token per slot, or as
    /// [`PartitionedEngine::try_prefill_rows`].
    pub fn try_decode_step(&mut self, tokens: &[usize]) -> Result<Tensor, EngineError> {
        assert_eq!(tokens.len(), self.ages.len(), "batch size changed mid-conversation; call reset()");
        let rows: Vec<(usize, usize)> = tokens.iter().copied().enumerate().collect();
        self.try_decode_rows(&rows)
    }

    /// One decode step over the `(slot, token)` rows given and no others,
    /// returning logits `[rows.len(), V]` in the order given: the one-token
    /// pass of [`PartitionedEngine::try_prefill_rows`], slots and filler
    /// rows alike, run by the engine's decode program. On a weight-gathered layout
    /// with a decode partner ([`PartitionedEngine::new`]) that is the
    /// partner, which rounds differently from the layout's own program: a
    /// decode step is then not the one-token `try_prefill_rows`. The program
    /// follows the call, never the token count, so a row's prompt KV and its
    /// replays do not depend on which rows share its pass.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned until
    /// [`PartitionedEngine::reset`] / [`PartitionedEngine::begin_slots`].
    ///
    /// # Panics
    ///
    /// As [`PartitionedEngine::try_prefill_rows`].
    pub fn try_decode_rows(&mut self, rows: &[(usize, usize)]) -> Result<Tensor, EngineError> {
        let rows: Vec<(usize, &[usize])> = rows.iter().map(|(s, t)| (*s, std::slice::from_ref(t))).collect();
        Ok(self.try_rows(&rows, true)?.into_reshape(vec![rows.len(), self.cfg.vocab]))
    }

    /// Batch rows one pass over `rows`' slots carries through the model's
    /// collectives: `rows.len()` where every chip sees every row, more where
    /// spans of rows are filled to a common count with filler rows of
    /// length 0 (see [`PartitionedEngine::try_prefill_rows`]), which no
    /// einsum, attention or append computes — never more than the slot
    /// count.
    #[must_use]
    pub fn decode_rows_carried(&self, rows: &[(usize, usize)]) -> usize {
        let spans = self.row_spans(self.ages.len());
        let slots: Vec<usize> = rows.iter().map(|r| r.0).collect();
        spans.len() * rows_per_span(&spans, &slots)
    }

    /// The distinct spans of the `b` batch rows the chips' caches hold, as
    /// ascending `(start, count)`: one span of all `b` where every chip
    /// holds every row, otherwise equal disjoint spans.
    fn row_spans(&self, b: usize) -> Vec<(usize, usize)> {
        let rows = self.chips.iter().map(|c| self.program.kv_rows(c.coord, b));
        let mut spans: Vec<_> = rows.map(|r| (r.start, r.len())).collect();
        spans.sort_unstable();
        spans.dedup();
        spans
    }

    /// Places the requested slots in a pass batch whose row spans
    /// (`kv_rows` of the *pass's* batch size) line up with the slot spans
    /// the chips' caches hold: span by span, the span's requested slots in
    /// request order, then filler rows up to the largest requested count
    /// over spans — the span's first slots not requested, which the pass
    /// gives no position and so never touches.
    fn lay_out_step(&self, slots: &[usize]) -> StepLayout {
        let b = self.ages.len();
        let mut given = vec![false; b];
        for &slot in slots {
            assert!(slot < b, "slot {slot} out of range for batch {b}");
            assert!(!std::mem::replace(&mut given[slot], true), "slot {slot} given twice in one pass");
        }
        let spans = self.row_spans(b);
        let per_span = rows_per_span(&spans, slots);
        let mut step = StepLayout { rows: Vec::with_capacity(spans.len() * per_span), at: vec![0; slots.len()] };
        for &(r0, rc) in &spans {
            let span = r0..r0 + rc;
            let end = step.rows.len() + per_span;
            for (i, &slot) in slots.iter().enumerate() {
                if span.contains(&slot) {
                    step.at[i] = step.rows.len();
                    step.rows.push(slot);
                }
            }
            // No span is given more than `per_span ≤ rc` slots, so each has
            // enough others to fill its share.
            let filler = span.filter(|&s| !given[s]).take(end - step.rows.len());
            step.rows.extend(filler);
        }
        step
    }

    /// Writes token `tok`'s embedding at absolute position `pos` into `row`
    /// (`d_model` floats): the table row, plus the learned position row for
    /// models that have one.
    fn embed_token(&self, tok: usize, pos: usize, row: &mut [f32]) {
        let e = self.cfg.d_model;
        assert!(tok < self.cfg.vocab, "token id {tok} out of vocabulary");
        row.copy_from_slice(&self.embed.data()[tok * e..(tok + 1) * e]);
        if let Some(table) = &self.pos_embed {
            for (v, &p) in row.iter_mut().zip(&table.data()[pos * e..(pos + 1) * e]) {
                *v += p;
            }
        }
    }

    /// Absolute position of the next token of each of the slots `rows`:
    /// its age.
    fn row_bases(&self, rows: &[usize]) -> Vec<usize> {
        rows.iter().map(|&r| self.ages[r]).collect()
    }

    fn validate_batch(&self, b: usize) {
        let spans = self.min_batch();
        assert!(b.is_multiple_of(spans), "{} needs batch divisible by {spans}", self.layout.describe());
    }

    /// Runs the partitioned forward pass over embedded inputs `[B, L, E]`,
    /// row `r` of which is slot `rows[r]` with `lens[r]` valid positions, as
    /// [`PartitionedEngine::lay_out_step`] placed them, returning logits
    /// `[B, L, V]`, or, when any chip unwinds, the classified root-cause
    /// [`EngineError`] after releasing every peer. Row `r` appends its
    /// `lens[r]` positions and ages by them. A decode step runs the decode
    /// program, anything else the prefill program.
    ///
    /// The chips split into one contiguous block of ranks per executor, and
    /// the pass hands the engine's executor pool one task per block; the
    /// calling thread runs the first. Each executor walks the schedule with
    /// its chips in lockstep (`run_schedule`).
    ///
    /// The unwind protocol: each chip runs each of its steps under its own
    /// `catch_unwind`; on unwind it cancels **all** of its own group
    /// handles, labelled with the originating rank (or as a timeout), so
    /// peers blocked in *any* of the chip's communicators — including the
    /// hybrid layouts' sub-groups the dead chip shares with only some peers
    /// — wake with a structured [`CollectiveError`] and cascade the
    /// cancellation through their own groups in turn. The chip then sits out
    /// the rest of the pass while its executor-mates step on. No deadline is
    /// needed for a crash to propagate; deadlines cover silent stalls.
    fn try_forward(&mut self, x: Tensor, rows: &[usize], lens: &[usize], decode: bool) -> Result<Tensor, EngineError> {
        let n = self.chips.len();
        let (b, l) = (x.dim(0), x.dim(1));
        let bases = self.row_bases(rows);
        if let Some(table) = &mut self.rope {
            table.grow(bases.iter().zip(lens).map(|(&base, &n)| base + n).max().unwrap_or(0));
        }
        // Each chip's share of the pass (`kv_rows` of the pass's batch) as
        // rows of its own cache (`kv_rows` of the engine's), with their
        // lengths.
        let batch = self.ages.len();
        let kv_rows: Vec<(Vec<usize>, usize, &[usize])> = self
            .chips
            .iter()
            .map(|chip| {
                let share = self.program.kv_rows(chip.coord, b);
                let local = rows[share.clone()].iter().map(|&row| {
                    let local = self.local_row(chip, batch, row);
                    local.unwrap_or_else(|| panic!("row {row} placed outside chip {}'s rows", chip.rank))
                });
                (local.collect(), self.cache_rows(chip, batch), &lens[share])
            })
            .collect();
        let mut results: Vec<Result<Option<Tensor>, ChipPanic>> = (0..n).map(|_| Ok(None)).collect();
        let program = if decode { self.decode.as_ref().unwrap_or(&self.program) } else { &self.program };
        let (x, bases, kv_rows, rope) = (&x, &bases, &kv_rows, self.rope.as_ref());
        let padded = lens.iter().any(|&n| n < l).then_some((lens, l));
        let t = self.executors.workers();
        let (mut chips, mut out) = (self.chips.as_mut_slice(), results.as_mut_slice());
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(t);
        for e in 0..t {
            let (lo, hi) = (e * n / t, (e + 1) * n / t);
            let (block, rest) = std::mem::take(&mut chips).split_at_mut(hi - lo);
            chips = rest;
            let (done, rest) = std::mem::take(&mut out).split_at_mut(hi - lo);
            out = rest;
            let kv = &kv_rows[lo..hi];
            tasks.push(Box::new(move || {
                let mut lanes: Vec<Lane<'_>> = block
                    .iter_mut()
                    .zip(kv)
                    .map(|(chip, (rows, batch, valid))| {
                        Lane::new(program, chip, (rows, *batch, valid), x, bases, rope, padded)
                    })
                    .collect();
                run_schedule(program, &mut lanes);
                for (lane, done) in lanes.into_iter().zip(done) {
                    *done = lane.finish();
                }
            }));
        }
        // Executor `e` runs on worker `e`, the first on this thread. The
        // tasks never unwind (every chip step runs under catch_unwind), so
        // `run` returns only once every chip has written its result.
        self.executors.run(tasks);

        let mut outputs: Vec<Option<Tensor>> = Vec::with_capacity(results.len());
        let mut failure: Option<(u8, EngineError)> = None;
        for (idx, r) in results.into_iter().enumerate() {
            match r {
                Ok(out) => outputs.push(out),
                Err(payload) => {
                    let c = classify_panic(idx, &payload);
                    if failure.as_ref().is_none_or(|f| c.0 < f.0) {
                        failure = Some(c);
                    }
                }
            }
        }
        if let Some((_, err)) = failure {
            // KV caches may hold a partial append for this step on some
            // chips and not others; nothing downstream can trust them.
            self.poisoned = true;
            return Err(err);
        }

        for (&row, &l) in rows.iter().zip(lens) {
            self.ages[row] += l;
        }
        // The chips holding distinct logits slices return them, in rank
        // (= batch) order.
        let mut logits: Vec<Tensor> = outputs.into_iter().flatten().collect();
        if logits.len() == 1 {
            return Ok(logits.remove(0));
        }
        Ok(Tensor::concat(&logits.iter().collect::<Vec<_>>(), 0))
    }
}

/// One pass's batch, laid out by [`PartitionedEngine::lay_out_step`].
struct StepLayout {
    /// The slot each pass row runs: a requested slot, or a filler row.
    rows: Vec<usize>,
    /// Pass row of each requested slot, in request order.
    at: Vec<usize>,
}

/// Rows each of `spans` carries in a pass over `slots`: the most requested
/// slots any one span holds.
fn rows_per_span(spans: &[(usize, usize)], slots: &[usize]) -> usize {
    let held = |&(r0, rc): &(usize, usize)| slots.iter().filter(|s| (r0..r0 + rc).contains(s)).count();
    spans.iter().map(held).max().unwrap_or(0)
}

/// A chip's KV cache as one forward pass sees it: step row `r` of the
/// chip's share appends its first `lens[r]` positions to, and attends them
/// over, cache row `rows[r]` of the `batch` rows the cache holds, working in
/// the lane's attention scratch.
struct StepCache<'a> {
    cache: &'a mut KvCache,
    rows: &'a [usize],
    lens: &'a [usize],
    batch: usize,
    scratch: &'a mut AttentionScratch,
}

impl StepCache<'_> {
    fn append(&mut self, layer: usize, k: &Tensor, v: &Tensor) {
        self.cache.append_ragged(layer, self.rows, self.lens, self.batch, k, v);
    }

    /// Attention of `q` over the step's rows, written into `out` at every
    /// valid position (the caller zeroes the rest). A decode step keeps the
    /// scratch for the next layer's call; a
    /// prefill's, as large as a decode step's but next to the MLP's far
    /// larger buffers where a prefill peaks, is freed after each call.
    fn attend_into(&mut self, q: &Tensor, layer: usize, d_head: usize, out: &mut Tensor) {
        attention_over_rows_into(q, self.cache, self.rows, self.lens, layer, d_head, out, self.scratch);
        if q.dim(1) > 1 {
            *self.scratch = AttentionScratch::default();
        }
    }
}

/// What a chip's unwind carries.
type ChipPanic = Box<dyn std::any::Any + Send + 'static>;

/// Releases every communicator in `groups`, chip `rank`'s, after the chip
/// unwound with `payload`, labelling the cancellation with the *originating*
/// failure: a propagated [`CollectiveError::PeerCrashed`] keeps naming the
/// chip that actually died (not this observer), and a timeout stays a
/// timeout. Cancellation is first-writer-wins at the barrier, so cascades
/// never relabel the root cause.
fn cancel_chip_groups(rank: usize, groups: &[CommGroup], payload: &ChipPanic) {
    enum Cause {
        Timeout,
        Crash(usize),
    }
    let cause = if let Some(e) = payload.downcast_ref::<CollectiveError>() {
        match e {
            CollectiveError::Timeout { .. } => Cause::Timeout,
            CollectiveError::PeerCrashed { rank } => Cause::Crash(*rank),
        }
    } else if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        Cause::Crash(c.chip)
    } else {
        Cause::Crash(rank)
    };
    for g in groups {
        match cause {
            Cause::Timeout => g.cancel_timeout(),
            Cause::Crash(rank) => g.cancel(rank),
        }
    }
}

/// Maps a harvested panic payload to `(priority, error)`; across the chips'
/// payloads the lowest priority wins, so the step reports the root cause
/// (the chip that died) rather than the cascade (peers observing the death,
/// then stragglers timing out on cancelled groups).
fn classify_panic(rank: usize, payload: &ChipPanic) -> (u8, EngineError) {
    if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        return (0, EngineError::ChipCrashed { rank: c.chip, message: "injected crash".to_string() });
    }
    if let Some(e) = payload.downcast_ref::<CollectiveError>() {
        return match e {
            CollectiveError::PeerCrashed { rank } => (
                1,
                EngineError::ChipCrashed {
                    rank: *rank,
                    message: "crashed mid-collective (observed by a peer)".to_string(),
                },
            ),
            CollectiveError::Timeout { deadline } => {
                (3, EngineError::CollectiveTimeout { deadline: *deadline })
            }
        };
    }
    let message = if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "chip panicked with a non-string payload".to_string()
    };
    (2, EngineError::ChipCrashed { rank, message })
}

// ---------------------------------------------------------------------------
// running the compiled program
//
// Two rules fix the bits of every contraction over data that arrives from
// peers:
//
// 1. the matmul kernels accumulate each output element by one serial chain
//    of adds in ascending `k` order;
// 2. a contraction over a *gathered* `k` keeps one accumulator per source
//    rank — each a pure ascending-`k` chain over that rank's part — and
//    folds them in ascending rank order (`fold_ranks`). Int8 partial
//    products accumulate unscaled and each scale vector is applied exactly
//    once: a gathered weight's per-rank scales to that rank's accumulator
//    before the fold, a local weight's scales to the folded sum.
//
// One rule fixes where every value lives, the buffer plan: each value is
// written into a slot's buffer, and the slot is free again once the value's
// last reader has run. A step never reads the stale contents an earlier
// occupant left: every kernel writes its elements without reading them
// first — the GEMM tile in write mode starts each chain from `+0.0` in a
// register — so a step takes the slot as it is. Only the elements a step
// does not compute are zeroed: the token rows outside a padded pass's valid
// runs.
// ---------------------------------------------------------------------------

/// What a schedule step hands on: an activation, or an all-gather's
/// rank-ordered parts — the peers' stored weight shards, or views of their
/// `[B, L, ·]` activation deposits — which only an einsum reads.
enum Val {
    Act(Tensor),
    Weights(Vec<Arc<PackedMatrix>>),
    Parts(Vec<Part>),
}

/// The block of `w`, the stored `[rows, cols]` matrix of weight `t`, that
/// `ranges` cut: one `(start, len)` per dim of `t`, mapped onto the matrix by
/// [`matrix_dims`].
fn cut(w: &Tensor, t: &SymTensor, ranges: &[(usize, usize)]) -> Tensor {
    let mut block = [(0, 1); 2];
    let mut last = None;
    for ((i, m), &(start, len)) in matrix_dims(&t.spec).enumerate().zip(ranges) {
        assert!(last != Some(m) || len == t.global[i], "a flattened matrix dim is cut on its outer dim only");
        block[m] = (block[m].0 * t.global[i] + start, block[m].1 * len);
        last = Some(m);
    }
    let [(r0, rn), (c0, cn)] = block;
    // One copy of the block, which the caller packs and drops.
    let mut data = Vec::with_capacity(rn * cn);
    for row in w.data().chunks_exact(w.dim(1)).skip(r0).take(rn) {
        data.extend_from_slice(&row[c0..c0 + cn]);
    }
    Tensor::from_vec(vec![rn, cn], data)
}

/// Chip `coord`'s cut of what pass `li` of `s`, compiled into `p`, reads
/// (a layer, or, past the last, the final steps). Each stored weight it
/// reads is cut by [`ChipProgram::cut`], the axes `p` gathers it over
/// innermost; it is stored in `fmt`, but the logits projection stays f32.
/// Each layernorm gain is cut like its step's output `E`.
fn store(
    s: &Schedule,
    p: &ChipProgram,
    w: &Weights,
    embed_t: &Tensor,
    li: usize,
    coord: ChipCoord,
    fmt: WeightFormat,
) -> Stored {
    let steps = if li < w.layers.len() { &s.layer } else { &s.final_steps };
    let weights = p
        .weights
        .iter()
        .filter(|(role, _)| steps.iter().flat_map(Step::operands).any(|r| r == Operand::Weight(*role)))
        .map(|stored @ &(role, ref t)| {
            let block = cut(matrix(w, embed_t, li, role), t, &p.cut(stored, coord));
            (role, Arc::new(if role == Role::EmbedT { PackedMatrix::pack(&block) } else { fmt.apply(&block) }))
        })
        .collect();
    let gains = steps
        .iter()
        .filter_map(|st| match st {
            Step::Local { op: LocalOp::LayerNorm(gain), output, .. } => {
                let full = match gain {
                    Gain::Attn => &w.layers[li].ln1,
                    Gain::Mlp => w.layers[li].ln2.as_ref().expect("a serial block has an MLP layernorm"),
                    Gain::Final => &w.ln_final,
                };
                let e = output.dim_index('E').expect("a layernorm normalizes E");
                let (start, len) = output.spec.local_range(e, output.global[e], s.torus, coord, &[]);
                Some((*gain, full.slice(0, start, len)))
            }
            _ => None,
        })
        .collect();
    Stored { weights, gains }
}

/// Every chip's groups, indexed by chip id: one group per axis set
/// `program`'s collectives name (its `group_axes`, the decode partner's
/// merged in), each charging `stats`; members rank in chip order.
fn build_groups(program: &ChipProgram, stats: &Arc<TrafficStats>) -> Vec<Vec<CommGroup>> {
    let torus = program.torus;
    let mut groups: Vec<Vec<CommGroup>> = (0..torus.chip_count()).map(|_| Vec::new()).collect();
    for &a in &program.group_axes {
        for members in torus.groups(a) {
            let handles = CommGroup::create_with_stats(members.len(), Arc::clone(stats));
            for (c, g) in members.into_iter().zip(handles) {
                groups[torus.chip_id(c)].push(g);
            }
        }
    }
    groups
}

/// Re-indexes `p`'s groups into `axes`, appending the axis sets `axes`
/// lacks, so that `p` runs on the groups built for `axes`.
fn regroup(p: &mut ChipProgram, axes: &mut Vec<AxisSet>) {
    let mut at = |a: AxisSet| {
        axes.iter().position(|&g| g == a).unwrap_or_else(|| {
            axes.push(a);
            axes.len() - 1
        })
    };
    for i in &mut p.instrs {
        if let Instr::Collective(c) = i {
            c.group = at(p.group_axes[c.group]);
        }
    }
    p.emit = at(p.group_axes[p.emit]);
    p.group_axes.clone_from(axes);
}

/// The full stored matrix of weight `role` in pass `li`: a field of layer
/// `li`, or the transposed embedding.
fn matrix<'a>(w: &'a Weights, embed_t: &'a Tensor, li: usize, role: Role) -> &'a Tensor {
    let l = || &w.layers[li];
    match role {
        Role::Wq => &l().wq,
        Role::Wk => &l().wk,
        Role::Wv => &l().wv,
        Role::Wo => &l().wo,
        Role::WIn => &l().w_in,
        Role::WGate => l().w_gate.as_ref().expect("a gated MLP stores its gate"),
        Role::WOut => &l().w_out,
        Role::EmbedT => embed_t,
    }
}

/// Slot `s`'s buffer as a `shape`d tensor, taken out of `slots` until its
/// value dies: grown if short, its stale contents zeroed only if `zero`.
fn take_slot(slots: &mut [Vec<f32>], s: usize, shape: Vec<usize>, zero: bool) -> Tensor {
    let mut buf = std::mem::take(&mut slots[s]);
    let n: usize = shape.iter().product();
    if zero {
        buf.clear();
    }
    buf.reserve_exact(n.saturating_sub(buf.len()));
    buf.resize(n, 0.0);
    Tensor::from_vec(shape, buf)
}

/// Zeroes the token rows of `y` (its leading dims flattened) outside
/// `runs`, which are ascending and disjoint: the rows an einsum over a
/// padded pass does not compute.
fn zero_outside(y: &mut Tensor, runs: &[Range<usize>]) {
    let n = y.dim(y.rank() - 1);
    let rows = y.numel() / n.max(1);
    let mut at = 0;
    for r in runs.iter().chain([&(rows..rows)]) {
        y.data_mut()[at * n..r.start * n].fill(0.0);
        at = r.end;
    }
}

/// Rows a fold's later ranks accumulate at a time: their accumulator is a
/// block of the output, not all of it.
const FOLD_ROWS: usize = 128;

/// One source rank's part of a fold: `x[.., c0..c0+kc] × w[r0..r0+kc, :]`.
type RankPart<'t> = (&'t Tensor, usize, &'t PackedMatrix, usize, usize);

/// Rule 2 above over token rows `rows` of `out`: each source rank's part
/// (an int8 `w` unscaled unless `scale`) — rank 0's written straight into
/// `out`, and each later rank's, `FOLD_ROWS` rows at a time, written into
/// `block`, then added to `out`: every element folds the ranks in ascending
/// order, as the collectives do.
fn fold_ranks(out: &mut Tensor, block: &mut Vec<f32>, ranks: &[RankPart<'_>], scale: bool, rows: Range<usize>) {
    let n = out.dim(out.rank() - 1);
    let part = |&(x, c0, w, r0, kc): &RankPart<'_>, rows: Range<usize>, into: &mut [f32]| {
        w.matmul_window(x, rows, c0, r0, kc, into);
        if scale {
            w.apply_scales(into);
        }
    };
    let Some((first, rest)) = ranks.split_first() else { return };
    part(first, rows.clone(), &mut out.data_mut()[rows.start * n..rows.end * n]);
    for b0 in rows.clone().step_by(FOLD_ROWS) {
        let rows = b0..(b0 + FOLD_ROWS).min(rows.end);
        let span = rows.start * n..rows.end * n;
        for rank in rest {
            block.resize(span.len(), 0.0);
            part(rank, rows.clone(), block);
            for (o, &v) in out.data_mut()[span.clone()].iter_mut().zip(block.iter()) {
                *o += v;
            }
        }
    }
}

/// The token rows of a `[lens.len(), l, ·]` activation that hold a valid
/// position — row `b`'s first `lens[b]` — as ascending runs into `runs`:
/// each row's rounded out to whole blocks of `block` rows (cut at the last
/// row), and runs that meet merged, so a run never splits a block.
fn token_runs(lens: &[usize], l: usize, block: usize, runs: &mut Vec<Range<usize>>) {
    runs.clear();
    let m = lens.len() * l;
    for (b, &n) in lens.iter().enumerate().filter(|&(_, &n)| n > 0) {
        let start = b * l / block * block;
        let end = ((b * l + n).div_ceil(block) * block).min(m);
        match runs.last_mut() {
            Some(last) if last.end >= start => last.end = last.end.max(end),
            _ => runs.push(start..end),
        }
    }
}

/// Per-row sum and sum of squares of an `E`-sharded `[B, L, E/n]` stream
/// into `out` (`[B, L, 2]`): the partial moments a sharded layernorm
/// all-reduces.
fn moments_into(x: &Tensor, out: &mut Tensor) {
    for (row, m) in x.data().chunks(x.dim(2)).zip(out.data_mut().chunks_mut(2)) {
        m[0] = row.iter().sum();
        m[1] = row.iter().map(|v| v * v).sum();
    }
}

/// Layernorm of an `E`-sharded `[B, L, E/n]` stream into `out`, given its
/// all-reduced moments `tot` over the full width `e`: the chip normalizes
/// its own slice with its gain shard.
fn normalize_into(x: &Tensor, tot: &Tensor, gain: &Tensor, e: usize, out: &mut Tensor) {
    let (ef, w) = (e as f32, x.dim(2));
    let rows = x.data().chunks(w).zip(out.data_mut().chunks_mut(w));
    for ((row, o), m) in rows.zip(tot.data().chunks(2)) {
        let mean = m[0] / ef;
        let var = m[1] / ef - mean * mean;
        let inv = 1.0 / (var + 1e-6).sqrt();
        for ((o, &v), g) in o.iter_mut().zip(row).zip(gain.data()) {
            *o = (v - mean) * inv * g;
        }
    }
}

/// The activation operand `r` names: the residual stream `x`, or a live
/// step value.
fn act<'v>(x: &'v Tensor, vals: &'v [Option<Val>], r: Operand) -> &'v Tensor {
    match r {
        Operand::Boundary => x,
        Operand::Step(j) => match vals[j].as_ref().expect("a value lives until its last reader") {
            Val::Act(t) => t,
            Val::Weights(_) | Val::Parts(_) => panic!("step {j} hands its parts to an einsum"),
        },
        Operand::Weight(role) => panic!("{role:?} is a weight"),
    }
}

/// One chip's part of a pass: the chip, its cache rows, its residual
/// stream, and the step values it still holds.
struct Lane<'a> {
    chip: &'a mut ChipState,
    /// The chip's cache rows of the pass's rows, of the rows it holds, and
    /// their valid positions.
    kv: (&'a [usize], usize, &'a [usize]),
    /// The residual stream: the pass input, or the chip's block of it, then
    /// each layer's output, in a residual slot's buffer.
    x: Cow<'a, Tensor>,
    /// The next-token positions of the chip's rows.
    bases: &'a [usize],
    /// The engine's RoPE angles, grown for the pass, if the model rotates.
    rope: Option<&'a RopeTable>,
    /// If any row of the pass holds padding, every row's valid positions (0
    /// for a filler row) and the pass's `L`: an einsum then runs only over
    /// its rows' valid tokens, and a collective reads only theirs where it
    /// can. A pass with no padding runs every op over every row.
    padded: Option<(&'a [usize], usize)>,
    /// An einsum's or a collective's runs of valid token rows
    /// ([`token_runs`]).
    runs: Vec<Range<usize>>,
    vals: Vec<Option<Val>>,
    /// One buffer per slot of the program's buffer plan, each allocated at
    /// its first use in the pass and freed after its last.
    slots: Vec<Vec<f32>>,
    /// A fold's later-rank accumulator, one block of `FOLD_ROWS` rows.
    fold: Vec<f32>,
    /// The attention kernel's working buffers: a decode step's, grown to
    /// its largest call and freed with the lane, like the slots.
    attn: AttentionScratch,
    /// The collective of the step in flight, posted and not yet completed.
    posted: Option<Posted>,
    /// Whether this chip returns the logits: rank 0 of the group they are
    /// replicated over.
    emits: bool,
    /// Set once the chip unwinds; it then sits out the rest of the pass.
    failed: Option<ChipPanic>,
}

impl<'a> Lane<'a> {
    fn new(
        p: &ChipProgram,
        chip: &'a mut ChipState,
        kv: (&'a [usize], usize, &'a [usize]),
        input: &'a Tensor,
        bases: &'a [usize],
        rope: Option<&'a RopeTable>,
        padded: Option<(&'a [usize], usize)>,
    ) -> Self {
        let vals = p.instrs.iter().map(|_| None).collect();
        let slots = vec![Vec::new(); p.plan.sizes.len()];
        let x = Cow::Borrowed(input);
        let (fold, attn, runs) = (Vec::new(), AttentionScratch::default(), Vec::new());
        let (posted, emits, failed) = (None, false, None);
        Lane { chip, kv, x, bases, rope, padded, runs, vals, slots, fold, attn, posted, emits, failed }
    }

    /// Runs `f` on this chip, under its own `catch_unwind`, unless the chip
    /// already failed. On unwind the chip cancels every group it belongs to
    /// and drops out of the pass; the buffers it held are dropped with it.
    fn guard(&mut self, f: impl FnOnce(&mut Self)) {
        if self.failed.is_some() {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            cancel_chip_groups(self.chip.rank, &self.chip.groups, &payload);
            self.failed = Some(payload);
        }
    }

    /// Whether the chip runs pass `li` of `p` (`li` past the last layer is
    /// the final steps, which a chip that does not emit skips unless they
    /// communicate).
    fn runs(&self, p: &ChipProgram, li: usize) -> bool {
        self.failed.is_none() && (li < p.cfg.n_layers || self.emits || p.talks)
    }

    /// Cuts the chip's block of the pass input into the first residual
    /// slot (where the boundary shards it: its cut of that dim, canonical,
    /// since the boundary's batch axes are the nest's outermost) and its
    /// rows' positions, and decides whether it emits the logits.
    fn enter(&mut self, p: &ChipProgram) {
        let coord = self.chip.coord;
        if let Some(d) = p.cut {
            let (start, len) = p.boundary.spec.local_range(d, self.x.dim(d), p.torus, coord, &[]);
            let buf = std::mem::take(&mut self.slots[p.plan.resid[0]]);
            self.x = Cow::Owned(self.x.slice_into(d, start, len, buf));
        }
        self.bases = &self.bases[p.share(coord, self.bases.len(), b_axes(&p.boundary))];
        self.emits = self.chip.groups[p.emit].rank() == 0;
    }

    /// Stores step `k`'s value, hands the buffers of every value it read
    /// last back to their slots, at a layer's end makes its output the
    /// residual stream, the old stream's buffer back in its slot, and
    /// frees the slots the pass is done with.
    fn settle(&mut self, p: &ChipProgram, li: usize, k: usize, val: Val) {
        self.vals[k] = Some(val);
        for &j in &p.plan.dies[k] {
            if let (Some(Val::Act(t)), Some(s)) = (self.vals[j].take(), p.plan.value[j]) {
                self.slots[s] = t.into_vec();
            }
        }
        let layers = p.cfg.n_layers;
        if li < layers && k + 1 == p.split {
            let Some(Val::Act(out)) = self.vals[k].take() else {
                unreachable!("a layer ends on the residual stream")
            };
            if let Cow::Owned(old) = std::mem::replace(&mut self.x, Cow::Owned(out)) {
                self.slots[p.plan.resid[li % 2]] = old.into_vec();
            }
        }
        if li == if k < p.split { layers.saturating_sub(1) } else { layers } {
            for &s in &p.plan.frees[k] {
                self.slots[s] = Vec::new();
            }
        }
    }

    /// Runs step `k` of pass `li`, an einsum or a local op, into its slot:
    /// [`PackedMatrix::matmul_into_cols`] or, over an all-gather's parts, one
    /// column block or accumulator per source rank, over the runs of valid
    /// token rows ([`token_runs`]); a local op its write-into kernel.
    fn compute(&mut self, p: &ChipProgram, li: usize, k: usize) {
        if let (Instr::Local { op, inputs, .. }, Some(i)) = (&p.instrs[k], p.plan.in_place[k]) {
            let Operand::Step(j) = inputs[i] else { unreachable!("an op in place overwrites a step value") };
            let Some(Val::Act(mut y)) = self.vals[j].take() else { unreachable!("a value lives until its last reader") };
            let other = act(&self.x, &self.vals, inputs[1 - i]);
            match op {
                LocalOp::SwiGlu => ops::swiglu_assign(&mut y, other, i == 0),
                LocalOp::Add => ops::add_assign(&mut y, other),
                _ => unreachable!("only SwiGLU and add run in place"),
            }
            self.settle(p, li, k, Val::Act(y));
            return;
        }
        let Lane { chip, kv: (rows, batch, valid), x, bases, rope, padded, runs, vals, slots, fold, attn, .. } = self;
        let ChipState { coord, stored, cache, .. } = &mut **chip;
        let cache = &mut StepCache { cache, rows, lens: valid, batch: *batch, scratch: attn };
        let (cfg, stored) = (&p.cfg, &stored[li]);
        let act = |r: Operand| act(x, vals, r);
        let mat = |r: Operand| match r {
            Operand::Weight(role) => &**stored.weight(role),
            _ => panic!("{r:?} is not a stored weight"),
        };
        let val = |r: Operand| match r {
            Operand::Step(j) => vals[j].as_ref(),
            _ => unreachable!("{r:?} is not an all-gather's parts"),
        };
        let weights = |r: Operand| match val(r) {
            Some(Val::Weights(ws)) => ws.as_slice(),
            _ => unreachable!("{r:?} hands the einsum a weight's parts"),
        };
        let parts = |r: Operand| match val(r) {
            Some(Val::Parts(xs)) => xs.as_slice(),
            _ => unreachable!("{r:?} hands the einsum activation parts"),
        };
        let slot = p.out_slot(li, k).expect("an einsum or a local op writes a slot");
        let scratch = &p.plan.scratch[k];
        let out = match &p.instrs[k] {
            Instr::Einsum { x: a, w, mm, width, rows: split } => {
                // `[B, L, ·]` in, `[B, L, width]` out, written over the
                // runs of valid token rows and zeroed elsewhere.
                let src = if *mm == Mm::FoldX { &*parts(*a)[0] } else { act(*a) };
                runs.clear();
                runs.push(0..src.dim(0) * src.dim(1));
                if let Some((lens, l)) = *padded {
                    let lens = &lens[p.share(*coord, lens.len(), *split)];
                    assert_eq!((lens.len(), l), (src.dim(0), src.dim(1)), "one length per row of the einsum's input");
                    token_runs(lens, l, TILE_ROWS, runs);
                }
                let mut y = take_slot(slots, slot, vec![src.dim(0), src.dim(1), *width], false);
                zero_outside(&mut y, runs);
                match mm {
                    Mm::Whole => {
                        let w = mat(*w);
                        for r in runs.iter() {
                            w.matmul_into_cols(src, r.clone(), &mut y, 0);
                        }
                    }
                    Mm::Cols => {
                        let ws = weights(*w);
                        let c = ws[0].cols();
                        for r in runs.iter() {
                            for (i, part) in ws.iter().enumerate() {
                                part.matmul_into_cols(src, r.clone(), &mut y, i * c);
                            }
                        }
                    }
                    Mm::FoldW => {
                        let ws = weights(*w);
                        let kc = src.dim(2) / ws.len();
                        let ranks: Vec<RankPart<'_>> =
                            ws.iter().enumerate().map(|(r, w)| (src, r * kc, &**w, 0, kc)).collect();
                        for r in runs.iter() {
                            fold_ranks(&mut y, fold, &ranks, true, r.clone());
                        }
                    }
                    Mm::FoldX => {
                        let (xs, w) = (parts(*a), mat(*w));
                        let ranks: Vec<RankPart<'_>> =
                            xs.iter().enumerate().map(|(r, x)| (&**x, 0, w, r * x.dim(2), x.dim(2))).collect();
                        for r in runs.iter() {
                            fold_ranks(&mut y, fold, &ranks, false, r.clone());
                        }
                        w.apply_scales(y.data_mut());
                    }
                }
                y
            }
            Instr::Local { op, inputs, gained, .. } => {
                let a = act(inputs[0]);
                let shape = a.shape().to_vec();
                match op {
                    LocalOp::LayerNorm(gain) => {
                        let gain = stored.gain(*gain);
                        let mut y = take_slot(slots, slot, shape, false);
                        // Over an `E`-sharded stream the second input is the
                        // all-reduced moments.
                        match inputs.get(1) {
                            Some(&tot) => normalize_into(a, act(tot), gain, cfg.d_model, &mut y),
                            None => ops::layernorm_into(a, gain, 1e-6, &mut y),
                        }
                        y
                    }
                    LocalOp::Moments => {
                        let mut y = take_slot(slots, slot, vec![a.dim(0), a.dim(1), 2], false);
                        moments_into(a, &mut y);
                        y
                    }
                    LocalOp::Attention => {
                        let (kn, v, dh) = (act(inputs[1]), act(inputs[2]), cfg.d_head);
                        let bases = &bases[p.share(*coord, bases.len(), *gained)];
                        // The kernel writes every valid position; a padded
                        // pass zeroes the output first for the rest.
                        let zero = padded.is_some();
                        if let Some(table) = rope {
                            let (sq, sk) = (scratch[0], scratch[1]);
                            let mut k_r = take_slot(slots, sk, kn.shape().to_vec(), false);
                            table.rope_rows_into(kn, bases, cache.lens, &mut k_r);
                            cache.append(li, &k_r, v);
                            slots[sk] = k_r.into_vec();
                            let mut q_r = take_slot(slots, sq, shape.clone(), false);
                            table.rope_rows_into(a, bases, cache.lens, &mut q_r);
                            let mut y = take_slot(slots, slot, shape, zero);
                            cache.attend_into(&q_r, li, dh, &mut y);
                            slots[sq] = q_r.into_vec();
                            y
                        } else {
                            cache.append(li, kn, v);
                            let mut y = take_slot(slots, slot, shape, zero);
                            cache.attend_into(a, li, dh, &mut y);
                            y
                        }
                    }
                    LocalOp::BatchSlice => {
                        let r = p.share(*coord, a.dim(0), *gained);
                        a.slice_into(0, r.start, r.len(), std::mem::take(&mut slots[slot]))
                    }
                    LocalOp::SwiGlu => {
                        let mut y = take_slot(slots, slot, shape, false);
                        ops::swiglu_into(a, act(inputs[1]), &mut y);
                        y
                    }
                    LocalOp::Gelu => {
                        let mut y = take_slot(slots, slot, shape, false);
                        gelu_into(a, &mut y);
                        y
                    }
                    LocalOp::Add => {
                        let mut y = take_slot(slots, slot, shape, false);
                        ops::add_into(a, act(inputs[1]), &mut y);
                        y
                    }
                }
            }
            Instr::Collective(_) => unreachable!("a collective posts and completes"),
        };
        self.settle(p, li, k, Val::Act(out));
    }

    /// Posts step `k`'s collective on the chip's group over the step's
    /// axes. An all-gather an einsum reads moves rank-ordered parts: a
    /// stored weight in its wire format, shared, or `[B, L, ·]` activation
    /// blocks. An input the plan moves (one dying here) goes into the
    /// deposit with its buffer; any other is copied once.
    fn post(&mut self, p: &ChipProgram, li: usize, k: usize) {
        let Instr::Collective(c) = &p.instrs[k] else { unreachable!("step {k} is a collective") };
        let input = match (c.input, p.plan.moves[k]) {
            (Operand::Step(j), true) => match self.vals[j].take() {
                Some(Val::Act(t)) => Some(Cow::Owned(t)),
                _ => unreachable!("a moved value lives until its collective"),
            },
            (Operand::Weight(_), _) => None,
            (r, _) => Some(Cow::Borrowed(act(&self.x, &self.vals, r))),
        };
        let call = match (c.send, input) {
            (Exchange::Weight { role, dim, wire }, _) => {
                let shard = self.chip.stored[li].weight(role);
                let int8 = wire == WireFormat::Int8;
                assert_eq!(shard.scales().is_some(), int8, "a weight's wire format follows its storage");
                Call::AllGatherPacked { shard: Arc::clone(shard), dim }
            }
            (_, None) => unreachable!("only a weight gather posts a stored weight"),
            (Exchange::Parts, Some(t)) => {
                let dim = t.rank() - 1;
                Call::AllGatherParts { shard: t, dim }
            }
            (Exchange::Gather(dim), Some(t)) => Call::AllGather { shard: t, dim },
            (Exchange::AllReduce, Some(t)) => Call::AllReduce { input: t },
            (Exchange::ReduceScatter(dim), Some(t)) => Call::ReduceScatter { input: t, dim },
            (Exchange::AllToAll { split, concat }, Some(t)) => Call::AllToAll { input: t, split, concat },
        };
        let posted = self.chip.groups[c.group].post(call);
        self.posted = Some(posted);
    }

    /// Completes the collective step `k` posted, a dense result read into
    /// the step's slot (over a pass with padding, only its valid token rows
    /// where the read keeps rows, the rest zero), and puts the buffer of
    /// the chip's previous deposit on the group, handed back, into the slot
    /// the plan kept for it.
    fn complete(&mut self, p: &ChipProgram, li: usize, k: usize) {
        let Instr::Collective(c) = &p.instrs[k] else { unreachable!("step {k} is a collective") };
        let posted = self.posted.take().expect("the step posted its collective");
        let buf = p.out_slot(li, k).map_or_else(Vec::new, |s| std::mem::take(&mut self.slots[s]));
        let rows = self.padded.map(|(lens, l)| {
            token_runs(&lens[p.share(self.chip.coord, lens.len(), c.rows)], l, 1, &mut self.runs);
            self.runs.as_slice()
        });
        let (received, back) = self.chip.groups[c.group].complete_rows(posted, buf, rows);
        if let (Some(back), Some(s)) = (back, p.plan.back[k]) {
            self.slots[s] = back;
        }
        let val = match received {
            Received::Tensor(t) => Val::Act(t),
            Received::Parts(parts) => Val::Parts(parts),
            Received::Packed(parts) => Val::Weights(parts),
        };
        self.settle(p, li, k, val);
    }

    /// The chip's result: the logits where it emits them, or its unwind.
    /// Every other buffer of the pass is freed with the lane, and the chip
    /// lets go of the inputs it lent its groups' last collectives, so
    /// nothing is kept from one pass to the next.
    fn finish(mut self) -> Result<Option<Tensor>, ChipPanic> {
        for g in &self.chip.groups {
            g.drain();
        }
        match (self.failed, self.vals.pop().flatten()) {
            (Some(payload), _) => Err(payload),
            (None, Some(Val::Act(logits))) if self.emits => Ok(Some(logits)),
            (None, _) => Ok(None),
        }
    }
}

/// Runs program `p` on one executor's chips in lockstep: the layer steps
/// once per model layer, then the final steps, and each step on every
/// chip before the next. A collective step posts for every chip before it
/// completes any — every post of a step precedes every wait, on every
/// executor, so the chips of one group never wait on their own executor.
/// Each chip's part of each step runs under its own `catch_unwind`
/// (`Lane::guard`): a chip that unwinds cancels its groups and drops out,
/// and its executor-mates meet the cancellation in their own collectives.
fn run_schedule(p: &ChipProgram, lanes: &mut [Lane<'_>]) {
    for lane in lanes.iter_mut() {
        lane.guard(|c| c.enter(p));
    }
    for (li, k) in p.steps(p.cfg.n_layers) {
        if !matches!(p.instrs[k], Instr::Collective(_)) {
            for lane in lanes.iter_mut().filter(|c| c.runs(p, li)) {
                lane.guard(|c| c.compute(p, li, k));
            }
            continue;
        }
        for lane in lanes.iter_mut().filter(|c| c.runs(p, li)) {
            lane.guard(|c| c.post(p, li, k));
        }
        for lane in lanes.iter_mut().filter(|c| c.runs(p, li)) {
            lane.guard(|c| c.complete(p, li, k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_collectives::CollectiveOp;
    use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, MeshFactors};

    /// What one run shows of its bits: every logit, every slot's KV, and the
    /// ledger's bytes and calls per op.
    fn bits(engine: &PartitionedEngine, logits: &[Tensor]) -> Vec<u64> {
        let mut out: Vec<u64> = logits.iter().flat_map(Tensor::data).map(|v| u64::from(v.to_bits())).collect();
        for slot in 0..engine.slot_lens().len() {
            for (k, v) in engine.extract_kv(slot).layers() {
                out.extend(k.data().iter().chain(v.data()).map(|v| u64::from(v.to_bits())));
            }
        }
        for op in CollectiveOp::ALL {
            out.extend([engine.traffic().bytes(op), engine.traffic().calls(op)]);
        }
        out
    }

    #[test]
    fn every_executor_count_runs_the_same_bits_and_faults() {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 5);
        // The full gather with head-sharded attention besides the tier-1
        // five, so WG XYZ runs both attention cuts at every executor count.
        let wg_head = (FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Head, (4, 1, 1));
        for (ffn, attn, m) in TIER1.into_iter().chain([wg_head]) {
            let mesh = MeshFactors::new(m.0, m.1, m.2);
            let layout = Layout { ffn, attn, mesh };
            let n = mesh.n_chips();
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                let run = |t: usize| {
                    let mut engine = PartitionedEngine::with_executors(&model, layout, fmt, t);
                    let prompts: Vec<Vec<usize>> = (0..4).map(|s| vec![s + 1, 2 * s + 3, 5]).collect();
                    let prefill = engine.try_prefill(&prompts).expect("a fault-free prefill");
                    let step = engine.try_decode_step(&[7, 8, 9, 10]).expect("a fault-free step");
                    let rows = engine.try_decode_rows(&[(3, 11), (1, 12)]).expect("a fault-free row step");
                    let seen = bits(&engine, &[prefill, step, rows]);
                    let mut faulty = PartitionedEngine::with_executors(&model, layout, fmt, t);
                    faulty.inject_faults(FaultPlan::new().crash(n - 1, 1));
                    let fault = faulty.try_prefill(&prompts).expect_err("chip n - 1 crashes");
                    (seen, fault)
                };
                let (want, want_fault) = run(n);
                assert!(
                    matches!(want_fault, EngineError::ChipCrashed { rank, .. } if rank == n - 1),
                    "{}: {want_fault:?}",
                    layout.describe()
                );
                for t in [1, 2] {
                    let (got, fault) = run(t);
                    assert!(got == want, "{} {fmt:?}: {t} executors changed the bits", layout.describe());
                    assert_eq!(fault, want_fault, "{} {fmt:?}: {t} executors", layout.describe());
                }
            }
        }
    }

    /// Every built-in FFN layout.
    const FFNS: [FfnLayout; 5] = [
        FfnLayout::WeightStationary1D,
        FfnLayout::WeightStationary2D,
        FfnLayout::WeightGathered(GatherExtent::Xyz),
        FfnLayout::WeightGathered(GatherExtent::X),
        FfnLayout::WeightGathered(GatherExtent::Xy),
    ];

    /// The five tier-1 layouts of the executor and stale-buffer tests.
    const TIER1: [(FfnLayout, AttnSharding, (usize, usize, usize)); 5] = [
        (FfnLayout::WeightStationary1D, AttnSharding::Head, (1, 4, 1)),
        (FfnLayout::WeightStationary1D, AttnSharding::Batch, (1, 4, 1)),
        (FfnLayout::WeightStationary2D, AttnSharding::Batch, (2, 2, 1)),
        (FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Batch, (4, 1, 1)),
        (FfnLayout::WeightGathered(GatherExtent::X), AttnSharding::Head, (2, 2, 1)),
    ];

    #[test]
    fn shards_cut_from_the_schedule_tile_every_weight_gain_and_kv_row() {
        use esti_model::config::BlockKind;
        let numbered = |t: &Tensor| Tensor::from_vec(t.shape().to_vec(), (0..t.numel()).map(|i| i as f32).collect());
        let meshes = [
            (1, 1, 1),
            (2, 1, 1),
            (1, 2, 1),
            (1, 1, 2),
            (2, 2, 1),
            (4, 1, 1),
            (1, 4, 1),
            (1, 2, 2),
            (2, 1, 2),
            (2, 2, 2),
            (2, 4, 1),
            (4, 2, 1),
            (1, 8, 1),
        ];
        let mut checked = 0;
        for base in [ModelConfig::tiny(), ModelConfig::tiny_multihead()] {
            for block in [BlockKind::Parallel, BlockKind::Serial] {
                let cfg = ModelConfig { block, ..base.clone() };
                // Every matrix and gain numbered element by element, so the
                // values a chip stores name the elements it holds.
                let mut w = Weights::random(&cfg, 1);
                for l in &mut w.layers {
                    let opt = l.w_gate.iter_mut().chain(l.ln2.iter_mut());
                    let all = [&mut l.wq, &mut l.wk, &mut l.wv, &mut l.wo, &mut l.w_in, &mut l.w_out, &mut l.ln1];
                    for t in all.into_iter().chain(opt) {
                        *t = numbered(t);
                    }
                }
                w.ln_final = numbered(&w.ln_final);
                let embed_t = numbered(&w.embed.transpose());
                for (ffn, attn, m) in layouts_of(&FFNS, &meshes) {
                    let layout = Layout { ffn, attn, mesh: MeshFactors::new(m.0, m.1, m.2) };
                    let n = layout.mesh.n_chips();
                    let Ok(s) = build_schedule(&cfg, &layout, n, 1).and_then(|s| s.verify().map(|()| s)) else {
                        continue;
                    };
                    let what = format!("{} {:?} {}", cfg.name, block, layout.describe());
                    let coords: Vec<ChipCoord> = s.torus.chips().collect();
                    let p = ChipProgram::compile(&s, &cfg).unwrap();
                    let cut_of = |c: ChipCoord| -> Vec<Stored> {
                        (0..=cfg.n_layers).map(|li| store(&s, &p, &w, &embed_t, li, c, WeightFormat::Exact)).collect()
                    };
                    let chips: Vec<Vec<Stored>> = coords.iter().map(|&c| cut_of(c)).collect();
                    let dense = |c: usize, li: usize, role: Role| chips[c][li].weight(role).unpack();
                    for li in 0..=cfg.n_layers {
                        // (i) Each weight's chips tile its matrix, every
                        // element held by as many chips as hold each shard.
                        for (role, _) in &chips[0][li].weights {
                            let t = s.tensor(Operand::Weight(*role)).unwrap();
                            let mut held = vec![0; matrix(&w, &embed_t, li, *role).numel()];
                            for c in 0..n {
                                for &v in dense(c, li, *role).data() {
                                    held[v as usize] += 1;
                                }
                            }
                            let copies = n / t.spec.shard_count(s.torus);
                            assert!(held.iter().all(|&h| h == copies), "{what}: {role:?} of pass {li} is not tiled");
                        }
                        // (iii) Gains: E/n in 2D (the chips' in rank order
                        // are the whole gain), whole elsewhere.
                        let gains: Vec<Gain> = chips[0][li].gains.iter().map(|g| g.0).collect();
                        let want = match (li < cfg.n_layers, block) {
                            (false, _) => vec![Gain::Final],
                            (true, BlockKind::Parallel) => vec![Gain::Attn],
                            (true, BlockKind::Serial) => vec![Gain::Attn, Gain::Mlp],
                        };
                        assert_eq!(gains, want, "{what}: pass {li}'s gains");
                        let whole = numbered(&w.ln_final);
                        for gain in want {
                            let parts: Vec<&Tensor> = chips.iter().map(|c| c[li].gain(gain)).collect();
                            if ffn == FfnLayout::WeightStationary2D {
                                assert!(Tensor::concat(&parts, 0) == whole, "{what}: {gain:?} is not cut E/n");
                            } else {
                                assert!(parts.iter().all(|&g| *g == whole), "{what}: {gain:?} is not whole");
                            }
                        }
                    }
                    // (ii) A weight all-gather's group, its cuts in rank
                    // order along the program's matrix dim, concatenates to
                    // the cut over the other axes.
                    for (step, instr) in s.layer.iter().chain(&s.final_steps).zip(&p.instrs) {
                        let (Step::Collective { axes, output, .. }, Instr::Collective(c)) = (step, instr) else {
                            continue;
                        };
                        let Exchange::Weight { role, dim, .. } = c.send else { continue };
                        let full = matrix(&w, &embed_t, 0, role);
                        for group in s.torus.groups(*axes) {
                            let parts: Vec<Tensor> =
                                group.iter().map(|&c| dense(s.torus.chip_id(c), 0, role)).collect();
                            let gathered = Tensor::concat(&parts.iter().collect::<Vec<_>>(), dim);
                            for &c in &group {
                                let canonical: Vec<(usize, usize)> = (0..output.global.len())
                                    .map(|i| output.spec.local_range(i, output.global[i], s.torus, c, &[]))
                                    .collect();
                                let want = cut(full, output, &canonical);
                                assert!(gathered == want, "{what}: the {role:?} gather over {axes} at {c}");
                            }
                        }
                    }
                    // (iv) The chips' KV rows x heads cover every (row,
                    // head) pair, exactly once where the batch shards.
                    let (b, heads) = (2 * p.spans(), cfg.n_kv_heads());
                    let mut held = vec![0; b * heads];
                    for &c in &coords {
                        for row in p.kv_rows(c, b) {
                            for h in p.kv_heads(c) {
                                held[row * heads + h] += 1;
                            }
                        }
                    }
                    assert!(held.iter().all(|&h| h >= 1), "{what}: a KV row or head no chip caches");
                    if attn == AttnSharding::Batch {
                        assert!(held.iter().all(|&h| h == 1), "{what}: a KV row cached twice");
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked >= 100, "only {checked} schedules checked");
    }

    #[test]
    fn a_paired_engine_stores_its_shards_once() {
        // A weight-gathered engine with a decode partner stores exactly what
        // its own program cuts, which is what the partner engine stores too.
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 3);
        let cfg = model.config();
        let embed_t = model.weights().embed.transpose();
        let bytes = |e: &PartitionedEngine| -> Vec<usize> {
            let weights = e.chips.iter().map(|c| c.stored.iter().flat_map(|s| &s.weights).map(|w| w.1.storage_bytes()));
            weights.map(Iterator::sum).collect()
        };
        for (x, y, z) in [(2, 2, 1), (4, 1, 1)] {
            let mesh = MeshFactors::new(x, y, z);
            let wg = Layout { ffn: FfnLayout::WeightGathered(GatherExtent::Xyz), attn: AttnSharding::Batch, mesh };
            let ws = Layout { ffn: FfnLayout::WeightStationary1D, ..wg };
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                let dtype = if fmt == WeightFormat::Int8 { DType::Int8 } else { DType::Bf16 };
                let paired = PartitionedEngine::new(&model, wg, fmt);
                let partner = PartitionedEngine::new(&model, ws, fmt);
                assert!(paired.decode.is_some() && partner.decode.is_none(), "{}", wg.describe());
                // What the layout's own program alone cuts, chip by chip.
                let s = build_schedule(cfg, &wg, mesh.n_chips(), 1).unwrap().with_weight_dtype(dtype);
                let p = ChipProgram::compile(&s, cfg).unwrap();
                let own: Vec<usize> = s
                    .torus
                    .chips()
                    .map(|c| {
                        let stored = (0..=cfg.n_layers).map(|li| store(&s, &p, model.weights(), &embed_t, li, c, fmt));
                        stored.flat_map(|st| st.weights).map(|w| w.1.storage_bytes()).sum()
                    })
                    .collect();
                assert_eq!(bytes(&paired), own, "{} {fmt:?}", wg.describe());
                assert_eq!(bytes(&partner), own, "{} {fmt:?}", wg.describe());
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_sharding_rejected() {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
        let layout =
            Layout { ffn: FfnLayout::WeightStationary1D, attn: AttnSharding::Head, mesh: MeshFactors::new(1, 3, 1) };
        let _ = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    }

    /// Every `(ffn, attn, mesh)` of the given ffns and meshes, under both
    /// attention shardings.
    fn layouts_of<'a>(
        ffns: &'a [FfnLayout],
        meshes: &'a [(usize, usize, usize)],
    ) -> impl Iterator<Item = (FfnLayout, AttnSharding, (usize, usize, usize))> + 'a {
        ffns.iter().flat_map(move |&f| {
            [AttnSharding::Head, AttnSharding::Batch].into_iter().flat_map(move |a| meshes.iter().map(move |&m| (f, a, m)))
        })
    }

    #[test]
    fn a_pass_after_a_larger_one_reads_no_stale_buffer() {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 5);
        // One slot of each of four spans of 16: no pass needs padding rows.
        let long: Vec<Vec<usize>> = (0..4).map(|s| (0..9).map(|p| (s * 7 + p * 3 + 1) % 41).collect()).collect();
        let short: Vec<Vec<usize>> = (0..4).map(|s| vec![s + 2, 2 * s + 1, 9]).collect();
        let rows = |first: usize, prompts: &'_ [Vec<usize>]| -> Vec<(usize, Vec<usize>)> {
            prompts.iter().enumerate().map(|(i, p)| (first + 4 * i, p.clone())).collect()
        };
        let prefill = |e: &mut PartitionedEngine, rows: &[(usize, Vec<usize>)]| {
            let rows: Vec<(usize, &[usize])> = rows.iter().map(|(s, t)| (*s, t.as_slice())).collect();
            e.try_prefill_rows(&rows).expect("a fault-free prefill")
        };
        let seen = |e: &PartitionedEngine, logits: &Tensor, slots: &[usize]| -> Vec<u32> {
            let mut out: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
            for &slot in slots {
                for (k, v) in e.extract_kv(slot).layers() {
                    out.extend(k.data().iter().chain(v.data()).map(|v| v.to_bits()));
                }
            }
            out
        };
        let (big, step, small) = (rows(0, &long), [(0, 7), (4, 8)], rows(1, &short));
        for (ffn, attn, m) in TIER1 {
            let layout = Layout { ffn, attn, mesh: MeshFactors::new(m.0, m.1, m.2) };
            let n = layout.mesh.n_chips();
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                for t in [1, 2, n] {
                    let what = format!("{} {fmt:?} at {t} executors", layout.describe());
                    let fresh = || {
                        let mut e = PartitionedEngine::with_executors(&model, layout, fmt, t);
                        e.begin_slots(16, 0);
                        e
                    };
                    let mut engine = fresh();
                    let first = prefill(&mut engine, &big);
                    let first = seen(&engine, &first, &[0, 4, 8, 12]);
                    let stepped = engine.try_decode_rows(&step).expect("a fault-free step");
                    let stepped = seen(&engine, &stepped, &[0, 4]);
                    let later = prefill(&mut engine, &small);
                    let later = seen(&engine, &later, &[1, 5, 9, 13]);

                    // The step, on an engine whose only earlier pass is its
                    // two rows' own prefill.
                    let mut solo = fresh();
                    prefill(&mut solo, &big[..2]);
                    let want = solo.try_decode_rows(&step).expect("a fault-free step");
                    assert!(stepped == seen(&solo, &want, &[0, 4]), "{what}: the decode after a larger pass");
                    let mut other = fresh();
                    let want = prefill(&mut other, &small);
                    assert!(later == seen(&other, &want, &[1, 5, 9, 13]), "{what}: the short prefill");
                    // And the larger pass again, after the smaller ones.
                    engine.begin_slots(16, 0);
                    let again = prefill(&mut engine, &big);
                    assert!(first == seen(&engine, &again, &[0, 4, 8, 12]), "{what}: the long prefill again");
                }
            }
        }
    }
}
