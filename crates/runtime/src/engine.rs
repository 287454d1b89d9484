//! The partitioned execution engine: one thread per simulated chip.

// Vetted against the crate's no-unwrap/no-expect discipline: every
// `expect`/`unwrap` below asserts a sharding-arithmetic or protocol
// invariant established at construction (divisibility checked by
// `preflight`, "one handle per rank", "rank 0 returns logits"), not a
// runtime fault. Faults travel through `try_forward`'s typed error path.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use esti_collectives::{
    CollectiveError, CommGroup, CommTimes, FaultPlan, FaultState, InjectedCrash, TrafficStats,
};
use esti_core::layout::{AttnSharding, FfnLayout, Layout};
use esti_model::reference::{attention_over_rows, gelu, mm3};
use esti_model::{KvCache, MlpKind, ModelConfig, PageStats, PositionKind, ReferenceModel};
use esti_tensor::pool::{with_worker_pool, ChipPool};
use esti_tensor::{ops, Tensor};

use crate::shard::{shard_1d, shard_2d, shard_wg, shard_wg_hybrid, LayerShard, ShardMat};

pub use crate::shard::WeightFormat;

/// The `ESTI_CHIP_THREADS` environment default for
/// [`PartitionedEngine::set_intra_chip_threads`] (1 when unset/invalid).
fn default_chip_workers() -> usize {
    std::env::var("ESTI_CHIP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1)
}

/// Deadline applied to every collective of a fresh engine: generous enough
/// that no healthy run ever trips it, but a stalled or dead chip surfaces as
/// a structured [`EngineError`] instead of hanging the process forever.
/// Override with [`PartitionedEngine::set_collective_deadline`].
pub const DEFAULT_COLLECTIVE_DEADLINE: Duration = Duration::from_secs(60);

/// A partitioned forward pass failed instead of completing.
///
/// The engine runs one thread per chip; when any of them unwinds (an
/// injected fault, a peer's crash propagated through a cancelled barrier, or
/// an ordinary panic), every other chip is released from its collectives and
/// the whole step reports the *root cause*: the chip that died first, not
/// the cascade of peers that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A chip's worker thread panicked; `rank` is the chip that originated
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
    /// in-flight barriers) is unrecoverable and the engine must be rebuilt.
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
                write!(f, "engine is poisoned by an earlier failure; rebuild it")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Which partitioned dataflow a layout lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dataflow {
    OneD,
    TwoD,
    /// XYZ extent: weights fully gathered, activations batch-stationary.
    WeightGathered,
    /// X / XY extents: batch sharded over the gather groups, 1D
    /// weight-stationary within each local group (Figure A.2's hybrids).
    WeightGatheredHybrid {
        n_gather: usize,
        n_local: usize,
    },
}

/// Per-chip state: weight shards, KV-cache shard, and group handles.
struct ChipState {
    rank: usize,
    /// Position along the logical x axis (2D only).
    i: usize,
    /// Position along the logical yz axes (2D only).
    j: usize,
    layers: Vec<LayerShard>,
    cache: KvCache,
    /// Group of all chips.
    g_all: CommGroup,
    /// x-axis group (same `j`), 2D only.
    g_x: Option<CommGroup>,
    /// yz-axes group (same `i`), 2D only.
    g_yz: Option<CommGroup>,
    /// Final layernorm gain (full, or this chip's `E/n` slice in 2D).
    ln_final: Tensor,
    /// Transposed embedding for the logit projection (full `[E, V]`, or
    /// this chip's `[E/n, V]` row slice in 2D).
    embed_t: Tensor,
}

/// A Transformer partitioned over `n` simulated chips.
///
/// Construct with a [`ReferenceModel`] (whose weights are sharded according
/// to the [`Layout`]) and drive it with [`PartitionedEngine::prefill`] /
/// [`PartitionedEngine::decode_step`] exactly like the reference. All
/// inter-chip dataflow goes through `esti-collectives`, and is recorded in
/// the [`TrafficStats`] ledger available via
/// [`PartitionedEngine::traffic`].
pub struct PartitionedEngine {
    cfg: ModelConfig,
    layout: Layout,
    dataflow: Dataflow,
    chips: Vec<ChipState>,
    stats: Arc<TrafficStats>,
    /// Full embedding table, used host-side for the input lookup.
    embed: Tensor,
    /// Learned position table, for models that have one.
    pos_embed: Option<Tensor>,
    /// Batch size fixed at the first prefill (cache sharding depends on it).
    batch: Option<usize>,
    /// Per-row cached positions when the engine runs in slot mode
    /// ([`PartitionedEngine::begin_slots`]): row `r`'s next token occupies
    /// absolute position `row_lens[r]`. `None` in classic (uniform) mode.
    row_lens: Option<Vec<usize>>,
    /// Deadline applied to every chip group's collectives.
    deadline: Option<Duration>,
    /// Worker threads each simulated chip's kernels split output rows
    /// over (1 = each chip computes serially on its own thread).
    chip_workers: usize,
    /// One persistent worker pool per chip when `chip_workers > 1`
    /// (aligned with `chips`); empty otherwise.
    pools: Vec<Arc<ChipPool>>,
    /// Set the first time a step fails: the distributed KV state is no
    /// longer trustworthy and every further `try_*` call reports
    /// [`EngineError::Poisoned`] until the engine is rebuilt.
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
    /// # Panics
    ///
    /// Panics if the model dimensions do not divide the mesh (each dataflow
    /// documents its divisibility requirements in [`crate::shard`]), or if
    /// batch-sharded attention is requested for a multihead model.
    #[must_use]
    pub fn new(model: &ReferenceModel, layout: Layout, fmt: WeightFormat) -> Self {
        let cfg = model.config().clone();
        let n = layout.mesh.n_chips();
        let dataflow = match layout.ffn {
            FfnLayout::WeightStationary1D => Dataflow::OneD,
            FfnLayout::WeightStationary2D => Dataflow::TwoD,
            FfnLayout::WeightGathered(extent) => {
                let n_gather = extent.n_gather(layout.mesh);
                if n_gather >= n {
                    Dataflow::WeightGathered
                } else {
                    Dataflow::WeightGatheredHybrid { n_gather, n_local: n / n_gather }
                }
            }
        };
        if layout.attn == AttnSharding::Batch {
            assert_eq!(
                cfg.n_kv_heads(),
                1,
                "batch-sharded attention requires multiquery attention (Section 3.3)"
            );
        }
        // Static preflight: run the symbolic schedule through the
        // sharding-algebra verifier so an invalid plan fails with the
        // offending step instead of a shape panic in a worker thread.
        if let Err(e) = esti_core::schedule::preflight(&cfg, &layout) {
            panic!("invalid partition plan for {}: {e}", layout.describe());
        }
        let (x_parts, yz_parts) = match dataflow {
            Dataflow::TwoD => (layout.mesh.x, layout.mesh.yz()),
            Dataflow::WeightGatheredHybrid { n_gather, n_local } => (n_gather, n_local),
            _ => (1, n),
        };

        let stats = TrafficStats::new();
        let mut g_all: Vec<Option<CommGroup>> =
            CommGroup::create_with_stats(n, Arc::clone(&stats)).into_iter().map(Some).collect();
        let mut g_x: Vec<Option<CommGroup>> = (0..n).map(|_| None).collect();
        let mut g_yz: Vec<Option<CommGroup>> = (0..n).map(|_| None).collect();
        if matches!(dataflow, Dataflow::TwoD | Dataflow::WeightGatheredHybrid { .. }) {
            // For 2D these are the physical x / yz groups; for hybrid WG,
            // g_x is the weight-gather group and g_yz the 1D local group.
            for j in 0..yz_parts {
                let members = CommGroup::create_with_stats(x_parts, Arc::clone(&stats));
                for (i, m) in members.into_iter().enumerate() {
                    g_x[i * yz_parts + j] = Some(m);
                }
            }
            for i in 0..x_parts {
                let members = CommGroup::create_with_stats(yz_parts, Arc::clone(&stats));
                for (j, m) in members.into_iter().enumerate() {
                    g_yz[i * yz_parts + j] = Some(m);
                }
            }
        }

        let weights = model.weights();
        let e = cfg.d_model;
        let e_n = e / n.max(1);
        let embed_t = weights.embed.transpose();
        let chips = (0..n)
            .map(|rank| {
                let (i, j) = (rank / yz_parts, rank % yz_parts);
                let layers = weights
                    .layers
                    .iter()
                    .map(|lw| match dataflow {
                        Dataflow::OneD => shard_1d(&cfg, lw, rank, n, fmt),
                        Dataflow::TwoD => shard_2d(&cfg, lw, i, j, x_parts, yz_parts, fmt),
                        Dataflow::WeightGathered => shard_wg(&cfg, lw, rank, n, fmt),
                        Dataflow::WeightGatheredHybrid { n_gather, n_local } => {
                            shard_wg_hybrid(&cfg, lw, i, j, n_gather, n_local, fmt)
                        }
                    })
                    .collect();
                let (ln_final, embed_t) = match dataflow {
                    Dataflow::TwoD => {
                        assert!(e.is_multiple_of(n), "2D layout needs d_model divisible by {n} chips");
                        let off = i * (e / x_parts) + j * e_n;
                        (
                            weights.ln_final.slice(0, off, e_n),
                            embed_t.slice(0, off, e_n),
                        )
                    }
                    _ => (weights.ln_final.clone(), embed_t.clone()),
                };
                ChipState {
                    rank,
                    i,
                    j,
                    layers,
                    cache: KvCache::new(cfg.n_layers),
                    g_all: g_all[rank].take().expect("one handle per rank"),
                    g_x: g_x[rank].take(),
                    g_yz: g_yz[rank].take(),
                    ln_final,
                    embed_t,
                }
            })
            .collect();
        let mut engine = PartitionedEngine {
            embed: weights.embed.clone(),
            pos_embed: weights.pos_embed.clone(),
            cfg,
            layout,
            dataflow,
            chips,
            stats,
            batch: None,
            row_lens: None,
            deadline: None,
            chip_workers: 1,
            pools: Vec::new(),
            poisoned: false,
        };
        engine.set_collective_deadline(Some(DEFAULT_COLLECTIVE_DEADLINE));
        engine.set_intra_chip_threads(default_chip_workers());
        engine
    }

    /// Calls `f` on every group handle of every chip.
    fn for_each_group(&self, f: impl Fn(&CommGroup)) {
        for c in &self.chips {
            f(&c.g_all);
            if let Some(g) = &c.g_x {
                f(g);
            }
            if let Some(g) = &c.g_yz {
                f(g);
            }
        }
    }

    /// Sets the deadline every collective waits under (`None` blocks
    /// forever, the pre-fault-model behavior). A fresh engine starts at
    /// [`DEFAULT_COLLECTIVE_DEADLINE`].
    pub fn set_collective_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.for_each_group(|g| g.set_deadline(deadline));
    }

    /// The deadline collectives currently wait under.
    #[must_use]
    pub fn collective_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Sets the number of worker threads each simulated chip parallelizes
    /// its GEMM kernels over (ROADMAP item 5). `1` (the default, or the
    /// `ESTI_CHIP_THREADS` environment override) keeps every chip serial
    /// on its own executor thread; `w > 1` gives each chip a persistent
    /// pool of `w` workers that own disjoint output-row bands.
    ///
    /// Deterministic by construction: banding only decides which worker
    /// computes an element, never the arithmetic, so logits are
    /// bit-identical at any thread count.
    pub fn set_intra_chip_threads(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers == self.chip_workers && (workers == 1) == self.pools.is_empty() {
            return;
        }
        self.chip_workers = workers;
        self.pools = if workers > 1 {
            (0..self.chips.len()).map(|_| Arc::new(ChipPool::new(workers))).collect()
        } else {
            Vec::new()
        };
    }

    /// The per-chip kernel worker-thread count (see
    /// [`PartitionedEngine::set_intra_chip_threads`]).
    #[must_use]
    pub fn intra_chip_threads(&self) -> usize {
        self.chip_workers
    }

    /// Rebuilds every chip's (necessarily empty) KV cache with `page_size`
    /// positions per page. Fresh engines start at
    /// [`crate::DEFAULT_KV_PAGE_SIZE`]. The page size decides how much of a
    /// prompt requests can share and how finely memory is charged, never a
    /// token.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero, or if the engine already holds cached
    /// tokens (set it before the first prefill, or after
    /// [`PartitionedEngine::reset`] / before
    /// [`PartitionedEngine::begin_slots`]).
    pub fn set_kv_page_size(&mut self, page_size: usize) {
        assert!(self.batch.is_none(), "set_kv_page_size requires an empty engine (reset() first)");
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
            c.g_all.arm_faults(Arc::clone(&state), c.rank);
            if let Some(g) = &c.g_x {
                g.arm_faults(Arc::clone(&state), c.rank);
            }
            if let Some(g) = &c.g_yz {
                g.arm_faults(Arc::clone(&state), c.rank);
            }
        }
    }

    /// Disarms any injected fault plan.
    pub fn clear_faults(&mut self) {
        self.for_each_group(CommGroup::clear_faults);
    }

    /// True once a step has failed: the engine's distributed state is
    /// unrecoverable and it must be rebuilt (see [`EngineError::Poisoned`]).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The layout this engine executes.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
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

    /// Per-chip wall-clock time blocked in collectives, merged across each
    /// chip's groups, in rank order.
    #[must_use]
    pub fn comm_times(&self) -> Vec<CommTimes> {
        self.chips
            .iter()
            .map(|c| {
                let mut t = c.g_all.times();
                if let Some(g) = &c.g_x {
                    t.merge(&g.times());
                }
                if let Some(g) = &c.g_yz {
                    t.merge(&g.times());
                }
                t
            })
            .collect()
    }

    /// Human-readable per-chip summary of [`PartitionedEngine::comm_times`]
    /// (microseconds blocked per collective kind), for benchmark dumps.
    #[must_use]
    pub fn comm_time_summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (rank, t) in self.comm_times().iter().enumerate() {
            let us = |op| t.nanos(op) as f64 / 1e3;
            let _ = writeln!(
                s,
                "chip {rank}: blocked {:.1}us (ag {:.1} rs {:.1} ar {:.1} a2a {:.1})",
                t.total_nanos() as f64 / 1e3,
                us(esti_collectives::CollectiveOp::AllGather),
                us(esti_collectives::CollectiveOp::ReduceScatter),
                us(esti_collectives::CollectiveOp::AllReduce),
                us(esti_collectives::CollectiveOp::AllToAll),
            );
        }
        s
    }

    /// Clears every chip's per-group collective-time counters (the shared
    /// [`TrafficStats`] ledger has its own [`TrafficStats::reset`]).
    pub fn reset_comm_times(&self) {
        for c in &self.chips {
            c.g_all.reset_times();
            if let Some(g) = &c.g_x {
                g.reset_times();
            }
            if let Some(g) = &c.g_yz {
                g.reset_times();
            }
        }
    }

    /// Tokens currently cached per sequence.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        // With batch sharding, chips hold different sequences but the same
        // number of cached positions.
        self.chips.first().map_or(0, |c| c.cache.len())
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
    /// Subsequent [`PartitionedEngine::decode_step`] calls must pass
    /// `k ×` the original batch of tokens, ordered with each prompt's
    /// samples adjacent.
    ///
    /// # Panics
    ///
    /// Panics if nothing is cached, `k` is zero, or the expanded batch
    /// violates the layout's divisibility requirements.
    pub fn expand_batch(&mut self, k: usize) {
        assert!(k > 0, "expansion factor must be positive");
        let b = self.batch.expect("expand_batch requires a prior prefill");
        self.validate_batch(b * k);
        for c in &mut self.chips {
            c.cache.repeat_batch(k);
        }
        self.batch = Some(b * k);
    }

    /// Clears all KV caches so a new batch can be served.
    pub fn reset(&mut self) {
        for c in &mut self.chips {
            c.cache.clear();
        }
        self.batch = None;
        self.row_lens = None;
    }

    // -----------------------------------------------------------------
    // Slot mode: ragged-batch decode for continuous batching
    // -----------------------------------------------------------------

    /// Switches the engine into slot mode with `slots` rows, each an
    /// independent sequence of its own age (or empty). Caches are cleared;
    /// `reserve` is ignored (pages allocate on demand) and stays only
    /// because the frozen benchmark passes it. A decode step then runs the
    /// slots it is given and no others
    /// ([`PartitionedEngine::try_decode_rows`]): every op treats batch rows
    /// independently, so which other rows share a step changes no bit of a
    /// row's logits, and a slot left out neither ages nor allocates.
    /// [`PartitionedEngine::decode_step`] is the step over all `slots`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or violates the layout's batch
    /// divisibility requirements.
    pub fn begin_slots(&mut self, slots: usize, _reserve: usize) {
        assert!(slots > 0, "slot count must be positive");
        self.validate_batch(slots);
        for c in &mut self.chips {
            c.cache.clear();
        }
        self.batch = Some(slots);
        self.row_lens = Some(vec![0; slots]);
    }

    /// Cached positions per slot (slot mode only).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not in slot mode.
    #[must_use]
    pub fn slot_lens(&self) -> &[usize] {
        self.row_lens.as_deref().expect("engine not in slot mode; call begin_slots")
    }

    /// The smallest batch size this engine's layout accepts — the rows one
    /// prefill call carries on batch-sharded layouts whether or not it has
    /// requests for all of them (rows are independent, so what fills the
    /// others changes no bit of a request's row).
    #[must_use]
    pub fn min_batch(&self) -> usize {
        let n = self.chips.len();
        let mut m = 1;
        match self.dataflow {
            Dataflow::WeightGathered => m = n,
            Dataflow::WeightGatheredHybrid { n_gather, .. } => m = m.max(n_gather),
            Dataflow::OneD | Dataflow::TwoD => {}
        }
        if self.layout.attn == AttnSharding::Batch && self.dataflow != Dataflow::WeightGathered {
            m = m.max(n);
        }
        m
    }

    /// Batch rows of the full batch `b` that `chip`'s KV cache holds, as
    /// `(start, count)` — the inverse of each dataflow's cache slicing.
    fn chip_rows(&self, chip: &ChipState, b: usize) -> (usize, usize) {
        let n = self.chips.len();
        match (self.dataflow, self.layout.attn) {
            (Dataflow::OneD | Dataflow::TwoD, AttnSharding::Head) => (0, b),
            (Dataflow::OneD, AttnSharding::Batch) | (Dataflow::WeightGathered, _) => {
                (chip.rank * (b / n), b / n)
            }
            (Dataflow::TwoD, AttnSharding::Batch) => {
                let b_n = b / n;
                let b_yz = b / self.layout.mesh.yz();
                (chip.j * b_yz + chip.i * b_n, b_n)
            }
            (Dataflow::WeightGatheredHybrid { n_gather, n_local }, attn) => {
                let slice = b / n_gather;
                match attn {
                    AttnSharding::Head => (chip.i * slice, slice),
                    AttnSharding::Batch => {
                        let b_loc = slice / n_local;
                        (chip.i * slice + chip.j * b_loc, b_loc)
                    }
                }
            }
        }
    }

    /// KV heads of the canonical `[len, Hkv·dh]` row that `chip`'s cache
    /// holds, as `(start, count)` — multiquery K/V is replicated (every
    /// chip holds the single head); multihead K/V shards like Q.
    fn chip_kv_heads(&self, chip: &ChipState) -> (usize, usize) {
        let n_kv = self.cfg.n_kv_heads();
        if n_kv == 1 {
            return (0, 1);
        }
        match self.dataflow {
            Dataflow::OneD => {
                let h = n_kv / self.chips.len();
                (chip.rank * h, h)
            }
            Dataflow::TwoD => {
                let h = n_kv / self.layout.mesh.yz();
                (chip.j * h, h)
            }
            Dataflow::WeightGathered => (0, n_kv),
            Dataflow::WeightGatheredHybrid { n_local, .. } => {
                let h = n_kv / n_local;
                (chip.j * h, h)
            }
        }
    }

    /// Extracts batch row `row`'s KV cache in canonical form, assembling
    /// head shards across chips (replicated shards are written
    /// idempotently). Works in both classic and slot mode.
    ///
    /// # Panics
    ///
    /// Panics if nothing is cached or `row` is out of range.
    #[must_use]
    pub fn extract_kv(&self, row: usize) -> RequestKv {
        let b = self.batch.expect("extract_kv requires cached contents");
        assert!(row < b, "row {row} out of range for batch {b}");
        let dh = self.cfg.d_head;
        let d = self.cfg.n_kv_heads() * dh;
        let mut len = None;
        let layers = (0..self.cfg.n_layers)
            .map(|li| {
                let mut k = None;
                let mut v = None;
                for chip in &self.chips {
                    let (r0, rc) = self.chip_rows(chip, b);
                    if row < r0 || row >= r0 + rc {
                        continue;
                    }
                    let l = chip.cache.row_lens(li)[row - r0];
                    assert!(*len.get_or_insert(l) == l, "chips disagree on row length");
                    let k = k.get_or_insert_with(|| Tensor::zeros(vec![l, d]));
                    let v = v.get_or_insert_with(|| Tensor::zeros(vec![l, d]));
                    let (h0, hc) = self.chip_kv_heads(chip);
                    let w = hc * dh;
                    // The chip's `[l, w]` head shard, run by run, straight
                    // into columns `h0·dh ..` of the canonical `[l, d]` rows.
                    let shard = chip.cache.row_runs(li, row - r0);
                    let rows = shard.flat_map(|(rk, rv)| rk.chunks(w).zip(rv.chunks(w)));
                    for (r, (rk, rv)) in rows.enumerate() {
                        let dst = r * d + h0 * dh;
                        k.data_mut()[dst..dst + w].copy_from_slice(rk);
                        v.data_mut()[dst..dst + w].copy_from_slice(rv);
                    }
                }
                (k.expect("some chip covers every row"), v.expect("some chip covers every row"))
            })
            .collect();
        RequestKv { len: len.expect("model has at least one layer"), layers }
    }

    /// Inserts a request's canonical KV into slot `slot`, overwriting
    /// whatever the slot held; each chip takes its own head shard of its
    /// own batch rows. Slot mode only.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not in slot mode, `slot` is out of range, or
    /// the KV's layer count or width disagrees with the model.
    pub fn insert_kv(&mut self, slot: usize, kv: &RequestKv) {
        let b = self.batch.expect("insert_kv requires slot mode");
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        assert_eq!(kv.layers.len(), self.cfg.n_layers, "layer count mismatch");
        let dh = self.cfg.d_head;
        let n_kv = self.cfg.n_kv_heads();
        for ci in 0..self.chips.len() {
            let (r0, rc) = self.chip_rows(&self.chips[ci], b);
            if slot < r0 || slot >= r0 + rc {
                continue;
            }
            let (h0, hc) = self.chip_kv_heads(&self.chips[ci]);
            let chip = &mut self.chips[ci];
            for (li, (k, v)) in kv.layers.iter().enumerate() {
                assert_eq!(k.dim(1), n_kv * dh, "canonical KV width mismatch");
                let ks = k.slice(1, h0 * dh, hc * dh);
                let vs = v.slice(1, h0 * dh, hc * dh);
                chip.cache.write_slot(li, slot - r0, rc, &ks, &vs);
            }
        }
        self.row_lens.as_mut().expect("insert_kv requires slot mode")[slot] = kv.len;
    }

    /// [`PartitionedEngine::insert_kv`] with prompt-prefix sharing: each
    /// covering chip inserts its head shard of the request through the
    /// cache's prefix registry ([`KvCache::insert_row_shared`]), mapping
    /// pages already cached for `tokens`' page-aligned prefixes by refcount
    /// instead of rewriting them. Slot mode only.
    ///
    /// # Panics
    ///
    /// Panics as [`PartitionedEngine::insert_kv`] does, or if `tokens` is
    /// not exactly `kv.len` tokens (the prompt that produced the KV).
    pub fn insert_kv_shared(&mut self, slot: usize, kv: &RequestKv, tokens: &[usize]) {
        let b = self.batch.expect("insert_kv requires slot mode");
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        assert_eq!(kv.layers.len(), self.cfg.n_layers, "layer count mismatch");
        assert_eq!(tokens.len(), kv.len, "one prompt token per cached position");
        let dh = self.cfg.d_head;
        let n_kv = self.cfg.n_kv_heads();
        for ci in 0..self.chips.len() {
            let (r0, rc) = self.chip_rows(&self.chips[ci], b);
            if slot < r0 || slot >= r0 + rc {
                continue;
            }
            let (h0, hc) = self.chip_kv_heads(&self.chips[ci]);
            let shards: Vec<(Tensor, Tensor)> = kv
                .layers
                .iter()
                .map(|(k, v)| {
                    assert_eq!(k.dim(1), n_kv * dh, "canonical KV width mismatch");
                    (k.slice(1, h0 * dh, hc * dh), v.slice(1, h0 * dh, hc * dh))
                })
                .collect();
            self.chips[ci].cache.insert_row_shared(slot - r0, rc, &shards, tokens);
        }
        self.row_lens.as_mut().expect("insert_kv requires slot mode")[slot] = kv.len;
    }

    /// Evicts slot `slot`: its pages lose this slot's reference and its age
    /// resets to zero. Slot mode only. An empty slot costs a decode step
    /// nothing — steps run the slots they are given — except where it pads
    /// its span for one step ([`PartitionedEngine::try_decode_rows`]), and
    /// the engine evicts it again itself.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not in slot mode or `slot` is out of range.
    pub fn evict_slot(&mut self, slot: usize) {
        let b = self.batch.expect("evict_slot requires slot mode");
        assert!(slot < b, "slot {slot} out of range for batch {b}");
        for ci in 0..self.chips.len() {
            let (r0, rc) = self.chip_rows(&self.chips[ci], b);
            if slot >= r0 && slot < r0 + rc {
                self.chips[ci].cache.clear_slot(slot - r0);
            }
        }
        self.row_lens.as_mut().expect("evict_slot requires slot mode")[slot] = 0;
    }

    /// Prefill over a chunk of tokens (`[B][L]`), returning logits
    /// `[B, L, V]`. Calling again before [`PartitionedEngine::reset`]
    /// performs incremental prefill over additional chunks.
    ///
    /// # Panics
    ///
    /// Panics on ragged batches, out-of-vocabulary tokens, a batch size
    /// change mid-conversation, or a batch that does not divide evenly for
    /// the batch-sharded paths.
    #[must_use]
    pub fn prefill(&mut self, tokens: &[Vec<usize>]) -> Tensor {
        self.try_prefill(tokens).unwrap_or_else(|e| panic!("prefill failed: {e}"))
    }

    /// Fallible [`PartitionedEngine::prefill`]: a chip crash, collective
    /// timeout, or prior poisoning surfaces as a typed [`EngineError`]
    /// instead of a panic. Shape/vocabulary misuse still panics — those are
    /// caller bugs, not faults.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned.
    pub fn try_prefill(&mut self, tokens: &[Vec<usize>]) -> Result<Tensor, EngineError> {
        if self.poisoned {
            return Err(EngineError::Poisoned);
        }
        let x = self.embed_host(tokens);
        let rows: Vec<usize> = (0..tokens.len()).collect();
        self.try_forward(x, &rows)
    }

    /// One decode step over every row (one token per sequence, in row
    /// order), returning logits `[B, V]`.
    #[must_use]
    pub fn decode_step(&mut self, tokens: &[usize]) -> Tensor {
        self.try_decode_step(tokens).unwrap_or_else(|e| panic!("decode step failed: {e}"))
    }

    /// Fallible [`PartitionedEngine::decode_step`]:
    /// [`PartitionedEngine::try_decode_rows`] with row `i` carrying
    /// `tokens[i]`.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned.
    pub fn try_decode_step(&mut self, tokens: &[usize]) -> Result<Tensor, EngineError> {
        let rows: Vec<(usize, usize)> = tokens.iter().copied().enumerate().collect();
        self.try_decode_rows(&rows)
    }

    /// One decode step over the `(slot, token)` rows given and no others,
    /// returning logits `[rows.len(), V]` in the order given. In slot mode
    /// any non-empty set of distinct slots is a step: each appends its token
    /// at its own age and ages by one; a slot left out is not touched. Rows
    /// are independent, so a row's logits do not depend on which other rows
    /// share its step. Outside slot mode the batch is uniform and a step is
    /// every row in order.
    ///
    /// Where every chip sees every row (head-sharded 1D / 2D) the step
    /// carries exactly the rows given. Where chips own spans of the rows
    /// (batch-sharded attention, weight-gathered layouts) every span must
    /// carry equally many for the collectives to stay regular, so each span
    /// is padded with *empty* slots of its own up to the largest count any
    /// span was given ([`PartitionedEngine::decode_rows_carried`]); a padding
    /// row carries token 0 and is evicted again before the call returns.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. After any error the engine is poisoned.
    ///
    /// # Panics
    ///
    /// Panics on an empty step, a slot out of range or given twice, an
    /// out-of-vocabulary token, or a span with too few empty slots to pad.
    pub fn try_decode_rows(&mut self, rows: &[(usize, usize)]) -> Result<Tensor, EngineError> {
        if self.poisoned {
            return Err(EngineError::Poisoned);
        }
        if self.row_lens.is_none() {
            self.fix_batch(rows.len());
        }
        let step = self.lay_out_step(rows);
        let (b, e, v) = (step.slots.len(), self.cfg.d_model, self.cfg.vocab);
        let bases = self.row_bases(&step.slots);
        let mut x = Tensor::zeros(vec![b, 1, e]);
        for ((&tok, &base), row) in step.tokens.iter().zip(&bases).zip(x.data_mut().chunks_mut(e)) {
            self.embed_token(tok, base, row);
        }
        let logits = self.try_forward(x, &step.slots)?.into_reshape(vec![b, v]);
        for &slot in &step.padding {
            self.evict_slot(slot);
        }
        if step.at.iter().copied().eq(0..b) {
            return Ok(logits);
        }
        let mut out = Vec::with_capacity(rows.len() * v);
        for &r in &step.at {
            out.extend_from_slice(&logits.data()[r * v..(r + 1) * v]);
        }
        Ok(Tensor::from_vec(vec![rows.len(), v], out))
    }

    /// Batch rows one decode step over `rows` carries through the model:
    /// `rows.len()` where every chip sees every row, more where spans of
    /// rows are padded to a common count (see
    /// [`PartitionedEngine::try_decode_rows`]) — never more than the slot
    /// count. Slot mode only.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not in slot mode.
    #[must_use]
    pub fn decode_rows_carried(&self, rows: &[(usize, usize)]) -> usize {
        let spans = self.row_spans(self.slot_lens().len());
        spans.len() * rows_per_span(&spans, rows)
    }

    /// The distinct spans of the `b` batch rows the chips' caches hold, as
    /// ascending `(start, count)`: one span of all `b` where every chip
    /// holds every row, otherwise equal disjoint spans.
    fn row_spans(&self, b: usize) -> Vec<(usize, usize)> {
        let mut spans: Vec<_> = self.chips.iter().map(|c| self.chip_rows(c, b)).collect();
        spans.sort_unstable();
        spans.dedup();
        spans
    }

    /// Places the requested `(slot, token)` rows in a step batch whose row
    /// spans (`chip_rows` of the *step's* batch size) line up with the slot
    /// spans the chips' caches hold: span by span, the span's requested rows
    /// in request order, then empty slots of that span as padding up to the
    /// largest requested count over spans.
    fn lay_out_step(&self, rows: &[(usize, usize)]) -> StepLayout {
        assert!(!rows.is_empty(), "empty batch");
        let b = self.batch.expect("the caller fixed the batch");
        let mut given = vec![false; b];
        for &(slot, _) in rows {
            assert!(slot < b, "slot {slot} out of range for batch {b}");
            assert!(!std::mem::replace(&mut given[slot], true), "slot {slot} given twice in one step");
        }
        let lens = self.row_lens.as_deref();
        assert!(
            lens.is_some() || rows.iter().map(|r| r.0).eq(0..b),
            "outside slot mode a decode step carries every row, in order"
        );
        let spans = self.row_spans(b);
        let per_span = rows_per_span(&spans, rows);
        let mut step = StepLayout {
            slots: Vec::with_capacity(spans.len() * per_span),
            tokens: Vec::with_capacity(spans.len() * per_span),
            at: vec![0; rows.len()],
            padding: Vec::new(),
        };
        for &(r0, rc) in &spans {
            let span = r0..r0 + rc;
            let end = step.slots.len() + per_span;
            for (i, &(slot, tok)) in rows.iter().enumerate() {
                if span.contains(&slot) {
                    step.at[i] = step.slots.len();
                    step.slots.push(slot);
                    step.tokens.push(tok);
                }
            }
            let empty = span.clone().filter(|&s| !given[s] && lens.is_some_and(|l| l[s] == 0));
            for slot in empty.take(end - step.slots.len()) {
                step.padding.push(slot);
                step.slots.push(slot);
                step.tokens.push(0);
            }
            assert_eq!(
                step.slots.len(),
                end,
                "slots {span:?} hold too few empty slots to pad their share of the step to {per_span} rows"
            );
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

    fn embed_host(&mut self, tokens: &[Vec<usize>]) -> Tensor {
        let b = tokens.len();
        assert!(b > 0, "empty batch");
        let l = tokens[0].len();
        assert!(l > 0, "empty sequence");
        self.fix_batch(b);
        let e = self.cfg.d_model;
        // Cached positions before this pass = absolute position of the
        // chunk; in slot mode each row carries its own age.
        let rows: Vec<usize> = (0..b).collect();
        let bases = self.row_bases(&rows);
        let mut x = Tensor::zeros(vec![b, l, e]);
        for ((seq, &base), rows) in tokens.iter().zip(&bases).zip(x.data_mut().chunks_mut(l * e)) {
            assert_eq!(seq.len(), l, "ragged batch: all sequences must have equal length");
            for (li, (&tok, row)) in seq.iter().zip(rows.chunks_mut(e)).enumerate() {
                self.embed_token(tok, base + li, row);
            }
        }
        x
    }

    /// Absolute position of the next token of each of `rows` (batch rows):
    /// uniform (the shared cache length) in classic mode, per-slot ages in
    /// slot mode.
    fn row_bases(&self, rows: &[usize]) -> Vec<usize> {
        match &self.row_lens {
            Some(lens) => rows.iter().map(|&r| lens[r]).collect(),
            None => vec![self.cache_len(); rows.len()],
        }
    }

    /// Every row, every pass: the first pass fixes the batch size (cache
    /// sharding depends on it) and later ones must match it.
    fn fix_batch(&mut self, b: usize) {
        match self.batch {
            None => {
                self.validate_batch(b);
                self.batch = Some(b);
            }
            Some(prev) => assert_eq!(b, prev, "batch size changed mid-conversation; call reset()"),
        }
    }

    fn validate_batch(&self, b: usize) {
        let n = self.chips.len();
        if self.dataflow == Dataflow::WeightGathered {
            assert!(b.is_multiple_of(n), "weight-gathered layout needs batch divisible by {n} chips");
        }
        if let Dataflow::WeightGatheredHybrid { n_gather, .. } = self.dataflow {
            assert!(
                b.is_multiple_of(n_gather),
                "hybrid weight-gathered layout needs batch divisible by {n_gather} gather groups"
            );
        }
        if self.layout.attn == AttnSharding::Batch {
            match self.dataflow {
                Dataflow::OneD | Dataflow::TwoD | Dataflow::WeightGatheredHybrid { .. } => {
                    assert!(b.is_multiple_of(n), "batch-sharded attention needs batch divisible by {n} chips");
                }
                Dataflow::WeightGathered => {}
            }
        }
    }

    /// Runs the partitioned forward pass over embedded inputs `[B, L, E]`,
    /// row `r` of which is batch row (slot) `rows[r]` — every row in order
    /// for a prefill, the step's layout for a decode — returning logits
    /// `[B, L, V]`, or, when any chip thread unwinds, the classified
    /// root-cause [`EngineError`] after releasing every peer. Only `rows`
    /// append to their caches and age.
    ///
    /// The unwind protocol: each worker runs its dataflow under
    /// `catch_unwind`; on unwind it cancels **all** of its own group
    /// handles, labelled with the originating rank (or as a timeout), so
    /// peers blocked in *any* of the chip's communicators — including the
    /// hybrid layouts' sub-groups the dead chip shares with only some peers
    /// — wake with a structured [`CollectiveError`] and cascade the
    /// cancellation through their own groups in turn. No deadline is needed
    /// for a crash to propagate; deadlines cover silent stalls.
    fn try_forward(&mut self, x: Tensor, rows: &[usize]) -> Result<Tensor, EngineError> {
        if self.poisoned {
            return Err(EngineError::Poisoned);
        }
        let cfg = self.cfg.clone();
        let dataflow = self.dataflow;
        let attn = self.layout.attn;
        let (x_parts, yz_parts) = match dataflow {
            Dataflow::TwoD => (self.layout.mesh.x, self.layout.mesh.yz()),
            _ => (1, self.chips.len()),
        };
        let n = self.chips.len();
        let (b, l) = (x.dim(0), x.dim(1));
        let bases = self.row_bases(rows);
        // Each chip's share of the pass (`chip_rows` of the pass's batch) as
        // rows of its own cache (`chip_rows` of the engine's).
        let batch = self.batch.expect("the caller fixed the batch");
        let kv_rows: Vec<(Vec<usize>, usize)> = self
            .chips
            .iter()
            .map(|chip| {
                let (s0, sc) = self.chip_rows(chip, b);
                let (r0, rc) = self.chip_rows(chip, batch);
                let local = rows[s0..s0 + sc].iter().map(|&row| {
                    assert!((r0..r0 + rc).contains(&row), "row {row} placed outside chip {}'s rows", chip.rank);
                    row - r0
                });
                (local.collect(), rc)
            })
            .collect();
        let pools: Vec<Option<Arc<ChipPool>>> = if self.pools.is_empty() {
            (0..n).map(|_| None).collect()
        } else {
            self.pools.iter().map(|p| Some(Arc::clone(p))).collect()
        };
        let results: Vec<Result<Option<Tensor>, ChipPanic>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .chips
                .iter_mut()
                .zip(pools)
                .zip(&kv_rows)
                .map(|((chip, pool), (kv_rows, kv_batch))| {
                    let x = x.clone();
                    let cfg = &cfg;
                    let bases = &bases;
                    let kv = (kv_rows.as_slice(), *kv_batch);
                    // Each chip's executor thread installs its own worker
                    // pool; the kernels inside the forward then split
                    // output rows across it (bit-identically).
                    s.spawn(move || {
                        with_worker_pool(pool, || {
                            let result = {
                                let chip = &mut *chip;
                                catch_unwind(AssertUnwindSafe(move || match dataflow {
                                    Dataflow::OneD => forward_1d(cfg, chip, kv, x, bases, attn, n),
                                    Dataflow::TwoD => {
                                        forward_2d(cfg, chip, kv, x, bases, attn, x_parts, yz_parts)
                                    }
                                    Dataflow::WeightGathered => forward_wg(cfg, chip, kv, x, bases, n),
                                    Dataflow::WeightGatheredHybrid { n_gather, .. } => {
                                        forward_wg_hybrid(cfg, chip, kv, x, bases, attn, n_gather)
                                    }
                                }))
                            };
                            if let Err(payload) = &result {
                                cancel_chip_groups(chip, payload);
                            }
                            result
                        })
                    })
                })
                .collect();
            // The worker closures never unwind (everything runs under
            // catch_unwind), but fold a hypothetical escape into the same
            // payload channel rather than trusting that.
            handles.into_iter().map(|h| h.join().unwrap_or_else(Err)).collect()
        });

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

        if let Some(lens) = &mut self.row_lens {
            for &row in rows {
                lens[row] += l;
            }
        }
        if matches!(dataflow, Dataflow::WeightGatheredHybrid { .. }) {
            // One logits slice per gather group (rank order == g order);
            // concatenate along the batch dimension.
            let parts: Vec<Tensor> = outputs.into_iter().flatten().collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            Ok(Tensor::concat(&refs, 0))
        } else {
            Ok(outputs
                .into_iter()
                .flatten()
                .next()
                .expect("rank 0 returns logits"))
        }
    }
}

/// One decode step's batch, laid out by [`PartitionedEngine::lay_out_step`].
struct StepLayout {
    /// Slot each step row runs.
    slots: Vec<usize>,
    /// Token each step row carries (0 on padding rows).
    tokens: Vec<usize>,
    /// Step row of each requested row, in request order.
    at: Vec<usize>,
    /// Slots that only pad their span: empty before the step, evicted
    /// again after it.
    padding: Vec<usize>,
}

/// Rows each of `spans` carries in a step over `rows`: the most requested
/// rows any one span holds.
fn rows_per_span(spans: &[(usize, usize)], rows: &[(usize, usize)]) -> usize {
    let held = |&(r0, rc): &(usize, usize)| rows.iter().filter(|r| (r0..r0 + rc).contains(&r.0)).count();
    spans.iter().map(held).max().unwrap_or(0)
}

/// A chip's KV cache as one forward pass sees it: step row `r` of the
/// chip's share appends to, and attends over, cache row `rows[r]` of the
/// `batch` rows the cache holds.
struct StepCache<'a> {
    cache: &'a mut KvCache,
    rows: &'a [usize],
    batch: usize,
}

impl StepCache<'_> {
    fn append(&mut self, layer: usize, k: &Tensor, v: &Tensor) {
        self.cache.append_rows(layer, self.rows, self.batch, k, v);
    }

    fn attend(&self, q: &Tensor, layer: usize, d_head: usize) -> Tensor {
        attention_over_rows(q, self.cache, self.rows, layer, d_head)
    }
}

/// What a chip thread's unwind carries.
type ChipPanic = Box<dyn std::any::Any + Send + 'static>;

/// Releases every communicator `chip` participates in after its worker
/// unwound with `payload`, labelling the cancellation with the *originating*
/// failure: a propagated [`CollectiveError::PeerCrashed`] keeps naming the
/// chip that actually died (not this observer), and a timeout stays a
/// timeout. Cancellation is first-writer-wins at the barrier, so cascades
/// never relabel the root cause.
fn cancel_chip_groups(chip: &ChipState, payload: &ChipPanic) {
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
        Cause::Crash(chip.rank)
    };
    for g in [Some(&chip.g_all), chip.g_x.as_ref(), chip.g_yz.as_ref()].into_iter().flatten() {
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
fn classify_panic(thread_idx: usize, payload: &ChipPanic) -> (u8, EngineError) {
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
        "chip thread panicked with a non-string payload".to_string()
    };
    (2, EngineError::ChipCrashed { rank: thread_idx, message })
}

// ---------------------------------------------------------------------------
// shared per-chip helpers
// ---------------------------------------------------------------------------

fn ln3(x: &Tensor, gain: &Tensor) -> Tensor {
    ops::layernorm(x, gain, 1e-6)
}

/// Layernorm of an `E`-sharded `[B, L, E/n]` tensor: local moments are
/// all-reduced over `group` (a tiny `[B·L, 2]` exchange), then each chip
/// normalizes its own slice with its gain shard.
fn sharded_layernorm(group: &CommGroup, x_loc: &Tensor, gain_loc: &Tensor, e_global: usize) -> Tensor {
    let (b, l, e_loc) = (x_loc.dim(0), x_loc.dim(1), x_loc.dim(2));
    let rows = b * l;
    let mut moments = Tensor::zeros(vec![rows, 2]);
    for r in 0..rows {
        let row = &x_loc.data()[r * e_loc..(r + 1) * e_loc];
        let sum: f32 = row.iter().sum();
        let sumsq: f32 = row.iter().map(|v| v * v).sum();
        moments.set(&[r, 0], sum);
        moments.set(&[r, 1], sumsq);
    }
    let tot = group.all_reduce(&moments);
    let ef = e_global as f32;
    let mut out = vec![0.0f32; x_loc.numel()];
    for r in 0..rows {
        let mean = tot.at(&[r, 0]) / ef;
        let var = tot.at(&[r, 1]) / ef - mean * mean;
        let inv = 1.0 / (var + 1e-6).sqrt();
        for c in 0..e_loc {
            out[r * e_loc + c] =
                (x_loc.data()[r * e_loc + c] - mean) * inv * gain_loc.data()[c];
        }
    }
    Tensor::from_vec(vec![b, l, e_loc], out)
}

/// MLP hidden nonlinearity on (possibly sharded) gate/up tensors.
fn mlp_hidden(cfg: &ModelConfig, gate: Option<Tensor>, up: Tensor) -> Tensor {
    match cfg.mlp {
        MlpKind::SwiGlu => ops::swiglu(&gate.expect("SwiGLU requires gate"), &up),
        MlpKind::Gelu => gelu(&up),
    }
}

// ---------------------------------------------------------------------------
// einsums fused with a collective
//
// Two rules fix the bits of every gathered contraction below, so they hold
// wherever a weight or activation arrives from peers:
//
// 1. the matmul kernels accumulate each output element by one serial chain
//    of adds in ascending `k` order;
// 2. a contraction over a *gathered* `k` keeps one accumulator per source
//    rank — each a pure ascending-`k` chain over that rank's shard — and
//    folds them in ascending rank order. Int8 partial products accumulate
//    unscaled and each scale vector is applied exactly once: a gathered
//    weight's per-rank scales to that rank's accumulator before the fold,
//    a local weight's scales to the folded sum.
// ---------------------------------------------------------------------------

/// Flattens `[B, L, D]` activations to `[B·L, D]` for the rank-2 kernels.
fn flat2(x: &Tensor) -> Tensor {
    let (b, l, d) = (x.dim(0), x.dim(1), x.dim(2));
    x.reshape(vec![b * l, d])
}

/// Folds per-source-rank accumulators in ascending rank order, in place in
/// rank 0's buffer — the reduction order the collectives use.
fn fold_ranks(accs: Vec<Tensor>) -> Tensor {
    accs.into_iter()
        .reduce(|mut out, p| {
            ops::add_assign(&mut out, &p);
            out
        })
        .expect("groups have at least one member")
}

/// `Σ_t xₜ × wₜ`: the local partial sum a weight-stationary block epilogue
/// hands to its all-reduce (1D) or reduce-scatter (2D).
fn partial_sum(terms: &[(&Tensor, &ShardMat)]) -> Tensor {
    let mut part = terms[0].1.mm3(terms[0].0);
    for (x, w) in &terms[1..] {
        ops::add_assign(&mut part, &w.mm3(x));
    }
    part
}

/// The 2D weight-stationary block prologue: `x_i = all_gather(xn, dim 2)`
/// contracted with each of `weights`, with one accumulator per source rank
/// (rule 2 above). Int8 weights accumulate raw integer partial products;
/// their scales are applied once, after the rank fold.
fn ag_einsums(group: &CommGroup, xn: &Tensor, weights: &[&ShardMat]) -> Vec<Tensor> {
    let (b, l, e_loc) = (xn.dim(0), xn.dim(1), xn.dim(2));
    let parts = group.all_gather_parts(&flat2(xn), 1);
    weights
        .iter()
        .map(|w| {
            let n_w = w.cols();
            let accs = parts
                .iter()
                .enumerate()
                .map(|(r, part)| {
                    let mut acc = Tensor::zeros(vec![b * l, n_w]);
                    match w {
                        ShardMat::Dense(w) => ops::matmul_acc_rows(part, w, r * e_loc, &mut acc),
                        ShardMat::Int8(q) => q.matmul_acc_rows(part, r * e_loc, &mut acc),
                        ShardMat::Int8Cat(_) => {
                            unreachable!("2D blocks are stored shards, never gathered concatenations")
                        }
                    }
                    acc
                })
                .collect();
            let mut out = fold_ranks(accs);
            if let ShardMat::Int8(q) = w {
                q.apply_scales(&mut out);
            }
            out.into_reshape(vec![b, l, n_w])
        })
        .collect()
}

/// `x × all_gather(shard, dim 1)` for a column-sharded weight
/// (`wq`/`wk`/`wv`/`w_in`/`w_gate` of the weight-gathered dataflow): each
/// rank's shard writes its own column block of the output. Int8 shards move
/// in their wire format and scale on arrival, so no dense f32 view ever
/// touches the interconnect and the ledger charges the quantized volume.
fn wg_cols(group: &CommGroup, x: &Tensor, shard: &ShardMat) -> Tensor {
    let (b, l) = (x.dim(0), x.dim(1));
    let flat = flat2(x);
    let w_loc = shard.cols();
    let mut out = Tensor::zeros(vec![b * l, w_loc * group.size()]);
    match shard {
        ShardMat::Dense(w) => {
            for (r, part) in group.all_gather_parts(w, 1).iter().enumerate() {
                ops::matmul_into_cols(&flat, part, &mut out, r * w_loc);
            }
        }
        ShardMat::Int8(q) => {
            for (r, part) in group.all_gather_quant(q, 1).iter().enumerate() {
                part.matmul_into_cols(&flat, &mut out, r * w_loc);
            }
        }
        ShardMat::Int8Cat(_) => {
            unreachable!("stored weight-gathered shards are never gathered concatenations")
        }
    }
    out.into_reshape(vec![b, l, w_loc * group.size()])
}

/// `x × all_gather(shard, dim 0)` for a row-sharded weight (`wo`/`w_out` of
/// the weight-gathered dataflow), with one accumulator per source rank
/// (rule 2 above); each rank's int8 scales land on its accumulator before
/// the fold.
fn wg_rows(group: &CommGroup, x: &Tensor, shard: &ShardMat) -> Tensor {
    let (b, l, d) = (x.dim(0), x.dim(1), x.dim(2));
    let flat = flat2(x);
    let n_out = shard.cols();
    // Rank `r`'s `rows`-high shard contracts with its own window of `x`'s
    // columns, into its own zeroed accumulator.
    let operands = |r: usize, rows: usize| {
        assert_eq!(d, rows * group.size(), "row-gather contraction width mismatch");
        (flat.slice(1, r * rows, rows), Tensor::zeros(vec![b * l, n_out]))
    };
    let accs = match shard {
        ShardMat::Dense(w) => group
            .all_gather_parts(w, 0)
            .iter()
            .enumerate()
            .map(|(r, part)| {
                let (a, mut acc) = operands(r, part.dim(0));
                ops::matmul_acc_rows(&a, part, 0, &mut acc);
                acc
            })
            .collect(),
        ShardMat::Int8(q) => group
            .all_gather_quant(q, 0)
            .iter()
            .enumerate()
            .map(|(r, part)| {
                let (a, mut acc) = operands(r, part.rows());
                part.matmul_acc_rows(&a, 0, &mut acc);
                part.apply_scales(&mut acc);
                acc
            })
            .collect(),
        ShardMat::Int8Cat(_) => {
            unreachable!("stored weight-gathered shards are never gathered concatenations")
        }
    };
    fold_ranks(accs).into_reshape(vec![b, l, n_out])
}

// ---------------------------------------------------------------------------
// 1D weight-stationary dataflow (Section 3.2.1)
// ---------------------------------------------------------------------------

fn forward_1d(
    cfg: &ModelConfig,
    chip: &mut ChipState,
    (rows, batch): (&[usize], usize),
    mut x: Tensor,
    bases: &[usize],
    attn: AttnSharding,
    n: usize,
) -> Option<Tensor> {
    let ChipState { rank, layers, cache, g_all, ln_final, embed_t, .. } = chip;
    let rank = *rank;
    let cache = &mut StepCache { cache, rows, batch };
    for (li, shard) in layers.iter().enumerate() {
        x = layer_1d(cfg, shard, x, bases, attn, g_all, cache, li, rank, n);
    }
    if rank == 0 {
        let h = ln3(&x, ln_final);
        Some(mm3(&h, embed_t))
    } else {
        None
    }
}

/// One 1D weight-stationary Transformer layer: the Megatron dataflow with
/// a parallel or serialized block, shared by the pure 1D and the hybrid
/// weight-gathered forwards. Each block's output projections are summed
/// locally and leave through one all-reduce.
#[allow(clippy::too_many_arguments)]
fn layer_1d(
    cfg: &ModelConfig,
    shard: &LayerShard,
    x: Tensor,
    bases: &[usize],
    attn: AttnSharding,
    group: &CommGroup,
    cache: &mut StepCache,
    li: usize,
    rank: usize,
    n: usize,
) -> Tensor {
    let serial = cfg.block == esti_model::BlockKind::Serial;
    if serial {
        let ctx =
            attn_ctx_1d(cfg, shard, &ln3(&x, &shard.ln1), bases, attn, group, cache, li, rank, n);
        let x1 = &x + &group.all_reduce(&partial_sum(&[(&ctx, &shard.wo)]));
        let ln2 = shard.ln2.as_ref().expect("serial block requires ln2");
        let h = mlp_hidden_1d(cfg, shard, &ln3(&x1, ln2));
        &x1 + &group.all_reduce(&partial_sum(&[(&h, &shard.w_out)]))
    } else {
        let ln = ln3(&x, &shard.ln1);
        let ctx = attn_ctx_1d(cfg, shard, &ln, bases, attn, group, cache, li, rank, n);
        let h = mlp_hidden_1d(cfg, shard, &ln);
        &x + &group.all_reduce(&partial_sum(&[(&ctx, &shard.wo), (&h, &shard.w_out)]))
    }
}

/// The hybrid weight-gathered forward (X / XY extents, Figure A.2): the
/// batch is sharded over `n_gather` groups; within each group, weights are
/// all-gathered into 1D shards and the layer runs as 1D weight-stationary
/// over the `n_local` chips holding that batch slice.
#[allow(clippy::too_many_arguments)]
fn forward_wg_hybrid(
    cfg: &ModelConfig,
    chip: &mut ChipState,
    (rows, batch): (&[usize], usize),
    x_full: Tensor,
    bases: &[usize],
    attn: AttnSharding,
    n_gather: usize,
) -> Option<Tensor> {
    let ChipState { i, j, layers, cache, g_x, g_yz, ln_final, embed_t, .. } = chip;
    let cache = &mut StepCache { cache, rows, batch };
    let (g, b) = (*i, *j);
    let g_gather = g_x.as_ref().expect("hybrid WG has a gather group");
    let g_local = g_yz.as_ref().expect("hybrid WG has a local group");
    let batch = x_full.dim(0);
    let slice = batch / n_gather;
    let mut x = x_full.slice(0, g * slice, slice);
    let bases = &bases[g * slice..(g + 1) * slice];
    for (li, shard) in layers.iter().enumerate() {
        let w = gather_layer(cfg, g_gather, shard);
        x = layer_1d(cfg, &w, x, bases, attn, g_local, cache, li, b, g_local.size());
    }
    if b == 0 {
        // x is replicated within the local group; the b = 0 member of each
        // gather group emits its batch slice's logits.
        let h = ln3(&x, ln_final);
        Some(mm3(&h, embed_t))
    } else {
        None
    }
}

/// 1D attention up to (but not including) the output projection: returns
/// the per-chip context `[B, l, h_loc*dh]`, which the caller contracts
/// with `wo` ahead of the block's all-reduce.
#[allow(clippy::too_many_arguments)]
fn attn_ctx_1d(
    cfg: &ModelConfig,
    shard: &LayerShard,
    ln: &Tensor,
    bases: &[usize],
    attn: AttnSharding,
    g_all: &CommGroup,
    cache: &mut StepCache,
    li: usize,
    rank: usize,
    n: usize,
) -> Tensor {
    let mut q = shard.wq.mm3(ln); // [B, l, h_loc*dh]
    let mut k = shard.wk.mm3(ln); // MQ: [B, l, dh] (replicated); MHA: local heads
    let v = shard.wv.mm3(ln);
    let dh = cfg.d_head;
    if cfg.position == PositionKind::Rope {
        // RoPE is head-local and position-dependent only, so rotating the
        // shards before any resharding matches the reference exactly.
        q = ops::rope_rows(&q, dh, bases);
        k = ops::rope_rows(&k, dh, bases);
    }
    match attn {
        AttnSharding::Head => {
            cache.append(li, &k, &v);
            cache.attend(&q, li, dh)
        }
        AttnSharding::Batch => {
            // Reshard Q from head-sharded to batch-sharded (Figure 5b);
            // K/V are replicated under multiquery so each chip just keeps
            // its batch slice — the KV cache ends up divided n ways.
            let b = q.dim(0);
            let q_b = g_all.all_to_all(&q, 0, 2); // [B/n, l, H*dh]
            let b_loc = b / n;
            let k_b = k.slice(0, rank * b_loc, b_loc);
            let v_b = v.slice(0, rank * b_loc, b_loc);
            cache.append(li, &k_b, &v_b);
            let attn_b = cache.attend(&q_b, li, dh); // [B/n, l, H*dh]
            g_all.all_to_all(&attn_b, 2, 0) // [B, l, h_loc*dh]
        }
    }
}

/// 1D MLP up to (but not including) the output projection: returns the
/// hidden activations `[B, l, f_loc]`, which the caller contracts with
/// `w_out` ahead of the block's all-reduce.
fn mlp_hidden_1d(cfg: &ModelConfig, shard: &LayerShard, ln: &Tensor) -> Tensor {
    let gate = shard.w_gate.as_ref().map(|g| g.mm3(ln));
    let up = shard.w_in.mm3(ln);
    mlp_hidden(cfg, gate, up)
}

// ---------------------------------------------------------------------------
// 2D weight-stationary dataflow (Section 3.2.2)
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn forward_2d(
    cfg: &ModelConfig,
    chip: &mut ChipState,
    (rows, batch): (&[usize], usize),
    x_full: Tensor,
    bases: &[usize],
    attn: AttnSharding,
    x_parts: usize,
    yz_parts: usize,
) -> Option<Tensor> {
    let ChipState { rank, i, j, layers, cache, g_all, g_x, g_yz, ln_final, embed_t } = chip;
    let (rank, i, j) = (*rank, *i, *j);
    let cache = &mut StepCache { cache, rows, batch };
    let g_x = g_x.as_ref().expect("2D dataflow has x group");
    let g_yz = g_yz.as_ref().expect("2D dataflow has yz group");
    let n = x_parts * yz_parts;
    let e = cfg.d_model;
    let e_n = e / n;
    let off = i * (e / x_parts) + j * e_n;
    // Boundary state: x sharded E_xyz.
    let mut x_loc = x_full.slice(2, off, e_n);
    for (li, shard) in layers.iter().enumerate() {
        let serial = cfg.block == esti_model::BlockKind::Serial;
        if serial {
            let xn = sharded_layernorm(g_all, &x_loc, &shard.ln1, e);
            let mut proj = ag_einsums(g_yz, &xn, &[&shard.wq, &shard.wk, &shard.wv]);
            let v_part = proj.pop().expect("three projections");
            let k_part = proj.pop().expect("three projections");
            let q_part = proj.pop().expect("three projections");
            let attn_j = attn_2d_ctx(
                cfg, cache, li, q_part, k_part, v_part, bases, attn, g_x, g_yz, i, j, x_parts,
                yz_parts,
            );
            let x1_loc =
                &x_loc + &g_yz.reduce_scatter(&partial_sum(&[(&attn_j, &shard.wo)]), 2);
            let ln2 = shard.ln2.as_ref().expect("serial block requires ln2");
            let x1n = sharded_layernorm(g_all, &x1_loc, ln2, e);
            let mlp_w: Vec<&ShardMat> = match &shard.w_gate {
                Some(g) => vec![g, &shard.w_in],
                None => vec![&shard.w_in],
            };
            let mut proj = ag_einsums(g_yz, &x1n, &mlp_w);
            let up_part = proj.pop().expect("mlp input projection");
            let gate_part = proj.pop();
            let h_j = mlp_2d_hidden(cfg, g_x, gate_part, up_part);
            x_loc = &x1_loc + &g_yz.reduce_scatter(&partial_sum(&[(&h_j, &shard.w_out)]), 2);
        } else {
            let xn = sharded_layernorm(g_all, &x_loc, &shard.ln1, e);
            // One all-gather feeds every projection of the parallel block
            // (attention and MLP share the layernormed x_i).
            let mut weights: Vec<&ShardMat> = vec![&shard.wq, &shard.wk, &shard.wv];
            if let Some(g) = &shard.w_gate {
                weights.push(g);
            }
            weights.push(&shard.w_in);
            let mut proj = ag_einsums(g_yz, &xn, &weights);
            let up_part = proj.pop().expect("mlp input projection");
            let gate_part = if shard.w_gate.is_some() { proj.pop() } else { None };
            let v_part = proj.pop().expect("three projections");
            let k_part = proj.pop().expect("three projections");
            let q_part = proj.pop().expect("three projections");
            let attn_j = attn_2d_ctx(
                cfg, cache, li, q_part, k_part, v_part, bases, attn, g_x, g_yz, i, j, x_parts,
                yz_parts,
            );
            let h_j = mlp_2d_hidden(cfg, g_x, gate_part, up_part);
            // One reduce-scatter carries both partials.
            let part = partial_sum(&[(&attn_j, &shard.wo), (&h_j, &shard.w_out)]);
            x_loc = &x_loc + &g_yz.reduce_scatter(&part, 2);
        }
    }
    // Final layernorm + logit projection: partial over all chips.
    let xn = sharded_layernorm(g_all, &x_loc, ln_final, e);
    let logits_part = mm3(&xn, embed_t); // [B, L, V] partial
    let logits = g_all.all_reduce(&logits_part);
    if rank == 0 {
        Some(logits)
    } else {
        None
    }
}

/// 2D MLP between the input and output projections: reduce-scatter(x) the
/// partial gate/up along the hidden dimension (the paper's choice, Section
/// 3.5), apply the nonlinearity on `[B, l, F/n]` shards, all-gather(x)
/// back to `[B, l, F/YZ]`. The caller contracts the result with `w_out`
/// ahead of the yz reduce-scatter.
fn mlp_2d_hidden(
    cfg: &ModelConfig,
    g_x: &CommGroup,
    gate_part: Option<Tensor>,
    up_part: Tensor,
) -> Tensor {
    let gate_sh = gate_part.map(|g| g_x.reduce_scatter(&g, 2));
    let up_sh = g_x.reduce_scatter(&up_part, 2);
    let h_sh = mlp_hidden(cfg, gate_sh, up_sh);
    g_x.all_gather(&h_sh, 2) // [B, l, F/YZ]
}

/// 2D attention from the partial (over `i`) Q/K/V projections up to (but
/// not including) the output projection: returns the head-sharded context
/// `[B, l, H_yz*dh]`, which the caller contracts with `wo` ahead of the yz
/// reduce-scatter.
#[allow(clippy::too_many_arguments)]
fn attn_2d_ctx(
    cfg: &ModelConfig,
    cache: &mut StepCache,
    li: usize,
    q_part: Tensor,
    k_part: Tensor,
    v_part: Tensor,
    bases: &[usize],
    attn: AttnSharding,
    g_x: &CommGroup,
    g_yz: &CommGroup,
    i: usize,
    j: usize,
    x_parts: usize,
    yz_parts: usize,
) -> Tensor {
    let dh = cfg.d_head;
    // Projections are partial over i; all-reduce(x) replicates them within
    // the x group (Q/K/V are small relative to the FFN activations).
    let mut q_j = g_x.all_reduce(&q_part); // [B, l, H_yz*dh]
    let mut k_j = g_x.all_reduce(&k_part);
    let v_j = g_x.all_reduce(&v_part);
    if cfg.position == PositionKind::Rope {
        q_j = ops::rope_rows(&q_j, dh, bases);
        k_j = ops::rope_rows(&k_j, dh, bases);
    }
    match attn {
        AttnSharding::Head => {
            // MQ: k_j is the full single head, cached replicated (the
            // "baseline multiquery" layout). MHA: own heads only.
            cache.append(li, &k_j, &v_j);
            cache.attend(&q_j, li, dh)
        }
        AttnSharding::Batch => {
            let b = q_j.dim(0);
            let n = x_parts * yz_parts;
            let b_n = b / n;
            let b_yz = b / yz_parts;
            // all-to-all over yz: heads -> batch (Figure 5b), then slice
            // the x-replicated result so each chip keeps B/n sequences.
            let q_b = g_yz.all_to_all(&q_j, 0, 2); // [B/YZ, l, H*dh]
            let q_bi = q_b.slice(0, i * b_n, b_n); // [B/n, l, H*dh]
            let kv_off = j * b_yz + i * b_n;
            let k_bi = k_j.slice(0, kv_off, b_n);
            let v_bi = v_j.slice(0, kv_off, b_n);
            cache.append(li, &k_bi, &v_bi);
            let attn_bi = cache.attend(&q_bi, li, dh); // [B/n, l, H*dh]
            // Gather the batch back over x, then all-to-all back to
            // head sharding over yz.
            let attn_b = g_x.all_gather(&attn_bi, 0); // [B/YZ, l, H*dh]
            g_yz.all_to_all(&attn_b, 2, 0) // [B, l, H_yz*dh]
        }
    }
}

// ---------------------------------------------------------------------------
// weight-gathered dataflow (Section 3.2.3, XYZ extent)
// ---------------------------------------------------------------------------

fn forward_wg(
    cfg: &ModelConfig,
    chip: &mut ChipState,
    (rows, batch): (&[usize], usize),
    x_full: Tensor,
    bases: &[usize],
    n: usize,
) -> Option<Tensor> {
    let ChipState { rank, layers, cache, g_all, ln_final, embed_t, .. } = chip;
    let rank = *rank;
    let cache = &mut StepCache { cache, rows, batch };
    let b = x_full.dim(0);
    let b_loc = b / n;
    // Activations stay batch-sharded and fully stationary; each weight is
    // gathered just before the einsum that consumes it.
    let mut x = x_full.slice(0, rank * b_loc, b_loc);
    let bases = &bases[rank * b_loc..(rank + 1) * b_loc];
    for (li, shard) in layers.iter().enumerate() {
        let serial = cfg.block == esti_model::BlockKind::Serial;
        if serial {
            let a = attn_wg(cfg, cache, li, &ln3(&x, &shard.ln1), bases, shard, g_all);
            let x1 = &x + &a;
            let ln2 = shard.ln2.as_ref().expect("serial block requires ln2");
            let m = mlp_wg(cfg, &ln3(&x1, ln2), shard, g_all);
            x = &x1 + &m;
        } else {
            let ln = ln3(&x, &shard.ln1);
            let a = attn_wg(cfg, cache, li, &ln, bases, shard, g_all);
            let m = mlp_wg(cfg, &ln, shard, g_all);
            x = &(&x + &a) + &m;
        }
    }
    let h = ln3(&x, ln_final);
    let logits_loc = mm3(&h, embed_t); // [B/n, L, V]
    let logits = g_all.all_gather(&logits_loc, 0);
    if rank == 0 {
        Some(logits)
    } else {
        None
    }
}

/// All-gathers one layer's weight shards into full matrices, for the hybrid
/// dataflow's 1D layer to run on. Quantized shards travel in
/// their wire format (int8 values + per-column f32 scales) and stay
/// quantized after the gather: column shards reassemble into one
/// [`ShardMat::Int8`] (every output column's scale lives wholly in one
/// shard), row shards become a [`ShardMat::Int8Cat`] of the
/// independently-scaled blocks so the downstream einsum can fold scaled
/// per-block partials. The ledger therefore charges the quantized byte
/// volume, matching the stored-dtype traffic the analytic model charges.
fn gather_layer(cfg: &ModelConfig, g: &CommGroup, s: &LayerShard) -> LayerShard {
    use crate::shard::ShardMat;
    let ag = |m: &ShardMat, dim: usize| match m {
        ShardMat::Int8(q) => {
            let parts = g.all_gather_quant(q, dim);
            if dim == 1 {
                let refs: Vec<&esti_tensor::QuantizedMatrix> = parts.iter().collect();
                ShardMat::Int8(esti_tensor::QuantizedMatrix::concat_cols(&refs))
            } else {
                ShardMat::Int8Cat(parts)
            }
        }
        ShardMat::Int8Cat(_) => unreachable!("stored shards are never gathered concatenations"),
        ShardMat::Dense(_) => ShardMat::Dense(g.all_gather(&m.dense(), dim)),
    };
    LayerShard {
        wq: ag(&s.wq, 1),
        // Multiquery K/V shards are replicated (nothing to gather).
        wk: if cfg.n_kv_heads() == 1 { s.wk.clone() } else { ag(&s.wk, 1) },
        wv: if cfg.n_kv_heads() == 1 { s.wv.clone() } else { ag(&s.wv, 1) },
        wo: ag(&s.wo, 0),
        w_in: ag(&s.w_in, 1),
        w_gate: s.w_gate.as_ref().map(|w| ag(w, 1)),
        w_out: ag(&s.w_out, 0),
        ln1: s.ln1.clone(),
        ln2: s.ln2.clone(),
    }
}

/// Weight-gathered attention: every projection gathers its weight into the
/// einsum ([`wg_cols`] for the head-sharded Q/K/V, [`wg_rows`] for the
/// row-sharded output projection). Multiquery K/V shards are replicated —
/// nothing to gather, plain local matmuls.
fn attn_wg(
    cfg: &ModelConfig,
    cache: &mut StepCache,
    li: usize,
    ln: &Tensor,
    bases: &[usize],
    shard: &LayerShard,
    g: &CommGroup,
) -> Tensor {
    let mut q = wg_cols(g, ln, &shard.wq);
    let (mut k, v) = if cfg.n_kv_heads() == 1 {
        (shard.wk.mm3(ln), shard.wv.mm3(ln))
    } else {
        (wg_cols(g, ln, &shard.wk), wg_cols(g, ln, &shard.wv))
    };
    if cfg.position == PositionKind::Rope {
        q = ops::rope_rows(&q, cfg.d_head, bases);
        k = ops::rope_rows(&k, cfg.d_head, bases);
    }
    cache.append(li, &k, &v);
    let attn = cache.attend(&q, li, cfg.d_head);
    wg_rows(g, &attn, &shard.wo)
}

/// Weight-gathered MLP: column gathers for the input (and gate)
/// projections, a row gather for the output projection.
fn mlp_wg(cfg: &ModelConfig, ln: &Tensor, shard: &LayerShard, g: &CommGroup) -> Tensor {
    let gate = shard.w_gate.as_ref().map(|w| wg_cols(g, ln, w));
    let up = wg_cols(g, ln, &shard.w_in);
    wg_rows(g, &mlp_hidden(cfg, gate, up), &shard.w_out)
}
