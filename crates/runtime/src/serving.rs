//! Continuous-batching serving over the partitioned engine (Section 4.4).
//!
//! Where [`esti_core::serving`] *models* the paper's two-tier arrangement
//! analytically, this module *runs* it: a prefill tier
//! ([`PartitionedEngine`] in slot mode at the layout's minimum batch)
//! pipelines into a fixed-capacity decode tier, also in slot mode
//! ([`PartitionedEngine::begin_slots`]). Variable-length prompts arrive in
//! a queue, are prefilled (optionally chunked), admitted into free decode
//! slots at step boundaries up to the cap, and evicted on completion. A
//! decode step runs the occupied slots only (see [`DecodeWork`]).
//!
//! Prefill does only the work that is needed. Up to a minimum batch of
//! consecutive admissions share one *group* prefill, each in its own row,
//! and a row whose prompt opens with whole KV pages a live decode slot
//! already holds is seeded with those pages and runs only the rest of its
//! prompt (see [`PrefillWork`] for what a serve call ended up computing).
//!
//! Correctness rests on two properties proved elsewhere in the workspace:
//! every op treats batch rows independently (so a request's row in a
//! padded, mixed-age batch computes bit-identically to running it alone),
//! and the canonical [`RequestKv`](crate::RequestKv) form is
//! layout-independent (so a prefill-tier cache moves into any decode-tier
//! slot exactly). The conformance tests assert the visible consequence:
//! per-request token streams identical to isolated
//! [`PartitionedEngine::generate`] runs.
//!
//! # Self-healing
//!
//! The same two properties make the scheduler recoverable. When a decode
//! step fails (a chip died or a collective timed out — see
//! [`EngineError`]), the batcher rebuilds the decode engine and *replays*
//! every in-flight request from durable state it already holds: the prompt
//! (re-prefilled with the original chunking), the per-request RNG seed
//! (re-seeded, so the sampling stream restarts from draw zero), and the
//! recorded emitted tokens (fed back through real decode steps, each
//! replayed sample asserted equal to its recording). Because batch rows are
//! independent and the replayed computation is the original computation,
//! post-recovery token streams are **bit-identical** to a fault-free run —
//! the chaos conformance tests in `tests/faults.rs` assert exactly that for
//! every decode layout. The price paid is accounted in
//! [`ServingReport::recovery`] and cross-checked against
//! `esti_netsim::crash_recovery_cost`.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_collectives::FaultPlan;
use esti_core::layout::Layout;
use esti_core::serving::{Priority, RecoveryStats, RequestStats, ServingReport};
use esti_model::{PositionKind, ReferenceModel};
use esti_tensor::sample::{sample_row, Sampling};

use crate::engine::{EngineError, PartitionedEngine, RequestKv, WeightFormat};

/// One queued generation request.
#[derive(Debug, Clone)]
pub struct ServingRequest {
    /// Prompt tokens (any length ≥ 1; requests in one queue may differ).
    pub prompt: Vec<usize>,
    /// Tokens to generate for this request.
    pub max_new_tokens: usize,
    /// Per-request RNG seed — sampling draws are independent streams, so a
    /// request's tokens do not depend on what else shares its batch (and a
    /// replayed request re-derives exactly its own stream).
    pub seed: u64,
    /// Arrival time in seconds relative to the start of serving.
    pub arrival: f64,
    /// Scheduling class. Higher classes are admitted (and prefilled)
    /// first; under pressure, with [`ServingOptions::preemption`], they
    /// preempt strictly lower classes out of their decode slots.
    pub priority: Priority,
}

impl ServingRequest {
    /// A request arriving at `t = 0` in the default ([`Priority::Normal`])
    /// class.
    #[must_use]
    pub fn immediate(prompt: Vec<usize>, max_new_tokens: usize) -> Self {
        ServingRequest {
            prompt,
            max_new_tokens,
            seed: 0,
            arrival: 0.0,
            priority: Priority::Normal,
        }
    }

    /// The same request in the given scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Decode-tier slot count (the in-flight cap). Must satisfy the
    /// layout's batch divisibility requirements.
    pub max_decode_batch: usize,
    /// Sampling method applied to every request.
    pub sampling: Sampling,
    /// Chunked (incremental) prefill size; `None` prefills each prompt in
    /// one pass.
    pub prefill_chunk: Option<usize>,
    /// Intra-chip kernel worker threads per simulated chip, applied to both
    /// tiers and to every engine rebuilt during fault recovery. `0` keeps
    /// each engine's own default (the `ESTI_CHIP_THREADS` environment
    /// knob). Thread count never changes results — the banded kernels are
    /// bit-identical at any worker count.
    pub intra_chip_threads: usize,
    /// KV-cache page size applied to both tiers (and every engine rebuilt
    /// during fault recovery). `None` keeps the engine default
    /// ([`crate::DEFAULT_KV_PAGE_SIZE`]). The page size never changes
    /// results — token streams are bit-identical at every size, down to a
    /// page longer than any sequence (one dense run per row).
    pub kv_page_size: Option<usize>,
    /// Decode-tier KV memory budget in canonical cache positions (one
    /// position = one token's K and V across all layers and heads).
    /// `None` is unlimited. Admission charges the page ledger (shared
    /// prompt-prefix pages charged once) and defers requests that would
    /// overflow. The dense baseline at equal memory — every slot
    /// pre-charged its worst-case length — fits `budget / longest request`
    /// slots.
    pub kv_position_budget: Option<usize>,
    /// Arrived-but-unadmitted requests the scheduler tolerates before
    /// shedding; `None` queues without bound. Shedding removes the
    /// *newest* waiting request of the *lowest* waiting class — the one
    /// whose loss costs the least — recording a typed
    /// [`ServeError::Overloaded`] in [`ServingOutcome::shed`] instead of
    /// letting the backlog grow without bound.
    pub queue_limit: Option<usize>,
    /// Per-class TTFT deadline in seconds, indexed by
    /// [`Priority::index`]: a waiting request that has already waited past
    /// its class deadline is shed (typed [`ServeError::Overloaded`])
    /// rather than served uselessly late. `None` disables the deadline
    /// for that class.
    pub ttft_deadline: [Option<f64>; 3],
    /// Preempt a strictly-lower-priority slot when a higher class is
    /// waiting and no slot is free. The victim re-enters its class queue
    /// (at the front — it keeps its FIFO standing) and, on re-admission,
    /// *replays* through the recovery machinery to a bit-identical
    /// stream. On by default: with every request in one class (the
    /// pre-priority behavior) preemption never fires.
    pub preemption: bool,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            max_decode_batch: 4,
            sampling: Sampling::Greedy,
            prefill_chunk: None,
            intra_chip_threads: 0,
            kv_page_size: None,
            kv_position_budget: None,
            queue_limit: None,
            ttft_deadline: [None; 3],
            preemption: true,
        }
    }
}

/// Why a serving run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request list was empty.
    NoRequests,
    /// Requests were not sorted by arrival time.
    UnsortedArrivals,
    /// A request's prompt had no tokens; rejected at admission (index is
    /// the request's position in the submitted batch).
    EmptyPrompt {
        /// Index of the offending request.
        index: usize,
    },
    /// A learned-position model cannot serve this request: prompt plus
    /// generation exceeds the position table.
    PromptTooLong {
        /// Index of the offending request.
        index: usize,
        /// Positions the request needs.
        needed: usize,
        /// Positions the model has.
        max_seq: usize,
    },
    /// A request can never fit the configured
    /// [`ServingOptions::kv_position_budget`], even with the decode tier
    /// otherwise empty.
    KvBudgetExceeded {
        /// Index of the offending request.
        index: usize,
        /// Canonical KV positions the request needs at worst case.
        needed: usize,
        /// The configured budget in canonical KV positions.
        budget: usize,
    },
    /// A request was shed by admission control under overload. Never
    /// returned as a run-level error from
    /// [`ContinuousBatcher::try_serve`] — shed requests are reported
    /// per-request in [`ServingOutcome::shed`] while the rest of the
    /// batch completes; this is the typed record of why each was refused.
    Overloaded {
        /// Index of the shed request.
        index: usize,
        /// Which overload policy triggered the shed.
        reason: OverloadShed,
    },
    /// An engine failure that recovery could not absorb (e.g. the prefill
    /// tier failed twice in a row for the same prompt).
    Engine(EngineError),
    /// More faults occurred than the configured recovery budget
    /// ([`ContinuousBatcher::set_max_recoveries`]) allows.
    RecoveryLimit {
        /// Faults seen, including the one that broke the budget.
        faults: usize,
        /// The failure that exhausted the budget.
        last: EngineError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoRequests => write!(f, "no requests to serve"),
            ServeError::UnsortedArrivals => {
                write!(f, "requests must be sorted by arrival time")
            }
            ServeError::EmptyPrompt { index } => {
                write!(f, "request {index} has an empty prompt")
            }
            ServeError::PromptTooLong { index, needed, max_seq } => {
                write!(f, "request {index} needs {needed} positions but max_seq is {max_seq}")
            }
            ServeError::KvBudgetExceeded { index, needed, budget } => {
                write!(
                    f,
                    "request {index} needs {needed} KV positions but the budget is {budget}"
                )
            }
            ServeError::Overloaded { index, reason } => match reason {
                OverloadShed::QueueFull { waiting, limit } => write!(
                    f,
                    "request {index} shed under overload: {waiting} waiting, limit {limit}"
                ),
                OverloadShed::TtftDeadline { waited, deadline } => write!(
                    f,
                    "request {index} shed under overload: waited {waited:.3}s past its \
                     {deadline:.3}s TTFT deadline"
                ),
            },
            ServeError::Engine(e) => write!(f, "unrecoverable engine failure: {e}"),
            ServeError::RecoveryLimit { faults, last } => {
                write!(f, "recovery budget exhausted after {faults} faults (last: {last})")
            }
        }
    }
}

/// Which admission-control policy shed a request (the payload of
/// [`ServeError::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadShed {
    /// The waiting queue was over [`ServingOptions::queue_limit`].
    QueueFull {
        /// Requests waiting when the shed happened.
        waiting: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The request out-waited its class's
    /// [`ServingOptions::ttft_deadline`].
    TtftDeadline {
        /// Seconds the request had waited unadmitted.
        waited: f64,
        /// The class deadline it missed.
        deadline: f64,
    },
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) | ServeError::RecoveryLimit { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// What the prefill tier executed during one serve call. With every arrival
/// at `0` and no injected fault these counts repeat exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefillWork {
    /// Engine prefill calls (one per chunk of each group).
    pub calls: usize,
    /// Prompt tokens the tier ran: each admitted prompt's unseeded suffix.
    /// Padding tokens and filler rows are not counted.
    pub tokens_computed: usize,
    /// Prompt tokens whose KV was copied from a donor instead of computed.
    pub tokens_reused: usize,
    /// Batch rows over all groups (each group is a minimum batch of rows).
    pub rows: usize,
    /// Of [`PrefillWork::rows`], rows that carried no request: dummy tokens
    /// filling the layout's minimum batch when nobody else was admissible.
    pub filler_rows: usize,
}

/// What the decode tier executed during one serve call, counted where each
/// step is issued (successful steps only, like [`ServingOutcome::step_log`]).
/// With every arrival at `0` and no injected fault these counts repeat
/// exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Decode steps.
    pub steps: usize,
    /// Rows that carried a request's token, over all steps — the sum of
    /// [`ServingOutcome::step_log`]'s live counts.
    pub rows_live: usize,
    /// Rows that carried nothing: empty slots padding a span of the batch up
    /// to the fullest span's live count, on layouts whose chips each own a
    /// span of the rows (batch-sharded attention, weight-gathered). Always
    /// `0` where every chip sees every row (head-sharded 1D / 2D), and a
    /// step's live and filler rows together never exceed the slot count.
    pub filler_rows: usize,
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Generated tokens per request, in request order.
    pub outputs: Vec<Vec<usize>>,
    /// Measured per-request latency/TTFT stats plus decode-tier occupancy,
    /// in the same shape the analytical simulator reports — so measured
    /// and modeled runs cross-check directly. Fault and recovery accounting
    /// lives in [`ServingReport::recovery`].
    pub report: ServingReport,
    /// Per decode step: live (non-idle) slots and measured wall-clock
    /// seconds — the curve to compare against analytical step times.
    pub step_log: Vec<(usize, f64)>,
    /// Total tokens generated across all requests.
    pub total_generated: usize,
    /// Requests refused by admission control, each a typed
    /// [`ServeError::Overloaded`] carrying the request index and shed
    /// reason. Shed requests keep an empty `outputs` row and contribute
    /// no latency stats to `report`.
    pub shed: Vec<ServeError>,
    /// Priority preemptions performed (each victim re-queued, then
    /// replayed to a bit-identical stream on re-admission).
    pub preemptions: usize,
    /// Recorded tokens re-derived during preemption replays — pure
    /// overhead the preemption policy paid for priority inversion relief.
    pub preempted_tokens_replayed: usize,
    /// What the prefill tier computed, reused and padded (admissions,
    /// preemption replays and fault replays alike).
    pub prefill: PrefillWork,
    /// What the decode tier stepped: live rows and the filler beside them.
    pub decode: DecodeWork,
}

impl ServingOutcome {
    /// Measured decode throughput in generated tokens per second.
    #[must_use]
    pub fn throughput_tokens_per_sec(&self) -> f64 {
        self.report.generated_throughput(self.total_generated)
    }
}

/// A live request occupying a decode slot.
struct Active {
    idx: usize,
    rng: StdRng,
    next_tok: usize,
    /// Position of the next sample in this request's token stream. Behind
    /// `outputs[idx].len()` only while replaying after a recovery: until
    /// the cursor catches up, each sample is asserted equal to its
    /// recording instead of being appended.
    consumed: usize,
}

/// One request's row in a prefill call.
struct PrefillRow<'a> {
    prompt: &'a [usize],
    /// Leading positions seeded from a donor instead of computed: whole
    /// pages, and fewer than the prompt so its last token always runs.
    hit: usize,
    /// The donor's first `hit` positions (`None` when `hit` is 0).
    seed: Option<RequestKv>,
}

/// Leading tokens of `prompt` a prefill can skip given a cache that already
/// holds `cached`'s KV: their common prefix floored to whole pages, capped so
/// the prompt's last token is still computed (its logits pick token 0).
fn prefix_hit(prompt: &[usize], cached: &[usize], page: usize) -> usize {
    let common = prompt.iter().zip(cached).take_while(|(a, b)| a == b).count();
    common.min(prompt.len() - 1) / page * page
}

/// The occupied decode slots and the prompts whose KV they hold — the
/// donors a prefill group may seed from.
fn live_prompts<'a>(
    active: &[Option<Active>],
    requests: &'a [ServingRequest],
) -> Vec<(usize, &'a [usize])> {
    active
        .iter()
        .enumerate()
        .filter_map(|(s, a)| a.as_ref().map(|a| (s, requests[a.idx].prompt.as_slice())))
        .collect()
}

/// The slot-machine parameters of a [`ContinuousBatcher`], exported for
/// `esti-verify`'s slot-lifecycle pass.
///
/// The pass models admission → prefill → decode-slot → evict/replay as an
/// explicit state machine and explores it against abstract request traces;
/// these fields are the knobs that machine is parameterized over, read from
/// the live scheduler so the model cannot drift from the configuration
/// under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherSpec {
    /// Decode-tier slot count ([`ServingOptions::max_decode_batch`]).
    pub slots: usize,
    /// Faults one `try_serve` call absorbs before
    /// [`ServeError::RecoveryLimit`].
    pub max_recoveries: usize,
    /// Admission prefill emits the request's first token, so a request with
    /// `max_new_tokens <= 1` completes at admission without ever occupying
    /// a decode slot.
    pub prefill_emits_first_token: bool,
    /// Replay-cursor position after a recovery rebuild: re-prefill
    /// re-derives token 0 (asserted against the recording), so replay of
    /// the remaining recorded tokens restarts at index 1.
    pub replay_restarts_at: usize,
    /// KV page size of the decode tier's cache.
    pub page_size: usize,
    /// Page-pool admission budget
    /// ([`ServingOptions::kv_position_budget`] `/ page_size`); `None` when
    /// unbudgeted. When set, admission charges new pages
    /// (shared prefix pages charged once) and growth reservations, keeps
    /// one page per still-empty slot in hand (the page an empty slot holds
    /// for the length of a step it pads; an upper bound where steps carry
    /// no padding), and defers requests that would overflow; eviction
    /// refunds a page exactly when its last reference drops.
    pub pool_pages: Option<usize>,
    /// Whether a waiting higher class preempts a strictly lower one out of
    /// its slot ([`ServingOptions::preemption`]). A preempted request is
    /// never dropped: it re-enters its class queue with its recording
    /// intact and must eventually re-admit and replay
    /// (`replay_restarts_at`) — the lifecycle pass rejects machines that
    /// preempt without a replay cursor or starve victims forever.
    pub preemption: bool,
}

/// The two-tier continuous-batching scheduler.
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{ContinuousBatcher, ServingOptions, ServingRequest, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut batcher =
///     ContinuousBatcher::new(&model, layout, WeightFormat::Exact, ServingOptions::default());
/// let requests = vec![
///     ServingRequest::immediate(vec![1, 2, 3], 4),
///     ServingRequest::immediate(vec![5, 6], 4),
/// ];
/// let outcome = batcher.serve(&requests);
/// assert_eq!(outcome.outputs.len(), 2);
/// assert!(outcome.outputs.iter().all(|o| o.len() == 4));
/// ```
pub struct ContinuousBatcher {
    prefill: PartitionedEngine,
    decode: PartitionedEngine,
    opts: ServingOptions,
    /// Everything needed to rebuild a tier after a fault.
    model: ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    /// Deadline re-applied to rebuilt engines.
    deadline: Option<Duration>,
    /// A fault plan armed into the decode tier just before the given
    /// successful-step count is reached (one-shot).
    decode_fault: Option<(usize, FaultPlan)>,
    /// Forced preemptions `(after_step, slot)` applied at step boundaries
    /// (one-shot, for conformance testing).
    preempt_plan: Vec<(usize, usize)>,
    /// Recovery budget per [`ContinuousBatcher::try_serve`] call.
    max_recoveries: usize,
    /// Prefill-tier work of the serve call in progress.
    work: PrefillWork,
}

/// Builds a tier engine. `workers` is
/// [`ServingOptions::intra_chip_threads`]; `0` keeps the engine default.
/// `page_size` is [`ServingOptions::kv_page_size`]; `None` keeps the engine
/// default.
fn build_engine(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    workers: usize,
    page_size: Option<usize>,
) -> PartitionedEngine {
    let mut engine = PartitionedEngine::new(model, layout, fmt);
    if workers > 0 {
        engine.set_intra_chip_threads(workers);
    }
    if let Some(page_size) = page_size {
        engine.set_kv_page_size(page_size);
    }
    engine
}

/// Virtual page-pool ledger the admission policy charges. It mirrors the
/// physical [`esti_model::KvCache`] page pool in *canonical* units — whole
/// heads, undivided by the layout — so one ledger governs admission
/// identically across shardings.
///
/// Accounting invariants (each mirrors a physical transition):
///
/// * **admit** charges one page per prompt prefix *not* already registered
///   by a live request (registry hits map shared pages: charged once),
///   plus a reservation for every page decode growth can touch — pages the
///   generation frontier will cross into, and one copy-out page when the
///   prompt's last page is partial (a write to it may trigger
///   copy-on-write if shared, or converts it private if not; either way
///   the reservation bounds the worst case).
/// * **advance** (one appended token) converts reservations to private
///   pages at page boundaries and resolves the partial-page frontier on
///   its first write — exactly the cache's copy-on-write / deregistration
///   transitions — without changing the slot's total claim.
/// * **release** refunds private and reserved pages plus every prefix page
///   whose registry refcount drops to zero — the cache frees a physical
///   page at precisely that moment.
struct PageLedger {
    page_size: usize,
    /// Admission budget in pages; `None` tracks usage without gating.
    budget: Option<usize>,
    /// Live page-aligned prompt prefixes → number of slots mapping them.
    registry: HashMap<Vec<usize>, usize>,
    used: usize,
    peak_used: usize,
    peak_shared: usize,
    slots: HashMap<usize, LedgerSlot>,
}

/// One admitted slot's claim on the ledger.
struct LedgerSlot {
    /// Registered prefix keys this slot maps, in page order.
    keys: Vec<Vec<usize>>,
    /// Pages owned by this slot alone (decode growth, copy-outs).
    private: usize,
    /// Pages charged at admission but not yet materialized.
    reserved: usize,
    /// Cached positions (prompt + appended decode tokens).
    len: usize,
    /// The last prompt page is partial *and* still registry-mapped; the
    /// first decode write resolves it (copy-on-write or deregistration).
    frontier_keyed: bool,
}

impl PageLedger {
    fn new(page_size: usize, budget: Option<usize>) -> Self {
        assert!(page_size > 0, "page size must be positive");
        PageLedger {
            page_size,
            budget,
            registry: HashMap::new(),
            used: 0,
            peak_used: 0,
            peak_shared: 0,
            slots: HashMap::new(),
        }
    }

    /// `(unshared prompt pages, growth pages, copy-out reservation)` for
    /// admitting `prompt` with `max_new` generated tokens, against the
    /// current registry.
    fn charge_parts(&self, prompt: &[usize], max_new: usize) -> (usize, usize, usize) {
        let s = self.page_size;
        let l = prompt.len();
        let n_pages = l.div_ceil(s);
        let new_keys = (0..n_pages)
            .filter(|pi| {
                let end = ((pi + 1) * s).min(l);
                !self.registry.contains_key(&prompt[..end])
            })
            .count();
        let grow = (l + max_new).div_ceil(s) - n_pages;
        let cow = usize::from(max_new > 1 && !l.is_multiple_of(s));
        (new_keys, grow, cow)
    }

    /// Pages admitting this request would charge right now.
    fn plan(&self, prompt: &[usize], max_new: usize) -> usize {
        let (new_keys, grow, cow) = self.charge_parts(prompt, max_new);
        new_keys + grow + cow
    }

    /// Whether `extra` more pages fit the budget (always true unbudgeted).
    fn fits(&self, extra: usize) -> bool {
        self.budget.is_none_or(|b| self.used + extra <= b)
    }

    /// Records an admission: registers/references prompt prefixes and
    /// charges the pool.
    fn commit(&mut self, slot: usize, prompt: &[usize], max_new: usize) {
        let (new_keys, grow, cow) = self.charge_parts(prompt, max_new);
        let s = self.page_size;
        let l = prompt.len();
        let n_pages = l.div_ceil(s);
        let mut keys = Vec::with_capacity(n_pages);
        for pi in 0..n_pages {
            let end = ((pi + 1) * s).min(l);
            let key = prompt[..end].to_vec();
            *self.registry.entry(key.clone()).or_insert(0) += 1;
            keys.push(key);
        }
        self.used += new_keys + grow + cow;
        self.peak_used = self.peak_used.max(self.used);
        let shared = self.registry.values().filter(|&&r| r >= 2).count();
        self.peak_shared = self.peak_shared.max(shared);
        let prior = self.slots.insert(
            slot,
            LedgerSlot {
                keys,
                private: 0,
                reserved: grow + cow,
                len: l,
                frontier_keyed: !l.is_multiple_of(s),
            },
        );
        assert!(prior.is_none(), "slot {slot} admitted while still charged");
    }

    /// Records one decode token appended to `slot`'s cache row.
    fn advance(&mut self, slot: usize) {
        let s = self.page_size;
        let Some(rec) = self.slots.get_mut(&slot) else {
            unreachable!("slot {slot} stepped without an admission");
        };
        let pos = rec.len;
        rec.len += 1;
        if pos % s == 0 {
            // Crossing into a fresh page: a growth reservation materializes.
            assert!(rec.reserved > 0, "slot {slot} grew past its reservation");
            rec.reserved -= 1;
            rec.private += 1;
        } else if rec.frontier_keyed {
            // First write into the partial last prompt page.
            rec.frontier_keyed = false;
            let Some(key) = rec.keys.pop() else {
                unreachable!("frontier_keyed implies a registered frontier page");
            };
            let Some(refs) = self.registry.get_mut(&key) else {
                unreachable!("slot keys are always registered");
            };
            if *refs > 1 {
                // Copy-on-write: the copy-out consumes the reservation; the
                // original page stays with its other references.
                *refs -= 1;
                assert!(rec.reserved > 0, "copy-on-write without a reservation");
                rec.reserved -= 1;
                rec.private += 1;
            } else {
                // Sole reference: the cache deregisters and writes in
                // place — the page converts from keyed to private, no new
                // allocation.
                self.registry.remove(&key);
                rec.private += 1;
            }
        }
    }

    /// Records an eviction, refunding every page whose last reference this
    /// slot held.
    fn release(&mut self, slot: usize) {
        let Some(rec) = self.slots.remove(&slot) else {
            return; // Never admitted (idle-slot re-eviction).
        };
        let mut refund = rec.private + rec.reserved;
        for key in rec.keys {
            if let Some(refs) = self.registry.get_mut(&key) {
                *refs -= 1;
                if *refs == 0 {
                    self.registry.remove(&key);
                    refund += 1;
                }
            }
        }
        assert!(self.used >= refund, "page ledger refund exceeds usage");
        self.used -= refund;
    }

    /// Minimum free pages observed under the budget (`0` unbudgeted).
    fn min_free(&self) -> usize {
        self.budget.map_or(0, |b| b.saturating_sub(self.peak_used))
    }
}

impl ContinuousBatcher {
    /// Builds both tiers from one model and layout (the common case; the
    /// paper's tiers may differ in chip count, which maps here to building
    /// with different layouts via two engines — a future extension).
    ///
    /// # Panics
    ///
    /// Panics if `opts.max_decode_batch` is zero or violates the layout's
    /// batch divisibility requirements, or on any condition
    /// [`PartitionedEngine::new`] panics on.
    #[must_use]
    pub fn new(
        model: &ReferenceModel,
        layout: Layout,
        fmt: WeightFormat,
        opts: ServingOptions,
    ) -> Self {
        assert!(opts.max_decode_batch > 0, "decode batch cap must be positive");
        let prefill =
            build_engine(model, layout, fmt, opts.intra_chip_threads, opts.kv_page_size);
        let decode =
            build_engine(model, layout, fmt, opts.intra_chip_threads, opts.kv_page_size);
        let deadline = decode.collective_deadline();
        ContinuousBatcher {
            prefill,
            decode,
            opts,
            model: model.clone(),
            layout,
            fmt,
            deadline,
            decode_fault: None,
            preempt_plan: Vec::new(),
            max_recoveries: 3,
            work: PrefillWork::default(),
        }
    }

    /// The decode-tier engine (for inspecting traffic or comm times).
    #[must_use]
    pub fn decode_engine(&self) -> &PartitionedEngine {
        &self.decode
    }

    /// The prefill-tier engine (for inspecting its page pool or traffic).
    #[must_use]
    pub fn prefill_engine(&self) -> &PartitionedEngine {
        &self.prefill
    }

    /// The slot-machine parameters the lifecycle analyzer models (see
    /// [`BatcherSpec`]).
    #[must_use]
    pub fn spec(&self) -> BatcherSpec {
        let page_size = self.decode.kv_page_size();
        BatcherSpec {
            slots: self.opts.max_decode_batch,
            max_recoveries: self.max_recoveries,
            prefill_emits_first_token: true,
            replay_restarts_at: 1,
            page_size,
            pool_pages: self.opts.kv_position_budget.map(|b| b / page_size),
            preemption: self.opts.preemption,
        }
    }

    /// Sets the collective deadline both tiers (and any rebuilt engine)
    /// run under; `None` waits forever.
    pub fn set_collective_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.prefill.set_collective_deadline(deadline);
        self.decode.set_collective_deadline(deadline);
    }

    /// Caps how many faults one [`ContinuousBatcher::try_serve`] call will
    /// recover from before giving up with [`ServeError::RecoveryLimit`].
    pub fn set_max_recoveries(&mut self, max: usize) {
        self.max_recoveries = max;
    }

    /// Arms `plan` into the decode tier immediately before its
    /// `at_step`-th successful decode step (chaos testing): the plan's call
    /// indices then count collectives from the start of that step. One-shot
    /// — a rebuilt engine comes up fault-free.
    pub fn schedule_decode_fault(&mut self, at_step: usize, plan: FaultPlan) {
        self.decode_fault = Some((at_step, plan));
    }

    /// Arms `plan` into the prefill tier right away (chaos testing). The
    /// recovery path rebuilds the tier fault-free and retries the prompt.
    pub fn inject_prefill_fault(&mut self, plan: FaultPlan) {
        self.prefill.inject_faults(plan);
    }

    /// Forces preemptions for the next serve call (conformance testing):
    /// each `(after_step, slot)` entry evicts whatever request occupies
    /// `slot` at the step boundary right after the `after_step`-th
    /// successful decode step, re-queuing it exactly as a policy
    /// preemption would. One-shot; entries naming an empty slot are
    /// no-ops. The conformance suite drives arbitrary schedules through
    /// this hook and asserts streams stay bit-identical to un-preempted
    /// runs.
    pub fn schedule_preemptions(&mut self, plan: &[(usize, usize)]) {
        self.preempt_plan = plan.to_vec();
    }

    /// Serves `requests` (sorted by arrival) to completion and returns
    /// every request's generated tokens plus measured statistics.
    ///
    /// See [`ContinuousBatcher::try_serve`] for the admission policy and
    /// recovery behavior.
    ///
    /// # Panics
    ///
    /// Panics on any [`ServeError`] — invalid submissions (empty request
    /// list, unsorted arrivals, an empty prompt, a learned-position
    /// overflow) and engine failures past the recovery budget alike.
    pub fn serve(&mut self, requests: &[ServingRequest]) -> ServingOutcome {
        self.try_serve(requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serves `requests` (sorted by arrival) to completion.
    ///
    /// Admission policy: priority-first, FIFO within a class. At every
    /// step boundary, arrived requests join their class queue; the
    /// highest waiting class is admitted first and takes the lowest free
    /// slot, until slots or arrived requests run out. Every admission is
    /// decided on its own, in that order; only the prefill work is
    /// batched — up to a minimum batch of consecutive admissions run as
    /// one group, each prompt in its own row and computing only the suffix
    /// no live slot's pages already cover. With
    /// [`ServingOptions::preemption`], a waiting request whose class
    /// strictly exceeds the lowest in-flight class evicts that slot's
    /// request (least progress first, so the least replay is wasted); the
    /// victim re-enters its class queue and later replays to a
    /// bit-identical stream through the same machinery fault recovery
    /// uses. The decode tier then steps the occupied slots and only those
    /// ([`PartitionedEngine::try_decode_rows`]): an empty slot costs the
    /// step nothing, except on layouts whose chips own spans of the rows,
    /// where the engine pads each span with its own empty slots up to the
    /// fullest span's count and empties them again ([`DecodeWork`] counts
    /// both kinds of row). A request leaves its slot the moment its last
    /// token is sampled.
    ///
    /// Admission control ([`ServingOptions::queue_limit`],
    /// [`ServingOptions::ttft_deadline`]) sheds waiting requests under
    /// overload instead of queueing without bound; each shed is a typed
    /// [`ServeError::Overloaded`] in [`ServingOutcome::shed`], the run
    /// itself still completes. Preempted requests are never shed — they
    /// hold emitted tokens and always complete.
    ///
    /// Failed steps trigger recovery (see the module docs): the dead tier
    /// is rebuilt and in-flight requests are replayed to bit-identical
    /// streams, up to [`ContinuousBatcher::set_max_recoveries`] faults.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoRequests`] / [`ServeError::UnsortedArrivals`] /
    /// [`ServeError::EmptyPrompt`] / [`ServeError::PromptTooLong`] reject
    /// the submission before any engine work; [`ServeError::Engine`] and
    /// [`ServeError::RecoveryLimit`] report faults recovery could not
    /// absorb.
    pub fn try_serve(&mut self, requests: &[ServingRequest]) -> Result<ServingOutcome, ServeError> {
        if requests.is_empty() {
            return Err(ServeError::NoRequests);
        }
        if !requests.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            return Err(ServeError::UnsortedArrivals);
        }
        let cfg = self.decode.config().clone();
        for (index, r) in requests.iter().enumerate() {
            if r.prompt.is_empty() {
                return Err(ServeError::EmptyPrompt { index });
            }
            let needed = r.prompt.len() + r.max_new_tokens;
            if cfg.position == PositionKind::Learned && needed > cfg.max_seq {
                return Err(ServeError::PromptTooLong { index, needed, max_seq: cfg.max_seq });
            }
        }
        let cap = self.opts.max_decode_batch;
        let page_size = self.decode.kv_page_size();
        let mut ledger =
            PageLedger::new(page_size, self.opts.kv_position_budget.map(|b| b / page_size));
        self.decode.begin_slots(cap, 0);
        // Prefill rows are recycled through `evict_slot` from here on, so
        // the tier's page pool is allocated by the first group and reused.
        let pad = self.prefill.min_batch();
        self.prefill.begin_slots(pad, 0);
        self.work = PrefillWork::default();

        let t0 = Instant::now();
        let now = || t0.elapsed().as_secs_f64();
        let n = requests.len();
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut prefilled_at = vec![0.0f64; n];
        let mut finished_at = vec![0.0f64; n];
        // Requests arrive (in sorted order) past `cursor` into their class
        // queue; admission drains the highest class first, FIFO within.
        let mut waiting: [VecDeque<usize>; 3] = Default::default();
        let mut cursor = 0usize;
        let mut shed: Vec<ServeError> = Vec::new();
        let mut is_shed = vec![false; n];
        let mut preemptions = 0usize;
        let mut preempted_replayed = 0usize;
        let mut forced = std::mem::take(&mut self.preempt_plan);
        let mut active: Vec<Option<Active>> = (0..cap).map(|_| None).collect();
        let mut step_log: Vec<(usize, f64)> = Vec::new();
        let mut occupancy_sum = 0usize;
        let mut recovery = RecoveryStats::default();
        let mut steps_done = 0usize;
        let mut peak_live = 0usize;
        let mut decode_work = DecodeWork::default();

        loop {
            // Arrived requests join their class queue.
            while cursor < n && requests[cursor].arrival <= now() {
                waiting[requests[cursor].priority.index()].push_back(cursor);
                cursor += 1;
            }

            // Forced preemptions scheduled for this step boundary (one
            // shot each; empty slots are no-ops).
            for i in (0..forced.len()).rev() {
                let (after_step, slot) = forced[i];
                if after_step != steps_done {
                    continue;
                }
                forced.swap_remove(i);
                if let Some(a) = active[slot].take() {
                    waiting[requests[a.idx].priority.index()].push_front(a.idx);
                    self.decode.evict_slot(slot);
                    ledger.release(slot);
                    preemptions += 1;
                }
            }

            // TTFT-deadline shedding. Preempted victims (non-empty
            // recording) are exempt: they were admitted once and must
            // complete.
            for class in Priority::ALL {
                if let Some(deadline) = self.opts.ttft_deadline[class.index()] {
                    waiting[class.index()].retain(|&idx| {
                        let waited = now() - requests[idx].arrival;
                        if outputs[idx].is_empty() && waited > deadline {
                            is_shed[idx] = true;
                            shed.push(ServeError::Overloaded {
                                index: idx,
                                reason: OverloadShed::TtftDeadline { waited, deadline },
                            });
                            false
                        } else {
                            true
                        }
                    });
                }
            }

            // Queue-depth shedding: the newest waiting request of the
            // lowest class goes first; preempted victims are exempt.
            if let Some(limit) = self.opts.queue_limit {
                let mut total: usize = waiting.iter().map(VecDeque::len).sum();
                'shed: while total > limit {
                    for class in Priority::ALL {
                        let q = &mut waiting[class.index()];
                        let Some(pos) = q.iter().rposition(|&idx| outputs[idx].is_empty())
                        else {
                            continue;
                        };
                        let Some(idx) = q.remove(pos) else { unreachable!("pos in bounds") };
                        is_shed[idx] = true;
                        shed.push(ServeError::Overloaded {
                            index: idx,
                            reason: OverloadShed::QueueFull { waiting: total, limit },
                        });
                        total -= 1;
                        continue 'shed;
                    }
                    break; // only un-sheddable victims remain waiting
                }
            }

            // Admission at the step boundary, highest class first. Each
            // request is decided on its own (slot, preemption victim, page
            // ledger) against everything decided before it; the prefill
            // work of up to `pad` consecutive admissions runs as one group.
            let mut group: Vec<(usize, Option<usize>)> = Vec::new();
            let mut admitting = true;
            while admitting {
                let admitted = 'decide: {
                    let Some(class) = Priority::ALL
                        .into_iter()
                        .rev()
                        .find(|c| !waiting[c.index()].is_empty())
                    else {
                        break 'decide None;
                    };
                    let free = (0..cap).find(|&s| {
                        active[s].is_none() && !group.iter().any(|&(_, held)| held == Some(s))
                    });
                    let slot = match free {
                        Some(s) => s,
                        None if self.opts.preemption => {
                            // Policy preemption: evict the lowest class below
                            // the admitted one; among equals the least
                            // progress, so the least replay is wasted.
                            let victim = active
                                .iter()
                                .enumerate()
                                .filter_map(|(s, o)| o.as_ref().map(|a| (s, a.idx)))
                                .filter(|&(_, v)| requests[v].priority < class)
                                .min_by_key(|&(s, v)| {
                                    (requests[v].priority, outputs[v].len(), s)
                                });
                            let Some((s, v)) = victim else { break 'decide None };
                            waiting[requests[v].priority.index()].push_front(v);
                            active[s] = None;
                            self.decode.evict_slot(s);
                            ledger.release(s);
                            preemptions += 1;
                            s
                        }
                        None => break 'decide None,
                    };
                    let Some(&idx) = waiting[class.index()].front() else {
                        break 'decide None;
                    };
                    let req = &requests[idx];
                    // A request that ends at its first token never holds
                    // the slot it was offered.
                    let slot = (req.max_new_tokens > 1).then_some(slot);
                    // Page-pool admission gate. The charge covers this
                    // request's unshared prompt pages plus growth
                    // reservations; the idle allowance covers the page a
                    // still-empty slot holds while it pads its span of a
                    // step, so the physical pool never outgrows the
                    // budget. Where steps carry no padding the allowance
                    // is an upper bound.
                    if let Some(slot) = slot {
                        let charge = ledger.plan(&req.prompt, req.max_new_tokens);
                        let live_now = active.iter().flatten().count()
                            + group.iter().filter(|(_, held)| held.is_some()).count();
                        let idle_after = cap - (live_now + 1);
                        if !ledger.fits(charge + idle_after) {
                            if live_now == 0 {
                                // Nothing to evict will ever free enough:
                                // the request cannot fit even alone.
                                let budget =
                                    self.opts.kv_position_budget.unwrap_or(usize::MAX);
                                return Err(ServeError::KvBudgetExceeded {
                                    index: idx,
                                    needed: (ledger.used + charge + idle_after) * ledger.page_size,
                                    budget,
                                });
                            }
                            break 'decide None; // Defer until eviction frees pages.
                        }
                        ledger.commit(slot, &req.prompt, req.max_new_tokens);
                    }
                    waiting[class.index()].pop_front();
                    Some((idx, slot))
                };
                match admitted {
                    Some(admission) => group.push(admission),
                    None => admitting = false,
                }
                // A group runs when it is full, or when nobody else is
                // admissible and it holds anyone at all.
                let run = group.len() == pad || (!admitting && !group.is_empty());
                if !run {
                    continue;
                }

                let prompts: Vec<&[usize]> =
                    group.iter().map(|&(idx, _)| requests[idx].prompt.as_slice()).collect();
                let donors = live_prompts(&active, requests);
                let prefilled = self.prefill_group(&prompts, &donors, &mut recovery)?;
                for ((idx, slot), (last_logits, kv)) in group.drain(..).zip(prefilled) {
                    let req = &requests[idx];
                    let replaying = !outputs[idx].is_empty();
                    let mut rng = StdRng::seed_from_u64(req.seed);
                    if !replaying {
                        prefilled_at[idx] = now();
                        if req.max_new_tokens == 0 {
                            finished_at[idx] = prefilled_at[idx];
                            continue;
                        }
                    }
                    // The first generated token comes from the prefill
                    // logits — its sampling time is the TTFT recorded
                    // above. On a post-preemption re-admission the
                    // re-derived token is asserted against the recording
                    // instead (the replay cursor then walks the emitted
                    // decode suffix).
                    let tok = sample_row(&mut rng, &last_logits, self.opts.sampling);
                    if replaying {
                        assert_eq!(
                            tok, outputs[idx][0],
                            "request {idx} diverged at replayed token 0"
                        );
                        preempted_replayed += outputs[idx].len() - 1;
                    } else {
                        outputs[idx].push(tok);
                    }
                    let Some(slot) = slot else {
                        finished_at[idx] = now();
                        continue;
                    };
                    self.decode.insert_kv_shared(slot, &kv, &req.prompt);
                    active[slot] = Some(Active { idx, rng, next_tok: tok, consumed: 1 });
                }
            }

            let live = active.iter().flatten().count();
            peak_live = peak_live.max(live);
            if live == 0 {
                if cursor >= n && waiting.iter().all(VecDeque::is_empty) {
                    break;
                }
                // Nothing in flight and the next request has not arrived:
                // nap (bounded, so a mis-scheduled wakeup self-corrects).
                if cursor < n {
                    let wait = requests[cursor].arrival - now();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait.min(0.02)));
                    }
                }
                continue;
            }

            // Scheduled chaos: arm the one-shot fault plan at its step.
            if matches!(self.decode_fault, Some((at, _)) if at == steps_done) {
                if let Some((_, plan)) = self.decode_fault.take() {
                    self.decode.inject_faults(plan);
                }
            }

            // One decode step over the occupied slots; logits come back one
            // row per entry of `rows`, in slot order.
            let rows: Vec<(usize, usize)> = active
                .iter()
                .enumerate()
                .filter_map(|(s, a)| a.as_ref().map(|a| (s, a.next_tok)))
                .collect();
            let carried = self.decode.decode_rows_carried(&rows);
            let t_step = Instant::now();
            let logits = match self.decode.try_decode_rows(&rows) {
                Ok(logits) => logits,
                Err(err) => {
                    self.recover_decode(
                        requests,
                        &outputs,
                        &mut active,
                        cap,
                        &mut recovery,
                        &mut ledger,
                        err,
                    )?;
                    continue;
                }
            };
            steps_done += 1;
            step_log.push((live, t_step.elapsed().as_secs_f64()));
            occupancy_sum += live;
            decode_work.steps += 1;
            decode_work.rows_live += live;
            decode_work.filler_rows += carried - live;

            for ((s, _), row) in rows.into_iter().zip(logits.data().chunks(cfg.vocab)) {
                let slot = &mut active[s];
                let Some(a) = slot else { unreachable!("rows lists occupied slots") };
                // The step appended this row's input token to its cache.
                ledger.advance(s);
                let tok = sample_row(&mut a.rng, row, self.opts.sampling);
                if a.consumed < outputs[a.idx].len() {
                    // Replay after a recovery: the recomputed sample must
                    // reproduce its recording bit-for-bit.
                    assert_eq!(
                        tok,
                        outputs[a.idx][a.consumed],
                        "request {} diverged at replayed token {}",
                        a.idx,
                        a.consumed
                    );
                } else {
                    outputs[a.idx].push(tok);
                }
                a.consumed += 1;
                if a.consumed == requests[a.idx].max_new_tokens {
                    finished_at[a.idx] = now();
                    *slot = None;
                    self.decode.evict_slot(s);
                    ledger.release(s);
                } else {
                    a.next_tok = tok;
                }
            }
        }

        // Shed requests have no latency to report; everything else does.
        let stats: Vec<RequestStats> = requests
            .iter()
            .enumerate()
            .filter(|&(idx, _)| !is_shed[idx])
            .map(|(idx, r)| RequestStats {
                arrival: r.arrival,
                prefilled: prefilled_at[idx],
                finished: finished_at[idx],
                generated: outputs[idx].len(),
            })
            .collect();
        let total_generated = outputs.iter().map(Vec::len).sum();
        let report = ServingReport::new(stats, step_log.len(), occupancy_sum)
            .with_recovery(recovery)
            .with_peak_batch(peak_live)
            .with_kv_pages(ledger.min_free(), ledger.peak_shared);
        Ok(ServingOutcome {
            report,
            step_log,
            outputs,
            total_generated,
            shed,
            preemptions,
            preempted_tokens_replayed: preempted_replayed,
            prefill: self.work,
            decode: decode_work,
        })
    }

    /// A fault-free replacement for a failed tier, under the deadline the
    /// batcher runs both tiers with.
    fn fresh_engine(&self) -> PartitionedEngine {
        let mut engine = build_engine(
            &self.model,
            self.layout,
            self.fmt,
            self.opts.intra_chip_threads,
            self.opts.kv_page_size,
        );
        engine.set_collective_deadline(self.deadline);
        engine
    }

    /// Rebuilds the decode tier after a failed step and replays every
    /// in-flight request up to its recorded stream: prompt re-prefilled
    /// (original chunking, through the same group path admissions take),
    /// RNG re-seeded, first token re-derived from the prefill logits, KV
    /// re-inserted into the same slot. The emitted decode suffix is then
    /// re-derived by the ordinary step loop, which asserts each replayed
    /// sample equals its recording — so a successful recovery is
    /// bit-identical by construction, not by luck.
    #[allow(clippy::too_many_arguments)] // private: the serve loop's locals.
    fn recover_decode(
        &mut self,
        requests: &[ServingRequest],
        outputs: &[Vec<usize>],
        active: &mut [Option<Active>],
        cap: usize,
        recovery: &mut RecoveryStats,
        ledger: &mut PageLedger,
        err: EngineError,
    ) -> Result<(), ServeError> {
        recovery.faults += 1;
        if recovery.faults > self.max_recoveries {
            return Err(ServeError::RecoveryLimit { faults: recovery.faults, last: err });
        }
        let t = Instant::now();
        self.decode = self.fresh_engine();
        self.decode.begin_slots(cap, 0);
        // The rebuilt cache starts empty, so the ledger restarts too: each
        // replayed request re-admits (re-sharing prompt prefixes exactly as
        // the fresh block tables do) and the replay steps re-advance it.
        // Peaks carry over — they describe the whole serve call.
        *ledger = PageLedger {
            peak_used: ledger.peak_used,
            peak_shared: ledger.peak_shared,
            ..PageLedger::new(ledger.page_size, ledger.budget)
        };
        // Slots come back in slot order, a group at a time; a slot is a
        // donor again once its KV is back in the rebuilt tier.
        let replay: Vec<(usize, usize)> = active
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, entry)| entry.take().map(|a| (slot, a.idx)))
            .collect();
        let mut steps_lost = 0usize;
        for group in replay.chunks(self.prefill.min_batch()) {
            let prompts: Vec<&[usize]> =
                group.iter().map(|&(_, idx)| requests[idx].prompt.as_slice()).collect();
            let donors = live_prompts(active, requests);
            let prefilled = self.prefill_group(&prompts, &donors, recovery)?;
            for (&(slot, idx), (last_logits, kv)) in group.iter().zip(prefilled) {
                let req = &requests[idx];
                let emitted = &outputs[idx];
                let mut rng = StdRng::seed_from_u64(req.seed);
                let tok0 = sample_row(&mut rng, &last_logits, self.opts.sampling);
                assert_eq!(tok0, emitted[0], "request {idx} diverged at replayed token 0");
                self.decode.insert_kv_shared(slot, &kv, &req.prompt);
                ledger.commit(slot, &req.prompt, req.max_new_tokens);
                active[slot] = Some(Active { idx, rng, next_tok: tok0, consumed: 1 });
                recovery.requests_replayed += 1;
                recovery.prefill_tokens_replayed += req.prompt.len();
                recovery.decode_tokens_replayed += emitted.len() - 1;
                steps_lost = steps_lost.max(emitted.len() - 1);
            }
        }
        recovery.steps_lost += steps_lost;
        recovery.recovery_seconds += t.elapsed().as_secs_f64();
        Ok(())
    }

    /// Prefills `prompts` — up to a minimum batch of consecutive admissions,
    /// in admission order — and returns each one's last-position logits and
    /// canonical KV. This is the only way the scheduler runs the prefill
    /// tier: admissions, preemption replays and fault replays all come
    /// through here.
    ///
    /// Each prompt gets its own batch row. A row starts from its *donor*:
    /// the slot of `live` (decode slots, by the prompt whose KV they hold)
    /// sharing the longest whole-page prefix with the prompt, lowest slot
    /// among equals. The donor's first `hit` positions seed the row and only
    /// `prompt[hit..]` runs. Rows of one call are independent and a seeded
    /// position holds the bits the row would have computed itself (the
    /// invariant prefix sharing already rests on), so logits and KV equal a
    /// full batch-1 prefill's bit for bit. Shorter suffixes are right-padded
    /// with a dummy token — causal attention keeps padding from reaching the
    /// positions before it, and each row's KV is cut back to its prompt
    /// afterwards — and rows left over when nobody else is admissible carry
    /// dummy tokens only.
    ///
    /// The group is one engine call per chunk, except under learned
    /// positions when padding a short row to the longest suffix would run
    /// past the position table: that prompt starts the next call.
    fn prefill_group(
        &mut self,
        prompts: &[&[usize]],
        live: &[(usize, &[usize])],
        recovery: &mut RecoveryStats,
    ) -> Result<Vec<(Vec<f32>, RequestKv)>, ServeError> {
        let pad = self.prefill.min_batch();
        let page = self.decode.kv_page_size();
        let cfg = self.decode.config();
        let max_positions =
            if cfg.position == PositionKind::Learned { cfg.max_seq } else { usize::MAX };
        let mut done: Vec<(Vec<f32>, RequestKv)> = Vec::with_capacity(prompts.len());
        while done.len() < prompts.len() {
            let mut rows: Vec<PrefillRow> = Vec::with_capacity(pad);
            let mut longest = 0usize;
            for &prompt in prompts[done.len()..].iter().take(pad) {
                let (hit, donor) = live
                    .iter()
                    .map(|&(slot, cached)| (prefix_hit(prompt, cached, page), slot))
                    .max_by_key(|&(hit, slot)| (hit, std::cmp::Reverse(slot)))
                    .unwrap_or((0, 0));
                let padded = longest.max(prompt.len() - hit);
                let fits = hit + padded <= max_positions
                    && rows.iter().all(|r| r.hit + padded <= max_positions);
                if !fits && !rows.is_empty() {
                    break;
                }
                let seed = (hit > 0).then(|| {
                    let mut kv = self.decode.extract_kv(donor);
                    kv.truncate(hit);
                    kv
                });
                longest = padded;
                rows.push(PrefillRow { prompt, hit, seed });
            }

            let out = match self.prefill_rows(&rows) {
                Ok(out) => out,
                Err(err) => {
                    // The prefill tier holds nothing the call did not put
                    // there: rebuild it fault-free, re-seed the rows and
                    // retry once, charging the retry to the recovery
                    // ledger. A second failure is unrecoverable.
                    recovery.faults += 1;
                    if recovery.faults > self.max_recoveries {
                        return Err(ServeError::RecoveryLimit {
                            faults: recovery.faults,
                            last: err,
                        });
                    }
                    let t = Instant::now();
                    self.prefill = self.fresh_engine();
                    self.prefill.begin_slots(pad, 0);
                    let out = self.prefill_rows(&rows).map_err(ServeError::Engine)?;
                    recovery.prefill_tokens_replayed +=
                        rows.iter().map(|r| r.prompt.len()).sum::<usize>();
                    recovery.recovery_seconds += t.elapsed().as_secs_f64();
                    out
                }
            };
            self.work.rows += pad;
            self.work.filler_rows += pad - rows.len();
            self.work.tokens_reused += rows.iter().map(|r| r.hit).sum::<usize>();
            self.work.tokens_computed +=
                rows.iter().map(|r| r.prompt.len() - r.hit).sum::<usize>();
            done.extend(out);
        }
        Ok(done)
    }

    /// One prefill-tier pass over `rows` (at most a minimum batch; the rest
    /// of the batch is filler), honoring the chunked-prefill option: every
    /// row is recycled, seeded, and runs its suffix right-padded to the
    /// longest. Returns each row's logits at its own last prompt position
    /// and its KV cut back to its prompt.
    fn prefill_rows(
        &mut self,
        rows: &[PrefillRow],
    ) -> Result<Vec<(Vec<f32>, RequestKv)>, EngineError> {
        let pad = self.prefill.min_batch();
        let v = self.prefill.config().vocab;
        for r in 0..pad {
            self.prefill.evict_slot(r);
        }
        for (r, row) in rows.iter().enumerate() {
            if let Some(seed) = &row.seed {
                self.prefill.insert_kv(r, seed);
            }
        }
        // Admission rejects empty prompts and a hit stops short of the last
        // token, so every suffix is non-empty and `last` is set for every
        // row on the Ok path.
        let longest = rows.iter().map(|r| r.prompt.len() - r.hit).max().unwrap_or(0);
        let chunk = self.opts.prefill_chunk.unwrap_or(longest).max(1);
        let mut last: Vec<Vec<f32>> = vec![Vec::new(); rows.len()];
        let mut start = 0;
        while start < longest {
            let l = chunk.min(longest - start);
            let tokens: Vec<Vec<usize>> = (0..pad)
                .map(|r| {
                    let suffix = rows.get(r).map_or(&[][..], |row| &row.prompt[row.hit..]);
                    (start..start + l).map(|p| suffix.get(p).copied().unwrap_or(0)).collect()
                })
                .collect();
            let logits = self.prefill.try_prefill(&tokens)?; // [pad, l, V]
            self.work.calls += 1;
            for (r, row) in rows.iter().enumerate() {
                let end = row.prompt.len() - row.hit - 1;
                if (start..start + l).contains(&end) {
                    let at = (r * l + end - start) * v;
                    last[r] = logits.data()[at..at + v].to_vec();
                }
            }
            start += l;
        }
        Ok(rows
            .iter()
            .zip(last)
            .enumerate()
            .map(|(r, (row, logits))| {
                let mut kv = self.prefill.extract_kv(r);
                kv.truncate(row.prompt.len());
                (logits, kv)
            })
            .collect())
    }
}
