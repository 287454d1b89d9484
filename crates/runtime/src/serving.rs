//! Continuous-batching serving over the partitioned engine (Section 4.4).
//!
//! [`ContinuousBatcher`] *runs* the paper's prefill/decode arrangement on one
//! [`PartitionedEngine`] — one copy of the weights, one KV page pool — with a
//! fixed number of decode slots ([`PartitionedEngine::begin_slots`]). It is
//! the live caller of [`esti_core::scheduler`], which decides what is shed,
//! admitted and preempted (the trace simulator drives the same policy): this
//! module prefills each admission straight into its slot (optionally
//! chunked), runs decode steps over the occupied slots (see [`DecodeWork`])
//! and evicts on completion.
//!
//! Prefill does only the work that is needed. Up to a minimum batch of
//! consecutive admissions share one *group* prefill, each in its own slot,
//! and a slot whose prompt opens with whole KV pages a live slot already
//! holds is seeded with those pages and runs only the rest of its prompt
//! (see [`PrefillWork`] for what a serve call ended up computing).
//!
//! Correctness rests on two properties proved elsewhere in the workspace:
//! every op treats batch rows independently (so a request's row in a
//! padded, mixed-age batch computes bit-identically to running it alone),
//! and K/V at a position depend only on the tokens up to it (so a donor's
//! first pages hold exactly what a seeded row would have computed). The
//! conformance tests assert the visible consequence: per-request token
//! streams identical to isolated [`PartitionedEngine::generate`] runs.
//!
//! # Self-healing
//!
//! The same two properties make the scheduler recoverable. When a step or
//! a prefill call fails (a chip died or a collective timed out — see
//! [`EngineError`]), the batcher rebuilds the engine and *replays*
//! every in-flight request from durable state it already holds: the prompt
//! (re-prefilled with the original chunking), the per-request RNG seed
//! (re-seeded, so the sampling stream restarts from draw zero), and the
//! recorded emitted tokens (fed back through real decode steps, each
//! replayed sample asserted equal to its recording). Because batch rows are
//! independent and the replayed computation is the original computation,
//! post-recovery token streams are **bit-identical** to a fault-free run —
//! the chaos conformance tests in `tests/faults.rs` assert exactly that for
//! every decode layout. A failed prefill call's group goes back to the
//! front of its class queues and is admitted again. The price paid is
//! accounted in [`ServingReport::recovery`] and cross-checked against
//! `esti_netsim::crash_recovery_cost`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_collectives::FaultPlan;
use esti_core::layout::Layout;
use esti_core::scheduler::{Admission, Advance, Decision, Job, PageLedger, Scheduler};
use esti_core::serving::{OverloadPolicy, Priority, RecoveryStats, RequestStats, ServingReport};
use esti_model::{PositionKind, ReferenceModel};
use esti_tensor::sample::{sample_row, Sampling};

use crate::engine::{EngineError, PartitionedEngine, WeightFormat, DEFAULT_COLLECTIVE_DEADLINE};

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
    /// Slot count (the in-flight cap). Must satisfy the layout's batch
    /// divisibility requirements.
    pub max_decode_batch: usize,
    /// Sampling method applied to every request.
    pub sampling: Sampling,
    /// Chunked (incremental) prefill size; `None` prefills each prompt in
    /// one pass.
    pub prefill_chunk: Option<usize>,
    /// KV-cache page size applied to the engine (and every engine rebuilt
    /// during fault recovery). `None` keeps the engine default
    /// ([`crate::DEFAULT_KV_PAGE_SIZE`]). The page size never changes
    /// results — token streams are bit-identical at every size, down to a
    /// page longer than any sequence (one dense run per row).
    pub kv_page_size: Option<usize>,
    /// KV memory budget for admitted requests, in canonical cache positions
    /// (one position = one token's K and V across all layers and heads).
    /// `None` is unlimited. Admission charges the page ledger (shared
    /// prompt-prefix pages charged once) and defers requests that would
    /// overflow. The dense baseline at equal memory — every slot
    /// pre-charged its worst-case length — fits `budget / longest request`
    /// slots.
    pub kv_position_budget: Option<usize>,
    /// Waiting requests tolerated before the newest of the lowest class is
    /// shed (a typed [`ServeError::Overloaded`] in [`ServingOutcome::shed`]);
    /// `None` queues without bound.
    pub queue_limit: Option<usize>,
    /// Per-class TTFT deadline in seconds, indexed by [`Priority::index`]:
    /// a waiting request that has waited past it is shed. `None` disables
    /// it for that class.
    pub ttft_deadline: [Option<f64>; 3],
    /// Preempt a strictly-lower-priority slot when a higher class waits and
    /// no slot is free; the victim re-enters the front of its class queue
    /// and replays to a bit-identical stream on re-admission. With one class
    /// it never fires.
    pub preemption: bool,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            max_decode_batch: 4,
            sampling: Sampling::Greedy,
            prefill_chunk: None,
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
    /// [`ServingOptions::kv_position_budget`], even with every slot
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
                OverloadShed::TtftDeadline { ttft: waited, deadline } => write!(
                    f,
                    "request {index} shed under overload: waited {waited:.3}s past its \
                     {deadline:.3}s TTFT deadline"
                ),
            },
            ServeError::RecoveryLimit { faults, last } => {
                write!(f, "recovery budget exhausted after {faults} faults (last: {last})")
            }
        }
    }
}

/// Which admission-control policy shed a request (the payload of
/// [`ServeError::Overloaded`]); the live batcher's `ttft` is the time the
/// request had waited.
pub use esti_core::serving::ShedReason as OverloadShed;

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::RecoveryLimit { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

/// What prefill executed during one serve call. With every arrival at `0`
/// and no injected fault these counts repeat exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefillWork {
    /// Engine prefill calls (one per chunk of each call a group splits
    /// into).
    pub calls: usize,
    /// Prompt tokens computed: each admitted prompt's unseeded suffix.
    /// Filler rows and a short row's padding compute nothing and are not
    /// counted.
    pub tokens_computed: usize,
    /// Prompt tokens whose KV was seeded from a donor instead of computed.
    pub tokens_reused: usize,
    /// Batch rows over all calls (each call is a minimum batch of rows, one
    /// per span of slots).
    pub rows: usize,
    /// Of [`PrefillWork::rows`], rows that carried no request: filler rows
    /// of length 0 in a span no request of the call sits in — carried, not
    /// computed.
    pub filler_rows: usize,
}

/// What the decode steps executed during one serve call, counted where each
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
    /// Rows that carried nothing: filler rows of length 0 (carried, not
    /// computed) filling a span of the batch up to the fullest span's live
    /// count, on layouts whose chips each own a span of the rows
    /// (batch-sharded attention, weight-gathered). Always
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
    /// What prefill computed, reused and padded (admissions, preemption
    /// replays and fault replays alike).
    pub prefill: PrefillWork,
    /// What the decode steps ran: live rows and the filler beside them.
    pub decode: DecodeWork,
}

impl ServingOutcome {
    /// Measured decode throughput in generated tokens per second.
    #[must_use]
    pub fn throughput_tokens_per_sec(&self) -> f64 {
        self.report.generated_throughput(self.total_generated)
    }
}

/// A live request occupying a decode slot: its sampling stream and the
/// token its next step consumes. (Where it is in its stream, and whether a
/// step replays a recorded token, is the scheduler's.)
struct Active {
    idx: usize,
    rng: StdRng,
    next_tok: usize,
}

/// One request's row in a prefill call.
struct PrefillRow<'a> {
    prompt: &'a [usize],
    slot: usize,
    /// [`PartitionedEngine::slot_span`] of `slot`.
    span: usize,
    holds: bool,
    /// Leading positions seeded from `donor` instead of computed: whole
    /// pages, and fewer than the prompt so its last token always runs.
    hit: usize,
    /// The live slot the seed is copied from (meaningless when `hit` is 0).
    donor: usize,
    /// The earlier row of the group the row is seeded from, once that
    /// row's call has run (`donor` is then its slot).
    leader: Option<usize>,
}

/// Leading tokens of `prompt` a prefill can skip given a cache that already
/// holds `cached`'s KV: their common prefix floored to whole pages, capped so
/// the prompt's last token is still computed (its logits pick token 0).
fn prefix_hit(prompt: &[usize], cached: &[usize], page: usize) -> usize {
    let common = prompt.iter().zip(cached).take_while(|(a, b)| a == b).count();
    common.min(prompt.len() - 1) / page * page
}

/// The longest [`prefix_hit`] of `prompt` against `donors` (`(id,
/// cached)`), lowest id among equals, as `(hit, id)`: `(0, 0)` if none.
fn best_hit<'a>(prompt: &[usize], donors: impl Iterator<Item = (usize, &'a [usize])>, page: usize) -> (usize, usize) {
    let hits = donors.map(|(id, cached)| (prefix_hit(prompt, cached, page), id));
    hits.max_by_key(|&(hit, id)| (hit, std::cmp::Reverse(id))).unwrap_or((0, 0))
}

/// The occupied slots and the prompts whose KV they hold — the donors a
/// prefill group may seed from.
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

/// The configuration of a [`ContinuousBatcher`]'s scheduler, exported for
/// `esti-verify`'s slot-lifecycle pass.
///
/// The pass drives the same `esti_core::scheduler::Scheduler` the batcher
/// does over abstract request traces; these fields configure that core
/// (slots, page ledger, preemption) and the driver's recovery budget, read
/// from the live batcher so the pass checks the configuration under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherSpec {
    /// Slot count ([`ServingOptions::max_decode_batch`]).
    pub slots: usize,
    /// Faults one `try_serve` call absorbs before
    /// [`ServeError::RecoveryLimit`].
    pub max_recoveries: usize,
    /// KV page size of the engine's cache.
    pub page_size: usize,
    /// Page-ledger admission budget
    /// ([`ServingOptions::kv_position_budget`] `/ page_size`); `None` when
    /// unbudgeted.
    pub pool_pages: Option<usize>,
    /// Whether a waiting higher class preempts a strictly lower one out of
    /// its slot ([`ServingOptions::preemption`]).
    pub preemption: bool,
}

/// The continuous-batching scheduler: one [`PartitionedEngine`] whose
/// slots every prefill writes into and every decode step reads from.
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
/// let outcome = batcher.try_serve(&requests).unwrap();
/// assert_eq!(outcome.outputs.len(), 2);
/// assert!(outcome.outputs.iter().all(|o| o.len() == 4));
/// ```
pub struct ContinuousBatcher {
    engine: PartitionedEngine,
    opts: ServingOptions,
    /// Everything needed to rebuild the engine after a fault.
    model: ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    /// Deadline re-applied to rebuilt engines.
    deadline: Option<Duration>,
    /// A fault plan armed into the engine just before the given
    /// successful-step count is reached (one-shot).
    decode_fault: Option<(usize, FaultPlan)>,
    /// Forced preemptions `(after_step, slot)` applied at step boundaries
    /// (one-shot, for conformance testing).
    preempt_plan: Vec<(usize, usize)>,
    /// Recovery budget per [`ContinuousBatcher::try_serve`] call.
    max_recoveries: usize,
    /// Prefill work of the serve call in progress.
    work: PrefillWork,
}

/// Builds the scheduler's engine — at `opts`' KV page size, left at the
/// engine default when unset — with its collectives under `deadline`.
fn build_engine(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    opts: &ServingOptions,
    deadline: Option<Duration>,
) -> PartitionedEngine {
    let mut engine = PartitionedEngine::new(model, layout, fmt);
    if let Some(page_size) = opts.kv_page_size {
        engine.set_kv_page_size(page_size);
    }
    engine.set_collective_deadline(deadline);
    engine
}

impl ContinuousBatcher {
    /// Builds the one engine prefill and decode both run on, from `model`
    /// sharded by `layout`.
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
        let deadline = Some(DEFAULT_COLLECTIVE_DEADLINE);
        ContinuousBatcher {
            engine: build_engine(model, layout, fmt, &opts, deadline),
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

    /// The engine (for inspecting its page pool, traffic or comm times).
    #[must_use]
    pub fn engine(&self) -> &PartitionedEngine {
        &self.engine
    }

    /// The scheduler configuration the lifecycle pass drives (see
    /// [`BatcherSpec`]).
    #[must_use]
    pub fn spec(&self) -> BatcherSpec {
        let page_size = self.engine.kv_page_size();
        BatcherSpec {
            slots: self.opts.max_decode_batch,
            max_recoveries: self.max_recoveries,
            page_size,
            pool_pages: self.opts.kv_position_budget.map(|b| b / page_size),
            preemption: self.opts.preemption,
        }
    }

    /// Sets the collective deadline the engine (and any rebuilt engine)
    /// runs under; `None` waits forever.
    pub fn set_collective_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.engine.set_collective_deadline(deadline);
    }

    /// Caps how many faults one [`ContinuousBatcher::try_serve`] call will
    /// recover from before giving up with [`ServeError::RecoveryLimit`].
    pub fn set_max_recoveries(&mut self, max: usize) {
        self.max_recoveries = max;
    }

    /// Arms `plan` into the engine immediately before its `at_step`-th
    /// successful decode step (chaos testing): the plan's call indices then
    /// count collectives from the start of that step (a later index may
    /// land in a prefill call after it). One-shot — a rebuilt engine comes
    /// up fault-free.
    pub fn schedule_decode_fault(&mut self, at_step: usize, plan: FaultPlan) {
        self.decode_fault = Some((at_step, plan));
    }

    /// Arms `plan` into the engine right away (chaos testing): its call
    /// indices count collectives from the next engine call, which at the
    /// start of a serve call is its first prefill. A failed prefill call
    /// recovers like a failed step — the engine is rebuilt fault-free, the
    /// live slots replay — and its group is admitted again.
    pub fn inject_prefill_fault(&mut self, plan: FaultPlan) {
        self.engine.inject_faults(plan);
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
    /// Every shed, admission, preemption and page charge is decided by the
    /// [`esti_core::scheduler::Scheduler`] the trace simulator also runs; a
    /// request's TTFT so far is the time it has waited. This batcher runs the
    /// work: up to a minimum batch of consecutive admissions share one group
    /// prefill, each prompt prefilled straight into its slot, at most one per
    /// span per engine call, computing only the suffix no live slot's pages
    /// cover. Each decode step runs the occupied slots only
    /// ([`PartitionedEngine::try_decode_rows`]; on layouts whose chips own
    /// spans of the rows the engine pads each span to the fullest one, see
    /// [`DecodeWork`]). A preempted victim, like every request after a
    /// failed step or prefill call (see the module docs), replays to a
    /// bit-identical stream; recovery absorbs up to
    /// [`ContinuousBatcher::set_max_recoveries`] faults.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoRequests`] / [`ServeError::UnsortedArrivals`] /
    /// [`ServeError::EmptyPrompt`] / [`ServeError::PromptTooLong`] reject
    /// the submission before any engine work;
    /// [`ServeError::KvBudgetExceeded`] rejects a request no budget leaves
    /// room for; [`ServeError::RecoveryLimit`] reports faults recovery could
    /// not absorb.
    pub fn try_serve(&mut self, requests: &[ServingRequest]) -> Result<ServingOutcome, ServeError> {
        if requests.is_empty() {
            return Err(ServeError::NoRequests);
        }
        if !requests.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            return Err(ServeError::UnsortedArrivals);
        }
        let cfg = self.engine.config().clone();
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
        let page_size = self.engine.kv_page_size();
        self.engine.begin_slots(cap, 0);
        let pad = self.engine.min_batch();
        let jobs = requests.iter().map(|r| Job {
            class: r.priority,
            max_new: r.max_new_tokens,
            prompt: &r.prompt,
        });
        let ServingOptions { queue_limit, ttft_deadline, preemption, .. } = self.opts;
        let policy = OverloadPolicy { queue_limit, ttft_deadline, preemption };
        let ledger = PageLedger::new(page_size, self.opts.kv_position_budget.map(|b| b / page_size));
        let spans = (0..cap).map(|s| self.engine.slot_span(s)).collect();
        let mut core = Scheduler::new(jobs.collect(), spans, policy, Some(ledger));
        self.work = PrefillWork::default();

        let t0 = Instant::now();
        let now = || t0.elapsed().as_secs_f64();
        let n = requests.len();
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut prefilled_at = vec![0.0f64; n];
        let mut finished_at = vec![0.0f64; n];
        let mut cursor = 0usize;
        let mut shed: Vec<ServeError> = Vec::new();
        let mut is_shed = vec![false; n];
        let mut forced = std::mem::take(&mut self.preempt_plan);
        let mut active: Vec<Option<Active>> = (0..cap).map(|_| None).collect();
        let mut step_log: Vec<(usize, f64)> = Vec::new();
        let mut occupancy_sum = 0usize;
        let mut recovery = RecoveryStats::default();
        let mut steps_done = 0usize;
        let mut peak_live = 0usize;
        let mut decode_work = DecodeWork::default();

        loop {
            while cursor < n && requests[cursor].arrival <= now() {
                core.arrive(cursor);
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
                if core.preempt(slot).is_some() {
                    active[slot] = None;
                    self.engine.evict_slot(slot);
                }
            }

            // A waiting request's TTFT so far is the time it has waited.
            for record in core.shed(|idx| now() - requests[idx].arrival) {
                is_shed[record.index] = true;
                shed.push(ServeError::Overloaded { index: record.index, reason: record.reason });
            }

            // Admission at the step boundary; the prefill work of up to
            // `pad` consecutive admissions runs as one group.
            let mut group: Vec<Admission> = Vec::new();
            let mut admitting = true;
            while admitting {
                match core.admit(&group) {
                    Decision::Admit(admission) => group.push(admission),
                    Decision::Preempted { slot, .. } => {
                        active[slot] = None;
                        self.engine.evict_slot(slot);
                        continue;
                    }
                    Decision::Wait => admitting = false,
                    Decision::NeverFits { idx, pages } => {
                        return Err(ServeError::KvBudgetExceeded {
                            index: idx,
                            needed: pages * page_size,
                            budget: self.opts.kv_position_budget.unwrap_or(usize::MAX),
                        });
                    }
                }
                // A group runs when it is full, or when nobody else is
                // admissible and it holds anyone at all.
                let run = group.len() == pad || (!admitting && !group.is_empty());
                if !run {
                    continue;
                }

                let donors = live_prompts(&active, requests);
                let prefilled = match self.prefill_group(requests, &group, &donors, &mut recovery) {
                    Ok(prefilled) => prefilled,
                    Err(err) => {
                        // The call took the engine down: the group goes back
                        // to the front of its class queues, in admission
                        // order, the live slots replay on a rebuilt engine,
                        // and admission starts over.
                        for a in group.drain(..).rev() {
                            core.requeue(&a);
                        }
                        self.recover(requests, &outputs, &mut active, &mut core, &mut recovery, err)?;
                        admitting = true;
                        continue;
                    }
                };
                for (a, last_logits) in group.drain(..).zip(prefilled) {
                    let (idx, req) = (a.idx, &requests[a.idx]);
                    let replaying = !core.start(&a);
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
                    // instead (the decode steps then replay the rest).
                    let tok = sample_row(&mut rng, &last_logits, self.opts.sampling);
                    if replaying {
                        assert_eq!(tok, outputs[idx][0], "request {idx} diverged at replayed token 0");
                    } else {
                        outputs[idx].push(tok);
                    }
                    if !a.holds {
                        finished_at[idx] = now();
                        continue;
                    }
                    active[a.slot] = Some(Active { idx, rng, next_tok: tok });
                }
            }

            let live = active.iter().flatten().count();
            peak_live = peak_live.max(live);
            if live == 0 {
                if cursor >= n && core.waiting() == 0 {
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
                    self.engine.inject_faults(plan);
                }
            }

            // One decode step over the occupied slots; logits come back one
            // row per entry of `rows`, in slot order.
            let rows: Vec<(usize, usize)> = active
                .iter()
                .enumerate()
                .filter_map(|(s, a)| a.as_ref().map(|a| (s, a.next_tok)))
                .collect();
            let carried = self.engine.decode_rows_carried(&rows);
            let t_step = Instant::now();
            let logits = match self.engine.try_decode_rows(&rows) {
                Ok(logits) => logits,
                Err(err) => {
                    self.recover(requests, &outputs, &mut active, &mut core, &mut recovery, err)?;
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
                let Some(a) = &mut active[s] else { unreachable!("rows lists occupied slots") };
                let tok = sample_row(&mut a.rng, row, self.opts.sampling);
                match core.advance(s) {
                    // Replay after a preemption or a recovery: the
                    // recomputed sample must reproduce its recording.
                    Advance::Replayed(pos) => assert_eq!(
                        tok, outputs[a.idx][pos],
                        "request {} diverged at replayed token {pos}",
                        a.idx
                    ),
                    Advance::Emitted => outputs[a.idx].push(tok),
                    Advance::Finished => {
                        outputs[a.idx].push(tok);
                        finished_at[a.idx] = now();
                        active[s] = None;
                        self.engine.evict_slot(s);
                        continue;
                    }
                }
                a.next_tok = tok;
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
        let Some(pages) = core.pages() else { unreachable!("the live scheduler charges pages") };
        let report = ServingReport::new(stats, step_log.len(), occupancy_sum)
            .with_recovery(recovery)
            .with_peak_batch(peak_live)
            .with_kv_pages(pages.min_free(), pages.peak_shared());
        Ok(ServingOutcome {
            report,
            step_log,
            outputs,
            total_generated,
            shed,
            preemptions: core.preemptions(),
            preempted_tokens_replayed: core.replayed_tokens(),
            prefill: self.work,
            decode: decode_work,
        })
    }

    /// Rebuilds the engine after a failed step or prefill call and replays
    /// every in-flight request up to its recorded stream: prompt
    /// re-prefilled into its own slot (original chunking, through the same
    /// group path admissions take), RNG re-seeded, first token re-derived
    /// from the prefill logits. The emitted decode suffix is then re-derived
    /// by the ordinary step loop, which asserts each replayed sample equals
    /// its recording — so a successful recovery is bit-identical by
    /// construction, not by luck. A replay call that fails counts as one
    /// more fault and starts the rebuild over.
    fn recover(
        &mut self,
        requests: &[ServingRequest],
        outputs: &[Vec<usize>],
        active: &mut [Option<Active>],
        core: &mut Scheduler,
        recovery: &mut RecoveryStats,
        mut err: EngineError,
    ) -> Result<(), ServeError> {
        let t = Instant::now();
        core.restart();
        // Slots come back in slot order, a group at a time; a slot is a
        // donor again once its KV is back in the rebuilt engine.
        let replay: Vec<Admission> = active
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, entry)| entry.take().map(|a| Admission { idx: a.idx, slot, holds: true }))
            .collect();
        recovery.steps_lost += replay.iter().map(|a| outputs[a.idx].len() - 1).max().unwrap_or(0);
        'rebuild: loop {
            recovery.faults += 1;
            if recovery.faults > self.max_recoveries {
                return Err(ServeError::RecoveryLimit { faults: recovery.faults, last: err });
            }
            self.engine = build_engine(&self.model, self.layout, self.fmt, &self.opts, self.deadline);
            self.engine.begin_slots(self.opts.max_decode_batch, 0);
            active.iter_mut().for_each(|a| *a = None);
            for group in replay.chunks(self.engine.min_batch()) {
                let donors = live_prompts(active, requests);
                let prefilled = match self.prefill_group(requests, group, &donors, recovery) {
                    Ok(prefilled) => prefilled,
                    Err(e) => {
                        err = e;
                        continue 'rebuild;
                    }
                };
                for (&Admission { idx, slot, .. }, last_logits) in group.iter().zip(prefilled) {
                    let req = &requests[idx];
                    let emitted = &outputs[idx];
                    let mut rng = StdRng::seed_from_u64(req.seed);
                    let tok0 = sample_row(&mut rng, &last_logits, self.opts.sampling);
                    assert_eq!(tok0, emitted[0], "request {idx} diverged at replayed token 0");
                    active[slot] = Some(Active { idx, rng, next_tok: tok0 });
                    recovery.requests_replayed += 1;
                    recovery.prefill_tokens_replayed += req.prompt.len();
                    recovery.decode_tokens_replayed += emitted.len() - 1;
                }
            }
            recovery.recovery_seconds += t.elapsed().as_secs_f64();
            return Ok(());
        }
    }

    /// Prefills `group` — up to a minimum batch of consecutive admissions,
    /// in admission order — straight into the slots admission chose, and
    /// returns each one's last-position logits. This is the only way the
    /// scheduler runs prefill: admissions, preemption replays and fault
    /// replays all come through here.
    ///
    /// A row starts from its *donor*: the slot of `live` (occupied slots,
    /// by the prompt whose KV they hold) sharing the longest whole-page
    /// prefix with the prompt, lowest slot among equals. The donor's first
    /// `hit` positions seed the row's slot and only `prompt[hit..]` runs.
    /// Rows of one call are independent and a seeded position holds the
    /// bits the row would have computed itself (the invariant prefix
    /// sharing already rests on), so logits and KV equal a full batch-1
    /// prefill's bit for bit, whatever the other rows' lengths: a call's
    /// rows carry only their own suffixes, and padding them costs nothing.
    ///
    /// A call carries at most one row per span of slots, taken in
    /// admission order. The leader rule: a row whose whole-page prefix hit
    /// against an earlier row of the group that keeps its slot (its
    /// *leader*, the longest such hit, earliest among equals) beats its
    /// best live donor by at least a page waits for a call after its
    /// leader's, and is seeded from the leader's slot. So a cold prefix the
    /// group shares is computed once, by the leader, and its followers run
    /// only their own tails. A failed call charges its prompts to
    /// [`RecoveryStats::prefill_tokens_replayed`]; the caller recovers.
    fn prefill_group(
        &mut self,
        requests: &[ServingRequest],
        group: &[Admission],
        live: &[(usize, &[usize])],
        recovery: &mut RecoveryStats,
    ) -> Result<Vec<Vec<f32>>, EngineError> {
        let page = self.engine.kv_page_size();
        let mut rows: Vec<PrefillRow> = Vec::with_capacity(group.len());
        for a in group {
            let prompt = requests[a.idx].prompt.as_slice();
            let (hit, donor) = best_hit(prompt, live.iter().copied(), page);
            let placed = rows.iter().enumerate().filter(|(_, r)| r.holds).map(|(j, r)| (j, r.prompt));
            let (lead, j) = best_hit(prompt, placed, page);
            let (hit, donor, leader) =
                if lead >= hit + page { (lead, rows[j].slot, Some(j)) } else { (hit, donor, None) };
            let span = self.engine.slot_span(a.slot);
            rows.push(PrefillRow { prompt, slot: a.slot, span, holds: a.holds, hit, donor, leader });
        }
        let mut last: Vec<Vec<f32>> = vec![Vec::new(); rows.len()];
        let mut pending: Vec<usize> = (0..rows.len()).collect();
        // The first pending row's leader is always done, so every call
        // carries a row.
        while !pending.is_empty() {
            let mut call: Vec<usize> = Vec::new();
            for &i in &pending {
                let ready = rows[i].leader.is_none_or(|j| !pending.contains(&j));
                if ready && call.iter().all(|&c| rows[c].span != rows[i].span) {
                    call.push(i);
                }
            }
            pending.retain(|i| !call.contains(i));
            let call_rows: Vec<&PrefillRow> = call.iter().map(|&i| &rows[i]).collect();
            match self.prefill_call(&call_rows) {
                Ok(logits) => {
                    for (&i, logits) in call.iter().zip(logits) {
                        last[i] = logits;
                    }
                }
                Err(err) => {
                    recovery.prefill_tokens_replayed +=
                        call_rows.iter().map(|r| r.prompt.len()).sum::<usize>();
                    return Err(err);
                }
            }
        }
        Ok(last)
    }

    /// One engine call over `rows` (at most one per span; filler rows fill
    /// the rest), honoring the chunked-prefill option: every row is seeded
    /// into its slot and runs its own suffix, chunk by chunk, in the calls
    /// its suffix reaches. Returns each row's logits at its own last prompt
    /// position, after settling the row: a request keeping its slot holds
    /// exactly its prompt's KV there (prompt pages registered for sharing),
    /// a request ending at its first token leaves the slot empty again.
    fn prefill_call(&mut self, rows: &[&PrefillRow]) -> Result<Vec<Vec<f32>>, EngineError> {
        let v = self.engine.config().vocab;
        for row in rows {
            if row.hit > 0 {
                let mut seed = self.engine.extract_kv(row.donor);
                seed.truncate(row.hit);
                self.engine.insert_kv_shared(row.slot, &seed, &row.prompt[..row.hit]);
            }
        }
        // Admission rejects empty prompts and a hit stops short of the last
        // token, so every suffix is non-empty and `last` is set for every
        // row on the Ok path.
        let suffixes: Vec<&[usize]> = rows.iter().map(|r| &r.prompt[r.hit..]).collect();
        let longest = suffixes.iter().map(|s| s.len()).max().unwrap_or(0);
        let chunk = self.opts.prefill_chunk.unwrap_or(longest).max(1);
        let mut last: Vec<Vec<f32>> = vec![Vec::new(); rows.len()];
        for start in (0..longest).step_by(chunk) {
            let (at, pass): (Vec<usize>, Vec<(usize, &[usize])>) = (0..rows.len())
                .filter(|&r| suffixes[r].len() > start)
                .map(|r| (r, (rows[r].slot, &suffixes[r][start..suffixes[r].len().min(start + chunk)])))
                .unzip();
            let logits = self.engine.try_prefill_rows(&pass)?; // [pass.len(), l, V]
            self.work.calls += 1;
            let l = logits.dim(1);
            for (p, (&r, (_, tokens))) in at.iter().zip(&pass).enumerate() {
                if start + tokens.len() == suffixes[r].len() {
                    let at = (p * l + tokens.len() - 1) * v;
                    last[r] = logits.data()[at..at + v].to_vec();
                }
            }
        }
        for row in rows {
            if row.holds {
                self.engine.register_slot(row.slot, row.prompt);
            } else {
                self.engine.evict_slot(row.slot);
            }
        }
        let pad = self.engine.min_batch();
        self.work.rows += pad;
        self.work.filler_rows += pad - rows.len();
        self.work.tokens_reused += rows.iter().map(|r| r.hit).sum::<usize>();
        self.work.tokens_computed += suffixes.iter().map(|s| s.len()).sum::<usize>();
        Ok(last)
    }
}
