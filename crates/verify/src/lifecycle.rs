//! Pass 6 — continuous-batching slot lifecycle.
//!
//! Models the [`ContinuousBatcher`](esti_runtime::ContinuousBatcher) serve
//! loop — admission → prefill → decode slot → evict, with fault-triggered
//! replay, priority-first admission, preemption, and replica drains — as an
//! explicit state machine parameterized by the scheduler's own
//! [`BatcherSpec`], and explores it over a bounded family of abstract
//! request traces (mixed generation lengths, queue depths past the slot
//! cap, mid-decode faults, budget-exhausting fault bursts, late-arriving
//! high-priority work, mid-run replica drains). The machine is abstract
//! over token *values* — it tracks, per request, how many tokens are
//! recorded and where the replay cursor stands — which is exactly the
//! state the real scheduler's invariants quantify over:
//!
//! * **no double-occupied slot** — admission only ever fills an empty slot;
//! * **evict only complete** — a slot is released only when its request's
//!   cursor has consumed `max_new_tokens` tokens;
//! * **replay cursor exact** — after a recovery the cursor restarts at
//!   [`BatcherSpec::replay_restarts_at`] (decode replay can never re-derive
//!   the prefill-produced token 0), advances by one per step, replays
//!   (asserts) while behind the recording, and appends past it — so a
//!   request's recording never exceeds `max_new_tokens`;
//! * **recovery budget respected** — a fault past
//!   [`BatcherSpec::max_recoveries`] must surface as a
//!   [`TraceOutcome::RecoveryLimit`], never be absorbed silently;
//! * **preemption replays** — when [`BatcherSpec::preemption`] is set, a
//!   strictly higher class may evict a strictly lower victim; the victim
//!   keeps its recording and must resume with its cursor back at the
//!   replay boundary (resuming at the recording head would leave the
//!   re-prefilled KV cache without the recorded suffix);
//! * **no starvation** — every queued request is eventually admitted; a
//!   scheduler that never serves the low class trips the liveness check;
//! * **drain conservation** — a replica drain evicts every in-flight
//!   request back to the queue with its recording intact (the router
//!   re-dispatches and replays); losing one is caught by request
//!   accounting.
//!
//! [`Defect`] seeds one mutation into the machine (admit into an occupied
//! slot, evict one token early, rewind the replay cursor to 0, ignore the
//! budget, skip the replay after preemption, starve the low class, drop
//! requests at a drain); the unit tests prove each seeded defect is
//! rejected by the corresponding invariant, so the pass demonstrably
//! checks what it claims.

use std::collections::VecDeque;
use std::fmt;

use esti_core::serving::Priority;
use esti_runtime::BatcherSpec;

/// One abstract request: its generation length drives the slot machine,
/// its prompt shape drives the page-pool model, and its class/arrival
/// drive the priority scheduler (token *values* stay opaque — sharing is
/// abstracted as "the first `shared_prefix` tokens are common to every
/// request in the trace").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractRequest {
    /// Tokens the request generates (0 and 1 complete at admission).
    pub max_new_tokens: usize,
    /// Prompt length in tokens (pool model only).
    pub prompt_len: usize,
    /// Leading prompt tokens shared with every other request in the trace;
    /// full pages inside this prefix are refcounted, not copied.
    pub shared_prefix: usize,
    /// Scheduling class: admission is priority-first, FIFO within a class.
    pub priority: Priority,
    /// Successful-step count at which the request arrives (0 = at start).
    pub arrive_at: usize,
}

impl AbstractRequest {
    /// A request with a default-shaped private prompt (the slot-machine
    /// invariants don't depend on prompt shape).
    #[must_use]
    pub fn new(max_new_tokens: usize) -> Self {
        AbstractRequest {
            max_new_tokens,
            prompt_len: 8,
            shared_prefix: 0,
            priority: Priority::Normal,
            arrive_at: 0,
        }
    }

    /// A request with an explicit prompt shape (pool-model traces).
    #[must_use]
    pub fn with_prompt(max_new_tokens: usize, prompt_len: usize, shared_prefix: usize) -> Self {
        assert!(shared_prefix <= prompt_len, "shared prefix cannot exceed the prompt");
        AbstractRequest { prompt_len, shared_prefix, ..AbstractRequest::new(max_new_tokens) }
    }

    /// The same request at an explicit priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request arriving at successful-step count `step`.
    #[must_use]
    pub fn arriving_at(mut self, step: usize) -> Self {
        self.arrive_at = step;
        self
    }
}

/// One abstract serving trace: requests (with arrival steps) plus the
/// decode steps at which a fault or a replica drain strikes (indexed by
/// *successful* step count, matching the scheduler's
/// `schedule_decode_fault`; repeats model back-to-back events).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Requests in arrival order.
    pub requests: Vec<AbstractRequest>,
    /// Successful-step counts at which a decode fault strikes, sorted.
    pub faults_at: Vec<usize>,
    /// Successful-step counts at which the serving replica drains: every
    /// in-flight request is re-queued (recording intact) for re-dispatch,
    /// modeling the router's fault-aware failover.
    pub drains_at: Vec<usize>,
}

/// A seeded scheduler mutation, for tests that prove the pass rejects
/// exactly the bug each invariant exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Admission targets slot 0 unconditionally, clobbering its occupant.
    DoubleAdmit,
    /// Completion fires one token early, evicting an unfinished request.
    EvictIncomplete,
    /// Recovery rewinds the replay cursor to 0 instead of
    /// [`BatcherSpec::replay_restarts_at`].
    ReplayRewind,
    /// Recovery proceeds past [`BatcherSpec::max_recoveries`].
    IgnoreBudget,
    /// Eviction frees a slot's shared prefix pages unconditionally instead
    /// of only at the last reference — the classic refcounting bug a paged
    /// KV pool must not have.
    DoubleFreeSharedPage,
    /// Preemption discards the victim's replay obligation: re-admission
    /// resumes at the recording head instead of replaying from
    /// [`BatcherSpec::replay_restarts_at`], so the re-prefilled KV cache
    /// never contains the recorded suffix.
    PreemptWithoutReplayCursor,
    /// Admission never serves the low-priority class, even with free slots.
    StarveLowPriorityForever,
    /// A replica drain drops its in-flight requests instead of re-queueing
    /// them for re-dispatch.
    LoseRequestOnReplicaDrain,
}

/// How one trace run ended (both are legitimate terminals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Every request completed with exactly its `max_new_tokens` recorded.
    Completed {
        /// Successful decode steps taken.
        steps: usize,
        /// Recoveries absorbed.
        recoveries: usize,
        /// Preemptions performed (victims evicted and later replayed).
        preemptions: usize,
    },
    /// A fault broke the recovery budget and was surfaced, mirroring
    /// `ServeError::RecoveryLimit`.
    RecoveryLimit {
        /// Faults seen, including the one over budget.
        faults: usize,
    },
}

/// An invariant violation found while exploring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// Admission placed a request into an occupied slot.
    DoubleOccupied {
        /// The slot written twice.
        slot: usize,
        /// Request already holding the slot.
        incumbent: usize,
        /// Request admitted over it.
        admitted: usize,
    },
    /// A slot was released before its request consumed all its tokens.
    EvictedIncomplete {
        /// The evicted request.
        request: usize,
        /// Tokens consumed at eviction.
        consumed: usize,
        /// Tokens the request was due.
        want: usize,
    },
    /// Recovery rewound a replay cursor below the prefill boundary: decode
    /// replay cannot re-derive the prefill-produced token 0.
    ReplayRewound {
        /// The replayed request.
        request: usize,
        /// Where the cursor restarted.
        cursor: usize,
        /// Where the spec says it must restart.
        must_restart_at: usize,
    },
    /// A preempted or drained request resumed with its cursor past the
    /// replay boundary: its recorded suffix would never be re-derived into
    /// the rebuilt KV cache.
    ReplaySkipped {
        /// The resumed request.
        request: usize,
        /// Where the cursor resumed.
        cursor: usize,
        /// Where the spec says it must restart.
        must_restart_at: usize,
    },
    /// A recording grew past the request's `max_new_tokens`.
    OverGeneration {
        /// The offending request.
        request: usize,
        /// Tokens recorded.
        recorded: usize,
        /// The request's cap.
        want: usize,
    },
    /// Recovery was attempted with the fault count already past the budget.
    BudgetIgnored {
        /// Faults absorbed so far.
        faults: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A replica drain dropped an in-flight request: it is neither
    /// finished nor queued anywhere for re-dispatch.
    RequestLost {
        /// The dropped request.
        request: usize,
    },
    /// Eviction freed a shared page other requests still reference.
    SharedPageDoubleFreed {
        /// Index of the page inside the shared prefix region.
        page: usize,
        /// References still outstanding when the free happened.
        refs: usize,
    },
    /// Admission charged the page pool past its budget instead of
    /// deferring the request.
    PoolOverflow {
        /// Pages charged.
        used: usize,
        /// The configured pool budget.
        budget: usize,
    },
    /// The machine exceeded its step bound or idled with work queued —
    /// requests are starving.
    Stuck {
        /// Steps taken when the bound tripped.
        steps: usize,
    },
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::DoubleOccupied { slot, incumbent, admitted } => write!(
                f,
                "lifecycle: request {admitted} admitted into slot {slot} still held by \
                 request {incumbent}"
            ),
            LifecycleError::EvictedIncomplete { request, consumed, want } => write!(
                f,
                "lifecycle: request {request} evicted after {consumed}/{want} tokens"
            ),
            LifecycleError::ReplayRewound { request, cursor, must_restart_at } => write!(
                f,
                "lifecycle: request {request} replay cursor restarted at {cursor}, must be \
                 {must_restart_at} (token 0 is prefill-produced)"
            ),
            LifecycleError::ReplaySkipped { request, cursor, must_restart_at } => write!(
                f,
                "lifecycle: request {request} resumed at cursor {cursor}, skipping the replay \
                 from {must_restart_at} that rebuilds its KV cache"
            ),
            LifecycleError::OverGeneration { request, recorded, want } => write!(
                f,
                "lifecycle: request {request} recorded {recorded} tokens, cap {want}"
            ),
            LifecycleError::BudgetIgnored { faults, budget } => write!(
                f,
                "lifecycle: recovery proceeded at fault {faults} past budget {budget}"
            ),
            LifecycleError::RequestLost { request } => write!(
                f,
                "lifecycle: request {request} lost at replica drain — neither finished nor \
                 queued for re-dispatch"
            ),
            LifecycleError::SharedPageDoubleFreed { page, refs } => write!(
                f,
                "lifecycle: shared page {page} freed with {refs} references outstanding"
            ),
            LifecycleError::PoolOverflow { used, budget } => write!(
                f,
                "lifecycle: page pool charged to {used} past its budget of {budget}"
            ),
            LifecycleError::Stuck { steps } => {
                write!(f, "lifecycle: no completion after {steps} steps")
            }
        }
    }
}

/// Successful bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleReport {
    /// Abstract traces explored.
    pub traces: usize,
    /// Total successful decode steps simulated.
    pub steps: usize,
    /// Total recoveries absorbed.
    pub recoveries: usize,
    /// Total preemptions performed (and replayed to completion).
    pub preemptions: usize,
    /// Traces that (correctly) terminated at the recovery limit.
    pub recovery_limits: usize,
}

/// A request's slot, mirroring the scheduler's `Active` plus its page
/// claim.
#[derive(Debug, Clone, Copy)]
struct Slot {
    idx: usize,
    /// Position of the next sample (`Active::consumed`).
    cursor: usize,
    /// Full shared-prefix pages this slot references.
    shared_pages: usize,
    /// Pages owned by this slot alone (private prompt tail + worst-case
    /// decode growth, charged at admission like the scheduler's ledger).
    private_pages: usize,
}

/// The refcounted page pool the machine models at
/// [`BatcherSpec::page_size`]: per-shared-page reference counts
/// (page `i` covers shared tokens `[i*S, (i+1)*S)`) plus a total-usage
/// counter gated by [`BatcherSpec::pool_pages`].
#[derive(Debug, Default)]
struct Pool {
    shared_refs: Vec<usize>,
    used: usize,
}

impl Pool {
    /// `(shared pages, private pages, admission charge)` for one request —
    /// already-referenced shared pages charge nothing.
    fn plan(&self, r: &AbstractRequest, page_size: usize) -> (usize, usize, usize) {
        let total = (r.prompt_len + r.max_new_tokens).div_ceil(page_size);
        let shared = (r.shared_prefix / page_size).min(total);
        let private = total - shared;
        let new_shared =
            (0..shared).filter(|&p| self.shared_refs.get(p).is_none_or(|&c| c == 0)).count();
        (shared, private, new_shared + private)
    }

    fn admit(&mut self, shared: usize, private: usize) {
        if self.shared_refs.len() < shared {
            self.shared_refs.resize(shared, 0);
        }
        for p in 0..shared {
            if self.shared_refs[p] == 0 {
                self.used += 1;
            }
            self.shared_refs[p] += 1;
        }
        self.used += private;
    }

    /// Releases a slot's claim; `defect` frees shared pages eagerly, which
    /// the refcount check turns into the invariant violation.
    fn release(
        &mut self,
        slot: &Slot,
        double_free: bool,
    ) -> Result<(), LifecycleError> {
        for p in 0..slot.shared_pages {
            let refs = self.shared_refs[p];
            if double_free && refs > 1 {
                return Err(LifecycleError::SharedPageDoubleFreed { page: p, refs });
            }
            self.shared_refs[p] -= 1;
            if self.shared_refs[p] == 0 {
                self.used -= 1;
            }
        }
        self.used -= slot.private_pages;
        Ok(())
    }
}

/// Run one trace through the slot machine described by `spec`, optionally
/// seeding one `defect`, checking every invariant along the way.
///
/// # Errors
///
/// The first [`LifecycleError`] observed.
#[allow(clippy::too_many_lines)] // one function = one faithful serve loop.
pub fn run_trace(
    spec: &BatcherSpec,
    trace: &Trace,
    defect: Option<Defect>,
) -> Result<TraceOutcome, LifecycleError> {
    assert!(spec.slots > 0, "slot machine needs at least one slot");
    let n = trace.requests.len();
    let mut recorded = vec![0usize; n];
    let mut finished = vec![false; n];
    let mut future: VecDeque<usize> = {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| trace.requests[i].arrive_at);
        order.into()
    };
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut active: Vec<Option<Slot>> = vec![None; spec.slots];
    let mut faults: VecDeque<usize> = trace.faults_at.iter().copied().collect();
    let mut drains: VecDeque<usize> = trace.drains_at.iter().copied().collect();
    let mut faults_used = 0usize;
    let mut steps_done = 0usize;
    let mut recoveries = 0usize;
    let mut preemptions = 0usize;
    let mut pool = Pool::default();

    // Liveness bound: every request needs at most max_new_tokens steps;
    // every recovery, drain, and preemption can replay them all once more.
    let work: usize = trace.requests.iter().map(|r| r.max_new_tokens).sum();
    let disruptions = trace.faults_at.len() + trace.drains_at.len() + n;
    let bound = (work + 1) * (disruptions + 1) + n + 1;
    let mut attempts = 0usize;

    loop {
        // Arrivals whose step has come join the queue (FIFO within class).
        while let Some(&idx) = future.front() {
            if trace.requests[idx].arrive_at > steps_done {
                break;
            }
            future.pop_front();
            pending.push_back(idx);
        }

        // Replica drain? Every in-flight request is evicted back to the
        // *front* of the queue with its recording intact — the router
        // re-dispatches it to a healthy replica, which replays. The
        // defective machine drops them; request conservation catches it.
        if drains.front() == Some(&steps_done) {
            drains.pop_front();
            let mut evicted: Vec<usize> = Vec::new();
            for slot in &mut active {
                if let Some(s) = slot.take() {
                    pool.release(&s, false)?;
                    evicted.push(s.idx);
                }
            }
            if defect != Some(Defect::LoseRequestOnReplicaDrain) {
                for &idx in evicted.iter().rev() {
                    pending.push_front(idx);
                }
            }
            for (idx, done) in finished.iter().enumerate() {
                if !done && !pending.contains(&idx) && !future.contains(&idx) {
                    return Err(LifecycleError::RequestLost { request: idx });
                }
            }
        }

        // Admission at the step boundary: highest waiting class first,
        // FIFO within a class; when no slot is free a strictly higher
        // class may preempt a strictly lower victim.
        loop {
            let mut picked: Option<usize> = None; // position in `pending`
            for &class in Priority::ALL.iter().rev() {
                if class == Priority::Low && defect == Some(Defect::StarveLowPriorityForever) {
                    continue;
                }
                picked = pending.iter().position(|&i| trace.requests[i].priority == class);
                if picked.is_some() {
                    break;
                }
            }
            let Some(mut pos) = picked else { break };
            let idx = pending[pos];
            let class = trace.requests[idx].priority;
            let slot = if defect == Some(Defect::DoubleAdmit) {
                Some(0)
            } else {
                active.iter().position(Option::is_none)
            };
            let slot = match slot {
                Some(s) => s,
                None if spec.preemption => {
                    // Victim: the strictly lower-priority occupant with the
                    // least recorded progress (cheapest replay), evicted
                    // back to the queue front with its recording intact.
                    let victim = active
                        .iter()
                        .enumerate()
                        .filter_map(|(s, e)| e.as_ref().map(|e| (s, e.idx)))
                        .filter(|&(_, v)| trace.requests[v].priority < class)
                        .min_by_key(|&(s, v)| (trace.requests[v].priority, recorded[v], s));
                    let Some((s, _)) = victim else { break };
                    if let Some(e) = active[s].take() {
                        pool.release(&e, false)?;
                        pending.push_front(e.idx);
                        pos += 1; // the pick shifted right by the push_front
                        preemptions += 1;
                    }
                    s
                }
                None => break,
            };
            let want = trace.requests[idx].max_new_tokens;
            let occupies = want > usize::from(spec.prefill_emits_first_token);
            // Page-pool admission gate, mirroring the scheduler's ledger:
            // requests that will occupy a slot charge their unshared pages
            // (worst case, prompt plus full generation) and defer when the
            // budget cannot cover them.
            let mut claim = (0usize, 0usize);
            if occupies {
                let (shared, private, charge) = pool.plan(&trace.requests[idx], spec.page_size);
                if let Some(budget) = spec.pool_pages {
                    if pool.used + charge > budget {
                        if active.iter().all(Option::is_none) {
                            // Alone and still over budget: starvation
                            // (arrivals only add load, never free pages).
                            return Err(LifecycleError::Stuck { steps: steps_done });
                        }
                        break; // Defer until eviction frees pages.
                    }
                }
                claim = (shared, private);
            }
            pending.remove(pos);
            // A resumed request (preempted or drained victim) keeps its
            // recording; only a first admission's prefill emits token 0.
            let resumed = recorded[idx] > 0;
            if !resumed && spec.prefill_emits_first_token && want > 0 {
                recorded[idx] += 1;
            }
            if !occupies {
                // Completes at admission; never occupies a decode slot.
                finished[idx] = true;
                continue;
            }
            if let Some(incumbent) = active[slot] {
                return Err(LifecycleError::DoubleOccupied {
                    slot,
                    incumbent: incumbent.idx,
                    admitted: idx,
                });
            }
            pool.admit(claim.0, claim.1);
            if let Some(budget) = spec.pool_pages {
                if pool.used > budget {
                    return Err(LifecycleError::PoolOverflow { used: pool.used, budget });
                }
            }
            let cursor = if resumed {
                if defect == Some(Defect::PreemptWithoutReplayCursor) {
                    recorded[idx] // skip the replay entirely
                } else {
                    spec.replay_restarts_at
                }
            } else {
                usize::from(spec.prefill_emits_first_token)
            };
            // Replay-boundary invariant: a resumed request with recorded
            // decode tokens must restart at the spec boundary and replay
            // its suffix into the rebuilt KV cache.
            if resumed
                && recorded[idx] > spec.replay_restarts_at
                && cursor != spec.replay_restarts_at
            {
                return Err(LifecycleError::ReplaySkipped {
                    request: idx,
                    cursor,
                    must_restart_at: spec.replay_restarts_at,
                });
            }
            active[slot] =
                Some(Slot { idx, cursor, shared_pages: claim.0, private_pages: claim.1 });
        }

        if active.iter().all(Option::is_none) {
            if pending.is_empty() && future.is_empty() {
                break;
            }
            if pending.is_empty() {
                // Idle gap before the next arrival: jump the step clock.
                if let Some(next) = future.iter().map(|&i| trace.requests[i].arrive_at).min() {
                    steps_done = steps_done.max(next);
                }
                attempts += 1;
                if attempts > bound {
                    return Err(LifecycleError::Stuck { steps: steps_done });
                }
                continue;
            }
            // Work is queued, slots are free, yet nothing was admitted:
            // the scheduler is starving its queue.
            return Err(LifecycleError::Stuck { steps: steps_done });
        }

        attempts += 1;
        if attempts > bound {
            return Err(LifecycleError::Stuck { steps: steps_done });
        }

        // Mid-decode fault? Strike before the step completes.
        if faults.front() == Some(&steps_done) {
            faults.pop_front();
            faults_used += 1;
            if faults_used > spec.max_recoveries {
                if defect == Some(Defect::IgnoreBudget) {
                    return Err(LifecycleError::BudgetIgnored {
                        faults: faults_used,
                        budget: spec.max_recoveries,
                    });
                }
                return Ok(TraceOutcome::RecoveryLimit { faults: faults_used });
            }
            recoveries += 1;
            // Rebuild + replay: every in-flight request keeps its slot and
            // recording; its cursor restarts at the replay boundary.
            for entry in active.iter_mut().flatten() {
                let restart = if defect == Some(Defect::ReplayRewind) {
                    0
                } else {
                    spec.replay_restarts_at
                };
                if spec.prefill_emits_first_token
                    && recorded[entry.idx] > 0
                    && restart < spec.replay_restarts_at
                {
                    return Err(LifecycleError::ReplayRewound {
                        request: entry.idx,
                        cursor: restart,
                        must_restart_at: spec.replay_restarts_at,
                    });
                }
                entry.cursor = restart;
            }
            continue; // retry the step
        }

        // One decode step over the occupied slots.
        steps_done += 1;
        for slot in &mut active {
            let Some(s) = slot else { continue };
            let idx = s.idx;
            let want = trace.requests[idx].max_new_tokens;
            if s.cursor < recorded[idx] {
                // Replay: the recomputed sample is asserted against its
                // recording; nothing is appended.
            } else {
                recorded[idx] += 1;
                if recorded[idx] > want {
                    return Err(LifecycleError::OverGeneration {
                        request: idx,
                        recorded: recorded[idx],
                        want,
                    });
                }
            }
            s.cursor += 1;
            let done_at = if defect == Some(Defect::EvictIncomplete) {
                want.saturating_sub(1)
            } else {
                want
            };
            if s.cursor >= done_at {
                // Eviction: the invariant the pass enforces.
                if s.cursor < want || recorded[idx] < want {
                    return Err(LifecycleError::EvictedIncomplete {
                        request: idx,
                        consumed: s.cursor,
                        want,
                    });
                }
                finished[idx] = true;
                if let Some(s) = slot.take() {
                    pool.release(&s, defect == Some(Defect::DoubleFreeSharedPage))?;
                }
            }
        }
    }

    for idx in 0..n {
        let want = trace.requests[idx].max_new_tokens;
        if !finished[idx] || recorded[idx] != want {
            return Err(LifecycleError::Stuck { steps: steps_done });
        }
    }
    Ok(TraceOutcome::Completed { steps: steps_done, recoveries, preemptions })
}

/// The bounded trace family `check_lifecycle` explores: generation-length
/// mixes around the slot cap (including admission-complete lengths 0 and 1
/// interleaved with long runs), fault-free runs, single faults at each
/// early step, fault bursts, a budget-exhausting burst, late-arriving
/// high-priority work that preempts a low fleet, three-class mixes, and
/// mid-run replica drains (alone and stacked with faults or preemption).
fn builtin_traces(spec: &BatcherSpec) -> Vec<Trace> {
    let s = spec.slots;
    let length_sets: Vec<Vec<usize>> = vec![
        vec![1],
        vec![0],
        vec![3],
        vec![0, 1, 2, 3],
        vec![4; s + 2],              // queue deeper than the slot cap
        (0..=s + 1).collect(),       // staggered completions free slots mid-run
        vec![2, 5, 1, 4, 0, 3],
    ];
    let fault_sets: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],
        vec![1],
        vec![2],
        vec![0, 0],                  // back-to-back faults on one step
        vec![1, 2],
        vec![0; spec.max_recoveries + 1], // must trip the budget
    ];
    let mut traces = Vec::new();
    for lengths in &length_sets {
        for faults in &fault_sets {
            traces.push(Trace {
                requests: lengths.iter().map(|&l| AbstractRequest::new(l)).collect(),
                faults_at: faults.clone(),
                drains_at: vec![],
            });
        }
    }
    // Priority + preemption: a low fleet fills every slot, then a
    // high-priority request arrives mid-run and (with spec.preemption)
    // evicts the least-progressed victim, which later replays. Stacked
    // with faults so replay-after-preemption and replay-after-recovery
    // interleave.
    let low_fleet = |len: usize| -> Vec<AbstractRequest> {
        (0..s).map(|_| AbstractRequest::new(len).with_priority(Priority::Low)).collect()
    };
    for faults in [vec![], vec![2], vec![2, 2]] {
        let mut reqs = low_fleet(6);
        reqs.push(AbstractRequest::new(3).with_priority(Priority::High).arriving_at(1));
        traces.push(Trace { requests: reqs, faults_at: faults, drains_at: vec![] });
    }
    // Three classes with staggered arrivals: the late high jumps the late
    // low in the queue.
    let mut mixed = vec![AbstractRequest::new(4); s];
    mixed.push(AbstractRequest::new(2).with_priority(Priority::High).arriving_at(1));
    mixed.push(AbstractRequest::new(2).with_priority(Priority::Low).arriving_at(1));
    traces.push(Trace { requests: mixed, faults_at: vec![], drains_at: vec![] });
    // Replica drains: a full fleet re-queued mid-run, a drain stacked with
    // a later fault, and a drain landing on a preempted fleet.
    traces.push(Trace {
        requests: vec![AbstractRequest::new(4); s + 2],
        faults_at: vec![],
        drains_at: vec![2],
    });
    traces.push(Trace {
        requests: vec![AbstractRequest::new(5); s],
        faults_at: vec![3],
        drains_at: vec![2],
    });
    {
        let mut reqs = low_fleet(6);
        reqs.push(AbstractRequest::new(4).with_priority(Priority::High).arriving_at(1));
        traces.push(Trace { requests: reqs, faults_at: vec![], drains_at: vec![3] });
    }
    // Pooled traces: a shared-prefix fleet deeper than the slot cap, with
    // staggered completions (so shared pages drop references one by one),
    // with a mid-run fault (so replay re-admits against the pool), with a
    // drain (so the whole fleet releases and re-charges), and with a
    // high-priority preemptor (victim pages release and re-charge).
    let page_size = spec.page_size;
    let shared = 2 * page_size;
    let fleet = |lens: &[usize]| -> Vec<AbstractRequest> {
        lens.iter()
            .map(|&l| AbstractRequest::with_prompt(l, shared + page_size / 2 + 1, shared))
            .collect()
    };
    let staggered: Vec<usize> = (2..2 + s + 2).collect();
    let uniform = vec![3; s + 2];
    traces.push(Trace { requests: fleet(&staggered), faults_at: vec![], drains_at: vec![] });
    traces.push(Trace { requests: fleet(&staggered), faults_at: vec![1], drains_at: vec![] });
    traces.push(Trace { requests: fleet(&uniform), faults_at: vec![], drains_at: vec![] });
    traces.push(Trace { requests: fleet(&staggered), faults_at: vec![], drains_at: vec![2] });
    let mut pooled_preempt: Vec<AbstractRequest> = fleet(&vec![5; s])
        .into_iter()
        .map(|r| r.with_priority(Priority::Low))
        .collect();
    pooled_preempt.push(
        AbstractRequest::with_prompt(3, shared + page_size / 2 + 1, shared)
            .with_priority(Priority::High)
            .arriving_at(1),
    );
    traces.push(Trace { requests: pooled_preempt, faults_at: vec![], drains_at: vec![] });
    traces
}

/// Explore the slot machine of `spec` over the builtin bounded trace
/// family with no seeded defect.
///
/// # Errors
///
/// The first [`LifecycleError`] any trace exposes.
pub fn check_lifecycle(spec: &BatcherSpec) -> Result<LifecycleReport, LifecycleError> {
    let mut report = LifecycleReport {
        traces: 0,
        steps: 0,
        recoveries: 0,
        preemptions: 0,
        recovery_limits: 0,
    };
    for trace in builtin_traces(spec) {
        report.traces += 1;
        match run_trace(spec, &trace, None)? {
            TraceOutcome::Completed { steps, recoveries, preemptions } => {
                report.steps += steps;
                report.recoveries += recoveries;
                report.preemptions += preemptions;
            }
            TraceOutcome::RecoveryLimit { .. } => report.recovery_limits += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BatcherSpec {
        BatcherSpec {
            slots: 4,
            max_recoveries: 3,
            prefill_emits_first_token: true,
            replay_restarts_at: 1,
            page_size: esti_runtime::DEFAULT_KV_PAGE_SIZE,
            pool_pages: None,
            preemption: true,
        }
    }

    fn trace(lengths: &[usize], faults: &[usize]) -> Trace {
        Trace {
            requests: lengths.iter().map(|&l| AbstractRequest::new(l)).collect(),
            faults_at: faults.to_vec(),
            drains_at: vec![],
        }
    }

    /// A low fleet filling every slot plus a high-priority request
    /// arriving after two decode steps — the canonical preemption setup.
    fn preemption_trace(s: &BatcherSpec) -> Trace {
        let mut reqs: Vec<AbstractRequest> = (0..s.slots)
            .map(|_| AbstractRequest::new(6).with_priority(Priority::Low))
            .collect();
        reqs.push(AbstractRequest::new(3).with_priority(Priority::High).arriving_at(2));
        Trace { requests: reqs, faults_at: vec![], drains_at: vec![] }
    }

    #[test]
    fn builtin_family_is_clean() {
        let report = check_lifecycle(&spec()).unwrap();
        assert!(report.traces >= 40, "bounded family should be substantial");
        assert!(report.steps > 0);
        assert!(report.recoveries > 0, "mid-decode faults must be exercised");
        assert!(report.preemptions > 0, "priority preemption must be exercised");
        assert!(report.recovery_limits > 0, "budget-exhausting bursts must be exercised");
    }

    #[test]
    fn single_slot_spec_is_clean_too() {
        let one = BatcherSpec { slots: 1, ..spec() };
        check_lifecycle(&one).unwrap();
    }

    #[test]
    fn budget_burst_surfaces_recovery_limit() {
        let s = spec();
        let t = trace(&[5], &[0, 0, 0, 0]); // max_recoveries = 3, 4th fault breaks it
        match run_trace(&s, &t, None).unwrap() {
            TraceOutcome::RecoveryLimit { faults } => assert_eq!(faults, 4),
            other => panic!("expected RecoveryLimit, got {other:?}"),
        }
    }

    #[test]
    fn double_admit_defect_rejected() {
        // The ISSUE's seeded "double-occupied slot" mutation.
        let s = spec();
        let err = run_trace(&s, &trace(&[4, 4], &[]), Some(Defect::DoubleAdmit)).unwrap_err();
        match err {
            LifecycleError::DoubleOccupied { slot, incumbent, admitted } => {
                assert_eq!(slot, 0);
                assert_eq!(incumbent, 0);
                assert_eq!(admitted, 1);
            }
            other => panic!("expected DoubleOccupied, got {other}"),
        }
    }

    #[test]
    fn evict_incomplete_defect_rejected() {
        let s = spec();
        let err =
            run_trace(&s, &trace(&[3], &[]), Some(Defect::EvictIncomplete)).unwrap_err();
        match err {
            LifecycleError::EvictedIncomplete { request, consumed, want } => {
                assert_eq!(request, 0);
                assert_eq!(want, 3);
                assert!(consumed < want, "{consumed} < {want}");
            }
            other => panic!("expected EvictedIncomplete, got {other}"),
        }
    }

    #[test]
    fn replay_rewind_defect_rejected() {
        let s = spec();
        let err = run_trace(&s, &trace(&[4], &[1]), Some(Defect::ReplayRewind)).unwrap_err();
        assert!(
            matches!(err, LifecycleError::ReplayRewound { request: 0, cursor: 0, .. }),
            "got {err}"
        );
    }

    #[test]
    fn ignore_budget_defect_rejected() {
        let s = spec();
        let t = trace(&[5], &[0, 0, 0, 0]);
        let err = run_trace(&s, &t, Some(Defect::IgnoreBudget)).unwrap_err();
        assert!(
            matches!(err, LifecycleError::BudgetIgnored { faults: 4, budget: 3 }),
            "got {err}"
        );
    }

    #[test]
    fn replay_after_fault_reproduces_exactly_the_recording() {
        // A fault mid-stream: the request replays its recorded prefix and
        // still ends with exactly max_new_tokens recorded.
        let s = spec();
        match run_trace(&s, &trace(&[6, 2, 0], &[2]), None).unwrap() {
            TraceOutcome::Completed { recoveries, .. } => assert_eq!(recoveries, 1),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn preemption_evicts_one_victim_and_replays_it_to_completion() {
        // The high arrival finds every slot held by a lower class: exactly
        // one victim is evicted, later re-admitted, and its replayed
        // recording still ends exact (recorded == max_new_tokens is
        // checked for every request at termination).
        let s = spec();
        match run_trace(&s, &preemption_trace(&s), None).unwrap() {
            TraceOutcome::Completed { preemptions, .. } => assert_eq!(preemptions, 1),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn preemption_disabled_spec_waits_instead() {
        let s = BatcherSpec { preemption: false, ..spec() };
        match run_trace(&s, &preemption_trace(&s), None).unwrap() {
            TraceOutcome::Completed { preemptions, .. } => assert_eq!(preemptions, 0),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn preempt_without_replay_cursor_defect_rejected() {
        // The ISSUE's seeded preemption mutation: the victim (3 tokens
        // recorded when evicted) resumes at its recording head instead of
        // replaying from the boundary.
        let s = spec();
        let err =
            run_trace(&s, &preemption_trace(&s), Some(Defect::PreemptWithoutReplayCursor))
                .unwrap_err();
        match err {
            LifecycleError::ReplaySkipped { cursor, must_restart_at, .. } => {
                assert_eq!(must_restart_at, 1);
                assert!(cursor > must_restart_at, "skipped to {cursor}");
            }
            other => panic!("expected ReplaySkipped, got {other}"),
        }
    }

    #[test]
    fn starve_low_priority_forever_defect_rejected() {
        // Two highs complete, slots sit free, and the defective scheduler
        // still never admits the low request: the liveness check trips.
        let s = spec();
        let t = Trace {
            requests: vec![
                AbstractRequest::new(2).with_priority(Priority::High),
                AbstractRequest::new(2).with_priority(Priority::High),
                AbstractRequest::new(3).with_priority(Priority::Low),
            ],
            faults_at: vec![],
            drains_at: vec![],
        };
        let err = run_trace(&s, &t, Some(Defect::StarveLowPriorityForever)).unwrap_err();
        assert!(matches!(err, LifecycleError::Stuck { .. }), "got {err}");
    }

    #[test]
    fn lose_request_on_replica_drain_defect_rejected() {
        // The ISSUE's seeded drain mutation: the drain drops its in-flight
        // requests; conservation catches the first one missing.
        let s = spec();
        let t = Trace {
            requests: vec![AbstractRequest::new(5), AbstractRequest::new(5)],
            faults_at: vec![],
            drains_at: vec![1],
        };
        let err = run_trace(&s, &t, Some(Defect::LoseRequestOnReplicaDrain)).unwrap_err();
        assert!(matches!(err, LifecycleError::RequestLost { request: 0 }), "got {err}");
    }

    #[test]
    fn drain_requeues_every_in_flight_request() {
        // A correct drain loses nothing: the whole fleet is re-queued,
        // replayed, and completes with exact recordings.
        let s = spec();
        let t = Trace {
            requests: vec![AbstractRequest::new(5); 6],
            faults_at: vec![],
            drains_at: vec![2],
        };
        run_trace(&s, &t, None).unwrap();
    }

    #[test]
    fn pool_budget_defers_admission_until_pages_free() {
        // page_size 4, shared prefix 8 (= 2 shared pages). Each request:
        // prompt 8 + max_new 3 → 3 pages total, 1 private. First admission
        // charges 3, later ones 1. Budget 4 fits two concurrent requests;
        // the third must wait for both to finish (its charge re-counts the
        // then-freed shared pages). Deferral serializes: ≥ 4 steps instead
        // of the 2 a parallel run would take.
        let s = BatcherSpec { page_size: 4, pool_pages: Some(4), ..spec() };
        let reqs = vec![AbstractRequest::with_prompt(3, 8, 8); 3];
        let t = Trace { requests: reqs, faults_at: vec![], drains_at: vec![] };
        match run_trace(&s, &t, None).unwrap() {
            TraceOutcome::Completed { steps, .. } => {
                assert!(steps >= 4, "deferred admission must serialize: {steps} steps");
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn oversized_request_starves_instead_of_overflowing() {
        let s = BatcherSpec { page_size: 4, pool_pages: Some(2), ..spec() };
        let t = Trace {
            requests: vec![AbstractRequest::with_prompt(4, 12, 0)],
            faults_at: vec![],
            drains_at: vec![],
        };
        assert!(matches!(run_trace(&s, &t, None), Err(LifecycleError::Stuck { .. })));
    }

    #[test]
    fn double_free_shared_page_defect_rejected() {
        // The ISSUE's seeded refcounting mutation: two requests share two
        // full prefix pages; the short one completes first, and the
        // defective machine frees the shared pages outright while the long
        // one still references them.
        let s = BatcherSpec { page_size: 4, ..spec() };
        let t = Trace {
            requests: vec![
                AbstractRequest::with_prompt(2, 8, 8),
                AbstractRequest::with_prompt(6, 8, 8),
            ],
            faults_at: vec![],
            drains_at: vec![],
        };
        let err = run_trace(&s, &t, Some(Defect::DoubleFreeSharedPage)).unwrap_err();
        match err {
            LifecycleError::SharedPageDoubleFreed { page, refs } => {
                assert_eq!(page, 0);
                assert_eq!(refs, 2);
            }
            other => panic!("expected SharedPageDoubleFreed, got {other}"),
        }
    }

    #[test]
    fn correct_refcounting_passes_where_the_defect_fails() {
        let s = BatcherSpec { page_size: 4, ..spec() };
        let t = Trace {
            requests: vec![
                AbstractRequest::with_prompt(2, 8, 8),
                AbstractRequest::with_prompt(6, 8, 8),
            ],
            faults_at: vec![],
            drains_at: vec![],
        };
        run_trace(&s, &t, None).unwrap();
    }

    #[test]
    fn spec_matches_the_live_scheduler() {
        // Anti-drift: the literal spec the lint sweep uses must be what a
        // real ContinuousBatcher reports.
        use esti_core::planner::decode_layout;
        use esti_core::Machine;
        use esti_model::{ModelConfig, ReferenceModel};
        use esti_runtime::{ContinuousBatcher, ServingOptions, WeightFormat};
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
        let machine = Machine::tpu_v4_slice(4).unwrap();
        let layout = decode_layout(model.config(), &machine);
        let batcher =
            ContinuousBatcher::new(&model, layout, WeightFormat::Exact, ServingOptions::default());
        assert_eq!(batcher.spec(), spec());
    }
}
