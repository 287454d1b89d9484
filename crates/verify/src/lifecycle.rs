//! Pass 6 — the continuous-batching slot lifecycle, checked on the
//! scheduler that ships.
//!
//! [`run_trace`] is the third driver of [`Scheduler`], beside
//! `ContinuousBatcher::try_serve` and `simulate_trace`: every admission,
//! victim, replay position and page charge is the core's. The driver stands
//! in for the engine: it maps each event of an abstract [`Trace`] onto a
//! core call, keeps what a driver owns (its slot table, each request's
//! recording, the recovery budget, the drain), and checks every decision
//! the core returns:
//!
//! * **no double-occupied slot** — an admission only fills an empty slot;
//! * **evict only complete** — a slot frees only once its request recorded
//!   exactly `max_new_tokens` tokens;
//! * **replay exact** — after any prefill a slot replays from position 1,
//!   one position per step, and emits only at the head of its recording;
//! * **recovery budget** — a fault past [`BatcherSpec::max_recoveries`]
//!   surfaces as [`TraceOutcome::RecoveryLimit`];
//! * **conservation** — every arrived, unfinished request waits in the core
//!   or holds a driver slot the core agrees on;
//! * **pages** — the ledger stays within [`BatcherSpec::pool_pages`] and is
//!   empty when a trace completes;
//! * **no starvation** — every request completes within a step bound.
//!
//! A [`Defect`] mutates one core decision before the driver acts on it; the
//! unit tests prove each is rejected by its invariant.

use std::collections::VecDeque;
use std::fmt;

use esti_core::scheduler::{Admission, Advance, Decision, Job, PageLedger, Scheduler};
use esti_core::serving::{OverloadPolicy, Priority};
use esti_runtime::BatcherSpec;

/// One abstract request: its generation length, prompt shape, class and
/// arrival step. The driver turns it into a concrete prompt whose first
/// `shared_prefix` tokens are common to the whole trace and whose tail is
/// its own, so the page ledger sees the sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractRequest {
    /// Tokens the request generates (0 and 1 complete at admission).
    pub max_new_tokens: usize,
    /// Prompt length in tokens (read only by the page ledger).
    pub prompt_len: usize,
    /// Leading prompt tokens shared with every other request in the trace.
    pub shared_prefix: usize,
    /// Scheduling class: admission is priority-first, FIFO within a class.
    pub priority: Priority,
    /// Successful-step count at which the request arrives (0 = at start).
    pub arrive_at: usize,
}

impl AbstractRequest {
    /// A request with an 8-token private prompt.
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

    /// A request with an explicit prompt shape.
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
/// points at which a fault or a replica drain strikes (indexed by
/// *successful* step count, matching the scheduler's
/// `schedule_decode_fault`; repeats model back-to-back events).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Requests in arrival order.
    pub requests: Vec<AbstractRequest>,
    /// Successful-step counts at which a decode fault strikes, sorted.
    pub faults_at: Vec<usize>,
    /// Successful-step counts at which a boundary's prefill call fails (the
    /// first boundary with an admission at or after it): its group is
    /// requeued, then every live slot ahead of it, as in `ContinuousBatcher`.
    pub prefill_faults_at: Vec<usize>,
    /// Successful-step counts at which the serving replica drains: every
    /// in-flight request is re-queued (recording intact) for re-dispatch,
    /// modeling the router's fault-aware failover.
    pub drains_at: Vec<usize>,
}

/// A seeded mutation of a core decision, applied by the driver before it
/// acts, for tests that prove the pass rejects exactly the bug each
/// invariant exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Every admission's slot is rewritten to 0, clobbering its occupant.
    DoubleAdmit,
    /// The last-but-one `Emitted` becomes `Finished`: the slot frees one
    /// token early.
    EvictIncomplete,
    /// The first `Replayed(1)` after a recovery's re-admission becomes
    /// `Replayed(0)`: the replay rewinds onto the prefill-produced token 0.
    ReplayRewind,
    /// Recovery proceeds past [`BatcherSpec::max_recoveries`].
    IgnoreBudget,
    /// A re-admitted victim's first step counts as `Emitted`: it resumes
    /// at its recording head, so the re-prefilled KV cache never holds the
    /// recorded suffix.
    PreemptWithoutReplayCursor,
    /// The low class never reaches the core: its `arrive` is withheld.
    StarveLowPriorityForever,
    /// A replica drain clears the driver's slots without preempting their
    /// requests in the core.
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
    /// A step replayed a position behind the slot's: after a rebuild that
    /// rewinds onto the prefill-produced token 0, which decode replay
    /// cannot re-derive.
    ReplayRewound {
        /// The replayed request.
        request: usize,
        /// The position the step replayed.
        cursor: usize,
        /// The position the slot's KV cache stands at.
        must_restart_at: usize,
    },
    /// A step skipped ahead of the slot's position, e.g. a re-admitted
    /// request emitting at its recording head: its recorded suffix would
    /// never be re-derived into the rebuilt KV cache.
    ReplaySkipped {
        /// The resumed request.
        request: usize,
        /// The position the step claimed.
        cursor: usize,
        /// The position the slot's KV cache stands at.
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
    /// An arrived request is neither finished, waiting in the core, nor
    /// held in a driver slot the core agrees on.
    RequestLost {
        /// The dropped request.
        request: usize,
    },
    /// Admission charged the page ledger past its budget instead of
    /// deferring the request.
    PoolOverflow {
        /// Pages charged.
        used: usize,
        /// The configured pool budget.
        budget: usize,
    },
    /// A trace completed with pages still charged.
    PagesLeaked {
        /// Pages the ledger still counts.
        used: usize,
    },
    /// A request never fits, the step bound tripped, the driver idled with
    /// work queued, or a request ended unfinished — requests are starving.
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
            LifecycleError::EvictedIncomplete { request, consumed, want } => {
                write!(f, "lifecycle: request {request} evicted after {consumed}/{want} tokens")
            }
            LifecycleError::ReplayRewound { request, cursor, must_restart_at } => write!(
                f,
                "lifecycle: request {request} replayed position {cursor}, must be \
                 {must_restart_at} (token 0 is prefill-produced)"
            ),
            LifecycleError::ReplaySkipped { request, cursor, must_restart_at } => write!(
                f,
                "lifecycle: request {request} stepped at position {cursor}, skipping the replay \
                 from {must_restart_at} that rebuilds its KV cache"
            ),
            LifecycleError::OverGeneration { request, recorded, want } => {
                write!(f, "lifecycle: request {request} recorded {recorded} tokens, cap {want}")
            }
            LifecycleError::BudgetIgnored { faults, budget } => {
                write!(f, "lifecycle: recovery proceeded at fault {faults} past budget {budget}")
            }
            LifecycleError::RequestLost { request } => write!(
                f,
                "lifecycle: request {request} lost — neither finished, queued nor in a slot"
            ),
            LifecycleError::PoolOverflow { used, budget } => {
                write!(f, "lifecycle: page ledger charged to {used} past its budget of {budget}")
            }
            LifecycleError::PagesLeaked { used } => {
                write!(f, "lifecycle: {used} pages still charged after every request finished")
            }
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

/// A request in one of the driver's engine slots.
#[derive(Debug, Clone, Copy)]
struct Held {
    idx: usize,
    /// Stream position the slot's next decode step produces: 1 after any
    /// prefill (which derives token 0), then one more per step.
    pos: usize,
    /// A preempted, drained or recovered request re-admitted, before its
    /// first step.
    resumed: bool,
}

/// Run one trace through the scheduler core configured by `spec`,
/// optionally seeding one `defect`, checking every invariant along the way.
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
    use LifecycleError as E;
    assert!(spec.slots > 0, "the scheduler needs at least one slot");
    let reqs = &trace.requests;
    let n = reqs.len();
    // A prompt's first `shared_prefix` tokens are common to the trace.
    let prompt = |(i, r): (usize, &AbstractRequest)| -> Vec<usize> {
        (0..r.prompt_len).map(|p| if p < r.shared_prefix { p } else { usize::MAX - i }).collect()
    };
    let prompts: Vec<Vec<usize>> = reqs.iter().enumerate().map(prompt).collect();
    let jobs = reqs.iter().zip(&prompts);
    let jobs = jobs.map(|(r, p)| Job { class: r.priority, max_new: r.max_new_tokens, prompt: p });
    let policy = OverloadPolicy { preemption: spec.preemption, ..OverloadPolicy::default() };
    let ledger = PageLedger::new(spec.page_size, spec.pool_pages);
    let mut core = Scheduler::new(jobs.collect(), (0..spec.slots).collect(), policy, Some(ledger));

    let mut held: Vec<Option<Held>> = vec![None; spec.slots];
    let mut recorded = vec![0usize; n];
    let mut arrived = vec![false; n];
    let mut finished = vec![false; n];
    let mut future: VecDeque<usize> = {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| reqs[i].arrive_at);
        order.into()
    };
    let mut faults: VecDeque<usize> = trace.faults_at.iter().copied().collect();
    let mut prefill_faults: VecDeque<usize> = trace.prefill_faults_at.iter().copied().collect();
    let mut drains: VecDeque<usize> = trace.drains_at.iter().copied().collect();
    let (mut steps, mut faults_used, mut recoveries, mut preemptions) = (0usize, 0, 0, 0);
    let mut rewind = false;

    // Liveness bound: every request needs at most max_new_tokens steps;
    // every recovery, drain, and preemption can replay them all once more.
    let work: usize = reqs.iter().map(|r| r.max_new_tokens).sum();
    let disruptions = faults.len() + prefill_faults.len() + drains.len() + n;
    let last_arrival = reqs.iter().map(|r| r.arrive_at).max().unwrap_or(0);
    let bound = last_arrival + (work + 1) * (disruptions + 1) + n + 1;

    loop {
        while let Some(&idx) = future.front() {
            if reqs[idx].arrive_at > steps {
                break;
            }
            future.pop_front();
            let low = reqs[idx].priority == Priority::Low;
            if !(low && defect == Some(Defect::StarveLowPriorityForever)) {
                core.arrive(idx);
                arrived[idx] = true;
            }
        }

        // Replica drain: the router re-dispatches every in-flight request,
        // which goes back to the front of its queue (last slot first, so
        // the queue keeps slot order) and replays.
        if drains.front() == Some(&steps) {
            drains.pop_front();
            let lose = defect == Some(Defect::LoseRequestOnReplicaDrain);
            for slot in (0..spec.slots).rev() {
                if held[slot].take().is_some() && !lose {
                    core.preempt(slot);
                }
            }
        }

        // Admission at the step boundary: one prefill group of everything
        // the core admits before it says Wait.
        let mut group = Vec::new();
        loop {
            match core.admit(&group) {
                Decision::Admit(mut a) => {
                    if defect == Some(Defect::DoubleAdmit) {
                        a.slot = 0;
                    }
                    if a.holds {
                        if let Some(h) = held[a.slot] {
                            let (slot, incumbent, admitted) = (a.slot, h.idx, a.idx);
                            return Err(E::DoubleOccupied { slot, incumbent, admitted });
                        }
                        held[a.slot] = Some(Held { idx: a.idx, pos: 1, resumed: false });
                    }
                    group.push(a);
                }
                Decision::Preempted { slot, .. } => {
                    held[slot] = None;
                    preemptions += 1;
                }
                Decision::Wait => break,
                Decision::NeverFits { .. } => return Err(E::Stuck { steps }),
            }
        }

        if !group.is_empty() && prefill_faults.front().is_some_and(|&at| at <= steps) {
            // The prefill call failed: its group goes back to the front of
            // its queues in admission order, and the engine rebuilds below.
            prefill_faults.pop_front();
            for a in group.iter().rev() {
                core.requeue(a);
                if a.holds {
                    held[a.slot] = None;
                }
            }
        } else {
            for a in &group {
                if core.start(a) {
                    recorded[a.idx] = reqs[a.idx].max_new_tokens.min(1);
                } else if let Some(h) = &mut held[a.slot] {
                    h.resumed = true;
                }
                finished[a.idx] |= !a.holds;
            }
            check_books(&core, &held, &arrived, &finished, spec.pool_pages)?;

            if held.iter().all(Option::is_none) {
                if core.waiting() > 0 {
                    // Slots free, work queued, nothing admitted.
                    return Err(E::Stuck { steps });
                }
                // Idle until the next arrival, or done.
                let Some(&next) = future.front() else { break };
                steps = steps.max(reqs[next].arrive_at);
                continue;
            }
            if steps > bound {
                return Err(E::Stuck { steps });
            }

            if faults.front() != Some(&steps) {
                // One decode step over the held slots.
                steps += 1;
                for (slot, entry) in held.iter_mut().enumerate() {
                    let Some(h) = entry else { continue };
                    let want = reqs[h.idx].max_new_tokens;
                    let mut step = core.advance(slot);
                    match (defect, step) {
                        (Some(Defect::ReplayRewind), Advance::Replayed(1)) if rewind => {
                            rewind = false;
                            step = Advance::Replayed(0);
                        }
                        (Some(Defect::PreemptWithoutReplayCursor), Advance::Replayed(_))
                            if h.resumed =>
                        {
                            step = Advance::Emitted;
                        }
                        (Some(Defect::EvictIncomplete), Advance::Emitted)
                            if recorded[h.idx] + 2 == want =>
                        {
                            step = Advance::Finished;
                        }
                        _ => {}
                    }
                    // The step must replay the slot's position while it is
                    // behind the recording, and emit only at its head.
                    let (request, at, rec) = (h.idx, h.pos, &mut recorded[h.idx]);
                    let skip = |cursor| E::ReplaySkipped { request, cursor, must_restart_at: at };
                    match step {
                        Advance::Replayed(p) if p == at && p < *rec => {}
                        Advance::Replayed(cursor) if cursor < at => {
                            return Err(E::ReplayRewound { request, cursor, must_restart_at: at });
                        }
                        Advance::Replayed(cursor) => return Err(skip(cursor)),
                        _ if at < *rec => return Err(skip(*rec)),
                        _ => *rec += 1,
                    }
                    if *rec > want {
                        return Err(E::OverGeneration { request, recorded: *rec, want });
                    }
                    h.pos += 1;
                    h.resumed = false;
                    if step == Advance::Finished {
                        if *rec < want {
                            return Err(E::EvictedIncomplete { request, consumed: *rec, want });
                        }
                        finished[request] = true;
                        *entry = None;
                    }
                }
                continue;
            }
            faults.pop_front();
        }

        // A failed prefill or decode call: the engine rebuilds and every
        // live slot goes back to the front of its queue, last slot first so
        // the queue keeps slot order, to be re-admitted and replayed like a
        // drained one (but not counted as a preemption).
        faults_used += 1;
        if faults_used > spec.max_recoveries {
            if defect == Some(Defect::IgnoreBudget) {
                let budget = spec.max_recoveries;
                return Err(E::BudgetIgnored { faults: faults_used, budget });
            }
            return Ok(TraceOutcome::RecoveryLimit { faults: faults_used });
        }
        recoveries += 1;
        rewind = true;
        for slot in (0..spec.slots).rev() {
            if let Some(h) = held[slot].take() {
                core.requeue(&Admission { idx: h.idx, slot, holds: true });
            }
        }
    }

    if (0..n).any(|i| !finished[i] || recorded[i] != reqs[i].max_new_tokens) {
        return Err(E::Stuck { steps });
    }
    let used = core.pages().map_or(0, PageLedger::used);
    if used > 0 {
        return Err(E::PagesLeaked { used });
    }
    Ok(TraceOutcome::Completed { steps, recoveries, preemptions })
}

/// Conservation and the page budget at a step boundary: every arrived,
/// unfinished request waits in the core or holds a driver slot the core
/// agrees on, and the ledger is within its budget.
fn check_books(
    core: &Scheduler,
    held: &[Option<Held>],
    arrived: &[bool],
    finished: &[bool],
    budget: Option<usize>,
) -> Result<(), LifecycleError> {
    let in_slot = |idx| {
        held.iter()
            .enumerate()
            .any(|(s, h)| h.is_some_and(|h| h.idx == idx) && core.occupant(s) == Some(idx))
    };
    let lost = (0..arrived.len())
        .find(|&i| arrived[i] && !finished[i] && !in_slot(i) && !core.is_waiting(i));
    if let Some(request) = lost {
        return Err(LifecycleError::RequestLost { request });
    }
    let used = core.pages().map_or(0, PageLedger::used);
    match budget {
        Some(budget) if used > budget => Err(LifecycleError::PoolOverflow { used, budget }),
        _ => Ok(()),
    }
}

/// The bounded trace family `check_lifecycle` explores: generation-length
/// mixes around the slot cap (including admission-complete lengths 0 and 1
/// interleaved with long runs), fault-free runs, single faults at each
/// early step, fault bursts, a budget-exhausting burst, failed prefill
/// calls, late-arriving high-priority work that preempts a low fleet,
/// three-class mixes, mid-run replica drains (alone and stacked with faults
/// or preemption), and shared-prefix fleets.
fn builtin_traces(spec: &BatcherSpec) -> Vec<Trace> {
    let s = spec.slots;
    let trace = |requests: Vec<AbstractRequest>, faults_at: Vec<usize>, drains_at: Vec<usize>| {
        Trace { requests, faults_at, drains_at, ..Trace::default() }
    };
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
            let requests = lengths.iter().map(|&l| AbstractRequest::new(l)).collect();
            traces.push(trace(requests, faults.clone(), vec![]));
        }
    }
    // Failed prefill calls: the first group at step 0, then the admission
    // a completion makes room for, with live slots to replay.
    traces.push(Trace {
        requests: (2..s + 4).map(AbstractRequest::new).collect(),
        prefill_faults_at: vec![0, 1],
        ..Trace::default()
    });
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
        traces.push(trace(reqs, faults, vec![]));
    }
    // Faults while a high request waits: the rebuilt engine admits it
    // ahead of the recovered low fleet.
    traces.push(high_waits_at_a_fault(spec));
    // Three classes with staggered arrivals: the late high jumps the late
    // low in the queue.
    let mut mixed = vec![AbstractRequest::new(4); s];
    mixed.push(AbstractRequest::new(2).with_priority(Priority::High).arriving_at(1));
    mixed.push(AbstractRequest::new(2).with_priority(Priority::Low).arriving_at(1));
    traces.push(trace(mixed, vec![], vec![]));
    // Replica drains: a full fleet re-queued mid-run, a drain stacked with
    // a later fault, and a drain landing on a preempted fleet.
    traces.push(trace(vec![AbstractRequest::new(4); s + 2], vec![], vec![2]));
    traces.push(trace(vec![AbstractRequest::new(5); s], vec![3], vec![2]));
    let mut reqs = low_fleet(6);
    reqs.push(AbstractRequest::new(4).with_priority(Priority::High).arriving_at(1));
    traces.push(trace(reqs, vec![], vec![3]));
    // Shared-prefix fleets deeper than the slot cap, with staggered
    // completions (so shared pages drop references one by one), with a
    // mid-run fault (so the ledger re-charges every live slot), with a
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
    traces.push(trace(fleet(&staggered), vec![], vec![]));
    traces.push(trace(fleet(&staggered), vec![1], vec![]));
    traces.push(trace(fleet(&vec![3; s + 2]), vec![], vec![]));
    traces.push(trace(fleet(&staggered), vec![], vec![2]));
    let mut pooled_preempt: Vec<AbstractRequest> =
        fleet(&vec![5; s]).into_iter().map(|r| r.with_priority(Priority::Low)).collect();
    pooled_preempt.push(fleet(&[3])[0].with_priority(Priority::High).arriving_at(1));
    traces.push(trace(pooled_preempt, vec![], vec![]));
    traces
}

/// A low fleet filling every slot, a high request arriving after one step,
/// a failed prefill call at that boundary (the high one's, once it has
/// preempted a victim) and a failed decode step after the next (while,
/// without preemption, it still waits).
fn high_waits_at_a_fault(spec: &BatcherSpec) -> Trace {
    let mut requests: Vec<AbstractRequest> =
        (0..spec.slots).map(|_| AbstractRequest::new(6).with_priority(Priority::Low)).collect();
    requests.push(AbstractRequest::new(3).with_priority(Priority::High).arriving_at(1));
    Trace { requests, faults_at: vec![2], prefill_faults_at: vec![1], ..Trace::default() }
}

/// Drive the scheduler core configured by `spec` over the builtin bounded
/// trace family with no seeded defect.
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
    use crate::scenarios::default_batcher_spec as spec;

    fn trace(lengths: &[usize], faults: &[usize]) -> Trace {
        Trace {
            requests: lengths.iter().map(|&l| AbstractRequest::new(l)).collect(),
            faults_at: faults.to_vec(),
            ..Trace::default()
        }
    }

    /// A low fleet filling every slot plus a high-priority request
    /// arriving after two decode steps — the canonical preemption setup.
    fn preemption_trace(s: &BatcherSpec) -> Trace {
        let mut reqs: Vec<AbstractRequest> = (0..s.slots)
            .map(|_| AbstractRequest::new(6).with_priority(Priority::Low))
            .collect();
        reqs.push(AbstractRequest::new(3).with_priority(Priority::High).arriving_at(2));
        Trace { requests: reqs, ..Trace::default() }
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
    fn budgeted_spec_is_clean_too() {
        // 12 pages of 4 hold any builtin request alone, and defer some
        // admissions.
        let paged = BatcherSpec { page_size: 4, ..spec() };
        let budgeted = BatcherSpec { pool_pages: Some(12), ..paged };
        let free = check_lifecycle(&paged).unwrap();
        let deferred = check_lifecycle(&budgeted).unwrap();
        assert!(deferred.steps > free.steps, "the budget must defer some admission");
    }

    #[test]
    fn a_failed_prefill_requeues_its_group_and_replays_the_live_slots() {
        // Request 0 finishes after one step; the prefill of request 4 into
        // its slot fails, so request 4 is requeued and the three live slots
        // replay on the rebuilt engine before it is admitted again.
        let t = Trace {
            requests: (2..7).map(AbstractRequest::new).collect(),
            prefill_faults_at: vec![1],
            ..Trace::default()
        };
        match run_trace(&spec(), &t, None).unwrap() {
            TraceOutcome::Completed { recoveries, .. } => assert_eq!(recoveries, 1),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn a_high_request_waiting_at_a_fault_completes_with_the_recovered_fleet() {
        // With preemption the high request's failed prefill requeues it
        // behind one victim; without, it waits out the failed step. Either
        // way both faults recover and recovery preempts nobody.
        for (preemption, victims) in [(true, 1), (false, 0)] {
            let s = BatcherSpec { preemption, ..spec() };
            match run_trace(&s, &high_waits_at_a_fault(&s), None).unwrap() {
                TraceOutcome::Completed { recoveries, preemptions, .. } => {
                    assert_eq!((recoveries, preemptions), (2, victims), "preemption {preemption}");
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
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
            ..Trace::default()
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
            drains_at: vec![1],
            ..Trace::default()
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
            drains_at: vec![2],
            ..Trace::default()
        };
        run_trace(&s, &t, None).unwrap();
    }

    #[test]
    fn pool_budget_defers_admission_until_pages_free() {
        // page_size 4, private 8-token prompts, 3 new tokens: each request
        // charges 2 prompt pages + 1 growth page. The first two fit in
        // 3 + 3 = 6 of the 8; the third needs 6 + 3 = 9 and must wait for
        // both to finish. Deferral serializes: ≥ 4 steps instead of the 2 a
        // parallel run would take.
        let s = BatcherSpec { page_size: 4, pool_pages: Some(8), ..spec() };
        let reqs = vec![AbstractRequest::with_prompt(3, 8, 0); 3];
        let t = Trace { requests: reqs, ..Trace::default() };
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
            ..Trace::default()
        };
        assert!(matches!(run_trace(&s, &t, None), Err(LifecycleError::Stuck { .. })));
    }

    #[test]
    fn correct_refcounting_passes_where_the_defect_fails() {
        let s = BatcherSpec { page_size: 4, ..spec() };
        let t = Trace {
            requests: vec![
                AbstractRequest::with_prompt(2, 8, 8),
                AbstractRequest::with_prompt(6, 8, 8),
            ],
            ..Trace::default()
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
