//! The serving policy, written once: Section 4.4's admit → prefill →
//! decode → evict loop as a pure state machine with no clock and no engine.
//!
//! Its caller owns time and the work. At each step boundary it calls
//! [`Scheduler::arrive`] for new arrivals, [`Scheduler::shed`] with each
//! waiting request's best-case TTFT as it prices it, and
//! [`Scheduler::admit`] until [`Decision::Wait`] (prefilling each admission,
//! then [`Scheduler::start`]); after a decode step, [`Scheduler::advance`]
//! for each stepped slot. The live `esti_runtime::ContinuousBatcher` (wall
//! clock, real engine, page ledger), [`crate::serving::simulate_trace`]
//! (priced time, one span, no ledger) and `esti_verify::lifecycle` (step
//! counts, checked invariants, seeded defects) are its three callers.
//!
//! The rules: shed every waiting request whose TTFT exceeds its class
//! deadline, then the newest of the lowest class while the queue is over its
//! limit — never a requeued request that has emitted tokens (a preempted
//! victim or a recovered one), which always completes. Admit the highest class first, FIFO within it, into the lowest
//! free slot of a span the open prefill group has not used, else the lowest
//! free slot; with none free, preempt the lowest class strictly below
//! (least progress, then lowest slot) to the front of its queue. With a
//! [`PageLedger`], admit a request that keeps its slot only if its pages
//! fit the budget.
//!
//! A slot is filled one way only, by admission. A request whose prefill
//! call failed, or whose slot's engine was lost ([`Scheduler::requeue`]),
//! goes back to the front of its queue like a victim, without counting as a
//! preemption, and after its next prefill replays what it had emitted.

use std::collections::{HashMap, VecDeque};

use esti_hal::Seconds;

use crate::serving::{OverloadPolicy, Priority, ShedReason, ShedRecord};

/// What the scheduler knows of one request.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// Scheduling class.
    pub class: Priority,
    /// Tokens to generate (the first comes from the prefill).
    pub max_new: usize,
    /// Prompt tokens; read only by the page ledger (a caller without one
    /// may pass an empty slice).
    pub prompt: &'a [usize],
}

/// One admission: request `idx` is prefilled into `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The request.
    pub idx: usize,
    /// The slot it is prefilled into.
    pub slot: usize,
    /// Whether it keeps the slot. One that ends at its first token only
    /// borrows it for its prefill call, and admission counts it free.
    pub holds: bool,
}

/// The answer of [`Scheduler::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admit this request; run its prefill, then [`Scheduler::start`] it.
    Admit(Admission),
    /// No slot was free: `victim` was preempted out of `slot`. Ask again.
    Preempted {
        /// The emptied slot.
        slot: usize,
        /// The request that held it.
        victim: usize,
    },
    /// Nothing more to admit at this boundary.
    Wait,
    /// Request `idx` needs `pages`, more than the budget, with nothing
    /// live left to evict.
    NeverFits {
        /// The request.
        idx: usize,
        /// Pages its admission needs.
        pages: usize,
    },
}

/// What one decode step did for a slot ([`Scheduler::advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Re-derived the emitted token at this position of the stream.
    Replayed(usize),
    /// Emitted a new token.
    Emitted,
    /// Emitted the request's last token; its slot is free again.
    Finished,
}

/// A request holding a decode slot.
#[derive(Debug, Clone, Copy)]
struct Occupant {
    idx: usize,
    /// Position of the next token in the request's stream: behind the
    /// emitted count only while replaying.
    consumed: usize,
}

/// The policy's state: class queues, slot table, spans, page ledger and
/// every request's progress (see the module docs for the rules). Every
/// request in a slot got there through [`Scheduler::admit`].
#[derive(Debug, Clone)]
pub struct Scheduler<'a> {
    jobs: Vec<Job<'a>>,
    policy: OverloadPolicy,
    /// Tokens each request has emitted; non-zero exempts it from shedding.
    emitted: Vec<usize>,
    waiting: [VecDeque<usize>; 3],
    slots: Vec<Option<Occupant>>,
    /// Each slot's span (a prefill call carries one row per span).
    span: Vec<usize>,
    pages: Option<PageLedger>,
    preemptions: usize,
    replayed: usize,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `jobs` with one slot per entry of `span`.
    #[must_use]
    pub fn new(
        jobs: Vec<Job<'a>>,
        span: Vec<usize>,
        policy: OverloadPolicy,
        pages: Option<PageLedger>,
    ) -> Self {
        Scheduler {
            emitted: vec![0; jobs.len()],
            jobs,
            policy,
            waiting: Default::default(),
            slots: vec![None; span.len()],
            span,
            pages,
            preemptions: 0,
            replayed: 0,
        }
    }

    /// Request `idx` arrived: it joins the back of its class queue.
    pub fn arrive(&mut self, idx: usize) {
        self.waiting[self.jobs[idx].class.index()].push_back(idx);
    }

    /// Sheds waiting requests by deadline (given each one's `ttft`) and
    /// then by queue limit, in that order (see the module docs).
    pub fn shed(&mut self, mut ttft: impl FnMut(usize) -> Seconds) -> Vec<ShedRecord> {
        let mut shed = Vec::new();
        let emitted = &self.emitted;
        for class in Priority::ALL {
            let Some(deadline) = self.policy.ttft_deadline[class.index()] else { continue };
            self.waiting[class.index()].retain(|&index| {
                if emitted[index] > 0 {
                    return true;
                }
                let ttft = ttft(index);
                if ttft <= deadline {
                    return true;
                }
                let reason = ShedReason::TtftDeadline { ttft, deadline };
                shed.push(ShedRecord { index, priority: class, reason });
                false
            });
        }
        if let Some(limit) = self.policy.queue_limit {
            let mut waiting = self.waiting();
            while waiting > limit {
                let newest = Priority::ALL.into_iter().find_map(|class| {
                    let queue = &self.waiting[class.index()];
                    queue.iter().rposition(|&i| emitted[i] == 0).map(|pos| (class, pos))
                });
                let Some((class, pos)) = newest else { break }; // only victims wait
                let Some(index) = self.waiting[class.index()].remove(pos) else {
                    unreachable!("position found in this queue")
                };
                let reason = ShedReason::QueueFull { waiting, limit };
                shed.push(ShedRecord { index, priority: class, reason });
                waiting -= 1;
            }
        }
        shed
    }

    /// Decides the next admission; `group` is the open prefill group
    /// (admitted, not yet prefilled), whose spans the slot choice avoids.
    pub fn admit(&mut self, group: &[Admission]) -> Decision {
        let Some(class) =
            Priority::ALL.into_iter().rev().find(|c| !self.waiting[c.index()].is_empty())
        else {
            return Decision::Wait;
        };
        let mut free = (0..self.slots.len()).filter(|&s| self.slots[s].is_none());
        let fresh = free.clone().find(|&s| group.iter().all(|a| self.span[a.slot] != self.span[s]));
        let Some(slot) = fresh.or_else(|| free.next()) else {
            if !self.policy.preemption {
                return Decision::Wait;
            }
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, o)| o.map(|o| (s, o.idx)))
                .filter(|&(_, v)| self.jobs[v].class < class)
                .min_by_key(|&(s, v)| (self.jobs[v].class, self.emitted[v], s));
            return match victim.and_then(|(slot, _)| self.preempt(slot).map(|v| (slot, v))) {
                Some((slot, victim)) => Decision::Preempted { slot, victim },
                None => Decision::Wait,
            };
        };
        let Some(&idx) = self.waiting[class.index()].front() else {
            unreachable!("the class was found non-empty")
        };
        let job = self.jobs[idx];
        let holds = job.max_new > 1;
        if holds {
            if let Some(pages) = &mut self.pages {
                let (charge, _) = pages.charge(job.prompt, job.max_new);
                if pages.budget.is_some_and(|b| pages.used + charge > b) {
                    if self.slots.iter().all(Option::is_none) {
                        return Decision::NeverFits { idx, pages: pages.used + charge };
                    }
                    return Decision::Wait; // until an eviction frees pages
                }
                pages.commit(slot, job.prompt, job.max_new);
            }
            self.slots[slot] = Some(Occupant { idx, consumed: 1 });
        }
        self.waiting[class.index()].pop_front();
        Decision::Admit(Admission { idx, slot, holds })
    }

    /// Records that `a`'s prefill ran and whether it was the request's
    /// first: that emits its first token; a re-admitted request's
    /// re-derives it, and the decode steps replay the rest.
    pub fn start(&mut self, a: &Admission) -> bool {
        let emitted = &mut self.emitted[a.idx];
        let first = *emitted == 0;
        if first {
            *emitted = self.jobs[a.idx].max_new.min(1);
        }
        first
    }

    /// Puts `a` back at the front of its queue: its prefill failed, or the
    /// engine holding its slot was lost. It is re-admitted like a victim,
    /// but not counted as a preemption.
    pub fn requeue(&mut self, a: &Admission) {
        if a.holds {
            self.vacate(a.slot);
        }
        self.waiting[self.jobs[a.idx].class.index()].push_front(a.idx);
    }

    /// Preempts `slot`'s occupant to the front of its class queue; `None`
    /// on an empty slot.
    pub fn preempt(&mut self, slot: usize) -> Option<usize> {
        let idx = self.slots[slot]?.idx;
        self.vacate(slot);
        self.waiting[self.jobs[idx].class.index()].push_front(idx);
        self.preemptions += 1;
        self.replayed += self.emitted[idx].saturating_sub(1);
        Some(idx)
    }

    /// A decode step appended `slot`'s token and sampled its next.
    pub fn advance(&mut self, slot: usize) -> Advance {
        let Some(o) = &mut self.slots[slot] else { panic!("slot {slot} stepped while empty") };
        let pos = o.consumed;
        o.consumed += 1;
        let (idx, consumed) = (o.idx, o.consumed);
        if let Some(pages) = &mut self.pages {
            pages.advance(slot);
        }
        if pos < self.emitted[idx] {
            return Advance::Replayed(pos);
        }
        self.emitted[idx] += 1;
        if consumed < self.jobs[idx].max_new {
            return Advance::Emitted;
        }
        self.vacate(slot);
        Advance::Finished
    }

    fn vacate(&mut self, slot: usize) {
        self.slots[slot] = None;
        if let Some(pages) = &mut self.pages {
            pages.release(slot);
        }
    }

    /// Requests waiting (arrived or preempted, not admitted).
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.waiting.iter().map(VecDeque::len).sum()
    }

    /// Whether request `idx` is queued (arrived or preempted, not admitted).
    #[must_use]
    pub fn is_waiting(&self, idx: usize) -> bool {
        self.waiting[self.jobs[idx].class.index()].contains(&idx)
    }

    /// The request holding `slot`, if any.
    #[must_use]
    pub fn occupant(&self, slot: usize) -> Option<usize> {
        self.slots[slot].map(|o| o.idx)
    }

    /// Preemptions performed, policy and forced alike.
    #[must_use]
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Emitted tokens preemption victims re-derive on re-admission.
    #[must_use]
    pub fn replayed_tokens(&self) -> usize {
        self.replayed
    }

    /// The page ledger, when the scheduler charges pages.
    #[must_use]
    pub fn pages(&self) -> Option<&PageLedger> {
        self.pages.as_ref()
    }
}

/// Virtual page-pool ledger admission charges, mirroring a paged KV cache
/// in *canonical* units (whole heads, undivided by the layout) so one
/// ledger governs admission identically across shardings.
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
#[derive(Debug, Clone)]
pub struct PageLedger {
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
#[derive(Debug, Clone)]
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
    /// An empty ledger of `page_size`-position pages; admission is gated at
    /// `budget` pages when given.
    #[must_use]
    pub fn new(page_size: usize, budget: Option<usize>) -> Self {
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

    /// `(pages, reserved)`: what admitting `prompt` with `max_new` generated
    /// tokens charges against the current registry (its unshared prompt
    /// pages plus `reserved`, its growth pages and copy-out reservation).
    fn charge(&self, prompt: &[usize], max_new: usize) -> (usize, usize) {
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
        (new_keys + grow + cow, grow + cow)
    }

    /// Records an admission: registers/references prompt prefixes and
    /// charges the pool.
    fn commit(&mut self, slot: usize, prompt: &[usize], max_new: usize) {
        let (charge, reserved) = self.charge(prompt, max_new);
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
        self.used += charge;
        self.peak_used = self.peak_used.max(self.used);
        let shared = self.registry.values().filter(|&&r| r >= 2).count();
        self.peak_shared = self.peak_shared.max(shared);
        let prior = self.slots.insert(
            slot,
            LedgerSlot {
                keys,
                private: 0,
                reserved,
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

    /// Pages charged now.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Minimum free pages observed under the budget (`0` unbudgeted).
    #[must_use]
    pub fn min_free(&self) -> usize {
        self.budget.map_or(0, |b| b.saturating_sub(self.peak_used))
    }

    /// Peak count of pages mapped by more than one live request.
    #[must_use]
    pub fn peak_shared(&self) -> usize {
        self.peak_shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(core: &mut Scheduler, group: &[Admission]) -> Admission {
        let Decision::Admit(a) = core.admit(group) else { panic!("expected an admission") };
        core.start(&a);
        a
    }

    #[test]
    fn shedding_scans_the_whole_queue_and_spares_victims() {
        let (low, high) = (Job { class: Priority::Low, max_new: 8, prompt: &[] }, Priority::High);
        let jobs = vec![low, Job { class: high, ..low }, low, low];
        let policy = OverloadPolicy { ttft_deadline: [Some(1.0), None, None], queue_limit: Some(1), preemption: true };
        let mut core = Scheduler::new(jobs, vec![0], policy, None);
        core.arrive(0);
        admit(&mut core, &[]);
        core.arrive(1);
        assert_eq!(core.admit(&[]), Decision::Preempted { slot: 0, victim: 0 });
        admit(&mut core, &[]);
        (2..4).for_each(|i| core.arrive(i));
        // Victim 0 heads the Low queue past its deadline, as does 2; 3 is
        // within it but over the queue limit beside the victim.
        let shed = core.shed(|i| if i == 3 { 0.5 } else { 9.0 });
        let expired = ShedReason::TtftDeadline { ttft: 9.0, deadline: 1.0 };
        let full = ShedReason::QueueFull { waiting: 2, limit: 1 };
        assert_eq!(shed.iter().map(|s| (s.index, s.reason)).collect::<Vec<_>>(), [(2, expired), (3, full)]);
        assert_eq!(core.waiting(), 1);
    }

    #[test]
    fn a_shared_page_is_refunded_by_its_last_release() {
        // Page size 2: two slots map the same two prompt pages, charged
        // once, and each reserves two growth pages. The first release
        // refunds only its own private and reserved pages; the last one
        // refunds the shared pages too.
        let prompt = [1, 2, 3, 4];
        let mut pages = PageLedger::new(2, None);
        pages.commit(0, &prompt, 3);
        pages.commit(1, &prompt, 3);
        assert_eq!(pages.used(), 6);
        pages.advance(0); // a growth page becomes private
        pages.release(0);
        assert_eq!(pages.used(), 4);
        pages.release(1);
        assert_eq!(pages.used(), 0);
    }

    #[test]
    fn admission_spreads_spans_charges_pages_and_replays_the_recording() {
        // Page size 2: a 3-token prompt is 2 pages, 4 new tokens grow it to
        // 4, plus a copy-out page for its partial last page: 5 pages.
        let job = Job { class: Priority::Normal, max_new: 4, prompt: &[1, 2, 3] };
        let mut core = Scheduler::new(vec![job; 4], vec![0, 0, 1, 1], OverloadPolicy::default(), None);
        (0..4).for_each(|i| core.arrive(i));
        let mut group = Vec::new();
        (0..4).for_each(|_| group.push(admit(&mut core, &group)));
        assert_eq!(group.iter().map(|a| a.slot).collect::<Vec<_>>(), [0, 2, 1, 3]);

        // 5 pages fit a budget of 6; the second request, sharing both prompt
        // pages, still needs 3 more.
        let mut core = Scheduler::new(vec![job; 2], vec![0, 0], OverloadPolicy::default(), Some(PageLedger::new(2, Some(6))));
        (0..2).for_each(|i| core.arrive(i));
        let a = admit(&mut core, &[]);
        assert_eq!(core.admit(&[]), Decision::Wait);
        assert_eq!(core.advance(a.slot), Advance::Emitted);
        // The engine is lost: the request goes back to the front of its
        // queue, refunding its pages, and is re-admitted ahead of request 1
        // to replay its recording. Recovery is not a preemption.
        core.requeue(&a);
        assert_eq!(core.pages().map(PageLedger::used), Some(0));
        let a = admit(&mut core, &[]);
        assert_eq!(a.idx, 0);
        let steps: Vec<Advance> = (0..3).map(|_| core.advance(a.slot)).collect();
        assert_eq!(steps, [Advance::Replayed(1), Advance::Emitted, Advance::Finished]);
        assert_eq!((core.preemptions(), core.replayed_tokens()), (0, 0));
        assert_eq!(core.pages().map(PageLedger::used), Some(0));
        assert_eq!(admit(&mut core, &[]).idx, 1);

        // Alone in a too-small pool a request never fits.
        let mut core = Scheduler::new(vec![job], vec![0], OverloadPolicy::default(), Some(PageLedger::new(2, Some(4))));
        core.arrive(0);
        assert_eq!(core.admit(&[]), Decision::NeverFits { idx: 0, pages: 5 });
    }
}
