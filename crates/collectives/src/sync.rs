//! Synchronization primitives for the collective groups.
//!
//! Under `--cfg loom` the mutex and condvar come from the `esti-loom` model
//! checker, so every blocking operation in [`CommGroup`](crate::CommGroup)
//! becomes a scheduling point the checker can interleave. In normal builds
//! they are the plain `std::sync` types with zero overhead.
//!
//! The barrier is our own sense-reversing implementation on top of the
//! switched mutex/condvar (rather than `std::sync::Barrier`) for two
//! reasons: its blocking must be visible to the model checker, and it must
//! support *cancellation* and *deadlines* — one crashed or stalled chip has
//! to surface a structured [`CollectiveError`] on every peer instead of
//! leaving them blocked forever.
//!
//! A barrier wait is two halves. [`Barrier::arrive`] checks the fate and
//! counts the caller in, never blocking; [`Barrier::await_generation`]
//! blocks until the generation it joined is released, under the deadline
//! and cancellation. One thread may arrive for several participants (the
//! simulated chips its executor runs) and only then await each of them,
//! which is how a collective's post and complete halves use it.

use std::time::Duration;

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard, PoisonError};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::fault::CollectiveError;

/// Why a barrier stopped admitting waiters.
///
/// The first writer wins: a cancellation records its cause once and every
/// later wait (and every waiter currently blocked) observes that original
/// cause, so a crash is never re-labelled by the cascade of timeouts it
/// provokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierFate {
    /// Normal operation.
    Alive,
    /// A participant with this global chip id died.
    Crashed(usize),
    /// A participant's deadline expired and it abandoned the group.
    TimedOut,
}

/// One participant's place in a barrier generation, from
/// [`Barrier::arrive`], redeemed by [`Barrier::await_generation`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an arrival must be awaited"]
pub struct Arrival {
    generation: u64,
    last: bool,
    deadline: Option<Duration>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    fate: BarrierFate,
}

/// A reusable barrier for a fixed set of participants.
///
/// Sense-reversing via a generation counter: the last arrival of a
/// generation resets the count and bumps the generation, and earlier
/// arrivals await the generation they joined — so back-to-back waits (one
/// per collective, with nothing in between for a member whose read is
/// quick) cannot confuse a fast participant's next collective with a slow
/// participant's current one.
pub struct Barrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

impl Barrier {
    /// A barrier releasing once `n` participants have called [`wait`].
    ///
    /// [`wait`]: Barrier::wait
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier requires at least one participant");
        Barrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                fate: BarrierFate::Alive,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Lock the state, recovering from poisoning: a participant that
    /// panicked while holding the lock does not take the barrier's
    /// bookkeeping down with it — the dead rank is reported through the
    /// fate channel ([`Barrier::cancel`]), not through the poison bit.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mark the barrier dead because chip `rank` (global id) crashed, and
    /// wake every current waiter. Idempotent; the first recorded cause
    /// wins.
    pub fn cancel(&self, rank: usize) {
        let mut s = self.lock();
        if s.fate == BarrierFate::Alive {
            s.fate = BarrierFate::Crashed(rank);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Mark the barrier dead because a participant's deadline expired, and
    /// wake every current waiter. Idempotent; the first recorded cause
    /// wins.
    pub fn cancel_timeout(&self) {
        let mut s = self.lock();
        if s.fate == BarrierFate::Alive {
            s.fate = BarrierFate::TimedOut;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// The barrier's current fate (used by stall injection to abandon a
    /// sleep early once the group is already dead).
    pub fn fate(&self) -> BarrierFate {
        self.lock().fate
    }

    fn fate_error(fate: BarrierFate, deadline: Option<Duration>) -> Option<CollectiveError> {
        match fate {
            BarrierFate::Alive => None,
            BarrierFate::Crashed(rank) => Some(CollectiveError::PeerCrashed { rank }),
            BarrierFate::TimedOut => Some(CollectiveError::Timeout {
                deadline: deadline.unwrap_or(Duration::ZERO),
            }),
        }
    }

    /// Counts one participant in at the current generation, under
    /// `deadline` (which only labels a timeout error here). Checks the fate
    /// first, so a member never joins an already-cancelled generation. The
    /// last arrival resets the count, bumps the generation and wakes every
    /// waiter. The returned [`Arrival`] is what
    /// [`await_generation`](Barrier::await_generation) waits on; a caller
    /// may arrive for several participants before awaiting any of them.
    ///
    /// # Errors
    ///
    /// The cancellation's [`CollectiveError`] if the barrier is dead.
    pub fn arrive(&self, deadline: Option<Duration>) -> Result<Arrival, CollectiveError> {
        let mut s = self.lock();
        if let Some(err) = Self::fate_error(s.fate, deadline) {
            return Err(err);
        }
        let generation = s.generation;
        s.arrived += 1;
        let last = s.arrived == self.n;
        if last {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            drop(s);
            self.cv.notify_all();
        }
        Ok(Arrival { generation, last, deadline })
    }

    /// Blocks until the generation `arrival` joined is released (every
    /// participant has arrived), its deadline expires, or the barrier is
    /// cancelled. `Ok(true)` on exactly one participant per generation (the
    /// last to arrive).
    ///
    /// On its own timeout the caller marks the whole barrier
    /// [`BarrierFate::TimedOut`] before returning, so peers blocked on the
    /// same generation wake immediately with the same structured error
    /// instead of each sitting out its own full deadline.
    ///
    /// Under `--cfg loom` there is no clock: a deadline wait "expires" only
    /// at quiescence (when no other thread can make progress), which is the
    /// earliest schedule where a real timeout could matter.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::PeerCrashed`] if the barrier was cancelled by a
    /// crash, [`CollectiveError::Timeout`] if this wait (or a peer's)
    /// exceeded its deadline.
    pub fn await_generation(&self, arrival: Arrival) -> Result<bool, CollectiveError> {
        let Arrival { generation, last, deadline } = arrival;
        let mut s = self.lock();
        #[cfg(not(loom))]
        let start = std::time::Instant::now();
        while s.generation == generation {
            if let Some(err) = Self::fate_error(s.fate, deadline) {
                return Err(err);
            }
            match deadline {
                None => s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner),
                Some(limit) => {
                    #[cfg(not(loom))]
                    let remaining = limit.saturating_sub(start.elapsed());
                    #[cfg(loom)]
                    let remaining = limit;
                    let (guard, res) = self
                        .cv
                        .wait_timeout(s, remaining)
                        .unwrap_or_else(PoisonError::into_inner);
                    s = guard;
                    #[cfg(not(loom))]
                    let expired = res.timed_out() && start.elapsed() >= limit;
                    #[cfg(loom)]
                    let expired = res.timed_out();
                    if expired && s.generation == generation {
                        if let Some(err) = Self::fate_error(s.fate, deadline) {
                            return Err(err);
                        }
                        s.fate = BarrierFate::TimedOut;
                        drop(s);
                        self.cv.notify_all();
                        return Err(CollectiveError::Timeout { deadline: limit });
                    }
                }
            }
        }
        Ok(last)
    }

    /// [`arrive`](Barrier::arrive), then
    /// [`await_generation`](Barrier::await_generation): one participant's
    /// whole barrier under `deadline`. `Ok(true)` on exactly one
    /// participant per generation (the last to arrive).
    ///
    /// # Errors
    ///
    /// As [`arrive`](Barrier::arrive) and
    /// [`await_generation`](Barrier::await_generation).
    pub fn wait_deadline(&self, deadline: Option<Duration>) -> Result<bool, CollectiveError> {
        self.await_generation(self.arrive(deadline)?)
    }

    /// Block until all `n` participants have arrived (no deadline), as the
    /// pre-fault-layer barrier did. Returns `true` on exactly one
    /// participant per generation (the last to arrive).
    ///
    /// # Panics
    ///
    /// Panics with a [`CollectiveError`] payload if the barrier is
    /// cancelled while waiting — block-forever still observes crashes.
    pub fn wait(&self) -> bool {
        match self.wait_deadline(None) {
            Ok(leader) => leader,
            Err(err) => std::panic::panic_any(err),
        }
    }
}
