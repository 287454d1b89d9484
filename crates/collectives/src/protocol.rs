//! Abstract transition table of the barrier/deadline/cancel protocol.
//!
//! The fault tolerance of the runtime rests on a small set of structural
//! guarantees ("edges") scattered across `esti-collectives` and the engine's
//! unwind handler in `esti-runtime`. Each edge is a concrete line of code;
//! together they form the protocol state machine that the fault-path
//! liveness pass in `esti-verify` explores. This module states the edges
//! *as data* so the analyzer interprets the same contract the
//! implementation maintains — and so a seeded mutation (dropping one edge)
//! demonstrably produces a hang or an orphaned post.
//!
//! The edge-to-code map:
//!
//! | edge | realized by |
//! |------|-------------|
//! | `crash_cancels_entered_group` | [`CommGroup::post`]'s fault point: an injected crash cancels the barrier of the group being entered *before* panicking |
//! | `unwind_cancels_all_groups` | the engine's per-chip, per-step `catch_unwind` calls `cancel_chip_groups`, cancelling **every** group the dead chip belongs to with the typed cause |
//! | `cancel_wakes_waiters` | [`Barrier::cancel`]/[`Barrier::cancel_timeout`] set the fate first-writer-wins and `notify_all`; every member blocked in [`Barrier::await_generation`] wakes and returns the typed error |
//! | `entry_checks_fate` | [`Barrier::arrive`] checks the fate *at entry*, so a surviving rank never posts into an already-cancelled group |
//! | `deadline_armed` | [`CommGroup::set_deadline`] arms a timeout for every subsequent barrier wait |
//! | `timeout_broadcasts` | a member whose [`Barrier::await_generation`] expires sets [`BarrierFate::TimedOut`] and notifies all, so one expiry aborts every member |
//! | `stall_aborts_on_cancel` | [`CommGroup::post`]'s fault point: an injected stall sleeps in slices, polling the barrier fate, and aborts with the typed error once its group is cancelled — or times the group out itself once its own deadline passes |
//!
//! The engine runs the chips on fewer executor threads than chips, each
//! stepping its chips through the schedule in lockstep, so the table rests
//! on one more invariant, which the edges above do not state: **an executor
//! posts for all its chips before it awaits any.** Every member of a group
//! then either posts its arrival or has unwound and cancelled the group
//! before any member awaits, exactly as when each chip had its own thread,
//! so the liveness pass's per-rank model (a rank waits at a collective
//! until its group fills or is cancelled) still describes every chip.
//!
//! [`CommGroup::post`]: crate::CommGroup::post
//! [`CommGroup::set_deadline`]: crate::CommGroup::set_deadline
//! [`Barrier::cancel`]: crate::sync::Barrier::cancel
//! [`Barrier::cancel_timeout`]: crate::sync::Barrier::cancel_timeout
//! [`Barrier::arrive`]: crate::sync::Barrier::arrive
//! [`Barrier::await_generation`]: crate::sync::Barrier::await_generation
//! [`BarrierFate::TimedOut`]: crate::BarrierFate::TimedOut

/// One structural guarantee of the fault protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolEdge {
    /// An injected crash cancels the group it was entering before panicking.
    CrashCancelsEnteredGroup,
    /// The per-chip unwind handler cancels all of the dead chip's groups.
    UnwindCancelsAllGroups,
    /// Cancelling a barrier wakes every rank currently blocked on it.
    CancelWakesWaiters,
    /// A rank arriving at a barrier first checks whether it was cancelled.
    EntryChecksFate,
    /// Collective waits carry a deadline.
    DeadlineArmed,
    /// A deadline expiry is broadcast to all members, not suffered alone.
    TimeoutBroadcasts,
    /// A stalled rank observes cancellation of its group and aborts.
    StallAbortsOnCancel,
}

impl ProtocolEdge {
    /// Every edge, in a fixed order.
    pub const ALL: [ProtocolEdge; 7] = [
        ProtocolEdge::CrashCancelsEnteredGroup,
        ProtocolEdge::UnwindCancelsAllGroups,
        ProtocolEdge::CancelWakesWaiters,
        ProtocolEdge::EntryChecksFate,
        ProtocolEdge::DeadlineArmed,
        ProtocolEdge::TimeoutBroadcasts,
        ProtocolEdge::StallAbortsOnCancel,
    ];
}

/// Which edges a protocol implementation provides.
///
/// [`ProtocolModel::implemented`] describes this crate (all edges present);
/// [`ProtocolModel::without`] drops one edge, for mutation tests that prove
/// the liveness analysis actually depends on each guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolModel {
    /// See [`ProtocolEdge::CrashCancelsEnteredGroup`].
    pub crash_cancels_entered_group: bool,
    /// See [`ProtocolEdge::UnwindCancelsAllGroups`].
    pub unwind_cancels_all_groups: bool,
    /// See [`ProtocolEdge::CancelWakesWaiters`].
    pub cancel_wakes_waiters: bool,
    /// See [`ProtocolEdge::EntryChecksFate`].
    pub entry_checks_fate: bool,
    /// See [`ProtocolEdge::DeadlineArmed`].
    pub deadline_armed: bool,
    /// See [`ProtocolEdge::TimeoutBroadcasts`].
    pub timeout_broadcasts: bool,
    /// See [`ProtocolEdge::StallAbortsOnCancel`].
    pub stall_aborts_on_cancel: bool,
}

impl ProtocolModel {
    /// The protocol this crate and the engine's unwind handler implement.
    #[must_use]
    pub fn implemented() -> Self {
        ProtocolModel {
            crash_cancels_entered_group: true,
            unwind_cancels_all_groups: true,
            cancel_wakes_waiters: true,
            entry_checks_fate: true,
            deadline_armed: true,
            timeout_broadcasts: true,
            stall_aborts_on_cancel: true,
        }
    }

    /// This model with one edge removed (for seeded-mutation tests).
    #[must_use]
    pub fn without(mut self, edge: ProtocolEdge) -> Self {
        *self.edge_mut(edge) = false;
        self
    }

    /// Whether `edge` is present.
    #[must_use]
    pub fn has(&self, edge: ProtocolEdge) -> bool {
        match edge {
            ProtocolEdge::CrashCancelsEnteredGroup => self.crash_cancels_entered_group,
            ProtocolEdge::UnwindCancelsAllGroups => self.unwind_cancels_all_groups,
            ProtocolEdge::CancelWakesWaiters => self.cancel_wakes_waiters,
            ProtocolEdge::EntryChecksFate => self.entry_checks_fate,
            ProtocolEdge::DeadlineArmed => self.deadline_armed,
            ProtocolEdge::TimeoutBroadcasts => self.timeout_broadcasts,
            ProtocolEdge::StallAbortsOnCancel => self.stall_aborts_on_cancel,
        }
    }

    fn edge_mut(&mut self, edge: ProtocolEdge) -> &mut bool {
        match edge {
            ProtocolEdge::CrashCancelsEnteredGroup => &mut self.crash_cancels_entered_group,
            ProtocolEdge::UnwindCancelsAllGroups => &mut self.unwind_cancels_all_groups,
            ProtocolEdge::CancelWakesWaiters => &mut self.cancel_wakes_waiters,
            ProtocolEdge::EntryChecksFate => &mut self.entry_checks_fate,
            ProtocolEdge::DeadlineArmed => &mut self.deadline_armed,
            ProtocolEdge::TimeoutBroadcasts => &mut self.timeout_broadcasts,
            ProtocolEdge::StallAbortsOnCancel => &mut self.stall_aborts_on_cancel,
        }
    }

    /// Edges missing relative to the implemented protocol.
    #[must_use]
    pub fn missing(&self) -> Vec<ProtocolEdge> {
        ProtocolEdge::ALL.into_iter().filter(|&e| !self.has(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implemented_protocol_has_every_edge() {
        let m = ProtocolModel::implemented();
        assert!(m.missing().is_empty());
        for e in ProtocolEdge::ALL {
            assert!(m.has(e), "{e:?} should be implemented");
        }
    }

    #[test]
    fn without_drops_exactly_one_edge() {
        for e in ProtocolEdge::ALL {
            let m = ProtocolModel::implemented().without(e);
            assert!(!m.has(e));
            assert_eq!(m.missing(), vec![e]);
            for other in ProtocolEdge::ALL {
                if other != e {
                    assert!(m.has(other), "{other:?} should survive dropping {e:?}");
                }
            }
        }
    }
}
