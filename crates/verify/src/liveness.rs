//! Pass 4 — fault-path liveness of the collective protocol.
//!
//! The SPMD pass ([`crate::spmd`]) proves fault-free executions drain. This
//! pass proves the *faulty* ones terminate too: for every rank and every
//! collective call site in its per-chip program, it injects one abstract
//! fault — a crash (the rank panics entering the collective) or a stall
//! (the rank never arrives) — and explores the barrier/deadline/cancel
//! state machine of `esti-collectives`, as described by a
//! [`ProtocolModel`], until the system quiesces. Every surviving rank must
//! terminate, either by finishing its program or by unwinding with a typed
//! `CollectiveError`; the pass rejects executions where
//!
//! * a rank is still blocked or stalled at quiescence ([`LivenessError::Hang`]),
//!   i.e. the cancellation protocol failed to reach it (the injected stall
//!   itself is only a hang if its group was cancelled and the rank still did
//!   not abort — a stalled rank nobody shares a cancelled group with is the
//!   fault, not a protocol failure, and the harness's stalls are finite), or
//! * a rank posts into a group that was already cancelled
//!   ([`LivenessError::Orphan`]) — the untyped failure mode
//!   `Barrier::wait_deadline`'s entry fate check exists to prevent.
//!
//! Crash injections are explored with deadlines *disabled*: the crash/cancel
//! chain (`crash_cancels_entered_group` → `unwind_cancels_all_groups` →
//! `cancel_wakes_waiters`/`entry_checks_fate`) must suffice on its own,
//! without the timeout backstop. Stall injections exercise the deadline
//! chain: a stalled rank posts nothing, so only deadline expiry
//! (`deadline_armed`), its broadcast (`timeout_broadcasts`), and the
//! stalled rank's own fate polling (`stall_aborts_on_cancel`) can save the
//! group. The seeded-mutation tests at the bottom record which edges are
//! load-bearing for which fault class — and which are deliberately
//! redundant (dropping `crash_cancels_entered_group` alone is masked by the
//! unwind cascade, and dropping `timeout_broadcasts` alone is masked by
//! each expiring waiter's own unwind).
//!
//! The exploration is exhaustive over single faults: `ranks × call sites ×
//! {crash, stall}` simulations per schedule, each linear in the total op
//! count thanks to a worklist-driven group-firing engine over dense arrays.

use std::collections::HashMap;
use std::fmt;

use esti_collectives::ProtocolModel;
use esti_core::schedule::Schedule;
use esti_topology::TorusShape;

use crate::spmd::{per_chip_program, ChipOp, GroupId};

/// The abstract single fault injected at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractFault {
    /// The rank panics on entry to the collective (its barrier may be
    /// cancelled first, per `crash_cancels_entered_group`).
    Crash,
    /// The rank never arrives at the collective and sits in `fault_point`'s
    /// polling sleep until its group is cancelled (or forever).
    Stall,
}

impl fmt::Display for AbstractFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractFault::Crash => write!(f, "crash"),
            AbstractFault::Stall => write!(f, "stall"),
        }
    }
}

/// One injection point: which rank faults, at which op of its program, how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Chip id of the faulty rank.
    pub rank: usize,
    /// Index into the rank's per-chip program (the collective being entered).
    pub call_index: usize,
    /// The fault injected there.
    pub fault: AbstractFault,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of rank {} at call {}", self.fault, self.rank, self.call_index)
    }
}

/// Successful exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessReport {
    /// Ranks in the torus.
    pub ranks: usize,
    /// Total collective call sites across all per-chip programs.
    pub call_sites: usize,
    /// Fault injections explored (`call_sites × 2`: crash and stall each).
    pub injections: usize,
}

/// A liveness violation found at some injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessError {
    /// At quiescence, some ranks neither finished nor unwound typed — the
    /// cancellation/deadline protocol never reached them.
    Hang {
        /// The injection that exposed the hang.
        site: FaultSite,
        /// Chip ids still blocked or stalled.
        stuck: Vec<usize>,
    },
    /// A surviving rank posted into an already-cancelled group instead of
    /// observing its fate at entry.
    Orphan {
        /// The injection that exposed the orphaned post.
        site: FaultSite,
        /// The rank that posted.
        rank: usize,
        /// The cancelled group it posted into.
        group: String,
    },
}

impl fmt::Display for LivenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivenessError::Hang { site, stuck } => write!(
                f,
                "liveness: {site} leaves {} rank(s) hung (chips {stuck:?})",
                stuck.len()
            ),
            LivenessError::Orphan { site, rank, group } => write!(
                f,
                "liveness: {site} lets rank {rank} post into cancelled group {group}"
            ),
        }
    }
}

/// Per-chip program and group structure, precomputed once per schedule and
/// shared by every simulation (the fault site is the only thing that
/// varies).
struct Arena {
    /// Program of each chip as dense group indices, one per collective op.
    progs: Vec<Vec<u32>>,
    /// Chip ids of each group's members.
    members: Vec<Vec<u32>>,
    /// Deduplicated groups each chip belongs to (for the unwind cascade).
    chip_groups: Vec<Vec<u32>>,
    /// Group identities, for diagnostics.
    names: Vec<GroupId>,
}

impl Arena {
    fn build(torus: TorusShape, programs: &[Vec<ChipOp>]) -> Self {
        assert_eq!(programs.len(), torus.chip_count(), "one program per chip required");
        let mut index: HashMap<GroupId, u32> = HashMap::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut names: Vec<GroupId> = Vec::new();
        let mut progs: Vec<Vec<u32>> = vec![Vec::new(); programs.len()];
        let mut chip_groups: Vec<Vec<u32>> = vec![Vec::new(); programs.len()];
        for coord in torus.chips() {
            let chip = torus.chip_id(coord);
            for op in &programs[chip] {
                let gidx = *index.entry(op.group).or_insert_with(|| {
                    let idx = u32::try_from(members.len()).unwrap_or(u32::MAX);
                    members.push(
                        torus
                            .group_of(op.group.base, op.group.axes)
                            .into_iter()
                            .map(|c| u32::try_from(torus.chip_id(c)).unwrap_or(u32::MAX))
                            .collect(),
                    );
                    names.push(op.group);
                    idx
                });
                progs[chip].push(gidx);
                if !chip_groups[chip].contains(&gidx) {
                    chip_groups[chip].push(gidx);
                }
            }
        }
        Arena { progs, members, chip_groups, names }
    }
}

/// Per-chip status during one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Ready to advance (on the worklist).
    Run,
    /// Arrived at its next collective, waiting for the group to fire.
    Blocked(u32),
    /// Stalled by the injected fault inside `fault_point`, polling the
    /// fate of the group it was about to enter.
    Stalled(u32),
    /// Program complete.
    Done,
    /// Unwound with a typed `CollectiveError` (or is the injected crash).
    Dead,
}

struct Sim<'a> {
    arena: &'a Arena,
    model: &'a ProtocolModel,
    site: FaultSite,
    st: Vec<St>,
    head: Vec<usize>,
    arrived: Vec<u32>,
    cancelled: Vec<bool>,
    fault_pending: bool,
    orphan: Option<(usize, u32)>,
}

impl<'a> Sim<'a> {
    fn new(arena: &'a Arena, model: &'a ProtocolModel, site: FaultSite) -> Self {
        Sim {
            arena,
            model,
            site,
            st: vec![St::Run; arena.progs.len()],
            head: vec![0; arena.progs.len()],
            arrived: vec![0; arena.members.len()],
            cancelled: vec![false; arena.members.len()],
            fault_pending: true,
            orphan: None,
        }
    }

    /// Kill `chip` with a typed error and run the unwind cascade.
    fn die(&mut self, chip: usize, by_timeout: bool) {
        if matches!(self.st[chip], St::Dead | St::Done) {
            return;
        }
        self.st[chip] = St::Dead;
        if self.model.unwind_cancels_all_groups {
            // Borrow dance: the membership list is immutable per sim.
            for i in 0..self.arena.chip_groups[chip].len() {
                let g = self.arena.chip_groups[chip][i];
                self.cancel(g, by_timeout);
            }
        }
    }

    /// Cancel group `g`. `by_timeout` selects which notification edge
    /// applies: `Barrier::cancel`'s `notify_all` (`cancel_wakes_waiters`)
    /// or the expiring waiter's broadcast (`timeout_broadcasts`).
    fn cancel(&mut self, g: u32, by_timeout: bool) {
        if self.cancelled[g as usize] {
            return;
        }
        self.cancelled[g as usize] = true;
        let wakes = if by_timeout {
            self.model.timeout_broadcasts
        } else {
            self.model.cancel_wakes_waiters
        };
        for i in 0..self.arena.members[g as usize].len() {
            let m = self.arena.members[g as usize][i] as usize;
            match self.st[m] {
                St::Blocked(bg) if bg == g && wakes => self.die(m, by_timeout),
                St::Stalled(sg) if sg == g && self.model.stall_aborts_on_cancel => {
                    self.die(m, by_timeout);
                }
                _ => {}
            }
        }
    }

    /// Advance `chip` one op: inject the fault if this is the site, check
    /// the group's fate at entry, otherwise arrive and fire if complete.
    /// Returns chips freed by a group firing (to push on the worklist).
    fn advance(&mut self, chip: usize, freed: &mut Vec<usize>) {
        if self.st[chip] != St::Run {
            return;
        }
        let h = self.head[chip];
        let Some(&g) = self.arena.progs[chip].get(h) else {
            self.st[chip] = St::Done;
            return;
        };
        if self.fault_pending && chip == self.site.rank && h == self.site.call_index {
            self.fault_pending = false;
            match self.site.fault {
                AbstractFault::Crash => {
                    // `fault_point` cancels the entered barrier, then the
                    // panic unwinds into the engine's catch handler.
                    self.st[chip] = St::Dead;
                    if self.model.crash_cancels_entered_group {
                        self.cancel(g, false);
                    }
                    if self.model.unwind_cancels_all_groups {
                        for i in 0..self.arena.chip_groups[chip].len() {
                            let cg = self.arena.chip_groups[chip][i];
                            self.cancel(cg, false);
                        }
                    }
                }
                AbstractFault::Stall => {
                    self.st[chip] = St::Stalled(g);
                    if self.cancelled[g as usize] && self.model.stall_aborts_on_cancel {
                        self.die(chip, false);
                    }
                }
            }
            return;
        }
        if self.cancelled[g as usize] {
            if self.model.entry_checks_fate {
                self.die(chip, false);
            } else {
                self.orphan = Some((chip, g));
            }
            return;
        }
        self.arrived[g as usize] += 1;
        self.st[chip] = St::Blocked(g);
        if self.arrived[g as usize] as usize == self.arena.members[g as usize].len() {
            self.arrived[g as usize] = 0;
            for i in 0..self.arena.members[g as usize].len() {
                let m = self.arena.members[g as usize][i] as usize;
                self.head[m] += 1;
                self.st[m] = St::Run;
                freed.push(m);
            }
        }
    }

    /// Drain the worklist until no rank can make fault-free progress.
    fn run_to_quiescence(&mut self, worklist: &mut Vec<usize>) {
        let mut freed = Vec::new();
        while let Some(chip) = worklist.pop() {
            self.advance(chip, &mut freed);
            worklist.append(&mut freed);
            if self.orphan.is_some() {
                return;
            }
        }
    }

    fn run(mut self) -> Result<(), LivenessError> {
        let mut worklist: Vec<usize> = (0..self.arena.progs.len()).collect();
        self.run_to_quiescence(&mut worklist);
        // Stall injections exercise the deadline chain: at quiescence every
        // blocked waiter's deadline expires. Crash injections deliberately
        // run deadline-free — the cancel chain must suffice alone.
        let deadlines = self.site.fault == AbstractFault::Stall && self.model.deadline_armed;
        while self.orphan.is_none() && deadlines {
            let expired: Vec<(usize, u32)> = self
                .st
                .iter()
                .enumerate()
                .filter_map(|(c, s)| match s {
                    St::Blocked(g) => Some((c, *g)),
                    _ => None,
                })
                .collect();
            if expired.is_empty() {
                break;
            }
            for (chip, g) in expired {
                if self.st[chip] == St::Blocked(g) {
                    if self.model.timeout_broadcasts {
                        self.cancel(g, true);
                    }
                    // The expiring waiter itself always unwinds typed.
                    self.die(chip, true);
                }
            }
            // Cancellation never un-blocks survivors into `Run`, so no
            // further worklist drain is needed; loop in case cascades left
            // new waiters blocked on still-active groups (they expire next
            // round).
        }
        if let Some((rank, g)) = self.orphan {
            return Err(LivenessError::Orphan {
                site: self.site,
                rank,
                group: self.arena.names[g as usize].to_string(),
            });
        }
        let stuck: Vec<usize> = self
            .st
            .iter()
            .enumerate()
            .filter(|(_, s)| match s {
                St::Done | St::Dead => false,
                // A stalled rank whose group was never cancelled is the
                // injected fault itself, unobservable to the protocol: no
                // peer shares a cancelled group with its polling loop, so no
                // cancellation edge can reach it (e.g. a stall at a
                // singleton group on a degenerate torus axis). The harness's
                // stalls are finite — `FaultKind::Stall(dur)` resumes once
                // the duration elapses — and the deadline guarantee protects
                // the *peers*, which the filter still holds to Done/Dead.
                // A stalled rank whose group WAS cancelled had a protocol
                // path out (`stall_aborts_on_cancel`) and counts as hung.
                St::Stalled(g) => self.cancelled[*g as usize],
                St::Blocked(_) | St::Run => true,
            })
            .map(|(c, _)| c)
            .collect();
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(LivenessError::Hang { site: self.site, stuck })
        }
    }
}

/// Exhaustively inject every single fault (each rank × each of its call
/// sites × crash/stall) into `programs` and explore the protocol described
/// by `model` to quiescence.
///
/// The programs must already be SPMD-clean ([`crate::spmd::check_spmd`]):
/// liveness of a mismatched schedule is not meaningful.
///
/// # Errors
///
/// The first [`LivenessError::Hang`] or [`LivenessError::Orphan`] found.
pub fn check_liveness(
    torus: TorusShape,
    programs: &[Vec<ChipOp>],
    model: &ProtocolModel,
) -> Result<LivenessReport, LivenessError> {
    let arena = Arena::build(torus, programs);
    let call_sites: usize = arena.progs.iter().map(Vec::len).sum();
    let mut injections = 0usize;
    for rank in 0..arena.progs.len() {
        for call_index in 0..arena.progs[rank].len() {
            for fault in [AbstractFault::Crash, AbstractFault::Stall] {
                let site = FaultSite { rank, call_index, fault };
                injections += 1;
                Sim::new(&arena, model, site).run()?;
            }
        }
    }
    Ok(LivenessReport { ranks: arena.progs.len(), call_sites, injections })
}

/// Run the pass for one schedule against the implemented protocol. One
/// layer iteration suffices: the group structure (which is all liveness
/// sees) repeats exactly across layers.
///
/// # Errors
///
/// Returns the formatted extraction or liveness error.
pub fn check_schedule_liveness(schedule: &Schedule) -> Result<LivenessReport, String> {
    let programs = per_chip_program(schedule, 1)?;
    check_liveness(schedule.torus, &programs, &ProtocolModel::implemented())
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_collectives::ProtocolEdge;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::build_schedule;
    use esti_core::{AttnSharding, FfnLayout, Layout};

    /// A 2×2 2D-weight-stationary schedule: multiple overlapping groups
    /// (x and yz), the interesting topology for cascade cancellation.
    fn two_d() -> Schedule {
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        build_schedule(&cfg, &layout, 8, 1).unwrap()
    }

    fn programs(s: &Schedule) -> Vec<Vec<ChipOp>> {
        per_chip_program(s, 1).unwrap()
    }

    #[test]
    fn implemented_protocol_survives_every_single_fault() {
        let s = two_d();
        let progs = programs(&s);
        let report =
            check_liveness(s.torus, &progs, &ProtocolModel::implemented()).unwrap();
        assert_eq!(report.ranks, 4);
        let sites: usize = progs.iter().map(Vec::len).sum();
        assert_eq!(report.call_sites, sites);
        assert_eq!(report.injections, sites * 2, "crash and stall at every site");
    }

    #[test]
    fn dropped_unwind_cascade_hangs_on_crash() {
        // The seeded "dropped cancel edge" mutation of the ISSUE: without
        // the engine's unwind handler cancelling all of the dead chip's
        // groups, ranks waiting on its *other* groups never learn of the
        // crash (crash sims run deadline-free), so they hang.
        let s = two_d();
        let model = ProtocolModel::implemented().without(ProtocolEdge::UnwindCancelsAllGroups);
        let err = check_liveness(s.torus, &programs(&s), &model).unwrap_err();
        assert!(
            matches!(&err, LivenessError::Hang { site, .. } if site.fault == AbstractFault::Crash),
            "expected a crash-induced hang, got {err}"
        );
    }

    #[test]
    fn dropped_waiter_wakeup_hangs_on_crash() {
        let s = two_d();
        let model = ProtocolModel::implemented().without(ProtocolEdge::CancelWakesWaiters);
        let err = check_liveness(s.torus, &programs(&s), &model).unwrap_err();
        assert!(matches!(err, LivenessError::Hang { .. }), "got {err}");
    }

    #[test]
    fn dropped_entry_fate_check_orphans_a_post() {
        let s = two_d();
        let model = ProtocolModel::implemented().without(ProtocolEdge::EntryChecksFate);
        let err = check_liveness(s.torus, &programs(&s), &model).unwrap_err();
        assert!(
            matches!(err, LivenessError::Orphan { .. }),
            "a survivor should post into a cancelled group, got {err}"
        );
    }

    #[test]
    fn dropped_deadline_hangs_on_stall() {
        let s = two_d();
        let model = ProtocolModel::implemented().without(ProtocolEdge::DeadlineArmed);
        let err = check_liveness(s.torus, &programs(&s), &model).unwrap_err();
        assert!(
            matches!(&err, LivenessError::Hang { site, .. } if site.fault == AbstractFault::Stall),
            "expected a stall-induced hang, got {err}"
        );
    }

    #[test]
    fn dropped_stall_abort_leaves_the_stalled_rank_hung() {
        let s = two_d();
        let model = ProtocolModel::implemented().without(ProtocolEdge::StallAbortsOnCancel);
        let err = check_liveness(s.torus, &programs(&s), &model).unwrap_err();
        match err {
            LivenessError::Hang { site, stuck } => {
                assert_eq!(site.fault, AbstractFault::Stall);
                assert_eq!(stuck, vec![site.rank], "only the stalled rank itself is stuck");
            }
            other => panic!("expected hang, got {other}"),
        }
    }

    #[test]
    fn redundant_edges_are_masked_as_documented() {
        // These two single-edge drops must NOT be flagged: the module docs
        // promise the protocol is redundant there (the unwind cascade
        // covers the entered-group cancel, and each expiring waiter's own
        // unwind covers the missing timeout broadcast).
        let s = two_d();
        for edge in [ProtocolEdge::CrashCancelsEnteredGroup, ProtocolEdge::TimeoutBroadcasts] {
            let model = ProtocolModel::implemented().without(edge);
            check_liveness(s.torus, &programs(&s), &model)
                .unwrap_or_else(|e| panic!("dropping {edge:?} should be masked, got {e}"));
        }
    }

    #[test]
    fn one_dimensional_all_reduce_schedule_is_live() {
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        };
        let s = build_schedule(&cfg, &layout, 8, 1).unwrap();
        let report = check_schedule_liveness(&s).unwrap();
        assert_eq!(report.ranks, 4);
    }
}
