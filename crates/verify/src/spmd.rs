//! Pass 2 — SPMD conformance and deadlock freedom of the compiled program.
//!
//! Plays every chip's [`ChipProgram`] — the program the engine runs — for
//! its collective calls (step label, exchange, group, local input shape),
//! then proves that all members of each communication group issue identical
//! sequences. The checker plays the calls forward, firing a group only when
//! *every* member's next pending call targets that group with the same
//! exchange and shape; if the programs disagree it reports a mismatch, and
//! if no group can fire while work remains it reports a deadlock with the
//! stuck chips.

use std::collections::HashMap;
use std::fmt;

use esti_core::schedule::{ChipProgram, Collective};
use esti_topology::{AxisSet, ChipCoord};

/// Identity of a communication group: the axes it spans plus the base
/// coordinate (the group member with all spanned axes at zero). Two chips
/// are in the same group iff they agree on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId {
    /// Torus axes the group spans.
    pub axes: AxisSet,
    /// Group representative: the coordinate with the spanned axes zeroed.
    pub base: ChipCoord,
}

impl GroupId {
    /// The group containing `coord` spanning `axes`.
    #[must_use]
    pub fn of(coord: ChipCoord, axes: AxisSet) -> Self {
        let mut base = coord;
        for a in axes.iter() {
            base = base.with_axis(a, 0);
        }
        GroupId { axes, base }
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "axes {} at ({},{},{})",
            self.axes, self.base.x, self.base.y, self.base.z
        )
    }
}

/// The outcome of a successful SPMD check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmdReport {
    /// Number of chips whose programs were checked.
    pub chips: usize,
    /// Total per-chip collective ops consumed.
    pub ops: usize,
    /// Number of group firings (each retires one op on every member).
    pub firings: usize,
}

/// Why the SPMD check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpmdError {
    /// Two members of one group disagree on their next op.
    Mismatch {
        /// The group whose members disagree.
        group: String,
        /// Description of the disagreement.
        detail: String,
    },
    /// Work remains but no group can fire.
    Deadlock {
        /// Chips stuck with pending ops (chip id, pending op description).
        stuck: Vec<(usize, String)>,
    },
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::Mismatch { group, detail } => {
                write!(f, "schedule mismatch in group {group}: {detail}")
            }
            SpmdError::Deadlock { stuck } => {
                write!(f, "deadlock: no group can fire; stuck chips:")?;
                for (id, op) in stuck {
                    write!(f, " [chip {id}: {op}]")?;
                }
                Ok(())
            }
        }
    }
}

fn describe(c: &Collective, group: GroupId) -> String {
    format!("{} {:?} over {group} shape {:?}", c.label, c.send, c.shape)
}

/// Each chip's collective calls, by chip id, when chip `i` runs
/// `programs[i]` for `layers` layers and then the final steps: each call
/// with the group it names, `GroupId::of(coord, group_axes[group])`.
///
/// # Panics
///
/// Panics unless there is one program per chip of the first's mesh.
pub(crate) fn chip_calls<'p>(programs: &[&'p ChipProgram], layers: usize) -> Vec<Vec<(GroupId, &'p Collective)>> {
    let torus = programs[0].torus;
    assert_eq!(programs.len(), torus.chip_count(), "one program per chip required");
    let calls = |(coord, p): (ChipCoord, &&'p ChipProgram)| {
        p.collectives(layers).map(|c| (GroupId::of(coord, p.group_axes[c.group]), c)).collect()
    };
    torus.chips().zip(programs).map(calls).collect()
}

/// Play chip `i`'s program `programs[i]` forward (two layer iterations,
/// which exercise the cross-layer seam, then the final steps), firing groups
/// whose members all agree on the next call, and prove the whole execution
/// drains without mismatch or deadlock.
///
/// # Errors
///
/// [`SpmdError::Mismatch`] if two members of a group disagree on their
/// next collective (label, exchange — its wire format among it — or
/// shape); [`SpmdError::Deadlock`] if work remains but no group can fire.
///
/// # Panics
///
/// Panics unless there is one program per chip.
pub fn check_spmd(programs: &[&ChipProgram]) -> Result<SpmdReport, SpmdError> {
    let torus = programs[0].torus;
    let calls = chip_calls(programs, 2);
    // Group membership as chip ids, keyed by group identity.
    let mut members: HashMap<GroupId, Vec<usize>> = HashMap::new();
    for &(group, _) in calls.iter().flatten() {
        members.entry(group).or_insert_with(|| {
            torus.group_of(group.base, group.axes).into_iter().map(|c| torus.chip_id(c)).collect()
        });
    }

    let mut head = vec![0usize; calls.len()];
    let total: usize = calls.iter().map(Vec::len).sum();
    let mut fired = 0usize;
    let mut firings = 0usize;

    loop {
        let mut progressed = false;
        for chip in 0..calls.len() {
            let Some(&(group, op)) = calls[chip].get(head[chip]) else { continue };
            let peers = &members[&group];
            // Fire only from the lowest-id member so each group fires once.
            if peers[0] != chip {
                continue;
            }
            let mut ready = true;
            for &m in peers {
                match calls[m].get(head[m]) {
                    Some(&(g, other)) if g == group => {
                        if (other.label, other.send, &other.shape) != (op.label, op.send, &op.shape) {
                            return Err(SpmdError::Mismatch {
                                group: group.to_string(),
                                detail: format!(
                                    "chip {chip} issues {} but chip {m} issues {}",
                                    describe(op, group),
                                    describe(other, g)
                                ),
                            });
                        }
                    }
                    _ => {
                        ready = false;
                        break;
                    }
                }
            }
            if ready {
                for &m in peers {
                    head[m] += 1;
                    fired += 1;
                }
                firings += 1;
                progressed = true;
            }
        }
        if fired == total {
            return Ok(SpmdReport { chips: calls.len(), ops: total, firings });
        }
        if !progressed {
            let stuck = head
                .iter()
                .enumerate()
                .filter_map(|(chip, &h)| calls[chip].get(h).map(|&(g, op)| (chip, describe(op, g))))
                .collect();
            return Err(SpmdError::Deadlock { stuck });
        }
    }
}

/// [`check_spmd`] with every chip running `program`, the error formatted.
///
/// # Errors
///
/// Returns the formatted SPMD error.
pub fn check_program_spmd(program: &ChipProgram) -> Result<SpmdReport, String> {
    check_spmd(&vec![program; program.torus.chip_count()]).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::{build_schedule, Exchange, Instr, Operand, Role, WireFormat};
    use esti_core::{AttnSharding, FfnLayout, Layout};
    use esti_topology::{Axis, TorusShape};

    /// A program for a chip of a `1 x y x z` mesh whose only steps are
    /// `calls`, each a collective over its axes on a `[2, 2]` input: a real
    /// program with its instructions replaced, so that a test can state
    /// call sequences no schedule compiles to.
    fn program(y: usize, z: usize, calls: &[(&'static str, Exchange, AxisSet)]) -> ChipProgram {
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, y, z),
        };
        let mut p = ChipProgram::compile(&build_schedule(&cfg, &layout, y * z, 1).unwrap(), &cfg).unwrap();
        p.group_axes = calls.iter().map(|c| c.2).collect();
        p.instrs = (0..calls.len())
            .map(|group| {
                let (label, send, _) = calls[group];
                Instr::Collective(Collective { label, send, input: Operand::Boundary, group, shape: vec![2, 2] })
            })
            .collect();
        p.split = p.instrs.len();
        p
    }

    fn z() -> AxisSet {
        AxisSet::single(Axis::Z)
    }

    #[test]
    fn identical_programs_pass() {
        let p = program(1, 2, &[("ag", Exchange::Gather(2), z())]);
        let report = check_spmd(&[&p, &p]).unwrap();
        assert_eq!(report.chips, 2);
        assert_eq!(report.ops, 4, "two layer iterations");
        assert_eq!(report.firings, 2);
    }

    #[test]
    fn mismatched_ops_reported() {
        let a = program(1, 2, &[("ag", Exchange::Gather(2), z())]);
        let b = program(1, 2, &[("ag", Exchange::ReduceScatter(2), z())]);
        let err = check_spmd(&[&a, &b]).unwrap_err();
        assert!(matches!(err, SpmdError::Mismatch { .. }), "got {err}");
    }

    #[test]
    fn mismatched_shapes_reported() {
        let a = program(1, 2, &[("ag", Exchange::Gather(2), z())]);
        let mut b = a.clone();
        let Instr::Collective(c) = &mut b.instrs[0] else { unreachable!("a collective") };
        c.shape = vec![2, 3];
        match check_spmd(&[&a, &b]).unwrap_err() {
            SpmdError::Mismatch { detail, .. } => assert!(detail.contains("shape"), "got {detail}"),
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn missing_member_deadlocks() {
        let a = program(1, 2, &[("ag", Exchange::Gather(2), z())]);
        let idle = program(1, 2, &[]);
        match check_spmd(&[&a, &idle]).unwrap_err() {
            SpmdError::Deadlock { stuck } => {
                assert_eq!(stuck.len(), 1);
                assert_eq!(stuck[0].0, 0);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn crossed_group_wait_cycle_deadlocks() {
        // Four chips in a 2x2 yz plane, each waiting on a group whose
        // other member is waiting on a different group: z-group(row 0)
        // needs chip 0, which waits on y-group(col 0), which needs chip 2,
        // which waits on z-group(row 1), which needs chip 3, which waits
        // on y-group(col 1), which needs chip 1 -- a 4-cycle, so nothing
        // ever fires even though every exchange, label, and shape agrees.
        let torus = TorusShape::new(1, 2, 2);
        let y = program(2, 2, &[("ar", Exchange::AllReduce, AxisSet::single(Axis::Y))]);
        let z = program(2, 2, &[("ar", Exchange::AllReduce, z())]);
        let programs: Vec<&ChipProgram> = torus.chips().map(|c| if c.y == c.z { &y } else { &z }).collect();
        let err = check_spmd(&programs).unwrap_err();
        match err {
            SpmdError::Deadlock { ref stuck } => assert_eq!(stuck.len(), 4, "{err}"),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn mismatched_wire_formats_reported() {
        let gather = |wire| Exchange::Weight { role: Role::Wq, dim: 1, wire };
        let a = program(1, 2, &[("wq weight all-gather", gather(WireFormat::Dense), z())]);
        let b = program(1, 2, &[("wq weight all-gather", gather(WireFormat::Int8), z())]);
        match check_spmd(&[&a, &b]).unwrap_err() {
            SpmdError::Mismatch { detail, .. } => assert!(detail.contains("Int8"), "got {detail}"),
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn real_schedule_is_spmd_clean() {
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let schedule = build_schedule(&cfg, &layout, 8, 1).unwrap();
        let report = check_program_spmd(&ChipProgram::compile(&schedule, &cfg).unwrap()).unwrap();
        assert!(report.firings > 0);
        assert_eq!(report.chips, 4);
    }
}
