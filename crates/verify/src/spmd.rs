//! Pass 2 — SPMD schedule conformance and deadlock freedom.
//!
//! Symbolically extracts, for every chip coordinate, the sequence of
//! (collective op, group, local shape) it will issue when executing a
//! [`Schedule`], then proves that all members of each communication group
//! issue identical sequences. The checker plays the programs forward,
//! firing a group only when *every* member's next pending op targets that
//! group with the same op and shape; if the programs disagree it reports a
//! mismatch, and if no group can fire while work remains it reports a
//! deadlock with the stuck chips.

use std::collections::HashMap;
use std::fmt;

use esti_core::schedule::{Schedule, Step, SymOp, WireFormat};
use esti_topology::{AxisSet, ChipCoord, TorusShape};

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

/// One collective issued by one chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipOp {
    /// Diagnostic label of the originating schedule step.
    pub label: &'static str,
    /// The collective operation.
    pub op: SymOp,
    /// The group this chip communicates with.
    pub group: GroupId,
    /// The chip-local input shape handed to the collective.
    pub shape: Vec<usize>,
    /// Payload wire format. Members must agree: a rank posting a dense
    /// tensor into a quantized exchange (or vice versa) is exactly the
    /// disagreement the runtime's `debug_check_agreement` catches
    /// dynamically via its `quant` flag.
    pub wire: WireFormat,
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

fn describe(op: &ChipOp) -> String {
    let wire = match op.wire {
        WireFormat::Dense => "",
        WireFormat::Int8 => " (int8 wire)",
    };
    format!("{} {} over {} shape {:?}{wire}", op.label, op.op, op.group, op.shape)
}

/// Extract the per-chip collective program for `n_layers` layer iterations
/// of `schedule` followed by its final steps, indexed by chip id.
///
/// # Errors
///
/// Returns an error if a collective input is not divisible on the
/// schedule's torus (Pass 1 territory, but surfaced here too so the pass
/// is self-contained).
pub fn per_chip_program(
    schedule: &Schedule,
    n_layers: usize,
) -> Result<Vec<Vec<ChipOp>>, String> {
    let torus = schedule.torus;
    // Collect the collective template once; it is identical across layers.
    type Proto = (&'static str, SymOp, AxisSet, Vec<usize>, WireFormat);
    let mut layer_ops: Vec<Proto> = Vec::new();
    let mut final_ops: Vec<Proto> = Vec::new();
    for (steps, out) in [
        (&schedule.layer, &mut layer_ops),
        (&schedule.final_steps, &mut final_ops),
    ] {
        for step in steps {
            if let Step::Collective { label, op, axes, input, wire, .. } = step {
                let shape = input
                    .local_shape(torus)
                    .map_err(|e| format!("step \"{label}\": {e}"))?;
                out.push((*label, *op, *axes, shape, *wire));
            }
        }
    }

    let mut programs = vec![Vec::new(); torus.chip_count()];
    for coord in torus.chips() {
        let program = &mut programs[torus.chip_id(coord)];
        let ops = (0..n_layers).flat_map(|_| &layer_ops).chain(&final_ops);
        for &(label, op, axes, ref shape, wire) in ops {
            program.push(ChipOp {
                label,
                op,
                group: GroupId::of(coord, axes),
                shape: shape.clone(),
                wire,
            });
        }
    }
    Ok(programs)
}

/// Play per-chip programs forward, firing groups whose members all agree
/// on the next op, and prove the whole execution drains without mismatch
/// or deadlock.
///
/// # Errors
///
/// [`SpmdError::Mismatch`] if two members of a group disagree on their
/// next collective (op, label, or shape); [`SpmdError::Deadlock`] if work
/// remains but no group can fire.
pub fn check_spmd(torus: TorusShape, programs: &[Vec<ChipOp>]) -> Result<SpmdReport, SpmdError> {
    assert_eq!(
        programs.len(),
        torus.chip_count(),
        "one program per chip required"
    );
    // Precompute group membership as chip ids, keyed by group identity.
    let mut members: HashMap<GroupId, Vec<usize>> = HashMap::new();
    for coord in torus.chips() {
        for prog_op in &programs[torus.chip_id(coord)] {
            members.entry(prog_op.group).or_insert_with(|| {
                torus
                    .group_of(prog_op.group.base, prog_op.group.axes)
                    .into_iter()
                    .map(|c| torus.chip_id(c))
                    .collect()
            });
        }
    }

    let mut head = vec![0usize; programs.len()];
    let total: usize = programs.iter().map(Vec::len).sum();
    let mut fired = 0usize;
    let mut firings = 0usize;

    loop {
        let mut progressed = false;
        for chip in 0..programs.len() {
            let Some(op) = programs[chip].get(head[chip]) else { continue };
            let group = &members[&op.group];
            // Fire only from the lowest-id member so each group fires once.
            if group[0] != chip {
                continue;
            }
            let mut ready = true;
            for &m in group {
                match programs[m].get(head[m]) {
                    Some(other) if other.group == op.group => {
                        if other.op != op.op
                            || other.label != op.label
                            || other.wire != op.wire
                        {
                            return Err(SpmdError::Mismatch {
                                group: op.group.to_string(),
                                detail: format!(
                                    "chip {chip} issues {} but chip {m} issues {}",
                                    describe(op),
                                    describe(other)
                                ),
                            });
                        }
                        if other.shape != op.shape {
                            return Err(SpmdError::Mismatch {
                                group: op.group.to_string(),
                                detail: format!(
                                    "chip {chip} brings shape {:?} but chip {m} brings {:?} \
                                     to {} {}",
                                    op.shape, other.shape, op.label, op.op
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
                for &m in group {
                    head[m] += 1;
                    fired += 1;
                }
                firings += 1;
                progressed = true;
            }
        }
        if fired == total {
            return Ok(SpmdReport { chips: programs.len(), ops: total, firings });
        }
        if !progressed {
            let stuck = head
                .iter()
                .enumerate()
                .filter_map(|(chip, &h)| {
                    programs[chip].get(h).map(|op| (chip, describe(op)))
                })
                .collect();
            return Err(SpmdError::Deadlock { stuck });
        }
    }
}

/// Run the full pass for a schedule: extract per-chip programs (two layer
/// iterations exercise the cross-layer seam) and check them.
///
/// # Errors
///
/// Returns the formatted extraction or SPMD error.
pub fn check_schedule_spmd(schedule: &Schedule) -> Result<SpmdReport, String> {
    let programs = per_chip_program(schedule, 2)?;
    check_spmd(schedule.torus, &programs).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_topology::Axis;

    fn two_chip_torus() -> TorusShape {
        TorusShape::new(1, 1, 2)
    }

    fn op(label: &'static str, op: SymOp, coord: ChipCoord, axes: AxisSet) -> ChipOp {
        ChipOp {
            label,
            op,
            group: GroupId::of(coord, axes),
            shape: vec![2, 2],
            wire: WireFormat::Dense,
        }
    }

    #[test]
    fn identical_programs_pass() {
        let torus = two_chip_torus();
        let z = AxisSet::single(Axis::Z);
        let programs: Vec<Vec<ChipOp>> = torus
            .chips()
            .map(|c| vec![op("ag", SymOp::AllGather { dim: 'E' }, c, z)])
            .collect();
        let report = check_spmd(torus, &programs).unwrap();
        assert_eq!(report.chips, 2);
        assert_eq!(report.ops, 2);
        assert_eq!(report.firings, 1);
    }

    #[test]
    fn mismatched_ops_reported() {
        let torus = two_chip_torus();
        let z = AxisSet::single(Axis::Z);
        let c0 = ChipCoord::new(0, 0, 0);
        let c1 = ChipCoord::new(0, 0, 1);
        let programs = vec![
            vec![op("ag", SymOp::AllGather { dim: 'E' }, c0, z)],
            vec![op("ag", SymOp::ReduceScatter { dim: 'E' }, c1, z)],
        ];
        let err = check_spmd(torus, &programs).unwrap_err();
        assert!(matches!(err, SpmdError::Mismatch { .. }), "got {err}");
    }

    #[test]
    fn mismatched_shapes_reported() {
        let torus = two_chip_torus();
        let z = AxisSet::single(Axis::Z);
        let c0 = ChipCoord::new(0, 0, 0);
        let c1 = ChipCoord::new(0, 0, 1);
        let mut bad = op("ag", SymOp::AllGather { dim: 'E' }, c1, z);
        bad.shape = vec![2, 3];
        let programs = vec![vec![op("ag", SymOp::AllGather { dim: 'E' }, c0, z)], vec![bad]];
        let err = check_spmd(torus, &programs).unwrap_err();
        match err {
            SpmdError::Mismatch { detail, .. } => {
                assert!(detail.contains("shape"), "got {detail}");
            }
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn missing_member_deadlocks() {
        let torus = two_chip_torus();
        let z = AxisSet::single(Axis::Z);
        let c0 = ChipCoord::new(0, 0, 0);
        let programs = vec![vec![op("ag", SymOp::AllGather { dim: 'E' }, c0, z)], vec![]];
        let err = check_spmd(torus, &programs).unwrap_err();
        match err {
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
        // ever fires even though every op, label, and shape agrees.
        let torus = TorusShape::new(1, 2, 2);
        let y = AxisSet::single(Axis::Y);
        let z = AxisSet::single(Axis::Z);
        let ar = SymOp::AllReduce;
        let mut programs = vec![Vec::new(); torus.chip_count()];
        for coord in torus.chips() {
            let axes = if coord.y == coord.z { y } else { z };
            programs[torus.chip_id(coord)] = vec![op("ar", ar, coord, axes)];
        }
        let err = check_spmd(torus, &programs).unwrap_err();
        match err {
            SpmdError::Deadlock { ref stuck } => assert_eq!(stuck.len(), 4, "{err}"),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn mismatched_wire_formats_reported() {
        let torus = two_chip_torus();
        let z = AxisSet::single(Axis::Z);
        let c0 = ChipCoord::new(0, 0, 0);
        let c1 = ChipCoord::new(0, 0, 1);
        let a = op("wq weight all-gather", SymOp::AllGather { dim: 'F' }, c0, z);
        let mut b = op("wq weight all-gather", SymOp::AllGather { dim: 'F' }, c1, z);
        b.wire = WireFormat::Int8;
        let err = check_spmd(torus, &[vec![a], vec![b]]).unwrap_err();
        match err {
            SpmdError::Mismatch { detail, .. } => {
                assert!(detail.contains("int8 wire"), "got {detail}");
            }
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn real_schedule_is_spmd_clean() {
        use esti_core::layout::MeshFactors;
        use esti_core::schedule::build_schedule;
        use esti_core::{AttnSharding, FfnLayout, Layout};
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let schedule = build_schedule(&cfg, &layout, 8, 1).unwrap();
        let report = check_schedule_spmd(&schedule).unwrap();
        assert!(report.firings > 0);
        assert_eq!(report.chips, 4);
    }
}
