//! Pass 1 — the paper's comm table against the schedule that runs.
//!
//! [`Layout::layer_comm`](esti_core::Layout::layer_comm) is Appendix A's
//! per-layer communication pieces: the table `perf::estimate`, `pareto` and
//! every figure price. The engine runs the [`Schedule`] instead. This pass
//! projects the schedule's per-layer collectives onto the table's terms,
//! with the A.1 conventions the `TrafficStats` ledger charges:
//!
//! * all-gather → its output's local elements;
//! * reduce-scatter → its input's local elements;
//! * all-reduce → one reduce-scatter plus one all-gather of its input;
//! * all-to-all → its input's local elements;
//! * a collective (or a piece) whose group is one chip is free.
//!
//! Both sides are summed per [`Bucket`], and every bucket must agree to
//! half an element once the layout's named [`Remainder`]s are added: the
//! terms the table leaves out or prices differently, each a closed form in
//! the model's dimensions. An unnamed difference fails, naming its bucket
//! and the labels on both sides. Within a bucket a piece's `axes` must be
//! an axis count the schedule runs over once unit-size axes are dropped;
//! `layer_comm` counts unit-size axes too, which is a named remainder.

use std::collections::{BTreeMap, BTreeSet};

use esti_core::layout::{CommPiece, PieceKind};
use esti_core::schedule::{Operand, Schedule, Step, SymOp, SymTensor};
use esti_core::{AttnSharding, FfnLayout};
use esti_model::{BlockKind, MlpKind, ModelConfig};
use esti_topology::AxisSet;

/// How closely a bucket's two sides must agree, in elements.
const ELEM_TOL: f64 = 0.5;

/// The key both sides are summed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bucket {
    /// All-to-all (else all-gather / reduce-scatter volume).
    pub all_to_all: bool,
    /// Weight volume (else activations).
    pub weights: bool,
    /// Chips in the communicating group.
    pub group: usize,
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.all_to_all { "all-to-all" } else { "gather/scatter" };
        let what = if self.weights { "weights" } else { "activations" };
        write!(f, "{kind} {what} over {} chips", self.group)
    }
}

/// One named difference between the schedule and the table: `elements`
/// more (or, negative, fewer) in `bucket` on the schedule's side.
#[derive(Debug, Clone, PartialEq)]
pub struct Remainder {
    /// What the table leaves out or prices differently.
    pub name: &'static str,
    /// Where the difference lands.
    pub bucket: Bucket,
    /// Signed per-chip elements, schedule minus table.
    pub elements: f64,
}

/// A table that matches its schedule up to named remainders.
#[derive(Debug, Clone, PartialEq)]
pub struct CommTableReport {
    /// Per-chip elements the schedule's layer moves (groups above one chip).
    pub schedule_elements: f64,
    /// Per-chip elements the table prices (groups above one chip).
    pub table_elements: f64,
    /// Every named remainder.
    pub remainders: Vec<Remainder>,
}

impl CommTableReport {
    /// Schedule ÷ table volume (1 when both are empty).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.table_elements == 0.0 {
            1.0
        } else {
            self.schedule_elements / self.table_elements
        }
    }

    /// Each remainder name once, with its elements summed over buckets.
    #[must_use]
    pub fn by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for r in &self.remainders {
            match out.iter_mut().find(|(name, _)| *name == r.name) {
                Some((_, sum)) => *sum += r.elements,
                None => out.push((r.name, r.elements)),
            }
        }
        out
    }

    /// One line for the lint report: the ratio and the remainders' names.
    #[must_use]
    pub fn summary(&self) -> String {
        let names: Vec<&str> = self.by_name().into_iter().map(|(name, _)| name).collect();
        format!("schedule/table {:.3}x, remainders: [{}]", self.ratio(), names.join(", "))
    }
}

/// One side of a bucket: its elements, the labels that carry them and the
/// axis counts they run over (non-unit axes on the schedule's side).
#[derive(Default)]
struct Side {
    elements: f64,
    labels: Vec<&'static str>,
    axes: BTreeSet<u32>,
}

impl Side {
    fn add(&mut self, label: &'static str, elements: f64, axes: u32) {
        self.elements += elements;
        self.labels.push(label);
        self.axes.insert(axes);
    }
}

/// The named remainders of `schedule`'s layout, each a closed form in the
/// model's dimensions at the schedule's token count. Buckets of one chip
/// are dropped, as both sides drop them.
#[must_use]
fn named_remainders(model: &ModelConfig, schedule: &Schedule) -> Vec<Remainder> {
    let mesh = schedule.layout.mesh;
    let (n, x, yz) = (mesh.n_chips(), mesh.x, mesh.yz());
    let (nf, xf, yzf) = (n as f64, x as f64, yz as f64);
    let t = (schedule.batch * schedule.seq) as f64;
    let (e, f, d) = (model.d_model as f64, model.d_ff as f64, model.d_head as f64);
    let a = model.attn_dim() as f64;
    let multiquery = model.n_kv_heads() == 1;
    let serial = model.block == BlockKind::Serial;
    let norms = if serial { 2.0 } else { 1.0 };
    let batch_attn = schedule.layout.attn == AttnSharding::Batch;
    let acts = |group| Bucket { all_to_all: false, weights: false, group };
    let a2a = |group| Bucket { all_to_all: true, weights: false, group };
    // The two all-to-alls the table prices over xyz run over `group`
    // instead, moving `elements` there.
    let moved = |name, group, elements| {
        let both = [(name, a2a(n), -2.0 * t * a / nf), (name, a2a(group), elements)];
        if group == n {
            vec![]
        } else {
            both.to_vec()
        }
    };

    let mut out: Vec<(&'static str, Bucket, f64)> = Vec::new();
    match schedule.layout.ffn {
        FfnLayout::WeightStationary1D => {}
        FfnLayout::WeightStationary2D => {
            out.push(("layernorm moments all-reduce (xyz)", acts(n), norms * 4.0 * t));
            let kv = if multiquery { d } else { a / yzf };
            out.push(("q/k/v all-reduces (x)", acts(x), 2.0 * t * (a / yzf + 2.0 * kv)));
            if model.mlp == MlpKind::SwiGlu {
                out.push(("gate reduce-scatter (x)", acts(x), t * f / yzf));
            }
            if serial {
                out.push(("serial: table doubles the x pieces", acts(x), -2.0 * t * f / yzf));
                let name = "serial: residual gathered and scattered twice (yz)";
                out.push((name, acts(yz), 2.0 * t * e / xf));
            }
            if batch_attn {
                out.extend(moved("all-to-alls over yz, not xyz", yz, 2.0 * t * a / yzf));
                out.push(("batch all-gather (x)", acts(x), t * a / yzf));
            }
        }
        FfnLayout::WeightGathered(extent) => {
            let g = extent.n_gather(mesh);
            let replicated = if multiquery { 2.0 * e * d } else { 0.0 } + norms * e;
            let bucket = Bucket { all_to_all: false, weights: true, group: g };
            let name = "replicated K/V and norms not gathered";
            out.push((name, bucket, -replicated * g as f64 / nf));
            if batch_attn {
                let name = if g == n {
                    "xyz all-to-alls priced, none run"
                } else {
                    "all-to-alls over the local axes, not xyz"
                };
                out.extend(moved(name, n / g, 2.0 * t * a / nf));
            }
        }
    }
    if batch_attn {
        out.push(("K/V priced in the qkv all-to-all", a2a(n), -2.0 * t * d / nf));
    }
    out.into_iter()
        .filter(|r| r.1.group > 1)
        .map(|(name, bucket, elements)| Remainder { name, bucket, elements })
        .collect()
}

/// Check the table `pieces` (`layer_comm` of `schedule`'s layout at its
/// token count) against the collectives of `schedule`'s layer.
///
/// # Errors
///
/// A bucket whose two sides differ by more than its named remainders, or
/// whose table prices an axis count the schedule does not run over (the
/// message names the bucket and the labels on both sides); a collective
/// whose operand the schedule cannot size.
pub fn check_comm_table(
    model: &ModelConfig,
    schedule: &Schedule,
    pieces: &[CommPiece],
) -> Result<CommTableReport, String> {
    let torus = schedule.torus;
    // Each bucket's [schedule, table] sides.
    let mut sides: BTreeMap<Bucket, [Side; 2]> = BTreeMap::new();
    for step in &schedule.layer {
        let Step::Collective { label, op, axes, input, output, .. } = step else { continue };
        let group = torus.group_size(*axes);
        if group == 1 {
            continue;
        }
        let local = |t: &SymTensor| {
            t.local_elements(torus).map(|v| v as f64).map_err(|e| format!("{label}: {e}"))
        };
        let elements = match op {
            SymOp::AllGather { .. } => local(output)?,
            SymOp::ReduceScatter { .. } | SymOp::AllToAll { .. } => {
                local(schedule.tensor(*input)?)?
            }
            SymOp::AllReduce => 2.0 * local(schedule.tensor(*input)?)?,
        };
        let all_to_all = matches!(op, SymOp::AllToAll { .. });
        let weights = matches!(input, Operand::Weight(_));
        let non_unit = axes.iter().filter(|&ax| torus.size(ax) > 1).count() as u32;
        let bucket = Bucket { all_to_all, weights, group };
        sides.entry(bucket).or_default()[0].add(label, elements, non_unit);
    }
    for p in pieces.iter().filter(|p| p.group > 1.0) {
        let all_to_all = p.kind == PieceKind::AllToAll;
        let bucket = Bucket { all_to_all, weights: p.is_weights, group: p.group.round() as usize };
        sides.entry(bucket).or_default()[1].add(p.label, p.elements, p.axes);
    }

    let mut remainders = named_remainders(model, schedule);
    for r in &remainders {
        sides.entry(r.bucket).or_default();
    }
    let unit_axes = AxisSet::all().iter().filter(|&ax| torus.size(ax) == 1).count() as u32;
    let mut counts_unit_axes = None;
    for (bucket, [s, t]) in &sides {
        let named: f64 =
            remainders.iter().filter(|r| r.bucket == *bucket).map(|r| r.elements).sum();
        let unexplained = s.elements - t.elements - named;
        // Axis counts the table prices and the schedule does not run; each
        // must exceed the widest run by unit-size axes only.
        let widest = s.axes.last().copied().unwrap_or(0);
        let extra: Vec<u32> = t.axes.difference(&s.axes).filter(|_| widest > 0).copied().collect();
        let mismatch = if unexplained.abs() > ELEM_TOL {
            format!("the named remainders add {named}, leaving {unexplained} unexplained")
        } else if let Some(a) = extra.iter().find(|&&a| a <= widest || a - widest > unit_axes) {
            format!("the table prices {a} torus axes where the schedule runs over {:?}", s.axes)
        } else {
            if !extra.is_empty() {
                counts_unit_axes = Some(*bucket);
            }
            continue;
        };
        return Err(format!(
            "{bucket}: the schedule moves {} elements {:?}, the table prices {} {:?}; {mismatch}",
            s.elements, s.labels, t.elements, t.labels
        ));
    }
    if let Some(bucket) = counts_unit_axes {
        remainders.push(Remainder {
            name: "layer_comm counts unit-size axes",
            bucket,
            elements: 0.0,
        });
    }

    let total = |i: usize| sides.values().map(|s| s[i].elements).sum();
    Ok(CommTableReport { schedule_elements: total(0), table_elements: total(1), remainders })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::{build_schedule, ChipProgram};
    use esti_core::{GatherExtent, Layout};
    use esti_hal::DType;

    const FFNS: [FfnLayout; 5] = [
        FfnLayout::WeightStationary1D,
        FfnLayout::WeightStationary2D,
        FfnLayout::WeightGathered(GatherExtent::X),
        FfnLayout::WeightGathered(GatherExtent::Xy),
        FfnLayout::WeightGathered(GatherExtent::Xyz),
    ];

    fn models() -> Vec<ModelConfig> {
        vec![
            ModelConfig::tiny(),
            ModelConfig::tiny_multihead(),
            ModelConfig::palm_8b(),
            ModelConfig::palm_62b(),
            ModelConfig::palm_540b_padded(),
            ModelConfig::mt_nlg_530b(),
        ]
    }

    /// Every (model, layout, batch) of the grid that `build_schedule`
    /// accepts and verifies, with its schedule and table.
    fn accepted_grid() -> Vec<(ModelConfig, Schedule, Vec<CommPiece>)> {
        let meshes = [(1, 4, 1), (2, 2, 1), (4, 1, 1), (2, 2, 2), (2, 4, 4), (4, 4, 4), (1, 8, 8)];
        let mut out = Vec::new();
        for model in models() {
            for (x, y, z) in meshes {
                let mesh = MeshFactors::new(x, y, z);
                let n = mesh.n_chips();
                for ffn in FFNS {
                    for attn in [AttnSharding::Head, AttnSharding::Batch] {
                        let layout = Layout { ffn, attn, mesh };
                        for batch in [n, 4 * n, 256] {
                            let Ok(s) = build_schedule(&model, &layout, batch, 1) else {
                                continue;
                            };
                            if s.verify().is_err() {
                                continue;
                            }
                            let pieces = layout.layer_comm(&model, batch as f64);
                            out.push((model.clone(), s, pieces));
                        }
                    }
                }
            }
        }
        out
    }

    fn case(model: &ModelConfig, s: &Schedule) -> String {
        format!("{} {} batch {}", model.name, s.layout.describe(), s.batch)
    }

    #[test]
    fn comm_table_matches_every_accepted_schedule() {
        let grid = accepted_grid();
        assert_eq!(grid.len(), 747, "accepted grid points");
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for (model, s, pieces) in &grid {
            // Every accepted schedule compiles into the program the engine
            // runs, with dense weights and int8 ones.
            for s in [s.clone(), s.clone().with_weight_dtype(DType::Int8)] {
                ChipProgram::compile(&s, model).unwrap_or_else(|e| panic!("{}: compile: {e}", case(model, &s)));
            }
            let report = check_comm_table(model, s, pieces)
                .unwrap_or_else(|e| panic!("{}: {e}", case(model, s)));
            seen.extend(report.remainders.iter().map(|r| r.name));
            // The 1D head-sharded layouts are Appendix A's table exactly.
            if s.layout.ffn == FfnLayout::WeightStationary1D && s.layout.attn == AttnSharding::Head
            {
                assert_eq!(report.schedule_elements, report.table_elements, "{}", case(model, s));
            }
        }
        // Every named remainder is met somewhere on the grid.
        for name in [
            "layernorm moments all-reduce (xyz)",
            "q/k/v all-reduces (x)",
            "gate reduce-scatter (x)",
            "serial: table doubles the x pieces",
            "serial: residual gathered and scattered twice (yz)",
            "all-to-alls over yz, not xyz",
            "batch all-gather (x)",
            "replicated K/V and norms not gathered",
            "all-to-alls over the local axes, not xyz",
            "xyz all-to-alls priced, none run",
            "K/V priced in the qkv all-to-all",
            "layer_comm counts unit-size axes",
        ] {
            assert!(seen.contains(name), "{name} never met");
        }
    }

    #[test]
    fn comm_table_ratios_at_palm_540b_on_64_chips() {
        // The 2D remainders make the schedule move 1.417x the table's volume
        // under head attention and 1.540x under batch attention; the WG
        // tables sit 0.2 % above the gathers that run.
        let model = ModelConfig::palm_540b_padded();
        let mesh = MeshFactors::new(4, 4, 4);
        let ratio = |ffn, attn| {
            let layout = Layout { ffn, attn, mesh };
            let s = build_schedule(&model, &layout, 64, 1).unwrap();
            check_comm_table(&model, &s, &layout.layer_comm(&model, 64.0)).unwrap().ratio()
        };
        let two_d = FfnLayout::WeightStationary2D;
        assert!((ratio(two_d, AttnSharding::Head) - 1.417).abs() < 5e-4);
        assert!((ratio(two_d, AttnSharding::Batch) - 1.540).abs() < 5e-4);
        let wg = FfnLayout::WeightGathered(GatherExtent::Xyz);
        assert!((ratio(wg, AttnSharding::Head) - 0.998).abs() < 5e-4);
    }

    /// Schedules for the mutation tests: every layout of the tiny models on
    /// two small meshes, and of PaLM 540B (64 heads) on 4x4x4.
    fn mutation_cases() -> Vec<(ModelConfig, Schedule, Vec<CommPiece>)> {
        let mut out = Vec::new();
        let cases = [
            (ModelConfig::tiny(), MeshFactors::new(2, 2, 1)),
            (ModelConfig::tiny(), MeshFactors::new(2, 2, 2)),
            (ModelConfig::tiny_multihead(), MeshFactors::new(2, 2, 2)),
            (ModelConfig::palm_540b_padded(), MeshFactors::new(4, 4, 4)),
        ];
        for (model, mesh) in cases {
            for ffn in FFNS {
                for attn in [AttnSharding::Head, AttnSharding::Batch] {
                    let layout = Layout { ffn, attn, mesh };
                    let Ok(s) = build_schedule(&model, &layout, 16, 1) else {
                        continue;
                    };
                    let pieces = layout.layer_comm(&model, 16.0);
                    check_comm_table(&model, &s, &pieces).unwrap();
                    out.push((model.clone(), s, pieces));
                }
            }
        }
        out
    }

    #[test]
    fn comm_table_catches_a_cloned_collective() {
        let mut clones = 0;
        for (model, s, pieces) in mutation_cases() {
            for step in &s.layer {
                let Step::Collective { label, axes, .. } = step else {
                    continue;
                };
                if s.torus.group_size(*axes) == 1 {
                    continue;
                }
                let mut bad = s.clone();
                bad.layer.push(step.clone());
                let err = check_comm_table(&model, &bad, &pieces).unwrap_err();
                assert!(err.contains(label), "{} + {label}: {err}", case(&model, &s));
                clones += 1;
            }
        }
        assert!(clones > 100, "{clones} clones");
    }

    #[test]
    fn comm_table_catches_a_mutated_piece() {
        for (model, s, pieces) in mutation_cases() {
            for (i, p) in pieces.iter().enumerate() {
                if p.group <= 1.0 {
                    continue;
                }
                let at = |f: &dyn Fn(&mut Vec<CommPiece>)| {
                    let mut bad = pieces.clone();
                    f(&mut bad);
                    check_comm_table(&model, &s, &bad).unwrap_err()
                };
                let what = format!("{} {}", case(&model, &s), p.label);
                // (b) a duplicated piece.
                let err = at(&|b| b.push(b[i]));
                assert!(err.contains(p.label), "{what}: {err}");
                // (c) one piece's elements doubled.
                let err = at(&|b| b[i].elements *= 2.0);
                assert!(err.contains(p.label), "{what}: {err}");
                // (d) one piece's group changed.
                let err = at(&|b| b[i].group *= 2.0);
                let old = Bucket {
                    all_to_all: p.kind == PieceKind::AllToAll,
                    weights: p.is_weights,
                    group: p.group as usize,
                };
                let new = Bucket { group: 2 * old.group, ..old };
                assert!(
                    err.contains(&old.to_string()) || err.contains(&new.to_string()),
                    "{what}: {err}"
                );
            }
        }
    }
}
