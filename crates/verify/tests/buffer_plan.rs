//! The buffer plan the engine runs and memfit charges.
//!
//! * **Soundness**: on every built-in layout at 1/2/4 chips for four small
//!   models, and on every schedule esti-lint accepts (the built-in
//!   scenarios × their sweep layouts, at each scenario's batch), no two
//!   values live at one step share a slot, checked against an independent
//!   walk of the steps' operands; nor does a value take the slot of one a
//!   collective moved into its deposit before the chip's next rendezvous
//!   on that group hands the buffer back.
//! * **memfit**: on every combination esti-lint passes, the activation
//!   bytes memfit charges are the plan's peak in bf16 — the larger of the
//!   two programs' peaks on a weight-gathered layout that decodes on a
//!   partner.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_core::schedule::{build_schedule, decode_partner, BufferPlan, ChipProgram, Operand, Schedule, Step, SymOp};
use esti_model::{BlockKind, MlpKind, ModelConfig, PositionKind};
use esti_verify::scenarios::{check_combo, sweep_layouts};
use esti_verify::{builtin_scenarios, Outcome};

/// Every built-in ffn layout.
const FFNS: [FfnLayout; 5] = [
    FfnLayout::WeightStationary1D,
    FfnLayout::WeightStationary2D,
    FfnLayout::WeightGathered(GatherExtent::Xyz),
    FfnLayout::WeightGathered(GatherExtent::X),
    FfnLayout::WeightGathered(GatherExtent::Xy),
];

/// Every verified schedule of the small grid (one row per chip) and of
/// esti-lint's, with a name, its model and whether esti-lint sweeps it.
fn grid() -> Vec<(String, ModelConfig, Schedule, bool)> {
    let serial = ModelConfig { block: BlockKind::Serial, ..ModelConfig::tiny() };
    let gelu = ModelConfig { mlp: MlpKind::Gelu, position: PositionKind::Learned, ..ModelConfig::tiny() };
    let meshes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (4, 1, 1), (1, 4, 1), (1, 2, 2)];
    let mut points: Vec<(ModelConfig, Layout, usize, bool)> = Vec::new();
    for cfg in [ModelConfig::tiny(), ModelConfig::tiny_multihead(), serial, gelu] {
        for ffn in FFNS {
            for attn in [AttnSharding::Head, AttnSharding::Batch] {
                for &(x, y, z) in &meshes {
                    let mesh = MeshFactors::new(x, y, z);
                    points.push((cfg.clone(), Layout { ffn, attn, mesh }, mesh.n_chips(), false));
                }
            }
        }
    }
    for sc in builtin_scenarios() {
        for layout in sweep_layouts(&sc.model, sc.machine.n_chips()) {
            points.push((sc.model.clone(), layout, sc.batch, true));
        }
    }
    let verified = |(cfg, layout, batch, lint): (ModelConfig, Layout, usize, bool)| {
        let s = build_schedule(&cfg, &layout, batch, 1).and_then(|s| s.verify().map(|()| s)).ok()?;
        Some((format!("{} {} at batch {batch}", cfg.name, layout.describe()), cfg, s, lint))
    };
    points.into_iter().filter_map(verified).collect()
}

#[test]
fn the_buffer_plan_never_gives_two_live_values_one_slot() {
    let (mut small, mut swept) = (0, 0);
    for (what, cfg, s, lint) in grid() {
        let p = BufferPlan::new(&s, &cfg);
        let split = s.layer.len();
        // An independent walk of the steps' operands: each value's last
        // reader, and which values are an einsum's parts.
        let steps: Vec<&Step> = s.layer.iter().chain(&s.final_steps).collect();
        let reads = |st: &Step| -> Vec<Operand> {
            match st {
                Step::Collective { input, .. } => vec![*input],
                Step::Einsum { x, w, .. } => vec![*x, *w],
                Step::Local { inputs, .. } => inputs.clone(),
            }
        };
        let mut readers = vec![Vec::new(); steps.len()];
        for (k, st) in steps.iter().enumerate() {
            for r in reads(st) {
                if let Operand::Step(j) = r {
                    readers[j].push(k);
                }
            }
        }
        let last: Vec<usize> = readers.iter().enumerate().map(|(j, r)| r.iter().copied().max().unwrap_or(j)).collect();
        let gathered = |j: usize| {
            matches!(steps[j], Step::Collective { op: SymOp::AllGather { .. }, .. })
                && readers[j].iter().any(|&k| matches!(steps[k], Step::Einsum { .. }))
        };
        for (j, step) in steps.iter().enumerate() {
            assert_eq!(p.parts[j], gathered(j), "{what}: step {j} hands an einsum its parts");
            let slot = p.value[j];
            if gathered(j) || j + 1 == split {
                assert_eq!(slot, None, "{what}: step {j} holds no slot");
            } else {
                let slot = slot.unwrap_or_else(|| panic!("{what}: step {j} has a slot"));
                let size = step.output().local_elements(s.torus).unwrap();
                assert!(p.sizes[slot] >= size, "{what}: step {j}'s slot holds it");
            }
        }
        // Each moved collective's value and the step its buffer comes back
        // at: the next collective over the same axes in its segment, or in
        // a layer the next layer's first.
        let axes = |k: usize| match steps[k] {
            Step::Collective { axes, .. } => Some(*axes),
            _ => None,
        };
        let mut lent: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for (c, step) in steps.iter().enumerate().filter(|&(c, _)| p.moves[c]) {
            let Step::Collective { input: Operand::Step(j), .. } = step else {
                panic!("{what}: step {c} moves a value it does not post")
            };
            assert_eq!(last[*j], c, "{what}: step {c} moves a value read after it");
            let same = |m: &usize| axes(*m) == axes(c);
            let back = if c < split { (c + 1..split).find(same).or_else(|| (0..split).find(same)) } else { (c + 1..steps.len()).find(same) };
            if let Some(m) = back {
                assert_eq!(p.back[m], p.value[*j], "{what}: step {m} hands step {c}'s buffer back to its slot");
            }
            lent.push((c, *j, back));
        }
        for (k, step) in steps.iter().enumerate() {
            // An op in place overwrites the operand it reads last.
            let overwritten = match (step, p.in_place[k]) {
                (Step::Local { inputs, .. }, Some(i)) => Some(inputs[i]),
                _ => None,
            };
            if let Some(Operand::Step(j)) = overwritten {
                assert_eq!(last[j], k, "{what}: step {k} overwrites a live value");
                assert_eq!(p.value[j], p.value[k], "{what}: step {k} runs in its operand's slot");
            }
            let dead = |j: usize| last[j] < k || overwritten == Some(Operand::Step(j));
            let live = (0..=k).filter(|&j| !dead(j)).filter_map(|j| p.value[j]);
            // A lent buffer's slot stays reserved from its collective to
            // the step that hands it back, in this layer or from the last.
            let out = |&&(c, _, back): &&(usize, usize, Option<usize>)| match back {
                Some(m) if m > c => c < k && k <= m,
                Some(m) => (c < k && k < split) || k <= m,
                None => c < k,
            };
            let lent = lent.iter().filter(out).filter_map(|&(_, j, _)| p.value[j]);
            let mut held: Vec<usize> = live.chain(lent).chain(p.scratch[k].iter().copied()).collect();
            held.extend(p.resid);
            let n = held.len();
            held.sort_unstable();
            held.dedup();
            assert_eq!(held.len(), n, "{what}: two values live at step {k} ({}) share a slot", step.label());
            // What is live at a step, with the residual pair in the layers
            // and the stream after them, fits in the plan's peak.
            let stream = if k < split { 2 } else { 1 };
            let live: usize = held.iter().filter(|&s| !p.resid.contains(s)).map(|&s| p.sizes[s]).sum();
            let held = live + p.resid[..stream].iter().map(|&s| p.sizes[s]).sum::<usize>();
            assert!(held <= p.peak_elements(), "{what}: step {k} holds {held} elements past the peak");
        }
        assert!(p.peak_elements() <= p.sizes.iter().sum(), "{what}: the peak exceeds every slot at once");
        *if lint { &mut swept } else { &mut small } += 1;
    }
    assert!(small >= 60, "only {small} small schedules checked");
    assert!(swept >= 35, "only {swept} of esti-lint's schedules checked");
}

#[test]
fn memfit_charges_the_plans_peak_on_every_accepted_schedule() {
    let (mut checked, mut paired) = (0, 0);
    for sc in builtin_scenarios() {
        for layout in sweep_layouts(&sc.model, sc.machine.n_chips()) {
            let Outcome::Pass { mem, .. } = check_combo(&sc, &layout) else { continue };
            let s = build_schedule(&sc.model, &layout, sc.batch, 1).unwrap();
            let mut peak = BufferPlan::new(&s, &sc.model).peak_elements();
            let p = ChipProgram::compile(&s, &sc.model).unwrap();
            if let Ok(Some((partner, _))) = decode_partner(&s, &p) {
                assert_eq!(mem.decode, Some(Ok(partner)), "{} {}", sc.model.name, layout.describe());
                let d = build_schedule(&sc.model, &partner, sc.batch, 1).unwrap();
                peak = peak.max(BufferPlan::new(&d, &sc.model).peak_elements());
                paired += 1;
            }
            assert_eq!(mem.act_bytes, peak as f64 * 2.0, "{} {}", sc.model.name, layout.describe());
            checked += 1;
        }
    }
    assert!(checked >= 35, "only {checked} accepted schedules");
    assert!(paired > 0, "no accepted weight-gathered schedule decodes on a partner");
}
