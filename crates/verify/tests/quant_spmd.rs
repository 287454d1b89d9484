//! Property tests for the SPMD pass over the int8 program surface.
//!
//! Two properties:
//!
//! * **Acceptance**: every program the runtime can run — any built-in
//!   layout's schedule, with or without int8 weight annotation, compiled —
//!   passes [`check_program_spmd`]. The wire format is part of the checked
//!   protocol.
//! * **Rejection**: one chip's clone of the program with one weight
//!   gather's wire format flipped — a disagreement the runtime's
//!   `debug_check_agreement` catches dynamically — must be rejected by
//!   [`check_spmd`]. A lint that cannot see a divergent rank would prove
//!   nothing about the fleet.

use esti_core::layout::MeshFactors;
use esti_core::schedule::{build_schedule, ChipProgram, Exchange, Instr, WireFormat};
use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout};
use esti_hal::DType;
use esti_verify::{check_program_spmd, check_spmd};
use proptest::prelude::*;

/// The built-in layout points the scenario sweep exercises, as
/// `(ffn, attn, mesh)` triples valid for the tiny config on 4 chips.
fn layout_points() -> Vec<Layout> {
    vec![
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        },
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::X),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xy),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        },
    ]
}

/// The program every chip runs for `layout` at `batch`.
fn compile(layout: &Layout, batch: usize, int8: bool) -> ChipProgram {
    let cfg = esti_model::ModelConfig::tiny();
    let s = build_schedule(&cfg, layout, batch, 1).expect("built-in layout must build");
    let dtype = if int8 { DType::Int8 } else { DType::Bf16 };
    ChipProgram::compile(&s.with_weight_dtype(dtype), &cfg).expect("built-in layout must compile")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runtime_emittable_schedules_are_spmd_clean(
        layout in prop::sample::select(layout_points()),
        batch in prop::sample::select(vec![4usize, 8]),
        int8 in prop::sample::select(vec![false, true]),
    ) {
        let p = compile(&layout, batch, int8);
        let report = check_program_spmd(&p).expect("emittable program must pass");
        prop_assert!(report.chips == 4);
        prop_assert!(report.ops > 0);
        if int8 && matches!(layout.ffn, FfnLayout::WeightGathered(_)) {
            let int8 = |e| matches!(e, Exchange::Weight { wire: WireFormat::Int8, .. });
            let quant_ops = p.collectives(1).filter(|c| int8(c.send)).count();
            prop_assert!(quant_ops > 0, "int8 annotation must reach the program");
        }
    }

    #[test]
    fn single_rank_wire_dtype_divergence_is_rejected(
        layout in prop::sample::select(layout_points()[2..].to_vec()),
        victim in 0usize..4,
    ) {
        // The weight-gathered layouts: only a stored weight's gather has a
        // wire format to disagree on.
        let p = compile(&layout, 8, true);
        let mut flipped = p.clone();
        // A weight gather whose group spans more than one member, so that
        // a peer observes the divergence. (Degenerate mesh axes of extent 1
        // make singleton groups, where the runtime's identity shortcut
        // never exchanges.)
        let shared = flipped.instrs.iter_mut().find_map(|i| match i {
            Instr::Collective(c) if p.torus.group_size(p.group_axes[c.group]) > 1 => match &mut c.send {
                Exchange::Weight { wire, .. } => Some(wire),
                _ => None,
            },
            _ => None,
        });
        let Some(wire) = shared else {
            prop_assert!(false, "every weight-gathered layout gathers over a shared group");
            continue;
        };
        *wire = WireFormat::Dense;
        let mut programs = vec![&p; 4];
        programs[victim] = &flipped;
        prop_assert!(check_spmd(&programs).is_err(), "a rank disagreeing on wire dtype must be flagged");
    }
}
