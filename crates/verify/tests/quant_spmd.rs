//! Property tests for the SPMD pass over the int8 schedule surface.
//!
//! Two properties:
//!
//! * **Acceptance**: every schedule the runtime can emit — any built-in
//!   layout, with or without int8 weight annotation — extracts to per-chip
//!   programs that pass [`check_schedule_spmd`]. The wire format is part of
//!   the checked protocol.
//! * **Rejection**: corrupting a single chip's program by flipping one op's
//!   wire dtype — a disagreement the runtime's `debug_check_agreement`
//!   catches dynamically — must be rejected by [`check_spmd`]. A lint that
//!   cannot see a divergent rank would prove nothing about the fleet.

use esti_core::layout::MeshFactors;
use esti_core::schedule::{build_schedule, Schedule, WireFormat};
use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout};
use esti_hal::DType;
use esti_verify::spmd::ChipOp;
use esti_verify::{check_schedule_spmd, check_spmd, per_chip_program};
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

fn build(layout: &Layout, batch: usize, int8: bool) -> Schedule {
    let cfg = esti_model::ModelConfig::tiny();
    let s = build_schedule(&cfg, layout, batch, 1).expect("built-in layout must build");
    if int8 {
        s.with_weight_dtype(DType::Int8)
    } else {
        s
    }
}

/// Index of an op in `programs[chip]` whose group spans more than one
/// member — a divergence there is observable by a peer. (Degenerate mesh
/// axes of extent 1 make singleton groups, where no peer exists to
/// disagree with; the runtime's identity shortcut never exchanges there.)
fn shared_op_index(s: &Schedule, program: &[ChipOp]) -> Option<usize> {
    program
        .iter()
        .position(|op| s.torus.group_of(op.group.base, op.group.axes).len() > 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runtime_emittable_schedules_are_spmd_clean(
        layout in prop::sample::select(layout_points()),
        batch in prop::sample::select(vec![4usize, 8]),
        int8 in prop::sample::select(vec![false, true]),
    ) {
        let s = build(&layout, batch, int8);
        let report = check_schedule_spmd(&s).expect("emittable schedule must pass");
        prop_assert!(report.chips == 4);
        prop_assert!(report.ops > 0);
        if int8 && matches!(layout.ffn, FfnLayout::WeightGathered(_)) {
            let quant_ops = per_chip_program(&s, 1).expect("programs extract")[0]
                .iter()
                .filter(|op| op.wire == WireFormat::Int8)
                .count();
            prop_assert!(quant_ops > 0, "int8 annotation must reach the programs");
        }
    }

    #[test]
    fn single_rank_wire_dtype_divergence_is_rejected(
        layout in prop::sample::select(layout_points()),
        victim in 0usize..4,
    ) {
        let s = build(&layout, 8, true);
        let mut programs = per_chip_program(&s, 1).expect("programs extract");
        let Some(i) = shared_op_index(&s, &programs[victim]) else {
            prop_assert!(false, "every built-in layout has a shared collective");
            continue;
        };
        // Flip whatever the op carries: dense ranks posting into a
        // quantized exchange and vice versa are the same runtime assert.
        programs[victim][i].wire = match programs[victim][i].wire {
            WireFormat::Dense => WireFormat::Int8,
            WireFormat::Int8 => WireFormat::Dense,
        };
        prop_assert!(
            check_spmd(s.torus, &programs).is_err(),
            "a rank disagreeing on wire dtype must be flagged"
        );
    }
}
