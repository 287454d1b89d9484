//! What the runtime suites share.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};

/// Every decode layout shape the runtime implements, on four chips.
pub fn decode_layouts(attn: AttnSharding) -> Vec<Layout> {
    vec![
        Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh: MeshFactors::new(1, 4, 1) },
        Layout { ffn: FfnLayout::WeightStationary2D, attn, mesh: MeshFactors::new(2, 2, 1) },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn,
            mesh: MeshFactors::new(4, 1, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::X),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xy),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
    ]
}
