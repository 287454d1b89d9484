//! Larger-mesh stress tests: eight simulated chips, a deeper model, longer
//! generation — checking that the equivalences of `equivalence.rs` survive
//! scale, not just the minimal configurations.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{AttentionKind, BlockKind, KvCache, MlpKind, ModelConfig, PositionKind, ReferenceModel};
use esti_runtime::{GenerateOptions, PartitionedEngine, WeightFormat};

/// A mid-size config exercising non-trivial head/ff splits on 8 chips.
fn medium() -> ModelConfig {
    ModelConfig {
        name: "medium".to_owned(),
        n_layers: 3,
        d_model: 32,
        d_ff: 64,
        n_heads: 8,
        d_head: 8,
        vocab: 67,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 128,
    }
}

fn prompts(b: usize, l: usize, v: usize) -> Vec<Vec<usize>> {
    (0..b).map(|i| (0..l).map(|j| (i * 13 + j * 7 + 1) % v).collect()).collect()
}

#[test]
fn eight_chip_layouts_match_reference() {
    let model = ReferenceModel::init_random(medium(), 200);
    let v = model.config().vocab;
    let tokens = prompts(8, 5, v);
    let mut cache = KvCache::new(model.config().n_layers);
    let expect = model.prefill(&tokens, &mut cache);

    let layouts = [
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(1, 8, 1),
        },
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 2, 2),
        },
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::X),
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(4, 2, 1), // 4 gather groups x 2 local
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(8, 1, 1),
        },
    ];
    for layout in layouts {
        let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        let got = engine.try_prefill(&tokens).unwrap();
        assert!(
            got.approx_eq(&expect, 5e-3),
            "{}: max diff {:e}",
            layout.describe(),
            got.max_abs_diff(&expect)
        );
    }
}

#[test]
fn long_generation_stays_locked_to_reference() {
    // 16 decode steps on 8 chips: error must not accumulate.
    let model = ReferenceModel::init_random(medium(), 201);
    let v = model.config().vocab;
    let tokens = prompts(8, 4, v);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary2D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(2, 2, 2),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let opts = GenerateOptions { max_new_tokens: 16, ..GenerateOptions::default() };
    let got = engine.generate(&tokens, &opts);

    // Reference greedy loop.
    let mut cache = KvCache::new(model.config().n_layers);
    let logits = model.prefill(&tokens, &mut cache);
    let mut last = logits.slice(1, 3, 1).into_reshape(vec![8, v]);
    let mut expect: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for _ in 0..16 {
        let next: Vec<usize> = (0..8)
            .map(|b| esti_tensor::sample::argmax(&last.data()[b * v..(b + 1) * v]))
            .collect();
        for (e, &t) in expect.iter_mut().zip(&next) {
            e.push(t);
        }
        last = model.decode_step(&next, &mut cache);
    }
    assert_eq!(got, expect);
}

#[test]
fn int8_generation_is_deterministic_and_plausible() {
    let model = ReferenceModel::init_random(medium(), 202);
    let tokens = prompts(8, 4, model.config().vocab);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 8, 1),
    };
    let opts = GenerateOptions { max_new_tokens: 8, ..GenerateOptions::default() };
    let mut a = PartitionedEngine::new(&model, layout, WeightFormat::Int8);
    let mut b = PartitionedEngine::new(&model, layout, WeightFormat::Int8);
    let out_a = a.generate(&tokens, &opts);
    let out_b = b.generate(&tokens, &opts);
    assert_eq!(out_a, out_b, "int8 generation must be deterministic");
    for seq in &out_a {
        assert!(seq.iter().all(|&t| t < model.config().vocab));
    }
}
