//! The central correctness claim of the functional runtime: every
//! partitioned layout computes exactly what the single-chip reference
//! computes, for both phases, both attention variants, and both block
//! formulations.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{KvCache, ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};
use esti_tensor::Tensor;

const TOL: f32 = 2e-3;

fn layouts_for(n: usize, attn: AttnSharding) -> Vec<Layout> {
    let mut v = vec![
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn,
            mesh: MeshFactors::new(1, n, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn,
            mesh: MeshFactors::new(n, 1, 1),
        },
    ];
    if n == 4 {
        v.push(Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        });
    }
    v
}

fn reference_prefill(model: &ReferenceModel, tokens: &[Vec<usize>]) -> (Tensor, KvCache) {
    let mut cache = KvCache::new(model.config().n_layers);
    let logits = model.prefill(tokens, &mut cache);
    (logits, cache)
}

fn check_prefill_and_decode(model: &ReferenceModel, layout: Layout, tokens: &[Vec<usize>]) {
    let (ref_logits, mut ref_cache) = reference_prefill(model, tokens);
    let mut engine = PartitionedEngine::new(model, layout, WeightFormat::Exact);
    let logits = engine.try_prefill(tokens).unwrap();
    assert!(
        logits.approx_eq(&ref_logits, TOL),
        "{} prefill: max diff {:e}",
        layout.describe(),
        logits.max_abs_diff(&ref_logits)
    );

    // Two decode steps, checking every step.
    let mut next: Vec<usize> = (0..tokens.len()).map(|b| (b + 1) % model.config().vocab).collect();
    for step in 0..2 {
        let ref_step = model.decode_step(&next, &mut ref_cache);
        let eng_step = engine.try_decode_step(&next).unwrap();
        assert!(
            eng_step.approx_eq(&ref_step, TOL),
            "{} decode step {step}: max diff {:e}",
            layout.describe(),
            eng_step.max_abs_diff(&ref_step)
        );
        next = next.iter().map(|&t| (t * 7 + 3) % model.config().vocab).collect();
    }
}

#[test]
fn multiquery_head_sharded_matches_reference() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 42);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 1, b + 5, b + 9, b + 2]).collect();
    for n in [1usize, 2, 4] {
        for layout in layouts_for(n, AttnSharding::Head) {
            check_prefill_and_decode(&model, layout, &tokens);
        }
    }
}

#[test]
fn multiquery_batch_sharded_matches_reference() {
    // The paper's optimized layout: Q/K/V resharded over batch by
    // all-to-all, KV cache divided n ways (Section 3.3, Figure 5b).
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 43);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 1, b + 5, b + 9, b + 2]).collect();
    for n in [2usize, 4] {
        for layout in layouts_for(n, AttnSharding::Batch) {
            check_prefill_and_decode(&model, layout, &tokens);
        }
    }
}

#[test]
fn multihead_serial_matches_reference() {
    // Megatron-style model: multihead attention, serialized blocks, GELU.
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 44);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 3, b + 1, b + 7, b]).collect();
    for n in [2usize, 4] {
        for layout in layouts_for(n, AttnSharding::Head) {
            check_prefill_and_decode(&model, layout, &tokens);
        }
    }
}

#[test]
fn serial_multiquery_matches_reference() {
    let mut cfg = ModelConfig::tiny();
    cfg.block = esti_model::BlockKind::Serial;
    let model = ReferenceModel::init_random(cfg, 45);
    let tokens: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 4, b + 6]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 2, 1),
    };
    check_prefill_and_decode(&model, layout, &tokens);
}

#[test]
fn batch_sharded_kv_cache_is_divided_n_ways() {
    // Table 1's mechanism, observed directly: batch sharding divides the
    // per-chip KV cache by n; head sharding (baseline multiquery)
    // replicates it.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 46);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b; 6]).collect();
    let n = 4;
    let head = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, n, 1),
    };
    let batch = Layout { attn: AttnSharding::Batch, ..head };
    let mut e_head = PartitionedEngine::new(&model, head, WeightFormat::Exact);
    let mut e_batch = PartitionedEngine::new(&model, batch, WeightFormat::Exact);
    let _ = e_head.try_prefill(&tokens).unwrap();
    let _ = e_batch.try_prefill(&tokens).unwrap();
    let head_kv = e_head.max_cache_elements_per_chip();
    let batch_kv = e_batch.max_cache_elements_per_chip();
    assert_eq!(head_kv, n * batch_kv, "batch sharding must divide the KV cache {n} ways");
}

#[test]
fn incremental_prefill_matches_single_shot() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 47);
    let tokens: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 2, b + 3, b + 4, b + 5, b + 6]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut one = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let full = one.try_prefill(&tokens).unwrap();

    let mut two = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let first: Vec<Vec<usize>> = tokens.iter().map(|t| t[..2].to_vec()).collect();
    let rest: Vec<Vec<usize>> = tokens.iter().map(|t| t[2..].to_vec()).collect();
    let _ = two.try_prefill(&first).unwrap();
    let tail = two.try_prefill(&rest).unwrap();
    assert!(tail.approx_eq(&full.slice(1, 2, 4), TOL));
    assert_eq!(one.cache_len(), two.cache_len());
}

#[test]
fn int8_weights_stay_close_to_exact() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 48);
    let tokens: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 8]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut exact = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let mut int8 = PartitionedEngine::new(&model, layout, WeightFormat::Int8);
    let le = exact.try_prefill(&tokens).unwrap();
    let li = int8.try_prefill(&tokens).unwrap();
    assert!(!le.approx_eq(&li, 1e-6), "int8 must actually quantize");
    // Logit scale for the tiny model is O(10); int8 noise stays small.
    let rel = li.max_abs_diff(&le)
        / le.data().iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1.0);
    assert!(rel < 0.08, "int8 relative error {rel}");
}

#[test]
fn bf16_weights_stay_close_to_exact() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 48);
    let tokens: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 8]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut exact = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let mut bf16 = PartitionedEngine::new(&model, layout, WeightFormat::Bf16);
    let le = exact.try_prefill(&tokens).unwrap();
    let lb = bf16.try_prefill(&tokens).unwrap();
    let rel = lb.max_abs_diff(&le)
        / le.data().iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1.0);
    assert!(rel < 0.02, "bf16 relative error {rel}");
}

#[test]
fn generation_matches_reference_greedy() {
    use esti_runtime::GenerateOptions;
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 49);
    let prompts: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 2, b + 3, b + 4]).collect();

    // Reference greedy generation.
    let mut cache = KvCache::new(model.config().n_layers);
    let logits = model.prefill(&prompts, &mut cache);
    let v = model.config().vocab;
    let mut last = logits.slice(1, 3, 1).into_reshape(vec![2, v]);
    let mut expect: Vec<Vec<usize>> = vec![Vec::new(); 2];
    for _ in 0..5 {
        let next: Vec<usize> = (0..2)
            .map(|b| {
                let row = &last.data()[b * v..(b + 1) * v];
                esti_tensor::sample::argmax(row)
            })
            .collect();
        for (e, &t) in expect.iter_mut().zip(&next) {
            e.push(t);
        }
        last = model.decode_step(&next, &mut cache);
    }

    for n in [1usize, 2] {
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, n, 1),
        };
        let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        let opts = GenerateOptions { max_new_tokens: 5, ..GenerateOptions::default() };
        let out = engine.generate(&prompts, &opts);
        assert_eq!(out, expect, "greedy generation must match reference (n={n})");
    }
}

#[test]
#[should_panic(expected = "requires multiquery")]
fn batch_sharding_rejected_for_multihead() {
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 51);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let _ = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
}

#[test]
#[should_panic(expected = "batch divisible")]
fn batch_sharding_requires_divisible_batch() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 52);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let _ = engine.try_prefill(&[vec![1, 2, 3]]).unwrap(); // batch 1 on 4 chips
}

#[test]
fn multi_sample_expansion_matches_repeated_prefill() {
    // The Section 4.4 low-latency recipe: prefill a small batch, expand the
    // KV cache k times, decode k samples per prompt. Must equal prefilling
    // the repeated prompts directly.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 53);
    let prompts: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 5, b + 9]).collect();
    let repeated: Vec<Vec<usize>> = prompts
        .iter()
        .flat_map(|p| std::iter::repeat_n(p.clone(), 2))
        .collect(); // [p0, p0, p1, p1]

    let mut ref_cache = KvCache::new(model.config().n_layers);
    let _ = model.prefill(&repeated, &mut ref_cache);
    let expect = model.decode_step(&[7, 8, 9, 10], &mut ref_cache);

    for layout in [
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(1, 2, 1),
        },
        // 2D mesh of two chips (x only) so the batch of 2 divides evenly.
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 1, 1),
        },
    ] {
        let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        let _ = engine.try_prefill(&prompts).unwrap();
        engine.expand_batch(2);
        let got = engine.try_decode_step(&[7, 8, 9, 10]).unwrap();
        assert!(
            got.approx_eq(&expect, TOL),
            "{}: max diff {:e}",
            layout.describe(),
            got.max_abs_diff(&expect)
        );
    }
}

#[test]
#[should_panic(expected = "prior prefill")]
fn expand_batch_requires_prefill() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 54);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    engine.expand_batch(2);
}

#[test]
fn hybrid_weight_gathered_matches_reference() {
    // The X / XY hybrid layouts (Figure A.2): batch sharded over the
    // gather groups, 1D weight-stationary within each local group.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 55);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 1, b + 6, b + 11]).collect();
    for (mesh, extent) in [
        // 4 chips as 2 gather groups x 2 local chips.
        (MeshFactors::new(2, 2, 1), GatherExtent::X),
        // 4 chips as 4 gather groups... XY on 2x2 mesh = full gather,
        // exercising the degradation path.
        (MeshFactors::new(2, 2, 1), GatherExtent::Xy),
    ] {
        for attn in [AttnSharding::Head, AttnSharding::Batch] {
            let layout = Layout { ffn: FfnLayout::WeightGathered(extent), attn, mesh };
            check_prefill_and_decode(&model, layout, &tokens);
        }
    }
}

#[test]
fn hybrid_weight_gathered_multihead_serial() {
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 56);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 2, b + 9]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::X),
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(2, 2, 1),
    };
    check_prefill_and_decode(&model, layout, &tokens);
}

#[test]
fn hybrid_gathers_less_weight_traffic_than_full_wg() {
    // The point of the hybrid (Figure 3): gathering over N < n chips, a
    // chip receives N/n of the weight bytes per layer.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 57);
    let tokens: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 1, b + 2]).collect();
    let mesh = MeshFactors::new(2, 2, 1);
    let mut hybrid = PartitionedEngine::new(
        &model,
        Layout { ffn: FfnLayout::WeightGathered(GatherExtent::X), attn: AttnSharding::Head, mesh },
        WeightFormat::Exact,
    );
    let mut full = PartitionedEngine::new(
        &model,
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        },
        WeightFormat::Exact,
    );
    let _ = hybrid.try_prefill(&tokens).unwrap();
    let _ = full.try_prefill(&tokens).unwrap();
    use esti_collectives::CollectiveOp;
    let (hybrid, full) = (hybrid.traffic(), full.traffic());
    // The ledger charges each group's gather once, at its gathered volume,
    // so a chip receives its group's share: the hybrid's two X groups of 2
    // chips each make every call full WG's one group of 4 makes.
    assert_eq!(hybrid.calls(CollectiveOp::AllGather), 2 * full.calls(CollectiveOp::AllGather));
    let cfg = model.config();
    let per_chip_layer = |bytes: u64, groups: u64| bytes / groups / cfg.n_layers as u64;
    let h = per_chip_layer(hybrid.bytes(CollectiveOp::AllGather), 2);
    let f = per_chip_layer(full.bytes(CollectiveOp::AllGather), 1);
    // wq, wo, w_in, w_gate and w_out at 2 bytes an element (MQ K/V are
    // replicated).
    let weights = ((cfg.attn_dim() * cfg.d_model * 2 + cfg.d_model * cfg.d_ff * 3) * 2) as u64;
    assert_eq!(f, weights, "a full-WG chip receives every gathered weight of a layer");
    assert_eq!(2 * h, f, "a hybrid chip gathering over N = 2 of n = 4 chips receives N/n of full WG's {f} bytes");
}

#[test]
fn n_samples_generation_diversifies_and_stays_consistent() {
    use esti_runtime::GenerateOptions;
    use esti_tensor::sample::Sampling;
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 58);
    let prompts: Vec<Vec<usize>> = (0..2).map(|b| vec![b + 1, b + 4, b + 7]).collect();
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };

    // Greedy with n_samples: every sample of a prompt is identical, and
    // identical to the plain-generation output.
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let plain = engine.generate(
        &prompts,
        &GenerateOptions { max_new_tokens: 5, ..GenerateOptions::default() },
    );
    let multi = engine.generate(
        &prompts,
        &GenerateOptions { max_new_tokens: 5, n_samples: 3, ..GenerateOptions::default() },
    );
    assert_eq!(multi.len(), 6);
    for p in 0..2 {
        for s in 0..3 {
            assert_eq!(multi[p * 3 + s], plain[p], "prompt {p} sample {s}");
        }
    }

    // Stochastic sampling: samples of the same prompt should not all agree.
    let sampled = engine.generate(
        &prompts,
        &GenerateOptions {
            max_new_tokens: 6,
            n_samples: 4,
            sampling: Sampling::TopK(8),
            seed: 11,
        },
    );
    let first_prompt: Vec<_> = sampled[0..4].to_vec();
    assert!(
        first_prompt.iter().any(|s| s != &first_prompt[0]),
        "top-k samples should diversify: {first_prompt:?}"
    );
}

