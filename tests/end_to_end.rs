//! Workspace-level integration tests: the planner (esti-core), the
//! functional runtime (esti-runtime), the network simulator (esti-netsim)
//! and the memory model must agree with each other, not just each pass
//! their own unit tests.

use esti::core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors, PieceKind};
use esti::core::memory;
use esti::core::pareto::{decode_sweep, pareto_frontier};
use esti::core::planner::{decode_layout_for_batch, plan_inference};
use esti::core::Machine;
use esti::hal::{ChipSpec, DType};
use esti::model::{KvCache, ModelConfig, ReferenceModel};
use esti::netsim::{analytic_time, simulate_collective, CollectiveKind};
use esti::runtime::{
    ContinuousBatcher, GenerateOptions, PartitionedEngine, ServingOptions, ServingRequest,
    WeightFormat,
};
use esti::tensor::sample::argmax;
use esti::topology::{Axis, AxisSet, TorusShape};

#[test]
fn planner_choices_drive_a_working_engine() {
    // The layout the planner picks for decode must execute correctly.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 100);
    let machine = Machine::tpu_v4_slice(4).expect("catalog");
    let layout = decode_layout_for_batch(model.config(), &machine, 4);
    assert_eq!(layout.ffn, FfnLayout::WeightStationary2D);
    assert_eq!(layout.attn, AttnSharding::Batch);

    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let prompts: Vec<Vec<usize>> = (0..4).map(|b| vec![b + 1, b + 3, b + 5, b + 7]).collect();

    let mut cache = KvCache::new(model.config().n_layers);
    let expect = model.prefill(&prompts, &mut cache);
    let got = engine.try_prefill(&prompts).unwrap();
    assert!(got.approx_eq(&expect, 2e-3), "max diff {}", got.max_abs_diff(&expect));
}

#[test]
fn plans_for_every_paper_model_are_sane() {
    for model in ModelConfig::paper_models() {
        for dtype in [DType::Bf16, DType::Int8] {
            let machine = Machine::tpu_v4_slice(64).expect("catalog");
            let plan = plan_inference(&model, &machine, 256, 2048, 64, dtype);
            assert!(plan.total_latency > 0.0, "{} {dtype}", model.name);
            assert!(plan.total_mfu > 0.01 && plan.total_mfu < 1.0, "{} {dtype}", model.name);
            assert!(
                plan.prefill_est.step_time > plan.decode_est.step_time / 64.0,
                "prefill of 2048 tokens must beat one decode step ({})",
                model.name
            );
        }
    }
}

#[test]
fn runtime_kv_footprint_matches_memory_model() {
    // The memory model's per-chip KV accounting (Table 1's engine) must
    // equal what the functional runtime actually stores.
    let cfg = ModelConfig::tiny();
    let model = ReferenceModel::init_random(cfg.clone(), 101);
    let (batch, len, n) = (4usize, 6usize, 4usize);
    let prompts: Vec<Vec<usize>> = (0..batch).map(|b| vec![b % 7; len]).collect();
    for sharding in [AttnSharding::Head, AttnSharding::Batch] {
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: sharding,
            mesh: MeshFactors::new(1, n, 1),
        };
        let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        let _ = engine.try_prefill(&prompts).unwrap();
        let measured_elems = engine.max_cache_elements_per_chip() as f64;
        let model_bytes = memory::kv_bytes_per_chip(&cfg, sharding, n, batch, len, DType::F32);
        assert_eq!(
            measured_elems * 4.0,
            model_bytes,
            "KV accounting mismatch under {sharding:?}"
        );
    }
}

#[test]
fn netsim_validates_the_perf_models_collective_costs() {
    // The perf model charges WS2D's E/X-sized pieces over the yz axes and
    // its F/YZ-sized pieces over the x axis; the event simulator must agree
    // with the closed forms it uses.
    let chip = ChipSpec::tpu_v4();
    let torus = TorusShape::new(4, 4, 4);
    for (axes, bytes) in [
        (AxisSet::single(Axis::X), 2e6),
        (AxisSet::of(&[Axis::Y, Axis::Z]), 2e6),
    ] {
        for kind in [CollectiveKind::AllGather, CollectiveKind::ReduceScatter] {
            let sim = simulate_collective(&chip, torus, kind, axes, bytes);
            let ana = analytic_time(&chip, torus, kind, axes, bytes);
            let rel = (sim - ana).abs() / ana;
            assert!(rel < 0.4, "{kind:?} over {axes}: sim {sim} vs analytic {ana}");
        }
    }
}

#[test]
fn comm_pieces_follow_the_paper_axis_assignment() {
    // Cross-check of Appendix A.2.1 as encoded in the layout: at the
    // optimal mesh for F = 4E, the per-axis piece volumes are equal.
    let model = ModelConfig::palm_62b(); // F = 4E
    let layout = Layout::ws2d(&model, 64);
    let pieces = layout.layer_comm(&model, 512.0);
    let yz: Vec<_> = pieces.iter().filter(|p| p.axes == 2).collect();
    let x: Vec<_> = pieces.iter().filter(|p| p.axes == 1).collect();
    assert_eq!(yz.len(), 2);
    assert_eq!(x.len(), 2);
    assert!(
        (yz[0].elements - x[0].elements).abs() / x[0].elements < 1e-9,
        "balanced mesh must equalize E/X and F/YZ volumes"
    );
    assert!(pieces.iter().all(|p| p.kind == PieceKind::GatherScatter || p.kind == PieceKind::AllToAll));
}

/// The single-chip oracle: greedy picks of the unpartitioned reference
/// model.
fn reference_greedy(model: &ReferenceModel, prompts: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let vocab = model.config().vocab;
    let mut cache = KvCache::new(model.config().n_layers);
    let prefill = model.prefill(prompts, &mut cache);
    let last = prefill.slice(1, prompts[0].len() - 1, 1);
    let mut logits = last.into_reshape(vec![prompts.len(), vocab]);
    let mut outputs = vec![Vec::new(); prompts.len()];
    for _ in 0..n {
        let next: Vec<usize> = logits.data().chunks(vocab).map(argmax).collect();
        for (out, &t) in outputs.iter_mut().zip(&next) {
            out.push(t);
        }
        logits = model.decode_step(&next, &mut cache);
    }
    outputs
}

#[test]
fn generation_is_deterministic_across_layouts() {
    // Greedy generation must produce identical tokens whichever layout
    // executes it — partitioning is an implementation detail. The layouts
    // cover all four dataflows, both attention shardings and the cuts whose
    // order is not canonical: the hybrid's weights (gathered axes innermost)
    // and 2D batch attention's rows (yz-major). The int8 pass sends quantized
    // weights through every weight gather; the multihead pass cuts the KV
    // heads too; every f32 pass reads each slot's KV back against the single
    // chip's. 13 prompt tokens + 8 decode steps reach 21 positions: the
    // default 16-position KV page fills mid-decode, so attention walks a
    // full page and a partial one.
    let multiquery = ReferenceModel::init_random(ModelConfig::tiny(), 102);
    let multihead = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 102);
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|b| (0..13).map(|i| (b * 5 + i * 3 + 2) % 40).collect()).collect();
    let opts = GenerateOptions { max_new_tokens: 8, ..GenerateOptions::default() };
    let (mesh_1d, mesh_2x2) = (MeshFactors::new(1, 4, 1), MeshFactors::new(2, 2, 1));
    let hybrid = FfnLayout::WeightGathered(GatherExtent::X);
    let layouts = [
        (FfnLayout::WeightStationary1D, AttnSharding::Head, mesh_1d),
        (FfnLayout::WeightStationary1D, AttnSharding::Batch, mesh_1d),
        (FfnLayout::WeightStationary2D, AttnSharding::Head, mesh_2x2),
        (FfnLayout::WeightStationary2D, AttnSharding::Batch, mesh_2x2),
        (FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Batch, MeshFactors::new(4, 1, 1)),
        (hybrid, AttnSharding::Head, mesh_2x2),
        (hybrid, AttnSharding::Batch, mesh_2x2),
    ]
    .map(|(ffn, attn, mesh)| Layout { ffn, attn, mesh });
    let head_sharded: Vec<Layout> = [0, 2, 5].iter().map(|&i| layouts[i]).collect();
    let passes = [
        (&multiquery, WeightFormat::Exact, &layouts[..]),
        (&multiquery, WeightFormat::Int8, &layouts[..]),
        (&multihead, WeightFormat::Exact, &head_sharded[..]),
    ];
    for (model, fmt, layouts) in passes {
        let mut outputs = Vec::new();
        for &layout in layouts {
            let mut engine = PartitionedEngine::new(model, layout, fmt);
            let out = engine.generate(&prompts, &opts);
            if fmt == WeightFormat::Exact {
                // The chips' KV, reassembled, is the single chip's: each
                // row and head where the canonical layout puts it.
                let seqs: Vec<Vec<usize>> = prompts.iter().zip(&out).map(|(p, o)| [&p[..], o].concat()).collect();
                let mut cache = KvCache::new(model.config().n_layers);
                let _ = model.prefill(&seqs, &mut cache);
                for slot in 0..seqs.len() {
                    for (li, (k, v)) in engine.extract_kv(slot).layers().iter().enumerate() {
                        let (want_k, want_v) = cache.read_slot(li, slot);
                        let what = format!("{} {}: slot {slot} layer {li}", model.config().name, layout.describe());
                        assert!(k.approx_eq(&want_k, 2e-3) && v.approx_eq(&want_v, 2e-3), "{what}: KV");
                    }
                }
            }
            outputs.push(out);
        }
        if fmt == WeightFormat::Exact {
            assert_eq!(outputs[0], reference_greedy(model, &prompts, opts.max_new_tokens));
        }
        for (layout, out) in layouts.iter().zip(&outputs).skip(1) {
            assert_eq!(
                outputs[0],
                *out,
                "{} {fmt:?}: {} diverged from {}",
                model.config().name,
                layout.describe(),
                layouts[0].describe()
            );
        }
    }
}

#[test]
fn expanded_samples_each_follow_their_prompt() {
    // Section 4.4's recipe through generate: prefill four prompts once,
    // expand the cache to two samples each, decode greedily. On ws1d × batch
    // and WG-XYZ the expansion re-spans every chip's rows; each sample must
    // still be the single chip's greedy continuation of its own prompt.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 104);
    let prompts: Vec<Vec<usize>> = (0..4).map(|b| (0..5).map(|i| (b * 7 + i * 3 + 1) % 40).collect()).collect();
    let expect = reference_greedy(&model, &prompts, 4);
    let opts = GenerateOptions { max_new_tokens: 4, n_samples: 2, ..GenerateOptions::default() };
    for (ffn, mesh) in [
        (FfnLayout::WeightStationary1D, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightGathered(GatherExtent::Xyz), MeshFactors::new(4, 1, 1)),
    ] {
        let layout = Layout { ffn, attn: AttnSharding::Batch, mesh };
        let out = PartitionedEngine::new(&model, layout, WeightFormat::Exact).generate(&prompts, &opts);
        let want: Vec<Vec<usize>> = expect.iter().flat_map(|e| [e.clone(), e.clone()]).collect();
        assert_eq!(out, want, "{}", layout.describe());
    }
}

#[test]
fn shared_prefix_requests_prefill_only_their_suffixes() {
    // Six requests behind a 20-token prefix on ws2d × batch (four rows per
    // prefill call): the first group of four is cold, the last two are
    // seeded with the prefix's whole pages from a live slot and run only the
    // rest — to the single chip's tokens at every page size: one position,
    // the default 16, and 64 ≥ the longest sequence (33), where each row is
    // one dense run and no whole page fits under a prompt.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 103);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary2D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(2, 2, 1),
    };
    let requests: Vec<ServingRequest> = (0..6)
        .map(|i| {
            let mut prompt: Vec<usize> = (0..20).map(|t| (4 + 9 * t) % 40).collect();
            prompt.extend((0..2 + i).map(|t| (1 + 7 * i + 3 * t) % 40));
            ServingRequest::immediate(prompt, 6)
        })
        .collect();
    let expect: Vec<Vec<usize>> = requests
        .iter()
        .map(|req| reference_greedy(&model, std::slice::from_ref(&req.prompt), 6).swap_remove(0))
        .collect();
    for page in [1, 16, 64] {
        let opts = ServingOptions {
            max_decode_batch: 8,
            kv_page_size: Some(page),
            ..ServingOptions::default()
        };
        let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
        let outcome = batcher.try_serve(&requests).expect("serves");
        assert_eq!(outcome.outputs, expect, "page {page}");
        let work = outcome.prefill;
        assert_eq!(work.tokens_reused, 2 * (20 / page * page), "page {page}: {work:?}");
        assert_eq!((work.rows, work.filler_rows), (8, 2), "page {page}");
    }
}

#[test]
fn pareto_frontiers_exist_for_all_models_and_dtypes() {
    for model in ModelConfig::paper_models() {
        for dtype in [DType::Bf16, DType::Int8] {
            let sweep = decode_sweep(&model, dtype, 2048);
            assert!(!sweep.is_empty(), "{} {dtype}: empty sweep", model.name);
            let frontier = pareto_frontier(&sweep, |p| p.cost);
            assert!(!frontier.is_empty());
            for w in frontier.windows(2) {
                assert!(w[0].latency <= w[1].latency);
                assert!(w[0].cost >= w[1].cost);
            }
        }
    }
}

#[test]
fn headline_chatbot_latency_is_order_correct() {
    // Section 1: 64-token turn + 1920-token history + 64-token reply on
    // 64 chips, int8 -> ~1.9s. Our simulated hardware should land within
    // 2x of that.
    let model = ModelConfig::palm_540b_padded();
    let machine = Machine::tpu_v4_slice(64).expect("catalog");
    let prefill_l = esti::core::planner::prefill_layout(&model, &machine, 1, 64, DType::Int8);
    let prefill = esti::core::perf::estimate(
        &machine,
        &model,
        &prefill_l,
        &esti::core::perf::PhaseSpec::prefill(1, 64),
        DType::Int8,
    );
    let decode_l = decode_layout_for_batch(&model, &machine, 64);
    let decode =
        esti::core::perf::generate_latency(&machine, &model, &decode_l, 64, 1984, 64, DType::Int8);
    let total = prefill.step_time + decode.step_time;
    assert!(total > 0.95 && total < 3.8, "chatbot total {total}s, paper 1.9s");
}
