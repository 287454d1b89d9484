//! Cross-validation of the analytical communication model against the
//! runtime's measured collective traffic.
//!
//! The `esti-collectives` ledger records every collective call with the
//! Appendix A.1 byte conventions, so for layouts whose runtime dataflow
//! matches the paper's accounting exactly (1D weight-stationary parallel
//! blocks), the measured bytes must equal `Layout::layer_comm` to the byte.
//! Richer dataflows (2D, batch-sharded attention) are checked to agree
//! within a small factor, since the analytical model deliberately ignores
//! the small projection collectives the paper folds into fused einsums.

use esti_collectives::CollectiveOp;
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors, PieceKind};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

fn prompts(b: usize, l: usize) -> Vec<Vec<usize>> {
    (0..b).map(|i| (0..l).map(|j| (i * l + j) % 40).collect()).collect()
}

#[test]
fn ws1d_measured_bytes_equal_analytic_exactly() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let cfg = model.config();
    let n = 4;
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, n, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let (b, l) = (2usize, 3usize);
    let _ = engine.try_prefill(&prompts(b, l)).unwrap();

    // Analytic: per layer, one all-gather + one reduce-scatter of B·L·E
    // elements each (= one all-reduce), in bf16 accounting bytes.
    let tokens = (b * l) as f64;
    let analytic_per_layer: f64 = layout
        .layer_comm(cfg, tokens)
        .iter()
        .map(|p| p.elements * 2.0)
        .sum();
    let analytic = analytic_per_layer * cfg.n_layers as f64;

    let measured = engine.traffic().total_bytes() as f64;
    assert_eq!(measured, analytic, "1D ledger must match Appendix A.1 exactly");
    // And it is recorded as all-reduces (the fused parallel-block sum).
    assert_eq!(engine.traffic().calls(CollectiveOp::AllReduce) as usize, cfg.n_layers);
    assert_eq!(engine.traffic().calls(CollectiveOp::AllGather), 0);
}

#[test]
fn serial_block_measures_twice_the_all_reduces() {
    let mut cfg = ModelConfig::tiny();
    cfg.block = esti_model::BlockKind::Serial;
    let model = ReferenceModel::init_random(cfg, 8);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let _ = engine.try_prefill(&prompts(2, 3)).unwrap();
    // Section 3.4/4.3: the serialized formulation needs two all-reduces per
    // layer instead of one.
    assert_eq!(
        engine.traffic().calls(CollectiveOp::AllReduce) as usize,
        2 * model.config().n_layers
    );
}

#[test]
fn batch_sharded_attention_adds_two_all_to_alls_per_layer() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let cfg = model.config();
    let n = 4;
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, n, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let (b, l) = (4usize, 2usize);
    let _ = engine.try_prefill(&prompts(b, l)).unwrap();
    assert_eq!(
        engine.traffic().calls(CollectiveOp::AllToAll) as usize,
        2 * cfg.n_layers,
        "one Q reshard + one output reshard per layer (Figure 5b)"
    );
    // Measured all-to-all bytes within 2x of the analytic pieces (the
    // model also charges the K/V reshard, which multiquery gets for free).
    let tokens = (b * l) as f64;
    let analytic: f64 = layout
        .layer_comm(cfg, tokens)
        .iter()
        .filter(|p| p.kind == PieceKind::AllToAll)
        .map(|p| p.elements * 2.0)
        .sum::<f64>()
        * cfg.n_layers as f64;
    let measured = engine.traffic().bytes(CollectiveOp::AllToAll) as f64;
    assert!(
        measured <= 2.0 * analytic && measured >= 0.5 * analytic,
        "a2a measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn weight_gathered_traffic_is_weights_not_activations() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 10);
    let cfg = model.config();
    let n = 4;
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(n, 1, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let (b, l) = (4usize, 2usize);
    let _ = engine.try_prefill(&prompts(b, l)).unwrap();
    let stats = engine.traffic();
    // Per layer: one all-gather per weight matrix (wq, wo, w_in, w_gate,
    // w_out; MQ K/V are replicated). Each chip returns its own rows'
    // logits, so nothing is gathered after the last layer.
    assert_eq!(stats.calls(CollectiveOp::AllGather) as usize, 5 * cfg.n_layers);
    // Gathered weight volume per layer ≈ the analytic weights piece (which
    // uses params_per_layer and so also counts the K/V projections and
    // norms the runtime does not gather).
    let analytic_weights: f64 = layout
        .layer_comm(cfg, (b * l) as f64)
        .iter()
        .filter(|p| p.is_weights)
        .map(|p| p.elements * 2.0)
        .sum::<f64>()
        * cfg.n_layers as f64;
    let gathered_per_layer = (cfg.attn_dim() * cfg.d_model * 2 // wq, wo
        + cfg.d_model * cfg.d_ff * 3) as f64 // w_in, w_gate, w_out
        * 2.0;
    let measured = stats.bytes(CollectiveOp::AllGather) as f64;
    let expected = gathered_per_layer * cfg.n_layers as f64;
    assert_eq!(measured, expected, "WG ledger mismatch");
    assert!(
        (measured - analytic_weights).abs() / analytic_weights < 0.1,
        "measured {measured} vs analytic weights {analytic_weights}"
    );
}

#[test]
fn symbolic_schedule_call_counts_match_measured_runtime() {
    // The static analyzer (esti-verify Pass 2) plays the program compiled
    // from the symbolic schedule, the one every layout's chips run. What
    // the interpreter may still get wrong is skipping: chips
    // that do not emit the logits skip the final steps unless those
    // communicate. So the engine must issue precisely the collective calls
    // the schedule predicts, group for group, on every layout, block kind
    // (a serial 2D layer all-reduces layernorm moments twice and
    // reduce-scatters each residual branch on its own) and weight format:
    // in a prefill pass the layout's own schedule, in a decode step its
    // decode program's (a weight-gathered layout's partner, if it has one).
    use esti_core::schedule::{build_schedule, decode_partner, ChipProgram, Schedule, Step, SymOp};
    use esti_hal::DType;

    fn op_kind(op: SymOp) -> CollectiveOp {
        match op {
            SymOp::AllGather { .. } => CollectiveOp::AllGather,
            SymOp::ReduceScatter { .. } => CollectiveOp::ReduceScatter,
            SymOp::AllReduce => CollectiveOp::AllReduce,
            SymOp::AllToAll { .. } => CollectiveOp::AllToAll,
        }
    }

    // The five tier-1 layouts: all four dataflows, both attention shardings.
    let layouts = [
        (FfnLayout::WeightStationary1D, AttnSharding::Head, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary1D, AttnSharding::Batch, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary2D, AttnSharding::Batch, MeshFactors::new(2, 2, 1)),
        (FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Batch, MeshFactors::new(4, 1, 1)),
        (FfnLayout::WeightGathered(GatherExtent::X), AttnSharding::Head, MeshFactors::new(2, 2, 1)),
    ];
    let mut checked = 0;
    let serial = ModelConfig { block: esti_model::BlockKind::Serial, ..ModelConfig::tiny() };
    for cfg in [ModelConfig::tiny(), ModelConfig::tiny_multihead(), serial] {
        let model = ReferenceModel::init_random(cfg, 12);
        let cfg = model.config();
        for (ffn, attn, mesh) in layouts {
            if attn == AttnSharding::Batch && cfg.n_kv_heads() != 1 {
                continue; // batch-sharded attention needs multiquery
            }
            let layout = Layout { ffn, attn, mesh };
            let formats = [(WeightFormat::Exact, DType::F32), (WeightFormat::Int8, DType::Int8)];
            for (fmt, dtype) in formats {
                let (b, l) = (4usize, 2usize);
                let schedule = build_schedule(cfg, &layout, b * l, 1).expect("schedule");
                let schedule = schedule.with_weight_dtype(dtype);
                let program = ChipProgram::compile(&schedule, cfg).expect("program");
                let decode = match decode_partner(&schedule, &program) {
                    Ok(Some((partner, _))) => build_schedule(cfg, &partner, b * l, 1).expect("partner schedule"),
                    _ => schedule.clone(),
                };
                let expected = |s: &Schedule| {
                    let torus = s.torus;
                    let mut expected = std::collections::HashMap::new();
                    for (steps, reps) in [(&s.layer, cfg.n_layers), (&s.final_steps, 1)] {
                        for step in steps {
                            if let Step::Collective { op, axes, .. } = step {
                                // One ledger entry per group instance (rank 0 records).
                                let groups = torus.chip_count() / torus.group_size(*axes);
                                *expected.entry(op_kind(*op)).or_insert(0u64) += (groups * reps) as u64;
                            }
                        }
                    }
                    expected
                };
                let mut engine = PartitionedEngine::new(&model, layout, fmt);
                let _ = engine.try_prefill(&prompts(b, l)).unwrap();
                let prefill: Vec<u64> = CollectiveOp::ALL.iter().map(|&op| engine.traffic().calls(op)).collect();
                engine.traffic().reset();
                let _ = engine.try_decode_step(&[1, 2, 3, 4]).unwrap();
                let step: Vec<u64> = CollectiveOp::ALL.iter().map(|&op| engine.traffic().calls(op)).collect();
                for (pass, calls, s) in [("prefill", prefill, &schedule), ("decode", step, &decode)] {
                    let expected = expected(s);
                    for (op, calls) in CollectiveOp::ALL.into_iter().zip(calls) {
                        assert_eq!(
                            calls,
                            expected.get(&op).copied().unwrap_or(0),
                            "{op:?} {pass} call count: {} {} {fmt:?}",
                            cfg.name,
                            layout.describe()
                        );
                    }
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24, "5 layouts x 2 formats for tiny and serial, 2 x 2 for tiny_multihead");
}

#[test]
fn decode_step_traffic_scales_with_batch_not_context() {
    // The FFN collectives during decode depend on batch size only — the
    // KV cache is read from local HBM, never communicated (Section 3.3).
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 11);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let _ = engine.try_prefill(&prompts(2, 2)).unwrap();
    engine.traffic().reset();
    let _ = engine.try_decode_step(&[1, 2]).unwrap();
    let short_ctx = engine.traffic().total_bytes();
    // Grow the context by several tokens, then measure another step.
    for t in 0..5 {
        let _ = engine.try_decode_step(&[t % 7, (t + 1) % 7]).unwrap();
    }
    engine.traffic().reset();
    let _ = engine.try_decode_step(&[3, 4]).unwrap();
    let long_ctx = engine.traffic().total_bytes();
    assert_eq!(short_ctx, long_ctx, "decode traffic must not grow with context");
}
