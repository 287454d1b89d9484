//! Int8-specific conformance: the quantized data path must be charged on
//! the wire at its *quantized* volume — int8 values plus per-column f32
//! scales — never at dense f32/bf16 volume.

use esti_collectives::CollectiveOp;
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

fn prompts(b: usize, l: usize) -> Vec<Vec<usize>> {
    (0..b).map(|i| (0..l).map(|j| (i * l + j) % 40).collect()).collect()
}

#[test]
fn int8_weight_gathered_traffic_is_quantized_volume() {
    // Every weight all-gather in the int8 WG dataflow must be charged at
    // its wire volume: 1 byte per int8 value + 4 bytes per f32 scale.
    // Column-sharded matrices (wq, w_in, w_gate) partition their columns
    // across k shards, so the full matrix ships exactly one scale per
    // output column; row-sharded matrices (wo, w_out) ship each rank's
    // full per-column scale vector, k·e scales in total.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 71);
    let cfg = model.config();
    let k = 4usize;
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(k, 1, 1),
    };
    let (b, l) = (4usize, 2usize);
    let (e, attn, ff) = (cfg.d_model, cfg.attn_dim(), cfg.d_ff);
    // Int8 values: the full matrix, 1 byte each (MQ K/V are replicated).
    let values_per_layer = e * attn + attn * e + e * ff * 2 + ff * e;
    // f32 scales: one per column for column gathers, one per (rank,
    // column) for row gathers.
    let scales_per_layer = (attn + ff * 2) * 4 + 2 * (k * e) * 4;
    let logit_bytes = b * l * cfg.vocab * 2; // final f32 gather, bf16 accounting
    let expected =
        ((values_per_layer + scales_per_layer) * cfg.n_layers + logit_bytes) as u64;

    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Int8);
    let _ = engine.prefill(&prompts(b, l));
    assert_eq!(
        engine.traffic().bytes(CollectiveOp::AllGather),
        expected,
        "int8 WG bytes must equal quantized wire volume"
    );
    assert_eq!(engine.traffic().calls(CollectiveOp::AllGather) as usize, 5 * cfg.n_layers + 1);

    // Cross-check against the analytic model, which charges the gathered
    // weights at 1 byte/element for int8 storage. It counts the replicated
    // K/V projections and norm vectors the runtime never gathers, so the
    // match is approximate; the scale overhead is removed explicitly since
    // the analytic model folds it into its per-element byte rate.
    let analytic: f64 = layout
        .layer_comm(cfg, (b * l) as f64)
        .iter()
        .filter(|p| p.is_weights)
        .map(|p| p.elements * 1.0)
        .sum::<f64>()
        * cfg.n_layers as f64;
    let measured_values = (values_per_layer * cfg.n_layers) as f64;
    assert!(
        (measured_values - analytic).abs() / analytic < 0.15,
        "measured int8 values {measured_values} vs analytic {analytic}"
    );
}

#[test]
fn int8_halves_weight_gather_bytes_vs_bf16() {
    // The point of the int8 wire format: the same layout moves less than
    // 0.55x the weight-gather bytes of the f32/bf16 path (1 byte vs 2 per
    // element, plus the small per-column scale overhead).
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 72);
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(4, 1, 1),
    };
    let bytes = |fmt: WeightFormat| {
        let mut engine = PartitionedEngine::new(&model, layout, fmt);
        let _ = engine.prefill(&prompts(4, 2));
        engine.traffic().reset();
        let _ = engine.decode_step(&[1, 2, 3, 4]);
        engine.traffic().bytes(CollectiveOp::AllGather) as f64
    };
    let ratio = bytes(WeightFormat::Int8) / bytes(WeightFormat::Exact);
    assert!(ratio < 0.75, "int8/f32 weight-gather byte ratio {ratio}");
}
