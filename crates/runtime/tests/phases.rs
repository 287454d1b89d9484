//! One shard set, one program per phase: a weight-gathered engine prefills
//! with its own program and decodes with its 1D weight-stationary partner,
//! which runs on the same stored shards and KV cut. A paired decode step is
//! the partner engine's step, bit for bit, and gathers no weights.

use esti_collectives::CollectiveOp;
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

/// Every logit's bits, then every slot's KV bits.
fn bits(engine: &PartitionedEngine, logits: &esti_tensor::Tensor) -> Vec<u32> {
    let mut out: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
    for slot in 0..engine.slot_lens().len() {
        for (k, v) in engine.extract_kv(slot).layers() {
            out.extend(k.data().iter().chain(v.data()).map(|v| v.to_bits()));
        }
    }
    out
}

/// The ledger's bytes and calls per op.
fn ledger(engine: &PartitionedEngine) -> Vec<u64> {
    CollectiveOp::ALL.iter().flat_map(|&op| [engine.traffic().bytes(op), engine.traffic().calls(op)]).collect()
}

#[test]
fn a_paired_decode_step_is_its_partners_step_and_moves_no_weights() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 23);
    let prompts: Vec<Vec<usize>> = (0..8).map(|s| (0..5).map(|p| (s * 7 + p * 3 + 1) % 41).collect()).collect();
    let mut checked = 0;
    for (x, y, z) in [(2, 2, 1), (4, 1, 1)] {
        let mesh = MeshFactors::new(x, y, z);
        let partner = Layout { ffn: FfnLayout::WeightStationary1D, attn: AttnSharding::Batch, mesh };
        for attn in [AttnSharding::Batch, AttnSharding::Head] {
            let layout = Layout { ffn: FfnLayout::WeightGathered(GatherExtent::Xyz), attn, mesh };
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                let what = format!("{} {fmt:?}", layout.describe());
                let mut paired = PartitionedEngine::new(&model, layout, fmt);
                let _ = paired.try_prefill(&prompts).expect("a fault-free prefill");
                // The partner engine holds the paired engine's prompt KV.
                let mut ws = PartitionedEngine::new(&model, partner, fmt);
                ws.begin_slots(prompts.len(), 0);
                for (slot, prompt) in prompts.iter().enumerate() {
                    ws.insert_kv_shared(slot, &paired.extract_kv(slot), prompt);
                }
                for e in [&paired, &ws] {
                    e.traffic().reset();
                }
                // An all-slots step, then a step over some slots (padded
                // where spans carry unequal counts).
                let tokens: Vec<usize> = (0..prompts.len()).map(|s| (s * 5 + 2) % 41).collect();
                let rows = [(6, 9), (1, 4), (3, 17)];
                let got = paired.try_decode_step(&tokens).expect("a fault-free step");
                let want = ws.try_decode_step(&tokens).expect("a fault-free step");
                assert!(bits(&paired, &got) == bits(&ws, &want), "{what}: the all-slots step");
                let got = paired.try_decode_rows(&rows).expect("a fault-free row step");
                let want = ws.try_decode_rows(&rows).expect("a fault-free row step");
                assert!(bits(&paired, &got) == bits(&ws, &want), "{what}: the row step");
                // The partner gathers no weights: no all-gather at all, and
                // exactly the partner engine's collectives.
                assert_eq!(paired.traffic().bytes(CollectiveOp::AllGather), 0, "{what}");
                assert_eq!(ledger(&paired), ledger(&ws), "{what}: the steps' ledgers");
                assert!(paired.traffic().total_bytes() > 0, "{what}: a step that communicates nothing");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 8, "2 meshes x 2 attention shardings x 2 formats");
}
