//! The long-context story (Section 3.3, Table 1): multiquery attention
//! sharded over *batch* supports up to 32x longer contexts than multihead
//! attention, because the KV cache divides across chips instead of
//! replicating.
//!
//! Run with: `cargo run --example context_scaling`

use esti::core::layout::AttnSharding;
use esti::core::memory::{kv_bytes_per_chip, table1_row};
use esti::core::Machine;
use esti::hal::units::format_bytes;
use esti::hal::DType;
use esti::model::{ModelConfig, ReferenceModel};
use esti::runtime::{PartitionedEngine, WeightFormat};

fn main() {
    let machine = Machine::tpu_v4_slice(64).expect("64-chip slice");

    // Table 1: maximum context length with 30% of HBM reserved for KV.
    println!("Table 1 — max context on PaLM 540B, 64 chips (paper values in parens):");
    println!("{:>26} {:>18} {:>18}", "variant", "batch=128", "batch=512");
    let rows: [(&str, ModelConfig, AttnSharding, (u32, u32)); 3] = [
        ("multihead (dh=128)", ModelConfig::palm_540b_multihead(), AttnSharding::Head, (1320, 330)),
        ("baseline multiquery", ModelConfig::palm_540b(), AttnSharding::Head, (660, 165)),
        ("optimized multiquery", ModelConfig::palm_540b(), AttnSharding::Batch, (43_000, 10_700)),
    ];
    for (name, model, sharding, (p128, p512)) in rows {
        let c128 = table1_row(&model, sharding, &machine, 128);
        let c512 = table1_row(&model, sharding, &machine, 512);
        println!("{name:>26} {c128:>9} ({p128:>6}) {c512:>9} ({p512:>6})");
    }

    // The per-chip KV footprint behind those numbers, at context 2048.
    println!();
    println!("per-chip KV cache at batch 512, context 2048:");
    for (name, model, sharding) in [
        ("multihead / head", ModelConfig::palm_540b_multihead(), AttnSharding::Head),
        ("multiquery / head", ModelConfig::palm_540b(), AttnSharding::Head),
        ("multiquery / batch", ModelConfig::palm_540b(), AttnSharding::Batch),
    ] {
        let bytes = kv_bytes_per_chip(&model, sharding, 64, 512, 2048, DType::Bf16);
        println!("  {name:<20} {:>12}", format_bytes(bytes));
    }

    // Observe the same mechanism in the functional runtime.
    println!();
    println!("functional check (tiny model, 4 chips, batch 4, 8 cached tokens):");
    let tiny = ReferenceModel::init_random(ModelConfig::tiny(), 3);
    let prompts: Vec<Vec<usize>> = (0..4).map(|b| (0..8).map(|t| (b + t) % 40).collect()).collect();
    for sharding in [AttnSharding::Head, AttnSharding::Batch] {
        let layout = esti::core::layout::Layout {
            ffn: esti::core::layout::FfnLayout::WeightStationary1D,
            attn: sharding,
            mesh: esti::core::layout::MeshFactors::new(1, 4, 1),
        };
        let mut engine = PartitionedEngine::new(&tiny, layout, WeightFormat::Exact);
        let _ = engine.try_prefill(&prompts).expect("a fault-free engine prefills");
        println!(
            "  {:<6} sharding: {} KV elements on the busiest chip",
            sharding.name(),
            engine.max_cache_elements_per_chip()
        );
    }
}
