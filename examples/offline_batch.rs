//! The paper's high-throughput scenario (Tables 2–3): offline inference at
//! batch 512 with a 2048-token context, where the layout *switches* between
//! phases — weight-gathered XYZ for prefill (76% MFU in the paper), 2D
//! weight-stationary for decode — and bf16 weights beat int8 because the
//! compute, not weight loading, dominates.
//!
//! Run with: `cargo run --example offline_batch`

use esti::core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
use esti::core::perf::{estimate, PhaseSpec};
use esti::core::planner::plan_inference;
use esti::core::Machine;
use esti::hal::units::format_seconds;
use esti::hal::DType;
use esti::model::{ModelConfig, ReferenceModel};
use esti::runtime::{PartitionedEngine, WeightFormat};

fn main() {
    let palm = ModelConfig::palm_540b_padded();
    let machine = Machine::tpu_v4_slice(64).expect("64-chip slice");
    let (batch, input_len, gen_len) = (512usize, 2048usize, 64usize);

    // Let the planner pick the per-phase layouts (Section 4.1's strategy).
    let plan = plan_inference(&palm, &machine, batch, input_len, gen_len, DType::Bf16);
    println!("offline batch on {} ({} chips, bf16):", palm.name, machine.n_chips());
    println!("  prefill layout: {}  (paper: WG XYZ)", plan.prefill.describe());
    println!("  decode  layout: {}  (paper: WS 2D)", plan.decode.describe());
    println!(
        "  prefill {} x {input_len} tokens: {} at {:.1}% MFU (paper: 85.2s, 76%)",
        batch,
        format_seconds(plan.prefill_est.step_time),
        plan.prefill_est.mfu * 100.0
    );
    println!(
        "  decode  {} x {gen_len} tokens:   {} at {:.1}% MFU (paper: 6.0s, 33%)",
        batch,
        format_seconds(plan.decode_est.step_time),
        plan.decode_est.mfu * 100.0
    );
    println!(
        "  end-to-end: {} at {:.1}% overall MFU, {:.3} chip-ms per token",
        format_seconds(plan.total_latency),
        plan.total_mfu * 100.0,
        1e3 * machine.n_chips() as f64 * plan.total_latency
            / (batch * (input_len + gen_len)) as f64
    );

    // Why switch layouts? Compare the candidates explicitly at this batch.
    println!();
    println!("prefill layout comparison at {} tokens per pass:", batch * input_len);
    let mesh = Layout::ws2d_mesh(machine.n_chips(), palm.d_model, palm.d_ff);
    for ffn in [
        FfnLayout::WeightStationary2D,
        FfnLayout::WeightGathered(GatherExtent::X),
        FfnLayout::WeightGathered(GatherExtent::Xy),
        FfnLayout::WeightGathered(GatherExtent::Xyz),
    ] {
        let layout = Layout { ffn, attn: AttnSharding::Batch, mesh };
        let est = estimate(&machine, &palm, &layout, &PhaseSpec::prefill(batch, input_len), DType::Bf16);
        println!(
            "  {:<8} {:>10}  MFU {:>5.1}%  comm {:>9}",
            ffn.name(),
            format_seconds(est.step_time),
            est.mfu * 100.0,
            format_seconds(est.comm_time),
        );
    }

    // Functional demonstration of the weight-gathered dataflow: weights are
    // all-gathered per layer while activations stay batch-stationary.
    println!();
    println!("functional weight-gathered run (tiny model, 4 chips):");
    let tiny = ReferenceModel::init_random(ModelConfig::tiny(), 2);
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Batch,
        mesh: esti::core::layout::MeshFactors::new(4, 1, 1),
    };
    let mut engine = PartitionedEngine::new(&tiny, layout, WeightFormat::Bf16);
    let prompts: Vec<Vec<usize>> = (0..8).map(|b| vec![b, b + 1, b + 2, b + 3]).collect();
    let logits = engine.try_prefill(&prompts).expect("a fault-free engine prefills");
    println!(
        "  prefilled {} sequences; logits shape {:?}; weight all-gathers: {}",
        prompts.len(),
        logits.shape(),
        engine.traffic().calls(esti::collectives::CollectiveOp::AllGather)
    );
}
