//! The paper's interactive scenario (Section 1): a chatbot on PaLM 540B
//! processes 64 new tokens of user text against a 1920-token cached
//! conversation history and generates a 64-token reply — in about 1.9
//! seconds on 64 TPU v4 chips with int8 weights.
//!
//! This example replays that latency budget with the analytical model and
//! then demonstrates the mechanism functionally on a tiny model: chunked
//! (incremental) prefill of the history, then autoregressive decode.
//!
//! Run with: `cargo run --example chatbot`

use esti::core::perf::{estimate, generate_latency, PhaseSpec};
use esti::core::planner::{decode_layout_for_batch, prefill_layout};
use esti::core::Machine;
use esti::hal::units::format_seconds;
use esti::hal::DType;
use esti::model::{ModelConfig, ReferenceModel};
use esti::runtime::{GenerateOptions, PartitionedEngine, WeightFormat};
use esti::tensor::sample::Sampling;

fn main() {
    let palm = ModelConfig::palm_540b_padded();
    let machine = Machine::tpu_v4_slice(64).expect("64-chip slice");
    let dtype = DType::Int8;

    // The paper's trick (Section 4.4): batch-1 prefill for lowest latency,
    // but decode at batch 64 — "for the generate phase we can increase the
    // batch size up to 64 with negligible latency impact".
    let history = 1920usize;
    let user_turn = 64usize;
    let reply = 64usize;

    let p_layout = prefill_layout(&palm, &machine, 1, user_turn, dtype);
    let p = estimate(&machine, &palm, &p_layout, &PhaseSpec::prefill(1, user_turn), dtype);
    let d_layout = decode_layout_for_batch(&palm, &machine, 64);
    let d = generate_latency(&machine, &palm, &d_layout, 64, history + user_turn, reply, dtype);

    println!("chatbot turn on {} ({} chips, int8):", palm.name, machine.n_chips());
    println!("  history      : {history} tokens (already cached)");
    println!(
        "  prefill {user_turn} new tokens  [{}]: {}",
        p_layout.describe(),
        format_seconds(p.step_time)
    );
    println!(
        "  generate {reply} tokens      [{}]: {} ({} per token)",
        d_layout.describe(),
        format_seconds(d.step_time),
        format_seconds(d.step_time / reply as f64)
    );
    let total = p.step_time + d.step_time;
    println!("  total: {} (paper reports 1.9s)", format_seconds(total));

    // ------------------------------------------------------------------ //
    // The same serving pattern, actually executed on simulated chips.     //
    // ------------------------------------------------------------------ //
    println!();
    println!("functional replay on a tiny PaLM-shaped model, 4 simulated chips:");
    let tiny = ReferenceModel::init_random(ModelConfig::tiny(), 1);
    let machine4 = Machine::tpu_v4_slice(4).expect("4-chip slice");
    let layout = decode_layout_for_batch(tiny.config(), &machine4, 4);
    let mut engine = PartitionedEngine::new(&tiny, layout, WeightFormat::Int8);

    // A "conversation": history tokens prefilled in one pass, then the
    // reply decoded token by token.
    let conversation: Vec<Vec<usize>> = (0..4)
        .map(|b| (0..12).map(|t| (b * 12 + t) % 40).collect())
        .collect();
    let reply_tokens = engine.generate(
        &conversation,
        &GenerateOptions {
            max_new_tokens: 5,
            sampling: Sampling::TopK(4),
            seed: 7,
            ..GenerateOptions::default()
        },
    );
    println!("  cached positions per sequence: {}", engine.cache_len());
    println!(
        "  per-chip KV elements (batch-sharded over {} chips): {}",
        engine.n_chips(),
        engine.max_cache_elements_per_chip()
    );
    for (i, r) in reply_tokens.iter().enumerate() {
        println!("  reply[{i}]: {r:?}");
    }
}
