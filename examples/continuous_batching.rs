//! Continuous batching, end to end (Section 4.4): variable-length requests
//! stream through the two-tier scheduler — group prefill pipelined into a
//! fixed-capacity decode batch — and every request's tokens come out
//! exactly as if it had the machine to itself.
//!
//! Run with: `cargo run --example continuous_batching`

use esti::core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti::core::serving::Priority;
use esti::model::{ModelConfig, ReferenceModel};
use esti::runtime::{
    ContinuousBatcher, GenerateOptions, PartitionedEngine, ServingOptions, ServingRequest,
    WeightFormat,
};

fn main() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };

    // Six requests with different prompt lengths, reply lengths, and
    // arrival times, through a 3-slot decode tier: late requests are
    // admitted mid-stream as earlier ones finish and free their slots.
    let requests: Vec<ServingRequest> = (0..6)
        .map(|i| ServingRequest {
            prompt: (0..2 + i).map(|t| (7 * i + 3 * t + 1) % 41).collect(),
            max_new_tokens: 3 + (i * 2) % 5,
            seed: i as u64,
            arrival: i as f64 * 0.002,
            priority: Priority::Normal,
        })
        .collect();

    let opts = ServingOptions { max_decode_batch: 3, ..ServingOptions::default() };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.serve(&requests);

    println!("served {} requests through a 3-slot decode tier:", requests.len());
    for (i, (req, out)) in requests.iter().zip(&outcome.outputs).enumerate() {
        let stats = &outcome.report.requests[i];
        println!(
            "  req {i}: prompt {:>2} tokens -> {:?}  (ttft {:.1} ms, latency {:.1} ms)",
            req.prompt.len(),
            out,
            stats.prefill_latency() * 1e3,
            stats.latency() * 1e3,
        );
    }
    println!(
        "decode steps: {} at mean batch {:.2} of 3; throughput {:.0} tok/s",
        outcome.report.decode_steps,
        outcome.report.mean_decode_batch,
        outcome.throughput_tokens_per_sec(),
    );
    let work = outcome.prefill;
    println!(
        "prefill: {} calls, {} prompt tokens computed, {} reused from a live slot, {} of {} rows filler",
        work.calls, work.tokens_computed, work.tokens_reused, work.filler_rows, work.rows,
    );
    let work = outcome.decode;
    println!(
        "decode: {} steps over the occupied slots only, {} live rows, {} filler rows",
        work.steps, work.rows_live, work.filler_rows,
    );

    // The conformance claim, demonstrated: rerun request 5 alone.
    let mut alone = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let req = &requests[5];
    let gopts = GenerateOptions {
        max_new_tokens: req.max_new_tokens,
        seed: req.seed,
        ..GenerateOptions::default()
    };
    let isolated =
        alone.generate(std::slice::from_ref(&req.prompt), &gopts).swap_remove(0);
    assert_eq!(outcome.outputs[5], isolated);
    println!("request 5 rerun alone produces the identical stream: {isolated:?}");
}
