//! The production pattern of Section 4.4: a batch-1 prefill server
//! pipelined into a batch-64 decoding server, under growing load.
//!
//! Run with: `cargo run --example serving_tier [-- <requests_per_second>]`

use esti::core::serving::{
    simulate_trace, ArrivalProcess, ArrivalTrace, LengthDist, OverloadPolicy, ServingConfig,
    TraceSpec,
};
use esti::core::Machine;
use esti::hal::DType;
use esti::model::ModelConfig;

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8.0);
    let model = ModelConfig::palm_540b_padded();
    let cfg = ServingConfig {
        prefill_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        decode_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        max_decode_batch: 64,
        weight_dtype: DType::Int8,
    };
    let (prompt, reply) = (64, 64);
    let (process, fixed) = (ArrivalProcess::Uniform { rate }, LengthDist::Fixed);
    let spec = TraceSpec { process, prompt: fixed(prompt), output: fixed(reply), high_fraction: 0.0, low_fraction: 0.0 };

    println!(
        "serving {} at {rate:.1} req/s ({prompt}-token prompts, {reply}-token replies, int8):",
        model.name
    );
    let n = ((rate * 30.0).ceil() as usize).max(8);
    let trace = ArrivalTrace::generate(&spec, n, 0);
    let report = simulate_trace(&model, &cfg, &trace, &OverloadPolicy::default()).report;
    println!("  requests served : {}", report.requests.len());
    println!(
        "  throughput      : {:.0} generated tokens/s",
        report.generated_throughput(trace.offered_tokens())
    );
    println!("  mean latency    : {:.2}s", report.mean_latency());
    println!("  p50 / p99       : {:.2}s / {:.2}s", report.latency_percentile(50.0), report.latency_percentile(99.0));
    println!("  avg decode batch: {:.1} of {}", report.mean_decode_batch, cfg.max_decode_batch);
    println!();
    println!(
        "try `cargo run --example serving_tier -- 64` to watch the decode tier saturate \
         at its batch cap."
    );
}
