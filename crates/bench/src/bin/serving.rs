//! Serving study (Section 4.4) — the "batch-1 prefill server pipelined
//! into a batch-64 decoding server": throughput/latency as offered load
//! grows, and the effect of the decode batch cap.

use esti_bench::{banner, write_csv};
use esti_core::serving::{
    simulate_trace, ArrivalProcess, ArrivalTrace, LengthDist, OverloadPolicy, ServingConfig,
    ServingReport, TraceSpec,
};
use esti_core::Machine;
use esti_hal::DType;
use esti_model::ModelConfig;

/// Serves `n` requests of 64-token prompts and replies, evenly spaced at
/// `rate` requests/second, shedding nothing: the report and the generated
/// tokens per second.
fn serve(model: &ModelConfig, cfg: &ServingConfig, n: usize, rate: f64) -> (ServingReport, f64) {
    let fixed = LengthDist::Fixed(64);
    let process = ArrivalProcess::Uniform { rate };
    let spec = TraceSpec { process, prompt: fixed, output: fixed, high_fraction: 0.0, low_fraction: 0.0 };
    let trace = ArrivalTrace::generate(&spec, n, 0);
    let report = simulate_trace(model, cfg, &trace, &OverloadPolicy::default()).report;
    let tput = report.generated_throughput(trace.offered_tokens());
    (report, tput)
}

fn main() {
    let model = ModelConfig::palm_540b_padded();
    let cfg = ServingConfig {
        prefill_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        decode_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        max_decode_batch: 64,
        weight_dtype: DType::Int8,
    };
    let mut rows = Vec::new();

    banner("Serving: two-tier prefill/decode, PaLM 540B int8 (64+64 chips)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "req/s", "tokens/s", "mean lat s", "p50 s", "p99 s", "avg batch"
    );
    for rate in [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let n = (rate * 30.0).ceil() as usize; // ~30 simulated seconds
        let (report, tput) = serve(&model, &cfg, n.max(8), rate);
        println!(
            "{rate:>10.1} {tput:>12.0} {:>12.2} {:>12.2} {:>12.2} {:>10.1}",
            report.mean_latency(),
            report.latency_percentile(50.0),
            report.latency_percentile(99.0),
            report.mean_decode_batch
        );
        rows.push(format!(
            "{rate},{tput:.1},{:.3},{:.3},{:.3},{:.2}",
            report.mean_latency(),
            report.latency_percentile(50.0),
            report.latency_percentile(99.0),
            report.mean_decode_batch
        ));
    }

    banner("Effect of the decode batch cap at a saturating burst of 256 requests");
    println!("{:>10} {:>12} {:>12}", "cap", "tokens/s", "p50 lat s");
    for cap in [1usize, 4, 16, 64, 256] {
        let mut c = cfg.clone();
        c.max_decode_batch = cap;
        let (report, tput) = serve(&model, &c, 256, 1e9);
        println!("{cap:>10} {tput:>12.0} {:>12.2}", report.latency_percentile(50.0));
        rows.push(format!("cap_{cap},{tput:.1},{:.3},,,", report.latency_percentile(50.0)));
    }

    write_csv("serving.csv", "rate_or_cap,tokens_per_s,mean_s,p50_s,p99_s,avg_batch", &rows);
    println!(
        "\nthe paper's observation made operational: raising the decode batch from 1 to 64 \
         multiplies throughput by an order of magnitude while per-request latency stays \
         within the interactive budget."
    );
}
