//! Serving under overload, end to end: a seeded bursty arrival trace
//! pushed through the SLO-aware scheduler in simulated time, then a live
//! two-replica router surviving an injected chip crash with zero lost
//! requests.
//!
//! Run with: `cargo run --release --example overload_routing [-- <n_requests>]`

use esti::collectives::FaultPlan;
use esti::core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti::core::serving::{
    simulate_trace, ArrivalProcess, ArrivalTrace, LengthDist, OverloadPolicy, Priority,
    ServingConfig, TraceSpec,
};
use esti::core::Machine;
use esti::hal::DType;
use esti::model::{ModelConfig, ReferenceModel};
use esti::runtime::{ReplicaRouter, ServingOptions, ServingRequest, WeightFormat};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    // ------------------------------------------------------------------
    // 1. Trace-driven overload in simulated time: PaLM 540B on 64 chips,
    //    a Markov-modulated arrival process whose bursts offer ~2x the
    //    decode ceiling, ragged prompt/output lengths, three priority
    //    classes.
    // ------------------------------------------------------------------
    let model = ModelConfig::palm_540b_padded();
    let cfg = ServingConfig {
        prefill_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        decode_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        max_decode_batch: 64,
        weight_dtype: DType::Int8,
    };
    let spec = TraceSpec {
        process: ArrivalProcess::Bursty { calm_rate: 5.0, burst_rate: 50.0, mean_dwell: 5.0 },
        prompt: LengthDist::Uniform { lo: 32, hi: 96 },
        output: LengthDist::Uniform { lo: 128, hi: 256 },
        high_fraction: 0.1,
        low_fraction: 0.3,
    };
    let trace = ArrivalTrace::generate(&spec, n, 11);
    println!(
        "trace: {n} requests over {:.0}s, offered {:.0} tok/s",
        trace.duration(),
        trace.offered_token_rate(),
    );

    let policy = OverloadPolicy {
        queue_limit: Some(256),
        ttft_deadline: [Some(20.0), Some(30.0), Some(60.0)],
        preemption: true,
    };
    let r = simulate_trace(&model, &cfg, &trace, &policy);
    println!(
        "policed: {} completed, {} shed, {} preemptions, {} tokens replayed",
        r.completed.len(),
        r.shed.len(),
        r.preemptions,
        r.replayed_tokens,
    );
    println!(
        "goodput: {:.0} tok/s = {:.2}x of the {:.0} tok/s capacity ceiling",
        r.goodput_tokens_per_sec(),
        r.goodput_ratio(),
        r.capacity_tokens_per_sec,
    );
    for class in [Priority::High, Priority::Normal, Priority::Low] {
        println!(
            "  {class:?}: {} completed / {} shed, p50 ttft {:.2}s, p99 ttft {:.2}s",
            r.class_completed(class),
            r.class_shed(class),
            r.class_ttft_percentile(class, 50.0),
            r.class_ttft_percentile(class, 99.0),
        );
    }

    // ------------------------------------------------------------------
    // 2. Fault-aware routing on the live engine: two tiny replicas, a
    //    chip crash injected into replica 0's first decode step, zero
    //    recovery budget — its whole share fails over and replays.
    // ------------------------------------------------------------------
    println!();
    let tiny = ReferenceModel::init_random(esti::model::ModelConfig::tiny(), 9);
    let vocab = tiny.config().vocab;
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let opts = ServingOptions { max_decode_batch: 2, ..ServingOptions::default() };
    let requests: Vec<ServingRequest> = (0..6)
        .map(|i| ServingRequest {
            prompt: (0..3).map(|t| (3 + 5 * i + 7 * t) % vocab).collect(),
            max_new_tokens: 4,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let mut router = ReplicaRouter::new(&tiny, layout, WeightFormat::Exact, opts, 2);
    router.batcher_mut(0).set_max_recoveries(0);
    router.batcher_mut(0).schedule_decode_fault(0, FaultPlan::new().crash(1, 0));
    let outcome = router.try_serve(&requests).expect("survivor absorbs the share");
    println!(
        "router: replica 0 crashed; {} failover re-routed {} requests, \
         {} of {} replicas still healthy",
        outcome.report.recovery.failovers,
        outcome.report.recovery.requests_rerouted,
        router.healthy_count(),
        router.replica_count(),
    );
    let lost = outcome.outputs.iter().filter(|o| o.is_empty()).count();
    println!(
        "router: {} requests all completed ({lost} lost), {} tokens generated, \
         served per replica {:?}",
        requests.len(),
        outcome.total_generated,
        outcome.served_per_replica,
    );
}
