//! Conformance tests for the continuous-batching scheduler: every request
//! served through the two-tier [`ContinuousBatcher`] must produce exactly
//! the token stream it would produce running alone through
//! [`PartitionedEngine::generate`] — for every built-in decode layout,
//! with variable-length prompts admitted mid-stream into a mixed-age
//! decode batch. This is the paper's continuous-batching claim made
//! falsifiable: batching requests together changes *when* tokens appear,
//! never *which* tokens appear.

use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::{
    simulate_trace, ArrivalProcess, ArrivalTrace, LengthDist, OverloadPolicy, Priority, ServingConfig,
    TraceSpec,
};
use esti_core::Machine;
use esti_hal::DType;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, GenerateOptions, PartitionedEngine, ServingOptions, ServingRequest,
    WeightFormat,
};
use esti_tensor::sample::Sampling;
use proptest::prelude::*;

mod common;
use common::decode_layouts;

/// A deterministic variable-length workload: more requests than the cap can
/// hold, staggered generation lengths, so late requests are admitted
/// mid-stream as earlier ones free their slots.
fn workload(n_req: usize, vocab: usize) -> Vec<ServingRequest> {
    (0..n_req)
        .map(|i| ServingRequest {
            prompt: (0..2 + i % 4).map(|t| (3 + 5 * i + 7 * t) % vocab).collect(),
            max_new_tokens: 2 + (i * 2) % 5,
            seed: 1000 + i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect()
}

/// One request's tokens when it runs alone (padded to the layout's minimum
/// batch by replication, which leaves row 0 bitwise unchanged).
fn isolated_tokens(
    engine: &mut PartitionedEngine,
    req: &ServingRequest,
    sampling: Sampling,
) -> Vec<usize> {
    let pad = engine.min_batch();
    let opts = GenerateOptions {
        max_new_tokens: req.max_new_tokens,
        sampling,
        seed: req.seed,
        n_samples: 1,
    };
    let prompts = vec![req.prompt.clone(); pad];
    engine.generate(&prompts, &opts).swap_remove(0)
}

/// The conformance check: serve a workload through the scheduler, then
/// replay each request in isolation and demand identical token streams.
fn check_conformance(model: &ReferenceModel, layout: Layout) {
    let mut isolated = PartitionedEngine::new(model, layout, WeightFormat::Exact);
    let cap = isolated.min_batch().max(2);
    let requests = workload(cap + 2, model.config().vocab);
    let opts = ServingOptions {
        max_decode_batch: cap,
        sampling: Sampling::Greedy,
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();
    assert_eq!(outcome.outputs.len(), requests.len());
    for (i, req) in requests.iter().enumerate() {
        let expect = isolated_tokens(&mut isolated, req, Sampling::Greedy);
        assert_eq!(
            outcome.outputs[i],
            expect,
            "{} request {i} (prompt len {}, gen {}) diverged from isolated run",
            layout.describe(),
            req.prompt.len(),
            req.max_new_tokens
        );
    }
}

#[test]
fn scheduler_matches_isolated_generate_multiquery() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for layout in decode_layouts(attn) {
            check_conformance(&model, layout);
        }
    }
}

#[test]
fn scheduler_matches_isolated_generate_multihead() {
    // Megatron-style model (multihead, serial block, learned positions) —
    // head-sharded attention, as in the equivalence suite.
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 8);
    for layout in decode_layouts(AttnSharding::Head) {
        check_conformance(&model, layout);
    }
}

#[test]
fn stochastic_streams_match_isolated_batch1() {
    // Per-request RNG streams: with sampling enabled, a request's tokens
    // still match its isolated run (same seed) on a min-batch-1 layout,
    // regardless of what shares the decode batch.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 10);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let sampling = Sampling::TopK(5);
    let requests = workload(5, model.config().vocab);
    let opts = ServingOptions {
        max_decode_batch: 3,
        sampling,
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();
    let mut isolated = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    assert_eq!(isolated.min_batch(), 1, "stochastic conformance needs a batch-1 isolated run");
    for (i, req) in requests.iter().enumerate() {
        let expect = isolated_tokens(&mut isolated, req, sampling);
        assert_eq!(outcome.outputs[i], expect, "stochastic request {i} diverged");
    }
}

#[test]
fn zero_and_one_token_requests_are_served() {
    // Degenerate lengths: a 0-token request finishes at prefill, a 1-token
    // request finishes without ever taking a decode slot.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 11);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = vec![
        ServingRequest { prompt: vec![1, 2, 3], max_new_tokens: 0, seed: 1, arrival: 0.0, priority: Priority::Normal },
        ServingRequest { prompt: vec![4, 5], max_new_tokens: 1, seed: 2, arrival: 0.0, priority: Priority::Normal },
        ServingRequest { prompt: vec![6, 7, 8, 9], max_new_tokens: 3, seed: 3, arrival: 0.0, priority: Priority::Normal },
    ];
    let opts = ServingOptions { max_decode_batch: 2, ..ServingOptions::default() };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();
    let mut isolated = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    assert!(outcome.outputs[0].is_empty());
    assert_eq!(outcome.outputs[1].len(), 1);
    assert_eq!(outcome.outputs[2].len(), 3);
    for (i, req) in requests.iter().enumerate().skip(1) {
        let expect = isolated_tokens(&mut isolated, req, Sampling::Greedy);
        assert_eq!(outcome.outputs[i], expect);
    }
    let r = &outcome.report.requests[0];
    assert!(r.finished >= r.prefilled && r.prefilled >= r.arrival);
}

#[test]
fn arrivals_gate_admission() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 12);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let requests = vec![
        ServingRequest { prompt: vec![1, 2], max_new_tokens: 2, seed: 1, arrival: 0.0, priority: Priority::Normal },
        ServingRequest { prompt: vec![3, 4], max_new_tokens: 2, seed: 2, arrival: 0.05, priority: Priority::Normal },
    ];
    let opts = ServingOptions { max_decode_batch: 2, ..ServingOptions::default() };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();
    let late = &outcome.report.requests[1];
    assert!(
        late.prefilled >= 0.05,
        "request prefilled at {} before its arrival at 0.05",
        late.prefilled
    );
    // And gating never changes tokens.
    let mut isolated = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    for (i, req) in requests.iter().enumerate() {
        let expect = isolated_tokens(&mut isolated, req, Sampling::Greedy);
        assert_eq!(outcome.outputs[i], expect);
    }
}

#[test]
fn measured_stats_cross_check_analytical_simulator() {
    // The measured scheduler and the analytical simulator account for work
    // identically: every decode step generates one token per live slot, so
    // total occupancy equals decode-generated tokens, and the step count is
    // bracketed by perfect packing below and serial service above. Uniform
    // workload so both schedules are deterministic.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 13);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let (n_req, gen, cap) = (5usize, 4usize, 2usize);
    let requests: Vec<ServingRequest> = (0..n_req)
        .map(|i| ServingRequest {
            prompt: vec![(i + 1) % 41, (i + 3) % 41, (i + 5) % 41],
            max_new_tokens: gen,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let opts = ServingOptions { max_decode_batch: cap, ..ServingOptions::default() };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();

    // The first token of each request comes from prefill, so the decode
    // tier generates gen-1 per request.
    let decode_tokens = n_req * (gen - 1);
    let occupancy: usize = outcome.step_log.iter().map(|&(live, _)| live).sum();
    assert_eq!(occupancy, decode_tokens, "occupancy must equal decode-generated tokens");
    assert_eq!(outcome.total_generated, n_req * gen);
    let steps = outcome.report.decode_steps;
    assert_eq!(steps, outcome.step_log.len());
    assert!(steps >= decode_tokens.div_ceil(cap) && steps <= decode_tokens);
    let mean = outcome.report.mean_decode_batch;
    assert!((mean - occupancy as f64 / steps as f64).abs() < 1e-12);

    // The analytical model of the same workload conserves the same
    // occupancy and obeys the same bracket: its prefill emits the first
    // token too, so it decodes the same gen-1 tokens per request.
    let cfg = ServingConfig {
        prefill_machine: Machine::tpu_v4_slice(4).expect("4-chip slice"),
        decode_machine: Machine::tpu_v4_slice(4).expect("4-chip slice"),
        max_decode_batch: cap,
        weight_dtype: DType::Bf16,
    };
    let (process, fixed) = (ArrivalProcess::Uniform { rate: 1e9 }, LengthDist::Fixed);
    let spec = TraceSpec { process, prompt: fixed(3), output: fixed(gen), high_fraction: 0.0, low_fraction: 0.0 };
    let trace = ArrivalTrace::generate(&spec, n_req, 0);
    let analytic =
        simulate_trace(&ModelConfig::tiny(), &cfg, &trace, &OverloadPolicy::default()).report;
    let analytic_occupancy =
        (analytic.mean_decode_batch * analytic.decode_steps as f64).round() as usize;
    assert_eq!(analytic_occupancy, occupancy, "analytic and measured occupancy disagree");
    assert!(
        analytic.decode_steps >= decode_tokens.div_ceil(cap)
            && analytic.decode_steps <= decode_tokens
    );

    // Measured wall-clock statistics are well-formed.
    for r in &outcome.report.requests {
        assert!(r.prefilled >= r.arrival && r.finished >= r.prefilled);
    }
    assert!(outcome.report.makespan > 0.0);
    assert!(outcome.throughput_tokens_per_sec() > 0.0);
    let p50 = outcome.report.latency_percentile(50.0);
    let p100 = outcome.report.latency_percentile(100.0);
    assert!(p50 <= p100 && p100 <= outcome.report.makespan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized ragged workloads on the cheapest layout: arbitrary prompt
    /// lengths, generation lengths, admission pressure (cap), and seeds —
    /// the scheduler must always reproduce isolated token streams.
    #[test]
    fn random_ragged_workloads_match_isolated(
        prompt_lens in prop::collection::vec(1usize..8, 1..6),
        gens in prop::collection::vec(1usize..5, 1..6),
        cap in 1usize..4,
        seed in 0u64..1000,
    ) {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 20);
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 2, 1),
        };
        let vocab = model.config().vocab;
        let requests: Vec<ServingRequest> = prompt_lens
            .iter()
            .zip(gens.iter().cycle())
            .enumerate()
            .map(|(i, (&pl, &gen))| ServingRequest {
                prompt: (0..pl).map(|t| (seed as usize + 11 * i + 3 * t) % vocab).collect(),
                max_new_tokens: gen,
                seed: seed + i as u64,
                arrival: 0.0,
                priority: Priority::Normal,
            })
            .collect();
        let opts = ServingOptions {
            max_decode_batch: cap,
            sampling: Sampling::Greedy,
            ..ServingOptions::default()
        };
        let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
        let outcome = batcher.try_serve(&requests).unwrap();
        let mut isolated = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        for (i, req) in requests.iter().enumerate() {
            let expect = isolated_tokens(&mut isolated, req, Sampling::Greedy);
            prop_assert_eq!(&outcome.outputs[i], &expect, "request {} diverged", i);
        }
    }
}
