//! Overload-serving conformance: priority admission, preemption replay,
//! and typed admission-control shedding.
//!
//! The claims under test:
//!
//! * **any** preemption schedule — arbitrary `(step, slot)` evictions
//!   driven through the scheduler's forced-preemption hook — yields token
//!   streams bit-identical to an un-preempted isolated `generate()` run
//!   (preemption re-queues the victim, which replays through the same
//!   machinery fault recovery uses);
//! * admission is priority-first: high-class requests prefill before
//!   lower classes that arrived with them;
//! * `queue_limit` and `ttft_deadline` shed with a typed
//!   [`ServeError::Overloaded`] per victim while the rest of the batch
//!   completes — overload is a per-request outcome, not a run failure.

use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, GenerateOptions, OverloadShed, PartitionedEngine, ServeError,
    ServingOptions, ServingRequest, WeightFormat,
};
use esti_tensor::sample::Sampling;
use proptest::prelude::*;

fn layout() -> Layout {
    Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    }
}

fn opts(cap: usize) -> ServingOptions {
    ServingOptions {
        max_decode_batch: cap,
        sampling: Sampling::Greedy,
        ..ServingOptions::default()
    }
}

/// A deterministic mixed-priority workload, all arriving at t=0.
fn workload(n_req: usize, vocab: usize) -> Vec<ServingRequest> {
    (0..n_req)
        .map(|i| ServingRequest {
            prompt: (0..2 + i % 4).map(|t| (3 + 5 * i + 7 * t) % vocab).collect(),
            max_new_tokens: 2 + (i * 2) % 5,
            seed: 2000 + i as u64,
            arrival: 0.0,
            priority: Priority::ALL[i % 3],
        })
        .collect()
}

/// Each request's stream when it has the machine to itself.
fn isolated_streams(model: &ReferenceModel, requests: &[ServingRequest]) -> Vec<Vec<usize>> {
    let mut engine = PartitionedEngine::new(model, layout(), WeightFormat::Exact);
    requests
        .iter()
        .map(|req| {
            let gopts = GenerateOptions {
                max_new_tokens: req.max_new_tokens,
                seed: req.seed,
                ..GenerateOptions::default()
            };
            engine.generate(std::slice::from_ref(&req.prompt), &gopts).swap_remove(0)
        })
        .collect()
}

#[test]
fn forced_preemption_replays_to_identical_streams_with_accounting() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(3, model.config().vocab);
    let isolated = isolated_streams(&model, &requests);

    let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, opts(2));
    b.schedule_preemptions(&[(1, 0)]);
    let outcome = b.try_serve(&requests).unwrap();

    assert_eq!(outcome.outputs, isolated, "preempted streams diverged from isolated runs");
    assert_eq!(outcome.preemptions, 1, "the scheduled eviction must fire");
    assert!(
        outcome.preempted_tokens_replayed >= 1,
        "a victim evicted after a successful step holds tokens to replay"
    );
    assert!(outcome.shed.is_empty(), "no admission control is configured");
}

#[test]
fn priority_classes_prefill_highest_first() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let vocab = model.config().vocab;
    // Submission order low, low, normal, high — all arrive together, so
    // admission order is purely the class order.
    let classes = [Priority::Low, Priority::Low, Priority::Normal, Priority::High];
    let requests: Vec<ServingRequest> = classes
        .iter()
        .enumerate()
        .map(|(i, &priority)| {
            ServingRequest {
                prompt: vec![(1 + i) % vocab, (5 + 2 * i) % vocab],
                max_new_tokens: 3,
                seed: i as u64,
                arrival: 0.0,
                priority,
            }
        })
        .collect();
    let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, opts(2));
    let outcome = b.try_serve(&requests).unwrap();

    // Prefill is serial, so prefill completion times order the admissions:
    // the high request strictly precedes the normal one, which strictly
    // precedes both lows.
    let at = |i: usize| outcome.report.requests[i].prefilled;
    assert!(at(3) < at(2), "high must prefill before normal: {} vs {}", at(3), at(2));
    assert!(at(2) < at(0) && at(2) < at(1), "normal must prefill before both lows");
    assert_eq!(outcome.outputs, isolated_streams(&model, &requests));
}

#[test]
fn queue_limit_sheds_newest_lowest_class_with_typed_error() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let vocab = model.config().vocab;
    let requests: Vec<ServingRequest> = (0..4)
        .map(|i| ServingRequest {
            prompt: vec![(2 + i) % vocab],
            max_new_tokens: 4,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let mut o = opts(2);
    o.queue_limit = Some(2);
    let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, o);
    let outcome = b.try_serve(&requests).unwrap();

    // Boundary 0 sees 4 waiting > limit 2: the two newest are shed (3,
    // then 2), the survivors complete in full.
    assert_eq!(outcome.shed.len(), 2, "exactly two requests over the limit");
    let mut shed_idx: Vec<usize> = outcome
        .shed
        .iter()
        .map(|e| match e {
            ServeError::Overloaded { index, reason: OverloadShed::QueueFull { limit, .. } } => {
                assert_eq!(*limit, 2);
                *index
            }
            other => panic!("expected a QueueFull shed, got {other}"),
        })
        .collect();
    shed_idx.sort_unstable();
    assert_eq!(shed_idx, vec![2, 3], "newest requests shed first");
    assert_eq!(outcome.outputs[0].len(), 4);
    assert_eq!(outcome.outputs[1].len(), 4);
    assert!(outcome.outputs[2].is_empty() && outcome.outputs[3].is_empty());
    // Shed requests contribute no latency stats.
    assert_eq!(outcome.report.requests.len(), 2);
}

#[test]
fn ttft_deadline_sheds_expired_classes_but_not_exempt_ones() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let vocab = model.config().vocab;
    let mk = |i: usize, priority: Priority| ServingRequest {
        prompt: vec![(3 + i) % vocab, (1 + 2 * i) % vocab],
        max_new_tokens: 3,
        seed: 40 + i as u64,
        arrival: 0.0,
        priority,
    };
    let requests =
        vec![mk(0, Priority::Normal), mk(1, Priority::Normal), mk(2, Priority::High)];
    let mut o = opts(2);
    // Normal expires instantly; High has no deadline.
    o.ttft_deadline = [None, Some(0.0), None];
    let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, o);
    let outcome = b.try_serve(&requests).unwrap();

    assert_eq!(outcome.shed.len(), 2, "both normals out-waited a zero deadline");
    for e in &outcome.shed {
        match e {
            ServeError::Overloaded { index, reason: OverloadShed::TtftDeadline { .. } } => {
                assert!(*index < 2, "only the normal requests expire");
            }
            other => panic!("expected a TtftDeadline shed, got {other}"),
        }
    }
    assert_eq!(outcome.outputs[2].len(), 3, "the exempt high request completes");
    assert_eq!(outcome.outputs[2], isolated_streams(&model, &requests)[2]);
}

#[test]
fn policy_preemption_keeps_streams_identical_and_accounts_replay() {
    // Low requests hold both slots when a high request arrives mid-run.
    // Whether the high arrival lands in time to preempt depends on wall
    // clock, so the assertions hold either way: streams always equal the
    // isolated oracle, and replay accounting is consistent with the
    // preemption count.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let vocab = model.config().vocab;
    let mut requests: Vec<ServingRequest> = (0..2)
        .map(|i| ServingRequest {
            prompt: vec![(7 + i) % vocab, (2 + 3 * i) % vocab],
            max_new_tokens: 40,
            seed: 60 + i as u64,
            arrival: 0.0,
            priority: Priority::Low,
        })
        .collect();
    requests.push(ServingRequest {
        prompt: vec![9 % vocab, 4 % vocab],
        max_new_tokens: 4,
        seed: 62,
        arrival: 0.002,
        priority: Priority::High,
    });
    let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, opts(2));
    let outcome = b.try_serve(&requests).unwrap();

    assert_eq!(outcome.outputs, isolated_streams(&model, &requests));
    if outcome.preemptions == 0 {
        assert_eq!(outcome.preempted_tokens_replayed, 0);
    } else {
        assert!(
            outcome.preempted_tokens_replayed >= outcome.preemptions,
            "every victim held at least its prefill token plus progress"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any forced preemption schedule — arbitrary (step, slot) pairs,
    /// including repeats, empty slots, and steps past the run — yields
    /// streams bit-identical to the un-preempted isolated generate() runs.
    #[test]
    fn any_preemption_schedule_is_stream_transparent(
        packed_plan in proptest::collection::vec(0usize..12, 0..5),
        seed in 0u64..500,
    ) {
        // The vendored proptest has no tuple strategy; decode each entry
        // into (after_step in 0..6, slot in 0..2).
        let plan: Vec<(usize, usize)> =
            packed_plan.iter().map(|&v| (v / 2, v % 2)).collect();
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 21);
        let vocab = model.config().vocab;
        let requests: Vec<ServingRequest> = (0..4)
            .map(|i| ServingRequest {
                prompt: (0..2 + (i + seed as usize) % 3)
                    .map(|t| (seed as usize + 5 * i + 7 * t) % vocab)
                    .collect(),
                max_new_tokens: 2 + (i * 3 + seed as usize) % 5,
                seed: seed.wrapping_mul(31) + i as u64,
                arrival: 0.0,
                priority: Priority::ALL[(i + seed as usize) % 3],
            })
            .collect();
        let isolated = isolated_streams(&model, &requests);

        let mut b = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, opts(2));
        b.schedule_preemptions(&plan);
        let outcome = b.try_serve(&requests).unwrap();

        prop_assert_eq!(&outcome.outputs, &isolated);
        if outcome.preemptions == 0 {
            prop_assert_eq!(outcome.preempted_tokens_replayed, 0);
        }
    }
}
