//! Chaos conformance tests: deterministic fault injection against the
//! partitioned engine and the self-healing serving loop.
//!
//! The claims under test, for **every** decode layout the runtime
//! implements:
//!
//! * crashing an arbitrary chip at an arbitrary step recovers to token
//!   streams **bit-identical** to a fault-free run (the recovery replay is
//!   the original computation, by batch-row independence);
//! * a stalled chip surfaces a structured timeout within the collective
//!   deadline — never a hang;
//! * a delayed link is transparent: late, but bit-equal;
//! * the measured recovery accounting matches the analytic
//!   `esti_netsim::crash_recovery_cost` model exactly.

use std::time::{Duration, Instant};

use esti_collectives::FaultPlan;
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_netsim::{crash_recovery_cost, LiveRequest, RecoveryModel};
use esti_runtime::{
    ContinuousBatcher, EngineError, PartitionedEngine, ServeError, ServingOptions,
    ServingRequest, WeightFormat, DEFAULT_COLLECTIVE_DEADLINE,
};
use esti_tensor::sample::Sampling;
use proptest::prelude::*;

/// Every decode layout shape the runtime implements, on four chips.
fn decode_layouts(attn: AttnSharding) -> Vec<Layout> {
    vec![
        Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh: MeshFactors::new(1, 4, 1) },
        Layout { ffn: FfnLayout::WeightStationary2D, attn, mesh: MeshFactors::new(2, 2, 1) },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn,
            mesh: MeshFactors::new(4, 1, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::X),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xy),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
    ]
}

/// A deterministic variable-length workload (same shape as the fault-free
/// conformance suite in `tests/serving.rs`).
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

fn batcher(model: &ReferenceModel, layout: Layout, cap: usize) -> ContinuousBatcher {
    let opts =
        ServingOptions {
        max_decode_batch: cap,
        sampling: Sampling::Greedy,
        prefill_chunk: None,
        ..ServingOptions::default()
    };
    ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts)
}

/// Serve the workload fault-free and with an injected decode-tier fault;
/// the faulted run must recover to bit-identical outputs.
fn check_crash_conformance(model: &ReferenceModel, layout: Layout, plan: FaultPlan, at_step: usize) {
    let cap = 4;
    let requests = workload(cap + 2, model.config().vocab);

    let baseline = batcher(model, layout, cap).serve(&requests);
    assert_eq!(baseline.report.recovery.faults, 0, "baseline must be fault-free");

    let mut chaotic = batcher(model, layout, cap);
    chaotic.schedule_decode_fault(at_step, plan.clone());
    let outcome = chaotic.serve(&requests);

    assert_eq!(
        outcome.outputs,
        baseline.outputs,
        "{} recovered streams diverged (fault {plan:?} at step {at_step})",
        layout.describe()
    );
    let rec = outcome.report.recovery;
    assert_eq!(rec.faults, 1, "{}: exactly one injected fault", layout.describe());
    assert!(rec.requests_replayed >= 1, "a mid-stream crash must replay live requests");
    assert!(rec.prefill_tokens_replayed >= 1, "replay re-prefills prompts");
    assert!(rec.recovery_seconds > 0.0, "recovery time must be accounted");
}

#[test]
fn crash_recovery_is_bit_identical_for_every_decode_layout() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for layout in decode_layouts(attn) {
            // Crash two different ranks at two different decode steps.
            check_crash_conformance(&model, layout, FaultPlan::new().crash(1, 0), 1);
            check_crash_conformance(&model, layout, FaultPlan::new().crash(3, 2), 3);
        }
    }
}

#[test]
fn crash_recovery_is_bit_identical_for_multihead_models() {
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 8);
    for layout in decode_layouts(AttnSharding::Head) {
        check_crash_conformance(&model, layout, FaultPlan::new().crash(2, 1), 2);
    }
}

#[test]
fn a_crash_inside_a_live_subset_step_recovers_bit_identically() {
    // Three requests in eight slots: every decode step runs a strict subset
    // of the slots — exactly the live rows on the head-sharded layout, the
    // live rows plus padding from the spans' empty slots on the batch-sharded
    // one — and the crash lands between that step's collectives.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let requests = workload(3, model.config().vocab);
    for layout in [decode_layouts(AttnSharding::Head)[0], decode_layouts(AttnSharding::Batch)[1]] {
        let baseline = batcher(&model, layout, 8).serve(&requests);
        assert!(baseline.step_log.iter().all(|&(live, _)| live < 8), "every step is a subset");
        let mut chaotic = batcher(&model, layout, 8);
        chaotic.schedule_decode_fault(1, FaultPlan::new().crash(2, 3));
        let outcome = chaotic.serve(&requests);
        assert_eq!(outcome.outputs, baseline.outputs, "{}", layout.describe());
        assert_eq!(outcome.report.recovery.faults, 1, "{}", layout.describe());
        assert!(outcome.report.recovery.requests_replayed >= 1, "{}", layout.describe());
    }
    // At the engine: the failed subset step names the dead chip and poisons.
    let mut engine = PartitionedEngine::new(&model, decode_layouts(AttnSharding::Batch)[1], WeightFormat::Exact);
    engine.begin_slots(8, 0);
    engine.try_decode_rows(&[(5, 1)]).expect("a fault-free subset step");
    engine.inject_faults(FaultPlan::new().crash(2, 3));
    match engine.try_decode_rows(&[(5, 2), (0, 3)]) {
        Err(EngineError::ChipCrashed { rank, .. }) => assert_eq!(rank, 2),
        other => panic!("expected ChipCrashed, got {other:?}"),
    }
    assert!(engine.is_poisoned());
    assert_eq!(engine.try_decode_rows(&[(5, 2)]).unwrap_err(), EngineError::Poisoned);
}

#[test]
fn stall_recovery_is_bit_identical_with_short_deadline() {
    // A stall longer than the deadline surfaces as a timeout; the batcher
    // rebuilds and replays exactly like for a crash.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let cap = 4;
    let requests = workload(cap + 2, model.config().vocab);
    let baseline = batcher(&model, layout, cap).serve(&requests);

    let mut chaotic = batcher(&model, layout, cap);
    chaotic.set_collective_deadline(Some(Duration::from_millis(100)));
    chaotic.schedule_decode_fault(1, FaultPlan::new().stall(2, 0, Duration::from_secs(10)));
    let t = Instant::now();
    let outcome = chaotic.serve(&requests);
    assert!(
        t.elapsed() < Duration::from_secs(8),
        "the 10s stall must be cut short by the 100ms deadline, not waited out"
    );
    assert_eq!(outcome.outputs, baseline.outputs, "stall-recovered streams diverged");
    assert_eq!(outcome.report.recovery.faults, 1);
}

#[test]
fn stalled_rank_times_out_within_deadline_on_every_layout() {
    // Engine-level bound: with a deadline armed, a stalled chip produces a
    // structured error in bounded wall-clock on every layout — never a
    // hang, never a wait for the full stall.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    for layout in decode_layouts(AttnSharding::Head) {
        let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
        engine.set_collective_deadline(Some(Duration::from_millis(100)));
        engine.inject_faults(FaultPlan::new().stall(0, 0, Duration::from_secs(30)));
        let pad = engine.min_batch();
        let prompts = vec![vec![1usize, 2, 3]; pad];
        let t = Instant::now();
        let res = engine.try_prefill(&prompts);
        let elapsed = t.elapsed();
        assert!(
            matches!(res, Err(EngineError::CollectiveTimeout { .. })),
            "{}: expected a structured timeout, got {res:?}",
            layout.describe()
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "{}: timeout took {elapsed:?}, deadline was 100ms",
            layout.describe()
        );
        // The engine is poisoned: further steps refuse instead of
        // computing on inconsistent caches.
        assert!(engine.is_poisoned());
        assert_eq!(engine.try_prefill(&prompts), Err(EngineError::Poisoned));
    }
}

#[test]
fn engine_crash_names_the_faulted_rank() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    engine.inject_faults(FaultPlan::new().crash(3, 1));
    let res = engine.try_prefill(&[vec![1, 2, 3]]);
    match res {
        Err(EngineError::ChipCrashed { rank, .. }) => {
            assert_eq!(rank, 3, "the error must name the chip that died, not an observer");
        }
        other => panic!("expected ChipCrashed, got {other:?}"),
    }
    assert!(engine.is_poisoned());
}

#[test]
fn delayed_link_is_transparent_to_the_engine() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let prompts = vec![vec![1usize, 2, 3]];
    let mut clean = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let expect = clean.prefill(&prompts);

    let mut slow = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    slow.inject_faults(FaultPlan::new().delay(1, 0, Duration::from_millis(30)));
    let got = slow.try_prefill(&prompts).expect("a slow link is not a fault");
    assert_eq!(got.data(), expect.data(), "delayed execution must stay bit-identical");
    assert!(!slow.is_poisoned());
}

#[test]
fn default_deadline_is_armed_on_fresh_engines() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    assert_eq!(engine.collective_deadline(), Some(DEFAULT_COLLECTIVE_DEADLINE));
}

#[test]
fn empty_prompt_is_rejected_with_typed_error() {
    // Regression: an empty prompt used to reach the prefill path and panic
    // ("at least one prefill chunk"); it must be rejected at admission.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut b = batcher(&model, layout, 2);
    let requests = vec![
        ServingRequest::immediate(vec![1, 2], 3),
        ServingRequest::immediate(vec![], 3),
    ];
    assert!(matches!(
        b.try_serve(&requests),
        Err(ServeError::EmptyPrompt { index: 1 })
    ));
    // The rejection happens before any engine work: the batcher still
    // serves a valid workload afterwards.
    let outcome = b.try_serve(&[ServingRequest::immediate(vec![1, 2], 3)]).expect("valid");
    assert_eq!(outcome.outputs[0].len(), 3);

    assert!(matches!(b.try_serve(&[]), Err(ServeError::NoRequests)));
    let unsorted = vec![
        ServingRequest { prompt: vec![1], max_new_tokens: 1, seed: 0, arrival: 1.0, priority: Priority::Normal },
        ServingRequest { prompt: vec![1], max_new_tokens: 1, seed: 0, arrival: 0.0, priority: Priority::Normal },
    ];
    assert!(matches!(b.try_serve(&unsorted), Err(ServeError::UnsortedArrivals)));
}

#[test]
fn recovery_budget_limits_repeated_faults() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let mut b = batcher(&model, layout, 2);
    b.set_max_recoveries(0);
    b.schedule_decode_fault(0, FaultPlan::new().crash(1, 0));
    let res = b.try_serve(&workload(2, model.config().vocab));
    assert!(
        matches!(res, Err(ServeError::RecoveryLimit { faults: 1, .. })),
        "zero budget must refuse to recover, got {res:?}"
    );
}

#[test]
fn prefill_tier_fault_is_retried_transparently() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let requests = workload(3, model.config().vocab);
    let baseline = batcher(&model, layout, 2).serve(&requests);

    let mut chaotic = batcher(&model, layout, 2);
    chaotic.inject_prefill_fault(FaultPlan::new().crash(0, 1));
    let outcome = chaotic.serve(&requests);
    assert_eq!(outcome.outputs, baseline.outputs, "prefill retry diverged");
    assert_eq!(outcome.report.recovery.faults, 1);
    assert!(outcome.report.recovery.prefill_tokens_replayed >= 1);
}

#[test]
fn recovery_accounting_matches_the_netsim_model_exactly() {
    // A fully determined scenario: two uniform requests admitted at step
    // boundary zero, crash after exactly two successful decode steps. At
    // that moment both requests have emitted 3 tokens (1 from prefill + 2
    // decoded), so the netsim model predicts the replay workload in closed
    // form and the measured ledger must match it identically.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let requests = vec![
        ServingRequest { prompt: vec![1, 2, 3], max_new_tokens: 6, seed: 11, arrival: 0.0, priority: Priority::Normal },
        ServingRequest { prompt: vec![4, 5, 6], max_new_tokens: 6, seed: 12, arrival: 0.0, priority: Priority::Normal },
    ];
    let mut b = batcher(&model, layout, 2);
    b.schedule_decode_fault(2, FaultPlan::new().crash(1, 0));
    let outcome = b.serve(&requests);

    let live = [
        LiveRequest { prompt_len: 3, emitted: 3 },
        LiveRequest { prompt_len: 3, emitted: 3 },
    ];
    let cost = crash_recovery_cost(
        &live,
        &RecoveryModel {
            detection_s: 0.0,
            rebuild_s: 0.05,
            prefill_tokens_per_s: 1e4,
            step_s: 1e-3,
        },
    );
    let rec = outcome.report.recovery;
    assert_eq!(rec.requests_replayed, cost.requests_replayed);
    assert_eq!(rec.prefill_tokens_replayed, cost.prefill_tokens_replayed);
    assert_eq!(rec.decode_tokens_replayed, cost.decode_tokens_replayed);
    assert_eq!(rec.steps_lost, cost.steps_lost);
    assert_eq!(rec.faults, 1);
    // Every request still completes in full.
    assert!(outcome.outputs.iter().all(|o| o.len() == 6));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random layout × crashed rank × fault call index × arming step: the
    /// recovered streams always equal the fault-free oracle.
    #[test]
    fn random_crashes_recover_to_the_fault_free_oracle(
        layout_idx in 0usize..5,
        attn_idx in 0usize..2,
        seed in 0u64..1000,
        at_step in 0usize..4,
    ) {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 20);
        let attn = if attn_idx == 0 { AttnSharding::Head } else { AttnSharding::Batch };
        let layout = decode_layouts(attn)[layout_idx];
        let cap = 4;
        let requests = workload(cap + 1, model.config().vocab);

        let baseline = batcher(&model, layout, cap).serve(&requests);
        let mut chaotic = batcher(&model, layout, cap);
        // Chip and call index drawn deterministically from the seed; the
        // call index may land in a later step than `at_step`, which only
        // moves the crash — every placement must recover.
        chaotic.schedule_decode_fault(at_step, FaultPlan::seeded_crash(seed, 4, 12));
        let outcome = chaotic.serve(&requests);

        prop_assert_eq!(&outcome.outputs, &baseline.outputs);
        let rec = outcome.report.recovery;
        // The fault may or may not fire before the workload drains; if it
        // did, the replay ledger must be populated (a decode-step fault
        // always has at least one live request).
        if rec.faults > 0 {
            prop_assert!(rec.requests_replayed >= 1);
        }
    }
}
