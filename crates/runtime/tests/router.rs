//! Multi-replica routing conformance: least-loaded dispatch, manual
//! drain/restore, and fault-aware failover.
//!
//! The central claim is **lossless failover**: when a replica dies
//! mid-serve (its recovery budget exhausted by an injected chip crash),
//! every request it held is re-routed to the survivors and replayed, and
//! — because per-request sampling streams are seeded independently of
//! batch composition — the merged outputs are bit-identical to a run
//! where the crash never happened.

use esti_collectives::FaultPlan;
use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, OverloadShed, ReplicaRouter, RouterError, ServeError, ServingOptions,
    ServingRequest, WeightFormat,
};
use esti_tensor::sample::Sampling;

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

fn workload(n_req: usize, vocab: usize) -> Vec<ServingRequest> {
    (0..n_req)
        .map(|i| ServingRequest {
            prompt: (0..2 + i % 3).map(|t| (3 + 5 * i + 7 * t) % vocab).collect(),
            max_new_tokens: 3,
            seed: 3000 + i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect()
}

/// The same workload served by a single standalone batcher — the oracle
/// every routed configuration must match token-for-token.
fn single_batcher_outputs(
    model: &ReferenceModel,
    requests: &[ServingRequest],
    cap: usize,
) -> Vec<Vec<usize>> {
    let mut b = ContinuousBatcher::new(model, layout(), WeightFormat::Exact, opts(cap));
    let outcome = b.try_serve(requests).unwrap();
    assert!(outcome.shed.is_empty());
    outcome.outputs
}

#[test]
fn routed_outputs_match_single_replica_serving() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(6, model.config().vocab);
    let baseline = single_batcher_outputs(&model, &requests, 2);

    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, opts(2), 2);
    let outcome = router.try_serve(&requests).expect("healthy fleet serves");

    assert_eq!(outcome.outputs, baseline, "routing must not change any stream");
    // Uniform costs alternate across two equally loaded replicas.
    assert_eq!(outcome.served_per_replica, vec![3, 3]);
    assert_eq!(outcome.total_generated, baseline.iter().map(Vec::len).sum::<usize>());
    assert_eq!(outcome.report.recovery.failovers, 0);
    assert_eq!(outcome.report.requests.len(), requests.len());
}

#[test]
fn injected_replica_crash_loses_no_requests_and_keeps_streams() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(6, model.config().vocab);
    let baseline = single_batcher_outputs(&model, &requests, 2);

    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, opts(2), 2);
    // Replica 0 crashes on its first decode step with no recovery budget:
    // its serve call fails wholesale and commits nothing.
    router.batcher_mut(0).set_max_recoveries(0);
    router
        .batcher_mut(0)
        .schedule_decode_fault(0, FaultPlan::new().crash(1, 0));
    let outcome = router.try_serve(&requests).expect("survivor absorbs the share");

    // Zero lost requests: every stream present and bit-identical.
    assert_eq!(outcome.outputs, baseline, "failover must be stream-transparent");
    assert!(outcome.outputs.iter().all(|o| !o.is_empty()));
    // Replica 0's entire share (3 of 6) moved to replica 1.
    assert_eq!(outcome.report.recovery.failovers, 1);
    assert_eq!(outcome.report.recovery.requests_rerouted, 3);
    assert_eq!(outcome.served_per_replica, vec![0, 6]);
    assert_eq!(outcome.report.requests.len(), requests.len());
    // The failed replica is out of rotation until restored.
    assert!(!router.is_healthy(0));
    assert_eq!(router.healthy_count(), 1);
}

#[test]
fn manual_drain_routes_around_and_restore_rejoins() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(4, model.config().vocab);
    let baseline = single_batcher_outputs(&model, &requests, 2);

    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, opts(2), 2);
    router.drain(0);
    assert_eq!(router.healthy_count(), 1);
    let outcome = router.try_serve(&requests).expect("one healthy replica suffices");
    assert_eq!(outcome.outputs, baseline);
    assert_eq!(outcome.served_per_replica, vec![0, 4]);
    // A manual drain is planned, not a failure: no failover is recorded.
    assert_eq!(outcome.report.recovery.failovers, 0);

    router.restore(0);
    assert_eq!(router.healthy_count(), 2);
    assert!(router.is_healthy(0));
    let outcome = router.try_serve(&requests).expect("restored fleet serves");
    assert_eq!(outcome.outputs, baseline);
    assert_eq!(outcome.served_per_replica, vec![2, 2]);
}

#[test]
fn exhausting_every_replica_reports_all_failed() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(2, model.config().vocab);

    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, opts(2), 2);
    for r in 0..2 {
        router.batcher_mut(r).set_max_recoveries(0);
        router
            .batcher_mut(r)
            .schedule_decode_fault(0, FaultPlan::new().crash(1, 0));
    }
    match router.try_serve(&requests) {
        Err(RouterError::AllReplicasFailed { drained, .. }) => assert_eq!(drained, 2),
        other => panic!("expected AllReplicasFailed, got {other:?}"),
    }
    assert_eq!(router.healthy_count(), 0);
    // try_serve on a fully drained fleet fails fast without an engine call.
    assert!(matches!(router.try_serve(&requests), Err(RouterError::NoReplicas)));
}

#[test]
fn shed_indices_survive_per_replica_reindexing() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(4, model.config().vocab);

    let mut o = opts(2);
    o.queue_limit = Some(0);
    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, o, 2);
    let outcome = router.try_serve(&requests).expect("shedding is not a run failure");

    // With a zero queue limit every request is shed at its replica's first
    // boundary; the typed errors must carry submission-order indices.
    let mut shed_idx: Vec<usize> = outcome
        .shed
        .iter()
        .map(|e| match e {
            ServeError::Overloaded { index, reason: OverloadShed::QueueFull { .. } } => *index,
            other => panic!("expected QueueFull, got {other}"),
        })
        .collect();
    shed_idx.sort_unstable();
    assert_eq!(shed_idx, vec![0, 1, 2, 3]);
    assert!(outcome.outputs.iter().all(Vec::is_empty));
    // A shed request was not served: no replica completed any.
    assert_eq!(outcome.served_per_replica, vec![0, 0]);
}

#[test]
fn one_replica_reports_the_kv_pages_of_a_bare_batcher() {
    // Five requests behind one 8-token prefix (two 4-token pages), under a
    // budget that holds all of them with pages to spare: the merged report
    // carries the replica's page headroom and shared pages.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let vocab = model.config().vocab;
    let requests: Vec<ServingRequest> = (0..5)
        .map(|i| ServingRequest {
            prompt: (0..8).map(|t| (11 + 13 * t) % vocab).chain([(3 + 5 * i) % vocab]).collect(),
            max_new_tokens: 3,
            seed: 3000 + i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let o = ServingOptions { kv_page_size: Some(4), kv_position_budget: Some(64), ..opts(4) };
    let bare = ContinuousBatcher::new(&model, layout(), WeightFormat::Exact, o).try_serve(&requests).unwrap();
    assert!(bare.report.kv_pages_free > 0 && bare.report.kv_pages_shared > 0, "{:?}", bare.report);
    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, o, 1);
    let routed = router.try_serve(&requests).unwrap();
    assert_eq!(routed.outputs, bare.outputs);
    assert_eq!(
        (routed.report.kv_pages_free, routed.report.kv_pages_shared),
        (bare.report.kv_pages_free, bare.report.kv_pages_shared)
    );
}

#[test]
fn zero_replica_router_is_an_error() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let requests = workload(1, model.config().vocab);
    let mut router = ReplicaRouter::new(&model, layout(), WeightFormat::Exact, opts(2), 0);
    assert!(matches!(router.try_serve(&requests), Err(RouterError::NoReplicas)));
}
