//! Conformance tests for the paged KV cache (copy-on-write prefix
//! sharing): at every page size — one position, sizes that straddle the
//! prompts, and a page longer than any sequence (one dense run per row) —
//! the scheduler must emit token streams bit-identical to each request's
//! isolated `generate()` run — across every decode layout, under randomized
//! ragged shared-prefix workloads, and through mid-decode faults — while
//! page-granular admission fits strictly more concurrent requests into a KV
//! position budget than a dense reservation per slot would.

use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, GenerateOptions, PartitionedEngine, ServeError, ServingOptions,
    ServingOutcome, ServingRequest, WeightFormat,
};
use esti_tensor::sample::Sampling;
use proptest::prelude::*;

mod common;
use common::decode_layouts;

/// A shared-prefix fleet: every prompt opens with the same `shared`-token
/// prefix (a system prompt) followed by a per-request unique tail.
fn shared_prefix_workload(
    n_req: usize,
    vocab: usize,
    shared: usize,
    unique: usize,
    max_new: usize,
) -> Vec<ServingRequest> {
    let prefix: Vec<usize> = (0..shared).map(|t| (11 + 13 * t) % vocab).collect();
    (0..n_req)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend((0..unique).map(|t| (3 + 5 * i + 7 * t) % vocab));
            ServingRequest { prompt, max_new_tokens: max_new, seed: 900 + i as u64, arrival: 0.0, priority: Priority::Normal }
        })
        .collect()
}

/// A page no sequence in this file outgrows (`ModelConfig::tiny`'s
/// `max_seq`): every row is one run, the dense layout.
const ONE_RUN: usize = 64;

/// The oracle: each request's tokens when it runs alone through `generate`
/// (replicated to the layout's minimum batch, which leaves row 0 bitwise
/// unchanged) on a one-run-per-row cache — no scheduler, no block-table
/// walk, nothing shared or copied.
fn isolated_streams(
    model: &ReferenceModel,
    layout: Layout,
    requests: &[ServingRequest],
) -> Vec<Vec<usize>> {
    let mut engine = PartitionedEngine::new(model, layout, WeightFormat::Exact);
    engine.set_kv_page_size(ONE_RUN);
    let pad = engine.min_batch();
    requests
        .iter()
        .map(|req| {
            let opts = GenerateOptions {
                max_new_tokens: req.max_new_tokens,
                seed: req.seed,
                ..GenerateOptions::default()
            };
            engine.generate(&vec![req.prompt.clone(); pad], &opts).swap_remove(0)
        })
        .collect()
}

/// Serve `requests` with an explicit KV page size (and optional position
/// budget) pinned into the scheduler.
fn serve_with(
    model: &ReferenceModel,
    layout: Layout,
    page_size: usize,
    budget: Option<usize>,
    cap: usize,
    requests: &[ServingRequest],
) -> ServingOutcome {
    let opts = ServingOptions {
        max_decode_batch: cap,
        sampling: Sampling::Greedy,
        kv_page_size: Some(page_size),
        kv_position_budget: budget,
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts);
    batcher.try_serve(requests).unwrap()
}

/// The bit-identity check: a shared-prefix workload served at `page_size`
/// must stream exactly what each request generates alone.
fn check_paged_matches_isolated(model: &ReferenceModel, layout: Layout, page_size: usize) {
    let requests = shared_prefix_workload(6, model.config().vocab, 9, 3, 5);
    let cap = {
        let probe = ContinuousBatcher::new(
            model,
            layout,
            WeightFormat::Exact,
            ServingOptions::default(),
        );
        probe.engine().min_batch().max(2)
    };
    let paged = serve_with(model, layout, page_size, None, cap, &requests);
    assert_eq!(
        paged.outputs,
        isolated_streams(model, layout, &requests),
        "{} page_size={page_size}: streams diverged from isolated generate",
        layout.describe()
    );
    // Sharing happens at page granularity: only prefixes spanning at least
    // one full page can be mapped into more than one block table.
    if page_size <= 9 {
        assert!(paged.report.kv_pages_shared >= 1, "shared prefixes must map shared pages");
    }
}

#[test]
fn paged_matches_isolated_on_all_layouts_multiquery() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 21);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for layout in decode_layouts(attn) {
            check_paged_matches_isolated(&model, layout, 4);
        }
    }
}

#[test]
fn paged_matches_isolated_on_all_layouts_multihead() {
    // Batch-sharded attention requires multiquery; multihead covers the
    // head-sharded half of the matrix.
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 22);
    for layout in decode_layouts(AttnSharding::Head) {
        check_paged_matches_isolated(&model, layout, 4);
    }
}

#[test]
fn page_size_never_changes_streams() {
    // Page-boundary stress: sizes that divide, straddle, and dwarf every
    // prompt in the workload — the last one run per row, the dense layout
    // reached through the only code path.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 23);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    for page_size in [1, 2, 3, 8, ONE_RUN] {
        check_paged_matches_isolated(&model, layout, page_size);
    }
}

#[test]
fn mid_decode_fault_replays_paged_state() {
    // A decode-tier crash mid-stream: the rebuilt engine re-admits every
    // live request through the shared-prefix path (block tables and
    // copy-on-write state rebuilt from scratch) and must still recover
    // bit-identical streams.
    use esti_collectives::FaultPlan;
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 24);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = shared_prefix_workload(6, model.config().vocab, 9, 3, 5);
    let opts = ServingOptions {
        max_decode_batch: 4,
        sampling: Sampling::Greedy,
        kv_page_size: Some(4),
        kv_position_budget: Some(80),
        ..ServingOptions::default()
    };
    let baseline = {
        let mut b = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
        b.try_serve(&requests).unwrap()
    };
    assert_eq!(baseline.report.recovery.faults, 0);
    let mut chaotic = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    chaotic.schedule_decode_fault(2, FaultPlan::new().crash(1, 0));
    let outcome = chaotic.try_serve(&requests).unwrap();
    assert_eq!(
        outcome.outputs, baseline.outputs,
        "recovered paged streams diverged from the fault-free run"
    );
    assert_eq!(outcome.report.recovery.faults, 1);
    assert!(outcome.report.recovery.requests_replayed >= 1);
    assert!(outcome.report.kv_pages_shared >= 1, "replay must re-share prefix pages");
}

#[test]
fn paged_fits_over_twice_the_concurrency_at_equal_kv_budget() {
    // The headline capacity claim, in miniature. 16 requests share a
    // 48-token prefix (6 eight-token pages) with 8 unique prompt tokens
    // and 8 generated; each needs 64 positions at worst case. Budget: 256
    // positions. A dense cache pre-charges 64 per slot -> 256 / 64 = 4
    // concurrent. Pages charge the shared prefix once -> first request 8
    // pages, each subsequent 2, so 13 fit in the same 32-page budget.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 25);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = shared_prefix_workload(16, model.config().vocab, 48, 8, 8);
    let (budget, reserve) = (256, 48 + 8 + 8);
    let paged = serve_with(&model, layout, 8, Some(budget), 13, &requests);
    assert_eq!(
        paged.outputs,
        isolated_streams(&model, layout, &requests),
        "budgeted runs must still stream identically"
    );
    assert_eq!(paged.report.peak_decode_batch, 13, "paged fits the whole admissible fleet");
    assert!(
        paged.report.peak_decode_batch >= 2 * (budget / reserve),
        "capacity gate: paged {} vs dense {}",
        paged.report.peak_decode_batch,
        budget / reserve
    );
    assert_eq!(paged.report.kv_pages_shared, 6, "the six shared prefix pages");
    assert_eq!(paged.report.kv_pages_free, 0, "the fleet fills the budget exactly");
}

#[test]
fn oversized_request_is_rejected_not_livelocked() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 26);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = vec![ServingRequest::immediate((0..40).collect(), 8)];
    let opts = ServingOptions {
        max_decode_batch: 2,
        kv_page_size: Some(8),
        kv_position_budget: Some(16),
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    match batcher.try_serve(&requests) {
        Err(ServeError::KvBudgetExceeded { index: 0, needed, budget }) => {
            assert!(needed > budget, "{needed} must exceed {budget}");
        }
        other => panic!("expected KvBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn an_exact_fit_request_is_served_alone() {
    // One 16-token prompt with 16 new tokens in a 4-slot batcher: two
    // 16-position pages, exactly the 32-position budget. The three empty
    // slots take no page, so the request is admitted, not rejected.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 26);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = shared_prefix_workload(1, model.config().vocab, 0, 16, 16);
    let outcome = serve_with(&model, layout, 16, Some(32), 4, &requests);
    assert_eq!(outcome.outputs, isolated_streams(&model, layout, &requests));
    assert_eq!(outcome.report.kv_pages_free, 0, "the request fills the budget exactly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized ragged shared-prefix workloads: arbitrary page size,
    /// shared-prefix length (page-aligned or not), ragged unique tails and
    /// generation lengths — streams always match isolated generate, with
    /// copy-on-write exercised whenever the prefix straddles a page.
    #[test]
    fn cow_streams_match_isolated_under_random_ragged_workloads(
        page_size in 1usize..10,
        shared in 0usize..13,
        seed in 0u64..200,
        // Each code packs a (unique-tail length, max_new) pair.
        tail_codes in proptest::collection::vec(0usize..30, 3..7),
    ) {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 27);
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 4, 1),
        };
        let vocab = model.config().vocab;
        let prefix: Vec<usize> = (0..shared).map(|t| (5 + 3 * t) % vocab).collect();
        let requests: Vec<ServingRequest> = tail_codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let (unique, max_new) = (1 + code % 6, 2 + code / 6);
                let mut prompt = prefix.clone();
                prompt.extend((0..unique).map(|t| (seed as usize + 2 + 9 * i + t) % vocab));
                ServingRequest {
                    prompt,
                    max_new_tokens: max_new,
                    seed: seed + i as u64,
                    arrival: 0.0,
                    priority: Priority::Normal,
                }
            })
            .collect();
        let paged = serve_with(&model, layout, page_size, None, 3, &requests);
        prop_assert_eq!(
            paged.outputs,
            isolated_streams(&model, layout, &requests),
            "page_size {} shared {} diverged",
            page_size,
            shared
        );
    }
}
