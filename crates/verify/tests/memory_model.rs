//! memfit charges what ships.
//!
//! * **Paged pools**: the pool [`check_memory_fit_paged`] sizes for a
//!   shared-prefix fleet is exactly the budget at which the shipped
//!   scheduler admits the whole fleet at one boundary — one page less and
//!   it does not — and a batch-sharded chip holds its busiest share's pool,
//!   by the same bound.
//! * **Dense KV**: on every tier-1 layout, the KV elements memfit charges
//!   one chip equal what the busiest chip of a real engine caches after a
//!   prefill.

use esti_core::layout::MeshFactors;
use esti_core::schedule::build_schedule;
use esti_core::scheduler::{Decision, Job, PageLedger, Scheduler};
use esti_core::serving::{OverloadPolicy, Priority};
use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout, Machine};
use esti_hal::DType;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};
use esti_verify::{check_memory_fit, check_memory_fit_paged, MemReport};
use proptest::prelude::*;

/// Prompts of `(len, shared)` tokens: the shared prefix is common to the
/// fleet, each tail unique to its request.
fn prompts(reqs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let token = |r: usize, j: usize, shared: usize| if j < shared { j } else { (r + 1) << 32 | j };
    reqs.iter().enumerate().map(|(r, &(len, sh))| (0..len).map(|j| token(r, j, sh)).collect()).collect()
}

fn jobs<'a>(prompts: &'a [Vec<usize>], max_new: &[usize]) -> Vec<Job<'a>> {
    let class = Priority::Normal;
    prompts.iter().zip(max_new).map(|(prompt, &max_new)| Job { class, max_new, prompt }).collect()
}

/// `jobs`' paged report, and the dense one at 2048 positions a row, for
/// PaLM 540B int8 on WS 2D over `n` chips, pages of 16 positions.
fn palm_paged(n: usize, attn: AttnSharding, jobs: &[Job<'_>]) -> (MemReport, MemReport) {
    let (machine, model) = (Machine::tpu_v4_slice(n).unwrap(), ModelConfig::palm_540b());
    let mesh = Layout::ws2d_mesh(n, model.d_model, model.d_ff);
    let layout = Layout { ffn: FfnLayout::WeightStationary2D, attn, mesh };
    let s = build_schedule(&model, &layout, jobs.len(), 1).unwrap();
    let paged = check_memory_fit_paged(&machine, &model, &s, 16, jobs, DType::Int8, DType::Int8);
    (paged, check_memory_fit(&machine, &model, &s, 2048, DType::Int8, DType::Int8))
}

/// `jobs`' paged report for `tiny` on WS 1D over 1×4×1 under `attn`, pages
/// of `page` positions.
fn tiny_paged(page: usize, attn: AttnSharding, jobs: &[Job<'_>]) -> MemReport {
    let (machine, model) = (Machine::tpu_v4_slice(4).unwrap(), ModelConfig::tiny());
    let mesh = MeshFactors::new(1, 4, 1);
    let s = build_schedule(&model, &Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh }, jobs.len(), 1);
    check_memory_fit_paged(&machine, &model, &s.unwrap(), page, jobs, DType::F32, DType::F32)
}

/// The pages one chip's share of a multiquery report's KV bytes holds: one
/// `d_head`-wide head a row, K and V in every layer.
fn chip_pages(r: &MemReport, model: &ModelConfig, page: usize, kv_dtype: DType) -> usize {
    let page_bytes = (2 * model.n_layers * page * model.d_head) as f64 * kv_dtype.bytes_f();
    let pages = (r.kv_bytes / page_bytes) as usize;
    assert_eq!(r.kv_bytes, pages as f64 * page_bytes, "a whole number of pages");
    pages
}

/// Requests a scheduler with one slot per job and a `budget`-page ledger
/// admits at one boundary before it stops.
fn admitted(page: usize, budget: usize, jobs: &[Job<'_>]) -> usize {
    let ledger = Some(PageLedger::new(page, Some(budget)));
    let slots = (0..jobs.len()).collect();
    let mut core = Scheduler::new(jobs.to_vec(), slots, OverloadPolicy::default(), ledger);
    (0..jobs.len()).for_each(|i| core.arrive(i));
    std::iter::from_fn(|| matches!(core.admit(&[]), Decision::Admit(_)).then_some(())).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_paged_pool_is_the_ledgers_admission_bound(
        page in 1usize..17,
        prefix in 0usize..41,
        lens in prop::collection::vec(1usize..41, 1..13),
        news in prop::collection::vec(2usize..9, 12..13),
        by_batch in 0usize..2,
    ) {
        // Batch-sharded attention cuts the fleet over the 4 chips, so it
        // takes a multiple of 4 jobs; head sharding leaves it whole.
        let (attn, parts) = if by_batch == 1 { (AttnSharding::Batch, 4) } else { (AttnSharding::Head, 1) };
        let n = lens.len().next_multiple_of(parts);
        let reqs: Vec<(usize, usize)> =
            lens.iter().cycle().take(n).map(|&len| (len, prefix.min(len))).collect();
        let prompts = prompts(&reqs);
        let jobs = jobs(&prompts, &news);
        let cfg = ModelConfig::tiny();
        // The whole fleet's pool: a head-sharded chip holds every row.
        let p = chip_pages(&tiny_paged(page, AttnSharding::Head, &jobs), &cfg, page, DType::F32);
        prop_assert_eq!(admitted(page, p, &jobs), jobs.len(), "budget {} pages", p);
        prop_assert!(admitted(page, p - 1, &jobs) < jobs.len(), "budget {} pages", p - 1);
        // The busiest chip's pool: every chip's in-order share is admitted
        // at it, and one share is not a page below it.
        let chip = chip_pages(&tiny_paged(page, attn, &jobs), &cfg, page, DType::F32);
        let mut shares = jobs.chunks(n / parts);
        prop_assert!(shares.clone().all(|js| admitted(page, chip, js) == js.len()), "budget {}", chip);
        prop_assert!(shares.any(|js| admitted(page, chip - 1, js) < js.len()), "budget {}", chip - 1);
    }
}

#[test]
fn paged_pool_counts_shared_pages_once() {
    // 8 requests, all sharing a 48-token prefix of 56-token prompts, 8
    // generated tokens, 8-token pages: 6 shared pages once, plus each
    // request's own last prompt page and one growth page.
    let pool = |reqs| {
        let r = tiny_paged(8, AttnSharding::Head, &jobs(&prompts(reqs), &[8; 8]));
        chip_pages(&r, &ModelConfig::tiny(), 8, DType::F32)
    };
    assert_eq!(pool(&[(56, 48); 8]), 6 + 8 * 2);
    // Without sharing the same fleet needs 8 full block tables.
    assert_eq!(pool(&[(56, 0); 8]), 8 * 8);
}

#[test]
fn paged_pool_rounds_ragged_tails_up() {
    // The 5-token prompt rounds up to a page, plus a copy-out page for its
    // partial last page; the two requests that end at their first token
    // never keep a slot, so they hold no pages.
    let p = prompts(&[(5, 0), (17, 16), (16, 16)]);
    let r = tiny_paged(8, AttnSharding::Head, &jobs(&p, &[2, 0, 1]));
    assert_eq!(chip_pages(&r, &ModelConfig::tiny(), 8, DType::F32), 1 + 1);
}

#[test]
fn paged_fit_beats_slab_fit_on_shared_fleets() {
    // PaLM 540B int8 on 64 chips, head-sharded multiquery: every chip
    // holds the whole (replicated-head) cache, so a 64-way shared-prefix
    // fleet shrinks per-chip KV by the sharing factor.
    let p = prompts(&[(1792, 1792); 64]);
    let (paged, slab) = palm_paged(64, AttnSharding::Head, &jobs(&p, &[256; 64]));
    assert!(paged.fits, "{}", paged.summary());
    assert!(paged.kv_bytes < slab.kv_bytes / 4.0, "paged {paged:?} vs slab {slab:?}");
    let pages = chip_pages(&paged, &ModelConfig::palm_540b(), 16, DType::Int8);
    assert_eq!(pages, 112 + 64 * 16); // 1792/16 shared once + 256/16 each
}

#[test]
fn batch_sharded_pool_spreads_private_pages_over_chips() {
    // Batch sharding: 8 rows per chip on 8 chips — each chip shares the
    // prefix among its own rows: 112 shared + 8 x 16 = 240 pages = 3840
    // positions vs the slab's 8 rows x 2048 = 16384 positions.
    let p = prompts(&[(1792, 1792); 64]);
    let (paged, slab) = palm_paged(8, AttnSharding::Batch, &jobs(&p, &[256; 64]));
    assert_eq!(paged.kv_bytes, slab.kv_bytes * 240.0 * 16.0 / (8.0 * 2048.0));
}

#[test]
fn memfit_kv_equals_the_engines_busiest_cache() {
    // The five tier-1 layouts, plus weight-gathered XYZ over head-sharded
    // attention, whose K the schedule cuts by batch over the gather axes.
    let wg = FfnLayout::WeightGathered;
    let layouts = [
        (FfnLayout::WeightStationary1D, AttnSharding::Head, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary1D, AttnSharding::Batch, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary2D, AttnSharding::Batch, MeshFactors::new(2, 2, 1)),
        (wg(GatherExtent::Xyz), AttnSharding::Batch, MeshFactors::new(4, 1, 1)),
        (wg(GatherExtent::X), AttnSharding::Head, MeshFactors::new(2, 2, 1)),
        (wg(GatherExtent::Xyz), AttnSharding::Head, MeshFactors::new(4, 1, 1)),
    ];
    let (b, l) = (4usize, 2 * esti_runtime::DEFAULT_KV_PAGE_SIZE);
    let machine = Machine::tpu_v4_slice(4).unwrap();
    let mut checked = 0;
    for cfg in [ModelConfig::tiny(), ModelConfig::tiny_multihead()] {
        let model = ReferenceModel::init_random(cfg, 5);
        let cfg = model.config();
        for (ffn, attn, mesh) in layouts {
            if attn == AttnSharding::Batch && cfg.n_kv_heads() != 1 {
                continue; // batch-sharded attention needs multiquery
            }
            let s = build_schedule(cfg, &Layout { ffn, attn, mesh }, b, 1).unwrap();
            let mem = check_memory_fit(&machine, cfg, &s, l, DType::F32, DType::F32);
            let prompts: Vec<Vec<usize>> =
                (0..b).map(|i| (0..l).map(|j| (i * l + j) % cfg.vocab).collect()).collect();
            let mut engine = PartitionedEngine::new(&model, s.layout, WeightFormat::Exact);
            let _ = engine.try_prefill(&prompts).unwrap();
            let held = engine.max_cache_elements_per_chip() as f64;
            assert_eq!(mem.kv_bytes / 4.0, held, "{} {}", cfg.name, s.layout.describe());
            checked += 1;
        }
    }
    assert_eq!(checked, 9, "6 layouts for tiny, the 3 head-sharded ones for tiny_multihead");
}
