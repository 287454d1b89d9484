//! Conformance tests for the group prefill: a prefill row seeded with the
//! whole pages a donor already holds, running only the rest of its prompt
//! next to other requests' rows, must produce the bits a full batch-1
//! prefill produces — at the engine (logits and KV, `to_bits`), through the
//! scheduler (token streams against isolated `generate`, under preemption,
//! decode crashes and prefill faults), and in the work the scheduler
//! reports having done.

use esti_collectives::FaultPlan;
use esti_core::layout::{AttnSharding, Layout};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, GenerateOptions, PartitionedEngine, RequestKv, ServingOptions,
    ServingOutcome, ServingRequest, WeightFormat,
};
use proptest::prelude::*;

mod common;
use common::decode_layouts;

/// Positions per KV page in these tests: small enough that the tiny models'
/// prompts span several whole pages.
const PAGE: usize = 4;

/// The three model × attention-sharding variants every layout is run under:
/// multiquery head-sharded, multiquery batch-sharded, and multihead (serial
/// block, learned positions) head-sharded.
fn variants() -> Vec<(ReferenceModel, AttnSharding)> {
    vec![
        (ReferenceModel::init_random(ModelConfig::tiny(), 31), AttnSharding::Head),
        (ReferenceModel::init_random(ModelConfig::tiny(), 31), AttnSharding::Batch),
        (ReferenceModel::init_random(ModelConfig::tiny_multihead(), 32), AttnSharding::Head),
    ]
}

fn ws1d_head() -> Layout {
    decode_layouts(AttnSharding::Head)[0]
}

fn ws2d_batch() -> Layout {
    decode_layouts(AttnSharding::Batch)[1]
}

/// `paged.rs`'s shared-prefix fleet with ragged tails: every prompt opens
/// with the same `shared` tokens, request `i` adds `tails[i]` of its own.
fn shared_prefix_workload(
    vocab: usize,
    shared: usize,
    tails: &[usize],
    max_new: usize,
) -> Vec<ServingRequest> {
    let prefix: Vec<usize> = (0..shared).map(|t| (11 + 13 * t) % vocab).collect();
    tails
        .iter()
        .enumerate()
        .map(|(i, &unique)| {
            let mut prompt = prefix.clone();
            prompt.extend((0..unique).map(|t| (3 + 5 * i + 7 * t) % vocab));
            ServingRequest { seed: 900 + i as u64, ..ServingRequest::immediate(prompt, max_new) }
        })
        .collect()
}

fn paged_opts(cap: usize) -> ServingOptions {
    ServingOptions {
        max_decode_batch: cap,
        kv_page_size: Some(PAGE),
        ..ServingOptions::default()
    }
}

/// Each request's tokens when it runs alone through `generate` (replicated
/// to the layout's minimum batch, which leaves row 0 bitwise unchanged).
fn isolated_streams(
    model: &ReferenceModel,
    layout: Layout,
    requests: &[ServingRequest],
) -> Vec<Vec<usize>> {
    let mut engine = PartitionedEngine::new(model, layout, WeightFormat::Exact);
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

fn total_prompt_tokens(requests: &[ServingRequest]) -> usize {
    requests.iter().map(|r| r.prompt.len()).sum()
}

// ---------------------------------------------------------------------------
// (i) bitwise, at the engine
// ---------------------------------------------------------------------------

/// The oracle — what every admission ran before groups existed: the prompt
/// replicated to the minimum batch on a classic-mode engine, chunk by chunk;
/// row 0's last-position logits and its KV.
fn full_prefill(
    engine: &mut PartitionedEngine,
    prompt: &[usize],
    chunk: Option<usize>,
) -> (Vec<f32>, RequestKv) {
    engine.reset();
    let (pad, v) = (engine.min_batch(), engine.config().vocab);
    let mut last = Vec::new();
    for piece in prompt.chunks(chunk.unwrap_or(prompt.len())) {
        let logits = engine.try_prefill(&vec![piece.to_vec(); pad]).unwrap();
        last = logits.data()[(piece.len() - 1) * v..piece.len() * v].to_vec();
    }
    (last, engine.extract_kv(0))
}

/// One group call on a slot-mode engine: row `r` is seeded with the first
/// `hit` positions of its own full KV and runs `prompt[hit..]`, right-padded
/// with token 0 to the longest suffix; each row's logits are read at its own
/// last position and its KV cut back to its prompt.
fn seeded_prefill(
    engine: &mut PartitionedEngine,
    rows: &[(&[usize], usize, &RequestKv)],
    chunk: Option<usize>,
) -> Vec<(Vec<f32>, RequestKv)> {
    let v = engine.config().vocab;
    for (r, &(p, hit, full)) in rows.iter().enumerate() {
        engine.evict_slot(r);
        if hit > 0 {
            let mut seed = full.clone();
            seed.truncate(hit);
            engine.insert_kv_shared(r, &seed, &p[..hit]);
        }
    }
    let longest = rows.iter().map(|(p, hit, _)| p.len() - hit).max().unwrap();
    let chunk = chunk.unwrap_or(longest);
    let mut last = vec![Vec::new(); rows.len()];
    for start in (0..longest).step_by(chunk) {
        let l = chunk.min(longest - start);
        let tokens: Vec<Vec<usize>> = rows
            .iter()
            .map(|(p, hit, _)| {
                (start..start + l).map(|i| p[*hit..].get(i).copied().unwrap_or(0)).collect()
            })
            .collect();
        let logits = engine.try_prefill(&tokens).unwrap();
        for (r, (p, hit, _)) in rows.iter().enumerate() {
            let end = p.len() - hit - 1;
            if (start..start + l).contains(&end) {
                let at = (r * l + end - start) * v;
                last[r] = logits.data()[at..at + v].to_vec();
            }
        }
    }
    rows.iter()
        .zip(last)
        .enumerate()
        .map(|(r, ((p, _, _), logits))| {
            let mut kv = engine.extract_kv(r);
            kv.truncate(p.len());
            (logits, kv)
        })
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(got: &(Vec<f32>, RequestKv), want: &(Vec<f32>, RequestKv), ctx: &str) {
    assert_eq!(bits(&got.0), bits(&want.0), "{ctx}: last-position logits differ");
    assert_eq!(got.1.len, want.1.len, "{ctx}: KV length differs");
    for (li, ((gk, gv), (wk, wv))) in got.1.layers().iter().zip(want.1.layers()).enumerate() {
        assert_eq!(bits(gk.data()), bits(wk.data()), "{ctx}: layer {li} K differs");
        assert_eq!(bits(gv.data()), bits(wv.data()), "{ctx}: layer {li} V differs");
    }
}

#[test]
fn seeded_and_packed_rows_are_bit_identical_to_a_full_prefill() {
    // Four prompts behind a 12-token (three-page) prefix, lengths 13..=18,
    // so every whole page below each last token is a possible hit.
    const ROWS: usize = 4;
    let hits = [0, PAGE, 2 * PAGE, 3 * PAGE];
    for (model, attn) in variants() {
        let vocab = model.config().vocab;
        let prompts: Vec<Vec<usize>> = shared_prefix_workload(vocab, 12, &[1, 3, 6, 2], 0)
            .into_iter()
            .map(|r| r.prompt)
            .collect();
        for layout in decode_layouts(attn) {
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                let mut oracle = PartitionedEngine::new(&model, layout, fmt);
                oracle.set_kv_page_size(PAGE);
                let mut slotted = PartitionedEngine::new(&model, layout, fmt);
                slotted.set_kv_page_size(PAGE);
                slotted.begin_slots(ROWS, 0);
                for chunk in [None, Some(3)] {
                    let full: Vec<(Vec<f32>, RequestKv)> =
                        prompts.iter().map(|p| full_prefill(&mut oracle, p, chunk)).collect();
                    for (k, &hit) in hits.iter().enumerate() {
                        let ctx = format!(
                            "{} {} {fmt:?} chunk {chunk:?} hit {hit}",
                            model.config().name,
                            layout.describe()
                        );
                        // The same request in every row, all at one age.
                        let rows = vec![(prompts[0].as_slice(), hit, &full[0].1); ROWS];
                        for got in seeded_prefill(&mut slotted, &rows, chunk) {
                            assert_same_bits(&got, &full[0], &format!("{ctx} replicated"));
                        }
                        // Four requests of four lengths at four cached ages.
                        let rows: Vec<(&[usize], usize, &RequestKv)> = (0..ROWS)
                            .map(|r| (prompts[r].as_slice(), hits[(r + k) % ROWS], &full[r].1))
                            .collect();
                        let got = seeded_prefill(&mut slotted, &rows, chunk);
                        for (r, (got, want)) in got.iter().zip(&full).enumerate() {
                            assert_same_bits(got, want, &format!("{ctx} packed row {r}"));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (ii) through the scheduler, under chaos
// ---------------------------------------------------------------------------

/// Serves `requests` (after `arm` has armed whatever chaos the case wants)
/// and checks every stream against the request's isolated `generate` run.
fn serve_and_check(
    model: &ReferenceModel,
    layout: Layout,
    opts: ServingOptions,
    requests: &[ServingRequest],
    arm: impl FnOnce(&mut ContinuousBatcher),
) -> ServingOutcome {
    let mut batcher = ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts);
    arm(&mut batcher);
    let outcome = batcher.try_serve(requests).unwrap();
    let expect = isolated_streams(model, layout, requests);
    for (i, (got, want)) in outcome.outputs.iter().zip(&expect).enumerate() {
        assert_eq!(got, want, "{} request {i} diverged from its isolated run", layout.describe());
    }
    outcome
}

#[test]
fn a_hit_survives_the_eviction_of_its_donor() {
    // Two slots, one row per group. Request 1 is seeded from request 0 at
    // the first boundary; after one step both are preempted, so request 0
    // replays onto an empty tier (cold) and request 1 is seeded from the
    // replayed request 0 — the donor it had is gone, the hit is not.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 33);
    let requests = shared_prefix_workload(model.config().vocab, 2 * PAGE, &[3, 1, 2, 5], 6);
    let outcome = serve_and_check(&model, ws1d_head(), paged_opts(2), &requests, |b| {
        b.schedule_preemptions(&[(1, 0), (1, 1)]);
    });
    assert_eq!(outcome.preemptions, 2);
    assert!(
        outcome.prefill.tokens_reused >= 2 * 2 * PAGE,
        "request 1 is seeded at admission and again at replay: {:?}",
        outcome.prefill
    );
}

#[test]
fn a_decode_crash_replays_through_seeded_groups() {
    // Eight slots on a four-row prefill tier: two groups at admission (the
    // first's three followers seeded from its leader, the second seeded
    // from the first) and, after the crash at step 2 with all eight still
    // live, all eight re-admitted in slot order as two such groups again on
    // the rebuilt tier.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 34);
    let tails = [3, 1, 2, 5, 4, 1, 6, 2];
    let requests = shared_prefix_workload(model.config().vocab, 2 * PAGE, &tails, 5);
    let outcome = serve_and_check(&model, ws2d_batch(), paged_opts(8), &requests, |b| {
        b.schedule_decode_fault(2, FaultPlan::new().crash(1, 0));
    });
    assert_eq!(outcome.report.recovery.faults, 1);
    assert_eq!(outcome.report.recovery.requests_replayed, 8);
    assert_eq!(outcome.prefill.tokens_reused, 2 * (3 + 4) * 2 * PAGE, "{:?}", outcome.prefill);
    assert_eq!(
        outcome.prefill.tokens_computed + outcome.prefill.tokens_reused,
        2 * total_prompt_tokens(&requests)
    );
}

#[test]
fn a_prefill_fault_on_a_seeded_group_reseeds_and_retries() {
    // ws1d × head runs one all-reduce per layer, so chip 0's collective #2
    // is the first of the second prefill call: request 1's seeded group.
    // Request 0 is live in its slot by then, so it goes back to the queue
    // ahead of request 1 and is re-admitted first; request 1 is seeded from
    // it again.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 35);
    assert_eq!(model.config().n_layers, 2);
    let requests = shared_prefix_workload(model.config().vocab, 2 * PAGE, &[3, 1, 2], 4);
    let opts = paged_opts(4);
    let baseline = serve_and_check(&model, ws1d_head(), opts, &requests, |_| {});
    let outcome = serve_and_check(&model, ws1d_head(), opts, &requests, |b| {
        b.inject_prefill_fault(FaultPlan::new().crash(0, 2));
    });
    let rec = outcome.report.recovery;
    assert_eq!((rec.faults, rec.requests_replayed), (1, 1));
    assert_eq!(
        rec.prefill_tokens_replayed,
        requests[1].prompt.len() + requests[0].prompt.len(),
        "the seeded group's call was lost and the live request replayed"
    );
    assert_eq!(outcome.prefill.tokens_reused, baseline.prefill.tokens_reused);
    assert_eq!(baseline.prefill.tokens_reused, 2 * 2 * PAGE);
}

#[test]
fn padding_never_runs_a_row_past_the_position_table() {
    // Learned positions, max_seq 64. The second group holds a 60-token
    // prompt seeded with 56 positions next to a cold 20-token prompt:
    // padding the seeded row's 4-token suffix to 20 would address position
    // 76. Padding is never embedded, so the group runs as one call, and
    // every row addresses only its own positions: the engine embeds each
    // position through the learned table, which panics past `max_seq`.
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 36);
    let cfg = model.config();
    let (vocab, max_seq) = (cfg.vocab, cfg.max_seq);
    for layout in decode_layouts(AttnSharding::Head) {
        let pad = PartitionedEngine::new(&model, layout, WeightFormat::Exact).min_batch();
        if pad < 2 {
            continue; // one row per group: nothing to pad
        }
        // First group: the donor and `pad - 1` short strangers.
        let mut requests = shared_prefix_workload(vocab, 56, &[2], max_seq - 58);
        for i in 1..pad {
            let prompt = (0..3).map(|t| (2 + i + 3 * t) % vocab).collect();
            requests.push(ServingRequest::immediate(prompt, 6));
        }
        // Second group: the seeded long prompt, then a cold shorter one.
        let mut long = requests[0].prompt[..56].to_vec();
        long.extend([1, 2, 3, 4]);
        requests.push(ServingRequest::immediate(long, 2));
        requests.push(ServingRequest::immediate((0..20).map(|t| (7 + 2 * t) % vocab).collect(), 2));
        assert!(requests.iter().all(|r| r.prompt.len() + r.max_new_tokens <= max_seq));
        let outcome = serve_and_check(&model, layout, paged_opts(2 * pad), &requests, |_| {});
        assert_eq!(outcome.prefill.tokens_reused, 56, "{}", layout.describe());
        let calls = outcome.prefill.calls;
        assert_eq!(calls, 2, "{}: one call per group", layout.describe());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged shared-prefix workloads on any layout, page-aligned prefix or
    /// not: streams equal isolated `generate` with no chaos,
    /// with the lowest slot (every later prompt's donor) preempted between
    /// admissions, with a decode-tier crash, and with a prefill-tier crash
    /// wherever the seed lands it.
    #[test]
    fn shared_prefix_streams_match_isolated_generate_under_chaos(
        variant in 0usize..3,
        layout_idx in 0usize..5,
        shared in 0usize..14,
        chaos in 0usize..4,
        seed in 0u64..500,
        // Each code packs a (unique-tail length, max_new) pair.
        tail_codes in proptest::collection::vec(0usize..30, 5..9),
    ) {
        let (model, attn) = variants().swap_remove(variant);
        let layout = decode_layouts(attn)[layout_idx];
        let vocab = model.config().vocab;
        let prefix: Vec<usize> = (0..shared).map(|t| (5 + 3 * t) % vocab).collect();
        let requests: Vec<ServingRequest> = tail_codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let mut prompt = prefix.clone();
                prompt.extend((0..1 + code % 6).map(|t| (seed as usize + 2 + 9 * i + t) % vocab));
                let request = ServingRequest::immediate(prompt, 2 + code / 6);
                ServingRequest { seed: seed + i as u64, ..request }
            })
            .collect();
        let pad = PartitionedEngine::new(&model, layout, WeightFormat::Exact).min_batch();
        let cap = pad.max(2);
        let outcome = serve_and_check(&model, layout, paged_opts(cap), &requests, |b| {
            match chaos {
                1 => b.schedule_preemptions(&[(1, 0), (2, seed as usize % cap), (3, 0)]),
                2 => {
                    let plan = FaultPlan::seeded_crash(seed, 4, 12);
                    b.schedule_decode_fault(1 + seed as usize % 3, plan);
                }
                3 => b.inject_prefill_fault(FaultPlan::seeded_crash(seed, 4, 40)),
                _ => {}
            }
        });
        let work = outcome.prefill;
        let prompt_tokens = total_prompt_tokens(&requests);
        if chaos == 0 {
            prop_assert_eq!(work.tokens_computed + work.tokens_reused, prompt_tokens);
        } else {
            prop_assert!(work.tokens_computed + work.tokens_reused >= prompt_tokens);
        }
        prop_assert_eq!(work.rows % pad, 0);
        prop_assert!(work.filler_rows < work.rows);
    }
}

// ---------------------------------------------------------------------------
// (iii) the work the scheduler reports
// ---------------------------------------------------------------------------

#[test]
fn only_the_first_group_behind_a_prefix_computes_it() {
    // N requests due at 0 behind a P-token prefix, slots for all of them.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 37);
    let tails = [3, 1, 2, 5, 4, 1, 6, 2, 3, 2];
    let (n, p, suffixes) = (tails.len(), 3 * PAGE, tails.iter().sum::<usize>());
    let requests = shared_prefix_workload(model.config().vocab, p, &tails, 3);
    // One row per group: the first request is the cold group.
    let one = serve_and_check(&model, ws1d_head(), paged_opts(12), &requests, |_| {}).prefill;
    assert_eq!(one.tokens_computed, p + suffixes, "not {}", n * p + suffixes);
    assert_eq!(one.tokens_reused, (n - 1) * p);
    assert_eq!((one.calls, one.rows, one.filler_rows), (n, n, 0));
    // Four rows per group: the first group's leader computes the prefix
    // beside three filler rows, its three followers are seeded from it in
    // the next call (one filler row), and the last group of two carries two
    // filler rows.
    let four =
        serve_and_check(&model, ws2d_batch(), paged_opts(12), &requests, |_| {}).prefill;
    assert_eq!(four.tokens_computed, p + suffixes);
    assert_eq!(four.tokens_reused, (n - 1) * p);
    assert_eq!((four.calls, four.rows, four.filler_rows), (4, 16, 6));
}

#[test]
fn unshared_prompts_run_exactly_the_parents_calls() {
    // No two prompts share a page, one row per group: every admission runs
    // its whole prompt in one call, as it always did.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 38);
    let vocab = model.config().vocab;
    let requests: Vec<ServingRequest> = (0..6)
        .map(|i| {
            let prompt = (0..5 + 3 * i).map(|t| (1 + i + 6 * t) % vocab).collect();
            ServingRequest::immediate(prompt, 3)
        })
        .collect();
    let work = serve_and_check(&model, ws1d_head(), paged_opts(3), &requests, |_| {}).prefill;
    assert_eq!(work.calls, requests.len());
    assert_eq!(work.tokens_computed, total_prompt_tokens(&requests));
    assert_eq!((work.tokens_reused, work.rows, work.filler_rows), (0, 6, 0));
}

#[test]
fn the_one_pool_reuses_freed_pages() {
    // Same-shape cold prompts on two slots, one row per group: one request
    // allocates its prompt's pages; five, two at a time, allocate two
    // requests' worth and take the rest back off the free list — prefill
    // writes, settles and decodes in the one pool, and gives every page
    // back when the serve call ends.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 40);
    let vocab = model.config().vocab;
    let cold = |n: usize| -> Vec<ServingRequest> {
        (0..n)
            .map(|i| {
                let prompt = (0..10).map(|t| (1 + i + 4 * t) % vocab).collect();
                ServingRequest::immediate(prompt, 2)
            })
            .collect()
    };
    let pages = |b: &ContinuousBatcher| b.engine().kv_page_stats().expect("one pool");
    let mut batcher =
        ContinuousBatcher::new(&model, ws1d_head(), WeightFormat::Exact, paged_opts(2));
    batcher.try_serve(&cold(1)).unwrap();
    let one = pages(&batcher).pages_allocated;
    assert_eq!(one, 10usize.div_ceil(PAGE));
    batcher.try_serve(&cold(5)).unwrap();
    assert_eq!(pages(&batcher).pages_allocated, 2 * one, "later requests reuse freed pages");
    assert_eq!(pages(&batcher).pages_live, 0, "every page is back on the free list");
}

#[test]
fn a_full_backlog_on_ws2d_batch_runs_four_calls_of_four_rows() {
    // Sixteen distinct prompts due at once into sixteen slots in four spans
    // of four: each group of four admissions takes one slot per span, so it
    // runs as one call with nothing to pad.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 39);
    let vocab = model.config().vocab;
    let requests: Vec<ServingRequest> = (0..16)
        .map(|i| {
            let prompt = (0..3 + i % 5).map(|t| (i + 17 * t) % vocab).collect();
            ServingRequest { seed: 500 + i as u64, ..ServingRequest::immediate(prompt, 3) }
        })
        .collect();
    let work = serve_and_check(&model, ws2d_batch(), paged_opts(16), &requests, |_| {}).prefill;
    assert_eq!((work.calls, work.rows, work.filler_rows, work.tokens_reused), (4, 16, 0, 0), "{work:?}");
}

#[test]
fn a_span_with_no_empty_slot_pads_from_its_scratch_row() {
    // ws2d × batch, eight slots in four spans of two. The first two groups
    // fill every slot; the long requests 0 and 4 land in span 0 (slots 0
    // and 1), the rest finish after one step. The third group's three
    // requests then take one slot in each of spans 1–3, and span 0 — full,
    // and not in the call — gives the pass filler rows: slots of the span
    // that are not in the pass, which it never touches.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 41);
    let vocab = model.config().vocab;
    let requests: Vec<ServingRequest> = (0..11)
        .map(|i| {
            let prompt = (0..2 + i % 6).map(|t| (3 + 4 * i + 7 * t) % vocab).collect();
            let max_new = if i == 0 || i == 4 { 12 } else { 2 };
            ServingRequest { seed: 600 + i as u64, ..ServingRequest::immediate(prompt, max_new) }
        })
        .collect();
    let opts = paged_opts(8);
    let mut batcher = ContinuousBatcher::new(&model, ws2d_batch(), WeightFormat::Exact, opts);
    let outcome = batcher.try_serve(&requests).unwrap();
    assert_eq!(outcome.outputs, isolated_streams(&model, ws2d_batch(), &requests));
    // Three calls of four rows; the one filler row is span 0's scratch.
    let work = outcome.prefill;
    assert_eq!((work.rows, work.filler_rows, work.calls), (12, 1, 3), "{work:?}");
    let twin = ContinuousBatcher::new(&model, ws2d_batch(), WeightFormat::Exact, opts);
    let live = |b: &ContinuousBatcher| b.engine().kv_page_stats().expect("one pool").pages_live;
    assert_eq!(live(&batcher), live(&twin), "the pool is back where it started");
}
