//! Conformance tests for the live-row decode step: stepping a subset of the
//! slots ([`PartitionedEngine::try_decode_rows`]) must give each stepped row
//! the bits the all-slots step ([`PartitionedEngine::try_decode_step`]) gives
//! it — logits and appended KV, `to_bits` — on every decode layout,
//! multiquery and multihead, f32 and int8 weights; must leave every slot it
//! was not given exactly as it was; and must hand back, empty, the slots it
//! borrowed to pad a span. The classic calls (`try_prefill`,
//! `expand_batch`, `try_decode_step`) must be the pass over every slot, and
//! row calls must work on a batch they built. The scheduler's counts of
//! what it stepped ([`DecodeWork`]) are checked at the end.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, PartitionedEngine, RequestKv, ServingOptions, ServingRequest, WeightFormat,
};
use proptest::prelude::*;

mod common;
use common::decode_layouts;

const SLOTS: usize = 8;
/// Small pages, so one step takes some rows across a page boundary.
const PAGE: usize = 4;

/// Layout × model × weight format: the five layouts under multiquery
/// head-sharded, multiquery batch-sharded and multihead (serial block,
/// learned positions) head-sharded attention, each with f32 and int8 weights.
fn combos() -> Vec<(ReferenceModel, Layout, WeightFormat)> {
    let variants = [
        (ReferenceModel::init_random(ModelConfig::tiny(), 41), AttnSharding::Head),
        (ReferenceModel::init_random(ModelConfig::tiny(), 41), AttnSharding::Batch),
        (ReferenceModel::init_random(ModelConfig::tiny_multihead(), 42), AttnSharding::Head),
    ];
    let mut all = Vec::new();
    for (model, attn) in &variants {
        for layout in decode_layouts(*attn) {
            for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
                all.push((model.clone(), layout, fmt));
            }
        }
    }
    all
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_kv(got: &RequestKv, want: &RequestKv, ctx: &str) {
    assert_eq!(got.len, want.len, "{ctx}: cached length");
    for (li, ((gk, gv), (wk, wv))) in got.layers().iter().zip(want.layers()).enumerate() {
        assert_eq!(bits(gk.data()), bits(wk.data()), "{ctx}: layer {li} K");
        assert_eq!(bits(gv.data()), bits(wv.data()), "{ctx}: layer {li} V");
    }
}

/// Slot `s`'s prompt: 1–9 tokens, so ages differ and some sit on a page edge.
fn prompt(s: usize, seed: usize, vocab: usize) -> Vec<usize> {
    (0..1 + (3 * s + seed) % 9).map(|t| (5 + 7 * s + 11 * t + seed) % vocab).collect()
}

/// A slot-mode engine whose `occupied` slots hold their prompts' KV (prompt
/// `seed`) and whose other slots are empty.
fn engine_with(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    occupied: &[bool],
    kvs: &[RequestKv],
    seed: usize,
) -> PartitionedEngine {
    let mut engine = PartitionedEngine::new(model, layout, fmt);
    engine.set_kv_page_size(PAGE);
    engine.begin_slots(SLOTS, 0);
    for (s, kv) in kvs.iter().enumerate() {
        if occupied[s] {
            engine.insert_kv_shared(s, kv, &prompt(s, seed, model.config().vocab));
        }
    }
    engine
}

/// One live-subset step, and a second one behind it, against the all-slots
/// step; then everything the subset step must have left alone.
fn check_live_step(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    live: &[bool],
    park: bool,
    seed: usize,
) {
    let vocab = model.config().vocab;
    let ctx = format!("{} {fmt:?} {} live={live:?}", layout.describe(), model.config().name);

    // Every slot's KV, from a batch-1-equivalent prefill of its prompt.
    let mut pre = PartitionedEngine::new(model, layout, fmt);
    let pad = pre.min_batch();
    let kvs: Vec<RequestKv> = (0..SLOTS)
        .map(|s| {
            pre.reset();
            let _ = pre.try_prefill(&vec![prompt(s, seed, vocab); pad]).unwrap();
            pre.extract_kv(0)
        })
        .collect();

    // The chips hold the slots in `n_spans` equal contiguous spans: one live
    // row is carried as one row per span.
    let probe = engine_with(model, layout, fmt, &[false; SLOTS], &kvs, seed);
    let n_spans = probe.decode_rows_carried(&[(0, 0)]);
    let span = SLOTS / n_spans;
    let live_in = |i: usize| live[i * span..(i + 1) * span].iter().filter(|&&l| l).count();
    let per_span = (0..n_spans).map(live_in).max().unwrap_or(0);

    // Slots that hold a request but sit this step out: the lowest idle slot
    // of each span that can spare one and still pad itself. Padding must
    // step over them.
    let mut occupied = live.to_vec();
    if park && per_span < span {
        for i in 0..n_spans {
            if let Some(s) = (i * span..(i + 1) * span).find(|&s| !live[s]) {
                occupied[s] = true;
            }
        }
    }
    let rows = |round: usize| -> Vec<(usize, usize)> {
        (0..SLOTS).filter(|&s| live[s]).map(|s| (s, (3 + 5 * s + seed + round) % vocab)).collect()
    };
    let all_tokens = |round: usize| -> Vec<usize> {
        let mut tokens = vec![0; SLOTS];
        for (s, tok) in rows(round) {
            tokens[s] = tok;
        }
        tokens
    };

    let mut all = engine_with(model, layout, fmt, &occupied, &kvs, seed);
    let mut sub = engine_with(model, layout, fmt, &occupied, &kvs, seed);
    let mut untouched = engine_with(model, layout, fmt, &occupied, &kvs, seed);
    let before = sub.slot_lens().to_vec();

    assert_eq!(sub.decode_rows_carried(&rows(0)), n_spans * per_span, "{ctx}: rows carried");
    for round in 0..2 {
        let want = all.try_decode_step(&all_tokens(round)).unwrap();
        // Logits come back in the order the rows were given, whatever it is.
        let mut given = rows(round);
        if round == 1 {
            given.reverse();
        }
        let got = sub.try_decode_rows(&given).unwrap();
        assert_eq!(got.shape(), &[given.len(), vocab], "{ctx}: one logits row per live slot");
        for (i, &(s, _)) in given.iter().enumerate() {
            assert_eq!(
                bits(&got.data()[i * vocab..(i + 1) * vocab]),
                bits(&want.data()[s * vocab..(s + 1) * vocab]),
                "{ctx}: round {round} slot {s} logits"
            );
        }
    }

    for s in 0..SLOTS {
        if live[s] {
            assert_eq!(sub.slot_lens()[s], before[s] + 2, "{ctx}: stepped slot {s} aged by two");
            assert_same_kv(&sub.extract_kv(s), &all.extract_kv(s), &format!("{ctx}: stepped slot {s}"));
        } else {
            assert_eq!(sub.slot_lens()[s], before[s], "{ctx}: slot {s} was not stepped");
            if occupied[s] {
                let kept = untouched.extract_kv(s);
                assert_same_kv(&sub.extract_kv(s), &kept, &format!("{ctx}: parked slot {s}"));
            }
        }
    }
    // With the stepped slots gone, the pool holds exactly what it would had
    // the steps never run: padding slots gave their pages back.
    for s in (0..SLOTS).filter(|&s| live[s]) {
        sub.evict_slot(s);
        untouched.evict_slot(s);
    }
    let (got, want) = (sub.kv_page_stats().unwrap(), untouched.kv_page_stats().unwrap());
    assert_eq!((got.pages_live, got.pages_shared), (want.pages_live, want.pages_shared), "{ctx}: pool");
}

fn mask(bits: usize) -> Vec<bool> {
    (0..SLOTS).map(|s| (bits >> s) & 1 == 1).collect()
}

#[test]
fn edge_masks_match_the_all_slots_step_on_every_layout() {
    for (model, layout, fmt) in combos() {
        // Slots 0..4 idle: one whole span (two, where spans are pairs) pads
        // itself from nothing; all slots live; one live row, in the last span.
        for (bits, park) in [(0b1011_0000, false), (0b1111_1111, false), (0b0100_0000, true)] {
            check_live_step(&model, layout, fmt, &mask(bits), park, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_live_masks_match_the_all_slots_step(
        combo in 0usize..30,
        bits in 1usize..256,
        park in 0usize..2,
        seed in 0usize..50,
    ) {
        let (model, layout, fmt) = combos().swap_remove(combo);
        check_live_step(&model, layout, fmt, &mask(bits), park == 1, seed);
    }
}

#[test]
fn a_padded_step_reaches_the_slot_count_only_when_a_span_is_full() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 43);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for layout in decode_layouts(attn) {
            let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
            engine.begin_slots(SLOTS, 0);
            let n_spans = engine.decode_rows_carried(&[(0, 0)]);
            let span = SLOTS / n_spans;
            for bits in 1..1usize << SLOTS {
                let live = mask(bits);
                let rows: Vec<(usize, usize)> = (0..SLOTS).filter(|&s| live[s]).map(|s| (s, 0)).collect();
                let fullest = live.chunks(span).map(|c| c.iter().filter(|&&l| l).count()).max().unwrap();
                let carried = engine.decode_rows_carried(&rows);
                let ctx = format!("{} live={live:?}", layout.describe());
                assert_eq!(carried, n_spans * fullest, "{ctx}");
                assert!(carried >= rows.len() && carried <= SLOTS, "{ctx}");
                assert_eq!(carried == SLOTS, fullest == span, "{ctx}: full only behind a full span");
            }
        }
    }
}

/// A batch-1-equivalent prefill of `p` (replicated to the minimum batch):
/// row 0's logits at every position, and its KV.
fn batch1(engine: &mut PartitionedEngine, p: &[usize]) -> (Vec<f32>, RequestKv) {
    engine.reset();
    let logits = engine.try_prefill(&vec![p.to_vec(); engine.min_batch()]).unwrap();
    (logits.data()[..p.len() * engine.config().vocab].to_vec(), engine.extract_kv(0))
}

#[test]
fn a_prefill_pass_beside_a_full_span_pads_it_with_the_scratch_row() {
    // Span 0's slots all hold parked requests and sit the pass out, so the
    // span has no empty slot. Pass 1 runs a cold 5-token prompt at the
    // first slot of every other span; pass 2 the next slot of each, seeded
    // with a page of its own prompt and running the 5 tokens after it.
    // Every row's logits at every position, and its KV, must be the batch-1
    // prefill's, `to_bits`; the parked slots keep their bytes: a filler row
    // is a slot of the span that is not in the pass, and it is never
    // touched.
    const L: usize = 5;
    for (model, layout, fmt) in combos() {
        let vocab = model.config().vocab;
        let ctx = format!("{} {fmt:?} {}", layout.describe(), model.config().name);
        let mut oracle = PartitionedEngine::new(&model, layout, fmt);
        let parked: Vec<RequestKv> = (0..SLOTS).map(|s| batch1(&mut oracle, &prompt(s, 0, vocab)).1).collect();
        let n_spans = engine_with(&model, layout, fmt, &[false; SLOTS], &parked, 0).decode_rows_carried(&[(0, 0)]);
        if n_spans == 1 {
            continue; // every chip sees every row: a pass never pads
        }
        let span = SLOTS / n_spans;
        let occupied: Vec<bool> = (0..SLOTS).map(|s| s < span).collect();
        let mut engine = engine_with(&model, layout, fmt, &occupied, &parked, 0);
        let untouched = engine_with(&model, layout, fmt, &occupied, &parked, 0);
        for pass in 0..2 {
            let hit = pass * PAGE;
            let rows: Vec<(usize, Vec<usize>)> = (1..n_spans)
                .map(|i| (i * span + pass, (0..hit + L).map(|t| (3 + 7 * i + 5 * t + pass) % vocab).collect()))
                .collect();
            let want: Vec<(Vec<f32>, RequestKv)> = rows.iter().map(|(_, p)| batch1(&mut oracle, p)).collect();
            for ((slot, p), (_, kv)) in rows.iter().zip(&want).filter(|_| hit > 0) {
                let mut seed = kv.clone();
                seed.truncate(hit);
                engine.insert_kv_shared(*slot, &seed, &p[..hit]);
            }
            let given: Vec<(usize, &[usize])> = rows.iter().map(|(s, p)| (*s, &p[hit..])).collect();
            let carried: Vec<(usize, usize)> = rows.iter().map(|r| (r.0, 0)).collect();
            assert_eq!(engine.decode_rows_carried(&carried), n_spans, "{ctx}: one row per span");
            let got = engine.try_prefill_rows(&given).unwrap();
            assert_eq!(got.shape(), &[rows.len(), L, vocab], "{ctx}");
            for (r, ((slot, _), (logits, kv))) in rows.iter().zip(&want).enumerate() {
                let got = &got.data()[r * L * vocab..(r + 1) * L * vocab];
                assert_eq!(bits(got), bits(&logits[hit * vocab..]), "{ctx}: pass {pass} slot {slot} logits");
                assert_same_kv(&engine.extract_kv(*slot), kv, &format!("{ctx}: pass {pass} slot {slot}"));
            }
        }
        for s in 0..span {
            assert_same_kv(&engine.extract_kv(s), &untouched.extract_kv(s), &format!("{ctx}: parked slot {s}"));
        }
        for s in span..SLOTS {
            engine.evict_slot(s);
        }
        let (got, want) = (engine.kv_page_stats().unwrap(), untouched.kv_page_stats().unwrap());
        assert_eq!((got.pages_live, got.pages_shared), (want.pages_live, want.pages_shared), "{ctx}: pool");
    }
}

/// The five layouts the workspace's cross-layout generation test runs: all
/// four dataflows, both attention shardings.
fn tier1_layouts() -> [Layout; 5] {
    [
        (FfnLayout::WeightStationary1D, AttnSharding::Head, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary1D, AttnSharding::Batch, MeshFactors::new(1, 4, 1)),
        (FfnLayout::WeightStationary2D, AttnSharding::Batch, MeshFactors::new(2, 2, 1)),
        (FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Batch, MeshFactors::new(4, 1, 1)),
        (FfnLayout::WeightGathered(GatherExtent::X), AttnSharding::Head, MeshFactors::new(2, 2, 1)),
    ]
    .map(|(ffn, attn, mesh)| Layout { ffn, attn, mesh })
}

/// Four equal-length 5-token prompts.
fn prompts4(vocab: usize) -> Vec<Vec<usize>> {
    (0..4).map(|b| (0..5).map(|t| (3 + 7 * b + 5 * t) % vocab).collect()).collect()
}

#[test]
fn the_classic_calls_are_the_all_slots_pass() {
    // try_prefill on a fresh engine, a second chunk, expand_batch(2) and two
    // try_decode_steps, against begin_slots over the expanded batch and the
    // row calls over every slot (given in reverse order, each sample
    // prefilled on its own): logits and KV `to_bits`, every tier-1 layout.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 44);
    let vocab = model.config().vocab;
    let prompts = prompts4(vocab);
    let slots = 2 * prompts.len();
    for layout in tier1_layouts() {
        for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
            let ctx = format!("{} {fmt:?}", layout.describe());
            let mut classic = PartitionedEngine::new(&model, layout, fmt);
            classic.set_kv_page_size(PAGE);
            let mut rows = PartitionedEngine::new(&model, layout, fmt);
            rows.set_kv_page_size(PAGE);
            rows.begin_slots(slots, 0);
            for (lo, hi) in [(0, 3), (3, 5)] {
                let chunk: Vec<Vec<usize>> = prompts.iter().map(|p| p[lo..hi].to_vec()).collect();
                let want = classic.try_prefill(&chunk).unwrap();
                let given: Vec<(usize, &[usize])> = (0..slots).rev().map(|s| (s, &chunk[s / 2][..])).collect();
                let got = rows.try_prefill_rows(&given).unwrap();
                let n = (hi - lo) * vocab;
                for (r, &(s, _)) in given.iter().enumerate() {
                    let want = &want.data()[s / 2 * n..(s / 2 + 1) * n];
                    assert_eq!(bits(&got.data()[r * n..(r + 1) * n]), bits(want), "{ctx}: chunk {lo}.. slot {s}");
                }
            }
            classic.expand_batch(2);
            assert_eq!(classic.slot_lens(), rows.slot_lens(), "{ctx}: ages after expand_batch");
            for round in 0..2 {
                let tokens: Vec<usize> = (0..slots).map(|s| (1 + 3 * s + round) % vocab).collect();
                let want = classic.try_decode_step(&tokens).unwrap();
                let given: Vec<(usize, usize)> = (0..slots).rev().map(|s| (s, tokens[s])).collect();
                let got = rows.try_decode_rows(&given).unwrap();
                for (r, &(s, _)) in given.iter().enumerate() {
                    let want = &want.data()[s * vocab..(s + 1) * vocab];
                    assert_eq!(bits(&got.data()[r * vocab..(r + 1) * vocab]), bits(want), "{ctx}: step {round} slot {s}");
                }
            }
            for s in 0..slots {
                assert_same_kv(&classic.extract_kv(s), &rows.extract_kv(s), &format!("{ctx}: slot {s}"));
            }
            assert_eq!(classic.cache_len(), 7, "{ctx}");
        }
    }
}

#[test]
fn an_expanded_batch_takes_a_row_pass_and_gives_back_every_page() {
    // On ws1d × batch (longctx_decode's layout) and WG-XYZ, a classic
    // prefill expanded to two samples per prompt; then one sample is
    // evicted and its slot prefilled alone with a new prompt. Every other
    // span is full, so its filler rows are slots not in the pass, and they
    // are never touched. The new row must be the batch-1 prefill's,
    // `to_bits`; every other slot keeps its bytes; with every slot evicted,
    // the pool holds what a never-served engine's holds.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 45);
    let vocab = model.config().vocab;
    let prompts = prompts4(vocab);
    let slots = 2 * prompts.len();
    let fresh: Vec<usize> = (0..7).map(|t| (2 + 9 * t) % vocab).collect();
    for layout in [tier1_layouts()[1], tier1_layouts()[3]] {
        for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
            let ctx = format!("{} {fmt:?}", layout.describe());
            let engine_at = |slots: Option<usize>| {
                let mut engine = PartitionedEngine::new(&model, layout, fmt);
                engine.set_kv_page_size(PAGE);
                if let Some(slots) = slots {
                    engine.begin_slots(slots, 0);
                }
                engine
            };
            let mut engine = engine_at(None);
            engine.try_prefill(&prompts).unwrap();
            engine.expand_batch(2);
            let before: Vec<RequestKv> = (0..slots).map(|s| engine.extract_kv(s)).collect();
            let (logits, kv) = batch1(&mut engine_at(None), &fresh);
            let s = 5;
            engine.evict_slot(s);
            assert_eq!(engine.decode_rows_carried(&[(s, 0)]), engine.min_batch(), "{ctx}: one row per span");
            let got = engine.try_prefill_rows(&[(s, &fresh)]).unwrap();
            assert_eq!(bits(got.data()), bits(&logits), "{ctx}: logits");
            assert_same_kv(&engine.extract_kv(s), &kv, &ctx);
            assert_eq!(engine.slot_lens()[s], fresh.len(), "{ctx}");
            for o in (0..slots).filter(|&o| o != s) {
                assert_same_kv(&engine.extract_kv(o), &before[o], &format!("{ctx}: slot {o}"));
            }
            for o in 0..slots {
                engine.evict_slot(o);
            }
            let never_served = engine_at(Some(slots)).kv_page_stats().unwrap();
            assert_eq!(engine.kv_page_stats().unwrap().pages_live, never_served.pages_live, "{ctx}: pool");
        }
    }
}

#[test]
fn cache_len_is_the_oldest_slots_age() {
    // On ws1d × batch chip 0 holds slot 0 only: a prefill into slot 3 is
    // not in its span, and must still count.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 46);
    let mut engine = PartitionedEngine::new(&model, tier1_layouts()[1], WeightFormat::Exact);
    engine.begin_slots(4, 0);
    assert_eq!(engine.cache_len(), 0);
    engine.try_prefill_rows(&[(3, &[1, 2, 3, 4, 5])]).unwrap();
    assert_eq!(engine.cache_len(), 5);
    engine.try_decode_rows(&[(0, 1)]).unwrap();
    assert_eq!((engine.slot_lens(), engine.cache_len()), (&[1, 0, 0, 5][..], 5));
}

fn batcher_at(model: &ReferenceModel, layout: Layout) -> ContinuousBatcher {
    let opts = ServingOptions { max_decode_batch: SLOTS, kv_page_size: Some(PAGE), ..Default::default() };
    ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts)
}

/// Ten requests, all due at 0, of staggered lengths: the tier fills, drains
/// unevenly, and refills.
fn trace(vocab: usize) -> Vec<ServingRequest> {
    (0..10)
        .map(|i| {
            let prompt = (0..2 + i % 4).map(|t| (3 + 5 * i + 7 * t) % vocab).collect();
            ServingRequest { seed: 700 + i as u64, ..ServingRequest::immediate(prompt, 2 + (i * 3) % 7) }
        })
        .collect()
}

#[test]
fn decode_work_counts_live_and_filler_rows_exactly() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 43);
    let requests = trace(model.config().vocab);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for (li, layout) in decode_layouts(attn).into_iter().enumerate() {
            let outcome = batcher_at(&model, layout).try_serve(&requests).unwrap();
            let work = outcome.decode;
            let ctx = layout.describe();
            assert_eq!(outcome.decode, batcher_at(&model, layout).try_serve(&requests).unwrap().decode, "{ctx}: repeats");
            assert_eq!(work.steps, outcome.step_log.len(), "{ctx}");
            assert_eq!(work.rows_live, outcome.step_log.iter().map(|s| s.0).sum::<usize>(), "{ctx}");
            // Every generated token but each request's first came out of a
            // live decode row.
            assert_eq!(work.rows_live, outcome.total_generated - requests.len(), "{ctx}");
            if attn == AttnSharding::Head && li < 2 {
                // ws1d / ws2d head-sharded: every chip sees every row.
                assert_eq!(work.filler_rows, 0, "{ctx}: nothing to pad");
            } else {
                // This trace drains unevenly, so some step padded a span.
                assert!(work.filler_rows > 0, "{ctx}: uneven drain pads");
                assert!(work.rows_live + work.filler_rows <= work.steps * SLOTS, "{ctx}");
            }
        }
    }
}
