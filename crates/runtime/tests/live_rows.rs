//! Conformance tests for the live-row decode step: stepping a subset of the
//! slots ([`PartitionedEngine::try_decode_rows`]) must give each stepped row
//! the bits the all-slots step ([`PartitionedEngine::try_decode_step`]) gives
//! it — logits and appended KV, `to_bits` — on every decode layout,
//! multiquery and multihead, f32 and int8 weights; must leave every slot it
//! was not given exactly as it was; and must hand back, empty, the slots it
//! borrowed to pad a span. The scheduler's counts of what it stepped
//! ([`DecodeWork`]) are checked at the end.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, PartitionedEngine, RequestKv, ServingOptions, ServingRequest, WeightFormat,
};
use proptest::prelude::*;

const SLOTS: usize = 8;
/// Small pages, so one step takes some rows across a page boundary.
const PAGE: usize = 4;

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

/// A slot-mode engine whose `occupied` slots hold their prompts' KV and whose
/// other slots are empty.
fn engine_with(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    occupied: &[bool],
    kvs: &[RequestKv],
) -> PartitionedEngine {
    let mut engine = PartitionedEngine::new(model, layout, fmt);
    engine.set_kv_page_size(PAGE);
    engine.begin_slots(SLOTS, 0);
    for (s, kv) in kvs.iter().enumerate() {
        if occupied[s] {
            engine.insert_kv(s, kv);
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
            let _ = pre.prefill(&vec![prompt(s, seed, vocab); pad]);
            pre.extract_kv(0)
        })
        .collect();

    // The chips hold the slots in `n_spans` equal contiguous spans: one live
    // row is carried as one row per span.
    let probe = engine_with(model, layout, fmt, &[false; SLOTS], &kvs);
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

    let mut all = engine_with(model, layout, fmt, &occupied, &kvs);
    let mut sub = engine_with(model, layout, fmt, &occupied, &kvs);
    let mut untouched = engine_with(model, layout, fmt, &occupied, &kvs);
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
            let outcome = batcher_at(&model, layout).serve(&requests);
            let work = outcome.decode;
            let ctx = layout.describe();
            assert_eq!(outcome.decode, batcher_at(&model, layout).serve(&requests).decode, "{ctx}: repeats");
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
