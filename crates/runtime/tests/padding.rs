//! Padding is invisible: a row run beside longer rows and filler rows
//! ([`PartitionedEngine::try_prefill_rows`] with rows of unequal length, and
//! the spans the pass fills up to a common row count) must give the bits the
//! same row gives run alone — its valid-position logits, its KV and its age,
//! `to_bits` — and a filler row's slot must be left exactly as it was: an
//! empty one takes no page and stays at age 0, a live one keeps its KV.
//! Covered on ws1d × head, ws2d × batch and the paired WG XYZ × batch engine
//! (prefill gathers, decode runs its 1D partner) for the multiquery RoPE
//! model, and on ws1d × head for the multihead learned-position one, with
//! f32 and int8 weights.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

const SLOTS: usize = 8;
/// Small pages, so rows cross page boundaries.
const PAGE: usize = 4;

fn layouts() -> Vec<Layout> {
    vec![
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 4, 1),
        },
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(4, 1, 1),
        },
    ]
}

/// A call: `(slot, tokens)` rows in one pass, or a decode step.
enum Call {
    Prefill(Vec<(usize, Vec<usize>)>),
    Decode(Vec<(usize, usize)>),
}

/// Slot 6 is live before the ragged pass and only fills its span in it;
/// slot 7 is never given, so it fills its span while empty. The ragged pass
/// carries rows of 3, 7 and 1 tokens (slots 0, 1 and 2); the decode step
/// then runs two of them.
fn script(vocab: usize) -> Vec<Call> {
    let toks = |n: usize, seed: usize| -> Vec<usize> { (0..n).map(|t| (seed + 5 * t) % vocab).collect() };
    vec![
        Call::Prefill(vec![(0, toks(5, 1)), (6, toks(4, 2))]),
        Call::Prefill(vec![(0, toks(3, 3)), (1, toks(7, 4)), (2, toks(1, 5))]),
        Call::Decode(vec![(0, 7), (2, 9)]),
    ]
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Every slot's KV, as bits, in canonical form.
fn kv_bits(engine: &PartitionedEngine, slot: usize) -> Vec<u32> {
    let kv = engine.extract_kv(slot);
    kv.layers().iter().flat_map(|(k, v)| bits(k.data()).into_iter().chain(bits(v.data()))).collect()
}

/// Runs `call` on `engine`, returning each row's logits at its own
/// positions, as bits; a prefill row's positions past its own tokens must
/// read zero.
fn run(engine: &mut PartitionedEngine, call: &Call, ctx: &str) -> Vec<Vec<u32>> {
    match call {
        Call::Prefill(rows) => {
            let rows: Vec<(usize, &[usize])> = rows.iter().map(|(s, t)| (*s, t.as_slice())).collect();
            let logits = engine.try_prefill_rows(&rows).unwrap();
            let n = logits.dim(1) * logits.dim(2);
            let per_row = logits.data().chunks(n).zip(&rows);
            let own = |(row, (_, t)): (&[f32], &(usize, &[usize]))| {
                let (own, pad) = row.split_at(t.len() * logits.dim(2));
                assert!(pad.iter().all(|&v| v == 0.0), "{ctx}: a padded position's logits are zero");
                bits(own)
            };
            per_row.map(own).collect()
        }
        Call::Decode(rows) => {
            let logits = engine.try_decode_rows(rows).unwrap();
            logits.data().chunks(logits.dim(1)).map(bits).collect()
        }
    }
}

/// The call of `call`'s row `r` alone.
fn alone(call: &Call, r: usize) -> Call {
    match call {
        Call::Prefill(rows) => Call::Prefill(vec![rows[r].clone()]),
        Call::Decode(rows) => Call::Decode(vec![rows[r]]),
    }
}

fn rows(call: &Call) -> usize {
    match call {
        Call::Prefill(rows) => rows.len(),
        Call::Decode(rows) => rows.len(),
    }
}

#[test]
fn a_row_beside_longer_and_filler_rows_keeps_its_bits() {
    let multiquery = ReferenceModel::init_random(ModelConfig::tiny(), 61);
    let multihead = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 62);
    let runs = layouts().into_iter().map(|l| (&multiquery, l)).chain([(&multihead, layouts()[0])]);
    for (model, layout) in runs {
        let vocab = model.config().vocab;
        for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
            let ctx = format!("{} {} {fmt:?}", model.config().name, layout.describe());
            let engine = || {
                let mut e = PartitionedEngine::new(model, layout, fmt);
                e.set_kv_page_size(PAGE);
                e.begin_slots(SLOTS, 0);
                e
            };
            // Every call as written, and every row of it in a call of its own.
            let (mut together, mut apart) = (engine(), engine());
            for (step, call) in script(vocab).iter().enumerate() {
                let before = (step > 0).then(|| (kv_bits(&together, 6), together.slot_lens()[6]));
                let got = run(&mut together, call, &ctx);
                let want: Vec<Vec<u32>> = (0..rows(call)).flat_map(|r| run(&mut apart, &alone(call, r), &ctx)).collect();
                assert_eq!(got, want, "{ctx}: call {step}'s logits");
                if let Some((kv, age)) = before {
                    // Slot 6 (live) and slot 7 (empty) fill their span.
                    assert_eq!(kv_bits(&together, 6), kv, "{ctx}: a live filler keeps its KV");
                    assert_eq!(together.slot_lens()[6], age, "{ctx}: a live filler keeps its age");
                    assert_eq!(together.extract_kv(7).len, 0, "{ctx}: an empty filler holds no position");
                }
            }
            assert_eq!(together.slot_lens(), apart.slot_lens(), "{ctx}: ages");
            assert_eq!(together.slot_lens(), &[9, 7, 2, 0, 0, 0, 4, 0], "{ctx}");
            for slot in [0, 1, 2, 6] {
                assert_eq!(kv_bits(&together, slot), kv_bits(&apart, slot), "{ctx}: slot {slot}'s KV");
            }
            let pages = |e: &PartitionedEngine| e.kv_page_stats().unwrap().pages_live;
            assert_eq!(pages(&together), pages(&apart), "{ctx}: no filler took a page");
        }
    }
}
