//! Intra-chip worker threads are a pure throughput knob: the engine's
//! logits — prefill and decode, f32 and int8-on-the-wire — must be
//! **bit-identical** at every thread count, because the banded kernels
//! give each output row band to exactly one worker running the unchanged
//! serial kernel (see `esti_tensor::pool`).

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{ContinuousBatcher, PartitionedEngine, ServingOptions, WeightFormat};
use esti_tensor::Tensor;

fn layouts() -> Vec<Layout> {
    vec![
        Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 4, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        },
    ]
}

fn prompts() -> Vec<Vec<usize>> {
    (0..4).map(|b| vec![b + 1, b + 5, b + 9, b + 2]).collect()
}

/// Prefill + two decode steps at a given worker count; returns every
/// logits tensor produced so callers can compare runs bitwise.
fn run_at(model: &ReferenceModel, layout: Layout, fmt: WeightFormat, workers: usize) -> Vec<Tensor> {
    let mut engine = PartitionedEngine::new(model, layout, fmt);
    engine.set_intra_chip_threads(workers);
    assert_eq!(engine.intra_chip_threads(), workers.max(1));
    let tokens = prompts();
    let mut outs = vec![engine.try_prefill(&tokens).unwrap()];
    let mut next: Vec<usize> = (0..tokens.len()).map(|b| (b + 1) % model.config().vocab).collect();
    for _ in 0..2 {
        let step = engine.try_decode_step(&next).unwrap();
        next = next.iter().map(|&t| (t * 7 + 3) % model.config().vocab).collect();
        outs.push(step);
    }
    outs
}

#[test]
fn thread_count_is_invisible_in_the_logits() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 42);
    for layout in layouts() {
        for fmt in [WeightFormat::Exact, WeightFormat::Int8] {
            let serial = run_at(&model, layout, fmt, 1);
            for workers in [2usize, 3] {
                let threaded = run_at(&model, layout, fmt, workers);
                assert_eq!(serial.len(), threaded.len());
                for (i, (a, b)) in serial.iter().zip(&threaded).enumerate() {
                    assert_eq!(
                        a.data(),
                        b.data(),
                        "{} {fmt:?} workers={workers}: output {i} diverged bitwise",
                        layout.describe()
                    );
                }
            }
        }
    }
}

#[test]
fn serving_thread_knob_is_invisible_in_the_tokens() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 7);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let requests: Vec<_> = prompts()
        .into_iter()
        .map(|p| esti_runtime::ServingRequest::immediate(p, 4))
        .collect();
    let serve = |threads: usize| {
        let opts = ServingOptions { intra_chip_threads: threads, ..ServingOptions::default() };
        let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Int8, opts);
        batcher.try_serve(&requests).unwrap().outputs
    };
    let baseline = serve(ServingOptions::default().intra_chip_threads); // 1: serial chips
    assert_eq!(baseline, serve(2), "2 intra-chip workers changed served tokens");
    assert_eq!(baseline, serve(4), "4 intra-chip workers changed served tokens");
}
