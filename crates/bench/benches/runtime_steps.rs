//! Microbenchmarks of the partitioned runtime: prefill and decode steps of
//! the tiny model under each dataflow, vs the single-chip reference — the
//! per-step overhead of the thread-per-chip simulation.

use criterion::{criterion_group, criterion_main, Criterion};

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::{KvCache, ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

fn prompts() -> Vec<Vec<usize>> {
    (0..4).map(|b| vec![b + 1, b + 2, b + 3, b + 4]).collect()
}

fn bench_reference(c: &mut Criterion) {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
    c.bench_function("reference_prefill_b4_l4", |bench| {
        bench.iter(|| {
            let mut cache = KvCache::new(model.config().n_layers);
            model.prefill(&prompts(), &mut cache)
        });
    });
    c.bench_function("reference_decode_step", |bench| {
        let mut cache = KvCache::new(model.config().n_layers);
        let _ = model.prefill(&prompts(), &mut cache);
        bench.iter_batched(
            || cache.clone(),
            |mut cache| model.decode_step(&[1, 2, 3, 4], &mut cache),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_partitioned(c: &mut Criterion) {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
    let layouts = [
        ("ws1d_4chips", Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(1, 4, 1),
        }),
        ("ws2d_2x2", Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(2, 2, 1),
        }),
        ("wg_xyz_4chips", Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Batch,
            mesh: MeshFactors::new(4, 1, 1),
        }),
    ];
    for (name, layout) in layouts {
        c.bench_function(&format!("partitioned_prefill_{name}"), |bench| {
            bench.iter_batched(
                || PartitionedEngine::new(&model, layout, WeightFormat::Exact),
                |mut engine| engine.prefill(&prompts()),
                criterion::BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, bench_reference, bench_partitioned);
criterion_main!(benches);
