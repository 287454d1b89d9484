//! Microbenchmarks of the numeric substrate: matmul, the log-base-2
//! softmax/swish fast paths (Section 3.5), the fused attention kernel at a
//! long-context decode shape, int8 weight matmul (Section 3.6), and the
//! partial-selection top-k sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_model::{attention_over_cache, KvCache};
use esti_tensor::sample::top_k_indices;
use esti_tensor::{ops, QuantizedMatrix, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(0);
    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn(&mut rng, vec![n, n], 1.0);
        let b = Tensor::randn(&mut rng, vec![n, n], 1.0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| ops::matmul(&a, &b));
        });
    }
    group.finish();
}

fn bench_quantized_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_matmul");
    let mut rng = StdRng::seed_from_u64(1);
    let n = 256usize;
    let w = Tensor::randn(&mut rng, vec![n, n], 0.05);
    let x = Tensor::randn(&mut rng, vec![16, n], 1.0);
    let q = QuantizedMatrix::quantize(&w);
    group.bench_function("int8_16x256x256", |bench| bench.iter(|| q.matmul(&x)));
    group.bench_function("f32_16x256x256", |bench| bench.iter(|| ops::matmul(&x, &w)));
    group.bench_function("quantize_256x256", |bench| {
        bench.iter(|| QuantizedMatrix::quantize(&w));
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    let mut rng = StdRng::seed_from_u64(2);
    let t = Tensor::randn(&mut rng, vec![64, 2048], 2.0);
    group.throughput(Throughput::Elements(t.numel() as u64));
    group.bench_function("exp", |bench| bench.iter(|| ops::softmax(&t)));
    group.bench_function("exp2 (Section 3.5)", |bench| bench.iter(|| ops::softmax_base2(&t)));
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    // One chip's share of a batch-sharded multiquery decode step: 2 rows ×
    // 2048 cached positions × 8 query heads of 32 over one KV head, read
    // through the default 16-position pages.
    let (rows, context, heads, d_head) = (2, 2048, 8, 32);
    let mut group = c.benchmark_group("attention_over_cache");
    let mut rng = StdRng::seed_from_u64(5);
    let mut cache = KvCache::paged(1, 16);
    let kv = |rng: &mut StdRng| Tensor::randn(rng, vec![rows, context, d_head], 1.0);
    cache.append(0, &kv(&mut rng), &kv(&mut rng));
    let q = Tensor::randn(&mut rng, vec![rows, 1, heads * d_head], 1.0);
    group.throughput(Throughput::Elements((rows * context * heads) as u64));
    group.bench_function("decode_2x2048x8x32", |bench| {
        bench.iter(|| attention_over_cache(&q, &cache, 0, d_head));
    });
    group.finish();
}

fn bench_swish(c: &mut Criterion) {
    let mut group = c.benchmark_group("swish");
    let mut rng = StdRng::seed_from_u64(3);
    let t = Tensor::randn(&mut rng, vec![1 << 16], 2.0);
    group.throughput(Throughput::Elements(t.numel() as u64));
    group.bench_function("exp", |bench| bench.iter(|| ops::swish(&t)));
    group.bench_function("exp2 (Section 3.5)", |bench| bench.iter(|| ops::swish_base2(&t)));
    group.finish();
}

fn bench_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("top_k_vocab_256k");
    let mut rng = StdRng::seed_from_u64(4);
    let logits = Tensor::randn(&mut rng, vec![256_000], 1.0);
    for &k in &[16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, &k| {
            bench.iter(|| top_k_indices(logits.data(), k));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_quantized_matmul,
    bench_softmax,
    bench_attention,
    bench_swish,
    bench_top_k
);
criterion_main!(benches);
