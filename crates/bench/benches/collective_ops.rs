//! Microbenchmarks of the shared-memory collectives that the partitioned
//! runtime executes on: all-gather / reduce-scatter / all-reduce /
//! all-to-all over thread groups of 2–8 simulated chips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use esti_collectives::CommGroup;
use esti_tensor::Tensor;

/// Runs `f(rank, group)` on one thread per member.
fn run_group<T: Send>(size: usize, f: impl Fn(usize, &CommGroup) -> T + Sync) -> Vec<T> {
    let members = CommGroup::create(size);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = members
            .into_iter()
            .enumerate()
            .map(|(r, m)| s.spawn(move || f(r, &m)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("member")).collect()
    })
}

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce_64k_f32");
    for &n in &[2usize, 4, 8] {
        group.throughput(Throughput::Bytes((64 * 1024 * 4) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                run_group(n, |r, g| {
                    let t = Tensor::full(vec![64 * 1024], r as f32);
                    g.all_reduce(&t)
                })
            });
        });
    }
    group.finish();
}

fn bench_all_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_gather_16k_shard");
    for &n in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                run_group(n, |r, g| {
                    let shard = Tensor::full(vec![16 * 1024], r as f32);
                    g.all_gather(&shard, 0)
                })
            });
        });
    }
    group.finish();
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_scatter_64k");
    for &n in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                run_group(n, |r, g| {
                    let t = Tensor::full(vec![64 * 1024], r as f32);
                    g.reduce_scatter(&t, 0)
                })
            });
        });
    }
    group.finish();
}

fn bench_all_to_all(c: &mut Criterion) {
    // The batch<->head reshard of Figure 5b.
    let mut group = c.benchmark_group("all_to_all_batch_head");
    for &n in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                run_group(n, |r, g| {
                    let q = Tensor::full(vec![8 * n, 1, 256], r as f32);
                    g.all_to_all(&q, 0, 2)
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_all_reduce,
    bench_all_gather,
    bench_reduce_scatter,
    bench_all_to_all
);
criterion_main!(benches);
