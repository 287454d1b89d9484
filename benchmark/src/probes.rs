//! Probes that call each lower layer's public functions at the per-chip
//! shapes a workload induces. They run after the traced section, on their
//! own data, and feed only per-layer metrics.

use std::time::Instant;

use esti_collectives::{CollectiveOp, CommGroup, TrafficStats};
use esti_model::{attention_over_cache, KvCache};
use esti_tensor::quant::QuantizedMatrix;
use esti_tensor::sample::{sample_row, Sampling};
use esti_tensor::{ops, Tensor};

use crate::common::{metric, Metric, D_HEAD, D_MODEL, N_CHIPS, N_LAYERS, VOCAB};
use crate::gen::SplitMix64;
use crate::trace::{Layer, Tracer};
use crate::util::median;

/// The per-chip shapes of one workload.
pub struct Shape {
    /// Rows of a decode step over the whole batch.
    pub decode_rows: usize,
    /// Rows of the per-chip decode GEMM (replicated activations keep the
    /// whole batch; weight-gathered chips hold a quarter).
    pub decode_m: usize,
    /// Rows of the per-chip prefill GEMM, `B·L` as the chip sees it.
    pub prefill_m: usize,
    /// Output columns of the per-chip FFN GEMM.
    pub gemm_n: usize,
    /// Batch rows each chip's KV cache holds.
    pub kv_rows: usize,
    /// Query heads each chip attends with.
    pub q_heads: usize,
    /// Typical cached positions per row.
    pub context: usize,
    /// Positions per `KvCache::append` call: 1 in decode, the prompt length
    /// where bulk prefill appends dominate.
    pub append_len: usize,
    /// Prompt length of a KV move between tiers.
    pub move_len: usize,
    /// f32 elements each chip contributes to the probe all-gather (for the
    /// int8 workload: as many bytes as one int8 weight shard with scales).
    pub gather_elems: usize,
}

/// Median microseconds each collective took rank 0 at this shape.
#[derive(Default, Clone, Copy)]
pub struct CollectiveTimes {
    pub barrier_us: f64,
    pub all_reduce_us: f64,
    pub all_gather_us: f64,
    pub reduce_scatter_us: f64,
    pub all_to_all_us: f64,
}

impl CollectiveTimes {
    fn of(&self, op: CollectiveOp) -> f64 {
        match op {
            CollectiveOp::AllGather => self.all_gather_us,
            CollectiveOp::ReduceScatter => self.reduce_scatter_us,
            CollectiveOp::AllReduce => self.all_reduce_us,
            CollectiveOp::AllToAll => self.all_to_all_us,
        }
    }

    /// Estimated share of a step spent in collectives: the probe's time per
    /// call × the calls per chip per step the traffic ledger counted. An
    /// estimate — probe payloads approximate the engine's.
    pub fn comm_frac(&self, calls_per_step: &[(CollectiveOp, f64)], step_ms: f64) -> f64 {
        let us: f64 = calls_per_step.iter().map(|&(op, calls)| calls * self.of(op)).sum();
        if step_ms > 0.0 {
            us / (step_ms * 1e3)
        } else {
            0.0
        }
    }
}

/// Per-chip collective calls per step, from ledger counts accumulated over
/// `steps` steps. Rank 0 of every group records its group's call, so a
/// layout whose collectives run in `groups` parallel sub-groups (two on the
/// 2x2 mesh of ws2d, one otherwise) counts each chip's call `groups` times.
pub fn calls_per_step(calls: [u64; 4], steps: usize, groups: usize) -> Vec<(CollectiveOp, f64)> {
    CollectiveOp::ALL
        .iter()
        .zip(calls)
        .map(|(&op, c)| (op, c as f64 / (groups * steps.max(1)) as f64))
        .collect()
}

pub fn call_counts(stats: &TrafficStats) -> [u64; 4] {
    CollectiveOp::ALL.map(|op| stats.calls(op))
}

const COLLECTIVE_ITERS: usize = 150;
const KERNEL_ITERS: usize = 40;

/// Times `f` `iters` times inside spans and returns the median microseconds.
fn probe_us<T>(
    tracer: &mut Tracer,
    layer: Layer,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let (out, ms, _) = tracer.span(layer, name, None, |_| f());
            std::hint::black_box(out);
            ms * 1e3
        })
        .collect();
    median(&samples)
}

/// One rank's laps of one collective: when each started and its microseconds.
type Laps = Vec<(Instant, f64)>;

const COLLECTIVE_NAMES: [&str; 5] =
    ["all_reduce(1 element)", "all_reduce", "all_gather", "reduce_scatter", "all_to_all"];

/// The four collectives plus a 1-element all-reduce (the barrier) over four
/// threads in lockstep; rank 0 times each call, waiting included, as a chip
/// in the engine would see it, and its laps become spans once the threads
/// have joined.
pub fn collectives(shape: &Shape, tracer: &mut Tracer) -> CollectiveTimes {
    let act = Tensor::full(vec![shape.decode_rows, 1, D_MODEL], 0.5);
    let one = Tensor::full(vec![1], 1.0);
    let shard = Tensor::full(vec![1, shape.gather_elems], 0.25);
    let timed: Vec<Option<[Laps; 5]>> = std::thread::scope(|s| {
        let handles: Vec<_> = CommGroup::create(N_CHIPS)
            .into_iter()
            .map(|g| {
                let (act, one, shard) = (&act, &one, &shard);
                s.spawn(move || {
                    let mut t: [Laps; 5] = Default::default();
                    for _ in 0..COLLECTIVE_ITERS {
                        let mut lap = |slot: usize, f: &dyn Fn() -> Tensor| {
                            let t0 = Instant::now();
                            std::hint::black_box(f());
                            t[slot].push((t0, t0.elapsed().as_secs_f64() * 1e6));
                        };
                        lap(0, &|| g.all_reduce(one));
                        lap(1, &|| g.all_reduce(act));
                        lap(2, &|| g.all_gather(shard, 0));
                        lap(3, &|| g.reduce_scatter(act, 2));
                        lap(4, &|| g.all_to_all(act, 0, 2));
                    }
                    (g.rank() == 0).then_some(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("collective probe thread panicked")).collect()
    });
    let laps = timed.into_iter().flatten().next().expect("rank 0 reports");
    let t = std::array::from_fn::<_, 5, _>(|op| {
        for &(start, us) in &laps[op] {
            tracer.record(Layer::Collectives, COLLECTIVE_NAMES[op], start, us);
        }
        median(&laps[op].iter().map(|lap| lap.1).collect::<Vec<_>>())
    });
    CollectiveTimes {
        barrier_us: t[0],
        all_reduce_us: t[1],
        all_gather_us: t[2],
        reduce_scatter_us: t[3],
        all_to_all_us: t[4],
    }
}

fn collective_metrics(shape: &Shape, t: &CollectiveTimes) -> Vec<Metric> {
    let gathered_bytes = (N_CHIPS * shape.gather_elems * 4) as f64;
    vec![
        metric("collectives.barrier_us_p50", t.barrier_us),
        metric("collectives.all_reduce_us_p50", t.all_reduce_us),
        metric("collectives.all_gather_us_p50", t.all_gather_us),
        metric("collectives.gather_gb_s", gathered_bytes / (t.all_gather_us * 1e3)),
        metric("collectives.reduce_scatter_us_p50", t.reduce_scatter_us),
        metric("collectives.all_to_all_us_p50", t.all_to_all_us),
    ]
}

/// `model.kvcache` and `model.reference`: one chip's paged cache at the
/// workload's rows × context, then the attention read over it.
fn kvcache_and_attention(shape: &Shape, tracer: &mut Tracer) -> Vec<Metric> {
    let (layers, w) = (N_LAYERS, D_HEAD);
    let kv = |rows: usize, len: usize| Tensor::full(vec![rows, len, w], 0.125);
    let mut cache = KvCache::paged(layers, esti_runtime::DEFAULT_KV_PAGE_SIZE);
    let bulk = kv(shape.kv_rows, shape.context);
    for li in 0..layers {
        cache.append(li, &bulk, &bulk);
    }
    let read_us =
        probe_us(tracer, Layer::KvCache, "read_slot", KERNEL_ITERS, || cache.read_slot(0, 0));
    let q = Tensor::full(vec![shape.kv_rows, 1, shape.q_heads * w], 0.01);
    let attn_us = probe_us(tracer, Layer::Reference, "attention_over_cache", KERNEL_ITERS, || {
        attention_over_cache(&q, &cache, 0, w)
    });

    // Appends at the workload's granularity: one position per call on the
    // filled cache, or the bulk prompt into an emptied one.
    let piece = kv(shape.kv_rows, shape.append_len);
    let mut scratch = KvCache::paged(layers, esti_runtime::DEFAULT_KV_PAGE_SIZE);
    let append_us = if shape.append_len == 1 {
        probe_us(tracer, Layer::KvCache, "append", KERNEL_ITERS, || cache.append(0, &piece, &piece))
    } else {
        let samples: Vec<f64> = (0..KERNEL_ITERS / 4)
            .map(|_| {
                for row in 0..shape.kv_rows {
                    scratch.clear_slot(row);
                }
                tracer.span(Layer::KvCache, "append", None, |_| scratch.append(0, &piece, &piece)).1
                    * 1e3
            })
            .collect();
        median(&samples)
    };

    // A request moving into a decode slot: a cold insert writes and
    // registers every page, a second request with the same tokens maps them.
    let mut slots = KvCache::paged(layers, esti_runtime::DEFAULT_KV_PAGE_SIZE);
    let row_kv: Vec<(Tensor, Tensor)> = (0..layers)
        .map(|_| {
            let t = Tensor::full(vec![shape.move_len, w], 0.125);
            (t.clone(), t)
        })
        .collect();
    let mut rng = SplitMix64::new(0x5eed);
    let (mut cold, mut shared, mut clear) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..KERNEL_ITERS / 2 {
        let tokens = rng.tokens(shape.move_len, VOCAB);
        let mut lap = |name, f: &mut dyn FnMut(&mut KvCache)| {
            tracer.span(Layer::KvCache, name, None, |_| f(&mut slots)).1 * 1e3
        };
        cold.push(lap("insert_row_shared(cold)", &mut |c| {
            c.insert_row_shared(0, 2, &row_kv, &tokens)
        }));
        shared.push(lap("insert_row_shared(hit)", &mut |c| {
            c.insert_row_shared(1, 2, &row_kv, &tokens)
        }));
        clear.push(lap("clear_slot", &mut |c| c.clear_slot(1)));
        slots.clear_slot(0);
    }

    let row_bytes = (2 * shape.context * w * 4) as f64;
    vec![
        metric("kvcache.read_slot_us_p50", read_us),
        metric("kvcache.read_gb_s", row_bytes / (read_us * 1e3)),
        metric("kvcache.append_us_p50", append_us),
        metric("kvcache.insert_shared_us_p50", median(&shared)),
        metric("kvcache.insert_cold_us_p50", median(&cold)),
        metric("kvcache.clear_slot_us_p50", median(&clear)),
        metric("attention.over_cache_us_p50", attn_us),
        // Computed from tensor sizes, not measured: K and V of every row a
        // chip holds, all layers, once per decode step.
        metric("attention.kv_bytes_per_step", row_bytes * (shape.kv_rows * layers) as f64),
    ]
}

/// `tensor`: the FFN GEMM at the prefill and decode row counts, f32 and
/// int8, the attention softmax row and the sampler.
fn tensor(shape: &Shape, tracer: &mut Tracer) -> Vec<Metric> {
    let k = D_MODEL;
    let mut rng = SplitMix64::new(0x7e50);
    let mut randn = |rows: usize, cols: usize| {
        Tensor::from_vec(
            vec![rows, cols],
            (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect(),
        )
    };
    let w = randn(k, shape.gemm_n);
    let wq = QuantizedMatrix::quantize(&w);
    let mut gflops = |m: usize, int8: bool| {
        let x = randn(m, k);
        let us = if int8 {
            probe_us(tracer, Layer::Tensor, "int8 matmul", KERNEL_ITERS, || wq.matmul(&x))
        } else {
            probe_us(tracer, Layer::Tensor, "matmul", KERNEL_ITERS, || ops::matmul(&x, &w))
        };
        (2 * m * k * shape.gemm_n) as f64 / (us * 1e3)
    };
    let (f32_prefill, int8_prefill) =
        (gflops(shape.prefill_m, false), gflops(shape.prefill_m, true));
    let (f32_decode, int8_decode) = (gflops(shape.decode_m, false), gflops(shape.decode_m, true));
    let scores = randn(shape.q_heads, shape.context);
    let softmax_us = probe_us(tracer, Layer::Tensor, "softmax_base2", KERNEL_ITERS, || {
        ops::softmax_base2(&scores)
    });
    let logits = randn(64, VOCAB);
    let mut pick = SplitMix64::new(1);
    let sample_us = probe_us(tracer, Layer::Tensor, "sample_row x64", KERNEL_ITERS, || {
        logits
            .data()
            .chunks(VOCAB)
            .map(|r| sample_row(&mut pick, r, Sampling::Greedy))
            .sum::<usize>()
    }) / 64.0;
    vec![
        metric("tensor.gemm_f32_gflops_prefill", f32_prefill),
        metric("tensor.gemm_int8_gflops_prefill", int8_prefill),
        metric("tensor.gemm_f32_gflops_decode", f32_decode),
        metric("tensor.gemm_int8_gflops_decode", int8_decode),
        metric("tensor.softmax_us_p50", softmax_us),
        metric("tensor.sample_us_per_row", sample_us),
    ]
}

/// `engine.build_s` and `planner.first_call_extra_ms`, measured before
/// anything else touches the planner's process-wide calibration cache: the
/// first prefill and decode step of a fresh engine against their steady
/// medians at the same shape.
pub fn cold_engine(
    model: &esti_model::ReferenceModel,
    layout: esti_core::layout::Layout,
    fmt: esti_runtime::WeightFormat,
    rows: &[Vec<usize>],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (mut engine, build_ms, _) =
        tracer.span(Layer::Engine, "PartitionedEngine::new", None, |_| {
            esti_runtime::PartitionedEngine::new(model, layout, fmt)
        });
    let step_tokens = vec![1usize; rows.len()];
    let mut pass = |tracer: &mut Tracer| {
        engine.reset();
        let (p, prefill_ms, _) =
            tracer.span(Layer::Engine, "try_prefill", None, |_| engine.try_prefill(rows));
        let (d, step_ms, _) = tracer
            .span(Layer::Engine, "try_decode_step", None, |_| engine.try_decode_step(&step_tokens));
        std::hint::black_box((p.is_ok(), d.is_ok()));
        (prefill_ms, step_ms)
    };
    let first = pass(tracer);
    let steady: Vec<(f64, f64)> = (0..4).map(|_| pass(tracer)).collect();
    let steady_ms = median(&steady.iter().map(|s| s.0).collect::<Vec<_>>())
        + median(&steady.iter().map(|s| s.1).collect::<Vec<_>>());
    vec![
        metric("engine.build_s", build_ms / 1e3),
        metric("planner.first_call_extra_ms", first.0 + first.1 - steady_ms),
    ]
}

/// Every probe below the engine, at one workload's shapes.
pub fn lower_layers(shape: &Shape, times: &CollectiveTimes, tracer: &mut Tracer) -> Vec<Metric> {
    let mut m = collective_metrics(shape, times);
    m.extend(kvcache_and_attention(shape, tracer));
    m.extend(tensor(shape, tracer));
    m
}
