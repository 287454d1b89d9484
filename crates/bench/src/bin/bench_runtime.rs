//! `bench-runtime` — wall-clock benchmarks of the kernel core (the shipped
//! GEMM tiers against their scalar oracles) and the partitioned engine.
//! Written with plain [`std::time::Instant`] so the numbers are real
//! elapsed time, and dumped to `BENCH_runtime.json` at the workspace root
//! for the acceptance gate:
//!
//! * the shipped f32 matmul (the blocked tile) >= 1.8x over the naive
//!   kernel at 256^3;
//! * decode >= 1.2x over the naive-kernel baseline on the 8-chip 1D
//!   weight-stationary layout (every decode row reports `baseline_us` vs
//!   the shipped kernel and flags a regression);
//! * SIMD int8 GEMM >= 2.1x over the row-major scalar oracle
//!   (`ops::matmul_naive` over the integer values, then the scales) at 256^3;
//! * an int8 weight-gathered prefill pass (one token per row) moves <= 0.55x
//!   the all-gather bytes of the f32 path (quantized wire format vs
//!   bf16-accounted dense) **and** is no slower than f32 (step ratio <= 1.0
//!   — the regression the SIMD dequant path exists to flip). Prefill is the
//!   phase that gathers weights: a weight-gathered engine decodes on its
//!   1D weight-stationary partner, which gathers none;
//! * the deadline-based collective wait (PR 5's fault model) costs <= 1.05x
//!   of the blocking barrier on a fault-free decode step (the mean of 16
//!   per-step minima over 8 rounds, the two engines stepping in turn);
//! * the paged KV cache fits >= 2.0x the concurrent requests a dense
//!   per-slot reservation (`budget / longest request`) would at an equal
//!   KV position budget on a shared-prefix workload.

use std::time::Instant;

use esti_bench::{banner, results_dir};
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_core::serving::{
    simulate_trace, ArrivalProcess, ArrivalTrace, LengthDist, OverloadPolicy, Priority,
    ServingConfig, TraceSpec,
};
use esti_core::Machine;
use esti_hal::DType;
use esti_model::{AttentionKind, BlockKind, MlpKind, ModelConfig, PositionKind, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, PartitionedEngine, ReplicaRouter, ServingOptions, ServingRequest,
    WeightFormat,
};
use esti_tensor::ops::{self, MatmulKernel};
use esti_tensor::{PackedMatrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimum elapsed seconds of `f` over `reps` runs (after one warmup).
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A scaled-up tiny model whose matmuls are big enough to time: the
/// structure of `ModelConfig::tiny()` at `d_model` 256.
fn tiny8x() -> ModelConfig {
    ModelConfig {
        name: "tiny8x".to_owned(),
        n_layers: 2,
        d_model: 256,
        d_ff: 1024,
        n_heads: 8,
        d_head: 32,
        vocab: 128,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 64,
    }
}

const BATCH: usize = 64;
const PREFILL_LEN: usize = 16;
const DECODE_STEPS: usize = 4;

fn prompts(vocab: usize) -> Vec<Vec<usize>> {
    (0..BATCH).map(|b| (0..PREFILL_LEN).map(|t| (b * 7 + t * 3 + 1) % vocab).collect()).collect()
}

/// Wall-clock seconds per decode step under one kernel setting. Each rep
/// builds a fresh engine, prefills, then times `DECODE_STEPS` decode steps.
fn decode_seconds(model: &ReferenceModel, layout: Layout, kernel: MatmulKernel) -> f64 {
    ops::set_matmul_kernel(kernel);
    let vocab = model.config().vocab;
    let toks = prompts(vocab);
    let mut best = f64::INFINITY;
    for rep in 0..3 {
        let mut engine = PartitionedEngine::new(model, layout, WeightFormat::Exact);
        let _ = engine.try_prefill(&toks).unwrap();
        let mut next: Vec<usize> = (0..BATCH).map(|b| (b + rep) % vocab).collect();
        let t = Instant::now();
        for _ in 0..DECODE_STEPS {
            let logits = engine.try_decode_step(&next).unwrap();
            next = (0..BATCH).map(|b| (b + logits.shape()[0]) % vocab).collect();
        }
        best = best.min(t.elapsed().as_secs_f64() / DECODE_STEPS as f64);
    }
    ops::set_matmul_kernel(MatmulKernel::Simd);
    best
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let mut json = String::from("{\n");

    banner("Matmul kernel: the shipped tile over a packed weight vs naive (square, f32)");
    println!("{:>6} {:>12} {:>12} {:>8}", "n", "naive us", "tile us", "speedup");
    let mut rng = StdRng::seed_from_u64(7);
    json.push_str("  \"matmul\": [\n");
    let mut gate_256 = 0.0f64;
    for (i, &n) in [128usize, 256, 384].iter().enumerate() {
        let a = Tensor::randn(&mut rng, vec![n, n], 1.0);
        let b = Tensor::randn(&mut rng, vec![n, n], 1.0);
        let packed = PackedMatrix::pack(&b);
        ops::set_matmul_kernel(MatmulKernel::Naive);
        let naive = time_best(5, || {
            let _ = ops::matmul(&a, &b);
        });
        ops::set_matmul_kernel(MatmulKernel::Simd);
        let blocked = time_best(5, || {
            let _ = packed.matmul(&a);
        });
        let speedup = naive / blocked;
        if n == 256 {
            gate_256 = speedup;
        }
        println!("{n:>6} {:>12.1} {:>12.1} {speedup:>8.2}", naive * 1e6, blocked * 1e6);
        json.push_str(&format!(
            "    {{\"n\": {n}, \"naive_us\": {:.3}, \"blocked_us\": {:.3}, \"speedup\": {speedup:.4}}}{}\n",
            naive * 1e6,
            blocked * 1e6,
            if i == 2 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    // The scalar baseline is the row-major oracle `ops::matmul_naive` over
    // the weight's integer values, then its column scales: the int8 GEMM's
    // arithmetic, read front to back. Not the packed scalar oracle: it walks
    // panels 32 columns at a time, ~1.8x slower, and would flatter the tile.
    banner("Int8 GEMM: the shipped tile vs the safe-Rust tile vs the row-major scalar oracle (square)");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>8}",
        "n", "scalar us", "blocked us", "simd us", "speedup"
    );
    json.push_str("  \"int8_matmul\": [\n");
    let mut gate_q256 = 0.0f64;
    for (i, &n) in [128usize, 256, 384].iter().enumerate() {
        let a = Tensor::randn(&mut rng, vec![n, n], 1.0);
        let w = PackedMatrix::quantize(&Tensor::randn(&mut rng, vec![n, n], 1.0));
        let scales = w.scales().expect("a quantized matrix");
        let values = w.unpack().data().iter().enumerate().map(|(i, &x)| (x / scales[i % n]).round()).collect();
        let values = Tensor::from_vec(vec![n, n], values);
        let scalar = time_best(5, || {
            let mut out = ops::matmul_naive(&a, &values);
            w.apply_scales(&mut out);
        });
        ops::set_matmul_kernel(MatmulKernel::Blocked);
        let blocked = time_best(5, || {
            let _ = w.matmul(&a);
        });
        ops::set_matmul_kernel(MatmulKernel::Simd);
        let simd = time_best(5, || {
            let _ = w.matmul(&a);
        });
        let speedup = scalar / simd;
        if n == 256 {
            gate_q256 = speedup;
        }
        println!(
            "{n:>6} {:>12.1} {:>12.1} {:>12.1} {speedup:>8.2}",
            scalar * 1e6,
            blocked * 1e6,
            simd * 1e6
        );
        json.push_str(&format!(
            "    {{\"n\": {n}, \"scalar_us\": {:.3}, \"blocked_us\": {:.3}, \"simd_us\": {:.3}, \"speedup\": {speedup:.4}}}{}\n",
            scalar * 1e6,
            blocked * 1e6,
            simd * 1e6,
            if i == 2 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    banner("Decode step: tiny8x, batch 64, 8 chips — shipped kernel vs naive baseline");
    let model = ReferenceModel::init_random(tiny8x(), 11);
    let cfg = model.config();
    let ws1d = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 8, 1),
    };
    let ws2d = Layout {
        ffn: FfnLayout::WeightStationary2D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(2, 2, 2),
    };
    let wg = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(8, 1, 1),
    };
    println!("{:<16} {:>12} {:>12} {:>8}", "layout", "baseline us", "current us", "speedup");
    json.push_str("  \"decode\": [\n");
    let mut gate_1d = 0.0f64;
    // The weight-gathered engine decodes on its paired WS 1D × Batch program
    // over the same shards; its prefill (timed below) gathers the weights.
    for (i, (name, layout)) in
        [("ws1d_8chips", ws1d), ("ws2d_2x2x2", ws2d), ("wg_xyz_8chips_paired", wg)].into_iter().enumerate()
    {
        // Baseline: the naive scalar kernel; current: the shipped tiers.
        let base = decode_seconds(&model, layout, MatmulKernel::Naive);
        let current = decode_seconds(&model, layout, MatmulKernel::Simd);
        let speedup = base / current;
        if i == 0 {
            gate_1d = speedup;
        }
        println!("{name:<16} {:>12.0} {:>12.0} {speedup:>8.2}", base * 1e6, current * 1e6);
        // A decode row regresses if the shipped configuration loses to the
        // baseline; flagged rows must carry a tracking pointer (ci.sh
        // rejects untracked regressions).
        let regression = speedup < 1.0;
        let tracking = if regression {
            ", \"tracking\": \"ROADMAP item 2: per-step decomposition of the decode step\""
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{\"layout\": \"{name}\", \"baseline_us\": {:.1}, \"current_us\": {:.1}, \
             \"speedup\": {speedup:.4}, \"regression\": {regression}{tracking}}}{}\n",
            base * 1e6,
            current * 1e6,
            if i == 2 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    banner("Int8 on the wire: weight-gathered prefill bytes vs f32 (wg_xyz, 8 chips)");
    // One prefill pass under the fully weight-gathered dataflow moves every
    // weight matrix over the interconnect (a decode step runs the
    // weight-stationary partner and moves none). With int8 shards the
    // collectives carry the quantized wire format (1 byte/value + a
    // per-column f32 scale), so the all-gather byte volume must drop to
    // roughly half of the bf16-accounted dense volume. The pass carries one
    // token per row, the shape the decode step had when it gathered.
    let next: Vec<Vec<usize>> = (0..BATCH).map(|b| vec![b % cfg.vocab]).collect();
    let prefill_ag_bytes = |fmt: WeightFormat| {
        let mut engine = PartitionedEngine::new(&model, wg, fmt);
        let _ = engine.try_prefill(&prompts(cfg.vocab)).unwrap();
        engine.traffic().reset();
        let _ = engine.try_prefill(&next).unwrap();
        engine.traffic().bytes(esti_collectives::CollectiveOp::AllGather)
    };
    let wg_f32 = prefill_ag_bytes(WeightFormat::Exact);
    let wg_int8 = prefill_ag_bytes(WeightFormat::Int8);
    let gate_wire = wg_int8 as f64 / wg_f32 as f64;
    println!(
        "all-gather bytes per one-token prefill pass: f32 {wg_f32} vs int8 {wg_int8} (ratio {gate_wire:.3})"
    );
    // Wall-clock per one-token prefill pass, same layout. Gated at <= 1.0x of f32:
    // with the SIMD widen-and-fold dequant the quantized path must at
    // least break even on step time while moving half the bytes (the
    // shared-memory mailboxes move pointers, so the wire win itself shows
    // up in the byte ratio above, not in a link's transfer time).
    let step_time = |fmt: WeightFormat| {
        let mut engine = PartitionedEngine::new(&model, wg, fmt);
        let _ = engine.try_prefill(&prompts(cfg.vocab)).unwrap();
        time_best(3, || {
            let _ = engine.try_prefill(&next).unwrap();
        })
    };
    let t_f32 = step_time(WeightFormat::Exact);
    let t_int8 = step_time(WeightFormat::Int8);
    let gate_step = t_int8 / t_f32;
    println!(
        "one-token prefill wall-clock: f32 {:.0} us vs int8 {:.0} us (ratio {gate_step:.3})",
        t_f32 * 1e6,
        t_int8 * 1e6,
    );
    // This step-time ratio used to be a tracked regression: int8 halved
    // the wire bytes but the scalar dequant cost ate the win. The SIMD
    // widen-and-fold kernel flipped it, so the ratio is now *gated* at
    // <= 1.0; the `tracking` pointer only reappears if the row regresses
    // again (ci.sh rejects flagged rows without one).
    let wire_regression = t_int8 > t_f32;
    let wire_tracking = if wire_regression {
        ", \"tracking\": \"the SIMD int8 kernel core\""
    } else {
        ""
    };
    json.push_str(&format!(
        "  \"int8_wire\": {{\"wg_xyz_prefill_ag_bytes_f32\": {wg_f32}, \"wg_xyz_prefill_ag_bytes_int8\": {wg_int8}, \"ratio\": {gate_wire:.4}, \"wg_xyz_prefill_us_f32\": {:.1}, \"wg_xyz_prefill_us_int8\": {:.1}, \"step_ratio\": {gate_step:.4}, \"regression\": {wire_regression}{wire_tracking}}},\n",
        t_f32 * 1e6,
        t_int8 * 1e6,
    ));

    banner("Serving: continuous batching vs serial (tiny8x, 8 chips, ws1d)");
    // The Section 4.4 effect measured end to end: the same request stream
    // served through the continuous-batching scheduler at full decode
    // capacity vs forced batch-1 (serial) decode. Head-sharded attention so
    // a batch-1 decode tier is a valid layout.
    let serve_layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 8, 1),
    };
    let (serve_n, serve_prompt, serve_gen, serve_cap) = (12usize, 12usize, 8usize, 8usize);
    let serve_requests: Vec<ServingRequest> = (0..serve_n)
        .map(|i| ServingRequest {
            prompt: (0..serve_prompt).map(|t| (i * 7 + t * 3 + 1) % cfg.vocab).collect(),
            max_new_tokens: serve_gen,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let serve_tput = |cap: usize| {
        let opts = ServingOptions { max_decode_batch: cap, ..ServingOptions::default() };
        let mut batcher = ContinuousBatcher::new(&model, serve_layout, WeightFormat::Exact, opts);
        let mut best = 0.0f64;
        for _ in 0..2 {
            best = best.max(batcher.try_serve(&serve_requests).unwrap().throughput_tokens_per_sec());
        }
        best
    };
    let batched_tput = serve_tput(serve_cap);
    let serial_tput = serve_tput(1);
    let gate_serving = batched_tput / serial_tput;
    println!(
        "{serve_n} requests x ({serve_prompt} prompt + {serve_gen} generated) tokens: \
         batched (cap {serve_cap}) {batched_tput:.0} tok/s vs serial {serial_tput:.0} tok/s \
         ({gate_serving:.2}x)"
    );
    json.push_str(&format!(
        "  \"serving\": {{\"requests\": {serve_n}, \"prompt_len\": {serve_prompt}, \"gen_len\": {serve_gen}, \
         \"decode_batch\": {serve_cap}, \"batched_tok_per_s\": {batched_tput:.1}, \
         \"serial_tok_per_s\": {serial_tput:.1}, \"batching_speedup\": {gate_serving:.4}}},\n"
    ));

    banner("Overload: 1e5-request bursty trace, SLO scheduler (PaLM 540B, 64 chips, simulated)");
    // The ISSUE's acceptance trace: a seeded Markov-modulated arrival
    // process whose bursts offer ~2x the analytic decode ceiling, ragged
    // prompt/output lengths, three priority classes. The SLO scheduler
    // (priority admission + preemption + typed shedding) must keep goodput
    // at >= 0.7x of the capacity ceiling while holding the high class's
    // p99 TTFT — overload degrades the low class, never the whole system.
    let palm = ModelConfig::palm_540b_padded();
    let serve_cfg = ServingConfig {
        prefill_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        decode_machine: Machine::tpu_v4_slice(64).expect("64-chip slice"),
        max_decode_batch: 64,
        weight_dtype: DType::Int8,
    };
    let trace_spec = TraceSpec {
        process: ArrivalProcess::Bursty { calm_rate: 5.0, burst_rate: 50.0, mean_dwell: 5.0 },
        prompt: LengthDist::Uniform { lo: 32, hi: 96 },
        output: LengthDist::Uniform { lo: 128, hi: 256 },
        high_fraction: 0.1,
        low_fraction: 0.3,
    };
    let trace_n = 100_000usize;
    let trace = ArrivalTrace::generate(&trace_spec, trace_n, 11);
    let policy = OverloadPolicy {
        queue_limit: Some(256),
        ttft_deadline: [Some(20.0), Some(30.0), Some(60.0)],
        preemption: true,
    };
    let t = Instant::now();
    let over = simulate_trace(&palm, &serve_cfg, &trace, &policy);
    let sim_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        over.completed.len() + over.shed.len(),
        trace_n,
        "request conservation: every request completes or sheds"
    );
    let gate_goodput = over.goodput_ratio();
    let gate_high_p99 = over.class_ttft_percentile(Priority::High, 99.0);
    println!(
        "{trace_n} requests over {:.0}s simulated (offered {:.0} tok/s) walked in {sim_secs:.1}s wall",
        trace.duration(),
        trace.offered_token_rate(),
    );
    println!(
        "goodput {:.0} tok/s = {gate_goodput:.2}x of the {:.0} tok/s capacity ceiling; \
         {} completed, {} shed, {} preemptions",
        over.goodput_tokens_per_sec(),
        over.capacity_tokens_per_sec,
        over.completed.len(),
        over.shed.len(),
        over.preemptions,
    );
    println!(
        "high class: {} completed / {} shed, p99 ttft {gate_high_p99:.2}s (low class sheds {})",
        over.class_completed(Priority::High),
        over.class_shed(Priority::High),
        over.class_shed(Priority::Low),
    );
    json.push_str(&format!(
        "  \"overload\": {{\"requests\": {trace_n}, \"trace_seconds\": {:.1}, \
         \"offered_tok_per_s\": {:.1}, \"capacity_tok_per_s\": {:.1}, \
         \"goodput_tok_per_s\": {:.1}, \"goodput_ratio\": {gate_goodput:.4}, \
         \"completed\": {}, \"shed\": {}, \"preemptions\": {}, \"replayed_tokens\": {}, \
         \"high_p99_ttft_s\": {gate_high_p99:.4}, \"low_shed\": {}, \"sim_wall_s\": {sim_secs:.2}}},\n",
        trace.duration(),
        trace.offered_token_rate(),
        over.capacity_tokens_per_sec,
        over.goodput_tokens_per_sec(),
        over.completed.len(),
        over.shed.len(),
        over.preemptions,
        over.replayed_tokens,
        over.class_shed(Priority::Low),
    ));

    banner("Router failover: injected replica crash (tiny8x, 2x2 chips, live engine)");
    // Two live replicas; a chip crash with zero recovery budget kills
    // replica 0 on its first decode step. The router must drain it and
    // re-route its whole share with zero lost requests and streams
    // bit-identical to a fault-free single-batcher run.
    let rt_layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let rt_opts = ServingOptions { max_decode_batch: 2, ..ServingOptions::default() };
    let rt_model = ReferenceModel::init_random(ModelConfig::tiny(), 9);
    let rt_vocab = rt_model.config().vocab;
    let rt_requests: Vec<ServingRequest> = (0..6)
        .map(|i| ServingRequest {
            prompt: (0..3).map(|t| (3 + 5 * i + 7 * t) % rt_vocab).collect(),
            max_new_tokens: 4,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let baseline = {
        let mut b = ContinuousBatcher::new(&rt_model, rt_layout, WeightFormat::Exact, rt_opts);
        b.try_serve(&rt_requests).unwrap().outputs
    };
    let mut rt = ReplicaRouter::new(&rt_model, rt_layout, WeightFormat::Exact, rt_opts, 2);
    rt.batcher_mut(0).set_max_recoveries(0);
    rt.batcher_mut(0)
        .schedule_decode_fault(0, esti_collectives::FaultPlan::new().crash(1, 0));
    let rt_outcome = rt.try_serve(&rt_requests).expect("survivor absorbs the share");
    let gate_lost = rt_outcome.outputs.iter().filter(|o| o.is_empty()).count();
    let rt_identical = rt_outcome.outputs == baseline;
    println!(
        "replica 0 crashed: {} failover re-routed {} requests; {gate_lost} of {} lost; \
         streams identical to fault-free baseline: {rt_identical}",
        rt_outcome.report.recovery.failovers,
        rt_outcome.report.recovery.requests_rerouted,
        rt_requests.len(),
    );
    json.push_str(&format!(
        "  \"router_failover\": {{\"replicas\": 2, \"requests\": {}, \"failovers\": {}, \
         \"requests_rerouted\": {}, \"lost\": {gate_lost}, \"streams_identical\": {rt_identical}, \
         \"served_per_replica\": {:?}}},\n",
        rt_requests.len(),
        rt_outcome.report.recovery.failovers,
        rt_outcome.report.recovery.requests_rerouted,
        rt_outcome.served_per_replica,
    ));

    banner("Paged KV cache: shared-prefix capacity at equal KV budget (ws1d, 8 chips)");
    // The paged-KV capacity claim measured end to end: 16 requests share a
    // 48-token system prefix (6 eight-token pages) with 8 unique prompt
    // tokens and 8 generated, served under a 256-position KV budget. A
    // dense cache pre-charges every slot its worst-case length (64), so
    // the budget holds 256 / 64 = 4 concurrent requests by arithmetic; the
    // paged admission ledger charges the shared prefix pages once and only
    // unique tails per request, so 13 fit in the same budget.
    let (kv_shared, kv_unique, kv_new, kv_budget, kv_page) =
        (48usize, 8usize, 8usize, 256usize, 8usize);
    let kv_requests: Vec<ServingRequest> = (0..16)
        .map(|i| {
            let mut prompt: Vec<usize> =
                (0..kv_shared).map(|t| (11 + 13 * t) % cfg.vocab).collect();
            prompt.extend((0..kv_unique).map(|t| (3 + 5 * i + 7 * t) % cfg.vocab));
            ServingRequest { prompt, max_new_tokens: kv_new, seed: 40 + i as u64, arrival: 0.0, priority: Priority::Normal }
        })
        .collect();
    let kv_opts = ServingOptions {
        max_decode_batch: 13,
        kv_page_size: Some(kv_page),
        kv_position_budget: Some(kv_budget),
        ..ServingOptions::default()
    };
    let kv_paged = ContinuousBatcher::new(&model, serve_layout, WeightFormat::Exact, kv_opts)
        .try_serve(&kv_requests).unwrap();
    let kv_dense = kv_budget / (kv_shared + kv_unique + kv_new);
    let gate_paged = kv_paged.report.peak_decode_batch as f64 / kv_dense as f64;
    println!(
        "16 requests x ({kv_shared} shared + {kv_unique} unique prompt, {kv_new} generated), \
         {kv_budget}-position budget: a dense reservation fits {kv_dense} concurrent vs paged {} \
         ({gate_paged:.2}x, {} prefix pages shared)",
        kv_paged.report.peak_decode_batch,
        kv_paged.report.kv_pages_shared,
    );
    // A decode step over the default page size, for the record.
    let t_kv_paged = {
        let toks = prompts(cfg.vocab);
        let mut best = f64::INFINITY;
        for rep in 0..3 {
            let mut engine = PartitionedEngine::new(&model, ws1d, WeightFormat::Exact);
            let _ = engine.try_prefill(&toks).unwrap();
            let mut next: Vec<usize> = (0..BATCH).map(|b| (b + rep) % cfg.vocab).collect();
            let t = Instant::now();
            for _ in 0..DECODE_STEPS {
                let logits = engine.try_decode_step(&next).unwrap();
                next = (0..BATCH).map(|b| (b + logits.shape()[0]) % cfg.vocab).collect();
            }
            best = best.min(t.elapsed().as_secs_f64() / DECODE_STEPS as f64);
        }
        best
    };
    println!("decode step wall-clock: {:.0} us", t_kv_paged * 1e6);
    json.push_str(&format!(
        "  \"paged_kv\": {{\"shared_prompt\": {kv_shared}, \"unique_prompt\": {kv_unique}, \
         \"gen_len\": {kv_new}, \"page_size\": {kv_page}, \"kv_position_budget\": {kv_budget}, \
         \"paged_peak_batch\": {}, \"capacity_ratio\": {gate_paged:.4}, \
         \"paged_pages_shared\": {}, \"decode_us_paged\": {:.1}}},\n",
        kv_paged.report.peak_decode_batch,
        kv_paged.report.kv_pages_shared,
        t_kv_paged * 1e6,
    ));

    banner("Fault-free overhead of the deadline barrier (ws1d, 8 chips)");
    // PR 5 converted every collective wait from block-forever to a
    // deadline-based wait (`Condvar::wait_timeout`) so a dead or stalled
    // chip surfaces as a structured error instead of hanging. The deadline
    // must be ~free on the healthy path: this times decode steps with the
    // default deadline armed vs explicitly disarmed (the pre-PR blocking
    // barrier) and gates the ratio at 1.05x.
    let build_engine = |deadline: Option<std::time::Duration>| {
        let mut engine = PartitionedEngine::new(&model, ws1d, WeightFormat::Exact);
        engine.set_collective_deadline(deadline);
        engine
    };
    let mut engines = [build_engine(None), build_engine(Some(esti_runtime::DEFAULT_COLLECTIVE_DEADLINE))];
    let next: Vec<usize> = (0..BATCH).map(|b| b % cfg.vocab).collect();
    // Per-step minima: each of `ROUNDS` rounds refills both caches to the
    // prompt and runs `STEPS` steps on each engine, the two taking single
    // steps in turn (which goes first alternating), so slow drift in machine
    // load hits both alike. Step `s` runs at the same length in every round
    // and on both engines; its time is its minimum over the rounds, and a
    // side's time is the sum of its steps' minima, so no one fast or slow
    // sample sets it (`ROUNDS × STEPS` = 128 samples a side).
    const STEPS: usize = 16;
    const ROUNDS: usize = 8;
    let mut best = [[f64::INFINITY; 2]; STEPS];
    for round in 0..ROUNDS {
        for engine in &mut engines {
            engine.reset();
            let _ = engine.try_prefill(&prompts(cfg.vocab)).unwrap();
        }
        for (step, best) in best.iter_mut().enumerate() {
            let first = (round + step) % 2;
            for i in [first, 1 - first] {
                let t = Instant::now();
                let _ = engines[i].try_decode_step(&next).unwrap();
                best[i] = best[i].min(t.elapsed().as_secs_f64());
            }
        }
    }
    let [t_blocking, t_deadline] = [0, 1].map(|i| best.iter().map(|b| b[i]).sum::<f64>() / STEPS as f64);
    let gate_deadline = t_deadline / t_blocking;
    println!(
        "decode step: blocking barrier {:.0} us vs deadline barrier {:.0} us (ratio {gate_deadline:.3})",
        t_blocking * 1e6,
        t_deadline * 1e6
    );
    json.push_str(&format!(
        "  \"fault_overhead\": {{\"decode_us_blocking\": {:.1}, \"decode_us_deadline\": {:.1}, \"ratio\": {gate_deadline:.4}}},\n",
        t_blocking * 1e6,
        t_deadline * 1e6
    ));

    banner("Per-chip communication summary (ws1d, 4 decode steps)");
    let mut engine = PartitionedEngine::new(&model, ws1d, WeightFormat::Exact);
    let _ = engine.try_prefill(&prompts(cfg.vocab)).unwrap();
    engine.reset_comm_times();
    let next: Vec<usize> = (0..BATCH).map(|b| b % cfg.vocab).collect();
    for _ in 0..DECODE_STEPS {
        let _ = engine.try_decode_step(&next).unwrap();
    }
    print!("{}", engine.comm_time_summary());

    json.push_str(&format!(
        "  \"gates\": {{\"matmul_256_speedup\": {gate_256:.4}, \"matmul_256_required\": 1.8, \"decode_ws1d_speedup\": {gate_1d:.4}, \"decode_ws1d_required\": 1.2, \"serving_batching_speedup\": {gate_serving:.4}, \"serving_batching_required\": 1.1, \"int8_matmul_256_speedup\": {gate_q256:.4}, \"int8_matmul_256_required\": 2.1, \"int8_wg_prefill_byte_ratio\": {gate_wire:.4}, \"int8_wg_prefill_byte_ratio_max\": 0.55, \"int8_wg_prefill_step_ratio\": {gate_step:.4}, \"int8_wg_prefill_step_ratio_max\": 1.0, \"paged_capacity_ratio\": {gate_paged:.4}, \"paged_capacity_required\": 2.0, \"deadline_overhead_ratio\": {gate_deadline:.4}, \"deadline_overhead_max\": 1.05, \"overload_goodput_ratio\": {gate_goodput:.4}, \"overload_goodput_required\": 0.7, \"overload_high_p99_ttft_s\": {gate_high_p99:.4}, \"overload_high_p99_ttft_max_s\": 1.0, \"router_failover_lost\": {gate_lost}, \"router_failover_lost_max\": 0, \"router_failover_streams_identical\": {rt_identical}}}\n}}\n"
    ));

    let root = results_dir().parent().map_or_else(|| std::path::PathBuf::from("."), std::path::Path::to_path_buf);
    let path = root.join("BENCH_runtime.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\n[wrote {}]", path.display()),
        Err(e) => eprintln!("note: cannot write {}: {e}", path.display()),
    }

    banner("Acceptance gates");
    println!("matmul 256^3 tile/naive: {gate_256:.2}x (require >= 1.8x)");
    println!("decode ws1d vs naive-kernel baseline: {gate_1d:.2}x (require >= 1.2x)");
    println!("serving continuous batching vs serial: {gate_serving:.2}x (require >= 1.1x)");
    println!("int8 GEMM 256^3 tile/scalar: {gate_q256:.2}x (require >= 2.1x)");
    println!("int8 WG prefill all-gather bytes vs f32: {gate_wire:.3} (require <= 0.55)");
    println!("int8 WG one-token prefill time vs f32: {gate_step:.3} (require <= 1.0)");
    println!("paged KV shared-prefix capacity vs dense: {gate_paged:.2}x (require >= 2.0x)");
    println!("deadline barrier vs blocking barrier decode step: {gate_deadline:.3} (require <= 1.05)");
    println!("overload goodput vs capacity ceiling: {gate_goodput:.2}x (require >= 0.7x)");
    println!("overload high-class p99 TTFT: {gate_high_p99:.2}s (require <= 1.0s)");
    println!(
        "router failover lost requests: {gate_lost} (require 0, streams identical: {rt_identical})"
    );
    assert!(gate_256 >= 1.8, "matmul gate failed: {gate_256:.2}x < 1.8x");
    assert!(gate_1d >= 1.2, "decode gate failed: {gate_1d:.2}x < 1.2x");
    assert!(gate_serving >= 1.1, "serving gate failed: {gate_serving:.2}x < 1.1x");
    assert!(gate_q256 >= 2.1, "int8 GEMM gate failed: {gate_q256:.2}x < 2.1x");
    assert!(gate_wire <= 0.55, "int8 wire gate failed: ratio {gate_wire:.3} > 0.55");
    assert!(
        gate_step <= 1.0,
        "int8 step-time gate failed: int8/f32 prefill pass ratio {gate_step:.3} > 1.0"
    );
    assert!(
        gate_paged >= 2.0,
        "paged KV capacity gate failed: {gate_paged:.2}x < 2.0x concurrent at equal budget"
    );
    assert!(
        gate_deadline <= 1.05,
        "deadline overhead gate failed: ratio {gate_deadline:.3} > 1.05"
    );
    assert!(
        gate_goodput >= 0.7,
        "overload goodput gate failed: {gate_goodput:.2}x < 0.7x of capacity"
    );
    assert!(
        gate_high_p99 <= 1.0,
        "overload SLO gate failed: high-class p99 TTFT {gate_high_p99:.2}s > 1.0s"
    );
    assert!(!over.shed.is_empty(), "a 2x overload trace must shed via typed errors");
    assert_eq!(gate_lost, 0, "router failover gate failed: {gate_lost} requests lost");
    assert!(rt_identical, "router failover gate failed: streams diverged from baseline");
    assert_eq!(
        rt_outcome.report.recovery.failovers, 1,
        "router failover gate failed: exactly one failover expected"
    );
}
