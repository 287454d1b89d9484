//! The benchmark's contract: metric names, units, directions and bounds, the
//! result line the driver reads, and `BENCHMARK.json` itself (`--describe`
//! prints it, so the file cannot drift from the program).

use std::fmt::Write as _;

use crate::common::Report;
use crate::workloads;

/// Seconds of measured section per run: the driver's budget is 92 runs plus
/// two builds in 3420 s, about 36 s a run with set-up and oracle, and a run
/// takes a third longer than it should while the hypervisor is stealing.
pub const RUN_SECONDS: usize = 25;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End to end: the share of the parent's median by which the metric may
    /// worsen. Per layer: none.
    pub bound: Option<f64>,
    /// Per layer: the end-to-end metric it should move, at which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound), moves: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Spec {
    Spec { name, unit, better, bound: None, moves }
}

/// Bounds are what this host's noise allows, not what one would wish. With
/// stolen reps left out, ten runs spread 3–8 % while the host's other tenants
/// stay as they are and 12–22 % when they change in between (NOISE.md); the
/// driver rejects a bound below the spread and asks for three times it.
pub const END_TO_END: [Spec; 6] = [
    e2e("ttft_p50_ms", "ms", "lower", 0.25),
    e2e("tpot_p50_ms", "ms", "lower", 0.25),
    e2e("tok_s", "tok/s", "higher", 0.25),
    e2e("cpu_ms_per_tok", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [Spec; 53] = [
    layer(
        "serving.queue_wait_p50_ms",
        "ms",
        "lower",
        "ttft_p50_ms @ prefix_burst; ~0 @ chat_steady",
    ),
    layer(
        "serving.decode_batch_mean",
        "rows",
        "higher",
        "tok_s up and tpot_p50_ms up together @ prefix_burst",
    ),
    layer(
        "serving.peak_decode_batch",
        "rows",
        "higher",
        "tok_s @ prefix_burst (16 = prefix sharing engaged)",
    ),
    layer("serving.step_ms_p50", "ms", "lower", "tpot_p50_ms, tok_s @ prefix_burst"),
    layer("serving.decode_busy_frac", "ratio", "lower", "cpu_ms_per_tok, tok_s @ prefix_burst"),
    layer("serving.prefill_busy_frac", "ratio", "lower", "ttft_p50_ms, tok_s @ prefix_burst"),
    layer("serving.self_frac", "ratio", "lower", "cpu_ms_per_tok, tok_s @ prefix_burst"),
    layer("serving.ttft_p95_ms", "ms", "lower", "tail of ttft (ungated)"),
    layer("serving.tpot_p95_ms", "ms", "lower", "tail of tpot (ungated)"),
    layer("serving.preemptions", "count", "lower", "tok_s @ prefix_burst"),
    layer("serving.replayed_tok", "tok", "lower", "tok_s @ prefix_burst"),
    layer("serving.useful_tok_frac", "ratio", "higher", "tok_s @ prefix_burst"),
    layer(
        "serving.kv_pages_shared_peak",
        "count",
        "higher",
        "peak_rss_mb, serving.peak_decode_batch @ prefix_burst",
    ),
    layer(
        "serving.kv_pages_free_min",
        "count",
        "higher",
        "peak_rss_mb, serving.peak_decode_batch @ prefix_burst",
    ),
    layer(
        "serving.pad_waste_frac",
        "ratio",
        "lower",
        "ttft_p50_ms, cpu_ms_per_tok @ prefix_burst; 0 @ chat_steady",
    ),
    layer(
        "router.serve_overhead_frac",
        "ratio",
        "lower",
        "tok_s @ prefix_burst (the router is off the end-to-end path)",
    ),
    layer("engine.build_s", "s", "lower", "setup_s @ every workload"),
    layer("engine.prefill_ms_p50", "ms", "lower", "ttft_p50_ms @ chat_steady"),
    layer("engine.prefill_tok_s", "tok/s", "higher", "tok_s @ prefill_batch"),
    layer("engine.decode_step_ms_p50", "ms", "lower", "tpot_p50_ms @ every workload"),
    layer("engine.decode_step_ms_p95", "ms", "lower", "tpot_p50_ms @ every workload"),
    layer("engine.kv_move_ms_p50", "ms", "lower", "ttft_p50_ms @ prefix_burst"),
    layer("engine.evict_us_p50", "us", "lower", "ttft_p50_ms @ prefix_burst"),
    layer(
        "engine.comm_frac",
        "ratio",
        "lower",
        "tpot_p50_ms @ chat_steady (sync-bound); small @ prefill_batch; an estimate",
    ),
    layer(
        "engine.wire_bytes_per_tok",
        "B/tok",
        "lower",
        "moves only if the wire format does; exact",
    ),
    layer("planner.first_call_extra_ms", "ms", "lower", "setup_s @ every workload"),
    layer("collectives.barrier_us_p50", "us", "lower", "tpot_p50_ms @ chat_steady"),
    layer("collectives.all_reduce_us_p50", "us", "lower", "tpot_p50_ms @ chat_steady"),
    layer("collectives.all_gather_us_p50", "us", "lower", "tok_s @ prefill_batch"),
    layer("collectives.gather_gb_s", "GB/s", "higher", "tok_s @ prefill_batch"),
    layer("collectives.reduce_scatter_us_p50", "us", "lower", "tpot_p50_ms @ prefix_burst (ws2d)"),
    layer("collectives.all_to_all_us_p50", "us", "lower", "tpot_p50_ms @ longctx_decode"),
    layer("collectives.bytes_per_step", "B", "lower", "tpot_p50_ms where comm-bound; exact"),
    layer(
        "kvcache.read_slot_us_p50",
        "us",
        "lower",
        "tpot_p50_ms @ longctx_decode; negligible @ chat_steady",
    ),
    layer("kvcache.read_gb_s", "GB/s", "higher", "tpot_p50_ms @ longctx_decode"),
    layer("kvcache.append_us_p50", "us", "lower", "tok_s @ prefill_batch"),
    layer("kvcache.insert_shared_us_p50", "us", "lower", "ttft_p50_ms @ prefix_burst"),
    layer("kvcache.insert_cold_us_p50", "us", "lower", "ttft_p50_ms @ prefix_burst"),
    layer("kvcache.clear_slot_us_p50", "us", "lower", "ttft_p50_ms @ prefix_burst"),
    layer(
        "kvcache.pages_allocated",
        "count",
        "lower",
        "peak_rss_mb @ longctx_decode, prefix_burst",
    ),
    layer(
        "kvcache.pages_live_peak",
        "count",
        "lower",
        "peak_rss_mb @ longctx_decode, prefix_burst",
    ),
    layer("kvcache.pages_shared_peak", "count", "higher", "peak_rss_mb @ prefix_burst"),
    layer(
        "kvcache.reserved_over_used",
        "ratio",
        "lower",
        "peak_rss_mb @ longctx_decode, prefix_burst",
    ),
    layer("attention.over_cache_us_p50", "us", "lower", "tpot_p50_ms @ longctx_decode"),
    layer(
        "attention.kv_bytes_per_step",
        "B",
        "lower",
        "tpot_p50_ms @ longctx_decode; computed from tensor sizes",
    ),
    layer(
        "tensor.gemm_f32_gflops_prefill",
        "GFLOP/s",
        "higher",
        "tok_s, ttft_p50_ms @ chat_steady, prefix_burst",
    ),
    layer(
        "tensor.gemm_int8_gflops_prefill",
        "GFLOP/s",
        "higher",
        "tok_s, ttft_p50_ms @ prefill_batch",
    ),
    layer("tensor.gemm_f32_gflops_decode", "GFLOP/s", "higher", "tpot_p50_ms @ chat_steady"),
    layer("tensor.gemm_int8_gflops_decode", "GFLOP/s", "higher", "tpot_p50_ms @ prefill_batch"),
    layer("tensor.softmax_us_p50", "us", "lower", "tpot_p50_ms @ longctx_decode"),
    layer("tensor.sample_us_per_row", "us", "lower", "serving.self_frac"),
    layer("trace_overhead_frac", "ratio", "lower", "what the spans cost the traced section"),
    layer(
        "span_coverage_frac",
        "ratio",
        "higher",
        "share of the section's wall inside a named span",
    ),
];

impl Report {
    /// The reported value of `name`; a metric that does not apply to this
    /// workload, or is not finite, reads 0.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `spec`.
    pub fn result_json(&self, spec: &[Spec]) -> String {
        let mut metrics = String::new();
        for (i, s) in spec.iter().enumerate() {
            let v = self.value(s.name);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.ok > 0,
            self.sent.max(1),
            self.failed
        )
    }
}

/// A child's result line, read back by the suite and `--selfcheck`.
pub struct Parsed {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64)>,
}

/// Parses exactly what `result_json` writes (not general JSON).
pub fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let (_, body) = line.split_once("\"metrics\": {")?;
    let metrics = body
        .split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start_matches('"').split_once("\": {\"value\": ")?;
            let (value, _unit) = rest.split_once(", \"unit\": \"")?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect();
    Some(Parsed {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// `BENCHMARK.json`, in the shape the driver's contract prescribes.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let comma = if i + 1 < workloads::ALL.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}
