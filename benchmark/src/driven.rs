//! What the two workloads that drive `PartitionedEngine` directly share: the
//! spanned calls, the ledger deltas over decode loops, and the per-layer
//! metrics read from them.

use esti_core::layout::Layout;
use esti_model::ReferenceModel;
use esti_runtime::{PartitionedEngine, WeightFormat};

use crate::batcher::page_metrics;
use crate::common::{greedy_rows, metric, Metric};
use crate::probes::{call_counts, calls_per_step, CollectiveTimes};
use crate::trace::{Layer, Tracer};
use crate::util::{median, percentile};

/// An engine driven call by call, every call inside a span.
pub struct Driven<'a> {
    pub engine: &'a mut PartitionedEngine,
    pub prefill_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Tokens the prefill calls computed (`B·L` each).
    pub prefill_tokens: usize,
    /// First engine error, if any; later calls are skipped.
    pub error: Option<String>,
    decode_bytes: u64,
    decode_calls: [u64; 4],
    loop_start: (u64, [u64; 4]),
    pages_live_peak: usize,
}

impl<'a> Driven<'a> {
    pub fn new(engine: &'a mut PartitionedEngine) -> Self {
        Driven {
            engine,
            prefill_ms: Vec::new(),
            step_ms: Vec::new(),
            prefill_tokens: 0,
            error: None,
            decode_bytes: 0,
            decode_calls: [0; 4],
            loop_start: (0, [0; 4]),
            pages_live_peak: 0,
        }
    }

    pub fn reset(&mut self, tracer: &mut Tracer) {
        tracer.span(Layer::Engine, "reset", None, |_| self.engine.reset());
    }

    fn pick(
        &mut self,
        tracer: &mut Tracer,
        logits: Result<esti_tensor::Tensor, esti_runtime::EngineError>,
    ) -> Option<Vec<usize>> {
        match logits {
            Ok(logits) => {
                Some(tracer.span(Layer::Tensor, "sample_row", None, |_| greedy_rows(&logits)).0)
            }
            Err(e) => {
                self.error.get_or_insert(e.to_string());
                None
            }
        }
    }

    /// Prefills `rows` and returns the greedy next token of every row.
    pub fn prefill(&mut self, tracer: &mut Tracer, rows: &[Vec<usize>]) -> Option<Vec<usize>> {
        if self.error.is_some() {
            return None;
        }
        let (logits, ms, _) =
            tracer.span(Layer::Engine, "try_prefill", None, |_| self.engine.try_prefill(rows));
        self.prefill_ms.push(ms);
        self.prefill_tokens += rows.len() * rows[0].len();
        self.pick(tracer, logits)
    }

    /// One decode step; returns the greedy next token of every row.
    pub fn step(&mut self, tracer: &mut Tracer, tokens: &[usize]) -> Option<Vec<usize>> {
        if self.error.is_some() {
            return None;
        }
        let (logits, ms, _) = tracer
            .span(Layer::Engine, "try_decode_step", None, |_| self.engine.try_decode_step(tokens));
        self.step_ms.push(ms);
        self.pick(tracer, logits)
    }

    /// Brackets a run of decode steps so the traffic ledger can be split
    /// into decode and prefill volume.
    pub fn decode_loop_begins(&mut self) {
        self.loop_start = (self.engine.traffic().total_bytes(), call_counts(self.engine.traffic()));
    }

    pub fn decode_loop_ends(&mut self) {
        self.decode_bytes += self.engine.traffic().total_bytes() - self.loop_start.0;
        for (sum, (now, was)) in self
            .decode_calls
            .iter_mut()
            .zip(call_counts(self.engine.traffic()).iter().zip(&self.loop_start.1))
        {
            *sum += now - was;
        }
        let live = self.engine.kv_page_stats().map_or(0, |s| s.pages_live);
        self.pages_live_peak = self.pages_live_peak.max(live);
    }

    /// `runtime.engine`, `collectives.bytes_per_step` and `kvcache.pages_*`
    /// from the spans of a traced section that processed `tokens` tokens and
    /// whose engine started the section with `bytes_at_start` on its ledger.
    /// Row `i` holds `row_lens[i]` positions at the end, `rows_per_chip`
    /// consecutive rows to a chip.
    pub fn metrics(
        &self,
        tokens: usize,
        bytes_at_start: u64,
        collectives: &CollectiveTimes,
        row_lens: &[usize],
        rows_per_chip: usize,
    ) -> Vec<Metric> {
        let steps = self.step_ms.len().max(1);
        // Both directly driven layouts run every collective over all chips.
        let calls = calls_per_step(self.decode_calls, steps, 1);
        let step_p50 = median(&self.step_ms);
        let prefill_s: f64 = self.prefill_ms.iter().sum::<f64>() / 1e3;
        let mut m = vec![
            metric("engine.prefill_ms_p50", median(&self.prefill_ms)),
            metric("engine.prefill_tok_s", self.prefill_tokens as f64 / prefill_s.max(1e-9)),
            metric("engine.decode_step_ms_p50", step_p50),
            metric("engine.decode_step_ms_p95", percentile(&self.step_ms, 0.95)),
            metric("engine.comm_frac", collectives.comm_frac(&calls, step_p50)),
            metric(
                "engine.wire_bytes_per_tok",
                (self.engine.traffic().total_bytes() - bytes_at_start) as f64
                    / tokens.max(1) as f64,
            ),
            metric("collectives.bytes_per_step", self.decode_bytes as f64 / steps as f64),
        ];
        let mut pages = page_metrics(self.engine, row_lens, rows_per_chip);
        if let Some(live) = pages.iter_mut().find(|p| p.name == "kvcache.pages_live_peak") {
            live.value = live.value.max(self.pages_live_peak as f64);
        }
        m.extend(pages);
        m
    }
}

/// `engine.kv_move_ms_p50` and `engine.evict_us_p50` for a workload that
/// never moves KV itself: row 0 of its engine is extracted and inserted into
/// a slot of a scratch engine of the same layout, then evicted.
pub fn kv_move(
    model: &ReferenceModel,
    source: &PartitionedEngine,
    layout: Layout,
    fmt: WeightFormat,
    row0_tokens: &[usize],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let mut scratch = PartitionedEngine::new(model, layout, fmt);
    let slots = scratch.min_batch().max(2);
    scratch.begin_slots(slots, row0_tokens.len());
    let (mut moves, mut evicts) = (Vec::new(), Vec::new());
    for i in 0..6 {
        let (kv, extract_ms, _) =
            tracer.span(Layer::Engine, "extract_kv", None, |_| source.extract_kv(0));
        let ((), insert_ms, _) = tracer.span(Layer::Engine, "insert_kv_shared", None, |_| {
            scratch.insert_kv_shared(i % slots, &kv, row0_tokens);
        });
        let ((), evict_ms, _) =
            tracer.span(Layer::Engine, "evict_slot", None, |_| scratch.evict_slot(i % slots));
        moves.push(extract_ms + insert_ms);
        evicts.push(evict_ms * 1e3);
    }
    vec![
        metric("engine.kv_move_ms_p50", median(&moves)),
        metric("engine.evict_us_p50", median(&evicts)),
    ]
}
