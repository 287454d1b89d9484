//! What the two `ContinuousBatcher` workloads share: serving a generated
//! trace into a measured section, the sampled oracle, and the replay that
//! splits a traced serve call into engine time and the batcher's own time.

use esti_core::layout::Layout;
use esti_model::ReferenceModel;
use esti_runtime::{
    ContinuousBatcher, PartitionedEngine, ServingOptions, ServingOutcome, ServingRequest,
    WeightFormat,
};

use crate::common::{greedy_rows, metric, Metric, Report, Section};
use crate::oracle::Oracle;
use crate::probes::{call_counts, calls_per_step, CollectiveTimes};
use crate::trace::{Layer, Tracer};
use crate::util::{mean, median, percentile};

/// Both batcher workloads serve f32 weights.
pub const FMT: WeightFormat = WeightFormat::Exact;

/// How a batcher workload configures its two tiers, with the two facts about
/// the layout that reading its ledgers from outside needs.
pub struct Tiers {
    pub layout: Layout,
    pub opts: ServingOptions,
    /// Chips the slots' KV rows are divided over (1 under head sharding).
    pub kv_chips: usize,
    /// Sub-groups that run each collective side by side (2 on ws2d's 2x2 mesh).
    pub collective_groups: usize,
}

/// One rep of a batcher workload: the trace it offered and what came back.
pub struct Served {
    pub requests: Vec<ServingRequest>,
    pub outcome: ServingOutcome,
}

/// Serves `requests` inside a span as one rep of `section`. An `Err` from
/// `try_serve` fails every request of the call.
pub fn serve_rep(
    batcher: &mut ContinuousBatcher,
    requests: Vec<ServingRequest>,
    tracer: &mut Tracer,
    section: &mut Section,
    report: &mut Report,
) -> Option<Served> {
    let ((served, _, _), rep) = section
        .timed(|| tracer.span(Layer::Serving, "try_serve", None, |_| batcher.try_serve(&requests)));
    report.sent += requests.len();
    let outcome = match served {
        Ok(outcome) => outcome,
        Err(e) => {
            report.failed += requests.len();
            report.notes.push(format!("try_serve failed: {e}"));
            return None;
        }
    };
    // No request is shed in these workloads, so stats line up with requests.
    for ((req, out), stats) in requests.iter().zip(&outcome.outputs).zip(&outcome.report.requests) {
        if out.len() != req.max_new_tokens || !outcome.shed.is_empty() {
            report.failed += 1;
            continue;
        }
        report.ok += 1;
        rep.tokens += req.prompt.len() + out.len();
        rep.ttft_ms.push((stats.prefilled - stats.arrival) * 1e3);
        if stats.generated > 1 {
            rep.tpot_ms
                .push((stats.finished - stats.prefilled) * 1e3 / (stats.generated - 1) as f64);
        }
    }
    Some(Served { requests, outcome })
}

/// Mean live slots per decode step over every rep.
pub fn mean_decode_batch(served: &[Served]) -> f64 {
    let steps = || served.iter().flat_map(|s| &s.outcome.step_log);
    steps().map(|s| s.0).sum::<usize>() as f64 / steps().count().max(1) as f64
}

/// `count` indices spread evenly over `0..n`.
pub fn spread(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n);
    (0..count).map(|k| k * n / count).collect()
}

/// Requests per batcher run that the oracle re-derives on a single chip.
const ORACLE_SAMPLES: usize = 8;

/// The oracle for a batcher workload: `ORACLE_SAMPLES` requests spread over
/// the first rep must be, token for token, what a single chip picks. A
/// mismatch moves the request from `ok` to `failed`.
pub fn check_sample(model: &ReferenceModel, served: &Served, report: &mut Report) {
    let mut oracle = Oracle::new(model, FMT);
    let picks = spread(served.requests.len(), ORACLE_SAMPLES);
    let (mut mismatches, mut tokens, mut largest_gap) = (0, 0, 0.0f32);
    for &i in &picks {
        let (req, out) = (&served.requests[i], &served.outcome.outputs[i]);
        if out.len() != req.max_new_tokens {
            continue; // already counted as failed
        }
        match oracle.check_stream(&req.prompt, out) {
            Ok(v) => {
                tokens += v.checked;
                largest_gap = largest_gap.max(v.largest_gap);
                if v.wrong > 0 {
                    mismatches += 1;
                    report.notes.push(format!(
                        "oracle: request {i}: {} of {} tokens are not the single chip's pick",
                        v.wrong, v.checked
                    ));
                }
            }
            Err(e) => {
                mismatches += 1;
                report.notes.push(format!("oracle: single-chip engine failed: {e}"));
            }
        }
    }
    report.ok -= mismatches;
    report.failed += mismatches;
    report.notes.push(format!(
        "oracle: {}/{} sampled requests ({tokens} tokens) equal a 1x1x1 mesh token for token, largest logit gap {largest_gap:.2e}",
        picks.len() - mismatches,
        picks.len()
    ));
}

/// Seconds during which at least one request was in the system (arrived,
/// not finished): the wall a backlogged batcher could have been working.
fn in_system_seconds(outcome: &ServingOutcome) -> f64 {
    let mut spans: Vec<(f64, f64)> =
        outcome.report.requests.iter().map(|r| (r.arrival, r.finished)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut end) = (0.0, f64::NEG_INFINITY);
    for (a, f) in spans {
        if f > end {
            total += f - a.max(end);
            end = f;
        }
    }
    total
}

/// What the replay of one served trace against bare engines measured.
pub struct Replay {
    /// Prefill of one admission, milliseconds, per replayed request.
    prefill_ms: Vec<f64>,
    prefill_lens: Vec<usize>,
    /// `extract_kv` + `insert_kv_shared`, milliseconds.
    move_ms: Vec<f64>,
    evict_us: Vec<f64>,
    /// Decode steps at the trace's mean occupancy, milliseconds.
    step_ms: Vec<f64>,
    /// Rows the prefill tier computes per admission (`min_batch`).
    pad: usize,
    padded_prefill_tokens: usize,
    wire_bytes: u64,
    wire_tokens: usize,
    step_bytes: f64,
    calls: Vec<(esti_collectives::CollectiveOp, f64)>,
    pages: Vec<Metric>,
}

/// As many admissions as the larger workload has slots, so the sample (and
/// with it every ledger count) does not depend on measured occupancy.
const REPLAY_PREFILLS: usize = 16;
const REPLAY_STEPS: usize = 32;

/// Replays a sample of one rep's admissions (prefill, KV move, evict) and
/// decode steps at the run's mean occupancy on bare engines of the same layout.
/// The sample is spread over the length-sorted requests, so with stratified
/// lengths it is the same for every seed and the counts repeat exactly.
pub fn replay(
    model: &ReferenceModel,
    tiers: &Tiers,
    requests: &[ServingRequest],
    mean_decode_batch: f64,
    tracer: &mut Tracer,
) -> Replay {
    let mut prefill = PartitionedEngine::new(model, tiers.layout, FMT);
    let mut decode = PartitionedEngine::new(model, tiers.layout, FMT);
    let cap = tiers.opts.max_decode_batch;
    let reserve = requests.iter().map(|r| r.prompt.len() + r.max_new_tokens).max().unwrap_or(0);
    decode.begin_slots(cap, reserve);
    let pad = prefill.min_batch();
    // The last slot stays free for the admissions that are only timed.
    let live = (mean_decode_batch.round() as usize).clamp(1, cap - 1);

    let mut by_len: Vec<usize> = (0..requests.len()).collect();
    by_len.sort_by_key(|&i| (requests[i].prompt.len(), i));
    let sample: Vec<usize> =
        spread(by_len.len(), REPLAY_PREFILLS).into_iter().map(|k| by_len[k]).collect();

    let mut r = Replay {
        prefill_ms: Vec::new(),
        prefill_lens: Vec::new(),
        move_ms: Vec::new(),
        evict_us: Vec::new(),
        step_ms: Vec::new(),
        pad,
        padded_prefill_tokens: 0,
        wire_bytes: 0,
        wire_tokens: 0,
        step_bytes: 0.0,
        calls: Vec::new(),
        pages: Vec::new(),
    };
    let mut next = vec![0usize; cap];
    let mut lens = vec![0usize; cap];
    for (k, &i) in sample.iter().enumerate() {
        let prompt = &requests[i].prompt;
        let rows: Vec<Vec<usize>> = (0..pad).map(|_| prompt.clone()).collect();
        prefill.reset();
        let (logits, ms, _) =
            tracer.span(Layer::Engine, "try_prefill", Some(i), |_| prefill.try_prefill(&rows));
        let Ok(logits) = logits else { continue };
        r.prefill_ms.push(ms);
        r.prefill_lens.push(prompt.len());
        r.padded_prefill_tokens += pad * prompt.len();
        let slot = k.min(live);
        let (kv, extract_ms, _) =
            tracer.span(Layer::Engine, "extract_kv", Some(i), |_| prefill.extract_kv(0));
        let ((), insert_ms, _) = tracer.span(Layer::Engine, "insert_kv_shared", Some(i), |_| {
            decode.insert_kv_shared(slot, &kv, prompt);
        });
        r.move_ms.push(extract_ms + insert_ms);
        if k < live {
            next[slot] = greedy_rows(&logits)[0];
            lens[slot] = prompt.len();
        } else {
            r.evict_us.push(timed_evict(&mut decode, slot, tracer));
        }
    }
    r.pages = page_metrics(&decode, &lens, cap / tiers.kv_chips);

    let before = (decode.traffic().total_bytes(), call_counts(decode.traffic()));
    for _ in 0..REPLAY_STEPS {
        for slot in live..cap {
            decode.evict_slot(slot); // idle slots neither age nor allocate
        }
        let (logits, ms, _) =
            tracer.span(Layer::Engine, "try_decode_step", None, |_| decode.try_decode_step(&next));
        let Ok(logits) = logits else { break };
        r.step_ms.push(ms);
        for (slot, tok) in greedy_rows(&logits).into_iter().enumerate().take(live) {
            next[slot] = tok;
        }
    }
    for slot in 0..live {
        r.evict_us.push(timed_evict(&mut decode, slot, tracer));
    }
    let steps = r.step_ms.len();
    let decode_bytes = decode.traffic().total_bytes() - before.0;
    r.step_bytes = decode_bytes as f64 / steps.max(1) as f64;
    let after = call_counts(decode.traffic());
    r.calls = calls_per_step(
        std::array::from_fn(|i| after[i] - before.1[i]),
        steps,
        tiers.collective_groups,
    );
    r.wire_bytes = prefill.traffic().total_bytes() + decode_bytes;
    r.wire_tokens = r.padded_prefill_tokens + steps * cap;
    r
}

/// Evicts `slot` inside a span; microseconds.
fn timed_evict(decode: &mut PartitionedEngine, slot: usize, tracer: &mut Tracer) -> f64 {
    tracer.span(Layer::Engine, "evict_slot", None, |_| decode.evict_slot(slot)).1 * 1e3
}

/// `kvcache.pages_*` from the busiest chip of an engine whose rows hold
/// `lens` positions, `rows_per_chip` consecutive rows to a chip (all of them
/// under head sharding, a quarter under batch sharding). Used positions are
/// those of the fullest chip.
pub fn page_metrics(
    engine: &PartitionedEngine,
    lens: &[usize],
    rows_per_chip: usize,
) -> Vec<Metric> {
    let stats = engine.kv_page_stats().unwrap_or_default();
    let used =
        lens.chunks(rows_per_chip.max(1)).map(|c| c.iter().sum::<usize>()).max().unwrap_or(0);
    vec![
        metric("kvcache.pages_allocated", stats.pages_allocated as f64),
        metric("kvcache.pages_live_peak", stats.pages_live as f64),
        metric("kvcache.pages_shared_peak", stats.pages_shared as f64),
        metric(
            "kvcache.reserved_over_used",
            (stats.pages_allocated * stats.page_size) as f64 / used.max(1) as f64,
        ),
    ]
}

impl Replay {
    /// The replayed prefill time of the sampled prompt nearest in length.
    fn own_prefill_ms(&self, len: usize) -> f64 {
        self.prefill_lens
            .iter()
            .zip(&self.prefill_ms)
            .min_by_key(|(&l, _)| l.abs_diff(len))
            .map_or(0.0, |(_, &ms)| ms)
    }

    /// `runtime.serving`, `runtime.engine`, `collectives.bytes_per_step` and
    /// `kvcache.pages_*` for the traced serve calls that filled `section`,
    /// one per rep. Counts are summed over the reps and peaks taken across
    /// them; `report` gets the range of the counts that depend on wall-clock
    /// admission.
    pub fn metrics(
        self,
        served: &[Served],
        section: &Section,
        collectives: &CollectiveTimes,
        report: &mut Report,
    ) -> Vec<Metric> {
        let (ttft, tpot, wall_s) = (section.ttft_ms(), section.tpot_ms(), section.wall_s());
        let requests = || served.iter().flat_map(|s| &s.requests);
        let outcomes = || served.iter().map(|s| &s.outcome);
        let own: Vec<f64> = requests().map(|r| self.own_prefill_ms(r.prompt.len())).collect();
        let queue_wait: Vec<f64> = ttft.iter().zip(&own).map(|(t, o)| (t - o).max(0.0)).collect();
        let steps: Vec<f64> = outcomes().flat_map(|o| &o.step_log).map(|s| s.1 * 1e3).collect();
        let preemptions: Vec<usize> = outcomes().map(|o| o.preemptions).collect();
        let replayed: Vec<usize> = outcomes().map(|o| o.preempted_tokens_replayed).collect();
        let range = |v: &[usize]| {
            format!("{}..={}", v.iter().min().unwrap_or(&0), v.iter().max().unwrap_or(&0))
        };
        report.notes.push(format!(
            "per rep (these depend on wall-clock admission): preemptions {}, replayed tokens {}",
            range(&preemptions),
            range(&replayed)
        ));
        let preempted = preemptions.iter().sum::<usize>() as f64;

        // Engine seconds inside the calls: their own decode steps, plus the
        // replayed cost of every admission and every preemption re-admission.
        let decode_s = steps.iter().sum::<f64>() / 1e3;
        let admissions = own.len() as f64 + preempted;
        let prefill_s =
            (own.iter().sum::<f64>() + preempted * mean(&own) + admissions * median(&self.move_ms))
                / 1e3;
        let in_system_s: f64 = outcomes().map(in_system_seconds).sum();
        let self_s = (in_system_s - decode_s - prefill_s).max(0.0);

        let useful: usize = served
            .iter()
            .flat_map(|s| s.requests.iter().zip(&s.outcome.outputs))
            .map(|(r, o)| r.prompt.len() + o.len())
            .sum();
        let replayed_prompt =
            preempted * mean(&requests().map(|r| r.prompt.len() as f64).collect::<Vec<_>>());
        let wasted = replayed.iter().sum::<usize>() as f64 + replayed_prompt;
        let prefill_total_ms: f64 = self.prefill_ms.iter().sum();
        let bare_step = median(&self.step_ms);
        let peak = |f: fn(&ServingOutcome) -> usize| outcomes().map(f).max().unwrap_or(0) as f64;

        let mut m = vec![
            metric("serving.queue_wait_p50_ms", median(&queue_wait)),
            metric("serving.decode_batch_mean", mean_decode_batch(served)),
            metric("serving.peak_decode_batch", peak(|o| o.report.peak_decode_batch)),
            metric("serving.step_ms_p50", median(&steps)),
            metric("serving.decode_busy_frac", decode_s / wall_s),
            metric("serving.prefill_busy_frac", prefill_s / wall_s),
            metric("serving.self_frac", self_s / wall_s),
            metric("serving.ttft_p95_ms", percentile(&ttft, 0.95)),
            metric("serving.tpot_p95_ms", percentile(&tpot, 0.95)),
            metric("serving.preemptions", preempted),
            metric("serving.replayed_tok", replayed.iter().sum::<usize>() as f64),
            metric("serving.useful_tok_frac", useful as f64 / (useful as f64 + wasted)),
            metric("serving.kv_pages_shared_peak", peak(|o| o.report.kv_pages_shared)),
            metric(
                "serving.kv_pages_free_min",
                outcomes().map(|o| o.report.kv_pages_free).min().unwrap_or(0) as f64,
            ),
            metric("serving.pad_waste_frac", 1.0 - 1.0 / self.pad as f64),
            metric("engine.prefill_ms_p50", median(&self.prefill_ms)),
            metric(
                "engine.prefill_tok_s",
                self.padded_prefill_tokens as f64 * 1e3 / prefill_total_ms.max(1e-9),
            ),
            metric("engine.decode_step_ms_p50", bare_step),
            metric("engine.decode_step_ms_p95", percentile(&self.step_ms, 0.95)),
            metric("engine.kv_move_ms_p50", median(&self.move_ms)),
            metric("engine.evict_us_p50", median(&self.evict_us)),
            metric("engine.comm_frac", collectives.comm_frac(&self.calls, bare_step)),
            metric(
                "engine.wire_bytes_per_tok",
                self.wire_bytes as f64 / self.wire_tokens.max(1) as f64,
            ),
            metric("collectives.bytes_per_step", self.step_bytes),
        ];
        m.extend(self.pages);
        m
    }
}

/// `router.serve_overhead_frac`: the same trace through a one-replica
/// router (warmed with `warm` first, as the bare batcher was in set-up),
/// relative to the bare batcher's `bare_wall_s`. `None` if the router fails.
pub fn router_overhead(
    model: &ReferenceModel,
    tiers: &Tiers,
    warm: &[ServingRequest],
    requests: &[ServingRequest],
    bare_wall_s: f64,
    tracer: &mut Tracer,
) -> Option<f64> {
    let mut router = esti_runtime::ReplicaRouter::new(model, tiers.layout, FMT, tiers.opts, 1);
    router.try_serve(warm).ok()?;
    let (served, ms, _) = tracer
        .span(Layer::Router, "ReplicaRouter::try_serve", None, |_| router.try_serve(requests));
    served.ok().map(|_| ms / 1e3 / bare_wall_s - 1.0)
}
