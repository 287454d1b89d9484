//! `prefix_burst`: a real backlog. Everything is due at once, every prompt
//! opens with the same system prefix, the KV budget only fits all slots if
//! that prefix is charged once, and a late high-priority wave lands on a full
//! decode tier and must preempt. The work is admission, the page ledger,
//! shared-insert / copy-on-write / evict churn, evict-and-replay and padded
//! prefill — none of which `chat_steady` exercises.

use esti_core::layout::{AttnSharding, FfnLayout};
use esti_core::serving::Priority;
use esti_model::ReferenceModel;
use esti_runtime::{ContinuousBatcher, ServingOptions, ServingRequest};

use crate::batcher::{
    check_sample, mean_decode_batch, replay, router_overhead, serve_rep, Served, Tiers, FMT,
};
use crate::common::{
    self, end_to_end, metric, Ctx, Metric, Report, Section, D_FF, D_MODEL, N_CHIPS, N_HEADS, VOCAB,
};
use crate::gen::{uniform_lengths, SplitMix64};
use crate::probes::{self, Shape};
use crate::trace::{Layer, Tracer};
use crate::workloads::ColdSetups;

pub const NAME: &str = "prefix_burst";
pub const WHY: &str = "backlog due at t=0 behind one shared 192-token prefix; 16 slots fit only if prefix pages are charged once; a late high-priority wave must preempt: admission, page ledger, COW, replay, padded prefill";

/// Reps per second of section: one rep is 20 requests and 4 replays, and a
/// padded ws2d prefill of a ~224-token prompt costs about 0.33 s on the
/// reference host.
const REPS_PER_SECOND: f64 = 1.0 / 8.3;
/// Normal/Low requests per rep, due at 0: exactly enough to fill the slots.
const BULK: usize = 16;
/// High-priority requests per rep, due at `HIGH_DUE_S`.
const HIGH: usize = 4;
const PREFIX_LEN: usize = 192;
const SLOTS: usize = 16;
/// Canonical KV positions: half the slots at most when every request is
/// charged its whole prompt, all sixteen when the prefix is charged once.
const KV_BUDGET: usize = 2560;
/// The admit loop prefills back to back until the slots are full (about 5 s
/// for sixteen), so a wave due any time before that finds them full.
const HIGH_DUE_S: f64 = 2.0;

fn tiers() -> Tiers {
    Tiers {
        layout: common::layout(FfnLayout::WeightStationary2D, AttnSharding::Batch, (2, 2, 1)),
        opts: ServingOptions {
            max_decode_batch: SLOTS,
            kv_position_budget: Some(KV_BUDGET),
            preemption: true,
            ..ServingOptions::default()
        },
        kv_chips: N_CHIPS,
        collective_groups: 2,
    }
}

/// `bulk` Normal/Low requests due at 0 and `high` High requests due at
/// `high_due`; prompts are the shared prefix plus 16–48 unique tokens,
/// outputs 24–48.
fn burst(rng: &mut SplitMix64, bulk: usize, high: usize, high_due: f64) -> Vec<ServingRequest> {
    let n = bulk + high;
    let prefix = rng.tokens(PREFIX_LEN, VOCAB);
    let mut suffixes = uniform_lengths(n, 16, 48);
    let mut outputs = uniform_lengths(n, 24, 48);
    rng.shuffle(&mut suffixes);
    rng.shuffle(&mut outputs);
    let mut classes: Vec<Priority> =
        (0..bulk).map(|i| if i % 2 == 0 { Priority::Normal } else { Priority::Low }).collect();
    rng.shuffle(&mut classes);
    (0..n)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend(rng.tokens(suffixes[i], VOCAB));
            ServingRequest {
                arrival: if i < bulk { 0.0 } else { high_due },
                seed: rng.next(),
                priority: classes.get(i).copied().unwrap_or(Priority::High),
                ..ServingRequest::immediate(prompt, outputs[i])
            }
        })
        .collect()
}

pub struct State {
    model: ReferenceModel,
    batcher: ContinuousBatcher,
}

fn warm_up() -> Vec<ServingRequest> {
    burst(&mut SplitMix64::new(0), 2, 0, 0.0)
}

pub fn setup(_check_only: bool) -> State {
    let model = common::model();
    let mut batcher = ContinuousBatcher::new(&model, tiers().layout, FMT, tiers().opts);
    batcher.try_serve(&warm_up()).expect("warm-up burst serves");
    State { model, batcher }
}

pub fn cold_probe(tracer: &mut Tracer) -> Vec<Metric> {
    let prompt = SplitMix64::new(0).tokens(PREFIX_LEN + 32, VOCAB);
    probes::cold_engine(&common::model(), tiers().layout, FMT, &vec![prompt; N_CHIPS], tracer)
}

pub fn run(ctx: &Ctx, state: State, setups: ColdSetups, tracer: &mut Tracer) -> Report {
    let State { model, mut batcher } = state;
    let reps = ctx.sized(REPS_PER_SECOND, 1);
    // `--check-only` serves a burst too small to fill the slots.
    let (bulk, high, high_due) =
        if ctx.check_only { (6, 2, 0.5) } else { (BULK, HIGH, HIGH_DUE_S) };
    let mut rng = SplitMix64::new(ctx.seed);
    let mut report = Report::default();
    let mut section = Section::new(ctx, reps, setups);
    let mut served: Vec<Served> = Vec::new();
    let ((), _, root) = tracer.span(Layer::Harness, "section", None, |tracer| {
        while section.open() {
            let requests = burst(&mut rng, bulk, high, high_due);
            match serve_rep(&mut batcher, requests, tracer, &mut section, &mut report) {
                Some(rep) => served.push(rep),
                None => break,
            }
        }
    });
    report.notes.push(format!(
        "{} reps on one batcher: {bulk} Normal/Low due at 0 + {high} High due at {high_due} s, {SLOTS} slots, KV budget {KV_BUDGET} positions",
        served.len()
    ));
    let Some(first) = served.first() else {
        return report;
    };
    check_sample(&model, first, &mut report);

    let outcomes = || served.iter().map(|s| &s.outcome);
    let peak = outcomes().map(|o| o.report.peak_decode_batch).min().unwrap_or(0);
    let preemptions = outcomes().map(|o| o.preemptions).min().unwrap_or(0);
    let shed: usize = outcomes().map(|o| o.shed.len()).sum();
    report.notes.push(format!(
        "least over the reps: serving.peak_decode_batch {peak}, preemptions {preemptions}; shed {shed}"
    ));
    if !ctx.check_only && (peak < SLOTS || preemptions == 0) {
        report.notes.push(format!(
            "WARNING: peak decode batch {peak} of {SLOTS} with {preemptions} preemptions in some rep: prefix sharing or preemption is not engaged, this run does not measure what prefix_burst is for"
        ));
    }

    if ctx.trace {
        let shape = Shape {
            decode_rows: SLOTS,
            decode_m: SLOTS,
            prefill_m: PREFIX_LEN + 32,
            gemm_n: D_FF / 2,
            kv_rows: SLOTS / N_CHIPS,
            q_heads: N_HEADS,
            context: PREFIX_LEN + 32 + 18,
            append_len: 1,
            move_len: PREFIX_LEN + 32,
            gather_elems: SLOTS * D_MODEL / N_CHIPS,
        };
        let times = probes::collectives(&shape, tracer);
        let occupancy = mean_decode_batch(&served);
        let replayed = replay(&model, &tiers(), &first.requests, occupancy, tracer);
        report.metrics = replayed.metrics(&served, &section, &times, &mut report);
        report.metrics.extend(probes::lower_layers(&shape, &times, tracer));
        report.metrics.extend(tracer.section_metrics(root));
        let bare_wall_s = section.reps[0].wall_s;
        match router_overhead(&model, &tiers(), &warm_up(), &first.requests, bare_wall_s, tracer) {
            Some(frac) => report.metrics.push(metric("router.serve_overhead_frac", frac)),
            None => report.notes.push("router replica failed to serve the burst".to_owned()),
        }
    } else {
        report.metrics = end_to_end(&section);
    }
    report.notes.push(section.setups.note());
    report.notes.push(section.note());
    report
}
