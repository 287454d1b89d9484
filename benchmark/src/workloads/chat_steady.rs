//! `chat_steady`: the interactive path. An open loop of independent users at
//! a fixed rate well below capacity, so TTFT is service time rather than
//! queueing amplification: batch-1 prefills and decode steps of one to three
//! rows, dominated by per-forward thread spawn, barrier latency and small
//! memory-bound GEMMs.

use esti_core::layout::{AttnSharding, FfnLayout};
use esti_model::ReferenceModel;
use esti_runtime::{ContinuousBatcher, ServingOptions, ServingRequest};

use crate::batcher::{check_sample, mean_decode_batch, replay, serve_rep, Served, Tiers, FMT};
use crate::common::{
    self, end_to_end, Ctx, Metric, Report, Section, D_FF, D_MODEL, N_CHIPS, N_HEADS, VOCAB,
};
use crate::gen::{lognormal_lengths, poisson_arrivals, uniform_lengths, SplitMix64};
use crate::probes::{self, Shape};
use crate::trace::{Layer, Tracer};
use crate::workloads::ColdSetups;

pub const NAME: &str = "chat_steady";
pub const WHY: &str = "open loop at 3 req/s, a third to a half of the tier's wall busy, short unshared prompts: batch-1 prefill and 1-3 row decode steps bound by thread spawn, barriers and small GEMMs";

/// Requests per second of trace. Each rep hands a whole trace to `try_serve`,
/// which times TTFT from each request's due arrival.
const RATE: f64 = 3.0;
/// Seconds of trace per rep: long enough that the drain at its end is a few
/// percent of it, short enough that a burst of stolen CPU spoils one rep.
const REP_SECONDS: f64 = 5.0;
const REP_REQUESTS: usize = (RATE * REP_SECONDS) as usize;
const SLOTS: usize = 8;

fn tiers() -> Tiers {
    Tiers {
        layout: common::layout(FfnLayout::WeightStationary1D, AttnSharding::Head, (1, 2, 2)),
        opts: ServingOptions { max_decode_batch: SLOTS, ..ServingOptions::default() },
        kv_chips: 1,
        collective_groups: 1,
    }
}

/// `n` requests due over `horizon` seconds: Poisson arrivals, prompts
/// lognormal with median 64 in `[16, 160]`, outputs uniform on `16..=64`.
fn trace(rng: &mut SplitMix64, n: usize, horizon: f64) -> Vec<ServingRequest> {
    let mut prompts = lognormal_lengths(n, 64.0, 0.6, 16, 160);
    let mut outputs = uniform_lengths(n, 16, 64);
    rng.shuffle(&mut prompts);
    rng.shuffle(&mut outputs);
    let arrivals = poisson_arrivals(rng, n, horizon);
    (0..n)
        .map(|i| ServingRequest {
            arrival: arrivals[i],
            seed: rng.next(),
            ..ServingRequest::immediate(rng.tokens(prompts[i], VOCAB), outputs[i])
        })
        .collect()
}

pub struct State {
    model: ReferenceModel,
    batcher: ContinuousBatcher,
}

/// Model init, both tiers, and a warm-up trace that pays planner calibration
/// and grows the page pool.
pub fn setup(_check_only: bool) -> State {
    let model = common::model();
    let mut batcher = ContinuousBatcher::new(&model, tiers().layout, FMT, tiers().opts);
    let warm = trace(&mut SplitMix64::new(0), SLOTS, 0.0);
    batcher.try_serve(&warm).expect("warm-up trace serves");
    State { model, batcher }
}

pub fn cold_probe(tracer: &mut Tracer) -> Vec<Metric> {
    let rows = vec![SplitMix64::new(0).tokens(64, VOCAB)];
    probes::cold_engine(&common::model(), tiers().layout, FMT, &rows, tracer)
}

pub fn run(ctx: &Ctx, state: State, setups: ColdSetups, tracer: &mut Tracer) -> Report {
    let State { model, mut batcher } = state;
    let reps = ctx.sized(1.0 / REP_SECONDS, 1);
    // `--check-only` serves its one rep without waiting for arrivals.
    let horizon = if ctx.check_only { 0.0 } else { REP_SECONDS };
    let mut rng = SplitMix64::new(ctx.seed);
    let mut report = Report::default();
    let mut section = Section::new(ctx, reps, setups);
    let mut served: Vec<Served> = Vec::new();
    let ((), _, root) = tracer.span(Layer::Harness, "section", None, |tracer| {
        while section.open() {
            let requests = trace(&mut rng, REP_REQUESTS, horizon);
            match serve_rep(&mut batcher, requests, tracer, &mut section, &mut report) {
                Some(rep) => served.push(rep),
                None => break,
            }
        }
    });
    report.notes.push(format!(
        "{} reps of {REP_REQUESTS} requests over {REP_SECONDS} s, {SLOTS} slots",
        served.len()
    ));
    let Some(first) = served.first() else {
        return report;
    };
    check_sample(&model, first, &mut report);

    // Busy wall, an upper estimate: the batcher's own decode steps plus, as
    // a stand-in for prefill time, every TTFT (at this load a TTFT is its own
    // prefill plus the rest of the step in flight and any prefill ahead of
    // it; the traced run's decode_busy_frac + prefill_busy_frac is exact).
    let busy_s: f64 = served.iter().flat_map(|s| &s.outcome.step_log).map(|s| s.1).sum::<f64>()
        + section.ttft_ms().iter().sum::<f64>() / 1e3;
    let utilisation = busy_s / section.wall_s();
    let offered = section.tokens() as f64 / (served.len() as f64 * REP_SECONDS);
    report.notes.push(format!(
        "utilisation {utilisation:.2} (busy wall / section wall); offered {offered:.1} tok/s, served {:.1} tok/s",
        section.tokens() as f64 / section.wall_s()
    ));
    if !ctx.check_only && !(0.15..=0.55).contains(&utilisation) {
        report.notes.push(format!(
            "WARNING: utilisation {utilisation:.2} is outside [0.15, 0.55]; TTFT here is no longer service time"
        ));
    }

    if ctx.trace {
        let shape = Shape {
            decode_rows: SLOTS,
            decode_m: SLOTS,
            prefill_m: 64,
            gemm_n: D_FF / N_CHIPS,
            kv_rows: SLOTS,
            q_heads: N_HEADS / N_CHIPS,
            context: 104,
            append_len: 1,
            move_len: 64,
            gather_elems: SLOTS * D_MODEL / N_CHIPS,
        };
        let times = probes::collectives(&shape, tracer);
        let occupancy = mean_decode_batch(&served);
        let replayed = replay(&model, &tiers(), &first.requests, occupancy, tracer);
        report.metrics = replayed.metrics(&served, &section, &times, &mut report);
        report.metrics.extend(probes::lower_layers(&shape, &times, tracer));
        report.metrics.extend(tracer.section_metrics(root));
    } else {
        report.metrics = end_to_end(&section);
    }
    report.notes.push(section.setups.note());
    report.notes.push(section.note());
    report
}
