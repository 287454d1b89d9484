//! `prefill_batch`: offline scoring in a closed loop. Large-M compute-bound
//! GEMMs, int8 weight all-gathers and bulk KV appends — the paper's high-MFU
//! regime. The batcher, the prefix registry and long-context reads do
//! nothing here.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
use esti_model::ReferenceModel;
use esti_runtime::{PartitionedEngine, WeightFormat};

use crate::common::{
    self, end_to_end, Ctx, Metric, Report, Section, D_FF, D_MODEL, N_CHIPS, N_HEADS, VOCAB,
};
use crate::driven::{kv_move, Driven};
use crate::gen::SplitMix64;
use crate::oracle::Oracle;
use crate::probes::{self, Shape};
use crate::trace::{Layer, Tracer};
use crate::workloads::ColdSetups;

pub const NAME: &str = "prefill_batch";
pub const WHY: &str = "closed loop of 16x256-token int8 weight-gathered prefills plus 8 decode steps: large-M compute-bound GEMM, int8 weight all-gathers, bulk KV appends; no batcher, no long context";

/// Reps per second of section: a 16×256 int8 prefill takes about 0.8 s on
/// the reference host and the eight decode steps about 0.1 s, a fifth more
/// when its neighbours are busy.
const REPS_PER_SECOND: f64 = 0.96;
const BATCH: usize = 16;
const PROMPT_LEN: usize = 256;
const DECODE_STEPS: usize = 8;
const FMT: WeightFormat = WeightFormat::Int8;
/// Reps whose row 0 the oracle re-derives on a single chip.
const ORACLE_REPS: usize = 2;

fn layout() -> Layout {
    common::layout(FfnLayout::WeightGathered(GatherExtent::Xyz), AttnSharding::Batch, (2, 2, 1))
}

fn prompts(rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    (0..BATCH).map(|_| rng.tokens(PROMPT_LEN, VOCAB)).collect()
}

pub struct State {
    model: ReferenceModel,
    engine: PartitionedEngine,
}

/// One rep: prefill the batch, then `DECODE_STEPS` greedy steps. Returns row
/// 0's tokens (the prefill's pick, then each step's).
fn rep(d: &mut Driven, tracer: &mut Tracer, rows: &[Vec<usize>]) -> Option<Vec<usize>> {
    d.reset(tracer);
    let mut next = d.prefill(tracer, rows)?;
    let mut row0 = vec![next[0]];
    d.decode_loop_begins();
    for _ in 0..DECODE_STEPS {
        next = d.step(tracer, &next)?;
        row0.push(next[0]);
    }
    d.decode_loop_ends();
    Some(row0)
}

pub fn setup(_check_only: bool) -> State {
    let model = common::model();
    let mut engine = PartitionedEngine::new(&model, layout(), FMT);
    let warm = prompts(&mut SplitMix64::new(0));
    rep(&mut Driven::new(&mut engine), &mut Tracer::new(false), &warm).expect("warm-up rep runs");
    State { model, engine }
}

pub fn cold_probe(tracer: &mut Tracer) -> Vec<Metric> {
    let mut rng = SplitMix64::new(0);
    let rows: Vec<Vec<usize>> = (0..BATCH).map(|_| rng.tokens(32, VOCAB)).collect();
    probes::cold_engine(&common::model(), layout(), FMT, &rows, tracer)
}

pub fn run(ctx: &Ctx, state: State, setups: ColdSetups, tracer: &mut Tracer) -> Report {
    let State { model, mut engine } = state;
    let reps = ctx.sized(REPS_PER_SECOND, ORACLE_REPS);
    let mut rng = SplitMix64::new(ctx.seed);
    let mut report = Report::default();

    let bytes_at_start = engine.traffic().total_bytes();
    let mut d = Driven::new(&mut engine);
    let mut section = Section::new(ctx, reps, setups);
    // Row 0 of the first reps, kept for the oracle: its prompt and its tokens.
    let mut row0s: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    // Every token row 0's cache holds after the latest rep.
    let mut row0_history = Vec::new();
    let ((), _, root) = tracer.span(Layer::Harness, "section", None, |tracer| {
        while section.open() {
            let rows = prompts(&mut rng);
            report.sent += BATCH;
            let (steps_before, prefills_before) = (d.step_ms.len(), d.prefill_ms.len());
            let (row0, timed) = section.timed(|| rep(&mut d, tracer, &rows));
            let Some(row0) = row0 else { break };
            timed.tokens = BATCH * (PROMPT_LEN + DECODE_STEPS);
            timed.ttft_ms.extend(&d.prefill_ms[prefills_before..]);
            timed.tpot_ms.extend(&d.step_ms[steps_before..]);
            report.ok += BATCH;
            row0_history.clone_from(&rows[0]);
            row0_history.extend(&row0[..DECODE_STEPS]);
            if row0s.len() < ORACLE_REPS {
                row0s.push((rows[0].clone(), row0));
            }
        }
    });
    report.failed = report.sent - report.ok;
    if let Some(e) = &d.error {
        report.notes.push(format!("engine failed: {e}"));
    }
    report.notes.push(format!(
        "{} reps of {BATCH}x{PROMPT_LEN} prefill + {DECODE_STEPS} decode steps",
        section.reps.len()
    ));

    let mut oracle = Oracle::new(&model, FMT);
    for (prompt, served) in &row0s {
        match oracle.check_stream(prompt, served) {
            Ok(v) => {
                if v.wrong > 0 {
                    report.ok -= 1;
                    report.failed += 1;
                }
                report.notes.push(format!(
                    "oracle: row 0 vs an int8 1x1x1 mesh: {}/{} tokens are not its pick, largest logit gap {:.2e}",
                    v.wrong, v.checked, v.largest_gap
                ));
            }
            Err(e) => {
                report.ok -= 1;
                report.failed += 1;
                report.notes.push(format!("oracle: single-chip engine failed: {e}"));
            }
        }
    }

    if ctx.trace {
        let shape = Shape {
            decode_rows: BATCH,
            decode_m: BATCH / N_CHIPS,
            prefill_m: BATCH * PROMPT_LEN / N_CHIPS,
            gemm_n: D_FF,
            kv_rows: BATCH / N_CHIPS,
            q_heads: N_HEADS,
            context: PROMPT_LEN + DECODE_STEPS,
            append_len: PROMPT_LEN,
            move_len: PROMPT_LEN,
            // One chip's int8 shard of a [d_model, d_ff] matrix: a byte per
            // weight plus an f32 scale per column, moved here as f32s.
            gather_elems: (D_MODEL * D_FF / N_CHIPS + 4 * D_FF) / 4,
        };
        let times = probes::collectives(&shape, tracer);
        let lens = vec![PROMPT_LEN + DECODE_STEPS; BATCH];
        report.metrics =
            d.metrics(section.tokens(), bytes_at_start, &times, &lens, BATCH / N_CHIPS);
        report.metrics.extend(kv_move(&model, d.engine, layout(), FMT, &row0_history, tracer));
        report.metrics.extend(probes::lower_layers(&shape, &times, tracer));
        report.metrics.extend(tracer.section_metrics(root));
    } else {
        report.metrics = end_to_end(&section);
    }
    report.notes.push(section.setups.note());
    report.notes.push(section.note());
    report
}
