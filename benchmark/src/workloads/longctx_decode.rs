//! `longctx_decode`: the paper's headline 2048-token regime. Eight
//! conversations at 2048–3200 tokens of context take follow-up turns; per
//! step the time goes to the KV page gather, attention over the cache and the
//! attention all-to-all — about six times `chat_steady`'s step on the same
//! FFN layout, so a KV or attention gain shows here and nowhere else.

use esti_core::layout::{AttnSharding, FfnLayout, Layout};
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

pub const NAME: &str = "longctx_decode";
pub const WHY: &str = "8 conversations at 2048-3200 tokens of context, 32-token follow-up turns then 24 decode steps, batch-sharded multiquery: KV page gather, attention over cache and all-to-all dominate each step";

/// Turns per second of section: a turn is an 8×32 prefill (~0.17 s) and 24
/// decode steps (28 ms each at a context of 2100, 40 ms at 3200) on the
/// reference host.
const TURNS_PER_SECOND: f64 = 0.8;
const CONVERSATIONS: usize = 4;
const SAMPLES_EACH: usize = 2;
const BATCH: usize = CONVERSATIONS * SAMPLES_EACH;
const CONTEXT: usize = 2048;
/// `--check-only` starts its conversations here, so its set-up is short.
const CHECK_CONTEXT: usize = 512;
const CHUNK: usize = 256;
const TURN_LEN: usize = 32;
const DECODE_STEPS: usize = 24;
const FMT: WeightFormat = WeightFormat::Exact;
/// Turns of row 0 the single-chip oracle is teacher-forced through.
const ORACLE_TURNS: usize = 2;

fn layout() -> Layout {
    common::layout(FfnLayout::WeightStationary1D, AttnSharding::Batch, (1, 2, 2))
}

pub struct State {
    model: ReferenceModel,
    engine: PartitionedEngine,
    /// Every token row 0's cache holds, in order.
    row0: Vec<usize>,
}

/// One follow-up turn: prefill `TURN_LEN` new tokens per conversation, then
/// `DECODE_STEPS` greedy steps. Appends what row 0 consumed to `row0` and,
/// for the oracle, what the engine picked after each position to `picks`.
fn turn(
    d: &mut Driven,
    tracer: &mut Tracer,
    new_tokens: &[Vec<usize>],
    row0: &mut Vec<usize>,
    picks: &mut Vec<(usize, usize)>,
) -> Option<()> {
    let mut next = d.prefill(tracer, new_tokens)?;
    row0.extend(&new_tokens[0]);
    d.decode_loop_begins();
    for _ in 0..DECODE_STEPS {
        picks.push((row0.len() - 1, next[0]));
        row0.push(next[0]);
        next = d.step(tracer, &next)?;
    }
    d.decode_loop_ends();
    Some(())
}

fn new_tokens(rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    (0..BATCH).map(|_| rng.tokens(TURN_LEN, VOCAB)).collect()
}

/// Chunk-prefills the conversations to `CONTEXT`, doubles them, and runs one
/// warm-up turn (which pays the decode-shape planning).
pub fn setup(check_only: bool) -> State {
    let model = common::model();
    let mut engine = PartitionedEngine::new(&model, layout(), FMT);
    let mut rng = SplitMix64::new(0);
    let context = if check_only { CHECK_CONTEXT } else { CONTEXT };
    let prompts: Vec<Vec<usize>> = (0..CONVERSATIONS).map(|_| rng.tokens(context, VOCAB)).collect();
    for start in (0..context).step_by(CHUNK) {
        let chunk: Vec<Vec<usize>> =
            prompts.iter().map(|p| p[start..start + CHUNK].to_vec()).collect();
        engine.try_prefill(&chunk).expect("context prefill runs");
    }
    engine.expand_batch(SAMPLES_EACH);
    let mut row0 = prompts[0].clone();
    let warm = new_tokens(&mut rng);
    turn(&mut Driven::new(&mut engine), &mut Tracer::new(false), &warm, &mut row0, &mut Vec::new())
        .expect("warm-up turn runs");
    State { model, engine, row0 }
}

pub fn cold_probe(tracer: &mut Tracer) -> Vec<Metric> {
    probes::cold_engine(
        &common::model(),
        layout(),
        FMT,
        &new_tokens(&mut SplitMix64::new(0)),
        tracer,
    )
}

pub fn run(ctx: &Ctx, state: State, setups: ColdSetups, tracer: &mut Tracer) -> Report {
    let State { model, mut engine, mut row0 } = state;
    let turns = ctx.sized(TURNS_PER_SECOND, ORACLE_TURNS);
    let mut rng = SplitMix64::new(ctx.seed);
    let mut report = Report::default();
    let start_context = engine.cache_len();

    let bytes_at_start = engine.traffic().total_bytes();
    let mut d = Driven::new(&mut engine);
    let mut picks = Vec::new();
    let mut section = Section::new(ctx, turns, setups);
    let ((), _, root) = tracer.span(Layer::Harness, "section", None, |tracer| {
        while section.open() {
            let new = new_tokens(&mut rng);
            report.sent += BATCH;
            let (steps_before, prefills_before) = (d.step_ms.len(), d.prefill_ms.len());
            let (done, timed) = section.timed(|| turn(&mut d, tracer, &new, &mut row0, &mut picks));
            if done.is_none() {
                break;
            }
            timed.tokens = BATCH * (TURN_LEN + DECODE_STEPS);
            timed.ttft_ms.extend(&d.prefill_ms[prefills_before..]);
            timed.tpot_ms.extend(&d.step_ms[steps_before..]);
            report.ok += BATCH;
        }
    });
    report.failed = report.sent - report.ok;
    if let Some(e) = &d.error {
        report.notes.push(format!("engine failed: {e}"));
    }
    let end_context = d.engine.cache_len();
    report.notes.push(format!(
        "1 segment of {} turns ({BATCH}x{TURN_LEN} prefill + {DECODE_STEPS} steps), context {start_context} -> {end_context}",
        section.reps.len()
    ));

    // Oracle: row 0's first turns, teacher-forced through a single chip.
    let checked = &picks[..picks.len().min(ORACLE_TURNS * DECODE_STEPS)];
    let history = &row0[..checked.last().map_or(0, |c| c.0 + 1)];
    match Oracle::new(&model, FMT).check(history, checked) {
        Ok(v) => {
            if v.wrong > 0 {
                report.ok -= 1;
                report.failed += 1;
            }
            report.notes.push(format!(
                "oracle: row 0 vs a 1x1x1 mesh over {ORACLE_TURNS} turns: {}/{} tokens are not its pick, largest logit gap {:.2e}",
                v.wrong, v.checked, v.largest_gap
            ));
        }
        Err(e) => {
            report.ok -= 1;
            report.failed += 1;
            report.notes.push(format!("oracle: single-chip engine failed: {e}"));
        }
    }

    if ctx.trace {
        let shape = Shape {
            decode_rows: BATCH,
            decode_m: BATCH,
            prefill_m: BATCH * TURN_LEN,
            gemm_n: D_FF / N_CHIPS,
            kv_rows: BATCH / N_CHIPS,
            q_heads: N_HEADS,
            context: (start_context + end_context) / 2,
            append_len: 1,
            move_len: 512,
            gather_elems: BATCH * D_MODEL / N_CHIPS,
        };
        let times = probes::collectives(&shape, tracer);
        let lens = vec![end_context; BATCH];
        report.metrics =
            d.metrics(section.tokens(), bytes_at_start, &times, &lens, BATCH / N_CHIPS);
        report.metrics.extend(kv_move(&model, d.engine, layout(), FMT, &row0, tracer));
        report.metrics.extend(probes::lower_layers(&shape, &times, tracer));
        report.metrics.extend(tracer.section_metrics(root));
    } else {
        report.metrics = end_to_end(&section);
    }
    report.notes.push(section.setups.note());
    report.notes.push(section.note());
    report
}
