//! The four workloads. Names are fixed: `BENCHMARK.json` and every recorded
//! baseline refer to them.

pub mod chat_steady;
pub mod longctx_decode;
pub mod prefill_batch;
pub mod prefix_burst;

use std::time::Instant;

use crate::common::{Ctx, Metric, Report};
use crate::trace::Tracer;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Runs the workload end to end and reports.
    pub drive: fn(&Ctx, &mut Tracer) -> Report,
    /// Only the set-up, for timing it cold in a fresh process; its seconds.
    pub setup_only: fn() -> f64,
}

macro_rules! workload {
    ($module:ident) => {
        Workload {
            name: $module::NAME,
            why: $module::WHY,
            drive: |ctx, tracer| {
                drive(ctx, tracer, $module::NAME, $module::setup, $module::cold_probe, $module::run)
            },
            setup_only: || timed_setup($module::setup, false).1,
        }
    };
}

pub const ALL: [Workload; 4] = [
    workload!(chat_steady),
    workload!(prefix_burst),
    workload!(prefill_batch),
    workload!(longctx_decode),
];

/// Cold set-ups per run whose median is `setup_s`: this many, or as many as
/// fit the allowance (one, for `longctx_decode`).
const COLD_SETUPS: usize = 5;
const COLD_SETUP_ALLOWANCE_S: f64 = 3.5;

/// A workload's cold set-ups: the run's own, then repeats in fresh processes
/// (the planner caches its calibration per process, so repeats in this one
/// would hide it). The repeats run between the reps of the measured section,
/// spread evenly over it, so that one burst of stolen CPU cannot slow most of
/// them; no rep is being timed while one runs.
pub struct ColdSetups {
    name: &'static str,
    seconds: Vec<f64>,
    wanted: usize,
}

impl ColdSetups {
    fn new(name: &'static str, own_s: f64, repeat: bool) -> Self {
        let fit = (COLD_SETUP_ALLOWANCE_S / own_s) as usize;
        let wanted = if repeat { 1 + fit.min(COLD_SETUPS - 1) } else { 1 };
        ColdSetups { name, seconds: vec![own_s], wanted }
    }

    /// Called before rep `next` of `planned`: runs one repeat if the repeats
    /// have fallen behind the reps.
    pub fn keep_pace(&mut self, next: usize, planned: usize) {
        let repeats_done = self.seconds.len() - 1;
        if self.seconds.len() < self.wanted && repeats_done * planned < next * (self.wanted - 1) {
            match crate::setup_in_child(self.name) {
                Some(s) => self.seconds.push(s),
                None => self.wanted = self.seconds.len(),
            }
        }
    }

    pub fn median_s(&self) -> f64 {
        crate::util::median(&self.seconds)
    }

    pub fn note(&self) -> String {
        format!("set-up {:.3?} s ({} cold, a fresh process each)", self.seconds, self.seconds.len())
    }
}

/// Runs `setup`; returns its state and its seconds.
pub fn timed_setup<S>(setup: fn(bool) -> S, check_only: bool) -> (S, f64) {
    let t = Instant::now();
    let state = setup(check_only);
    (state, t.elapsed().as_secs_f64())
}

/// The order every workload runs in: in a traced run the cold-engine probe
/// first (it needs the planner's calibration cache empty), then the timed
/// set-up, then the measured section with its oracle and per-layer tail.
fn drive<S>(
    ctx: &Ctx,
    tracer: &mut Tracer,
    name: &'static str,
    setup: fn(bool) -> S,
    cold_probe: fn(&mut Tracer) -> Vec<Metric>,
    run: fn(&Ctx, S, ColdSetups, &mut Tracer) -> Report,
) -> Report {
    let cold = if ctx.trace { cold_probe(tracer) } else { Vec::new() };
    let (state, own_s) = timed_setup(setup, ctx.check_only);
    let setups = ColdSetups::new(name, own_s, !ctx.trace && !ctx.check_only);
    let mut report = run(ctx, state, setups, tracer);
    report.metrics.extend(cold);
    report
}
