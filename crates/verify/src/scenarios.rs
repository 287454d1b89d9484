//! Built-in lint scenarios: every layout family × attention sharding ×
//! model × slice size the repo ships, plus the planner's own chosen
//! layouts, each pushed through all verification passes — plus the
//! scenario-independent protocol rows (serving slot lifecycle).

use esti_core::layout::MeshFactors;
use esti_core::schedule::{build_schedule, ChipProgram, Schedule};
use esti_core::{planner, AttnSharding, FfnLayout, GatherExtent, Layout, Machine};
use esti_hal::DType;
use esti_model::ModelConfig;
use esti_runtime::BatcherSpec;

use crate::comm_table::{check_comm_table, CommTableReport};
use crate::lifecycle::check_lifecycle;
use crate::liveness::{check_program_liveness, LivenessReport};
use crate::memfit::{check_memory_fit, MemReport};
use crate::quantflow::{check_quantflow, QuantflowReport};
use crate::spmd::{check_program_spmd, SpmdReport};

/// One model × slice configuration to sweep layouts over.
pub struct Scenario {
    /// Model under test.
    pub model: ModelConfig,
    /// Machine slice (sets chip count and HBM).
    pub machine: Machine,
    /// Decode batch size (one token per row: the schedule's token count).
    pub batch: usize,
    /// KV-cache context length for the memory pass.
    pub context: usize,
    /// Weight storage dtype.
    pub weight_dtype: DType,
    /// KV-cache dtype.
    pub kv_dtype: DType,
}

/// Verdict for one (scenario, layout) combination.
pub enum Outcome {
    /// All passes succeeded.
    Pass {
        /// The comm table against the schedule: volume ratio and named
        /// remainders.
        comm: CommTableReport,
        /// SPMD report (chips, ops, firings).
        spmd: SpmdReport,
        /// Memory report (may carry a weight-gathered warning).
        mem: Box<MemReport>,
        /// Fault-path liveness over the schedule's collective call sites.
        liveness: LivenessReport,
        /// Quant-dataflow report for int8-weight scenarios (`None` when
        /// weights stay dense — nothing to check).
        quant: Option<QuantflowReport>,
    },
    /// A scenario-independent protocol row (e.g. the serving slot
    /// lifecycle) that holds; carries its summary.
    Verified(String),
    /// The combination is structurally inapplicable (indivisible shard or
    /// a layout precondition like multiquery attention) — not a bug.
    Skipped(String),
    /// A pass found a real inconsistency.
    Fail(String),
}

/// One row of the lint report.
pub struct ComboResult {
    /// Scenario name (model @ chips).
    pub scenario: String,
    /// Layout description.
    pub layout: String,
    /// Verdict.
    pub outcome: Outcome,
}

/// Classify a pass error: divisibility and layout preconditions are
/// expected incompatibilities of the sweep, anything else is a bug.
fn classify(err: String) -> Outcome {
    if err.contains("divisible") || err.contains("multiquery") {
        Outcome::Skipped(err)
    } else {
        Outcome::Fail(err)
    }
}

/// All layout-family × attention-sharding combinations on the meshes the
/// planner would use for this model and slice.
#[must_use]
pub fn sweep_layouts(model: &ModelConfig, n_chips: usize) -> Vec<Layout> {
    let ffns = [
        FfnLayout::WeightStationary1D,
        FfnLayout::WeightStationary2D,
        FfnLayout::WeightGathered(GatherExtent::X),
        FfnLayout::WeightGathered(GatherExtent::Xy),
        FfnLayout::WeightGathered(GatherExtent::Xyz),
    ];
    let mut layouts = Vec::new();
    for ffn in ffns {
        let mesh: MeshFactors = match ffn {
            FfnLayout::WeightStationary1D => Layout::ws1d_mesh(n_chips),
            _ => Layout::ws2d_mesh(n_chips, model.d_model, model.d_ff),
        };
        for attn in [AttnSharding::Head, AttnSharding::Batch] {
            layouts.push(Layout { ffn, attn, mesh });
        }
    }
    layouts
}

/// Run every pass on one (scenario, layout) combination.
#[must_use]
pub fn check_combo(s: &Scenario, layout: &Layout) -> Outcome {
    // The verified schedule every pass reads.
    let schedule = match build_schedule(&s.model, layout, s.batch, 1) {
        Ok(sch) => sch,
        Err(e) => return classify(format!("schedule: {e}")),
    };
    if let Err(e) = schedule.verify() {
        return classify(format!("schedule: {e}"));
    }
    check_schedule(s, &schedule)
}

/// Run every pass on `schedule`, a verified schedule of scenario `s`,
/// compiled first into the program every chip runs.
#[must_use]
pub fn check_schedule(s: &Scenario, schedule: &Schedule) -> Outcome {
    let compile = |sch: &Schedule| ChipProgram::compile(sch, &s.model).map_err(|e| format!("compile: {e}"));
    let program = match compile(schedule) {
        Ok(p) => p,
        Err(e) => return Outcome::Fail(e),
    };
    // Pass 1: the paper's comm table against the schedule.
    let pieces = schedule.layout.layer_comm(&s.model, s.batch as f64);
    let comm = match check_comm_table(&s.model, schedule, &pieces) {
        Ok(r) => r,
        Err(e) => return Outcome::Fail(format!("comm table: {e}")),
    };
    // Pass 2: SPMD conformance of the program every chip runs.
    let spmd = match check_program_spmd(&program) {
        Ok(r) => r,
        Err(e) => return Outcome::Fail(format!("spmd: {e}")),
    };
    // Pass 3: memory fit.
    let mem = check_memory_fit(&s.machine, &s.model, schedule, s.context, s.weight_dtype, s.kv_dtype);
    if !mem.fits {
        return Outcome::Fail(format!("memory: over HBM — {}", mem.summary()));
    }
    // Pass 4: fault-path liveness: every rank × collective call site ×
    // {crash, stall}.
    let liveness = match check_program_liveness(&program) {
        Ok(r) => r,
        Err(e) => return Outcome::Fail(format!("liveness: {e}")),
    };
    // Pass 5: quant dataflow, when this scenario stores int8 weights. The
    // annotated schedule must compile (only a stored weight's gathered parts
    // travel int8), stay SPMD-clean (wire agreement), and move every
    // quantized stream below its dense volume.
    let quant = if s.weight_dtype == DType::Int8 {
        let q = schedule.clone().with_weight_dtype(DType::Int8);
        let qp = match compile(&q) {
            Ok(p) => p,
            Err(e) => return Outcome::Fail(e),
        };
        if let Err(e) = check_program_spmd(&qp) {
            return Outcome::Fail(format!("int8 spmd: {e}"));
        }
        match check_quantflow(&q, &qp) {
            Ok(r) => Some(r),
            Err(e) => return Outcome::Fail(e.to_string()),
        }
    } else {
        None
    };
    Outcome::Pass { comm, spmd, mem: Box::new(mem), liveness, quant }
}

/// The scheduler configuration the shipped batcher runs with (the
/// `spec_matches_the_live_scheduler` test in [`crate::lifecycle`] pins this
/// literal to what a real `ContinuousBatcher` reports).
#[must_use]
pub fn default_batcher_spec() -> BatcherSpec {
    BatcherSpec {
        slots: 4,
        max_recoveries: 3,
        page_size: esti_runtime::DEFAULT_KV_PAGE_SIZE,
        pool_pages: None,
        preemption: true,
    }
}

/// The scenario-independent protocol rows: currently the serving slot
/// lifecycle over the shipped scheduler parameters.
#[must_use]
pub fn protocol_rows() -> Vec<ComboResult> {
    let spec = default_batcher_spec();
    let outcome = match check_lifecycle(&spec) {
        Ok(r) => Outcome::Verified(format!(
            "{} traces, {} steps, {} recoveries, {} preemptions, {} budget stops",
            r.traces, r.steps, r.recoveries, r.preemptions, r.recovery_limits
        )),
        Err(e) => Outcome::Fail(e.to_string()),
    };
    vec![ComboResult {
        scenario: "serving protocol".to_string(),
        layout: format!(
            "slot lifecycle (slots={}, recovery budget={})",
            spec.slots, spec.max_recoveries
        ),
        outcome,
    }]
}

/// The shipped scenario list: every built-in model on a slice it is meant
/// to serve on, at the paper's dtypes.
#[must_use]
pub fn builtin_scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    let mk = |model: ModelConfig, n: usize, batch: usize, context: usize, wd: DType, kd: DType| {
        Scenario {
            model,
            machine: Machine::tpu_v4_slice(n).expect("catalog slice"),
            batch,
            context,
            weight_dtype: wd,
            kv_dtype: kd,
        }
    };
    v.push(mk(ModelConfig::tiny(), 8, 32, 64, DType::Bf16, DType::Bf16));
    v.push(mk(ModelConfig::tiny_multihead(), 8, 32, 64, DType::Bf16, DType::Bf16));
    v.push(mk(ModelConfig::palm_8b(), 8, 64, 1024, DType::Bf16, DType::Bf16));
    v.push(mk(ModelConfig::palm_62b(), 32, 128, 1024, DType::Bf16, DType::Bf16));
    // 540B at bf16 does not fit 64 chips with margin; the paper serves it
    // int8-quantized (Section 3.6). Batch/context sized so even the
    // baseline head-sharded-attention variant (which replicates the single
    // multiquery KV head on every chip) stays within HBM.
    v.push(mk(ModelConfig::palm_540b(), 64, 64, 1024, DType::Int8, DType::Int8));
    v.push(mk(ModelConfig::palm_540b_padded(), 64, 64, 1024, DType::Int8, DType::Int8));
    v
}

/// Sweep one scenario over all layout combinations plus the planner's
/// decode choice for the scenario batch.
#[must_use]
pub fn run_scenario(s: &Scenario) -> Vec<ComboResult> {
    let name = format!("{} @ {} chips", s.model.name, s.machine.n_chips());
    let mut results = Vec::new();
    for layout in sweep_layouts(&s.model, s.machine.n_chips()) {
        results.push(ComboResult {
            scenario: name.clone(),
            layout: layout.describe(),
            outcome: check_combo(s, &layout),
        });
    }
    // The planner's own decode layout must never be Skipped: it is chosen
    // for this model/slice/batch, so an incompatibility is a planner bug.
    let chosen = planner::decode_layout_for_batch(&s.model, &s.machine, s.batch);
    let outcome = match check_combo(s, &chosen) {
        Outcome::Skipped(e) => Outcome::Fail(format!("planner chose an inapplicable layout: {e}")),
        other => other,
    };
    results.push(ComboResult {
        scenario: name,
        layout: format!("planner decode: {}", chosen.describe()),
        outcome,
    });
    results
}

/// Run every built-in scenario plus the scenario-independent protocol
/// rows. The lint passes iff no [`Outcome::Fail`].
#[must_use]
pub fn run_all() -> Vec<ComboResult> {
    let mut results: Vec<ComboResult> =
        builtin_scenarios().iter().flat_map(run_scenario).collect();
    results.extend(protocol_rows());
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_sweep_has_no_failures() {
        let results = run_all();
        assert!(!results.is_empty());
        let mut passes = 0;
        let mut verified = 0;
        let mut quant_rows = 0;
        for r in &results {
            match &r.outcome {
                Outcome::Fail(e) => panic!("{} | {}: {e}", r.scenario, r.layout),
                Outcome::Pass { liveness, quant, .. } => {
                    passes += 1;
                    // Every passing combination must have been fault-injected
                    // exhaustively: crash and stall at every call site.
                    assert!(liveness.call_sites > 0, "{} | {}", r.scenario, r.layout);
                    assert_eq!(
                        liveness.injections,
                        liveness.call_sites * 2,
                        "{} | {}",
                        r.scenario,
                        r.layout
                    );
                    if let Some(q) = quant {
                        quant_rows += 1;
                        assert!(q.wire_ratio() <= 1.0);
                    }
                }
                Outcome::Verified(_) => verified += 1,
                Outcome::Skipped(_) => {}
            }
        }
        assert!(passes > 0, "sweep should verify at least one combination");
        assert!(verified > 0, "the lifecycle protocol row must be present");
        assert!(quant_rows > 0, "int8 scenarios must produce quant-dataflow rows");
    }

    #[test]
    fn over_hbm_configuration_fails() {
        // Seeded bad plan for Pass 3: 540B bf16 on 8 chips.
        let model = ModelConfig::palm_540b();
        let s = Scenario {
            machine: Machine::tpu_v4_slice(8).unwrap(),
            batch: 64,
            context: 2048,
            weight_dtype: DType::Bf16,
            kv_dtype: DType::Bf16,
            model: model.clone(),
        };
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(8, model.d_model, model.d_ff),
        };
        match check_combo(&s, &layout) {
            Outcome::Fail(e) => assert!(e.contains("memory"), "got {e}"),
            Outcome::Pass { .. } | Outcome::Verified(_) => {
                panic!("540B bf16 on 8 chips must not pass")
            }
            Outcome::Skipped(e) => panic!("should fail, not skip: {e}"),
        }
    }

    #[test]
    fn multihead_batch_attention_skipped() {
        let model = ModelConfig::tiny_multihead();
        let s = Scenario {
            machine: Machine::tpu_v4_slice(8).unwrap(),
            batch: 32,
            context: 64,
            weight_dtype: DType::Bf16,
            kv_dtype: DType::Bf16,
            model: model.clone(),
        };
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(8, model.d_model, model.d_ff),
        };
        match check_combo(&s, &layout) {
            Outcome::Skipped(e) => assert!(e.contains("multiquery"), "got {e}"),
            Outcome::Pass { .. } | Outcome::Verified(_) => {
                panic!("multihead batch attention must be skipped")
            }
            Outcome::Fail(e) => panic!("should skip, not fail: {e}"),
        }
    }

    #[test]
    fn an_int8_activation_gather_fails_to_compile() {
        // Seeded defect: 2D's activation gather marked int8. The engine
        // moves activations dense, so the lint reports a typed failure
        // naming the step, not a panic.
        let model = ModelConfig::tiny();
        let s = Scenario {
            machine: Machine::tpu_v4_slice(8).unwrap(),
            batch: 32,
            context: 64,
            weight_dtype: DType::Bf16,
            kv_dtype: DType::Bf16,
            model: model.clone(),
        };
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: Layout::ws2d_mesh(8, model.d_model, model.d_ff),
        };
        let mut schedule = build_schedule(&model, &layout, s.batch, 1).unwrap();
        for step in &mut schedule.layer {
            if let esti_core::schedule::Step::Collective { label: "acts all-gather (yz)", wire, .. } = step {
                *wire = esti_core::schedule::WireFormat::Int8;
            }
        }
        match check_schedule(&s, &schedule) {
            Outcome::Fail(e) => assert!(e.starts_with("compile: acts all-gather (yz)"), "got {e}"),
            Outcome::Pass { .. } | Outcome::Verified(_) | Outcome::Skipped(_) => {
                panic!("an int8 activation gather must fail to compile")
            }
        }
    }
}
