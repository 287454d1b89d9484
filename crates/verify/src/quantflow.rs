//! Pass 5 — quantized-dataflow volume (Section 3.6).
//!
//! Section 3.6 moves int8 weights *in their wire format*: 1-byte values
//! plus one f32 scale per output column, dequantized only at the point of
//! use. Which exchanges travel int8 is the compiled program's business: only
//! a stored weight's gathered parts ([`Exchange::Weight`]) carry a wire
//! format, and [`ChipProgram::compile`] rejects an int8 wire on anything
//! else, which would carry no scales. What is left to check is
//! **wire-volume drift**: the quantized byte count, by the closed form the
//! traffic ledger charges ([`esti_collectives::quant_wire_bytes`]), must
//! stay strictly below the dense volume it replaces, or the "int8" stream
//! moves more bytes than the dense bf16 path.
//!
//! This pass walks every int8 [`Exchange::Weight`] of a program, sizes the
//! stored matrix it gathers as the engine cuts it ([`matrix_dims`]), and
//! checks that volume.

use std::fmt;

use esti_collectives::{quant_wire_bytes, ACT_BYTES};
use esti_core::schedule::{matrix_dims, ChipProgram, Exchange, Operand, Schedule, WireFormat};

/// Successful quant-dataflow check of one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantflowReport {
    /// Int8-annotated collective steps checked (0 for schedules that move
    /// no quantized weights, e.g. non-weight-gathered layouts).
    pub quant_steps: usize,
    /// Distinct weight streams those steps covered.
    pub streams_covered: usize,
    /// Total per-chip quantized wire bytes implied by the schedule
    /// (ledger closed form, summed over steps).
    pub quant_bytes: usize,
    /// Dense bf16 bytes the same gathers would move unquantized.
    pub dense_bytes: usize,
}

impl QuantflowReport {
    /// Quantized-to-dense wire ratio (1.0 when nothing is quantized).
    #[must_use]
    pub fn wire_ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            1.0
        } else {
            // Byte counts are far below 2^52; the casts are exact.
            #[allow(clippy::cast_precision_loss)]
            {
                self.quant_bytes as f64 / self.dense_bytes as f64
            }
        }
    }
}

/// Why the quant-dataflow check rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantflowError {
    /// Quantized shards store as `[rows, cols]` matrices whose columns
    /// carry the scales; a rank-1 tensor has no scale axis.
    NotAMatrix {
        /// Offending step label.
        label: &'static str,
        /// The local shape found.
        shape: Vec<usize>,
    },
    /// The quantized wire volume is not strictly below the dense volume it
    /// replaces — the int8 annotation is an accounting lie.
    WireVolumeMismatch {
        /// Offending step label.
        label: &'static str,
        /// Quantized bytes (ledger closed form).
        quant: usize,
        /// Dense bf16 bytes.
        dense: usize,
    },
    /// The schedule lacks the weight a program gathers.
    Extraction(String),
}

impl fmt::Display for QuantflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantflowError::NotAMatrix { label, shape } => write!(
                f,
                "quantflow: \"{label}\" quantized shard must be at least rank-2, got {shape:?}"
            ),
            QuantflowError::WireVolumeMismatch { label, quant, dense } => write!(
                f,
                "quantflow: \"{label}\" quantized wire ({quant} B) is not below the dense \
                 volume it replaces ({dense} B)"
            ),
            QuantflowError::Extraction(e) => write!(f, "quantflow: {e}"),
        }
    }
}

/// Check the wire volume of every int8 weight gather of `program`, compiled
/// from `schedule`, over one layer and the final steps.
///
/// # Errors
///
/// The first [`QuantflowError`] found, in program order.
pub fn check_quantflow(schedule: &Schedule, program: &ChipProgram) -> Result<QuantflowReport, QuantflowError> {
    let mut quant_steps = 0usize;
    let mut covered: Vec<&'static str> = Vec::new();
    let mut quant_bytes = 0usize;
    let mut dense_bytes = 0usize;

    for c in program.collectives(1) {
        let (label, shape) = (c.label, &c.shape);
        let Exchange::Weight { role, wire: WireFormat::Int8, .. } = c.send else {
            continue;
        };
        quant_steps += 1;
        if !covered.contains(&label) {
            covered.push(label);
        }
        if shape.len() < 2 {
            return Err(QuantflowError::NotAMatrix { label, shape: shape.clone() });
        }
        // The stored shard is the `[rows, cols]` matrix the engine cuts;
        // scales ride its columns.
        let weight = schedule.tensor(Operand::Weight(role)).map_err(QuantflowError::Extraction)?;
        let mut matrix = [1, 1];
        for (m, n) in matrix_dims(&weight.spec).zip(shape) {
            matrix[m] *= n;
        }
        let [rows, cols] = matrix;
        let g = program.torus.group_size(program.group_axes[c.group]);
        let quant = quant_wire_bytes(g, rows, cols);
        let dense = g * rows * cols * usize::try_from(ACT_BYTES).unwrap_or(2);
        if quant >= dense {
            return Err(QuantflowError::WireVolumeMismatch { label, quant, dense });
        }
        quant_bytes += quant;
        dense_bytes += dense;
    }

    Ok(QuantflowReport {
        quant_steps,
        streams_covered: covered.len(),
        quant_bytes,
        dense_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::{build_schedule, Step, SymOp};
    use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout};
    use esti_hal::DType;
    use esti_model::ModelConfig;

    /// [`check_quantflow`] on the program compiled from `s`.
    fn check(s: &Schedule, cfg: &ModelConfig) -> Result<QuantflowReport, QuantflowError> {
        check_quantflow(s, &ChipProgram::compile(s, cfg).unwrap())
    }

    #[test]
    fn weight_gathered_int8_schedule_passes_with_savings() {
        // `tiny()` scaled up: a 4-way row shard needs more than 4 local rows
        // for its per-column scales to stay below the dense fp16 volume the
        // int8 values replace.
        let mut cfg = ModelConfig::tiny();
        cfg.n_heads = 16;
        cfg.d_head = 32;
        cfg.d_model = 64;
        cfg.d_ff = 512;
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let s = build_schedule(&cfg, &layout, 8, 1).unwrap().with_weight_dtype(DType::Int8);
        let report = check(&s, &cfg).unwrap();
        assert!(report.quant_steps > 0);
        assert!(report.streams_covered >= 5);
        assert!(report.wire_ratio() < 1.0, "int8 wire must beat dense, got {}", report.wire_ratio());
    }

    #[test]
    fn dense_schedule_has_nothing_to_check() {
        let cfg = ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        };
        let report = check(&build_schedule(&cfg, &layout, 8, 1).unwrap(), &cfg).unwrap();
        assert_eq!(report.quant_steps, 0);
        assert!((report.wire_ratio() - 1.0).abs() < f64::EPSILON);
    }

    /// A 2D schedule with the first collective `pick` selects marked int8,
    /// and that collective's label.
    fn int8_marked(pick: impl Fn(&'static str, SymOp) -> bool) -> (Schedule, &'static str) {
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let mut s = build_schedule(&ModelConfig::tiny(), &layout, 8, 1).unwrap();
        let label = s
            .layer
            .iter_mut()
            .find_map(|st| match st {
                Step::Collective { label, op, wire, .. } if pick(label, *op) => {
                    *wire = WireFormat::Int8;
                    Some(*label)
                }
                _ => None,
            })
            .expect("2D runs the collective");
        (s, label)
    }

    #[test]
    fn dropped_scale_rejected() {
        // Seed a schedule-side mutation: mark 2D's activation gather as int8
        // wire. An activation carries no per-column scales to apply, and the
        // engine moves it dense, so the program does not compile.
        let (s, label) = int8_marked(|label, _| label == "acts all-gather (yz)");
        let err = ChipProgram::compile(&s, &ModelConfig::tiny()).unwrap_err();
        assert!(err.starts_with(label) && err.contains("int8"), "got {err}");
    }

    #[test]
    fn int8_annotation_on_non_gather_rejected() {
        // Seed a schedule-side mutation: mark a non-all-gather collective
        // (a 2D layout's reduce-scatter/all-reduce traffic) as int8 wire.
        let (s, label) = int8_marked(|_, op| !matches!(op, SymOp::AllGather { .. }));
        let err = ChipProgram::compile(&s, &ModelConfig::tiny()).unwrap_err();
        assert!(err.starts_with(label) && err.contains("int8"), "got {err}");
    }
}
