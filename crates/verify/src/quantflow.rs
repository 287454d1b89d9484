//! Pass 5 — quantized-dataflow conformance (dtype and scale provenance).
//!
//! Section 3.6 moves int8 weights *in their wire format*: 1-byte values
//! plus one f32 scale per output column, dequantized only at the point of
//! use. That discipline has two failure modes the type system cannot see:
//!
//! * **dropped scales** — a quantized stream the executor has no
//!   scale-application plan for, or one gathered along a dimension the
//!   executor's scale axis does not follow;
//! * **wire-volume drift** — the schedule's implied quantized byte count
//!   disagreeing with the closed form the traffic ledger charges
//!   ([`esti_collectives::quant_wire_bytes`]), e.g. an "int8" stream that
//!   actually moves more bytes than the dense bf16 path it replaces.
//!
//! This pass walks every [`WireFormat::Int8`]-annotated collective of a
//! schedule (see `Plan::with_weight_dtype`) and checks it against the
//! runtime's stream table ([`esti_runtime::wg_stream_plan`]): the step must
//! be a weight all-gather the executor knows, gathered along the dimension
//! the stream's shards are sharded on; and its wire volume, by the ledger's
//! closed form, must stay strictly below the dense volume it replaces.

use std::fmt;

use esti_collectives::{quant_wire_bytes, ACT_BYTES};
use esti_core::schedule::{Schedule, Step, SymOp, WireFormat};
use esti_runtime::{wg_stream_plan, WgStream};

/// Successful quant-dataflow check of one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantflowReport {
    /// Int8-annotated collective steps checked (0 for schedules that move
    /// no quantized weights, e.g. non-weight-gathered layouts).
    pub quant_steps: usize,
    /// Distinct executor streams those steps covered.
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

/// Why the quant-dataflow check rejected a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantflowError {
    /// An int8 wire annotation on a collective that is not an all-gather:
    /// only weight gathers move the quantized format.
    NotAllGather {
        /// Offending step label.
        label: &'static str,
    },
    /// A quantized stream the executor has no entry for — its per-column
    /// scales would never be applied (dropped).
    DroppedScales {
        /// Offending step label.
        label: &'static str,
    },
    /// Quantized shards store as matrices (leading dim = rows, trailing
    /// dims flattened into columns carrying the scales); a sub-matrix
    /// tensor has no scale axis.
    NotAMatrix {
        /// Offending step label.
        label: &'static str,
        /// The local shape found.
        shape: Vec<usize>,
    },
    /// The schedule gathers along one dimension but the executor's stream
    /// is sharded along another — scale provenance would not line up.
    GatherDimMismatch {
        /// Offending step label.
        label: &'static str,
        /// Dimension the executor's stream gathers (0 = rows, 1 = cols).
        stream_dim: usize,
        /// Dimension the schedule gathers.
        schedule_dim: usize,
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
    /// Schedule extraction failed (shape not divisible on the torus).
    Extraction(String),
}

impl fmt::Display for QuantflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantflowError::NotAllGather { label } => {
                write!(f, "quantflow: \"{label}\" moves int8 wire but is not an all-gather")
            }
            QuantflowError::DroppedScales { label } => write!(
                f,
                "quantflow: \"{label}\" is quantized but no executor stream applies its \
                 scales (dropped per-column scales)"
            ),
            QuantflowError::NotAMatrix { label, shape } => write!(
                f,
                "quantflow: \"{label}\" quantized shard must be at least rank-2, got {shape:?}"
            ),
            QuantflowError::GatherDimMismatch { label, stream_dim, schedule_dim } => write!(
                f,
                "quantflow: \"{label}\" gathers dim {schedule_dim} but the executor stream \
                 is sharded along dim {stream_dim}"
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

/// Check every int8-annotated collective of `schedule` against the
/// executor's stream table `plan`.
///
/// # Errors
///
/// The first [`QuantflowError`] found, in schedule order.
pub fn check_quantflow(
    schedule: &Schedule,
    plan: &[WgStream],
) -> Result<QuantflowReport, QuantflowError> {
    let torus = schedule.torus;
    let mut quant_steps = 0usize;
    let mut covered: Vec<&'static str> = Vec::new();
    let mut quant_bytes = 0usize;
    let mut dense_bytes = 0usize;

    for step in schedule.layer.iter().chain(&schedule.final_steps) {
        let Step::Collective { label, op, axes, input, wire, .. } = step else {
            continue;
        };
        if *wire != WireFormat::Int8 {
            continue;
        }
        quant_steps += 1;
        let SymOp::AllGather { dim: gather_dim } = *op else {
            return Err(QuantflowError::NotAllGather { label });
        };
        let stream = plan
            .iter()
            .find(|s| s.label == *label)
            .ok_or(QuantflowError::DroppedScales { label })?;
        if !covered.contains(label) {
            covered.push(label);
        }
        let shape = input
            .local_shape(torus)
            .map_err(QuantflowError::Extraction)?;
        if shape.len() < 2 {
            return Err(QuantflowError::NotAMatrix { label, shape });
        }
        let schedule_dim = input
            .dim_index(gather_dim)
            .ok_or_else(|| QuantflowError::Extraction(format!(
                "step \"{label}\": gathered dimension {gather_dim} not in tensor"
            )))?;
        // The stored shard is a matrix (`shard.rs` folds the head dims
        // together): a row-gathered stream stores `[.. , E]` as
        // `[prod(leading), E]`, a column-gathered one stores `[E, ..]` as
        // `[E, prod(trailing)]`. Scales ride the columns either way.
        let matrix_dim = usize::from(schedule_dim != 0);
        if matrix_dim != stream.dim {
            return Err(QuantflowError::GatherDimMismatch {
                label,
                stream_dim: stream.dim,
                schedule_dim: matrix_dim,
            });
        }
        let (rows, cols) = if matrix_dim == 0 {
            (shape[..shape.len() - 1].iter().product::<usize>(), shape[shape.len() - 1])
        } else {
            (shape[0], shape[1..].iter().product::<usize>())
        };
        let g = torus.group_size(*axes);
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

/// Run the pass against the runtime's actual stream table.
///
/// # Errors
///
/// Returns the formatted [`QuantflowError`].
pub fn check_schedule_quantflow(schedule: &Schedule) -> Result<QuantflowReport, String> {
    check_quantflow(schedule, &wg_stream_plan()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::build_schedule;
    use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout};
    use esti_hal::DType;

    fn wg_int8() -> Schedule {
        // `tiny()` scaled up: a 4-way row shard needs more than 4 local rows
        // for its per-column scales to stay below the dense fp16 volume the
        // int8 values replace.
        let mut cfg = esti_model::ModelConfig::tiny();
        cfg.n_heads = 16;
        cfg.d_head = 32;
        cfg.d_model = 64;
        cfg.d_ff = 512;
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        build_schedule(&cfg, &layout, 8, 1).unwrap().with_weight_dtype(DType::Int8)
    }

    #[test]
    fn weight_gathered_int8_schedule_passes_with_savings() {
        let report = check_schedule_quantflow(&wg_int8()).unwrap();
        assert!(report.quant_steps > 0);
        assert!(report.streams_covered >= 5);
        assert!(report.wire_ratio() < 1.0, "int8 wire must beat dense, got {}", report.wire_ratio());
    }

    #[test]
    fn dense_schedule_has_nothing_to_check() {
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 1, 1),
        };
        let s = build_schedule(&cfg, &layout, 8, 1).unwrap();
        let report = check_schedule_quantflow(&s).unwrap();
        assert_eq!(report.quant_steps, 0);
        assert!((report.wire_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn dropped_scale_rejected() {
        // Remove a stream from the executor table: the quantized gather
        // would arrive with scales nobody applies.
        let s = wg_int8();
        let plan: Vec<WgStream> = wg_stream_plan()
            .into_iter()
            .filter(|st| st.label != "wq weight all-gather")
            .collect();
        let err = check_quantflow(&s, &plan).unwrap_err();
        assert!(
            matches!(err, QuantflowError::DroppedScales { label } if label == "wq weight all-gather"),
            "got {err}"
        );
    }

    #[test]
    fn wrong_gather_dim_rejected() {
        let s = wg_int8();
        let mut plan = wg_stream_plan();
        // Claim wq is row-sharded: the schedule's column gather no longer
        // lines up with where the executor expects the scale axis.
        let wq = plan
            .iter_mut()
            .find(|st| st.label == "wq weight all-gather")
            .unwrap();
        wq.dim = 0;
        let err = check_quantflow(&s, &plan).unwrap_err();
        assert!(matches!(err, QuantflowError::GatherDimMismatch { .. }), "got {err}");
    }

    #[test]
    fn int8_annotation_on_non_gather_rejected() {
        // Seed a schedule-side mutation: mark a non-all-gather collective
        // (a 2D layout's reduce-scatter/all-reduce traffic) as int8 wire.
        let cfg = esti_model::ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let mut s = build_schedule(&cfg, &layout, 8, 1).unwrap();
        let step = s
            .layer
            .iter_mut()
            .find_map(|st| match st {
                Step::Collective { op, wire, .. } if !matches!(op, SymOp::AllGather { .. }) => {
                    Some(wire)
                }
                _ => None,
            })
            .expect("2D schedules carry non-gather collectives");
        *step = WireFormat::Int8;
        let err = check_schedule_quantflow(&s).unwrap_err();
        assert!(err.contains("not an all-gather"), "got {err}");
    }
}
