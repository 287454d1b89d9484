//! Machine-readable descriptions of the runtime's execution conventions,
//! exported for the static analyzer.
//!
//! `esti-verify`'s quant-dataflow pass checks schedules against what the
//! engine *actually does* with quantized weight streams — which matrices
//! gather along which dimension, and so which axis their per-column scales
//! ride. Encoding those conventions here, next to the code that implements
//! them (the engine's `wg_cols` / `wg_rows` and `gather_layer`), keeps the
//! analyzer and the runtime from drifting apart silently: a new weight
//! stream must be added to this table to be verified, and the quant pass
//! rejects schedules whose streams it cannot find.

use esti_core::schedule::WireFormat;

use crate::engine::PartitionedEngine;
use crate::shard::WeightFormat;

/// One weight all-gather stream of the weight-gathered dataflow.
#[derive(Clone, Copy, Debug)]
pub struct WgStream {
    /// Schedule step label (`esti-core`'s weight all-gather labels).
    pub label: &'static str,
    /// Gather dimension of the stored shard (0 = rows, 1 = columns).
    pub dim: usize,
}

/// The weight streams the weight-gathered dataflows move per layer, with
/// the gather dimension each uses.
///
/// Must stay in lockstep with the engine's one executor (`wg_cols` /
/// `wg_rows` for the fully gathered dataflow, `gather_layer` for the
/// hybrid): `wq`/`wk`/`wv`/`w_in`/`w_gate` are column-sharded and gather
/// along dim 1, each arriving shard owning its output columns and their
/// scales outright; `wo`/`w_out` are row-sharded and gather along dim 0,
/// each source rank's scales landing once on that rank's accumulator before
/// the rank fold.
#[must_use]
pub fn wg_stream_plan() -> [WgStream; 7] {
    [
        WgStream { label: "wq weight all-gather", dim: 1 },
        WgStream { label: "wk weight all-gather", dim: 1 },
        WgStream { label: "wv weight all-gather", dim: 1 },
        WgStream { label: "wo weight all-gather", dim: 0 },
        WgStream { label: "w_in weight all-gather", dim: 1 },
        WgStream { label: "w_gate weight all-gather", dim: 1 },
        WgStream { label: "w_out weight all-gather", dim: 0 },
    ]
}

/// The wire format the engine's weight gathers use for a storage format:
/// int8 weights move quantized (values + per-column scales); every other
/// format gathers dense tensors.
#[must_use]
pub fn weight_wire_format(fmt: WeightFormat) -> WireFormat {
    match fmt {
        WeightFormat::Int8 => WireFormat::Int8,
        WeightFormat::Exact | WeightFormat::Bf16 => WireFormat::Dense,
    }
}

/// One JSON object describing the busiest chip shard's KV page pool:
/// page size, allocation high-water mark, live/free split, and how many
/// live pages are mapped by more than one slot (copy-on-write prompt
/// sharing).
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{kv_cache_json, PartitionedEngine, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
/// engine.set_kv_page_size(8);
/// assert!(kv_cache_json(&engine).contains("\"page_size\": 8"));
/// ```
#[must_use]
pub fn kv_cache_json(engine: &PartitionedEngine) -> String {
    let s = engine.kv_page_stats().unwrap_or_default();
    format!(
        "{{\"page_size\": {}, \"pages_allocated\": {}, \"pages_live\": {}, \
         \"pages_free\": {}, \"pages_shared\": {}}}",
        s.page_size, s.pages_allocated, s.pages_live, s.pages_free, s.pages_shared
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wg_plan_covers_each_stream_once() {
        let plan = wg_stream_plan();
        let mut seen = std::collections::HashSet::new();
        for s in plan {
            assert!(seen.insert(s.label), "duplicate stream {}", s.label);
            assert!(s.label.ends_with("weight all-gather"), "{}", s.label);
            assert!(s.dim < 2, "{}: quantized shards are rank-2, got dim {}", s.label, s.dim);
        }
    }

    #[test]
    fn only_int8_is_quantized_on_the_wire() {
        assert_eq!(weight_wire_format(WeightFormat::Int8), WireFormat::Int8);
        assert_eq!(weight_wire_format(WeightFormat::Exact), WireFormat::Dense);
        assert_eq!(weight_wire_format(WeightFormat::Bf16), WireFormat::Dense);
    }
}
