//! Machine-readable views of the engine's state for dumps and benchmarks.

use crate::engine::PartitionedEngine;

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
