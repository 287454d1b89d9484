//! Per-chip HBM accounting: weight shards and the KV cache.
//!
//! Section 2's "memory costs" and Table 1's max-context model. The KV cache
//! footprint per chip depends on the attention variant × sharding:
//!
//! * multihead, head-sharded: each chip stores `⌈H/n⌉` KV heads of every
//!   sequence (heads partially replicated once `n > H`, Section 3.3);
//! * multiquery, head-sharded ("baseline multiquery"): the single KV head
//!   is replicated on every chip — the memory savings are lost;
//! * multiquery, batch-sharded (the paper's optimized layout): each chip
//!   stores `⌈B/n⌉` sequences of the single KV head — an `n`-fold saving.

use esti_hal::DType;
use esti_model::ModelConfig;

use crate::layout::AttnSharding;
use crate::machine::Machine;

/// Fraction of HBM the paper reserves for the KV cache in Table 1.
pub const TABLE1_KV_FRACTION: f64 = 0.3;

/// KV-cache bytes per chip for `batch` sequences of `context` tokens.
#[must_use]
pub fn kv_bytes_per_chip(
    model: &ModelConfig,
    sharding: AttnSharding,
    n_chips: usize,
    batch: usize,
    context: usize,
    dtype: DType,
) -> f64 {
    let (heads, seqs) = match sharding {
        AttnSharding::Head => (model.n_kv_heads().div_ceil(n_chips).max(1), batch),
        AttnSharding::Batch => (model.n_kv_heads(), batch.div_ceil(n_chips)),
    };
    (2 * model.n_layers * seqs * context * heads * model.d_head) as f64 * dtype.bytes_f()
}

/// Weight bytes per chip (weights are always fully sharded over all chips).
#[must_use]
pub fn weight_bytes_per_chip(model: &ModelConfig, n_chips: usize, dtype: DType) -> f64 {
    model.weight_bytes(dtype) / n_chips as f64
}

/// Whether a configuration fits in HBM: weight shard + KV cache + four live
/// `[batch, d_model]` bf16 buffers must not exceed per-chip capacity. That
/// allowance is the analytic model's, which `perf` and Figure 8 read;
/// `esti-verify`'s memfit charges the schedule's buffer plan instead.
#[must_use]
pub fn fits_in_memory(
    machine: &Machine,
    model: &ModelConfig,
    sharding: AttnSharding,
    batch: usize,
    context: usize,
    weight_dtype: DType,
    kv_dtype: DType,
) -> bool {
    let n = machine.n_chips();
    let weights = weight_bytes_per_chip(model, n, weight_dtype);
    let kv = kv_bytes_per_chip(model, sharding, n, batch, context, kv_dtype);
    let acts = 4.0 * batch as f64 * model.d_model as f64 * 2.0;
    weights + kv + acts <= machine.chip.hbm_capacity * 0.95
}

/// Table 1's rows: max context for the three attention variants of
/// PaLM 540B on 64 chips — the bf16 positions per row that fit when
/// [`TABLE1_KV_FRACTION`] of HBM is reserved for the KV cache.
#[must_use]
pub fn table1_row(
    model: &ModelConfig,
    sharding: AttnSharding,
    machine: &Machine,
    batch: usize,
) -> usize {
    let budget = machine.chip.hbm_capacity * TABLE1_KV_FRACTION;
    let per_token = kv_bytes_per_chip(model, sharding, machine.n_chips(), batch, 1, DType::Bf16);
    (budget / per_token) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine64() -> Machine {
        Machine::tpu_v4_slice(64).unwrap()
    }

    #[test]
    fn table1_multihead_row() {
        // Paper: multihead (d_head 128), batch 128 -> 1320; batch 512 -> 330.
        let mh = ModelConfig::palm_540b_multihead();
        let m = machine64();
        let c128 = table1_row(&mh, AttnSharding::Head, &m, 128);
        let c512 = table1_row(&mh, AttnSharding::Head, &m, 512);
        assert!((c128 as f64 - 1320.0).abs() / 1320.0 < 0.05, "batch 128: {c128}");
        assert!((c512 as f64 - 330.0).abs() / 330.0 < 0.05, "batch 512: {c512}");
    }

    #[test]
    fn table1_baseline_multiquery_row() {
        // Paper: baseline multiquery (d_head 256), batch 128 -> 660.
        let mq = ModelConfig::palm_540b();
        let m = machine64();
        let c128 = table1_row(&mq, AttnSharding::Head, &m, 128);
        let c512 = table1_row(&mq, AttnSharding::Head, &m, 512);
        assert!((c128 as f64 - 660.0).abs() / 660.0 < 0.05, "batch 128: {c128}");
        assert!((c512 as f64 - 165.0).abs() / 165.0 < 0.06, "batch 512: {c512}");
    }

    #[test]
    fn table1_optimized_multiquery_row() {
        // Paper: optimized multiquery, batch 128 -> 43,000; batch 512 -> 10,700.
        let mq = ModelConfig::palm_540b();
        let m = machine64();
        let c128 = table1_row(&mq, AttnSharding::Batch, &m, 128);
        let c512 = table1_row(&mq, AttnSharding::Batch, &m, 512);
        assert!((c128 as f64 - 43_000.0).abs() / 43_000.0 < 0.05, "batch 128: {c128}");
        assert!((c512 as f64 - 10_700.0).abs() / 10_700.0 < 0.05, "batch 512: {c512}");
    }

    #[test]
    fn optimized_multiquery_is_32x_or_more() {
        // Headline claim: up to 32x longer context than multihead.
        let m = machine64();
        let mh = table1_row(&ModelConfig::palm_540b_multihead(), AttnSharding::Head, &m, 512);
        let opt = table1_row(&ModelConfig::palm_540b(), AttnSharding::Batch, &m, 512);
        assert!(opt as f64 / mh as f64 >= 32.0, "ratio {}", opt as f64 / mh as f64);
    }

    /// KV bytes per chip of `model` over `n` chips at `batch` rows, as a
    /// multiple of one whole head of one sequence.
    fn kv_units(model: &ModelConfig, sharding: AttnSharding, n: usize, batch: usize) -> f64 {
        let one_head = kv_bytes_per_chip(model, AttnSharding::Head, model.n_kv_heads(), 1, 16, DType::Bf16);
        kv_bytes_per_chip(model, sharding, n, batch, 16, DType::Bf16) / one_head
    }

    #[test]
    fn kv_heads_partially_replicate_beyond_head_count() {
        let mh = ModelConfig::palm_540b_multihead(); // 48 KV heads
        assert_eq!(kv_units(&mh, AttnSharding::Head, 16, 1), 3.0);
        assert_eq!(kv_units(&mh, AttnSharding::Head, 48, 1), 1.0);
        assert_eq!(kv_units(&mh, AttnSharding::Head, 64, 1), 1.0); // replicated
    }

    #[test]
    fn batch_sharding_divides_sequences() {
        let mq = ModelConfig::palm_540b(); // one KV head
        assert_eq!(kv_units(&mq, AttnSharding::Batch, 64, 512), 8.0);
        assert_eq!(kv_units(&mq, AttnSharding::Batch, 64, 32), 1.0); // partial
        assert_eq!(kv_units(&mq, AttnSharding::Head, 64, 512), 512.0);
    }

    #[test]
    fn weight_shard_scales_inverse_with_chips() {
        let model = ModelConfig::palm_62b();
        let w8 = weight_bytes_per_chip(&model, 8, DType::Bf16);
        let w64 = weight_bytes_per_chip(&model, 64, DType::Bf16);
        assert!((w8 / w64 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn palm_540b_bf16_does_not_fit_8_chips() {
        // 1.08 TB of bf16 weights / 8 chips = 135 GB per chip > 32 GiB.
        let model = ModelConfig::palm_540b();
        let m8 = Machine::tpu_v4_slice(8).unwrap();
        assert!(!fits_in_memory(&m8, &model, AttnSharding::Batch, 1, 128, DType::Bf16, DType::Bf16));
        let m64 = machine64();
        assert!(fits_in_memory(&m64, &model, AttnSharding::Batch, 64, 2048, DType::Bf16, DType::Bf16));
    }

    #[test]
    fn long_context_multihead_exhausts_memory() {
        // Figure 8's dotted line: the full 118-layer multihead model at
        // batch 256, context > ~512 does not fit on 64 chips.
        let mh = ModelConfig::palm_540b_multihead();
        let m = machine64();
        assert!(!fits_in_memory(&m, &mh, AttnSharding::Head, 256, 2048, DType::Bf16, DType::Bf16));
        let opt = ModelConfig::palm_540b();
        assert!(fits_in_memory(&m, &opt, AttnSharding::Batch, 256, 2048, DType::Bf16, DType::Bf16));
    }
}
