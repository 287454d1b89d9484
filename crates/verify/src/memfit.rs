//! Pass 3 — static memory-fit analysis.
//!
//! Sums the per-chip weight shard, KV cache, and activation working set
//! for a (machine, model, layout, batch, context) configuration against
//! the esti-hal HBM capacity, reporting the margin. A configuration whose
//! steady-state residents overflow HBM is a hard failure; a
//! weight-gathered layout whose *transient* gathered-weights working set
//! overflows (Section 3.5) is reported as a warning, since the runtime can
//! trade it off by gathering in chunks.
//!
//! [`check_memory_fit`] charges the dense KV policy: `batch ×
//! context` positions regardless of actual lengths.
//! [`check_memory_fit_paged`] charges a paged pool instead: each request
//! holds `ceil(len / page_size)` pages at its worst-case length, full
//! pages inside a common shared prefix are counted **once** across the
//! fleet (copy-on-write sharing), and pool bytes are `pages × page_size ×`
//! the model's per-position K/V footprint.

use esti_core::memory::{
    kv_bytes_per_chip, weight_bytes_per_chip, wg_working_set_bytes,
};
use esti_core::{AttnSharding, FfnLayout, Layout, Machine};
use esti_hal::DType;
use esti_model::ModelConfig;

/// Fraction of HBM usable for model state (the rest is runtime overhead).
pub const USABLE_HBM_FRACTION: f64 = 0.95;

/// Per-chip memory accounting for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemReport {
    /// Weight-shard bytes resident per chip.
    pub weight_bytes: f64,
    /// KV-cache bytes resident per chip.
    pub kv_bytes: f64,
    /// Activation working-set bytes per chip.
    pub act_bytes: f64,
    /// Usable per-chip HBM bytes (capacity × [`USABLE_HBM_FRACTION`]).
    pub capacity: f64,
    /// Whether the steady-state residents fit.
    pub fits: bool,
    /// Remaining capacity as a fraction of usable HBM (negative if over).
    pub margin_frac: f64,
    /// Set when a weight-gathered layout's transient working set would
    /// exceed the remaining capacity.
    pub wg_warning: Option<String>,
    /// Paged-KV pool size backing `kv_bytes`, when the paged policy was
    /// accounted ([`check_memory_fit_paged`]); `None` under the dense
    /// policy.
    pub kv_pages: Option<usize>,
}

impl MemReport {
    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let gib = 1024.0 * 1024.0 * 1024.0;
        format!(
            "{:.2} GiB weights + {:.2} GiB kv + {:.3} GiB acts vs {:.1} GiB usable \
             ({:+.1}% margin){}",
            self.weight_bytes / gib,
            self.kv_bytes / gib,
            self.act_bytes / gib,
            self.capacity / gib,
            self.margin_frac * 100.0,
            if self.wg_warning.is_some() { " [wg warning]" } else { "" }
        )
    }
}

/// Compute the memory report for one configuration.
///
/// Mirrors [`esti_core::memory::fits_in_memory`] (same activation
/// allowance) but itemizes the terms and adds the weight-gathered
/// working-set warning of [`esti_core::memory::wg_fits_in_memory`].
#[must_use]
pub fn check_memory_fit(
    machine: &Machine,
    model: &ModelConfig,
    layout: &Layout,
    batch: usize,
    context: usize,
    weight_dtype: DType,
    kv_dtype: DType,
) -> MemReport {
    let n = machine.n_chips();
    let weight_bytes = weight_bytes_per_chip(model, n, weight_dtype);
    let kv_bytes = kv_bytes_per_chip(model, layout.attn, n, batch, context, kv_dtype);
    let act_bytes = 4.0 * batch as f64 * model.d_model as f64 * 2.0;
    let capacity = machine.chip.hbm_capacity * USABLE_HBM_FRACTION;
    let resident = weight_bytes + kv_bytes + act_bytes;
    let fits = resident <= capacity;
    let margin_frac = (capacity - resident) / capacity;

    let wg_warning = match layout.ffn {
        FfnLayout::WeightGathered(extent) => {
            let n_gather = extent.n_gather(layout.mesh);
            let working = wg_working_set_bytes(model, n_gather, n, weight_dtype);
            (resident + working > capacity).then(|| {
                let gib = 1024.0 * 1024.0 * 1024.0;
                format!(
                    "transient gathered-weights working set ({:.2} GiB, double-buffered \
                     x{n_gather} gather) exceeds the remaining {:.2} GiB; the runtime \
                     must gather in chunks (Section 3.5)",
                    working / gib,
                    (capacity - resident) / gib,
                )
            })
        }
        FfnLayout::WeightStationary1D | FfnLayout::WeightStationary2D => None,
    };

    MemReport {
        weight_bytes,
        kv_bytes,
        act_bytes,
        capacity,
        fits,
        margin_frac,
        wg_warning,
        kv_pages: None,
    }
}

/// One request of a paged serving workload, for pool sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedRequest {
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Leading prompt tokens drawn from the fleet's common shared prefix
    /// (a system prompt / few-shot header); must not exceed `prompt_len`.
    pub shared_prefix: usize,
    /// Worst-case generated tokens (the pool reserves for them).
    pub max_new: usize,
}

/// `(shared union, private)` page counts for a paged pool at worst case:
/// full pages inside the common shared prefix counted once across the
/// fleet, everything else (prompt tails, generation growth) per request.
fn paged_pool_parts(page_size: usize, requests: &[PagedRequest]) -> (usize, usize) {
    assert!(page_size > 0, "page size must be positive");
    let mut shared_union = 0usize;
    let mut private = 0usize;
    for r in requests {
        assert!(r.shared_prefix <= r.prompt_len, "shared prefix cannot exceed the prompt");
        let total = (r.prompt_len + r.max_new).div_ceil(page_size);
        let shared = (r.shared_prefix / page_size).min(total);
        shared_union = shared_union.max(shared);
        private += total - shared;
    }
    (shared_union, private)
}

/// Pages a paged KV pool needs for `requests` at worst case: every full
/// page inside the common shared prefix counted once across the fleet,
/// plus each request's private pages (prompt tail and generation growth).
#[must_use]
pub fn paged_pool_pages(page_size: usize, requests: &[PagedRequest]) -> usize {
    let (shared, private) = paged_pool_parts(page_size, requests);
    shared + private
}

/// [`check_memory_fit`] under the paged KV policy: the KV term charges the
/// pool [`paged_pool_pages`] sizes for this workload — shared prefix pages
/// once, every other page at worst-case request length — instead of the
/// dense `batch × context`. Per chip, head sharding keeps every
/// page resident at `1/n` of the head width, while batch sharding spreads
/// rows (hence private pages) over chips with each chip sharing the prefix
/// among its own rows.
#[must_use]
pub fn check_memory_fit_paged(
    machine: &Machine,
    model: &ModelConfig,
    layout: &Layout,
    page_size: usize,
    requests: &[PagedRequest],
    weight_dtype: DType,
    kv_dtype: DType,
) -> MemReport {
    let n = machine.n_chips();
    let (shared, private) = paged_pool_parts(page_size, requests);
    let pool = shared + private;
    let per_chip_pages = match layout.attn {
        AttnSharding::Head => pool,
        AttnSharding::Batch => shared + private.div_ceil(n),
    };
    let kv_bytes = kv_bytes_per_chip(
        model,
        layout.attn,
        n,
        1,
        per_chip_pages * page_size,
        kv_dtype,
    );
    // Weights, activations, capacity, and the weight-gathered transient
    // warning from the dense pass with the KV term zeroed out, re-derived
    // against the paged KV bytes.
    let base = check_memory_fit(machine, model, layout, requests.len(), 0, weight_dtype, kv_dtype);
    let resident = base.weight_bytes + kv_bytes + base.act_bytes;
    let fits = resident <= base.capacity;
    let margin_frac = (base.capacity - resident) / base.capacity;
    let wg_warning = match layout.ffn {
        FfnLayout::WeightGathered(extent) => {
            let n_gather = extent.n_gather(layout.mesh);
            let working = wg_working_set_bytes(model, n_gather, n, weight_dtype);
            (resident + working > base.capacity).then(|| {
                let gib = 1024.0 * 1024.0 * 1024.0;
                format!(
                    "transient gathered-weights working set ({:.2} GiB, double-buffered \
                     x{n_gather} gather) exceeds the remaining {:.2} GiB; the runtime \
                     must gather in chunks (Section 3.5)",
                    working / gib,
                    (base.capacity - resident) / gib,
                )
            })
        }
        FfnLayout::WeightStationary1D | FfnLayout::WeightStationary2D => None,
    };
    MemReport { kv_bytes, fits, margin_frac, wg_warning, kv_pages: Some(pool), ..base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::{AttnSharding, GatherExtent};

    #[test]
    fn palm_540b_bf16_overflows_8_chips() {
        let machine = Machine::tpu_v4_slice(8).unwrap();
        let model = ModelConfig::palm_540b();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(8, model.d_model, model.d_ff),
        };
        let r = check_memory_fit(&machine, &model, &layout, 64, 2048, DType::Bf16, DType::Bf16);
        assert!(!r.fits, "540B bf16 cannot fit 8 chips: {}", r.summary());
        assert!(r.margin_frac < 0.0);
    }

    #[test]
    fn palm_540b_int8_fits_64_chips() {
        let machine = Machine::tpu_v4_slice(64).unwrap();
        let model = ModelConfig::palm_540b();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(64, model.d_model, model.d_ff),
        };
        let r = check_memory_fit(&machine, &model, &layout, 64, 2048, DType::Int8, DType::Int8);
        assert!(r.fits, "540B int8 should fit 64 chips: {}", r.summary());
        assert!(r.wg_warning.is_none());
    }

    #[test]
    fn wg_working_set_warns_but_does_not_fail() {
        // Fully weight-gathered 540B at bf16 on 64 chips: the residents
        // fit but the transient gathered copy does not (Section 3.5).
        let machine = Machine::tpu_v4_slice(64).unwrap();
        let model = ModelConfig::palm_540b_padded();
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(64, model.d_model, model.d_ff),
        };
        let r = check_memory_fit(&machine, &model, &layout, 512, 2048, DType::Bf16, DType::Bf16);
        assert!(r.fits, "residents should fit: {}", r.summary());
        assert!(r.wg_warning.is_some(), "expected a working-set warning");
    }

    #[test]
    fn paged_pool_counts_shared_pages_once() {
        // 8 requests, all sharing a 48-token prefix of 56-token prompts,
        // 8 generated tokens, 8-token pages: 6 shared pages once, plus
        // ceil(64/8) - 6 = 2 private pages each.
        let reqs =
            vec![PagedRequest { prompt_len: 56, shared_prefix: 48, max_new: 8 }; 8];
        assert_eq!(paged_pool_pages(8, &reqs), 6 + 8 * 2);
        // Without sharing the same fleet needs 8 full block tables.
        let unshared =
            vec![PagedRequest { prompt_len: 56, shared_prefix: 0, max_new: 8 }; 8];
        assert_eq!(paged_pool_pages(8, &unshared), 8 * 8);
    }

    #[test]
    fn paged_pool_rounds_ragged_tails_up() {
        let reqs = [
            PagedRequest { prompt_len: 5, shared_prefix: 0, max_new: 2 },
            PagedRequest { prompt_len: 17, shared_prefix: 16, max_new: 0 },
            PagedRequest { prompt_len: 16, shared_prefix: 16, max_new: 1 },
        ];
        // ceil(7/8)=1 private; shared union 2 pages; r1: ceil(17/8)=3 − 2
        // shared = 1 private; r2: ceil(17/8)=3 − 2 = 1 private.
        assert_eq!(paged_pool_pages(8, &reqs), 2 + 1 + 1 + 1);
    }

    #[test]
    fn paged_fit_beats_slab_fit_on_shared_fleets() {
        // PaLM 540B int8 on 64 chips, head-sharded multiquery: every chip
        // holds the whole (replicated-head) cache, so a 64-way
        // shared-prefix fleet shrinks per-chip KV by the sharing factor.
        let machine = Machine::tpu_v4_slice(64).unwrap();
        let model = ModelConfig::palm_540b();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: Layout::ws2d_mesh(64, model.d_model, model.d_ff),
        };
        let reqs =
            vec![PagedRequest { prompt_len: 1792, shared_prefix: 1792, max_new: 256 }; 64];
        let paged = check_memory_fit_paged(
            &machine, &model, &layout, 16, &reqs, DType::Int8, DType::Int8,
        );
        let slab =
            check_memory_fit(&machine, &model, &layout, 64, 2048, DType::Int8, DType::Int8);
        assert!(paged.fits, "{}", paged.summary());
        assert!(
            paged.kv_bytes < slab.kv_bytes / 4.0,
            "sharing 1792 of 2048 positions must shrink the pool >4x: paged {} vs slab {}",
            paged.kv_bytes,
            slab.kv_bytes
        );
        let pages = paged.kv_pages.unwrap();
        assert_eq!(pages, 112 + 64 * 16); // 1792/16 shared once + 256/16 each
    }

    #[test]
    fn batch_sharded_pool_spreads_private_pages_over_chips() {
        // Batch sharding: 8 rows per chip on 8 chips — each chip shares
        // the prefix among its own rows, so per-chip KV still beats slab.
        let machine = Machine::tpu_v4_slice(8).unwrap();
        let model = ModelConfig::palm_540b();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Batch,
            mesh: Layout::ws2d_mesh(8, model.d_model, model.d_ff),
        };
        let reqs =
            vec![PagedRequest { prompt_len: 1792, shared_prefix: 1792, max_new: 256 }; 64];
        let paged = check_memory_fit_paged(
            &machine, &model, &layout, 16, &reqs, DType::Int8, DType::Int8,
        );
        let slab =
            check_memory_fit(&machine, &model, &layout, 64, 2048, DType::Int8, DType::Int8);
        // Per chip: 112 shared + ceil(1024/8) = 240 pages = 3840 positions
        // vs the slab's 8 rows x 2048 = 16384 positions.
        assert!(
            paged.kv_bytes < slab.kv_bytes / 4.0,
            "paged {} vs slab {}",
            paged.kv_bytes,
            slab.kv_bytes
        );
    }

    #[test]
    fn tiny_model_has_wide_margin() {
        let machine = Machine::tpu_v4_slice(8).unwrap();
        let model = ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 2),
        };
        let r = check_memory_fit(&machine, &model, &layout, 8, 64, DType::Bf16, DType::Bf16);
        assert!(r.fits);
        assert!(r.margin_frac > 0.99, "tiny model should leave >99% free");
    }
}
