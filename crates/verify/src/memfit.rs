//! Pass 3 — static memory-fit analysis.
//!
//! Sums what one chip holds under a verified [`Schedule`] against the
//! esti-hal HBM capacity, reporting the margin. Each term is read off what
//! ships:
//!
//! * **weights** — every stored weight's local shard in `Schedule.weights`,
//!   the specs the engine cuts its shards from: the layer roles once per
//!   layer, [`Role::EmbedT`] once;
//! * **KV** — the attention step's K input at one position (the chip's
//!   rows × heads × `d_head`, as the engine cuts its cache), for K and V in
//!   every layer: over `context` positions per row in [`check_memory_fit`],
//!   or over the page pool the shipped [`Scheduler`] and its [`PageLedger`]
//!   charge for a request set in [`check_memory_fit_paged`];
//! * **activations** — the peak of the compiled program's buffer plan
//!   ([`ChipProgram::plan`]), the slots each chip's lane holds at once in
//!   the engine, in bf16. A weight-gathered layout with a decode partner
//!   ([`decode_partner`]) stores its weights once and runs one program per
//!   phase, so it is charged the larger of the two programs' peaks.
//!
//! A configuration whose residents overflow HBM is a hard failure; a
//! weight-gathered layout whose *transient* working set — the weights the
//! program gathers in a layer, double-buffered —
//! overflows (Section 3.5) is reported as a warning, since the runtime can
//! trade it off by gathering in chunks.

use esti_core::layout::Layout;
use esti_core::schedule::{decode_partner, ChipProgram, Exchange, Instr, Role, Schedule, SymTensor};
use esti_core::scheduler::{Decision, Job, PageLedger, Scheduler};
use esti_core::serving::OverloadPolicy;
use esti_core::Machine;
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
    /// For a weight-gathered layout, the layout it decodes on over the same
    /// stored shards, or why it has none ([`decode_partner`]); `None` for
    /// every other layout.
    pub decode: Option<Result<Layout, String>>,
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

/// The memory report for `schedule` (built for `model`) with every one of
/// its `schedule.batch` rows caching `context` positions.
///
/// # Panics
///
/// Panics if `schedule` does not verify (a weight or the K input does not
/// divide) or compile, has no attention step, or is built for a different
/// chip count than `machine`'s.
#[must_use]
pub fn check_memory_fit(
    machine: &Machine,
    model: &ModelConfig,
    schedule: &Schedule,
    context: usize,
    weight_dtype: DType,
    kv_dtype: DType,
) -> MemReport {
    let (rows, width, _) = kv_cut(schedule);
    let kv_bytes = (2 * model.n_layers * rows * width * context) as f64 * kv_dtype.bytes_f();
    report(machine, model, schedule, weight_dtype, kv_bytes)
}

/// [`check_memory_fit`] under the paged KV policy: the KV term charges the
/// pages the shipped scheduler's [`PageLedger`] holds once every job is
/// admitted at one boundary (shared prompt pages once, growth and copy-out
/// reservations per job), at the chip's heads. A chip whose K input is cut
/// by batch holds the pool of its share of the jobs, split in order over
/// the batch's parts; the busiest share is charged. `schedule` is built at
/// the fleet's batch, which sizes the activations.
///
/// # Panics
///
/// As [`check_memory_fit`], and if `schedule` is not built at one row per
/// job.
#[must_use]
pub fn check_memory_fit_paged(
    machine: &Machine,
    model: &ModelConfig,
    schedule: &Schedule,
    page_size: usize,
    jobs: &[Job<'_>],
    weight_dtype: DType,
    kv_dtype: DType,
) -> MemReport {
    assert_eq!(schedule.batch, jobs.len(), "the schedule holds one row per job");
    let (_, width, parts) = kv_cut(schedule);
    let share = jobs.len().div_ceil(parts).max(1);
    let pages = jobs.chunks(share).map(|js| pool_pages(page_size, js)).max().unwrap_or(0);
    let kv_bytes = (2 * model.n_layers * pages * page_size * width) as f64 * kv_dtype.bytes_f();
    report(machine, model, schedule, weight_dtype, kv_bytes)
}

/// The attention step's K input on one chip at one position: `(rows,
/// width, parts)` — the batch rows it holds, the `heads × d_head` elements
/// of each row, and the number of parts the batch is cut into.
fn kv_cut(s: &Schedule) -> (usize, usize, usize) {
    let k = s.kv_input();
    let local = k.local_shape(s.torus).expect("a verified schedule divides");
    let [b, l] = ['B', 'L'].map(|name| k.dim_index(name).expect("the K input has batch and position dims"));
    let width = local.iter().enumerate().filter(|&(i, _)| i != b && i != l).map(|(_, n)| n).product();
    (local[b], width, s.torus.group_size(k.spec.dims()[b].axes))
}

/// Pages the shipped scheduler's unbudgeted [`PageLedger`] holds once every
/// job arrives and is admitted at one boundary, each one that keeps its
/// slot (`max_new > 1`) into one of its own.
fn pool_pages(page_size: usize, jobs: &[Job<'_>]) -> usize {
    let slots = jobs.iter().filter(|j| j.max_new > 1).count();
    let ledger = Some(PageLedger::new(page_size, None));
    let mut core =
        Scheduler::new(jobs.to_vec(), (0..slots).collect(), OverloadPolicy::default(), ledger);
    (0..jobs.len()).for_each(|i| core.arrive(i));
    while let Decision::Admit(_) = core.admit(&[]) {}
    core.pages().map_or(0, PageLedger::used)
}

/// Sums the schedule's weight shard, `kv_bytes` and its compiled program's
/// buffer plan peak (or its decode partner's, if larger) against usable
/// HBM, with the weight-gathered working-set warning.
fn report(
    machine: &Machine,
    model: &ModelConfig,
    s: &Schedule,
    weight_dtype: DType,
    kv_bytes: f64,
) -> MemReport {
    assert_eq!(machine.n_chips(), s.torus.chip_count(), "the schedule spans the machine");
    let local = |w: &SymTensor| w.local_elements(s.torus).expect("a verified schedule divides");
    let layers = |role| if role == Role::EmbedT { 1 } else { model.n_layers };
    let weight_elements: usize = s.weights.iter().map(|(role, w)| local(w) * layers(*role)).sum();
    let weight_bytes = weight_elements as f64 * weight_dtype.bytes_f();
    let p = ChipProgram::compile(s, model).expect("a verified schedule compiles");
    let (decode, peak) = match decode_partner(s, &p) {
        Ok(Some((layout, d))) => (Some(Ok(layout)), p.plan.peak_elements().max(d.plan.peak_elements())),
        Ok(None) => (None, p.plan.peak_elements()),
        Err(e) => (Some(Err(e)), p.plan.peak_elements()),
    };
    let act_bytes = peak as f64 * 2.0;
    let capacity = machine.chip.hbm_capacity * USABLE_HBM_FRACTION;
    let resident = weight_bytes + kv_bytes + act_bytes;
    // A weight-gathered layer's working set: every weight the layer
    // gathers, double-buffered so the next gather can overlap the einsum.
    let gather = |i: &Instr| match i {
        Instr::Collective(c) if matches!(c.send, Exchange::Weight { .. }) => {
            let n = s.torus.group_size(p.group_axes[c.group]);
            Some((n * c.shape.iter().product::<usize>(), n))
        }
        _ => None,
    };
    let gathers: Vec<(usize, usize)> = p.instrs[..p.split].iter().filter_map(gather).collect();
    let working = 2.0 * gathers.iter().map(|g| g.0).sum::<usize>() as f64 * weight_dtype.bytes_f();
    let wg_warning = gathers.first().filter(|_| resident + working > capacity).map(|&(_, n_gather)| {
        let gib = 1024.0 * 1024.0 * 1024.0;
        format!(
            "transient gathered-weights working set ({:.2} GiB, double-buffered \
             x{n_gather} gather) exceeds the remaining {:.2} GiB; the runtime \
             must gather in chunks (Section 3.5)",
            working / gib,
            (capacity - resident) / gib,
        )
    });
    let (fits, margin_frac) = (resident <= capacity, (capacity - resident) / capacity);
    MemReport { weight_bytes, kv_bytes, act_bytes, capacity, fits, margin_frac, wg_warning, decode }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_core::layout::MeshFactors;
    use esti_core::schedule::build_schedule;
    use esti_core::{AttnSharding, FfnLayout, GatherExtent, Layout};

    /// PaLM 540B on WS 2D × batch over `n` chips, 64 rows of 2048
    /// positions, weights and KV in `dtype`.
    fn palm_540b_ws2d(n: usize, dtype: DType) -> MemReport {
        let (machine, model) = (Machine::tpu_v4_slice(n).unwrap(), ModelConfig::palm_540b());
        let mesh = Layout::ws2d_mesh(n, model.d_model, model.d_ff);
        let layout = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Batch, mesh };
        let s = build_schedule(&model, &layout, 64, 1).unwrap();
        check_memory_fit(&machine, &model, &s, 2048, dtype, dtype)
    }

    #[test]
    fn palm_540b_bf16_overflows_8_chips() {
        let r = palm_540b_ws2d(8, DType::Bf16);
        assert!(!r.fits && r.margin_frac < 0.0, "540B bf16 cannot fit 8 chips: {}", r.summary());
    }

    #[test]
    fn palm_540b_int8_fits_64_chips() {
        let r = palm_540b_ws2d(64, DType::Int8);
        assert!(r.fits && r.wg_warning.is_none(), "540B int8 should fit 64 chips: {}", r.summary());
    }

    #[test]
    fn wg_working_set_warns_but_does_not_fail() {
        // Weight-gathered 540B at bf16 on 64 chips, batch 512 at 2048
        // positions: the residents fit, but fully gathering a layer
        // (double-buffered) on top of them does not (Section 3.5).
        let machine = Machine::tpu_v4_slice(64).unwrap();
        let model = ModelConfig::palm_540b_padded();
        let mesh = Layout::ws2d_mesh(64, model.d_model, model.d_ff);
        let fit = |extent, weights| {
            let ffn = FfnLayout::WeightGathered(extent);
            let s = build_schedule(&model, &Layout { ffn, attn: AttnSharding::Batch, mesh }, 512, 1);
            check_memory_fit(&machine, &model, &s.unwrap(), 2048, weights, DType::Bf16)
        };
        let r = fit(GatherExtent::Xyz, DType::Bf16);
        assert!(r.fits, "residents should fit: {}", r.summary());
        assert!(r.wg_warning.is_some(), "expected a working-set warning: {}", r.summary());
        // Gathering over the 4 chips of X keeps the working set
        // proportional and fits.
        let r = fit(GatherExtent::X, DType::Bf16);
        assert!(r.fits && r.wg_warning.is_none(), "x4 gather: {}", r.summary());
        // And int8 weights halve the gathered copy, restoring XYZ.
        let r = fit(GatherExtent::Xyz, DType::Int8);
        assert!(r.fits && r.wg_warning.is_none(), "int8 gather: {}", r.summary());
    }

    #[test]
    fn tiny_model_has_wide_margin() {
        let (machine, model) = (Machine::tpu_v4_slice(4).unwrap(), ModelConfig::tiny());
        let mesh = MeshFactors::new(1, 4, 1);
        let layout = Layout { ffn: FfnLayout::WeightStationary1D, attn: AttnSharding::Head, mesh };
        let s = build_schedule(&model, &layout, 8, 1).unwrap();
        let r = check_memory_fit(&machine, &model, &s, 64, DType::Bf16, DType::Bf16);
        assert!(r.fits && r.margin_frac > 0.99, "tiny model should leave >99% free: {}", r.summary());
    }
}
