//! What every workload shares: the model, the measured-section record, the
//! report a run produces, and the greedy token pick.

use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_model::config::{AttentionKind, BlockKind, MlpKind, PositionKind};
use esti_model::{ModelConfig, ReferenceModel};
use esti_tensor::sample::{sample_row, Sampling};
use esti_tensor::Tensor;

use crate::gen::SplitMix64;
use crate::util::{median, nproc, peak_rss_mb, Clock};
use crate::workloads::ColdSetups;

/// Every workload runs on four simulated chips: the smallest mesh on which
/// all five layouts are non-degenerate.
pub const N_CHIPS: usize = 4;

pub const N_LAYERS: usize = 4;
pub const D_MODEL: usize = 256;
pub const D_FF: usize = 1024;
pub const N_HEADS: usize = 8;
pub const D_HEAD: usize = 32;
pub const VOCAB: usize = 512;

/// `palm-micro`: structurally PaLM (multiquery, parallel block, SwiGLU, RoPE)
/// at a size where one decode step costs milliseconds on two vCPUs.
pub fn palm_micro() -> ModelConfig {
    ModelConfig {
        name: "palm-micro".to_owned(),
        n_layers: N_LAYERS,
        d_model: D_MODEL,
        d_ff: D_FF,
        n_heads: N_HEADS,
        d_head: D_HEAD,
        vocab: VOCAB,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 8192,
    }
}

pub fn model() -> ReferenceModel {
    ReferenceModel::init_random(palm_micro(), 0)
}

pub fn layout(ffn: FfnLayout, attn: AttnSharding, mesh: (usize, usize, usize)) -> Layout {
    Layout { ffn, attn, mesh: MeshFactors::new(mesh.0, mesh.1, mesh.2) }
}

/// What the caller asked for.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Target length of the measured section; work is sized from it with
    /// rates measured on the reference host (see README "Sizing").
    pub seconds: f64,
    pub trace: bool,
    /// One short rep and the oracle only.
    pub check_only: bool,
}

impl Ctx {
    /// `per_second × seconds`, at least `min`; `--check-only` always gets
    /// `min`.
    pub fn sized(&self, per_second: f64, min: usize) -> usize {
        if self.check_only {
            min
        } else {
            ((per_second * self.seconds).round() as usize).max(min)
        }
    }
}

/// One timed piece of a measured section. Every rep of a workload offers the
/// same multiset of lengths, so the population a median is taken over does
/// not depend on which reps it pools (`longctx_decode`, whose context grows
/// from turn to turn, is the exception; README "Noise").
#[derive(Default)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Share of the VM's vCPU time the hypervisor gave to someone else
    /// during the rep (`/proc/stat` steal over `nproc × wall`).
    pub stolen_frac: f64,
    /// Prompt tokens prefilled plus tokens generated, completed requests only.
    pub tokens: usize,
    pub ttft_ms: Vec<f64>,
    pub tpot_ms: Vec<f64>,
}

/// A rep during which the hypervisor took at most this share of the vCPUs
/// is quiet. On the reference host a quiet rep repeats within a few percent
/// and one that lost 10–25 % of the vCPUs takes 1.3–1.7× as long, in bursts
/// of ten seconds or so that hit a third of all reps on a bad day.
const QUIET_STOLEN_FRAC: f64 = 0.02;

/// The measured section: reps, timed one by one (re-set-up between them is
/// not timed). Latency metrics are medians over samples pooled across the
/// quiet reps, throughput and CPU cost are totals over them.
pub struct Section {
    planned: usize,
    /// The section stops taking reps after this many seconds of timed wall,
    /// so a slow host measures less rather than overrunning the driver's
    /// budget.
    limit_s: f64,
    pub reps: Vec<Rep>,
    pub setups: ColdSetups,
}

impl Section {
    /// A section of `planned` reps at most.
    pub fn new(ctx: &Ctx, planned: usize, setups: ColdSetups) -> Self {
        Section { planned, limit_s: 1.2 * ctx.seconds, reps: Vec::new(), setups }
    }

    /// Whether another rep is due: fewer than planned are done and one as
    /// long as the longest so far still fits the time limit.
    pub fn open(&self) -> bool {
        let longest = self.reps.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        self.reps.len() < self.planned && self.wall_s() + longest < self.limit_s
    }

    /// Runs and times one rep; the caller adds its tokens and samples to the
    /// returned record.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, &mut Rep) {
        self.setups.keep_pace(self.reps.len(), self.planned);
        let clock = Clock::start();
        let out = f();
        let (wall_s, cpu_s, stolen_s) = clock.stop();
        let stolen_frac = stolen_s / (nproc() as f64 * wall_s);
        self.reps.push(Rep { wall_s, cpu_s, stolen_frac, ..Rep::default() });
        (out, self.reps.last_mut().expect("just pushed"))
    }

    /// The reps the end-to-end metrics are computed from: the quiet ones, or
    /// the quietest third if fewer than that are quiet.
    pub fn quiet(&self) -> Vec<&Rep> {
        let mut reps: Vec<&Rep> = self.reps.iter().collect();
        reps.sort_by(|a, b| a.stolen_frac.total_cmp(&b.stolen_frac));
        let quiet = reps.iter().filter(|r| r.stolen_frac <= QUIET_STOLEN_FRAC).count();
        reps.truncate(quiet.max(self.reps.len().div_ceil(3)));
        reps
    }

    pub fn wall_s(&self) -> f64 {
        self.reps.iter().map(|r| r.wall_s).sum()
    }

    pub fn tokens(&self) -> usize {
        self.reps.iter().map(|r| r.tokens).sum()
    }

    /// Every rep's TTFT samples, for the traced run's per-layer metrics.
    pub fn ttft_ms(&self) -> Vec<f64> {
        self.reps.iter().flat_map(|r| r.ttft_ms.iter().copied()).collect()
    }

    pub fn tpot_ms(&self) -> Vec<f64> {
        self.reps.iter().flat_map(|r| r.tpot_ms.iter().copied()).collect()
    }

    /// What was measured, for the run's printout (traced or not).
    pub fn note(&self) -> String {
        let quiet = self.quiet();
        let stolen: f64 = self.reps.iter().map(|r| r.stolen_frac * r.wall_s).sum();
        format!(
            "section wall {:.2} s in {} reps, {:.1} % of the vCPUs stolen; metrics from the {} quietest reps: {} TTFT and {} TPOT samples",
            self.wall_s(),
            self.reps.len(),
            100.0 * stolen / self.wall_s().max(1e-9),
            quiet.len(),
            quiet.iter().map(|r| r.ttft_ms.len()).sum::<usize>(),
            quiet.iter().map(|r| r.tpot_ms.len()).sum::<usize>()
        )
    }
}

/// A measured value; its unit and direction are in `spec`.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Everything one run of one workload reports.
#[derive(Default)]
pub struct Report {
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Sizing guards and warnings, printed with every run.
    pub notes: Vec<String>,
}

/// The six end-to-end metrics from a measured section's quiet reps and the
/// cold set-ups run alongside it.
pub fn end_to_end(section: &Section) -> Vec<Metric> {
    let quiet = section.quiet();
    let pooled = |samples: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        quiet.iter().flat_map(|r| samples(r).iter().copied()).collect()
    };
    let tokens = quiet.iter().map(|r| r.tokens).sum::<usize>().max(1) as f64;
    let wall_s: f64 = quiet.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = quiet.iter().map(|r| r.cpu_s).sum();
    vec![
        metric("ttft_p50_ms", median(&pooled(|r| &r.ttft_ms))),
        metric("tpot_p50_ms", median(&pooled(|r| &r.tpot_ms))),
        metric("tok_s", tokens / wall_s),
        metric("cpu_ms_per_tok", cpu_s * 1e3 / tokens),
        metric("peak_rss_mb", peak_rss_mb()),
        metric("setup_s", section.setups.median_s()),
    ]
}

/// The greedy pick for every row of `[B, V]` logits (or the last position of
/// `[B, L, V]`), through the library's own sampler.
pub fn greedy_rows(logits: &Tensor) -> Vec<usize> {
    let v = logits.dim(logits.rank() - 1);
    let per_row = logits.numel() / logits.dim(0);
    let mut rng = SplitMix64::new(0);
    (0..logits.dim(0))
        .map(|b| {
            let end = (b + 1) * per_row;
            sample_row(&mut rng, &logits.data()[end - v..end], Sampling::Greedy)
        })
        .collect()
}
