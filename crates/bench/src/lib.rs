//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of *Efficiently Scaling Transformer Inference*.
//!
//! Each binary prints the series/rows the paper reports (for eyeballing in
//! a terminal or teeing into a log) and also writes a CSV under `results/`
//! so plots can be regenerated offline. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured comparisons.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use esti_core::perf::{estimate, Estimate, PhaseSpec};
use esti_core::{Layout, Machine};
use esti_hal::DType;
use esti_model::ModelConfig;

/// Where experiment CSVs are written: `results/` at the workspace root (a
/// directory holding `Cargo.toml` and `crates/`) if that is the current
/// directory or one of its two nearest ancestors, as from a crate
/// directory; otherwise `results/` in the current directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = cwd.ancestors().take(3).find(|d| d.join("Cargo.toml").exists() && d.join("crates").exists());
    root.unwrap_or(&cwd).join("results")
}

/// Writes a CSV with a header row; errors are reported but non-fatal so
/// experiments still print to stdout on read-only filesystems.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
            println!("\n[wrote {}]", path.display());
        }
        Err(e) => eprintln!("note: cannot write {}: {e}", path.display()),
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// End-to-end estimate of one FasterTransformer-style benchmark point:
/// prefill `input` tokens then generate `output` tokens at `batch`, using
/// the paper's per-phase layout switching. Returns
/// `(prefill, generate, total_seconds, total_mfu)`.
#[must_use]
pub fn e2e_point(
    model: &ModelConfig,
    machine: &Machine,
    batch: usize,
    input: usize,
    output: usize,
    dtype: DType,
) -> (Estimate, Estimate, f64, f64) {
    let prefill_layout =
        esti_core::planner::prefill_layout(model, machine, batch, input, dtype);
    let decode_layout =
        esti_core::planner::decode_layout_for_batch(model, machine, batch);
    let p = estimate(machine, model, &prefill_layout, &PhaseSpec::prefill(batch, input), dtype);
    let g = esti_core::perf::generate_latency(machine, model, &decode_layout, batch, input, output, dtype);
    let total = p.step_time + g.step_time;
    let tokens = (batch * (input + output)) as f64;
    let mfu = model.flops_per_token() * tokens / (total * machine.peak_flops());
    (p, g, total, mfu)
}

/// Decode estimate at the paper's standard setting (used by several
/// figures): 2D weight-stationary, batch-sharded attention when available.
#[must_use]
pub fn decode_point(
    model: &ModelConfig,
    machine: &Machine,
    batch: usize,
    context: usize,
    dtype: DType,
) -> Estimate {
    let layout = esti_core::planner::decode_layout_for_batch(model, machine, batch);
    estimate(machine, model, &layout, &PhaseSpec::decode(batch, context), dtype)
}

/// Formats a [`Layout`] compactly for table cells.
#[must_use]
pub fn layout_cell(layout: &Layout) -> String {
    format!("{}/{}", layout.ffn.name(), layout.attn.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_point_is_consistent() {
        let model = ModelConfig::palm_540b_padded();
        let machine = Machine::tpu_v4_slice(64).unwrap();
        let (p, g, total, mfu) = e2e_point(&model, &machine, 64, 60, 20, DType::Bf16);
        assert!((p.step_time + g.step_time - total).abs() < 1e-12);
        assert!(mfu > 0.0 && mfu < 1.0);
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}

/// One row of Tables 2–3: a named configuration with the paper's reported
/// MFU and latency for comparison.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario label, e.g. "low-latency prefill".
    pub name: &'static str,
    /// `true` for prefill (2048 tokens), `false` for decode (64 tokens at
    /// context 2048).
    pub prefill: bool,
    /// Chip count.
    pub chips: usize,
    /// Batch size in sequences.
    pub batch: usize,
    /// Feedforward layout.
    pub ffn: esti_core::layout::FfnLayout,
    /// Attention sharding.
    pub attn: esti_core::layout::AttnSharding,
    /// Weight storage type.
    pub dtype: DType,
    /// Paper-reported MFU (percent).
    pub paper_mfu: f64,
    /// Paper-reported latency (seconds).
    pub paper_latency: f64,
}

/// Evaluates and prints a Tables 2/3-style scenario table, returning CSV
/// rows. Prefill rows process 2048 tokens; decode rows generate 64 tokens
/// from a 2048-token context, matching the tables' captions.
pub fn run_scenario_table(model: &ModelConfig, rows: &[ScenarioRow]) -> Vec<String> {
    println!(
        "{:<24} {:>5} {:>6} {:>8} {:>6} {:>6} {:>14} {:>16}",
        "scenario", "chips", "batch", "layout", "attn", "fmt", "MFU% (paper)", "latency (paper)"
    );
    let mut csv = Vec::new();
    for r in rows {
        let machine = Machine::tpu_v4_slice(r.chips).expect("catalog slice");
        let mesh = Layout::ws2d_mesh(r.chips, model.d_model, model.d_ff);
        let layout = Layout { ffn: r.ffn, attn: r.attn, mesh };
        let (latency, mfu) = if r.prefill {
            let est = estimate(&machine, model, &layout, &PhaseSpec::prefill(r.batch, 2048), r.dtype);
            (est.step_time, est.mfu)
        } else {
            let est = esti_core::perf::generate_latency(
                &machine, model, &layout, r.batch, 2048, 64, r.dtype,
            );
            (est.step_time, est.mfu)
        };
        println!(
            "{:<24} {:>5} {:>6} {:>8} {:>6} {:>6} {:>6.1} ({:>4.0}) {:>8.2}s ({:>5.2}s)",
            r.name,
            r.chips,
            r.batch,
            r.ffn.name(),
            r.attn.name(),
            r.dtype,
            mfu * 100.0,
            r.paper_mfu,
            latency,
            r.paper_latency
        );
        csv.push(format!(
            "{},{},{},{},{},{},{:.4},{},{:.4},{}",
            r.name,
            r.chips,
            r.batch,
            r.ffn.name(),
            r.attn.name(),
            r.dtype,
            mfu * 100.0,
            r.paper_mfu,
            latency,
            r.paper_latency
        ));
    }
    csv
}
