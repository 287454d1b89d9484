//! The partitioning advisor: sweep chips × batch × layout for a model and
//! print the Pareto frontier of latency vs cost (Figure 1's machinery),
//! then recommend a configuration for a latency target.
//!
//! Run with: `cargo run --example pareto_advisor [-- <model> <latency_ms>]`
//! where `<model>` is one of `8b`, `62b`, `540b`, `mtnlg` (default `540b`)
//! and `<latency_ms>` is the decode per-token latency target (default 40).

use esti::core::pareto::{decode_sweep, pareto_frontier};
use esti::core::Machine;
use esti::hal::DType;
use esti::model::ModelConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = match args.get(1).map(String::as_str) {
        Some("8b") => ModelConfig::palm_8b(),
        Some("62b") => ModelConfig::palm_62b(),
        Some("mtnlg") => ModelConfig::mt_nlg_530b(),
        _ => ModelConfig::palm_540b_padded(),
    };
    let target_ms: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(40.0);
    let context = 2048;

    println!("decode Pareto frontier for {} (context {context}, int8 weights)", model.name);
    println!(
        "{:>6} {:>6} {:>22} {:>12} {:>14} {:>7}",
        "chips", "batch", "layout", "ms/token", "chip-ms/token", "MFU%"
    );
    let sweep = decode_sweep(&model, DType::Int8, context);
    let frontier = pareto_frontier(&sweep, |p| p.cost);
    for p in &frontier {
        println!(
            "{:>6} {:>6} {:>22} {:>12.2} {:>14.3} {:>7.1}",
            p.n_chips,
            p.batch,
            p.layout.describe(),
            p.latency * 1e3,
            p.cost * 1e3,
            p.mfu * 100.0
        );
    }

    // Recommend: the cheapest frontier point meeting the latency target.
    println!();
    match frontier
        .iter()
        .filter(|p| p.latency * 1e3 <= target_ms)
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
    {
        Some(best) => {
            let machine = Machine::tpu_v4_slice(best.n_chips).expect("catalog slice");
            println!(
                "for a {target_ms:.0} ms/token target: {} chips ({}), batch {}, {} \
                 -> {:.1} ms/token at {:.3} chip-ms/token",
                best.n_chips,
                machine.torus,
                best.batch,
                best.layout.describe(),
                best.latency * 1e3,
                best.cost * 1e3
            );
        }
        None => {
            let fastest = frontier.first().expect("non-empty frontier");
            println!(
                "no configuration meets {target_ms:.0} ms/token; fastest is {:.1} ms/token \
                 on {} chips at batch {}",
                fastest.latency * 1e3,
                fastest.n_chips,
                fastest.batch
            );
        }
    }
}
