//! `esti-benchmark`: four serving workloads, six end-to-end metrics, and a
//! layer-by-layer traced run. See README.md for definitions and rationale.
//!
//! ```text
//! esti-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result JSON last
//! esti-benchmark [--seed n] [--seconds s] [--trace]                        all four, a fresh process each
//! esti-benchmark --selfcheck [N]                                           2N suites as sets A/B -> NOISE.md
//! esti-benchmark --check-only                                              short reps, oracle only
//! ```

mod batcher;
mod common;
mod driven;
mod gen;
mod oracle;
mod probes;
mod selfcheck;
mod spec;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use common::{Ctx, Report};
use spec::{Spec, END_TO_END, PER_LAYER, RUN_SECONDS};
use trace::Tracer;
use workloads::Workload;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: Option<usize>,
    check_only: bool,
    setup_only: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: None,
        check_only: false,
        setup_only: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--selfcheck" => {
                let n = it.next_if(|v| v.parse::<usize>().is_ok()).and_then(|v| v.parse().ok());
                args.selfcheck = Some(n.unwrap_or(5).max(2));
            }
            "--check-only" => args.check_only = true,
            "--setup-only" => args.setup_only = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if find(name).is_none() {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    Ok(args)
}

fn find(name: &str) -> Option<&'static Workload> {
    workloads::ALL.iter().find(|w| w.name == name)
}

/// Times one workload's set-up in a fresh process (`--setup-only`); `None`
/// if the child fails, in which case the caller keeps its own timing.
pub fn setup_in_child(workload: &str) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe).args(["--setup-only", "--workload", workload]).output().ok()?;
    out.status.success().then_some(())?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn compiled_cpu_features() -> String {
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let on: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    if on.is_empty() {
        "none of avx2/fma/avx512f".to_owned()
    } else {
        on.join("+")
    }
}

/// One workload in this process: human-readable lines, then the result JSON
/// as the last line of standard output.
fn run_single(w: &Workload, ctx: &Ctx) -> Report {
    let started = Instant::now();
    println!(
        "== {} seed={} seconds={} trace={} ==",
        w.name,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "  host: nproc={}, compiled with {} (target-cpu=native comes from the repository's .cargo/config.toml), ESTI_* unset, 1 driver thread + {} chip threads",
        util::nproc(),
        compiled_cpu_features(),
        common::N_CHIPS
    );
    let mut tracer = Tracer::new(ctx.trace);
    let mut report = (w.drive)(ctx, &mut tracer);
    if ctx.trace {
        let path = out_dir().join(format!("trace-{}.json", w.name));
        match tracer.write_chrome(&path) {
            Ok(()) => report.notes.push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("could not write {}: {e}", path.display())),
        }
    }
    for note in &report.notes {
        println!("  {note}");
    }
    let spec: &[Spec] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for s in spec {
        let moves = if s.moves.is_empty() { String::new() } else { format!("  -> {}", s.moves) };
        println!("  {:<36} {:>14.4} {:<8}{moves}", s.name, report.value(s.name), s.unit);
    }
    println!(
        "  ops_sent={} ops_ok={} ops_failed={} run_wall={:.1}s",
        report.sent,
        report.ok,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", report.result_json(spec));
    report
}

/// All four workloads, each re-executed in a fresh process so `peak_rss_mb`
/// and set-up are per workload. Returns every child's parsed result.
fn run_suite(
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Vec<(&'static str, Option<spec::Parsed>)> {
    let exe = std::env::current_exe().expect("own path is known");
    workloads::ALL
        .iter()
        .map(|w| {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let (human, last) = text.trim_end().rsplit_once('\n')?;
                if echo {
                    println!("{human}");
                }
                spec::parse_result(last)
            });
            (w.name, parsed)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esti-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Every `ESTI_*` knob stays at its default: the benchmark measures the
    // configuration a user gets without asking.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ESTI_") {
            eprintln!("esti-benchmark: ignoring {}", key.to_string_lossy());
            std::env::remove_var(key);
        }
    }
    if args.describe {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.setup_only {
        let Some(w) = args.workload.as_deref().and_then(find) else {
            eprintln!("esti-benchmark: --setup-only needs --workload");
            return ExitCode::from(2);
        };
        println!("{}", (w.setup_only)());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.selfcheck {
        return selfcheck::run(n, args.seed, args.seconds);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        check_only: args.check_only,
    };
    if args.check_only {
        let failed: usize = workloads::ALL
            .iter()
            .map(|w| run_single(w, &ctx))
            .map(|r| r.failed + usize::from(r.ok == 0))
            .sum();
        return if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if let Some(w) = args.workload.as_deref().and_then(find) {
        // The verdict is the JSON's `correct`; the exit code says the run
        // itself completed.
        run_single(w, &ctx);
        return ExitCode::SUCCESS;
    }
    let results = run_suite(args.seed, args.seconds, args.trace, true);
    println!("== summary ==");
    let mut all_correct = true;
    for (name, parsed) in &results {
        match parsed {
            Some(p) => {
                all_correct &= p.correct;
                println!(
                    "  {name}: ops_sent={} ops_failed={} correct={}",
                    p.attempted, p.failed, p.correct
                );
            }
            None => {
                all_correct = false;
                println!("  {name}: run failed");
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
