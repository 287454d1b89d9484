//! `--selfcheck N`: the acceptance rule applied to the benchmark itself. The
//! suite runs 2N times, each with another seed, as interleaved sets A and B of
//! the same binary; for every workload × end-to-end metric the two set medians
//! must agree within the metric's bound and each set's quartile distance must
//! stay inside it. The table it prints is committed as NOISE.md.

use std::process::ExitCode;

use crate::spec::{END_TO_END, RUN_SECONDS};
use crate::workloads;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so this table reads like the driver's.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

pub fn run(n: usize, base_seed: u64, seconds: f64) -> ExitCode {
    // samples[set][workload][metric] -> one value per run
    let mut samples = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads::ALL.len()]; 2];
    let mut incorrect = 0;
    for run in 0..2 * n {
        let seed = base_seed + run as u64;
        eprintln!(
            "selfcheck: suite {} of {} (set {}, seed {seed})",
            run + 1,
            2 * n,
            ["A", "B"][run % 2]
        );
        for (wi, (_, parsed)) in
            crate::run_suite(seed, seconds, false, false).into_iter().enumerate()
        {
            let Some(p) = parsed.filter(|p| p.correct) else {
                incorrect += 1;
                continue;
            };
            for (mi, m) in END_TO_END.iter().enumerate() {
                if let Some((_, v)) = p.metrics.iter().find(|x| x.0 == m.name) {
                    samples[run % 2][wi][mi].push(*v);
                }
            }
        }
    }

    println!("# Noise: `--selfcheck {n}` ({} s sections, default {RUN_SECONDS})\n", seconds);
    println!(
        "Two interleaved sets of {n} suite runs of one binary, a different seed per run, nproc={}.",
        crate::util::nproc()
    );
    println!(
        "`diff` is how much worse set B's median is than set A's; `iqr` is (Q3 - Q1) / median with"
    );
    println!("Python's `statistics.quantiles(n=4)`. A cell whose medians differ by more than the bound FAILs;");
    println!("one whose iqr exceeds it is unresolved: there, on this host at this time, a regression the");
    println!("size of the bound could not have been told from noise. Either makes the command exit non-zero.\n");
    println!(
        "| workload | metric | bound | median A | median B | diff | iqr A | iqr B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failures = incorrect;
    for (wi, w) in workloads::ALL.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&samples[0][wi][mi], &samples[1][wi][mi]);
            if a.len() < 2 || b.len() < 2 {
                println!("| {} | {} | | | | | | | NO DATA |", w.name, m.name);
                failures += 1;
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
            let worse = if m.better == "lower" { mb / ma - 1.0 } else { ma / mb - 1.0 };
            let (sa, sb) = (spread(a), spread(b));
            let verdict = if worse.abs() > bound {
                "FAIL"
            } else if sa > bound || sb > bound {
                "unresolved"
            } else {
                "ok"
            };
            failures += usize::from(verdict != "ok");
            println!(
                "| {} | {} | {:.0}% | {ma:.4} | {mb:.4} | {:+.1}% | {:.1}% | {:.1}% | {} |",
                w.name,
                m.name,
                bound * 100.0,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                verdict
            );
        }
    }
    println!("\n{incorrect} runs failed or were incorrect; {failures} cells outside their bound.");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
