//! `esti-lint` — static checks over every built-in layout × model × slice
//! combination plus the scenario-independent protocol rows.
//!
//! Exit status: 0 iff no combination fails a pass (and, under `--strict`,
//! no combination warns either).
//!
//! Flags:
//!
//! * `--strict` — treat warnings (weight-gathered working-set margins) as
//!   failures: exit nonzero if any row warns;
//! * `--json <path>` — additionally write the full report as a JSON array
//!   (one object per row: scenario, layout, status, detail) for CI
//!   artifact upload; `--json -` writes it to stdout instead.

use std::fmt::Write as _;

use esti_verify::{run_all, ComboResult, Outcome};

/// Minimal JSON string escaping (the report contains no exotic content,
/// but labels may carry quotes or backslashes in principle).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// What a weight-gathered row decodes on: its partner over the same
/// stored shards, or the first cut that differs.
fn decode_note(decode: &Result<esti_core::layout::Layout, String>) -> String {
    match decode {
        Ok(partner) => format!("decode on {}", partner.describe()),
        Err(e) => format!("no decode partner: {e}"),
    }
}

/// One row rendered as a JSON object.
fn json_row(r: &ComboResult) -> String {
    let (status, detail) = match &r.outcome {
        Outcome::Pass { comm, spmd, mem, liveness, quant } => {
            let mut d = format!(
                "comm {}; spmd {} chips/{} firings; liveness {} sites/{} injections; mem {}",
                comm.summary(),
                spmd.chips,
                spmd.firings,
                liveness.call_sites,
                liveness.injections,
                mem.summary()
            );
            if let Some(q) = quant {
                let _ = write!(
                    d,
                    "; quant {} streams, wire ratio {:.4}",
                    q.streams_covered,
                    q.wire_ratio()
                );
            }
            if let Some(decode) = &mem.decode {
                let _ = write!(d, "; {}", decode_note(decode));
            }
            let status = if mem.wg_warning.is_some() { "warn" } else { "pass" };
            (status, d)
        }
        Outcome::Verified(summary) => ("verified", summary.clone()),
        Outcome::Skipped(e) => ("skip", e.clone()),
        Outcome::Fail(e) => ("fail", e.clone()),
    };
    let warning = match &r.outcome {
        Outcome::Pass { mem, .. } => mem
            .wg_warning
            .as_ref()
            .map_or_else(|| "null".to_string(), |w| format!("\"{}\"", json_escape(w))),
        _ => "null".to_string(),
    };
    format!(
        "  {{\"scenario\": \"{}\", \"layout\": \"{}\", \"status\": \"{}\", \
         \"detail\": \"{}\", \"warning\": {}}}",
        json_escape(&r.scenario),
        json_escape(&r.layout),
        status,
        json_escape(&detail),
        warning
    )
}

fn main() {
    let mut strict = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("esti-lint: --json requires a path (or - for stdout)");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("esti-lint: unknown flag {other} (try --strict, --json <path>)");
                std::process::exit(2);
            }
        }
    }

    let results = run_all();
    let mut passes = 0usize;
    let mut skips = 0usize;
    let mut fails = 0usize;
    let mut warnings = 0usize;
    let mut scenario = String::new();

    for r in &results {
        if r.scenario != scenario {
            scenario = r.scenario.clone();
            println!("\n== {scenario} ==");
        }
        match &r.outcome {
            Outcome::Pass { comm, spmd, mem, liveness, quant } => {
                passes += 1;
                let wg = match &mem.wg_warning {
                    Some(w) => {
                        warnings += 1;
                        format!("  WARN {w}")
                    }
                    None => String::new(),
                };
                let q = match quant {
                    Some(q) => format!(", int8 wire {:.2}x", q.wire_ratio()),
                    None => String::new(),
                };
                let decode = match &mem.decode {
                    Some(decode) => format!(", {}", decode_note(decode)),
                    None => String::new(),
                };
                println!(
                    "  PASS {:<55} comm {:.3}x, spmd {} chips/{} firings, live {} inj, mem {}{q}{decode}{wg}",
                    r.layout,
                    comm.ratio(),
                    spmd.chips,
                    spmd.firings,
                    liveness.injections,
                    mem.summary()
                );
            }
            Outcome::Verified(summary) => {
                passes += 1;
                println!("  PASS {:<55} {summary}", r.layout);
            }
            Outcome::Skipped(e) => {
                skips += 1;
                println!("  skip {:<55} {e}", r.layout);
            }
            Outcome::Fail(e) => {
                fails += 1;
                println!("  FAIL {:<55} {e}", r.layout);
            }
        }
    }

    if let Some(path) = json_path {
        let body: Vec<String> = results.iter().map(json_row).collect();
        let doc = format!("[\n{}\n]\n", body.join(",\n"));
        if path == "-" {
            print!("{doc}");
        } else if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("esti-lint: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }

    println!(
        "\nesti-lint: {passes} passed, {skips} skipped, {warnings} warnings, {fails} failed"
    );
    if fails > 0 || (strict && warnings > 0) {
        std::process::exit(1);
    }
}
