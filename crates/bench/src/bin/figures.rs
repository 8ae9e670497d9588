//! Runs the experiment registry ([`e3_bench::FIGURES`]) in-process: every
//! experiment, or only those named on the command line. Output of the full
//! run is the source for `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p e3-bench --bin figures
//! cargo run --release -p e3-bench --bin figures -- fig07_nlp_goodput fig24_slo
//! ```
//!
//! A lone figure prints exactly its report (plus its wall-clock section,
//! if it has one); several print under `=== name ===` banners. Per-figure
//! wall time goes to stderr, so stdout stays the clean experiment record,
//! and, when `BENCH_FIGURES_JSON` names a path, to a JSON file CI
//! archives alongside the kernel/optimizer benches — the fleet-wide
//! timing record that catches a figure quietly becoming 10x slower.
//!
//! Exits non-zero on an unknown name, or when any figure's output says
//! `FAIL` (a failed invariant cell, a missed planning budget).

use std::fmt::Write as _;
use std::time::Instant;

use e3_bench::{Figure, FIGURES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Figure> = if names.is_empty() {
        FIGURES.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                FIGURES.iter().find(|f| f.name == name).unwrap_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    eprintln!("unknown figure {name}; known: {}", known.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let banners = selected.len() > 1;

    let suite_start = Instant::now();
    let mut timings: Vec<(&str, f64)> = Vec::with_capacity(selected.len());
    let mut failed: Vec<&str> = Vec::new();
    for fig in &selected {
        if banners {
            println!("\n{:=^78}\n", format!(" {} ", fig.name));
        }
        let start = Instant::now();
        let mut out = (fig.report)();
        print!("{out}");
        if let Some(wall_clock) = fig.wall_clock {
            let section = wall_clock();
            print!("{section}");
            out.push_str(&section);
        }
        timings.push((fig.name, start.elapsed().as_secs_f64()));
        if out.contains("FAIL") {
            failed.push(fig.name);
        }
    }
    if banners {
        println!("\nall {} experiments completed", selected.len());
    }

    let total = suite_start.elapsed().as_secs_f64();
    eprintln!("\nper-figure wall time:");
    for &(fig, secs) in &timings {
        eprintln!("  {fig:<28} {secs:>8.2}s");
    }
    eprintln!("  {:<28} {total:>8.2}s", "total");

    if let Ok(path) = std::env::var("BENCH_FIGURES_JSON") {
        let mut json = String::from("{\n  \"figures\": [\n");
        for (i, &(fig, secs)) in timings.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{fig}\", \"wall_s\": {secs:.3}}}{}",
                if i + 1 < timings.len() { "," } else { "" }
            );
        }
        let _ = write!(json, "  ],\n  \"total_wall_s\": {total:.3}\n}}\n");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("figure timings written to {path}");
    }

    if !failed.is_empty() {
        eprintln!("FAIL in: {}", failed.join(" "));
        std::process::exit(1);
    }
}
