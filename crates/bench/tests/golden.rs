//! Golden snapshot tests: every registry entry's report is locked
//! byte-for-byte against `golden/<name>.txt`.
//!
//! A snapshot is regenerated by running its entry:
//!
//! ```text
//! cargo run --release -p e3-bench --bin figures -- <name> > crates/bench/golden/<name>.txt
//! ```
//!
//! For the two entries with a wall-clock section (`fig20_optimizer_overhead`
//! and `fig_scale`) keep only the report: cut the file where the wall-clock
//! table begins.
//!
//! A diff here means a behaviour change somewhere in the
//! profiler/optimizer/runtime stack — intended changes update the golden
//! files in the same commit, with the diff called out in review.

use std::collections::BTreeSet;
use std::path::PathBuf;

use e3_bench::{figs, Figure, FIGURES};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// First line (1-based) at which `report` and `golden` differ.
fn first_diff_line(report: &str, golden: &str) -> usize {
    report
        .lines()
        .zip(golden.lines())
        .position(|(r, g)| r != g)
        .unwrap_or_else(|| report.lines().count().min(golden.lines().count()))
        + 1
}

/// Runs `fig` and returns `None` if its report equals its golden file,
/// else the entry's name with the first line that differs.
fn drift(fig: &Figure) -> Option<String> {
    let path = golden_dir().join(format!("{}.txt", fig.name));
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let report = (fig.report)();
    (report != golden).then(|| format!("{} (line {})", fig.name, first_diff_line(&report, &golden)))
}

fn assert_golden(name: &str) {
    let fig = FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("{name} is not a registry entry"));
    if let Some(d) = drift(fig) {
        panic!("output drifted from golden/<name>.txt: {d}");
    }
}

/// Entries that keep a golden test of their own, under the name the
/// suite reported them by before the registry existed. The registry
/// loop below pins every other entry.
macro_rules! named_golden_tests {
    ($($test:ident => $name:literal),* $(,)?) => {
        const NAMED: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                assert_golden($name);
            }
        )*
    };
}

named_golden_tests! {
    fig07_report_matches_golden => "fig07_nlp_goodput",
    fig10_report_matches_golden => "fig10_llm_translation",
    fig11_report_matches_golden => "fig11_llm_summarization",
    fig12_report_matches_golden => "fig12_llama_boolq",
    fig13_report_matches_golden => "fig13_heterogeneous",
    fig15_report_matches_golden => "fig15_cost",
    fig24_report_matches_golden => "fig24_slo",
    fig_degradation_report_matches_golden => "fig_degradation",
    fig_kv_pressure_report_matches_golden => "fig_kv_pressure",
    fig_matrix_report_matches_golden => "fig_matrix",
    fig_multitenant_report_matches_golden => "fig_multitenant",
}

/// Runs every registry entry without a named test above and names each
/// one whose report differs from its golden file, with the first line
/// that differs.
#[test]
fn every_figure_matches_golden() {
    let drifted: Vec<String> = FIGURES
        .iter()
        .filter(|f| !NAMED.contains(&f.name))
        .filter_map(drift)
        .collect();
    assert!(
        drifted.is_empty(),
        "output drifted from golden/<name>.txt: {}",
        drifted.join(", ")
    );
}

#[test]
fn registry_names_are_unique() {
    let mut seen = BTreeSet::new();
    for fig in FIGURES {
        assert!(
            seen.insert(fig.name),
            "duplicate registry name {}",
            fig.name
        );
    }
}

/// `golden/` holds exactly one `<name>.txt` per registry entry: none
/// missing, no orphan left behind by a renamed or deleted experiment.
#[test]
fn golden_dir_matches_registry() {
    let expected: BTreeSet<String> = FIGURES.iter().map(|f| format!("{}.txt", f.name)).collect();
    let present: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("golden/ exists")
        .map(|entry| {
            entry
                .expect("golden/ entry")
                .file_name()
                .into_string()
                .expect("UTF-8 file name")
        })
        .collect();
    let missing: Vec<&String> = expected.difference(&present).collect();
    let orphans: Vec<&String> = present.difference(&expected).collect();
    assert!(
        missing.is_empty() && orphans.is_empty(),
        "golden/ out of step with FIGURES: missing {missing:?}, orphans {orphans:?}"
    );
}

/// Acceptance criterion for the continuous-batching port: under a finite
/// KV budget, per-token refill must strictly beat window-level batching
/// at one or more sweep points (in practice it wins at every point).
#[test]
fn continuous_beats_window_under_kv_pressure() {
    let sweep = figs::kv_pressure_sweep();
    assert!(
        sweep
            .iter()
            .any(|p| p.continuous_goodput > p.window_goodput),
        "continuous batching never beat window batching across the KV sweep"
    );
}

/// Acceptance criterion for the scenario-matrix harness: every smoke
/// cell's kernel streams pass invariant checking with zero violations.
#[test]
fn scenario_matrix_smoke_has_zero_violations() {
    let report = figs::fig_matrix_report();
    assert!(
        report.contains("zero invariant violations"),
        "matrix smoke reported violations:\n{report}"
    );
}

/// EXPERIMENTS.md's fig. 7 table quotes the measured goodputs; each of
/// its `| measured <system> |` rows must equal that system's row in the
/// `fig07_nlp_goodput` golden.
#[test]
fn experiments_md_fig07_rows_match_golden() {
    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", doc_path.display()));
    let golden = std::fs::read_to_string(golden_dir().join("fig07_nlp_goodput.txt"))
        .expect("read fig07 golden");
    let section = doc
        .split("\n## ")
        .find(|s| s.contains("(`fig07_nlp_goodput`)"))
        .expect("EXPERIMENTS.md has a fig07_nlp_goodput section");
    let mut checked = 0;
    for row in section.lines().filter(|l| l.starts_with("| measured ")) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let system = cells[0].strip_prefix("measured ").expect("measured row");
        let pinned: Vec<&str> = golden
            .lines()
            .find_map(|l| {
                let mut words = l.split_whitespace();
                (words.next() == Some(system)).then(|| words.collect())
            })
            .unwrap_or_else(|| panic!("no {system} row in the fig07 golden"));
        assert_eq!(cells[1..], pinned[..], "EXPERIMENTS.md fig07 {system} row");
        checked += 1;
    }
    assert_eq!(
        checked, 3,
        "expected measured BERT-BASE, DeeBERT and E3 rows"
    );
}
