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
    fig_brownout_report_matches_golden => "fig_brownout",
    fig_degradation_report_matches_golden => "fig_degradation",
    fig_edge_report_matches_golden => "fig_edge",
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

/// Acceptance criteria for edge–cloud split serving: in every
/// degraded-WAN cell the deadline-driven policy strictly beats the
/// static cut on attainment, and every fleet's event stream conserves
/// offloads.
#[test]
fn deadline_aware_beats_static_split_under_degraded_wan() {
    use e3_scenarios::LinkQuality;
    let points = figs::edge_sweep();
    for p in &points {
        assert_eq!(
            p.violations,
            0,
            "{} {} violated offload conservation",
            p.policy,
            p.cell.label()
        );
    }
    for cell in e3_scenarios::edge_cells() {
        if cell.link == LinkQuality::Fiber {
            continue;
        }
        let att = |policy: &str| {
            points
                .iter()
                .find(|p| p.policy == policy && p.cell == cell)
                .expect("point")
                .attainment
        };
        assert!(
            att("DeadlineAware") > att("StaticSplit@6"),
            "{}: DeadlineAware {} !> StaticSplit {}",
            cell.label(),
            att("DeadlineAware"),
            att("StaticSplit@6")
        );
    }
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

/// Acceptance criterion for the edge smoke cell that closes both matrix
/// reports: flaky cellular × tight deadline conserves offloads.
#[test]
fn matrix_edge_smoke_cell_passes() {
    let report = figs::fig_matrix_report();
    let line = report
        .lines()
        .find(|l| l.starts_with("edge smoke cell"))
        .expect("matrix report ends with the edge smoke cell");
    assert!(line.ends_with("-- pass"), "edge smoke cell failed: {line}");
}
