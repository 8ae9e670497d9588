//! The `figures` runner's command-line contract: what one name, several
//! names and an unknown name print, and how it exits.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

fn golden(name: &str) -> String {
    let path = format!("{}/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn unknown_name_exits_before_running_anything() {
    let out = figures(&["fig03_batch_shrinkage", "no_such_figure"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "ran figures before rejecting the name"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure no_such_figure"), "{stderr}");
}

#[test]
fn one_name_prints_exactly_its_report() {
    let out = figures(&["fig03_batch_shrinkage"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("fig03_batch_shrinkage")
    );
}

#[test]
fn wall_clock_section_follows_the_report() {
    let out = figures(&["fig_scale"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let section = stdout
        .strip_prefix(&golden("fig_scale"))
        .expect("stdout starts with the pinned report");
    assert!(section.contains("10k-GPU horizon PASS"), "{section}");
}

#[test]
fn several_names_print_banners_timings_and_a_count() {
    let json = std::env::temp_dir().join(format!("figures_cli_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig_matrix", "fig03_batch_shrinkage"])
        .env("BENCH_FIGURES_JSON", &json)
        .output()
        .expect("run figures");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let matrix = stdout.find(" fig_matrix ").expect("fig_matrix banner");
    let batch = stdout
        .find(" fig03_batch_shrinkage ")
        .expect("fig03_batch_shrinkage banner");
    assert!(matrix < batch, "figures ran out of order");
    assert!(
        stdout.ends_with("all 2 experiments completed\n"),
        "{stdout}"
    );
    let timings = std::fs::read_to_string(&json).expect("timings written");
    let _ = std::fs::remove_file(&json);
    assert!(timings.contains("\"name\": \"fig_matrix\""), "{timings}");
    assert!(
        timings.contains("\"name\": \"fig03_batch_shrinkage\""),
        "{timings}"
    );
    assert!(timings.contains("\"total_wall_s\""), "{timings}");
}
