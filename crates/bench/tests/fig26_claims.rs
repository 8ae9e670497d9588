//! Fig. 26's claims, checked on its report rather than its bytes: with
//! model parallelism OFF, E3 serves less goodput than with it ON at every
//! batch size, and the knob leaves both baselines exactly as they were.
//! A deliberate re-pin of the MP-OFF row must keep these.

use e3_bench::FIGURES;

/// The goodputs of the row labelled `label` (b = 2, 4, 8).
fn row(report: &str, label: &str) -> Vec<u64> {
    let line = report
        .lines()
        .find(|l| {
            l.strip_prefix(label)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no row {label:?} in:\n{report}"));
    line[label.len()..]
        .split_whitespace()
        .map(|v| v.parse().expect("a goodput"))
        .collect()
}

#[test]
fn mp_off_loses_to_mp_on_and_leaves_baselines_alone() {
    let fig = FIGURES
        .iter()
        .find(|f| f.name == "fig26_model_parallelism")
        .expect("fig26 is a registry entry");
    let report = (fig.report)();
    let (off, on) = (row(&report, "MP OFF E3"), row(&report, "MP ON  E3"));
    assert_eq!(off.len(), 3);
    for (b, (off, on)) in [2, 4, 8].into_iter().zip(off.iter().zip(&on)) {
        assert!(off < on, "b={b}: MP OFF E3 {off} must trail MP ON E3 {on}");
    }
    for baseline in ["BERT-BASE", "DeeBERT"] {
        assert_eq!(
            row(&report, &format!("MP OFF {baseline}")),
            row(&report, &format!("MP ON  {baseline}")),
            "{baseline} must not depend on model parallelism"
        );
    }
}
