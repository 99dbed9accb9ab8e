//! Integration tests of the artifact harness itself: id dispatch, output
//! formats, and cross-artifact consistency.

use apt_experiments::runner::SweepCache;
use apt_experiments::{artifact, Artifact, ARTIFACTS};

/// Regenerate one artifact by id, on a cache of its own.
fn run_artifact(id: &str) -> Artifact {
    let spec = artifact(id).unwrap_or_else(|| panic!("artifact {id} not listed"));
    spec.regenerate(&SweepCache::default()).0
}

#[test]
fn artifact_ids_are_unique_and_dispatchable() {
    let mut ids: Vec<&str> = ARTIFACTS.iter().map(|spec| spec.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ARTIFACTS.len(), "duplicate artifact ids");
    // Cheap artifacts resolve end-to-end (the sweep-backed ones are
    // exercised by the table/figure test suites).
    for id in ["table1", "table7", "table14", "fig3", "fig4", "fig5"] {
        assert_eq!(artifact(id).map(|spec| spec.id), Some(id));
        run_artifact(id);
    }
}

#[test]
fn text_artifacts_render_nonempty() {
    for id in ["table1", "fig3", "fig4", "fig5"] {
        let a = run_artifact(id);
        let text = a.to_string();
        assert!(text.len() > 40, "{id} rendered suspiciously short: {text}");
        match a {
            Artifact::Text(_) => {}
            Artifact::Table(_) => panic!("{id} should be a text artifact"),
        }
    }
}

#[test]
fn table_artifacts_render_display_and_markdown() {
    let a = run_artifact("table14");
    let Artifact::Table(t) = a else {
        panic!("table14 must be a table");
    };
    let display = t.to_string();
    let markdown = t.to_markdown();
    assert!(display.contains("| Cholesky Decomposition |"));
    assert!(markdown.starts_with("**Table 14"));
    // Title (2 newlines) + header + separator + one line per row.
    assert_eq!(markdown.matches('\n').count(), 4 + t.row_count());
}

#[test]
fn fig5_artifact_is_the_golden_walkthrough() {
    let a = run_artifact("fig5");
    let s = a.to_string();
    assert!(s.contains("MET Schedule"));
    assert!(s.contains("APT Schedule (α = 8)"));
    assert!(s.contains("End time: 318.093"));
    assert!(s.contains("End time: 212.093"));
}

#[test]
fn unknown_ids_are_rejected() {
    for id in ["table99", "fig0", "", "all", "list"] {
        assert!(artifact(id).is_none(), "{id} should not dispatch");
    }
}
