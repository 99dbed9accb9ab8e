//! # apt-experiments
//!
//! The experiment harness: regenerates every table (7–16) and figure (3–12)
//! of the paper's evaluation from the reproduction pipeline, plus the
//! ablations and the open-stream sweeps. Used two ways:
//!
//! * the `apt-repro` binary (`cargo run -p apt-experiments --release --
//!   <id>|all|list`) prints artifacts to stdout,
//! * the integration tests check that each headline result of the paper
//!   keeps its shape on the reconstructed workloads (`tests/paper_shapes.rs`).
//!
//! [`ARTIFACTS`] is the one list of artifact ids: each [`ArtifactSpec`]
//! says how to regenerate its artifact, whether it has a CSV form, and
//! which representative stream cell `--trace` and `--metrics` run for it.
//!
//! The closed tables and figures read their policy matrices from a
//! [`runner::SweepCache`] that the caller builds and owns: `apt-repro`
//! makes one per process, and each test makes its own. The cache keeps one
//! entry per policy column, so the six α-independent baselines are
//! simulated once per family and link rate and shared by every α.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod control;
pub mod faults;
pub mod figures;
pub mod runner;
pub mod slo;
pub mod streaming;
pub mod tables;
pub mod telemetered;
pub mod topology;
pub mod traced;
pub mod workloads;

pub use telemetered::{artifact_metrics, MetricsExport};
pub use traced::{artifact_trace, StreamCell, TraceExport};

use apt_metrics::TextTable;
use runner::SweepCache;

/// A regenerated artifact: either a formatted table or free-form text.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A paper table (rendered via `Display` / `to_markdown`).
    Table(TextTable),
    /// Free-form text (Figure 5's schedules, Figure 3/4 renders).
    Text(String),
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Table(t) => write!(f, "{t}"),
            Artifact::Text(s) => write!(f, "{s}"),
        }
    }
}

/// How an artifact is regenerated.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Free-form text (Table 1, Figures 3–5).
    Text(fn() -> String),
    /// A table; the closed tables and figures read their policy matrices
    /// from the cache.
    Table(fn(&SweepCache) -> TextTable),
    /// An open-stream sweep: one grid run renders its table and its CSV.
    Sweep(fn() -> (TextTable, String)),
}

/// One artifact id and everything the harness knows about it.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// The id `apt-repro` takes.
    pub id: &'static str,
    /// How to regenerate the artifact.
    pub run: Run,
    /// The representative stream cell `--trace` and `--metrics` run, for
    /// the open-stream artifacts.
    pub cell: Option<StreamCell>,
}

impl ArtifactSpec {
    /// True when the artifact has a CSV form (`apt-repro --csv`).
    pub fn has_csv(&self) -> bool {
        matches!(self.run, Run::Sweep(_))
    }

    /// Regenerate the artifact, with its CSV form when it has one.
    pub fn regenerate(&self, cache: &SweepCache) -> (Artifact, Option<String>) {
        match self.run {
            Run::Text(text) => (Artifact::Text(text()), None),
            Run::Table(table) => (Artifact::Table(table(cache)), None),
            Run::Sweep(sweep) => {
                let (table, csv) = sweep();
                (Artifact::Table(table), Some(csv))
            }
        }
    }
}

const fn spec(id: &'static str, run: Run) -> ArtifactSpec {
    ArtifactSpec {
        id,
        run,
        cell: None,
    }
}

const fn stream(id: &'static str, run: Run, cell: StreamCell) -> ArtifactSpec {
    ArtifactSpec {
        id,
        run,
        cell: Some(cell),
    }
}

/// Every artifact, in the order `apt-repro all` prints them: the paper's
/// tables and figures in paper order, Table 1 and the §3.2 metric-5
/// "occurrences of better solutions" summary, the ablations, and the
/// open-stream scenarios (see `streaming`, `slo`, `topology`, `faults` and
/// `control`).
pub const ARTIFACTS: &[ArtifactSpec] = &[
    spec("table7", Run::Table(|_| tables::table7())),
    spec("table8", Run::Table(tables::table8)),
    spec("table9", Run::Table(tables::table9)),
    spec("table10", Run::Table(tables::table10)),
    spec("table11", Run::Table(tables::table11)),
    spec("table12", Run::Table(tables::table12)),
    spec("table13", Run::Table(tables::table13)),
    spec("table14", Run::Table(|_| tables::table14())),
    spec("table15", Run::Table(tables::table15)),
    spec("table16", Run::Table(tables::table16)),
    spec("fig3", Run::Text(figures::fig3)),
    spec("fig4", Run::Text(figures::fig4)),
    spec("fig5", Run::Text(figures::fig5)),
    spec("fig6", Run::Table(figures::fig6)),
    spec("fig7", Run::Table(figures::fig7)),
    spec("fig8", Run::Table(figures::fig8)),
    spec("fig8b", Run::Table(figures::fig8b)),
    spec("fig9", Run::Table(figures::fig9)),
    spec("fig10", Run::Table(figures::fig10)),
    spec("fig11", Run::Table(figures::fig11)),
    spec("fig12", Run::Table(figures::fig12)),
    spec("table1", Run::Text(tables::table1)),
    spec("wins", Run::Table(tables::wins)),
    spec(
        "ablation-alpha-fine",
        Run::Table(|_| ablations::ablation_alpha_fine()),
    ),
    spec(
        "ablation-heterogeneity",
        Run::Table(|_| ablations::ablation_heterogeneity()),
    ),
    spec(
        "ablation-bytes",
        Run::Table(|_| ablations::ablation_bytes_per_element()),
    ),
    spec(
        "ablation-procs",
        Run::Table(|_| ablations::ablation_processor_count()),
    ),
    spec("ablation-aptr", Run::Table(|_| ablations::ablation_apt_r())),
    spec(
        "ablation-energy",
        Run::Table(|_| ablations::ablation_energy()),
    ),
    spec(
        "ablation-quality",
        Run::Table(|_| ablations::ablation_quality()),
    ),
    stream(
        "stream-saturation",
        Run::Sweep(streaming::stream_saturation),
        traced::saturation_stream,
    ),
    stream(
        "stream-bursts",
        Run::Table(|_| streaming::stream_burst_comparison()),
        traced::burst_stream,
    ),
    stream(
        "slo-sweep",
        Run::Sweep(slo::slo_sweep),
        traced::steady_stream,
    ),
    stream(
        "topology-sweep",
        Run::Sweep(topology::topology_sweep),
        traced::steady_stream,
    ),
    stream(
        "fault-sweep",
        Run::Sweep(faults::fault_sweep),
        traced::fault_stream,
    ),
    stream(
        "control-sweep",
        Run::Sweep(control::control_sweep),
        traced::control_stream,
    ),
];

/// The spec of artifact `id`; `None` for unknown ids.
pub fn artifact(id: &str) -> Option<&'static ArtifactSpec> {
    ARTIFACTS.iter().find(|spec| spec.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_artifact_is_runnable() {
        // Cheap artifacts run fully; expensive sweeps are covered by their
        // own table/figure tests.
        let cache = SweepCache::default();
        for id in ["table7", "table14", "fig3", "fig4", "fig5"] {
            let (_, csv) = artifact(id).expect("listed").regenerate(&cache);
            assert!(csv.is_none(), "closed artifact {id} has no CSV");
        }
        assert_eq!(ARTIFACTS.len(), 36);
        for id in [
            "slo-sweep",
            "topology-sweep",
            "fault-sweep",
            "control-sweep",
        ] {
            assert!(artifact(id).is_some(), "{id} missing");
        }
    }

    #[test]
    fn registry_ids_and_capabilities() {
        let mut ids: Vec<&str> = ARTIFACTS.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ARTIFACTS.len(), "duplicate artifact ids");

        let with_csv: Vec<&str> = ARTIFACTS
            .iter()
            .filter(|s| s.has_csv())
            .map(|s| s.id)
            .collect();
        assert_eq!(
            with_csv,
            [
                "stream-saturation",
                "slo-sweep",
                "topology-sweep",
                "fault-sweep",
                "control-sweep"
            ]
        );
        // `--trace` and `--metrics` observe the same representative cell,
        // which exactly the six open-stream artifacts have.
        let with_cell: Vec<&str> = ARTIFACTS
            .iter()
            .filter(|s| s.cell.is_some())
            .map(|s| s.id)
            .collect();
        assert_eq!(
            with_cell,
            [
                "stream-saturation",
                "stream-bursts",
                "slo-sweep",
                "topology-sweep",
                "fault-sweep",
                "control-sweep"
            ]
        );
        for id in ["nope", "table99", "", "all", "list"] {
            assert!(artifact(id).is_none(), "{id:?} resolved");
        }
    }
}
