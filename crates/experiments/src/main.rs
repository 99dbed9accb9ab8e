//! `apt-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! apt-repro list                      # show all artifact ids
//! apt-repro table8 fig7               # regenerate specific artifacts
//! apt-repro all                       # regenerate everything, in paper order
//! apt-repro --markdown all            # markdown tables
//! apt-repro slo-sweep --csv slo.csv   # long-format snapshot CSV alongside
//! ```
//!
//! `--csv <path>` writes the long-format windowed-snapshot CSV of every
//! requested artifact that has one (the open-stream scenarios); with
//! several CSV-capable artifacts requested, the artifact id is appended
//! to the path (`slo.csv.slo-sweep.csv`).
//!
//! `--trace <path>` additionally runs one *representative* traced cell of
//! every requested open-stream scenario, writes its Chrome trace-event
//! JSON (loadable in `chrome://tracing` / Perfetto), and prints the
//! `trace-summary` λ-delay report under the artifact. With several
//! trace-capable artifacts requested, the id is appended to the path
//! (`out.json.stream-saturation.json`).
//!
//! `--metrics <path>` runs one representative *telemetered* cell of every
//! requested open-stream scenario (the same cell `--trace` draws), writes
//! the validated Prometheus exposition to `<path>` and the per-window
//! JSONL snapshot stream to `<path>.jsonl`. `--progress` additionally
//! ticks a throttled stderr heartbeat (jobs/s, in-flight, miss rate, the
//! last closed window's α/ρ, ETA) while those telemetered cells run — the
//! soak-run operator surface. Where the run's host time goes is
//! perfbench's traced mode (`perfbench/run.py --trace 1`), not an
//! `apt-repro` artifact.

use apt_experiments::runner::SweepCache;
use apt_experiments::{
    artifact, artifact_metrics, artifact_trace, Artifact, ArtifactSpec, ARTIFACTS,
};
use std::io::Write as _;

/// Remove a boolean `flag` from `args`; true when it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}

/// Remove `flag <path>` from `args` and return the path. A flag with no
/// path after it is a usage error (exit 2).
fn take_path(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos == args.len() {
        eprintln!("{flag} needs a path");
        std::process::exit(2);
    }
    Some(args.remove(pos))
}

/// The file one artifact's export goes to: `base` itself when only one
/// requested artifact has that export, else `base.<id>.<ext>`.
fn export_path(base: &str, id: &str, capable: usize, ext: &str) -> String {
    if capable == 1 {
        base.to_string()
    } else {
        format!("{base}.{id}.{ext}")
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = take_flag(&mut args, "--markdown");
    let csv_path = take_path(&mut args, "--csv");
    let trace_path = take_path(&mut args, "--trace");
    let metrics_path = take_path(&mut args, "--metrics");
    let progress = take_flag(&mut args, "--progress");
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: apt-repro [--markdown] [--csv <path>] [--trace <path>] \
             [--progress] [--metrics <path>] <artifact-id>... | all | list"
        );
        let ids: Vec<&str> = ARTIFACTS.iter().map(|spec| spec.id).collect();
        eprintln!("artifacts: {}", ids.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for spec in ARTIFACTS {
            println!("{}", spec.id);
        }
        return;
    }
    let cache = SweepCache::default();
    let requested: Vec<(&str, Option<&ArtifactSpec>)> = if args[0] == "all" {
        // Fill the run cache for the whole evaluation grid in one parallel
        // wave (policy column × graph) before rendering anything.
        cache.prewarm_paper_grid();
        ARTIFACTS.iter().map(|spec| (spec.id, Some(spec))).collect()
    } else {
        args.iter().map(|id| (id.as_str(), artifact(id))).collect()
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failed = false;
    // Capabilities are read from the table before anything runs.
    let capable = |has: fn(&ArtifactSpec) -> bool| {
        requested
            .iter()
            .filter(|(_, spec)| spec.is_some_and(has))
            .count()
    };
    let csv_capable = capable(ArtifactSpec::has_csv);
    if csv_path.is_some() && csv_capable == 0 {
        eprintln!("--csv: none of the requested artifacts has a CSV form");
        failed = true;
    }
    // `--trace` and `--metrics` both run the representative stream cell.
    let cell_capable = capable(|spec| spec.cell.is_some());
    if trace_path.is_some() && cell_capable == 0 {
        eprintln!("--trace: none of the requested artifacts has a traced form");
        failed = true;
    }
    if metrics_path.is_some() && cell_capable == 0 {
        eprintln!("--metrics: none of the requested artifacts has a telemetered form");
        failed = true;
    }
    for (id, spec) in requested {
        let Some(spec) = spec else {
            eprintln!("unknown artifact id: {id}");
            failed = true;
            continue;
        };
        let (artifact, csv) = spec.regenerate(&cache);
        if let (Some(base), Some(csv)) = (&csv_path, csv) {
            let path = export_path(base, id, csv_capable, "csv");
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("--csv: cannot write {path}: {e}");
                failed = true;
            } else {
                eprintln!("wrote {path}");
            }
        }
        let rendered = match (&artifact, markdown) {
            (Artifact::Table(t), true) => t.to_markdown(),
            _ => artifact.to_string(),
        };
        if writeln!(out, "=== {id} ===\n{rendered}").is_err() {
            // Downstream pipe closed (e.g. `apt-repro all | head`): stop
            // quietly instead of panicking.
            return;
        }
        let Some(cell) = spec.cell else {
            continue;
        };
        if let Some(base) = &trace_path {
            let export = artifact_trace(cell);
            let path = export_path(base, id, cell_capable, "json");
            if let Err(e) = std::fs::write(&path, &export.chrome) {
                eprintln!("--trace: cannot write {path}: {e}");
                failed = true;
            } else {
                eprintln!("wrote {path}");
            }
            if writeln!(out, "{}", export.summary).is_err() {
                return;
            }
        }
        if let Some(base) = &metrics_path {
            let export = artifact_metrics(cell, progress);
            let path = export_path(base, id, cell_capable, "prom");
            if let Err(e) = std::fs::write(&path, &export.prometheus) {
                eprintln!("--metrics: cannot write {path}: {e}");
                failed = true;
            } else {
                eprintln!("wrote {path} ({} samples)", export.samples);
            }
            let jsonl_path = format!("{path}.jsonl");
            if let Err(e) = std::fs::write(&jsonl_path, &export.jsonl) {
                eprintln!("--metrics: cannot write {jsonl_path}: {e}");
                failed = true;
            } else {
                eprintln!("wrote {jsonl_path} ({} windows)", export.lines);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
