//! `apt-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! apt-repro list                      # show all artifact ids
//! apt-repro table8 fig7               # regenerate specific artifacts
//! apt-repro all                       # regenerate everything, in paper order
//! apt-repro --markdown all            # markdown output (for EXPERIMENTS.md)
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

use apt_experiments::{
    all_artifact_ids, artifact_has_csv, artifact_has_metrics, artifact_has_trace, artifact_metrics,
    artifact_trace, artifact_with_csv, run_artifact, Artifact,
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
        eprintln!("artifacts: {}", all_artifact_ids().join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for id in all_artifact_ids() {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args[0] == "all" {
        // Fill the run cache for the whole evaluation grid in one parallel
        // wave (combination × graph × policy) before rendering anything.
        apt_experiments::runner::prewarm_paper_grid();
        all_artifact_ids()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failed = false;
    // Static capability check (resolving a CSV runs the whole sweep, so
    // that happens exactly once per capable id, feeding table and CSV
    // from the same run).
    let csv_capable = ids.iter().filter(|id| artifact_has_csv(id)).count();
    if csv_path.is_some() && csv_capable == 0 {
        eprintln!("--csv: none of the requested artifacts has a CSV form");
        failed = true;
    }
    let trace_capable = ids.iter().filter(|id| artifact_has_trace(id)).count();
    if trace_path.is_some() && trace_capable == 0 {
        eprintln!("--trace: none of the requested artifacts has a traced form");
        failed = true;
    }
    let metrics_capable = ids.iter().filter(|id| artifact_has_metrics(id)).count();
    if metrics_path.is_some() && metrics_capable == 0 {
        eprintln!("--metrics: none of the requested artifacts has a telemetered form");
        failed = true;
    }
    for id in ids {
        let artifact = match (&csv_path, artifact_has_csv(id)) {
            (Some(base), true) => {
                let (artifact, csv) = artifact_with_csv(id).expect("capability checked");
                let path = if csv_capable == 1 {
                    base.clone()
                } else {
                    format!("{base}.{id}.csv")
                };
                if let Err(e) = std::fs::write(&path, csv) {
                    eprintln!("--csv: cannot write {path}: {e}");
                    failed = true;
                } else {
                    eprintln!("wrote {path}");
                }
                Some(artifact)
            }
            _ => run_artifact(id),
        };
        match artifact {
            Some(artifact) => {
                let rendered = match (&artifact, markdown) {
                    (Artifact::Table(t), true) => t.to_markdown(),
                    _ => artifact.to_string(),
                };
                if writeln!(out, "=== {id} ===\n{rendered}").is_err() {
                    // Downstream pipe closed (e.g. `apt-repro all | head`):
                    // stop quietly instead of panicking.
                    return;
                }
                if let (Some(base), true) = (&trace_path, artifact_has_trace(id)) {
                    let export = artifact_trace(id).expect("capability checked");
                    let path = if trace_capable == 1 {
                        base.clone()
                    } else {
                        format!("{base}.{id}.json")
                    };
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
                if let (Some(base), true) = (&metrics_path, artifact_has_metrics(id)) {
                    let export = artifact_metrics(id, progress).expect("capability checked");
                    let path = if metrics_capable == 1 {
                        base.clone()
                    } else {
                        format!("{base}.{id}.prom")
                    };
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
            None => {
                eprintln!("unknown artifact id: {id}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
