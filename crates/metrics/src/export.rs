//! Machine-readable exports of simulation results.
//!
//! The harness prints paper-style tables; downstream analysis (spreadsheets,
//! plotting) wants flat records instead. Two formats are provided without
//! extra dependencies:
//!
//! * [`trace_to_csv`] — one row per kernel execution (the full schedule log),
//! * [`summaries_to_csv`] — one row per run (the §3.2 statistics),
//! * [`snapshots_to_csv`] — long-format open-stream snapshots: one row per
//!   `(labelled run, window)`, so a whole sweep's saturation knee or
//!   miss-rate frontier plots straight from one file,
//! * JSON is not produced here: nothing in the workspace serializes through
//!   `serde` (its derives expand to nothing in this offline build). The one
//!   JSON writer and reader is `apt-trace`'s hand-written `json` module,
//!   used by the Chrome trace exporter.

use crate::online::StreamSnapshot;
use crate::summary::RunSummary;
use apt_hetsim::{SystemConfig, Trace};
use std::fmt::Write as _;

/// CSV header of [`trace_to_csv`].
pub const TRACE_CSV_HEADER: &str =
    "node,kernel,data_size,proc,proc_kind,ready_ms,start_ms,exec_start_ms,finish_ms,lambda_ms,alt";

/// Render a trace as CSV (header + one row per kernel, record order).
pub fn trace_to_csv(trace: &Trace, config: &SystemConfig) -> String {
    let mut out = String::with_capacity(64 * (trace.records.len() + 1));
    out.push_str(TRACE_CSV_HEADER);
    out.push('\n');
    for r in &trace.records {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
            r.node.index(),
            r.kernel.kind.tag(),
            r.kernel.data_size,
            r.proc.index(),
            config.kind_of(r.proc).label(),
            r.ready.as_ms_f64(),
            r.start.as_ms_f64(),
            r.exec_start.as_ms_f64(),
            r.finish.as_ms_f64(),
            r.lambda().as_ms_f64(),
            r.alt,
        );
    }
    out
}

/// CSV header of [`summaries_to_csv`].
pub const SUMMARY_CSV_HEADER: &str =
    "policy,makespan_ms,lambda_total_ms,lambda_avg_ms,lambda_stddev_ms,lambda_count,alt_assignments";

/// Render run summaries as CSV (header + one row per run).
pub fn summaries_to_csv(summaries: &[RunSummary]) -> String {
    let mut out = String::new();
    out.push_str(SUMMARY_CSV_HEADER);
    out.push('\n');
    for s in summaries {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.6},{:.6},{},{}",
            csv_quote(&s.policy),
            s.makespan.as_ms_f64(),
            s.lambda_total.as_ms_f64(),
            s.lambda_avg.as_ms_f64(),
            s.lambda_stddev_ms,
            s.lambda_count,
            s.alt_assignments,
        );
    }
    out
}

/// CSV header of [`snapshots_to_csv`].
pub const SNAPSHOT_CSV_HEADER: &str = "label,end_ms,interval_ms,window_jobs,total_jobs,\
     throughput_jps,latency_p50_ms,latency_p90_ms,latency_p99_ms,mean_depth,depth_now,\
     window_missed,total_missed,total_deadline_jobs,miss_rate,tardiness_p99_ms,util_mean,\
     window_failed,total_failed,window_kernel_failures,window_retries,availability,\
     window_admitted,window_shed,total_shed,window_deadline_jobs,window_miss_rate";

/// Render labelled snapshot series as long-format CSV: one row per
/// `(label, window)`, windows in emission order. The label identifies the
/// run (policy, rate, α, …) so a whole sweep exports into a single flat
/// file ready for pivoting/plotting. `util_mean` averages the per-processor
/// window utilizations.
pub fn snapshots_to_csv<'a>(
    rows: impl IntoIterator<Item = (&'a str, &'a [StreamSnapshot])>,
) -> String {
    let mut out = String::new();
    out.push_str(SNAPSHOT_CSV_HEADER);
    out.push('\n');
    for (label, snapshots) in rows {
        let label = csv_quote(label);
        for s in snapshots {
            let util_mean = if s.utilization.is_empty() {
                0.0
            } else {
                s.utilization.iter().sum::<f64>() / s.utilization.len() as f64
            };
            let _ = writeln!(
                out,
                "{},{:.6},{:.6},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{:.6},{},{},{},{},{:.6}",
                label,
                s.end.as_ms_f64(),
                s.interval.as_ms_f64(),
                s.window_jobs,
                s.total_jobs,
                s.throughput_jps,
                s.latency_p50_ms,
                s.latency_p90_ms,
                s.latency_p99_ms,
                s.mean_depth,
                s.depth_now,
                s.window_missed,
                s.total_missed,
                s.total_deadline_jobs,
                s.miss_rate(),
                s.tardiness_p99_ms,
                util_mean,
                s.window_failed,
                s.total_failed,
                s.window_kernel_failures,
                s.window_retries,
                s.availability,
                s.window_admitted,
                s.window_shed,
                s.total_shed,
                s.window_deadline_jobs,
                s.window_miss_rate(),
            );
        }
    }
    out
}

/// Quote a CSV field if it contains separators or quotes.
fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::simulate;
    use apt_policies::Met;

    fn sample() -> (Trace, SystemConfig) {
        let kernels = vec![
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        (res.trace, config)
    }

    #[test]
    fn trace_csv_has_one_row_per_kernel_and_parses() {
        let (trace, config) = sample();
        let csv = trace_to_csv(&trace, &config);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], TRACE_CSV_HEADER);
        assert_eq!(lines.len(), 1 + trace.records.len());
        let cols = TRACE_CSV_HEADER.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "bad row: {line}");
        }
        // The nw row carries its CPU timing.
        let nw_row = lines.iter().find(|l| l.contains(",nw,")).unwrap();
        assert!(nw_row.contains("CPU"), "{nw_row}");
        assert!(nw_row.ends_with("false"));
    }

    #[test]
    fn summary_csv_round_trips_the_numbers() {
        let (trace, _) = sample();
        let summary = RunSummary {
            policy: "MET".into(),
            makespan: trace.makespan(),
            busy_per_proc: vec![],
            transfer_per_proc: vec![],
            idle_per_proc: vec![],
            lambda_total: trace.lambda_total(),
            lambda_avg: trace.lambda_avg(),
            lambda_stddev_ms: trace.lambda_stddev_ms(),
            lambda_count: trace.lambda_count(),
            alt_assignments: 0,
            alt_by_kind: Default::default(),
        };
        let csv = summaries_to_csv(std::slice::from_ref(&summary));
        let row = csv.lines().nth(1).unwrap();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields[0], "MET");
        let makespan: f64 = fields[1].parse().unwrap();
        assert!((makespan - summary.makespan.as_ms_f64()).abs() < 1e-6);
    }

    #[test]
    fn snapshot_csv_is_long_format_with_one_row_per_window() {
        use apt_base::{SimDuration, SimTime};
        let snap = |end_ms: u64, jobs: u64, missed: u64| StreamSnapshot {
            end: SimTime::from_ms(end_ms),
            interval: SimDuration::from_ms(100),
            window_jobs: jobs,
            total_jobs: jobs,
            throughput_jps: jobs as f64 * 10.0,
            latency_p50_ms: 5.0,
            latency_p90_ms: 9.0,
            latency_p99_ms: 11.0,
            mean_depth: 1.5,
            depth_now: 1,
            window_missed: missed,
            total_missed: missed,
            total_deadline_jobs: jobs,
            tardiness_p99_ms: 2.0,
            utilization: vec![0.5, 0.25],
            window_failed: 0,
            total_failed: 0,
            window_kernel_failures: 0,
            window_retries: 0,
            window_down_ns: 0,
            window_wasted_ns: 0,
            availability: 1.0,
            window_admitted: jobs,
            window_shed: 0,
            total_shed: 0,
            window_deadline_jobs: jobs,
        };
        let a = vec![snap(100, 4, 1), snap(200, 2, 0)];
        let b = vec![snap(100, 3, 3)];
        let csv = snapshots_to_csv([("APT,α=4/λ=0.2", a.as_slice()), ("MET", b.as_slice())]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], SNAPSHOT_CSV_HEADER);
        assert_eq!(lines.len(), 1 + 3, "one row per (label, window)");
        // The comma-carrying label is quoted, so column counts line up.
        let cols = SNAPSHOT_CSV_HEADER.split(',').count();
        assert!(lines[1].starts_with("\"APT,α=4/λ=0.2\","));
        assert_eq!(lines[3].split(',').count(), cols, "bad row: {}", lines[3]);
        // Miss-rate column: window 1 of run A had 1/4 missed.
        assert!(lines[1].contains(",0.250000,"), "{}", lines[1]);
        // util_mean averages the per-proc window utilizations; the fault
        // columns of a fault-free snapshot are zeros with availability 1.
        assert!(lines[1].contains(",0.375000,"), "{}", lines[1]);
        // Fault columns are zeros with availability 1; the admission tail
        // carries the window's admitted/shed counts and windowed miss rate.
        assert!(
            lines[1].ends_with(",0,0,0,0,1.000000,4,0,0,4,0.250000"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn csv_quoting_escapes_policies_with_commas() {
        let quoted = csv_quote("APT, tuned \"auto\"");
        assert_eq!(quoted, "\"APT, tuned \"\"auto\"\"\"");
        assert_eq!(csv_quote("MET"), "MET");
    }
}
