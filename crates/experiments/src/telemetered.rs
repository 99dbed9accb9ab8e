//! `apt-repro <scenario> --metrics <path>` — live telemetry exposition of
//! one representative open-stream cell.
//!
//! Runs the same representative cell as [`crate::traced`] (one shared
//! `RepresentativeCell` — the `--metrics` registry observes the very cell
//! the `--trace` timeline draws) under an armed
//! [`apt_stream::StreamTelemetry`], and renders two artifacts:
//!
//! * Prometheus text exposition of the final registry state, re-checked
//!   by [`apt_telemetry::validate`] before it leaves this module;
//! * the JSONL snapshot stream (one flat object per closed metrics
//!   window), re-checked by [`apt_trace::json::validate_jsonl`].
//!
//! With `--progress`, the run additionally ticks the throttled stderr
//! heartbeat (jobs/s, in-flight, miss rate, last window's α/ρ, ETA) — the
//! soak-run operator surface the CI smoke step exercises.

use crate::traced::{RepresentativeCell, StreamCell, TRACE_JOBS};
use apt_stream::StreamTelemetry;
use apt_telemetry::validate;
use apt_trace::json::validate_jsonl;

/// Keys every JSONL snapshot line must carry (the schema the CI soak
/// smoke step checks).
pub const JSONL_REQUIRED_KEYS: [&str; 8] = [
    "end_s",
    "window_jobs",
    "total_jobs",
    "throughput_jps",
    "window_miss_rate",
    "miss_rate",
    "alpha",
    "rho",
];

/// A rendered telemetered run: the two expositions and their sizes.
#[derive(Debug, Clone)]
pub struct MetricsExport {
    /// Prometheus text exposition (validated).
    pub prometheus: String,
    /// JSONL snapshot stream, one line per metrics window (validated).
    pub jsonl: String,
    /// Samples in the Prometheus exposition.
    pub samples: usize,
    /// Lines in the JSONL stream.
    pub lines: usize,
}

/// Run the representative cell of `stream` under an armed telemetry
/// registry (heartbeat on when `progress`) and render the expositions.
///
/// # Panics
///
/// Panics when the run's own telemetry violates its contracts — invalid
/// Prometheus or schema-incomplete JSONL — since a soak run with broken
/// observability must fail loudly, not quietly emit garbage dashboards.
pub fn artifact_metrics(stream: StreamCell, progress: bool) -> MetricsExport {
    let mut cell = RepresentativeCell::new(stream);
    let mut tel = StreamTelemetry::new();
    if progress {
        tel = tel.with_progress(Some(TRACE_JOBS));
    }
    let (outcome, _) = cell
        .stream()
        .telemetry(&mut tel)
        .run()
        .expect("representative telemetered run failed");

    let prometheus = tel.prometheus();
    let samples = validate(&prometheus).expect("registry rendered invalid Prometheus");
    let lines = validate_jsonl(tel.jsonl(), &JSONL_REQUIRED_KEYS)
        .expect("telemetry emitted a schema-incomplete JSONL stream");
    assert_eq!(
        lines as usize,
        outcome.snapshots.len(),
        "one JSONL line per metrics window"
    );

    MetricsExport {
        samples,
        lines: lines as usize,
        jsonl: tel.jsonl().to_string(),
        prometheus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract of `apt-repro stream-saturation
    /// --progress --metrics`: valid Prometheus exposition and one
    /// schema-complete JSONL line per window (the inner asserts of
    /// `artifact_metrics` carry the validation; this pins the content).
    #[test]
    fn stream_saturation_metrics_meet_the_acceptance_contract() {
        let export = artifact_metrics(crate::traced::saturation_stream, false);
        assert!(export.samples > 0);
        assert!(export.lines > 0);
        for metric in [
            "jobs_admitted_total",
            "jobs_completed_total",
            "jobs_shed_total",
            "deadline_misses_total",
            "job_latency_ms_bucket",
            "alpha",
            "rho",
        ] {
            assert!(
                export.prometheus.contains(metric),
                "exposition lost `{metric}`"
            );
        }
        // The saturating cell sheds and misses — the counters must show it.
        let value = |name: &str| -> u64 {
            export
                .prometheus
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample for {name}"))
        };
        assert!(value("jobs_shed_total") > 0, "saturation cell never shed");
        assert!(value("jobs_admitted_total") > 0);
    }

    /// `--metrics` resolves an id to its representative cell through the
    /// artifact table: open-stream ids have one, closed artifacts and
    /// unknown ids do not.
    #[test]
    fn capability_check_matches_the_resolver() {
        let cell = |id| crate::artifact(id).and_then(|spec| spec.cell);
        assert!(cell("stream-saturation").is_some());
        assert!(cell("control-sweep").is_some());
        assert!(crate::artifact("table7").is_some());
        assert!(cell("table7").is_none());
        assert!(cell("nope").is_none());
    }
}
