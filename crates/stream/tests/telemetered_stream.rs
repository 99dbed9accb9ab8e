//! The telemetry contract of the streaming driver.
//!
//! Telemetry must be *purely observational*: a run under an armed
//! [`StreamTelemetry`] produces a `StreamOutcome` equal to the bare
//! run's, while the registry's counters, gauges, histograms and JSONL
//! snapshot stream account for exactly the run the outcome describes.

mod common;

use apt_stream::StreamTelemetry;
use apt_telemetry::{validate, validate_jsonl};
use apt_trace::RingSink;
use common::run;

/// An armed registry changes nothing, and its counters reconcile exactly
/// with the outcome the run reports.
#[test]
fn telemetered_run_is_identical_and_fully_accounted() {
    let (bare, _) = run(None, None);
    let mut tel = StreamTelemetry::new();
    let (metered, _) = run(Some(&mut tel), None);
    assert_eq!(bare, metered);

    let reg = tel.registry();
    let counter = |name: &str| {
        reg.counter_named(name, &[])
            .unwrap_or_else(|| panic!("{name}"))
    };
    assert_eq!(counter("jobs_admitted_total"), metered.jobs_admitted);
    assert_eq!(counter("jobs_completed_total"), metered.jobs_completed);
    assert_eq!(counter("jobs_failed_total"), metered.jobs_failed);
    assert_eq!(counter("jobs_shed_total"), metered.jobs_shed);
    assert_eq!(
        counter("kernels_completed_total"),
        metered.kernels_completed
    );
    assert_eq!(counter("deadline_misses_total"), metered.deadline_misses);
    assert!(metered.jobs_shed > 0, "the capacity guard never shed");
    assert!(metered.deadline_misses > 0, "no misses under saturation");

    // Latency histogram: one sample per successful job, and the same
    // estimator at the same γ as the outcome's, so equal quantiles.
    let lat = reg.histogram_named("job_latency_ms", &[]).unwrap();
    assert_eq!(lat.count(), metered.jobs_completed);
    let q = |q: f64| lat.quantile(q).expect("non-empty histogram");
    assert_eq!(q(0.5), metered.latency_p50_ms);
    assert_eq!(q(0.9), metered.latency_p90_ms);
    assert_eq!(q(0.99), metered.latency_p99_ms);

    // End-of-run gauges track the drained system.
    assert_eq!(reg.gauge_named("in_flight_jobs", &[]).unwrap(), 0.0);
    assert!(reg.gauge_named("sim_time_seconds", &[]).unwrap() > 0.0);

    // The exposition is valid Prometheus and the JSONL stream carries one
    // schema-complete line per snapshot (closed windows plus the tail).
    validate(&tel.prometheus()).expect("registry renders invalid Prometheus");
    let lines = validate_jsonl(
        tel.jsonl(),
        &[
            "end_s",
            "total_jobs",
            "throughput_jps",
            "window_miss_rate",
            "alpha",
        ],
    )
    .expect("invalid JSONL snapshot stream");
    assert_eq!(lines as usize, metered.snapshots.len());
}

/// The tardiness histogram holds one sample per completed deadline job
/// and, like the latency one, shares the outcome's estimator and γ.
#[test]
fn tardiness_histogram_matches_the_outcome() {
    let mut tel = StreamTelemetry::new();
    let (metered, _) = run(Some(&mut tel), None);
    let tard = tel
        .registry()
        .histogram_named("job_tardiness_ms", &[])
        .unwrap();
    assert_eq!(tard.count(), metered.deadline_jobs);
    assert_eq!(tard.quantile(0.5), Some(metered.tardiness_p50_ms));
    assert_eq!(tard.quantile(0.99), Some(metered.tardiness_p99_ms));
    assert!(
        metered.tardiness_p99_ms > 0.0,
        "no tardy job in the fixture"
    );
}

/// Each JSONL line reports its window's snapshot quantiles as they are:
/// the text round-trips to the same `f64`s.
#[test]
fn jsonl_quantiles_are_the_snapshot_quantiles() {
    let mut tel = StreamTelemetry::new();
    let (metered, _) = run(Some(&mut tel), None);
    let field = |line: &str, key: &str| -> f64 {
        let rest = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
        rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
    };
    let lines: Vec<&str> = tel.jsonl().lines().collect();
    assert_eq!(lines.len(), metered.snapshots.len());
    for (line, snap) in lines.iter().zip(&metered.snapshots) {
        assert_eq!(field(line, "latency_p50_ms"), snap.latency_p50_ms);
        assert_eq!(field(line, "latency_p90_ms"), snap.latency_p90_ms);
        assert_eq!(field(line, "latency_p99_ms"), snap.latency_p99_ms);
    }
}

/// A bounded ring sink riding along surfaces its retained + dropped
/// totals through the registry (satellite: trace back-pressure is
/// observable without touching the sink).
#[test]
fn trace_sink_totals_surface_in_registry() {
    let (bare, _) = run(None, None);
    let mut tel = StreamTelemetry::new();
    let (metered, sink) = run(Some(&mut tel), Some(Box::new(RingSink::new(64))));
    assert_eq!(bare, metered);

    let sink = sink.expect("the driver hands the sink back");
    assert!(sink.dropped() > 0, "a 64-slot ring must drop on this run");
    let reg = tel.registry();
    assert_eq!(
        reg.counter_named("trace_events_total", &[]).unwrap(),
        sink.recorded()
    );
    assert_eq!(
        reg.counter_named("trace_events_dropped_total", &[])
            .unwrap(),
        sink.dropped()
    );
}
