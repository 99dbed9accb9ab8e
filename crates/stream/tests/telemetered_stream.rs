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

    // Latency histogram: one sample per successful job, sane quantile.
    let lat = reg.histogram_named("job_latency_ms", &[]).unwrap();
    assert_eq!(lat.count(), metered.jobs_completed);
    let p50 = lat.quantile(0.5).expect("non-empty histogram");
    assert!(
        (p50 - metered.latency_p50_ms).abs() <= 0.15 * metered.latency_p50_ms.max(1.0),
        "histogram p50 {p50} vs P² p50 {}",
        metered.latency_p50_ms
    );

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

/// Without the `self-profile` feature the profile request is inert; with
/// it, the report's phase wall-clock covers ≥ 90% of the engine total.
#[test]
fn phase_report_presence_matches_feature() {
    let mut tel = StreamTelemetry::new().with_engine_profile();
    let (_outcome, _) = run(Some(&mut tel), None);
    #[cfg(feature = "self-profile")]
    {
        let report = tel
            .phase_report()
            .expect("profiling compiled in + requested");
        assert!(
            report.coverage() >= 0.90,
            "phase sum covers only {:.1}% of engine wall-clock",
            100.0 * report.coverage()
        );
        assert!(report.decide_calls > 0);
        assert!(report.assignments > 0);
        let expo = tel.prometheus();
        validate(&expo).expect("report mirror broke the exposition");
        assert!(expo.contains("engine_phase_ns_total{phase=\"decide\"}"));
        assert!(
            expo.contains("policy_decide_calls_total{policy="),
            "decision counters missing from the registry mirror"
        );
    }
    #[cfg(not(feature = "self-profile"))]
    assert!(tel.phase_report().is_none());
}
