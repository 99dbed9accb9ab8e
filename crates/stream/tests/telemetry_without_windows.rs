//! Telemetry on a run with no metrics windows.
//!
//! Without `DriverOpts::snapshot_interval` no window ever closes, so the
//! registry's job counters and histograms are filled once, at the end of
//! the run, from the run's `OnlineMetrics`. They must still account for
//! exactly the run the `StreamOutcome` describes.

use apt_base::{BaseError, SimDuration};
use apt_core::Apt;
use apt_dfg::LookupTable;
use apt_hetsim::{FaultPlan, RetryPolicy, SystemConfig};
use apt_stream::{
    DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamOutcome, StreamRun, StreamTelemetry,
};

/// A capacity-gated, faulty, deadline-carrying stream without windows,
/// with `tel` armed when given. A kernel gets one attempt, so a transient
/// failure fails its job.
fn run(tel: Option<&mut StreamTelemetry>) -> Result<StreamOutcome, BaseError> {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 2.0, 150, JobFamily::Chain { len: 2 }, 9)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(800)));
    let mut policy = Apt::new(8.0);
    let opts = DriverOpts {
        snapshot_interval: None,
        max_in_flight_jobs: Some(6),
        shed_when_full: true,
        faults: FaultPlan::seeded(5).with_transient(0.05),
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..DriverOpts::default()
    };
    let mut run = StreamRun::new(&mut source, &config, lookup, &mut policy, &opts);
    if let Some(tel) = tel {
        run = run.telemetry(tel);
    }
    run.run().map(|(outcome, _)| outcome)
}

#[test]
fn a_windowless_run_fills_the_registry_at_the_end() {
    let bare = run(None).unwrap();
    let mut tel = StreamTelemetry::new();
    let metered = run(Some(&mut tel)).unwrap();
    assert_eq!(bare, metered);
    assert!(metered.snapshots.is_empty());
    assert!(tel.jsonl().is_empty(), "no window, no JSONL line");

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
    // The fixture exercises every counter.
    assert!(metered.jobs_shed > 0, "the capacity guard never shed");
    assert!(metered.jobs_failed > 0, "no job failed");
    assert!(metered.deadline_misses > 0, "no deadline missed");

    let lat = reg.histogram_named("job_latency_ms", &[]).unwrap();
    assert_eq!(lat.count(), metered.jobs_completed);
    assert_eq!(lat.quantile(0.5), Some(metered.latency_p50_ms));
    assert_eq!(lat.quantile(0.9), Some(metered.latency_p90_ms));
    assert_eq!(lat.quantile(0.99), Some(metered.latency_p99_ms));
    let tard = reg.histogram_named("job_tardiness_ms", &[]).unwrap();
    assert_eq!(tard.count(), metered.deadline_jobs);
    assert_eq!(tard.quantile(0.5), Some(metered.tardiness_p50_ms));
    assert_eq!(tard.quantile(0.99), Some(metered.tardiness_p99_ms));

    assert_eq!(reg.gauge_named("in_flight_jobs", &[]), Some(0.0));
    apt_telemetry::validate(&tel.prometheus()).expect("invalid Prometheus");
}

/// The registry mirrors one run's totals, so arming a telemetry that
/// already published a run is a typed error, and it keeps that run.
#[test]
fn a_telemetry_publishes_one_run() {
    let mut tel = StreamTelemetry::new();
    let first = run(Some(&mut tel)).unwrap();
    let before = tel.prometheus();
    let err = run(Some(&mut tel)).expect_err("a second run into one telemetry");
    assert!(matches!(err, BaseError::InvalidSystem { .. }), "{err}");
    assert_eq!(tel.prometheus(), before);
    assert_eq!(
        tel.registry().counter_named("jobs_completed_total", &[]),
        Some(first.jobs_completed)
    );
}
