//! The tracing contract of the streaming driver.
//!
//! Tracing must be *purely observational*: a run under an armed
//! `TraceSink` — null or recording — produces a `StreamOutcome` equal
//! to the untraced run's, while the recorded event stream accounts
//! for every admission, shed, retirement, dispatch, completion, control
//! action, and window counter the run produced.

mod common;

use apt_base::{SimDuration, SimTime};
use apt_core::Apt;
use apt_dfg::LookupTable;
use apt_hetsim::SystemConfig;
use apt_stream::{DriverOpts, JobFamily, PoissonSource};
use apt_trace::{CounterKind, NullSink, TraceEvent, VecSink};
use common::run;

/// An armed recording sink changes nothing, and its event stream accounts
/// for exactly the run the outcome describes.
#[test]
fn traced_run_is_identical_and_fully_accounted() {
    let (bare, _) = run(None, None);
    let (traced, sink) = run(None, Some(Box::new(VecSink::new())));
    assert_eq!(bare, traced);

    let events = sink.unwrap().snapshot();
    assert!(!events.is_empty());
    let count =
        |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;

    // Driver bookkeeping: every admission, shed, and retirement is an event.
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobAdmitted { .. })),
        traced.jobs_admitted
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobShed { .. })),
        traced.jobs_shed
    );
    assert!(traced.jobs_shed > 0, "the capacity guard never shed");
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobRetired { .. })),
        traced.jobs_completed + traced.jobs_failed
    );
    // Engine bookkeeping: completions match, and every completed kernel
    // was dispatched and started.
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::KernelComplete { .. })),
        traced.kernels_completed
    );
    assert!(count(&|e| matches!(e, TraceEvent::KernelDispatch { .. })) >= traced.kernels_completed);
    assert!(count(&|e| matches!(e, TraceEvent::ExecStart { .. })) >= traced.kernels_completed);
    // Every kernel slot was bound to its job at admission.
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::KernelBound { .. })),
        2 * traced.jobs_admitted,
        "Chain {{ len: 2 }} binds two kernels per job"
    );
    // APT under load produced decision provenance for alternative picks.
    assert!(
        count(&|e| matches!(e, TraceEvent::Decision(_))) > 0,
        "no DecisionRecord from APT under a saturating stream"
    );
    // Transient faults fired, and each retry left its event.
    assert!(traced.faults.retries > 0, "the fault plan never fired");
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::RetryAttempt { .. })),
        traced.faults.retries
    );
    // Control actions are mirrored one-to-one.
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::Control { .. })),
        traced.control_log.len() as u64
    );
    // Window counters: one α, in-flight and miss-rate sample per snapshot,
    // the flushed tail window included.
    let windows = traced.snapshots.len() as u64;
    assert!(windows > 0);
    assert_ne!(
        traced.snapshots.last().unwrap().interval,
        SimDuration::from_ms(10_000),
        "the run must end mid-window for the tail to be covered"
    );
    let counter_of = |kind: CounterKind| {
        count(&|e| matches!(e, TraceEvent::Counter { kind: k, .. } if *k == kind))
    };
    assert_eq!(counter_of(CounterKind::Alpha), windows);
    assert_eq!(counter_of(CounterKind::InFlightJobs), windows);
    assert_eq!(counter_of(CounterKind::WindowMissRate), windows);
    // AdmitAll has no utilization bound: no ρ track on this run.
    assert_eq!(counter_of(CounterKind::Rho), 0);
    // The α retune is visible in the counter track: 8 before the window
    // where the one-shot controller fired, 6 after.
    let alphas: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Counter {
                kind: CounterKind::Alpha,
                value,
                ..
            } => Some(*value),
            _ => None,
        })
        .collect();
    assert_eq!(alphas[0], 8.0);
    assert_eq!(*alphas.last().unwrap(), 6.0);
}

/// The null sink: same outcome, nothing retained, nothing dropped.
#[test]
fn null_sink_run_is_identical_and_empty() {
    let (bare, _) = run(None, None);
    let (nulled, sink) = run(None, Some(Box::new(NullSink)));
    assert_eq!(bare, nulled);
    let sink = sink.unwrap();
    assert_eq!(sink.dropped(), 0);
    assert!(sink.snapshot().is_empty());
    assert_eq!(sink.name(), "null");
}

/// Satellite pin: the per-window admission/shed counters under
/// `shed_when_full` — every window's `window_admitted`/`window_shed`
/// partitions the offered load, and the sums reconcile with the run
/// totals.
#[test]
fn window_admission_counters_reconcile_under_shed_when_full() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 4.0, 200, JobFamily::Single, 21);
    let outcome = apt_stream::simulate_source(
        &mut source,
        &config,
        lookup,
        &mut Apt::new(4.0),
        &DriverOpts {
            snapshot_interval: Some(SimDuration::from_ms(5_000)),
            max_in_flight_jobs: Some(4),
            shed_when_full: true,
            ..DriverOpts::default()
        },
    )
    .unwrap();
    assert!(outcome.saturated, "the guard must fire under this load");
    assert!(outcome.jobs_shed > 0);
    assert_eq!(
        outcome
            .snapshots
            .iter()
            .map(|s| s.window_admitted)
            .sum::<u64>(),
        outcome.jobs_admitted
    );
    assert_eq!(
        outcome.snapshots.iter().map(|s| s.window_shed).sum::<u64>(),
        outcome.jobs_shed
    );
    assert!(
        outcome.snapshots.iter().any(|s| s.window_shed > 0),
        "no single window recorded a shed"
    );
    assert!(
        outcome
            .snapshots
            .iter()
            .any(|s| s.window_admitted > 0 && s.window_shed > 0),
        "shed mode interleaves admissions and sheds within a window"
    );
    assert!(outcome.end > SimTime::ZERO);
}
