//! A faulty, controlled diurnal stream with the tracer armed: the full
//! observability surface in one run, exported as a Chrome trace you can
//! open in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The load swings across the machine's ~0.3 j/s service capacity while a
//! seeded fault plan injects transient kernel failures and crash/repair
//! episodes, and the `apt-control` stack re-tunes (α, ρ) at every window
//! close. A [`VecSink`] records every event the run emits; the timeline
//! then shows one span track per processor (kernels with `xfer`/`exec`
//! sub-slices, APT alternative placements colored and annotated with
//! their Eq.-8 provenance), a driver track of admissions / sheds /
//! retirements / control actions, crash and repair instants, and counter
//! tracks for in-flight jobs, live α/ρ, and per-window miss rate. The
//! same events feed the §2.5.1 λ-delay summary printed at the end.
//!
//! ```bash
//! cargo run --release -p apt-suite --example traced_stream [out.json] [jobs] [peak_jps]
//! ```

use apt_stream::{DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, StreamRun};
use apt_suite::control::{
    AimdAdmission, AimdConfig, AlphaConfig, AlphaController, ControllerStack,
};
use apt_suite::prelude::*;
use apt_suite::slo::UtilizationBound;
use apt_suite::trace::chrome::{chrome_trace, validate, ChromeConfig};
use apt_suite::trace::summary::render_summary;
use apt_suite::trace::VecSink;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "trace.json".to_string());
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let peak: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.8);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let window = SimDuration::from_ms(20_000);

    // 0.1 j/s troughs to `peak` j/s peaks over a 10-minute day, deadlines
    // 6× each job's critical path.
    let mut source = DiurnalSource::new(
        lookup,
        0.1,
        peak - 0.1,
        SimDuration::from_ms(600_000),
        jobs,
        JobFamily::Diamond { width: 2 },
        0x7ACE,
    )
    .with_deadlines(DeadlineSpec::ProportionalCp { factor: 6.0 });

    // A machine that breaks: 5% transient kernel failures plus
    // crash/repair cycles (MTTF 60 s, MTTR 10 s per processor).
    let opts = DriverOpts {
        snapshot_interval: Some(window),
        faults: FaultPlan::seeded(0xFA17)
            .with_transient(0.05)
            .with_crashes(SimDuration::from_ms(60_000), SimDuration::from_ms(10_000)),
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..DriverOpts::default()
    };

    let mut policy = EdfApt::new(PAPER_BEST_ALPHA);
    let mut gate = UtilizationBound::new(lookup, &system, 1.0);
    let mut stack = ControllerStack::new(vec![
        Box::new(AimdAdmission::new(1.0, AimdConfig::default())),
        Box::new(AlphaController::new(
            PAPER_BEST_ALPHA,
            AlphaConfig::default(),
        )),
    ]);

    println!(
        "Traced stream: {jobs} diamond jobs, diurnal 0.1…{peak} j/s, faults armed,\n\
         EDF-APT(α = {PAPER_BEST_ALPHA}) behind UtilizationBound(ρ = 1) under the\n\
         AIMD + α-hill-climb stack, {}s windows — recording everything\n",
        window.as_ms_f64() / 1_000.0,
    );

    let (outcome, sink) = StreamRun::new(&mut source, &system, lookup, &mut policy, &opts)
        .gate(&mut gate)
        .controller(&mut stack)
        .trace(Box::new(VecSink::new()))
        .run()
        .expect("traced run");
    let events = sink
        .expect("the driver hands the armed sink back")
        .snapshot();

    let names = system.procs().iter().map(|p| p.name.clone()).collect();
    let json = chrome_trace(&events, &ChromeConfig::with_proc_names(names));
    let stats = validate(&json).expect("export obeys the Chrome field contract");
    std::fs::write(&path, &json).expect("write trace file");

    println!(
        "jobs: {} admitted, {} completed, {} shed | faults: {} transient failures, \
         {} retries, {} crashes | {} control actions",
        outcome.jobs_admitted,
        outcome.jobs_completed,
        outcome.jobs_shed,
        outcome.faults.kernel_failures,
        outcome.faults.retries,
        outcome.faults.crashes,
        outcome.control_log.len(),
    );
    println!(
        "wrote {path}: {} events ({} kernel spans, {} alt, {} alt-decisions, \
         {} counter tracks) — open it in chrome://tracing or ui.perfetto.dev\n",
        stats.events,
        stats.spans,
        stats.alt_spans,
        stats.alt_decisions,
        stats.counter_tracks.len(),
    );
    print!("{}", render_summary(&events, 10));
}
