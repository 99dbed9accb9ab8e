//! A soak run with the full telemetry surface armed: live heartbeat on
//! stderr, a shard-mergeable metrics registry riding the stream, and
//! Prometheus + JSONL expositions written at the end.
//!
//! The same faulty, controlled diurnal stream as `traced_stream.rs`, but
//! observed the *other* way (see the decision table in the crate docs):
//! instead of an event per occurrence, a fixed-size
//! [`apt_suite::telemetry::Registry`] of counters, gauges and
//! log-bucketed histograms — constant memory however long the stream
//! runs, which is the point of a soak. While the run is live a throttled
//! heartbeat ticks on stderr (jobs/s, in-flight, miss rate, the last
//! closed window's α/ρ, ETA); when it ends the example writes the
//! validated Prometheus text exposition to `<out>` and the per-window
//! JSONL snapshot stream to `<out>.jsonl`.
//!
//! ```bash
//! cargo run --release -p apt-suite --example telemetry_soak [out.prom] [jobs] [peak_jps]
//! ```

use apt_stream::{DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, StreamRun, StreamTelemetry};
use apt_suite::control::{
    AimdAdmission, AimdConfig, AlphaConfig, AlphaController, ControllerStack,
};
use apt_suite::prelude::*;
use apt_suite::slo::UtilizationBound;
use apt_suite::telemetry::{validate, validate_jsonl};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "soak.prom".to_string());
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let peak: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.8);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let window = SimDuration::from_ms(20_000);

    let mut source = DiurnalSource::new(
        lookup,
        0.1,
        peak - 0.1,
        SimDuration::from_ms(600_000),
        jobs,
        JobFamily::Diamond { width: 2 },
        0x50AC,
    )
    .with_deadlines(DeadlineSpec::ProportionalCp { factor: 6.0 });

    let opts = DriverOpts {
        snapshot_interval: Some(window),
        faults: FaultPlan::seeded(0xFA17).with_transient(0.05),
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
        "Telemetry soak: {jobs} diamond jobs, diurnal 0.1…{peak} j/s, transient faults,\n\
         EDF-APT(α = {PAPER_BEST_ALPHA}) behind UtilizationBound(ρ = 1) under the\n\
         AIMD + α-hill-climb stack, {}s windows — registry armed\n",
        window.as_ms_f64() / 1_000.0,
    );

    // Heartbeat + registry, both in one rider. The run itself is
    // untouched: the outcome is byte-identical to the same stream without
    // telemetry (pinned by the equivalence suites).
    let mut tel = StreamTelemetry::new().with_progress(Some(jobs));

    let (outcome, _) = StreamRun::new(&mut source, &system, lookup, &mut policy, &opts)
        .gate(&mut gate)
        .controller(&mut stack)
        .telemetry(&mut tel)
        .run()
        .expect("telemetered run");

    let prometheus = tel.prometheus();
    let samples = validate(&prometheus).expect("registry renders valid Prometheus");
    std::fs::write(&path, &prometheus).expect("write exposition");
    let jsonl_path = format!("{path}.jsonl");
    let lines = validate_jsonl(tel.jsonl(), &["end_s", "total_jobs", "miss_rate"])
        .expect("JSONL stream carries the window schema");
    std::fs::write(&jsonl_path, tel.jsonl()).expect("write JSONL stream");

    println!(
        "jobs: {} admitted, {} completed, {} shed | {} windows | {} control actions",
        outcome.jobs_admitted,
        outcome.jobs_completed,
        outcome.jobs_shed,
        outcome.snapshots.len(),
        outcome.control_log.len(),
    );
    println!("wrote {path} ({samples} samples) and {jsonl_path} ({lines} windows)");
}
