//! Every latency and tardiness quantile a stream run reports is within
//! γ ([`QUANTILE_GAMMA`]) of the exact nearest-rank quantile of the jobs
//! it retired. The exact samples are recorded through
//! [`StreamRun::observe`], which sees every retired job in completion
//! order, and compared with the outcome and with the last snapshot (the
//! tail flush, taken after the last retirement).

use apt_base::SimDuration;
use apt_core::prelude::*;
use apt_metrics::QUANTILE_GAMMA;
use apt_stream::{DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamRun};

/// Asserts `got` is within γ of the sample at rank `⌈q·n⌉` of `sorted`.
fn assert_within_gamma(what: &str, got: f64, sorted: &[f64], q: f64) {
    let n = sorted.len();
    let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    assert!(
        (got - exact).abs() <= exact * QUANTILE_GAMMA * (1.0 + 1e-9),
        "{what} p{}: reported {got}, exact {exact}",
        q * 100.0
    );
}

#[test]
fn reported_quantiles_are_within_gamma_of_exact() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(20_000)),
        ..DriverOpts::default()
    };
    // Near saturation with tight deadlines, so latencies spread over a long
    // tail and a good share of the jobs finish tardy.
    let mut source = PoissonSource::new(lookup, 0.45, 600, JobFamily::Diamond { width: 2 }, 11)
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: 3.0 });
    let mut policy = EdfApt::new(PAPER_BEST_ALPHA);
    let mut latency = Vec::new();
    let mut tardiness = Vec::new();
    let (outcome, _) = StreamRun::new(&mut source, &config, lookup, &mut policy, &opts)
        .observe(|job| {
            if !job.failed {
                latency.push(job.finish().saturating_since(job.arrival).as_ms_f64());
                tardiness.extend(job.tardiness().map(SimDuration::as_ms_f64));
            }
        })
        .run()
        .unwrap();
    assert_eq!(latency.len() as u64, outcome.jobs_completed);
    assert_eq!(tardiness.len() as u64, outcome.deadline_jobs);
    assert!(outcome.deadline_misses > 0, "no tardy job to measure");
    latency.sort_by(f64::total_cmp);
    tardiness.sort_by(f64::total_cmp);

    assert_within_gamma("latency", outcome.latency_p50_ms, &latency, 0.50);
    assert_within_gamma("latency", outcome.latency_p90_ms, &latency, 0.90);
    assert_within_gamma("latency", outcome.latency_p99_ms, &latency, 0.99);
    assert_within_gamma("tardiness", outcome.tardiness_p50_ms, &tardiness, 0.50);
    assert_within_gamma("tardiness", outcome.tardiness_p99_ms, &tardiness, 0.99);

    let last = outcome.snapshots.last().expect("windows were enabled");
    assert_eq!(last.total_jobs, outcome.jobs_completed);
    assert_within_gamma("snapshot latency", last.latency_p50_ms, &latency, 0.50);
    assert_within_gamma("snapshot latency", last.latency_p90_ms, &latency, 0.90);
    assert_within_gamma("snapshot latency", last.latency_p99_ms, &latency, 0.99);
    assert_within_gamma(
        "snapshot tardiness",
        last.tardiness_p99_ms,
        &tardiness,
        0.99,
    );
}
