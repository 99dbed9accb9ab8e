//! Open-stream scenarios: sustained load, bursts, and saturation.
//!
//! The paper's evaluation is closed-world (Tables 8–16 all start with every
//! kernel present); these artifacts open the axis the ROADMAP's
//! production-scale north-star actually lives on. The headline scenario
//! sweeps the offered arrival rate λ against each dynamic policy and
//! reports where the system *saturates* — the classic open-system question
//! ("what load can this scheduler sustain, and how do its latency tails
//! behave on the way there?") that makespan comparisons cannot ask.
//!
//! The run grid is parallelized over the full λ × policy plane with the
//! same worker pool the table sweeps use.

use crate::runner::run_pool;
use apt_core::prelude::*;
use apt_core::PolicyFactory;
use apt_metrics::TextTable;
use apt_stream::{simulate_source, DriverOpts, JobFamily, PoissonSource, StreamOutcome};

/// Jobs per sweep point. Small enough that the full λ grid regenerates in
/// seconds, large enough that quantile estimates stabilize.
pub const SWEEP_JOBS: u64 = 600;

/// The swept offered rates, jobs per simulated second. The paper machine's
/// service capacity for the uniform diamond-job mix sits around 0.3 job/s
/// (each job carries four kernels, several of them multi-second), so the
/// grid straddles the knee: the low end runs comfortably, the high end
/// drives every policy into saturation.
pub const SWEEP_RATES: [f64; 5] = [0.05, 0.1, 0.2, 0.4, 0.8];

/// In-flight cap marking a sweep point as saturated (admission stops, the
/// run drains, and the row is flagged) — without it a past-capacity point
/// would queue without bound.
pub const SWEEP_CAP: usize = 256;

/// Seed for the sweep's arrival streams: every policy sees the *same*
/// arrivals at a given λ.
pub const SWEEP_SEED: u64 = 0x0057_AB11;

/// The dynamic policies the open-stream scenarios compare (static HEFT and
/// PEFT cannot run an open system — they plan over a complete DFG).
pub fn stream_policy_factories(alpha: f64) -> Vec<(String, PolicyFactory)> {
    all_policy_factories(alpha)
        .into_iter()
        .filter(|(name, _)| name != "HEFT" && name != "PEFT")
        .collect()
}

/// Metrics-window width of the saturation, SLO, topology and fault sweep
/// cells. The first three export these windows as their CSV form.
pub const SWEEP_WINDOW: SimDuration = SimDuration::from_ms(120_000);

/// One sweep cell: policy × offered λ, closing a metrics window every
/// [`SWEEP_WINDOW`].
pub fn stream_point(
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    rate: f64,
) -> StreamOutcome {
    let mut policy = make();
    let mut source = PoissonSource::new(
        LookupTable::paper(),
        rate,
        SWEEP_JOBS,
        JobFamily::Diamond { width: 2 },
        SWEEP_SEED,
    );
    simulate_source(
        &mut source,
        &SystemConfig::paper_4gbps(),
        LookupTable::paper(),
        policy.as_mut(),
        &DriverOpts {
            snapshot_interval: Some(SWEEP_WINDOW),
            max_in_flight_jobs: Some(SWEEP_CAP),
            ..DriverOpts::default()
        },
    )
    .expect("stream sweep point failed")
}

/// The long-format snapshot CSV of a grid run: each cell's windows under
/// its label, in grid order.
pub(crate) fn windows_csv(labels: &[String], outcomes: &[StreamOutcome]) -> String {
    apt_metrics::export::snapshots_to_csv(
        labels
            .iter()
            .zip(outcomes)
            .map(|(label, o)| (label.as_str(), o.snapshots.as_slice())),
    )
}

/// The λ-saturation sweep: offered rate vs achieved throughput, latency
/// quantiles, peak backlog and utilization, per dynamic policy at the
/// paper's best α. Returns the table and the long-format snapshot CSV
/// (cells labelled `policy/λ`), both from one grid run.
pub fn stream_saturation() -> (TextTable, String) {
    let factories = stream_policy_factories(PAPER_BEST_ALPHA);
    let cells: Vec<(f64, usize)> = SWEEP_RATES
        .iter()
        .flat_map(|&rate| (0..factories.len()).map(move |p| (rate, p)))
        .collect();
    let outcomes = run_pool(cells.len(), |i| {
        let (rate, p) = cells[i];
        stream_point(factories[p].1.as_ref(), rate)
    });
    let mut table = TextTable::new(
        format!(
            "Open-stream λ sweep — {} Poisson diamond jobs/point, α = {} (sat = admission capped at {} in flight)",
            SWEEP_JOBS, PAPER_BEST_ALPHA, SWEEP_CAP
        ),
        &[
            "offered λ (j/s)",
            "policy",
            "achieved (j/s)",
            "p50 (ms)",
            "p99 (ms)",
            "peak depth",
            "util %",
            "sat",
        ],
    );
    let mut labels = Vec::with_capacity(cells.len());
    for (&(rate, p), o) in cells.iter().zip(&outcomes) {
        let name = &factories[p].0;
        let mean_util =
            o.utilization().iter().sum::<f64>() / o.proc_stats.len().max(1) as f64 * 100.0;
        table.push_row(vec![
            format!("{rate}"),
            name.clone(),
            format!("{:.2}", o.throughput_jps),
            format!("{:.0}", o.latency_p50_ms),
            format!("{:.0}", o.latency_p99_ms),
            format!("{}", o.peak_in_flight_jobs),
            format!("{mean_util:.0}"),
            if o.saturated { "yes" } else { "" }.to_string(),
        ]);
        labels.push(format!("{name}/λ={rate}"));
    }
    (table, windows_csv(&labels, &outcomes))
}

/// Burst absorption: the same offered average load shaped as a steady
/// Poisson stream vs on/off bursts vs a diurnal swing, per policy. Shows
/// how much tail latency each policy's flexibility buys back under bursty
/// traffic — APT's raison d'être in an open system.
pub fn stream_burst_comparison() -> TextTable {
    use apt_stream::{DiurnalSource, OnOffSource, Source};
    type SourceFactory = Box<dyn Fn() -> Box<dyn Source> + Send + Sync>;
    let factories = stream_policy_factories(PAPER_BEST_ALPHA);
    let shapes: Vec<(&str, SourceFactory)> = vec![
        (
            "steady",
            Box::new(|| {
                Box::new(PoissonSource::new(
                    LookupTable::paper(),
                    0.15,
                    SWEEP_JOBS,
                    JobFamily::Diamond { width: 2 },
                    SWEEP_SEED,
                )) as Box<dyn Source>
            }),
        ),
        (
            "bursty",
            Box::new(|| {
                // ≈ 0.15 j/s average: 0.75 j/s bursts, ON 1/5 of the time.
                Box::new(OnOffSource::new(
                    LookupTable::paper(),
                    0.75,
                    SimDuration::from_ms(20_000),
                    SimDuration::from_ms(80_000),
                    SWEEP_JOBS,
                    JobFamily::Diamond { width: 2 },
                    SWEEP_SEED,
                )) as Box<dyn Source>
            }),
        ),
        (
            "diurnal",
            Box::new(|| {
                // Swings 0.05 … 0.25 j/s (≈ 0.15 average) over a 10-minute
                // "day".
                Box::new(DiurnalSource::new(
                    LookupTable::paper(),
                    0.05,
                    0.2,
                    SimDuration::from_ms(600_000),
                    SWEEP_JOBS,
                    JobFamily::Diamond { width: 2 },
                    SWEEP_SEED,
                )) as Box<dyn Source>
            }),
        ),
    ];
    let outcomes = run_pool(shapes.len() * factories.len(), |i| {
        let (_, make_source) = &shapes[i / factories.len()];
        let (_, make_policy) = &factories[i % factories.len()];
        let mut policy = make_policy();
        let mut source = make_source();
        simulate_source(
            source.as_mut(),
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            policy.as_mut(),
            &DriverOpts {
                snapshot_interval: None,
                max_in_flight_jobs: Some(SWEEP_CAP),
                ..DriverOpts::default()
            },
        )
        .expect("burst comparison point failed")
    });
    let mut table = TextTable::new(
        format!(
            "Burst absorption — {} diamond jobs at ≈ 0.15 j/s average, three traffic shapes, α = {}",
            SWEEP_JOBS, PAPER_BEST_ALPHA
        ),
        &[
            "shape", "policy", "p50 (ms)", "p99 (ms)", "mean (ms)", "peak depth", "λ total (s)",
        ],
    );
    for (i, o) in outcomes.iter().enumerate() {
        table.push_row(vec![
            shapes[i / factories.len()].0.to_string(),
            factories[i % factories.len()].0.clone(),
            format!("{:.0}", o.latency_p50_ms),
            format!("{:.0}", o.latency_p99_ms),
            format!("{:.0}", o.mean_latency_ms),
            format!("{}", o.peak_in_flight_jobs),
            format!("{:.1}", o.lambda_total.as_secs_f64()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_deterministic_and_complete() {
        let factories = stream_policy_factories(4.0);
        assert_eq!(
            factories
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["APT", "MET", "SPN", "SS", "AG"],
        );
        let (_, met) = &factories[1];
        let a = stream_point(met.as_ref(), 0.05);
        let b = stream_point(met.as_ref(), 0.05);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.end, b.end);
        assert_eq!(a.proc_stats, b.proc_stats);
        assert_eq!(a.jobs_admitted, SWEEP_JOBS);
        assert!(!a.saturated, "0.05 j/s must be sustainable");
    }

    #[test]
    fn high_rate_saturates_every_policy() {
        let factories = stream_policy_factories(4.0);
        let (_, apt) = &factories[0];
        let o = stream_point(apt.as_ref(), 16.0);
        assert!(o.saturated, "16 j/s should trip the admission cap");
        assert_eq!(o.jobs_admitted, o.jobs_completed);
    }

    #[test]
    fn saturation_table_has_the_full_grid() {
        let (t, _) = stream_saturation();
        assert_eq!(
            t.row_count(),
            SWEEP_RATES.len() * stream_policy_factories(4.0).len()
        );
    }
}
