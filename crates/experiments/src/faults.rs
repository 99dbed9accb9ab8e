//! Failure-mode scenarios: does APT's alternative-processor choice double
//! as a *failover* policy when processors crash?
//!
//! The paper's machines never fail. `apt-repro fault-sweep` re-asks the
//! open-stream question under injected faults: deadline-tagged Poisson
//! streams on the paper machine, with transient kernel failures plus
//! processor crash/repair cycles from a seeded [`FaultPlan`], swept over
//! MTTF × offered-λ × policy. The roster pairs the threshold policies
//! (APT, EDF-APT, LL-APT) against MET and OLB because the failure model
//! sharpens exactly their contrast:
//!
//! * **MET** keeps waiting for a crashed best processor — its queue holds
//!   until repair, so downtime turns directly into latency and misses,
//! * **APT** (and the deadline-aware variants) already fail over to any
//!   alternative within α× the best time; a crash just makes the
//!   alternative the only choice — degraded-mode scheduling for free,
//! * **OLB** scatters to any idle processor and rides out crashes, but
//!   pays its usual placement penalty while everything is up.
//!
//! Each cell reports *goodput* (completed jobs/s) against raw throughput,
//! the failed-job count, deadline miss rate, the wasted-work fraction
//! (occupancy thrown away by killed attempts), and processor availability.
//! `--csv` exports one summary row per cell — goodput, throughput,
//! miss rate, wasted-work fraction, availability, and the raw fault
//! counters — ready for pivoting on the MTTF × λ axes.

use crate::runner::run_pool;
use crate::slo::slo_policy_factories;
use crate::streaming::SWEEP_WINDOW;
use apt_core::prelude::*;
use apt_core::PolicyFactory;
use apt_metrics::TextTable;
use apt_stream::{DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamOutcome};

/// Jobs per sweep cell.
pub const FAULT_JOBS: u64 = 300;

/// Offered arrival rates (jobs/s): below and near the diamond-mix service
/// capacity of the fully-up paper machine (~0.3 j/s) — crashes shrink the
/// machine, so the upper rate runs degraded cells past their knee.
pub const FAULT_RATES: [f64; 2] = [0.15, 0.3];

/// The MTTF axis: `None` disables faults entirely (the byte-identical
/// baseline row); the finite settings crash each processor after an
/// exponential uptime with this mean.
pub const FAULT_MTTFS: [Option<SimDuration>; 3] = [
    None,
    Some(SimDuration::from_ms(120_000)),
    Some(SimDuration::from_ms(30_000)),
];

/// Mean repair time of every crashy row.
pub const FAULT_MTTR: SimDuration = SimDuration::from_ms(5_000);

/// Per-execution transient failure probability of the crashy rows.
pub const FAULT_TRANSIENT_PROB: f64 = 0.1;

/// Deadline tightness: `D = 4 × critical_path_min(job)` — loose enough
/// that the fault-free rows mostly meet it, tight enough that downtime
/// shows up as misses.
pub const FAULT_TIGHTNESS: f64 = 4.0;

/// In-flight cap (shedding mode, so degraded cells drop load instead of
/// latching admission shut for the rest of the stream).
pub const FAULT_CAP: usize = 256;

/// Seed of the arrival streams (every cell at a given λ sees the same
/// arrivals) and of the fault plans (salted separately inside
/// `apt-faults`, so the two never share draws).
pub const FAULT_SEED: u64 = 0xFA17_0B5E;

/// The compared policies (see the module docs): the SLO sweep's APT
/// triple, then MET and OLB.
pub fn fault_policy_factories(alpha: f64) -> Vec<(String, PolicyFactory)> {
    let mut roster = slo_policy_factories(alpha);
    roster.push((
        "MET".to_string(),
        Box::new(|| Box::new(Met::new()) as Box<dyn Policy>),
    ));
    roster.push((
        "OLB".to_string(),
        Box::new(|| Box::new(Olb::new()) as Box<dyn Policy>),
    ));
    roster
}

/// The fault plan of one MTTF setting: `None` → [`FaultPlan::none`]
/// (byte-identical baseline), otherwise crash/repair at that MTTF plus
/// the sweep's transient failure rate.
pub fn fault_plan(mttf: Option<SimDuration>) -> FaultPlan {
    match mttf {
        None => FaultPlan::none(),
        Some(mttf) => FaultPlan::seeded(FAULT_SEED)
            .with_crashes(mttf, FAULT_MTTR)
            .with_transient(FAULT_TRANSIENT_PROB),
    }
}

/// Retry discipline of every cell: two attempts per kernel with the
/// default backoff, so repeated transient failures shed the job instead
/// of thrashing (visible in the goodput-vs-throughput gap).
pub fn fault_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

/// One sweep cell: policy × offered λ × MTTF on the paper machine,
/// closing a metrics window every [`SWEEP_WINDOW`].
pub fn fault_point(
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    rate: f64,
    mttf: Option<SimDuration>,
) -> StreamOutcome {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let mut policy = make();
    let mut source = PoissonSource::new(
        lookup,
        rate,
        FAULT_JOBS,
        JobFamily::Diamond { width: 2 },
        FAULT_SEED,
    )
    .with_deadlines(DeadlineSpec::ProportionalCp {
        factor: FAULT_TIGHTNESS,
    });
    apt_stream::simulate_source(
        &mut source,
        &config,
        lookup,
        policy.as_mut(),
        &DriverOpts {
            snapshot_interval: Some(SWEEP_WINDOW),
            max_in_flight_jobs: Some(FAULT_CAP),
            shed_when_full: true,
            faults: fault_plan(mttf),
            retry: fault_retry(),
            ..DriverOpts::default()
        },
    )
    .expect("fault sweep point failed")
}

/// One grid cell's coordinates: `(mttf index, rate index, policy index)`.
type FaultCell = (usize, usize, usize);

/// Flattened cell coordinates, in row order (MTTF-major so the
/// fault-free baseline block renders first).
fn grid() -> Vec<FaultCell> {
    let npol = fault_policy_factories(PAPER_BEST_ALPHA).len();
    let mut cells = Vec::new();
    for m in 0..FAULT_MTTFS.len() {
        for r in 0..FAULT_RATES.len() {
            for p in 0..npol {
                cells.push((m, r, p));
            }
        }
    }
    cells
}

/// Display label of one MTTF setting.
fn mttf_label(mttf: Option<SimDuration>) -> String {
    match mttf {
        None => "none".to_string(),
        Some(d) => format!("{}s", d.as_ms_f64() / 1_000.0),
    }
}

/// Header of the per-cell summary CSV.
pub const FAULT_CSV_HEADER: &str = "mttf,lambda_jps,policy,goodput_jps,throughput_jps,\
     jobs_completed,jobs_failed,jobs_shed,miss_rate,wasted_work_frac,availability,\
     crashes,repairs,orphaned,kernel_failures,retries,end_ms";

/// The sweep table and the per-cell summary CSV of `cells`, one row of
/// each per cell.
fn render(cells: &[FaultCell], outcomes: &[StreamOutcome]) -> (TextTable, String) {
    let factories = fault_policy_factories(PAPER_BEST_ALPHA);
    let mut table = TextTable::new(
        format!(
            "Fault sweep — {FAULT_JOBS} Poisson diamond jobs/cell, α = {PAPER_BEST_ALPHA}, \
             D = {FAULT_TIGHTNESS} × CP_min; crashy rows: MTTR {}s, transient p = {FAULT_TRANSIENT_PROB}, \
             {} attempts/kernel",
            FAULT_MTTR.as_ms_f64() / 1_000.0,
            fault_retry().max_attempts,
        ),
        &[
            "MTTF",
            "λ (j/s)",
            "policy",
            "goodput (j/s)",
            "thru (j/s)",
            "failed",
            "miss %",
            "waste %",
            "avail %",
            "crashes",
        ],
    );
    let mut csv = String::from(FAULT_CSV_HEADER);
    csv.push('\n');
    for (&(m, r, p), o) in cells.iter().zip(outcomes) {
        let (mttf, rate, policy) = (mttf_label(FAULT_MTTFS[m]), FAULT_RATES[r], &factories[p].0);
        table.push_row(vec![
            mttf.clone(),
            format!("{rate}"),
            policy.clone(),
            format!("{:.3}", o.goodput_jps),
            format!("{:.3}", o.throughput_jps),
            format!("{}", o.jobs_failed),
            format!("{:.1}", o.miss_rate() * 100.0),
            format!("{:.1}", o.wasted_work_frac() * 100.0),
            format!("{:.1}", o.availability() * 100.0),
            format!("{}", o.faults.crashes),
        ]);
        csv.push_str(&format!(
            "{mttf},{rate},{policy},{:.6},{:.6},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{:.3}\n",
            o.goodput_jps,
            o.throughput_jps,
            o.jobs_completed,
            o.jobs_failed,
            o.jobs_shed,
            o.miss_rate(),
            o.wasted_work_frac(),
            o.availability(),
            o.faults.crashes,
            o.faults.repairs,
            o.faults.orphaned,
            o.faults.kernel_failures,
            o.faults.retries,
            o.end.as_ms_f64(),
        ));
    }
    (table, csv)
}

/// The MTTF × λ × policy fault sweep (see the module docs). Returns the
/// table and the per-cell summary CSV, both from one grid run.
pub fn fault_sweep() -> (TextTable, String) {
    let cells = grid();
    let outcomes = run_pool(cells.len(), |i| {
        let (m, r, p) = cells[i];
        let factories = fault_policy_factories(PAPER_BEST_ALPHA);
        let (_, make) = &factories[p];
        fault_point(make.as_ref(), FAULT_RATES[r], FAULT_MTTFS[m])
    });
    render(&cells, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_the_advertised_contrast() {
        let names: Vec<String> = fault_policy_factories(4.0)
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, vec!["APT", "EDF-APT", "LL-APT", "MET", "OLB"]);
        assert!(fault_plan(None).is_none());
        assert!(!fault_plan(Some(SimDuration::from_ms(30_000))).is_none());
        assert_eq!(mttf_label(None), "none");
        assert_eq!(mttf_label(Some(SimDuration::from_ms(30_000))), "30s");
        assert_eq!(
            grid().len(),
            FAULT_MTTFS.len() * FAULT_RATES.len() * 5,
            "MTTF × λ × 5 policies"
        );
    }

    /// The faults-disabled baseline row is the plain driver, byte for
    /// byte: same end, stats, and windows as a run with no fault options
    /// at all, with every fault counter at zero.
    #[test]
    fn disabled_faults_match_the_plain_driver() {
        let factories = fault_policy_factories(PAPER_BEST_ALPHA);
        let (_, apt) = &factories[0];
        let baseline = fault_point(apt.as_ref(), 0.15, None);
        let lookup = LookupTable::paper();
        let mut policy = apt();
        let mut source = PoissonSource::new(
            lookup,
            0.15,
            FAULT_JOBS,
            JobFamily::Diamond { width: 2 },
            FAULT_SEED,
        )
        .with_deadlines(DeadlineSpec::ProportionalCp {
            factor: FAULT_TIGHTNESS,
        });
        let plain = apt_stream::simulate_source(
            &mut source,
            &SystemConfig::paper_4gbps(),
            lookup,
            policy.as_mut(),
            &DriverOpts {
                snapshot_interval: Some(SWEEP_WINDOW),
                max_in_flight_jobs: Some(FAULT_CAP),
                shed_when_full: true,
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert_eq!(baseline.end, plain.end);
        assert_eq!(baseline.proc_stats, plain.proc_stats);
        assert_eq!(baseline.snapshots, plain.snapshots);
        assert_eq!(baseline.jobs_failed, 0);
        assert_eq!(baseline.faults, FaultTotals::default());
        assert_eq!(baseline.goodput_jps, baseline.throughput_jps);
        assert_eq!(baseline.availability(), 1.0);
        assert_eq!(baseline.wasted_work_frac(), 0.0);
    }

    /// The crashy cells actually degrade — and no policy deadlocks: every
    /// roster entry drains its stream with crashes landing, orphans
    /// re-dispatched, and the books showing waste and downtime.
    #[test]
    fn crashy_cells_degrade_but_every_policy_drains() {
        let factories = fault_policy_factories(PAPER_BEST_ALPHA);
        let mttf = Some(SimDuration::from_ms(30_000));
        for (name, make) in &factories {
            let o = fault_point(make.as_ref(), 0.15, mttf);
            assert_eq!(
                o.jobs_completed + o.jobs_failed + o.jobs_shed,
                FAULT_JOBS,
                "{name}: jobs leaked"
            );
            assert!(o.faults.crashes > 0, "{name}: MTTF 30s never crashed");
            assert!(o.availability() < 1.0, "{name}: downtime invisible");
            assert!(o.wasted_work_frac() > 0.0, "{name}: waste invisible");
        }
        // The determinism + contrast pin on one pair: same cell replays
        // identically, and the fault-free twin strictly beats it on
        // goodput (same arrivals, same policy).
        let (_, apt) = &factories[0];
        let crashy = fault_point(apt.as_ref(), 0.15, mttf);
        let again = fault_point(apt.as_ref(), 0.15, mttf);
        assert_eq!(crashy.end, again.end);
        assert_eq!(crashy.proc_stats, again.proc_stats);
        assert_eq!(crashy.faults, again.faults);
        let clean = fault_point(apt.as_ref(), 0.15, None);
        assert!(
            crashy.goodput_jps < clean.goodput_jps,
            "crashes must cost goodput: {} vs {}",
            crashy.goodput_jps,
            clean.goodput_jps
        );
        assert!(crashy.faults.orphaned > 0, "no kernel was ever orphaned");
        assert!(crashy.miss_rate() >= clean.miss_rate());
    }

    /// AG and AR place only on up processors, so a crash plan no longer
    /// ends their runs in `ProcUnavailable`: both drain a crashy cell.
    #[test]
    fn ag_and_ar_drain_a_crashy_stream() {
        let mttf = Some(SimDuration::from_ms(30_000));
        let makers: [(&str, PolicyFactory); 2] = [
            ("AG", Box::new(|| Box::new(AdaptiveGreedy::new()))),
            ("AR", Box::new(|| Box::new(AdaptiveRandom::new(FAULT_SEED)))),
        ];
        for (name, make) in &makers {
            let o = fault_point(make.as_ref(), 0.15, mttf);
            assert_eq!(
                o.jobs_completed + o.jobs_failed + o.jobs_shed,
                FAULT_JOBS,
                "{name}: jobs leaked"
            );
            assert!(o.faults.crashes > 0, "{name}: MTTF 30s never crashed");
            assert!(o.faults.orphaned > 0, "{name}: no kernel was orphaned");
        }
    }

    /// The CSV carries the ISSUE-mandated per-cell columns (goodput,
    /// wasted work, miss rate) in header order, one row per cell.
    #[test]
    fn csv_has_one_summary_row_per_cell() {
        let factories = fault_policy_factories(PAPER_BEST_ALPHA);
        let (_, apt) = &factories[0];
        let cells = vec![(0, 0, 0), (2, 0, 0)];
        let outcomes = vec![
            fault_point(apt.as_ref(), 0.15, FAULT_MTTFS[0]),
            fault_point(apt.as_ref(), 0.15, FAULT_MTTFS[2]),
        ];
        let (table, csv) = render(&cells, &outcomes);
        assert_eq!(table.row_count(), 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], FAULT_CSV_HEADER);
        for col in ["goodput_jps", "wasted_work_frac", "miss_rate"] {
            assert!(lines[0].contains(col), "missing column {col}");
        }
        assert!(lines[1].starts_with("none,0.15,APT,"));
        assert!(lines[2].starts_with("30s,0.15,APT,"));
        let fields: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(fields.len(), FAULT_CSV_HEADER.split(',').count());
    }
}
