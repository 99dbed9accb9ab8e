//! Open-stream runs with the optional layers armed — admission gate,
//! parked control loop, fault injection — checked end to end for job
//! conservation and, where the layer must not act, for a schedule
//! identical to the bare run.

use apt_stream::{
    simulate_source, simulate_source_controlled, simulate_source_gated, DeadlineSpec, DriverOpts,
    JobFamily, PoissonSource,
};
use apt_suite::control::{AimdAdmission, AimdConfig, ControllerStack};
use apt_suite::prelude::*;
use apt_suite::slo::{simulate_source_slo, AcceptAll, AdmissionPolicy, UtilizationBound};

const JOBS: u64 = 3_000;
const SEED: u64 = 0x0A12_5EED;

fn poisson(lookup: &LookupTable) -> PoissonSource<'_> {
    PoissonSource::new(lookup, 0.5, JOBS, JobFamily::Single, SEED)
}

/// An AIMD loop whose setpoints sit at 1.0 observes every window but can
/// never act, so the controlled run must schedule exactly like the bare
/// gated run.
#[test]
fn parked_aimd_loop_streams_byte_identically_to_the_bare_gate() {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(60_000)),
        ..DriverOpts::default()
    };
    let deadlines = DeadlineSpec::ProportionalCp { factor: 8.0 };

    let mut recs_bare: Vec<TaskRecord> = Vec::new();
    let bare = simulate_source_gated(
        &mut poisson(lookup).with_deadlines(deadlines),
        &config,
        lookup,
        &mut EdfApt::new(4.0),
        &opts,
        &mut UtilizationBound::new(lookup, &config, 4.0),
        |done| recs_bare.extend(done.records.iter().copied()),
    )
    .unwrap();

    let mut stack = ControllerStack::new(vec![Box::new(AimdAdmission::new(
        4.0,
        AimdConfig {
            miss_setpoint: 1.0,
            miss_low_water: 1.0,
            shed_setpoint: 1.0,
            ..AimdConfig::default()
        },
    ))]);
    let mut recs_armed: Vec<TaskRecord> = Vec::new();
    let armed = simulate_source_controlled(
        &mut poisson(lookup).with_deadlines(deadlines),
        &config,
        lookup,
        &mut EdfApt::new(4.0),
        &opts,
        &mut UtilizationBound::new(lookup, &config, 4.0),
        &mut stack,
        |done| recs_armed.extend(done.records.iter().copied()),
    )
    .unwrap();

    assert!(armed.control_log.is_empty(), "the parked loop acted");
    assert_eq!(armed.jobs_admitted + armed.jobs_shed, JOBS);
    assert_eq!(recs_bare, recs_armed, "the parked loop moved a kernel");
    assert_eq!(bare.end, armed.end);
    assert_eq!(bare.proc_stats, armed.proc_stats);
    assert_eq!(bare.snapshots, armed.snapshots);
    assert_eq!(bare.jobs_shed, armed.jobs_shed);
}

/// Transient failures plus crash/repair under the default retry policy:
/// faults do happen, and every offered job still ends completed or failed.
#[test]
fn armed_fault_plan_accounts_for_every_job() {
    let lookup = LookupTable::paper();
    let run = |faults: FaultPlan| {
        simulate_source(
            &mut poisson(lookup),
            &SystemConfig::paper_4gbps(),
            lookup,
            &mut Apt::new(4.0),
            &DriverOpts {
                faults,
                retry: RetryPolicy::default(),
                ..DriverOpts::default()
            },
        )
        .unwrap()
    };
    let clean = run(FaultPlan::none());
    assert_eq!(clean.jobs_completed, JOBS);
    assert_eq!(clean.jobs_failed, 0);

    let armed = run(FaultPlan::seeded(0x0A12_FA17)
        .with_transient(0.02)
        .with_crashes(SimDuration::from_ms(60_000), SimDuration::from_ms(2_000)));
    assert_eq!(armed.jobs_completed + armed.jobs_failed, JOBS);
    assert!(
        armed.faults.kernel_failures > 0,
        "no transient failure drawn"
    );
    assert!(armed.faults.crashes > 0, "no processor crashed");
}

/// Deadline-tagged jobs through the SLO driver: the open gate admits all,
/// the utilization bound admits or sheds every offered job exactly once.
#[test]
fn slo_gates_account_for_every_offered_job() {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let run = |gate: &mut dyn AdmissionPolicy| {
        simulate_source_slo(
            &mut poisson(lookup).with_deadlines(DeadlineSpec::ProportionalCp { factor: 4.0 }),
            &config,
            lookup,
            &mut EdfApt::new(4.0),
            gate,
            &DriverOpts::default(),
        )
        .unwrap()
    };
    let open = run(&mut AcceptAll);
    assert_eq!(open.jobs_admitted, JOBS);
    assert_eq!(open.jobs_shed, 0);
    assert_eq!(open.jobs_completed, JOBS);
    assert_eq!(open.deadline_jobs, JOBS);

    let gated = run(&mut UtilizationBound::new(lookup, &config, 1.0));
    assert_eq!(gated.jobs_admitted + gated.jobs_shed, JOBS);
    assert_eq!(gated.jobs_completed, gated.jobs_admitted);
}
