//! `apt-slo`'s admission policies in the streaming driver's admit path.
//! An `AdmissionPolicy` is an `AdmissionGate` (supertrait upcast), so the
//! gates plug straight into `apt_stream::simulate_source_gated`.

use apt_base::SimDuration;
use apt_core::{Apt, EdfApt, LlApt};
use apt_dfg::LookupTable;
use apt_hetsim::{ReadyOrder, SystemConfig};
use apt_slo::{AcceptAll, FeasibilityGate, UtilizationBound};
use apt_stream::{
    simulate_source_gated, DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamRun,
};

fn paper() -> (&'static SystemConfig, &'static LookupTable) {
    use std::sync::OnceLock;
    static CFG: OnceLock<SystemConfig> = OnceLock::new();
    (
        CFG.get_or_init(SystemConfig::paper_4gbps),
        LookupTable::paper(),
    )
}

/// An overloaded deadline-tagged stream: 3 j/s of diamond jobs into a
/// machine that sustains ~0.3 j/s.
fn overload_source(lookup: &LookupTable, tightness: f64) -> PoissonSource<'_> {
    PoissonSource::new(lookup, 3.0, 250, JobFamily::Diamond { width: 2 }, 0x510)
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: tightness })
}

/// The acceptance-criterion behaviour: under overload, accept-all
/// drives the miss rate toward 1 with an unbounded backlog, while a
/// utilization gate sheds most arrivals and keeps the *admitted* jobs'
/// miss rate far lower.
#[test]
fn admission_gating_beats_accept_all_under_overload() {
    let (config, lookup) = paper();
    let opts = DriverOpts::default();

    let mut open = AcceptAll;
    let mut src = overload_source(lookup, 4.0);
    let ungated = simulate_source_gated(
        &mut src,
        config,
        lookup,
        &mut EdfApt::new(4.0),
        &opts,
        &mut open,
        |_| {},
    )
    .unwrap();
    assert_eq!(ungated.jobs_shed, 0);
    assert_eq!(ungated.jobs_admitted, 250);
    assert!(
        ungated.miss_rate() > 0.8,
        "overloaded accept-all should go almost fully tardy, got {}",
        ungated.miss_rate()
    );

    // ρ ≤ 0.25: the density bound assumes an ideal preemptive EDF
    // machine; on this non-preemptive heterogeneous one (kernels are
    // never migrated, transfers serialize, and a diamond job cannot
    // use all three processors at once) a quarter-budget keeps the
    // admitted set comfortably schedulable.
    let mut gate = UtilizationBound::new(lookup, config, 0.25);
    let mut src = overload_source(lookup, 4.0);
    let gated = simulate_source_gated(
        &mut src,
        config,
        lookup,
        &mut EdfApt::new(4.0),
        &opts,
        &mut gate,
        |_| {},
    )
    .unwrap();
    assert!(gated.jobs_shed > 0, "overload must shed");
    assert_eq!(gated.jobs_admitted + gated.jobs_shed, 250);
    assert_eq!(gated.jobs_completed, gated.jobs_admitted);
    assert!(
        gated.miss_rate() < ungated.miss_rate() / 2.0,
        "gated miss rate {} not clearly below accept-all {}",
        gated.miss_rate(),
        ungated.miss_rate()
    );
    // The gate's reservations fully drained with the stream.
    assert_eq!(gate.load(), 0.0);
    // And the backlog peak is bounded well below the ungated one.
    assert!(gated.peak_in_flight_jobs < ungated.peak_in_flight_jobs);
}

#[test]
fn feasibility_gate_shed_rate_tracks_tightness() {
    let (config, lookup) = paper();
    let opts = DriverOpts::default();
    let run = |tightness: f64| {
        let mut gate = FeasibilityGate::new(lookup, config);
        let mut src = overload_source(lookup, tightness);
        simulate_source_gated(
            &mut src,
            config,
            lookup,
            &mut LlApt::new(4.0),
            &opts,
            &mut gate,
            |_| {},
        )
        .unwrap()
    };
    let tight = run(1.5);
    let loose = run(16.0);
    assert!(tight.jobs_shed > 0);
    assert!(
        tight.shed_rate() > loose.shed_rate(),
        "tighter deadlines must shed more: {} vs {}",
        tight.shed_rate(),
        loose.shed_rate()
    );
}

/// Engine-level EDF ready order + plain APT ≡ FCFS order + EDF-APT:
/// the two implementations of "earliest deadline first" must agree
/// schedule for schedule.
#[test]
fn engine_edf_order_equals_self_ordering_edf_apt() {
    let (config, lookup) = paper();
    let make_source = || {
        PoissonSource::new(lookup, 0.5, 120, JobFamily::Chain { len: 2 }, 77).with_deadlines(
            DeadlineSpec::Uniform {
                lo: SimDuration::from_ms(500),
                hi: SimDuration::from_ms(60_000),
            },
        )
    };
    let edf_order = DriverOpts {
        ready_order: ReadyOrder::EarliestDeadline,
        ..DriverOpts::default()
    };
    let mut via_engine_order = Vec::new();
    StreamRun::new(
        &mut make_source(),
        config,
        lookup,
        &mut Apt::new(4.0),
        &edf_order,
    )
    .observe(|job| via_engine_order.push((job.job, job.records.clone())))
    .run()
    .unwrap();
    let fcfs_order = DriverOpts::default();
    let mut via_policy_order = Vec::new();
    StreamRun::new(
        &mut make_source(),
        config,
        lookup,
        &mut EdfApt::new(4.0),
        &fcfs_order,
    )
    .observe(|job| via_policy_order.push((job.job, job.records.clone())))
    .run()
    .unwrap();
    assert_eq!(
        via_engine_order, via_policy_order,
        "the two EDF realizations diverged"
    );
}
