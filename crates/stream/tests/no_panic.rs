//! The no-panic suite: inputs the public constructors accept, and inputs
//! they must refuse, end in `Ok` or a typed `Err` — never in a panic. Run
//! under a debug build, so an arithmetic overflow anywhere on these paths
//! fails the test.

use apt_core::prelude::*;
use apt_stream::{
    DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, JobTemplate, OnOffSource, PoissonSource,
    Source, StreamOutcome, StreamRun, TraceSource,
};
use proptest::prelude::*;

fn run_with(
    source: &mut dyn Source,
    config: &SystemConfig,
    opts: &DriverOpts,
) -> Result<StreamOutcome, BaseError> {
    let mut policy = Apt::new(4.0);
    StreamRun::new(source, config, LookupTable::paper(), &mut policy, opts)
        .run()
        .map(|(outcome, _)| outcome)
}

fn run_on(source: &mut dyn Source, config: &SystemConfig) -> Result<StreamOutcome, BaseError> {
    run_with(source, config, &DriverOpts::default())
}

fn run(source: &mut dyn Source) -> Result<StreamOutcome, BaseError> {
    run_on(source, &SystemConfig::paper_4gbps())
}

/// The error a run past the arrival horizon must end with.
fn assert_past_horizon(result: Result<StreamOutcome, BaseError>, what: &str) {
    let err = result.expect_err(what);
    assert!(
        err.to_string().contains("arrival horizon"),
        "{what}: unexpected error {err}"
    );
}

#[test]
fn a_tiny_rate_ends_in_a_typed_error() {
    let lookup = LookupTable::paper();
    let mut poisson = PoissonSource::try_new(lookup, 1e-12, 3, JobFamily::Single, 42).unwrap();
    assert_past_horizon(run(&mut poisson), "Poisson at 1e-12 jobs/s");
    // Periods long enough that the ON/OFF clock, too, runs off the end of
    // the range within a few cycles.
    let period = SimDuration::from_ns(u64::MAX >> 4);
    let mut on_off =
        OnOffSource::try_new(lookup, 1e-12, period, period, 3, JobFamily::Single, 42).unwrap();
    assert_past_horizon(run(&mut on_off), "on/off at 1e-12 jobs/s");
    let mut diurnal = DiurnalSource::try_new(
        lookup,
        1e-12,
        0.0,
        SimDuration::from_ms(1_000),
        3,
        JobFamily::Single,
        42,
    )
    .unwrap();
    assert_past_horizon(run(&mut diurnal), "diurnal at 1e-12 jobs/s");
}

/// A burst gap a trillion ON periods long would make every arrival redraw
/// about that many ON/OFF cycles: `try_new` refuses it instead.
#[test]
fn an_on_off_gap_far_beyond_the_on_period_is_refused() {
    let lookup = LookupTable::paper();
    let period = SimDuration::from_ms(10);
    let err = OnOffSource::try_new(lookup, 1e-12, period, period, 3, JobFamily::Single, 42)
        .expect_err("on/off at 1e-12 jobs/s with 10 ms periods");
    assert!(matches!(err, BaseError::InvalidSystem { .. }), "{err}");
}

#[test]
fn a_deadline_near_the_end_of_the_clock_ends_in_a_typed_error() {
    let job = JobTemplate::new(vec![Kernel::canonical(KernelKind::Bfs)], vec![])
        .unwrap()
        .with_deadline(SimDuration::from_ms(10));
    let mut source = TraceSource::new(vec![(SimTime::from_ns(u64::MAX - 5), job)]);
    assert_past_horizon(run(&mut source), "arrival at u64::MAX - 5 ns");
}

/// A short faulty stream: 50 Poisson diamond jobs under APT α = 4.
fn run_faulty(faults: FaultPlan, retry: RetryPolicy) -> Result<StreamOutcome, BaseError> {
    let family = JobFamily::Diamond { width: 2 };
    let mut source = PoissonSource::try_new(LookupTable::paper(), 20.0, 50, family, 42).unwrap();
    let opts = DriverOpts {
        faults,
        retry,
        ..DriverOpts::default()
    };
    run_with(&mut source, &SystemConfig::paper_4gbps(), &opts)
}

/// Fault settings whose delays reach past the clock's range, which the
/// builders and the public fields accept: an endless link degradation,
/// means of half the clock between degradations, crashes or repairs, and
/// retry backoffs of all and of a quarter of the clock. The driver refuses
/// each before the first event; the endless degradation, the repair mean
/// and both backoffs used to overflow an instant mid-run.
#[test]
fn fault_delays_past_the_clock_end_in_a_typed_error() {
    let (second, half) = (
        SimDuration::from_ms(1_000),
        SimDuration::from_ns(u64::MAX / 2),
    );
    let degrade = |mtbf, duration| LinkDegradeSpec {
        pair: None,
        slowdown: 2,
        mtbf,
        duration,
    };
    let backoff = |ns: u64| RetryPolicy {
        backoff_base: SimDuration::from_ns(ns),
        ..RetryPolicy::default()
    };
    let (plan, retry) = (FaultPlan::seeded(7), RetryPolicy::default());
    let endless = degrade(second, SimDuration::from_ns(u64::MAX));
    for (faults, retry) in [
        (plan.with_link_degrade(endless), retry),
        (plan.with_link_degrade(degrade(half, second)), retry),
        (plan.with_crashes(second, half), retry),
        (plan.with_crashes(half, second), retry),
        (plan.with_transient(0.5), backoff(u64::MAX)),
        (plan.with_transient(0.5), backoff(u64::MAX / 4)),
    ] {
        let err = run_faulty(faults, retry).expect_err("a delay past the clock ran");
        let what = format!("{faults:?}, {retry:?}");
        assert!(
            matches!(err, BaseError::InvalidSystem { .. }),
            "{what}: {err}"
        );
    }
    // An empty plan never consults its retry policy.
    assert!(run_faulty(FaultPlan::none(), backoff(u64::MAX)).is_ok());
}

/// 64 processors, each down for almost all of a run that lasts 2^61 ns
/// (repairs take `MAX_FAULT_DELAY` on average): their summed downtime
/// outgrows a `u64` of nanoseconds long before the clock does, and
/// saturates instead of overflowing.
#[test]
fn downtime_summed_over_many_processors_saturates() {
    let job = || JobTemplate::new(vec![Kernel::canonical(KernelKind::Bfs)], vec![]).unwrap();
    let late = SimTime::from_ns(1 << 61);
    let mut source = TraceSource::new(vec![(SimTime::ZERO, job()), (late, job())]);
    let config = (0..64).fold(SystemConfig::empty(LinkRate::PCIE2_X8), |c, _| {
        c.with_proc(ProcKind::Cpu)
    });
    let mttr = SimDuration::from_ns(1 << 56);
    let faults = FaultPlan::seeded(7).with_crashes(SimDuration::from_ms(1_000), mttr);
    let opts = DriverOpts {
        faults,
        ..DriverOpts::default()
    };
    let outcome = run_with(&mut source, &config, &opts).expect("both jobs run");
    assert_eq!(outcome.jobs_completed, 2);
    assert_eq!(outcome.faults.down_ns, u64::MAX);
}

/// Every execution fails and each kernel may try 64 times, so exponential
/// backoff from 1 ms would outgrow the clock by the 45th attempt. Backoff
/// is capped at `MAX_FAULT_DELAY`: every job is shed and the run ends.
#[test]
fn a_backoff_grown_past_the_clock_is_capped() {
    let retry = RetryPolicy {
        max_attempts: 64,
        job_retry_budget: u32::MAX,
        ..RetryPolicy::default()
    };
    let outcome = run_faulty(FaultPlan::seeded(7).with_transient(1.0), retry)
        .expect("a capped backoff keeps the clock in range");
    assert_eq!(outcome.jobs_failed, 50, "{outcome:?}");
}

#[test]
fn every_source_rejects_a_bad_rate() {
    let lookup = LookupTable::paper();
    let on = SimDuration::from_ms(10);
    let period = SimDuration::from_ms(1_000);
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            PoissonSource::try_new(lookup, rate, 3, JobFamily::Single, 1).is_err(),
            "Poisson accepted {rate}"
        );
        assert!(
            OnOffSource::try_new(lookup, rate, on, on, 3, JobFamily::Single, 1).is_err(),
            "on/off accepted {rate}"
        );
        assert!(
            DiurnalSource::try_new(lookup, rate, 1.0, period, 3, JobFamily::Single, 1).is_err(),
            "diurnal accepted base rate {rate}"
        );
    }
}

/// Deadline specs whose draw would panic: a proportional factor below 1,
/// NaN or infinite, and an inverted uniform range.
fn bad_deadline_specs() -> [DeadlineSpec; 4] {
    [
        DeadlineSpec::ProportionalCp { factor: 0.5 },
        DeadlineSpec::ProportionalCp { factor: f64::NAN },
        DeadlineSpec::ProportionalCp {
            factor: f64::INFINITY,
        },
        DeadlineSpec::Uniform {
            lo: SimDuration::from_ms(5),
            hi: SimDuration::from_ms(1),
        },
    ]
}

/// Every source that draws deadlines refuses a bad spec before its first
/// draw, with a typed error instead of a panic mid-run.
#[test]
fn a_bad_deadline_spec_ends_in_a_typed_error() {
    let lookup = LookupTable::paper();
    let on = SimDuration::from_ms(10);
    let period = SimDuration::from_ms(1_000);
    for spec in bad_deadline_specs() {
        let sources: [Box<dyn Source>; 3] = [
            Box::new(
                PoissonSource::try_new(lookup, 1.0, 3, JobFamily::Single, 1)
                    .unwrap()
                    .with_deadlines(spec),
            ),
            Box::new(
                OnOffSource::try_new(lookup, 1.0, on, on, 3, JobFamily::Single, 1)
                    .unwrap()
                    .with_deadlines(spec),
            ),
            Box::new(
                DiurnalSource::try_new(lookup, 1.0, 0.5, period, 3, JobFamily::Single, 1)
                    .unwrap()
                    .with_deadlines(spec),
            ),
        ];
        for mut source in sources {
            let err = run(source.as_mut()).expect_err("a bad deadline spec ran");
            assert!(
                matches!(err, BaseError::InvalidSystem { .. }),
                "{spec:?}: {err}"
            );
        }
    }
}

/// A Type-1 or Type-2 family of no kernels used to pass `validate` and
/// panic at the first draw; every stochastic source now refuses it at
/// construction.
#[test]
fn a_kernel_free_job_family_is_refused_at_construction() {
    let lookup = LookupTable::paper();
    let ms = SimDuration::from_ms(10);
    for family in [JobFamily::Type1 { len: 0 }, JobFamily::Type2 { len: 0 }] {
        let refusals = [
            PoissonSource::try_new(lookup, 1.0, 3, family, 1).err(),
            OnOffSource::try_new(lookup, 1.0, ms, ms, 3, family, 1).err(),
            DiurnalSource::try_new(lookup, 1.0, 1.0, ms, 3, family, 1).err(),
        ];
        for err in refusals {
            assert!(
                matches!(err, Some(BaseError::InvalidSystem { .. })),
                "{family:?}: {err:?}"
            );
        }
    }
}

#[test]
fn machines_of_no_or_too_many_processors_are_refused() {
    let lookup = LookupTable::paper();
    for size in std::iter::once(0).chain(65..=80) {
        let config = (0..size).fold(SystemConfig::empty(LinkRate::PCIE2_X8), |c, _| {
            c.with_proc(ProcKind::Cpu)
        });
        let mut source = PoissonSource::new(lookup, 1.0, 5, JobFamily::Single, 3);
        assert!(
            run_on(&mut source, &config).is_err(),
            "a stream ran on {size} processors"
        );
        let dfg = generate(DfgType::Type1, &StreamConfig::new(8, 3), lookup);
        assert!(
            simulate(&dfg, &config, lookup, &mut Apt::new(4.0)).is_err(),
            "a closed run ran on {size} processors"
        );
    }
}

#[test]
fn a_zero_kernel_template_is_refused() {
    assert!(JobTemplate::new(Vec::new(), Vec::new()).is_err());
    assert!(JobTemplate::new(Vec::new(), vec![(0, 1)]).is_err());
}

/// A drawn interconnect: one rate for a machine of any size, or a
/// `from_fn` matrix of its own size (which may not match the machine).
fn interconnect(
    one_rate: bool,
    rate: u64,
    matrix_size: usize,
    zero_links: bool,
    contention: bool,
) -> Topology {
    let rate = LinkRate {
        bytes_per_sec: rate,
    };
    let topology = if one_rate {
        Topology::uniform(rate)
    } else {
        // With `zero_links`, every third off-diagonal pair has no bandwidth.
        Topology::from_fn(matrix_size, |s, d| {
            let (s, d) = (s.index(), d.index());
            if zero_links && s != d && (s + 2 * d) % 3 == 0 {
                LinkRate { bytes_per_sec: 0 }
            } else {
                rate
            }
        })
    };
    match contention {
        true => topology.with_contention(LinkContention::PerLink),
        false => topology,
    }
}

/// Deadline specs a source accepts.
fn good_deadline_specs() -> [DeadlineSpec; 4] {
    [
        DeadlineSpec::None,
        DeadlineSpec::Fixed(SimDuration::from_ms(50)),
        DeadlineSpec::ProportionalCp { factor: 2.0 },
        DeadlineSpec::Uniform {
            lo: SimDuration::from_ms(1),
            hi: SimDuration::from_ms(5),
        },
    ]
}

/// `Ok`, or the typed error every machine `validate` refuses must end in.
fn assert_ok_or_invalid<T>(result: Result<T, BaseError>, what: &str) {
    if let Err(err) = result {
        assert!(
            matches!(err, BaseError::InvalidSystem { .. }),
            "{what}: unexpected error {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Machines of 0–80 processors (ASIC-only ones too) on a one-rate or a
    /// per-pair interconnect, zero rates and mismatched sizes included, and
    /// streams under good and bad deadline specs: `validate`, a short
    /// stream and a small closed run each end in `Ok` or `InvalidSystem`,
    /// and the runs agree with `validate`.
    #[test]
    fn any_machine_and_interconnect_ends_in_ok_or_a_typed_error(
        kinds in prop::collection::vec(
            prop::sample::select(vec![ProcKind::Cpu, ProcKind::Gpu, ProcKind::Fpga, ProcKind::Asic]),
            0..81,
        ),
        asic_only in prop::sample::select(vec![false, false, false, true]),
        one_rate in prop::bool::ANY,
        rate in prop::sample::select(vec![0u64, 1, 1_000, 500_000_000, 8_000_000_000, u64::MAX]),
        size_delta in prop::sample::select(vec![0isize, 0, 0, -1, 1, 7]),
        zero_links in prop::bool::ANY,
        contention in prop::bool::ANY,
        deadline_spec in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let lookup = LookupTable::paper();
        let matrix_size = kinds.len().saturating_add_signed(size_delta);
        let topology = interconnect(one_rate, rate, matrix_size, zero_links, contention);
        let config = kinds
            .iter()
            .fold(SystemConfig::empty(LinkRate::PCIE2_X8), |c, &kind| {
                c.with_proc(if asic_only { ProcKind::Asic } else { kind })
            })
            .with_topology(topology);
        let what = format!(
            "{} processors (ASIC-only: {asic_only}), one rate: {one_rate}, rate {rate} B/s, \
             matrix of {matrix_size}, zero links: {zero_links}, contention: {contention}",
            config.len()
        );
        let valid = config.validate();
        assert_ok_or_invalid(valid.clone(), &what);

        let spec = good_deadline_specs()
            .into_iter()
            .chain(bad_deadline_specs())
            .nth(deadline_spec)
            .unwrap();
        let mut source = PoissonSource::try_new(lookup, 0.5, 4, JobFamily::Diamond { width: 2 }, seed)
            .unwrap()
            .with_deadlines(spec);
        let stream = run_on(&mut source, &config);
        let accepted = valid.is_ok() && spec.validate().is_ok();
        prop_assert_eq!(stream.is_ok(), accepted, "stream under {:?} on {}", spec, what);
        assert_ok_or_invalid(stream, &what);

        let dfg = generate(DfgType::Type1, &StreamConfig::new(6, seed), lookup);
        for mut policy in [Box::new(Apt::new(4.0)) as Box<dyn Policy>, Box::new(Heft::new())] {
            let closed = simulate(&dfg, &config, lookup, policy.as_mut());
            prop_assert_eq!(closed.is_ok(), valid.is_ok(), "closed run on {}", what);
            assert_ok_or_invalid(closed, &what);
        }
    }

    /// Every job family at degenerate sizes (0–3) from every stochastic
    /// source, under every deadline spec, good or bad, with the in-flight
    /// cap off or at 0–2 jobs and shedding on or off: construction and the
    /// run each end in `Ok` or `InvalidSystem`, and exactly the zero-length
    /// Type-1/Type-2 families and the bad specs are refused.
    #[test]
    fn any_source_ends_in_ok_or_a_typed_error(
        source_kind in 0usize..3,
        family_kind in 0usize..5,
        size in 0usize..4,
        deadline_spec in 0usize..8,
        cap in prop::sample::select(vec![None, Some(0usize), Some(1), Some(2)]),
        shed_when_full in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let lookup = LookupTable::paper();
        let family = [
            JobFamily::Single,
            JobFamily::Chain { len: size },
            JobFamily::Diamond { width: size },
            JobFamily::Type1 { len: size },
            JobFamily::Type2 { len: size },
        ][family_kind];
        let spec = good_deadline_specs()
            .into_iter()
            .chain(bad_deadline_specs())
            .nth(deadline_spec)
            .unwrap();
        let period = SimDuration::from_ms(2_000);
        let source: Result<Box<dyn Source>, BaseError> = match source_kind {
            0 => PoissonSource::try_new(lookup, 2.0, 12, family, seed)
                .map(|s| Box::new(s.with_deadlines(spec)) as Box<dyn Source>),
            1 => OnOffSource::try_new(lookup, 4.0, period, period, 12, family, seed)
                .map(|s| Box::new(s.with_deadlines(spec)) as Box<dyn Source>),
            _ => DiurnalSource::try_new(lookup, 1.0, 3.0, period, 12, family, seed)
                .map(|s| Box::new(s.with_deadlines(spec)) as Box<dyn Source>),
        };
        let kernel_free = matches!(family, JobFamily::Type1 { len: 0 } | JobFamily::Type2 { len: 0 });
        let what = format!("source {source_kind}, {family:?}, {spec:?}, cap {cap:?}");
        let mut source = match source {
            Ok(source) => source,
            Err(err) => {
                prop_assert!(matches!(err, BaseError::InvalidSystem { .. }), "{}: {}", what, err);
                prop_assert!(kernel_free, "{} refused", what);
                return;
            }
        };
        prop_assert!(!kernel_free, "{} accepted", what);
        let opts = DriverOpts {
            max_in_flight_jobs: cap,
            shed_when_full,
            ..DriverOpts::default()
        };
        let mut policy = Apt::new(4.0);
        let stream = StreamRun::new(
            source.as_mut(),
            &SystemConfig::paper_4gbps(),
            lookup,
            &mut policy,
            &opts,
        )
        .run();
        prop_assert_eq!(stream.is_ok(), spec.validate().is_ok(), "{}", what);
        assert_ok_or_invalid(stream, &what);
    }
}
