//! The two-step source: the driver builds only the arrivals that get past
//! its in-flight cap, and that must change nothing.
//!
//! Each stochastic source, under each kind of deadline, runs a shed-heavy
//! stream (a cap of two jobs, shedding when full) twice: once lazily, and
//! once as a [`TraceSource`] over a twin source drained through
//! `next_job`, which builds every arrival. The two outcomes must be equal,
//! so a shed arrival moves the arrival and deadline streams exactly as a
//! built one does. That `next_job` itself still yields what the sources
//! yielded before the split (`instantiate`, then `tag`) is pinned by a unit
//! test in `source.rs`.

use apt_core::prelude::*;
use apt_stream::{
    DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, OnOffSource, PoissonSource, ReadyOrder,
    Source, StreamOutcome, StreamRun, TraceSource,
};

fn run(source: &mut dyn Source) -> StreamOutcome {
    let opts = DriverOpts {
        max_in_flight_jobs: Some(2),
        shed_when_full: true,
        ready_order: ReadyOrder::EarliestDeadline,
        ..DriverOpts::default()
    };
    let mut policy = EdfApt::new(4.0);
    StreamRun::new(
        source,
        &SystemConfig::paper_4gbps(),
        LookupTable::paper(),
        &mut policy,
        &opts,
    )
    .run()
    .expect("a valid stream runs")
    .0
}

/// The lazy run of `source` equals the run of every arrival built up front.
fn assert_lazy_equals_built<S: Source + Clone>(source: S, what: &str) {
    let mut twin = source.clone();
    let built = TraceSource::new(std::iter::from_fn(|| twin.next_job()).collect());
    let lazy = run(&mut source.clone());
    assert_eq!(lazy, run(&mut built.clone()), "{what}");
    assert!(
        lazy.jobs_shed > lazy.jobs_admitted,
        "{what}: {} shed, {} admitted — not shed-heavy",
        lazy.jobs_shed,
        lazy.jobs_admitted
    );
}

#[test]
fn a_lazy_source_runs_like_one_that_builds_every_arrival() {
    let lookup = LookupTable::paper();
    let ms = SimDuration::from_ms;
    let specs = [
        DeadlineSpec::None,
        DeadlineSpec::Fixed(ms(2_000)),
        DeadlineSpec::ProportionalCp { factor: 3.0 },
        DeadlineSpec::Uniform {
            lo: ms(500),
            hi: ms(4_000),
        },
    ];
    let family = JobFamily::Type2 { len: 10 };
    for spec in specs {
        assert_lazy_equals_built(
            PoissonSource::new(lookup, 20.0, 150, family, 42).with_deadlines(spec),
            &format!("Poisson, {spec:?}"),
        );
        assert_lazy_equals_built(
            OnOffSource::new(lookup, 60.0, ms(1_000), ms(500), 150, family, 7).with_deadlines(spec),
            &format!("on/off, {spec:?}"),
        );
        assert_lazy_equals_built(
            DiurnalSource::new(lookup, 10.0, 30.0, ms(4_000), 150, family, 11).with_deadlines(spec),
            &format!("diurnal, {spec:?}"),
        );
    }
}
