//! The engine never calls `Policy::decide` with an empty ready set: it ends
//! the fixpoint instead. A wrapper asserts that on every call, under the
//! closed engine for all seven policies of the paper's comparison and
//! under an open stream with an armed fault plan, and the wrapped runs
//! must equal the bare ones.

use apt_core::prelude::*;
use apt_stream::{DriverOpts, JobFamily, PoissonSource, StreamOutcome, StreamRun};

/// A fresh-policy constructor.
type PolicyMaker = fn() -> Box<dyn Policy>;

/// Delegates to `inner`, asserting a non-empty ready set on every call.
struct NonEmpty {
    inner: Box<dyn Policy>,
    calls: usize,
}

impl Policy for NonEmpty {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        self.inner.prepare(ctx)
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        assert!(
            !view.ready.is_empty(),
            "{} called with an empty ready set at {}",
            self.inner.name(),
            view.now
        );
        self.calls += 1;
        self.inner.decide(view, out);
    }

    fn alpha(&self) -> Option<f64> {
        self.inner.alpha()
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.inner.set_alpha(alpha)
    }
}

#[test]
fn closed_runs_never_decide_on_an_empty_ready_set() {
    let lookup = LookupTable::paper();
    for ty in DfgType::ALL {
        let dfg = generate(ty, &StreamConfig::new(58, 4), lookup);
        for config in [
            SystemConfig::paper_4gbps(),
            SystemConfig::paper_no_transfers(),
        ] {
            for (name, make) in all_policy_factories(4.0) {
                let bare = simulate(&dfg, &config, lookup, make().as_mut()).unwrap();
                let mut wrapped = NonEmpty {
                    inner: make(),
                    calls: 0,
                };
                let checked = simulate(&dfg, &config, lookup, &mut wrapped).unwrap();
                assert!(wrapped.calls > 0, "{name}: no decide call");
                assert_eq!(
                    checked,
                    bare,
                    "{name} on {}: the wrapper moved the run",
                    ty.label()
                );
            }
        }
    }
}

/// A faulty Poisson stream of two-kernel chains under `policy`.
fn faulty_stream(policy: &mut dyn Policy) -> StreamOutcome {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 3.0, 200, JobFamily::Chain { len: 2 }, 23);
    let opts = DriverOpts {
        faults: FaultPlan::seeded(29)
            .with_crashes(SimDuration::from_ms(2_000), SimDuration::from_ms(300))
            .with_transient(0.05),
        ..DriverOpts::default()
    };
    StreamRun::new(&mut source, &config, lookup, policy, &opts)
        .run()
        .unwrap()
        .0
}

#[test]
fn faulty_open_streams_never_decide_on_an_empty_ready_set() {
    // The dynamic policies that place only on processors that are up (AG
    // and AR queue onto crashed ones, which the engine refuses).
    let dynamic: [(&str, PolicyMaker); 7] = [
        ("APT", || Box::new(Apt::new(4.0))),
        ("EDF-APT", || Box::new(EdfApt::new(4.0))),
        ("LL-APT", || Box::new(LlApt::new(4.0))),
        ("MET", || Box::new(Met::new())),
        ("OLB", || Box::new(Olb::new())),
        ("SPN", || Box::new(Spn::new())),
        ("SS", || Box::new(SerialScheduling::new())),
    ];
    for (name, make) in dynamic {
        let bare = faulty_stream(make().as_mut());
        let mut wrapped = NonEmpty {
            inner: make(),
            calls: 0,
        };
        let checked = faulty_stream(&mut wrapped);
        assert!(wrapped.calls > 0, "{name}: no decide call");
        assert!(
            checked.faults.crashes > 0 && checked.faults.kernel_failures > 0,
            "{name}: the fault plan never fired: {:?}",
            checked.faults
        );
        assert_eq!(checked, bare, "{name}: the wrapper moved the stream");
    }
}
