//! The APT family (MET, APT, APT-R, EDF-APT, LL-APT), SPN and SS mark each
//! `decide` batch as the whole per-instant fixpoint, and the engine then
//! skips the confirming `decide` call. These tests pin that the mark is
//! truthful: a wrapper that copies the inner policy's batch into the
//! engine's buffer *without* the mark restores the confirming call after
//! every non-empty batch, and the open-stream outcome must not move —
//! across both ready orders, with and without an armed fault plan. Every
//! confirming call the wrapper triggers must come back empty.

use apt_core::prelude::*;
use apt_stream::{DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamOutcome, StreamRun};

/// Copies the inner policy's assignments and their provenance into the
/// engine's buffer with `push`/`push_explained`, dropping the fixpoint
/// mark, and counts the confirming calls this forces.
struct Unmarked {
    inner: Box<dyn Policy>,
    scratch: AssignmentBuf,
    /// The instant of the previous batch when it was non-empty. A call at
    /// that instant is the engine's confirming call; a call at a later one
    /// is not (the engine skips the confirming call when the batch emptied
    /// the ready set).
    batch_at: Option<SimTime>,
    confirming_calls: usize,
    confirming_hits: usize,
}

impl Unmarked {
    fn new(inner: Box<dyn Policy>) -> Self {
        Unmarked {
            inner,
            scratch: AssignmentBuf::new(),
            batch_at: None,
            confirming_calls: 0,
            confirming_hits: 0,
        }
    }
}

impl Policy for Unmarked {
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
        self.scratch.clear();
        self.inner.decide(view, &mut self.scratch);
        assert!(
            self.scratch.is_fixpoint(),
            "{} left its batch unmarked",
            self.inner.name()
        );
        for (i, &a) in self.scratch.as_slice().iter().enumerate() {
            match self.scratch.meta_for(i) {
                Some(why) => out.push_explained(a, why),
                None => out.push(a),
            }
        }
        if self.batch_at == Some(view.now) {
            self.confirming_calls += 1;
            self.confirming_hits += usize::from(!out.is_empty());
        }
        self.batch_at = (!out.is_empty()).then_some(view.now);
    }

    fn alpha(&self) -> Option<f64> {
        self.inner.alpha()
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.inner.set_alpha(alpha)
    }
}

/// A fresh-policy constructor.
type PolicyMaker = fn() -> Box<dyn Policy>;

/// The dynamic policies that mark their batches.
fn marking_policies() -> [(&'static str, PolicyMaker); 7] {
    [
        ("MET", || Box::new(Met::new())),
        ("APT", || Box::new(Apt::new(4.0))),
        ("APT-R", || Box::new(AptR::new(4.0))),
        ("EDF-APT", || Box::new(EdfApt::new(4.0))),
        ("LL-APT", || Box::new(LlApt::new(4.0))),
        ("SPN", || Box::new(Spn::new())),
        ("SS", || Box::new(SerialScheduling::new())),
    ]
}

/// An overloaded, deadline-carrying diamond stream: the ready set runs
/// deep, decision waves assign several kernels at once, and alternatives
/// are weighed.
fn run(policy: &mut dyn Policy, opts: &DriverOpts) -> StreamOutcome {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 2.0, 120, JobFamily::Diamond { width: 3 }, 31)
        .with_deadlines(DeadlineSpec::Uniform {
            lo: SimDuration::from_ms(300),
            hi: SimDuration::from_ms(20_000),
        });
    StreamRun::new(&mut source, &config, lookup, policy, opts)
        .run()
        .unwrap()
        .0
}

/// Runs every marking policy bare and through [`Unmarked`]; returns the
/// bare outcomes.
fn assert_mark_is_truthful(opts: &DriverOpts, label: &str) -> Vec<StreamOutcome> {
    let mut outcomes = Vec::new();
    for (name, make) in marking_policies() {
        let marked = run(&mut *make(), opts);
        let mut unmarked = Unmarked::new(make());
        let confirmed = run(&mut unmarked, opts);
        assert_eq!(
            marked, confirmed,
            "{name} ({label}): the confirming pass changed the outcome"
        );
        assert!(
            unmarked.confirming_calls > 0,
            "{name} ({label}): the wrapper forced no confirming call"
        );
        assert_eq!(
            unmarked.confirming_hits, 0,
            "{name} ({label}): {} of {} confirming calls assigned work",
            unmarked.confirming_hits, unmarked.confirming_calls
        );
        outcomes.push(marked);
    }
    outcomes
}

#[test]
fn fixpoint_mark_is_truthful_under_both_ready_orders() {
    for order in [ReadyOrder::Admission, ReadyOrder::EarliestDeadline] {
        let opts = DriverOpts {
            ready_order: order,
            ..DriverOpts::default()
        };
        assert_mark_is_truthful(&opts, &format!("{order:?}"));
    }
}

#[test]
fn fixpoint_mark_is_truthful_under_faults() {
    for order in [ReadyOrder::Admission, ReadyOrder::EarliestDeadline] {
        let opts = DriverOpts {
            ready_order: order,
            faults: FaultPlan::seeded(13)
                .with_crashes(SimDuration::from_ms(3_000), SimDuration::from_ms(500))
                .with_transient(0.05),
            ..DriverOpts::default()
        };
        for outcome in assert_mark_is_truthful(&opts, &format!("{order:?}, faults")) {
            let f = outcome.faults;
            assert!(
                f.crashes > 0 && f.orphaned > 0 && f.kernel_failures > 0,
                "{}: the fault plan never fired: {f:?}",
                outcome.policy
            );
        }
    }
}
