//! The APT family's `decide` is a batched, fixpoint-marked pass that skips
//! kernels on a per-cost-class admissible-processor screen. These tests
//! pin it against [`NaiveApt`]: Algorithm 1 as the paper writes it — walk
//! the ready list in the view's order, one assignment per call, no batch,
//! no fixpoint mark and no screen. Over an overloaded, deadline-tagged,
//! in-flight-capped Type-2 stream, with and without processor crashes, on
//! the paper machine and on a six-processor machine with twin FPGAs and an
//! unrunnable ASIC column, plain APT under FCFS and EDF-APT under the
//! engine's EDF order must stream byte-identically to it. A screen that
//! skipped one assignable kernel, or a stale class table, moves the
//! outcome.

use apt_control::{ControlAction, Controller};
use apt_core::prelude::*;
use apt_metrics::StreamSnapshot;
use apt_stream::{DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamOutcome, StreamRun};

/// Algorithm 1, one assignment per call, generalized to duplicated
/// categories the way the library's policies are: `p_min` may be any idle
/// instance achieving the minimum execution time (lowest id first).
struct NaiveApt {
    /// The name stem of the policy this one mirrors (`"EDF-APT"`), so
    /// outcomes, which carry the policy's name, compare whole.
    stem: String,
    alpha: f64,
}

impl NaiveApt {
    fn mirroring(policy: &dyn Policy) -> NaiveApt {
        let name = policy.name();
        NaiveApt {
            stem: name[..name.find('(').unwrap_or(name.len())].to_string(),
            alpha: policy.alpha().expect("an APT-family policy"),
        }
    }
}

impl Policy for NaiveApt {
    fn name(&self) -> String {
        format!("{}(α={})", self.stem, self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.alpha = alpha.max(1.0);
        true
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        for node in view.ready.iter() {
            // findBestProc: the minimum execution time x.
            let Some((_, x)) = view.best_proc(node) else {
                continue;
            };
            // p_min available → allocate there.
            if let Some(p) = view
                .idle_procs()
                .find(|p| view.exec_time(node, p.id) == Some(x))
            {
                out.push(Assignment::new(node, p.id));
                return;
            }
            // find2ndBestProc: the idle processor of least exec + transfer,
            // admitted only within α·x (Eq. 8); ties go to the lowest id.
            let threshold = x.scale_alpha(self.alpha);
            let mut best: Option<(ProcId, SimDuration)> = None;
            for p in view.idle_procs() {
                if let Some(cost) = view.placement_cost(node, p.id) {
                    if cost <= threshold && best.is_none_or(|(_, c)| cost < c) {
                        best = Some((p.id, cost));
                    }
                }
            }
            if let Some((p, _)) = best {
                out.push(Assignment::alternative(node, p));
                return;
            }
        }
    }
}

/// The paper machine, and six processors with twin FPGAs and an ASIC no
/// lookup row can run on.
fn machines() -> [SystemConfig; 2] {
    [
        SystemConfig::paper_4gbps(),
        SystemConfig::empty(LinkRate::gbps(4))
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Fpga)
            .with_proc(ProcKind::Gpu)
            .with_proc(ProcKind::Asic)
            .with_proc(ProcKind::Fpga)
            .with_proc(ProcKind::Cpu),
    ]
}

/// Overloaded Type-2 jobs with critical-path deadlines, held at an
/// in-flight cap so the ready set runs deep.
fn run(
    policy: &mut dyn Policy,
    config: &SystemConfig,
    opts: &DriverOpts,
    controller: Option<&mut dyn Controller>,
) -> StreamOutcome {
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 0.5, 60, JobFamily::Type2 { len: 12 }, 23)
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: 3.0 });
    let run = StreamRun::new(&mut source, config, lookup, policy, opts);
    match controller {
        Some(c) => run.controller(c).run(),
        None => run.run(),
    }
    .unwrap()
    .0
}

fn opts(order: ReadyOrder, faults: bool) -> DriverOpts {
    DriverOpts {
        ready_order: order,
        max_in_flight_jobs: Some(12),
        shed_when_full: true,
        faults: if faults {
            FaultPlan::seeded(5)
                .with_crashes(SimDuration::from_ms(4_000), SimDuration::from_ms(800))
        } else {
            FaultPlan::none()
        },
        ..DriverOpts::default()
    }
}

/// Streams `make(α)` under `order` against [`NaiveApt`] in every cell.
fn assert_matches_naive(order: ReadyOrder, make: fn(f64) -> Box<dyn Policy>) {
    for config in machines() {
        for alpha in [1.0, 1.5, 4.0] {
            for faults in [false, true] {
                let opts = opts(order, faults);
                let mut policy = make(alpha);
                let fast = run(&mut *policy, &config, &opts, None);
                let naive = run(&mut NaiveApt::mirroring(&*policy), &config, &opts, None);
                let cell = format!(
                    "{} on {} procs, faults {faults}",
                    policy.name(),
                    config.len()
                );
                assert_eq!(fast, naive, "{cell}");
                assert!(fast.jobs_shed > 0, "{cell}: the stream never hit its cap");
                assert!(fast.deadline_misses > 0, "{cell}: no deadline pressure");
                assert_eq!(fast.faults.crashes > 0, faults, "{cell}");
            }
        }
    }
}

#[test]
fn apt_in_admission_order_matches_naive_algorithm_1() {
    assert_matches_naive(ReadyOrder::Admission, |a| Box::new(Apt::new(a)));
}

#[test]
fn edf_apt_in_deadline_order_matches_naive_algorithm_1() {
    assert_matches_naive(ReadyOrder::EarliestDeadline, |a| Box::new(EdfApt::new(a)));
}

/// Sets α once, at the first window close.
struct RetuneOnce(Option<f64>);

impl Controller for RetuneOnce {
    fn name(&self) -> String {
        "retune-once".into()
    }

    fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        if let Some(alpha) = self.0.take() {
            out.push(ControlAction::SetAlpha(alpha));
        }
    }
}

/// `set_alpha` mid-run rebuilds the class table: a policy retuned from
/// α = 4 to α = 8 at the first window close streams exactly like the naive
/// reference retuned at the same instant. A table kept at α = 4 would
/// screen out every alternative between 4x and 8x.
#[test]
fn retuning_alpha_mid_run_matches_naive_algorithm_1() {
    let config = SystemConfig::paper_4gbps();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(5_000)),
        ..opts(ReadyOrder::EarliestDeadline, false)
    };
    let mut fast = EdfApt::new(4.0);
    let mut naive = NaiveApt::mirroring(&fast);
    let retuned = run(&mut fast, &config, &opts, Some(&mut RetuneOnce(Some(8.0))));
    let reference = run(&mut naive, &config, &opts, Some(&mut RetuneOnce(Some(8.0))));
    assert_eq!(fast.alpha(), 8.0, "the controller retuned the policy");
    assert_eq!(retuned, reference);
    assert!(retuned.snapshots.len() > 1, "the retune happened mid-run");
    let unretuned = run(&mut EdfApt::new(4.0), &config, &opts, None);
    assert_ne!(retuned, unretuned, "α = 8 must change this schedule");
}

/// A policy built at α = 4, used for a run, then set to α = 8 streams
/// byte-identically to a fresh `EdfApt::new(8.0)`.
#[test]
fn set_alpha_before_a_run_equals_a_fresh_policy() {
    let config = SystemConfig::paper_4gbps();
    let opts = opts(ReadyOrder::EarliestDeadline, false);
    let mut retuned = EdfApt::new(4.0);
    run(&mut retuned, &config, &opts, None);
    retuned.set_alpha(8.0);
    let mut fresh = EdfApt::new(8.0);
    assert_eq!(
        run(&mut retuned, &config, &opts, None),
        run(&mut fresh, &config, &opts, None)
    );
}
