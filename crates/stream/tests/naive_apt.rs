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
//! outcome. So does a rejection memo that outlives the admission it was
//! learned for: cells whose transient faults cancel jobs, and so hand
//! their node ids to later jobs, pin that. LL-APT is pinned the same way
//! against [`NaiveLlApt`], the walk in laxity order with its slack-clamped
//! threshold.

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
        // Alternatives are admitted only within α·x (Eq. 8).
        let pick = view
            .ready
            .iter()
            .find_map(|node| algorithm_1(view, node, |x| x.scale_alpha(self.alpha)));
        if let Some(a) = pick {
            out.push(a);
        }
    }
}

/// Algorithm 1 for one ready kernel: `p_min` if an instance is idle, else
/// the idle processor of least exec + transfer within `threshold(x)`, ties
/// to the lowest id, else nothing (the kernel waits).
fn algorithm_1(
    view: &SimView<'_>,
    node: NodeId,
    threshold: impl Fn(SimDuration) -> SimDuration,
) -> Option<Assignment> {
    // findBestProc: the minimum execution time x.
    let (_, x) = view.best_proc(node)?;
    // p_min available → allocate there.
    if let Some(p) = view
        .idle_procs()
        .find(|p| view.exec_time(node, p.id) == Some(x))
    {
        return Some(Assignment::new(node, p.id));
    }
    // find2ndBestProc.
    let threshold = threshold(x);
    let mut best: Option<(ProcId, SimDuration)> = None;
    for p in view.idle_procs() {
        if let Some(cost) = view.placement_cost(node, p.id) {
            if cost <= threshold && best.is_none_or(|(_, c)| cost < c) {
                best = Some((p.id, cost));
            }
        }
    }
    best.map(|(p, _)| Assignment::alternative(node, p))
}

/// LL-APT, one assignment per call: the ready list sorted by laxity
/// (`slack − x`, zero once the slack is gone; deadline-free kernels last),
/// stably, so equal laxities keep the view's order; then Algorithm 1 with
/// the threshold `clamp(slack, x, α·x)`.
struct NaiveLlApt {
    alpha: f64,
}

impl Policy for NaiveLlApt {
    fn name(&self) -> String {
        format!("LL-APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let laxity = |node| match (view.slack(node), view.best_proc(node)) {
            (Some(slack), Some((_, x))) => slack.as_ns().saturating_sub(x.as_ns()),
            (Some(slack), None) => slack.as_ns(),
            (None, _) => u64::MAX,
        };
        let mut ready: Vec<NodeId> = view.ready.iter().collect();
        ready.sort_by_key(|&node| laxity(node));
        let pick = ready.into_iter().find_map(|node| {
            algorithm_1(view, node, |x| {
                let full = x.scale_alpha(self.alpha);
                view.slack(node).map_or(full, |s| s.max(x).min(full))
            })
        });
        if let Some(a) = pick {
            out.push(a);
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

/// A one-retry budget under 20% transient failures: jobs get cancelled in
/// every cell, and their node ids go to later jobs.
fn cancelling_opts(order: ReadyOrder, seed: u64) -> DriverOpts {
    DriverOpts {
        faults: FaultPlan::seeded(seed).with_transient(0.2),
        retry: RetryPolicy {
            max_attempts: 2,
            job_retry_budget: 1,
            ..RetryPolicy::default()
        },
        ..opts(order, false)
    }
}

/// Cancelled jobs recycle their slots, and a later kernel on a recycled
/// node id is a new admission: APT under FCFS and EDF-APT under the EDF
/// order still stream exactly like [`NaiveApt`], so nothing the batched
/// pass remembers about a node survives its occupant.
#[test]
fn cancelled_jobs_recycle_slots_and_match_naive_algorithm_1() {
    let apt: fn(f64) -> Box<dyn Policy> = |a| Box::new(Apt::new(a));
    let edf_apt: fn(f64) -> Box<dyn Policy> = |a| Box::new(EdfApt::new(a));
    for (order, make) in [
        (ReadyOrder::Admission, apt),
        (ReadyOrder::EarliestDeadline, edf_apt),
    ] {
        for config in machines() {
            for alpha in [1.0, 1.5, 4.0] {
                for seed in 1..=5 {
                    let opts = cancelling_opts(order, seed);
                    let mut policy = make(alpha);
                    let fast = run(&mut *policy, &config, &opts, None);
                    let naive = run(&mut NaiveApt::mirroring(&*policy), &config, &opts, None);
                    let cell = format!("{} on {} procs, seed {seed}", policy.name(), config.len());
                    assert!(fast.jobs_failed > 0, "{cell}: no job was cancelled");
                    assert_eq!(fast, naive, "{cell}");
                }
            }
        }
    }
}

/// LL-APT streams exactly like [`NaiveLlApt`] under both ready orders,
/// with and without crashes and with cancelled jobs. The batched pass's
/// memo of rejected alternatives holds only because the slack-clamped
/// threshold never grows while a kernel waits.
#[test]
fn ll_apt_matches_naive_least_laxity_algorithm_1() {
    for order in [ReadyOrder::Admission, ReadyOrder::EarliestDeadline] {
        for config in machines() {
            for alpha in [1.0, 1.5, 4.0] {
                let cells = [
                    ("fault-free", opts(order, false)),
                    ("crashes", opts(order, true)),
                    ("cancellations", cancelling_opts(order, 4)),
                ];
                for (faults, opts) in cells {
                    let fast = run(&mut LlApt::new(alpha), &config, &opts, None);
                    let naive = run(&mut NaiveLlApt { alpha }, &config, &opts, None);
                    let cell = format!(
                        "LL-APT(α={alpha}) on {} procs, {faults}, {order:?}",
                        config.len()
                    );
                    assert_eq!(fast, naive, "{cell}");
                    assert!(fast.jobs_shed > 0, "{cell}: the stream never hit its cap");
                    assert!(fast.deadline_misses > 0, "{cell}: no deadline pressure");
                }
            }
        }
    }
}
