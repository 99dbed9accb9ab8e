//! The bounded-memory streaming driver.
//!
//! [`StreamRun`] is the one entry point. It pulls arrivals from a
//! [`Source`] *just-in-time* — each job is admitted into the
//! [`OpenEngine`] only once the simulation clock is about to reach its
//! arrival — steps the engine event by event, and returns a compact
//! [`StreamOutcome`]. [`StreamRun::new`] takes the required inputs; the
//! optional layers are setters: an [`AdmissionGate`] (default
//! [`AdmitAll`]), an `apt-control` [`Controller`], a [`TraceSink`], a
//! [`StreamTelemetry`] registry and a per-job observer.
//! [`simulate_source`] and [`simulate_source_gated`] are one-line
//! shorthands for the two common shapes.
//!
//! Inside the loop each fact is stated once. The driver builds one
//! `RunEvent` — admitted, shed (with the reason), retired (completed or
//! failed), window closed (with the α/ρ/in-flight/queue operating point),
//! control action, end — and hands it to one fan-out.
//! The fan-out feeds [`OnlineMetrics`] first, then the gate's completion
//! hook on retirements, then every armed observer: the telemetry
//! registry, the per-job closure and, last, the trace-sink adapter. An
//! unarmed observer costs nothing but the empty iteration.
//!
//! Each fact is also *stored* once: [`OnlineMetrics`] is the run's only
//! tally of job facts. The driver keeps no count of its own and reads
//! [`StreamOutcome`]'s job counts from it; every observer gets it, already
//! updated, with each event.
//!
//! Memory is bounded by the jobs in flight plus one pending arrival: the
//! arrival vector is never materialized, retired jobs free their arena
//! slots and live-job slab entries, and metrics are O(1) per job. A
//! million-job Poisson run completes in a few hundred kilobytes of
//! simulator state (see this crate's `examples/million_jobs.rs` and the
//! bounded-arena assertions in `tests/`). Past the run's in-flight peak a
//! single-kernel job costs no heap allocation: its template keeps the
//! kernel inline, the engine reuses slab entries with their slot lists,
//! and the driver drains completions into one long-lived vector, whose
//! record buffers the engine takes back for later retirements.
//!
//! Each arrival is drawn in the source's two steps (see
//! [`crate::source`]). The in-flight cap reads only the arrival instant,
//! so an arrival shed there is never built; every other one is built into
//! one long-lived template, which the gate reads and the engine copies
//! from, so past the first admission a multi-kernel job's kernel and edge
//! lists cost no allocation either.
//!
//! `simulate_stream` semantics are preserved exactly: a finite source
//! replayed through this driver produces the same schedule, record for
//! record, as the closed-world engine over the materialized workload (the
//! `finite_source_matches_simulate_stream` proptest pins this byte for
//! byte). Every observer is purely observational: an armed run's
//! [`StreamOutcome`] equals the bare run's (pinned in `tests/`).

use crate::job::JobTemplate;
use crate::source::{Arrival, Source};
use crate::telemetry::StreamTelemetry;
use apt_base::{BaseError, SimDuration, SimTime};
use apt_control::{ControlAction, ControlEvent, Controller};
use apt_dfg::LookupTable;
use apt_hetsim::{
    CompletedJob, FaultPlan, FaultTotals, OpenEngine, Policy, ProcStats, ReadyOrder, RetryPolicy,
    SystemConfig,
};
use apt_metrics::{ratio, OnlineMetrics, StreamSnapshot};
use apt_trace::{ControlKind, CounterKind, ShedReason, TraceEvent, TraceSink};
use std::ops::Range;

/// Driver knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverOpts {
    /// Emit an [`StreamSnapshot`] every this much simulated time (`None`:
    /// no periodic snapshots; the final aggregates are always produced).
    /// Must be positive: a zero interval is an `InvalidSystem` error.
    pub snapshot_interval: Option<SimDuration>,
    /// Stop admitting new jobs once this many are in flight and mark the
    /// outcome [`StreamOutcome::saturated`]. `None`: admit everything.
    /// This is the overload guard for λ-sweep experiments — a saturated
    /// system's backlog would otherwise grow without bound. By default the
    /// guard is a *latch*: once tripped, admission stops permanently and
    /// the run drains; set [`DriverOpts::shed_when_full`] to shed only the
    /// jobs that arrive while the system is actually full.
    pub max_in_flight_jobs: Option<usize>,
    /// Soften the `max_in_flight_jobs` guard from a permanent latch into
    /// per-arrival shedding: a job arriving while the system is at the cap
    /// is dropped (counted in [`StreamOutcome::jobs_shed`]), and admission
    /// resumes as soon as the backlog drains below the cap. The latch
    /// (default, `false`) preserves the historical sweep semantics, where
    /// one transient burst ends admission for the rest of the stream.
    pub shed_when_full: bool,
    /// Iteration order of the engine's ready set: FCFS admission order
    /// (the default, byte-identical to `simulate_stream`) or
    /// earliest-deadline-first.
    pub ready_order: ReadyOrder,
    /// Fault-injection plan armed over the run. The default,
    /// [`FaultPlan::none()`], leaves the driver on the fault-free path —
    /// byte-identical outcomes, zero fault counters.
    pub faults: FaultPlan,
    /// Retry policy for transiently failed kernels (only consulted when
    /// [`DriverOpts::faults`] is armed).
    pub retry: RetryPolicy,
}

/// Everything an admission decision may inspect: the job about to enter
/// the system and the live backlog it would join.
#[derive(Debug, Clone, Copy)]
pub struct AdmitRequest<'a> {
    /// The [`apt_hetsim::JobId`] the job receives **if admitted** (from
    /// [`OpenEngine::next_job_id`]) — the id its [`CompletedJob`] will
    /// carry, so stateful gates key per-job reservations on it.
    pub job_id: apt_hetsim::JobId,
    /// The job's arrival instant.
    pub arrival: SimTime,
    /// Its absolute deadline (`arrival + relative deadline`), if tagged.
    pub deadline: Option<SimTime>,
    /// The job itself (kernels, edges, relative deadline).
    pub job: &'a JobTemplate,
    /// The engine clock at decision time (`≤ arrival` — jobs are admitted
    /// just-in-time).
    pub now: SimTime,
    /// Jobs currently in flight.
    pub in_flight_jobs: usize,
    /// Kernels currently in flight.
    pub in_flight_kernels: usize,
    /// Processors currently up (not crashed). Equal to the machine size on
    /// fault-free runs; capacity-budget gates scale to this so admission
    /// tightens while the machine is degraded.
    pub live_procs: usize,
}

/// The admission hook of [`StreamRun::gate`]: decide per job whether it
/// enters the system, and observe completions to release whatever budget
/// the decision reserved. `apt-slo`'s `AdmissionPolicy` gates plug in
/// through this. An accepted request's job enters the engine under
/// exactly [`AdmitRequest::job_id`].
pub trait AdmissionGate {
    /// True to admit the job, false to shed it (the job never enters the
    /// system and is counted in [`StreamOutcome::jobs_shed`]).
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool;

    /// Called for every completed job, in completion order, before the
    /// driver's own observers.
    fn on_complete(&mut self, _job: &CompletedJob) {}

    /// Set the gate's utilization bound ρ at runtime — how
    /// `apt-control`'s AIMD admission loop reaches the gate. The gate
    /// clamps to its own valid range; the default (`false`) means "no
    /// such knob" and the driver records the action unapplied.
    fn set_utilization_bound(&mut self, _bound: f64) -> bool {
        false
    }

    /// The gate's current utilization bound, when it has one.
    fn utilization_bound(&self) -> Option<f64> {
        None
    }
}

/// The open gate: admit everything (plain [`simulate_source`] behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionGate for AdmitAll {
    fn admit(&mut self, _req: &AdmitRequest<'_>) -> bool {
        true
    }
}

/// Everything a streaming run reports. All aggregates are online — no
/// per-job storage survives the run (jobs stream through the optional
/// observer instead).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Policy display name.
    pub policy: String,
    /// Jobs the driver admitted into the system.
    pub jobs_admitted: u64,
    /// Jobs that ran to completion (equals `jobs_admitted` on fault-free
    /// success).
    pub jobs_completed: u64,
    /// Admitted jobs shed by the failure model after exhausting their
    /// retry budget. Zero on fault-free runs.
    pub jobs_failed: u64,
    /// Kernels executed to completion (including those of failed jobs that
    /// finished before the job was shed).
    pub kernels_completed: u64,
    /// The instant the last event fired (the open-system "makespan").
    pub end: SimTime,
    /// Jobs leaving the system per simulated second — completed *and*
    /// failed. Equals [`StreamOutcome::goodput_jps`] on fault-free runs.
    pub throughput_jps: f64,
    /// Successfully completed jobs per simulated second — throughput minus
    /// the failure-model sheds.
    pub goodput_jps: f64,
    /// Mean end-to-end job latency (arrival → last kernel finish), ms.
    pub mean_latency_ms: f64,
    /// Streaming quantile estimates of job latency, ms, each within
    /// [`apt_metrics::QUANTILE_GAMMA`] of the exact nearest-rank sample.
    pub latency_p50_ms: f64,
    /// 90th percentile job latency, ms.
    pub latency_p90_ms: f64,
    /// 99th percentile job latency, ms.
    pub latency_p99_ms: f64,
    /// Total λ delay accumulated by all kernels.
    pub lambda_total: SimDuration,
    /// Most jobs ever simultaneously in flight.
    pub peak_in_flight_jobs: usize,
    /// Most kernels ever simultaneously in flight.
    pub peak_in_flight_kernels: usize,
    /// Final slot-arena size — the memory high-water mark, bounded by the
    /// in-flight peak rather than the stream length.
    pub arena_slots: usize,
    /// Cumulative per-processor aggregates.
    pub proc_stats: Vec<ProcStats>,
    /// Periodic snapshots (empty unless `snapshot_interval` was set).
    pub snapshots: Vec<StreamSnapshot>,
    /// True when the `max_in_flight_jobs` guard tripped at least once:
    /// with the default latch, admission stopped early; with
    /// [`DriverOpts::shed_when_full`], at least one arrival was shed while
    /// the system was full.
    pub saturated: bool,
    /// Jobs that never entered the system: rejected by the admission gate
    /// or shed by the `max_in_flight_jobs` guard in shed mode.
    pub jobs_shed: u64,
    /// Completed jobs that carried a deadline (the miss-rate denominator).
    pub deadline_jobs: u64,
    /// Deadline-carrying jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Median tardiness over deadline-carrying jobs, ms (on-time jobs
    /// count as zero tardiness).
    pub tardiness_p50_ms: f64,
    /// 99th-percentile tardiness, ms.
    pub tardiness_p99_ms: f64,
    /// Mean tardiness over deadline-carrying jobs, ms.
    pub mean_tardiness_ms: f64,
    /// Fault-injection counters for the run (all zeros when
    /// [`DriverOpts::faults`] was [`FaultPlan::none()`]).
    pub faults: FaultTotals,
    /// Every action a controller emitted, in emission order, with whether
    /// the run had the knob. Empty on uncontrolled runs *and* under an
    /// armed controller that never acted — an inert-armed run's outcome
    /// is byte-identical to a controller-off run (pinned in this crate's
    /// equivalence suite).
    pub control_log: Vec<ControlEvent>,
}

impl StreamOutcome {
    /// Per-processor busy+transfer fraction of the whole run. A run that
    /// never advanced the clock (`end == 0`) reports zero utilization
    /// rather than dividing by a degenerate denominator.
    pub fn utilization(&self) -> Vec<f64> {
        self.proc_stats
            .iter()
            .map(|s| ratio((s.busy + s.transfer).as_ns(), self.end.as_ns()))
            .collect()
    }

    /// Fraction of deadline-carrying jobs that missed their deadline
    /// (0 when the stream carried none).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.deadline_misses, self.deadline_jobs)
    }

    /// Fraction of *offered* jobs the admission gate shed.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.jobs_shed, self.jobs_admitted + self.jobs_shed)
    }

    /// Machine availability over the run: the fraction of aggregate
    /// processor-time that was up, `1 − down/(procs × end)`. Exactly 1 on
    /// fault-free runs (and degenerate zero-duration runs).
    pub fn availability(&self) -> f64 {
        let span = self
            .end
            .as_ns()
            .saturating_mul(self.proc_stats.len() as u64);
        1.0 - ratio(self.faults.down_ns, span).min(1.0)
    }

    /// Wasted-work fraction: of all processor occupancy (busy + transfer,
    /// which includes the partial occupancy of killed attempts), the share
    /// thrown away by transient failures and crashes. Zero on fault-free
    /// runs.
    pub fn wasted_work_frac(&self) -> f64 {
        let occupied: u64 = self
            .proc_stats
            .iter()
            .map(|s| (s.busy + s.transfer).as_ns())
            .sum();
        ratio(self.faults.wasted_ns, occupied)
    }
}

/// Run `policy` over the arrivals of `source` on `config`'s machine, every
/// arrival admitted: `StreamRun::new(..).run()` without the sink.
pub fn simulate_source(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
) -> Result<StreamOutcome, BaseError> {
    StreamRun::new(source, config, lookup, policy, opts)
        .run()
        .map(|(outcome, _)| outcome)
}

/// [`simulate_source`] with `gate` in the admit path and `observe` called
/// for every retired job: `StreamRun::new(..).gate(gate).observe(observe)`.
pub fn simulate_source_gated(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    observe: impl FnMut(&CompletedJob),
) -> Result<StreamOutcome, BaseError> {
    StreamRun::new(source, config, lookup, policy, opts)
        .gate(gate)
        .observe(observe)
        .run()
        .map(|(outcome, _)| outcome)
}

/// One streaming run: the required inputs in [`StreamRun::new`], the
/// optional layers by setter, and [`StreamRun::run`] to drive it.
///
/// ```
/// use apt_stream::{DriverOpts, JobFamily, PoissonSource, StreamRun};
/// use apt_hetsim::SystemConfig;
/// use apt_dfg::LookupTable;
/// use apt_core::Apt;
///
/// let lookup = LookupTable::paper();
/// let mut source = PoissonSource::new(lookup, 0.25, 50, JobFamily::Single, 7);
/// let mut retired = 0;
/// let (outcome, sink) = StreamRun::new(
///     &mut source,
///     &SystemConfig::paper_4gbps(),
///     lookup,
///     &mut Apt::new(4.0),
///     &DriverOpts::default(),
/// )
/// .observe(|_job| retired += 1)
/// .run()
/// .unwrap();
/// assert!(sink.is_none(), "no sink was armed");
/// assert_eq!(outcome.jobs_completed, 50);
/// assert_eq!(retired, 50);
/// ```
pub struct StreamRun<'r> {
    source: &'r mut dyn Source,
    config: &'r SystemConfig,
    lookup: &'r LookupTable,
    policy: &'r mut dyn Policy,
    opts: &'r DriverOpts,
    gate: Option<&'r mut dyn AdmissionGate>,
    controller: Option<&'r mut dyn Controller>,
    sink: Option<Box<dyn TraceSink>>,
    telemetry: Option<&'r mut StreamTelemetry>,
    per_job: Option<PerJob<'r>>,
}

impl<'r> StreamRun<'r> {
    /// A run of `policy` over the arrivals of `source` on `config`'s
    /// machine, with every optional layer off.
    pub fn new(
        source: &'r mut dyn Source,
        config: &'r SystemConfig,
        lookup: &'r LookupTable,
        policy: &'r mut dyn Policy,
        opts: &'r DriverOpts,
    ) -> Self {
        StreamRun {
            source,
            config,
            lookup,
            policy,
            opts,
            gate: None,
            controller: None,
            sink: None,
            telemetry: None,
            per_job: None,
        }
    }

    /// Put `gate` in the admit path (default [`AdmitAll`]): each due job is
    /// offered to it *before* entering the engine; rejected jobs are shed
    /// (counted, never admitted) and the gate hears about every completion
    /// so it can release reserved budget. This is how `apt-slo`'s
    /// admission policies bound overload instead of letting the backlog
    /// grow without bound.
    pub fn gate(mut self, gate: &'r mut dyn AdmissionGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Close the loop with `controller`: at every metrics-window close it
    /// observes the window's [`StreamSnapshot`] and may emit bounded
    /// [`ControlAction`]s, which the driver applies *between* events — α
    /// retunes via [`Policy::set_alpha`], the admission bound via
    /// [`AdmissionGate::set_utilization_bound`], roster switches via
    /// [`Policy::switch_to`] — and records in
    /// [`StreamOutcome::control_log`] (including rejected actions, with
    /// `applied: false`). Controllers are deterministic functions of the
    /// window sequence, so controlled runs replay bit-for-bit under a seed.
    ///
    /// Windows are the controller's clock, so a controlled run needs
    /// [`DriverOpts::snapshot_interval`]; the final *partial* window
    /// flushed at stream end is not delivered (nothing is left to
    /// control).
    pub fn controller(mut self, controller: &'r mut dyn Controller) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Arm `sink`: the engine records every admission, dispatch, transfer,
    /// completion, fault, and APT decision record; the driver adds what
    /// only it can see — gate/capacity sheds, job retirements, per-window
    /// counter samples (α, ρ, in-flight jobs, queue depth, window miss
    /// rate; the flushed tail window included), and control actions.
    /// [`StreamRun::run`] hands the sink back loaded with the run, ready
    /// for `apt-trace`'s Chrome exporter or wait-decomposition summary.
    pub fn trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Publish the run into `telemetry`: the run's job totals and
    /// latency/tardiness histograms, copied from its [`OnlineMetrics`] at
    /// every window close and at the end, per-window operating points into
    /// its registry, one JSONL line per metrics window, the `--progress`
    /// heartbeat when armed. With a trace sink armed too, its
    /// `recorded`/`dropped` totals surface as `trace_events_total` /
    /// `trace_events_dropped_total`. A [`StreamTelemetry`] publishes one
    /// run: arm a fresh one for each.
    pub fn telemetry(mut self, telemetry: &'r mut StreamTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Call `observe` once for every retired [`CompletedJob`], in
    /// completion order, after the gate's completion hook and before its
    /// storage is recycled — the hook tests and exporters use to stream
    /// records out without the driver retaining them.
    pub fn observe(mut self, observe: impl FnMut(&CompletedJob) + 'r) -> Self {
        self.per_job = Some(PerJob(Box::new(observe)));
        self
    }

    /// Drive the run to the end of the stream. Returns the outcome and the
    /// armed trace sink (`None` when [`StreamRun::trace`] was not set).
    ///
    /// Fails on a zero [`DriverOpts::snapshot_interval`], on a controlled
    /// run without one, on a source whose [`Source::validate`] refuses it,
    /// on a fault plan or retry policy that [`FaultPlan::validate`] refuses,
    /// on a [`StreamTelemetry`] that already published a run, on
    /// starvation (the policy stops scheduling while jobs are in flight),
    /// on a source yielding decreasing arrival times, or on a static
    /// policy.
    pub fn run(self) -> Result<(StreamOutcome, Option<Box<dyn TraceSink>>), BaseError> {
        let StreamRun {
            source,
            config,
            lookup,
            policy,
            opts,
            gate,
            mut controller,
            sink,
            telemetry,
            mut per_job,
        } = self;
        match opts.snapshot_interval {
            Some(interval) if interval.is_zero() => {
                return Err(BaseError::InvalidSystem {
                    reason: "DriverOpts::snapshot_interval must be positive".into(),
                });
            }
            None if controller.is_some() => {
                return Err(BaseError::InvalidSystem {
                    reason: "a controlled run needs DriverOpts::snapshot_interval — metrics \
                             windows are the controller's clock"
                        .into(),
                });
            }
            _ => {}
        }
        source.validate()?;
        opts.faults.validate(&opts.retry)?;
        if telemetry.as_ref().is_some_and(|t| t.holds_a_run()) {
            return Err(BaseError::InvalidSystem {
                reason: "a StreamTelemetry publishes one run; arm a fresh one per run".into(),
            });
        }

        let mut engine = OpenEngine::with_order(config, lookup, opts.ready_order)?;
        engine.prepare(policy)?;
        let faults_armed = !opts.faults.is_none();
        if faults_armed {
            engine.arm_faults(opts.faults, opts.retry);
        }
        if let Some(s) = sink {
            engine.arm_trace(s);
        }

        // The aggregator always runs; without a snapshot interval its window
        // is pushed past any reachable instant so only the running
        // estimators are exercised.
        let far = SimDuration::from_ns(u64::MAX >> 1);
        let snapshots_enabled = opts.snapshot_interval.is_some();
        let mut admit_all = AdmitAll;
        let mut observers: Vec<&mut dyn RunObserver> = Vec::new();
        if let Some(t) = telemetry {
            observers.push(t);
        }
        if let Some(f) = per_job.as_mut() {
            observers.push(f);
        }
        let mut fan = Fanout {
            metrics: OnlineMetrics::new(opts.snapshot_interval.unwrap_or(far), config.len()),
            gate: match gate {
                Some(g) => g,
                None => &mut admit_all,
            },
            observers,
        };
        let mut arrivals = Arrivals {
            pending: source.next_arrival(),
            source,
            job: JobTemplate::empty(),
            opts,
            last_arrival: SimTime::ZERO,
            saturated: false,
        };
        let mut done: Vec<CompletedJob> = Vec::new();
        let mut control_log: Vec<ControlEvent> = Vec::new();
        let mut actions: Vec<ControlAction> = Vec::new();

        // Seed the engine with the t = 0 cohort before the first fixpoint.
        arrivals.admit_due(&mut engine, &mut fan, true)?;

        loop {
            engine.decide(policy)?;
            arrivals.admit_due(&mut engine, &mut fan, false)?;
            let advanced = engine.advance()?;

            engine.drain_completed(&mut done);
            for job in &done {
                let ev = RunEvent::Retired {
                    job,
                    now: engine.now(),
                    in_flight: engine.in_flight_jobs(),
                };
                fan.emit(&mut engine, &ev);
            }
            if snapshots_enabled && engine.now() >= fan.metrics.window_end() {
                let closed = fan.close_windows(&mut engine, policy.alpha(), false);
                // Deliver each newly closed window to the controller, in
                // emission order, applying its actions before the next
                // event — every window's statistics therefore describe
                // exactly one operating point.
                if let Some(ctrl) = controller.as_deref_mut() {
                    for idx in closed {
                        let snap = &fan.metrics.snapshots()[idx];
                        let at = snap.end;
                        actions.clear();
                        ctrl.on_window(snap, &mut actions);
                        for action in actions.drain(..) {
                            let applied = match action {
                                ControlAction::SetAlpha(alpha) => policy.set_alpha(alpha),
                                ControlAction::SetAdmissionBound(bound) => {
                                    fan.gate.set_utilization_bound(bound)
                                }
                                ControlAction::SwitchPolicy(member) => policy.switch_to(member),
                            };
                            let ev = ControlEvent {
                                at,
                                action,
                                applied,
                            };
                            control_log.push(ev);
                            fan.emit(&mut engine, &RunEvent::Control(ev));
                        }
                    }
                }
            }
            // With a fault plan armed the calendar always holds the
            // perpetual crash/repair cycle, so `advance` never runs dry —
            // stop once the source is exhausted (or latched shut) and the
            // system has drained.
            if faults_armed && engine.in_flight_jobs() == 0 && arrivals.exhausted() {
                break;
            }

            if advanced.is_none() {
                // No event fired and the queue is empty. With work still in
                // flight that means the fixpoint just declined to schedule
                // anything — the policy starved it (future arrivals cannot
                // unblock kernels whose dependencies are all internal).
                if engine.in_flight_kernels() > 0 {
                    return Err(BaseError::Starvation {
                        unscheduled: engine.in_flight_kernels(),
                    });
                }
                if arrivals.exhausted() {
                    break;
                }
                // Idle engine with a pending arrival: the admission loop
                // admits it on the next pass (it is now unconditionally
                // due).
            }
        }

        let end = engine.now();
        // Flush the final *partial* window so window-driven consumers (CSV
        // exporters, telemetry, the trace's counter tracks) see the tail of
        // the run; a run ending exactly on a boundary flushes nothing extra.
        if snapshots_enabled {
            fan.close_windows(&mut engine, policy.alpha(), true);
        }
        let sink = engine.take_trace();
        let ev = RunEvent::End {
            now: end,
            in_flight: engine.in_flight_jobs(),
            trace: sink.as_deref(),
        };
        fan.emit(&mut engine, &ev);
        let Fanout { metrics, .. } = fan;

        // A failed job counts toward throughput (it left the system) but
        // never toward goodput, latency, or the SLO estimators.
        let completed = metrics.total_jobs();
        let failed = metrics.total_failed_jobs();
        let (p50, p90, p99) = metrics.latency_quantiles_ms();
        let (tardiness_p50_ms, tardiness_p99_ms) = metrics.tardiness_quantiles_ms();
        let rate = |jobs: u64| {
            // A stream completing entirely at t = 0 has no meaningful rate;
            // the old `max(f64::MIN_POSITIVE)` clamp reported ~1e308 jobs/s
            // for it.
            if end.as_ns() == 0 {
                0.0
            } else {
                jobs as f64 / end.as_secs_f64()
            }
        };
        let outcome = StreamOutcome {
            policy: policy.name(),
            jobs_admitted: metrics.total_admitted_jobs(),
            jobs_completed: completed,
            jobs_failed: failed,
            kernels_completed: metrics.total_retired_kernels(),
            end,
            throughput_jps: rate(completed + failed),
            goodput_jps: rate(completed),
            mean_latency_ms: metrics.mean_latency_ms(),
            latency_p50_ms: p50,
            latency_p90_ms: p90,
            latency_p99_ms: p99,
            lambda_total: metrics.lambda_total(),
            peak_in_flight_jobs: engine.peak_in_flight_jobs(),
            peak_in_flight_kernels: engine.peak_in_flight_kernels(),
            arena_slots: engine.arena_slots(),
            proc_stats: engine.proc_stats(),
            saturated: arrivals.saturated,
            jobs_shed: metrics.total_shed_jobs(),
            deadline_jobs: metrics.deadline_jobs(),
            deadline_misses: metrics.deadline_misses(),
            tardiness_p50_ms,
            tardiness_p99_ms,
            mean_tardiness_ms: metrics.mean_tardiness_ms(),
            faults: engine.fault_totals(),
            control_log,
            snapshots: metrics.snapshots().to_vec(),
        };
        Ok((outcome, sink))
    }
}

/// The arrival side of the loop: the source, the one arrival pending
/// outside the engine, the template every admitted job is built into, and
/// the overload latch. Admissions and sheds are tallied by the fan-out's
/// [`OnlineMetrics`].
struct Arrivals<'s> {
    source: &'s mut dyn Source,
    opts: &'s DriverOpts,
    pending: Option<Arrival>,
    /// Reused from one admission to the next: the gate reads the job in
    /// it, and the engine copies what it keeps.
    job: JobTemplate,
    last_arrival: SimTime,
    saturated: bool,
}

impl Arrivals<'_> {
    /// True once no arrival can enter any more: the source ran dry, or the
    /// overload latch shut admission for good.
    fn exhausted(&self) -> bool {
        self.pending.is_none() || (self.saturated && !self.opts.shed_when_full)
    }

    /// Admit every due job — at most one job plus its same-instant
    /// companions sit outside the engine at any moment. Called *after* the
    /// fixpoint, so the event queue reflects everything the policy
    /// scheduled and "due" genuinely means "nothing can happen before this
    /// arrival" (an empty queue then means the engine is quiescent, however
    /// far away the arrival is). The overload latch therefore trips only
    /// when a job wants in at an instant where the system is actually full
    /// — a pending arrival hours past a drainable burst never latches.
    /// `seed` phases run before a fixpoint, when direct (at ≤ now) arrivals
    /// push no events — only the current-instant cohort is due there.
    // Forced inline: this is the per-arrival path, and out of line it
    // measurably slows the `stream-single` benchmark workload.
    #[inline(always)]
    fn admit_due(
        &mut self,
        engine: &mut OpenEngine<'_>,
        fan: &mut Fanout<'_>,
        seed: bool,
    ) -> Result<(), BaseError> {
        let opts = self.opts;
        // The latch (default) stops admission permanently once tripped; in
        // shed mode `saturated` only records that the guard ever fired.
        while !self.saturated || opts.shed_when_full {
            let Some(arrival) = self.pending else { break };
            let at = arrival.at;
            if at < self.last_arrival {
                return Err(BaseError::DisorderedArrival {
                    at_ns: at.as_ns(),
                    prev_ns: self.last_arrival.as_ns(),
                });
            }
            let due = if seed {
                at <= engine.now()
            } else {
                match engine.next_event_time() {
                    None => true,
                    Some(next) => at <= next,
                }
            };
            if !due {
                break;
            }
            let full = opts
                .max_in_flight_jobs
                .is_some_and(|cap| engine.in_flight_jobs() >= cap);
            if full {
                self.saturated = true;
                if !opts.shed_when_full {
                    break;
                }
            }
            // Shed or admitted, the arrival is consumed either way; the
            // arrival clock keeps its monotonicity check.
            self.last_arrival = at;
            let ev = if full {
                // Shed exactly this arrival, unbuilt; the next one is
                // re-examined against the (possibly drained) backlog.
                RunEvent::Shed {
                    at,
                    reason: ShedReason::CapacityFull,
                }
            } else {
                self.source.build(arrival, &mut self.job);
                let job = &self.job;
                // Saturates: an arrival near the end of the clock gets the
                // latest deadline, and admission rejects the arrival itself.
                let deadline = job.deadline().map(|d| at.saturating_add(d));
                let accept = fan.gate.admit(&AdmitRequest {
                    job_id: engine.next_job_id(),
                    arrival: at,
                    deadline,
                    job,
                    now: engine.now(),
                    in_flight_jobs: engine.in_flight_jobs(),
                    in_flight_kernels: engine.in_flight_kernels(),
                    live_procs: engine.live_procs(),
                });
                if accept {
                    engine.admit_with_deadline(job.kernels(), job.edges(), at, deadline)?;
                    RunEvent::Admitted {
                        now: engine.now(),
                        in_flight: engine.in_flight_jobs(),
                    }
                } else {
                    RunEvent::Shed {
                        at,
                        reason: ShedReason::Gate,
                    }
                }
            };
            fan.emit(engine, &ev);
            self.pending = self.source.next_arrival();
        }
        Ok(())
    }
}

/// The α/ρ/backlog operating point sampled at a window close.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OperatingPoint {
    /// The policy's live α, when it has the knob.
    pub alpha: Option<f64>,
    /// The gate's live utilization bound ρ, when it has one.
    pub rho: Option<f64>,
    /// Jobs in flight.
    pub in_flight: usize,
    /// Kernels in flight (the queue depth).
    pub queued: usize,
}

/// One fact the driver states about a run, handed once to the fan-out.
#[derive(Clone, Copy)]
pub(crate) enum RunEvent<'e> {
    /// A job entered the engine at `now`, joining a backlog of `in_flight`
    /// jobs (itself included).
    Admitted { now: SimTime, in_flight: usize },
    /// An arrival at `at` never entered the system.
    Shed { at: SimTime, reason: ShedReason },
    /// A job left the system at `now`, leaving `in_flight` jobs behind:
    /// it ran to completion, or it exhausted its retry budget
    /// ([`CompletedJob::failed`]).
    Retired {
        job: &'e CompletedJob,
        now: SimTime,
        in_flight: usize,
    },
    /// A metrics window closed — the flushed tail window included — with
    /// the operating point at its close.
    WindowClosed {
        snapshot: &'e StreamSnapshot,
        point: OperatingPoint,
    },
    /// A controller action, applied or not.
    Control(ControlEvent),
    /// The run drained at `now`; `trace` is the armed sink, if any.
    End {
        now: SimTime,
        in_flight: usize,
        trace: Option<&'e dyn TraceSink>,
    },
}

/// A consumer of the driver's [`RunEvent`]s. Each event comes with the
/// run's [`OnlineMetrics`], already updated with it, so an observer reads
/// job totals there instead of counting them again. Observers never feed
/// back into the run, so arming one cannot change a schedule.
pub(crate) trait RunObserver {
    fn on_event(&mut self, ev: &RunEvent<'_>, metrics: &OnlineMetrics);
}

/// The per-job closure of [`StreamRun::observe`], as an observer.
struct PerJob<'r>(Box<dyn FnMut(&CompletedJob) + 'r>);

impl RunObserver for PerJob<'_> {
    fn on_event(&mut self, ev: &RunEvent<'_>, _metrics: &OnlineMetrics) {
        if let RunEvent::Retired { job, .. } = *ev {
            (self.0)(job);
        }
    }
}

/// The trace-sink adapter: the facts only the driver sees, onto the same
/// timeline the engine records into.
impl RunObserver for dyn TraceSink {
    fn on_event(&mut self, ev: &RunEvent<'_>, _metrics: &OnlineMetrics) {
        match *ev {
            RunEvent::Shed { at, reason } => self.record(TraceEvent::JobShed { at, reason }),
            RunEvent::Retired { job, now, .. } => {
                self.record(TraceEvent::JobRetired {
                    job: job.job.0,
                    at: now,
                    failed: job.failed,
                    missed_deadline: job.missed_deadline(),
                });
            }
            RunEvent::WindowClosed { snapshot, point } => {
                let at = snapshot.end;
                let mut counter =
                    |kind, value| self.record(TraceEvent::Counter { at, kind, value });
                counter(CounterKind::InFlightJobs, point.in_flight as f64);
                counter(CounterKind::QueueDepth, point.queued as f64);
                if let Some(a) = point.alpha {
                    counter(CounterKind::Alpha, a);
                }
                if let Some(r) = point.rho {
                    counter(CounterKind::Rho, r);
                }
                counter(CounterKind::WindowMissRate, snapshot.miss_rate());
            }
            RunEvent::Control(ControlEvent {
                at,
                action,
                applied,
            }) => {
                let (kind, value) = match action {
                    ControlAction::SetAlpha(a) => (ControlKind::Alpha, a),
                    ControlAction::SetAdmissionBound(b) => (ControlKind::AdmissionBound, b),
                    ControlAction::SwitchPolicy(m) => (ControlKind::SwitchPolicy, m as f64),
                };
                self.record(TraceEvent::Control {
                    at,
                    kind,
                    value,
                    applied,
                });
            }
            // The engine records admissions itself; the end is no instant.
            RunEvent::Admitted { .. } | RunEvent::End { .. } => {}
        }
    }
}

/// The one place a [`RunEvent`] goes: [`OnlineMetrics`] first, then the
/// gate's completion hook on retirements, then every armed observer, then
/// the engine's trace sink when one is armed.
struct Fanout<'a> {
    metrics: OnlineMetrics,
    gate: &'a mut dyn AdmissionGate,
    observers: Vec<&'a mut dyn RunObserver>,
}

impl Fanout<'_> {
    // Forced inline: every call site passes one known variant, so the
    // match folds away. Left out of line, this per-job call measurably
    // slows the `stream-single` benchmark workload.
    #[inline(always)]
    fn emit(&mut self, engine: &mut OpenEngine<'_>, ev: &RunEvent<'_>) {
        let m = &mut self.metrics;
        match *ev {
            RunEvent::Admitted { now, in_flight } => {
                m.observe_job_admitted();
                m.observe_depth(now, in_flight);
            }
            RunEvent::Shed { .. } => m.observe_job_shed(),
            RunEvent::Retired {
                job,
                now,
                in_flight,
            } => {
                // A failed job's gate still hears it, releasing its
                // reservation.
                m.observe_retired(job);
                m.observe_depth(now, in_flight);
                self.gate.on_complete(job);
            }
            RunEvent::WindowClosed { .. } | RunEvent::Control(_) | RunEvent::End { .. } => {}
        }
        notify(&mut self.observers, engine, ev, &self.metrics);
    }

    /// Close every metrics window that ended by now — or, with `tail`,
    /// flush the final partial window — and announce each one with the
    /// operating point at its close. Returns the new snapshots' indices.
    fn close_windows(
        &mut self,
        engine: &mut OpenEngine<'_>,
        alpha: Option<f64>,
        tail: bool,
    ) -> Range<usize> {
        // Zero on fault-free runs, so unconditional.
        let ft = engine.fault_totals();
        self.metrics
            .note_fault_counters(ft.kernel_failures, ft.retries, ft.wasted_ns, ft.down_ns);
        let before = self.metrics.snapshots().len();
        if tail {
            self.metrics
                .flush_partial(engine.now(), &engine.proc_stats());
        } else {
            self.metrics
                .maybe_snapshot(engine.now(), &engine.proc_stats());
        }
        let point = OperatingPoint {
            alpha,
            rho: self.gate.utilization_bound(),
            in_flight: engine.in_flight_jobs(),
            queued: engine.in_flight_kernels(),
        };
        let closed = before..self.metrics.snapshots().len();
        for snapshot in &self.metrics.snapshots()[closed.clone()] {
            let ev = RunEvent::WindowClosed { snapshot, point };
            notify(&mut self.observers, engine, &ev, &self.metrics);
        }
        closed
    }
}

/// Hand `ev` and the metrics it updated to every armed observer, the
/// engine's trace sink last.
#[inline(always)]
fn notify(
    observers: &mut [&mut dyn RunObserver],
    engine: &mut OpenEngine<'_>,
    ev: &RunEvent<'_>,
    metrics: &OnlineMetrics,
) {
    for o in observers.iter_mut() {
        o.on_event(ev, metrics);
    }
    if let Some(sink) = engine.tracer_mut() {
        sink.on_event(ev, metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFamily;
    use crate::source::PoissonSource;
    use apt_base::ProcId;
    use apt_dfg::NodeId;
    use apt_hetsim::{Assignment, AssignmentBuf, PolicyKind, SimView};

    /// Place each ready kernel on the first idle processor able to run it.
    struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
            for node in view.ready.iter() {
                for p in view.idle_procs() {
                    if view.exec_time(node, p.id).is_some() {
                        out.push(Assignment::new(node, p.id));
                        return;
                    }
                }
            }
        }
    }

    /// Never schedules anything.
    struct Lazy;
    impl Policy for Lazy {
        fn name(&self) -> String {
            "Lazy".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, _view: &SimView<'_>, _out: &mut AssignmentBuf) {}
    }

    fn paper() -> (&'static SystemConfig, &'static LookupTable) {
        use std::sync::OnceLock;
        static CFG: OnceLock<SystemConfig> = OnceLock::new();
        (
            CFG.get_or_init(SystemConfig::paper_4gbps),
            LookupTable::paper(),
        )
    }

    #[test]
    fn poisson_stream_runs_to_completion_with_bounded_arena() {
        let (config, lookup) = paper();
        // 0.2 jobs/s (5 s mean gap) under MET: well below saturation for
        // uniformly drawn kernels, so the backlog — and with it the arena —
        // stays small while 400 jobs stream through.
        let mut source = PoissonSource::new(lookup, 0.2, 400, JobFamily::Diamond { width: 2 }, 17);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(100_000)),
                max_in_flight_jobs: None,
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.jobs_admitted, 400);
        assert_eq!(outcome.jobs_completed, 400);
        assert_eq!(outcome.kernels_completed, 400 * 4);
        assert!(!outcome.saturated);
        assert!(outcome.end > SimTime::ZERO);
        assert!(outcome.throughput_jps > 0.0);
        assert!(outcome.mean_latency_ms > 0.0);
        assert!(outcome.latency_p99_ms >= outcome.latency_p50_ms);
        // Bounded memory: the arena tracks the in-flight peak, not 1600.
        assert_eq!(outcome.arena_slots, outcome.peak_in_flight_kernels);
        assert!(
            outcome.arena_slots < 400,
            "arena {} not bounded by in-flight jobs",
            outcome.arena_slots
        );
        assert!(!outcome.snapshots.is_empty());
        let last = outcome.snapshots.last().unwrap();
        assert!(last.total_jobs <= 400);
        // All work is accounted somewhere.
        assert_eq!(
            outcome.proc_stats.iter().map(|s| s.kernels).sum::<usize>(),
            1600
        );
        let u = outcome.utilization();
        assert!(u.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn observer_sees_every_job_in_completion_order() {
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 5.0, 60, JobFamily::Chain { len: 2 }, 5);
        let mut seen = Vec::new();
        let opts = DriverOpts::default();
        let (outcome, _) = StreamRun::new(&mut source, config, lookup, &mut FirstFit, &opts)
            .observe(|job| seen.push((job.job, job.finish())))
            .run()
            .unwrap();
        assert_eq!(seen.len(), 60);
        assert_eq!(outcome.jobs_completed, 60);
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        // Each job's records were renumbered to local ids.
        assert_eq!(outcome.kernels_completed, 120);
        let _ = ProcId::new(0);
        let _ = NodeId::new(0);
    }

    #[test]
    fn overload_guard_marks_saturation_and_drains() {
        let (config, lookup) = paper();
        // Absurd rate into a 3-proc machine with long kernels: backlog
        // explodes; the guard must trip and the run still drain cleanly.
        let mut source = PoissonSource::new(lookup, 2_000.0, 500, JobFamily::Single, 23);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts {
                snapshot_interval: None,
                max_in_flight_jobs: Some(32),
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert!(outcome.saturated);
        assert!(outcome.jobs_admitted < 500);
        assert_eq!(outcome.jobs_admitted, outcome.jobs_completed);
        assert!(outcome.peak_in_flight_jobs <= 33);
    }

    /// Regression + new-knob pin: the `max_in_flight_jobs` guard is a
    /// permanent latch by default (one burst past the cap ends admission
    /// for the rest of the stream), while `shed_when_full` sheds only the
    /// arrivals that land while the system is actually full and resumes
    /// admission once the backlog drains.
    #[test]
    fn overload_guard_latch_and_shed_modes_behave_as_documented() {
        let (config, lookup) = paper();
        let lookup_static: &'static LookupTable = lookup;
        let make_jobs = || {
            let mut rng = apt_dfg::SplitMix64::new(11);
            // 10 singles at t = 0 (two past the cap of 8), then one more an
            // hour later, long after the burst has drained.
            let mut jobs: Vec<(SimTime, crate::job::JobTemplate)> = (0..10)
                .map(|_| {
                    (
                        SimTime::ZERO,
                        JobFamily::Single.instantiate(&mut rng, lookup_static),
                    )
                })
                .collect();
            jobs.push((
                SimTime::from_ms(3_600_000),
                JobFamily::Single.instantiate(&mut rng, lookup_static),
            ));
            jobs
        };
        let run = |shed_when_full: bool| {
            let mut source = crate::source::TraceSource::new(make_jobs());
            simulate_source(
                &mut source,
                config,
                lookup,
                &mut FirstFit,
                &DriverOpts {
                    snapshot_interval: None,
                    max_in_flight_jobs: Some(8),
                    shed_when_full,
                    ..DriverOpts::default()
                },
            )
            .unwrap()
        };
        // Latch (default): the 9th arrival trips the guard, admission stops
        // permanently — even the hour-later job never enters.
        let latched = run(false);
        assert!(latched.saturated);
        assert_eq!(latched.jobs_admitted, 8);
        assert_eq!(latched.jobs_completed, 8);
        assert_eq!(latched.jobs_shed, 0, "the latch drops without counting");
        // Shed mode: only the two burst arrivals that found the system full
        // are shed; the hour-later job is admitted after the drain.
        let shedding = run(true);
        assert!(shedding.saturated, "the guard did fire");
        assert_eq!(shedding.jobs_shed, 2);
        assert_eq!(shedding.jobs_admitted, 9);
        assert_eq!(shedding.jobs_completed, 9);
        assert!(shedding.end >= SimTime::from_ms(3_600_000));
    }

    /// Regression: a stream completing entirely at t = 0 used to report
    /// ~1e308 jobs/s (`end.max(f64::MIN_POSITIVE)` as the denominator).
    /// Zero-duration runs now report zero throughput and utilization.
    #[test]
    fn zero_duration_runs_report_zero_throughput_and_utilization() {
        use apt_dfg::{Kernel, KernelKind};
        let config = SystemConfig::paper_4gbps();
        let mut table = LookupTable::from_rows([]);
        table.insert(apt_dfg::lookup::LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::ZERO; 3],
        });
        let job = crate::job::JobTemplate::new(vec![Kernel::new(KernelKind::Bfs, 10)], Vec::new())
            .unwrap();
        let mut source = crate::source::TraceSource::new(vec![(SimTime::ZERO, job)]);
        let outcome = simulate_source(
            &mut source,
            &config,
            &table,
            &mut FirstFit,
            &DriverOpts::default(),
        )
        .unwrap();
        assert_eq!(outcome.jobs_completed, 1);
        assert_eq!(outcome.end, SimTime::ZERO);
        assert_eq!(outcome.throughput_jps, 0.0, "no 1e308 jobs/s");
        assert!(outcome.utilization().iter().all(|&u| u == 0.0));
    }

    #[test]
    fn drainable_burst_does_not_trip_the_overload_latch() {
        // A burst exactly at the cap, then a lone job an hour later: while
        // the burst drains, the pending far-future arrival must not latch
        // saturation — the system is idle again by the time it arrives.
        let (config, lookup) = paper();
        let lookup_static: &'static LookupTable = lookup;
        let mut rng = apt_dfg::SplitMix64::new(3);
        let mut jobs: Vec<(SimTime, crate::job::JobTemplate)> = (0..8)
            .map(|_| {
                (
                    SimTime::ZERO,
                    crate::job::JobFamily::Single.instantiate(&mut rng, lookup_static),
                )
            })
            .collect();
        jobs.push((
            SimTime::from_ms(3_600_000),
            crate::job::JobFamily::Single.instantiate(&mut rng, lookup_static),
        ));
        let mut source = crate::source::TraceSource::new(jobs);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts {
                snapshot_interval: None,
                max_in_flight_jobs: Some(8),
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert!(!outcome.saturated, "drainable burst latched saturation");
        assert_eq!(outcome.jobs_completed, 9);
    }

    /// A disordered captured trace fails the run with a typed error (the
    /// offending pair named in nanoseconds), not a panic — and the jobs
    /// before the disorder are untouched by the failure path.
    #[test]
    fn disordered_trace_yields_typed_error_not_panic() {
        let (config, lookup) = paper();
        let mut rng = apt_dfg::SplitMix64::new(7);
        let jobs: Vec<(SimTime, crate::job::JobTemplate)> = [5u64, 9, 2]
            .iter()
            .map(|&ms| {
                (
                    SimTime::from_ms(ms),
                    JobFamily::Single.instantiate(&mut rng, lookup),
                )
            })
            .collect();
        let mut source = crate::source::TraceSource::new(jobs);
        let err = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts::default(),
        )
        .unwrap_err();
        match err {
            BaseError::DisorderedArrival { at_ns, prev_ns } => {
                assert_eq!(at_ns, SimTime::from_ms(2).as_ns());
                assert_eq!(prev_ns, SimTime::from_ms(9).as_ns());
            }
            other => panic!("expected DisorderedArrival, got {other:?}"),
        }
    }

    #[test]
    fn gate_sheds_jobs_and_hears_completions() {
        use crate::deadline::DeadlineSpec;
        // A gate admitting every other offered job: shed accounting, the
        // JobId alignment contract, and completion callbacks all pin here.
        struct EveryOther {
            offered: u64,
            accepted: u64,
            completions: Vec<apt_hetsim::JobId>,
        }
        impl AdmissionGate for EveryOther {
            fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
                assert!(req.now <= req.arrival, "jobs admitted just-in-time");
                // The advertised contract: the request carries the id the
                // job gets if admitted — sheds don't consume ids.
                assert_eq!(req.job_id.0, self.accepted, "job_id out of step");
                self.offered += 1;
                let accept = self.offered % 2 == 1;
                if accept {
                    self.accepted += 1;
                }
                accept
            }
            fn on_complete(&mut self, job: &CompletedJob) {
                self.completions.push(job.job);
            }
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 1.0, 40, JobFamily::Single, 11)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(10_000)));
        let mut gate = EveryOther {
            offered: 0,
            accepted: 0,
            completions: Vec::new(),
        };
        let outcome = simulate_source_gated(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts::default(),
            &mut gate,
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.jobs_admitted, 20);
        assert_eq!(outcome.jobs_shed, 20);
        assert_eq!(outcome.jobs_completed, 20);
        assert!((outcome.shed_rate() - 0.5).abs() < 1e-9);
        // Engine JobIds are 0..20, exactly the ids the requests advertised.
        let mut seen: Vec<u64> = gate.completions.iter().map(|j| j.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        // Every admitted job carried its (loose) deadline and met it.
        assert_eq!(outcome.deadline_jobs, 20);
        assert_eq!(outcome.deadline_misses, 0);
        assert_eq!(outcome.miss_rate(), 0.0);
        assert_eq!(outcome.tardiness_p99_ms, 0.0);
    }

    #[test]
    fn tight_deadlines_surface_as_misses_and_tardiness() {
        use crate::deadline::DeadlineSpec;
        let (config, lookup) = paper();
        // 1 µs relative deadlines: even the fastest table kernel (93 µs
        // Cholesky) is tardy.
        let mut source = PoissonSource::new(lookup, 0.2, 30, JobFamily::Single, 5)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_us(1)));
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(60_000)),
                max_in_flight_jobs: None,
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.deadline_jobs, 30);
        assert_eq!(outcome.deadline_misses, 30);
        assert_eq!(outcome.miss_rate(), 1.0);
        assert!(outcome.mean_tardiness_ms > 0.0);
        assert!(outcome.tardiness_p99_ms >= outcome.tardiness_p50_ms);
        // Snapshots carry the miss counts; the sum over windows equals the
        // run total.
        let windowed: u64 = outcome.snapshots.iter().map(|s| s.window_missed).sum();
        assert_eq!(windowed, outcome.snapshots.last().unwrap().total_missed);
        assert!(outcome.snapshots.last().unwrap().miss_rate() > 0.99);
    }

    /// Satellite pin: the driver flushes the final *partial* metrics
    /// window, so the tail of every run reaches window-driven consumers.
    /// A run ending exactly on a window boundary flushes nothing extra.
    #[test]
    fn final_partial_window_is_flushed_at_stream_end() {
        use apt_dfg::{Kernel, KernelKind};
        let config = SystemConfig::paper_no_transfers();
        let mut table = LookupTable::from_rows([]);
        table.insert(apt_dfg::lookup::LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::from_ms(100); 3],
        });
        let run = |interval_ms: u64| {
            let job =
                crate::job::JobTemplate::new(vec![Kernel::new(KernelKind::Bfs, 10)], Vec::new())
                    .unwrap();
            let mut source = crate::source::TraceSource::new(vec![(SimTime::ZERO, job)]);
            simulate_source(
                &mut source,
                &config,
                &table,
                &mut FirstFit,
                &DriverOpts {
                    snapshot_interval: Some(SimDuration::from_ms(interval_ms)),
                    ..DriverOpts::default()
                },
            )
            .unwrap()
        };
        // The single 100 ms job ends the run mid-window under an 80 ms
        // interval: one whole window plus a flushed 20 ms tail.
        let mid = run(80);
        assert_eq!(mid.end, SimTime::from_ms(100));
        assert_eq!(mid.snapshots.len(), 2, "whole window + flushed tail");
        let tail = mid.snapshots.last().unwrap();
        assert_eq!(tail.end, SimTime::from_ms(100));
        assert_eq!(tail.interval, SimDuration::from_ms(20));
        assert_eq!(
            mid.snapshots.iter().map(|s| s.window_jobs).sum::<u64>(),
            mid.jobs_completed
        );
        assert_eq!(
            mid.snapshots.iter().map(|s| s.window_admitted).sum::<u64>(),
            mid.jobs_admitted
        );
        // Ending exactly on the boundary: one window, no zero-span tail.
        let exact = run(100);
        assert_eq!(exact.end, SimTime::from_ms(100));
        assert_eq!(exact.snapshots.len(), 1, "no empty tail on a boundary");
        assert_eq!(exact.snapshots[0].interval, SimDuration::from_ms(100));
        assert_eq!(exact.snapshots[0].window_jobs, 1);
    }

    /// The controlled driver delivers every closed window to the
    /// controller and applies/logs its actions — including actions the
    /// run has no knob for, which are logged unapplied.
    #[test]
    fn controlled_run_applies_and_logs_actions() {
        use apt_control::{ControlAction, Controller};
        /// Emits one action of each kind on the first window, then rests.
        struct OneShot {
            fired: bool,
            windows_seen: u32,
        }
        impl Controller for OneShot {
            fn name(&self) -> String {
                "one-shot".into()
            }
            fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
                self.windows_seen += 1;
                if !self.fired {
                    self.fired = true;
                    out.push(ControlAction::SetAlpha(8.0));
                    out.push(ControlAction::SetAdmissionBound(0.5));
                    out.push(ControlAction::SwitchPolicy(1));
                }
            }
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 0.2, 120, JobFamily::Diamond { width: 2 }, 17);
        let mut policy = apt_core::Apt::new(4.0);
        let mut ctrl = OneShot {
            fired: false,
            windows_seen: 0,
        };
        let opts = DriverOpts {
            snapshot_interval: Some(SimDuration::from_ms(60_000)),
            ..DriverOpts::default()
        };
        let (outcome, _) = StreamRun::new(&mut source, config, lookup, &mut policy, &opts)
            .controller(&mut ctrl)
            .run()
            .unwrap();
        assert_eq!(outcome.jobs_completed, 120);
        assert!(ctrl.windows_seen > 0, "the controller never saw a window");
        // The flushed tail window is not delivered: closed windows only.
        let tail_flushed =
            outcome.snapshots.last().unwrap().interval != SimDuration::from_ms(60_000);
        assert_eq!(
            ctrl.windows_seen as usize,
            outcome.snapshots.len() - usize::from(tail_flushed),
            "the controller must see exactly the closed windows"
        );
        assert_eq!(outcome.control_log.len(), 3);
        let log = &outcome.control_log;
        // α retunes on an APT policy; the other two knobs don't exist
        // here (AdmitAll, leaf policy) and are logged unapplied.
        assert_eq!(log[0].action, ControlAction::SetAlpha(8.0));
        assert!(log[0].applied);
        assert_eq!(log[1].action, ControlAction::SetAdmissionBound(0.5));
        assert!(!log[1].applied);
        assert_eq!(log[2].action, ControlAction::SwitchPolicy(1));
        assert!(!log[2].applied);
        assert!(log.iter().all(|e| e.at > SimTime::ZERO));
        // The α write actually landed on the policy.
        assert_eq!(Policy::alpha(&policy), Some(8.0));
    }

    /// Windows are the controller's clock: a controlled run without a
    /// snapshot interval is a typed error, not a silently inert loop.
    #[test]
    fn controlled_run_requires_a_snapshot_interval() {
        use apt_control::InertController;
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 1.0, 3, JobFamily::Single, 1);
        let opts = DriverOpts::default();
        let mut policy = apt_policies::Met::new();
        let Err(err) = StreamRun::new(&mut source, config, lookup, &mut policy, &opts)
            .controller(&mut InertController)
            .run()
        else {
            panic!("a controlled run without windows must fail");
        };
        assert!(matches!(err, BaseError::InvalidSystem { .. }));
    }

    /// A zero snapshot interval is a typed error at the one validation
    /// boundary, not a panic inside the metrics aggregator.
    #[test]
    fn zero_snapshot_interval_is_a_typed_error() {
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 1.0, 3, JobFamily::Single, 1);
        let err = simulate_source(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::ZERO),
                ..DriverOpts::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::InvalidSystem { .. }), "{err:?}");
    }

    #[test]
    fn starving_policy_reports_starvation() {
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 10.0, 3, JobFamily::Single, 1);
        let err = simulate_source(
            &mut source,
            config,
            lookup,
            &mut Lazy,
            &DriverOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::Starvation { .. }));
    }

    #[test]
    fn static_policies_are_rejected_by_the_driver() {
        struct FakeStatic;
        impl Policy for FakeStatic {
            fn name(&self) -> String {
                "FakeStatic".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Static
            }
            fn decide(&mut self, _v: &SimView<'_>, _o: &mut AssignmentBuf) {}
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 10.0, 3, JobFamily::Single, 1);
        assert!(simulate_source(
            &mut source,
            config,
            lookup,
            &mut FakeStatic,
            &DriverOpts::default()
        )
        .is_err());
    }
}
