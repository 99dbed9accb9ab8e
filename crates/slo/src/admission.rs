//! Admission control: decide per arriving job whether it enters the
//! system, so overload sheds work instead of queueing without bound.
//!
//! See the crate docs for the model. All gates are deterministic and keep
//! O(in-flight) state; the driver tells every [`AdmitRequest`] the
//! [`apt_hetsim::JobId`] its job receives if admitted, so gates key
//! per-job reservations on the id the [`CompletedJob`] will later carry —
//! no parallel id sequence to keep in lockstep.

use apt_dfg::LookupTable;
use apt_hetsim::{CompletedJob, SystemConfig};
use apt_stream::{AdmissionGate, AdmitRequest, JobTemplate};
use std::collections::BTreeMap;

/// A named admission gate: the driver-facing decision/feedback hooks come
/// from the `apt_stream::AdmissionGate` supertrait (`admit` /
/// `on_complete`); this layer only adds the display name result tables
/// print. Any `AdmissionPolicy` plugs straight into the driver's admit
/// path by upcast (`apt_stream::simulate_source_gated`).
pub trait AdmissionPolicy: AdmissionGate {
    /// Display name, including parameters (e.g. `"util(ρ≤1)"`).
    fn name(&self) -> String;
}

/// Admit everything — the open-system baseline every gated row is
/// compared against (the driver's own pass-through gate, named).
pub use apt_stream::AdmitAll as AcceptAll;

impl AdmissionPolicy for AcceptAll {
    fn name(&self) -> String {
        "accept-all".into()
    }
}

/// Total minimum work of a job: the sum over its kernels of the
/// table-minimum execution time (what an ideally parallel machine must
/// spend on it, transfer-free). `None` when any kernel has no lookup-table
/// row: such a kernel cannot run on *any* processor, so the job can never
/// complete — pricing it at zero would let it through every budget gate
/// for free (and then wedge the machine). Gates reject these jobs.
fn min_work_ns(job: &JobTemplate, lookup: &LookupTable) -> Option<u64> {
    job.kernels()
        .iter()
        .map(|k| lookup.best_category(k).map(|(_, t)| t.as_ns()).ok())
        .sum()
}

/// The density (utilization-bound) test: a deadline-carrying job demands
/// density `work / D` of the machine for its deadline window; admit while
/// `Σ densities + new ≤ bound × m`. Deadline-free jobs have density 0 and
/// always pass — this gate bounds *SLO* load, not raw load.
#[derive(Debug)]
pub struct UtilizationBound<'a> {
    lookup: &'a LookupTable,
    nprocs: usize,
    bound: f64,
    /// Density reserved per admitted in-flight job, keyed by its engine
    /// `JobId` (from [`AdmitRequest::job_id`]).
    reserved: BTreeMap<u64, f64>,
    load: f64,
}

impl<'a> UtilizationBound<'a> {
    /// A gate admitting while total density stays within
    /// `bound × processors`. `bound = 1.0` is the EDF-style full-machine
    /// budget; lower is more conservative. Panics on a non-positive bound.
    pub fn new(lookup: &'a LookupTable, config: &SystemConfig, bound: f64) -> Self {
        assert!(
            bound > 0.0 && bound.is_finite(),
            "utilization bound must be positive, got {bound}"
        );
        UtilizationBound {
            lookup,
            nprocs: config.len(),
            bound,
            reserved: BTreeMap::new(),
            load: 0.0,
        }
    }

    /// Density currently reserved by in-flight jobs.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// The current bound ρ (the budget is `ρ × live processors`).
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// Floor of the runtime-settable ρ: a controller can choke admission down
/// to a trickle but never wedge the gate fully shut.
pub const MIN_RUNTIME_BOUND: f64 = 1e-3;
/// Ceiling of the runtime-settable ρ: far past saturation for any real
/// machine, so "effectively open" is reachable without risking an
/// unbounded budget.
pub const MAX_RUNTIME_BOUND: f64 = 64.0;

impl AdmissionGate for UtilizationBound<'_> {
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
        // A job containing a kernel with no table coverage can never
        // complete; it used to be priced at zero work and sail through the
        // density test for free. Reject it outright.
        let Some(work) = min_work_ns(req.job, self.lookup) else {
            return false;
        };
        let density = match req.deadline {
            None => 0.0,
            Some(deadline) => {
                let window = deadline.saturating_since(req.arrival).as_ns().max(1);
                work as f64 / window as f64
            }
        };
        // The machine the budget is drawn against is the *live* one: under
        // an armed fault plan crashed processors are masked out of
        // `req.live_procs`, so admission tightens while capacity is down
        // (and deadline-carrying jobs are shed outright at zero capacity).
        // Deadline-free jobs are density-0 and always pass — this gate
        // bounds SLO load, and standing reservations may legitimately
        // exceed a freshly shrunken budget.
        if density > 0.0 {
            let capacity = req.live_procs.min(self.nprocs);
            if self.load + density > self.bound * capacity as f64 {
                return false;
            }
        }
        self.reserved.insert(req.job_id.0, density);
        self.load += density;
        true
    }

    fn on_complete(&mut self, job: &CompletedJob) {
        if let Some(density) = self.reserved.remove(&job.job.0) {
            self.load -= density;
            // Running subtraction drift is bounded by f64 epsilon per job;
            // clamp so an idle system always reads exactly zero load.
            if self.reserved.is_empty() {
                self.load = 0.0;
            }
        }
    }

    /// Runtime retuning of ρ, clamped to
    /// [[`MIN_RUNTIME_BOUND`], [`MAX_RUNTIME_BOUND`]] so a runaway
    /// controller can neither wedge admission shut nor unbound the
    /// budget. Standing reservations are untouched — a tightened bound
    /// applies to the *next* admission decision, not retroactively.
    fn set_utilization_bound(&mut self, bound: f64) -> bool {
        if !bound.is_finite() {
            return false;
        }
        self.bound = bound.clamp(MIN_RUNTIME_BOUND, MAX_RUNTIME_BOUND);
        true
    }

    fn utilization_bound(&self) -> Option<f64> {
        Some(self.bound)
    }
}

impl AdmissionPolicy for UtilizationBound<'_> {
    fn name(&self) -> String {
        format!("util(ρ≤{})", self.bound)
    }
}

/// The feasibility-estimate gate: admit only jobs that still have a
/// plausible shot at their deadline. The estimate charges the job the
/// current in-flight backlog spread over the machine plus its own
/// critical path:
///
/// ```text
/// admit ⇔ D is none  ∨  backlog/m + cp_min(job) ≤ D
/// ```
///
/// Pessimistic about parallel slack but optimistic about heterogeneity
/// (everything at table-minimum speed); the sweep shows it shedding the
/// hopeless tail under overload while accept-all drags every job tardy.
#[derive(Debug)]
pub struct FeasibilityGate<'a> {
    lookup: &'a LookupTable,
    nprocs: usize,
    /// Minimum work reserved per in-flight job, keyed by its engine
    /// `JobId` (from [`AdmitRequest::job_id`]).
    reserved: BTreeMap<u64, u64>,
    backlog_ns: u64,
}

impl<'a> FeasibilityGate<'a> {
    /// A gate over `config`'s machine using `lookup`'s minimum times.
    pub fn new(lookup: &'a LookupTable, config: &SystemConfig) -> Self {
        FeasibilityGate {
            lookup,
            nprocs: config.len().max(1),
            reserved: BTreeMap::new(),
            backlog_ns: 0,
        }
    }

    /// In-flight minimum work the gate currently accounts, ns.
    pub fn backlog_ns(&self) -> u64 {
        self.backlog_ns
    }
}

impl AdmissionGate for FeasibilityGate<'_> {
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
        // Same coverage rule as the density gate: a job with an uncovered
        // kernel can never finish, so no estimate makes it feasible.
        let Some(work) = min_work_ns(req.job, self.lookup) else {
            return false;
        };
        if let Some(deadline) = req.deadline {
            // Feasibility is judged against the processors actually up: a
            // crashed machine (zero live processors) makes every deadline
            // infeasible, and a degraded one spreads the backlog across
            // fewer survivors.
            let live = req.live_procs.min(self.nprocs);
            if live == 0 {
                return false;
            }
            let window = deadline.saturating_since(req.arrival).as_ns();
            let estimate =
                self.backlog_ns / live as u64 + req.job.critical_path_min(self.lookup).as_ns();
            if estimate > window {
                return false;
            }
        }
        self.reserved.insert(req.job_id.0, work);
        self.backlog_ns += work;
        true
    }

    fn on_complete(&mut self, job: &CompletedJob) {
        if let Some(work) = self.reserved.remove(&job.job.0) {
            self.backlog_ns -= work;
        }
    }
}

impl AdmissionPolicy for FeasibilityGate<'_> {
    fn name(&self) -> String {
        "feasible".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{SimDuration, SimTime};
    use apt_dfg::SplitMix64;
    use apt_stream::JobFamily;

    fn job(seed: u64) -> JobTemplate {
        JobFamily::Diamond { width: 2 }
            .instantiate(&mut SplitMix64::new(seed), LookupTable::paper())
    }

    /// A request carrying the id the engine would assign on acceptance —
    /// in the real driver this comes from `OpenEngine::next_job_id`, so a
    /// shed request's id is re-offered to the next arrival.
    fn request<'a>(
        id: u64,
        job: &'a JobTemplate,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> AdmitRequest<'a> {
        AdmitRequest {
            job_id: apt_hetsim::JobId(id),
            arrival,
            deadline,
            job,
            now: arrival,
            in_flight_jobs: 0,
            in_flight_kernels: 0,
            live_procs: 3,
        }
    }

    fn completed(id: u64) -> CompletedJob {
        CompletedJob {
            job: apt_hetsim::JobId(id),
            arrival: SimTime::ZERO,
            deadline: None,
            records: Vec::new(),
            failed: false,
        }
    }

    #[test]
    fn accept_all_accepts_everything() {
        let mut gate = AcceptAll;
        assert_eq!(gate.name(), "accept-all");
        let j = job(1);
        for i in 0..100 {
            assert!(gate.admit(&request(i, &j, SimTime::from_ms(i), None)));
        }
    }

    #[test]
    fn utilization_bound_reserves_and_releases_density() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        let j = job(2);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        // A deadline window equal to the job's min work is density 1.0;
        // the 3-processor budget fits three of them.
        let deadline = |at: SimTime| Some(at + SimDuration::from_ns(work));
        let at = SimTime::ZERO;
        assert!(gate.admit(&request(0, &j, at, deadline(at))));
        assert!(gate.admit(&request(1, &j, at, deadline(at))));
        assert!(gate.admit(&request(2, &j, at, deadline(at))));
        assert!((gate.load() - 3.0).abs() < 1e-9);
        // The fourth exceeds bound × m = 3 and is shed; its id 3 is then
        // re-offered to the next arrival, as the driver would.
        assert!(!gate.admit(&request(3, &j, at, deadline(at))));
        // Deadline-free jobs are density-0 and always pass.
        assert!(gate.admit(&request(3, &j, at, None)));
        // Releasing one admitted job frees its density.
        gate.on_complete(&completed(0));
        assert!(gate.admit(&request(4, &j, at, deadline(at))));
        // Completion of an unknown id (never reserved) is ignored.
        gate.on_complete(&completed(99));
        // Draining everything returns load to exactly zero.
        for id in [1, 2, 3, 4] {
            gate.on_complete(&completed(id));
        }
        assert_eq!(gate.load(), 0.0);
    }

    #[test]
    fn utilization_bound_is_runtime_tunable_within_clamps() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        assert_eq!(gate.utilization_bound(), Some(1.0));
        let j = job(2);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        let at = SimTime::ZERO;
        let deadline = Some(at + SimDuration::from_ns(work));
        // Tighten to a trickle: a density-1 job no longer fits.
        assert!(gate.set_utilization_bound(0.1));
        assert_eq!(gate.bound(), 0.1);
        assert!(!gate.admit(&request(0, &j, at, deadline)));
        // Reopen: the same request passes.
        assert!(gate.set_utilization_bound(1.0));
        assert!(gate.admit(&request(0, &j, at, deadline)));
        // Standing reservations survive a retune (next decision only).
        assert!(gate.set_utilization_bound(0.1));
        assert!((gate.load() - 1.0).abs() < 1e-9);
        // The clamps hold against runaway controllers; non-finite
        // requests are refused outright.
        assert!(gate.set_utilization_bound(0.0));
        assert_eq!(gate.bound(), MIN_RUNTIME_BOUND);
        assert!(gate.set_utilization_bound(1e12));
        assert_eq!(gate.bound(), MAX_RUNTIME_BOUND);
        assert!(!gate.set_utilization_bound(f64::NAN));
        assert!(!gate.set_utilization_bound(f64::INFINITY));
        assert_eq!(gate.bound(), MAX_RUNTIME_BOUND);
        // Gates without the knob keep the defaults.
        let mut open = AcceptAll;
        assert!(!open.set_utilization_bound(0.5));
        assert_eq!(open.utilization_bound(), None);
    }

    #[test]
    fn feasibility_gate_sheds_once_the_backlog_swamps_the_window() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = FeasibilityGate::new(lookup, &config);
        let j = job(3);
        let cp = j.critical_path_min(lookup);
        // Window exactly the critical path: feasible on an empty machine.
        let at = SimTime::ZERO;
        assert!(gate.admit(&request(0, &j, at, Some(at + cp))));
        assert!(gate.backlog_ns() > 0);
        // Pile on deadline-free work until backlog/m dwarfs the window,
        // then the same tight request is shed.
        for id in 1..=50 {
            assert!(gate.admit(&request(id, &j, at, None)));
        }
        assert!(!gate.admit(&request(51, &j, at, Some(at + cp))));
        // A generous window still passes.
        assert!(gate.admit(&request(
            51,
            &j,
            at,
            Some(at + SimDuration::from_ms(10_000_000))
        )));
        // Retiring jobs shrinks the backlog again.
        let before = gate.backlog_ns();
        gate.on_complete(&completed(0));
        assert!(gate.backlog_ns() < before);
    }

    /// Regression: a job containing a kernel with no lookup-table row used
    /// to be priced at zero work (`unwrap_or(0)`), so it passed the
    /// density gate for free despite being unable to ever complete. Both
    /// budget gates must reject it — deadline or not.
    #[test]
    fn uncovered_jobs_are_rejected_not_priced_at_zero() {
        use apt_dfg::{Kernel, KernelKind};
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        // MatMul at this size has no table row anywhere.
        let ghost =
            JobTemplate::new(vec![Kernel::new(KernelKind::MatMul, 123)], Vec::new()).unwrap();
        assert_eq!(min_work_ns(&ghost, lookup), None);
        // A covered kernel alongside an uncovered one still poisons the job.
        let mixed = JobTemplate::new(
            vec![
                Kernel::canonical(KernelKind::Bfs),
                Kernel::new(KernelKind::MatMul, 123),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        assert_eq!(min_work_ns(&mixed, lookup), None);

        let mut util = UtilizationBound::new(lookup, &config, 1.0);
        let at = SimTime::ZERO;
        let loose = Some(at + SimDuration::from_ms(1_000_000));
        for job in [&ghost, &mixed] {
            assert!(!util.admit(&request(0, job, at, loose)), "with deadline");
            assert!(!util.admit(&request(0, job, at, None)), "without deadline");
        }
        assert_eq!(util.load(), 0.0, "rejections reserve nothing");

        let mut feas = FeasibilityGate::new(lookup, &config);
        for job in [&ghost, &mixed] {
            assert!(!feas.admit(&request(0, job, at, loose)));
            assert!(!feas.admit(&request(0, job, at, None)));
        }
        assert_eq!(feas.backlog_ns(), 0, "rejections reserve nothing");

        // Covered jobs still pass exactly as before.
        let ok = job(9);
        assert!(util.admit(&request(1, &ok, at, None)));
        assert!(feas.admit(&request(1, &ok, at, loose)));
    }

    /// Under an armed fault plan `live_procs` shrinks with crashes; both
    /// gates must budget against the surviving capacity, and a fully
    /// crashed machine must shed every deadline-carrying job.
    #[test]
    fn gates_tighten_with_lost_capacity() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let j = job(7);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        let at = SimTime::ZERO;
        let deadline = Some(at + SimDuration::from_ns(work)); // density 1.0
        let degraded = |id: u64, live: usize, deadline| AdmitRequest {
            live_procs: live,
            ..request(id, &j, at, deadline)
        };
        // Utilization: a 3-proc machine fits three density-1 jobs; with one
        // processor down only two fit, and at zero capacity none do.
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        assert!(gate.admit(&degraded(0, 2, deadline)));
        assert!(gate.admit(&degraded(1, 2, deadline)));
        assert!(!gate.admit(&degraded(2, 2, deadline)), "2-proc budget full");
        assert!(gate.admit(&degraded(2, 3, deadline)), "repair restores it");
        assert!(!gate.admit(&degraded(3, 0, deadline)), "no capacity at all");
        // Deadline-free jobs are density-0 and pass regardless.
        assert!(gate.admit(&degraded(3, 0, None)));
        // Feasibility: backlog spread over fewer survivors pushes the same
        // tight window over its deadline; zero survivors reject outright.
        let cp = j.critical_path_min(lookup);
        let mut feas = FeasibilityGate::new(lookup, &config);
        for id in 0..6 {
            assert!(feas.admit(&degraded(id, 3, None)));
        }
        let backlog = feas.backlog_ns();
        let window = SimDuration::from_ns(backlog / 3 + cp.as_ns());
        assert!(feas.admit(&degraded(6, 3, Some(at + window))));
        let tighter = SimDuration::from_ns(feas.backlog_ns() / 3 + cp.as_ns());
        assert!(
            !feas.admit(&degraded(7, 1, Some(at + tighter))),
            "one survivor carries triple the backlog"
        );
        assert!(!feas.admit(&degraded(7, 0, Some(at + tighter))));
        assert!(feas.admit(&degraded(7, 0, None)), "deadline-free still ok");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_bound_is_rejected() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let _ = UtilizationBound::new(lookup, &config, 0.0);
    }
}
