//! The three workloads, each chosen so that a different layer does most of
//! the work. Simulated arrivals are an open Poisson process drawn by the
//! seeded `Source`; on the host side each repetition is a batch of fixed
//! size, regenerated identically from the workload seed every time.
//!
//! * `stream-single` — the north-star million-job stream: single-kernel
//!   jobs, so per-job driver cost dominates and the scheduler is nearly
//!   bypassed (the ready set averages under one kernel).
//! * `stream-backlog` — the overload cell of every λ-sweep: Type-2 DAG jobs
//!   at ~4× what the machine sustains, held at a fixed backlog by the
//!   in-flight cap, so `policy.decide` scans ~800 ready kernels per call.
//! * `closed-grid` — the paper's closed-world evaluation: it bypasses the
//!   open driver entirely and is the only workload running the static
//!   planners (HEFT, PEFT), so a driver-only change must not move it.

use crate::check::{closed_digest, Digest, StreamTotals};
use crate::replica;
use crate::tracer::{self, Layer, TracedPolicy, Tracer};
use apt_base::{BaseError, SimDuration};
use apt_core::{all_policy_factories, Apt, EdfApt, PolicyFactory};
use apt_dfg::generator::{generate, DfgType, StreamConfig, EXPERIMENT_KERNEL_COUNTS};
use apt_dfg::{LookupTable, SplitMix64};
use apt_hetsim::{simulate, Policy, ReadyOrder, SystemConfig};
use apt_slo::UtilizationBound;
use apt_stream::{
    simulate_source_gated, AdmissionGate, AdmitAll, DeadlineSpec, DriverOpts, JobFamily,
    PoissonSource, Source,
};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// APT's threshold everywhere (the paper's `threshold_brk`).
const ALPHA: f64 = 4.0;
/// `stream-single`: arrival rate (jobs per simulated second) and jobs per
/// repetition.
const SINGLE_RATE: f64 = 0.5;
const SINGLE_JOBS: u64 = 50_000;
/// `stream-backlog`: arrival rate, kernels per Type-2 job, arrivals per
/// repetition, in-flight job cap (shed mode), deadline tightness, admission
/// bound ρ and metrics window.
const BACKLOG_RATE: f64 = 0.2;
const BACKLOG_KERNELS: usize = 24;
const BACKLOG_JOBS: u64 = 2_000;
const BACKLOG_CAP: usize = 128;
const BACKLOG_TIGHTNESS: f64 = 4.0;
/// ρ sits at the gate's ceiling so that the cap, not the density test, sets
/// the depth (~3k in-flight kernels, ~800 ready). At ρ = 1 the gate holds
/// only 2–3 of these jobs in flight, the ready set averages ~19 kernels and
/// the workload stops stressing `policy.decide`. The gate's full admit path
/// (min-work pricing, reservation map) still runs for every arrival the cap
/// lets through.
const BACKLOG_RHO: f64 = apt_slo::MAX_RUNTIME_BOUND;
const BACKLOG_WINDOW_MS: u64 = 60_000;
/// `closed-grid`: fresh-seed copies of the 2 × 10 paper graphs per
/// repetition; each graph runs all 7 policies on both link rates.
const GRID_COPIES: usize = 4;
const GRID_POLICIES: usize = 7;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-kernel Poisson jobs through `AdmitAll`.
    StreamSingle,
    /// Deadline-tagged Type-2 jobs under EDF-APT behind a gate and a cap.
    StreamBacklog,
    /// The closed paper grid through `simulate`.
    ClosedGrid,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::StreamSingle, Kind::StreamBacklog, Kind::ClosedGrid]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamSingle => "stream-single",
            Kind::StreamBacklog => "stream-backlog",
            Kind::ClosedGrid => "closed-grid",
        }
    }

    /// The digest of one repetition at [`crate::DEFAULT_SEED`], recorded
    /// when the benchmark was defined.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Kind::StreamSingle => 0xe380_d143_a325_ef13,
            Kind::StreamBacklog => 0x6e25_af39_1e8f_b978,
            Kind::ClosedGrid => 0xa107_32e6_aa15_540b,
        }
    }

    /// What a unit of `jobs_per_s` is.
    pub fn unit_label(self) -> &'static str {
        match self {
            Kind::StreamSingle => "jobs retired",
            Kind::StreamBacklog => "arrivals consumed (admitted or shed)",
            Kind::ClosedGrid => "DAG simulations finished",
        }
    }
}

/// One repetition's measurement and outputs.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time of the measured call(s).
    pub wall: Duration,
    /// Units of work done (see [`Kind::unit_label`]).
    pub units: u64,
    /// One schedule digest per simulation (0 for a run that failed).
    pub keys: Vec<u64>,
    /// Simulations that returned an error or broke a conservation law.
    pub errors: u64,
}

impl Rep {
    fn stream(wall: Duration, units: u64, totals: &StreamTotals, conserved: bool) -> Rep {
        Rep {
            wall,
            units,
            keys: vec![totals.digest()],
            errors: u64::from(!conserved),
        }
    }

    /// All per-simulation digests folded into one.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &k in &self.keys {
            d.push(k);
        }
        d.value()
    }
}

/// A workload with its inputs generated from the seed.
pub struct Workload {
    kind: Kind,
    seed: u64,
    config4: SystemConfig,
    config8: SystemConfig,
    lookup: &'static LookupTable,
    /// `closed-grid` inputs: (family, kernel count, generator seed).
    grid: Vec<(DfgType, usize, u64)>,
    factories: Vec<(String, PolicyFactory)>,
}

impl Workload {
    /// Build the inputs for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = SplitMix64::new(seed);
        let mut grid = Vec::new();
        if kind == Kind::ClosedGrid {
            for _ in 0..GRID_COPIES {
                for ty in DfgType::ALL {
                    for n in EXPERIMENT_KERNEL_COUNTS {
                        grid.push((ty, n, rng.next_u64()));
                    }
                }
            }
        }
        Workload {
            kind,
            seed,
            config4: SystemConfig::paper_4gbps(),
            config8: SystemConfig::paper_8gbps(),
            lookup: LookupTable::paper(),
            grid,
            factories: all_policy_factories(ALPHA),
        }
    }

    /// One untimed, quarter-size repetition, the last step of set-up.
    pub fn warm_up(&self) -> Result<Rep, BaseError> {
        self.run(Size::WarmUp, None)
    }

    /// One bare, timed repetition.
    pub fn bare(&self) -> Result<Rep, BaseError> {
        self.run(Size::Full, None)
    }

    /// One traced repetition: the same inputs, with every layer call
    /// wrapped in a span. Stream workloads go through [`replica`].
    pub fn traced(&self, tracer: &RefCell<Tracer>) -> Result<Rep, BaseError> {
        self.run(Size::Full, Some(tracer))
    }

    /// Post-run validation beyond digests: on `closed-grid`, every
    /// schedule of the first graph copy passes `Trace::validate`
    /// (precedence, processor exclusivity, transfers).
    pub fn validate_schedules(&self) -> Result<(), BaseError> {
        if self.kind != Kind::ClosedGrid {
            return Ok(());
        }
        for &(ty, n, seed) in &self.grid[..DfgType::ALL.len() * EXPERIMENT_KERNEL_COUNTS.len()] {
            let dag = generate(ty, &StreamConfig::new(n, seed), self.lookup);
            for config in [&self.config4, &self.config8] {
                for (_, make) in &self.factories {
                    let res = simulate(&dag, config, self.lookup, make().as_mut())?;
                    res.trace.validate(&dag)?;
                }
            }
        }
        Ok(())
    }

    fn run(&self, size: Size, tracer: Option<&RefCell<Tracer>>) -> Result<Rep, BaseError> {
        match self.kind {
            Kind::StreamSingle => {
                let jobs = size.scale(SINGLE_JOBS);
                let source = PoissonSource::new(
                    self.lookup,
                    SINGLE_RATE,
                    jobs,
                    JobFamily::Single,
                    self.seed,
                );
                let mut policy = Apt::new(ALPHA);
                let (wall, totals) = self.stream(
                    source,
                    &mut policy,
                    &DriverOpts::default(),
                    &mut AdmitAll,
                    tracer,
                )?;
                let ok = totals.conserves(jobs, 1);
                Ok(Rep::stream(wall, totals.completed, &totals, ok))
            }
            Kind::StreamBacklog => {
                let jobs = size.scale(BACKLOG_JOBS);
                let source = PoissonSource::new(
                    self.lookup,
                    BACKLOG_RATE,
                    jobs,
                    JobFamily::Type2 {
                        len: BACKLOG_KERNELS,
                    },
                    self.seed,
                )
                .with_deadlines(DeadlineSpec::ProportionalCp {
                    factor: BACKLOG_TIGHTNESS,
                });
                let opts = DriverOpts {
                    snapshot_interval: Some(SimDuration::from_ms(BACKLOG_WINDOW_MS)),
                    max_in_flight_jobs: Some(BACKLOG_CAP),
                    shed_when_full: true,
                    ready_order: ReadyOrder::EarliestDeadline,
                    ..DriverOpts::default()
                };
                let mut gate = UtilizationBound::new(self.lookup, &self.config4, BACKLOG_RHO);
                let mut policy = EdfApt::new(ALPHA);
                let (wall, totals) = self.stream(source, &mut policy, &opts, &mut gate, tracer)?;
                let ok = totals.conserves(jobs, BACKLOG_KERNELS as u64);
                Ok(Rep::stream(wall, jobs, &totals, ok))
            }
            Kind::ClosedGrid => {
                let copies = size.scale(GRID_COPIES as u64) as usize;
                let per_copy = DfgType::ALL.len() * EXPERIMENT_KERNEL_COUNTS.len();
                Ok(self.grid(&self.grid[..copies * per_copy], tracer))
            }
        }
    }

    /// Time one streaming run, bare through the library driver or traced
    /// through the replica.
    fn stream(
        &self,
        mut source: PoissonSource<'_>,
        policy: &mut dyn Policy,
        opts: &DriverOpts,
        gate: &mut dyn AdmissionGate,
        tracer: Option<&RefCell<Tracer>>,
    ) -> Result<(Duration, StreamTotals), BaseError> {
        let source: &mut dyn Source = &mut source;
        let config = &self.config4;
        match tracer {
            None => {
                let t = Instant::now();
                let out =
                    simulate_source_gated(source, config, self.lookup, policy, opts, gate, |_| {});
                let wall = t.elapsed();
                Ok((wall, StreamTotals::of(&out?)))
            }
            Some(tr) => {
                tr.borrow_mut().begin_rep();
                let out =
                    replica::simulate_traced(source, config, self.lookup, policy, opts, gate, tr);
                let wall = tr.borrow_mut().end_rep();
                Ok((Duration::from_nanos(wall), out?))
            }
        }
    }

    /// Time one pass over `inputs`: generate each graph, then simulate it
    /// under every policy on both link rates.
    fn grid(&self, inputs: &[(DfgType, usize, u64)], tracer: Option<&RefCell<Tracer>>) -> Rep {
        let span = |layer: Layer| {
            if let Some(t) = tracer {
                tracer::enter(t, layer);
            }
        };
        let done_span = || {
            if let Some(t) = tracer {
                tracer::exit(t);
            }
        };
        let mut keys = Vec::with_capacity(inputs.len() * 2 * GRID_POLICIES);
        let mut errors = 0;
        if let Some(t) = tracer {
            t.borrow_mut().begin_rep();
        }
        let start = Instant::now();
        for &(ty, n, seed) in inputs {
            span(Layer::DfgGenerate);
            let dag = generate(ty, &StreamConfig::new(n, seed), self.lookup);
            done_span();
            for config in [&self.config4, &self.config8] {
                for (_, make) in &self.factories {
                    let mut policy = make();
                    let res = match tracer {
                        None => simulate(&dag, config, self.lookup, policy.as_mut()),
                        Some(tr) => {
                            let mut traced = TracedPolicy {
                                inner: policy.as_mut(),
                                tracer: tr,
                            };
                            span(Layer::EngineSimulate);
                            let res = simulate(&dag, config, self.lookup, &mut traced);
                            done_span();
                            res
                        }
                    };
                    match res {
                        Ok(res) => keys.push(closed_digest(&res)),
                        Err(_) => {
                            errors += 1;
                            keys.push(0);
                        }
                    }
                }
            }
        }
        let wall = match tracer {
            None => start.elapsed(),
            Some(t) => Duration::from_nanos(t.borrow_mut().end_rep()),
        };
        Rep {
            wall,
            units: keys.len() as u64 - errors,
            keys,
            errors,
        }
    }
}

/// Repetition size: the measured batch, or the quarter-size warm-up run
/// during set-up.
#[derive(Debug, Clone, Copy)]
enum Size {
    Full,
    WarmUp,
}

impl Size {
    fn scale(self, jobs: u64) -> u64 {
        match self {
            Size::Full => jobs,
            Size::WarmUp => jobs / 4,
        }
    }
}
