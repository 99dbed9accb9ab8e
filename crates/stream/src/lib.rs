//! # apt-stream
//!
//! Open-system streaming on top of the APT reproduction: arrival sources,
//! a bounded-memory driver, and online metrics.
//!
//! The paper evaluates *closed* workloads — every kernel present at
//! `t = 0` (or at a fixed, fully materialized arrival vector). The
//! ROADMAP's north-star is a production-scale system under continuous
//! heavy traffic, which needs the opposite regime: jobs arrive forever,
//! the system never drains, and evaluation happens on throughput, latency
//! quantiles and saturation points rather than makespan. This crate opens
//! that axis:
//!
//! * [`source`] — the [`Source`] trait plus Poisson, bursty on/off (MMPP),
//!   diurnal-rate, and trace-replay arrival processes, all seeded through
//!   the workspace's own `SplitMix64` and yielding [`JobTemplate`]s of
//!   configurable DAG families lazily, one at a time.
//! * [`driver`] — [`StreamRun`], the one streaming entry point: it pulls
//!   arrivals just-in-time, feeds them into `apt-hetsim`'s slot-recycling
//!   [`apt_hetsim::OpenEngine`], retires completed jobs into streaming
//!   metrics, and sustains million-job runs with memory bounded by the
//!   jobs in flight. Optional layers are setters on the run: an
//!   [`AdmissionGate`] in the admit path so overload *sheds* jobs instead
//!   of queueing unboundedly, an `apt-control` controller on the metrics
//!   windows, a trace sink, a [`StreamTelemetry`] registry and a per-job
//!   observer. Inside the loop every fact (admitted, shed, retired,
//!   window closed, control action, end) is one event handed to one
//!   fan-out, which feeds the metrics, the gate's completion hook and
//!   each armed observer. [`simulate_source`] and
//!   [`simulate_source_gated`] are one-line shorthands.
//! * [`job`] — job templates and the DAG families they instantiate.
//! * [`deadline`] — per-job SLOs: [`DeadlineSpec`] derives relative
//!   deadlines (fixed, proportional to each job's minimum critical path,
//!   or distribution-drawn) on a dedicated RNG stream, so tagging never
//!   perturbs arrivals. The driver converts them to absolute deadlines on
//!   admission; the engine stamps every kernel slot (policies read them
//!   via `SimView::deadline`, and `ReadyOrder::EarliestDeadline` makes
//!   the ready set iterate EDF); retirement feeds miss-rate and tardiness
//!   quantiles in `apt-metrics`. The admission gates and SLO evaluation
//!   live one layer up in `apt-slo`.
//!
//! The streaming path is *semantics-preserving*: a finite source replayed
//! through the driver schedules byte-for-byte like
//! `apt_hetsim::simulate_stream` over the materialized workload (pinned by
//! the differential proptests in `tests/`), so every closed-world result in
//! this repo extends unchanged to the open system.
//!
//! ## Failure model
//!
//! Setting [`DriverOpts::faults`] to a non-empty [`apt_hetsim::FaultPlan`]
//! arms `apt-faults`' seeded fault injection inside the engine: transient
//! kernel failures (the attempt dies partway through and re-executes),
//! processor crash/repair cycles (a down processor leaves the idle set,
//! its in-flight kernel is orphaned back into the ready queue, and it
//! returns after repair), and link-degradation episodes. The driver layers
//! a [`apt_hetsim::RetryPolicy`] on top — bounded attempts per kernel with
//! exponential backoff and jitter, plus a per-job retry budget — and a job
//! that exhausts either bound is *shed*: it retires as
//! `CompletedJob::failed` with partial records instead of wedging the
//! stream. [`StreamOutcome`] then splits **goodput** (completed jobs/s)
//! from raw throughput, and carries the fault bill —
//! [`StreamOutcome::availability`], [`StreamOutcome::wasted_work_frac`],
//! and the engine's `FaultTotals` — while the windowed snapshots expose
//! per-window failure counters and availability for online dashboards.
//! Fault draws ride a salted RNG stream of their own, so arming a plan
//! never perturbs arrivals or deadline tags, and a `FaultPlan::none()`
//! run is byte-identical to the plain driver (pinned in
//! `tests/stream_equivalence.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use apt_stream::{simulate_source, DriverOpts, JobFamily, PoissonSource};
//! use apt_hetsim::SystemConfig;
//! use apt_dfg::LookupTable;
//! use apt_core::Apt;
//!
//! // 300 diamond jobs arriving at 0.25 jobs/s, scheduled by APT(α = 4).
//! let lookup = LookupTable::paper();
//! let mut source = PoissonSource::new(lookup, 0.25, 300, JobFamily::Diamond { width: 2 }, 42);
//! let outcome = simulate_source(
//!     &mut source,
//!     &SystemConfig::paper_4gbps(),
//!     lookup,
//!     &mut Apt::new(4.0),
//!     &DriverOpts::default(),
//! )
//! .unwrap();
//! assert_eq!(outcome.jobs_completed, 300);
//! // Memory scaled with the in-flight peak, not the 300-job stream.
//! assert!(outcome.arena_slots < 300);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deadline;
pub mod driver;
pub mod job;
#[cfg(test)]
mod shard_ready;
pub mod source;
pub mod telemetry;

pub use deadline::DeadlineSpec;
pub use driver::{
    simulate_source, simulate_source_gated, AdmissionGate, AdmitAll, AdmitRequest, DriverOpts,
    StreamOutcome, StreamRun,
};
pub use job::{JobFamily, JobTemplate};
pub use source::{DiurnalSource, OnOffSource, PoissonSource, Source, TraceSource};
pub use telemetry::StreamTelemetry;

// Completed-job types come from the engine; re-export for one-stop imports.
pub use apt_hetsim::{CompletedJob, JobId, ReadyOrder};
