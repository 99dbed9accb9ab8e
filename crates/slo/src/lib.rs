//! # apt-slo
//!
//! Deadline-aware scheduling on top of the open-system streaming layer:
//! per-job SLOs and the admission control that sheds overload.
//!
//! ## The SLO model
//!
//! `apt-stream` jobs may carry a *relative deadline* (finish within `D` of
//! arrival — `apt_stream::DeadlineSpec` generates them fixed,
//! proportional to each job's minimum critical path, or drawn from a
//! distribution). The streaming driver converts it to an absolute
//! deadline on admission; the open engine stamps every kernel slot with
//! it (visible to policies via `apt_hetsim::SimView::deadline`, and
//! driving the ready set's iteration under
//! `apt_hetsim::ReadyOrder::EarliestDeadline`); retirement reports
//! per-job tardiness into `apt-metrics`' online miss-rate and tardiness
//! quantile estimators. The deadline-aware policy variants — `EDF-APT`
//! and `LL-APT` in `apt-core` — order work by urgency and (for LL-APT)
//! clamp APT's α-threshold to the evaporating slack.
//!
//! ## Admission control
//!
//! An open system under sustained overload (offered λ past the service
//! capacity) has no good steady state: either the backlog grows without
//! bound or *every* job goes tardy. This crate's [`AdmissionPolicy`]
//! gates decide per arriving job whether it enters the system at all, so
//! overload degrades into *shed* jobs plus on-time survivors instead of
//! universal lateness:
//!
//! * [`AcceptAll`] — the open baseline (every comparison's control row).
//! * [`UtilizationBound`] — the classic density test: admit while the sum
//!   of in-flight job densities `work / deadline` stays within
//!   `bound × m` for `m` processors. Deadline-free jobs have density 0.
//! * [`FeasibilityGate`] — a response-time estimate: admit only when
//!   `backlog / m + critical_path(job) ≤ D`, i.e. the job still has a
//!   plausible chance of meeting its deadline behind the current
//!   in-flight work.
//!
//! Every [`AdmissionPolicy`] is an `apt_stream::AdmissionGate`, so a gate
//! plugs straight into the driver (`apt_stream::simulate_source_gated`,
//! or `apt_stream::StreamRun::gate`) and hears every completion, so its
//! reservations drain as jobs retire. Shed/accepted accounting lands in
//! `StreamOutcome::jobs_shed` / `shed_rate`.
//!
//! ## Quickstart
//!
//! ```
//! use apt_slo::UtilizationBound;
//! use apt_stream::{simulate_source_gated, DeadlineSpec, DriverOpts, JobFamily, PoissonSource};
//! use apt_hetsim::SystemConfig;
//! use apt_dfg::LookupTable;
//! use apt_base::SimDuration;
//! use apt_core::EdfApt;
//!
//! let lookup = LookupTable::paper();
//! let config = SystemConfig::paper_4gbps();
//! // 200 diamond jobs at 0.3 j/s, deadlines 4× each job's critical path.
//! let mut source = PoissonSource::new(lookup, 0.3, 200, JobFamily::Diamond { width: 2 }, 7)
//!     .with_deadlines(DeadlineSpec::ProportionalCp { factor: 4.0 });
//! let mut gate = UtilizationBound::new(lookup, &config, 1.0);
//! let outcome = simulate_source_gated(
//!     &mut source,
//!     &config,
//!     lookup,
//!     &mut EdfApt::new(4.0),
//!     &DriverOpts::default(),
//!     &mut gate,
//!     |_| {},
//! )
//! .unwrap();
//! assert_eq!(outcome.jobs_admitted + outcome.jobs_shed, 200);
//! assert!(outcome.miss_rate() <= 1.0);
//! # let _ = SimDuration::ZERO;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;

pub use admission::{
    AcceptAll, AdmissionPolicy, FeasibilityGate, UtilizationBound, MAX_RUNTIME_BOUND,
    MIN_RUNTIME_BOUND,
};
