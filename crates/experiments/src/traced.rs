//! `apt-repro <scenario> --trace <path>` — Chrome/Perfetto timeline export
//! plus the `trace-summary` λ-delay report.
//!
//! The sweep artifacts aggregate thousands of jobs into one table row; the
//! timeline answers the opposite question — *what did the machine do,
//! instant by instant?* For every open-stream scenario id this module runs
//! one **representative cell**: a deadline-tagged stream shaped like the
//! sweep's own traffic, scheduled by `EDF-APT(α = 4)` behind a
//! [`UtilizationBound`] gate, with the `apt-control` stack closing the
//! loop on the metrics windows — so the export carries processor span
//! tracks, APT alt-decision provenance, control-action instants, and live
//! α/ρ counter tracks all at once. The recorded stream is then rendered
//! two ways:
//!
//! * [`apt_trace::chrome::chrome_trace`] — the JSON document `--trace`
//!   writes (loadable in `chrome://tracing` / Perfetto as-is), field
//!   contract re-checked by [`apt_trace::chrome::validate`] before it
//!   leaves this module;
//! * [`apt_trace::summary::render_summary`] — the top-λ kernel table
//!   (§2.5.1 decomposition: dependency- / scheduler- / processor-wait)
//!   printed under the artifact.

use crate::control::{control_stack, CONTROL_WINDOW};
use apt_control::ControllerStack;
use apt_core::prelude::*;
use apt_slo::UtilizationBound;
use apt_stream::{
    AdmissionGate as _, DeadlineSpec, DriverOpts, JobFamily, OnOffSource, PoissonSource, Source,
    StreamRun,
};
use apt_trace::chrome::{chrome_trace, validate, ChromeConfig, ChromeStats};
use apt_trace::summary::render_summary;
use apt_trace::VecSink;
use std::fmt::Write as _;

/// Jobs in a representative traced run — enough load for the gate, the
/// controller, and APT's alternative path to all fire, small enough that
/// the export stays a few hundred kB.
pub const TRACE_JOBS: u64 = 300;

/// Seed of every traced run's arrival/deadline stream.
pub const TRACE_SEED: u64 = 0x0007_ACED;

/// Rows of the λ-delay table in the printed summary.
pub const TRACE_TOP_N: usize = 10;

/// A rendered traced run: the Chrome JSON document, the printable
/// summary, and what the validator measured about the export.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Chrome trace-event JSON (`{"traceEvents": [...]}`), validated.
    pub chrome: String,
    /// The `trace-summary` report printed under the artifact.
    pub summary: String,
    /// Field-contract statistics of `chrome`.
    pub stats: ChromeStats,
}

/// True when [`artifact_trace`] has a representative traced run for `id`
/// — a static check, so the CLI can filter capabilities without running
/// anything.
pub fn artifact_has_trace(id: &str) -> bool {
    matches!(
        id,
        "stream-saturation"
            | "stream-bursts"
            | "slo-sweep"
            | "topology-sweep"
            | "fault-sweep"
            | "control-sweep"
    )
}

/// The representative cell of one scenario id: its stream, and the stack
/// that schedules it — `EDF-APT(α = 4)` behind a [`UtilizationBound`]
/// gate, with the `apt-control` stack closing the loop on the metrics
/// windows. Shared with the telemetered form (`--metrics` observes the
/// same cell the `--trace` timeline draws).
pub(crate) struct RepresentativeCell {
    source: Box<dyn Source>,
    config: SystemConfig,
    policy: EdfApt,
    gate: UtilizationBound<'static>,
    stack: ControllerStack,
    opts: DriverOpts,
}

impl RepresentativeCell {
    /// The cell for `id`; `None` exactly when [`artifact_has_trace`] is
    /// false.
    pub(crate) fn new(id: &str) -> Option<Self> {
        let (source, faults) = traced_source(id)?;
        let config = SystemConfig::paper_4gbps();
        let gate = UtilizationBound::new(LookupTable::paper(), &config, 1.0);
        Some(RepresentativeCell {
            source,
            config,
            policy: EdfApt::new(PAPER_BEST_ALPHA),
            gate,
            stack: control_stack(),
            opts: DriverOpts {
                snapshot_interval: Some(CONTROL_WINDOW),
                faults,
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..DriverOpts::default()
            },
        })
    }

    /// The cell's run with its gate and controller armed; the caller arms
    /// the observer it renders.
    pub(crate) fn stream(&mut self) -> StreamRun<'_> {
        StreamRun::new(
            self.source.as_mut(),
            &self.config,
            LookupTable::paper(),
            &mut self.policy,
            &self.opts,
        )
        .gate(&mut self.gate)
        .controller(&mut self.stack)
    }
}

/// The representative stream of one scenario id: an arrival source shaped
/// like the sweep's traffic, plus the fault plan the timeline should show.
fn traced_source(id: &str) -> Option<(Box<dyn Source>, FaultPlan)> {
    let lookup = LookupTable::paper();
    let deadlines = DeadlineSpec::ProportionalCp { factor: 6.0 };
    let family = JobFamily::Diamond { width: 2 };
    // A light transient-failure rate on every timeline: retries are part
    // of what the trace exists to make visible.
    let transient = FaultPlan::seeded(TRACE_SEED).with_transient(0.02);
    let run = match id {
        // The saturation sweep's interesting regime: λ ≈ 1.3× the ~0.3 j/s
        // service capacity, where shedding and alt-placements dominate.
        "stream-saturation" => (
            Box::new(
                PoissonSource::new(lookup, 0.4, TRACE_JOBS, family, TRACE_SEED)
                    .with_deadlines(deadlines),
            ) as Box<dyn Source>,
            transient,
        ),
        // Burst absorption: 3×-capacity bursts with long quiet valleys.
        "stream-bursts" => (
            Box::new(
                OnOffSource::new(
                    lookup,
                    1.0,
                    SimDuration::from_ms(40_000),
                    SimDuration::from_ms(80_000),
                    TRACE_JOBS,
                    family,
                    TRACE_SEED,
                )
                .with_deadlines(deadlines),
            ) as Box<dyn Source>,
            transient,
        ),
        // Deadline frontier / topology rows: a sustainable 0.25 j/s feed —
        // the timeline shows λ-delay structure rather than overload.
        "slo-sweep" | "topology-sweep" => (
            Box::new(
                PoissonSource::new(lookup, 0.25, TRACE_JOBS, family, TRACE_SEED)
                    .with_deadlines(deadlines),
            ) as Box<dyn Source>,
            transient,
        ),
        // Failure injection: crash/repair episodes shrink the machine on
        // top of the transient rate — crash and repair instants land on
        // the processor tracks.
        "fault-sweep" => (
            Box::new(
                PoissonSource::new(lookup, 0.2, TRACE_JOBS, family, TRACE_SEED)
                    .with_deadlines(deadlines),
            ) as Box<dyn Source>,
            FaultPlan::seeded(TRACE_SEED)
                .with_transient(0.05)
                .with_crashes(SimDuration::from_ms(45_000), SimDuration::from_ms(10_000)),
        ),
        // The control plane's shifted diurnal regime — the trace where the
        // α/ρ counter tracks actually move.
        "control-sweep" => (
            Box::new(
                apt_stream::DiurnalSource::new(
                    lookup,
                    0.2,
                    0.6,
                    SimDuration::from_ms(600_000),
                    TRACE_JOBS,
                    family,
                    TRACE_SEED,
                )
                .with_deadlines(deadlines),
            ) as Box<dyn Source>,
            transient,
        ),
        _ => return None,
    };
    Some(run)
}

/// Run the representative traced cell for `id` and render both the Chrome
/// JSON and the summary. `None` exactly when [`artifact_has_trace`] is
/// false.
pub fn artifact_trace(id: &str) -> Option<TraceExport> {
    let mut cell = RepresentativeCell::new(id)?;
    let (outcome, sink) = cell
        .stream()
        .trace(Box::new(VecSink::new()))
        .run()
        .expect("representative traced run failed");
    let events = sink
        .expect("the driver hands the armed sink back")
        .snapshot();

    let names = cell.config.procs().iter().map(|p| p.name.clone()).collect();
    let chrome = chrome_trace(&events, &ChromeConfig::with_proc_names(names));
    let stats = validate(&chrome).expect("exported timeline violates the Chrome field contract");

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "trace: {} events, {} kernel spans ({} alt), {} alt-decisions, \
         {} counter tracks | jobs {} admitted / {} completed / {} shed | \
         final α {:.2}, final ρ {:.2}",
        stats.events,
        stats.spans,
        stats.alt_spans,
        stats.alt_decisions,
        stats.counter_tracks.len(),
        outcome.jobs_admitted,
        outcome.jobs_completed,
        outcome.jobs_shed,
        Policy::alpha(&cell.policy).unwrap_or(PAPER_BEST_ALPHA),
        cell.gate.utilization_bound().unwrap_or(1.0),
    );
    summary.push_str(&render_summary(&events, TRACE_TOP_N));

    Some(TraceExport {
        chrome,
        summary,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract of `apt-repro stream-saturation --trace`:
    /// valid Chrome JSON, processor span tracks, at least one
    /// DecisionRecord-derived alt-decision annotation, and α/ρ counter
    /// tracks from the controlled run.
    #[test]
    fn stream_saturation_trace_meets_the_acceptance_contract() {
        let export = artifact_trace("stream-saturation").unwrap();
        let stats = &export.stats;
        // validate() already passed inside artifact_trace; the stats it
        // measured carry the rest of the contract.
        assert!(stats.spans > 0, "no kernel spans");
        let config = SystemConfig::paper_4gbps();
        for tid in 1..=config.len() as u32 {
            assert!(
                stats.span_tracks.contains(&tid),
                "processor track tid={tid} carries no spans"
            );
        }
        assert!(
            stats.alt_decisions >= 1,
            "no DecisionRecord annotation under a saturating stream"
        );
        assert!(stats.alt_spans >= 1, "no span flagged as an alt placement");
        for track in ["alpha", "rho", "in-flight jobs", "window miss rate"] {
            assert!(
                stats.counter_tracks.iter().any(|t| t == track),
                "missing counter track `{track}` (have {:?})",
                stats.counter_tracks
            );
        }
        // The summary carries the §2.5.1 decomposition columns.
        for col in ["dep-wait", "sched-wait", "proc-wait"] {
            assert!(
                export.summary.contains(col),
                "summary lost the λ decomposition: missing {col}"
            );
        }
    }

    #[test]
    fn capability_check_matches_the_resolver() {
        assert!(artifact_has_trace("stream-saturation"));
        assert!(artifact_has_trace("control-sweep"));
        assert!(!artifact_has_trace("table7"));
        assert!(artifact_trace("table7").is_none());
        assert!(artifact_trace("nope").is_none());
    }
}
