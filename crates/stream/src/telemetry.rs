//! Live telemetry for streaming runs: a pre-registered
//! [`apt_telemetry::Registry`] the driver publishes into, periodic JSONL
//! snapshot lines, an optional `--progress` heartbeat, and (behind the
//! `self-profile` feature) the engine's phase-breakdown report.
//!
//! Telemetry is observational by contract: an armed [`StreamTelemetry`]
//! never changes a schedule — the telemetered equivalence test pins a
//! telemetered run's [`crate::StreamOutcome`] byte-identical to the bare
//! run's — and the registry hot path is a handful of adds per job.

use apt_hetsim::CompletedJob;
use apt_metrics::StreamSnapshot;
use apt_telemetry::{
    render_prometheus, CounterId, GaugeId, Heartbeat, HistId, PhaseReport, Registry,
};
use std::fmt::Write as _;

/// Relative error bound for the latency/tardiness histograms: 1% —
/// comfortably inside the agreement band of the P² estimators the
/// snapshot quantiles use.
const HIST_GAMMA: f64 = 0.01;

/// The streaming driver's telemetry surface. Construct one, hand it to
/// [`crate::simulate_source_telemetered`], then read back
/// [`StreamTelemetry::prometheus`] (text exposition),
/// [`StreamTelemetry::jsonl`] (one line per closed metrics window) and
/// [`StreamTelemetry::phase_report`] (engine wall-clock breakdown, when
/// profiling was compiled in and requested).
#[derive(Debug)]
pub struct StreamTelemetry {
    reg: Registry,
    c_admitted: CounterId,
    c_completed: CounterId,
    c_failed: CounterId,
    c_shed: CounterId,
    c_kernels: CounterId,
    c_misses: CounterId,
    c_trace_events: CounterId,
    c_trace_dropped: CounterId,
    g_in_flight: GaugeId,
    g_queue: GaugeId,
    g_alpha: GaugeId,
    g_rho: GaugeId,
    g_window_miss: GaugeId,
    g_availability: GaugeId,
    g_sim: GaugeId,
    h_latency: HistId,
    h_tardiness: HistId,
    jsonl: String,
    heartbeat: Option<Heartbeat>,
    profile_engine: bool,
    phase_report: Option<PhaseReport>,
}

impl Default for StreamTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamTelemetry {
    /// A registry with the streaming instrument set pre-registered.
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let c_admitted = reg.counter("jobs_admitted_total", "Jobs admitted into the engine");
        let c_completed = reg.counter("jobs_completed_total", "Jobs completed successfully");
        let c_failed = reg.counter("jobs_failed_total", "Jobs failed (retry budget exhausted)");
        let c_shed = reg.counter(
            "jobs_shed_total",
            "Arrivals shed before entering the system",
        );
        let c_kernels = reg.counter("kernels_completed_total", "Kernels retired with their jobs");
        let c_misses = reg.counter(
            "deadline_misses_total",
            "Deadline-carrying jobs that finished tardy",
        );
        let c_trace_events = reg.counter(
            "trace_events_total",
            "Trace events offered to the armed sink",
        );
        let c_trace_dropped = reg.counter(
            "trace_events_dropped_total",
            "Trace events the bounded sink had to discard",
        );
        let g_in_flight = reg.gauge("in_flight_jobs", "Jobs admitted but not yet retired");
        let g_queue = reg.gauge("queue_depth", "Kernels belonging to in-flight jobs");
        let g_alpha = reg.gauge(
            "alpha",
            "Live APT threshold (policies without the knob leave 0)",
        );
        let g_rho = reg.gauge("rho", "Live admission utilization bound (0 when ungated)");
        let g_window_miss = reg.gauge(
            "window_miss_rate",
            "Deadline miss fraction of the last closed window",
        );
        let g_availability = reg.gauge("availability", "Up fraction of the last closed window");
        let g_sim = reg.gauge("sim_time_seconds", "Simulation clock, seconds");
        let h_latency = reg.histogram(
            "job_latency_ms",
            "Job latency, arrival to last finish (ms)",
            HIST_GAMMA,
        );
        let h_tardiness = reg.histogram(
            "job_tardiness_ms",
            "Tardiness of deadline-carrying jobs (ms; on-time jobs contribute 0)",
            HIST_GAMMA,
        );
        StreamTelemetry {
            reg,
            c_admitted,
            c_completed,
            c_failed,
            c_shed,
            c_kernels,
            c_misses,
            c_trace_events,
            c_trace_dropped,
            g_in_flight,
            g_queue,
            g_alpha,
            g_rho,
            g_window_miss,
            g_availability,
            g_sim,
            h_latency,
            h_tardiness,
            jsonl: String::new(),
            heartbeat: None,
            profile_engine: false,
            phase_report: None,
        }
    }

    /// Emit a throttled progress heartbeat to stderr while the run is
    /// in flight (the `--progress` flag). `target_jobs` enables the ETA
    /// column; pass `None` for open-ended runs.
    pub fn with_progress(mut self, target_jobs: Option<u64>) -> Self {
        self.heartbeat = Some(Heartbeat::new(target_jobs));
        self
    }

    /// Request engine phase profiling. Effective only when `apt-stream`
    /// is built with the `self-profile` feature — without it the flag
    /// is remembered but no profiler exists to arm, and
    /// [`StreamTelemetry::phase_report`] stays `None`.
    pub fn with_engine_profile(mut self) -> Self {
        self.profile_engine = true;
        self
    }

    /// True when [`StreamTelemetry::with_engine_profile`] was requested.
    pub fn wants_engine_profile(&self) -> bool {
        self.profile_engine
    }

    /// The underlying registry (merge shards into it, read values back).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Mutable registry access, for callers layering their own
    /// instruments next to the driver's.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Prometheus text exposition of the current registry state
    /// (guaranteed to pass [`apt_telemetry::validate`]).
    pub fn prometheus(&self) -> String {
        render_prometheus(&self.reg)
    }

    /// The JSONL snapshot stream: one flat object per closed metrics
    /// window (guaranteed to pass [`apt_telemetry::validate_jsonl`]).
    pub fn jsonl(&self) -> &str {
        &self.jsonl
    }

    /// The engine's phase-breakdown report, populated at run end when
    /// profiling was compiled in and requested.
    pub fn phase_report(&self) -> Option<&PhaseReport> {
        self.phase_report.as_ref()
    }

    /// Take ownership of the phase report (its registry mirror stays).
    pub fn take_phase_report(&mut self) -> Option<PhaseReport> {
        self.phase_report.take()
    }

    /// Install the run's phase report and mirror it into the registry
    /// (`engine_phase_ns_total{phase=...}` plus per-policy decision
    /// counters). The driver calls this once at stream end.
    pub fn set_phase_report(&mut self, report: PhaseReport) {
        for e in &report.phases {
            let id = self.reg.counter_with_labels(
                "engine_phase_ns_total",
                "Wall-clock charged to each engine/driver phase, ns",
                &[("phase", e.phase.label())],
            );
            self.reg.add(id, e.ns);
        }
        let policy: &str = &report.policy;
        let decide = self.reg.counter_with_labels(
            "policy_decide_calls_total",
            "Policy::decide invocations",
            &[("policy", policy)],
        );
        self.reg.add(decide, report.decide_calls);
        let assigns = self.reg.counter_with_labels(
            "policy_assignments_total",
            "Assignments applied",
            &[("policy", policy)],
        );
        self.reg.add(assigns, report.assignments);
        let alts = self.reg.counter_with_labels(
            "policy_alt_assignments_total",
            "Alternative-processor assignments",
            &[("policy", policy)],
        );
        self.reg.add(alts, report.alt_assignments);
        self.phase_report = Some(report);
    }

    #[inline]
    pub(crate) fn on_admit(&mut self) {
        self.reg.inc(self.c_admitted);
    }

    #[inline]
    pub(crate) fn on_shed(&mut self) {
        self.reg.inc(self.c_shed);
    }

    /// An admitted job that exhausted its retry budget and left failed.
    #[inline]
    pub(crate) fn on_job_failed(&mut self, job: &CompletedJob) {
        self.reg.add(self.c_kernels, job.records.len() as u64);
        self.reg.inc(self.c_failed);
    }

    /// A successfully completed job, with the latency and tardiness the
    /// driver already derived for its own aggregates — the hook must not
    /// recompute them (this is the per-job hot path).
    #[inline]
    pub(crate) fn on_job_done(
        &mut self,
        job: &CompletedJob,
        latency: apt_base::SimDuration,
        tardiness: Option<apt_base::SimDuration>,
    ) {
        self.reg.add(self.c_kernels, job.records.len() as u64);
        self.reg.inc(self.c_completed);
        self.reg.observe(self.h_latency, latency.as_ms_f64());
        if let Some(t) = tardiness {
            self.reg.observe(self.h_tardiness, t.as_ms_f64());
            if !t.is_zero() {
                self.reg.inc(self.c_misses);
            }
        }
    }

    pub(crate) fn on_window(
        &mut self,
        snap: &StreamSnapshot,
        alpha: Option<f64>,
        rho: Option<f64>,
        in_flight: usize,
        queued: usize,
    ) {
        self.reg.set(self.g_in_flight, in_flight as f64);
        self.reg.set(self.g_queue, queued as f64);
        if let Some(a) = alpha {
            self.reg.set(self.g_alpha, a);
        }
        if let Some(r) = rho {
            self.reg.set(self.g_rho, r);
        }
        self.reg.set(self.g_window_miss, snap.window_miss_rate());
        self.reg.set(self.g_availability, snap.availability);
        self.reg.set(self.g_sim, snap.end.as_secs_f64());

        // One flat JSONL object per closed window — the schema the CI
        // soak smoke validates.
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v}"));
        let _ = writeln!(
            self.jsonl,
            "{{\"end_s\":{},\"window_jobs\":{},\"total_jobs\":{},\"throughput_jps\":{},\
             \"latency_p50_ms\":{},\"latency_p90_ms\":{},\"latency_p99_ms\":{},\
             \"depth_now\":{},\"in_flight\":{},\"queue_depth\":{},\
             \"window_miss_rate\":{},\"miss_rate\":{},\"availability\":{},\
             \"window_admitted\":{},\"window_shed\":{},\"alpha\":{},\"rho\":{}}}",
            snap.end.as_secs_f64(),
            snap.window_jobs,
            snap.total_jobs,
            finite(snap.throughput_jps),
            finite(snap.latency_p50_ms),
            finite(snap.latency_p90_ms),
            finite(snap.latency_p99_ms),
            snap.depth_now,
            in_flight,
            queued,
            finite(snap.window_miss_rate()),
            finite(snap.miss_rate()),
            finite(snap.availability),
            snap.window_admitted,
            snap.window_shed,
            fmt_opt(alpha),
            fmt_opt(rho),
        );
    }

    /// True when a `--progress` heartbeat was requested — hoisted out of
    /// the driver loop so unarmed runs pay one bool, not a call per
    /// iteration.
    #[inline]
    pub(crate) fn heartbeat_armed(&self) -> bool {
        self.heartbeat.is_some()
    }

    /// Cheap pre-check for the driver: is a heartbeat armed *and* due?
    #[inline]
    pub(crate) fn progress_due(&self) -> bool {
        self.heartbeat.as_ref().is_some_and(Heartbeat::due)
    }

    pub(crate) fn emit_progress(
        &mut self,
        jobs_done: u64,
        in_flight: usize,
        miss_rate: f64,
        alpha: Option<f64>,
        rho: Option<f64>,
        sim_seconds: f64,
    ) {
        if let Some(hb) = self.heartbeat.as_mut() {
            if let Some(line) = hb.tick(jobs_done, in_flight, miss_rate, alpha, rho, sim_seconds) {
                eprintln!("{line}");
            }
        }
    }

    pub(crate) fn on_trace_sink(&mut self, recorded: u64, dropped: u64) {
        self.reg.add(self.c_trace_events, recorded);
        self.reg.add(self.c_trace_dropped, dropped);
    }

    pub(crate) fn on_end(
        &mut self,
        sim_seconds: f64,
        jobs_done: u64,
        in_flight: usize,
        miss_rate: f64,
    ) {
        self.reg.set(self.g_sim, sim_seconds);
        self.reg.set(self.g_in_flight, in_flight as f64);
        if let Some(hb) = self.heartbeat.as_mut() {
            eprintln!(
                "{}",
                hb.finish(jobs_done, in_flight, miss_rate, sim_seconds)
            );
        }
    }
}

/// JSON has no Inf/NaN literals; clamp the (rare) non-finite estimator
/// outputs to null.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
