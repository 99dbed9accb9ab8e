//! Live telemetry for streaming runs: a pre-registered
//! [`apt_telemetry::Registry`] the driver publishes into, periodic JSONL
//! snapshot lines, and an optional `--progress` heartbeat.
//!
//! [`StreamTelemetry`] is one observer on the driver's event fan-out (see
//! [`crate::driver`]), armed with [`crate::StreamRun::telemetry`]. It is
//! an exposition view, not a second tally. Where each fact is stored:
//!
//! * job counters and the latency and tardiness histograms: in the run's
//!   [`OnlineMetrics`] only, copied into the registry at every window
//!   close and at the end of the run;
//! * gauges and JSONL lines: written from each closed window's snapshot
//!   and operating point, and at the end;
//! * trace-sink totals: read from the sink at the end;
//! * the `--progress` heartbeat: reads its tallies from [`OnlineMetrics`].
//!
//! Telemetry is observational by contract: an armed [`StreamTelemetry`]
//! never changes a schedule — the telemetered equivalence test pins a
//! telemetered run's [`crate::StreamOutcome`] equal to the bare run's —
//! and per job it does nothing unless the heartbeat is armed.

use crate::driver::{OperatingPoint, RunEvent, RunObserver};
use apt_metrics::{OnlineMetrics, StreamSnapshot, QUANTILE_GAMMA};
use apt_telemetry::{render_prometheus, CounterId, GaugeId, Heartbeat, HistId, Registry};
use std::fmt::Write as _;

/// Name and help of each job counter. [`job_totals`] reads their values,
/// in the same order, from the run's [`OnlineMetrics`].
const JOB_COUNTERS: [(&str, &str); 6] = [
    ("jobs_admitted_total", "Jobs admitted into the engine"),
    ("jobs_completed_total", "Jobs completed successfully"),
    ("jobs_failed_total", "Jobs failed (retry budget exhausted)"),
    (
        "jobs_shed_total",
        "Arrivals shed before entering the system",
    ),
    ("kernels_completed_total", "Kernels retired with their jobs"),
    (
        "deadline_misses_total",
        "Deadline-carrying jobs that finished tardy",
    ),
];

/// The run totals the job counters mirror, in [`JOB_COUNTERS`] order.
fn job_totals(m: &OnlineMetrics) -> [u64; 6] {
    [
        m.total_admitted_jobs(),
        m.total_jobs(),
        m.total_failed_jobs(),
        m.total_shed_jobs(),
        m.total_retired_kernels(),
        m.deadline_misses(),
    ]
}

/// The streaming driver's telemetry surface. Construct one, arm it with
/// [`crate::StreamRun::telemetry`], then read back
/// [`StreamTelemetry::prometheus`] (text exposition) and
/// [`StreamTelemetry::jsonl`] (one line per closed metrics window). One
/// telemetry publishes one run.
#[derive(Debug)]
pub struct StreamTelemetry {
    reg: Registry,
    /// In [`JOB_COUNTERS`] order.
    jobs: [CounterId; 6],
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
    /// α/ρ of the last closed window, for the heartbeat.
    window_alpha_rho: (Option<f64>, Option<f64>),
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
        let jobs = JOB_COUNTERS.map(|(name, help)| reg.counter(name, help));
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
        // At the γ of `OnlineMetrics`' own histograms, which they mirror.
        let h_latency = reg.histogram(
            "job_latency_ms",
            "Job latency, arrival to last finish (ms)",
            QUANTILE_GAMMA,
        );
        let h_tardiness = reg.histogram(
            "job_tardiness_ms",
            "Tardiness of deadline-carrying jobs (ms; on-time jobs contribute 0)",
            QUANTILE_GAMMA,
        );
        StreamTelemetry {
            reg,
            jobs,
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
            window_alpha_rho: (None, None),
        }
    }

    /// Emit a throttled progress heartbeat to stderr while the run is
    /// in flight (the `--progress` flag), checked after each retirement.
    /// Its α/ρ columns are the last closed window's operating point.
    /// `target_jobs` enables the ETA column; pass `None` for open-ended
    /// runs.
    pub fn with_progress(mut self, target_jobs: Option<u64>) -> Self {
        self.heartbeat = Some(Heartbeat::new(target_jobs));
        self
    }

    /// The underlying registry (merge it into another, read values back).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// True once a run published a job fact here. The driver refuses to
    /// arm such a telemetry again: its job instruments mirror one run.
    pub(crate) fn holds_a_run(&self) -> bool {
        self.jobs.iter().any(|&id| self.reg.counter_value(id) > 0)
    }

    /// Prometheus text exposition of the current registry state
    /// (guaranteed to pass [`apt_telemetry::validate`]).
    pub fn prometheus(&self) -> String {
        render_prometheus(&self.reg)
    }

    /// The JSONL snapshot stream: one flat object per closed metrics
    /// window (guaranteed to pass [`apt_trace::json::validate_jsonl`]).
    pub fn jsonl(&self) -> &str {
        &self.jsonl
    }

    /// Copy the run's job totals and both histograms from `metrics` into
    /// the registry. Totals only grow within a run, so each counter steps
    /// up to its total.
    fn publish(&mut self, metrics: &OnlineMetrics) {
        for (id, total) in self.jobs.into_iter().zip(job_totals(metrics)) {
            self.reg.add(id, total - self.reg.counter_value(id));
        }
        let hists = [
            (self.h_latency, metrics.latency_histogram()),
            (self.h_tardiness, metrics.tardiness_histogram()),
        ];
        for (id, hist) in hists {
            self.reg.histogram_mut(id).clone_from(hist);
        }
    }

    fn on_window(&mut self, snap: &StreamSnapshot, point: &OperatingPoint) {
        self.window_alpha_rho = (point.alpha, point.rho);
        self.reg.set(self.g_in_flight, point.in_flight as f64);
        self.reg.set(self.g_queue, point.queued as f64);
        if let Some(a) = point.alpha {
            self.reg.set(self.g_alpha, a);
        }
        if let Some(r) = point.rho {
            self.reg.set(self.g_rho, r);
        }
        self.reg.set(self.g_window_miss, snap.window_miss_rate());
        self.reg.set(self.g_availability, snap.availability);
        self.reg.set(self.g_sim, snap.end.as_secs_f64());

        // One flat JSONL object per closed window — the schema the CI
        // soak smoke validates.
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
            json_num(Some(snap.throughput_jps)),
            json_num(Some(snap.latency_p50_ms)),
            json_num(Some(snap.latency_p90_ms)),
            json_num(Some(snap.latency_p99_ms)),
            snap.depth_now,
            point.in_flight,
            point.queued,
            json_num(Some(snap.window_miss_rate())),
            json_num(Some(snap.miss_rate())),
            json_num(Some(snap.availability)),
            snap.window_admitted,
            snap.window_shed,
            json_num(point.alpha),
            json_num(point.rho),
        );
    }
}

impl RunObserver for StreamTelemetry {
    fn on_event(&mut self, ev: &RunEvent<'_>, metrics: &OnlineMetrics) {
        let retired = || metrics.total_jobs() + metrics.total_failed_jobs();
        match *ev {
            RunEvent::Retired { now, in_flight, .. } => {
                // The heartbeat throttles itself.
                if let Some(hb) = self.heartbeat.as_mut() {
                    let (alpha, rho) = self.window_alpha_rho;
                    let sim_seconds = now.as_secs_f64();
                    let miss_rate = metrics.miss_rate();
                    if let Some(line) =
                        hb.tick(retired(), in_flight, miss_rate, alpha, rho, sim_seconds)
                    {
                        eprintln!("{line}");
                    }
                }
            }
            RunEvent::WindowClosed { snapshot, point } => {
                self.on_window(snapshot, &point);
                self.publish(metrics);
            }
            RunEvent::End {
                now,
                in_flight,
                trace,
            } => {
                self.publish(metrics);
                if let Some(sink) = trace {
                    self.reg.add(self.c_trace_events, sink.recorded());
                    self.reg.add(self.c_trace_dropped, sink.dropped());
                }
                let sim_seconds = now.as_secs_f64();
                self.reg.set(self.g_sim, sim_seconds);
                self.reg.set(self.g_in_flight, in_flight as f64);
                if let Some(hb) = self.heartbeat.as_mut() {
                    let line = hb.finish(retired(), in_flight, metrics.miss_rate(), sim_seconds);
                    eprintln!("{line}");
                }
            }
            RunEvent::Admitted { .. } | RunEvent::Shed { .. } | RunEvent::Control(_) => {}
        }
    }
}

/// A JSON number, or `null` for `None` and for the (rare) non-finite
/// estimator output: JSON has no Inf/NaN literals.
fn json_num(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite())
        .map_or_else(|| "null".to_string(), |v| format!("{v}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcId, SimDuration, SimTime};
    use apt_dfg::{Kernel, KernelKind, NodeId};
    use apt_hetsim::{CompletedJob, JobId, TaskRecord};
    use apt_trace::ShedReason;

    /// A job of two kernels that arrived at 10 ms and finished at 30 ms,
    /// with an optional absolute deadline.
    fn job(failed: bool, deadline_ms: Option<u64>) -> CompletedJob {
        let record = |finish| TaskRecord {
            node: NodeId::new(0),
            kernel: Kernel::canonical(KernelKind::Bfs),
            proc: ProcId::new(0),
            ready: SimTime::from_ms(10),
            start: SimTime::from_ms(10),
            exec_start: SimTime::from_ms(10),
            finish: SimTime::from_ms(finish),
            alt: false,
        };
        CompletedJob {
            job: JobId(0),
            arrival: SimTime::from_ms(10),
            deadline: deadline_ms.map(SimTime::from_ms),
            records: vec![record(20), record(30)],
            failed,
        }
    }

    /// Every instrument is registered up front, so a run that sees no
    /// event still exposes valid text with each family at zero.
    #[test]
    fn a_fresh_telemetry_exposes_every_instrument() {
        let tel = StreamTelemetry::new();
        let text = tel.prometheus();
        apt_telemetry::validate(&text).unwrap();
        for name in [
            "jobs_admitted_total",
            "jobs_completed_total",
            "jobs_failed_total",
            "jobs_shed_total",
            "kernels_completed_total",
            "deadline_misses_total",
            "trace_events_total",
            "trace_events_dropped_total",
        ] {
            assert_eq!(tel.registry().counter_named(name, &[]), Some(0), "{name}");
        }
        assert!(tel.jsonl().is_empty());
        assert!(!tel.holds_a_run());
    }

    /// Feed `tel` one event per fact, each after `m` recorded it, as the
    /// driver's fan-out does: three admissions, a shed, and four
    /// retirements (no deadline, met, missed by 10 ms, failed).
    fn feed(tel: &mut StreamTelemetry, m: &mut OnlineMetrics) {
        let now = SimTime::from_ms(30);
        for _ in 0..3 {
            m.observe_job_admitted();
            tel.on_event(&RunEvent::Admitted { now, in_flight: 1 }, m);
        }
        m.observe_job_shed();
        let reason = ShedReason::Gate;
        tel.on_event(&RunEvent::Shed { at: now, reason }, m);
        for done in [
            job(false, None),
            job(false, Some(40)),
            job(false, Some(20)),
            job(true, None),
        ] {
            m.observe_retired(&done);
            let job = &done;
            tel.on_event(
                &RunEvent::Retired {
                    job,
                    now,
                    in_flight: 0,
                },
                m,
            );
        }
    }

    fn end(tel: &mut StreamTelemetry, m: &OnlineMetrics) {
        let now = SimTime::from_ms(30);
        let trace = None;
        tel.on_event(
            &RunEvent::End {
                now,
                in_flight: 0,
                trace,
            },
            m,
        );
    }

    fn counter(tel: &StreamTelemetry, name: &str) -> Option<u64> {
        tel.registry().counter_named(name, &[])
    }

    /// The job counters stay untouched per event and read the metrics'
    /// totals once the end of the run publishes them.
    #[test]
    fn admissions_sheds_and_failures_are_counted() {
        let mut tel = StreamTelemetry::new();
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        feed(&mut tel, &mut m);
        assert_eq!(counter(&tel, "jobs_admitted_total"), Some(0));
        assert!(!tel.holds_a_run());
        end(&mut tel, &m);
        for (name, total) in [
            ("jobs_admitted_total", 3),
            ("jobs_shed_total", 1),
            ("jobs_completed_total", 3),
            ("jobs_failed_total", 1),
            ("kernels_completed_total", 8),
        ] {
            assert_eq!(counter(&tel, name), Some(total), "{name}");
        }
        assert!(tel.holds_a_run());
        apt_telemetry::validate(&tel.prometheus()).unwrap();
    }

    /// Latency is observed for every completed job, tardiness only for
    /// jobs with a deadline, and a miss only for a positive tardiness —
    /// by the metrics, whose histograms the end of the run copies.
    #[test]
    fn retirements_feed_latency_tardiness_and_misses() {
        let mut tel = StreamTelemetry::new();
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        feed(&mut tel, &mut m);
        let hist = |tel: &StreamTelemetry, name| tel.registry().histogram_named(name, &[]).cloned();
        assert_eq!(hist(&tel, "job_latency_ms").unwrap().count(), 0);
        end(&mut tel, &m);
        let latency = hist(&tel, "job_latency_ms").unwrap();
        assert_eq!(&latency, m.latency_histogram());
        assert_eq!(latency.count(), 3);
        let tardiness = hist(&tel, "job_tardiness_ms").unwrap();
        assert_eq!(&tardiness, m.tardiness_histogram());
        assert_eq!(tardiness.count(), 2);
        assert_eq!(counter(&tel, "deadline_misses_total"), Some(1));
    }

    #[test]
    fn the_end_event_sets_the_clock_and_in_flight_gauges() {
        let mut tel = StreamTelemetry::new();
        let m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let end = RunEvent::End {
            now: SimTime::from_ms(2_500),
            in_flight: 3,
            trace: None,
        };
        tel.on_event(&end, &m);
        let reg = tel.registry();
        assert_eq!(reg.gauge_value(tel.g_sim), 2.5);
        assert_eq!(reg.gauge_value(tel.g_in_flight), 3.0);
        assert_eq!(reg.counter_value(tel.c_trace_events), 0);
        assert!(!tel.holds_a_run(), "an empty run published no job fact");
    }

    /// JSON has no literal for NaN or ±∞.
    #[test]
    fn non_finite_values_render_as_null() {
        assert_eq!(json_num(Some(2.5)), "2.5");
        assert_eq!(json_num(None), "null");
        assert_eq!(json_num(Some(f64::NAN)), "null");
        assert_eq!(json_num(Some(f64::INFINITY)), "null");
        assert_eq!(json_num(Some(f64::NEG_INFINITY)), "null");
    }
}
