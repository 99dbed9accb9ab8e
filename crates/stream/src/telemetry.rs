//! Live telemetry for streaming runs: a pre-registered
//! [`apt_telemetry::Registry`] the driver publishes into, periodic JSONL
//! snapshot lines, and an optional `--progress` heartbeat.
//!
//! [`StreamTelemetry`] is one observer on the driver's event fan-out (see
//! [`crate::driver`]): arm it with [`crate::StreamRun::telemetry`] and it
//! hears the same admitted / shed / retired / failed / window-closed / end
//! events as the metrics aggregator and the trace sink, and derives every
//! instrument from them.
//!
//! Telemetry is observational by contract: an armed [`StreamTelemetry`]
//! never changes a schedule — the telemetered equivalence test pins a
//! telemetered run's [`crate::StreamOutcome`] equal to the bare run's —
//! and the registry hot path is a handful of adds per job.

use crate::driver::{OperatingPoint, RunEvent, RunObserver};
use apt_base::{SimDuration, SimTime};
use apt_hetsim::CompletedJob;
use apt_metrics::{StreamSnapshot, QUANTILE_GAMMA};
use apt_telemetry::{render_prometheus, CounterId, GaugeId, Heartbeat, HistId, Registry};
use std::fmt::Write as _;

/// The streaming driver's telemetry surface. Construct one, arm it with
/// [`crate::StreamRun::telemetry`], then read back
/// [`StreamTelemetry::prometheus`] (text exposition) and
/// [`StreamTelemetry::jsonl`] (one line per closed metrics window).
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
        // At the γ of `OnlineMetrics`' own histograms, so the registry's
        // quantiles equal the outcome's and the snapshots' over one stream.
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

    /// A successfully completed job, with the latency and tardiness the
    /// driver already derived for its own aggregates — the hook must not
    /// recompute them (this is the per-job hot path).
    fn on_job_done(
        &mut self,
        job: &CompletedJob,
        latency: SimDuration,
        tardiness: Option<SimDuration>,
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

    fn on_window(&mut self, snap: &StreamSnapshot, point: &OperatingPoint) {
        let OperatingPoint {
            alpha,
            rho,
            in_flight,
            queued,
        } = *point;
        self.window_alpha_rho = (alpha, rho);
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

    /// Tick the `--progress` heartbeat after a retirement, when one is
    /// armed (it throttles itself). Its tallies come from the registry.
    fn tick_progress(&mut self, in_flight: usize, now: SimTime) {
        let Some(hb) = self.heartbeat.as_mut() else {
            return;
        };
        let reg = &self.reg;
        let retired = reg.counter_value(self.c_completed) + reg.counter_value(self.c_failed);
        let deadline_jobs = reg.histogram_ref(self.h_tardiness).count();
        let miss_rate = if deadline_jobs == 0 {
            0.0
        } else {
            reg.counter_value(self.c_misses) as f64 / deadline_jobs as f64
        };
        let (alpha, rho) = self.window_alpha_rho;
        if let Some(line) = hb.tick(retired, in_flight, miss_rate, alpha, rho, now.as_secs_f64()) {
            eprintln!("{line}");
        }
    }
}

impl RunObserver for StreamTelemetry {
    fn on_event(&mut self, ev: &RunEvent<'_>) {
        match *ev {
            RunEvent::Admitted { .. } => self.reg.inc(self.c_admitted),
            RunEvent::Shed { .. } => self.reg.inc(self.c_shed),
            RunEvent::Retired {
                job,
                now,
                in_flight,
                latency,
                tardiness,
            } => {
                self.on_job_done(job, latency, tardiness);
                self.tick_progress(in_flight, now);
            }
            RunEvent::Failed {
                job,
                now,
                in_flight,
            } => {
                self.reg.add(self.c_kernels, job.records.len() as u64);
                self.reg.inc(self.c_failed);
                self.tick_progress(in_flight, now);
            }
            RunEvent::WindowClosed { snapshot, point } => self.on_window(snapshot, &point),
            RunEvent::Control(_) => {}
            RunEvent::End {
                now,
                retired,
                in_flight,
                miss_rate,
                trace,
            } => {
                if let Some(sink) = trace {
                    self.reg.add(self.c_trace_events, sink.recorded());
                    self.reg.add(self.c_trace_dropped, sink.dropped());
                }
                let sim_seconds = now.as_secs_f64();
                self.reg.set(self.g_sim, sim_seconds);
                self.reg.set(self.g_in_flight, in_flight as f64);
                if let Some(hb) = self.heartbeat.as_mut() {
                    eprintln!("{}", hb.finish(retired, in_flight, miss_rate, sim_seconds));
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use apt_hetsim::JobId;
    use apt_trace::ShedReason;

    fn job(failed: bool) -> CompletedJob {
        CompletedJob {
            job: JobId(0),
            arrival: SimTime::ZERO,
            deadline: None,
            records: Vec::new(),
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
    }

    #[test]
    fn admissions_sheds_and_failures_are_counted() {
        let mut tel = StreamTelemetry::new();
        let now = SimTime::from_ms(3);
        tel.on_event(&RunEvent::Admitted { now, in_flight: 1 });
        tel.on_event(&RunEvent::Admitted { now, in_flight: 2 });
        tel.on_event(&RunEvent::Shed {
            at: now,
            reason: ShedReason::Gate,
        });
        let failed = job(true);
        tel.on_event(&RunEvent::Failed {
            job: &failed,
            now,
            in_flight: 1,
        });
        let reg = tel.registry();
        assert_eq!(reg.counter_value(tel.c_admitted), 2);
        assert_eq!(reg.counter_value(tel.c_shed), 1);
        assert_eq!(reg.counter_value(tel.c_failed), 1);
        assert_eq!(reg.counter_value(tel.c_completed), 0);
        apt_telemetry::validate(&tel.prometheus()).unwrap();
    }

    /// Latency is observed for every retired job, tardiness only for jobs
    /// with a deadline, and a miss only for a positive tardiness.
    #[test]
    fn retirements_feed_latency_tardiness_and_misses() {
        let mut tel = StreamTelemetry::new();
        let done = job(false);
        for tardiness in [None, Some(SimDuration::ZERO), Some(SimDuration::from_ms(5))] {
            tel.on_event(&RunEvent::Retired {
                job: &done,
                now: SimTime::from_ms(40),
                in_flight: 0,
                latency: SimDuration::from_ms(12),
                tardiness,
            });
        }
        let reg = tel.registry();
        assert_eq!(reg.counter_value(tel.c_completed), 3);
        assert_eq!(reg.counter_value(tel.c_misses), 1);
        assert_eq!(reg.histogram_ref(tel.h_latency).count(), 3);
        assert_eq!(reg.histogram_ref(tel.h_tardiness).count(), 2);
    }

    #[test]
    fn the_end_event_sets_the_clock_and_in_flight_gauges() {
        let mut tel = StreamTelemetry::new();
        tel.on_event(&RunEvent::End {
            now: SimTime::from_ms(2_500),
            retired: 10,
            in_flight: 3,
            miss_rate: 0.0,
            trace: None,
        });
        let reg = tel.registry();
        assert_eq!(reg.gauge_value(tel.g_sim), 2.5);
        assert_eq!(reg.gauge_value(tel.g_in_flight), 3.0);
        assert_eq!(reg.counter_value(tel.c_trace_events), 0);
    }

    /// JSON has no literal for NaN or ±∞.
    #[test]
    fn non_finite_values_render_as_null() {
        assert_eq!(finite(2.5), "2.5");
        assert_eq!(finite(f64::NAN), "null");
        assert_eq!(finite(f64::INFINITY), "null");
        assert_eq!(finite(f64::NEG_INFINITY), "null");
    }
}
