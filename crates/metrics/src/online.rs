//! Online (streaming) metrics for open-system runs.
//!
//! Closed-world metrics ([`crate::RunSummary`]) post-process a complete
//! trace. A million-job open stream never materializes one, so this module
//! accumulates everything incrementally, in memory independent of the
//! job count.
//!
//! [`OnlineMetrics`] is the aggregator the streaming driver feeds: per-job
//! latency quantiles and means, λ-delay totals, sliding-window throughput
//! and per-processor utilization, time-weighted queue-depth tracking, and
//! the SLO axis (deadline-miss counts per window and tardiness quantiles
//! over deadline-carrying jobs), emitted as periodic [`StreamSnapshot`]s.
//!
//! Latency and tardiness quantiles come from one log-bucketed
//! [`LogHistogram`] each (`apt-telemetry`'s, at [`QUANTILE_GAMMA`]): every
//! reported quantile is within γ of the exact nearest-rank sample, and two
//! histograms over disjoint streams merge bucket-wise into the histogram
//! of the combined stream.
//!
//! Everything here is deterministic given the observation sequence; the
//! estimators use `f64` only for reporting-grade quantities (quantiles,
//! utilization fractions), never for simulation state.

use apt_base::{SimDuration, SimTime};
use apt_hetsim::{LogHistogram, ProcStats};
use serde::{Deserialize, Serialize};

/// Relative error bound γ of every latency and tardiness quantile
/// [`OnlineMetrics`] reports: each estimate is within 1% of the sample at
/// its nearest rank `⌈q·n⌉`.
pub const QUANTILE_GAMMA: f64 = 0.01;

/// One periodic snapshot of an open-stream run: the window covers
/// `(end − interval, end]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Window end (simulation clock).
    pub end: SimTime,
    /// Window length.
    pub interval: SimDuration,
    /// Jobs completed inside this window.
    pub window_jobs: u64,
    /// Jobs completed since the run started.
    pub total_jobs: u64,
    /// Window throughput, jobs per simulated second.
    pub throughput_jps: f64,
    /// Running job-latency quantile estimates (ms, arrival → last finish),
    /// each within [`QUANTILE_GAMMA`] of the exact nearest-rank sample.
    pub latency_p50_ms: f64,
    /// 90th percentile, ms.
    pub latency_p90_ms: f64,
    /// 99th percentile, ms.
    pub latency_p99_ms: f64,
    /// Time-weighted mean number of in-flight jobs over the window.
    pub mean_depth: f64,
    /// In-flight jobs at the window end.
    pub depth_now: usize,
    /// Deadline-carrying jobs that finished *tardy* inside this window.
    pub window_missed: u64,
    /// Deadline misses since the run started.
    pub total_missed: u64,
    /// Deadline-carrying jobs completed since the run started (the
    /// miss-rate denominator; zero when the stream is deadline-free).
    pub total_deadline_jobs: u64,
    /// Running tardiness P99 estimate over deadline-carrying jobs, ms
    /// (on-time completions contribute zero tardiness), within
    /// [`QUANTILE_GAMMA`].
    pub tardiness_p99_ms: f64,
    /// Per-processor busy+transfer fraction of the window.
    pub utilization: Vec<f64>,
    /// Jobs shed by the failure model inside this window (retry budget
    /// exhausted). Zero on fault-free runs.
    #[serde(default)]
    pub window_failed: u64,
    /// Failed jobs since the run started.
    #[serde(default)]
    pub total_failed: u64,
    /// Transient kernel failures injected inside this window.
    #[serde(default)]
    pub window_kernel_failures: u64,
    /// Kernel retries scheduled inside this window.
    #[serde(default)]
    pub window_retries: u64,
    /// Processor downtime accumulated inside this window, ns (summed over
    /// processors, so it can exceed the interval on multi-crash windows).
    #[serde(default)]
    pub window_down_ns: u64,
    /// Occupancy thrown away inside this window (killed attempts), ns.
    #[serde(default)]
    pub window_wasted_ns: u64,
    /// Fraction of this window's aggregate processor-time that was up:
    /// `1 − down/(procs × interval)`. Exactly 1.0 on fault-free runs.
    #[serde(default)]
    pub availability: f64,
    /// Jobs the driver admitted into the engine inside this window (the
    /// windowed shed-rate denominator, together with `window_shed`).
    #[serde(default)]
    pub window_admitted: u64,
    /// Arrivals shed *before* entering the system inside this window —
    /// admission-gate rejections plus overload sheds (failure-model sheds
    /// of admitted jobs are `window_failed`).
    #[serde(default)]
    pub window_shed: u64,
    /// Shed arrivals since the run started.
    #[serde(default)]
    pub total_shed: u64,
    /// Deadline-carrying jobs completed inside this window (the windowed
    /// miss-rate denominator).
    #[serde(default)]
    pub window_deadline_jobs: u64,
}

impl StreamSnapshot {
    /// Cumulative deadline-miss fraction at this snapshot (0 when no
    /// deadline-carrying job has completed).
    pub fn miss_rate(&self) -> f64 {
        if self.total_deadline_jobs == 0 {
            0.0
        } else {
            self.total_missed as f64 / self.total_deadline_jobs as f64
        }
    }

    /// *Windowed* miss fraction: tardy completions over deadline-carrying
    /// completions inside this window alone (0 when the window completed
    /// none). This is the signal `apt-control`'s AIMD setpoint tests —
    /// cumulative [`StreamSnapshot::miss_rate`] lags the live operating
    /// point by the whole history of the run.
    pub fn window_miss_rate(&self) -> f64 {
        if self.window_deadline_jobs == 0 {
            0.0
        } else {
            self.window_missed as f64 / self.window_deadline_jobs as f64
        }
    }

    /// *Windowed* shed fraction: shed arrivals over offered arrivals
    /// (`shed + admitted`) inside this window (0 when none were offered).
    pub fn window_shed_rate(&self) -> f64 {
        let offered = self.window_shed + self.window_admitted;
        if offered == 0 {
            0.0
        } else {
            self.window_shed as f64 / offered as f64
        }
    }
}

/// Streaming aggregator for open-system runs. Feed it every completed job
/// plus depth changes; poll [`OnlineMetrics::maybe_snapshot`] as the clock
/// advances. Memory is O(processors + snapshots), independent of job count.
#[derive(Debug, Clone)]
pub struct OnlineMetrics {
    interval: SimDuration,
    window_end: SimTime,
    // Job latency (ms) of every completed job; its count and sum are the
    // run's job total and latency sum.
    latency: LogHistogram,
    window_jobs: u64,
    lambda_total: SimDuration,
    // SLO axis: tardiness (ms) over deadline-carrying jobs (zero when on
    // time; count and sum as above) and miss counts, cumulative plus the
    // open window's share.
    tardiness: LogHistogram,
    deadline_misses: u64,
    window_misses: u64,
    // Time-weighted depth integral of the *oldest unemitted* window
    // (job·ns); integrals of further whole windows crossed by one time jump
    // queue up behind it. `depth_at` is the instant the integral has been
    // advanced to; `integral_end` the boundary `depth_integral` runs to.
    depth_integral: f64,
    depth_spill: std::collections::VecDeque<f64>,
    integral_end: SimTime,
    depth_at: SimTime,
    depth: usize,
    max_depth: usize,
    // Cumulative per-proc busy+transfer at the last snapshot boundary.
    last_busy_ns: Vec<u64>,
    // Failure axis: per-window + cumulative shed-job counts, and the
    // engine's cumulative fault counters as of "now" / the last boundary
    // (windows report the delta).
    window_failed: u64,
    total_failed: u64,
    fault_now: [u64; 4],
    fault_at_boundary: [u64; 4],
    // Admission axis: arrivals admitted/shed before entering the engine,
    // per window plus cumulative — the shed-rate signal controllers react
    // to (distinct from the failure-model sheds above).
    window_admitted: u64,
    window_shed: u64,
    total_shed: u64,
    window_deadline_jobs: u64,
    snapshots: Vec<StreamSnapshot>,
}

impl OnlineMetrics {
    /// An aggregator emitting one snapshot per `interval` of simulated
    /// time. Panics on a zero interval.
    pub fn new(interval: SimDuration, nprocs: usize) -> OnlineMetrics {
        assert!(!interval.is_zero(), "snapshot interval must be positive");
        OnlineMetrics {
            interval,
            window_end: SimTime::ZERO + interval,
            latency: LogHistogram::new(QUANTILE_GAMMA),
            window_jobs: 0,
            lambda_total: SimDuration::ZERO,
            tardiness: LogHistogram::new(QUANTILE_GAMMA),
            deadline_misses: 0,
            window_misses: 0,
            depth_integral: 0.0,
            depth_spill: std::collections::VecDeque::new(),
            integral_end: SimTime::ZERO + interval,
            depth_at: SimTime::ZERO,
            depth: 0,
            max_depth: 0,
            last_busy_ns: vec![0; nprocs],
            window_failed: 0,
            total_failed: 0,
            fault_now: [0; 4],
            fault_at_boundary: [0; 4],
            window_admitted: 0,
            window_shed: 0,
            total_shed: 0,
            window_deadline_jobs: 0,
            snapshots: Vec::new(),
        }
    }

    /// Record one job admitted into the engine (the windowed shed-rate
    /// denominator, together with [`OnlineMetrics::observe_job_shed`]).
    pub fn observe_job_admitted(&mut self) {
        self.window_admitted += 1;
    }

    /// Record one arrival shed *before* entering the system — an
    /// admission-gate rejection or an overload shed. Failure-model sheds
    /// of already-admitted jobs go through
    /// [`OnlineMetrics::observe_job_failed`] instead.
    pub fn observe_job_shed(&mut self) {
        self.window_shed += 1;
        self.total_shed += 1;
    }

    /// Shed arrivals observed so far.
    pub fn total_shed_jobs(&self) -> u64 {
        self.total_shed
    }

    /// Record one job shed by the failure model (retry budget exhausted).
    /// Failed jobs are excluded from the latency/tardiness estimators —
    /// they have no meaningful completion — and counted separately.
    pub fn observe_job_failed(&mut self) {
        self.total_failed += 1;
        self.window_failed += 1;
    }

    /// Update the engine's *cumulative* fault counters (transient kernel
    /// failures, retries, wasted occupancy ns, downtime ns) so the next
    /// snapshot can report this window's delta. Call before
    /// [`OnlineMetrics::maybe_snapshot`]; a fault-free run never needs to.
    pub fn note_fault_counters(
        &mut self,
        kernel_failures: u64,
        retries: u64,
        wasted_ns: u64,
        down_ns: u64,
    ) {
        self.fault_now = [kernel_failures, retries, wasted_ns, down_ns];
    }

    /// Failure-model job sheds observed so far.
    pub fn total_failed_jobs(&self) -> u64 {
        self.total_failed
    }

    /// Advance the depth integral to `now` and set the new depth.
    /// Instants are non-decreasing (the simulation clock). The integral is
    /// split at window boundaries, so a change observed past the open
    /// window's end credits each crossed window with exactly its own share
    /// — a window's `mean_depth` can never exceed the depth that was
    /// actually standing during it.
    pub fn observe_depth(&mut self, now: SimTime, depth: usize) {
        while now > self.integral_end {
            let dt = self.integral_end.saturating_since(self.depth_at);
            self.depth_integral += self.depth as f64 * dt.as_ns() as f64;
            self.depth_spill.push_back(self.depth_integral);
            self.depth_integral = 0.0;
            self.depth_at = self.integral_end;
            self.integral_end += self.interval;
        }
        let dt = now.saturating_since(self.depth_at);
        self.depth_integral += self.depth as f64 * dt.as_ns() as f64;
        self.depth_at = self.depth_at.max(now);
        self.depth = depth;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Record one completed job: its end-to-end latency (arrival → last
    /// finish) and the λ delay its kernels accumulated.
    pub fn observe_job(&mut self, latency: SimDuration, lambda: SimDuration) {
        self.latency.observe(latency.as_ms_f64());
        self.lambda_total += lambda;
        self.window_jobs += 1;
    }

    /// Record the tardiness of one completed *deadline-carrying* job:
    /// `finish − deadline`, saturated at zero when the deadline was met.
    /// Call it only for jobs that carry a deadline — deadline-free jobs
    /// must not dilute the miss-rate denominator.
    pub fn observe_tardiness(&mut self, tardiness: SimDuration) {
        self.tardiness.observe(tardiness.as_ms_f64());
        self.window_deadline_jobs += 1;
        if !tardiness.is_zero() {
            self.deadline_misses += 1;
            self.window_misses += 1;
        }
    }

    /// Emit every snapshot whose window closed at or before `now`.
    /// `proc_stats` are the engine's *cumulative* per-processor aggregates;
    /// utilization is the per-window delta. Returns how many snapshots were
    /// appended (all but the last of a multi-window gap cover idle windows).
    pub fn maybe_snapshot(&mut self, now: SimTime, proc_stats: &[ProcStats]) -> usize {
        let mut emitted = 0;
        // Bring the depth integral up to `now` (no depth change): every
        // window about to be emitted gets its exact share, queued in order.
        self.observe_depth(now, self.depth);
        while now >= self.window_end {
            let end = self.window_end;
            let window_integral = match self.depth_spill.pop_front() {
                Some(i) => i,
                None => {
                    // `now` sits exactly on the boundary: the open integral
                    // covers this whole window. Close it by hand.
                    debug_assert_eq!(self.integral_end, end);
                    let i = self.depth_integral;
                    self.depth_integral = 0.0;
                    self.depth_at = end;
                    self.integral_end = end + self.interval;
                    i
                }
            };
            self.close_window(end, self.interval, window_integral, proc_stats);
            self.window_end = end + self.interval;
            emitted += 1;
        }
        emitted
    }

    /// Append one snapshot covering the `span` ending at `end`, from the
    /// current window counters and the given depth integral, then reset the
    /// per-window state. Shared by the whole-window path
    /// ([`OnlineMetrics::maybe_snapshot`]) and the end-of-stream partial
    /// flush ([`OnlineMetrics::flush_partial`]).
    fn close_window(
        &mut self,
        end: SimTime,
        span: SimDuration,
        window_integral: f64,
        proc_stats: &[ProcStats],
    ) {
        let span_ns = span.as_ns() as f64;
        let busy_now: Vec<u64> = proc_stats
            .iter()
            .map(|s| (s.busy + s.transfer).as_ns())
            .collect();
        // Cumulative busy time can only be apportioned to the window it
        // was *observed* in; with multi-window gaps the delta lands in
        // the first window of the gap, which slightly front-loads
        // utilization but never loses any.
        let utilization: Vec<f64> = busy_now
            .iter()
            .zip(&self.last_busy_ns)
            .map(|(now_ns, last_ns)| (now_ns - last_ns) as f64 / span_ns)
            .collect();
        self.last_busy_ns = busy_now;
        let (p50, p90, p99) = self.latency_quantiles_ms();
        let [failures, retries, wasted, down] = self.fault_now;
        let [b_failures, b_retries, b_wasted, b_down] = self.fault_at_boundary;
        let nprocs = self.last_busy_ns.len().max(1);
        let window_down_ns = down - b_down;
        self.fault_at_boundary = self.fault_now;
        self.snapshots.push(StreamSnapshot {
            end,
            interval: span,
            window_jobs: self.window_jobs,
            total_jobs: self.total_jobs(),
            throughput_jps: self.window_jobs as f64 / span.as_secs_f64(),
            latency_p50_ms: p50,
            latency_p90_ms: p90,
            latency_p99_ms: p99,
            mean_depth: window_integral / span_ns,
            depth_now: self.depth,
            window_missed: self.window_misses,
            total_missed: self.deadline_misses,
            total_deadline_jobs: self.deadline_jobs(),
            tardiness_p99_ms: quantile(&self.tardiness, 0.99),
            utilization,
            window_failed: self.window_failed,
            total_failed: self.total_failed,
            window_kernel_failures: failures - b_failures,
            window_retries: retries - b_retries,
            window_down_ns,
            window_wasted_ns: wasted - b_wasted,
            availability: 1.0 - (window_down_ns as f64 / (nprocs as f64 * span_ns)).min(1.0),
            window_admitted: self.window_admitted,
            window_shed: self.window_shed,
            total_shed: self.total_shed,
            window_deadline_jobs: self.window_deadline_jobs,
        });
        self.window_jobs = 0;
        self.window_misses = 0;
        self.window_failed = 0;
        self.window_admitted = 0;
        self.window_shed = 0;
        self.window_deadline_jobs = 0;
    }

    /// Close the final **partial** window at stream end: emit one snapshot
    /// covering `(last boundary, now]` so window-driven consumers and the
    /// CSV exporters see the tail of the run. Whole windows still pending
    /// at `now` are flushed first, exactly as by
    /// [`OnlineMetrics::maybe_snapshot`]. A run ending exactly on a window
    /// boundary (or before any time elapsed in the open window) emits no
    /// extra snapshot — the tail would be empty. The partial snapshot's
    /// `interval` is the actual covered span, shorter than the configured
    /// interval; rate-like fields (throughput, utilization, mean depth,
    /// availability) are normalized over it. Returns how many snapshots
    /// were appended, tail included. Terminal: feed no more observations
    /// after flushing.
    pub fn flush_partial(&mut self, now: SimTime, proc_stats: &[ProcStats]) -> usize {
        let mut emitted = self.maybe_snapshot(now, proc_stats);
        let span = self.interval - self.window_end.saturating_since(now);
        if span.is_zero() {
            return emitted;
        }
        // `maybe_snapshot` advanced the depth integral to `now`; with
        // `now < window_end` nothing spilled, so the open integral is
        // exactly this partial window's share.
        debug_assert!(self.depth_spill.is_empty());
        let window_integral = self.depth_integral;
        self.depth_integral = 0.0;
        self.depth_at = now;
        self.close_window(now, span, window_integral, proc_stats);
        emitted += 1;
        emitted
    }

    /// Snapshots emitted so far, in window order.
    pub fn snapshots(&self) -> &[StreamSnapshot] {
        &self.snapshots
    }

    /// End of the currently open window — the earliest instant at which
    /// [`OnlineMetrics::maybe_snapshot`] would emit. Lets callers skip the
    /// (allocating) `proc_stats` snapshot argument on steps that cannot
    /// close a window.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Jobs observed so far.
    pub fn total_jobs(&self) -> u64 {
        self.latency.count()
    }

    /// Mean end-to-end job latency (ms) over the whole run.
    pub fn mean_latency_ms(&self) -> f64 {
        mean(&self.latency)
    }

    /// Running latency quantile estimates `(p50, p90, p99)` in ms, each
    /// within [`QUANTILE_GAMMA`] of the exact nearest-rank sample (0 while
    /// no job has completed).
    pub fn latency_quantiles_ms(&self) -> (f64, f64, f64) {
        (
            quantile(&self.latency, 0.50),
            quantile(&self.latency, 0.90),
            quantile(&self.latency, 0.99),
        )
    }

    /// Total λ delay accumulated by every completed job's kernels.
    pub fn lambda_total(&self) -> SimDuration {
        self.lambda_total
    }

    /// Deadline-carrying jobs observed so far.
    pub fn deadline_jobs(&self) -> u64 {
        self.tardiness.count()
    }

    /// Deadline-carrying jobs that finished tardy.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Fraction of deadline-carrying jobs that missed (0 when none carried
    /// deadlines).
    pub fn miss_rate(&self) -> f64 {
        match self.deadline_jobs() {
            0 => 0.0,
            n => self.deadline_misses as f64 / n as f64,
        }
    }

    /// Running tardiness quantile estimates `(p50, p99)` in ms over
    /// deadline-carrying jobs (on-time jobs contribute zero), each within
    /// [`QUANTILE_GAMMA`] of the exact nearest-rank sample.
    pub fn tardiness_quantiles_ms(&self) -> (f64, f64) {
        (
            quantile(&self.tardiness, 0.50),
            quantile(&self.tardiness, 0.99),
        )
    }

    /// Mean tardiness (ms) over deadline-carrying jobs.
    pub fn mean_tardiness_ms(&self) -> f64 {
        mean(&self.tardiness)
    }

    /// Most jobs ever in flight (as observed through `observe_depth`).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

/// Quantile `q` of `h`, or 0 while it is empty.
fn quantile(h: &LogHistogram, q: f64) -> f64 {
    h.quantile(q).unwrap_or(0.0)
}

/// Mean of the samples `h` observed, or 0 while it is empty. Its samples
/// are never negative, so the histogram's positive-sample sum is their
/// whole sum.
fn mean(h: &LogHistogram) -> f64 {
    match h.count() {
        0 => 0.0,
        n => h.sum() / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile over a slice (nearest-rank), for cross-checking.
    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// `got` is within γ of `exact` (relative), with float slack.
    fn within_gamma(got: f64, exact: f64) -> bool {
        (got - exact).abs() <= exact.abs() * QUANTILE_GAMMA * (1.0 + 1e-9)
    }

    /// Every small count stays within γ of the exact nearest-rank quantile
    /// for every reported q, ties included; an empty aggregator reports 0.
    #[test]
    fn small_samples_are_within_gamma_of_nearest_rank() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        assert_eq!(m.latency_quantiles_ms(), (0.0, 0.0, 0.0));
        let samples = [7.0, 1.0, 9.0, 3.0, 5.0, 3.0, 3.0];
        for n in 1..=samples.len() {
            m.observe_job(
                SimDuration::from_ns((samples[n - 1] * 1e6) as u64),
                SimDuration::ZERO,
            );
            let (p50, p90, p99) = m.latency_quantiles_ms();
            for (q, got) in [(0.5, p50), (0.9, p90), (0.99, p99)] {
                let exact = exact_quantile(&samples[..n], q);
                assert!(within_gamma(got, exact), "q={q} n={n}: {got} vs {exact}");
            }
        }
    }

    /// On-time deadline jobs land in the histogram's zero bucket, so a
    /// mostly-on-time stream reports a tardiness median of exactly 0, and
    /// the tail is still within γ.
    #[test]
    fn on_time_jobs_report_zero_tardiness_exactly() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        for _ in 0..90 {
            m.observe_tardiness(SimDuration::ZERO);
        }
        for ms in 1..=10 {
            m.observe_tardiness(SimDuration::from_ms(ms));
        }
        let mut all = vec![0.0; 90];
        all.extend((1..=10).map(f64::from));
        let (p50, p99) = m.tardiness_quantiles_ms();
        assert_eq!(p50, 0.0);
        let exact = exact_quantile(&all, 0.99);
        assert!(within_gamma(p99, exact), "p99 {p99} vs {exact}");
        assert_eq!(m.deadline_misses(), 10);
        assert!((m.mean_tardiness_ms() - 0.55).abs() < 1e-12);
    }

    /// The job total and latency mean come from the latency histogram's
    /// count and sum: zero-latency jobs count, and the mean is exact.
    #[test]
    fn totals_and_means_are_exact() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        assert_eq!(m.mean_latency_ms(), 0.0);
        for ms in [0, 2, 4, 10] {
            m.observe_job(SimDuration::from_ms(ms), SimDuration::from_ms(1));
        }
        assert_eq!(m.total_jobs(), 4);
        assert_eq!(m.mean_latency_ms(), 4.0);
        assert_eq!(m.lambda_total(), SimDuration::from_ms(4));
    }

    /// Snapshot quantiles are the running estimates over every job so
    /// far, not over the window alone.
    #[test]
    fn snapshot_quantiles_are_cumulative() {
        let stats = [ProcStats::default()];
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        for ms in 1..=10 {
            m.observe_job(SimDuration::from_ms(ms), SimDuration::ZERO);
            m.observe_tardiness(SimDuration::from_ms(ms));
        }
        m.maybe_snapshot(SimTime::from_ms(100), &stats);
        for ms in 101..=110 {
            m.observe_job(SimDuration::from_ms(ms), SimDuration::ZERO);
            m.observe_tardiness(SimDuration::from_ms(ms));
        }
        m.maybe_snapshot(SimTime::from_ms(200), &stats);
        let [first, second] = m.snapshots() else {
            panic!("two windows closed");
        };
        assert!(within_gamma(first.latency_p99_ms, 10.0));
        // Twenty jobs in all: the median is the 10th, the tail the 20th.
        assert!(within_gamma(second.latency_p50_ms, 10.0));
        assert!(within_gamma(second.latency_p99_ms, 110.0));
        assert!(within_gamma(second.tardiness_p99_ms, 110.0));
        let (p50, p90, p99) = m.latency_quantiles_ms();
        assert_eq!(
            (
                second.latency_p50_ms,
                second.latency_p90_ms,
                second.latency_p99_ms
            ),
            (p50, p90, p99)
        );
        assert_eq!(second.tardiness_p99_ms, m.tardiness_quantiles_ms().1);
    }

    #[test]
    fn snapshots_cover_windows_and_depth_integral() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 2);
        // One job in flight for the first half of window 1.
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_depth(SimTime::from_ms(50), 0);
        m.observe_job(SimDuration::from_ms(50), SimDuration::from_ms(5));
        let stats = vec![
            ProcStats {
                busy: SimDuration::from_ms(40),
                transfer: SimDuration::from_ms(10),
                kernels: 1,
            },
            ProcStats::default(),
        ];
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        // Nothing new: same instant emits nothing further.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 0);
        let s = &m.snapshots()[0];
        assert_eq!(s.end, SimTime::from_ms(100));
        assert_eq!(s.window_jobs, 1);
        assert_eq!(s.total_jobs, 1);
        assert!((s.throughput_jps - 10.0).abs() < 1e-9);
        assert!((s.mean_depth - 0.5).abs() < 1e-9);
        assert!((s.utilization[0] - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization[1], 0.0);
        assert_eq!(s.depth_now, 0);
        // A big time jump emits one snapshot per elapsed window.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(350), &stats), 2);
        assert_eq!(m.snapshots().len(), 3);
        assert_eq!(m.snapshots()[2].window_jobs, 0);
        assert_eq!(m.lambda_total(), SimDuration::from_ms(5));
        assert_eq!(m.max_depth(), 1);
        assert!((m.mean_latency_ms() - 50.0).abs() < 1e-9);
    }

    /// A depth observation landing *past* the open window's end must split
    /// its time across the crossed windows: no window's mean depth can
    /// exceed the depth that actually stood during it, and no window's time
    /// is silently zeroed.
    #[test]
    fn depth_integral_splits_at_window_boundaries() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        // Depth 1 from t = 0; the next event lands at t = 250 ms, two and a
        // half windows later.
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_depth(SimTime::from_ms(250), 0);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(250), &stats), 2);
        let s = m.snapshots();
        assert!(
            (s[0].mean_depth - 1.0).abs() < 1e-9,
            "window 1: {}",
            s[0].mean_depth
        );
        assert!(
            (s[1].mean_depth - 1.0).abs() < 1e-9,
            "window 2: {}",
            s[1].mean_depth
        );
        // The half-window [200, 250] of depth-1 time stays in the open
        // window and surfaces in window 3.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(300), &stats), 1);
        assert!(
            (m.snapshots()[2].mean_depth - 0.5).abs() < 1e-9,
            "window 3: {}",
            m.snapshots()[2].mean_depth
        );
        // Sanity: boundary-exact closes still work (no spill entry).
        m.observe_depth(SimTime::from_ms(350), 2);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(400), &stats), 1);
        assert!((m.snapshots()[3].mean_depth - 1.0).abs() < 1e-9);
    }

    /// An observation landing exactly ON the open window's boundary must
    /// not spill: the `>` guard keeps the integral in the open window, and
    /// the boundary-exact close path in `maybe_snapshot` drains it by hand.
    #[test]
    fn boundary_exact_depth_observation_does_not_spill() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        m.observe_depth(SimTime::ZERO, 2);
        // Exactly at the boundary: whole window at depth 2, no spill entry.
        m.observe_depth(SimTime::from_ms(100), 1);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        assert!((m.snapshots()[0].mean_depth - 2.0).abs() < 1e-9);
        // The following window starts from the new depth.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        assert!((m.snapshots()[1].mean_depth - 1.0).abs() < 1e-9);
    }

    /// Deadline accounting: misses land in the window they completed in,
    /// `window_missed` resets per window, cumulative counters and the
    /// tardiness quantiles keep running.
    #[test]
    fn miss_counts_split_per_window() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        // Window 1: two deadline jobs, one tardy.
        m.observe_job(SimDuration::from_ms(40), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::ZERO);
        m.observe_job(SimDuration::from_ms(60), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(25));
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        let s = &m.snapshots()[0];
        assert_eq!(s.window_missed, 1);
        assert_eq!(s.total_missed, 1);
        assert_eq!(s.total_deadline_jobs, 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-9);
        // Window 2: one more miss; window counter restarted.
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(5));
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        let s = &m.snapshots()[1];
        assert_eq!(s.window_missed, 1);
        assert_eq!(s.total_missed, 2);
        assert_eq!(s.total_deadline_jobs, 3);
        // A multi-window idle gap emits zero-miss windows without
        // disturbing the cumulative counts.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(450), &stats), 2);
        for s in &m.snapshots()[2..] {
            assert_eq!(s.window_missed, 0);
            assert_eq!(s.total_missed, 2);
        }
        assert_eq!(m.deadline_jobs(), 3);
        assert_eq!(m.deadline_misses(), 2);
        assert!((m.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
        // Tardiness stats: within γ of the nearest-rank quantiles of
        // {0, 25, 5}.
        let (p50, p99) = m.tardiness_quantiles_ms();
        assert!(within_gamma(p50, 5.0), "p50 {p50}");
        assert!(within_gamma(p99, 25.0), "p99 {p99}");
        assert!((m.mean_tardiness_ms() - 10.0).abs() < 1e-9);
    }

    /// Satellite regression: a run ending mid-window flushes the tail as a
    /// partial snapshot whose `interval` is the actual covered span, with
    /// rates normalized over it — and a run ending exactly on a boundary
    /// flushes nothing extra.
    #[test]
    fn flush_partial_emits_the_tail_window_once() {
        let stats = vec![ProcStats {
            busy: SimDuration::from_ms(25),
            transfer: SimDuration::ZERO,
            kernels: 1,
        }];
        // Mid-window end: one full window, then 50 ms of tail at depth 1
        // with one completion.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        assert_eq!(
            m.maybe_snapshot(SimTime::from_ms(100), &[ProcStats::default()]),
            1
        );
        m.observe_job(SimDuration::from_ms(20), SimDuration::ZERO);
        assert_eq!(m.flush_partial(SimTime::from_ms(150), &stats), 1);
        let s = m.snapshots().last().unwrap();
        assert_eq!(s.end, SimTime::from_ms(150));
        assert_eq!(s.interval, SimDuration::from_ms(50), "partial span");
        assert_eq!(s.window_jobs, 1);
        assert_eq!(s.total_jobs, 2);
        assert!((s.throughput_jps - 20.0).abs() < 1e-9, "1 job / 50 ms");
        assert!((s.mean_depth - 1.0).abs() < 1e-9);
        assert!((s.utilization[0] - 0.5).abs() < 1e-9, "25 ms busy / 50 ms");
        assert_eq!(s.availability, 1.0);

        // Boundary-exact end: the whole-window snapshot already covered the
        // run; the flush must not append an empty duplicate.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        assert_eq!(
            m.flush_partial(SimTime::from_ms(200), &[ProcStats::default()]),
            2
        );
        assert_eq!(m.snapshots().len(), 2);
        assert_eq!(m.snapshots()[1].end, SimTime::from_ms(200));
        assert_eq!(m.snapshots()[1].interval, SimDuration::from_ms(100));
        // A zero-duration run has no tail either.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        assert_eq!(m.flush_partial(SimTime::ZERO, &[ProcStats::default()]), 0);
    }

    /// The admission axis: admitted/shed counts split per window, the
    /// windowed miss/shed rates read from the window's own counters, and
    /// cumulative sheds keep running.
    #[test]
    fn admission_counters_split_per_window() {
        let stats = vec![ProcStats::default()];
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        for _ in 0..3 {
            m.observe_job_admitted();
        }
        m.observe_job_shed();
        // One deadline job completes tardy, one on time.
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(5));
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::ZERO);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        let s = &m.snapshots()[0];
        assert_eq!(s.window_admitted, 3);
        assert_eq!(s.window_shed, 1);
        assert_eq!(s.total_shed, 1);
        assert_eq!(s.window_deadline_jobs, 2);
        assert!((s.window_shed_rate() - 0.25).abs() < 1e-9);
        assert!((s.window_miss_rate() - 0.5).abs() < 1e-9);
        // Next window: counters restarted, cumulative sheds kept.
        m.observe_job_shed();
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        let s = &m.snapshots()[1];
        assert_eq!(s.window_admitted, 0);
        assert_eq!(s.window_shed, 1);
        assert_eq!(s.total_shed, 2);
        assert_eq!(s.window_deadline_jobs, 0);
        assert_eq!(s.window_miss_rate(), 0.0, "no deadline completions");
        assert_eq!(m.total_shed_jobs(), 2);
    }

    /// Deadline-free streams never contribute to the SLO counters.
    #[test]
    fn deadline_free_jobs_leave_slo_counters_untouched() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_job(SimDuration::from_ms(40), SimDuration::ZERO);
        assert_eq!(m.deadline_jobs(), 0);
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.mean_tardiness_ms(), 0.0);
        assert_eq!(m.tardiness_quantiles_ms(), (0.0, 0.0));
        let stats = vec![ProcStats::default()];
        m.maybe_snapshot(SimTime::from_ms(100), &stats);
        assert_eq!(m.snapshots()[0].total_deadline_jobs, 0);
        assert_eq!(m.snapshots()[0].miss_rate(), 0.0);
        assert_eq!(m.snapshots()[0].tardiness_p99_ms, 0.0);
    }
}
