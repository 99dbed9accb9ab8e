//! The `--progress` stderr heartbeat for soak runs.
//!
//! A [`Heartbeat`] is wall-clock throttled (default one line per
//! 200 ms) and renders through [`render_heartbeat`], a pure function so
//! the degenerate cases — zero elapsed time, zero jobs, no target —
//! are unit-testable without sleeping. Rate and ETA never divide by
//! zero: a first-window or zero-duration tick reports `0 jobs/s` and an
//! unknown ETA, the same convention as `StreamOutcome::throughput_jps`
//! on zero-duration runs.

use std::time::{Duration, Instant};

/// Render one heartbeat line.
///
/// Degenerate inputs are safe by construction: `elapsed == 0` or
/// `jobs_done == 0` yields a `0` rate and an unknown (`?`) ETA; a
/// reached-or-exceeded target yields ETA `0s`. Never panics, never
/// divides by zero.
#[allow(clippy::too_many_arguments)]
pub fn render_heartbeat(
    elapsed: Duration,
    jobs_done: u64,
    target_jobs: Option<u64>,
    in_flight: usize,
    miss_rate: f64,
    alpha: Option<f64>,
    rho: Option<f64>,
    sim_seconds: f64,
) -> String {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 && jobs_done > 0 {
        jobs_done as f64 / secs
    } else {
        0.0
    };
    let done = match target_jobs {
        Some(t) => format!("{jobs_done}/{t}"),
        None => format!("{jobs_done}"),
    };
    let eta = match target_jobs {
        Some(t) if jobs_done >= t => "0s".to_string(),
        Some(t) if rate > 0.0 => format_secs((t - jobs_done) as f64 / rate),
        _ => "?".to_string(),
    };
    let alpha = alpha.map_or_else(|| "-".to_string(), |a| format!("{a:.2}"));
    let rho = rho.map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
    format!(
        "[{}] {done} jobs | {rate:.0} jobs/s | in-flight {in_flight} | miss {:.1}% | alpha {alpha} | rho {rho} | sim {sim_seconds:.1}s | eta {eta}",
        format_secs(secs),
        miss_rate * 100.0,
    )
}

fn format_secs(s: f64) -> String {
    if !s.is_finite() || s < 0.0 {
        return "?".to_string();
    }
    if s >= 3600.0 {
        format!(
            "{}h{:02}m",
            (s / 3600.0) as u64,
            ((s % 3600.0) / 60.0) as u64
        )
    } else if s >= 60.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!("{s:.0}s")
    }
}

/// Wall-clock throttled progress reporter. Call [`Heartbeat::tick`]
/// as often as convenient (per completion batch, per window); it
/// returns a rendered line at most once per `min_gap`.
#[derive(Debug)]
pub struct Heartbeat {
    start: Instant,
    last: Option<Instant>,
    min_gap: Duration,
    target: Option<u64>,
}

impl Heartbeat {
    /// A heartbeat counting toward `target_jobs` (ETA needs a target;
    /// pass `None` for open-ended runs).
    pub fn new(target_jobs: Option<u64>) -> Self {
        Self::with_min_gap(target_jobs, Duration::from_millis(200))
    }

    /// [`Heartbeat::new`] with an explicit throttle interval.
    pub fn with_min_gap(target_jobs: Option<u64>, min_gap: Duration) -> Self {
        Self {
            start: Instant::now(),
            last: None,
            min_gap,
            target: target_jobs,
        }
    }

    /// Render a line if at least `min_gap` of wall-clock has passed since
    /// the last one (see [`render_heartbeat`] for the formatting and the
    /// division-by-zero guarantees).
    pub fn tick(
        &mut self,
        jobs_done: u64,
        in_flight: usize,
        miss_rate: f64,
        alpha: Option<f64>,
        rho: Option<f64>,
        sim_seconds: f64,
    ) -> Option<String> {
        if self.last.is_some_and(|t| t.elapsed() < self.min_gap) {
            return None;
        }
        self.last = Some(Instant::now());
        Some(render_heartbeat(
            self.start.elapsed(),
            jobs_done,
            self.target,
            in_flight,
            miss_rate,
            alpha,
            rho,
            sim_seconds,
        ))
    }

    /// Render a final line unconditionally (run completion).
    pub fn finish(
        &mut self,
        jobs_done: u64,
        in_flight: usize,
        miss_rate: f64,
        sim_seconds: f64,
    ) -> String {
        self.last = Some(Instant::now());
        render_heartbeat(
            self.start.elapsed(),
            jobs_done,
            self.target,
            in_flight,
            miss_rate,
            None,
            None,
            sim_seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Satellite regression tests: the heartbeat math mirrors the
    // zero-duration guard on `StreamOutcome::throughput_jps` — no
    // division by zero on the first window or a zero-duration run.
    #[test]
    fn zero_elapsed_reports_zero_rate_and_unknown_eta() {
        let line = render_heartbeat(Duration::ZERO, 0, Some(100), 0, 0.0, None, None, 0.0);
        assert!(line.contains("0 jobs/s"), "{line}");
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn zero_jobs_with_elapsed_time_reports_zero_rate() {
        let line = render_heartbeat(
            Duration::from_secs(5),
            0,
            Some(100),
            3,
            0.0,
            None,
            None,
            1.0,
        );
        assert!(line.contains("0 jobs/s"), "{line}");
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn reached_target_reports_zero_eta_even_at_zero_elapsed() {
        let line = render_heartbeat(Duration::ZERO, 100, Some(100), 0, 0.0, None, None, 2.0);
        assert!(line.contains("eta 0s"), "{line}");
    }

    #[test]
    fn steady_state_eta_is_finite() {
        let line = render_heartbeat(
            Duration::from_secs(10),
            100,
            Some(300),
            5,
            0.25,
            Some(4.0),
            Some(0.9),
            42.0,
        );
        assert!(line.contains("10 jobs/s"), "{line}");
        assert!(line.contains("eta 20s"), "{line}");
        assert!(line.contains("miss 25.0%"), "{line}");
        assert!(line.contains("alpha 4.00"), "{line}");
        assert!(line.contains("rho 0.90"), "{line}");
    }

    #[test]
    fn no_target_formats_bare_count() {
        let line = render_heartbeat(Duration::from_secs(1), 7, None, 1, 0.0, None, None, 0.5);
        assert!(line.contains(" 7 jobs "), "{line}");
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn throttle_suppresses_back_to_back_ticks() {
        let mut hb = Heartbeat::with_min_gap(Some(10), Duration::from_secs(3600));
        assert!(hb.tick(1, 0, 0.0, None, None, 0.0).is_some());
        assert!(hb.tick(2, 0, 0.0, None, None, 0.0).is_none());
        // finish() always renders.
        assert!(hb.finish(10, 0, 0.0, 1.0).contains("10/10"));
    }

    #[test]
    fn long_durations_format_in_minutes_and_hours() {
        assert_eq!(format_secs(75.0), "1m15s");
        assert_eq!(format_secs(3700.0), "1h01m");
        assert_eq!(format_secs(f64::INFINITY), "?");
    }
}
