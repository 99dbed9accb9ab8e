//! # apt-faults
//!
//! Deterministic fault injection for the APT simulators. The crate defines
//! *what can go wrong* — the engines in `apt-hetsim` decide what happens
//! next. Three fault classes are modelled, matching the degradations that
//! dominate tail behavior on production heterogeneous fleets:
//!
//! * **Transient kernel failures** — with probability `p`, a kernel
//!   execution fails partway through (at a uniformly sampled fraction of
//!   its service time) and must re-execute from scratch. The work already
//!   done is *wasted* and counted as such.
//! * **Processor crash / repair** — each processor fails after an
//!   exponentially distributed uptime (mean MTTF) and returns after an
//!   exponentially distributed repair (mean MTTR). A crash kills the
//!   in-flight kernel, drains the local queue back into the ready set, and
//!   masks the processor out of the availability set so no policy places
//!   work on it until repair.
//! * **Link degradation** — a topology pair's effective `LinkRate` is
//!   divided by a slowdown factor for an exponentially spaced interval,
//!   stretching transfers that start while the episode is active.
//!
//! ## RNG-stream isolation
//!
//! A [`FaultPlan`] owns its own SplitMix64 stream, salted with
//! [`FAULT_STREAM_SALT`] — exactly the discipline `apt-stream` uses for
//! deadline tagging. Turning faults on (or changing the fault seed) never
//! perturbs arrival times, deadlines, or workload-generation randomness,
//! so a faulty run and its fault-free twin see byte-identical offered
//! load. Conversely, [`FaultPlan::none()`] injects nothing and leaves the
//! engines on their existing code path: fault-free runs are byte-identical
//! to runs of the simulator before this crate existed.
//!
//! ## Retry semantics
//!
//! [`RetryPolicy`] governs what the streaming driver does when a kernel
//! fails: up to `max_attempts` executions per kernel, separated by
//! exponential backoff (`backoff_base × factor^(attempt-1)`, plus uniform
//! jitter drawn from the fault stream), and a per-job retry budget after
//! which the whole job is shed (graceful degradation) rather than wedging
//! the system. Kernels orphaned by a *crash* are re-dispatched through the
//! normal ready path without consuming an attempt — the processor failed,
//! not the kernel — which is precisely where APT's
//! alternative-processor-within-threshold choice becomes a failover
//! policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apt_base::{BaseError, ProcId, SimDuration};
use apt_dfg::SplitMix64;

/// The longest delay a fault setting may ask for: a mean time to failure,
/// to repair or between degradation episodes, an episode's length, or a
/// retry backoff base. 2^56 ns, about 2.3 years of simulated time. A
/// grown backoff is capped here too, and an exponential draw reaches at
/// most about 37 times its mean, so every fault event lands less than
/// 2^62 ns after the instant that drew it.
pub const MAX_FAULT_DELAY: SimDuration = SimDuration::from_ns(1 << 56);

/// Salt XORed into the fault seed so the fault stream never collides with
/// the workload, arrival, or deadline streams derived from the same base
/// seed.
pub const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0BAD_C0DE;

/// Transient-failure model: each kernel execution independently fails with
/// probability `prob`, at a uniformly sampled fraction of its service time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Per-execution failure probability in `[0, 1]`.
    pub prob: f64,
}

/// Crash/repair model: exponential uptimes (mean `mttf`) alternating with
/// exponential repairs (mean `mttr`), independently per processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Mean time to failure.
    pub mttf: SimDuration,
    /// Mean time to repair.
    pub mttr: SimDuration,
}

/// Link-degradation model: episodes arrive with exponential spacing (mean
/// `mtbf`) and last `duration`, during which the affected link rate is
/// divided by `slowdown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDegradeSpec {
    /// The directed pair to degrade, or `None` to degrade every link
    /// (uniform-rate systems and whole-fabric brownouts).
    pub pair: Option<(ProcId, ProcId)>,
    /// Rate divisor while an episode is active (`2` halves the bandwidth).
    /// Must be at least 1.
    pub slowdown: u32,
    /// Mean gap between the start of one episode and the next.
    pub mtbf: SimDuration,
    /// Fixed length of each episode.
    pub duration: SimDuration,
}

/// A seeded, deterministic description of every fault the run will see.
///
/// The plan is pure configuration (`Copy`); the engines turn it into a
/// [`FaultState`] holding the live RNG. [`FaultPlan::none()`] — also the
/// `Default` — injects nothing and is guaranteed not to perturb the
/// simulation in any way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the fault stream (salted with [`FAULT_STREAM_SALT`]).
    pub seed: u64,
    /// Transient kernel failures, if enabled.
    pub transient: Option<TransientSpec>,
    /// Processor crash/repair, if enabled.
    pub crash: Option<CrashSpec>,
    /// Link degradation, if enabled.
    pub degrade: Option<LinkDegradeSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical simulation.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            transient: None,
            crash: None,
            degrade: None,
        }
    }

    /// An empty plan carrying a seed, ready for builder calls.
    pub const fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient: None,
            crash: None,
            degrade: None,
        }
    }

    /// Enable transient kernel failures with per-execution probability
    /// `prob`.
    pub fn with_transient(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "failure probability in [0,1]");
        self.transient = Some(TransientSpec { prob });
        self
    }

    /// Enable processor crash/repair cycles.
    pub fn with_crashes(mut self, mttf: SimDuration, mttr: SimDuration) -> FaultPlan {
        assert!(mttf > SimDuration::ZERO, "MTTF must be positive");
        assert!(mttr > SimDuration::ZERO, "MTTR must be positive");
        self.crash = Some(CrashSpec { mttf, mttr });
        self
    }

    /// Enable link-degradation episodes.
    pub fn with_link_degrade(mut self, spec: LinkDegradeSpec) -> FaultPlan {
        assert!(spec.slowdown >= 1, "slowdown divisor must be at least 1");
        assert!(spec.mtbf > SimDuration::ZERO, "MTBF must be positive");
        self.degrade = Some(spec);
        self
    }

    /// True when the plan injects nothing (the engines skip all fault
    /// machinery and stay on the historical code path).
    pub fn is_none(&self) -> bool {
        self.transient.is_none() && self.crash.is_none() && self.degrade.is_none()
    }

    /// Check the plan and the retry policy it is armed with, before a run:
    /// no delay may exceed [`MAX_FAULT_DELAY`]. The engines call this where
    /// they validate the rest of a run. An empty plan never consults its
    /// retry policy, so it passes with any.
    pub fn validate(&self, retry: &RetryPolicy) -> Result<(), BaseError> {
        if self.is_none() {
            return Ok(());
        }
        let delays = [
            ("crash MTTF", self.crash.map(|c| c.mttf)),
            ("crash MTTR", self.crash.map(|c| c.mttr)),
            ("link-degrade MTBF", self.degrade.map(|d| d.mtbf)),
            ("link-degrade duration", self.degrade.map(|d| d.duration)),
            ("retry backoff base", Some(retry.backoff_base)),
        ];
        for (what, delay) in delays {
            if let Some(delay) = delay.filter(|&d| d > MAX_FAULT_DELAY) {
                return Err(BaseError::InvalidSystem {
                    reason: format!(
                        "{what} of {} ns exceeds the longest fault delay, {} ns",
                        delay.as_ns(),
                        MAX_FAULT_DELAY.as_ns()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Retry/backoff discipline for failed kernels in the streaming driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum executions per kernel (first try included). A kernel that
    /// fails `max_attempts` times has its job shed (open system) or ends
    /// the run with `RetriesExhausted` (closed system).
    pub max_attempts: u32,
    /// Backoff before attempt 2 (doubling — see `backoff_factor`). At
    /// most [`MAX_FAULT_DELAY`] ([`FaultPlan::validate`]).
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff per additional attempt.
    pub backoff_factor: u32,
    /// Total retries a single job may consume across all of its kernels
    /// before the job is shed.
    pub job_retry_budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_ms(1),
            backoff_factor: 2,
            job_retry_budget: 16,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: any kernel failure sheds the job.
    pub const fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: SimDuration::ZERO,
            backoff_factor: 1,
            job_retry_budget: 0,
        }
    }

    /// The policy with its degenerate fields clamped to their effective
    /// values — what the engines actually arm:
    ///
    /// * `backoff_factor: 0` clamps to 1 (constant backoff). The raw zero
    ///   used to collapse every backoff after the first retry to
    ///   jitter-only (`0^exp == 0` for `exp ≥ 1`), silently turning
    ///   exponential backoff into an immediate-retry storm.
    /// * `max_attempts: 0` clamps to 1 (a single attempt, no retries) —
    ///   zero executions is unsatisfiable: the kernel has already run by
    ///   the time the policy is consulted, so 0 always *behaved* as 1.
    ///   The clamp makes that pinned semantic explicit.
    ///
    /// The fields are public (sweep configs build policies as literals),
    /// so normalization happens where the policy is armed rather than at
    /// construction; call this before doing backoff arithmetic by hand.
    pub const fn normalized(self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: if self.max_attempts == 0 {
                1
            } else {
                self.max_attempts
            },
            backoff_base: self.backoff_base,
            backoff_factor: if self.backoff_factor == 0 {
                1
            } else {
                self.backoff_factor
            },
            job_retry_budget: self.job_retry_budget,
        }
    }
}

/// Running totals the engines accumulate while a plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Transient kernel failures injected.
    pub kernel_failures: u64,
    /// Re-executions scheduled after a transient failure.
    pub retries: u64,
    /// Processor crash events.
    pub crashes: u64,
    /// Processor repair events.
    pub repairs: u64,
    /// Kernels orphaned by a crash and re-dispatched.
    pub orphaned: u64,
    /// Jobs shed after exhausting their retry budget.
    pub jobs_failed: u64,
    /// Busy/transfer nanoseconds thrown away by failures and crashes.
    pub wasted_ns: u64,
    /// Processor-nanoseconds spent down (summed over processors).
    pub down_ns: u64,
}

/// Live fault stream: the plan plus its dedicated SplitMix64 generator.
///
/// All draws — failure coin flips, failure fractions, crash gaps, repair
/// times, degradation spacing, backoff jitter — come from this one stream,
/// in event order, so a given `(plan, workload)` pair replays identically.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
}

/// Uniform in `[0, 1)` with 53-bit resolution.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponentially distributed duration with the given mean, clamped to at
/// least 1 ns so consecutive events never collapse onto the same instant.
fn exp_ns(rng: &mut SplitMix64, mean: SimDuration) -> SimDuration {
    let u = unit(rng);
    let ns = -(1.0 - u).ln() * mean.as_ns() as f64;
    SimDuration::from_ns((ns as u64).max(1))
}

impl FaultState {
    /// Arm a plan: derive the salted fault stream from its seed.
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            rng: SplitMix64::new(plan.seed ^ FAULT_STREAM_SALT),
        }
    }

    /// The plan this state was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw the transient-failure outcome for one kernel execution:
    /// `Some(frac)` means the kernel fails after `frac` of its exec time
    /// (`frac` strictly inside `(0, 1)`), `None` means it runs to
    /// completion. Consumes exactly one draw when transients are enabled
    /// (two on failure), zero otherwise.
    pub fn transient_failure(&mut self) -> Option<f64> {
        let spec = self.plan.transient?;
        if unit(&mut self.rng) < spec.prob {
            // Keep the failure point strictly interior so the failed
            // attempt always wastes some work and never aliases a
            // legitimate completion instant.
            Some(unit(&mut self.rng).clamp(0.05, 0.95))
        } else {
            None
        }
    }

    /// Time from now until the given processor's next crash, if crashes
    /// are enabled.
    pub fn next_crash_gap(&mut self) -> Option<SimDuration> {
        let spec = self.plan.crash?;
        Some(exp_ns(&mut self.rng, spec.mttf))
    }

    /// Repair time for a crash that just happened. Panics if crashes are
    /// not enabled (the engine only asks after a crash it scheduled).
    pub fn repair_time(&mut self) -> SimDuration {
        let spec = self.plan.crash.expect("repair draw without a crash spec");
        exp_ns(&mut self.rng, spec.mttr)
    }

    /// Time from now until the next link-degradation episode begins.
    pub fn next_degrade_gap(&mut self) -> Option<SimDuration> {
        let spec = self.plan.degrade?;
        Some(exp_ns(&mut self.rng, spec.mtbf))
    }

    /// Backoff before retry number `attempt` (2 = first retry):
    /// `base × factor^(attempt-2)` plus uniform jitter in `[0, base]`,
    /// capped at [`MAX_FAULT_DELAY`] so that growth cannot outrun the clock.
    /// A `backoff_factor` of 0 is clamped to 1 ([`RetryPolicy::normalized`]):
    /// `0^exp` used to zero out every backoff past the first retry,
    /// silently degrading exponential backoff to jitter-only.
    pub fn backoff(&mut self, policy: &RetryPolicy, attempt: u32) -> SimDuration {
        let base = policy.backoff_base.as_ns();
        if base == 0 {
            return SimDuration::ZERO;
        }
        let exp = attempt.saturating_sub(2);
        let factor = (policy.backoff_factor as u64).max(1);
        let scaled = base.saturating_mul(factor.saturating_pow(exp));
        let jitter = self.rng.gen_range(base.saturating_add(1));
        SimDuration::from_ns(scaled.saturating_add(jitter)).min(MAX_FAULT_DELAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan, FaultPlan::default());
        let mut state = FaultState::new(plan);
        assert_eq!(state.transient_failure(), None);
        assert_eq!(state.next_crash_gap(), None);
        assert_eq!(state.next_degrade_gap(), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan::seeded(42)
            .with_transient(0.5)
            .with_crashes(SimDuration::from_ms(100), SimDuration::from_ms(10));
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        for _ in 0..100 {
            assert_eq!(a.transient_failure(), b.transient_failure());
            assert_eq!(a.next_crash_gap(), b.next_crash_gap());
        }
        // A different seed diverges.
        let mut c = FaultState::new(FaultPlan { seed: 43, ..plan });
        let same = (0..100).all(|_| {
            let (x, y) = (a.next_crash_gap(), c.next_crash_gap());
            x == y
        });
        assert!(!same, "distinct seeds must yield distinct fault streams");
    }

    #[test]
    fn transient_rate_tracks_probability() {
        let plan = FaultPlan::seeded(7).with_transient(0.25);
        let mut state = FaultState::new(plan);
        let fails = (0..10_000)
            .filter(|_| state.transient_failure().is_some())
            .count();
        assert!((2000..3000).contains(&fails), "observed {fails}/10000");
    }

    #[test]
    fn failure_fraction_is_interior() {
        let plan = FaultPlan::seeded(3).with_transient(1.0);
        let mut state = FaultState::new(plan);
        for _ in 0..1000 {
            let f = state.transient_failure().unwrap();
            assert!((0.05..=0.95).contains(&f));
        }
    }

    #[test]
    fn crash_gaps_average_near_mttf() {
        let mttf = SimDuration::from_ms(50);
        let plan = FaultPlan::seeded(11).with_crashes(mttf, SimDuration::from_ms(5));
        let mut state = FaultState::new(plan);
        let n = 20_000u64;
        let total: u64 = (0..n)
            .map(|_| state.next_crash_gap().unwrap().as_ns())
            .sum();
        let mean = total / n;
        let target = mttf.as_ns();
        assert!(
            mean > target / 2 && mean < target * 2,
            "mean gap {mean} ns vs MTTF {target} ns"
        );
    }

    #[test]
    fn backoff_grows_and_jitters_within_base() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base: SimDuration::from_ms(1),
            backoff_factor: 2,
            job_retry_budget: 16,
        };
        let mut state = FaultState::new(FaultPlan::seeded(1));
        let b2 = state.backoff(&policy, 2);
        let b3 = state.backoff(&policy, 3);
        let b4 = state.backoff(&policy, 4);
        let base = policy.backoff_base.as_ns();
        // attempt k waits base * 2^(k-2) + jitter in [0, base].
        assert!((base..=2 * base).contains(&b2.as_ns()));
        assert!((2 * base..=3 * base).contains(&b3.as_ns()));
        assert!((4 * base..=5 * base).contains(&b4.as_ns()));
        // Zero base short-circuits without consuming a draw.
        let quiet = RetryPolicy::no_retries();
        let mut s1 = state.clone();
        assert_eq!(state.backoff(&quiet, 2), SimDuration::ZERO);
        assert_eq!(
            state.next_crash_gap().is_none(),
            s1.next_crash_gap().is_none()
        );
    }

    /// Satellite regression: `backoff_factor: 0` used to collapse every
    /// backoff after the first retry to jitter-only (`0^exp == 0` for
    /// `exp ≥ 1`). It now clamps to factor 1 — constant `base + jitter` —
    /// so attempt 3+ can never wait *less* than attempt 2's floor.
    #[test]
    fn backoff_factor_zero_clamps_to_constant_backoff() {
        let broken = RetryPolicy {
            max_attempts: 5,
            backoff_base: SimDuration::from_ms(1),
            backoff_factor: 0,
            job_retry_budget: 16,
        };
        let base = broken.backoff_base.as_ns();
        let mut state = FaultState::new(FaultPlan::seeded(9));
        for attempt in 2..=5 {
            let b = state.backoff(&broken, attempt);
            assert!(
                (base..=2 * base).contains(&b.as_ns()),
                "attempt {attempt}: {} outside base..=2*base — the 0^exp collapse is back",
                b.as_ns()
            );
        }
        // The clamped-zero policy draws exactly what factor 1 would: the
        // two replay identically on the same stream.
        let one = RetryPolicy {
            backoff_factor: 1,
            ..broken
        };
        let mut a = FaultState::new(FaultPlan::seeded(9));
        let mut b = FaultState::new(FaultPlan::seeded(9));
        for attempt in 2..=5 {
            assert_eq!(a.backoff(&broken, attempt), b.backoff(&one, attempt));
        }
    }

    /// `normalized()` pins the degenerate-field semantics: factor 0 → 1,
    /// `max_attempts: 0` → 1 (zero executions is unsatisfiable — the
    /// kernel already ran when the policy is consulted), everything else
    /// untouched.
    #[test]
    fn normalized_clamps_degenerate_retry_fields() {
        let degenerate = RetryPolicy {
            max_attempts: 0,
            backoff_base: SimDuration::from_ms(2),
            backoff_factor: 0,
            job_retry_budget: 7,
        };
        let norm = degenerate.normalized();
        assert_eq!(norm.max_attempts, 1, "0 attempts behaves as no_retries");
        assert_eq!(norm.backoff_factor, 1);
        assert_eq!(norm.backoff_base, SimDuration::from_ms(2));
        assert_eq!(norm.job_retry_budget, 7);
        // Well-formed policies pass through unchanged.
        assert_eq!(RetryPolicy::default().normalized(), RetryPolicy::default());
        assert_eq!(
            RetryPolicy::no_retries().normalized(),
            RetryPolicy::no_retries()
        );
    }

    #[test]
    fn salt_separates_fault_stream_from_base_seed() {
        // The fault stream seeded with S must differ from a raw SplitMix64
        // stream seeded with S (which workload generation would use).
        let mut raw = SplitMix64::new(42);
        let mut faults = FaultState::new(FaultPlan::seeded(42).with_transient(1.0));
        let raw_draw = (raw.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fault_draw = faults.transient_failure().unwrap();
        assert_ne!(raw_draw, fault_draw);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn transient_prob_validated() {
        let _ = FaultPlan::seeded(0).with_transient(1.5);
    }
}
