//! Per-job deadline generators for arrival sources.
//!
//! An SLO study needs deadline-*tagged* work: every job carries a relative
//! deadline (finish within `D` of arrival) whose tightness is the swept
//! knob. [`DeadlineSpec`] describes how a source derives `D` for each job
//! it instantiates:
//!
//! * [`DeadlineSpec::None`] — deadline-free jobs (the pre-SLO behaviour).
//! * [`DeadlineSpec::Fixed`] — one constant relative deadline for every
//!   job, regardless of its size.
//! * [`DeadlineSpec::ProportionalCp`] — `D = factor ×` the job's
//!   minimum-execution-time critical path
//!   ([`JobTemplate::critical_path_min`], the same per-category minima the
//!   engine's `CostModel` precomputes). `factor` *is* the tightness axis:
//!   1.0 is only feasible on an idle machine with every kernel on its best
//!   processor; 8.0 tolerates long queueing.
//! * [`DeadlineSpec::Uniform`] — `D` drawn uniformly from `[lo, hi]`
//!   (inclusive, whole nanoseconds), modelling heterogeneous per-customer
//!   SLOs.
//!
//! Sources draw deadlines from a **dedicated** RNG stream (seeded from the
//! source seed), so switching a source between specs never perturbs its
//! arrival instants or kernel draws — the stream-equivalence suites keep
//! comparing the identical workload. The part of a deadline that needs no
//! job is drawn at every arrival, before the driver knows whether it admits
//! the job and builds it, so shedding an arrival never shifts the deadline
//! stream either.

use crate::job::JobTemplate;
use apt_base::{BaseError, SimDuration};
use apt_dfg::{LookupTable, SplitMix64};

/// How an arrival source assigns relative deadlines to the jobs it yields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeadlineSpec {
    /// No deadlines (the default): jobs are plain best-effort work.
    #[default]
    None,
    /// Every job gets the same relative deadline.
    Fixed(SimDuration),
    /// `deadline = factor × critical_path_min(job)` — tightness relative
    /// to the job's own best-case response time. [`DeadlineSpec::validate`]
    /// refuses, and a draw panics on, a `factor` below 1 (such a deadline
    /// is unmeetable by construction) or not finite.
    ProportionalCp {
        /// Tightness multiplier over the job's minimum critical path (≥ 1).
        factor: f64,
    },
    /// Uniformly drawn from `[lo, hi]` (whole nanoseconds, inclusive).
    Uniform {
        /// Smallest drawable deadline.
        lo: SimDuration,
        /// Largest drawable deadline (≥ `lo`).
        hi: SimDuration,
    },
}

impl DeadlineSpec {
    /// Refuse a spec [`DeadlineSpec::draw`] would panic on: a proportional
    /// factor below 1, NaN or infinite, or an inverted uniform range. The
    /// streaming driver reaches this through `Source::validate` before the
    /// first arrival is drawn.
    pub fn validate(self) -> Result<(), BaseError> {
        let reason = match self {
            DeadlineSpec::ProportionalCp { factor } if factor < 1.0 || !factor.is_finite() => {
                format!("proportional deadline factor must be finite and ≥ 1, got {factor}")
            }
            DeadlineSpec::Uniform { lo, hi } if lo > hi => {
                format!("uniform deadline range inverted: {lo} > {hi}")
            }
            _ => return Ok(()),
        };
        Err(BaseError::InvalidSystem { reason })
    }

    /// Derive the relative deadline for one freshly instantiated job: the
    /// part that needs no job, then [`DeadlineSpec::ProportionalCp`]'s
    /// scaling of the job's critical path. Deterministic in `(self, rng state, job, lookup)`; only
    /// [`DeadlineSpec::Uniform`] consumes randomness.
    pub fn draw(
        self,
        rng: &mut SplitMix64,
        job: &JobTemplate,
        lookup: &LookupTable,
    ) -> Option<SimDuration> {
        let early = self.draw_at_arrival(rng);
        self.for_job(early, job, lookup, &mut Vec::new())
    }

    /// The part of a draw that needs no job, taken when the job arrives
    /// and before it is built: [`DeadlineSpec::Fixed`]'s deadline, a
    /// [`DeadlineSpec::Uniform`] draw (the only use of `rng`), and `None`
    /// for the other specs. A source takes it for every arrival, shed or
    /// admitted, so its deadline stream moves as it did when every arrival
    /// was built.
    pub(crate) fn draw_at_arrival(self, rng: &mut SplitMix64) -> Option<SimDuration> {
        match self {
            DeadlineSpec::None | DeadlineSpec::ProportionalCp { .. } => None,
            DeadlineSpec::Fixed(d) => Some(d),
            DeadlineSpec::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform deadline range inverted: {lo} > {hi}");
                let span = hi.as_ns() - lo.as_ns();
                let offset = if span == 0 {
                    0
                } else {
                    // Unbiased-enough draw for reporting-grade deadlines:
                    // the modulo bias over a u64 range is negligible for
                    // any plausible [lo, hi].
                    rng.next_u64() % (span + 1)
                };
                Some(SimDuration::from_ns(lo.as_ns() + offset))
            }
        }
    }

    /// The deadline of the built `job`, given what
    /// [`DeadlineSpec::draw_at_arrival`] returned for it: `ProportionalCp`
    /// scales the job's critical path, computed in `buf` (a scratch buffer
    /// reused from one job to the next); every other spec keeps `early`.
    pub(crate) fn for_job(
        self,
        early: Option<SimDuration>,
        job: &JobTemplate,
        lookup: &LookupTable,
        buf: &mut Vec<u64>,
    ) -> Option<SimDuration> {
        match self {
            DeadlineSpec::ProportionalCp { factor } => {
                assert!(
                    factor >= 1.0 && factor.is_finite(),
                    "proportional deadline factor must be ≥ 1, got {factor}"
                );
                Some(job.critical_path_min_in(lookup, buf).scale_alpha(factor))
            }
            _ => early,
        }
    }

    /// Apply the spec to a job: returns the template tagged with its drawn
    /// deadline (or unchanged for [`DeadlineSpec::None`]).
    pub fn tag(self, rng: &mut SplitMix64, job: JobTemplate, lookup: &LookupTable) -> JobTemplate {
        match self.draw(rng, &job, lookup) {
            Some(d) => job.with_deadline(d),
            None => job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFamily;

    fn job(seed: u64) -> JobTemplate {
        JobFamily::Diamond { width: 2 }
            .instantiate(&mut SplitMix64::new(seed), LookupTable::paper())
    }

    #[test]
    fn specs_derive_the_advertised_deadlines() {
        let lookup = LookupTable::paper();
        let j = job(1);
        let mut rng = SplitMix64::new(9);
        assert_eq!(DeadlineSpec::None.draw(&mut rng, &j, lookup), None);
        assert_eq!(
            DeadlineSpec::Fixed(SimDuration::from_ms(500)).draw(&mut rng, &j, lookup),
            Some(SimDuration::from_ms(500))
        );
        let cp = j.critical_path_min(lookup);
        assert_eq!(
            DeadlineSpec::ProportionalCp { factor: 4.0 }.draw(&mut rng, &j, lookup),
            Some(cp.scale_alpha(4.0))
        );
        let lo = SimDuration::from_ms(100);
        let hi = SimDuration::from_ms(300);
        for _ in 0..50 {
            let d = DeadlineSpec::Uniform { lo, hi }
                .draw(&mut rng, &j, lookup)
                .unwrap();
            assert!((lo..=hi).contains(&d), "uniform draw {d} out of range");
        }
        // Degenerate range is the fixed point.
        assert_eq!(
            DeadlineSpec::Uniform { lo, hi: lo }.draw(&mut rng, &j, lookup),
            Some(lo)
        );
    }

    #[test]
    fn only_uniform_consumes_randomness() {
        let lookup = LookupTable::paper();
        let j = job(2);
        let mut rng = SplitMix64::new(7);
        let before = rng.next_u64();
        let mut rng = SplitMix64::new(7);
        DeadlineSpec::None.draw(&mut rng, &j, lookup);
        DeadlineSpec::Fixed(SimDuration::from_ms(1)).draw(&mut rng, &j, lookup);
        DeadlineSpec::ProportionalCp { factor: 2.0 }.draw(&mut rng, &j, lookup);
        assert_eq!(rng.next_u64(), before, "non-uniform specs drew from rng");
    }

    #[test]
    #[should_panic(expected = "factor must be ≥ 1")]
    fn sub_unit_proportional_factor_is_rejected() {
        let lookup = LookupTable::paper();
        let j = job(3);
        DeadlineSpec::ProportionalCp { factor: 0.5 }.draw(&mut SplitMix64::new(1), &j, lookup);
    }

    /// `validate` refuses exactly the specs `draw` panics on.
    #[test]
    fn validate_refuses_the_specs_draw_panics_on() {
        let ms = SimDuration::from_ms;
        for bad in [
            DeadlineSpec::ProportionalCp { factor: 0.5 },
            DeadlineSpec::ProportionalCp { factor: f64::NAN },
            DeadlineSpec::ProportionalCp {
                factor: f64::INFINITY,
            },
            DeadlineSpec::Uniform {
                lo: ms(5),
                hi: ms(1),
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(BaseError::InvalidSystem { .. })),
                "{bad:?} passed"
            );
        }
        for good in [
            DeadlineSpec::None,
            DeadlineSpec::Fixed(SimDuration::ZERO),
            DeadlineSpec::ProportionalCp { factor: 1.0 },
            DeadlineSpec::Uniform {
                lo: ms(1),
                hi: ms(1),
            },
        ] {
            assert_eq!(good.validate(), Ok(()), "{good:?}");
        }
    }

    #[test]
    fn tag_attaches_the_deadline() {
        let lookup = LookupTable::paper();
        let mut rng = SplitMix64::new(4);
        let tagged = DeadlineSpec::Fixed(SimDuration::from_ms(9)).tag(&mut rng, job(4), lookup);
        assert_eq!(tagged.deadline(), Some(SimDuration::from_ms(9)));
        let untouched = DeadlineSpec::None.tag(&mut rng, job(4), lookup);
        assert_eq!(untouched.deadline(), None);
    }
}
