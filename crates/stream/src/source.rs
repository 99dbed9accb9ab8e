//! Arrival sources: lazy, seeded generators of `(arrival, job)` streams.
//!
//! The paper evaluates closed workloads (everything present at `t = 0`);
//! the ROADMAP's production north-star needs *open-system* evaluation under
//! sustained load. A [`Source`] yields arrivals one at a time, in
//! non-decreasing time order, so the streaming driver can admit each job
//! just-in-time and keep memory bounded by the jobs in flight — a million
//! arrivals are never materialized as a vector.
//!
//! # Two steps per arrival
//!
//! A draw comes in two steps, so the driver builds only the jobs that get
//! past its in-flight cap (which reads nothing but the arrival instant):
//!
//! 1. [`Source::next_arrival`] yields an [`Arrival`]: the instant plus a
//!    small token. A stochastic source's token holds the job's sub-seed and
//!    any deadline that needs no job; a [`TraceSource`]'s holds an index
//!    into its list.
//! 2. [`Source::build`] turns the token into the job, inside a template
//!    whose buffers the driver reuses from one admission to the next. A
//!    shed arrival skips this step.
//!
//! [`Source::next_job`] runs both steps and returns a fresh template.
//!
//! **RNG streams.** A stochastic source keeps two streams: arrivals and
//! sub-seeds on one, deadlines on a salted other. Step one takes every draw
//! either stream makes for an arrival (the instant, the one sub-seed draw,
//! a [`DeadlineSpec::Uniform`] draw); step two draws only from the
//! sub-seed's own generators. A shed arrival therefore moves both streams
//! exactly as a built one does, and the jobs that are built are the ones a
//! source that builds every arrival yields.
//!
//! # Implementations
//!
//! * [`PoissonSource`] — homogeneous Poisson arrivals (exponential
//!   inter-arrival gaps) at a fixed rate: the steady-traffic baseline.
//! * [`OnOffSource`] — a two-state Markov-modulated (on/off MMPP) process:
//!   bursts of Poisson arrivals separated by silent periods, the classic
//!   bursty-traffic model.
//! * [`DiurnalSource`] — an inhomogeneous Poisson process whose rate swings
//!   sinusoidally between a base and a peak over a configurable period
//!   (thinning construction), modelling day/night load cycles.
//! * [`TraceSource`] — replays an explicit `(arrival, job)` list, for tests
//!   and for captured traces.
//!
//! Every stochastic source draws its kernels from the [`LookupTable`] you
//! hand it — the same table the driver schedules against, so generated
//! data sizes always exist in the cost model.
//!
//! All randomness comes from the workspace's own [`SplitMix64`], so a
//! `(seed, parameters)` pair reproduces the identical stream forever. The
//! exponential/thinning draws go through `f64::ln`, which is deterministic
//! per platform (and pinned by the determinism tests on any one machine).

use crate::deadline::DeadlineSpec;
use crate::job::{JobFamily, JobTemplate};
use apt_base::{BaseError, SimDuration, SimTime};
use apt_dfg::{LookupTable, SplitMix64};

/// Salt separating a source's deadline-draw RNG stream from its
/// arrival/kernel stream, so tagging deadlines onto an existing source
/// never shifts the jobs it yields.
const DEADLINE_STREAM_SALT: u64 = 0x0510_DEAD_1155;

/// Step one of a draw: an arrival instant and the token [`Source::build`]
/// turns into its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The arrival instant.
    pub at: SimTime,
    /// The job's key: a stochastic source's per-job sub-seed, or a
    /// [`TraceSource`]'s list index.
    pub key: u64,
    /// A deadline drawn without the job (a fixed or uniform spec's);
    /// `None` when the spec has none or needs the built job.
    pub deadline: Option<SimDuration>,
}

/// A lazy stream of jobs with non-decreasing arrival instants, drawn in
/// two steps (see the [module docs](self)).
pub trait Source {
    /// Step one: the next arrival and its token, or `None` when the source
    /// is exhausted. Arrival instants must be non-decreasing call to call
    /// (the driver checks this). Takes every RNG draw the arrival makes
    /// outside its own job's generators, so skipping [`Source::build`] for
    /// it shifts nothing that follows.
    fn next_arrival(&mut self) -> Option<Arrival>;

    /// Step two: build the job of `arrival` — one this source yielded, at
    /// most once each — into `job`, replacing its contents and reusing its
    /// buffers.
    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate);

    /// Both steps: the next arrival instant and its job, in a fresh
    /// template, or `None` when the source is exhausted.
    fn next_job(&mut self) -> Option<(SimTime, JobTemplate)> {
        let arrival = self.next_arrival()?;
        let mut job = JobTemplate::empty();
        self.build(arrival, &mut job);
        Some((arrival.at, job))
    }

    /// Remaining jobs, if the source knows (used only for progress
    /// reporting).
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Check the source's settings before its first draw: `StreamRun::run`
    /// calls this once, so a setting that would make a later draw panic
    /// (an unmeetable [`DeadlineSpec`]) ends the run in a typed error
    /// instead. The default accepts.
    fn validate(&self) -> Result<(), BaseError> {
        Ok(())
    }
}

/// Reject a rate (jobs per simulated second) that is zero, negative, NaN
/// or infinite: `what` names it in the error.
fn check_rate(what: &str, rate_per_sec: f64) -> Result<(), BaseError> {
    if rate_per_sec > 0.0 && rate_per_sec.is_finite() {
        Ok(())
    } else {
        Err(BaseError::InvalidSystem {
            reason: format!("{what} must be positive and finite, got {rate_per_sec}"),
        })
    }
}

/// Reject a zero-length period: `what` names it in the error.
fn check_period(what: &str, period: SimDuration) -> Result<(), BaseError> {
    if period.is_zero() {
        Err(BaseError::InvalidSystem {
            reason: format!("{what} must be positive"),
        })
    } else {
        Ok(())
    }
}

/// Uniform f64 in `[0, 1)` from the top 53 bits of one draw.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential gap with the given mean, in whole nanoseconds (≥ 1, so time
/// strictly advances even at extreme rates). A gap past the clock's range
/// saturates at `u64::MAX`; the sources add gaps saturating too, so a tiny
/// rate yields arrivals at the end of the clock, which admission rejects
/// with a typed error, rather than an overflow.
fn exp_gap_ns(rng: &mut SplitMix64, mean_ns: f64) -> u64 {
    let u = unit(rng);
    let gap = -mean_ns * (1.0 - u).ln();
    (gap.round() as u64).max(1)
}

/// What the three stochastic sources share: the arrival/kernel RNG stream,
/// the jobs left to draw, the job family, and the deadline spec with its
/// own stream. Each source adds its clock.
#[derive(Debug, Clone)]
struct Draws<'a> {
    lookup: &'a LookupTable,
    family: JobFamily,
    rng: SplitMix64,
    remaining: u64,
    deadlines: DeadlineSpec,
    deadline_rng: SplitMix64,
    /// Scratch for [`DeadlineSpec::ProportionalCp`]'s critical path,
    /// reused from one build to the next.
    critical_path: Vec<u64>,
}

impl<'a> Draws<'a> {
    /// `jobs` draws of `family` from `seed`, refusing a family with no
    /// kernels.
    fn new(
        lookup: &'a LookupTable,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> Result<Draws<'a>, BaseError> {
        family.validate()?;
        Ok(Draws {
            lookup,
            family,
            rng: SplitMix64::new(seed),
            remaining: jobs,
            deadlines: DeadlineSpec::None,
            deadline_rng: SplitMix64::new(seed ^ DEADLINE_STREAM_SALT),
            critical_path: Vec::new(),
        })
    }

    /// The rest of step one once the clock has drawn the instant `t_ns`:
    /// the job's sub-seed, the one arrival-stream draw
    /// [`JobFamily::instantiate`] takes, and the deadline that needs no job.
    fn arrival(&mut self, t_ns: u64) -> Arrival {
        Arrival {
            at: SimTime::from_ns(t_ns),
            key: self.rng.next_u64(),
            deadline: self.deadlines.draw_at_arrival(&mut self.deadline_rng),
        }
    }

    /// Step two: the job of sub-seed `arrival.key`, with its deadline.
    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate) {
        self.family.build_into(arrival.key, self.lookup, job);
        let deadline =
            self.deadlines
                .for_job(arrival.deadline, job, self.lookup, &mut self.critical_path);
        job.set_deadline(deadline);
    }
}

/// Homogeneous Poisson arrivals of one job family.
#[derive(Debug, Clone)]
pub struct PoissonSource<'a> {
    draws: Draws<'a>,
    mean_gap_ns: f64,
    t_ns: u64,
}

impl<'a> PoissonSource<'a> {
    /// `jobs` arrivals at `rate` jobs per simulated second, drawn from
    /// `seed`, instantiating kernels from `lookup` (pass the same table the
    /// driver schedules against — [`LookupTable::paper`] for the paper
    /// machine). Panics where [`PoissonSource::try_new`] returns an error.
    pub fn new(
        lookup: &'a LookupTable,
        rate_per_sec: f64,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> PoissonSource<'a> {
        Self::try_new(lookup, rate_per_sec, jobs, family, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PoissonSource::new`], returning [`BaseError::InvalidSystem`] for a
    /// zero, negative, NaN or infinite rate, and for a family
    /// [`JobFamily::validate`] refuses, instead of panicking.
    pub fn try_new(
        lookup: &'a LookupTable,
        rate_per_sec: f64,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> Result<PoissonSource<'a>, BaseError> {
        check_rate("arrival rate", rate_per_sec)?;
        Ok(PoissonSource {
            draws: Draws::new(lookup, jobs, family, seed)?,
            mean_gap_ns: 1e9 / rate_per_sec,
            t_ns: 0,
        })
    }

    /// Tag every yielded job with a relative deadline per `spec`. Deadline
    /// draws use a dedicated RNG stream, so arrivals and kernels are
    /// unchanged from the untagged source.
    pub fn with_deadlines(mut self, spec: DeadlineSpec) -> PoissonSource<'a> {
        self.draws.deadlines = spec;
        self
    }

    /// Advance the clock to the next arrival instant.
    fn tick(&mut self) -> u64 {
        self.t_ns = self
            .t_ns
            .saturating_add(exp_gap_ns(&mut self.draws.rng, self.mean_gap_ns));
        self.t_ns
    }
}

impl Source for PoissonSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.draws.remaining = self.draws.remaining.checked_sub(1)?;
        let t_ns = self.tick();
        Some(self.draws.arrival(t_ns))
    }

    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate) {
        self.draws.build(arrival, job);
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.draws.remaining)
    }

    fn validate(&self) -> Result<(), BaseError> {
        self.draws.deadlines.validate()
    }
}

/// The largest mean burst gap [`OnOffSource::try_new`] accepts, in mean ON
/// periods. An arrival is drawn by redrawing ON/OFF cycles until a gap fits
/// inside one ON period, about this many cycles at the limit; every
/// parameter set in this repository sits below a thousand.
pub const MAX_BURST_GAP_PER_ON: f64 = 1e6;

/// Bursty on/off (two-state MMPP) arrivals: exponential ON periods emitting
/// Poisson arrivals at `burst_rate`, separated by exponential OFF silences.
#[derive(Debug, Clone)]
pub struct OnOffSource<'a> {
    draws: Draws<'a>,
    burst_gap_ns: f64,
    mean_on_ns: f64,
    mean_off_ns: f64,
    t_ns: u64,
    on_end_ns: u64,
}

impl<'a> OnOffSource<'a> {
    /// `jobs` arrivals in bursts: Poisson at `burst_rate` jobs/s while ON,
    /// with exponential ON/OFF period durations of the given means.
    /// Kernels are instantiated from `lookup`. Panics where
    /// [`OnOffSource::try_new`] returns an error.
    pub fn new(
        lookup: &'a LookupTable,
        burst_rate_per_sec: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> OnOffSource<'a> {
        Self::try_new(
            lookup,
            burst_rate_per_sec,
            mean_on,
            mean_off,
            jobs,
            family,
            seed,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`OnOffSource::new`], returning [`BaseError::InvalidSystem`] instead
    /// of panicking for a zero, negative, NaN or infinite burst rate, for a
    /// zero mean ON or OFF period, for a mean burst gap more than
    /// [`MAX_BURST_GAP_PER_ON`] times the mean ON period (each arrival
    /// would then redraw that many ON/OFF cycles on average before one
    /// holds it), and for a family [`JobFamily::validate`] refuses.
    pub fn try_new(
        lookup: &'a LookupTable,
        burst_rate_per_sec: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> Result<OnOffSource<'a>, BaseError> {
        check_rate("burst rate", burst_rate_per_sec)?;
        check_period("mean ON period", mean_on)?;
        check_period("mean OFF period", mean_off)?;
        let burst_gap_ns = 1e9 / burst_rate_per_sec;
        let mean_on_ns = mean_on.as_ns() as f64;
        if burst_gap_ns > MAX_BURST_GAP_PER_ON * mean_on_ns {
            return Err(BaseError::InvalidSystem {
                reason: format!(
                    "burst gap of {burst_gap_ns} ns is more than {MAX_BURST_GAP_PER_ON} \
                     mean ON periods of {mean_on_ns} ns"
                ),
            });
        }
        let mut draws = Draws::new(lookup, jobs, family, seed)?;
        let on_end_ns = exp_gap_ns(&mut draws.rng, mean_on_ns);
        Ok(OnOffSource {
            draws,
            burst_gap_ns,
            mean_on_ns,
            mean_off_ns: mean_off.as_ns() as f64,
            t_ns: 0,
            on_end_ns,
        })
    }

    /// Tag every yielded job with a relative deadline per `spec` (dedicated
    /// RNG stream; arrivals and kernels unchanged).
    pub fn with_deadlines(mut self, spec: DeadlineSpec) -> OnOffSource<'a> {
        self.draws.deadlines = spec;
        self
    }

    /// Advance the clock to the next arrival instant.
    fn tick(&mut self) -> u64 {
        let rng = &mut self.draws.rng;
        loop {
            let gap = exp_gap_ns(rng, self.burst_gap_ns);
            let t_ns = self.t_ns.saturating_add(gap);
            if t_ns <= self.on_end_ns {
                self.t_ns = t_ns;
                return t_ns;
            }
            // The burst ended before this arrival: skip the OFF silence and
            // start the next ON period. (The rejected gap is simply
            // redrawn — the exponential's memorylessness keeps the process
            // well-defined.)
            let off = exp_gap_ns(rng, self.mean_off_ns);
            let on = exp_gap_ns(rng, self.mean_on_ns);
            self.t_ns = self.on_end_ns.saturating_add(off);
            self.on_end_ns = self.t_ns.saturating_add(on);
        }
    }
}

impl Source for OnOffSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.draws.remaining = self.draws.remaining.checked_sub(1)?;
        let t_ns = self.tick();
        Some(self.draws.arrival(t_ns))
    }

    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate) {
        self.draws.build(arrival, job);
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.draws.remaining)
    }

    fn validate(&self) -> Result<(), BaseError> {
        self.draws.deadlines.validate()
    }
}

/// Diurnal (inhomogeneous Poisson) arrivals: the rate swings sinusoidally
/// between `base_rate` and `base_rate + swing_rate` with the given period,
/// realized by thinning a homogeneous process at the peak rate.
#[derive(Debug, Clone)]
pub struct DiurnalSource<'a> {
    draws: Draws<'a>,
    base_rate: f64,
    swing_rate: f64,
    period_ns: f64,
    peak_gap_ns: f64,
    t_ns: u64,
}

impl<'a> DiurnalSource<'a> {
    /// `jobs` arrivals with instantaneous rate
    /// `base + swing · sin²(π t / period)` jobs per second. Kernels are
    /// instantiated from `lookup`. Panics where [`DiurnalSource::try_new`]
    /// returns an error.
    pub fn new(
        lookup: &'a LookupTable,
        base_rate_per_sec: f64,
        swing_rate_per_sec: f64,
        period: SimDuration,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> DiurnalSource<'a> {
        Self::try_new(
            lookup,
            base_rate_per_sec,
            swing_rate_per_sec,
            period,
            jobs,
            family,
            seed,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DiurnalSource::new`], returning [`BaseError::InvalidSystem`]
    /// instead of panicking for a zero, negative, NaN or infinite base
    /// rate, a negative, NaN or infinite swing, a zero period, or a family
    /// [`JobFamily::validate`] refuses.
    pub fn try_new(
        lookup: &'a LookupTable,
        base_rate_per_sec: f64,
        swing_rate_per_sec: f64,
        period: SimDuration,
        jobs: u64,
        family: JobFamily,
        seed: u64,
    ) -> Result<DiurnalSource<'a>, BaseError> {
        check_rate("diurnal base rate", base_rate_per_sec)?;
        if !(swing_rate_per_sec >= 0.0 && swing_rate_per_sec.is_finite()) {
            return Err(BaseError::InvalidSystem {
                reason: format!(
                    "diurnal swing rate must be non-negative and finite, got {swing_rate_per_sec}"
                ),
            });
        }
        check_period("diurnal period", period)?;
        Ok(DiurnalSource {
            draws: Draws::new(lookup, jobs, family, seed)?,
            base_rate: base_rate_per_sec,
            swing_rate: swing_rate_per_sec,
            period_ns: period.as_ns() as f64,
            peak_gap_ns: 1e9 / (base_rate_per_sec + swing_rate_per_sec),
            t_ns: 0,
        })
    }

    /// Tag every yielded job with a relative deadline per `spec` (dedicated
    /// RNG stream; arrivals and kernels unchanged).
    pub fn with_deadlines(mut self, spec: DeadlineSpec) -> DiurnalSource<'a> {
        self.draws.deadlines = spec;
        self
    }

    /// Instantaneous rate at `t_ns`, jobs per second.
    fn rate_at(&self, t_ns: u64) -> f64 {
        let phase = std::f64::consts::PI * (t_ns as f64 / self.period_ns);
        self.base_rate + self.swing_rate * phase.sin().powi(2)
    }

    /// Advance the clock to the next arrival instant. Thinning (Lewis &
    /// Shedler): candidates at the peak rate, accepted with probability
    /// rate(t) / peak_rate.
    fn tick(&mut self) -> u64 {
        let peak = self.base_rate + self.swing_rate;
        loop {
            self.t_ns = self
                .t_ns
                .saturating_add(exp_gap_ns(&mut self.draws.rng, self.peak_gap_ns));
            let accept = self.rate_at(self.t_ns) / peak;
            if unit(&mut self.draws.rng) < accept {
                return self.t_ns;
            }
        }
    }
}

impl Source for DiurnalSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.draws.remaining = self.draws.remaining.checked_sub(1)?;
        let t_ns = self.tick();
        Some(self.draws.arrival(t_ns))
    }

    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate) {
        self.draws.build(arrival, job);
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.draws.remaining)
    }

    fn validate(&self) -> Result<(), BaseError> {
        self.draws.deadlines.validate()
    }
}

/// Replays an explicit arrival list (tests, captured traces).
#[derive(Debug, Clone)]
pub struct TraceSource {
    jobs: Vec<(SimTime, JobTemplate)>,
    /// Index of the next arrival.
    next: usize,
}

impl TraceSource {
    /// A source over an explicit list. Disorder in the list is *not*
    /// checked here — the driver reports a typed
    /// [`BaseError::DisorderedArrival`]
    /// the moment an out-of-order arrival is pulled, so a bad captured
    /// trace fails the run gracefully instead of panicking at
    /// construction. Use [`TraceSource::try_new`] to validate up front.
    pub fn new(jobs: Vec<(SimTime, JobTemplate)>) -> TraceSource {
        TraceSource { jobs, next: 0 }
    }

    /// A source over an explicit list, validated eagerly: returns
    /// [`BaseError::DisorderedArrival`]
    /// naming the first offending pair if the arrivals ever decrease.
    pub fn try_new(jobs: Vec<(SimTime, JobTemplate)>) -> Result<TraceSource, BaseError> {
        if let Some(w) = jobs.windows(2).find(|w| w[1].0 < w[0].0) {
            return Err(BaseError::DisorderedArrival {
                at_ns: w[1].0.as_ns(),
                prev_ns: w[0].0.as_ns(),
            });
        }
        Ok(TraceSource::new(jobs))
    }
}

impl Source for TraceSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let &(at, _) = self.jobs.get(self.next)?;
        let key = self.next as u64;
        self.next += 1;
        Some(Arrival {
            at,
            key,
            deadline: None,
        })
    }

    /// Moves the job out of the list (it carries its own deadline).
    /// Panics on an arrival this source did not yield.
    fn build(&mut self, arrival: Arrival, job: &mut JobTemplate) {
        *job = std::mem::replace(&mut self.jobs[arrival.key as usize].1, JobTemplate::empty());
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.jobs.len() - self.next) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(source: &mut dyn Source) -> Vec<(SimTime, JobTemplate)> {
        std::iter::from_fn(|| source.next_job()).collect()
    }

    #[test]
    fn poisson_is_seed_deterministic_and_monotone() {
        let mut a = PoissonSource::new(
            LookupTable::paper(),
            25.0,
            200,
            JobFamily::Diamond { width: 2 },
            9,
        );
        let mut b = PoissonSource::new(
            LookupTable::paper(),
            25.0,
            200,
            JobFamily::Diamond { width: 2 },
            9,
        );
        let ja = drain(&mut a);
        let jb = drain(&mut b);
        assert_eq!(ja, jb);
        assert_eq!(ja.len(), 200);
        assert!(ja.windows(2).all(|w| w[0].0 <= w[1].0));
        // Mean gap should be near 40 ms for rate 25/s over 200 draws.
        let span = ja.last().unwrap().0.as_ns() as f64 / 200.0;
        assert!((20e6..80e6).contains(&span), "mean gap {span} ns off");
        // A different seed shifts the arrivals.
        let jc = drain(&mut PoissonSource::new(
            LookupTable::paper(),
            25.0,
            200,
            JobFamily::Diamond { width: 2 },
            10,
        ));
        assert_ne!(ja, jc);
    }

    #[test]
    fn deadline_tagging_never_shifts_the_stream() {
        use crate::deadline::DeadlineSpec;
        // The same seed with and without deadlines: identical arrivals and
        // kernels, only the deadline tag differs (dedicated RNG stream).
        let plain = drain(&mut PoissonSource::new(
            LookupTable::paper(),
            10.0,
            100,
            JobFamily::Chain { len: 2 },
            21,
        ));
        let tagged = drain(
            &mut PoissonSource::new(
                LookupTable::paper(),
                10.0,
                100,
                JobFamily::Chain { len: 2 },
                21,
            )
            .with_deadlines(DeadlineSpec::Uniform {
                lo: SimDuration::from_ms(100),
                hi: SimDuration::from_ms(900),
            }),
        );
        assert_eq!(plain.len(), tagged.len());
        for ((ta, ja), (tb, jb)) in plain.iter().zip(&tagged) {
            assert_eq!(ta, tb, "deadline tagging moved an arrival");
            assert_eq!(ja.kernels(), jb.kernels());
            assert_eq!(ja.edges(), jb.edges());
            assert_eq!(ja.deadline(), None);
            assert!(jb.deadline().is_some());
        }
        // And tagged replay is seed-deterministic.
        let again = drain(
            &mut PoissonSource::new(
                LookupTable::paper(),
                10.0,
                100,
                JobFamily::Chain { len: 2 },
                21,
            )
            .with_deadlines(DeadlineSpec::Uniform {
                lo: SimDuration::from_ms(100),
                hi: SimDuration::from_ms(900),
            }),
        );
        assert_eq!(tagged, again);
        // Proportional deadlines scale each job's own critical path.
        let prop = drain(
            &mut OnOffSource::new(
                LookupTable::paper(),
                50.0,
                SimDuration::from_ms(100),
                SimDuration::from_ms(400),
                20,
                JobFamily::Diamond { width: 2 },
                3,
            )
            .with_deadlines(DeadlineSpec::ProportionalCp { factor: 3.0 }),
        );
        for (_, job) in &prop {
            assert_eq!(
                job.deadline(),
                Some(job.critical_path_min(LookupTable::paper()).scale_alpha(3.0))
            );
        }
        // Diurnal sources tag too.
        let diurnal = drain(
            &mut DiurnalSource::new(
                LookupTable::paper(),
                5.0,
                10.0,
                SimDuration::from_ms(5_000),
                10,
                JobFamily::Single,
                8,
            )
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(777))),
        );
        assert!(diurnal
            .iter()
            .all(|(_, j)| j.deadline() == Some(SimDuration::from_ms(777))));
    }

    /// Draw `source` dry through `next_job`, and `twin` (its clone) the way
    /// every source drew before the two-step split: the clock's tick, then
    /// `family.instantiate` on the arrival stream and `deadlines.tag` on the
    /// deadline stream. The two must agree arrival for arrival.
    fn assert_next_job_is_the_pre_split_composition<S: Source + Clone>(
        source: &mut S,
        tick: fn(&mut S) -> u64,
        draws: fn(&mut S) -> &mut Draws<'static>,
    ) {
        let mut twin = source.clone();
        let mut count = 0;
        while let Some((at, job)) = source.next_job() {
            let d = draws(&mut twin);
            d.remaining = d.remaining.checked_sub(1).expect("the twin ran dry first");
            let t_ns = tick(&mut twin);
            let d = draws(&mut twin);
            let old = d.family.instantiate(&mut d.rng, d.lookup);
            let old = d.deadlines.tag(&mut d.deadline_rng, old, d.lookup);
            assert_eq!((at, job), (SimTime::from_ns(t_ns), old), "arrival {count}");
            count += 1;
        }
        assert_eq!(draws(&mut twin).remaining, 0, "the source ran dry first");
        assert!(count > 0);
    }

    #[test]
    fn next_job_is_the_pre_split_composition_for_every_source_and_spec() {
        let lookup = LookupTable::paper();
        let ms = SimDuration::from_ms;
        let specs = [
            DeadlineSpec::None,
            DeadlineSpec::Fixed(ms(400)),
            DeadlineSpec::ProportionalCp { factor: 2.5 },
            DeadlineSpec::Uniform {
                lo: ms(100),
                hi: ms(900),
            },
        ];
        let families = [
            JobFamily::Type2 { len: 12 },
            JobFamily::Diamond { width: 3 },
            JobFamily::Single,
        ];
        for (spec, family) in specs.into_iter().flat_map(|s| families.map(|f| (s, f))) {
            let mut poisson = PoissonSource::new(lookup, 5.0, 40, family, 3).with_deadlines(spec);
            assert_next_job_is_the_pre_split_composition(&mut poisson, PoissonSource::tick, |s| {
                &mut s.draws
            });
            let mut on_off = OnOffSource::new(lookup, 50.0, ms(100), ms(400), 40, family, 4)
                .with_deadlines(spec);
            assert_next_job_is_the_pre_split_composition(&mut on_off, OnOffSource::tick, |s| {
                &mut s.draws
            });
            let mut diurnal = DiurnalSource::new(lookup, 2.0, 10.0, ms(5_000), 40, family, 5)
                .with_deadlines(spec);
            assert_next_job_is_the_pre_split_composition(&mut diurnal, DiurnalSource::tick, |s| {
                &mut s.draws
            });
        }
    }

    #[test]
    fn on_off_bursts_cluster_arrivals() {
        let mut s = OnOffSource::new(
            LookupTable::paper(),
            200.0,
            SimDuration::from_ms(50),
            SimDuration::from_ms(1_000),
            300,
            JobFamily::Single,
            3,
        );
        let jobs = drain(&mut s);
        assert_eq!(jobs.len(), 300);
        assert!(jobs.windows(2).all(|w| w[0].0 <= w[1].0));
        // Burstiness: many tiny gaps (intra-burst) and some huge ones
        // (inter-burst silences).
        let gaps: Vec<u64> = jobs.windows(2).map(|w| (w[1].0 - w[0].0).as_ns()).collect();
        let tiny = gaps.iter().filter(|&&g| g < 20_000_000).count();
        let huge = gaps.iter().filter(|&&g| g > 300_000_000).count();
        assert!(tiny > gaps.len() / 2, "no intra-burst clustering");
        assert!(huge > 0, "no inter-burst silences");
    }

    #[test]
    fn diurnal_rate_swings_between_base_and_peak() {
        let period = SimDuration::from_ms(10_000);
        let mut s = DiurnalSource::new(
            LookupTable::paper(),
            2.0,
            40.0,
            period,
            2_000,
            JobFamily::Single,
            11,
        );
        let jobs = drain(&mut s);
        assert!(jobs.windows(2).all(|w| w[0].0 <= w[1].0));
        // Count arrivals landing in rate-trough vs rate-crest halves of the
        // cycle: crest phases (sin² > ½) must dominate.
        let mut crest = 0usize;
        let mut trough = 0usize;
        for (t, _) in &jobs {
            let phase = std::f64::consts::PI * (t.as_ns() as f64 / period.as_ns() as f64);
            if phase.sin().powi(2) > 0.5 {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            crest > trough * 2,
            "diurnal swing invisible: {crest} crest vs {trough} trough"
        );
    }

    /// The rates a source constructor must refuse.
    const BAD_RATES: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    fn assert_invalid<T: std::fmt::Debug>(result: Result<T, BaseError>, what: &str) {
        match result {
            Err(BaseError::InvalidSystem { reason }) => {
                assert!(reason.contains(what), "{reason:?} does not name {what:?}")
            }
            other => panic!("expected InvalidSystem naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn poisson_rejects_a_bad_rate() {
        for rate in BAD_RATES {
            assert_invalid(
                PoissonSource::try_new(LookupTable::paper(), rate, 10, JobFamily::Single, 1),
                "arrival rate",
            );
        }
        assert!(
            PoissonSource::try_new(LookupTable::paper(), 2.5, 10, JobFamily::Single, 1).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn poisson_new_panics_on_a_bad_rate() {
        PoissonSource::new(LookupTable::paper(), 0.0, 10, JobFamily::Single, 1);
    }

    fn on_off(
        rate: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> Result<OnOffSource<'static>, BaseError> {
        OnOffSource::try_new(
            LookupTable::paper(),
            rate,
            mean_on,
            mean_off,
            10,
            JobFamily::Single,
            1,
        )
    }

    #[test]
    fn on_off_rejects_a_bad_burst_rate() {
        let ms = SimDuration::from_ms(10);
        for rate in BAD_RATES {
            assert_invalid(on_off(rate, ms, ms), "burst rate");
        }
        assert!(on_off(50.0, ms, ms).is_ok());
    }

    #[test]
    fn on_off_rejects_a_zero_on_period() {
        assert_invalid(
            on_off(50.0, SimDuration::ZERO, SimDuration::from_ms(10)),
            "mean ON period",
        );
    }

    #[test]
    fn on_off_rejects_a_zero_off_period() {
        assert_invalid(
            on_off(50.0, SimDuration::from_ms(10), SimDuration::ZERO),
            "mean OFF period",
        );
    }

    fn diurnal(
        base: f64,
        swing: f64,
        period: SimDuration,
    ) -> Result<DiurnalSource<'static>, BaseError> {
        DiurnalSource::try_new(
            LookupTable::paper(),
            base,
            swing,
            period,
            10,
            JobFamily::Single,
            1,
        )
    }

    #[test]
    fn diurnal_rejects_a_bad_base_rate() {
        let period = SimDuration::from_ms(1_000);
        for base in BAD_RATES {
            assert_invalid(diurnal(base, 1.0, period), "base rate");
        }
        assert!(diurnal(2.0, 0.0, period).is_ok(), "a flat diurnal is valid");
    }

    #[test]
    fn diurnal_rejects_a_bad_swing() {
        let period = SimDuration::from_ms(1_000);
        for swing in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_invalid(diurnal(2.0, swing, period), "swing rate");
        }
    }

    #[test]
    fn diurnal_rejects_a_zero_period() {
        assert_invalid(diurnal(2.0, 1.0, SimDuration::ZERO), "diurnal period");
    }

    #[test]
    fn trace_source_replays_and_rejects_disorder() {
        let lookup = LookupTable::paper();
        let mut rng = SplitMix64::new(1);
        let t0 = JobFamily::Single.instantiate(&mut rng, lookup);
        let t1 = JobFamily::Single.instantiate(&mut rng, lookup);
        let mut s = TraceSource::new(vec![
            (SimTime::from_ms(5), t0.clone()),
            (SimTime::from_ms(9), t1.clone()),
        ]);
        assert_eq!(s.remaining_hint(), Some(2));
        assert_eq!(s.next_job(), Some((SimTime::from_ms(5), t0.clone())));
        assert_eq!(s.next_job(), Some((SimTime::from_ms(9), t1.clone())));
        assert_eq!(s.next_job(), None);
        assert_eq!(s.next_job(), None, "end of trace stays a clean None");
        assert_eq!(s.remaining_hint(), Some(0));
        // Eager validation names the first offending pair with a typed
        // error instead of a panic.
        let result = TraceSource::try_new(vec![
            (SimTime::from_ms(9), t0.clone()),
            (SimTime::from_ms(5), t1.clone()),
        ]);
        match result {
            Err(BaseError::DisorderedArrival { at_ns, prev_ns }) => {
                assert_eq!(at_ns, SimTime::from_ms(5).as_ns());
                assert_eq!(prev_ns, SimTime::from_ms(9).as_ns());
            }
            other => panic!("expected DisorderedArrival, got {other:?}"),
        }
        // The unchecked constructor never panics; the driver rejects the
        // stream at run time instead (see driver::tests).
        let mut lazy = TraceSource::new(vec![(SimTime::from_ms(9), t0), (SimTime::from_ms(5), t1)]);
        assert!(lazy.next_job().is_some());
        assert!(lazy.next_job().is_some());
        assert!(
            TraceSource::try_new(vec![]).is_ok(),
            "empty trace is a valid (instantly dry) source"
        );
    }
}
