//! A replica of `apt_stream::simulate_source_gated`'s loop, built only from
//! public calls, with a span around each call into a layer.
//!
//! It covers the configurations the stream workloads use — no faults,
//! telemetry, trace sink or controller — and must reproduce the bare
//! driver's schedule exactly: the traced run compares both [`StreamTotals`]
//! digests on every repetition and counts a mismatch as a failure.

use crate::check::StreamTotals;
use crate::tracer::{self, Layer, TracedPolicy, Tracer};
use apt_base::{BaseError, SimDuration, SimTime};
use apt_dfg::LookupTable;
use apt_hetsim::{CompletedJob, OpenEngine, Policy, SystemConfig, TaskRecord};
use apt_metrics::OnlineMetrics;
use apt_stream::{AdmissionGate, AdmitRequest, DriverOpts, JobTemplate, Source};
use std::cell::RefCell;

/// Run `source` through the replica loop, timing every layer into `tracer`.
pub fn simulate_traced(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    tracer: &RefCell<Tracer>,
) -> Result<StreamTotals, BaseError> {
    assert!(opts.faults.is_none(), "the replica covers fault-free runs");
    let span = |layer: Layer| tracer::enter(tracer, layer);
    let done_span = || tracer::exit(tracer);
    let mut policy = TracedPolicy {
        inner: policy,
        tracer,
    };

    let mut engine = OpenEngine::with_order(config, lookup, opts.ready_order)?;
    engine.prepare(&mut policy)?;
    let far = SimDuration::from_ns(u64::MAX >> 1);
    let mut metrics = OnlineMetrics::new(opts.snapshot_interval.unwrap_or(far), config.len());
    let snapshots_enabled = opts.snapshot_interval.is_some();

    let next_job = |source: &mut dyn Source| {
        span(Layer::SourceNextJob);
        let job = source.next_job();
        done_span();
        job
    };
    let mut pending = next_job(source);
    let mut st = Admission {
        last_arrival: SimTime::ZERO,
        admitted: 0,
        shed: 0,
        saturated: false,
    };
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut kernels = 0u64;
    let mut done: Vec<CompletedJob> = Vec::new();

    // Mirrors the driver's `admit_due` closure.
    let mut admit_due = |engine: &mut OpenEngine<'_>,
                         pending: &mut Option<(SimTime, JobTemplate)>,
                         gate: &mut dyn AdmissionGate,
                         metrics: &mut OnlineMetrics,
                         st: &mut Admission,
                         seed: bool|
     -> Result<(), BaseError> {
        while !st.saturated || opts.shed_when_full {
            let Some((at, _)) = pending else { break };
            if *at < st.last_arrival {
                return Err(BaseError::DisorderedArrival {
                    at_ns: at.as_ns(),
                    prev_ns: st.last_arrival.as_ns(),
                });
            }
            let due = if seed {
                *at <= engine.now()
            } else {
                engine.next_event_time().is_none_or(|next| *at <= next)
            };
            if !due {
                break;
            }
            if opts
                .max_in_flight_jobs
                .is_some_and(|cap| engine.in_flight_jobs() >= cap)
            {
                st.saturated = true;
                if !opts.shed_when_full {
                    break;
                }
                let (at, _) = pending.take().expect("checked above");
                st.last_arrival = at;
                st.shed += 1;
                span(Layer::OnlineObserve);
                metrics.observe_job_shed();
                done_span();
                *pending = next_job(source);
                continue;
            }
            let (at, job) = pending.take().expect("checked above");
            let deadline = job.deadline().map(|d| at + d);
            let req = AdmitRequest {
                job_id: engine.next_job_id(),
                arrival: at,
                deadline,
                job: &job,
                now: engine.now(),
                in_flight_jobs: engine.in_flight_jobs(),
                in_flight_kernels: engine.in_flight_kernels(),
                live_procs: engine.live_procs(),
            };
            span(Layer::GateAdmit);
            let accept = gate.admit(&req);
            done_span();
            tracer.borrow_mut().note_admit(accept);
            st.last_arrival = at;
            if accept {
                span(Layer::OpenAdmit);
                let admitted = engine.admit_with_deadline(job.kernels(), job.edges(), at, deadline);
                done_span();
                admitted?;
                st.admitted += 1;
                span(Layer::OnlineObserve);
                metrics.observe_job_admitted();
                metrics.observe_depth(engine.now(), engine.in_flight_jobs());
                done_span();
            } else {
                st.shed += 1;
                span(Layer::OnlineObserve);
                metrics.observe_job_shed();
                done_span();
            }
            *pending = next_job(source);
        }
        Ok(())
    };

    admit_due(&mut engine, &mut pending, gate, &mut metrics, &mut st, true)?;
    loop {
        span(Layer::OpenDecide);
        let decided = engine.decide(&mut policy);
        done_span();
        decided?;
        admit_due(
            &mut engine,
            &mut pending,
            gate,
            &mut metrics,
            &mut st,
            false,
        )?;
        span(Layer::OpenAdvance);
        let advanced = engine.advance();
        done_span();
        let advanced = advanced?;

        span(Layer::OpenDrain);
        engine.drain_completed(&mut done);
        done_span();
        if !done.is_empty() {
            for job in &done {
                kernels += job.records.len() as u64;
                if job.failed {
                    failed += 1;
                    span(Layer::OnlineObserve);
                    metrics.observe_job_failed();
                    done_span();
                } else {
                    completed += 1;
                    let finish = job.finish();
                    let latency = finish.saturating_since(job.arrival);
                    let tardiness = job.deadline.map(|d| finish.saturating_since(d));
                    let lambda: SimDuration = job.records.iter().map(TaskRecord::lambda).sum();
                    span(Layer::OnlineObserve);
                    metrics.observe_job(latency, lambda);
                    if let Some(tardiness) = tardiness {
                        metrics.observe_tardiness(tardiness);
                    }
                    done_span();
                }
                span(Layer::GateOnComplete);
                gate.on_complete(job);
                done_span();
            }
            span(Layer::OnlineObserve);
            metrics.observe_depth(engine.now(), engine.in_flight_jobs());
            done_span();
        }
        if snapshots_enabled && engine.now() >= metrics.window_end() {
            let stats = engine.proc_stats();
            span(Layer::OnlineWindow);
            metrics.maybe_snapshot(engine.now(), &stats);
            done_span();
        }
        if advanced.is_none() {
            if engine.in_flight_kernels() > 0 {
                return Err(BaseError::Starvation {
                    unscheduled: engine.in_flight_kernels(),
                });
            }
            if pending.is_none() || (st.saturated && !opts.shed_when_full) {
                break;
            }
        }
    }

    let end = engine.now();
    if snapshots_enabled {
        let stats = engine.proc_stats();
        span(Layer::OnlineWindow);
        metrics.flush_partial(end, &stats);
        done_span();
    }
    Ok(StreamTotals {
        end,
        admitted: st.admitted,
        completed,
        failed,
        shed: st.shed,
        kernels,
        lambda_total: metrics.lambda_total(),
        proc_stats: engine.proc_stats(),
    })
}

/// Admission-side counters shared with the `admit_due` closure.
struct Admission {
    last_arrival: SimTime,
    admitted: u64,
    shed: u64,
    saturated: bool,
}
