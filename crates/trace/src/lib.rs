//! Structured, bounded-memory event tracing for the APT simulator.
//!
//! Every layer of the stack — the discrete-event engine, the open-stream
//! driver, the fault runtime, and the control plane — can emit typed
//! [`TraceEvent`]s into a [`TraceSink`] when one is armed. Tracing is
//! **off by default and free when off**: the engine holds an
//! `Option<Box<dyn TraceSink>>` and every emission site is a single
//! `is_some` branch, so untraced runs execute the exact same instruction
//! stream as before this crate existed (the equivalence suites pin this
//! byte-for-byte), and an armed [`NullSink`] isolates the cost of the
//! emission sites themselves.
//!
//! Three sinks cover the use cases:
//!
//! * [`VecSink`] — unbounded recorder for tests and small exports;
//! * [`RingSink`] — bounded recorder keeping the **latest** `cap` events
//!   with a drop counter, for long streams;
//! * [`NullSink`] — discards everything; prices the armed hot path.
//!
//! The APT policy family additionally explains its alternative-processor
//! choices: each alt assignment carries a [`DecisionMeta`] (best processor,
//! its busy-until, the Eq.-8 threshold `α·x`, the alternative's cost) which
//! the engine stamps into a [`DecisionRecord`] event, turning `alt = true`
//! into an auditable decision.
//!
//! [`chrome::chrome_trace`] renders a recorded event stream as Chrome
//! trace-event JSON (loadable in `chrome://tracing` or Perfetto) and
//! [`summary::render_summary`] produces the §2.5.1 λ-decomposition report
//! (dependency-wait / scheduler-wait / processor-wait per kernel).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apt_base::{ProcId, SimDuration, SimTime};
use apt_dfg::Kernel;

pub mod chrome;
pub mod json;
pub mod summary;

/// Why the driver refused a job at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// An admission gate rejected the job (utilization/SLO budget).
    Gate,
    /// The in-flight cap was hit with `shed_when_full` set.
    CapacityFull,
}

impl ShedReason {
    /// Short label for exports.
    pub const fn label(self) -> &'static str {
        match self {
            ShedReason::Gate => "gate",
            ShedReason::CapacityFull => "capacity",
        }
    }
}

/// Which control-plane knob a [`TraceEvent::Control`] event turned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// APT-family threshold factor α.
    Alpha,
    /// Admission-gate utilization bound ρ.
    AdmissionBound,
    /// Policy roster switch (value = member index).
    SwitchPolicy,
}

impl ControlKind {
    /// Short label for exports.
    pub const fn label(self) -> &'static str {
        match self {
            ControlKind::Alpha => "set-alpha",
            ControlKind::AdmissionBound => "set-admission-bound",
            ControlKind::SwitchPolicy => "switch-policy",
        }
    }
}

/// Which scalar a [`TraceEvent::Counter`] sample belongs to. Each kind
/// becomes one counter track in the Chrome export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Jobs admitted but not yet retired.
    InFlightJobs,
    /// Kernels sitting in the engine's ready list.
    QueueDepth,
    /// Live APT threshold factor α.
    Alpha,
    /// Live admission-bound ρ.
    Rho,
    /// Deadline miss rate of the just-closed metrics window.
    WindowMissRate,
}

impl CounterKind {
    /// Counter-track name in the Chrome export.
    pub const fn label(self) -> &'static str {
        match self {
            CounterKind::InFlightJobs => "in-flight jobs",
            CounterKind::QueueDepth => "queue depth",
            CounterKind::Alpha => "alpha",
            CounterKind::Rho => "rho",
            CounterKind::WindowMissRate => "window miss rate",
        }
    }
}

/// Provenance of one APT-family alternative-processor choice, recorded by
/// the policy alongside the assignment (Eq. 8: admit `p_alt` iff
/// `exec + transfer ≤ α·x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionMeta {
    /// The best (fastest-completion) processor `p_min` that was busy.
    pub best_proc: ProcId,
    /// Best execution time `x` on `p_min` (the threshold base).
    pub best_exec: SimDuration,
    /// When `p_min` would have become free.
    pub best_busy_until: SimTime,
    /// The admission threshold `α·x`.
    pub threshold: SimDuration,
    /// The chosen alternative's total cost (exec + input transfer).
    pub alt_cost: SimDuration,
}

/// A [`DecisionMeta`] stamped by the engine with when and for which kernel
/// the alternative assignment was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Decision instant (assignment application time).
    pub at: SimTime,
    /// The placed kernel's node slot.
    pub node: u32,
    /// The alternative processor that was chosen.
    pub chosen: ProcId,
    /// The policy-recorded provenance.
    pub meta: DecisionMeta,
}

/// One timestamped simulator event. All variants are `Copy` so recorders
/// are flat arrays with no per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The driver admitted a job into the open engine.
    JobAdmitted {
        /// Driver-assigned job id.
        job: u64,
        /// Arrival (= admission) instant.
        at: SimTime,
        /// Number of kernels in the job's DFG.
        kernels: u32,
        /// Deadline, when the stream carries one.
        deadline: Option<SimTime>,
    },
    /// The driver refused a job at admission time.
    JobShed {
        /// Arrival instant of the refused job.
        at: SimTime,
        /// Gate rejection vs capacity shedding.
        reason: ShedReason,
    },
    /// A job left the system (all kernels finished, or cancelled).
    JobRetired {
        /// Driver-assigned job id.
        job: u64,
        /// Retirement instant.
        at: SimTime,
        /// True when the job was cancelled after retry exhaustion.
        failed: bool,
        /// True when it completed after its deadline.
        missed_deadline: bool,
    },
    /// A node slot was bound to a job at admission (links kernel events to
    /// jobs; the slot id recycles after the job retires).
    KernelBound {
        /// Engine node slot.
        node: u32,
        /// Owning job.
        job: u64,
        /// Admission instant (= the job's arrival).
        at: SimTime,
    },
    /// A kernel became ready (all predecessors done, arrival passed).
    KernelReady {
        /// Engine node slot.
        node: u32,
        /// Readiness instant.
        at: SimTime,
    },
    /// A kernel was dispatched to a processor (input transfer begins).
    KernelDispatch {
        /// Engine node slot.
        node: u32,
        /// Kernel identity (kind + data size).
        kernel: Kernel,
        /// Target processor.
        proc: ProcId,
        /// Dispatch instant.
        at: SimTime,
        /// True for an APT alternative-processor placement.
        alt: bool,
    },
    /// Input transfer occupies the interconnect from `at` to `until`.
    TransferStart {
        /// Engine node slot.
        node: u32,
        /// Target processor.
        proc: ProcId,
        /// Transfer start.
        at: SimTime,
        /// Transfer end (= execution start).
        until: SimTime,
    },
    /// Execution begins (input transfer done, processor acquired).
    ExecStart {
        /// Engine node slot.
        node: u32,
        /// Executing processor.
        proc: ProcId,
        /// Execution start instant.
        at: SimTime,
    },
    /// A kernel finished successfully.
    KernelComplete {
        /// Engine node slot.
        node: u32,
        /// Executing processor.
        proc: ProcId,
        /// Completion instant.
        at: SimTime,
    },
    /// A running kernel was killed (transient fault, crash, or job
    /// cancellation) — its span ends here without completing.
    KernelKilled {
        /// Engine node slot.
        node: u32,
        /// Processor it was running on.
        proc: ProcId,
        /// Kill instant.
        at: SimTime,
    },
    /// A failed kernel was scheduled for re-dispatch.
    RetryAttempt {
        /// Engine node slot.
        node: u32,
        /// Failure instant.
        at: SimTime,
        /// Attempt number being retried (1 = first retry).
        attempt: u32,
        /// Backoff until the re-dispatch.
        backoff: SimDuration,
    },
    /// A processor crashed (leaves the live set).
    ProcCrash {
        /// The crashed processor.
        proc: ProcId,
        /// Crash instant.
        at: SimTime,
    },
    /// A crashed processor came back.
    ProcRepair {
        /// The repaired processor.
        proc: ProcId,
        /// Repair instant.
        at: SimTime,
    },
    /// The interconnect entered (`active`) or left a degraded episode.
    LinkDegrade {
        /// Episode edge instant.
        at: SimTime,
        /// True at episode start, false at its end.
        active: bool,
    },
    /// The control plane acted (or was refused) at a window close.
    Control {
        /// Window-close instant.
        at: SimTime,
        /// Which knob.
        kind: ControlKind,
        /// The requested value (α, ρ, or roster index).
        value: f64,
        /// Whether the driver applied it.
        applied: bool,
    },
    /// An APT alternative-processor decision with full provenance.
    Decision(DecisionRecord),
    /// A sampled scalar (rendered as a Chrome counter track).
    Counter {
        /// Sample instant.
        at: SimTime,
        /// Which track.
        kind: CounterKind,
        /// Sample value.
        value: f64,
    },
}

impl TraceEvent {
    /// The event's simulation timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::JobAdmitted { at, .. }
            | TraceEvent::JobShed { at, .. }
            | TraceEvent::JobRetired { at, .. }
            | TraceEvent::KernelBound { at, .. }
            | TraceEvent::KernelReady { at, .. }
            | TraceEvent::KernelDispatch { at, .. }
            | TraceEvent::TransferStart { at, .. }
            | TraceEvent::ExecStart { at, .. }
            | TraceEvent::KernelComplete { at, .. }
            | TraceEvent::KernelKilled { at, .. }
            | TraceEvent::RetryAttempt { at, .. }
            | TraceEvent::ProcCrash { at, .. }
            | TraceEvent::ProcRepair { at, .. }
            | TraceEvent::LinkDegrade { at, .. }
            | TraceEvent::Control { at, .. }
            | TraceEvent::Counter { at, .. } => at,
            TraceEvent::Decision(d) => d.at,
        }
    }
}

/// Receives [`TraceEvent`]s from an armed engine/driver. Implementations
/// must be cheap in [`record`](TraceSink::record): it sits on the hot path
/// whenever tracing is on.
///
/// `Send` is a supertrait so an armed engine stays shard-ready: the
/// sharded-streaming roadmap moves whole engines (tracer included) onto
/// worker threads, and a `!Send` sink would silently pin every armed run
/// to one core. All in-tree sinks are plain owned data, so the bound
/// costs nothing; `apt-lint`'s `shard_readiness` suite asserts it holds
/// transitively.
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, ev: TraceEvent);

    /// The recorded events, oldest first. Discarding sinks return empty.
    fn snapshot(&self) -> Vec<TraceEvent>;

    /// Events discarded because of a capacity bound.
    fn dropped(&self) -> u64 {
        0
    }

    /// Total events this sink was asked to record, including any later
    /// discarded (`recorded = retained + dropped` for bounded sinks).
    /// Telemetry surfaces this as `trace_events_total` next to
    /// `trace_events_dropped_total`, so silent ring truncation on long
    /// soak runs is visible without snapshotting the sink. The default
    /// counts the retained snapshot — discarding sinks that never
    /// retain (e.g. [`NullSink`]) report 0.
    fn recorded(&self) -> u64 {
        self.snapshot().len() as u64 + self.dropped()
    }

    /// Sink label for reports.
    fn name(&self) -> &'static str;
}

/// Discards every event — isolates the cost of the armed emission path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _ev: TraceEvent) {}

    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// Unbounded recorder — tests and short runs.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty recorder.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }

    fn recorded(&self) -> u64 {
        self.events.len() as u64
    }

    fn name(&self) -> &'static str {
        "vec"
    }
}

/// Bounded ring recorder: keeps the **latest** `cap` events and counts
/// what it had to overwrite, so long streams trace in constant memory.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RingSink {
            buf: Vec::with_capacity(cap.min(64 * 1024)),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent::KernelReady {
            node: ns as u32,
            at: SimTime::from_ns(ns),
        }
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        for i in 0..5 {
            s.record(ev(i));
        }
        assert_eq!(s.events().len(), 5);
        assert_eq!(s.snapshot(), s.events().to_vec());
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.name(), "vec");
        assert_eq!(s.events()[3].at(), SimTime::from_ns(3));
    }

    #[test]
    fn null_sink_discards() {
        let mut s = NullSink;
        s.record(ev(1));
        assert!(s.snapshot().is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_sink_keeps_latest_and_counts_drops() {
        let mut s = RingSink::new(3);
        for i in 0..7 {
            s.record(ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 4);
        let snap = s.snapshot();
        let times: Vec<u64> = snap.iter().map(|e| e.at().as_ns()).collect();
        assert_eq!(times, vec![4, 5, 6], "ring keeps the latest, oldest first");
    }

    #[test]
    fn recorded_counts_retained_plus_dropped() {
        let mut ring = RingSink::new(3);
        let mut vec = VecSink::new();
        let mut null = NullSink;
        for i in 0..7 {
            ring.record(ev(i));
            vec.record(ev(i));
            null.record(ev(i));
        }
        assert_eq!(ring.recorded(), 7, "ring: retained 3 + dropped 4");
        assert_eq!(vec.recorded(), 7);
        assert_eq!(null.recorded(), 0, "null retains nothing and drops nothing");
    }

    #[test]
    fn ring_sink_below_capacity_is_lossless() {
        let mut s = RingSink::new(8);
        for i in 0..3 {
            s.record(ev(i));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.snapshot().len(), 3);
        assert_eq!(RingSink::new(0).capacity(), 1, "cap clamps to 1");
    }

    #[test]
    fn every_event_reports_its_timestamp() {
        let t = SimTime::from_ms(7);
        let d = DecisionRecord {
            at: t,
            node: 1,
            chosen: ProcId::new(2),
            meta: DecisionMeta {
                best_proc: ProcId::new(0),
                best_exec: SimDuration::from_ms(10),
                best_busy_until: SimTime::from_ms(40),
                threshold: SimDuration::from_ms(40),
                alt_cost: SimDuration::from_ms(30),
            },
        };
        for e in [
            TraceEvent::JobAdmitted {
                job: 0,
                at: t,
                kernels: 3,
                deadline: None,
            },
            TraceEvent::JobShed {
                at: t,
                reason: ShedReason::Gate,
            },
            TraceEvent::Decision(d),
            TraceEvent::Counter {
                at: t,
                kind: CounterKind::Alpha,
                value: 4.0,
            },
            TraceEvent::LinkDegrade {
                at: t,
                active: true,
            },
        ] {
            assert_eq!(e.at(), t);
        }
        assert_eq!(ShedReason::CapacityFull.label(), "capacity");
        assert_eq!(ControlKind::Alpha.label(), "set-alpha");
        assert_eq!(CounterKind::Rho.label(), "rho");
    }
}
