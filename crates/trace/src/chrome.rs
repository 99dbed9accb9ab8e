//! Chrome trace-event JSON export (loadable in `chrome://tracing` and
//! Perfetto) plus the field-contract validator the schema tests pin.
//!
//! Layout of the exported timeline:
//!
//! * one thread track per processor (`tid = proc index + 1`), named from
//!   the machine description ("p0 CPU", …);
//! * one `driver` track (`tid = procs + 1`) carrying job admission /
//!   shed / retirement instants, control actions, and fault episodes;
//! * kernels as complete (`ph: "X"`) spans from dispatch to completion,
//!   with `xfer` / `exec` sub-slices nested inside, alternative (APT
//!   `p_alt`) placements colored and annotated;
//! * [`DecisionRecord`]s as instant events on the
//!   chosen processor's track with the full Eq.-8 provenance in `args`;
//! * every [`CounterKind`](crate::CounterKind) as a counter (`ph: "C"`)
//!   track — queue depth, in-flight jobs, live α/ρ, window miss rate.

use crate::json::{escape, JsonValue};
use crate::{DecisionRecord, TraceEvent};
use apt_base::{ProcId, SimTime};
use apt_dfg::Kernel;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Export-time description of the traced machine.
#[derive(Debug, Clone, Default)]
pub struct ChromeConfig {
    /// One display name per processor, index-aligned with `ProcId`
    /// (e.g. `"p0 CPU"`). Processors beyond this list render as `p<i>`.
    pub proc_names: Vec<String>,
}

impl ChromeConfig {
    /// Names taken straight from a machine's processor list.
    pub fn with_proc_names(proc_names: Vec<String>) -> Self {
        ChromeConfig { proc_names }
    }

    fn proc_name(&self, p: ProcId) -> String {
        self.proc_names
            .get(p.index())
            .cloned()
            .unwrap_or_else(|| format!("p{}", p.index()))
    }
}

/// `pid` of the single exported process.
const PID: u32 = 1;

/// Microsecond timestamp (Chrome's `ts` unit) from a sim instant.
fn us(t: SimTime) -> f64 {
    t.as_ns() as f64 / 1_000.0
}

/// One open kernel span being reconstructed on a processor track.
struct OpenSpan {
    node: u32,
    kernel: Kernel,
    start: SimTime,
    exec_start: Option<SimTime>,
    alt: bool,
    job: Option<u64>,
}

/// Streams one JSON event object into `out`.
struct EventWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> EventWriter<'a> {
    fn new(out: &'a mut String) -> Self {
        EventWriter { out, first: true }
    }

    fn raw(&mut self, body: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("  ");
        self.out.push_str(body);
    }

    fn meta_thread(&mut self, tid: u32, name: &str, sort_index: u32) {
        self.raw(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            escape(name)
        ));
        self.raw(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{sort_index}}}}}"
        ));
    }

    fn span(&mut self, tid: u32, name: &str, ts: f64, dur: f64, cname: Option<&str>, args: &str) {
        let mut body = format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"name\":{},\"cat\":\"kernel\",\
             \"ts\":{ts},\"dur\":{dur}",
            escape(name)
        );
        if let Some(c) = cname {
            let _ = write!(body, ",\"cname\":{}", escape(c));
        }
        let _ = write!(body, ",\"args\":{{{args}}}}}");
        self.raw(&body);
    }

    fn instant(&mut self, tid: u32, name: &str, ts: f64, args: &str) {
        self.raw(&format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"name\":{},\"cat\":\"event\",\
             \"ts\":{ts},\"s\":\"t\",\"args\":{{{args}}}}}",
            escape(name)
        ));
    }

    fn counter(&mut self, name: &str, ts: f64, value: f64) {
        self.raw(&format!(
            "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"name\":{},\"ts\":{ts},\
             \"args\":{{\"value\":{value}}}}}",
            escape(name)
        ));
    }
}

fn span_args(s: &OpenSpan) -> String {
    let mut args = format!(
        "\"node\":{},\"data_size\":{},\"alt\":{}",
        s.node, s.kernel.data_size, s.alt
    );
    if let Some(job) = s.job {
        let _ = write!(args, ",\"job\":{job}");
    }
    args
}

/// Close `span` at `end`, emitting the outer kernel span plus its
/// `xfer`/`exec` sub-slices.
fn close_span(w: &mut EventWriter<'_>, tid: u32, span: &OpenSpan, end: SimTime, completed: bool) {
    let ts = us(span.start);
    let dur = us(end) - ts;
    let cname = if !completed {
        Some("terrible")
    } else if span.alt {
        Some("thread_state_iowait")
    } else {
        None
    };
    let mut args = span_args(span);
    if !completed {
        args.push_str(",\"killed\":true");
    }
    w.span(tid, span.kernel.kind.tag(), ts, dur, cname, &args);
    let sub_args = format!("\"node\":{}", span.node);
    if let Some(exec_start) = span.exec_start {
        if exec_start > span.start && exec_start <= end {
            w.span(tid, "xfer", ts, us(exec_start) - ts, None, &sub_args);
        }
        if exec_start < end {
            w.span(
                tid,
                "exec",
                us(exec_start),
                us(end) - us(exec_start),
                None,
                &sub_args,
            );
        }
    }
}

/// Render a recorded event stream as Chrome trace-event JSON.
///
/// The result is a single `{"traceEvents": [...]}` document; feed it to
/// `chrome://tracing` or <https://ui.perfetto.dev> as-is. Events need not
/// be globally sorted (recorders emit in simulation order already; ring
/// snapshots are oldest-first).
pub fn chrome_trace(events: &[TraceEvent], cfg: &ChromeConfig) -> String {
    let mut nprocs = cfg.proc_names.len();
    for e in events {
        let p = match *e {
            TraceEvent::KernelDispatch { proc, .. }
            | TraceEvent::TransferStart { proc, .. }
            | TraceEvent::ExecStart { proc, .. }
            | TraceEvent::KernelComplete { proc, .. }
            | TraceEvent::KernelKilled { proc, .. }
            | TraceEvent::ProcCrash { proc, .. }
            | TraceEvent::ProcRepair { proc, .. } => Some(proc),
            TraceEvent::Decision(d) => Some(d.chosen),
            _ => None,
        };
        if let Some(p) = p {
            nprocs = nprocs.max(p.index() + 1);
        }
    }
    let driver_tid = nprocs as u32 + 1;
    let proc_tid = |p: ProcId| p.index() as u32 + 1;

    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\": [\n");
    let mut w = EventWriter::new(&mut out);

    w.raw(&format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"apt-sim\"}}}}"
    ));
    for i in 0..nprocs {
        let name = cfg.proc_name(ProcId::new(i));
        w.meta_thread(i as u32 + 1, &name, i as u32 + 1);
    }
    w.meta_thread(driver_tid, "driver", driver_tid);

    // Replay per-processor state to pair dispatches with completions, and
    // the slot → job binding so spans can name their owning job.
    let mut open: Vec<Option<OpenSpan>> = (0..nprocs).map(|_| None).collect();
    let mut slot_job: BTreeMap<u32, u64> = BTreeMap::new();

    for e in events {
        match *e {
            TraceEvent::KernelBound { node, job, .. } => {
                slot_job.insert(node, job);
            }
            TraceEvent::KernelDispatch {
                node,
                kernel,
                proc,
                at,
                alt,
            } => {
                // A dispatch while a span is open (ring-truncated stream)
                // closes the stale span at its own start.
                if let Some(stale) = open[proc.index()].take() {
                    close_span(&mut w, proc_tid(proc), &stale, at, false);
                }
                open[proc.index()] = Some(OpenSpan {
                    node,
                    kernel,
                    start: at,
                    exec_start: None,
                    alt,
                    job: slot_job.get(&node).copied(),
                });
            }
            TraceEvent::ExecStart { node, proc, at } => {
                if let Some(span) = open[proc.index()].as_mut() {
                    if span.node == node {
                        span.exec_start = Some(at);
                    }
                }
            }
            TraceEvent::TransferStart { .. } => {
                // The xfer sub-slice is derived from dispatch → exec-start;
                // the explicit event carries the same boundary.
            }
            TraceEvent::KernelComplete { node, proc, at } => {
                if let Some(span) = open[proc.index()].take() {
                    if span.node == node {
                        close_span(&mut w, proc_tid(proc), &span, at, true);
                    } else {
                        open[proc.index()] = Some(span);
                    }
                }
            }
            TraceEvent::KernelKilled { node, proc, at } => {
                if let Some(span) = open[proc.index()].take() {
                    if span.node == node {
                        close_span(&mut w, proc_tid(proc), &span, at, false);
                    } else {
                        open[proc.index()] = Some(span);
                    }
                }
            }
            TraceEvent::KernelReady { .. } => {}
            TraceEvent::JobAdmitted {
                job, at, kernels, ..
            } => {
                w.instant(
                    driver_tid,
                    "job-admitted",
                    us(at),
                    &format!("\"job\":{job},\"kernels\":{kernels}"),
                );
            }
            TraceEvent::JobShed { at, reason } => {
                w.instant(
                    driver_tid,
                    "job-shed",
                    us(at),
                    &format!("\"reason\":{}", escape(reason.label())),
                );
            }
            TraceEvent::JobRetired {
                job,
                at,
                failed,
                missed_deadline,
            } => {
                w.instant(
                    driver_tid,
                    "job-retired",
                    us(at),
                    &format!("\"job\":{job},\"failed\":{failed},\"missed\":{missed_deadline}"),
                );
            }
            TraceEvent::RetryAttempt {
                node,
                at,
                attempt,
                backoff,
            } => {
                w.instant(
                    driver_tid,
                    "retry",
                    us(at),
                    &format!(
                        "\"node\":{node},\"attempt\":{attempt},\"backoff_ms\":{}",
                        backoff.as_ms_f64()
                    ),
                );
            }
            TraceEvent::ProcCrash { proc, at } => {
                if let Some(span) = open[proc.index()].take() {
                    close_span(&mut w, proc_tid(proc), &span, at, false);
                }
                w.instant(proc_tid(proc), "crash", us(at), "");
            }
            TraceEvent::ProcRepair { proc, at } => {
                w.instant(proc_tid(proc), "repair", us(at), "");
            }
            TraceEvent::LinkDegrade { at, active } => {
                w.instant(
                    driver_tid,
                    if active {
                        "link-degrade-start"
                    } else {
                        "link-degrade-end"
                    },
                    us(at),
                    "",
                );
            }
            TraceEvent::Control {
                at,
                kind,
                value,
                applied,
            } => {
                w.instant(
                    driver_tid,
                    kind.label(),
                    us(at),
                    &format!("\"value\":{value},\"applied\":{applied}"),
                );
            }
            TraceEvent::Decision(DecisionRecord {
                at,
                node,
                chosen,
                meta,
            }) => {
                w.instant(
                    proc_tid(chosen),
                    "alt-decision",
                    us(at),
                    &format!(
                        "\"node\":{node},\"best_proc\":{},\"best_exec_ms\":{},\
                         \"best_busy_until_ms\":{},\"threshold_ms\":{},\"alt_cost_ms\":{}",
                        meta.best_proc.index(),
                        meta.best_exec.as_ms_f64(),
                        meta.best_busy_until.as_ms_f64(),
                        meta.threshold.as_ms_f64(),
                        meta.alt_cost.as_ms_f64()
                    ),
                );
            }
            TraceEvent::Counter { at, kind, value } => {
                w.counter(kind.label(), us(at), value);
            }
        }
    }

    // Close anything still running when recording stopped.
    let end = events.iter().map(|e| e.at()).max().unwrap_or(SimTime::ZERO);
    for (i, slot) in open.iter_mut().enumerate() {
        if let Some(span) = slot.take() {
            let at = end.max(span.start);
            close_span(&mut w, i as u32 + 1, &span, at, false);
        }
    }

    out.push_str("\n]}\n");
    out
}

/// What [`validate`] measured about an exported document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeStats {
    /// Total event objects.
    pub events: usize,
    /// Complete (`ph: "X"`) span events.
    pub spans: usize,
    /// Thread tracks (`tid`s) that carry at least one span.
    pub span_tracks: Vec<u32>,
    /// Counter-track names, sorted.
    pub counter_tracks: Vec<String>,
    /// Instant events named `alt-decision` (DecisionRecord annotations).
    pub alt_decisions: usize,
    /// Spans flagged `alt: true`.
    pub alt_spans: usize,
}

fn req_num(ev: &JsonValue, key: &str, i: usize) -> Result<f64, String> {
    ev.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))
}

/// Parse an exported document and enforce the trace-event field contract:
/// a `traceEvents` array whose members all carry `ph`; `X` events carry
/// finite `ts`/`dur` and integer `pid`/`tid`; counters carry `args`; and
/// the spans of each track nest monotonically (stack discipline — no
/// partially-overlapping spans on one `tid`).
pub fn validate(text: &str) -> Result<ChromeStats, String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut stats = ChromeStats {
        events: events.len(),
        ..ChromeStats::default()
    };
    // (tid) -> [(ts, dur)]
    let mut spans_by_tid: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        match ph {
            "X" => {
                let ts = req_num(ev, "ts", i)?;
                let dur = req_num(ev, "dur", i)?;
                let pid = req_num(ev, "pid", i)?;
                let tid = req_num(ev, "tid", i)?;
                if !ts.is_finite() || !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: non-finite span geometry"));
                }
                if pid.fract() != 0.0 || tid.fract() != 0.0 {
                    return Err(format!("event {i}: non-integer pid/tid"));
                }
                ev.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: span without `name`"))?;
                stats.spans += 1;
                if ev
                    .get("args")
                    .and_then(|a| a.get("alt"))
                    .map(|v| *v == JsonValue::Bool(true))
                    .unwrap_or(false)
                {
                    stats.alt_spans += 1;
                }
                spans_by_tid.entry(tid as u32).or_default().push((ts, dur));
            }
            "C" => {
                req_num(ev, "ts", i)?;
                let name = ev
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: counter without `name`"))?;
                ev.get("args")
                    .ok_or_else(|| format!("event {i}: counter without `args`"))?;
                if !stats.counter_tracks.iter().any(|n| n == name) {
                    stats.counter_tracks.push(name.to_string());
                }
            }
            "i" | "I" => {
                req_num(ev, "ts", i)?;
                if ev
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .map(|n| n == "alt-decision")
                    .unwrap_or(false)
                {
                    stats.alt_decisions += 1;
                }
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    // Monotone nesting per track: sweep spans ordered by (start asc, dur
    // desc); every span must lie inside whatever is still open.
    const EPS: f64 = 1e-6;
    for (tid, spans) in &mut spans_by_tid {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new(); // open span end times
        for &(ts, dur) in spans.iter() {
            while let Some(&end) = stack.last() {
                if end <= ts + EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                if ts + dur > end + EPS {
                    return Err(format!(
                        "tid {tid}: span [{ts}, {}) overlaps enclosing span ending {end}",
                        ts + dur
                    ));
                }
            }
            stack.push(ts + dur);
        }
        stats.span_tracks.push(*tid);
    }
    stats.counter_tracks.sort();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterKind, DecisionMeta, ShedReason};
    use apt_base::SimDuration;
    use apt_dfg::KernelKind;

    fn kernel() -> Kernel {
        Kernel::new(KernelKind::Bfs, 1_000_000)
    }

    fn sample_events() -> Vec<TraceEvent> {
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        vec![
            TraceEvent::JobAdmitted {
                job: 0,
                at: SimTime::ZERO,
                kernels: 1,
                deadline: None,
            },
            TraceEvent::KernelBound {
                node: 3,
                job: 0,
                at: SimTime::ZERO,
            },
            TraceEvent::KernelReady {
                node: 3,
                at: SimTime::ZERO,
            },
            TraceEvent::KernelDispatch {
                node: 3,
                kernel: kernel(),
                proc: p0,
                at: SimTime::from_ms(1),
                alt: false,
            },
            TraceEvent::ExecStart {
                node: 3,
                proc: p0,
                at: SimTime::from_ms(2),
            },
            TraceEvent::Decision(DecisionRecord {
                at: SimTime::from_ms(1),
                node: 4,
                chosen: p1,
                meta: DecisionMeta {
                    best_proc: p0,
                    best_exec: SimDuration::from_ms(10),
                    best_busy_until: SimTime::from_ms(60),
                    threshold: SimDuration::from_ms(40),
                    alt_cost: SimDuration::from_ms(30),
                },
            }),
            TraceEvent::KernelDispatch {
                node: 4,
                kernel: kernel(),
                proc: p1,
                at: SimTime::from_ms(1),
                alt: true,
            },
            TraceEvent::ExecStart {
                node: 4,
                proc: p1,
                at: SimTime::from_ms(1),
            },
            TraceEvent::KernelComplete {
                node: 3,
                proc: p0,
                at: SimTime::from_ms(12),
            },
            TraceEvent::KernelComplete {
                node: 4,
                proc: p1,
                at: SimTime::from_ms(31),
            },
            TraceEvent::JobShed {
                at: SimTime::from_ms(5),
                reason: ShedReason::Gate,
            },
            TraceEvent::Counter {
                at: SimTime::from_ms(20),
                kind: CounterKind::Alpha,
                value: 4.0,
            },
            TraceEvent::Counter {
                at: SimTime::from_ms(20),
                kind: CounterKind::Rho,
                value: 1.0,
            },
            TraceEvent::JobRetired {
                job: 0,
                at: SimTime::from_ms(31),
                failed: false,
                missed_deadline: false,
            },
        ]
    }

    #[test]
    fn export_validates_and_counts_tracks() {
        let cfg = ChromeConfig::with_proc_names(vec!["p0 CPU".into(), "p1 GPU".into()]);
        let text = chrome_trace(&sample_events(), &cfg);
        let stats = validate(&text).expect("export must satisfy its own contract");
        // Two kernels: each an outer span + xfer/exec sub-slices (node 4
        // has a zero-length xfer, so it gets outer + exec only).
        assert_eq!(stats.spans, 5);
        assert_eq!(stats.span_tracks, vec![1, 2]);
        assert_eq!(stats.alt_spans, 1);
        assert_eq!(stats.alt_decisions, 1);
        assert_eq!(stats.counter_tracks, vec!["alpha", "rho"]);
        assert!(text.contains("\"job\":0"), "spans name their owning job");
        assert!(text.contains("thread_name"));
        assert!(text.contains("p1 GPU"));
    }

    #[test]
    fn killed_spans_close_at_the_kill_instant() {
        let p0 = ProcId::new(0);
        let events = vec![
            TraceEvent::KernelDispatch {
                node: 1,
                kernel: kernel(),
                proc: p0,
                at: SimTime::from_ms(1),
                alt: false,
            },
            TraceEvent::KernelKilled {
                node: 1,
                proc: p0,
                at: SimTime::from_ms(3),
            },
        ];
        let text = chrome_trace(&events, &ChromeConfig::default());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.spans, 1);
        assert!(text.contains("\"killed\":true"));
    }

    #[test]
    fn dangling_spans_are_closed_at_stream_end() {
        let p0 = ProcId::new(0);
        let events = vec![
            TraceEvent::KernelDispatch {
                node: 1,
                kernel: kernel(),
                proc: p0,
                at: SimTime::from_ms(1),
                alt: false,
            },
            TraceEvent::Counter {
                at: SimTime::from_ms(9),
                kind: CounterKind::QueueDepth,
                value: 2.0,
            },
        ];
        let text = chrome_trace(&events, &ChromeConfig::default());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.spans, 1, "dangling dispatch still renders");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate("not json").is_err());
        assert!(
            validate(r#"{"traceEvents": [{"ts": 1}]}"#).is_err(),
            "no ph"
        );
        assert!(
            validate(r#"{"traceEvents": [{"ph":"X","ts":1,"dur":1,"pid":1}]}"#).is_err(),
            "span without tid"
        );
        // Partially-overlapping spans on one track violate nesting.
        let bad = r#"{"traceEvents": [
            {"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
            {"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":1}
        ]}"#;
        assert!(validate(bad).is_err(), "overlap must be rejected");
        // Proper nesting passes.
        let good = r#"{"traceEvents": [
            {"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
            {"ph":"X","name":"b","ts":2,"dur":3,"pid":1,"tid":1}
        ]}"#;
        assert!(validate(good).is_ok());
    }

    #[test]
    fn empty_stream_exports_a_valid_document() {
        let text = chrome_trace(&[], &ChromeConfig::default());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.spans, 0);
        assert_eq!(stats.counter_tracks.len(), 0);
    }
}
