//! Outside-in span tracer for the traced run.
//!
//! Spans are opened and closed by the benchmark around calls into each
//! layer's public functions (see `replica.rs` and [`TracedPolicy`]); the
//! program itself is not instrumented. A span's *self* time is its duration
//! minus the spans nested in it, so `open.decide` is reported without the
//! `policy.decide` calls it makes, and `engine.simulate` without `prepare`
//! and `decide`.
//!
//! The clock is not free (tens of ns per read on a VM), so the tracer
//! calibrates its own cost before measuring and subtracts it: `e`, the
//! duration an empty span records, and `o`, the time an empty span adds to
//! its parent (both clock reads plus bookkeeping). A span with `k` children
//! has `e + k·(o − e)` removed from its self time, and a traced repetition
//! of wall `W` with `n` spans reconciles to `W − e − n·o`. Both costs come
//! from a tight loop first; a [`Tracer::shadow`] run then measures `o` inside
//! the workload itself and [`Tracer::set_span_cost`] rescales them.

use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, SimView};
use apt_telemetry::LogHistogram;
use std::cell::RefCell;
use std::time::Instant;

/// The layers the traced run times, each through one public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Source::next_job` (apt-stream `source`).
    SourceNextJob,
    /// `AdmissionGate::admit` (apt-slo `admission`).
    GateAdmit,
    /// `AdmissionGate::on_complete`.
    GateOnComplete,
    /// `OpenEngine::admit_with_deadline` (apt-hetsim `open`, `cost::bind_slot`).
    OpenAdmit,
    /// `OpenEngine::decide` minus `policy.decide` (engine fixpoint, ready set, view).
    OpenDecide,
    /// `Policy::decide` (apt-core, apt-policies).
    PolicyDecide,
    /// `OpenEngine::advance` (calendar, event handling, retire).
    OpenAdvance,
    /// `OpenEngine::drain_completed`.
    OpenDrain,
    /// `OnlineMetrics::observe_*` (apt-metrics `online`).
    OnlineObserve,
    /// `OnlineMetrics::maybe_snapshot` / `flush_partial`.
    OnlineWindow,
    /// `apt_dfg::generator::generate`.
    DfgGenerate,
    /// `Policy::prepare` (ranking and static plans).
    PolicyPrepare,
    /// `apt_hetsim::simulate` minus `prepare` and `decide`.
    EngineSimulate,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::SourceNextJob,
        Layer::GateAdmit,
        Layer::GateOnComplete,
        Layer::OpenAdmit,
        Layer::OpenDecide,
        Layer::PolicyDecide,
        Layer::OpenAdvance,
        Layer::OpenDrain,
        Layer::OnlineObserve,
        Layer::OnlineWindow,
        Layer::DfgGenerate,
        Layer::PolicyPrepare,
        Layer::EngineSimulate,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SourceNextJob => "source.next_job",
            Layer::GateAdmit => "gate.admit",
            Layer::GateOnComplete => "gate.on_complete",
            Layer::OpenAdmit => "open.admit",
            Layer::OpenDecide => "open.decide",
            Layer::PolicyDecide => "policy.decide",
            Layer::OpenAdvance => "open.advance",
            Layer::OpenDrain => "open.drain",
            Layer::OnlineObserve => "online.observe",
            Layer::OnlineWindow => "online.window",
            Layer::DfgGenerate => "dfg.generate",
            Layer::PolicyPrepare => "policy.prepare",
            Layer::EngineSimulate => "engine.simulate",
        }
    }
}

/// Index of the scratch slot calibration spans are charged to.
const CALIBRATION: usize = Layer::ALL.len();
/// Empty spans a shadow tracer adds after every span. They record into
/// the same layer slot, so they touch the same tracer state a real span
/// does.
const SHADOW_SPANS: usize = 2;

/// Relative error of the per-call quantiles.
const HIST_GAMMA: f64 = 0.02;

#[derive(Debug, Clone)]
struct LayerStats {
    calls: u64,
    /// Σ (duration − nested span durations), uncorrected.
    raw_ns: u64,
    /// Spans nested directly in this layer's spans.
    children: u64,
    /// Per-call self time less the children's calibrated cost (the span's
    /// own cost `e` is subtracted at report time).
    per_call: LogHistogram,
}

impl Default for LayerStats {
    fn default() -> Self {
        LayerStats {
            calls: 0,
            raw_ns: 0,
            children: 0,
            per_call: LogHistogram::new(HIST_GAMMA),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    slot: usize,
    t0: Instant,
    child_ns: u64,
    children: u64,
}

/// Span accumulator. Single-threaded; shared through a `RefCell` so the
/// [`TracedPolicy`] wrapper can open spans while the engine holds the
/// outer one.
#[derive(Debug)]
pub struct Tracer {
    stack: Vec<Frame>,
    stats: Vec<LayerStats>,
    /// Tight-loop calibration: the duration an empty span records, and the
    /// time it adds to its parent (ns).
    e_loop: f64,
    o_loop: f64,
    /// In-situ span cost over the tight-loop one (see [`Tracer::set_span_cost`]).
    scale: f64,
    /// Shadow mode: every span is followed by empty sibling spans.
    shadow: bool,
    rep_start: Option<Instant>,
    top_ns: u64,
    top_spans: u64,
    rep_spans: u64,
    /// Root ("glue") bookkeeping over all repetitions.
    glue_raw_ns: u64,
    glue_children: u64,
    /// (wall ns, spans) per repetition.
    reps: Vec<(u64, u64)>,
    /// `view.ready.len()` histogram over `policy.decide` calls (exact).
    ready_len: Vec<u64>,
    decide_hits: u64,
    admit_offers: u64,
    admit_accepts: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            stack: Vec::with_capacity(8),
            stats: vec![LayerStats::default(); Layer::ALL.len() + 1],
            e_loop: 0.0,
            o_loop: 0.0,
            scale: 1.0,
            shadow: false,
            rep_start: None,
            top_ns: 0,
            top_spans: 0,
            rep_spans: 0,
            glue_raw_ns: 0,
            glue_children: 0,
            reps: Vec::new(),
            ready_len: Vec::new(),
            decide_hits: 0,
            admit_offers: 0,
            admit_accepts: 0,
        }
    }
}

impl Tracer {
    /// A tracer with its own span cost calibrated in a tight loop: the
    /// median over five rounds of 200 000 empty spans.
    pub fn calibrated() -> Tracer {
        const ROUNDS: usize = 5;
        const SPANS: u64 = 200_000;
        let cell = RefCell::new(Tracer::default());
        let (mut es, mut os) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            cell.borrow_mut().stats[CALIBRATION] = LayerStats::default();
            let start = Instant::now();
            for _ in 0..SPANS {
                cell.borrow_mut().enter_slot(CALIBRATION);
                exit(&cell);
            }
            let total = start.elapsed().as_nanos() as f64;
            os.push(total / SPANS as f64);
            es.push(cell.borrow().stats[CALIBRATION].raw_ns as f64 / SPANS as f64);
        }
        let mut t = cell.into_inner();
        t.e_loop = median(&mut es);
        t.o_loop = median(&mut os);
        t.stats[CALIBRATION] = LayerStats::default();
        t
    }

    /// A tracer that follows every span with [`SHADOW_SPANS`] empty siblings. Running the
    /// same input through it and through a normal tracer measures what a
    /// span really costs inside the workload: the wall-time difference over
    /// the extra span count.
    pub fn shadow() -> Tracer {
        Tracer {
            shadow: true,
            ..Tracer::default()
        }
    }

    /// Replace the tight-loop span cost with the in-situ one, `o` ns per
    /// span; `e` is scaled by the same factor.
    pub fn set_span_cost(&mut self, o: f64) {
        self.scale = o / self.o_loop;
    }

    fn e(&self) -> f64 {
        self.e_loop * self.scale
    }

    fn o(&self) -> f64 {
        self.o_loop * self.scale
    }

    #[inline]
    fn enter_slot(&mut self, slot: usize) {
        self.stack.push(Frame {
            slot,
            t0: Instant::now(),
            child_ns: 0,
            children: 0,
        });
    }

    /// Close the innermost span and return its slot.
    #[inline]
    fn close(&mut self) -> usize {
        let t1 = Instant::now();
        let f = self.stack.pop().expect("exit matches an enter");
        let d = (t1 - f.t0).as_nanos() as u64;
        let raw = d - f.child_ns;
        let nested_cost = f.children as f64 * (self.o_loop - self.e_loop);
        let s = &mut self.stats[f.slot];
        s.calls += 1;
        s.raw_ns += raw;
        s.children += f.children;
        s.per_call.observe(raw as f64 - nested_cost);
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += d;
                parent.children += 1;
            }
            None => {
                self.top_ns += d;
                self.top_spans += 1;
            }
        }
        self.rep_spans += 1;
        f.slot
    }

    /// Start timing one traced repetition.
    pub fn begin_rep(&mut self) {
        self.top_ns = 0;
        self.top_spans = 0;
        self.rep_spans = 0;
        self.rep_start = Some(Instant::now());
    }

    /// Stop timing the current repetition and return its wall time, ns;
    /// everything outside a span is charged to `glue`.
    pub fn end_rep(&mut self) -> u64 {
        let wall = self
            .rep_start
            .take()
            .expect("end_rep follows begin_rep")
            .elapsed()
            .as_nanos() as u64;
        assert!(self.stack.is_empty(), "a span was left open");
        self.glue_raw_ns += wall - self.top_ns;
        self.glue_children += self.top_spans;
        self.reps.push((wall, self.rep_spans));
        wall
    }

    /// Wall time (ns) and span count of the last repetition.
    pub fn last_rep(&self) -> (u64, u64) {
        self.reps.last().copied().unwrap_or((0, 0))
    }

    /// Each repetition's corrected wall time, ns.
    fn corrected_walls(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|&(wall, spans)| self.corrected(wall, spans, self.o()))
            .collect()
    }

    /// A repetition's wall time with its spans removed at `o` ns per span.
    pub fn corrected(&self, wall: u64, spans: u64, o: f64) -> f64 {
        wall as f64 - self.e_loop * o / self.o_loop - spans as f64 * o
    }

    /// Record the ready-set depth a `policy.decide` call sees and whether
    /// it assigned anything.
    pub fn note_decide(&mut self, ready_len: usize, hit: bool) {
        if self.ready_len.len() <= ready_len {
            self.ready_len.resize(ready_len + 1, 0);
        }
        self.ready_len[ready_len] += 1;
        self.decide_hits += u64::from(hit);
    }

    /// Record one admission decision.
    pub fn note_admit(&mut self, accepted: bool) {
        self.admit_offers += 1;
        self.admit_accepts += u64::from(accepted);
    }

    /// The per-layer report over every traced repetition so far. Shares
    /// are corrected self time over the corrected wall time of all
    /// repetitions, so they sum to one with `glue`.
    pub fn report(&self) -> Vec<(String, f64, &'static str)> {
        let (e, o) = (self.e(), self.o());
        let reps = self.reps.len().max(1) as f64;
        let total: f64 = self.corrected_walls().iter().sum();
        let share = |raw: u64, calls: u64, children: u64| {
            let own = raw as f64 - calls as f64 * e - children as f64 * (o - e);
            if total > 0.0 {
                own / total
            } else {
                0.0
            }
        };
        let per_call = |h: &LogHistogram, q: f64| h.quantile(q).map_or(0.0, |v| (v - e).max(0.0));
        let mut out = Vec::new();
        for layer in Layer::ALL {
            let s = &self.stats[layer as usize];
            let name = layer.name();
            out.push((format!("{name}.calls"), s.calls as f64 / reps, "count"));
            out.push((
                format!("{name}.ns_per_call.p50"),
                per_call(&s.per_call, 0.50),
                "ns",
            ));
            out.push((
                format!("{name}.ns_per_call.p99"),
                per_call(&s.per_call, 0.99),
                "ns",
            ));
            out.push((
                format!("{name}.share"),
                share(s.raw_ns, s.calls, s.children),
                "ratio",
            ));
        }
        out.push((
            "glue.share".into(),
            share(self.glue_raw_ns, self.reps.len() as u64, self.glue_children),
            "ratio",
        ));
        let calls: u64 = self.ready_len.iter().sum();
        let (mean, p99) = if calls == 0 {
            (0.0, 0.0)
        } else {
            let sum: u64 = self
                .ready_len
                .iter()
                .enumerate()
                .map(|(len, &c)| len as u64 * c)
                .sum();
            let rank = (0.99 * calls as f64).ceil() as u64;
            let mut seen = 0;
            let p99 = self
                .ready_len
                .iter()
                .position(|&c| {
                    seen += c;
                    seen >= rank
                })
                .unwrap_or(0);
            (sum as f64 / calls as f64, p99 as f64)
        };
        out.push(("policy.decide.ready_len.mean".into(), mean, "kernels"));
        out.push(("policy.decide.ready_len.p99".into(), p99, "kernels"));
        out.push((
            "policy.decide.hit_ratio".into(),
            ratio(self.decide_hits, calls),
            "ratio",
        ));
        out.push((
            "gate.admit.accept_ratio".into(),
            ratio(self.admit_accepts, self.admit_offers),
            "ratio",
        ));
        out.push(("trace.span_cost_ns".into(), o, "ns"));
        out
    }

    /// The tight-loop span cost, ns.
    pub fn loop_span_cost_ns(&self) -> f64 {
        self.o_loop
    }
}

/// Open a span on `layer`.
#[inline]
pub fn enter(tracer: &RefCell<Tracer>, layer: Layer) {
    tracer.borrow_mut().enter_slot(layer as usize);
}

/// Close the innermost open span. A shadow tracer then runs
/// [`SHADOW_SPANS`] empty spans on the same layer through these same calls,
/// so they cost what a real span costs.
#[inline]
pub fn exit(tracer: &RefCell<Tracer>) {
    let (slot, shadow) = {
        let mut t = tracer.borrow_mut();
        (t.close(), t.shadow)
    };
    if shadow {
        for _ in 0..SHADOW_SPANS {
            tracer.borrow_mut().enter_slot(slot);
            tracer.borrow_mut().close();
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a non-empty sample (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Delegating policy wrapper that times `prepare` and `decide` and counts
/// ready-set depth per decision. Every other method passes straight
/// through, so the schedule is unchanged.
pub struct TracedPolicy<'a> {
    /// The policy being timed.
    pub inner: &'a mut dyn Policy,
    /// Where the spans go.
    pub tracer: &'a RefCell<Tracer>,
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), apt_base::BaseError> {
        enter(self.tracer, Layer::PolicyPrepare);
        let r = self.inner.prepare(ctx);
        exit(self.tracer);
        r
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        enter(self.tracer, Layer::PolicyDecide);
        self.inner.decide(view, out);
        exit(self.tracer);
        self.tracer
            .borrow_mut()
            .note_decide(view.ready.len(), !out.is_empty());
    }

    fn alpha(&self) -> Option<f64> {
        self.inner.alpha()
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.inner.set_alpha(alpha)
    }

    fn switch_to(&mut self, index: usize) -> bool {
        self.inner.switch_to(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_self_times_and_glue_reconcile_to_the_corrected_wall() {
        let cell = RefCell::new(Tracer::calibrated());
        cell.borrow_mut().begin_rep();
        for _ in 0..100 {
            enter(&cell, Layer::OpenDecide);
            enter(&cell, Layer::PolicyDecide);
            std::hint::black_box((0..200u64).sum::<u64>());
            exit(&cell);
            exit(&cell);
        }
        let mut t = cell.into_inner();
        t.end_rep();
        let shares: f64 = t
            .report()
            .iter()
            .filter(|(name, _, _)| name.ends_with(".share"))
            .map(|(_, v, _)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert_eq!(t.stats[Layer::PolicyDecide as usize].calls, 100);
    }
}
