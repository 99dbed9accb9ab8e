//! Deadline-aware APT variants: **EDF-APT** and **LL-APT**.
//!
//! The paper's APT iterates the ready list first-come-first-serve and
//! admits an alternative processor whenever its cost sits within `α·x`
//! (Eq. 8) — timeliness never enters the decision. Once jobs carry
//! deadlines (the `apt-stream`/`apt-slo` open-system axis), two classic
//! real-time orderings graft naturally onto Algorithm 1:
//!
//! * [`EdfApt`] — *earliest absolute deadline first*: the ready list is
//!   processed in ascending `(deadline, FCFS)` order, deadline-free
//!   kernels last; the per-kernel processor choice is exactly APT's.
//!   Running plain [`crate::Apt`] on an open engine in
//!   `ReadyOrder::EarliestDeadline` mode produces the identical schedule
//!   (pinned by a differential test in `apt-slo`). Under any other ready
//!   order this policy sorts the ready set itself; when the engine
//!   reports [`ReadyOrder::EarliestDeadline`] through
//!   [`SimView::ready_order`], that sort would be the identity, so the
//!   policy walks the ready set as given.
//! * [`LlApt`] — *least laxity first* with a laxity-dependent threshold:
//!   kernels are ordered by `laxity = slack − x` (slack = time to
//!   deadline, `x` = best execution time), and the alternative-processor
//!   threshold **shrinks as slack evaporates**:
//!
//!   ```text
//!   threshold = clamp(slack, x, α·x)
//!   ```
//!
//!   A kernel with hours of slack behaves like plain APT (threshold
//!   `α·x`); one whose deadline is approaching only accepts alternatives
//!   that can still finish inside the remaining slack; one already past
//!   hope degenerates to MET (threshold `x`, wait for `p_min`) rather
//!   than burning a slow processor on a job that will be tardy anyway.
//!   Deadline-free kernels keep the full `α·x` and sort last.
//!
//! Both run APT's one `decide` pass, which emits and marks the whole
//! per-instant fixpoint, with their own kernel order and threshold, and
//! screen kernels on APT's per-class admissible masks (see the `apt`
//! module docs). When they sort, the screen runs before the sort, class
//! list by class list on an open stream, so kernels no idle processor can
//! take are neither visited, keyed nor sorted. On
//! deadline-free workloads both reduce byte-identically to APT, which is
//! what lets the streaming equivalence suite replay them against
//! `simulate_stream`.
//!
//! Both also keep APT's per-admission memo of rejected alternatives (the
//! `apt` module docs), cleared with the class table. Kernel order never
//! enters a verdict, so EDF-APT's rests on exactly APT's argument. LL-APT's
//! rests on one more fact: its threshold `clamp(slack, x, α·x)` never
//! grows while a kernel waits. The deadline is fixed at admission, so the
//! slack only shrinks as time advances, and a processor whose `exec +
//! transfer` exceeded the threshold once exceeds every later one. A
//! `set_alpha` that raises `α·x` clears the memo. `crates/stream/tests/
//! naive_apt.rs` pins LL-APT against a memo-free, screen-free
//! one-assignment-per-call walk in laxity order.

use crate::apt::{apt_step, ready_pass, AdmissibleMasks, Rejections};
use apt_base::{BaseError, SimDuration};
use apt_dfg::NodeId;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, ReadyEntry, ReadyOrder, SimView};

/// A reusable `(key, ready-set entry)` ordering buffer.
type OrderBuf = Vec<(u64, ReadyEntry)>;

/// Sort the ready set into `buf` by an explicit per-node key, in the ready
/// set's order within equal keys: the set's own [`ReadyEntry`] is the
/// tiebreak, which gives the permutation a stable sort of the set's order
/// would. Kernels whose admissible mask misses the whole idle set are left
/// out — whole classes at a time on an open stream — because the pass
/// would skip them anyway: its idle set only shrinks.
fn order_ready(
    view: &SimView<'_>,
    masks: &[u64],
    buf: &mut OrderBuf,
    mut key: impl FnMut(&SimView<'_>, NodeId) -> u64,
) {
    buf.clear();
    view.ready
        .for_each_screened(masks, view.idle_mask, |e| buf.push((key(view, e.node), e)));
    buf.sort_unstable();
}

/// [`apt_step`] over an [`order_ready`] buffer, skipping kernels whose
/// admissible mask misses the shrinking idle set, then the fixpoint mark.
fn sorted_pass(
    view: &SimView<'_>,
    order: &OrderBuf,
    masks: &[u64],
    rejected: &mut Rejections,
    out: &mut AssignmentBuf,
    mut threshold_of: impl FnMut(NodeId, SimDuration) -> SimDuration,
) {
    let mut idle = view.idle_mask;
    for &(_, e) in order {
        if idle == 0 {
            break; // every processor claimed: nothing left this instant
        }
        debug_assert_eq!(e.class, view.cost.class_of(e.node), "stale ready-set class");
        if masks[e.class as usize] & idle != 0 {
            idle = apt_step(view, e, idle, out, rejected, &mut threshold_of);
        }
    }
    out.mark_fixpoint();
}

/// APT with the ready list in earliest-absolute-deadline order.
#[derive(Debug, Clone)]
pub struct EdfApt {
    alpha: f64,
    masks: AdmissibleMasks,
    rejected: Rejections,
    /// Reusable ordering buffer keyed by deadline (left untouched under an
    /// engine that already iterates in EDF order).
    order: OrderBuf,
}

impl EdfApt {
    /// An EDF-ordered APT scheduler with flexibility factor `α ≥ 1`
    /// (Eq. 8). Panics if `α < 1`, like [`crate::Apt`].
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha >= 1.0 && alpha.is_finite(),
            "EDF-APT requires a finite α ≥ 1 (Eq. 8), got {alpha}"
        );
        EdfApt {
            alpha,
            masks: AdmissibleMasks::default(),
            rejected: Rejections::default(),
            order: Vec::new(),
        }
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Set the flexibility factor at runtime, clamped like
    /// [`crate::Apt::set_alpha`] (finite, ≥ 1; non-finite ignored).
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha.is_finite() {
            self.alpha = alpha.max(1.0);
            self.masks.reset();
            self.rejected.reset();
        }
    }
}

impl Policy for EdfApt {
    fn name(&self) -> String {
        format!("EDF-APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        EdfApt::set_alpha(self, alpha);
        true
    }

    fn prepare(&mut self, _ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        self.masks.reset();
        self.rejected.reset();
        Ok(())
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let alpha = self.alpha;
        let threshold_of = |_, x: SimDuration| x.scale_alpha(alpha);
        let masks = self.masks.get(view.cost, alpha);
        if view.ready_order == ReadyOrder::EarliestDeadline {
            // The engine already iterates `(deadline, FCFS)`: sorting
            // again would be the identity permutation.
            debug_assert!(view.ready.iter().map(|n| deadline_key(view, n)).is_sorted());
            ready_pass(view, masks, &mut self.rejected, out, threshold_of);
            return;
        }
        order_ready(view, masks, &mut self.order, deadline_key);
        sorted_pass(
            view,
            &self.order,
            masks,
            &mut self.rejected,
            out,
            threshold_of,
        );
    }
}

/// EDF-APT's sort key: the absolute deadline in ns. Deadline-free kernels
/// report `MAX`, sorting after every real deadline while keeping FCFS among
/// themselves — the same key the open engine's EDF ready order uses.
fn deadline_key(view: &SimView<'_>, node: NodeId) -> u64 {
    view.deadline(node).map_or(u64::MAX, |d| d.as_ns())
}

/// APT in least-laxity order with a slack-clamped admission threshold.
#[derive(Debug, Clone)]
pub struct LlApt {
    alpha: f64,
    masks: AdmissibleMasks,
    rejected: Rejections,
    /// Reusable ordering buffer keyed by laxity.
    order: OrderBuf,
}

impl LlApt {
    /// A least-laxity APT scheduler with flexibility factor `α ≥ 1`.
    /// Panics if `α < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha >= 1.0 && alpha.is_finite(),
            "LL-APT requires a finite α ≥ 1, got {alpha}"
        );
        LlApt {
            alpha,
            masks: AdmissibleMasks::default(),
            rejected: Rejections::default(),
            order: Vec::new(),
        }
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Set the flexibility factor at runtime, clamped like
    /// [`crate::Apt::set_alpha`] (finite, ≥ 1; non-finite ignored).
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha.is_finite() {
            self.alpha = alpha.max(1.0);
            self.masks.reset();
            self.rejected.reset();
        }
    }
}

impl Policy for LlApt {
    fn name(&self) -> String {
        format!("LL-APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        LlApt::set_alpha(self, alpha);
        true
    }

    fn prepare(&mut self, _ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        self.masks.reset();
        self.rejected.reset();
        Ok(())
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let alpha = self.alpha;
        let masks = self.masks.get(view.cost, alpha);
        // Laxity = slack − best execution time, saturating at zero (an
        // already-hopeless kernel is maximally urgent). Deadline-free
        // kernels sort last via MAX.
        order_ready(view, masks, &mut self.order, |view, node| {
            match (view.slack(node), view.cost.min_exec(node)) {
                (Some(slack), Some(x)) => slack.as_ns().saturating_sub(x.as_ns()),
                (Some(slack), None) => slack.as_ns(),
                (None, _) => u64::MAX,
            }
        });
        let threshold_of = |node, x: SimDuration| {
            let full = x.scale_alpha(alpha);
            match view.slack(node) {
                // Plenty of slack → plain APT; evaporating slack → only
                // alternatives that still fit inside it; none left →
                // MET-like insistence on p_min.
                Some(s) => s.max(x).min(full),
                None => full,
            }
        };
        sorted_pass(
            view,
            &self.order,
            masks,
            &mut self.rejected,
            out,
            threshold_of,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apt;
    use apt_base::{ProcKind, SimTime};
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::LookupTable;
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn edf_alpha_below_one_is_rejected() {
        let _ = EdfApt::new(0.9);
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn ll_alpha_below_one_is_rejected() {
        let _ = LlApt::new(0.5);
    }

    #[test]
    fn names_include_alpha() {
        assert_eq!(EdfApt::new(4.0).name(), "EDF-APT(α=4)");
        assert_eq!(LlApt::new(1.5).name(), "LL-APT(α=1.5)");
        assert_eq!(EdfApt::new(2.0).alpha(), 2.0);
        assert_eq!(LlApt::new(2.0).alpha(), 2.0);
    }

    /// Both deadline variants expose the same clamped runtime α knob as
    /// plain APT, through the inherent setter and the `Policy` hook alike.
    #[test]
    fn deadline_variants_clamp_runtime_alpha() {
        let mut edf = EdfApt::new(4.0);
        let mut ll = LlApt::new(4.0);
        assert_eq!(Policy::alpha(&edf), Some(4.0));
        assert_eq!(Policy::alpha(&ll), Some(4.0));
        assert!(Policy::set_alpha(&mut edf, 0.5));
        assert!(Policy::set_alpha(&mut ll, f64::NAN));
        assert_eq!(edf.alpha(), 1.0, "below-1 clamps to the Eq. 8 floor");
        assert_eq!(ll.alpha(), 4.0, "non-finite requests are ignored");
        edf.set_alpha(8.0);
        ll.set_alpha(2.0);
        assert_eq!(edf.alpha(), 8.0);
        assert_eq!(ll.alpha(), 2.0);
        assert!(
            !Policy::switch_to(&mut edf, 1),
            "leaf policies have no roster"
        );
    }

    /// On deadline-free (closed-world) workloads both variants reduce to
    /// plain APT byte for byte: every deadline key is MAX, so the order
    /// collapses to FCFS, and every threshold is the full α·x.
    #[test]
    fn deadline_free_runs_equal_plain_apt() {
        for seed in [3u64, 17, 44] {
            for alpha in [1.5, 4.0, 8.0] {
                let kernels = generate_kernels(&StreamConfig::new(50, seed), LookupTable::paper());
                let dfg = build_type1(&kernels);
                let cfg = SystemConfig::paper_4gbps();
                let apt = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(alpha)).unwrap();
                let edf =
                    simulate(&dfg, &cfg, LookupTable::paper(), &mut EdfApt::new(alpha)).unwrap();
                let ll =
                    simulate(&dfg, &cfg, LookupTable::paper(), &mut LlApt::new(alpha)).unwrap();
                assert_eq!(apt.trace.records, edf.trace.records, "EDF seed {seed}");
                assert_eq!(apt.trace.records, ll.trace.records, "LL seed {seed}");
            }
        }
    }

    /// EDF ordering: with one idle FPGA and two FPGA-best kernels ready,
    /// the one whose job deadline is earlier gets it — even though FCFS
    /// would hand it to the earlier admission.
    #[test]
    fn edf_prefers_the_tighter_deadline() {
        use apt_dfg::{Kernel, KernelKind};
        use apt_hetsim::{OpenEngine, ReadyOrder};
        let bfs = Kernel::canonical(KernelKind::Bfs);
        let config = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();
        // FCFS engine, self-ordering EDF-APT policy.
        let mut engine = OpenEngine::with_order(&config, lookup, ReadyOrder::Admission).unwrap();
        let mut policy = EdfApt::new(1.0); // α = 1: best processor only
        engine
            .admit_with_deadline(&[bfs], &[], SimTime::ZERO, Some(SimTime::from_ms(9_000)))
            .unwrap();
        engine
            .admit_with_deadline(&[bfs], &[], SimTime::ZERO, Some(SimTime::from_ms(300)))
            .unwrap();
        while engine.step(&mut policy).unwrap().is_some() {}
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 2);
        let tight = done
            .iter()
            .find(|j| j.deadline == Some(SimTime::from_ms(300)))
            .unwrap();
        let loose = done
            .iter()
            .find(|j| j.deadline == Some(SimTime::from_ms(9_000)))
            .unwrap();
        // The tight job ran first on the shared best processor (FPGA).
        assert_eq!(config.kind_of(tight.records[0].proc), ProcKind::Fpga);
        assert!(tight.records[0].start < loose.records[0].start);
        assert!(!tight.missed_deadline(), "106 ms run against 300 ms");
    }

    /// One EDF-APT instance driven by hand on two open engines in turn,
    /// with no `prepare` call: on the paper machine, then on the same
    /// categories in permuted order, where every class's admissible mask
    /// names other processor ids. Each run's completed records equal a
    /// fresh instance's — the class table built for the first engine
    /// never screens the second.
    #[test]
    fn one_instance_reused_across_engines_equals_fresh_instances() {
        use apt_hetsim::{CompletedJob, OpenEngine};
        let lookup = LookupTable::paper();
        let kernels = generate_kernels(&StreamConfig::new(48, 5), lookup);
        let drive = |config: &SystemConfig, policy: &mut EdfApt| {
            let mut engine =
                OpenEngine::with_order(config, lookup, ReadyOrder::EarliestDeadline).unwrap();
            for (j, job) in kernels.chunks(6).enumerate() {
                let at = SimTime::from_ms(40 * j as u64);
                let deadline = at + SimDuration::from_ms(900 + 300 * (j as u64 % 3));
                engine
                    .admit_with_deadline(job, &[(0, 1), (0, 2)], at, Some(deadline))
                    .unwrap();
            }
            while engine.step(policy).unwrap().is_some() {}
            let mut done: Vec<CompletedJob> = Vec::new();
            engine.drain_completed(&mut done);
            assert_eq!(done.len(), 8);
            done.into_iter().map(|j| j.records).collect::<Vec<_>>()
        };
        let permuted = SystemConfig::empty(apt_hetsim::LinkRate::gbps(4))
            .with_proc(ProcKind::Fpga)
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Gpu);
        let mut reused = EdfApt::new(4.0);
        for config in [SystemConfig::paper_4gbps(), permuted] {
            let fresh = drive(&config, &mut EdfApt::new(4.0));
            assert_eq!(drive(&config, &mut reused), fresh);
            assert!(
                fresh.iter().flatten().any(|r| r.alt),
                "no alternative taken"
            );
        }
    }

    /// The laxity clamp: a kernel whose slack no longer covers the
    /// alternative's cost waits for p_min where plain APT would jump.
    #[test]
    fn ll_apt_rejects_alternatives_that_no_longer_fit_the_slack() {
        use apt_dfg::{Kernel, KernelKind};
        use apt_hetsim::{OpenEngine, ReadyOrder};
        let bfs = Kernel::canonical(KernelKind::Bfs); // FPGA 106, GPU 173
        let config = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();
        let arrive = SimTime::from_ms(1);
        let run = |deadline: Option<SimTime>| {
            let mut engine =
                OpenEngine::with_order(&config, lookup, ReadyOrder::Admission).unwrap();
            let mut policy = LlApt::new(8.0);
            // Job 0 grabs the idle FPGA at t = 0; the deadline job then
            // arrives at t = 1 ms to find it busy until 106 ms, facing the
            // jump-or-wait choice with its slack already ticking.
            engine.admit(&[bfs], &[], SimTime::ZERO).unwrap();
            engine
                .admit_with_deadline(&[bfs], &[], arrive, deadline)
                .unwrap();
            while engine.step(&mut policy).unwrap().is_some() {}
            let mut done = Vec::new();
            engine.drain_completed(&mut done);
            done.into_iter().find(|j| j.job.0 == 1).unwrap()
        };
        // Slack 150 ms < GPU cost 173 ms → the clamp rejects the jump:
        // wait for the FPGA (tardy, but tardier still on the GPU).
        let tight = run(Some(arrive + SimDuration::from_ms(150)));
        assert_eq!(config.kind_of(tight.records[0].proc), ProcKind::Fpga);
        assert!(!tight.records[0].alt);
        assert_eq!(tight.records[0].start, SimTime::from_ms(106));
        // Slack 400 ms ≥ 173 → the alternative fits and is taken on
        // arrival.
        let roomy = run(Some(arrive + SimDuration::from_ms(400)));
        assert_eq!(config.kind_of(roomy.records[0].proc), ProcKind::Gpu);
        assert!(roomy.records[0].alt);
        assert_eq!(roomy.records[0].start, arrive);
        assert!(!roomy.missed_deadline());
        // No deadline → plain APT behaviour (alternative taken).
        let free = run(None);
        assert_eq!(config.kind_of(free.records[0].proc), ProcKind::Gpu);
    }
}
