//! The scheduling-policy interface.
//!
//! A scheduling algorithm is a function `f : V → P` mapping kernels to
//! processors (§2.5.1). The simulator drives policies through this trait:
//!
//! * **Static** policies (HEFT, PEFT) receive the whole DFG up front in
//!   [`Policy::prepare`], compute a complete plan, and release it assignment
//!   by assignment from [`Policy::decide`].
//! * **Dynamic** policies (SPN, MET, SS, AG, APT) ignore `prepare` (beyond
//!   caching the lookup table) and make every choice from the live
//!   [`SimView`] snapshot on each decision edge.
//!
//! The engine calls `decide` to a fixpoint after every event: a policy may
//! emit any number of assignments per call into the engine-owned
//! [`AssignmentBuf`]; leaving it empty means "nothing more to do right now"
//! (e.g. MET *waiting* for a busy best processor). A policy whose one call
//! already emits the whole per-instant fixpoint says so with
//! [`AssignmentBuf::mark_fixpoint`], and the engine skips the confirming
//! call that would only come back empty.

use crate::cost::CostModel;
use crate::system::SystemConfig;
use crate::view::SimView;
use apt_base::{BaseError, ProcId};
use apt_dfg::{KernelDag, LookupTable, NodeId};
use apt_trace::DecisionMeta;

/// Whether a policy plans ahead or reacts to live state (Table 2 row 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Has access to the entire DFG before execution; follows a fixed plan.
    Static,
    /// Decides from the current system state and submitted kernels only.
    Dynamic,
}

impl PolicyKind {
    /// Table label.
    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::Static => "Static",
            PolicyKind::Dynamic => "Dynamic",
        }
    }
}

/// Everything a static policy may inspect before the simulation starts.
#[derive(Clone, Copy)]
pub struct PrepareCtx<'a> {
    /// The complete dataflow graph.
    pub dfg: &'a KernelDag,
    /// Measured execution times (raw table).
    pub lookup: &'a LookupTable,
    /// The machine description.
    pub config: &'a SystemConfig,
    /// The precomputed per-run cost model — the same dense tables the
    /// engine and [`SimView`] use, so plan construction shares the
    /// no-map-lookup path.
    pub cost: &'a CostModel,
}

/// A single kernel-to-processor decision emitted by a policy.
///
/// If the target processor is idle the kernel starts immediately (input
/// transfer first, then execution). If it is busy the kernel enters that
/// processor's FIFO queue — this is how AG's per-processor queueing works;
/// policies that prefer to *wait* (MET, APT) simply withhold the assignment
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The ready kernel being placed.
    pub node: NodeId,
    /// The chosen processor instance.
    pub proc: ProcId,
    /// True when the policy knowingly picked a non-optimal ("alternative")
    /// processor — APT sets this so the Appendix-B allocation analyses can be
    /// regenerated from the trace.
    pub alt: bool,
}

impl Assignment {
    /// An ordinary (best-processor) assignment.
    pub const fn new(node: NodeId, proc: ProcId) -> Self {
        Assignment {
            node,
            proc,
            alt: false,
        }
    }

    /// An alternative-processor assignment (APT's `p_alt`).
    pub const fn alternative(node: NodeId, proc: ProcId) -> Self {
        Assignment {
            node,
            proc,
            alt: true,
        }
    }
}

/// The reusable out-parameter of [`Policy::decide`]: a growable arena of
/// [`Assignment`]s owned by the engine for the whole run.
///
/// The engine allocates one buffer per simulation, clears it before *every*
/// `decide` call, and applies whatever the policy pushed after the call
/// returns — so once the buffer's capacity reaches the widest decision wave,
/// the fixpoint loop performs no heap allocation at all.
///
/// Reuse rules for implementors:
///
/// * `decide` receives the buffer **already cleared** — only
///   [`push`](AssignmentBuf::push) into it; never retain state in it across calls
///   and never assume a particular capacity.
/// * Push order is application order: the engine applies assignments
///   front-to-back, erroring on the first invalid one.
/// * Leaving the buffer empty means "wait" (no progress at this instant);
///   the engine then advances to the next event.
/// * After applying a non-empty batch the engine calls `decide` again at
///   the same instant, unless the policy called
///   [`mark_fixpoint`](AssignmentBuf::mark_fixpoint): the mark promises
///   that a further call would return empty, so the engine advances
///   instead. A policy must mark only a batch it has carried to the
///   fixpoint itself. The mark lives in the buffer, so a wrapper that
///   hands the engine's buffer to its inner policy passes the mark on
///   unchanged.
#[derive(Debug, Default, Clone)]
pub struct AssignmentBuf {
    items: Vec<Assignment>,
    /// Sparse decision provenance: `(index into items, meta)` pairs pushed
    /// by [`push_explained`](AssignmentBuf::push_explained). Alternative
    /// assignments are a small fraction of a decision wave, so a flat pair
    /// list beats a parallel `Vec<Option<_>>` in both space and clear cost.
    metas: Vec<(u32, DecisionMeta)>,
    /// Set by [`mark_fixpoint`](AssignmentBuf::mark_fixpoint).
    fixpoint: bool,
}

impl AssignmentBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        AssignmentBuf::default()
    }

    /// An empty buffer with room for `cap` assignments.
    pub fn with_capacity(cap: usize) -> Self {
        AssignmentBuf {
            items: Vec::with_capacity(cap),
            metas: Vec::new(),
            fixpoint: false,
        }
    }

    /// Emit one assignment (applied by the engine in push order).
    #[inline]
    pub fn push(&mut self, a: Assignment) {
        self.items.push(a);
    }

    /// Emit one assignment together with its decision provenance (the APT
    /// family's alternative-processor choices). When a trace sink is armed
    /// the engine turns the meta into a
    /// [`DecisionRecord`](apt_trace::DecisionRecord) event; untraced runs
    /// pay only this vector push.
    #[inline]
    pub fn push_explained(&mut self, a: Assignment, why: DecisionMeta) {
        self.metas.push((self.items.len() as u32, why));
        self.items.push(a);
    }

    /// The provenance recorded for the `idx`-th pushed assignment, if any.
    #[inline]
    pub fn meta_for(&self, idx: usize) -> Option<DecisionMeta> {
        self.metas
            .iter()
            .find(|(i, _)| *i as usize == idx)
            .map(|(_, m)| *m)
    }

    /// Declare this batch the whole per-instant fixpoint: once it is
    /// applied, `decide` at the same instant would push nothing. The engine
    /// then advances without that confirming call.
    #[inline]
    pub fn mark_fixpoint(&mut self) {
        self.fixpoint = true;
    }

    /// Whether the policy marked this batch with
    /// [`mark_fixpoint`](AssignmentBuf::mark_fixpoint).
    #[inline]
    pub fn is_fixpoint(&self) -> bool {
        self.fixpoint
    }

    /// Drop all assignments and the fixpoint mark, keeping the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
        self.metas.clear();
        self.fixpoint = false;
    }

    /// Number of pushed assignments.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been pushed (the "wait" signal).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The pushed assignments, in push order.
    #[inline]
    pub fn as_slice(&self) -> &[Assignment] {
        &self.items
    }
}

impl<'a> IntoIterator for &'a AssignmentBuf {
    type Item = &'a Assignment;
    type IntoIter = std::slice::Iter<'a, Assignment>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// A scheduling policy. Implementations must be deterministic; one instance
/// drives one simulation (construct a fresh instance per run).
pub trait Policy {
    /// Display name, including parameters (e.g. `"APT(α=4)"`).
    fn name(&self) -> String;

    /// Static or dynamic (Table 2 / Table 4 first row).
    fn kind(&self) -> PolicyKind;

    /// Called once before the event loop with the full problem. Static
    /// policies build their plan here; dynamic policies usually do nothing.
    fn prepare(&mut self, _ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        Ok(())
    }

    /// Called to a fixpoint after every simulation event. Push the
    /// assignments to apply now into `out` (handed over cleared); leave it
    /// empty to wait. After a non-empty batch the engine calls again at the
    /// same instant, unless the batch was marked with
    /// [`AssignmentBuf::mark_fixpoint`] — a promise that the next call
    /// would push nothing. See [`AssignmentBuf`] for the buffer's reuse
    /// contract.
    ///
    /// The engine never calls `decide` with an empty `view.ready`: it ends
    /// the fixpoint instead, since nothing could be assigned. A policy must
    /// therefore not rely on being called at every event; state it keeps
    /// across calls (a cursor, an RNG stream) should move only when it
    /// assigns or looks at a ready kernel.
    ///
    /// Every pushed node must currently be in `view.ready`.
    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf);

    /// The policy's runtime-tunable APT-family threshold α, when it has
    /// one. Controllers read this to seed their probing state. Every APT
    /// family member (`apt_core::AptPolicy`: APT, APT-R, EDF-APT, LL-APT)
    /// has the knob; every other policy reports `None`.
    fn alpha(&self) -> Option<f64> {
        None
    }

    /// Set the runtime-tunable threshold α between events. Implementations
    /// clamp to their valid range (finite, ≥ 1 for the APT family — Eq. 8
    /// rules out thresholds below the best execution time) rather than
    /// panicking, so a controller's probe step can never poison a run.
    /// Returns `false` when the policy has no such knob (the default).
    fn set_alpha(&mut self, _alpha: f64) -> bool {
        false
    }

    /// Switch a roster/supervising policy to member `index` at the next
    /// decision. Returns `false` when unsupported (every leaf policy) or
    /// when `index` is out of range.
    fn switch_to(&mut self, _index: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_constructors() {
        let a = Assignment::new(NodeId::new(3), ProcId::new(1));
        assert!(!a.alt);
        let b = Assignment::alternative(NodeId::new(3), ProcId::new(2));
        assert!(b.alt);
        assert_eq!(a.node, b.node);
    }

    #[test]
    fn assignment_buf_reuse() {
        let mut buf = AssignmentBuf::with_capacity(2);
        assert!(buf.is_empty());
        buf.push(Assignment::new(NodeId::new(0), ProcId::new(1)));
        buf.push(Assignment::alternative(NodeId::new(1), ProcId::new(2)));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.as_slice()[1].proc, ProcId::new(2));
        assert_eq!((&buf).into_iter().count(), 2);
        assert!(!buf.is_fixpoint());
        buf.mark_fixpoint();
        assert!(buf.is_fixpoint());
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert!(!buf.is_fixpoint(), "clear drops the mark");
    }

    /// Provenance stays attached to the index it was pushed at, among
    /// plain pushes, and `clear` drops it with the assignments.
    #[test]
    fn explained_pushes_keep_their_index() {
        use apt_base::{SimDuration, SimTime};
        let meta = |ms| DecisionMeta {
            best_proc: ProcId::new(2),
            best_exec: SimDuration::from_ms(ms),
            best_busy_until: SimTime::from_ms(500),
            threshold: SimDuration::from_ms(4 * ms),
            alt_cost: SimDuration::from_ms(3 * ms),
        };
        let mut buf = AssignmentBuf::new();
        buf.push(Assignment::new(NodeId::new(0), ProcId::new(2)));
        buf.push_explained(
            Assignment::alternative(NodeId::new(1), ProcId::new(0)),
            meta(10),
        );
        buf.push(Assignment::new(NodeId::new(2), ProcId::new(1)));
        buf.push_explained(
            Assignment::alternative(NodeId::new(3), ProcId::new(1)),
            meta(20),
        );
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.meta_for(0), None);
        assert_eq!(buf.meta_for(1), Some(meta(10)));
        assert_eq!(buf.meta_for(2), None);
        assert_eq!(buf.meta_for(3), Some(meta(20)));
        assert_eq!(buf.meta_for(4), None);
        buf.clear();
        buf.push(Assignment::new(NodeId::new(5), ProcId::new(0)));
        buf.push(Assignment::new(NodeId::new(6), ProcId::new(1)));
        assert_eq!(buf.meta_for(1), None, "clear drops the provenance");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(PolicyKind::Static.label(), "Static");
        assert_eq!(PolicyKind::Dynamic.label(), "Dynamic");
    }
}
