//! Read-only simulator state exposed to policies.
//!
//! On every decision edge the engine hands policies a [`SimView`]: the ready
//! set `I`, the per-processor occupancy (from which the available set `A`
//! follows), finished-kernel locations (for data transfer costs), and the
//! precomputed [`CostModel`]. Dynamic policies see *only* this — they never
//! see the full DFG's future, matching §2.5.2's definition of dynamic
//! scheduling. (The DFG reference is exposed for successor/predecessor
//! queries; policies that want to remain faithfully dynamic restrict
//! themselves to the ready set and precedence edges of submitted kernels,
//! which is what all the implementations in this workspace do.)
//!
//! Cost queries (`exec_time`, `placement_cost`, `best_proc`) are dense
//! array reads against the [`CostModel`] — no map lookups, no allocation —
//! because policies issue them once per ready-node × processor × fixpoint
//! iteration, the hottest path of the whole simulator.

use crate::cost::CostModel;
use crate::open::ReadyOrder;
use crate::ready::ReadySet;
use crate::system::SystemConfig;
use apt_base::{ProcId, ProcKind, SimDuration, SimTime};
use apt_dfg::{Kernel, KernelDag, LookupTable, NodeId};

/// Snapshot of one processor's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcView {
    /// Which processor this is.
    pub id: ProcId,
    /// Its category.
    pub kind: ProcKind,
    /// The kernel currently executing (or transferring in), if any.
    pub running: Option<NodeId>,
    /// When the processor finishes everything currently started (equals the
    /// current time when idle).
    pub busy_until: SimTime,
    /// Number of assignments waiting in this processor's FIFO queue
    /// (excluding the running kernel). `N_g` minus the running slot in
    /// AG's Eq. 2 terms.
    pub queue_len: usize,
    /// Average execution time of the last few kernels assigned to this
    /// processor (`τ_k` in AG's Eq. 2), rounded to the nearest nanosecond;
    /// zero when nothing has been assigned.
    pub recent_avg_exec: SimDuration,
    /// True while the processor is crashed (fault injection): it holds no
    /// work, is never idle, and the engine rejects assignments to it. Always
    /// `false` on fault-free runs.
    pub down: bool,
}

impl ProcView {
    /// A processor is *available* (in `A`) when it is up and neither
    /// executing nor holding queued work. A crashed processor is never
    /// idle, which is the single property that keeps every idle-driven
    /// policy off the down set.
    #[inline]
    pub fn is_idle(&self) -> bool {
        !self.down && self.running.is_none() && self.queue_len == 0
    }

    /// `N_g` of AG's Eq. 2: queued kernel calls, counting the running one.
    #[inline]
    pub fn ag_queue_count(&self) -> usize {
        self.queue_len + usize::from(self.running.is_some())
    }
}

/// The full decision-time snapshot handed to [`crate::Policy::decide`].
pub struct SimView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The ready set `I`: kernels whose dependencies completed and which have
    /// not been assigned yet. Iterates in the deterministic order named by
    /// [`SimView::ready_order`]. Each member carries its
    /// [`CostModel::class_of`] class ([`ReadySet::set_class`]); a view built
    /// by hand must stamp it for the class screen of MET and the APT family
    /// ([`ReadySet::walk_screened`]).
    pub ready: &'a ReadySet,
    /// Per-processor occupancy snapshots, indexed by [`ProcId`]. Maintained
    /// incrementally by the engine — not rebuilt per decision edge.
    pub procs: &'a [ProcView],
    /// The dataflow graph (for precedence queries).
    pub dfg: &'a KernelDag,
    /// Measured execution times (raw table; cold-path queries only — hot
    /// cost queries go through [`SimView::exec_time`] and friends).
    pub lookup: &'a LookupTable,
    /// The machine description.
    pub config: &'a SystemConfig,
    /// Precomputed per-run cost tables.
    pub cost: &'a CostModel,
    /// Where each finished kernel executed (`None` while unfinished),
    /// indexed by node id.
    pub locations: &'a [Option<ProcId>],
    /// Per-node absolute deadline, indexed by node id; [`SimTime::MAX`]
    /// means "no deadline". Closed-world runs carry no deadlines (every
    /// entry is `MAX`); the open engine stamps each slot with its job's
    /// deadline on admission. Deadline-aware policies read this through
    /// [`SimView::deadline`] and [`SimView::slack`].
    pub deadlines: &'a [SimTime],
    /// Bitset of currently idle processors (bit `i` ⇔ `procs[i].is_idle()`),
    /// maintained incrementally by the engine. Makes [`SimView::any_idle`]
    /// and [`SimView::idle_count`] O(1) and lets policies screen a ready
    /// kernel against the idle set with one mask test.
    pub idle_mask: u64,
    /// Bitset of *up* processors (bit `i` ⇔ `!procs[i].down`). All ones on
    /// fault-free runs; under fault injection the engine clears a bit for
    /// the crash-to-repair interval. Distinct from `idle_mask`: a busy
    /// processor is up but not idle.
    pub up_mask: u64,
    /// The order [`SimView::ready`] iterates in. [`ReadyOrder::Admission`]
    /// is FCFS: ascending node id on the closed engine, admission sequence
    /// on the open one. [`ReadyOrder::EarliestDeadline`] (open engine only)
    /// is ascending `(deadline, admission sequence)`, deadline-free kernels
    /// last. Engine state, fixed for the run: a policy that needs one of
    /// these orders can skip sorting when the engine already provides it.
    pub ready_order: ReadyOrder,
}

impl<'a> SimView<'a> {
    /// The kernel instance at a node.
    #[inline]
    pub fn kernel(&self, node: NodeId) -> &Kernel {
        self.dfg.node(node)
    }

    /// Execution time of `node` on processor `proc`; `None` when the lookup
    /// table has no entry for that category (the kernel cannot run there).
    /// A dense matrix read.
    #[inline]
    pub fn exec_time(&self, node: NodeId, proc: ProcId) -> Option<SimDuration> {
        self.cost.exec_time(node, proc)
    }

    /// Where a finished kernel ran (`None` if it has not finished).
    #[inline]
    pub fn location(&self, node: NodeId) -> Option<ProcId> {
        self.locations[node.index()]
    }

    /// The absolute deadline of `node`'s job, if it carries one. Returns
    /// `None` both for deadline-free jobs and for views built without a
    /// deadline vector (hand-built test fixtures may pass `&[]`).
    #[inline]
    pub fn deadline(&self, node: NodeId) -> Option<SimTime> {
        match self.deadlines.get(node.index()) {
            Some(&d) if d != SimTime::MAX => Some(d),
            _ => None,
        }
    }

    /// Time remaining until `node`'s deadline (zero once the deadline has
    /// passed); `None` for deadline-free nodes. The *laxity* heuristics
    /// subtract the kernel's remaining work from this.
    #[inline]
    pub fn slack(&self, node: NodeId) -> Option<SimDuration> {
        self.deadline(node).map(|d| d.saturating_since(self.now))
    }

    /// Input-transfer time if `node` were started on `proc` right now: the
    /// sum over predecessors resident on *other* processors of moving their
    /// output across the link (pair-resolved under a non-uniform
    /// [`crate::Topology`]). Same-processor inputs are free (the Eq. 6
    /// convention `c_ij = 0` when `p_w = p_k`). Per-predecessor transfer
    /// times are precomputed; this only sums them. Under
    /// [`crate::LinkContention::PerLink`] this remains the serialized,
    /// contention-free *estimate*: live link occupancy is engine state a
    /// dynamic policy cannot observe ahead of time, exactly like queueing
    /// delay behind other kernels.
    #[inline]
    pub fn transfer_in_time(&self, node: NodeId, proc: ProcId) -> SimDuration {
        self.cost
            .transfer_in_time(self.dfg, self.locations, node, proc)
    }

    /// Output transfer time of `node` over directed link `(src, dst)`;
    /// zero when `src == dst`. A dense table read.
    #[inline]
    pub fn pair_transfer_time(&self, node: NodeId, src: ProcId, dst: ProcId) -> SimDuration {
        self.cost.pair_transfer_time(node, src, dst)
    }

    /// Combined cost of placing `node` on `proc` now: input transfer plus
    /// execution. `None` if the kernel cannot run on that category.
    #[inline]
    pub fn placement_cost(&self, node: NodeId, proc: ProcId) -> Option<SimDuration> {
        self.exec_time(node, proc)
            .map(|e| e + self.transfer_in_time(node, proc))
    }

    /// The processor instance with the minimum *execution* time for `node`
    /// (`p_min` and `x` of §3.1). Ties break toward the lowest processor id.
    /// `None` if no processor in the system can run the kernel. Precomputed.
    /// Deliberately availability-independent: `p_min` is a property of the
    /// machine, not of the instant — a policy that insists on `p_min` while
    /// it is crashed simply waits (MET), while threshold policies compare
    /// against its exec time and fail over to an idle alternative (APT).
    #[inline]
    pub fn best_proc(&self, node: NodeId) -> Option<(ProcId, SimDuration)> {
        self.cost.best_proc(node)
    }

    /// Number of processors currently up (not crashed). Equals
    /// `procs.len()` on fault-free runs. O(1) — a popcount of `up_mask`.
    #[inline]
    pub fn live_procs(&self) -> usize {
        self.up_mask.count_ones() as usize
    }

    /// Idle processors (the available set `A`), ascending id. A plain scan
    /// over the (≤ 64-entry) snapshot array: deliberately independent of
    /// `idle_mask`, so a hand-built view with an inconsistent mask can
    /// never silently hide idle processors.
    pub fn idle_procs(&self) -> impl Iterator<Item = &ProcView> {
        self.procs.iter().filter(|p| p.is_idle())
    }

    /// True if any processor is idle. O(1) — reads the engine's running
    /// idle bitset.
    #[inline]
    pub fn any_idle(&self) -> bool {
        self.idle_mask != 0
    }

    /// Number of idle processors. O(1) — a popcount of the idle bitset.
    #[inline]
    pub fn idle_count(&self) -> usize {
        self.idle_mask.count_ones() as usize
    }

    /// The snapshot for one processor.
    #[inline]
    pub fn proc(&self, id: ProcId) -> &ProcView {
        &self.procs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};

    struct Fixture {
        dfg: KernelDag,
        lookup: &'static LookupTable,
        config: SystemConfig,
        cost: CostModel,
    }

    fn fixture() -> Fixture {
        let dfg = build_type1(&[
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ]);
        let lookup = LookupTable::paper();
        let config = SystemConfig::paper_4gbps();
        let cost = CostModel::new(&dfg, lookup, &config);
        Fixture {
            dfg,
            lookup,
            config,
            cost,
        }
    }

    fn idle_procs(config: &SystemConfig, now: SimTime) -> Vec<ProcView> {
        config
            .proc_ids()
            .map(|id| ProcView {
                id,
                kind: config.kind_of(id),
                running: None,
                busy_until: now,
                queue_len: 0,
                recent_avg_exec: SimDuration::ZERO,
                down: false,
            })
            .collect()
    }

    fn ready_of(dfg: &KernelDag, nodes: &[NodeId]) -> ReadySet {
        let mut s = ReadySet::new(dfg.len());
        for &n in nodes {
            s.insert(n);
        }
        s
    }

    fn view<'a>(
        f: &'a Fixture,
        ready: &'a ReadySet,
        procs: &'a [ProcView],
        locations: &'a [Option<ProcId>],
    ) -> SimView<'a> {
        SimView {
            now: SimTime::ZERO,
            ready,
            procs,
            dfg: &f.dfg,
            lookup: f.lookup,
            config: &f.config,
            cost: &f.cost,
            locations,
            deadlines: &[],
            idle_mask: procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_idle())
                .fold(0u64, |m, (i, _)| m | 1 << i),
            up_mask: procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.down)
                .fold(0u64, |m, (i, _)| m | 1 << i),
            ready_order: ReadyOrder::Admission,
        }
    }

    #[test]
    fn best_proc_matches_lookup_best_category() {
        let f = fixture();
        let procs = idle_procs(&f.config, SimTime::ZERO);
        let locations = vec![None; f.dfg.len()];
        let ready = ready_of(&f.dfg, &f.dfg.sources());
        let view = view(&f, &ready, &procs, &locations);
        // NW is CPU-best (112 ms), BFS FPGA-best (106 ms).
        let (p, t) = view.best_proc(NodeId::new(0)).unwrap();
        assert_eq!(f.config.kind_of(p), ProcKind::Cpu);
        assert_eq!(t, SimDuration::from_ms(112));
        let (p, t) = view.best_proc(NodeId::new(1)).unwrap();
        assert_eq!(f.config.kind_of(p), ProcKind::Fpga);
        assert_eq!(t, SimDuration::from_ms(106));
    }

    #[test]
    fn transfer_time_counts_only_remote_preds() {
        let f = fixture();
        let procs = idle_procs(&f.config, SimTime::ZERO);
        // Node 2 (cd) depends on nodes 0 and 1. Say node 0 ran on p0 and
        // node 1 on p2.
        let locations = vec![Some(ProcId::new(0)), Some(ProcId::new(2)), None];
        let ready = ready_of(&f.dfg, &[NodeId::new(2)]);
        let view = view(&f, &ready, &procs, &locations);
        // Placing on p2: only node 0's output moves (nw: 16777216 el × 4 B at 4 GB/s).
        let nw_bytes = 16_777_216u64 * 4;
        let (p0, p1, p2) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let expected = f.config.pair_rate(p0, p2).transfer_time(nw_bytes);
        assert_eq!(
            view.transfer_in_time(NodeId::new(2), ProcId::new(2)),
            expected
        );
        // Placing on p1: both inputs move.
        let bfs_bytes = 2_034_736u64 * 4;
        let expected_both = f.config.pair_rate(p0, p1).transfer_time(nw_bytes)
            + f.config.pair_rate(p2, p1).transfer_time(bfs_bytes);
        assert_eq!(
            view.transfer_in_time(NodeId::new(2), ProcId::new(1)),
            expected_both
        );
        // placement_cost = transfer + exec.
        let exec = view.exec_time(NodeId::new(2), ProcId::new(2)).unwrap();
        assert_eq!(
            view.placement_cost(NodeId::new(2), ProcId::new(2)).unwrap(),
            expected + exec
        );
    }

    #[test]
    fn unfinished_preds_do_not_transfer_yet() {
        let f = fixture();
        let procs = idle_procs(&f.config, SimTime::ZERO);
        let locations = vec![None; f.dfg.len()];
        let ready = ready_of(&f.dfg, &f.dfg.sources());
        let view = view(&f, &ready, &procs, &locations);
        assert_eq!(
            view.transfer_in_time(NodeId::new(2), ProcId::new(0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn idle_procs_and_count_agree() {
        let f = fixture();
        let mut procs = idle_procs(&f.config, SimTime::ZERO);
        procs[1].running = Some(NodeId::new(0));
        let locations = vec![None; f.dfg.len()];
        let ready = ready_of(&f.dfg, &f.dfg.sources());
        let view = view(&f, &ready, &procs, &locations);
        assert!(view.any_idle());
        assert_eq!(view.idle_count(), 2);
        assert_eq!(view.idle_mask, 0b101);
        let ids: Vec<ProcId> = view.idle_procs().map(|p| p.id).collect();
        assert_eq!(ids, vec![ProcId::new(0), ProcId::new(2)]);
    }

    #[test]
    fn deadline_and_slack_read_the_vector() {
        let f = fixture();
        let procs = idle_procs(&f.config, SimTime::ZERO);
        let locations = vec![None; f.dfg.len()];
        let ready = ready_of(&f.dfg, &f.dfg.sources());
        let deadlines = vec![SimTime::from_ms(50), SimTime::MAX, SimTime::from_ms(200)];
        let mut v = view(&f, &ready, &procs, &locations);
        v.deadlines = &deadlines;
        v.now = SimTime::from_ms(30);
        assert_eq!(v.deadline(NodeId::new(0)), Some(SimTime::from_ms(50)));
        assert_eq!(v.deadline(NodeId::new(1)), None, "MAX means no deadline");
        assert_eq!(v.slack(NodeId::new(0)), Some(SimDuration::from_ms(20)));
        assert_eq!(v.slack(NodeId::new(1)), None);
        // A deadline in the past saturates to zero slack.
        v.now = SimTime::from_ms(90);
        assert_eq!(v.slack(NodeId::new(0)), Some(SimDuration::ZERO));
        // Views built without a deadline vector report no deadlines.
        v.deadlines = &[];
        assert_eq!(v.deadline(NodeId::new(0)), None);
        assert_eq!(v.slack(NodeId::new(2)), None);
    }

    #[test]
    fn idle_detection_and_ag_count() {
        let p = ProcView {
            id: ProcId::new(0),
            kind: ProcKind::Cpu,
            running: Some(NodeId::new(1)),
            busy_until: SimTime::from_ms(5),
            queue_len: 2,
            recent_avg_exec: SimDuration::from_ms(3),
            down: false,
        };
        assert!(!p.is_idle());
        assert_eq!(p.ag_queue_count(), 3);
        let idle = ProcView {
            running: None,
            queue_len: 0,
            ..p
        };
        assert!(idle.is_idle());
        assert_eq!(idle.ag_queue_count(), 0);
        // A crashed processor is never idle, even with nothing on it.
        let crashed = ProcView { down: true, ..idle };
        assert!(!crashed.is_idle());
    }

    #[test]
    fn live_procs_reads_up_mask() {
        let f = fixture();
        let mut procs = idle_procs(&f.config, SimTime::ZERO);
        procs[1].down = true;
        let locations = vec![None; f.dfg.len()];
        let ready = ready_of(&f.dfg, &f.dfg.sources());
        let view = view(&f, &ready, &procs, &locations);
        assert_eq!(view.up_mask, 0b101);
        assert_eq!(view.live_procs(), 2);
        // The down proc also left the idle set.
        assert_eq!(view.idle_mask, 0b101);
        assert_eq!(view.idle_count(), 2);
    }
}
