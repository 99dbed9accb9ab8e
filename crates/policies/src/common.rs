//! Helpers shared by the dynamic policies.

use apt_base::{ProcId, SimDuration};
use apt_dfg::NodeId;
use apt_hetsim::cost::MAX_PROCS;
use apt_hetsim::ready::ReadyIter;
use apt_hetsim::{Assignment, AssignmentBuf, ClassId, CostModel, SimView};

/// The best processor *instance* for a kernel by pure execution time, with
/// instance-level tie handling: among all instances achieving the minimal
/// execution time, an **idle** one is preferred (lowest id); if none is idle
/// the lowest-id one is returned with `idle = false`.
///
/// With one processor per category (the paper's system) this is exactly
/// `p_min`; with duplicated categories it lets MET/APT use a free twin of
/// the best device instead of waiting, which is the natural generalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestInstance {
    /// The chosen instance.
    pub proc: ProcId,
    /// The kernel's execution time there (`x` in §3.1).
    pub exec: SimDuration,
    /// Whether that instance is currently idle.
    pub idle: bool,
}

/// Compute [`BestInstance`] for `node`; `None` if no processor can run it.
///
/// The minimal execution time and the set of instances achieving it are
/// precomputed in the run's cost model, and the engine maintains the idle
/// set as a bitset — so this is two mask reads and an intersection: the
/// lowest-id idle minimal instance is `trailing_zeros(min_mask ∩ idle)`.
pub fn best_instance(view: &SimView<'_>, node: NodeId) -> Option<BestInstance> {
    debug_assert_eq!(
        view.idle_mask,
        view.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_idle())
            .fold(0u64, |m, (i, _)| m | 1 << i),
        "view's idle mask disagrees with its snapshots"
    );
    best_instance_in(view, node, view.idle_mask)
}

/// [`best_instance`] against an explicit idle bitset instead of the view's.
///
/// Policies that emit a whole per-instant batch in one `decide` pass (MET,
/// APT, APT-R) claim processors as they go; this variant lets them evaluate
/// each kernel against the *remaining* idle set, reproducing exactly what a
/// one-assignment-per-call fixpoint would have seen after the engine
/// applied the earlier assignments.
pub fn best_instance_in(view: &SimView<'_>, node: NodeId, idle_mask: u64) -> Option<BestInstance> {
    let exec = view.cost.min_exec(node)?;
    let mask = view.cost.min_mask(node);
    debug_assert_ne!(mask, 0);
    // Among minimal-exec instances, prefer the lowest-id idle one; fall back
    // to the lowest-id instance overall.
    let idle = mask & idle_mask;
    if idle != 0 {
        Some(BestInstance {
            proc: ProcId::new(idle.trailing_zeros() as usize),
            exec,
            idle: true,
        })
    } else {
        Some(BestInstance {
            proc: ProcId::new(mask.trailing_zeros() as usize),
            exec,
            idle: false,
        })
    }
}

/// Emit a whole instant in one `decide` call for a policy that never waits
/// and whose pick reads only static costs and the idle set (SPN, SS).
///
/// Applying a pick only takes one processor out of the idle set and one
/// kernel out of the ready set, so the next pick at the same instant is the
/// same rule over what is left. This repeats `pick` over a local copy of
/// the idle mask and the ready kernels not yet claimed (at most one per
/// processor) until it returns `None`, then marks the batch with
/// [`AssignmentBuf::mark_fixpoint`]. The batch is exactly the sequence the
/// one-pick-per-call form emits over successive calls.
///
/// `pick` gets the remaining idle mask and the pick's [`ClassFirsts`].
pub fn emit_instant(
    view: &SimView<'_>,
    out: &mut AssignmentBuf,
    mut pick: impl FnMut(u64, ClassFirsts<'_>) -> Option<(NodeId, ProcId)>,
) {
    let mut idle = view.idle_mask;
    let mut claimed = [NodeId::new(0); MAX_PROCS];
    let mut nclaimed = 0;
    while idle != 0 {
        let candidates = ClassFirsts {
            nodes: view.ready.iter(),
            cost: view.cost,
            claimed: &claimed[..nclaimed],
            seen: 0,
        };
        let Some((node, proc)) = pick(idle, candidates) else {
            break;
        };
        out.push(Assignment::new(node, proc));
        idle &= !(1 << proc.index());
        claimed[nclaimed] = node;
        nclaimed += 1;
    }
    out.mark_fixpoint();
}

/// The candidates of one [`emit_instant`] pick: the unclaimed ready
/// kernels in ready order with their cost classes, each class only at its
/// first kernel. The pick's rule sees a kernel only through its class while
/// the idle set is fixed, so a later kernel of a class already seen could
/// only tie, and ties keep the earliest kernel. Classes below 64 are
/// tracked; higher ones are always yielded.
pub struct ClassFirsts<'a> {
    nodes: ReadyIter<'a>,
    cost: &'a CostModel,
    claimed: &'a [NodeId],
    seen: u64,
}

impl Iterator for ClassFirsts<'_> {
    type Item = (NodeId, ClassId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, ClassId)> {
        for node in self.nodes.by_ref() {
            if self.claimed.contains(&node) {
                continue;
            }
            let class = self.cost.class_of(node);
            let bit = 1u64.checked_shl(class).unwrap_or(0);
            if self.seen & bit != 0 {
                continue;
            }
            self.seen |= bit;
            return Some((node, class));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcKind, SimTime};
    use apt_dfg::{Kernel, KernelDag, KernelKind, LookupTable};
    use apt_hetsim::{CostModel, ProcView, ReadySet, SystemConfig};

    fn make_views(config: &SystemConfig, busy: &[bool]) -> Vec<ProcView> {
        config
            .proc_ids()
            .map(|id| ProcView {
                id,
                kind: config.kind_of(id),
                running: busy[id.index()].then(|| NodeId::new(0)),
                busy_until: SimTime::ZERO,
                queue_len: 0,
                recent_avg_exec: SimDuration::ZERO,
                down: false,
            })
            .collect()
    }

    fn check(config: &SystemConfig, busy: &[bool], check: impl FnOnce(&SimView<'_>)) {
        check_with(&[Kernel::canonical(KernelKind::Bfs)], config, busy, check);
    }

    /// A view at t = 0 over independent `kernels`, all ready.
    fn check_with(
        kernels: &[Kernel],
        config: &SystemConfig,
        busy: &[bool],
        check: impl FnOnce(&SimView<'_>),
    ) {
        let mut dfg = KernelDag::new();
        for &k in kernels {
            dfg.add_node(k);
        }
        let cost = CostModel::new(&dfg, LookupTable::paper(), config);
        let procs = make_views(config, busy);
        let locations = vec![None; dfg.len()];
        let mut ready = ReadySet::new(dfg.len());
        for node in dfg.node_ids() {
            ready.insert(node);
        }
        let view = SimView {
            now: SimTime::ZERO,
            ready: &ready,
            procs: &procs,
            dfg: &dfg,
            lookup: LookupTable::paper(),
            config,
            cost: &cost,
            locations: &locations,
            deadlines: &[],
            idle_mask: procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_idle())
                .fold(0u64, |m, (i, _)| m | 1 << i),
            up_mask: (1u64 << procs.len()) - 1,
            ready_order: apt_hetsim::ReadyOrder::Admission,
        };
        check(&view);
    }

    #[test]
    fn prefers_idle_twin_of_best_category() {
        // Two FPGAs; BFS is FPGA-best. First FPGA busy → pick the second.
        let config = SystemConfig::empty(apt_hetsim::LinkRate::gbps(4))
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Fpga)
            .with_proc(ProcKind::Fpga);
        check(&config, &[false, true, false], |view| {
            let b = best_instance(view, NodeId::new(0)).unwrap();
            assert_eq!(b.proc, ProcId::new(2));
            assert!(b.idle);
            assert_eq!(b.exec, SimDuration::from_ms(106));
        });
    }

    #[test]
    fn reports_busy_best_when_no_twin_idle() {
        let config = SystemConfig::paper_4gbps();
        check(&config, &[false, false, true], |view| {
            // FPGA busy
            let b = best_instance(view, NodeId::new(0)).unwrap();
            assert_eq!(b.proc, ProcId::new(2));
            assert!(!b.idle);
        });
    }

    /// The explicit idle set, not the view's, decides whether the best
    /// instance counts as idle.
    #[test]
    fn best_instance_in_reads_the_given_idle_set() {
        let config = SystemConfig::paper_4gbps();
        check(&config, &[false, false, false], |view| {
            let free = best_instance_in(view, NodeId::new(0), 0b111).unwrap();
            assert_eq!((free.proc, free.idle), (ProcId::new(2), true));
            // FPGA claimed earlier in the same batch.
            let taken = best_instance_in(view, NodeId::new(0), 0b011).unwrap();
            assert_eq!((taken.proc, taken.idle), (ProcId::new(2), false));
            assert_eq!(taken.exec, free.exec);
        });
    }

    /// Each pick sees the unclaimed ready kernels, one per cost class, at
    /// the first kernel of that class in ready order.
    #[test]
    fn class_firsts_yield_each_unclaimed_class_once() {
        let bfs = Kernel::canonical(KernelKind::Bfs);
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch);
        let config = SystemConfig::paper_4gbps();
        check_with(&[bfs, bfs, nw, bfs], &config, &[false; 3], |view| {
            let class = |i| view.cost.class_of(NodeId::new(i));
            assert_eq!(class(0), class(1));
            assert_ne!(class(0), class(2));
            let mut seen: Vec<Vec<NodeId>> = Vec::new();
            let mut out = AssignmentBuf::new();
            let mut next_proc = 0;
            emit_instant(view, &mut out, |_idle, candidates| {
                let nodes: Vec<NodeId> = candidates.map(|(n, _)| n).collect();
                seen.push(nodes.clone());
                let first = *nodes.first()?;
                next_proc += 1;
                Some((first, ProcId::new(next_proc - 1)))
            });
            let n = NodeId::new;
            assert_eq!(
                seen,
                vec![vec![n(0), n(2)], vec![n(1), n(2)], vec![n(2), n(3)],]
            );
        });
    }

    /// The batch ends when no processor is idle, each pick takes its
    /// processor out of the idle set it hands the next one, and the batch
    /// is marked as the instant's fixpoint.
    #[test]
    fn emit_instant_claims_each_idle_processor_once() {
        let bfs = Kernel::canonical(KernelKind::Bfs);
        let config = SystemConfig::paper_4gbps();
        check_with(&[bfs; 5], &config, &[false, true, false], |view| {
            let mut idle_seen = Vec::new();
            let mut out = AssignmentBuf::new();
            emit_instant(view, &mut out, |idle, mut candidates| {
                idle_seen.push(idle);
                let (node, _) = candidates.next()?;
                Some((node, ProcId::new(idle.trailing_zeros() as usize)))
            });
            assert_eq!(idle_seen, vec![0b101, 0b100]);
            assert_eq!(
                out.as_slice(),
                &[
                    Assignment::new(NodeId::new(0), ProcId::new(0)),
                    Assignment::new(NodeId::new(1), ProcId::new(2)),
                ]
            );
            assert!(out.is_fixpoint());
        });
    }

    /// A pick that declines ends the batch at once; the empty batch is
    /// still marked, since another call at this instant would decline too.
    #[test]
    fn emit_instant_stops_when_the_pick_declines() {
        let config = SystemConfig::paper_4gbps();
        check(&config, &[false; 3], |view| {
            let mut calls = 0;
            let mut out = AssignmentBuf::new();
            emit_instant(view, &mut out, |_, _| {
                calls += 1;
                None
            });
            assert_eq!(calls, 1);
            assert!(out.is_empty());
            assert!(out.is_fixpoint());
        });
    }
}
