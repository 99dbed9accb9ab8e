//! List-scheduling machinery shared by the static policies.
//!
//! HEFT and PEFT both (a) order tasks by a priority, (b) place each task on
//! the processor minimizing some finish-time objective using
//! **insertion-based** slot search ("an insertion of task in an earliest
//! time slot between two already scheduled tasks, if the time slot can
//! accommodate the computation time" — §2.5.3), and (c) hand the simulator a
//! fixed plan to follow. This module provides:
//!
//! * [`Timeline`] — per-processor reserved intervals with earliest-fit
//!   insertion,
//! * [`build_plan`] — the priority-driven planning loop, parameterized by
//!   the processor-selection objective,
//! * [`PlannedSchedule`] — the plan plus the replay logic that releases
//!   assignments to the engine in plan order.
//!
//! Plan-time costs use the HEFT communication model: a task may start on
//! processor `p` once each predecessor has finished plus (for predecessors
//! placed elsewhere) the link time of their output — communication overlaps
//! computation at plan time. The simulator then *executes* the plan under
//! its own (transfer-occupies-consumer) semantics, which is exactly the
//! paper's arrangement: static schedules are generated beforehand and the
//! simulator logs what actually happens.

use apt_base::{BaseError, ProcId, SimDuration, SimTime};
use apt_dfg::NodeId;
use apt_hetsim::{Assignment, AssignmentBuf, PrepareCtx, SimView};
use std::collections::VecDeque;

/// Reserved intervals per processor, kept sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    lanes: Vec<Lane>,
}

/// One processor's reservations.
#[derive(Debug, Clone)]
struct Lane {
    /// Disjoint `[start, end)` intervals, ascending.
    slots: Vec<(SimTime, SimTime)>,
    /// The task holding each interval.
    nodes: Vec<NodeId>,
    /// The longest idle gap: from time zero to the first start, or from
    /// one reservation's end to the next one's start.
    max_gap: SimDuration,
}

/// The longest idle gap of a sorted, disjoint reservation list.
fn longest_gap(slots: &[(SimTime, SimTime)]) -> SimDuration {
    let mut prev_end = SimTime::ZERO;
    let mut longest = SimDuration::ZERO;
    for &(s, e) in slots {
        longest = longest.max(s.saturating_since(prev_end));
        prev_end = e;
    }
    longest
}

impl Timeline {
    /// A timeline for `nprocs` processors, each with room for `tasks`
    /// reservations before it reallocates.
    pub fn new(nprocs: usize, tasks: usize) -> Self {
        let lane = || Lane {
            slots: Vec::with_capacity(tasks),
            nodes: Vec::with_capacity(tasks),
            max_gap: SimDuration::ZERO,
        };
        Timeline {
            lanes: (0..nprocs).map(|_| lane()).collect(),
        }
    }

    /// Earliest start ≥ `est` at which a task of length `dur` fits on
    /// `proc`, considering gaps between already reserved intervals
    /// (insertion-based policy).
    pub fn earliest_fit(&self, proc: ProcId, est: SimTime, dur: SimDuration) -> SimTime {
        let lane = &self.lanes[proc.index()];
        let Some(&(_, last_end)) = lane.slots.last() else {
            return est;
        };
        // Fast path: when `est` is at or after the last reservation's end,
        // or no gap (nor the part of one after `est`) is as long as `dur`,
        // the walk below cannot stop early and ends at the later of `est`
        // and the last end.
        if last_end <= est || dur > lane.max_gap {
            return est.max(last_end);
        }
        let mut start = est;
        for &(s, e) in &lane.slots {
            if start + dur <= s {
                break; // fits in the gap before this interval
            }
            if e > start {
                start = e;
            }
        }
        start
    }

    /// Reserve `[start, start + dur)` on `proc` for `node`.
    pub fn reserve(&mut self, proc: ProcId, node: NodeId, start: SimTime, dur: SimDuration) {
        let lane = &mut self.lanes[proc.index()];
        let interval = (start, start + dur);
        match lane.slots.last() {
            Some(&(last_start, _)) if last_start >= start => {
                let pos = lane.slots.partition_point(|&(s, _)| s < start);
                let prev_end = pos
                    .checked_sub(1)
                    .map_or(SimTime::ZERO, |i| lane.slots[i].1);
                let split = lane.slots[pos].0.saturating_since(prev_end);
                lane.slots.insert(pos, interval);
                lane.nodes.insert(pos, node);
                // Splitting a gap shortens it; only the longest one's split
                // can change the maximum.
                if split == lane.max_gap {
                    lane.max_gap = longest_gap(&lane.slots);
                }
            }
            last => {
                let prev_end = last.map_or(SimTime::ZERO, |&(_, e)| e);
                lane.max_gap = lane.max_gap.max(start.saturating_since(prev_end));
                lane.slots.push(interval);
                lane.nodes.push(node);
            }
        }
        debug_assert!(
            lane.slots.windows(2).all(|w| w[0].1 <= w[1].0),
            "timeline reservations overlap"
        );
        debug_assert_eq!(lane.max_gap, longest_gap(&lane.slots));
    }

    /// Number of reservations on one processor.
    pub fn count(&self, proc: ProcId) -> usize {
        self.lanes[proc.index()].slots.len()
    }

    /// Each processor's tasks in reservation order (ascending start).
    pub fn into_orders(self) -> impl Iterator<Item = Vec<NodeId>> {
        self.lanes.into_iter().map(|lane| lane.nodes)
    }
}

/// A candidate placement offered to the processor-selection objective.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Target processor.
    pub proc: ProcId,
    /// Planned start (after insertion-based slot search).
    pub start: SimTime,
    /// Planned finish (`EFT`).
    pub finish: SimTime,
}

/// A complete static schedule.
#[derive(Debug, Clone)]
pub struct PlannedSchedule {
    /// Processor chosen for each node.
    pub assignment: Vec<ProcId>,
    /// Planned start time of each node.
    pub starts: Vec<SimTime>,
    /// Per-processor execution order (ascending planned start).
    pub per_proc_order: Vec<VecDeque<NodeId>>,
    /// The plan's own makespan estimate (under the plan-time cost model).
    pub planned_makespan: SimDuration,
}

impl PlannedSchedule {
    /// Release the next plan steps the simulator can take *now*: for every
    /// idle processor whose plan head is ready, emit that assignment into
    /// the engine's buffer. Preserves per-processor plan order strictly.
    ///
    /// The batch is the whole per-instant fixpoint, so it is marked with
    /// [`AssignmentBuf::mark_fixpoint`]: applying it makes every processor
    /// it names busy and only removes nodes from the ready set, so no
    /// other idle processor's head can become ready within the instant.
    pub fn release(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        for p in view.procs {
            if !p.is_idle() {
                continue;
            }
            if let Some(&head) = self.per_proc_order[p.id.index()].front() {
                if view.ready.contains(head) {
                    self.per_proc_order[p.id.index()].pop_front();
                    out.push(Assignment::new(head, p.id));
                }
            }
        }
        out.mark_fixpoint();
    }
}

/// Build a static plan.
///
/// * `priority` — one value per node; tasks are scheduled highest-first
///   among plan-time-ready tasks. The plan-time ready list is a `Vec` that
///   gains successors at the back and loses its pick by `swap_remove`;
///   among equal priorities the task at the lowest *position* in that list
///   wins, which is not in general the lowest node id.
/// * `objective` — given the task and its placement candidates (one per
///   runnable processor, ascending id), return the index of the chosen
///   candidate. HEFT minimizes `finish`; PEFT minimizes
///   `finish + OCT(task, proc)`.
///
/// Returns [`BaseError::MissingLookup`] when some kernel cannot run on any
/// processor of the machine.
pub fn build_plan(
    ctx: &PrepareCtx<'_>,
    priority: &[f64],
    mut objective: impl FnMut(NodeId, &[Candidate]) -> usize,
) -> Result<PlannedSchedule, BaseError> {
    let (dfg, cost) = (ctx.dfg, ctx.cost);
    if let Some((_, kernel)) = dfg.iter().find(|&(n, _)| cost.runnable_mask(n) == 0) {
        return Err(BaseError::MissingLookup {
            kernel: kernel.kind.tag(),
            data_size: kernel.data_size,
            proc: "any",
        });
    }
    let nprocs = cost.nprocs();
    let mut timeline = Timeline::new(nprocs, dfg.len());
    let mut assignment = vec![ProcId::new(0); dfg.len()];
    let mut starts = vec![SimTime::ZERO; dfg.len()];
    let mut finish = vec![SimTime::ZERO; dfg.len()];
    let mut remaining_preds: Vec<usize> = dfg.node_ids().map(|n| dfg.in_degree(n)).collect();
    // Plan-time ready tasks with their priorities inline, so the scan
    // below reads one contiguous array.
    let mut ready: Vec<(f64, NodeId)> = Vec::with_capacity(dfg.len());
    ready.extend(
        dfg.node_ids()
            .filter(|&n| remaining_preds[n.index()] == 0)
            .map(|n| (priority[n.index()], n)),
    );
    let mut candidates: Vec<Candidate> = Vec::with_capacity(nprocs);
    let mut planned_makespan = SimDuration::ZERO;

    while let Some(&(first, _)) = ready.first() {
        // Highest-priority ready task; strict `>` keeps the lowest
        // position among equal priorities.
        let (mut pos, mut top) = (0, first);
        for (i, &(p, _)) in ready.iter().enumerate().skip(1) {
            if p > top {
                (pos, top) = (i, p);
            }
        }
        let (_, node) = ready.swap_remove(pos);

        // Placement candidates on every processor that can run the kernel,
        // ascending id (dense cost-model reads — shared with the engine's
        // hot path).
        candidates.clear();
        let mut runnable = cost.runnable_mask(node);
        while runnable != 0 {
            let proc = ProcId::new(runnable.trailing_zeros() as usize);
            runnable &= runnable - 1;
            let exec = SimDuration::from_ns(cost.exec_ns(node, proc));
            // EST: all predecessors done, plus link time for remote ones
            // (pair-resolved — the predecessor's planned processor is
            // already fixed by the time its successors are ready).
            let mut est = SimTime::ZERO;
            for &pred in dfg.preds(node) {
                let mut avail = finish[pred.index()];
                let placed = assignment[pred.index()];
                if placed != proc {
                    avail += cost.pair_transfer_time(pred, placed, proc);
                }
                est = est.max(avail);
            }
            let start = timeline.earliest_fit(proc, est, exec);
            candidates.push(Candidate {
                proc,
                start,
                finish: start + exec,
            });
        }
        let chosen = candidates[objective(node, &candidates)];
        timeline.reserve(
            chosen.proc,
            node,
            chosen.start,
            chosen.finish - chosen.start,
        );
        assignment[node.index()] = chosen.proc;
        starts[node.index()] = chosen.start;
        finish[node.index()] = chosen.finish;
        planned_makespan = planned_makespan.max(chosen.finish - SimTime::ZERO);

        for &succ in dfg.succs(node) {
            remaining_preds[succ.index()] -= 1;
            if remaining_preds[succ.index()] == 0 {
                ready.push((priority[succ.index()], succ));
            }
        }
    }
    debug_assert!(
        remaining_preds.iter().all(|&r| r == 0),
        "plan left nodes unscheduled"
    );

    // Per-processor order by planned start (ties: node id). The lanes
    // are in start order already, so the sort only orders equal starts
    // (zero-length tasks) and runs in linear time.
    let per_proc_order = timeline
        .into_orders()
        .map(|mut v| {
            v.sort_unstable_by_key(|n| (starts[n.index()], *n));
            VecDeque::from(v)
        })
        .collect();

    Ok(PlannedSchedule {
        assignment,
        starts,
        per_proc_order,
        planned_makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::{Dag, Kernel, KernelDag, KernelKind, LookupTable};
    use apt_hetsim::{CostModel, SystemConfig};

    #[test]
    fn equal_priorities_go_to_the_lowest_ready_list_position() {
        // Four independent kernels of one priority. The ready list starts
        // as [0, 1, 2, 3]; each pick is `swap_remove`d, so the last entry
        // moves into the freed position: [3, 1, 2] after node 0, [2, 1]
        // after node 3. The lowest-id rule would plan 0, 1, 2, 3.
        let mut dfg: KernelDag = Dag::new();
        for _ in 0..4 {
            dfg.add_node(Kernel::canonical(KernelKind::Bfs));
        }
        let lookup = LookupTable::paper();
        let config = SystemConfig::paper_4gbps();
        let cost = CostModel::new(&dfg, lookup, &config);
        let ctx = PrepareCtx {
            dfg: &dfg,
            lookup,
            config: &config,
            cost: &cost,
        };
        let mut picks = Vec::new();
        build_plan(&ctx, &[1.0; 4], |node, _| {
            picks.push(node.index());
            0
        })
        .unwrap();
        assert_eq!(picks, vec![0, 3, 2, 1]);
    }

    #[test]
    fn append_fast_path_matches_the_gap_walk() {
        let mut tl = Timeline::new(1, 4);
        let p = ProcId::new(0);
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(0),
            SimDuration::from_ms(10),
        );
        // At the last end, and after it: the task starts at `est`.
        for est in [10, 25] {
            let est = SimTime::from_ms(est);
            assert_eq!(tl.earliest_fit(p, est, SimDuration::from_ms(5)), est);
        }
        // Appending after the last start keeps the list sorted.
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(10),
            SimDuration::from_ms(5),
        );
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(40),
            SimDuration::from_ms(5),
        );
        assert_eq!(tl.count(p), 3);
        assert_eq!(
            tl.earliest_fit(p, SimTime::ZERO, SimDuration::from_ms(20)),
            SimTime::from_ms(15)
        );
    }

    #[test]
    fn earliest_fit_finds_gaps() {
        let mut tl = Timeline::new(1, 4);
        let p = ProcId::new(0);
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(0),
            SimDuration::from_ms(10),
        );
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(30),
            SimDuration::from_ms(10),
        );
        // 10 ms task fits in the [10, 30) gap.
        assert_eq!(
            tl.earliest_fit(p, SimTime::ZERO, SimDuration::from_ms(10)),
            SimTime::from_ms(10)
        );
        // A task exactly as long as the gap fits it.
        assert_eq!(
            tl.earliest_fit(p, SimTime::ZERO, SimDuration::from_ms(20)),
            SimTime::from_ms(10)
        );
        // 25 ms task does not fit in the gap → after the last interval.
        assert_eq!(
            tl.earliest_fit(p, SimTime::ZERO, SimDuration::from_ms(25)),
            SimTime::from_ms(40)
        );
        // EST inside the gap narrows it.
        assert_eq!(
            tl.earliest_fit(p, SimTime::from_ms(25), SimDuration::from_ms(5)),
            SimTime::from_ms(25)
        );
        // EST inside a reserved interval pushes to its end.
        assert_eq!(
            tl.earliest_fit(p, SimTime::from_ms(5), SimDuration::from_ms(4)),
            SimTime::from_ms(10)
        );
    }

    #[test]
    fn reserve_keeps_sorted_nonoverlapping() {
        let mut tl = Timeline::new(2, 4);
        let p = ProcId::new(1);
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(20),
            SimDuration::from_ms(5),
        );
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(0),
            SimDuration::from_ms(5),
        );
        tl.reserve(
            p,
            NodeId::new(0),
            SimTime::from_ms(10),
            SimDuration::from_ms(5),
        );
        assert_eq!(tl.count(p), 3);
        assert_eq!(tl.count(ProcId::new(0)), 0);
        // Next fit lands in the [5, 10) gap.
        assert_eq!(
            tl.earliest_fit(p, SimTime::ZERO, SimDuration::from_ms(5)),
            SimTime::from_ms(5)
        );
    }
}
