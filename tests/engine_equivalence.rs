//! Differential test: the optimized engine hot path must be *semantically
//! invisible*.
//!
//! The production engine (`apt_hetsim::simulate`) maintains its state
//! incrementally: a bitset ready set, in-place `ProcView` updates with a
//! running windowed-average sum, a running idle count, and dense cost-model
//! reads. This file carries a straight port of the seed engine's naive
//! bookkeeping — sorted-`Vec` ready set with O(n) insert/remove, processor
//! snapshots rebuilt from scratch on every fixpoint iteration, execution
//! times re-resolved through the raw lookup table, transfer times re-derived
//! from `bytes / rate` per query — and replays **all twenty canonical
//! workloads (both DFG families × ten experiments) under every policy**
//! through both engines, asserting byte-identical [`Trace`]s.
//!
//! Any hot-path change that alters a schedule (iteration order, idle
//! accounting, cost rounding, queue handling) fails here with the first
//! diverging workload/policy pair named.
//!
//! The one deliberate semantic change of the optimization PR — the windowed
//! τ_k average rounding to nearest instead of truncating — is applied to the
//! reference too (and pinned separately by the engine's
//! `recent_avg_rounds_to_nearest` unit test).

use apt_experiments::workloads::{experiment_graphs, figure5_graph};
use apt_suite::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const EXEC_HISTORY_WINDOW: usize = 10;

/// Seed-engine processor state (snapshot fields included, rebuilt per edge).
struct RefProcCore {
    busy_until: SimTime,
    running: Option<NodeId>,
    queue: VecDeque<Assignment>,
    history: VecDeque<SimDuration>,
    stats: ProcStats,
}

impl RefProcCore {
    fn new() -> Self {
        RefProcCore {
            busy_until: SimTime::ZERO,
            running: None,
            queue: VecDeque::new(),
            history: VecDeque::new(),
            stats: ProcStats::default(),
        }
    }

    fn recent_avg_exec(&self) -> SimDuration {
        if self.history.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.history.iter().map(|d| d.as_ns()).sum();
        let len = self.history.len() as u64;
        SimDuration::from_ns((total + len / 2) / len)
    }

    fn push_history(&mut self, exec: SimDuration) {
        if self.history.len() == EXEC_HISTORY_WINDOW {
            self.history.pop_front();
        }
        self.history.push_back(exec);
    }
}

/// The reference path replays non-streamed workloads only, so completion is
/// the single event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Finish(ProcId),
}

/// A faithful port of the seed engine: naive lookups, naive snapshots,
/// sorted-`Vec` ready set.
struct RefEngine<'a> {
    dfg: &'a KernelDag,
    config: &'a SystemConfig,
    lookup: &'a LookupTable,
    cost: &'a CostModel,
    now: SimTime,
    ready: Vec<NodeId>,
    ready_time: Vec<SimTime>,
    remaining_preds: Vec<usize>,
    locations: Vec<Option<ProcId>>,
    records: Vec<Option<TaskRecord>>,
    procs: Vec<RefProcCore>,
    events: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
    finished: usize,
}

impl<'a> RefEngine<'a> {
    fn new(
        dfg: &'a KernelDag,
        config: &'a SystemConfig,
        lookup: &'a LookupTable,
        cost: &'a CostModel,
    ) -> Self {
        let n = dfg.len();
        RefEngine {
            dfg,
            config,
            lookup,
            cost,
            now: SimTime::ZERO,
            ready: dfg.sources(),
            ready_time: vec![SimTime::ZERO; n],
            remaining_preds: dfg.node_ids().map(|id| dfg.in_degree(id)).collect(),
            locations: vec![None; n],
            records: vec![None; n],
            procs: (0..config.len()).map(|_| RefProcCore::new()).collect(),
            events: BinaryHeap::new(),
            seq: 0,
            finished: 0,
        }
    }

    /// Rebuild every processor snapshot from scratch — the seed did this on
    /// every single fixpoint iteration.
    fn proc_views(&self) -> Vec<ProcView> {
        self.procs
            .iter()
            .enumerate()
            .map(|(i, p)| ProcView {
                id: ProcId::new(i),
                kind: self.config.kind_of(ProcId::new(i)),
                running: p.running,
                busy_until: p.busy_until.max(self.now),
                queue_len: p.queue.len(),
                recent_avg_exec: p.recent_avg_exec(),
                down: false,
            })
            .collect()
    }

    /// Naive transfer recomputation: bytes × link rate per predecessor.
    fn transfer_in(&self, node: NodeId, proc: ProcId) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &pred in self.dfg.preds(node) {
            match self.locations[pred.index()] {
                Some(loc) if loc != proc => {
                    let bytes = self.dfg.node(pred).bytes(self.config.bytes_per_element);
                    total += self.config.pair_rate(loc, proc).transfer_time(bytes);
                }
                Some(_) => {}
                None => unreachable!("started a kernel whose predecessor never finished"),
            }
        }
        total
    }

    fn start_node(&mut self, a: Assignment, proc: ProcId) {
        let node = a.node;
        let kernel = *self.dfg.node(node);
        let exec = self
            .lookup
            .exec_time(&kernel, self.config.kind_of(proc))
            .expect("reference run only applies runnable assignments");
        let transfer = self.transfer_in(node, proc);
        let start = self.now;
        let exec_start = start + transfer;
        let finish = exec_start + exec;
        self.records[node.index()] = Some(TaskRecord {
            node,
            kernel,
            proc,
            ready: self.ready_time[node.index()],
            start,
            exec_start,
            finish,
            alt: a.alt,
        });
        let core = &mut self.procs[proc.index()];
        assert!(core.running.is_none());
        core.running = Some(node);
        core.busy_until = finish;
        core.stats.busy += exec;
        core.stats.transfer += transfer;
        core.stats.kernels += 1;
        core.push_history(exec);
        self.events
            .push(Reverse((finish, self.seq, Event::Finish(proc))));
        self.seq += 1;
    }

    fn apply(&mut self, a: Assignment) {
        let pos = self
            .ready
            .binary_search(&a.node)
            .expect("policy assigned a non-ready node");
        self.ready.remove(pos);
        if self.procs[a.proc.index()].running.is_none() {
            assert!(self.procs[a.proc.index()].queue.is_empty());
            self.start_node(a, a.proc);
        } else {
            self.procs[a.proc.index()].queue.push_back(a);
        }
    }

    fn make_ready(&mut self, node: NodeId) {
        self.ready_time[node.index()] = self.now.max(self.ready_time[node.index()]);
        match self.ready.binary_search(&node) {
            Ok(_) => unreachable!("node became ready twice"),
            Err(pos) => self.ready.insert(pos, node),
        }
    }

    fn finish_on(&mut self, proc: ProcId) {
        let core = &mut self.procs[proc.index()];
        let node = core.running.take().expect("completion on idle proc");
        self.locations[node.index()] = Some(proc);
        self.finished += 1;
        for &succ in self.dfg.succs(node) {
            let r = &mut self.remaining_preds[succ.index()];
            *r -= 1;
            if *r == 0 {
                self.make_ready(succ);
            }
        }
        if let Some(next) = self.procs[proc.index()].queue.pop_front() {
            self.start_node(next, proc);
        }
    }

    fn run(&mut self, policy: &mut dyn Policy) {
        // Closed-world workloads carry no deadlines (MAX = none).
        let deadlines = vec![SimTime::MAX; self.dfg.len()];
        loop {
            loop {
                let views = self.proc_views();
                // The SimView type requires the bitset (each member stamped
                // with its cost class) + cost model; both are rebuilt/derived
                // fresh here — as is the decide buffer — so the *engine
                // under test* remains the only incremental implementation.
                let mut ready_set = ReadySet::new(self.dfg.len());
                for &n in &self.ready {
                    ready_set.set_class(n, self.cost.class_of(n));
                    ready_set.insert(n);
                }
                let mut assignments = AssignmentBuf::new();
                {
                    let view = SimView {
                        now: self.now,
                        ready: &ready_set,
                        procs: &views,
                        dfg: self.dfg,
                        lookup: self.lookup,
                        config: self.config,
                        cost: self.cost,
                        locations: &self.locations,
                        deadlines: &deadlines,
                        idle_mask: views
                            .iter()
                            .enumerate()
                            .filter(|(_, p)| p.is_idle())
                            .fold(0u64, |m, (i, _)| m | 1 << i),
                        up_mask: (1u64 << views.len()) - 1,
                        ready_order: ReadyOrder::Admission,
                    };
                    policy.decide(&view, &mut assignments);
                }
                if assignments.is_empty() {
                    break;
                }
                for &a in assignments.as_slice() {
                    self.apply(a);
                }
            }
            match self.events.pop() {
                None => break,
                Some(Reverse((t, _, event))) => {
                    self.now = t;
                    self.handle(event);
                    while let Some(Reverse((t2, _, _))) = self.events.peek() {
                        if *t2 != t {
                            break;
                        }
                        let Reverse((_, _, e2)) = self.events.pop().expect("peeked");
                        self.handle(e2);
                    }
                }
            }
        }
        assert_eq!(self.finished, self.dfg.len(), "reference run starved");
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Finish(proc) => self.finish_on(proc),
        }
    }

    fn into_trace(self) -> Trace {
        let mut records: Vec<TaskRecord> = self
            .records
            .into_iter()
            .map(|r| r.expect("run() verified completion"))
            .collect();
        records.sort_unstable_by_key(|r| (r.start, r.node));
        Trace {
            records,
            proc_stats: self.procs.into_iter().map(|p| p.stats).collect(),
        }
    }
}

/// Run a policy through the seed-semantics reference engine.
fn ref_simulate(
    dfg: &KernelDag,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
) -> Trace {
    config.validate().unwrap();
    dfg.validate().unwrap();
    let cost = CostModel::new(dfg, lookup, config);
    policy
        .prepare(PrepareCtx {
            dfg,
            lookup,
            config,
            cost: &cost,
        })
        .unwrap();
    let mut engine = RefEngine::new(dfg, config, lookup, &cost);
    engine.run(policy);
    engine.into_trace()
}

/// A named constructor for one roster entry.
type RosterEntry = (&'static str, Box<dyn Fn() -> Box<dyn Policy>>);

/// Every policy under test, freshly constructed per run. Covers the seven
/// policies of the paper's comparison plus the extras (APT-R, AR, OLB) and a
/// second α so both APT branches (wait vs alternative) are exercised.
fn policy_roster() -> Vec<RosterEntry> {
    vec![
        (
            "APT(4)",
            Box::new(|| Box::new(Apt::new(4.0)) as Box<dyn Policy>),
        ),
        (
            "APT(1.5)",
            Box::new(|| Box::new(Apt::new(1.5)) as Box<dyn Policy>),
        ),
        (
            "APT-R(4)",
            Box::new(|| Box::new(AptR::new(4.0)) as Box<dyn Policy>),
        ),
        ("MET", Box::new(|| Box::new(Met::new()) as Box<dyn Policy>)),
        ("SPN", Box::new(|| Box::new(Spn::new()) as Box<dyn Policy>)),
        (
            "SS",
            Box::new(|| Box::new(SerialScheduling::new()) as Box<dyn Policy>),
        ),
        (
            "AG",
            Box::new(|| Box::new(AdaptiveGreedy::new()) as Box<dyn Policy>),
        ),
        (
            "AR(7)",
            Box::new(|| Box::new(AdaptiveRandom::new(7)) as Box<dyn Policy>),
        ),
        ("OLB", Box::new(|| Box::new(Olb::new()) as Box<dyn Policy>)),
        (
            "HEFT",
            Box::new(|| Box::new(Heft::new()) as Box<dyn Policy>),
        ),
        (
            "PEFT",
            Box::new(|| Box::new(Peft::new()) as Box<dyn Policy>),
        ),
    ]
}

fn assert_equivalent(tag: &str, dfg: &KernelDag, system: &SystemConfig) {
    let lookup = LookupTable::paper();
    for (name, make) in policy_roster() {
        let mut fast_policy = make();
        let fast = simulate(dfg, system, lookup, fast_policy.as_mut())
            .unwrap_or_else(|e| panic!("{tag}/{name}: optimized run failed: {e}"));
        let mut ref_policy = make();
        let reference = ref_simulate(dfg, system, lookup, ref_policy.as_mut());
        assert_eq!(
            fast.trace, reference,
            "{tag}/{name}: optimized engine diverged from seed semantics"
        );
        fast.trace.validate(dfg).unwrap();
    }
}

/// All twenty canonical workloads × every policy, byte-identical traces.
#[test]
fn optimized_engine_matches_seed_semantics_on_all_canonical_workloads() {
    let system = SystemConfig::paper_4gbps();
    for ty in DfgType::ALL {
        for (i, dfg) in experiment_graphs(ty).iter().enumerate() {
            assert_equivalent(&format!("{ty:?}/exp{}", i + 1), dfg, &system);
        }
    }
}

/// The Figure-5 walk-through (transfers disabled) — the paper's only fully
/// published schedule — through both engines.
#[test]
fn figure5_walkthrough_is_equivalent() {
    let dfg = figure5_graph();
    assert_equivalent("fig5", &dfg, &SystemConfig::paper_no_transfers());
    assert_equivalent("fig5@4gbps", &dfg, &SystemConfig::paper_4gbps());
}

/// The one-rate `Topology` differential: re-stating the paper machine's
/// interconnect as `Topology::uniform` at the same rate must reproduce
/// **byte-identical** traces against the paper config as built — across
/// all twenty canonical workloads and the full policy roster (dynamic *and*
/// static, whose plan-time transfer estimates are pair-resolved).
#[test]
fn uniform_topology_is_byte_identical_to_the_link_rate_path() {
    let lookup = LookupTable::paper();
    let plain = SystemConfig::paper_4gbps();
    let topo = SystemConfig::paper_4gbps().with_topology(Topology::uniform(LinkRate::PCIE2_X8));
    for ty in DfgType::ALL {
        for (i, dfg) in experiment_graphs(ty).iter().enumerate() {
            for (name, make) in policy_roster() {
                let tag = format!("{ty:?}/exp{}/{name}", i + 1);
                let a = simulate(dfg, &plain, lookup, make().as_mut())
                    .unwrap_or_else(|e| panic!("{tag}: scalar-link run failed: {e}"));
                let b = simulate(dfg, &topo, lookup, make().as_mut())
                    .unwrap_or_else(|e| panic!("{tag}: uniform-topology run failed: {e}"));
                assert_eq!(
                    a.trace, b.trace,
                    "{tag}: uniform topology diverged from the scalar link path"
                );
            }
        }
    }
}

/// An all-equal-rate *matrix* (built via `from_fn`, one rate per pair) must
/// also be byte-identical to the paper machine's one-rate interconnect —
/// the "contention-off equals the matrix model when all rates are equal"
/// pin at trace level. One workload per family keeps this differential
/// cheap; the per-pair arithmetic it exercises is node-shape independent.
#[test]
fn equal_rate_matrix_is_byte_identical_to_the_link_rate_path() {
    let lookup = LookupTable::paper();
    let plain = SystemConfig::paper_4gbps();
    let matrix =
        SystemConfig::paper_4gbps().with_topology(Topology::from_fn(3, |_, _| LinkRate::PCIE2_X8));
    for ty in DfgType::ALL {
        let dfg = experiment_graphs(ty).remove(4); // 93 kernels — mid-size
        for (name, make) in policy_roster() {
            let a = simulate(&dfg, &plain, lookup, make().as_mut()).unwrap();
            let b = simulate(&dfg, &matrix, lookup, make().as_mut()).unwrap();
            assert_eq!(
                a.trace, b.trace,
                "{ty:?}/{name}: equal-rate matrix diverged from the scalar link"
            );
        }
    }
}

/// The fault-machinery differential: arming [`FaultPlan::none()`] must be
/// *byte-identical* to the plain engine across the full policy roster —
/// the failure model's availability masks, run tokens, and fault calendar
/// hooks may not perturb a fault-free schedule in any way, and the
/// returned totals must be all zeros.
#[test]
fn none_fault_plan_is_byte_identical_across_the_roster() {
    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    for ty in DfgType::ALL {
        // One mid-size workload per family: the fault hooks sit on
        // node-start/finish edges, which every workload shape exercises.
        let dfg = experiment_graphs(ty).remove(4);
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        for (name, make) in policy_roster() {
            let tag = format!("{ty:?}/{name}");
            let plain = simulate(&dfg, &system, lookup, make().as_mut())
                .unwrap_or_else(|e| panic!("{tag}: plain run failed: {e}"));
            let (faulty, totals) = simulate_stream_faulty(
                &dfg,
                &system,
                lookup,
                make().as_mut(),
                &arrivals,
                FaultPlan::none(),
                RetryPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("{tag}: none-plan run failed: {e}"));
            assert_eq!(
                plain.trace, faulty.trace,
                "{tag}: FaultPlan::none() perturbed the schedule"
            );
            assert_eq!(
                totals,
                FaultTotals::default(),
                "{tag}: phantom fault counts"
            );
        }
    }
}

/// Duplicated-category machines exercise the idle-twin selection paths.
#[test]
fn duplicated_categories_are_equivalent() {
    let dfg = experiment_graphs(DfgType::Type1).remove(0);
    let system = SystemConfig::empty(LinkRate::PCIE2_X8)
        .with_proc(ProcKind::Cpu)
        .with_proc(ProcKind::Cpu)
        .with_proc(ProcKind::Gpu)
        .with_proc(ProcKind::Fpga)
        .with_proc(ProcKind::Fpga);
    assert_equivalent("dup-categories", &dfg, &system);
}
