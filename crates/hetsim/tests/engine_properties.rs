//! Property-based tests of the event engine on arbitrary dependency
//! structures (not just the paper's two DFG shapes).

use apt_base::{ProcKind, SimDuration, SimTime};
use apt_dfg::{Dag, KernelDag, LookupTable, NodeId, SplitMix64};
use apt_hetsim::{
    simulate, simulate_stream_faulty, Assignment, AssignmentBuf, FaultPlan, LinkRate, Policy,
    PolicyKind, RetryPolicy, SimView, SystemConfig,
};
use proptest::prelude::*;

/// A random kernel DAG with arbitrary forward edges.
fn random_kernel_dag(n: usize, density: u64, seed: u64) -> KernelDag {
    let lookup = LookupTable::paper();
    let all = lookup.all_kernels();
    let mut rng = SplitMix64::new(seed);
    let mut g = Dag::new();
    for _ in 0..n {
        g.add_node(*rng.choose(&all));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_range(100) < density {
                g.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
            }
        }
    }
    g
}

/// Minimal work-conserving policy: first ready kernel to the first idle
/// processor that can run it.
struct FirstFit;

impl Policy for FirstFit {
    fn name(&self) -> String {
        "FirstFit".into()
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        for node in view.ready.iter() {
            for p in view.idle_procs() {
                if view.exec_time(node, p.id).is_some() {
                    out.push(Assignment::new(node, p.id));
                    return;
                }
            }
        }
    }
}

/// Queue-everything policy stressing FIFO handling: round-robins ready
/// kernels over processors immediately, regardless of occupancy.
struct QueueAll {
    cursor: usize,
}

impl Policy for QueueAll {
    fn name(&self) -> String {
        "QueueAll".into()
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let n = view.procs.len();
        for node in view.ready.iter() {
            for off in 0..n {
                let p = &view.procs[(self.cursor + off) % n];
                if view.exec_time(node, p.id).is_some() {
                    self.cursor = (self.cursor + off + 1) % n;
                    out.push(Assignment::new(node, p.id));
                    return;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any dependency structure, any density: the engine completes with a
    /// valid trace, correct λ bookkeeping, and exact busy-time accounting.
    #[test]
    fn engine_handles_arbitrary_dags(
        n in 0usize..45,
        density in 0u64..80,
        seed in any::<u64>(),
        queue_mode in prop::bool::ANY,
    ) {
        let dfg = random_kernel_dag(n, density, seed);
        let system = SystemConfig::paper_4gbps();
        let mut policy: Box<dyn Policy> = if queue_mode {
            Box::new(QueueAll { cursor: 0 })
        } else {
            Box::new(FirstFit)
        };
        let res = simulate(&dfg, &system, LookupTable::paper(), policy.as_mut()).unwrap();
        res.trace.validate(&dfg).unwrap();

        // Per-processor busy accounting equals the sum of record intervals.
        for proc in system.proc_ids() {
            let stats = res.trace.proc_stats[proc.index()];
            let exec: SimDuration = res
                .trace
                .records
                .iter()
                .filter(|r| r.proc == proc)
                .map(|r| r.exec_time())
                .sum();
            let transfer: SimDuration = res
                .trace
                .records
                .iter()
                .filter(|r| r.proc == proc)
                .map(|r| r.transfer_time())
                .sum();
            prop_assert_eq!(stats.busy, exec);
            prop_assert_eq!(stats.transfer, transfer);
        }
    }

    /// Transfer accounting is exact: every record's transfer interval equals
    /// the link time of its remote predecessors' outputs, recomputed from
    /// the trace's own placements. Zero bytes-per-element implies zero
    /// transfer everywhere.
    #[test]
    fn transfer_times_recompute_from_placements(
        n in 1usize..30,
        density in 10u64..70,
        seed in any::<u64>(),
        bytes in prop::sample::select(vec![0u64, 1, 4, 64]),
    ) {
        let dfg = random_kernel_dag(n, density, seed);
        let lookup = LookupTable::paper();
        let system = SystemConfig::paper_4gbps().with_bytes_per_element(bytes);
        let res = simulate(&dfg, &system, lookup, &mut FirstFit).unwrap();
        // node → processor map from the trace.
        let mut loc = vec![None; dfg.len()];
        for r in &res.trace.records {
            loc[r.node.index()] = Some(r.proc);
        }
        for r in &res.trace.records {
            let expected: SimDuration = dfg
                .preds(r.node)
                .iter()
                .filter(|p| loc[p.index()] != Some(r.proc))
                .map(|p| {
                    let from = loc[p.index()].expect("predecessor ran");
                    system
                        .pair_rate(from, r.proc)
                        .transfer_time(dfg.node(*p).bytes(bytes))
                })
                .sum();
            prop_assert_eq!(
                r.transfer_time(),
                expected,
                "node {} on {}",
                r.node,
                r.proc
            );
            if bytes == 0 {
                prop_assert_eq!(r.transfer_time(), SimDuration::ZERO);
            }
        }
    }

    /// Contention-off pair-matrix model ≡ one-rate model whenever all rates
    /// are equal: on arbitrary DAGs, an all-equal-rate `Topology` matrix
    /// (one rate per pair, built by `from_fn`) and the same machine on one
    /// `with_link` rate produce byte-identical traces.
    #[test]
    fn equal_rate_matrix_matches_scalar_link_on_arbitrary_dags(
        n in 1usize..35,
        density in 0u64..80,
        seed in any::<u64>(),
        queue_mode in prop::bool::ANY,
        lanes in prop::sample::select(vec![1u64, 8, 16]),
    ) {
        use apt_hetsim::Topology;
        let dfg = random_kernel_dag(n, density, seed);
        let lookup = LookupTable::paper();
        let rate = LinkRate::lanes(lanes);
        let plain = SystemConfig::paper_4gbps().with_link(rate);
        let matrix = SystemConfig::paper_4gbps()
            .with_link(rate)
            .with_topology(Topology::from_fn(3, move |_, _| rate));
        let make = |_: ()| -> Box<dyn Policy> {
            if queue_mode {
                Box::new(QueueAll { cursor: 0 })
            } else {
                Box::new(FirstFit)
            }
        };
        let a = simulate(&dfg, &plain, lookup, make(()).as_mut()).unwrap();
        let b = simulate(&dfg, &matrix, lookup, make(()).as_mut()).unwrap();
        prop_assert_eq!(a.trace, b.trace);
    }

    /// Per-link contention never delays a kernel past the serialized
    /// model's transfer phase (concurrent distinct links can only help),
    /// and reproduces it exactly when every start pulls at most one remote
    /// input. Chains have single predecessors, so contention must be a
    /// strict no-op there.
    #[test]
    fn per_link_contention_is_a_no_op_on_single_input_chains(
        len in 1usize..15,
        seed in any::<u64>(),
    ) {
        use apt_hetsim::{LinkContention, Topology};
        let lookup = LookupTable::paper();
        let all = lookup.all_kernels();
        let mut rng = SplitMix64::new(seed);
        let mut g: KernelDag = Dag::new();
        let mut prev: Option<NodeId> = None;
        for _ in 0..len {
            let id = g.add_node(*rng.choose(&all));
            if let Some(p) = prev {
                g.add_edge(p, id).unwrap();
            }
            prev = Some(id);
        }
        let serial = SystemConfig::paper_4gbps();
        let contended = SystemConfig::paper_4gbps().with_topology(
            Topology::uniform(LinkRate::PCIE2_X8)
                .with_contention(LinkContention::PerLink),
        );
        let a = simulate(&g, &serial, lookup, &mut FirstFit).unwrap();
        let b = simulate(&g, &contended, lookup, &mut FirstFit).unwrap();
        prop_assert_eq!(a.trace, b.trace);
    }

    /// Single-processor machines serialize everything: the makespan equals
    /// the total work (exec + transfers are zero since everything is local).
    #[test]
    fn single_processor_serializes(n in 0usize..25, density in 0u64..80, seed in any::<u64>()) {
        let dfg = random_kernel_dag(n, density, seed);
        let lookup = LookupTable::paper();
        let system = SystemConfig::empty(LinkRate::PCIE2_X8).with_proc(ProcKind::Gpu);
        let res = simulate(&dfg, &system, lookup, &mut FirstFit).unwrap();
        let total: SimDuration = dfg
            .iter()
            .map(|(_, k)| lookup.exec_time(k, ProcKind::Gpu).unwrap())
            .sum();
        prop_assert_eq!(res.makespan(), total);
        // No cross-processor edges → no transfers at all.
        for r in &res.trace.records {
            prop_assert_eq!(r.transfer_time(), SimDuration::ZERO);
        }
    }

    /// The engine's makespan for a chain equals the sum along the chain —
    /// dependencies leave no gaps when the machine is otherwise idle.
    #[test]
    fn pure_chains_have_no_idle_gaps(len in 1usize..20, seed in any::<u64>()) {
        let lookup = LookupTable::paper();
        let all = lookup.all_kernels();
        let mut rng = SplitMix64::new(seed);
        let mut g: KernelDag = Dag::new();
        let mut prev: Option<NodeId> = None;
        for _ in 0..len {
            let id = g.add_node(*rng.choose(&all));
            if let Some(p) = prev {
                g.add_edge(p, id).unwrap();
            }
            prev = Some(id);
        }
        let system = SystemConfig::paper_no_transfers();
        let res = simulate(&g, &system, lookup, &mut FirstFit).unwrap();
        // FirstFit always picks p0 (CPU) when idle — the chain serializes on
        // it with zero transfers, so makespan = Σ CPU times.
        let expected: SimDuration = g
            .iter()
            .map(|(_, k)| lookup.exec_time(k, ProcKind::Cpu).unwrap())
            .sum();
        prop_assert_eq!(res.makespan(), expected);
        prop_assert_eq!(res.trace.lambda_total(), SimDuration::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Faulty runs replay byte-identically under one `(workload, fault)`
    /// seed pair on arbitrary DAGs — determinism survives transient
    /// retries, crash/repair cycles, and orphan re-dispatch.
    #[test]
    fn faulty_runs_are_deterministic_on_arbitrary_dags(
        n in 1usize..22,
        density in 0u64..70,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let dfg = random_kernel_dag(n, density, seed);
        let system = SystemConfig::paper_4gbps();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        // MTTF well above the longest paper kernel so a crash-looped
        // kernel always eventually completes; generous attempts so p=0.2
        // never exhausts the budget.
        let plan = FaultPlan::seeded(fault_seed)
            .with_transient(0.2)
            .with_crashes(SimDuration::from_ms(60_000), SimDuration::from_ms(1_000));
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let lookup = LookupTable::paper();
        let (a, ta) = simulate_stream_faulty(
            &dfg, &system, lookup, &mut FirstFit, &arrivals, plan, retry,
        ).unwrap();
        let (b, tb) = simulate_stream_faulty(
            &dfg, &system, lookup, &mut FirstFit, &arrivals, plan, retry,
        ).unwrap();
        prop_assert_eq!(&a, &b, "same seeds must replay identically");
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(a.trace.records.len(), n, "a kernel was lost");
        a.trace.validate(&dfg).unwrap();
    }

    /// Crashes landing mid-transfer are safe: inflated cross-processor
    /// inputs under aggressive crash cycling still complete every kernel,
    /// the trace validates, and the waste/downtime books stay consistent
    /// (wasted occupancy never exceeds total occupancy).
    #[test]
    fn crash_during_transfer_is_safe(
        n in 2usize..12,
        density in 20u64..80,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let dfg = random_kernel_dag(n, density, seed);
        // 64 B/element stretches transfers to multi-second spans, so
        // MTTF 5 s lands crashes inside them routinely.
        let system = SystemConfig::paper_4gbps().with_bytes_per_element(64);
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        let plan = FaultPlan::seeded(fault_seed)
            .with_crashes(SimDuration::from_ms(5_000), SimDuration::from_ms(200));
        let (res, totals) = simulate_stream_faulty(
            &dfg,
            &system,
            LookupTable::paper(),
            &mut FirstFit,
            &arrivals,
            plan,
            RetryPolicy::default(),
        ).unwrap();
        prop_assert_eq!(res.trace.records.len(), n, "a kernel was lost");
        res.trace.validate(&dfg).unwrap();
        let occupancy_ns: u64 = res
            .trace
            .proc_stats
            .iter()
            .map(|s| s.busy.as_ns() + s.transfer.as_ns())
            .sum();
        prop_assert!(
            totals.wasted_ns <= occupancy_ns,
            "wasted {} ns exceeds total occupancy {} ns",
            totals.wasted_ns,
            occupancy_ns
        );
        prop_assert_eq!(totals.kernel_failures, 0, "crash-only plan drew a transient");
        prop_assert!(totals.repairs <= totals.crashes);
    }
}

#[test]
fn kernel_without_table_entry_cannot_deadlock_firstfit() {
    // FirstFit skips processors that cannot run a kernel; on an ASIC+CPU
    // machine everything lands on the CPU.
    let dfg = random_kernel_dag(10, 30, 77);
    let system = SystemConfig::empty(LinkRate::PCIE2_X8)
        .with_proc(ProcKind::Asic)
        .with_proc(ProcKind::Cpu);
    let res = simulate(&dfg, &system, LookupTable::paper(), &mut FirstFit).unwrap();
    assert!(res.trace.records.iter().all(|r| r.proc.index() == 1));
}
