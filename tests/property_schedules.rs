//! Property-based tests: every policy, on arbitrary seeded workloads and
//! machines, must produce schedules that satisfy the structural invariants
//! the trace validator encodes — every kernel exactly once, no processor
//! overlap, precedence respected — plus global bounds and determinism.

use apt_suite::prelude::*;
use proptest::prelude::*;

/// Construct the policy under test by index (covers all nine schedulers).
fn make_policy(which: usize, alpha: f64) -> Box<dyn Policy> {
    match which {
        0 => Box::new(Apt::new(alpha)),
        1 => Box::new(AptR::new(alpha)),
        2 => Box::new(Met::new()),
        3 => Box::new(Spn::new()),
        4 => Box::new(SerialScheduling::new()),
        5 => Box::new(AdaptiveGreedy::new()),
        6 => Box::new(Olb::new()),
        7 => Box::new(Heft::new()),
        _ => Box::new(Peft::new()),
    }
}

fn arbitrary_workload() -> impl Strategy<Value = (KernelDag, u64)> {
    (1usize..40, any::<u64>(), prop::bool::ANY).prop_map(|(n, seed, type2)| {
        let lookup = LookupTable::paper();
        let cfg = StreamConfig::new(n, seed);
        let ty = if type2 {
            DfgType::Type2
        } else {
            DfgType::Type1
        };
        (generate(ty, &cfg, lookup), seed)
    })
}

fn arbitrary_system() -> impl Strategy<Value = SystemConfig> {
    (1u8..=2, 1u8..=2, 1u8..=2, prop::bool::ANY, 0u64..=8).prop_map(
        |(cpus, gpus, fpgas, fast, bpe)| {
            let mut sys = SystemConfig::empty(if fast {
                LinkRate::PCIE2_X16
            } else {
                LinkRate::PCIE2_X8
            })
            .with_bytes_per_element(bpe);
            for _ in 0..cpus {
                sys = sys.with_proc(ProcKind::Cpu);
            }
            for _ in 0..gpus {
                sys = sys.with_proc(ProcKind::Gpu);
            }
            for _ in 0..fpgas {
                sys = sys.with_proc(ProcKind::Fpga);
            }
            sys
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant: every policy yields a valid schedule on any workload and
    /// machine, and the λ accounting is self-consistent.
    #[test]
    fn every_policy_produces_valid_schedules(
        (dfg, _) in arbitrary_workload(),
        system in arbitrary_system(),
        which in 0usize..9,
        alpha in 1.0f64..20.0,
    ) {
        let mut policy = make_policy(which, alpha);
        let res = simulate(&dfg, &system, LookupTable::paper(), policy.as_mut())
            .expect("simulation must complete");
        res.trace.validate(&dfg).expect("trace invariants");
        // λ total equals the sum of per-record delays.
        let manual: SimDuration = res.trace.records.iter().map(|r| r.lambda()).sum();
        prop_assert_eq!(res.trace.lambda_total(), manual);
        // Record count and per-processor kernel counts agree.
        let by_stats: usize = res.trace.proc_stats.iter().map(|s| s.kernels).sum();
        prop_assert_eq!(by_stats, dfg.len());
    }

    /// Bound: the makespan sits between the critical-path lower bound (each
    /// kernel at its best time, transfers free) and the serial upper bound
    /// (every kernel at its worst time plus all input transfers).
    #[test]
    fn makespan_respects_global_bounds(
        (dfg, _) in arbitrary_workload(),
        which in 0usize..9,
    ) {
        let lookup = LookupTable::paper();
        let system = SystemConfig::paper_4gbps();
        let mut policy = make_policy(which, 4.0);
        let res = simulate(&dfg, &system, lookup, policy.as_mut()).unwrap();

        let lower = dfg
            .critical_path(|n| lookup.best_category(dfg.node(n)).unwrap().1.as_ns())
            .unwrap();
        let transfer_bound: u64 = dfg
            .edges()
            .map(|(u, _)| {
                system
                    .pair_rate(ProcId::new(0), ProcId::new(1))
                    .transfer_time(dfg.node(u).bytes(system.bytes_per_element))
                    .as_ns()
            })
            .sum();
        let upper: u64 = dfg
            .iter()
            .map(|(_, k)| lookup.row(k).unwrap().times.iter().max().unwrap().as_ns())
            .sum::<u64>()
            + transfer_bound;

        let got = res.makespan().as_ns();
        prop_assert!(got >= lower, "makespan {got} < critical path {lower}");
        prop_assert!(got <= upper, "makespan {got} > serial bound {upper}");
    }

    /// Determinism: identical inputs give bit-identical traces.
    #[test]
    fn simulation_is_a_pure_function(
        (dfg, _) in arbitrary_workload(),
        which in 0usize..9,
    ) {
        let system = SystemConfig::paper_4gbps();
        let lookup = LookupTable::paper();
        let a = simulate(&dfg, &system, lookup, make_policy(which, 4.0).as_mut()).unwrap();
        let b = simulate(&dfg, &system, lookup, make_policy(which, 4.0).as_mut()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// APT dominance over its own rigidity: opening the threshold can only
    /// help or leave unchanged the *total work* assigned to the system's
    /// best processors... which is hard to state exactly — so we assert the
    /// practical version the paper relies on: APT's makespan never exceeds
    /// MET's by more than the worst single admission, bounded here loosely
    /// as (α − 1) × the largest best-case kernel time in the stream.
    #[test]
    fn apt_regression_versus_met_is_bounded(
        (dfg, _) in arbitrary_workload(),
        alpha in 1.0f64..8.0,
    ) {
        let lookup = LookupTable::paper();
        let system = SystemConfig::paper_no_transfers();
        let met = simulate(&dfg, &system, lookup, &mut Met::new()).unwrap();
        let apt = simulate(&dfg, &system, lookup, &mut Apt::new(alpha)).unwrap();
        let worst_best: u64 = dfg
            .iter()
            .map(|(_, k)| lookup.best_category(k).unwrap().1.as_ns())
            .max()
            .unwrap_or(0);
        let slack = ((alpha - 1.0) * worst_best as f64) as u64 + worst_best;
        prop_assert!(
            apt.makespan().as_ns() <= met.makespan().as_ns() + slack.saturating_mul(2),
            "APT(α={alpha}) {} vs MET {} exceeds admission slack",
            apt.makespan(),
            met.makespan()
        );
    }

    /// The DAG generators only ever emit valid graphs whose kernels all have
    /// lookup coverage (so any policy can run any generated workload).
    #[test]
    fn generated_workloads_are_always_schedulable(
        n in 0usize..200,
        seed in any::<u64>(),
        type2 in prop::bool::ANY,
    ) {
        let lookup = LookupTable::paper();
        let ty = if type2 { DfgType::Type2 } else { DfgType::Type1 };
        let dfg = generate(ty, &StreamConfig::new(n, seed), lookup);
        prop_assert_eq!(dfg.len(), n);
        dfg.validate().expect("generated DAG");
        for (_, k) in dfg.iter() {
            prop_assert!(lookup.row(k).is_ok());
        }
    }
}
