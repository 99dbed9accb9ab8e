//! SPN emits a whole instant in one `decide` call: it repeats its pick over
//! a local copy of the idle mask, skips the kernels it has already claimed
//! and evaluates each cost class once per pick. These tests pin it against
//! [`NaiveSpn`]: §2.5.3 as written — one (kernel, processor) pair per call,
//! the first pair with the strictly smallest execution time over every
//! ready kernel and every idle processor that can run it. On Type-1 and
//! Type-2 graphs, on the paper machine with and without transfers, on a
//! 13-processor machine and under processor crashes, `Spn` must produce a
//! byte-identical trace.

use apt_base::{ProcId, ProcKind, SimDuration, SimTime};
use apt_dfg::generator::{generate, DfgType, StreamConfig};
use apt_dfg::{LookupTable, NodeId};
use apt_hetsim::{
    simulate, simulate_stream_faulty, Assignment, AssignmentBuf, FaultPlan, LinkRate, Policy,
    PolicyKind, RetryPolicy, SimView, SystemConfig,
};
use apt_policies::Spn;

/// SPN with nothing precomputed: one pair per call, found by walking every
/// ready kernel against every idle processor.
struct NaiveSpn;

impl Policy for NaiveSpn {
    fn name(&self) -> String {
        "SPN".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let mut best: Option<(SimDuration, NodeId, ProcId)> = None;
        for node in view.ready.iter() {
            for p in view.idle_procs() {
                let Some(e) = view.exec_time(node, p.id) else {
                    continue;
                };
                // Strict `<` keeps the first pair in (ready, proc) order.
                if best.is_none_or(|(b, _, _)| e < b) {
                    best = Some((e, node, p.id));
                }
            }
        }
        if let Some((_, node, proc)) = best {
            out.push(Assignment::new(node, proc));
        }
    }
}

/// Every Type-1 and Type-2 graph of a few seeds and sizes schedules
/// identically under `Spn` and [`NaiveSpn`] on `config`.
fn assert_spn_matches_naive(config: &SystemConfig) {
    let lookup = LookupTable::paper();
    for ty in [DfgType::Type1, DfgType::Type2] {
        for (len, seed) in [(8, 1), (24, 2), (24, 3), (60, 4)] {
            let dfg = generate(ty, &StreamConfig::new(len, seed), lookup);
            let spn = simulate(&dfg, config, lookup, &mut Spn::new()).unwrap();
            let naive = simulate(&dfg, config, lookup, &mut NaiveSpn).unwrap();
            assert_eq!(spn, naive, "{ty:?} len {len} seed {seed}");
        }
    }
}

#[test]
fn spn_matches_naive_on_the_paper_machine() {
    assert_spn_matches_naive(&SystemConfig::paper_4gbps());
}

#[test]
fn spn_matches_naive_without_transfers() {
    assert_spn_matches_naive(&SystemConfig::paper_no_transfers());
}

/// Four CPU/GPU/FPGA triples plus an ASIC no kernel can run: 13
/// processors, with duplicated categories whose equal times tie.
#[test]
fn spn_matches_naive_on_thirteen_processors() {
    let mut config = SystemConfig::empty(LinkRate::gbps(4));
    for _ in 0..4 {
        config = config
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Gpu)
            .with_proc(ProcKind::Fpga);
    }
    let config = config.with_proc(ProcKind::Asic);
    assert_eq!(config.len(), 13);
    assert_spn_matches_naive(&config);
}

/// Crashed processors leave the idle set and orphaned kernels come back to
/// the ready set; the batch must still follow the one-pair-per-call run.
#[test]
fn spn_matches_naive_under_crashes() {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let plan = FaultPlan::seeded(11)
        .with_crashes(SimDuration::from_ms(20_000), SimDuration::from_ms(1_000));
    let dfg = generate(DfgType::Type2, &StreamConfig::new(60, 5), lookup);
    let arrivals = vec![SimTime::ZERO; dfg.len()];
    let run = |policy: &mut dyn Policy| {
        simulate_stream_faulty(
            &dfg,
            &config,
            lookup,
            policy,
            &arrivals,
            plan,
            RetryPolicy::default(),
        )
        .unwrap()
    };
    let (spn, spn_totals) = run(&mut Spn::new());
    let (naive, naive_totals) = run(&mut NaiveSpn);
    assert!(spn_totals.crashes > 0, "the plan must crash a processor");
    assert_eq!(spn, naive);
    assert_eq!(spn_totals, naive_totals);
}
