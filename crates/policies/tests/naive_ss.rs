//! SS computes each ready kernel's standard deviation in the same pass
//! that finds its best idle processor, from a stack buffer. These tests
//! pin it against [`NaiveSs`]: §2.5.3 as written — collect the execution
//! times of the kernel on every idle processor that can run it (ascending
//! id, fractional ms) into a `Vec`, take their population stddev, and keep
//! the first kernel with the strictly largest one. On Type-1 and Type-2
//! graphs, on the paper machine with and without transfers and on a
//! 13-processor machine, `SerialScheduling` must produce a byte-identical
//! trace.

use apt_base::stats::stddev_population;
use apt_base::{ProcId, ProcKind, SimDuration};
use apt_dfg::generator::{generate, DfgType, StreamConfig};
use apt_dfg::{LookupTable, NodeId};
use apt_hetsim::{
    simulate, Assignment, AssignmentBuf, LinkRate, Policy, PolicyKind, SimView, SystemConfig,
};
use apt_policies::SerialScheduling;

/// SS with nothing precomputed and nothing on the stack.
struct NaiveSs;

impl Policy for NaiveSs {
    fn name(&self) -> String {
        "SS".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let mut best: Option<(f64, NodeId, ProcId)> = None;
        for node in view.ready.iter() {
            let idle: Vec<(ProcId, SimDuration)> = view
                .idle_procs()
                .filter_map(|p| view.exec_time(node, p.id).map(|e| (p.id, e)))
                .collect();
            // `min_by_key` keeps the first (lowest-id) of equal minima.
            let Some(&(proc, _)) = idle.iter().min_by_key(|(_, e)| *e) else {
                continue;
            };
            let times: Vec<f64> = idle.iter().map(|(_, e)| e.as_ms_f64()).collect();
            let sd = stddev_population(&times);
            if best.is_none_or(|(b, _, _)| sd > b) {
                best = Some((sd, node, proc));
            }
        }
        if let Some((_, node, proc)) = best {
            out.push(Assignment::new(node, proc));
        }
    }
}

/// Every Type-1 and Type-2 graph of a few seeds and sizes schedules
/// identically under `SerialScheduling` and [`NaiveSs`] on `config`.
fn assert_ss_matches_naive(config: &SystemConfig) {
    let lookup = LookupTable::paper();
    for ty in [DfgType::Type1, DfgType::Type2] {
        for (len, seed) in [(8, 1), (24, 2), (24, 3), (60, 4)] {
            let dfg = generate(ty, &StreamConfig::new(len, seed), lookup);
            let ss = simulate(&dfg, config, lookup, &mut SerialScheduling::new()).unwrap();
            let naive = simulate(&dfg, config, lookup, &mut NaiveSs).unwrap();
            assert_eq!(ss, naive, "{ty:?} len {len} seed {seed}");
        }
    }
}

#[test]
fn ss_matches_naive_on_the_paper_machine() {
    assert_ss_matches_naive(&SystemConfig::paper_4gbps());
}

#[test]
fn ss_matches_naive_without_transfers() {
    assert_ss_matches_naive(&SystemConfig::paper_no_transfers());
}

/// Four CPU/GPU/FPGA triples plus an ASIC no kernel can run: 13
/// processors, with duplicated categories whose equal times tie.
#[test]
fn ss_matches_naive_on_thirteen_processors() {
    let mut config = SystemConfig::empty(LinkRate::gbps(4));
    for _ in 0..4 {
        config = config
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Gpu)
            .with_proc(ProcKind::Fpga);
    }
    let config = config.with_proc(ProcKind::Asic);
    assert_eq!(config.len(), 13);
    assert_ss_matches_naive(&config);
}
