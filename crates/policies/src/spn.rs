//! SPN — shortest process next (Khokhar et al.).
//!
//! §2.5.3: SPN "chooses a kernel from I that has the minimum execution time
//! on any of the processors from A. If there is any processor available and
//! there are kernels in set I, assignments are made to keep the system
//! busy." The selection therefore ranges over *(kernel, available
//! processor)* pairs, and the defining weakness is that SPN "disregards the
//! observed heterogeneity": when the globally best device is busy it happily
//! places work on an arbitrarily slow available one — which is exactly what
//! produces its catastrophic Table-8/9 rows (e.g. a GEM forced onto the
//! FPGA costs 585 760 ms against 4 001 ms on the GPU).
//!
//! SPN's pick reads only static costs and the idle set, and applying it
//! only takes one processor out of the idle set and one kernel out of the
//! ready set: the next pick at the same instant is the same rule over what
//! is left. So one `decide` call emits the whole instant through
//! [`emit_instant`], which repeats the pick over a local copy of the idle
//! mask and the unclaimed kernels and marks the batch with
//! [`AssignmentBuf::mark_fixpoint`], as MET's is. The assignment sequence
//! is exactly the one-pair-per-call sequence (pinned by
//! `crates/policies/tests/naive_spn.rs`). Within one pick each cost class
//! is evaluated once: a later kernel of a class already seen can only tie,
//! and ties keep the earliest kernel.

use crate::common::emit_instant;
use apt_base::ProcId;
use apt_dfg::NodeId;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, SimView};

/// The SPN policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spn;

impl Spn {
    /// Create an SPN scheduler.
    pub const fn new() -> Self {
        Spn
    }
}

impl Policy for Spn {
    fn name(&self) -> String {
        "SPN".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let cost = view.cost;
        emit_instant(view, out, |idle, candidates| {
            // The (ready kernel, idle processor) pair with the smallest
            // execution time. Ties: first in (ready order, proc id)
            // enumeration order — a strict `<` running minimum keeps the
            // earliest pair.
            let mut best: Option<(u64, NodeId, ProcId)> = None;
            for (node, class) in candidates {
                let mut avail = cost.class_runnable_mask(class) & idle;
                while avail != 0 {
                    let proc = ProcId::new(avail.trailing_zeros() as usize);
                    avail &= avail - 1;
                    let e = cost.class_exec_ns(class, proc);
                    if best.is_none_or(|(be, _, _)| e < be) {
                        best = Some((e, node, proc));
                    }
                }
            }
            best.map(|(_, node, proc)| (node, proc))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcKind, SimDuration};
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn spn_keeps_the_system_busy_even_on_terrible_devices() {
        // Three GEMs: GPU-best (4 001 ms). SPN fills CPU (21 592) and FPGA
        // (585 760) instead of letting them idle.
        let kernels = [
            Kernel::canonical(KernelKind::Gem),
            Kernel::canonical(KernelKind::Gem),
            Kernel::canonical(KernelKind::Gem),
        ];
        let dfg = build_type1(&kernels[..]);
        // No fan-in sink here: use 3 independent kernels by building Type-1
        // of 4 and ignoring... simpler: the 3rd is the sink; still all three run.
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Spn::new(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        let kinds: Vec<ProcKind> = res
            .trace
            .records
            .iter()
            .map(|r| SystemConfig::paper_no_transfers().kind_of(r.proc))
            .collect();
        // First two (independent level) land on GPU then CPU (4 001 < 21 592
        // < 585 760); the dependent third waits for both and takes the GPU.
        assert_eq!(kinds[0], ProcKind::Gpu);
        assert_eq!(kinds[1], ProcKind::Cpu);
        assert_eq!(kinds[2], ProcKind::Gpu);
    }

    #[test]
    fn spn_picks_the_globally_shortest_pair_first() {
        // nw (CPU 112) and cd (FPGA 0.093): cd is the shortest pair and is
        // scheduled first even though nw has a lower node id.
        let kernels = vec![
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::new(KernelKind::Cholesky, 250_000),
            Kernel::canonical(KernelKind::Bfs),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Spn::new(),
        )
        .unwrap();
        // cd is the globally shortest (kernel, processor) pair, so it claims
        // the FPGA at t = 0 — before bfs (whose best is also the FPGA) can.
        let cd = res
            .trace
            .records
            .iter()
            .find(|r| r.kernel.kind == KernelKind::Cholesky)
            .unwrap();
        assert_eq!(cd.start.as_ns(), 0);
        assert_eq!(
            SystemConfig::paper_no_transfers().kind_of(cd.proc),
            ProcKind::Fpga
        );
        // bfs therefore could not start on the FPGA at t = 0.
        let bfs = res
            .trace
            .records
            .iter()
            .find(|r| r.kernel.kind == KernelKind::Bfs)
            .unwrap();
        assert!(
            SystemConfig::paper_no_transfers().kind_of(bfs.proc) != ProcKind::Fpga
                || bfs.start.as_ns() > 0
        );
    }

    #[test]
    fn spn_never_leaves_a_runnable_processor_idle_while_work_waits() {
        // Structural property from the paper's Table 2: "never waits".
        // With ≥ 3 ready kernels at t = 0 every processor must be busy at 0.
        let kernels = generate_kernels(&StreamConfig::new(30, 13), LookupTable::paper());
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            &mut Spn::new(),
        )
        .unwrap();
        let mut started_at_zero = res
            .trace
            .records
            .iter()
            .filter(|r| r.start == apt_base::SimTime::ZERO)
            .map(|r| r.proc)
            .collect::<Vec<_>>();
        started_at_zero.sort_unstable();
        started_at_zero.dedup();
        assert_eq!(started_at_zero.len(), 3, "some processor idled at t=0");
        assert!(res.makespan() > SimDuration::ZERO);
    }
}
