//! MET — minimum execution time / "best only" (Braun et al.).
//!
//! §2.5.3: "a kernel is chosen ... from I and is then assigned to the
//! processor with the lowest execution time for that kernel. If the best
//! suited processor for the kernel is not currently available, the policy
//! decides to wait for the best processor to become available ... By virtue
//! of this rule, a processor sits idle if there are no kernels in I that are
//! suitable for it."
//!
//! MET is the policy APT generalizes: APT with a threshold that never admits
//! an alternative processor (α → 1 on a strongly heterogeneous table)
//! degenerates to MET, which Tables 8/9 show as identical columns.
//!
//! The paper picks kernels "in a random order"; for reproducibility this
//! implementation uses the ready set's order (ascending node id on a
//! closed workload), which is one fixed arbitrary order.
//!
//! MET's rule reads only static lookup costs and the idle set, and every
//! assignment strictly *shrinks* the idle set — a kernel skipped because its
//! best processor was busy can never become assignable later in the same
//! instant. The whole per-instant fixpoint is therefore emitted in one
//! `decide` pass over the ready list, tracking the claimed processors in a
//! local copy of the idle mask, and the batch is marked with
//! [`AssignmentBuf::mark_fixpoint`] so the engine advances time instead of
//! re-invoking `decide` for an empty answer. This produces exactly the same
//! assignment sequence as the one-per-call form (pinned by the Figure-5
//! test below) at a fraction of the rescans. The pass is the ready set's
//! screened walk ([`apt_hetsim::ReadySet::walk_screened`]) on the cost
//! model's per-class fastest-processor masks, so on an open stream it
//! visits only kernels whose best processor is idle.

use apt_base::ProcId;
use apt_hetsim::{Assignment, AssignmentBuf, Policy, PolicyKind, SimView};

/// The MET policy. Stateless; construct per run for uniformity.
#[derive(Debug, Default, Clone, Copy)]
pub struct Met;

impl Met {
    /// Create a MET scheduler.
    pub const fn new() -> Self {
        Met
    }
}

impl Policy for Met {
    fn name(&self) -> String {
        "MET".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        // The walk skips every kernel whose best processors are all busy:
        // it waits for them (the defining MET rule).
        let min_masks = view.cost.class_min_masks();
        view.ready
            .walk_screened(min_masks, view.idle_mask, |e, idle| {
                // Lowest-id idle instance among the minimal-execution-time
                // set (`best_instance` semantics, fused with the batch's own
                // claims).
                let available = min_masks[e.class as usize] & idle;
                let proc = ProcId::new(available.trailing_zeros() as usize);
                out.push(Assignment::new(e.node, proc));
                idle & !(1 << proc.index())
            });
        out.mark_fixpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcId, SimDuration};
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable, NodeId};
    use apt_hetsim::{simulate, SystemConfig};

    fn nw() -> Kernel {
        Kernel::canonical(KernelKind::NeedlemanWunsch)
    }
    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    /// The MET half of the paper's Figure-5 example: kernels
    /// {nw, bfs, bfs, bfs, cd} as DFG Type-1, transfers disabled.
    /// The paper's schedule ends at **318.093 ms** with the three bfs
    /// executions serialized on the FPGA.
    #[test]
    fn figure5_met_schedule_is_exact() {
        let dfg = build_type1(&[nw(), bfs(), bfs(), bfs(), cd()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Met::new(),
        )
        .unwrap();
        assert_eq!(res.makespan(), SimDuration::from_us(318_093));
        // nw on CPU at t=0; bfs serialized on FPGA at 0 / 106 / 212.
        let r = |i: usize| res.trace.record(NodeId::new(i)).unwrap();
        assert_eq!(r(0).proc, ProcId::new(0));
        assert_eq!(r(1).proc, ProcId::new(2));
        assert_eq!(r(2).proc, ProcId::new(2));
        assert_eq!(r(3).proc, ProcId::new(2));
        assert_eq!(r(4).proc, ProcId::new(2));
        assert_eq!(r(2).start.as_ns(), 106_000_000);
        assert_eq!(r(3).start.as_ns(), 212_000_000);
        assert_eq!(r(4).start.as_ns(), 318_000_000);
        // GPU never used: MET waits for the best processor.
        assert_eq!(res.trace.proc_stats[1].kernels, 0);
        res.trace.validate(&dfg).unwrap();
    }

    #[test]
    fn met_always_places_each_kernel_on_its_best_category() {
        let kernels = vec![nw(), bfs(), cd(), bfs(), nw(), cd()];
        let dfg = build_type1(&kernels);
        let lookup = LookupTable::paper();
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            lookup,
            &mut Met::new(),
        )
        .unwrap();
        for rec in &res.trace.records {
            let best = lookup.best_category(&rec.kernel).unwrap().0;
            assert_eq!(
                SystemConfig::paper_no_transfers().kind_of(rec.proc),
                best,
                "kernel {} not on its best category",
                rec.kernel
            );
            assert!(!rec.alt);
        }
    }

    #[test]
    fn met_uses_an_idle_twin_when_categories_are_duplicated() {
        let config = SystemConfig::empty(apt_hetsim::LinkRate::gbps(4))
            .with_proc(apt_base::ProcKind::Cpu)
            .with_proc(apt_base::ProcKind::Fpga)
            .with_proc(apt_base::ProcKind::Fpga)
            .with_bytes_per_element(0);
        let dfg = build_type1(&[bfs(), bfs(), bfs()]);
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        // Two level-1 bfs run in parallel on the two FPGAs → the sink starts
        // at 106 and everything ends at 212.
        assert_eq!(res.makespan(), SimDuration::from_ms(212));
    }
}
