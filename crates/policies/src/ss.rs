//! SS — priority-rule serial scheduling (Liu & Yang).
//!
//! §2.5.3: "for each kernel in I, the mean and standard deviation of the
//! compute times are calculated for each kernel-to-available-processor
//! mapping. Then the scheduler chooses the kernel from I with the highest
//! standard deviation and assigns it to the processor from A in which the
//! kernel has the lowest execution time. Whenever there are kernels in I and
//! there are available processors, assignments can be made."
//!
//! The standard deviation is computed over the *available* processors only,
//! so the priority adapts as devices come and go. Like SPN, SS never waits:
//! when the best device is busy it assigns to the best *available* one "even
//! if they are not the best choice".
//!
//! The per-kernel stddev is computed in the same pass over the idle
//! processors that finds the kernel's best available one: each runnable
//! idle processor's execution time (ascending id, fractional ms) goes into
//! a stack buffer, so a decision allocates nothing. Within one pick each
//! cost class is evaluated once: later ready kernels of the same class can
//! only tie, and ties keep the earliest kernel. With one idle processor
//! every stddev is 0, so the first ready kernel that can run there wins
//! and the pick stops scanning.
//!
//! SS's pick reads only static costs and the idle set, and applying it only
//! takes one processor out of the idle set and one kernel out of the ready
//! set: the next pick at the same instant is the same rule over what is
//! left. So one `decide` call emits the whole instant through
//! [`emit_instant`], which repeats the pick over a local copy of the idle
//! mask and the unclaimed kernels and marks the batch with
//! [`AssignmentBuf::mark_fixpoint`], as MET's is. The assignment sequence
//! is exactly the one-kernel-per-call sequence (pinned by
//! `crates/policies/tests/naive_ss.rs`).

use crate::common::{emit_instant, ClassFirsts};
use apt_base::stats::{stddev_population, FiniteF64};
use apt_base::{ProcId, SimDuration};
use apt_dfg::NodeId;
use apt_hetsim::cost::MAX_PROCS;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, SimView};

/// The SS policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialScheduling;

impl SerialScheduling {
    /// Create an SS scheduler.
    pub const fn new() -> Self {
        SerialScheduling
    }
}

impl Policy for SerialScheduling {
    fn name(&self) -> String {
        "SS".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let cost = view.cost;
        let mut times = [0f64; MAX_PROCS];
        emit_instant(view, out, |idle, claimed| {
            // Highest-stddev candidate over the available processors. One
            // scan of the idle processors that can run it finds the best
            // one and collects the times the stddev is taken over.
            let single = idle.is_power_of_two();
            let mut best: Option<(FiniteF64, NodeId, ProcId)> = None;
            for (node, class) in ClassFirsts::new(view, claimed) {
                let mut avail = cost.class_runnable_mask(class) & idle;
                let mut count = 0;
                let mut best_proc: Option<(ProcId, u64)> = None;
                while avail != 0 {
                    let proc = ProcId::new(avail.trailing_zeros() as usize);
                    avail &= avail - 1;
                    let e = cost.class_exec_ns(class, proc);
                    times[count] = SimDuration::from_ns(e).as_ms_f64();
                    count += 1;
                    if best_proc.is_none_or(|(_, be)| e < be) {
                        best_proc = Some((proc, e));
                    }
                }
                let Some((proc, _)) = best_proc else { continue };
                let sd = FiniteF64(stddev_population(&times[..count]));
                // Strict `>` keeps the earliest kernel on ties.
                if best.is_none_or(|(bsd, _, _)| sd > bsd) {
                    best = Some((sd, node, proc));
                }
                if single {
                    // Every stddev over one processor is 0: nothing later
                    // can beat the first runnable kernel.
                    break;
                }
            }
            best.map(|(_, node, proc)| (node, proc))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::ProcKind;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn ss_prioritizes_the_most_heterogeneous_kernel() {
        // gem (stddev over {21592, 4001, 585760} ≈ huge) must be placed
        // before nw (stddev over {112, 146, 397} tiny), taking the GPU.
        let kernels = vec![
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Gem),
            Kernel::canonical(KernelKind::Bfs),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut SerialScheduling::new(),
        )
        .unwrap();
        // gem is picked first (highest stddev) and claims the GPU at t = 0;
        // nw gets the CPU (its best among the remaining devices).
        let gem = res
            .trace
            .records
            .iter()
            .find(|r| r.kernel.kind == KernelKind::Gem)
            .unwrap();
        assert_eq!(gem.start.as_ns(), 0);
        assert_eq!(
            SystemConfig::paper_no_transfers().kind_of(gem.proc),
            ProcKind::Gpu
        );
    }

    #[test]
    fn ss_assigns_to_best_available_not_best_overall() {
        // Two gems: the first takes the GPU; the second is then assigned to
        // the best *available* processor (CPU, 21 592 ms) instead of waiting
        // for the GPU — the "not the best choice" behaviour of §2.5.3.
        let kernels = vec![
            Kernel::canonical(KernelKind::Gem),
            Kernel::canonical(KernelKind::Gem),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut SerialScheduling::new(),
        )
        .unwrap();
        let gem_procs: Vec<ProcKind> = res
            .trace
            .records
            .iter()
            .filter(|r| r.kernel.kind == KernelKind::Gem)
            .map(|r| SystemConfig::paper_no_transfers().kind_of(r.proc))
            .collect();
        assert_eq!(gem_procs, vec![ProcKind::Gpu, ProcKind::Cpu]);
    }

    #[test]
    fn ss_trace_is_valid_on_a_mixed_workload() {
        let kernels = vec![
            Kernel::canonical(KernelKind::Srad),
            Kernel::new(KernelKind::MatMul, 16_000_000),
            Kernel::new(KernelKind::MatInv, 698_896),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::NeedlemanWunsch),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            &mut SerialScheduling::new(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.records.len(), 5);
    }
}
