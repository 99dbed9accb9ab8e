//! AG — adaptive greedy (Wu et al.), generalized from CPU+GPU to
//! CPU+GPU+FPGA as the paper does.
//!
//! §2.5.3 / Eq. 1–2: for every device `g` the policy estimates the total
//! waiting time `τ_g = τ_g^q + τ_g^d`, where the queueing delay
//! `τ_g^q = N_g · τ_g^k` (number of kernel calls queued on the device times
//! the average execution time of the last k calls there) and `τ_g^d` is the
//! data-transfer delay for the kernel's inputs. The kernel is queued on the
//! device with the smallest `τ_g`.
//!
//! Two properties follow, both visible in the paper's results:
//!
//! * AG considers the heterogeneity of execution times only *indirectly*
//!   (through the queue estimate), never the candidate kernel's own cost on
//!   `g` — so a kernel can be queued on a device that is catastrophically
//!   slow for it, which is why AG posts the worst Table-8/9 columns.
//! * AG favours devices holding the kernel's inputs (τ_d = 0), i.e. it
//!   "capitalizes mainly on reducing communication time".

use apt_base::{ProcId, SimDuration};
use apt_hetsim::{Assignment, AssignmentBuf, Policy, PolicyKind, SimView};

/// The AG policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptiveGreedy;

impl AdaptiveGreedy {
    /// Create an AG scheduler.
    pub const fn new() -> Self {
        AdaptiveGreedy
    }
}

impl Policy for AdaptiveGreedy {
    fn name(&self) -> String {
        "AG".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        // AG assigns (queues) every kernel the moment it arrives. One
        // assignment per call so the queue counts N_g refresh between
        // decisions (the engine re-invokes to a fixpoint). A strict `<`
        // running minimum keeps the lowest-id device on ties, matching the
        // argmin helper this replaced without collecting candidates.
        let Some(node) = view.ready.first() else {
            return;
        };
        let mut best: Option<(ProcId, SimDuration)> = None;
        // A crashed processor takes nothing until its repair.
        for p in view.procs.iter().filter(|p| !p.down) {
            if view.exec_time(node, p.id).is_none() {
                continue;
            }
            let queue_delay = p.recent_avg_exec * p.ag_queue_count() as u64;
            let wait = queue_delay + view.transfer_in_time(node, p.id);
            if best.is_none_or(|(_, bw)| wait < bw) {
                best = Some((p.id, wait));
            }
        }
        if let Some((proc, _)) = best {
            out.push(Assignment::new(node, proc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcId, SimDuration};
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn ag_ignores_the_kernels_own_cost() {
        // A single gem at t=0: every device has an empty queue (τ_q = 0) and
        // no transfers, so AG ties at 0 and picks the lowest id — the CPU —
        // even though the GPU is 5.4× faster. This is the documented flaw.
        let dfg = build_type1(&[Kernel::canonical(KernelKind::Gem)]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut AdaptiveGreedy::new(),
        )
        .unwrap();
        assert_eq!(res.trace.records[0].proc, ProcId::new(0));
        assert_eq!(res.makespan(), SimDuration::from_ms(21_592));
    }

    #[test]
    fn ag_spreads_across_empty_queues_then_balances() {
        // Several kernels at t=0: with no history every device estimates 0,
        // so the first goes to p0; once p0 has history its estimate grows
        // and later kernels route to emptier devices. The trace must remain
        // valid and all queues drain.
        let kernels = generate_kernels(&StreamConfig::new(20, 3), LookupTable::paper());
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            &mut AdaptiveGreedy::new(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.records.len(), 20);
    }

    #[test]
    fn ag_prefers_the_device_holding_the_inputs() {
        // Producer bfs lands on p0 (CPU) because of the zero-history tie.
        // Its dependent cd then sees τ_d = 0 on p0 but a transfer cost on
        // p1/p2 (queues empty everywhere, τ_q = 0 for idle p1/p2; for p0 the
        // queue is also empty once bfs finished) → cd stays on p0.
        let kernels = vec![
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            &mut AdaptiveGreedy::new(),
        )
        .unwrap();
        let cd = res
            .trace
            .records
            .iter()
            .find(|r| r.kernel.kind == KernelKind::Cholesky)
            .unwrap();
        assert_eq!(cd.proc, ProcId::new(0), "AG should avoid the transfer");
        assert_eq!(cd.transfer_time(), SimDuration::ZERO);
    }

    #[test]
    fn ag_queues_rather_than_waits() {
        // Ten identical bfs at t=0 all get assigned immediately (queued);
        // nothing remains unassigned while devices are busy.
        let kernels = vec![Kernel::canonical(KernelKind::Bfs); 10];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut AdaptiveGreedy::new(),
        )
        .unwrap();
        // λ delays exist because queued kernels wait their turn.
        assert!(res.trace.lambda_total() > SimDuration::ZERO);
        res.trace.validate(&dfg).unwrap();
    }
}
