//! APT-R — the paper's future-work refinement.
//!
//! Conclusion (§5): "In the future, we will consider the remaining execution
//! time in the optimal processor before deciding whether to assign to an
//! alternative processor, as part of the scheduling heuristic, which will
//! improve our current savings."
//!
//! APT admits `p_alt` whenever its cost is within `α·x`, even when `p_min`
//! is about to free up — occasionally paying (cost_alt − x) for nothing.
//! APT-R adds the obvious fix: an alternative is taken only when it also
//! beats *waiting*, i.e.
//!
//! ```text
//! cost_alt ≤ α·x                 (the APT threshold, Eq. 8)
//! cost_alt <  remaining(p_min) + transfer(p_min) + x   (waiting estimate)
//! ```
//!
//! where `remaining(p_min)` is how long the optimal processor stays busy.
//! The `ablation-aptr` artifact of `apt-repro` quantifies the improvement
//! this buys.
//!
//! Like MET and APT, APT-R emits its whole per-instant fixpoint in one
//! `decide` pass. APT-R additionally reads `busy_until`, which *does*
//! change within the instant for processors the batch itself claims — so
//! the pass tracks a local finish estimate per claimed processor, computed
//! with exactly the engine's `start = now, finish = now + transfer + exec`
//! arithmetic, and marks the batch as the instant's fixpoint. The
//! alternative itself is APT's `find2ndBestProc`; the waiting estimate is
//! computed only for kernels that have one within `α·x`. Byte-identical to
//! the one-assignment-per-call form (pinned by the engine-equivalence
//! suite).
//!
//! APT-R is the [`Remaining`] rule of the one [`AptPolicy`] type. Its
//! alternative must also sit within `α·x`, so it walks the ready set
//! screened on APT's per-class admissible masks exactly as APT does (see
//! the [`crate::apt`] module docs). It keeps no memo of rejected
//! alternatives: its wait cost reads `busy_until`, which moves.

use crate::apt::{find_alternative_in, AptPolicy, AptRule};
use apt_base::{ProcId, SimTime};
use apt_hetsim::{Assignment, AssignmentBuf, DecisionMeta, SimView};
use apt_policies::common::best_instance_in;

/// APT with remaining-time awareness (future-work heuristic).
pub type AptR = AptPolicy<Remaining>;

/// [`AptR`]'s rule: the ready set's order, and an alternative within `α·x`
/// only when it also beats waiting for `p_min` (module docs).
#[derive(Debug, Clone, Default)]
pub struct Remaining;

impl AptRule for Remaining {
    const NAME: &'static str = "APT-R";

    fn reset(&mut self) {}

    fn pass(&mut self, view: &SimView<'_>, masks: &[u64], alpha: f64, out: &mut AssignmentBuf) {
        // Batched per-instant pass (module docs): `idle` carries this
        // batch's claims; `claimed_until` carries the finish instants of
        // kernels the batch already started, so the waiting estimate for a
        // just-claimed p_min matches what the engine's refreshed view would
        // have shown.
        let mut claimed_until = [SimTime::ZERO; 64];
        let mut claimed: u64 = 0;
        // The engine's start arithmetic for a kernel claimed at this
        // instant: start = now, finish = now + transfer + exec.
        let finish_of = |node, proc: ProcId, view: &SimView<'_>| {
            view.now
                + view.transfer_in_time(node, proc)
                // apt-lint: allow(hot-path-panic, the claim mask is restricted to processors
                // that can run the node)
                + view.exec_time(node, proc).expect("claimed proc runs node")
        };
        // The walk yields only kernels with an idle processor within α·x.
        view.ready.walk_screened(masks, view.idle_mask, |e, idle| {
            let node = e.node;
            debug_assert_eq!(e.class, view.cost.class_of(node), "stale ready-set class");
            let Some(best) = best_instance_in(view, node, idle) else {
                return idle;
            };
            if best.idle {
                claimed_until[best.proc.index()] = finish_of(node, best.proc, view);
                claimed |= 1 << best.proc.index();
                out.push(Assignment::new(node, best.proc));
                return idle & !(1 << best.proc.index());
            }
            let threshold = best.exec.scale_alpha(alpha);
            let Some((proc, cost)) = find_alternative_in(view, node, best.proc, threshold, idle)
            else {
                return idle;
            };
            // Cost of waiting for p_min: remaining busy time + placement.
            // Only worth computing once an alternative is within α·x.
            let busy_until = if claimed & (1 << best.proc.index()) != 0 {
                claimed_until[best.proc.index()]
            } else {
                view.proc(best.proc).busy_until
            };
            let remaining = busy_until.saturating_since(view.now);
            let wait_cost = remaining
                .saturating_add(view.transfer_in_time(node, best.proc))
                .saturating_add(best.exec);
            if cost >= wait_cost {
                return idle;
            }
            claimed_until[proc.index()] = finish_of(node, proc, view);
            claimed |= 1 << proc.index();
            out.push_explained(
                Assignment::alternative(node, proc),
                DecisionMeta {
                    best_proc: best.proc,
                    best_exec: best.exec,
                    best_busy_until: busy_until,
                    threshold,
                    alt_cost: cost,
                },
            );
            idle & !(1 << proc.index())
        });
        out.mark_fixpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apt;
    use apt_base::SimTime;
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable, NodeId};
    use apt_hetsim::{simulate, Policy, SystemConfig};

    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    #[test]
    #[should_panic(expected = "APT-R requires a finite α ≥ 1 (Eq. 8), got 0")]
    fn alpha_below_one_is_rejected() {
        let _ = AptR::new(0.0);
    }

    #[test]
    fn apt_r_waits_when_p_min_frees_soon() {
        // cd's p_min is the FPGA (0.093 ms). Occupy the FPGA with a bfs
        // (106 ms): plain APT at α = 16⁴ would jump to the GPU (2.749 ms ≤
        // threshold), but cd is so short that even waiting 106 ms… actually
        // waiting costs 106.093 vs alternative 2.749 — the alternative *is*
        // better here. Invert the scenario: occupy the FPGA with cd (0.093)
        // and schedule bfs. Waiting costs 0.093 + 106; the GPU alternative
        // costs 173. APT(α=2) takes the GPU; APT-R correctly waits.
        let dfg = build_type1(&[cd(), bfs(), bfs()]);
        let cfg = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();

        let plain = simulate(&dfg, &cfg, lookup, &mut Apt::new(2.0)).unwrap();
        let refined = simulate(&dfg, &cfg, lookup, &mut AptR::new(2.0)).unwrap();

        // Plain APT sends the first bfs to the GPU (alt).
        let b_plain = plain.trace.record(NodeId::new(1)).unwrap();
        assert!(b_plain.alt);
        assert_eq!(cfg.kind_of(b_plain.proc), apt_base::ProcKind::Gpu);

        // APT-R waits 0.093 ms and runs it on the FPGA.
        let b_ref = refined.trace.record(NodeId::new(1)).unwrap();
        assert!(!b_ref.alt);
        assert_eq!(cfg.kind_of(b_ref.proc), apt_base::ProcKind::Fpga);
        assert_eq!(b_ref.start, SimTime::from_us(93));

        // And the refined makespan is no worse.
        assert!(refined.makespan() <= plain.makespan());
    }

    #[test]
    fn apt_r_still_takes_good_alternatives() {
        // Figure-5 style: FPGA busy 106 ms with bfs; the second bfs's
        // alternative (GPU, 173) beats waiting (106 + 106 = 212) and sits
        // within α = 8 × 106 — APT-R takes it just like APT.
        let dfg = build_type1(&[bfs(), bfs(), cd()]);
        let cfg = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut AptR::new(8.0)).unwrap();
        let second = res.trace.record(NodeId::new(1)).unwrap();
        assert!(second.alt);
        assert_eq!(cfg.kind_of(second.proc), apt_base::ProcKind::Gpu);
    }

    #[test]
    fn apt_r_is_never_catastrophically_worse_than_apt() {
        // Across seeds, APT-R stays within 25 % of APT (usually better);
        // both produce valid schedules.
        for seed in [2u64, 31, 57] {
            let kernels = generate_kernels(&StreamConfig::new(70, seed), LookupTable::paper());
            let dfg = build_type1(&kernels);
            let cfg = SystemConfig::paper_4gbps();
            let a = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(4.0)).unwrap();
            let r = simulate(&dfg, &cfg, LookupTable::paper(), &mut AptR::new(4.0)).unwrap();
            r.trace.validate(&dfg).unwrap();
            let ratio = r.makespan().as_ns() as f64 / a.makespan().as_ns().max(1) as f64;
            assert!(ratio < 1.25, "seed {seed}: APT-R {ratio}× of APT");
        }
    }

    #[test]
    fn name_includes_alpha() {
        assert_eq!(AptR::new(4.0).name(), "APT-R(α=4)");
    }
}
