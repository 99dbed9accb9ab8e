//! PEFT — predict earliest finish time (Arabnejad & Barbosa).
//!
//! §2.5.3: "follows a similar process to HEFT except that the ranks are
//! based on a pre-computed cost table" — the optimistic cost table (OCT,
//! Eq. 6). Task priority is `rank_oct` (Eq. 7); processor selection
//! minimizes `O_EFT = EFT + OCT(t_i, p_k)`, looking one optimistic step
//! ahead of plain HEFT. The task is still *reserved* for its EFT interval
//! (the OCT term only steers the choice).

use crate::plan::{build_plan, PlannedSchedule};
use crate::ranking::{oct_matrix, rank_oct};
use apt_base::stats::{argmin_by_key, FiniteF64};
use apt_base::BaseError;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, SimView};

/// The PEFT policy.
#[derive(Debug, Default)]
pub struct Peft {
    plan: Option<PlannedSchedule>,
}

impl Peft {
    /// Create a PEFT scheduler (the OCT and plan are built in `prepare`).
    pub fn new() -> Self {
        Peft { plan: None }
    }

    /// The plan built during `prepare`, if any (exposed for analysis).
    pub fn plan(&self) -> Option<&PlannedSchedule> {
        self.plan.as_ref()
    }
}

impl Policy for Peft {
    fn name(&self) -> String {
        "PEFT".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Static
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        let nprocs = ctx.cost.nprocs();
        let oct = oct_matrix(&ctx);
        let ranks = rank_oct(&oct, nprocs);
        let plan = build_plan(&ctx, &ranks, |node, candidates| {
            argmin_by_key(candidates, |c| {
                let oct_ms = oct[node.index() * nprocs + c.proc.index()];
                FiniteF64(c.finish.as_ms_f64() + oct_ms)
            })
            // apt-lint: allow(hot-path-panic, build_plan only invokes the selector with a
            // nonempty candidate list)
            .expect("candidates nonempty")
        })?;
        self.plan = Some(plan);
        Ok(())
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        self.plan
            .as_mut()
            // apt-lint: allow(hot-path-panic, the engine contract runs prepare() before any
            // decide())
            .expect("prepare() runs before decide()")
            .release(view, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::{
        build_type1, build_type2, generate_kernels, StreamConfig, Type2Config,
    };
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn peft_replay_is_valid_on_both_dfg_types() {
        for seed in [5u64, 17] {
            let kernels = generate_kernels(&StreamConfig::new(50, seed), LookupTable::paper());
            for dfg in [
                build_type1(&kernels),
                build_type2(&kernels, seed, &Type2Config::default()),
            ] {
                let res = simulate(
                    &dfg,
                    &SystemConfig::paper_4gbps(),
                    LookupTable::paper(),
                    &mut Peft::new(),
                )
                .unwrap();
                res.trace.validate(&dfg).unwrap();
                assert_eq!(res.trace.records.len(), dfg.len());
            }
        }
    }

    #[test]
    fn peft_looks_ahead_through_the_oct() {
        // Chain: cd → gem. Plain EFT would put cd on the FPGA (0.093 ms).
        // But gem is GPU-bound (4 001 vs 585 760 on FPGA), and placing cd on
        // the FPGA forces a cross-link transfer before gem. The OCT term
        // steers cd toward the processor that minimizes the *whole path*.
        // Either way the resulting makespan must beat the worst-case chain.
        let kernels = vec![
            Kernel::new(KernelKind::Cholesky, 250_000),
            Kernel::canonical(KernelKind::Gem),
        ];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            &mut Peft::new(),
        )
        .unwrap();
        let gem = res
            .trace
            .records
            .iter()
            .find(|r| r.kernel.kind == KernelKind::Gem)
            .unwrap();
        assert_eq!(
            SystemConfig::paper_4gbps().kind_of(gem.proc),
            apt_base::ProcKind::Gpu,
            "gem must end up on the GPU"
        );
    }

    #[test]
    fn peft_and_heft_may_differ_but_both_complete() {
        let kernels = generate_kernels(&StreamConfig::new(81, 21), LookupTable::paper());
        let dfg = build_type2(&kernels, 21, &Type2Config::default());
        let cfg = SystemConfig::paper_4gbps();
        let heft = simulate(&dfg, &cfg, LookupTable::paper(), &mut crate::Heft::new()).unwrap();
        let peft = simulate(&dfg, &cfg, LookupTable::paper(), &mut Peft::new()).unwrap();
        heft.trace.validate(&dfg).unwrap();
        peft.trace.validate(&dfg).unwrap();
        // Both complete all kernels; relative quality varies by workload.
        assert_eq!(heft.trace.records.len(), dfg.len());
        assert_eq!(peft.trace.records.len(), dfg.len());
    }
}
