//! HEFT — heterogeneous earliest finish time (Topcuoglu et al.).
//!
//! §2.5.3: a static policy that "first statically ranks all kernels and then
//! assigns them to processors in order of highest rank first". Task
//! priority is the upward rank (Eq. 3–4); processor selection minimizes the
//! earliest finish time with the insertion-based slot policy. The resulting
//! plan is handed to the simulator and replayed in plan order.

use crate::plan::{build_plan, PlannedSchedule};
use crate::ranking::upward_ranks;
use apt_base::stats::argmin_by_key;
use apt_base::BaseError;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, SimView};

/// The HEFT policy.
#[derive(Debug, Default)]
pub struct Heft {
    plan: Option<PlannedSchedule>,
}

impl Heft {
    /// Create a HEFT scheduler (the plan is built in `prepare`).
    pub fn new() -> Self {
        Heft { plan: None }
    }

    /// The plan built during `prepare`, if any (exposed for analysis).
    pub fn plan(&self) -> Option<&PlannedSchedule> {
        self.plan.as_ref()
    }
}

impl Policy for Heft {
    fn name(&self) -> String {
        "HEFT".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Static
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        let ranks = upward_ranks(&ctx);
        let plan = build_plan(&ctx, &ranks, |_node, candidates| {
            // apt-lint: allow(hot-path-panic, build_plan only invokes the selector with a
            // nonempty candidate list)
            argmin_by_key(candidates, |c| c.finish).expect("candidates nonempty")
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
    use apt_base::SimDuration;
    use apt_dfg::generator::{
        build_type1, build_type2, generate_kernels, StreamConfig, Type2Config,
    };
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, CostModel, SystemConfig};

    #[test]
    fn heft_plans_every_node_exactly_once() {
        let kernels = generate_kernels(&StreamConfig::new(46, 8), LookupTable::paper());
        let dfg = build_type2(&kernels, 8, &Type2Config::default());
        let config = SystemConfig::paper_4gbps();
        let cost = CostModel::new(&dfg, LookupTable::paper(), &config);
        let mut heft = Heft::new();
        heft.prepare(PrepareCtx {
            dfg: &dfg,
            lookup: LookupTable::paper(),
            config: &config,
            cost: &cost,
        })
        .unwrap();
        let plan = heft.plan().unwrap();
        let planned: usize = plan.per_proc_order.iter().map(|q| q.len()).sum();
        assert_eq!(planned, dfg.len());
        assert!(plan.planned_makespan > SimDuration::ZERO);
    }

    #[test]
    fn heft_replay_produces_a_valid_schedule() {
        for seed in [1u64, 9, 23] {
            let kernels = generate_kernels(&StreamConfig::new(60, seed), LookupTable::paper());
            let dfg = build_type2(&kernels, seed, &Type2Config::default());
            let res = simulate(
                &dfg,
                &SystemConfig::paper_4gbps(),
                LookupTable::paper(),
                &mut Heft::new(),
            )
            .unwrap();
            res.trace.validate(&dfg).unwrap();
        }
    }

    #[test]
    fn heft_beats_serial_execution_on_parallel_work() {
        // Ten independent NW kernels (plus sink): HEFT must spread them, so
        // the makespan is far below 11 × 112 ms serial.
        let kernels = vec![Kernel::canonical(KernelKind::NeedlemanWunsch); 11];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Heft::new(),
        )
        .unwrap();
        let serial = SimDuration::from_ms(11 * 112);
        assert!(res.makespan() < serial);
        // All three processors participate (NW's avg cost justifies them).
        let used = res
            .trace
            .proc_stats
            .iter()
            .filter(|s| s.kernels > 0)
            .count();
        assert_eq!(used, 3);
    }

    #[test]
    fn heft_follows_its_plan_assignment() {
        let kernels = generate_kernels(&StreamConfig::new(30, 14), LookupTable::paper());
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_4gbps();
        let cost = CostModel::new(&dfg, LookupTable::paper(), &config);
        let mut heft = Heft::new();
        heft.prepare(PrepareCtx {
            dfg: &dfg,
            lookup: LookupTable::paper(),
            config: &config,
            cost: &cost,
        })
        .unwrap();
        let planned_assignment = heft.plan().unwrap().assignment.clone();
        // Fresh instance for the run (single-use contract).
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Heft::new()).unwrap();
        for rec in &res.trace.records {
            assert_eq!(
                rec.proc,
                planned_assignment[rec.node.index()],
                "node {} deviated from the plan",
                rec.node
            );
        }
    }
}
