//! One-stop imports for downstream users of the APT reproduction.
//!
//! ```
//! use apt_core::prelude::*;
//!
//! let lookup = LookupTable::paper();
//! let dfg = generate(DfgType::Type2, &StreamConfig::new(20, 7), lookup);
//! let res = simulate(&dfg, &SystemConfig::paper_4gbps(), lookup, &mut Apt::new(4.0)).unwrap();
//! assert_eq!(res.trace.records.len(), 20);
//! ```

pub use crate::analysis::AllocationAnalysis;
pub use crate::apt::Apt;
pub use crate::apt_r::AptR;
pub use crate::deadline::{EdfApt, LlApt};
pub use crate::tuning::{auto_tune, ratio_candidates, tune_alpha, TuningResult};
pub use crate::{all_policy_factories, PAPER_ALPHAS, PAPER_BEST_ALPHA};

pub use apt_base::{BaseError, ProcId, ProcKind, SimDuration, SimTime};

pub use apt_dfg::generator::{
    build_type1, build_type2, generate, generate_kernels, type2_layout, DfgType, StreamConfig,
    Type2Config, EXPERIMENT_KERNEL_COUNTS,
};
pub use apt_dfg::{Dag, Dwarf, Kernel, KernelDag, KernelKind, LookupTable, NodeId, SplitMix64};

pub use apt_hetsim::{
    simulate, simulate_stream, simulate_stream_faulty, Assignment, AssignmentBuf, CalendarQueue,
    CostModel, FaultPlan, FaultTotals, LinkContention, LinkDegradeSpec, LinkRate, Policy,
    PolicyKind, PrepareCtx, ProcSpec, ProcStats, ProcView, ReadyOrder, ReadySet, RetryPolicy,
    SimResult, SimView, SystemConfig, TaskRecord, Topology, Trace,
};

pub use apt_policies::{
    baseline_factories, AdaptiveGreedy, AdaptiveRandom, BaselineFactory, Heft, Met, Olb, Peft,
    SerialScheduling, Spn,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let lookup = LookupTable::paper();
        let dfg = generate(DfgType::Type1, &StreamConfig::new(12, 5), lookup);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            lookup,
            &mut Apt::new(PAPER_BEST_ALPHA),
        )
        .unwrap();
        assert_eq!(res.trace.records.len(), 12);
        let _ = AllocationAnalysis::from_trace(&res.trace);
    }
}
