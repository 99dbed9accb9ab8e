//! Allocation analyses — Appendix B (Tables 15 and 16).
//!
//! The thesis appendix breaks down, per experiment and per α, how many times
//! APT chose a second-best processor and for which kernels. The same
//! analysis is regenerated here from simulation traces: every alternative
//! assignment is flagged in the trace by the policy, so the table is a
//! straight aggregation.

use apt_dfg::KernelKind;
use apt_hetsim::Trace;
use std::collections::BTreeMap;
use std::fmt;

/// Summary of APT's alternative-processor decisions in one run
/// (one row of Table 15/16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationAnalysis {
    /// Total kernels in the experiment.
    pub total_kernels: usize,
    /// Total assignments that went to a second-best processor.
    pub total_alternative: usize,
    /// Alternative assignments per kernel kind (the "kernel specific
    /// assignments" column), sorted by kind.
    pub by_kind: BTreeMap<KernelKind, usize>,
}

impl AllocationAnalysis {
    /// Aggregate a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        AllocationAnalysis {
            total_kernels: trace.records.len(),
            total_alternative: trace.alt_total(),
            by_kind: trace.alt_by_kind(),
        }
    }

    /// The per-kind column in the appendix's `count-tag` notation
    /// (e.g. `"11-bfs 6-nw"`); `"0"` when no alternatives were taken.
    pub fn kind_column(&self) -> String {
        if self.by_kind.is_empty() {
            return "0".to_string();
        }
        // Appendix style: most-frequent first, ties by tag.
        let mut entries: Vec<(&KernelKind, &usize)> = self.by_kind.iter().collect();
        entries.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.tag().cmp(b.0.tag())));
        entries
            .iter()
            .map(|(k, n)| format!("{n}-{}", k.tag()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for AllocationAnalysis {
    /// A single appendix-style row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernels, {} alternative ({})",
            self.total_kernels,
            self.total_alternative,
            self.kind_column()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apt;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn nw() -> Kernel {
        Kernel::canonical(KernelKind::NeedlemanWunsch)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    #[test]
    fn figure5_analysis_counts_the_gpu_bfs() {
        let dfg = build_type1(&[nw(), bfs(), bfs(), bfs(), cd()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Apt::new(8.0),
        )
        .unwrap();
        let a = AllocationAnalysis::from_trace(&res.trace);
        assert_eq!(a.total_kernels, 5);
        assert_eq!(a.total_alternative, 1);
        assert_eq!(a.by_kind[&KernelKind::Bfs], 1);
        assert_eq!(a.kind_column(), "1-bfs");
    }

    #[test]
    fn zero_alternative_formats_as_zero() {
        let dfg = build_type1(&[nw()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Apt::new(1.5),
        )
        .unwrap();
        let a = AllocationAnalysis::from_trace(&res.trace);
        assert_eq!(a.total_alternative, 0);
        assert_eq!(a.kind_column(), "0");
        assert_eq!(a.to_string(), "1 kernels, 0 alternative (0)");
    }

    #[test]
    fn kind_column_sorts_by_frequency() {
        let mut by_kind = BTreeMap::new();
        by_kind.insert(KernelKind::NeedlemanWunsch, 6);
        by_kind.insert(KernelKind::Bfs, 11);
        let a = AllocationAnalysis {
            total_kernels: 46,
            total_alternative: 17,
            by_kind,
        };
        // Matches Table 15's first row at α = 4: "11-bfs 6-nw".
        assert_eq!(a.kind_column(), "11-bfs 6-nw");
    }
}
