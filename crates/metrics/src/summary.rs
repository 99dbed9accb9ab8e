//! Per-run summaries: everything §3.2 says the simulator reports, in one
//! compact serializable struct.

use apt_base::SimDuration;
use apt_dfg::KernelKind;
use apt_hetsim::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The §3.2 statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Policy display name.
    pub policy: String,
    /// Metric 1 — total execution time (makespan).
    pub makespan: SimDuration,
    /// Metric 2 — compute time per processor.
    pub busy_per_proc: Vec<SimDuration>,
    /// Metric 3 — transfer time per processor.
    pub transfer_per_proc: Vec<SimDuration>,
    /// Metric 4 — idle time per processor.
    pub idle_per_proc: Vec<SimDuration>,
    /// Metric 6 — total λ delay.
    pub lambda_total: SimDuration,
    /// Metric 7 — average λ delay (Eq. 11).
    pub lambda_avg: SimDuration,
    /// Metric 8 — λ standard deviation in ms (Eq. 12).
    pub lambda_stddev_ms: f64,
    /// Number of delay occurrences (`N`).
    pub lambda_count: usize,
    /// Number of alternative-processor assignments (APT analyses).
    pub alt_assignments: usize,
    /// Alternative assignments per kernel kind (Appendix-B columns).
    pub alt_by_kind: BTreeMap<KernelKind, usize>,
}

impl RunSummary {
    /// Extract the summary from a simulation result.
    pub fn from_result(res: &SimResult) -> Self {
        let makespan = res.makespan();
        RunSummary {
            policy: res.policy.clone(),
            makespan,
            busy_per_proc: res.trace.proc_stats.iter().map(|s| s.busy).collect(),
            transfer_per_proc: res.trace.proc_stats.iter().map(|s| s.transfer).collect(),
            idle_per_proc: res
                .trace
                .proc_stats
                .iter()
                .map(|s| s.idle(makespan))
                .collect(),
            lambda_total: res.trace.lambda_total(),
            lambda_avg: res.trace.lambda_avg(),
            lambda_stddev_ms: res.trace.lambda_stddev_ms(),
            lambda_count: res.trace.lambda_count(),
            alt_assignments: res.trace.alt_total(),
            alt_by_kind: res.trace.alt_by_kind(),
        }
    }

    /// Utilization fraction (busy + transfer over makespan) per processor.
    pub fn utilization(&self) -> Vec<f64> {
        let total = self.makespan.as_ns().max(1) as f64;
        self.busy_per_proc
            .iter()
            .zip(&self.transfer_per_proc)
            .map(|(b, t)| (b.as_ns() + t.as_ns()) as f64 / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};
    use apt_policies::Met;

    #[test]
    fn summary_is_internally_consistent() {
        let kernels = vec![
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        let s = RunSummary::from_result(&res);
        assert_eq!(s.policy, "MET");
        assert_eq!(s.makespan, SimDuration::from_us(318_093));
        assert_eq!(s.busy_per_proc.len(), 3);
        // busy + idle + transfer == makespan per processor.
        for i in 0..3 {
            let total = s.busy_per_proc[i] + s.transfer_per_proc[i] + s.idle_per_proc[i];
            assert_eq!(total, s.makespan, "processor {i}");
        }
        // GPU unused under MET here.
        assert_eq!(s.busy_per_proc[1], SimDuration::ZERO);
        let u = s.utilization();
        assert_eq!(u[1], 0.0);
        assert!(u[2] > 0.9, "FPGA nearly saturated, got {}", u[2]);
        assert_eq!(s.alt_assignments, 0);
        assert!(s.alt_by_kind.is_empty());
    }

    /// An empty run has a zero makespan; utilization reads 0 rather than
    /// dividing by zero.
    #[test]
    fn empty_run_has_zero_utilization() {
        let dfg = build_type1(&[]);
        let config = SystemConfig::paper_4gbps();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        let s = RunSummary::from_result(&res);
        assert_eq!(s.makespan, SimDuration::ZERO);
        assert_eq!(s.utilization(), vec![0.0; 3]);
        assert_eq!(s.idle_per_proc, vec![SimDuration::ZERO; 3]);
        assert_eq!(s.lambda_count, 0);
        assert_eq!(s.lambda_avg, SimDuration::ZERO);
    }

    #[test]
    fn lambda_fields_match_trace() {
        let kernels = vec![Kernel::canonical(KernelKind::Bfs); 6];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        let s = RunSummary::from_result(&res);
        assert_eq!(s.lambda_total, res.trace.lambda_total());
        assert_eq!(s.lambda_count, res.trace.lambda_count());
        // MET serializes the five level-1 bfs on the FPGA → delays exist.
        assert!(s.lambda_count > 0);
        assert!(s.lambda_stddev_ms >= 0.0);
    }
}
