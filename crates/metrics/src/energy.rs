//! Energy accounting — an extension beyond the paper's evaluation.
//!
//! The thesis motivates heterogeneous systems with *both* "higher
//! performance and power efficiency" (§1, abstract) and cites Huang et al.
//! on GPU energy efficiency, but its evaluation only measures time. This
//! module closes that gap: given per-category busy/idle power draws, it
//! integrates a schedule trace into energy (joules), so policies can be
//! compared on the paper's second axis too.
//!
//! The default model uses TDP-class figures for the paper's devices
//! (Intel i7-2600 class CPU, Tesla K20 class GPU, Virtex-7 class FPGA).
//! They are *illustrative*: the thesis provides no power measurements.

use apt_base::{ProcKind, SimDuration};
use apt_hetsim::{SystemConfig, Trace};
use serde::{Deserialize, Serialize};

/// Busy/idle power draw of one processor category, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDraw {
    /// Power while executing or transferring, W.
    pub busy_watts: f64,
    /// Power while idle, W.
    pub idle_watts: f64,
}

/// Per-category power model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    cpu: PowerDraw,
    gpu: PowerDraw,
    fpga: PowerDraw,
    asic: PowerDraw,
}

impl Default for PowerModel {
    /// TDP-class defaults for the paper's device classes: 95/25 W CPU,
    /// 225/25 W GPU, 25/10 W FPGA, 5/1 W ASIC.
    fn default() -> Self {
        PowerModel {
            cpu: PowerDraw {
                busy_watts: 95.0,
                idle_watts: 25.0,
            },
            gpu: PowerDraw {
                busy_watts: 225.0,
                idle_watts: 25.0,
            },
            fpga: PowerDraw {
                busy_watts: 25.0,
                idle_watts: 10.0,
            },
            asic: PowerDraw {
                busy_watts: 5.0,
                idle_watts: 1.0,
            },
        }
    }
}

impl PowerModel {
    /// The draw of one category.
    pub fn draw(&self, kind: ProcKind) -> PowerDraw {
        match kind {
            ProcKind::Cpu => self.cpu,
            ProcKind::Gpu => self.gpu,
            ProcKind::Fpga => self.fpga,
            ProcKind::Asic => self.asic,
        }
    }
}

/// Per-run energy breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy spent executing and transferring, J.
    pub busy_joules: f64,
    /// Energy spent idling until the makespan, J.
    pub idle_joules: f64,
    /// Per-processor totals (busy + idle), J, indexed by processor.
    pub per_proc_joules: Vec<f64>,
}

impl EnergyReport {
    /// Total energy of the schedule, J.
    pub fn total_joules(&self) -> f64 {
        self.busy_joules + self.idle_joules
    }
}

fn joules(power_watts: f64, d: SimDuration) -> f64 {
    power_watts * d.as_secs_f64()
}

/// Integrate a trace into energy under a power model. Idle time is charged
/// until the *makespan* on every processor (the machine is on for the whole
/// run — exactly why MET's voluntary idling costs energy as well as time).
pub fn energy_report(trace: &Trace, config: &SystemConfig, model: &PowerModel) -> EnergyReport {
    let makespan = trace.makespan();
    let mut busy_total = 0.0;
    let mut idle_total = 0.0;
    let mut per_proc = Vec::with_capacity(config.len());
    for proc in config.proc_ids() {
        let draw = model.draw(config.kind_of(proc));
        let stats = trace
            .proc_stats
            .get(proc.index())
            .copied()
            .unwrap_or_default();
        let active = stats.busy + stats.transfer;
        let busy = joules(draw.busy_watts, active);
        let idle = joules(draw.idle_watts, makespan - active);
        busy_total += busy;
        idle_total += idle;
        per_proc.push(busy + idle);
    }
    EnergyReport {
        busy_joules: busy_total,
        idle_joules: idle_total,
        per_proc_joules: per_proc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::simulate;
    use apt_policies::Met;

    #[test]
    fn hand_computed_energy_for_figure5_met() {
        // MET on the Figure-5 workload: makespan 318.093 ms.
        // CPU busy 112 ms, GPU busy 0, FPGA busy 318.093 ms (3×106 + 0.093).
        let dfg = build_type1(&[
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ]);
        let config = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        let report = energy_report(&res.trace, &config, &PowerModel::default());

        let makespan_s = 0.318_093;
        let cpu = 95.0 * 0.112 + 25.0 * (makespan_s - 0.112);
        let gpu = 225.0 * 0.0 + 25.0 * makespan_s;
        let fpga = 25.0 * makespan_s; // busy the whole run at 25 W
        assert!((report.per_proc_joules[0] - cpu).abs() < 1e-9);
        assert!((report.per_proc_joules[1] - gpu).abs() < 1e-9);
        assert!((report.per_proc_joules[2] - fpga).abs() < 1e-9);
        assert!((report.total_joules() - (cpu + gpu + fpga)).abs() < 1e-9);
    }

    #[test]
    fn energy_splits_busy_and_idle_consistently() {
        let dfg = build_type1(&[Kernel::canonical(KernelKind::Srad); 4]);
        let config = SystemConfig::paper_4gbps();
        let res = simulate(&dfg, &config, LookupTable::paper(), &mut Met::new()).unwrap();
        let r = energy_report(&res.trace, &config, &PowerModel::default());
        let per_proc_sum: f64 = r.per_proc_joules.iter().sum();
        assert!((r.total_joules() - per_proc_sum).abs() < 1e-9);
        assert!(r.busy_joules > 0.0 && r.idle_joules > 0.0);
    }

    #[test]
    fn custom_model_overrides_apply() {
        let model = PowerModel {
            fpga: PowerDraw {
                busy_watts: 40.0,
                idle_watts: 0.0,
            },
            ..PowerModel::default()
        };
        assert_eq!(model.draw(ProcKind::Fpga).busy_watts, 40.0);
        assert_eq!(model.draw(ProcKind::Fpga).idle_watts, 0.0);
        // Other categories untouched.
        assert_eq!(model.draw(ProcKind::Cpu).busy_watts, 95.0);
    }

    #[test]
    fn empty_trace_consumes_nothing() {
        let trace = Trace {
            records: vec![],
            proc_stats: vec![Default::default(); 3],
        };
        let config = SystemConfig::paper_4gbps();
        let r = energy_report(&trace, &config, &PowerModel::default());
        assert_eq!(r.total_joules(), 0.0);
    }
}
