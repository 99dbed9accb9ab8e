//! AR — adaptive random (Wu et al.).
//!
//! §2.5.2: "Adaptive Greedy and Adaptive Random were two policies presented
//! \[18\] by Wu et al. ... the Adaptive Random policy uses random weights
//! and probabilities to assign kernels." Like AG it assigns (queues) each
//! kernel on arrival; unlike AG it samples the device from a probability
//! distribution that adapts to the observed queue pressure: device `g` is
//! drawn with weight `1 / (1 + N_g · τ_g^k + τ_g^d)` — heavily loaded or
//! transfer-expensive devices become unlikely, but never impossible.
//!
//! The randomness is a seeded [`SplitMix64`] stream, so runs remain
//! bit-reproducible (the simulator's determinism contract).

use apt_base::ProcId;
use apt_dfg::SplitMix64;
use apt_hetsim::{Assignment, AssignmentBuf, Policy, PolicyKind, SimView};

/// The AR policy.
#[derive(Debug, Clone)]
pub struct AdaptiveRandom {
    rng: SplitMix64,
    /// Scratch: runnable candidate devices of the head kernel (reused
    /// across decisions, so the steady-state decide is allocation-free).
    candidates: Vec<ProcId>,
    /// Scratch: the matching sampling weights.
    weights: Vec<u64>,
}

impl AdaptiveRandom {
    /// Create an AR scheduler with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        AdaptiveRandom {
            rng: SplitMix64::new(seed),
            candidates: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl Policy for AdaptiveRandom {
    fn name(&self) -> String {
        "AR".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let Some(node) = view.ready.first() else {
            return;
        };
        // Integer weights in parts-per-million of the inverse wait estimate,
        // built into the reused scratch buffers.
        self.candidates.clear();
        self.weights.clear();
        // A crashed processor takes nothing until its repair.
        for p in view.procs.iter().filter(|p| !p.down) {
            if view.exec_time(node, p.id).is_none() {
                continue;
            }
            let wait_ms = (p.recent_avg_exec * p.ag_queue_count() as u64).as_ms_f64()
                + view.transfer_in_time(node, p.id).as_ms_f64();
            self.candidates.push(p.id);
            // 1e6 / (1 + wait): ≥ 1 so no device is ever impossible.
            self.weights
                .push(((1_000_000.0 / (1.0 + wait_ms)) as u64).max(1));
        }
        if self.candidates.is_empty() {
            return;
        }
        let pick = self.rng.choose_weighted(&self.weights);
        out.push(Assignment::new(node, self.candidates[pick]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn ar_is_reproducible_per_seed() {
        let kernels = generate_kernels(&StreamConfig::new(30, 5), LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let a = simulate(
            &dfg,
            &cfg,
            LookupTable::paper(),
            &mut AdaptiveRandom::new(9),
        )
        .unwrap();
        let b = simulate(
            &dfg,
            &cfg,
            LookupTable::paper(),
            &mut AdaptiveRandom::new(9),
        )
        .unwrap();
        assert_eq!(a, b);
        a.trace.validate(&dfg).unwrap();
        // A different seed almost surely produces a different schedule.
        let c = simulate(
            &dfg,
            &cfg,
            LookupTable::paper(),
            &mut AdaptiveRandom::new(10),
        )
        .unwrap();
        assert_ne!(a.trace.records, c.trace.records);
    }

    #[test]
    fn ar_spreads_load_across_devices() {
        // 60 identical cd kernels: a queue-pressure-aware sampler must not
        // put everything on one device.
        let kernels = vec![Kernel::new(KernelKind::Cholesky, 250_000); 60];
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_no_transfers();
        let res = simulate(
            &dfg,
            &cfg,
            LookupTable::paper(),
            &mut AdaptiveRandom::new(3),
        )
        .unwrap();
        let used = res
            .trace
            .proc_stats
            .iter()
            .filter(|s| s.kernels > 0)
            .count();
        assert!(used >= 2, "AR used only {used} devices");
    }

    #[test]
    fn ar_never_starves() {
        for seed in 0..5u64 {
            let kernels = generate_kernels(&StreamConfig::new(25, seed), LookupTable::paper());
            let dfg = build_type1(&kernels);
            let res = simulate(
                &dfg,
                &SystemConfig::paper_4gbps(),
                LookupTable::paper(),
                &mut AdaptiveRandom::new(seed),
            )
            .unwrap();
            assert_eq!(res.trace.records.len(), 25);
        }
    }
}
