//! # apt-core — Alternative Processor within Threshold
//!
//! The primary contribution of the reproduced paper: **APT**, a dynamic
//! scheduling heuristic for heterogeneous systems that adds a tunable
//! flexibility factor to MET (§3.1, Algorithm 1).
//!
//! For a ready kernel `v_i`, let `p_min` be the processor with the minimum
//! lookup-table execution time `x`. If `p_min` is idle, assign there (MET
//! behaviour). If `p_min` is busy, APT considers the *alternative processor*
//! `p_alt`: an available processor whose `execution time + data-transfer
//! time` is within the threshold
//!
//! ```text
//! threshold = α · x,   α ≥ 1            (Eq. 8)
//! ```
//!
//! A small `α` makes APT stringent (it converges to MET); a large `α`
//! constantly accepts much slower processors. The sweet spot — the paper's
//! `threshold_brk`, found at α = 4 for its system — trades a bounded loss on
//! one kernel against unblocking the whole stream, cutting average makespan
//! by ~16–18 % against the second-best policy.
//!
//! Every APT-family policy is one type, [`AptPolicy`], whose [`AptRule`]
//! fixes the order it visits ready kernels in and the rule that admits an
//! alternative ([`apt`] module docs). [`Apt`] is the paper's rule; this
//! crate also ships:
//!
//! * [`AptR`] — the conclusion's future-work variant, which additionally
//!   weighs the *remaining* busy time of `p_min` before settling for an
//!   alternative processor (its rule is in [`apt_r`]).
//! * [`EdfApt`] / [`LlApt`] — deadline-aware variants for the open-system
//!   SLO axis: earliest-deadline ordering, and least-laxity ordering with
//!   a slack-clamped threshold (their rules are in [`deadline`]).
//! * [`analysis`] — the Appendix-B allocation analyses (which kernels went
//!   to a second-best processor, per α) regenerated from traces.
//! * [`prelude`] — one-stop imports for downstream users.
//!
//! ## Quickstart
//!
//! ```
//! use apt_core::prelude::*;
//!
//! // A workload: 9 kernels, DFG Type-1, seeded.
//! let lookup = LookupTable::paper();
//! let dfg = generate(DfgType::Type1, &StreamConfig::new(9, 42), lookup);
//!
//! // The paper's machine: CPU + GPU + FPGA over 4 GB/s PCIe.
//! let system = SystemConfig::paper_4gbps();
//!
//! // Schedule with APT at the paper's best threshold, α = 4.
//! let result = simulate(&dfg, &system, lookup, &mut Apt::new(4.0)).unwrap();
//! println!("makespan: {}", result.makespan());
//! assert!(result.makespan() > SimDuration::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod apt;
pub mod apt_r;
pub mod deadline;
pub mod prelude;
pub mod tuning;

pub use analysis::AllocationAnalysis;
pub use apt::{Apt, AptPolicy, AptRule};
pub use apt_r::AptR;
pub use deadline::{EdfApt, LlApt};
pub use tuning::{auto_tune, tune_alpha, TuningResult};

use apt_hetsim::Policy;

/// The α values swept by the paper's evaluation (Figures 7, 9, 11, 12 and
/// Tables 13, 15, 16).
pub const PAPER_ALPHAS: [f64; 5] = [1.5, 2.0, 4.0, 8.0, 16.0];

/// The paper's best-performing threshold (`threshold_brk`).
pub const PAPER_BEST_ALPHA: f64 = 4.0;

/// A sharable policy constructor (safe to call from sweep worker threads).
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn Policy> + Send + Sync>;

/// Factories for all seven policies of the paper's comparison, in the
/// column order of Tables 8–10 (APT first).
pub fn all_policy_factories(alpha: f64) -> Vec<(String, PolicyFactory)> {
    let mut out: Vec<(String, PolicyFactory)> = vec![(
        "APT".to_string(),
        Box::new(move || Box::new(Apt::new(alpha)) as Box<dyn Policy>),
    )];
    for (name, f) in apt_policies::baseline_factories() {
        out.push((name.to_string(), Box::new(f)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_order_matches_tables_8_to_10() {
        let names: Vec<String> = all_policy_factories(4.0)
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, vec!["APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"]);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_ALPHAS.len(), 5);
        assert!(PAPER_ALPHAS.contains(&PAPER_BEST_ALPHA));
    }
}
