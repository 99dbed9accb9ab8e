//! Diagnostic probe: print per-policy average makespans and λ totals for
//! the canonical experiment matrices — the raw numbers behind Tables 8–13
//! in one compact dump, useful when investigating a shape regression.
//!
//! ```bash
//! cargo run --release -p apt-experiments --example lambda_probe
//! ```

use apt_core::prelude::DfgType;
use apt_experiments::runner::{avg_lambda_ms, avg_makespans_ms, Rate, SweepCache, POLICY_ORDER};

fn main() {
    let cache = SweepCache::default();
    for ty in [DfgType::Type1, DfgType::Type2] {
        for alpha in [1.5, 4.0] {
            let m = cache.policy_matrix(ty, alpha, Rate::Gbps4);
            let lam = avg_lambda_ms(&m);
            let exec = avg_makespans_ms(&m);
            println!("{ty:?} alpha={alpha}");
            for (i, p) in POLICY_ORDER.iter().enumerate() {
                println!(
                    "  {p:5} exec {:>12.1} ms   lambda {:>12.1} ms",
                    exec[i], lam[i]
                );
            }
        }
    }
}
