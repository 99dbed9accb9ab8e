//! The canonical ten-experiment workloads.
//!
//! §3.2: "We have 10 input graphs for both, DFG Type-1 and DFG Type-2 ...
//! each graph of a type has different order and number of kernels." The
//! kernel counts per experiment come from the paper's Appendix-B tables
//! ({46, 58, 50, 73, 69, 81, 125, 93, 132, 157}); the concrete kernel
//! series are seeded reconstructions (the thesis does not publish them).
//!
//! The seeds are fixed constants so that every table, figure, bench, and
//! test in this workspace talks about the *same* twenty graphs.

use apt_core::prelude::*;

/// Seed base for the Type-1 experiment family.
pub const TYPE1_SEED_BASE: u64 = 0x4150_5431; // "APT1"
/// Seed base for the Type-2 experiment family.
pub const TYPE2_SEED_BASE: u64 = 0x4150_5432; // "APT2"

/// Number of experiments per DFG type (graphs 1–10 in the tables).
pub const NUM_EXPERIMENTS: usize = EXPERIMENT_KERNEL_COUNTS.len();

/// The seed of experiment `idx` (0-based) of a family.
pub fn experiment_seed(ty: DfgType, idx: usize) -> u64 {
    let base = match ty {
        DfgType::Type1 => TYPE1_SEED_BASE,
        DfgType::Type2 => TYPE2_SEED_BASE,
    };
    base.wrapping_mul(0x100).wrapping_add(idx as u64)
}

/// Experiment graph `idx` (0-based; the paper's "Graph idx+1").
pub fn experiment_graph(ty: DfgType, idx: usize) -> KernelDag {
    assert!(
        idx < NUM_EXPERIMENTS,
        "experiments are 0..{NUM_EXPERIMENTS}"
    );
    let cfg = StreamConfig::new(EXPERIMENT_KERNEL_COUNTS[idx], experiment_seed(ty, idx));
    generate(ty, &cfg, LookupTable::paper())
}

/// All ten experiment graphs of a family, in table row order.
pub fn experiment_graphs(ty: DfgType) -> Vec<KernelDag> {
    (0..NUM_EXPERIMENTS)
        .map(|i| experiment_graph(ty, i))
        .collect()
}

/// The Figure-5 walk-through workload: kernels {nw, bfs, bfs, bfs, cd}
/// arranged as DFG Type-1 (§4.1, "a simple workload of DFG Type-1").
pub fn figure5_graph() -> KernelDag {
    build_type1(&[
        Kernel::canonical(KernelKind::NeedlemanWunsch),
        Kernel::canonical(KernelKind::Bfs),
        Kernel::canonical(KernelKind::Bfs),
        Kernel::canonical(KernelKind::Bfs),
        Kernel::new(KernelKind::Cholesky, 250_000),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_have_the_papers_kernel_counts() {
        for ty in DfgType::ALL {
            let graphs = experiment_graphs(ty);
            assert_eq!(graphs.len(), 10);
            for (g, &n) in graphs.iter().zip(&EXPERIMENT_KERNEL_COUNTS) {
                assert_eq!(g.len(), n);
                g.validate().unwrap();
            }
        }
    }

    #[test]
    fn families_differ_and_are_reproducible() {
        let a = experiment_graph(DfgType::Type1, 0);
        let b = experiment_graph(DfgType::Type1, 0);
        assert_eq!(a, b, "same seed must give the same graph");
        let c = experiment_graph(DfgType::Type2, 0);
        assert_ne!(a.edge_count(), c.edge_count());
        // Distinct experiments get distinct seeds.
        assert_ne!(
            experiment_seed(DfgType::Type1, 0),
            experiment_seed(DfgType::Type1, 1)
        );
        assert_ne!(
            experiment_seed(DfgType::Type1, 3),
            experiment_seed(DfgType::Type2, 3)
        );
    }

    /// The twenty graphs of the grid each get their own seed.
    #[test]
    fn every_experiment_seed_is_distinct() {
        let mut seeds: Vec<u64> = DfgType::ALL
            .iter()
            .flat_map(|&ty| (0..NUM_EXPERIMENTS).map(move |i| experiment_seed(ty, i)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * NUM_EXPERIMENTS);
    }

    #[test]
    #[should_panic(expected = "experiments are 0..10")]
    fn an_experiment_past_the_grid_is_refused() {
        experiment_graph(DfgType::Type1, NUM_EXPERIMENTS);
    }

    #[test]
    fn figure5_graph_matches_the_papers_example() {
        let g = figure5_graph();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node(NodeId::new(0)).kind, KernelKind::NeedlemanWunsch);
        assert_eq!(g.node(NodeId::new(4)).kind, KernelKind::Cholesky);
    }
}
