//! Input-stream (workload) generators — §3.2, Figures 3 and 4.
//!
//! "To generate each type of input stream, we have written a software which
//! accepts for an input a series of kernels and each kernel has its own data
//! size. This series of kernels is then fit into the model/type of DFG,
//! either DFG Type-1 or DFG Type-2." This module is that software:
//!
//! * [`generate_kernels`] produces the seeded random series of kernels
//!   ([`kernel_draws`] draws the same series lazily),
//! * [`type1_edges_into`] / [`type2_edges_into`] define the two DFG shapes,
//!   each as one ascending `(from, to)` edge list over series indices,
//!   appended to a buffer the caller may reuse,
//! * [`build_type1`] / [`build_type2`] fit a series into a [`KernelDag`] by
//!   adding exactly those edges,
//! * [`generate`] is the one-call combination.
//!
//! Each shape is defined once, by its edge-list builder. The closed path
//! builds a graph from the list; open-stream jobs (`apt-stream`'s
//! `JobFamily`) take the list as it is, with no graph, topological sort or
//! copy. The lists are ascending (sorted, every edge `from < to`), which
//! makes them acyclic by construction, and equal to the sequence the built
//! graph's [`Dag::edges`] yields.
//!
//! **DFG Type-1** (Figure 3): with `n` kernels, `n−1` are independent
//! ("level-1") and the `n`-th becomes ready only after all of them complete.
//!
//! **DFG Type-2** (Figure 4): a mix of individual kernels, dependent chains,
//! and three diamond-shaped "kernel graph blocks" (one kernel at the top,
//! multiple independent kernels in the middle, one at the bottom). When `n`
//! changes only the number of independent kernels inside the blocks changes;
//! the overall structure is fixed, exactly as the paper describes.
//!
//! The thesis does not publish its ten concrete kernel series, so the series
//! here are reconstructed: kernel kinds are drawn with per-graph random
//! weights (graphs differ in their mix, mirroring the paper's observation
//! that e.g. its graph 1 "happened to have a lot more kernels with relatively
//! smaller execution times"), and swept kernels get a uniformly chosen
//! measured data size.

use crate::graph::{Dag, NodeId};
use crate::kernel::{Kernel, KernelKind};
use crate::lookup::LookupTable;
use crate::rng::SplitMix64;
use crate::KernelDag;
use serde::{Deserialize, Serialize};

/// Kernel counts of the paper's ten experiments (Tables 15/16), shared by
/// both DFG types.
pub const EXPERIMENT_KERNEL_COUNTS: [usize; 10] = [46, 58, 50, 73, 69, 81, 125, 93, 132, 157];

/// Which DFG family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DfgType {
    /// Independent level-1 kernels with a single fan-in sink (Figure 3).
    Type1,
    /// Dependency-rich mix with diamond blocks (Figure 4).
    Type2,
}

impl DfgType {
    /// Both families.
    pub const ALL: [DfgType; 2] = [DfgType::Type1, DfgType::Type2];

    /// Label used in tables ("Type-1" / "Type-2").
    pub const fn label(self) -> &'static str {
        match self {
            DfgType::Type1 => "Type-1",
            DfgType::Type2 => "Type-2",
        }
    }
}

/// Configuration for a random kernel series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Number of kernels in the series.
    pub len: usize,
    /// PRNG seed; identical seeds give identical series forever.
    pub seed: u64,
    /// If true (default), each graph draws its own random kind weights in
    /// `1..=4`, so graphs differ in composition; if false, kinds are uniform.
    pub weighted_mix: bool,
}

impl StreamConfig {
    /// A weighted-mix series of `len` kernels from `seed`.
    pub const fn new(len: usize, seed: u64) -> Self {
        StreamConfig {
            len,
            seed,
            weighted_mix: true,
        }
    }

    /// Uniform-mix variant.
    pub const fn uniform(len: usize, seed: u64) -> Self {
        StreamConfig {
            len,
            seed,
            weighted_mix: false,
        }
    }
}

/// Structural parameters of the Type-2 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Type2Config {
    /// Number of diamond "kernel graph blocks" (the paper uses three).
    pub diamond_blocks: usize,
    /// Length of each dependent chain group.
    pub chain_len: usize,
    /// Percentage (0–100) of the non-block kernels placed in chains; the
    /// rest are independent singletons.
    pub chain_percent: u8,
}

impl Default for Type2Config {
    fn default() -> Self {
        Type2Config {
            diamond_blocks: 3,
            chain_len: 3,
            chain_percent: 40,
        }
    }
}

/// How the Type-2 generator partitioned `n` kernels (exposed for tests and
/// for the ASCII renderer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Type2Layout {
    /// Number of middle kernels in each diamond block.
    pub diamond_middles: Vec<usize>,
    /// Number of chains of `chain_len` kernels (a final shorter chain may
    /// exist; its length is `short_chain`).
    pub chains: usize,
    /// Length of the trailing shorter chain (0 if none).
    pub short_chain: usize,
    /// Number of independent singleton kernels.
    pub singletons: usize,
}

impl Type2Layout {
    /// Total kernels covered by this layout.
    pub fn total(&self, cfg: &Type2Config) -> usize {
        let blocks: usize = self.diamond_middles.iter().map(|m| m + 2).sum();
        blocks + self.chains * cfg.chain_len + self.short_chain + self.singletons
    }
}

/// Generate the seeded random kernel series described in the module docs:
/// the [`kernel_draws`] of `cfg`, collected.
pub fn generate_kernels(cfg: &StreamConfig, lookup: &LookupTable) -> Vec<Kernel> {
    kernel_draws(cfg, lookup).collect()
}

/// The kernel series of [`generate_kernels`], drawn lazily: the kind
/// weights are drawn up front, then each `next` draws one kernel from the
/// same RNG stream, in the same order. A caller that needs one kernel
/// takes one draw and never builds a `Vec`.
pub fn kernel_draws<'a>(
    cfg: &StreamConfig,
    lookup: &'a LookupTable,
) -> impl ExactSizeIterator<Item = Kernel> + 'a {
    let mut rng = SplitMix64::new(cfg.seed);
    // The kind weights live in the iterator; every kernel's kind draw
    // reuses them.
    let mut weights = [1u64; KernelKind::ALL.len()];
    if cfg.weighted_mix {
        for w in &mut weights {
            *w = 1 + rng.gen_range(4);
        }
    }
    (0..cfg.len).map(move |_| {
        let kind = KernelKind::ALL[rng.choose_weighted(&weights)];
        let data_size = match kind.canonical_size() {
            Some(s) => s,
            // Index into the table's size index directly — same RNG stream
            // as `choose(&sizes_for(kind))` without materializing the size
            // list per kernel.
            None => lookup.size_at(kind, rng.gen_index(lookup.size_count(kind))),
        };
        Kernel::new(kind, data_size)
    })
}

/// The DFG Type-1 shape (Figure 3) over `n` kernels, as an ascending edge
/// list appended to `edges`: kernels `0..n−1` are mutually independent and
/// kernel `n−1` depends on all of them, so the list is `(i, n−1)` for every
/// `i < n−1`.
pub fn type1_edges_into(n: usize, edges: &mut Vec<(u32, u32)>) {
    let last = n.saturating_sub(1) as u32;
    edges.extend((0..last).map(|i| (i, last)));
}

/// Fit a kernel series into the DFG Type-1 shape (Figure 3): the graph of
/// [`type1_edges_into`].
pub fn build_type1(kernels: &[Kernel]) -> KernelDag {
    let mut edges = Vec::new();
    type1_edges_into(kernels.len(), &mut edges);
    dag_from_edges(kernels, &edges)
}

/// A graph over `kernels` (node `i` is `kernels[i]`) with the given
/// ascending edges.
fn dag_from_edges(kernels: &[Kernel], edges: &[(u32, u32)]) -> KernelDag {
    let mut g = Dag::with_capacity(kernels.len());
    for &k in kernels {
        g.add_node(k);
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a), NodeId(b))
            .expect("generator edges are fresh and ascending");
    }
    g
}

/// Salt for the Type-2 partition RNG stream: layout draws must not share
/// a stream with the kernel-series draws of the same `seed`, or changing
/// the partition logic would retroactively shift every kernel size. Named
/// per the workspace RNG-stream discipline (`apt-lint` `rng-salt` rule):
/// every derived stream is `seed ^ *_STREAM_SALT`, greppable by suffix.
pub const TYPE2_PARTITION_STREAM_SALT: u64 = 0x5EED_D1A6;

/// Compute the Type-2 partition of `n` kernels (deterministic in `seed`).
pub fn type2_layout(n: usize, seed: u64, cfg: &Type2Config) -> Type2Layout {
    let mut rng = SplitMix64::new(seed ^ TYPE2_PARTITION_STREAM_SALT);
    // Each diamond needs top + bottom + ≥1 middle. If n is too small for the
    // configured block count, scale the block count down.
    let blocks = cfg.diamond_blocks.min(n / 3);
    let mut diamond_middles = vec![1usize; blocks];
    let mut remaining = n - blocks * 3;

    if blocks > 0 {
        // Roughly 40% of the spare kernels widen the diamonds, split randomly.
        let widen = (remaining * 2) / 5;
        for _ in 0..widen {
            let b = rng.gen_index(blocks);
            diamond_middles[b] += 1;
        }
        remaining -= widen;
    }

    // Of the rest, `chain_percent` go into chains of `chain_len`.
    let chained = remaining * cfg.chain_percent as usize / 100;
    let chains = chained / cfg.chain_len.max(1);
    let mut short_chain = chained % cfg.chain_len.max(1);
    if short_chain == 1 {
        // A 1-kernel "chain" is just a singleton; classify it as such.
        short_chain = 0;
    }
    let used_in_chains = chains * cfg.chain_len + short_chain;
    let singletons = remaining - used_in_chains;

    Type2Layout {
        diamond_middles,
        chains,
        short_chain,
        singletons,
    }
}

/// The DFG Type-2 shape (Figure 4) over `n` kernels, as an ascending edge
/// list appended to `edges`.
///
/// Kernels are consumed in series order: first the diamond blocks (top,
/// middles, bottom), then the chains, then the singletons — mirroring the
/// "order of occurrence in the system" annotation of Figure 4. Node ids
/// are dense `0..n` in series order, so each group is an id range off a
/// running cursor. The partition is [`type2_layout`] of `seed`.
pub fn type2_edges_into(n: usize, seed: u64, cfg: &Type2Config, edges: &mut Vec<(u32, u32)>) {
    let Type2Layout {
        diamond_middles,
        chains,
        short_chain,
        singletons,
    } = type2_layout(n, seed, cfg);

    let chain_edges = |len: usize| len.saturating_sub(1);
    let edge_count = diamond_middles.iter().map(|m| 2 * m).sum::<usize>()
        + chains * chain_edges(cfg.chain_len)
        + chain_edges(short_chain);
    let first = edges.len();
    edges.reserve(edge_count);
    let mut next = 0u32;

    for &m in &diamond_middles {
        let m = m as u32;
        let bottom = next + m + 1;
        edges.extend((next + 1..bottom).map(|mid| (next, mid)));
        edges.extend((next + 1..bottom).map(|mid| (mid, bottom)));
        next = bottom + 1;
    }

    let mut chain = |len: usize| {
        let end = next + len as u32;
        edges.extend((next..end.saturating_sub(1)).map(|i| (i, i + 1)));
        next = end;
    };
    for _ in 0..chains {
        chain(cfg.chain_len);
    }
    if short_chain > 0 {
        chain(short_chain);
    }
    // Singletons: the rest of the series, no edges.
    debug_assert_eq!(
        next as usize + singletons,
        n,
        "layout must cover the series"
    );
    debug_assert_eq!(edges.len() - first, edge_count);
}

/// Fit a kernel series into the DFG Type-2 shape (Figure 4): the graph of
/// [`type2_edges_into`].
pub fn build_type2(kernels: &[Kernel], seed: u64, cfg: &Type2Config) -> KernelDag {
    let mut edges = Vec::new();
    type2_edges_into(kernels.len(), seed, cfg, &mut edges);
    dag_from_edges(kernels, &edges)
}

/// One-call generation: seeded series + shape fit + validation.
///
/// ```
/// use apt_dfg::generator::{generate, DfgType, StreamConfig};
/// use apt_dfg::LookupTable;
///
/// let dfg = generate(DfgType::Type2, &StreamConfig::new(20, 7), LookupTable::paper());
/// assert_eq!(dfg.len(), 20);
/// dfg.validate().unwrap();
/// // Regeneration from the same seed is bit-identical.
/// assert_eq!(dfg, generate(DfgType::Type2, &StreamConfig::new(20, 7), LookupTable::paper()));
/// ```
pub fn generate(ty: DfgType, cfg: &StreamConfig, lookup: &LookupTable) -> KernelDag {
    let kernels = generate_kernels(cfg, lookup);
    let g = match ty {
        DfgType::Type1 => build_type1(&kernels),
        DfgType::Type2 => build_type2(&kernels, cfg.seed, &Type2Config::default()),
    };
    g.validate().expect("generators produce DAGs");
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup() -> &'static LookupTable {
        LookupTable::paper()
    }

    #[test]
    fn stream_is_deterministic_and_sized() {
        let cfg = StreamConfig::new(46, 0xA11CE);
        let a = generate_kernels(&cfg, lookup());
        let b = generate_kernels(&cfg, lookup());
        assert_eq!(a, b);
        assert_eq!(a.len(), 46);
        // Different seed, different stream (overwhelmingly likely).
        let c = generate_kernels(&StreamConfig::new(46, 0xB0B), lookup());
        assert_ne!(a, c);
    }

    #[test]
    fn stream_kernels_all_have_lookup_entries() {
        let cfg = StreamConfig::new(200, 7);
        for k in generate_kernels(&cfg, lookup()) {
            assert!(lookup().row(&k).is_ok(), "missing entry for {k}");
        }
    }

    #[test]
    fn type1_shape_matches_figure3() {
        let kernels = generate_kernels(&StreamConfig::new(9, 1), lookup());
        let g = build_type1(&kernels);
        g.validate().unwrap();
        // Figure 3: with 9 kernels, 8 run in parallel, the 9th afterwards.
        assert_eq!(g.len(), 9);
        assert_eq!(g.edge_count(), 8);
        let last = NodeId::new(8);
        assert_eq!(g.in_degree(last), 8);
        for i in 0..8 {
            let n = NodeId::new(i);
            assert_eq!(g.in_degree(n), 0);
            assert_eq!(g.succs(n), &[last]);
        }
        let levels = g.levels().unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 8);
    }

    #[test]
    fn type1_tiny_graphs() {
        let one = build_type1(&generate_kernels(&StreamConfig::new(1, 1), lookup()));
        assert_eq!(one.len(), 1);
        assert_eq!(one.edge_count(), 0);
        let two = build_type1(&generate_kernels(&StreamConfig::new(2, 1), lookup()));
        assert_eq!(two.edge_count(), 1);
        let empty = build_type1(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn edge_lists_ascend_and_are_what_the_graphs_yield() {
        let edges_of =
            |g: &KernelDag| -> Vec<(u32, u32)> { g.edges().map(|(a, b)| (a.0, b.0)).collect() };
        // The paper's three diamonds, and many more.
        let many_blocks = Type2Config {
            diamond_blocks: 12,
            ..Type2Config::default()
        };
        for n in 0..160usize {
            let kernels = generate_kernels(&StreamConfig::new(n, n as u64), lookup());
            let mut t1 = Vec::new();
            type1_edges_into(n, &mut t1);
            assert_eq!(edges_of(&build_type1(&kernels)), t1, "n={n}");
            for (seed, cfg) in
                (0..4u64).flat_map(|s| [(s, Type2Config::default()), (s, many_blocks)])
            {
                let mut t2 = Vec::new();
                type2_edges_into(n, seed, &cfg, &mut t2);
                // Into a buffer that already holds a list, the shape appends.
                let mut appended = t1.clone();
                type2_edges_into(n, seed, &cfg, &mut appended);
                assert_eq!(appended[..t1.len()], t1[..]);
                assert_eq!(appended[t1.len()..], t2[..]);
                for edges in [&t1, &t2] {
                    assert!(edges.is_sorted(), "n={n} seed={seed}");
                    assert!(edges.iter().all(|&(a, b)| a < b && (b as usize) < n.max(1)));
                }
                let g2 = build_type2(&kernels, seed, &cfg);
                assert_eq!(edges_of(&g2), t2, "n={n} seed={seed} {cfg:?}");
                let mut top = 0;
                for &m in &type2_layout(n, seed, &cfg).diamond_middles {
                    assert_eq!(g2.out_degree(NodeId::new(top)), m, "n={n} seed={seed}");
                    assert_eq!(g2.in_degree(NodeId::new(top + m + 1)), m);
                    top += m + 2;
                }
            }
        }
    }

    #[test]
    fn type2_layout_covers_everything() {
        let cfg = Type2Config::default();
        for n in [14usize, 46, 58, 73, 125, 157] {
            for seed in 0..5u64 {
                let layout = type2_layout(n, seed, &cfg);
                assert_eq!(layout.total(&cfg), n, "n={n} seed={seed}");
                assert_eq!(layout.diamond_middles.len(), 3);
                assert!(layout.diamond_middles.iter().all(|&m| m >= 1));
            }
        }
    }

    #[test]
    fn type2_has_three_diamonds_and_valid_structure() {
        let kernels = generate_kernels(&StreamConfig::new(46, 42), lookup());
        let g = build_type2(&kernels, 42, &Type2Config::default());
        g.validate().unwrap();
        assert_eq!(g.len(), 46);
        // Three diamond tops: out-degree = middles ≥ 1, in-degree 0.
        // Count nodes that look like diamond bottoms: in-degree ≥ 1 matching a top.
        let layout = type2_layout(46, 42, &Type2Config::default());
        let mut idx = 0;
        for &m in &layout.diamond_middles {
            let top = NodeId::new(idx);
            let bottom = NodeId::new(idx + m + 1);
            assert_eq!(g.out_degree(top), m);
            assert_eq!(g.in_degree(bottom), m);
            for j in 0..m {
                let mid = NodeId::new(idx + 1 + j);
                assert_eq!(g.preds(mid), &[top]);
                assert_eq!(g.succs(mid), &[bottom]);
            }
            idx += m + 2;
        }
    }

    #[test]
    fn type2_small_n_degrades_gracefully() {
        for n in 0..14usize {
            let kernels = generate_kernels(&StreamConfig::new(n, 3), lookup());
            let g = build_type2(&kernels, 3, &Type2Config::default());
            g.validate().unwrap();
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn generate_both_types_for_all_paper_sizes() {
        for (i, &n) in EXPERIMENT_KERNEL_COUNTS.iter().enumerate() {
            for ty in DfgType::ALL {
                let g = generate(ty, &StreamConfig::new(n, 1000 + i as u64), lookup());
                assert_eq!(g.len(), n);
                g.validate().unwrap();
            }
        }
    }

    #[test]
    fn type2_has_more_dependency_structure_than_type1_sources() {
        // Type-1 has n−1 sources; Type-2's diamonds/chains reduce that.
        let n = 81;
        let t1 = generate(DfgType::Type1, &StreamConfig::new(n, 9), lookup());
        let t2 = generate(DfgType::Type2, &StreamConfig::new(n, 9), lookup());
        assert!(t2.sources().len() < t1.sources().len());
        // And deeper levels.
        assert!(t2.levels().unwrap().len() >= 2);
    }

    #[test]
    fn uniform_mix_hits_every_kind_eventually() {
        let cfg = StreamConfig::uniform(500, 11);
        let kernels = generate_kernels(&cfg, lookup());
        for kind in KernelKind::ALL {
            assert!(
                kernels.iter().any(|k| k.kind == kind),
                "kind {kind} never drawn"
            );
        }
    }
}
