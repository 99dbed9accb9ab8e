//! Rank computations for the static policies (Eq. 3–7).
//!
//! * Upward rank (Eq. 3–4): `rank_u(n_i) = w̄_i + max_{n_j ∈ succ}(c̄_ij +
//!   rank_u(n_j))` — the length of the critical path from `n_i` to the exit,
//!   including `n_i`'s own average cost. HEFT schedules by decreasing
//!   `rank_u`.
//! * Downward rank (Eq. 5): longest distance from the entry to `n_i`,
//!   excluding `n_i` itself.
//! * Optimistic cost table (Eq. 6) and `rank_oct` (Eq. 7) for PEFT.
//!
//! Costs are fractional milliseconds. Average computation cost `w̄_i` is the
//! mean over the processor instances able to run the kernel. Average
//! communication cost `c̄_ij` is the full link-transfer time of the
//! producer's output (on the uniform-rate system all remote pairs are
//! equal; under a non-uniform [`apt_hetsim::Topology`] the mean over
//! ordered remote pairs is used; implementations differ on whether to
//! discount by the same-processor probability — we keep the full cost,
//! which preserves HEFT's ordering behaviour and is the common choice).
//!
//! Every execution time comes from the run's [`apt_hetsim::CostModel`]:
//! each cost class's instance row is converted to milliseconds once, and a
//! node reads its class's row (`w̄_i` sums a class's runnable times in
//! ascending processor order, as a per-node lookup walk would). `c̄` is
//! taken once per producer node. Rounding is monotone, so `c̄ + max rank`
//! equals the per-successor `max(c̄ + rank)` bit for bit, and the ranks,
//! the OCT and their ties are those of the per-node lookup formulation.

use apt_base::{ProcId, SimDuration};
use apt_dfg::NodeId;
use apt_hetsim::cost::{MAX_PROCS, UNRUNNABLE};
use apt_hetsim::{ClassId, PrepareCtx};

/// Every cost class's instance row in milliseconds, flattened
/// `class × nprocs` (`f64::INFINITY` where the instance cannot run it).
fn class_exec_ms(ctx: &PrepareCtx<'_>) -> Vec<f64> {
    let cost = ctx.cost;
    let mut rows = Vec::with_capacity(cost.class_count() * cost.nprocs());
    for class in 0..cost.class_count() as ClassId {
        for p in 0..cost.nprocs() {
            rows.push(match cost.class_exec_ns(class, ProcId::new(p)) {
                UNRUNNABLE => f64::INFINITY,
                ns => SimDuration::from_ns(ns).as_ms_f64(),
            });
        }
    }
    rows
}

/// Mean of a row's finite entries, summed in row order; `None` when the
/// row has none.
fn finite_mean(row: &[f64]) -> Option<f64> {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for &v in row.iter().filter(|v| v.is_finite()) {
        sum += v;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Per-node average computation cost `w̄_i` in milliseconds, one mean per
/// cost class. Unrunnable-everywhere kernels yield `f64::INFINITY` (the
/// planner rejects them).
pub fn avg_comp_costs(ctx: &PrepareCtx<'_>) -> Vec<f64> {
    let nprocs = ctx.cost.nprocs();
    let exec = class_exec_ms(ctx);
    let per_class: Vec<f64> = (0..ctx.cost.class_count())
        .map(|c| finite_mean(&exec[c * nprocs..][..nprocs]).unwrap_or(f64::INFINITY))
        .collect();
    ctx.dfg
        .node_ids()
        .map(|n| per_class[ctx.cost.class_of(n) as usize])
        .collect()
}

/// Average communication cost of every edge out of `from`, in
/// milliseconds: the link time of `from`'s output volume. On a one-rate
/// [`apt_hetsim::Topology`] this is exactly that rate's link time; under a
/// matrix it is the mean over ordered remote pairs.
pub fn avg_comm_cost(ctx: &PrepareCtx<'_>, from: NodeId) -> f64 {
    let bytes = ctx.dfg.node(from).bytes(ctx.config.bytes_per_element);
    ctx.config.mean_pair_transfer_ms(bytes)
}

/// A topological order of the DAG (the caller validated it): Kahn's
/// algorithm with the order itself as the queue. Each rank below depends
/// only on the final values of a node's successors (or predecessors), so
/// every topological order gives the same ranks; this one skips the
/// min-id heap of [`apt_dfg::Dag::topo_order`].
fn topo_order(ctx: &PrepareCtx<'_>) -> Vec<NodeId> {
    let dfg = ctx.dfg;
    let mut in_deg: Vec<usize> = dfg.node_ids().map(|n| dfg.in_degree(n)).collect();
    let mut order = Vec::with_capacity(dfg.len());
    order.extend(dfg.node_ids().filter(|n| in_deg[n.index()] == 0));
    let mut next = 0;
    while let Some(&n) = order.get(next) {
        next += 1;
        for &s in dfg.succs(n) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                order.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), dfg.len(), "caller validated the DAG");
    order
}

/// Upward ranks (Eq. 3–4), indexed by node.
pub fn upward_ranks(ctx: &PrepareCtx<'_>) -> Vec<f64> {
    let dfg = ctx.dfg;
    let w = avg_comp_costs(ctx);
    let mut rank = vec![0.0f64; dfg.len()];
    for &n in topo_order(ctx).iter().rev() {
        let longest = dfg
            .succs(n)
            .iter()
            .map(|s| rank[s.index()])
            .reduce(f64::max);
        let tail = longest.map_or(0.0, |r| avg_comm_cost(ctx, n) + r);
        rank[n.index()] = w[n.index()] + tail;
    }
    rank
}

/// Downward ranks (Eq. 5), indexed by node. Entry tasks rank 0.
pub fn downward_ranks(ctx: &PrepareCtx<'_>) -> Vec<f64> {
    let dfg = ctx.dfg;
    let w = avg_comp_costs(ctx);
    let comm: Vec<f64> = dfg.node_ids().map(|n| avg_comm_cost(ctx, n)).collect();
    let mut rank = vec![0.0f64; dfg.len()];
    for &n in &topo_order(ctx) {
        rank[n.index()] = dfg
            .preds(n)
            .iter()
            .map(|p| rank[p.index()] + w[p.index()] + comm[p.index()])
            .reduce(f64::max)
            .unwrap_or(0.0);
    }
    rank
}

/// The optimistic cost table (Eq. 6), flattened `node × nprocs`:
/// `OCT(t_i, p_k)` is at `i * nprocs + k`, in milliseconds.
///
/// `OCT(t_i, p_k)` is the largest, over `t_i`'s successors, of the best-case
/// remaining path length to the exit if `t_i` runs on `p_k` — optimistic
/// because each successor independently picks its own best processor.
/// For one successor that best case is the smaller of staying on `p_k`
/// and the successor's cheapest processor plus `c̄` (when that processor
/// is `p_k` itself, staying is already the smaller), so each successor
/// costs O(nprocs), not O(nprocs²).
pub fn oct_matrix(ctx: &PrepareCtx<'_>) -> Vec<f64> {
    let (dfg, cost) = (ctx.dfg, ctx.cost);
    let nprocs = cost.nprocs();
    let exec = class_exec_ms(ctx);
    let mut oct = vec![0.0f64; dfg.len() * nprocs];
    // `OCT(succ, p_w) + w(succ, p_w)` for every `p_w`.
    let mut reach = [0.0f64; MAX_PROCS];
    for &n in topo_order(ctx).iter().rev() {
        if dfg.out_degree(n) == 0 {
            continue; // exit task: all zeros
        }
        let comm = avg_comm_cost(ctx, n);
        for &succ in dfg.succs(n) {
            let w = &exec[cost.class_of(succ) as usize * nprocs..][..nprocs];
            let succ_oct = &oct[succ.index() * nprocs..][..nprocs];
            let mut cheapest = f64::INFINITY;
            for (pw, slot) in reach[..nprocs].iter_mut().enumerate() {
                *slot = succ_oct[pw] + w[pw];
                cheapest = cheapest.min(*slot);
            }
            let moved = cheapest + comm;
            let row = &mut oct[n.index() * nprocs..][..nprocs];
            for (worst, &stay) in row.iter_mut().zip(&reach[..nprocs]) {
                let best = stay.min(moved);
                if best > *worst {
                    *worst = best;
                }
            }
        }
    }
    oct
}

/// `rank_oct` (Eq. 7): the mean of each OCT row's finite entries (0 when
/// there are none), for a table flattened `node × nprocs`.
pub fn rank_oct(oct: &[f64], nprocs: usize) -> Vec<f64> {
    oct.chunks_exact(nprocs.max(1))
        .map(|row| finite_mean(row).unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::{
        build_type1, build_type2, generate_kernels, StreamConfig, Type2Config,
    };
    use apt_dfg::{Kernel, KernelDag, KernelKind, LookupTable};
    use apt_hetsim::{CostModel, SystemConfig};

    /// Run `f` on the prepare context of `dfg` on `config` under the paper
    /// table.
    fn with_ctx<T>(
        dfg: &KernelDag,
        config: &SystemConfig,
        f: impl FnOnce(&PrepareCtx<'_>) -> T,
    ) -> T {
        let lookup = LookupTable::paper();
        let cost = CostModel::new(dfg, lookup, config);
        f(&PrepareCtx {
            dfg,
            lookup,
            config,
            cost: &cost,
        })
    }

    fn fixture(n: usize, seed: u64) -> KernelDag {
        let kernels = generate_kernels(&StreamConfig::new(n, seed), LookupTable::paper());
        build_type2(&kernels, seed, &Type2Config::default())
    }

    #[test]
    fn upward_rank_is_monotone_along_edges() {
        let dfg = fixture(46, 2);
        let ranks = with_ctx(&dfg, &SystemConfig::paper_4gbps(), upward_ranks);
        for (u, v) in dfg.edges() {
            assert!(
                ranks[u.index()] > ranks[v.index()],
                "rank_u({u}) = {} must exceed rank_u({v}) = {}",
                ranks[u.index()],
                ranks[v.index()]
            );
        }
    }

    #[test]
    fn exit_task_upward_rank_equals_its_avg_cost() {
        // Eq. 4: rank_u(n_exit) = w̄_exit.
        let kernels = vec![
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_4gbps();
        let ranks = with_ctx(&dfg, &config, upward_ranks);
        let w = with_ctx(&dfg, &config, avg_comp_costs);
        let exit = dfg.sinks()[0];
        assert!((ranks[exit.index()] - w[exit.index()]).abs() < 1e-9);
        // cd's average: (17.064 + 2.749 + 0.093) / 3.
        let expected = (17.064 + 2.749 + 0.093) / 3.0;
        assert!((w[exit.index()] - expected).abs() < 1e-9);
    }

    #[test]
    fn upward_rank_adds_the_producers_comm_cost() {
        // srad → gem at 4 GB/s: rank_u(srad) = w̄(srad) + c̄ + rank_u(gem).
        let kernels = vec![
            Kernel::canonical(KernelKind::Srad),
            Kernel::canonical(KernelKind::Gem),
        ];
        let dfg = build_type1(&kernels);
        let (ranks, w, comm) = with_ctx(&dfg, &SystemConfig::paper_4gbps(), |ctx| {
            (
                upward_ranks(ctx),
                avg_comp_costs(ctx),
                avg_comm_cost(ctx, NodeId::new(0)),
            )
        });
        assert!(comm > 0.0);
        assert_eq!(ranks[1], w[1]);
        assert_eq!(ranks[0], w[0] + (comm + w[1]));
    }

    #[test]
    fn avg_comp_cost_skips_processors_without_a_column() {
        // An ASIC has no lookup column: the mean runs over the other three.
        let dfg = build_type1(&[Kernel::new(KernelKind::Cholesky, 250_000)]);
        let config = SystemConfig::paper_4gbps().with_proc(apt_base::ProcKind::Asic);
        let w = with_ctx(&dfg, &config, avg_comp_costs);
        assert_eq!(w[0], (17.064 + 2.749 + 0.093) / 3.0);
    }

    #[test]
    fn downward_rank_is_zero_for_entries_and_monotone() {
        let dfg = fixture(58, 4);
        let ranks = with_ctx(&dfg, &SystemConfig::paper_4gbps(), downward_ranks);
        for n in dfg.sources() {
            assert_eq!(ranks[n.index()], 0.0);
        }
        for (u, v) in dfg.edges() {
            assert!(ranks[v.index()] > ranks[u.index()]);
        }
    }

    #[test]
    fn oct_exit_rows_are_zero() {
        let dfg = fixture(50, 6);
        let config = SystemConfig::paper_4gbps();
        let oct = with_ctx(&dfg, &config, oct_matrix);
        assert_eq!(oct.len(), dfg.len() * config.len());
        for sink in dfg.sinks() {
            let row = &oct[sink.index() * config.len()..][..config.len()];
            assert!(row.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn oct_values_bound_below_by_best_remaining_path() {
        // For a two-node chain u → v: OCT(u, p) = min_w(w(v, p_w) + c) ≥
        // min execution time of v.
        let kernels = vec![
            Kernel::canonical(KernelKind::Bfs),
            Kernel::canonical(KernelKind::Gem),
        ];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_no_transfers();
        let oct = with_ctx(&dfg, &config, oct_matrix);
        // gem's best time is 4001 (GPU); with zero transfers OCT(u,·) = 4001.
        for (p, v) in oct[..config.len()].iter().enumerate() {
            assert!((v - 4001.0).abs() < 1e-9, "oct[0][{p}] = {v}");
        }
    }

    #[test]
    fn oct_stays_on_the_processor_when_moving_costs_more() {
        // srad → gem at 4 GB/s: srad's output takes 134.217728 ms to move.
        // From the GPU, gem stays there (4 001); from the CPU it is cheaper
        // to move to the GPU (4 001 + 134.217728) than to stay (21 592).
        let kernels = vec![
            Kernel::canonical(KernelKind::Srad),
            Kernel::canonical(KernelKind::Gem),
        ];
        let dfg = build_type1(&kernels);
        let oct = with_ctx(&dfg, &SystemConfig::paper_4gbps(), oct_matrix);
        assert_eq!(oct[1], 4001.0);
        assert_eq!(oct[0], 4001.0 + 134.217728);
        assert_eq!(oct[2], 4001.0 + 134.217728);
    }

    #[test]
    fn rank_oct_is_row_mean() {
        let oct = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 4.0, f64::INFINITY, 6.0];
        assert_eq!(rank_oct(&oct, 3), vec![2.0, 0.0, 5.0]);
    }

    #[test]
    fn comm_cost_scales_with_producer_volume() {
        let kernels = vec![
            Kernel::canonical(KernelKind::Srad), // 512 MiB at 4 B/elem
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let dfg = build_type1(&kernels);
        let (big, small) = with_ctx(&dfg, &SystemConfig::paper_4gbps(), |ctx| {
            (
                avg_comm_cost(ctx, NodeId::new(0)),
                avg_comm_cost(ctx, NodeId::new(1)),
            )
        });
        assert!(big > small);
        // srad: 134217728 elements × 4 B / 4 GB/s = 134.217728 ms.
        assert!((big - 134.217728).abs() < 1e-6);
    }
}
