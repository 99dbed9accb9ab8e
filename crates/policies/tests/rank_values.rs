//! Hand-computed verification of the Eq. 3–7 rank machinery on a custom
//! lookup table, where every intermediate value is checked against paper
//! arithmetic done by hand.
//!
//! The scenario: a three-task chain `a → b → c` plus an independent task
//! `d`, with a synthetic lookup table (distinct kernel/size keys so the
//! table can hold arbitrary times) and transfers disabled, so
//! `c̄_ij = 0` and the recurrences collapse to easily checkable sums.

use apt_base::SimDuration;
use apt_dfg::lookup::{LookupRow, LookupTable};
use apt_dfg::{Dag, Kernel, KernelDag, KernelKind};
use apt_hetsim::Policy as _;
use apt_hetsim::{simulate, CostModel, PrepareCtx, SystemConfig};
use apt_policies::ranking::{downward_ranks, oct_matrix, rank_oct, upward_ranks};
use apt_policies::{Heft, Peft};

/// Synthetic table: four "kernels" (mm at four sizes) with hand-picked
/// CPU/GPU/FPGA times in ms.
fn custom_lookup() -> LookupTable {
    let times = [
        (10, [9.0, 12.0, 18.0]), // a: mean 13
        (20, [6.0, 6.0, 6.0]),   // b: mean 6
        (30, [3.0, 30.0, 30.0]), // c: mean 21
        (40, [12.0, 6.0, 24.0]), // d: mean 14
    ];
    LookupTable::from_rows(times.iter().map(|&(size, ms)| LookupRow {
        kind: KernelKind::MatMul,
        data_size: size,
        times: [
            SimDuration::from_table_ms(ms[0]),
            SimDuration::from_table_ms(ms[1]),
            SimDuration::from_table_ms(ms[2]),
        ],
    }))
}

fn chain_dag() -> KernelDag {
    let mut g = Dag::new();
    let a = g.add_node(Kernel::new(KernelKind::MatMul, 10));
    let b = g.add_node(Kernel::new(KernelKind::MatMul, 20));
    let c = g.add_node(Kernel::new(KernelKind::MatMul, 30));
    let _d = g.add_node(Kernel::new(KernelKind::MatMul, 40));
    g.add_edge(a, b).unwrap();
    g.add_edge(b, c).unwrap();
    g
}

fn system() -> SystemConfig {
    SystemConfig::paper_no_transfers()
}

/// Run `f` on the prepare context of the chain under the custom table.
fn with_chain_ctx<T>(f: impl FnOnce(&PrepareCtx<'_>) -> T) -> T {
    let (lookup, dfg, config) = (custom_lookup(), chain_dag(), system());
    let cost = CostModel::new(&dfg, &lookup, &config);
    f(&PrepareCtx {
        dfg: &dfg,
        lookup: &lookup,
        config: &config,
        cost: &cost,
    })
}

#[test]
fn upward_ranks_match_hand_computation() {
    let ranks = with_chain_ctx(upward_ranks);
    // Eq. 3–4 with zero comm: rank_u(c) = 21; rank_u(b) = 6 + 21 = 27;
    // rank_u(a) = 13 + 27 = 40; rank_u(d) = 14.
    assert!((ranks[2] - 21.0).abs() < 1e-9, "rank_u(c) = {}", ranks[2]);
    assert!((ranks[1] - 27.0).abs() < 1e-9, "rank_u(b) = {}", ranks[1]);
    assert!((ranks[0] - 40.0).abs() < 1e-9, "rank_u(a) = {}", ranks[0]);
    assert!((ranks[3] - 14.0).abs() < 1e-9, "rank_u(d) = {}", ranks[3]);
}

#[test]
fn downward_ranks_match_hand_computation() {
    let ranks = with_chain_ctx(downward_ranks);
    // Eq. 5 with zero comm: rank_d(a) = 0; rank_d(b) = 13; rank_d(c) = 19;
    // rank_d(d) = 0.
    assert_eq!(ranks[0], 0.0);
    assert!((ranks[1] - 13.0).abs() < 1e-9);
    assert!((ranks[2] - 19.0).abs() < 1e-9);
    assert_eq!(ranks[3], 0.0);
}

#[test]
fn oct_matches_hand_computation() {
    let oct = with_chain_ctx(oct_matrix);
    let row = |n: usize| &oct[n * 3..(n + 1) * 3];
    // Eq. 6 with zero comm. Exit tasks c and d: all zeros.
    assert_eq!(row(2), vec![0.0, 0.0, 0.0]);
    assert_eq!(row(3), vec![0.0, 0.0, 0.0]);
    // OCT(b, p) = min_w(OCT(c, w) + w(c, w)) = min(3, 30, 30) = 3 for all p.
    assert_eq!(row(1), vec![3.0, 3.0, 3.0]);
    // OCT(a, p) = min_w(OCT(b, w) + w(b, w)) = min(9, 9, 9) = 9 for all p.
    assert_eq!(row(0), vec![9.0, 9.0, 9.0]);
    // rank_oct = row means.
    let ranks = rank_oct(&oct, 3);
    assert_eq!(ranks, vec![9.0, 3.0, 0.0, 0.0]);
}

#[test]
fn heft_plan_on_the_chain_is_optimal_here() {
    // With zero comm, HEFT should run the chain on each task's best device:
    // a→CPU(9), b→any(6), c→CPU(3); d (rank 14) goes to its best (GPU, 6)
    // in parallel. Makespan = 9 + 6 + 3 = 18 ms.
    let lookup = custom_lookup();
    let dfg = chain_dag();
    let res = simulate(&dfg, &system(), &lookup, &mut Heft::new()).unwrap();
    assert_eq!(res.makespan(), SimDuration::from_ms(18));
    res.trace.validate(&dfg).unwrap();
}

#[test]
fn peft_plan_matches_heft_on_this_instance() {
    // The OCT rows are constant per task, so PEFT's O_EFT ordering reduces
    // to HEFT's EFT choice here: same makespan.
    let lookup = custom_lookup();
    let dfg = chain_dag();
    let res = simulate(&dfg, &system(), &lookup, &mut Peft::new()).unwrap();
    assert_eq!(res.makespan(), SimDuration::from_ms(18));
}

#[test]
fn prepare_is_idempotent() {
    // Calling prepare twice rebuilds the plan from scratch (fresh instances
    // are the documented contract, but prepare itself must not corrupt).
    let lookup = custom_lookup();
    let dfg = chain_dag();
    let config = system();
    let cost = CostModel::new(&dfg, &lookup, &config);
    let ctx = PrepareCtx {
        dfg: &dfg,
        lookup: &lookup,
        config: &config,
        cost: &cost,
    };
    let mut heft = Heft::new();
    heft.prepare(ctx).unwrap();
    let first = heft.plan().unwrap().assignment.clone();
    heft.prepare(ctx).unwrap();
    assert_eq!(heft.plan().unwrap().assignment, first);
}
