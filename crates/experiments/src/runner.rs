//! Sweep execution with caching.
//!
//! Every table and figure is an aggregation over the same underlying runs
//! (policy × experiment graph × α × link rate). [`SweepCache`] memoizes
//! them one policy column at a time: the ten runs of one policy on one DFG
//! family's experiment graphs at one link rate. Only APT's column varies
//! with α, so the six baseline columns are simulated once per
//! `(family, rate)`, and every α's matrix shares their cells by `Arc`.
//!
//! [`SweepCache::prewarm`] collects the columns that a set of
//! `(DFG type, α, rate)` combinations is missing and simulates them in one
//! wave on a scoped worker pool sized to the machine (`std::thread::scope`
//! workers draining an atomic cursor). `apt-repro all` prewarms the full
//! evaluation grid this way before rendering any artifact.
//!
//! The cache is a value its caller owns, not process state: `apt-repro`
//! builds one per process and hands it to each table and figure in turn,
//! and each test builds its own, so no two tests share a memo.

use crate::workloads::{experiment_graphs, NUM_EXPERIMENTS};
use apt_core::prelude::*;
use apt_metrics::RunSummary;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Link-rate presets used by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rate {
    /// PCIe 2.0 ×8 — 4 GB/s.
    Gbps4,
    /// PCIe 2.0 ×16 — 8 GB/s.
    Gbps8,
}

impl Rate {
    /// Both evaluated rates.
    pub const ALL: [Rate; 2] = [Rate::Gbps4, Rate::Gbps8];

    /// The corresponding system configuration (paper machine).
    pub fn system(self) -> SystemConfig {
        match self {
            Rate::Gbps4 => SystemConfig::paper_4gbps(),
            Rate::Gbps8 => SystemConfig::paper_8gbps(),
        }
    }

    /// Axis label.
    pub const fn label(self) -> &'static str {
        match self {
            Rate::Gbps4 => "4 GBps",
            Rate::Gbps8 => "8 GBps",
        }
    }
}

/// One full policy comparison: `matrix[graph][policy]`, policies in the
/// Tables-8/9/10 column order (APT, MET, SPN, SS, AG, HEFT, PEFT).
///
/// Cells are `Arc`-shared: the six α-independent baseline columns of every
/// matrix at one `(family, rate)` point at the *same* summaries, so a wide
/// α sweep holds one copy of each baseline run instead of one per α.
pub type Matrix = Vec<Vec<Arc<RunSummary>>>;

/// One policy column of a [`Matrix`]: which policy runs over the graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Column {
    /// APT at the α with these bits.
    Apt(u64),
    /// Baseline `i` of [`baseline_factories`] (MET, SPN, SS, AG, HEFT,
    /// PEFT), which never reads α.
    Baseline(usize),
}

impl Column {
    /// The seven columns of the matrix at `alpha`, in [`POLICY_ORDER`].
    fn row(alpha: f64) -> impl Iterator<Item = Column> {
        std::iter::once(Column::Apt(alpha.to_bits()))
            .chain((0..POLICY_ORDER.len() - 1).map(Column::Baseline))
    }

    /// Run this column's policy over one graph.
    fn run(self, dfg: &KernelDag, system: &SystemConfig) -> RunSummary {
        match self {
            Column::Apt(bits) => {
                let alpha = f64::from_bits(bits);
                let make = move || Box::new(Apt::new(alpha)) as Box<dyn Policy>;
                run_single(dfg, &make, system)
            }
            Column::Baseline(i) => run_single(dfg, &baseline_factories()[i].1, system),
        }
    }
}

/// A cache key: one policy column of one family's graphs at one rate.
type ColumnKey = (DfgType, Rate, Column);

/// The memo of the closed policy sweeps: one entry per
/// `(family, rate, column)`, holding that column's run on each of the
/// family's ten experiment graphs.
///
/// The map sits in a `RefCell`, so a cache is not `Sync`: the compiler
/// keeps each one on the thread that owns it, and no lock is needed.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<apt_experiments::runner::SweepCache>();
/// ```
#[derive(Default)]
pub struct SweepCache {
    columns: RefCell<HashMap<ColumnKey, Vec<Arc<RunSummary>>>>,
}

/// Worker count for sweep pools: one thread per core.
fn workers(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(tasks)
        .max(1)
}

/// Execute a flattened task list on a scoped worker pool. `run(i)` computes
/// task `i`; results come back in task order. Shared with the open-stream
/// scenario sweeps.
pub(crate) fn run_pool<T: Send>(tasks: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers(tasks))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break done;
                        }
                        done.push((i, run(i)));
                    }
                })
            })
            .collect();
        // Joining re-raises a worker panic here.
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

impl SweepCache {
    /// Run (or fetch) the full seven-policy comparison for one DFG family
    /// at one α and one link rate.
    pub fn policy_matrix(&self, ty: DfgType, alpha: f64, rate: Rate) -> Matrix {
        self.prewarm(&[(ty, alpha, rate)]);
        let cached = self.columns.borrow();
        let columns: Vec<&Vec<Arc<RunSummary>>> = Column::row(alpha)
            .map(|column| &cached[&(ty, rate, column)])
            .collect();
        (0..NUM_EXPERIMENTS)
            .map(|graph| columns.iter().map(|c| Arc::clone(&c[graph])).collect())
            .collect()
    }

    /// Prewarm the paper's complete evaluation grid (both DFG families ×
    /// the five published α values × both link rates) in one wave.
    pub fn prewarm_paper_grid(&self) {
        let specs: Vec<_> = DfgType::ALL
            .into_iter()
            .flat_map(|ty| PAPER_ALPHAS.map(|alpha| Rate::ALL.map(|rate| (ty, alpha, rate))))
            .flatten()
            .collect();
        self.prewarm(&specs);
    }

    /// Simulate every policy column the `(type, α, rate)` combinations need
    /// and the cache lacks, in one parallel wave over (column, graph) pairs.
    /// One wave amortizes pool ramp-up and tail over the whole sweep, and a
    /// baseline column is simulated once per `(family, rate)` however many
    /// α values the sweep covers.
    pub fn prewarm(&self, specs: &[(DfgType, f64, Rate)]) {
        let mut missing: Vec<ColumnKey> = Vec::new();
        {
            let cached = self.columns.borrow();
            for &(ty, alpha, rate) in specs {
                for key in Column::row(alpha).map(|column| (ty, rate, column)) {
                    if !cached.contains_key(&key) && !missing.contains(&key) {
                        missing.push(key);
                    }
                }
            }
        }
        if missing.is_empty() {
            return;
        }

        // Each family's graphs, generated once for all of its columns.
        let mut graphs: Vec<(DfgType, Vec<KernelDag>)> = Vec::new();
        for &(ty, ..) in &missing {
            if graphs.iter().all(|(t, _)| *t != ty) {
                graphs.push((ty, experiment_graphs(ty)));
            }
        }
        let graphs_of = |ty: DfgType| &graphs.iter().find(|(t, _)| *t == ty).expect("generated").1;
        // Task `i` is graph `i % NUM_EXPERIMENTS` of column `i / NUM_EXPERIMENTS`.
        let cells = run_pool(missing.len() * NUM_EXPERIMENTS, |i| {
            let (ty, rate, column) = missing[i / NUM_EXPERIMENTS];
            Arc::new(column.run(&graphs_of(ty)[i % NUM_EXPERIMENTS], &rate.system()))
        });
        let mut cached = self.columns.borrow_mut();
        for (key, column) in missing.into_iter().zip(cells.chunks(NUM_EXPERIMENTS)) {
            cached.insert(key, column.to_vec());
        }
    }
}

/// Run one freshly constructed policy over one graph.
pub fn run_single(
    dfg: &KernelDag,
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    system: &SystemConfig,
) -> RunSummary {
    let mut policy = make();
    let res = simulate(dfg, system, LookupTable::paper(), policy.as_mut())
        .expect("experiment simulation failed");
    RunSummary::from_result(&res)
}

/// Per-policy average makespan over the ten experiments, in milliseconds
/// (column order as in the matrix).
pub fn avg_makespans_ms(matrix: &Matrix) -> Vec<f64> {
    avg_over_graphs(matrix, |s| s.makespan.as_ms_f64())
}

/// Per-policy average total λ delay over the ten experiments (ms).
pub fn avg_lambda_ms(matrix: &Matrix) -> Vec<f64> {
    avg_over_graphs(matrix, |s| s.lambda_total.as_ms_f64())
}

fn avg_over_graphs(matrix: &Matrix, f: impl Fn(&RunSummary) -> f64) -> Vec<f64> {
    let npol = matrix.first().map_or(0, Vec::len);
    (0..npol)
        .map(|p| matrix.iter().map(|row| f(&row[p])).sum::<f64>() / matrix.len().max(1) as f64)
        .collect()
}

/// The policy column order of [`SweepCache::policy_matrix`].
pub const POLICY_ORDER: [&str; 7] = ["APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"];

/// Index of a policy in the matrix columns.
pub fn policy_index(name: &str) -> usize {
    POLICY_ORDER
        .iter()
        .position(|&p| p == name)
        .unwrap_or_else(|| panic!("unknown policy {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when two matrices hold the very same cells (`Arc::ptr_eq`).
    fn same_cells(a: &Matrix, b: &Matrix) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(ra, rb)| {
                ra.len() == rb.len() && ra.iter().zip(rb).all(|(ca, cb)| Arc::ptr_eq(ca, cb))
            })
    }

    #[test]
    fn matrix_shape_and_cache_identity() {
        let cache = SweepCache::default();
        let a = cache.policy_matrix(DfgType::Type1, 1.5, Rate::Gbps4);
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].len(), 7);
        assert_eq!(a[0][0].policy, "APT(α=1.5)");
        assert_eq!(a[0][1].policy, "MET");
        // Second call is a cache hit: the same cells, not a re-simulation.
        let b = cache.policy_matrix(DfgType::Type1, 1.5, Rate::Gbps4);
        assert!(same_cells(&a, &b));
        // A second cache shares nothing with the first: it simulates the
        // same matrix again into its own allocations.
        let other = SweepCache::default().policy_matrix(DfgType::Type1, 1.5, Rate::Gbps4);
        assert_eq!(a, other);
        let mut pairs = a.iter().flatten().zip(other.iter().flatten());
        assert!(pairs.all(|(x, y)| !Arc::ptr_eq(x, y)));
    }

    #[test]
    fn averages_have_one_entry_per_policy() {
        let m = SweepCache::default().policy_matrix(DfgType::Type1, 1.5, Rate::Gbps4);
        let avg = avg_makespans_ms(&m);
        assert_eq!(avg.len(), 7);
        assert!(avg.iter().all(|&v| v > 0.0));
        let lam = avg_lambda_ms(&m);
        assert_eq!(lam.len(), 7);
    }

    #[test]
    fn policy_index_matches_order() {
        assert_eq!(policy_index("APT"), 0);
        assert_eq!(policy_index("PEFT"), 6);
    }

    #[test]
    fn prewarm_batch_matches_individual_runs() {
        // A batched wave and direct uncached runs agree cell by cell.
        let cache = SweepCache::default();
        cache.prewarm(&[
            (DfgType::Type2, 2.0, Rate::Gbps4),
            (DfgType::Type2, 2.0, Rate::Gbps8),
        ]);
        let cached = cache.policy_matrix(DfgType::Type2, 2.0, Rate::Gbps4);
        let system = Rate::Gbps4.system();
        let factories = apt_core::all_policy_factories(2.0);
        let direct: Matrix = experiment_graphs(DfgType::Type2)
            .iter()
            .map(|g| {
                factories
                    .iter()
                    .map(|(_, make)| Arc::new(run_single(g, make.as_ref(), &system)))
                    .collect()
            })
            .collect();
        assert_eq!(cached, direct);
    }

    #[test]
    fn baseline_columns_are_alpha_independent() {
        // Two α values at one (family, rate): the six baseline columns must
        // be identical (simulated once, one cache entry per column), while
        // the APT column reflects its own α.
        let cache = SweepCache::default();
        let a = cache.policy_matrix(DfgType::Type1, 8.0, Rate::Gbps8);
        let b = cache.policy_matrix(DfgType::Type1, 16.0, Rate::Gbps8);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(&ra[1..], &rb[1..], "baseline columns diverged across α");
            // Not just equal — the *same* allocation: per-α matrices share
            // their baseline cells by Arc, so a wide α sweep stores each
            // baseline run once.
            for (ca, cb) in ra[1..].iter().zip(&rb[1..]) {
                assert!(
                    Arc::ptr_eq(ca, cb),
                    "baseline cell copied instead of shared"
                );
            }
        }
        assert_eq!(a[0][0].policy, "APT(α=8)");
        assert_eq!(b[0][0].policy, "APT(α=16)");
    }

    #[test]
    fn matrix_rows_follow_policy_order() {
        let m = SweepCache::default().policy_matrix(DfgType::Type1, 4.0, Rate::Gbps4);
        assert_eq!(m.len(), NUM_EXPERIMENTS);
        for row in m.iter() {
            assert_eq!(row.len(), POLICY_ORDER.len());
            assert!(row[0].policy.starts_with("APT"));
            for (cell, name) in row[1..].iter().zip(&POLICY_ORDER[1..]) {
                assert_eq!(cell.policy, *name);
            }
        }
    }

    #[test]
    fn prewarm_simulates_one_baseline_block_per_family_and_rate() {
        // A cold wave over two α values at one (family, rate) caches two APT
        // columns and one set of six baseline columns.
        let specs = [
            (DfgType::Type1, 2.0, Rate::Gbps4),
            (DfgType::Type1, 6.0, Rate::Gbps4),
        ];
        let cache = SweepCache::default();
        cache.prewarm(&specs);
        assert_eq!(cache.columns.borrow().len(), 8);
        // Repeating the wave caches nothing new and leaves every cell alone.
        let before = cache.policy_matrix(DfgType::Type1, 2.0, Rate::Gbps4);
        cache.prewarm(&specs);
        assert_eq!(cache.columns.borrow().len(), 8);
        let after = cache.policy_matrix(DfgType::Type1, 2.0, Rate::Gbps4);
        assert!(same_cells(&before, &after));
    }

    #[test]
    fn run_pool_returns_every_result_in_task_order() {
        let calls = AtomicUsize::new(0);
        let out = run_pool(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * i
        });
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(calls.into_inner(), 100, "a task ran twice or not at all");
    }

    #[test]
    fn run_pool_with_no_tasks_runs_nothing() {
        let out: Vec<usize> = run_pool(0, |i| unreachable!("task {i} of none"));
        assert!(out.is_empty());
    }

    #[test]
    fn run_pool_reraises_a_worker_panic() {
        let caught =
            std::panic::catch_unwind(|| run_pool(16, |i| assert_ne!(i, 7, "task 7 fails")));
        assert!(caught.is_err(), "a worker panic was swallowed");
    }

    #[test]
    fn worker_count_is_between_one_and_the_task_count() {
        assert_eq!(workers(0), 1);
        assert_eq!(workers(1), 1);
        let many = workers(10_000);
        assert!((1..=10_000).contains(&many));
    }
}
