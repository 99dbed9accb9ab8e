//! Regeneration of the paper's result tables (7–16).
//!
//! Each function prints the same rows the thesis reports. Absolute values
//! depend on the reconstructed kernel streams (see `workloads`), so the
//! quantities to compare against the paper are the *shapes*: which policy
//! wins, by what rough factor, where the α valley sits, and which kernels
//! receive alternative assignments at which α.

use crate::runner::{
    avg_lambda_ms, avg_makespans_ms, policy_index, Rate, SweepCache, POLICY_ORDER,
};
use apt_core::prelude::*;
use apt_metrics::improvement::{improvement_percent, second_best};
use apt_metrics::table::{fmt_ms, fmt_pct, TextTable};

/// Which per-run quantity a comparison table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    Makespan,
    Lambda,
}

/// Table 1 — the application ↔ dwarf membership matrix (§2.4).
pub fn table1() -> String {
    format!(
        "Table 1. Application/dwarf membership (x = belongs; columns are the eight dwarfs of Table 1).\n{}",
        apt_dfg::dwarf::table1_matrix()
    )
}

/// §3.2 metric 5 — "number of occurrences of better solutions": per DFG
/// family, on how many of the ten experiments APT (α=4) strictly beats every
/// dynamic baseline, and every policy including the static ones.
pub fn wins(cache: &SweepCache) -> TextTable {
    let mut t = TextTable::new(
        "Occurrences of better solutions for APT (α=4), out of 10 experiments",
        &["DFG family", "vs dynamic policies", "vs all policies"],
    );
    for ty in DfgType::ALL {
        let matrix = cache.policy_matrix(ty, 4.0, Rate::Gbps4);
        let apt: Vec<f64> = matrix
            .iter()
            .map(|r| r[policy_index("APT")].makespan.as_ms_f64())
            .collect();
        let col = |p: &str| -> Vec<f64> {
            matrix
                .iter()
                .map(|r| r[policy_index(p)].makespan.as_ms_f64())
                .collect()
        };
        let dynamic: Vec<Vec<f64>> = ["MET", "SPN", "SS", "AG"].iter().map(|p| col(p)).collect();
        let all: Vec<Vec<f64>> = ["MET", "SPN", "SS", "AG", "HEFT", "PEFT"]
            .iter()
            .map(|p| col(p))
            .collect();
        t.push_row(vec![
            ty.label().to_string(),
            apt_metrics::better_solution_count(&apt, &dynamic).to_string(),
            apt_metrics::better_solution_count(&apt, &all).to_string(),
        ]);
    }
    t
}

/// Table 7 — execution times of the Figure-5 kernels on each category.
pub fn table7() -> TextTable {
    let lookup = LookupTable::paper();
    let mut t = TextTable::new(
        "Table 7. Execution time of different kernels (ms)",
        &["Kernel", "CPU", "GPU", "FPGA"],
    );
    for kernel in [
        Kernel::canonical(KernelKind::NeedlemanWunsch),
        Kernel::canonical(KernelKind::Bfs),
        Kernel::new(KernelKind::Cholesky, 250_000),
    ] {
        let row = lookup.row(&kernel).expect("paper kernels are in the table");
        t.push_row(vec![
            kernel.kind.tag().to_uppercase(),
            format!("{:.3}", row.times[0].as_ms_f64()),
            format!("{:.3}", row.times[1].as_ms_f64()),
            format!("{:.3}", row.times[2].as_ms_f64()),
        ]);
    }
    t
}

fn comparison_table(
    cache: &SweepCache,
    title: &str,
    ty: DfgType,
    alpha: f64,
    metric: Metric,
) -> TextTable {
    let headers: Vec<&str> = std::iter::once("Graph").chain(POLICY_ORDER).collect();
    let mut t = TextTable::new(title, &headers);
    let matrix = cache.policy_matrix(ty, alpha, Rate::Gbps4);
    for (i, row) in matrix.iter().enumerate() {
        let mut cells = vec![(i + 1).to_string()];
        for s in row {
            let v = match metric {
                Metric::Makespan => s.makespan,
                Metric::Lambda => s.lambda_total,
            };
            cells.push(fmt_ms(v));
        }
        t.push_row(cells);
    }
    t
}

/// Table 8 — total computation time (ms), DFG Type-1, α = 1.5, 4 GB/s.
pub fn table8(cache: &SweepCache) -> TextTable {
    comparison_table(
        cache,
        "Table 8. Total computation time (ms), DFG Type-1, α=1.5",
        DfgType::Type1,
        1.5,
        Metric::Makespan,
    )
}

/// Table 9 — total computation time (ms), DFG Type-2, α = 1.5, 4 GB/s.
pub fn table9(cache: &SweepCache) -> TextTable {
    comparison_table(
        cache,
        "Table 9. Total computation time (ms), DFG Type-2, α=1.5",
        DfgType::Type2,
        1.5,
        Metric::Makespan,
    )
}

/// Table 10 — total computation time (ms), DFG Type-2, α = 4, 4 GB/s.
pub fn table10(cache: &SweepCache) -> TextTable {
    comparison_table(
        cache,
        "Table 10. Total computation time (ms), DFG Type-2, α=4",
        DfgType::Type2,
        4.0,
        Metric::Makespan,
    )
}

/// Table 11 — total λ delay (ms), DFG Type-1, α = 4, 4 GB/s.
pub fn table11(cache: &SweepCache) -> TextTable {
    comparison_table(
        cache,
        "Table 11. Total λ delay (ms), DFG Type-1, α=4",
        DfgType::Type1,
        4.0,
        Metric::Lambda,
    )
}

/// Table 12 — total λ delay (ms), DFG Type-2, α = 4, 4 GB/s.
pub fn table12(cache: &SweepCache) -> TextTable {
    comparison_table(
        cache,
        "Table 12. Total λ delay (ms), DFG Type-2, α=4",
        DfgType::Type2,
        4.0,
        Metric::Lambda,
    )
}

/// The §4.4 improvement of APT over the second-best *dynamic* policy for
/// one family at one α (positive = APT faster). Returns
/// `(improvement_exec_pct, improvement_lambda_pct)`.
///
/// The paper designates a single reference — "the second best policy can
/// only be a dynamic policy", in practice MET, "the closest performing
/// dynamic policy" — and measures both Eq. 13 and Eq. 14 against it. We do
/// the same: the reference is the dynamic baseline with the best *average
/// execution time*, and its λ is the Eq. 14 denominator.
pub fn improvements(cache: &SweepCache, ty: DfgType, alpha: f64) -> (f64, f64) {
    let matrix = cache.policy_matrix(ty, alpha, Rate::Gbps4);
    let exec_avgs = avg_makespans_ms(&matrix);
    let lambda_avgs = avg_lambda_ms(&matrix);
    let apt = policy_index("APT");
    // Dynamic baselines only (the paper's rule).
    let dyn_policies = ["MET", "SPN", "SS", "AG"];
    let exec_refs: Vec<(String, f64)> = dyn_policies
        .iter()
        .map(|&p| (p.to_string(), exec_avgs[policy_index(p)]))
        .collect();
    let (ref_name, exec_ref) = second_best(&exec_refs).expect("nonempty").clone();
    let lambda_ref = lambda_avgs[policy_index(&ref_name)];
    (
        improvement_percent(exec_avgs[apt], exec_ref),
        improvement_percent(lambda_avgs[apt], lambda_ref),
    )
}

/// Table 13 — improvement metrics for APT per α and DFG family (Eq. 13–14).
pub fn table13(cache: &SweepCache) -> TextTable {
    let mut t = TextTable::new(
        "Table 13. Improvement metrics for APT vs second-best dynamic policy (%)",
        &[
            "α",
            "T1 Improvement_exec",
            "T1 Improvement_λ",
            "T2 Improvement_exec",
            "T2 Improvement_λ",
        ],
    );
    for &alpha in &PAPER_ALPHAS {
        let (e1, l1) = improvements(cache, DfgType::Type1, alpha);
        let (e2, l2) = improvements(cache, DfgType::Type2, alpha);
        t.push_row(vec![
            format!("{alpha}"),
            fmt_pct(e1),
            fmt_pct(l1),
            fmt_pct(e2),
            fmt_pct(l2),
        ]);
    }
    t
}

/// Table 14 — the complete lookup table (Appendix A).
pub fn table14() -> TextTable {
    let mut t = TextTable::new(
        "Table 14. Complete lookup table (ms)",
        &["Kernel", "Data Size", "CPU", "GPU", "FPGA"],
    );
    for row in LookupTable::paper().rows() {
        t.push_row(vec![
            row.kind.full_name().to_string(),
            row.data_size.to_string(),
            format!("{:.3}", row.times[0].as_ms_f64()),
            format!("{:.3}", row.times[1].as_ms_f64()),
            format!("{:.3}", row.times[2].as_ms_f64()),
        ]);
    }
    t
}

fn allocation_table(cache: &SweepCache, title: &str, ty: DfgType) -> TextTable {
    let mut t = TextTable::new(
        title,
        &[
            "α",
            "Experiment",
            "Total kernels",
            "Total different assignments",
            "Kernel specific assignments",
        ],
    );
    for &alpha in &PAPER_ALPHAS {
        let matrix = cache.policy_matrix(ty, alpha, Rate::Gbps4);
        for (i, row) in matrix.iter().enumerate() {
            let apt = &row[policy_index("APT")];
            let analysis = apt_core::AllocationAnalysis {
                total_kernels: EXPERIMENT_KERNEL_COUNTS[i],
                total_alternative: apt.alt_assignments,
                by_kind: apt.alt_by_kind.clone(),
            };
            t.push_row(vec![
                format!("{alpha}"),
                (i + 1).to_string(),
                analysis.total_kernels.to_string(),
                analysis.total_alternative.to_string(),
                analysis.kind_column(),
            ]);
        }
    }
    t
}

/// Table 15 — APT kernel-allocation analyses for the DFG Type-1 graphs.
pub fn table15(cache: &SweepCache) -> TextTable {
    allocation_table(
        cache,
        "Table 15. APT kernel allocation analyses, DFG Type-1",
        DfgType::Type1,
    )
}

/// Table 16 — APT kernel-allocation analyses for the DFG Type-2 graphs.
pub fn table16(cache: &SweepCache) -> TextTable {
    allocation_table(
        cache,
        "Table 16. APT kernel allocation analyses, DFG Type-2",
        DfgType::Type2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_shape() {
        let t = table7();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.cell_f64(0, 1), Some(112.0)); // NW on CPU
        assert_eq!(t.cell_f64(1, 3), Some(106.0)); // BFS on FPGA
    }

    #[test]
    fn table8_has_ten_rows_and_apt_tracks_met_at_small_alpha() {
        let t = table8(&SweepCache::default());
        assert_eq!(t.row_count(), 10);
        // At α = 1.5 APT admits almost no alternative, so it schedules
        // like MET: each row's makespans agree within 10%.
        for row in 0..10 {
            let apt = t.cell_f64(row, 1).unwrap();
            let met = t.cell_f64(row, 2).unwrap();
            assert!(
                (apt - met).abs() / met < 0.10,
                "row {row}: APT {apt} vs MET {met} diverge at α=1.5"
            );
        }
    }

    #[test]
    fn table10_apt_beats_met_at_alpha4_on_average() {
        let t = table10(&SweepCache::default());
        let mut apt_total = 0.0;
        let mut met_total = 0.0;
        for row in 0..10 {
            apt_total += t.cell_f64(row, 1).unwrap();
            met_total += t.cell_f64(row, 2).unwrap();
        }
        assert!(
            apt_total < met_total,
            "APT(α=4) should beat MET on Type-2 overall: {apt_total} vs {met_total}"
        );
    }

    #[test]
    fn table13_shows_the_alpha4_peak() {
        let t = table13(&SweepCache::default());
        assert_eq!(t.row_count(), PAPER_ALPHAS.len());
        // α = 4 (row 2) must show positive exec AND λ improvements on both
        // types (the paper's headline: 16–18 % exec, ~20 % λ).
        for col in 1..=4 {
            let v = t.cell_f64(2, col).unwrap();
            assert!(v > 0.0, "α=4 improvement in column {col} is {v}");
        }
        // α = 4 is the best α for execution time (the valley bottom).
        for col in [1, 3] {
            let at4 = t.cell_f64(2, col).unwrap();
            for row in [0, 1, 3, 4] {
                let other = t.cell_f64(row, col).unwrap();
                assert!(
                    at4 >= other,
                    "α=4 ({at4}) not the best in column {col}: row {row} has {other}"
                );
            }
        }
    }

    #[test]
    fn table14_embeds_all_25_rows() {
        let t = table14();
        assert_eq!(t.row_count(), 25);
    }

    #[test]
    fn allocation_tables_grow_with_alpha() {
        let t = table15(&SweepCache::default());
        assert_eq!(t.row_count(), 50); // 5 α × 10 experiments
                                       // Total alternative assignments at α = 4 exceed those at α = 1.5.
        let sum_alpha = |alpha_row_base: usize| -> f64 {
            (0..10)
                .map(|i| t.cell_f64(alpha_row_base + i, 3).unwrap())
                .sum()
        };
        let at_1_5 = sum_alpha(0);
        let at_4 = sum_alpha(20);
        assert!(
            at_4 > at_1_5,
            "α=4 must produce more alternative assignments ({at_4} vs {at_1_5})"
        );
    }
}
