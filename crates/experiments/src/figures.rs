//! Regeneration of the paper's figures (3–12) as text series.
//!
//! Figures are bar/line charts in the thesis; here each becomes the table of
//! the plotted series (plus, for Figure 5, the exact schedule walk-through).

use crate::runner::{avg_lambda_ms, avg_makespans_ms, policy_index, Rate, SweepCache};
use crate::workloads::figure5_graph;
use apt_core::prelude::*;
use apt_metrics::gantt::state_log;
use apt_metrics::table::TextTable;

/// Figure 3 — an example DFG Type-1 graph (9 kernels), rendered by level.
pub fn fig3() -> String {
    let dfg = generate(
        DfgType::Type1,
        &StreamConfig::new(9, 0xF163),
        LookupTable::paper(),
    );
    format!(
        "Figure 3. An example for DFG Type-1.\n{}",
        apt_dfg::render::render_levels(&dfg)
    )
}

/// Figure 4 — an example DFG Type-2 graph, rendered by level and edges.
pub fn fig4() -> String {
    let dfg = generate(
        DfgType::Type2,
        &StreamConfig::new(16, 0xF164),
        LookupTable::paper(),
    );
    format!(
        "Figure 4. An example for DFG Type-2.\n{}\n{}",
        apt_dfg::render::render_levels(&dfg),
        apt_dfg::render::render_edges(&dfg)
    )
}

/// Figure 5 — the MET vs APT(α=8) schedule walk-through, exact to the paper
/// (end times 318.093 ms vs 212.093 ms).
pub fn fig5() -> String {
    let dfg = figure5_graph();
    let config = SystemConfig::paper_no_transfers();
    let lookup = LookupTable::paper();
    let met = simulate(&dfg, &config, lookup, &mut Met::new()).expect("MET run");
    let apt = simulate(&dfg, &config, lookup, &mut Apt::new(8.0)).expect("APT run");
    format!(
        "Figure 5. MET and APT schedule example.\n\nMET Schedule\n{}\nAPT Schedule (α = 8)\n{}",
        state_log(&met.trace, &config),
        state_log(&apt.trace, &config),
    )
}

/// The four best policies of Figures 6/8 and their matrix columns.
const TOP4: [&str; 4] = ["APT", "MET", "HEFT", "PEFT"];

fn top4_figure(cache: &SweepCache, title: &str, ty: DfgType) -> TextTable {
    let mut t = TextTable::new(title, &["Policy", "Avg execution time (s)"]);
    let matrix = cache.policy_matrix(ty, 1.5, Rate::Gbps4);
    let avgs = avg_makespans_ms(&matrix);
    for name in TOP4 {
        t.push_row(vec![
            name.to_string(),
            format!("{:.3}", avgs[policy_index(name)] / 1000.0),
        ]);
    }
    t
}

/// Figure 6 — average execution time of the top-4 policies, DFG Type-1, α=1.5.
pub fn fig6(cache: &SweepCache) -> TextTable {
    top4_figure(
        cache,
        "Figure 6. Avg. execution time (s), top 4 policies, DFG Type-1 (α=1.5)",
        DfgType::Type1,
    )
}

/// Figure 8 — average execution time of the top-4 policies, DFG Type-2, α=1.5.
pub fn fig8(cache: &SweepCache) -> TextTable {
    top4_figure(
        cache,
        "Figure 8. Avg. execution time (s), top 4 policies, DFG Type-2 (α=1.5)",
        DfgType::Type2,
    )
}

fn alpha_sweep_figure(
    cache: &SweepCache,
    title: &str,
    ty: DfgType,
    value: impl Fn(&[f64]) -> f64,
    metric_of: impl Fn(&crate::runner::Matrix) -> Vec<f64>,
) -> TextTable {
    let mut t = TextTable::new(title, &["α", "4 GBps", "8 GBps"]);
    for &alpha in &PAPER_ALPHAS {
        let mut cells = vec![format!("{alpha}")];
        for rate in Rate::ALL {
            let matrix = cache.policy_matrix(ty, alpha, rate);
            let avgs = metric_of(&matrix);
            cells.push(format!("{:.3}", value(&avgs)));
        }
        t.push_row(cells);
    }
    t
}

/// Figure 7 — APT average execution time (s) vs α and transfer rate, Type-1.
pub fn fig7(cache: &SweepCache) -> TextTable {
    alpha_sweep_figure(
        cache,
        "Figure 7. Avg. APT execution time (s) on varying α and transfer rate, DFG Type-1",
        DfgType::Type1,
        |avgs| avgs[policy_index("APT")] / 1000.0,
        avg_makespans_ms,
    )
}

/// Figure 9 — APT average execution time (s) vs α and transfer rate, Type-2.
pub fn fig9(cache: &SweepCache) -> TextTable {
    alpha_sweep_figure(
        cache,
        "Figure 9. Avg. APT execution time (s) on varying α and transfer rate, DFG Type-2",
        DfgType::Type2,
        |avgs| avgs[policy_index("APT")] / 1000.0,
        avg_makespans_ms,
    )
}

/// Figure 11 — APT average λ delay (s) vs α and transfer rate, Type-1.
pub fn fig11(cache: &SweepCache) -> TextTable {
    alpha_sweep_figure(
        cache,
        "Figure 11. Avg. APT λ delay (s) on varying α and transfer rate, DFG Type-1",
        DfgType::Type1,
        |avgs| avgs[policy_index("APT")] / 1000.0,
        avg_lambda_ms,
    )
}

/// Figure 12 — APT average λ delay (s) vs α and transfer rate, Type-2.
pub fn fig12(cache: &SweepCache) -> TextTable {
    alpha_sweep_figure(
        cache,
        "Figure 12. Avg. APT λ delay (s) on varying α and transfer rate, DFG Type-2",
        DfgType::Type2,
        |avgs| avgs[policy_index("APT")] / 1000.0,
        avg_lambda_ms,
    )
}

fn per_experiment_figure(cache: &SweepCache, title: &str, ty: DfgType) -> TextTable {
    let mut t = TextTable::new(title, &["Experiment", "APT (s)", "MET (s)"]);
    let matrix = cache.policy_matrix(ty, 4.0, Rate::Gbps4);
    for (i, row) in matrix.iter().enumerate() {
        t.push_row(vec![
            (i + 1).to_string(),
            format!("{:.3}", row[policy_index("APT")].makespan.as_secs_f64()),
            format!("{:.3}", row[policy_index("MET")].makespan.as_secs_f64()),
        ]);
    }
    t
}

/// The unnumbered in-text figure of §4.2.1 — per-experiment execution time,
/// MET vs APT(α=4), DFG Type-1.
pub fn fig8b(cache: &SweepCache) -> TextTable {
    per_experiment_figure(
        cache,
        "Figure 8b (in-text, §4.2.1). Execution time per experiment, MET vs APT (α=4), DFG Type-1",
        DfgType::Type1,
    )
}

/// Figure 10 — per-experiment execution time, MET vs APT(α=4), DFG Type-2.
pub fn fig10(cache: &SweepCache) -> TextTable {
    per_experiment_figure(
        cache,
        "Figure 10. Execution time per experiment, MET vs APT (α=4), DFG Type-2",
        DfgType::Type2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reproduces_both_end_times_exactly() {
        let s = fig5();
        assert!(
            s.contains("End time: 318.093"),
            "MET end time missing:\n{s}"
        );
        assert!(
            s.contains("End time: 212.093"),
            "APT end time missing:\n{s}"
        );
        // APT's GPU takes the second bfs at t = 0.
        assert!(s.contains("GPU0:2-bfs"));
    }

    #[test]
    fn fig3_and_fig4_render_structures() {
        let f3 = fig3();
        assert!(f3.contains("level 0 |"));
        assert!(f3.contains("9 kernels, 8 edges, 2 levels"));
        let f4 = fig4();
        assert!(f4.contains("16 kernels"));
    }

    #[test]
    fn fig6_reports_top4_in_seconds() {
        let t = fig6(&SweepCache::default());
        assert_eq!(t.row_count(), 4);
        for r in 0..4 {
            let v = t.cell_f64(r, 1).unwrap();
            assert!(v > 0.0 && v < 10_000.0, "implausible avg {v}");
        }
    }

    #[test]
    fn fig7_shows_the_alpha_valley() {
        // The α valley: APT's average makespan is lowest at an interior α
        // (not at 1.5 and not at 16).
        let t = fig7(&SweepCache::default());
        let series: Vec<f64> = (0..t.row_count())
            .map(|r| t.cell_f64(r, 1).unwrap())
            .collect();
        let min_idx = series
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < series.len() - 1,
            "valley minimum must be interior: series {series:?}"
        );
    }

    #[test]
    fn fig10_apt_wins_most_type2_experiments_at_alpha4() {
        let t = fig10(&SweepCache::default());
        let wins = (0..t.row_count())
            .filter(|&r| t.cell_f64(r, 1).unwrap() < t.cell_f64(r, 2).unwrap())
            .count();
        assert!(wins >= 6, "APT(α=4) won only {wins}/10 Type-2 experiments");
    }
}
