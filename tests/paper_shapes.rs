//! The *shape* of every headline result in the paper's evaluation must hold
//! on the reconstructed workloads: APT tracks MET at small α, the α valley
//! bottoms at 4, the §4.4 improvements, which kernels take alternatives,
//! the win counts, λ and the link-rate effect.
//!
//! These tests read the same policy matrices as the `apt-repro` tables,
//! each test from a `SweepCache` of its own.

use apt_experiments::runner::{avg_lambda_ms, avg_makespans_ms, policy_index, Rate, SweepCache};
use apt_experiments::tables::improvements;
use apt_suite::prelude::*;

/// At α = 1.5 APT tracks MET (the paper's Tables 8/9 show identical
/// columns), and the greedy dynamic baselines are far behind.
#[test]
fn small_alpha_apt_tracks_met_and_greedy_policies_trail() {
    let cache = SweepCache::default();
    for ty in DfgType::ALL {
        let m = cache.policy_matrix(ty, 1.5, Rate::Gbps4);
        let avg = avg_makespans_ms(&m);
        let apt = avg[policy_index("APT")];
        let met = avg[policy_index("MET")];
        assert!(
            (apt - met).abs() / met < 0.02,
            "{ty:?}: APT {apt} vs MET {met} at α=1.5"
        );
        for p in ["SPN", "SS", "AG"] {
            let v = avg[policy_index(p)];
            assert!(
                v > 2.0 * met,
                "{ty:?}: {p} ({v}) should trail MET ({met}) by far"
            );
        }
        // AG is the worst dynamic policy, as in the paper's tables.
        assert!(
            avg[policy_index("AG")] > avg[policy_index("SPN")],
            "{ty:?}: AG should be the slowest"
        );
    }
}

/// The α sweep exhibits the valley with its minimum at the paper's
/// threshold_brk (α = 4), for both families and both link rates.
#[test]
fn alpha_valley_bottoms_at_four() {
    let cache = SweepCache::default();
    cache.prewarm_paper_grid();
    for ty in DfgType::ALL {
        for rate in Rate::ALL {
            let series: Vec<f64> = PAPER_ALPHAS
                .iter()
                .map(|&a| avg_makespans_ms(&cache.policy_matrix(ty, a, rate))[policy_index("APT")])
                .collect();
            let min_idx = series
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(
                PAPER_ALPHAS[min_idx], 4.0,
                "{ty:?}/{rate:?}: valley at α={} (series {series:?})",
                PAPER_ALPHAS[min_idx]
            );
        }
    }
}

/// At the valley α, APT beats the second-best dynamic policy by a
/// double-digit percentage (paper: 16 % / 18 %; we require ≥ 5 %).
#[test]
fn apt_headline_improvement_holds() {
    let cache = SweepCache::default();
    for ty in DfgType::ALL {
        let (exec, lambda) = improvements(&cache, ty, 4.0);
        assert!(exec >= 5.0, "{ty:?}: exec improvement {exec}% too small");
        assert!(lambda >= 5.0, "{ty:?}: λ improvement {lambda}% too small");
    }
}

/// Alternative assignments grow with α and concentrate on kernels whose
/// best/second-best ratio is below the threshold: nw and bfs admit
/// alternatives at small α; cd (ratio ≈ 29) only at α ≥ 16 — exactly the
/// pattern of the paper's Tables 15/16.
#[test]
fn alternative_assignments_follow_kernel_ratios() {
    let cache = SweepCache::default();
    let at = |alpha: f64| -> (usize, std::collections::BTreeMap<KernelKind, usize>) {
        let m = cache.policy_matrix(DfgType::Type1, alpha, Rate::Gbps4);
        let mut total = 0;
        let mut by_kind = std::collections::BTreeMap::new();
        for row in m.iter() {
            let apt = &row[policy_index("APT")];
            total += apt.alt_assignments;
            for (&k, &n) in &apt.alt_by_kind {
                *by_kind.entry(k).or_insert(0) += n;
            }
        }
        (total, by_kind)
    };

    let (t15, k15) = at(1.5);
    let (t4, k4) = at(4.0);
    let (t16, k16) = at(16.0);

    assert!(t15 < t4, "α=1.5 ({t15}) must admit fewer than α=4 ({t4})");
    assert!(t4 <= t16, "α=4 ({t4}) must admit no more than α=16 ({t16})");

    // nw/bfs dominate the small-α admissions (ratios 1.30 and 1.63).
    let small_alpha_kinds: Vec<KernelKind> = k15.keys().copied().collect();
    for k in &small_alpha_kinds {
        assert!(
            matches!(k, KernelKind::NeedlemanWunsch | KernelKind::Bfs),
            "unexpected kind {k:?} admitted at α=1.5"
        );
    }
    // srad (ratio 3.18) joins at α = 4.
    assert!(
        k4.contains_key(&KernelKind::Srad),
        "srad should admit alternatives at α=4: {k4:?}"
    );
    // cd never admits below α = 16 (ratio ≈ 29.6 at the smallest size).
    assert!(
        !k4.contains_key(&KernelKind::Cholesky),
        "cd admitted too early: {k4:?}"
    );
    let _ = k16; // cd at α=16 is possible but stream-dependent; no assertion.
}

/// §3.2 metric 5 — "number of occurrences of better solutions": at α = 4
/// APT posts the best dynamic makespan on most experiments of both types
/// (paper: 9/10 on Type-1, 9–10/10 on Type-2).
#[test]
fn apt_wins_most_experiments_against_dynamic_baselines() {
    let cache = SweepCache::default();
    for ty in DfgType::ALL {
        let m = cache.policy_matrix(ty, 4.0, Rate::Gbps4);
        let apt: Vec<f64> = m
            .iter()
            .map(|r| r[policy_index("APT")].makespan.as_ms_f64())
            .collect();
        let competitors: Vec<Vec<f64>> = ["MET", "SPN", "SS", "AG"]
            .iter()
            .map(|p| {
                m.iter()
                    .map(|r| r[policy_index(p)].makespan.as_ms_f64())
                    .collect()
            })
            .collect();
        let wins = apt_metrics::better_solution_count(&apt, &competitors);
        assert!(wins >= 7, "{ty:?}: APT won only {wins}/10 experiments");
    }
}

/// λ shape — APT(α=4) reduces total λ delay versus MET on the large
/// majority of experiments (Tables 11/12 show 8–10 of 10).
#[test]
fn apt_lambda_beats_met_on_most_experiments() {
    let cache = SweepCache::default();
    for ty in DfgType::ALL {
        let m = cache.policy_matrix(ty, 4.0, Rate::Gbps4);
        let wins = m
            .iter()
            .filter(|r| r[policy_index("APT")].lambda_total < r[policy_index("MET")].lambda_total)
            .count();
        assert!(wins >= 7, "{ty:?}: APT λ won only {wins}/10");
    }
    // And on average (the Eq. 14 aggregate).
    for ty in DfgType::ALL {
        let m = cache.policy_matrix(ty, 4.0, Rate::Gbps4);
        let lam = avg_lambda_ms(&m);
        assert!(lam[policy_index("APT")] < lam[policy_index("MET")]);
    }
}

/// Faster links help (slightly): at 8 GB/s the average APT makespan is no
/// worse than at 4 GB/s — the paper's "little difference ... with an
/// increase in the data transfer rate" (§4.2.2).
#[test]
fn faster_link_never_hurts_apt_on_average() {
    let cache = SweepCache::default();
    for ty in DfgType::ALL {
        for &alpha in &[1.5, 4.0] {
            let at4 =
                avg_makespans_ms(&cache.policy_matrix(ty, alpha, Rate::Gbps4))[policy_index("APT")];
            let at8 =
                avg_makespans_ms(&cache.policy_matrix(ty, alpha, Rate::Gbps8))[policy_index("APT")];
            assert!(
                at8 <= at4 * 1.03,
                "{ty:?} α={alpha}: 8 GB/s ({at8}) much worse than 4 GB/s ({at4})"
            );
        }
    }
}
