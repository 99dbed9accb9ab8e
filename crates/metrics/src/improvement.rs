//! §4.4 — evaluation of performance enhancement.
//!
//! Eq. 13: `Improvement_exec = (avg_exec_2nd_best − avg_exec_APT) /
//! avg_exec_2nd_best × 100`, and Eq. 14 identically for λ delay. "For better
//! understanding of comparison, the second best policy can only be a dynamic
//! policy like APT." Negative values mean the second-best dynamic policy
//! beat APT at that α (the paper's Table 13 shows this for α ∈ {1.5, 2} on
//! Type-1 and α ∈ {2, 8, 16} on Type-2).

/// Percentage improvement of `candidate` over `reference` (Eq. 13/14):
/// positive when the candidate is faster (smaller).
pub fn improvement_percent(candidate_avg: f64, reference_avg: f64) -> f64 {
    assert!(
        reference_avg > 0.0,
        "reference average must be positive, got {reference_avg}"
    );
    (reference_avg - candidate_avg) / reference_avg * 100.0
}

/// Pick the best (smallest average) entry among `(name, avg)` pairs —
/// used to find the second-best *dynamic* policy once APT is excluded.
/// Ties keep the earliest entry. Returns `None` on empty input.
pub fn second_best(entries: &[(String, f64)]) -> Option<&(String, f64)> {
    entries
        .iter()
        .filter(|(_, avg)| avg.is_finite())
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite averages"))
}

/// §3.2 metric 5 — "number of occurrences of better solutions": on how many
/// experiments the candidate is strictly better (smaller) than *every*
/// competitor. `candidate[i]` and `competitors[j][i]` are per-experiment
/// values.
pub fn better_solution_count(candidate: &[f64], competitors: &[Vec<f64>]) -> usize {
    (0..candidate.len())
        .filter(|&i| {
            competitors
                .iter()
                .all(|c| c.get(i).is_none_or(|&v| candidate[i] < v))
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_matches_eq13_sign_convention() {
        // APT 84, second-best 100 → 16 % improvement (the headline number).
        assert!((improvement_percent(84.0, 100.0) - 16.0).abs() < 1e-12);
        // APT slower → negative, like Table 13's α = 2 rows.
        assert!(improvement_percent(100.3, 100.0) < 0.0);
        // Equal → zero (Table 13's α = 1.5 Type-2 row).
        assert_eq!(improvement_percent(50.0, 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reference_is_rejected() {
        improvement_percent(1.0, 0.0);
    }

    #[test]
    fn second_best_selects_minimum_ignoring_non_finite() {
        let entries = vec![
            ("MET".to_string(), 71.049),
            ("HEFT".to_string(), 73.142),
            ("BROKEN".to_string(), f64::INFINITY),
        ];
        let (name, avg) = second_best(&entries).unwrap();
        assert_eq!(name, "MET");
        assert_eq!(*avg, 71.049);
        assert!(second_best(&[]).is_none());
    }

    /// Ties keep the earliest entry, as documented.
    #[test]
    fn second_best_ties_keep_the_earliest_entry() {
        let entries = vec![
            ("SPN".to_string(), 80.0),
            ("MET".to_string(), 71.0),
            ("SS".to_string(), 71.0),
        ];
        assert_eq!(second_best(&entries).unwrap().0, "MET");
        let all_broken = vec![("NaN".to_string(), f64::NAN)];
        assert!(second_best(&all_broken).is_none());
    }

    /// A competitor with no value for an experiment does not block a win
    /// there.
    #[test]
    fn better_solution_count_skips_missing_competitor_values() {
        let apt = [1.0, 5.0, 3.0];
        let short = vec![2.0];
        let full = vec![4.0, 4.0, 4.0];
        // Experiment 0 beats both; experiment 1 loses to `full`;
        // experiment 2 beats `full` and `short` has no value there.
        assert_eq!(better_solution_count(&apt, &[short, full]), 2);
        assert_eq!(better_solution_count(&[], &[vec![1.0]]), 0);
    }

    #[test]
    fn better_solution_count_requires_strict_wins() {
        let apt = [1.0, 2.0, 3.0];
        let met = vec![2.0, 2.0, 4.0];
        let spn = vec![5.0, 5.0, 5.0];
        // Experiment 0: 1 < 2 and 1 < 5 → win. Experiment 1: tie with MET →
        // no win. Experiment 2: 3 < 4 and 3 < 5 → win.
        assert_eq!(better_solution_count(&apt, &[met, spn]), 2);
        // No competitors → every experiment counts.
        assert_eq!(better_solution_count(&apt, &[]), 3);
    }
}
