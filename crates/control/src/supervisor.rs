//! Policy supervision: a roster of candidate policies and a
//! windowed-regret supervisor that picks which one runs.

use crate::{ControlAction, Controller};
use apt_base::BaseError;
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, SimView};
use apt_metrics::StreamSnapshot;

/// A roster of policies exposed to the engine as a single [`Policy`]:
/// every member is prepared up front, exactly one (the *active* member)
/// decides, and [`Policy::switch_to`] — driven by [`PolicySupervisor`]
/// through the control plane — changes which one, between events.
///
/// The roster starts on member 0; α reads and writes delegate to the
/// active member, so an [`AlphaController`](crate::AlphaController) keeps
/// tuning whichever policy the supervisor has in play.
pub struct PolicyRoster {
    members: Vec<Box<dyn Policy>>,
    names: Vec<String>,
    active: usize,
}

impl PolicyRoster {
    /// A roster over `members` (must be non-empty); member 0 starts
    /// active.
    pub fn new(members: Vec<Box<dyn Policy>>) -> Self {
        assert!(!members.is_empty(), "a roster needs at least one member");
        let names = members.iter().map(|m| m.name()).collect();
        PolicyRoster {
            members,
            names,
            active: 0,
        }
    }

    /// Index of the member currently deciding.
    pub fn active(&self) -> usize {
        self.active
    }
}

impl Policy for PolicyRoster {
    /// Stable across switches (the *roster* is the policy; which member
    /// is active is run state, recorded in the control log).
    fn name(&self) -> String {
        format!("roster[{}]", self.names.join("|"))
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        for m in &mut self.members {
            m.prepare(ctx)?;
        }
        Ok(())
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        self.members[self.active].decide(view, out);
    }

    fn alpha(&self) -> Option<f64> {
        self.members[self.active].alpha()
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.members[self.active].set_alpha(alpha)
    }

    fn switch_to(&mut self, index: usize) -> bool {
        if index < self.members.len() {
            self.active = index;
            true
        } else {
            false
        }
    }
}

/// Gains of [`PolicySupervisor`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Windows each roster member is given during the initial probe
    /// phase.
    pub probe_windows: u32,
    /// Consecutive windows the incumbent must trail the best-scored
    /// member (by more than `margin`) before the supervisor switches.
    pub patience: u32,
    /// Relative regret margin: a switch needs
    /// `best > active + margin · max(|best|, 1)`. Together with
    /// `patience` this is the switchover guard — one bad window, or a
    /// hair's-width score gap, never moves the roster.
    pub margin: f64,
    /// EWMA weight of the newest window in a member's score, in (0, 1].
    /// 1 scores on the latest window alone; smaller values remember
    /// (and therefore forgive) more history.
    pub ewma: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            probe_windows: 3,
            patience: 3,
            margin: 0.1,
            ewma: 0.5,
        }
    }
}

/// Windowed-regret scheduler of schedulers (actuated via
/// [`ControlAction::SwitchPolicy`] on a [`PolicyRoster`]).
///
/// Each closed window is scored for the member that was active —
/// `(jobs − 2·missed − failed) / max(jobs, 1)`, the same
/// volume-normalized goodput score the α climber uses — and EWMA-blended
/// into that member's running score. The run opens with a **probe
/// phase** (each member gets `probe_windows` windows, in roster order);
/// afterwards the supervisor **exploits**, tracking the *regret* of the
/// incumbent against the best-scored member and switching only when that
/// regret exceeds the margin for `patience` consecutive windows. Ties
/// break toward the lowest roster index, so scoring is deterministic.
///
/// Scores of inactive members age only through the guard: a member that
/// probed badly under a burst is retried only if the incumbent degrades —
/// a deliberate exploitation bias that keeps switches (each one a
/// discontinuity in queue discipline) rare.
#[derive(Debug, Clone)]
pub struct PolicySupervisor {
    cfg: SupervisorConfig,
    scores: Vec<Option<f64>>,
    active: usize,
    probing: bool,
    window_in_slot: u32,
    losing: u32,
}

impl PolicySupervisor {
    /// A supervisor over a roster of `roster_len` members; assumes the
    /// roster starts on member 0 (as [`PolicyRoster::new`] does).
    ///
    /// # Panics
    ///
    /// On an empty roster, zero `probe_windows` or `patience`, a
    /// negative or non-finite `margin`, or `ewma` outside (0, 1].
    pub fn new(roster_len: usize, cfg: SupervisorConfig) -> Self {
        assert!(roster_len > 0, "a supervisor needs a non-empty roster");
        assert!(cfg.probe_windows > 0, "probe_windows must be positive");
        assert!(cfg.patience > 0, "patience must be positive");
        assert!(
            cfg.margin.is_finite() && cfg.margin >= 0.0,
            "margin must be finite and non-negative"
        );
        assert!(
            cfg.ewma > 0.0 && cfg.ewma <= 1.0,
            "ewma weight must lie in (0, 1]"
        );
        PolicySupervisor {
            cfg,
            scores: vec![None; roster_len],
            active: 0,
            probing: true,
            window_in_slot: 0,
            losing: 0,
        }
    }

    /// The member the supervisor believes is active.
    pub fn active(&self) -> usize {
        self.active
    }

    /// True while the initial round-robin probe phase is running.
    pub fn probing(&self) -> bool {
        self.probing
    }

    fn best(&self) -> (usize, f64) {
        let mut best = (0, f64::NEG_INFINITY);
        for (i, s) in self.scores.iter().enumerate() {
            if let Some(s) = *s {
                if s > best.1 {
                    best = (i, s);
                }
            }
        }
        best
    }
}

impl Controller for PolicySupervisor {
    fn name(&self) -> String {
        format!(
            "supervisor({} members, margin={}, patience={})",
            self.scores.len(),
            self.cfg.margin,
            self.cfg.patience
        )
    }

    fn on_window(&mut self, snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        let raw = (snapshot.window_jobs as f64
            - 2.0 * snapshot.window_missed as f64
            - snapshot.window_failed as f64)
            / (snapshot.window_jobs.max(1)) as f64;
        let blended = match self.scores[self.active] {
            Some(prev) => self.cfg.ewma * raw + (1.0 - self.cfg.ewma) * prev,
            None => raw,
        };
        self.scores[self.active] = Some(blended);

        if self.probing {
            self.window_in_slot += 1;
            if self.window_in_slot >= self.cfg.probe_windows {
                self.window_in_slot = 0;
                if self.active + 1 < self.scores.len() {
                    self.active += 1;
                    out.push(ControlAction::SwitchPolicy(self.active));
                } else {
                    self.probing = false;
                    let (best, _) = self.best();
                    if best != self.active {
                        self.active = best;
                        out.push(ControlAction::SwitchPolicy(best));
                    }
                }
            }
            return;
        }

        let (best, best_score) = self.best();
        let incumbent = blended;
        if best != self.active
            && best_score > incumbent + self.cfg.margin * best_score.abs().max(1.0)
        {
            self.losing += 1;
            if self.losing >= self.cfg.patience {
                self.losing = 0;
                self.active = best;
                out.push(ControlAction::SwitchPolicy(best));
            }
        } else {
            self.losing = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_snapshot;
    use apt_core::Apt;
    use apt_policies::Met;

    fn window(sup: &mut PolicySupervisor, missed: u64) -> Vec<ControlAction> {
        let mut out = Vec::new();
        sup.on_window(&test_snapshot(100, 100, missed, 100, 100, 0), &mut out);
        out
    }

    #[test]
    fn probe_phase_round_robins_then_settles_on_the_best() {
        let mut sup = PolicySupervisor::new(
            3,
            SupervisorConfig {
                probe_windows: 2,
                ..SupervisorConfig::default()
            },
        );
        // Member 0 probes clean…
        assert!(window(&mut sup, 0).is_empty());
        assert_eq!(window(&mut sup, 0), vec![ControlAction::SwitchPolicy(1)]);
        // …member 1 misses a third…
        assert!(window(&mut sup, 33).is_empty());
        assert_eq!(window(&mut sup, 33), vec![ControlAction::SwitchPolicy(2)]);
        // …member 2 misses everything: probe ends, best (0) takes over.
        assert!(window(&mut sup, 100).is_empty());
        assert_eq!(window(&mut sup, 100), vec![ControlAction::SwitchPolicy(0)]);
        assert!(!sup.probing());
        assert_eq!(sup.active(), 0);
    }

    #[test]
    fn switchover_is_guarded_by_margin_and_patience() {
        let mut sup = PolicySupervisor::new(
            2,
            SupervisorConfig {
                probe_windows: 1,
                patience: 3,
                margin: 0.1,
                ewma: 1.0,
            },
        );
        // Probe: member 0 clean, member 1 clean — tie breaks to 0.
        assert_eq!(window(&mut sup, 0), vec![ControlAction::SwitchPolicy(1)]);
        assert_eq!(window(&mut sup, 0), vec![ControlAction::SwitchPolicy(0)]);
        // Exploit: two bad windows are tolerated (patience = 3)…
        assert!(window(&mut sup, 50).is_empty());
        assert!(window(&mut sup, 50).is_empty());
        // …a clean window resets the count…
        assert!(window(&mut sup, 0).is_empty());
        assert!(window(&mut sup, 50).is_empty());
        assert!(window(&mut sup, 50).is_empty());
        // …and only the third *consecutive* losing window switches.
        assert_eq!(window(&mut sup, 50), vec![ControlAction::SwitchPolicy(1)]);
        assert_eq!(sup.active(), 1);
    }

    #[test]
    fn single_member_roster_never_switches() {
        let mut sup = PolicySupervisor::new(1, SupervisorConfig::default());
        for _ in 0..20 {
            assert!(window(&mut sup, 100).is_empty());
        }
        assert_eq!(sup.active(), 0);
    }

    #[test]
    fn roster_delegates_alpha_and_bounds_switches() {
        let mut roster = PolicyRoster::new(vec![Box::new(Apt::new(4.0)), Box::new(Met::new())]);
        assert_eq!(roster.active(), 0);
        assert_eq!(roster.names.len(), 2);
        assert!(roster.name().starts_with("roster["));
        // Active member 0 is APT: α reads/writes reach it.
        assert_eq!(Policy::alpha(&roster), Some(4.0));
        assert!(roster.set_alpha(6.0));
        assert_eq!(Policy::alpha(&roster), Some(6.0));
        // Switch to MET: no α knob there.
        assert!(roster.switch_to(1));
        assert_eq!(roster.active(), 1);
        assert_eq!(Policy::alpha(&roster), None);
        assert!(!roster.set_alpha(2.0));
        // Out-of-range switches are rejected and leave the roster put.
        assert!(!roster.switch_to(2));
        assert_eq!(roster.active(), 1);
        assert_eq!(roster.kind(), PolicyKind::Dynamic);
    }

    #[test]
    #[should_panic(expected = "non-empty roster")]
    fn empty_roster_is_rejected() {
        PolicySupervisor::new(0, SupervisorConfig::default());
    }
}
