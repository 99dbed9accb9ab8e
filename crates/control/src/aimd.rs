//! AIMD admission control: multiplicative decrease / additive increase on
//! the utilization bound ρ, with hysteresis and cooldown.

use crate::{ControlAction, Controller};
use apt_metrics::StreamSnapshot;

/// Gains and guards of [`AimdAdmission`]. The defaults target a 5% miss
/// budget with a 1% low-water mark and halve ρ on violation — sensible for
/// the paper's workloads, but every field is plain data: build your own.
#[derive(Debug, Clone, Copy)]
pub struct AimdConfig {
    /// Windowed miss rate above which ρ is multiplicatively decreased.
    pub miss_setpoint: f64,
    /// Windowed miss rate below which ρ may be additively increased (the
    /// gap up to `miss_setpoint` is the hysteresis band: inside it the
    /// controller holds).
    pub miss_low_water: f64,
    /// Windowed shed rate that must be exceeded for an increase to be
    /// worth probing — if the gate is not shedding, raising ρ admits
    /// nothing extra and only widens the next overshoot.
    pub shed_setpoint: f64,
    /// Multiplicative decrease factor, in (0, 1).
    pub decrease: f64,
    /// Additive increase step (absolute ρ units), > 0.
    pub increase: f64,
    /// Windows to hold (observe without judging) after a decrease, letting
    /// the pre-decrease backlog drain so stale misses cannot trigger a
    /// second cut.
    pub cooldown: u32,
    /// Floor for ρ (never decreased below).
    pub min_bound: f64,
    /// Ceiling for ρ (never increased above).
    pub max_bound: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            miss_setpoint: 0.05,
            miss_low_water: 0.01,
            shed_setpoint: 0.02,
            decrease: 0.5,
            increase: 0.05,
            cooldown: 2,
            min_bound: 0.05,
            max_bound: 8.0,
        }
    }
}

/// AIMD controller over the admission gate's utilization bound ρ
/// (actuated via [`ControlAction::SetAdmissionBound`]).
///
/// Per closed window, in order:
///
/// 1. If a cooldown is pending, consume one window and hold.
/// 2. If `window_miss_rate > miss_setpoint`: ρ ← max(min, ρ·decrease),
///    start the cooldown. Misses mean work *already admitted* exceeds
///    capacity, so back off fast (multiplicative).
/// 3. Else if `window_miss_rate ≤ miss_low_water` **and**
///    `window_shed_rate > shed_setpoint`: ρ ← min(max, ρ+increase).
///    The system is comfortably meeting deadlines while turning work
///    away, so probe upward slowly (additive).
/// 4. Otherwise hold (the hysteresis band).
///
/// Deterministic: state is ρ and the cooldown counter, both pure
/// functions of the snapshot sequence.
#[derive(Debug, Clone)]
pub struct AimdAdmission {
    cfg: AimdConfig,
    bound: f64,
    cooldown_left: u32,
}

impl AimdAdmission {
    /// A controller starting from `initial_bound` — pass the same ρ the
    /// admission gate was built with, so controller state and gate state
    /// agree from window one.
    ///
    /// # Panics
    ///
    /// On non-finite or non-positive gains, `decrease` outside (0, 1),
    /// an inverted hysteresis band (`miss_low_water > miss_setpoint`), or
    /// `initial_bound` outside `[min_bound, max_bound]` — these are
    /// construction bugs, not runtime conditions.
    pub fn new(initial_bound: f64, cfg: AimdConfig) -> Self {
        assert!(
            cfg.miss_setpoint.is_finite() && cfg.miss_setpoint >= 0.0,
            "miss_setpoint must be finite and non-negative"
        );
        assert!(
            (0.0..=cfg.miss_setpoint).contains(&cfg.miss_low_water),
            "miss_low_water must sit in [0, miss_setpoint] (the hysteresis band)"
        );
        assert!(
            cfg.shed_setpoint.is_finite() && cfg.shed_setpoint >= 0.0,
            "shed_setpoint must be finite and non-negative"
        );
        assert!(
            cfg.decrease > 0.0 && cfg.decrease < 1.0,
            "decrease must lie in (0, 1)"
        );
        assert!(
            cfg.increase.is_finite() && cfg.increase > 0.0,
            "increase must be finite and positive"
        );
        assert!(
            cfg.min_bound > 0.0 && cfg.min_bound <= cfg.max_bound && cfg.max_bound.is_finite(),
            "bounds must satisfy 0 < min ≤ max < ∞"
        );
        assert!(
            (cfg.min_bound..=cfg.max_bound).contains(&initial_bound),
            "initial_bound must lie in [min_bound, max_bound]"
        );
        AimdAdmission {
            cfg,
            bound: initial_bound,
            cooldown_left: 0,
        }
    }

    /// The controller's current belief of ρ.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

impl Controller for AimdAdmission {
    fn name(&self) -> String {
        format!(
            "aimd(miss≤{}, ×{}/+{})",
            self.cfg.miss_setpoint, self.cfg.decrease, self.cfg.increase
        )
    }

    fn on_window(&mut self, snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return;
        }
        let miss = snapshot.window_miss_rate();
        if miss > self.cfg.miss_setpoint {
            let next = (self.bound * self.cfg.decrease).max(self.cfg.min_bound);
            self.cooldown_left = self.cfg.cooldown;
            if next < self.bound {
                self.bound = next;
                out.push(ControlAction::SetAdmissionBound(next));
            }
        } else if miss <= self.cfg.miss_low_water
            && snapshot.window_shed_rate() > self.cfg.shed_setpoint
        {
            let next = (self.bound + self.cfg.increase).min(self.cfg.max_bound);
            if next > self.bound {
                self.bound = next;
                out.push(ControlAction::SetAdmissionBound(next));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_snapshot;

    fn drive(ctrl: &mut AimdAdmission, snap: &StreamSnapshot) -> Vec<ControlAction> {
        let mut out = Vec::new();
        ctrl.on_window(snap, &mut out);
        out
    }

    #[test]
    fn misses_trigger_multiplicative_decrease_then_cooldown() {
        let mut ctrl = AimdAdmission::new(1.0, AimdConfig::default());
        // 20% windowed misses: halve ρ.
        let hot = test_snapshot(100, 10, 2, 10, 10, 0);
        assert_eq!(
            drive(&mut ctrl, &hot),
            vec![ControlAction::SetAdmissionBound(0.5)]
        );
        // Cooldown (2 windows): the same hot window is ignored twice.
        assert!(drive(&mut ctrl, &hot).is_empty());
        assert!(drive(&mut ctrl, &hot).is_empty());
        // Then it judges again.
        assert_eq!(
            drive(&mut ctrl, &hot),
            vec![ControlAction::SetAdmissionBound(0.25)]
        );
        assert_eq!(ctrl.bound(), 0.25);
    }

    #[test]
    fn clean_windows_with_shedding_creep_the_bound_back_up() {
        let mut ctrl = AimdAdmission::new(0.5, AimdConfig::default());
        // No misses, 50% shed: probe upward additively.
        let shedding = test_snapshot(100, 10, 0, 10, 10, 10);
        for step in [0.55, 0.60] {
            let up = drive(&mut ctrl, &shedding);
            assert_eq!(up.len(), 1);
            assert!(
                matches!(up[0], ControlAction::SetAdmissionBound(b) if (b - step).abs() < 1e-9),
                "expected ρ≈{step}, got {up:?}"
            );
        }
    }

    #[test]
    fn hysteresis_band_and_quiet_windows_hold() {
        let mut ctrl = AimdAdmission::new(1.0, AimdConfig::default());
        // 3% misses: above low water, below setpoint — hold.
        assert!(drive(&mut ctrl, &test_snapshot(100, 100, 3, 100, 100, 50)).is_empty());
        // Clean but not shedding: nothing to reclaim — hold.
        assert!(drive(&mut ctrl, &test_snapshot(200, 100, 0, 100, 100, 0)).is_empty());
        // Idle window (nothing offered, nothing due): hold.
        assert!(drive(&mut ctrl, &test_snapshot(300, 0, 0, 0, 0, 0)).is_empty());
        assert_eq!(ctrl.bound(), 1.0);
    }

    #[test]
    fn setpoints_at_one_park_the_loop() {
        // No windowed rate exceeds 1, so the loop judges every window and
        // never acts: armed, it leaves the gated stream untouched.
        let mut ctrl = AimdAdmission::new(
            4.0,
            AimdConfig {
                miss_setpoint: 1.0,
                miss_low_water: 1.0,
                shed_setpoint: 1.0,
                ..AimdConfig::default()
            },
        );
        for snap in [
            test_snapshot(100, 10, 10, 10, 10, 0),
            test_snapshot(200, 10, 0, 10, 0, 10),
            test_snapshot(300, 10, 10, 10, 0, 10),
            test_snapshot(400, 0, 0, 0, 0, 0),
        ] {
            assert!(drive(&mut ctrl, &snap).is_empty(), "{snap:?}");
        }
        assert_eq!(ctrl.bound(), 4.0);
    }

    #[test]
    fn bound_saturates_at_the_floor_and_ceiling() {
        let cfg = AimdConfig {
            min_bound: 0.4,
            max_bound: 0.6,
            cooldown: 0,
            ..AimdConfig::default()
        };
        let mut ctrl = AimdAdmission::new(0.5, cfg);
        let hot = test_snapshot(100, 10, 10, 10, 10, 0);
        assert_eq!(
            drive(&mut ctrl, &hot),
            vec![ControlAction::SetAdmissionBound(0.4)]
        );
        // Already at the floor: no action, but the (empty) judgement still
        // happens every window.
        assert!(drive(&mut ctrl, &hot).is_empty());
        let shedding = test_snapshot(200, 10, 0, 10, 5, 5);
        let up = drive(&mut ctrl, &shedding);
        assert_eq!(up.len(), 1);
        assert!(matches!(up[0], ControlAction::SetAdmissionBound(b) if (b - 0.45).abs() < 1e-9));
        for _ in 0..10 {
            drive(&mut ctrl, &shedding);
        }
        assert_eq!(ctrl.bound(), 0.6);
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_hysteresis_band_is_rejected() {
        AimdAdmission::new(
            1.0,
            AimdConfig {
                miss_low_water: 0.2,
                miss_setpoint: 0.1,
                ..AimdConfig::default()
            },
        );
    }
}
