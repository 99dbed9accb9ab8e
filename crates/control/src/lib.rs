//! Adaptive control plane for the open-system streaming driver.
//!
//! Every knob the suite exposes so far is *static*: α is fixed at
//! construction (`Apt::new`), the admission bound ρ is fixed when the
//! [`UtilizationBound`] gate is built, and the policy itself never changes
//! mid-run. That is fine when the offered load matches whatever the
//! operator tuned for — and silently wrong the moment a diurnal swing,
//! a bursty MMPP phase change, or a fault episode moves the operating
//! point. This crate closes the loop: a [`Controller`] observes each
//! closed metrics window (a [`StreamSnapshot`]) and emits bounded
//! [`ControlAction`]s that the driver applies *between* events, at window
//! boundaries only.
//!
//! [`UtilizationBound`]: ../apt_slo/struct.UtilizationBound.html
//!
//! # Determinism
//!
//! Controllers are pure functions of the observed window sequence. They
//! own **no RNG stream**: same seed → same arrivals → same windows → same
//! actions, so a controller-armed run replays bit-for-bit, and an armed
//! *inert* controller (the [`InertController`]) leaves the run
//! byte-identical to a controller-off run — both properties are pinned in
//! `apt-stream`'s equivalence suite. Actions are applied at window close,
//! never mid-window, so a window's statistics always describe a single
//! operating point.
//!
//! # The controllers
//!
//! * [`AimdAdmission`] — TCP-style **A**dditive **I**ncrease /
//!   **M**ultiplicative **D**ecrease on the admission bound ρ. When the
//!   *windowed* miss rate crosses the setpoint the bound is cut by a
//!   factor (fast back-off: misses mean admitted work is already beyond
//!   capacity); when misses sit below the low-water mark *and* the gate is
//!   still shedding, the bound creeps back up additively (slow probing).
//!   The gap between the setpoint and the low-water mark is the
//!   **hysteresis band**: inside it the controller holds, so a trace
//!   hovering near the setpoint cannot make it flap. A post-decrease
//!   **cooldown** (in windows) gives the queue time to drain before the
//!   next judgement — without it, the backlog built *before* a decrease
//!   keeps missing *after* it, and the controller would cut ρ to the floor
//!   on stale evidence.
//! * [`AlphaController`] — epoch hill-climb on the APT-family threshold α
//!   (via [`apt_hetsim::Policy::set_alpha`]). It holds each probe for `settle` windows,
//!   scores the epoch (on-time completions net of misses and failures,
//!   normalized by volume), and keeps stepping in the same direction while
//!   the score improves, reversing when it worsens — converging to the
//!   miss-rate knee of the α curve at held goodput without ever knowing
//!   the arrival law.
//! * [`PolicySupervisor`] — a scheduler of schedulers. Over a
//!   [`PolicyRoster`] of candidate dynamic policies it first *probes*
//!   (round-robins each member for a fixed number of windows), then
//!   *exploits* the best, switching only when the incumbent's
//!   EWMA-smoothed **windowed-regret** — the score gap to the current best
//!   roster member — exceeds a relative margin for `patience` consecutive
//!   windows. Margin + patience is what keeps switchover *guarded*: a
//!   single bad window (a burst landing on whoever happens to be active)
//!   cannot trigger a switch.
//!
//! Controllers compose with [`ControllerStack`] (actions concatenate in
//! stack order), and [`InertController`] is the armed no-op used to pin
//! overhead and equivalence.
//!
//! # Bounded authority
//!
//! Every actuator clamps: α is floored at 1 (Eq. 8 of the paper rules out
//! thresholds below the best execution time), ρ is clamped by the gate
//! itself to a strictly positive range, and roster switches are rejected
//! out of range. A runaway controller can therefore degrade a run, never
//! wedge or poison it — the driver records rejected actions in the
//! control log with `applied: false` instead of failing the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apt_base::SimTime;
use apt_metrics::StreamSnapshot;

mod aimd;
mod alpha;
mod supervisor;

pub use aimd::{AimdAdmission, AimdConfig};
pub use alpha::{AlphaConfig, AlphaController};
pub use supervisor::{PolicyRoster, PolicySupervisor, SupervisorConfig};

/// One bounded actuation emitted by a [`Controller`] at a window close.
///
/// The streaming driver applies actions through trait hooks that default
/// to "no such knob" (`Policy::set_alpha` / `Policy::switch_to` /
/// `AdmissionGate::set_utilization_bound`), so any action can land on a
/// run that cannot honour it; the driver then logs it unapplied rather
/// than erroring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Set the active policy's APT-family threshold α (clamped ≥ 1 by the
    /// policy).
    SetAlpha(f64),
    /// Set the admission gate's utilization bound ρ (clamped by the gate).
    SetAdmissionBound(f64),
    /// Switch a [`PolicyRoster`] to member `index`.
    SwitchPolicy(usize),
}

/// One entry of a controlled run's action log: what was asked, when, and
/// whether the run had the knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEvent {
    /// The window-close instant the action was emitted at.
    pub at: SimTime,
    /// The emitted action.
    pub action: ControlAction,
    /// Whether the actuator accepted it (`false` = the run has no such
    /// knob, or the index was out of range).
    pub applied: bool,
}

/// A deterministic, windowed feedback controller.
///
/// The streaming driver calls [`on_window`](Controller::on_window) once
/// per *closed* metrics window, in emission order, with the window's
/// [`StreamSnapshot`]; whatever actions the controller pushes are applied
/// immediately (before the next simulation event) and logged. The final
/// partial window flushed at stream end is **not** delivered — there is
/// nothing left to control.
///
/// Implementations must be deterministic functions of the snapshot
/// sequence (no RNG, no wall clock): this is what keeps controlled runs
/// replayable and the equivalence suite meaningful.
pub trait Controller {
    /// Display name, including the key gains (e.g. `"aimd(miss≤0.05)"`).
    fn name(&self) -> String;

    /// Observe one closed window and push any actions into `out` (handed
    /// over cleared by the driver; push order is application order).
    fn on_window(&mut self, snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>);
}

/// The armed no-op: observes every window, never acts.
///
/// Exists so the overhead and equivalence of the *plumbing* can be pinned
/// independently of any control law — `apt-stream`'s equivalence suite
/// asserts an inert-armed run is byte-identical to a controller-off run.
#[derive(Debug, Default, Clone, Copy)]
pub struct InertController;

impl Controller for InertController {
    fn name(&self) -> String {
        "inert".into()
    }

    fn on_window(&mut self, _snapshot: &StreamSnapshot, _out: &mut Vec<ControlAction>) {}
}

/// Compose controllers: each observes every window, actions concatenate
/// in stack order. Stack an [`AimdAdmission`] over an [`AlphaController`]
/// to run both loops at once — they actuate disjoint knobs, so ordering
/// only matters for the log.
pub struct ControllerStack {
    members: Vec<Box<dyn Controller>>,
}

impl ControllerStack {
    /// A stack over `members` (may be empty, which behaves like
    /// [`InertController`]).
    pub fn new(members: Vec<Box<dyn Controller>>) -> Self {
        ControllerStack { members }
    }
}

impl Controller for ControllerStack {
    fn name(&self) -> String {
        let names: Vec<String> = self.members.iter().map(|m| m.name()).collect();
        format!("stack[{}]", names.join("+"))
    }

    fn on_window(&mut self, snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        for m in &mut self.members {
            m.on_window(snapshot, out);
        }
    }
}

/// Hand-built snapshot for controller unit tests: only the fields the
/// control laws read are parameterized, everything else is zeroed.
#[cfg(test)]
pub(crate) fn test_snapshot(
    end_ms: u64,
    window_jobs: u64,
    window_missed: u64,
    window_deadline_jobs: u64,
    window_admitted: u64,
    window_shed: u64,
) -> StreamSnapshot {
    StreamSnapshot {
        end: SimTime::from_ms(end_ms),
        interval: apt_base::SimDuration::from_ms(100),
        window_jobs,
        total_jobs: window_jobs,
        throughput_jps: 0.0,
        latency_p50_ms: 0.0,
        latency_p90_ms: 0.0,
        latency_p99_ms: 0.0,
        mean_depth: 0.0,
        depth_now: 0,
        window_missed,
        total_missed: window_missed,
        total_deadline_jobs: window_deadline_jobs,
        tardiness_p99_ms: 0.0,
        utilization: vec![],
        window_failed: 0,
        total_failed: 0,
        window_kernel_failures: 0,
        window_retries: 0,
        window_down_ns: 0,
        window_wasted_ns: 0,
        availability: 1.0,
        window_admitted,
        window_shed,
        total_shed: window_shed,
        window_deadline_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_controller_never_acts() {
        let mut ctrl = InertController;
        let mut out = Vec::new();
        for w in 1..=50u64 {
            ctrl.on_window(&test_snapshot(w * 100, 10, 10, 10, 0, 90), &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(ctrl.name(), "inert");
    }

    #[test]
    fn stack_concatenates_member_actions_in_order() {
        struct Fixed(ControlAction);
        impl Controller for Fixed {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
                out.push(self.0);
            }
        }
        let mut stack = ControllerStack::new(vec![
            Box::new(Fixed(ControlAction::SetAlpha(2.0))),
            Box::new(Fixed(ControlAction::SwitchPolicy(1))),
        ]);
        let mut out = Vec::new();
        stack.on_window(&test_snapshot(100, 0, 0, 0, 0, 0), &mut out);
        assert_eq!(
            out,
            vec![ControlAction::SetAlpha(2.0), ControlAction::SwitchPolicy(1)]
        );
        assert_eq!(stack.name(), "stack[fixed+fixed]");
    }

    #[test]
    fn empty_stack_is_inert() {
        let mut stack = ControllerStack::new(vec![]);
        let mut out = Vec::new();
        stack.on_window(&test_snapshot(100, 5, 5, 5, 0, 0), &mut out);
        assert!(out.is_empty());
    }
}
