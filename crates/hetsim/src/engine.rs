//! The discrete-event simulation loop.
//!
//! Execution model (one kernel occupies one processor for transfer + exec):
//!
//! 1. At `t = 0` all dependency-free kernels enter the ready set `I`.
//! 2. The policy is consulted to a fixpoint: it may emit any number of
//!    assignments; each removes a kernel from `I` and either *starts* it (if
//!    the processor is idle) or *enqueues* it (per-processor FIFO — AG's
//!    queues). Policies that prefer to wait simply withhold assignments.
//! 3. The earliest pending completion event fires; all completions at that
//!    instant are processed (outputs become resident on their processor,
//!    successors may become ready, queued work starts), then back to 2.
//! 4. The run ends when the event queue is empty. If kernels never ran, the
//!    policy starved them and an error is returned.
//!
//! Starting a kernel on processor `p` at time `t` costs
//! `transfer_in(node, p)` (inputs resident on other processors cross the
//! link, serialized) followed by the lookup-table execution time. λ delay is
//! measured from ready-time to start (§2.5.1). Under a non-uniform
//! [`crate::Topology`] each predecessor's link time is pair-resolved
//! (`location → p`), and with [`LinkContention::PerLink`] the input
//! transfers instead run concurrently across distinct directed links —
//! same-link transfers serialize behind a per-link busy-until clock, and
//! execution starts once the last input lands.
//!
//! ## Hot-path structure
//!
//! Decision edges dominate the simulator's cost, so the loop avoids
//! per-edge rebuild work entirely:
//!
//! * all execution/transfer costs come from the per-run [`CostModel`]
//!   (dense arrays, no map lookups, no allocation),
//! * the [`ProcView`] snapshots live in one `Vec` updated **incrementally**
//!   as kernels start/finish/queue (the seed rebuilt the `Vec` — including
//!   re-averaging each processor's execution history — on every fixpoint
//!   iteration),
//! * the ready set is a bitset ([`ReadySet`]) with O(1) insert/remove and
//!   ascending-id iteration (the seed paid an O(n) `Vec` memmove per
//!   assignment),
//! * a running idle-processor bitset makes `SimView::any_idle` O(1),
//! * the event queue is a [`CalendarQueue`], a deque kept sorted by
//!   `(time, push order)`: a push appends unless it lands before the back
//!   entry, and the events of one instant are popped as a single batch
//!   into a reusable buffer (no per-event heap sift, no peek/pop loop),
//! * policies emit assignments into a per-run [`AssignmentBuf`] arena
//!   instead of returning a fresh `Vec` — together with the batch buffer
//!   this makes the fixpoint loop allocation-free end-to-end once the two
//!   buffers reach steady-state capacity.

use crate::calendar::CalendarQueue;
use crate::cost::CostModel;
use crate::open::ReadyOrder;
use crate::policy::{Assignment, AssignmentBuf, Policy, PrepareCtx};
use crate::ready::ReadySet;
use crate::system::SystemConfig;
use crate::topology::LinkContention;
use crate::trace::{ProcStats, SimResult, TaskRecord, Trace};
use crate::view::{ProcView, SimView};
use apt_base::{BaseError, ProcId, SimDuration, SimTime};
use apt_dfg::{KernelDag, LookupTable, NodeId};
use apt_faults::{FaultPlan, FaultState, FaultTotals, LinkDegradeSpec, RetryPolicy};
use apt_trace::{DecisionRecord, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Window size for the per-processor execution-time history backing AG's
/// `τ_k` estimate (Eq. 2's "last k kernel calls"). Wu et al. leave k as a
/// parameter; 10 is used here and exposed as a named constant so ablations
/// can reference it.
pub const EXEC_HISTORY_WINDOW: usize = 10;

/// Live engine-private state of one processor (the policy-visible fields
/// live in the incrementally maintained [`ProcView`]).
pub(crate) struct ProcCore {
    queue: VecDeque<Assignment>,
    history: VecDeque<SimDuration>,
    /// Running sum of `history`, so the windowed average is O(1) to refresh.
    history_sum: u64,
    stats: ProcStats,
    /// Monotone run token, bumped on every kernel start *and* every fault
    /// kill. `Finish`/`Fail` events carry the token of the start they
    /// belong to; a mismatch marks the event stale (the kernel was killed
    /// by a fault before the event fired) and it is ignored.
    run_token: u32,
    /// Start instant of the in-flight kernel (valid while `running`).
    inflight_start: SimTime,
    /// Its input-transfer duration (valid while `running`).
    inflight_transfer: SimDuration,
    /// Its execution duration (valid while `running`).
    inflight_exec: SimDuration,
}

impl ProcCore {
    fn new() -> Self {
        ProcCore {
            // Lazily allocated: policies that never queue (MET, APT, the
            // static planners on an uncongested machine) pay nothing for it.
            queue: VecDeque::new(),
            history: VecDeque::with_capacity(EXEC_HISTORY_WINDOW),
            history_sum: 0,
            stats: ProcStats::default(),
            run_token: 0,
            inflight_start: SimTime::ZERO,
            inflight_transfer: SimDuration::ZERO,
            inflight_exec: SimDuration::ZERO,
        }
    }

    /// Push one execution into the window and return the refreshed average,
    /// rounded to the **nearest** nanosecond. (The seed truncated, silently
    /// dropping up to `window − 1` sub-ns remainders per query; the rounding
    /// is pinned by `recent_avg_rounds_to_nearest` below.)
    fn push_history(&mut self, exec: SimDuration) -> SimDuration {
        if self.history.len() == EXEC_HISTORY_WINDOW {
            // apt-lint: allow(hot-path-panic, the len == window check one line up guarantees a
            // front element)
            let evicted = self.history.pop_front().expect("window nonempty");
            self.history_sum -= evicted.as_ns();
        }
        self.history.push_back(exec);
        self.history_sum += exec.as_ns();
        let len = self.history.len() as u64;
        SimDuration::from_ns((self.history_sum + len / 2) / len)
    }
}

/// A scheduled simulation event: a kernel completing on a processor, or a
/// kernel arriving in the input stream (streaming mode). Ordering across
/// events is carried entirely by the calendar queue's `(time, push-order)`
/// total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The kernel running on this processor completes. Carries the start's
    /// run token; stale tokens (the kernel was killed by a fault first) are
    /// ignored.
    Finish(ProcId, u32),
    /// This kernel is submitted to the system (its arrival instant).
    Arrive(NodeId),
    /// The kernel running on this processor fails transiently partway
    /// through execution (fault injection). Token-validated like `Finish`.
    Fail(ProcId, u32),
    /// The processor crashes: its in-flight kernel is killed, its queue
    /// drains back to the ready set, and it leaves the availability mask.
    Crash(ProcId),
    /// The processor returns from repair and rejoins the availability mask.
    Repair(ProcId),
    /// A kernel's retry backoff expires and it re-enters the ready set.
    /// Carries the retry token; stale tokens (the job was cancelled or the
    /// slot recycled meanwhile) are ignored.
    Redispatch(NodeId, u32),
    /// A link-degradation episode begins (transfers started during it are
    /// stretched by the plan's slowdown factor).
    DegradeStart,
    /// The current link-degradation episode ends.
    DegradeEnd,
}

/// The read-only inputs of one simulation, threaded through the core so the
/// closed-world engine (which borrows a caller's graph and cost model) and
/// the open-stream engine (which owns a growing slot arena of both) share
/// every line of the event loop.
#[derive(Clone, Copy)]
pub(crate) struct EngineCtx<'r> {
    pub(crate) dfg: &'r KernelDag,
    pub(crate) config: &'r SystemConfig,
    pub(crate) lookup: &'r LookupTable,
    pub(crate) cost: &'r CostModel,
}

/// Live fault-injection state, allocated only when a non-empty
/// [`FaultPlan`] is armed. `None` (the default, and the `FaultPlan::none()`
/// case) leaves the engine byte-identical to a fault-free build: no extra
/// events, no RNG draws, no bookkeeping.
pub(crate) struct FaultRuntime {
    state: FaultState,
    retry: RetryPolicy,
    totals: FaultTotals,
    /// Crash instant of each currently-down processor.
    down_since: Vec<Option<SimTime>>,
    /// Failed execution attempts per node (reset when a slot is recycled).
    attempts: Vec<u32>,
    /// Monotone per-node retry token validating `Redispatch` events. Never
    /// reset on slot recycling, so a stale redispatch can never resurrect
    /// a recycled slot's new occupant.
    retry_token: Vec<u32>,
    /// Node is waiting out a retry backoff (neither ready nor running).
    pending_retry: Vec<bool>,
    /// A link-degradation episode is currently active.
    degraded: bool,
}

impl FaultRuntime {
    fn grow(&mut self, n: usize) {
        if self.attempts.len() < n {
            self.attempts.resize(n, 0);
            self.retry_token.resize(n, 0);
            self.pending_retry.resize(n, false);
        }
    }
}

/// The mutable simulation state: clock, ready set, per-node bookkeeping,
/// per-processor cores and policy-visible snapshots, and the event queue.
/// All node-indexed vectors are dense over the context graph's ids; the
/// open-stream engine grows and recycles them as arena slots.
pub(crate) struct EngineCore {
    pub(crate) now: SimTime,
    pub(crate) ready: ReadySet,
    /// The order `ready` iterates in, stated to policies through
    /// [`SimView::ready_order`]. The closed engine iterates by node id,
    /// which is admission order; the open engine sets it at construction.
    pub(crate) ready_order: ReadyOrder,
    pub(crate) ready_time: Vec<SimTime>,
    pub(crate) remaining_preds: Vec<usize>,
    pub(crate) arrived: Vec<bool>,
    pub(crate) locations: Vec<Option<ProcId>>,
    /// Per-node absolute deadline ([`SimTime::MAX`] = none). Closed-world
    /// workloads carry no deadlines; the open engine stamps each slot with
    /// its job's deadline on admission so policies can read it through
    /// [`SimView::deadline`].
    pub(crate) deadlines: Vec<SimTime>,
    pub(crate) records: Vec<Option<TaskRecord>>,
    pub(crate) procs: Vec<ProcCore>,
    /// Policy-visible snapshots, updated in place on every state change.
    pub(crate) views: Vec<ProcView>,
    /// Running bitset of idle processors (bit i ⇔ `views[i].is_idle()`).
    pub(crate) idle_mask: u64,
    /// Running bitset of *up* processors (bit i ⇔ `!views[i].down`). All
    /// ones unless fault injection crashes a processor.
    pub(crate) up_mask: u64,
    /// Fault-injection state; `None` on fault-free runs (the default).
    pub(crate) faults: Option<Box<FaultRuntime>>,
    /// Armed trace sink; `None` (the default) leaves every emission site a
    /// single never-taken branch, so untraced runs are byte-identical to a
    /// build without tracing (pinned by both equivalence suites).
    pub(crate) tracer: Option<Box<dyn TraceSink>>,
    /// Nodes whose jobs must be cancelled (retry budget exhausted), drained
    /// by the open engine after each advance. Only used in open mode.
    pub(crate) failed_nodes: Vec<NodeId>,
    /// Nodes that scheduled a retry since the last drain (for per-job
    /// retry-budget accounting). Only recorded in open mode.
    pub(crate) retried_nodes: Vec<NodeId>,
    pub(crate) events: CalendarQueue<Event>,
    pub(crate) finished: usize,
    /// Nodes completed since the last [`EngineCore::take_finished`] drain —
    /// how the open-stream engine learns which jobs may retire. Only
    /// recorded when `track_finished` is set (the closed engine skips the
    /// per-completion push entirely).
    pub(crate) finished_nodes: Vec<NodeId>,
    /// Record completions into `finished_nodes` (open-stream mode).
    pub(crate) track_finished: bool,
    /// Per-directed-link busy-until clocks (`src × nprocs + dst`), allocated
    /// only when the machine's topology enables
    /// [`LinkContention::PerLink`]. Empty ⇔ the seed's serialized-transfer
    /// semantics are in force.
    pub(crate) link_busy: Vec<SimTime>,
}

impl EngineCore {
    /// A core with the machine set up and no nodes: the open-stream starting
    /// point. `open` selects the FCFS admission-sequence ready set (required
    /// once arena slots recycle ids) and per-completion retirement tracking.
    pub(crate) fn for_machine(config: &SystemConfig, open: bool) -> EngineCore {
        let views: Vec<ProcView> = config
            .proc_ids()
            .map(|id| ProcView {
                id,
                kind: config.kind_of(id),
                running: None,
                busy_until: SimTime::ZERO,
                queue_len: 0,
                recent_avg_exec: SimDuration::ZERO,
                down: false,
            })
            .collect();
        EngineCore {
            now: SimTime::ZERO,
            ready: if open {
                ReadySet::new_ordered(0)
            } else {
                ReadySet::new(0)
            },
            ready_order: ReadyOrder::Admission,
            ready_time: Vec::new(),
            remaining_preds: Vec::new(),
            arrived: Vec::new(),
            locations: Vec::new(),
            deadlines: Vec::new(),
            records: Vec::new(),
            procs: (0..config.len()).map(|_| ProcCore::new()).collect(),
            idle_mask: if views.is_empty() {
                0
            } else {
                u64::MAX >> (64 - views.len())
            },
            up_mask: if views.is_empty() {
                0
            } else {
                u64::MAX >> (64 - views.len())
            },
            faults: None,
            tracer: None,
            failed_nodes: Vec::new(),
            retried_nodes: Vec::new(),
            views,
            events: CalendarQueue::new(),
            finished: 0,
            finished_nodes: Vec::new(),
            track_finished: open,
            link_busy: match config.contention() {
                LinkContention::Off => Vec::new(),
                LinkContention::PerLink => vec![SimTime::ZERO; config.len() * config.len()],
            },
        }
    }

    /// A core loaded with the complete closed-world workload: every node of
    /// the context graph exists up front, submitted at its arrival instant.
    fn for_closed_workload(ctx: EngineCtx<'_>, arrivals: &[SimTime]) -> EngineCore {
        let n = ctx.dfg.len();
        debug_assert_eq!(arrivals.len(), n);
        let mut core = EngineCore::for_machine(ctx.config, false);
        core.ready.grow(n);
        for node in ctx.dfg.node_ids() {
            core.ready.set_class(node, ctx.cost.class_of(node));
        }
        core.ready_time = vec![SimTime::ZERO; n];
        core.remaining_preds = ctx.dfg.node_ids().map(|id| ctx.dfg.in_degree(id)).collect();
        core.arrived = arrivals.iter().map(|&t| t == SimTime::ZERO).collect();
        core.locations = vec![None; n];
        core.deadlines = vec![SimTime::MAX; n];
        core.records = vec![None; n];
        for node in ctx.dfg.node_ids() {
            if core.remaining_preds[node.index()] == 0 && core.arrived[node.index()] {
                core.ready.insert(node);
            }
        }
        // Pushed in `(time, node)` order, so every push appends and each
        // instant's batch lists its arrivals in node order, ahead of any
        // completion pushed there later.
        let mut pending: Vec<(SimTime, NodeId)> = arrivals
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t > SimTime::ZERO)
            .map(|(i, &t)| (t, NodeId::new(i)))
            .collect();
        pending.sort_unstable();
        for (t, node) in pending {
            core.ready_time[node.index()] = t; // provisional; finalized on readiness
            core.events.push(t, Event::Arrive(node));
        }
        core
    }

    /// Emit one trace event if a sink is armed. The `is_some` branch is the
    /// entire untraced cost; callers constructing multi-field events guard
    /// with [`tracing`](EngineCore::tracing) first so argument evaluation
    /// is skipped too.
    #[inline]
    pub(crate) fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(ev);
        }
    }

    /// True when a trace sink is armed.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Arm a trace sink: every subsequent engine event is recorded into it.
    pub(crate) fn arm_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Some(sink);
    }

    /// The armed sink, for driver-level emission.
    pub(crate) fn tracer_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.tracer.as_deref_mut()
    }

    /// Disarm and hand back the sink (end of a traced run).
    pub(crate) fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take()
    }

    /// Mutate one processor's view, keeping the running idle bitset exact.
    #[inline]
    fn update_view(&mut self, proc: ProcId, f: impl FnOnce(&mut ProcView)) {
        let view = &mut self.views[proc.index()];
        let was_idle = view.is_idle();
        f(view);
        match (was_idle, view.is_idle()) {
            (true, false) => self.idle_mask &= !(1 << proc.index()),
            (false, true) => self.idle_mask |= 1 << proc.index(),
            _ => {}
        }
    }

    /// Arm a fault plan: derive its RNG stream and schedule the first
    /// crash/degradation events from the current instant. A
    /// [`FaultPlan::none()`] plan is a no-op, leaving the engine on the
    /// fault-free code path (byte-identical traces).
    pub(crate) fn arm_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        if plan.is_none() {
            return;
        }
        let mut state = FaultState::new(plan);
        let nprocs = self.views.len();
        let mut runtime = Box::new(FaultRuntime {
            // Degenerate retry knobs (`backoff_factor: 0`, `max_attempts: 0`)
            // are clamped to their documented effective values up front.
            retry: retry.normalized(),
            totals: FaultTotals::default(),
            down_since: vec![None; nprocs],
            attempts: Vec::new(),
            retry_token: Vec::new(),
            pending_retry: Vec::new(),
            degraded: false,
            state: FaultState::new(plan),
        });
        runtime.grow(self.records.len());
        // First crash per processor, in ascending id order (deterministic
        // draw order); first degradation episode after that.
        for p in 0..nprocs {
            if let Some(gap) = state.next_crash_gap() {
                self.events
                    .push(self.now + gap, Event::Crash(ProcId::new(p)));
            }
        }
        if let Some(gap) = state.next_degrade_gap() {
            self.events.push(self.now + gap, Event::DegradeStart);
        }
        runtime.state = state;
        self.faults = Some(runtime);
    }

    /// Reset the per-slot fault bookkeeping when the open engine binds a
    /// (new or recycled) arena slot. The retry token is deliberately *not*
    /// reset — see [`FaultRuntime::retry_token`].
    pub(crate) fn fault_reset_slot(&mut self, slot: NodeId, len: usize) {
        if let Some(f) = self.faults.as_mut() {
            f.grow(len);
            f.attempts[slot.index()] = 0;
            f.pending_retry[slot.index()] = false;
        }
    }

    /// Clear a pending retry (job cancellation): the node's queued
    /// `Redispatch` event becomes stale and will be ignored.
    pub(crate) fn fault_cancel_pending(&mut self, slot: NodeId) {
        if let Some(f) = self.faults.as_mut() {
            f.pending_retry[slot.index()] = false;
        }
    }

    /// Count one job shed after exhausting its retry budget.
    pub(crate) fn note_job_failed(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.totals.jobs_failed += 1;
        }
    }

    /// Fault totals as of the current instant, including the partial
    /// downtime of processors still under repair. All zeros on fault-free
    /// runs.
    pub(crate) fn fault_totals(&self) -> FaultTotals {
        match &self.faults {
            None => FaultTotals::default(),
            Some(f) => {
                let mut t = f.totals;
                for since in self.views.iter().zip(&f.down_since).filter_map(|(v, s)| {
                    debug_assert_eq!(v.down, s.is_some());
                    *s
                }) {
                    t.down_ns += self.now.saturating_since(since).as_ns();
                }
                t
            }
        }
    }

    /// Kill the kernel in flight on `proc`, if any: invalidate its pending
    /// `Finish`/`Fail` event, clear its record, and rewind the processor's
    /// optimistically pre-credited stats to the occupancy actually elapsed
    /// (transfer first, then execution). The elapsed occupancy is counted
    /// as wasted work. Returns the killed node.
    fn kill_running(&mut self, proc: ProcId) -> Option<NodeId> {
        let node = self.views[proc.index()].running?;
        let core = &mut self.procs[proc.index()];
        core.run_token = core.run_token.wrapping_add(1);
        let elapsed = self.now.saturating_since(core.inflight_start);
        let transfer_done = elapsed.min(core.inflight_transfer);
        let exec_done = elapsed - transfer_done;
        debug_assert!(exec_done <= core.inflight_exec);
        core.stats.busy = core.stats.busy - core.inflight_exec + exec_done;
        core.stats.transfer = core.stats.transfer - core.inflight_transfer + transfer_done;
        core.stats.kernels -= 1;
        if let Some(f) = self.faults.as_mut() {
            f.totals.wasted_ns += elapsed.as_ns();
        }
        self.records[node.index()] = None;
        self.update_view(proc, |v| v.running = None);
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::KernelKilled {
                node: node.index() as u32,
                proc,
                at,
            });
        }
        Some(node)
    }

    /// Handle a (token-valid) transient failure on `proc`: kill the
    /// attempt, then either schedule a retry (through backoff and the
    /// normal ready path) or — when the attempt budget is spent — fail the
    /// run (closed mode) or mark the node for job cancellation (open mode).
    fn fail_on(&mut self, ctx: EngineCtx<'_>, proc: ProcId, token: u32) -> Result<(), BaseError> {
        if self.procs[proc.index()].run_token != token {
            return Ok(()); // stale: the kernel was crashed away first
        }
        let node = self
            .kill_running(proc)
            // apt-lint: allow(hot-path-panic, the run_token matched, so the processor is
            // provably busy with this kernel)
            .expect("token-valid failure on an idle processor");
        let (attempts, retry) = {
            let f = self
                .faults
                .as_mut()
                // apt-lint: allow(hot-path-panic, transient-failure events exist only when the
                // fault runtime is armed)
                .expect("transient failure without faults armed");
            f.totals.kernel_failures += 1;
            f.attempts[node.index()] += 1;
            (f.attempts[node.index()], f.retry)
        };
        if attempts >= retry.max_attempts {
            if self.track_finished {
                self.failed_nodes.push(node);
            } else {
                return Err(BaseError::RetriesExhausted {
                    node: node.index(),
                    attempts,
                });
            }
        } else {
            let (backoff, tok) = {
                // apt-lint: allow(hot-path-panic, faults proven armed a few lines up in this
                // same handler)
                let f = self.faults.as_mut().expect("checked above");
                f.totals.retries += 1;
                let backoff = f.state.backoff(&retry, attempts + 1);
                let tok = if backoff.is_zero() {
                    0
                } else {
                    f.retry_token[node.index()] += 1;
                    f.pending_retry[node.index()] = true;
                    f.retry_token[node.index()]
                };
                (backoff, tok)
            };
            if self.tracing() {
                let at = self.now;
                self.trace(TraceEvent::RetryAttempt {
                    node: node.index() as u32,
                    at,
                    attempt: attempts,
                    backoff,
                });
            }
            if backoff.is_zero() {
                self.make_ready(node);
            } else {
                let at = self.now + backoff;
                self.events.push(at, Event::Redispatch(node, tok));
            }
            if self.track_finished {
                self.retried_nodes.push(node);
            }
        }
        // The processor itself is fine — start its queued work, if any.
        self.start_queued(ctx, proc)
    }

    /// Handle a processor crash: orphan the in-flight kernel and every
    /// queued assignment back into the ready set (the policy re-places them
    /// — APT's alternative-within-threshold is the failover), mask the
    /// processor out of availability, and schedule its repair.
    fn crash(&mut self, proc: ProcId) {
        if let Some(node) = self.kill_running(proc) {
            // A processor death is not the kernel's fault: re-dispatch
            // without charging a retry attempt.
            self.make_ready(node);
            if let Some(f) = self.faults.as_mut() {
                f.totals.orphaned += 1;
            }
        }
        while let Some(a) = self.procs[proc.index()].queue.pop_front() {
            self.update_view(proc, |v| v.queue_len -= 1);
            self.make_ready(a.node);
        }
        self.update_view(proc, |v| v.down = true);
        self.up_mask &= !(1 << proc.index());
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::ProcCrash { proc, at });
        }
        let now = self.now;
        let repair = {
            // apt-lint: allow(hot-path-panic, Crash events are only scheduled by the armed
            // fault runtime)
            let f = self.faults.as_mut().expect("crash without faults armed");
            debug_assert!(f.down_since[proc.index()].is_none(), "crash of a down proc");
            f.totals.crashes += 1;
            f.down_since[proc.index()] = Some(now);
            f.state.repair_time()
        };
        self.events.push(now + repair, Event::Repair(proc));
    }

    /// Handle a repair: the processor rejoins the availability (and idle)
    /// masks, its downtime is accounted, and its next crash is scheduled.
    fn repair(&mut self, proc: ProcId) {
        self.update_view(proc, |v| v.down = false);
        self.up_mask |= 1 << proc.index();
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::ProcRepair { proc, at });
        }
        let now = self.now;
        let gap = {
            // apt-lint: allow(hot-path-panic, Repair events are only scheduled by crash(),
            // which requires armed faults)
            let f = self.faults.as_mut().expect("repair without faults armed");
            f.totals.repairs += 1;
            let since = f.down_since[proc.index()]
                .take()
                // apt-lint: allow(hot-path-panic, crash() recorded down_since before scheduling
                // this Repair)
                .expect("repair of a processor that never crashed");
            f.totals.down_ns += now.saturating_since(since).as_ns();
            f.state
                .next_crash_gap()
                // apt-lint: allow(hot-path-panic, a Repair event implies a crash spec exists to
                // draw the next gap from)
                .expect("repair without a crash spec")
        };
        self.events.push(now + gap, Event::Crash(proc));
    }

    /// A retry backoff expired: if the token is current and the retry is
    /// still pending (the job was not cancelled meanwhile), the node
    /// re-enters the ready set.
    fn redispatch(&mut self, node: NodeId, token: u32) {
        {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if f.retry_token[node.index()] != token || !f.pending_retry[node.index()] {
                return; // stale: job cancelled or slot recycled
            }
            f.pending_retry[node.index()] = false;
        }
        self.make_ready(node);
    }

    fn degrade_start(&mut self) {
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::LinkDegrade { at, active: true });
        }
        let now = self.now;
        let duration = {
            // apt-lint: allow(hot-path-panic, DegradeStart events are only scheduled by the
            // armed fault runtime)
            let f = self.faults.as_mut().expect("degrade without faults armed");
            f.degraded = true;
            f.state
                .plan()
                .degrade
                // apt-lint: allow(hot-path-panic, a DegradeStart event implies the degrade spec
                // exists)
                .expect("degrade without a spec")
                .duration
        };
        self.events.push(now + duration, Event::DegradeEnd);
    }

    fn degrade_end(&mut self) {
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::LinkDegrade { at, active: false });
        }
        let now = self.now;
        let gap = {
            // apt-lint: allow(hot-path-panic, DegradeEnd events are only scheduled by
            // degrade_start(), faults armed)
            let f = self.faults.as_mut().expect("degrade without faults armed");
            f.degraded = false;
            f.state
                .next_degrade_gap()
                // apt-lint: allow(hot-path-panic, a DegradeEnd event implies the degrade spec
                // exists)
                .expect("degrade end without a spec")
        };
        self.events.push(now + gap, Event::DegradeStart);
    }

    /// The active link-degradation spec, if an episode is in progress.
    #[inline]
    fn active_degrade(&self) -> Option<LinkDegradeSpec> {
        match &self.faults {
            Some(f) if f.degraded => f.state.plan().degrade,
            _ => None,
        }
    }

    /// Stretch one link transfer by the active degradation episode, if the
    /// directed pair is affected.
    #[inline]
    fn degrade_transfer(
        dur: SimDuration,
        spec: &LinkDegradeSpec,
        src: ProcId,
        dst: ProcId,
    ) -> SimDuration {
        if spec.pair.is_none_or(|p| p == (src, dst)) {
            SimDuration::from_ns(dur.as_ns().saturating_mul(spec.slowdown as u64))
        } else {
            dur
        }
    }

    /// Withdraw one arena slot from the engine wherever it currently is —
    /// ready set, a processor queue, in flight, or awaiting a retry — used
    /// by open-engine job cancellation after a kernel exhausts its retry
    /// budget. A kernel killed mid-run frees its processor for queued work.
    pub(crate) fn cancel_slot(
        &mut self,
        ctx: EngineCtx<'_>,
        slot: NodeId,
    ) -> Result<(), BaseError> {
        self.ready.remove(slot);
        self.fault_cancel_pending(slot);
        let running_on = (0..self.views.len()).find(|&p| self.views[p].running == Some(slot));
        if let Some(p) = running_on {
            let proc = ProcId::new(p);
            let killed = self.kill_running(proc);
            debug_assert_eq!(killed, Some(slot));
            self.start_queued(ctx, proc)?;
        } else {
            for p in 0..self.procs.len() {
                if let Some(pos) = self.procs[p].queue.iter().position(|a| a.node == slot) {
                    self.procs[p].queue.remove(pos);
                    self.update_view(ProcId::new(p), |v| v.queue_len -= 1);
                    break;
                }
            }
        }
        self.records[slot.index()] = None;
        self.locations[slot.index()] = None;
        Ok(())
    }

    /// Pop and start the queued head on a (still-up) processor that just
    /// went idle outside the normal finish path.
    pub(crate) fn start_queued(
        &mut self,
        ctx: EngineCtx<'_>,
        proc: ProcId,
    ) -> Result<(), BaseError> {
        if let Some(next) = self.procs[proc.index()].queue.pop_front() {
            self.update_view(proc, |v| v.queue_len -= 1);
            self.start_node(ctx, next, proc)?;
        }
        Ok(())
    }

    /// Input-transfer duration for starting `node` on `proc` now. One shared
    /// implementation with `SimView::transfer_in_time`, so the engine's
    /// recorded transfers can never diverge from the costs policies decided
    /// on.
    #[inline]
    fn transfer_in(&self, ctx: EngineCtx<'_>, node: NodeId, proc: ProcId) -> SimDuration {
        debug_assert!(
            ctx.dfg
                .preds(node)
                .iter()
                .all(|p| self.locations[p.index()].is_some()),
            "started a kernel whose predecessor never finished"
        );
        ctx.cost
            .transfer_in_time(ctx.dfg, &self.locations, node, proc)
    }

    /// The instant every input of `node` has landed on `proc` when the
    /// transfer phase starts at `start` off the fast path: under an active
    /// link-degradation episode (`degrade`, stretching each affected
    /// transfer) and/or [`LinkContention::PerLink`]. Without per-link
    /// clocks the inputs move serially, as in [`EngineCore::transfer_in`].
    /// With them, transfers run concurrently across distinct directed links
    /// and serialize on one link behind its busy-until clock. Predecessor
    /// order is the graph's deterministic edge order, so link claims — and
    /// with them the schedule — are reproducible.
    fn walked_transfer_end(
        &mut self,
        ctx: EngineCtx<'_>,
        node: NodeId,
        proc: ProcId,
        start: SimTime,
        degrade: Option<LinkDegradeSpec>,
    ) -> SimTime {
        let np = self.views.len();
        let contended = !self.link_busy.is_empty();
        let mut landed = start;
        for &pred in ctx.dfg.preds(node) {
            let loc = self.locations[pred.index()]
                // apt-lint: allow(hot-path-panic, DAG edges force every predecessor to finish
                // before a kernel starts)
                .expect("started a kernel whose predecessor never finished");
            if loc == proc {
                continue;
            }
            let mut dur = ctx.cost.pair_transfer_time(pred, loc, proc);
            if let Some(spec) = &degrade {
                dur = Self::degrade_transfer(dur, spec, loc, proc);
            }
            if !contended {
                landed += dur;
            } else if !dur.is_zero() {
                // Zero-byte moves never occupy a link.
                let link = loc.index() * np + proc.index();
                let begin = self.link_busy[link].max(start);
                let end = begin + dur;
                self.link_busy[link] = end;
                landed = landed.max(end);
            }
        }
        landed
    }

    #[inline]
    fn start_node(
        &mut self,
        ctx: EngineCtx<'_>,
        a: Assignment,
        proc: ProcId,
    ) -> Result<(), BaseError> {
        let node = a.node;
        let exec = ctx
            .cost
            .exec_time(node, proc)
            .ok_or_else(|| BaseError::InvalidAssignment {
                reason: format!(
                    "kernel {} cannot run on {} ({})",
                    ctx.dfg.node(node),
                    proc,
                    ctx.config.kind_of(proc)
                ),
            })?;
        let start = self.now;
        let degrade = self.active_degrade();
        let exec_start = if degrade.is_none() && self.link_busy.is_empty() {
            start + self.transfer_in(ctx, node, proc)
        } else {
            self.walked_transfer_end(ctx, node, proc, start, degrade)
        };
        let transfer = exec_start.saturating_since(start);
        let finish = exec_start + exec;
        self.records[node.index()] = Some(TaskRecord {
            node,
            kernel: *ctx.dfg.node(node),
            proc,
            ready: self.ready_time[node.index()],
            start,
            exec_start,
            finish,
            alt: a.alt,
        });
        if self.tracing() {
            let node32 = node.index() as u32;
            self.trace(TraceEvent::KernelDispatch {
                node: node32,
                kernel: *ctx.dfg.node(node),
                proc,
                at: start,
                alt: a.alt,
            });
            if !transfer.is_zero() {
                self.trace(TraceEvent::TransferStart {
                    node: node32,
                    proc,
                    at: start,
                    until: exec_start,
                });
            }
            self.trace(TraceEvent::ExecStart {
                node: node32,
                proc,
                at: exec_start,
            });
        }
        let core = &mut self.procs[proc.index()];
        core.stats.busy += exec;
        core.stats.transfer += transfer;
        core.stats.kernels += 1;
        core.run_token = core.run_token.wrapping_add(1);
        core.inflight_start = start;
        core.inflight_transfer = transfer;
        core.inflight_exec = exec;
        let token = core.run_token;
        let avg = core.push_history(exec);
        self.update_view(proc, |v| {
            debug_assert!(v.running.is_none());
            v.running = Some(node);
            v.busy_until = finish;
            v.recent_avg_exec = avg;
        });
        // Transient-failure draw (one coin flip per execution when armed;
        // nothing on fault-free runs): a failing kernel fires `Fail` at the
        // sampled fraction of its execution instead of `Finish`.
        let fail_frac = self
            .faults
            .as_mut()
            .and_then(|f| f.state.transient_failure());
        match fail_frac {
            Some(frac) if !exec.is_zero() => {
                let part = ((exec.as_ns() as f64 * frac) as u64).clamp(1, exec.as_ns());
                let fail_at = exec_start + SimDuration::from_ns(part);
                self.events.push(fail_at, Event::Fail(proc, token));
            }
            _ => self.events.push(finish, Event::Finish(proc, token)),
        }
        Ok(())
    }

    #[inline]
    fn apply(&mut self, ctx: EngineCtx<'_>, a: Assignment) -> Result<(), BaseError> {
        if !self.ready.contains(a.node) {
            return Err(BaseError::InvalidAssignment {
                reason: format!("node {} is not in the ready set", a.node),
            });
        }
        if a.proc.index() >= self.procs.len() {
            return Err(BaseError::InvalidAssignment {
                reason: format!("processor {} does not exist", a.proc),
            });
        }
        if self.up_mask & (1 << a.proc.index()) == 0 {
            return Err(BaseError::ProcUnavailable {
                proc: a.proc.index(),
            });
        }
        // Reject unrunnable targets eagerly (even when queueing).
        if !ctx.cost.runnable(a.node, a.proc) {
            return Err(BaseError::InvalidAssignment {
                reason: format!(
                    "kernel {} cannot run on {} ({})",
                    ctx.dfg.node(a.node),
                    a.proc,
                    ctx.config.kind_of(a.proc)
                ),
            });
        }
        self.ready.remove(a.node);
        if self.views[a.proc.index()].running.is_none() {
            debug_assert!(self.procs[a.proc.index()].queue.is_empty());
            self.start_node(ctx, a, a.proc)?;
        } else {
            self.procs[a.proc.index()].queue.push_back(a);
            self.update_view(a.proc, |v| v.queue_len += 1);
        }
        Ok(())
    }

    #[inline]
    fn finish_on(&mut self, ctx: EngineCtx<'_>, proc: ProcId) -> Result<(), BaseError> {
        let node = self.views[proc.index()]
            .running
            // apt-lint: allow(hot-path-panic, a completion event is queued only when a kernel
            // starts on the processor)
            .expect("completion event for an idle processor");
        self.update_view(proc, |v| v.running = None);
        self.locations[node.index()] = Some(proc);
        self.finished += 1;
        if self.tracing() {
            let at = self.now;
            self.trace(TraceEvent::KernelComplete {
                node: node.index() as u32,
                proc,
                at,
            });
        }
        if self.track_finished {
            self.finished_nodes.push(node);
        }
        // Release successors (only those already submitted to the system).
        for &succ in ctx.dfg.succs(node) {
            let r = &mut self.remaining_preds[succ.index()];
            *r -= 1;
            if *r == 0 && self.arrived[succ.index()] {
                self.make_ready(succ);
            }
        }
        // Start queued work.
        if let Some(next) = self.procs[proc.index()].queue.pop_front() {
            self.update_view(proc, |v| v.queue_len -= 1);
            self.start_node(ctx, next, proc)?;
        }
        Ok(())
    }

    /// A node whose dependencies and arrival are both satisfied enters the
    /// ready set now.
    #[inline]
    fn make_ready(&mut self, node: NodeId) {
        self.ready_time[node.index()] = self.now.max(self.ready_time[node.index()]);
        let inserted = self.ready.insert(node);
        debug_assert!(inserted, "node became ready twice");
        if self.tracing() {
            let at = self.ready_time[node.index()];
            self.trace(TraceEvent::KernelReady {
                node: node.index() as u32,
                at,
            });
        }
    }

    pub(crate) fn arrive(&mut self, node: NodeId) {
        debug_assert!(!self.arrived[node.index()]);
        self.arrived[node.index()] = true;
        if self.remaining_preds[node.index()] == 0 {
            self.make_ready(node);
        }
    }

    #[inline]
    fn handle(&mut self, ctx: EngineCtx<'_>, event: Event) -> Result<(), BaseError> {
        match event {
            Event::Finish(proc, token) => {
                if self.procs[proc.index()].run_token != token {
                    return Ok(()); // stale: the kernel was killed by a fault
                }
                self.finish_on(ctx, proc)
            }
            Event::Arrive(node) => {
                self.arrive(node);
                Ok(())
            }
            Event::Fail(proc, token) => self.fail_on(ctx, proc, token),
            Event::Crash(proc) => {
                self.crash(proc);
                Ok(())
            }
            Event::Repair(proc) => {
                self.repair(proc);
                Ok(())
            }
            Event::Redispatch(node, token) => {
                self.redispatch(node, token);
                Ok(())
            }
            Event::DegradeStart => {
                self.degrade_start();
                Ok(())
            }
            Event::DegradeEnd => {
                self.degrade_end();
                Ok(())
            }
        }
    }

    /// Advance the clock, clamping idle processors' `busy_until` to the new
    /// instant (the "equals the current time when idle" contract of
    /// [`ProcView::busy_until`]).
    #[inline]
    fn advance_to(&mut self, t: SimTime) {
        self.now = t;
        for view in &mut self.views {
            if view.busy_until < t {
                view.busy_until = t;
            }
        }
    }

    /// Run the policy to a fixpoint at the current instant. The view borrows
    /// the incrementally maintained snapshots — nothing is rebuilt here. An
    /// empty ready set ends the fixpoint without a `decide` call: no policy
    /// can assign a kernel that is not ready.
    pub(crate) fn fixpoint(
        &mut self,
        ctx: EngineCtx<'_>,
        policy: &mut dyn Policy,
        out: &mut AssignmentBuf,
    ) -> Result<(), BaseError> {
        loop {
            out.clear();
            if self.ready.is_empty() {
                return Ok(());
            }
            {
                let view = SimView {
                    now: self.now,
                    ready: &self.ready,
                    procs: &self.views,
                    dfg: ctx.dfg,
                    lookup: ctx.lookup,
                    config: ctx.config,
                    cost: ctx.cost,
                    locations: &self.locations,
                    deadlines: &self.deadlines,
                    idle_mask: self.idle_mask,
                    up_mask: self.up_mask,
                    ready_order: self.ready_order,
                };
                policy.decide(&view, out);
            }
            if out.is_empty() {
                return Ok(());
            }
            for (i, &a) in out.as_slice().iter().enumerate() {
                self.apply(ctx, a)?;
                // Decision provenance: policies that explained an
                // alternative placement get it stamped into the trace at
                // the instant the assignment was applied.
                if self.tracing() {
                    if let Some(meta) = out.meta_for(i) {
                        let at = self.now;
                        self.trace(TraceEvent::Decision(DecisionRecord {
                            at,
                            node: a.node.index() as u32,
                            chosen: a.proc,
                            meta,
                        }));
                    }
                }
            }
            if out.is_fixpoint() {
                // The policy emitted the whole instant: a confirming call
                // would come back empty.
                return Ok(());
            }
        }
    }

    /// Pop the next same-instant event batch, advance the clock to it and
    /// handle every event. Returns the batch instant, or `None` when the
    /// queue is empty (time cannot advance).
    pub(crate) fn advance(
        &mut self,
        ctx: EngineCtx<'_>,
        batch: &mut Vec<Event>,
    ) -> Result<Option<SimTime>, BaseError> {
        match self.events.pop_batch(batch) {
            None => Ok(None),
            Some(t) => {
                self.advance_to(t);
                for &event in batch.iter() {
                    self.handle(ctx, event)?;
                }
                Ok(Some(t))
            }
        }
    }

    /// Drain the nodes completed since the previous drain.
    pub(crate) fn take_finished(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        out.append(&mut self.finished_nodes);
    }

    /// Cumulative per-processor aggregates (indexed by [`ProcId`]).
    pub(crate) fn proc_stats(&self) -> Vec<ProcStats> {
        self.procs.iter().map(|p| p.stats).collect()
    }
}

struct Engine<'a> {
    ctx: EngineCtx<'a>,
    core: EngineCore,
}

impl<'a> Engine<'a> {
    fn new(ctx: EngineCtx<'a>, arrivals: &[SimTime]) -> Self {
        Engine {
            ctx,
            core: EngineCore::for_closed_workload(ctx, arrivals),
        }
    }

    fn run(&mut self, policy: &mut dyn Policy) -> Result<(), BaseError> {
        // The two per-run arenas of the decision loop: the assignment buffer
        // every `Policy::decide` writes into, and the same-instant event
        // batch. Both are reused across every edge, so once their capacity
        // settles the loop allocates nothing.
        let mut out = AssignmentBuf::with_capacity(self.core.views.len().max(4));
        let mut batch: Vec<Event> = Vec::with_capacity(self.core.views.len() + 2);
        loop {
            // Policy fixpoint at the current instant, then advance to the
            // next event instant; the calendar queue hands over everything
            // that fires there in one batch, already in schedule order.
            self.core.fixpoint(self.ctx, policy, &mut out)?;
            if self.core.finished == self.ctx.dfg.len() {
                // All work done. With faults armed the calendar still holds
                // the perpetual crash/repair cycle, so "queue empty" would
                // never come — the completion count is the stop condition.
                break;
            }
            if self.core.advance(self.ctx, &mut batch)?.is_none() {
                break;
            }
        }
        if self.core.finished != self.ctx.dfg.len() {
            return Err(BaseError::Starvation {
                unscheduled: self.ctx.dfg.len() - self.core.finished,
            });
        }
        Ok(())
    }

    fn into_trace(self) -> Trace {
        let slots = &self.core.records;
        // Sort 16-byte `(start, node)` keys, then gather the records. Both
        // vectors are sized up front: `flatten` and `filter_map` report no
        // lower bound, so a plain `collect` would grow them by doubling.
        let mut keys: Vec<(SimTime, NodeId)> = Vec::with_capacity(slots.len());
        keys.extend(slots.iter().flatten().map(|r| (r.start, r.node)));
        keys.sort_unstable();
        let mut records: Vec<TaskRecord> = Vec::with_capacity(keys.len());
        records.extend(keys.iter().filter_map(|&(_, node)| slots[node.index()]));
        Trace {
            records,
            proc_stats: self.core.procs.into_iter().map(|p| p.stats).collect(),
        }
    }
}

/// Run one policy over one dataflow graph on one system.
///
/// Validates the inputs, calls [`Policy::prepare`], executes the event loop,
/// and returns the full schedule trace. Deterministic: identical inputs give
/// identical traces.
///
/// # Example
///
/// ```
/// use apt_hetsim::{
///     simulate, Assignment, AssignmentBuf, Policy, PolicyKind, SimView, SystemConfig,
/// };
/// use apt_dfg::generator::{generate, DfgType, StreamConfig};
/// use apt_dfg::LookupTable;
///
/// /// Place each ready kernel on the first idle processor able to run it.
/// struct FirstFit;
///
/// impl Policy for FirstFit {
///     fn name(&self) -> String { "FirstFit".into() }
///     fn kind(&self) -> PolicyKind { PolicyKind::Dynamic }
///     /// `out` arrives cleared; push any number of assignments into it.
///     /// Leaving it empty tells the engine to wait for the next event.
///     fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
///         for node in view.ready.iter() {
///             for p in view.idle_procs() {
///                 if view.exec_time(node, p.id).is_some() {
///                     out.push(Assignment::new(node, p.id));
///                     return;
///                 }
///             }
///         }
///     }
/// }
///
/// let lookup = LookupTable::paper();
/// let dfg = generate(DfgType::Type1, &StreamConfig::new(8, 42), lookup);
/// let result = simulate(&dfg, &SystemConfig::paper_4gbps(), lookup, &mut FirstFit).unwrap();
/// assert_eq!(result.trace.records.len(), 8);
/// result.trace.validate(&dfg).unwrap();
/// ```
pub fn simulate(
    dfg: &KernelDag,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
) -> Result<SimResult, BaseError> {
    let arrivals = vec![SimTime::ZERO; dfg.len()];
    simulate_stream(dfg, config, lookup, policy, &arrivals)
}

/// Run one policy over a *streamed* workload: each kernel is submitted to
/// the system at its arrival instant (`arrivals[node]`), modelling the
/// paper's "incoming stream of applications" (§3.2) and Algorithm 1's
/// "collect DFGs of all incoming jobs". A kernel becomes ready at
/// `max(arrival, all predecessors finished)`; λ delay is measured from that
/// instant, so queueing behind late arrivals is not charged to the policy.
///
/// `simulate` is the special case with all arrivals at `t = 0`.
pub fn simulate_stream(
    dfg: &KernelDag,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    arrivals: &[SimTime],
) -> Result<SimResult, BaseError> {
    // An empty plan arms nothing (`arm_faults` returns early), so this is
    // the fault-free path.
    simulate_stream_faulty(
        dfg,
        config,
        lookup,
        policy,
        arrivals,
        FaultPlan::none(),
        RetryPolicy::default(),
    )
    .map(|(result, _)| result)
}

/// [`simulate_stream`] with a [`FaultPlan`] armed: transient kernel
/// failures, processor crash/repair cycles, and link-degradation episodes
/// are injected from the plan's own seeded RNG stream, and failed kernels
/// are retried under `retry`. Returns the fault-side counters next to the
/// usual result.
///
/// With `FaultPlan::none()` this *is* [`simulate_stream`]: no fault events
/// are scheduled, no extra random draws happen, and the returned
/// [`FaultTotals`] is all zeros.
///
/// In this closed (whole-DAG) mode a kernel that exhausts its retry budget
/// aborts the run with [`BaseError::RetriesExhausted`] — there is no job
/// boundary to shed. Use the open engine / stream driver for
/// shed-and-continue semantics.
pub fn simulate_stream_faulty(
    dfg: &KernelDag,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    arrivals: &[SimTime],
    plan: FaultPlan,
    retry: RetryPolicy,
) -> Result<(SimResult, FaultTotals), BaseError> {
    config.validate()?;
    dfg.validate()?;
    if arrivals.len() != dfg.len() {
        return Err(BaseError::InvalidAssignment {
            reason: format!(
                "arrival vector has {} entries for {} kernels",
                arrivals.len(),
                dfg.len()
            ),
        });
    }
    // Precompute the whole cost model once; every decision edge reads it.
    let cost = CostModel::new(dfg, lookup, config);
    policy.prepare(PrepareCtx {
        dfg,
        lookup,
        config,
        cost: &cost,
    })?;
    let mut engine = Engine::new(
        EngineCtx {
            dfg,
            config,
            lookup,
            cost: &cost,
        },
        arrivals,
    );
    engine.core.arm_faults(plan, retry);
    engine.run(policy)?;
    let totals = engine.core.fault_totals();
    let trace = engine.into_trace();
    debug_assert!(trace.validate(dfg).is_ok());
    Ok((
        SimResult {
            policy: policy.name(),
            trace,
        },
        totals,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind};

    /// Assign each ready kernel to its execution-time-best processor when
    /// that processor is idle; otherwise wait (a minimal MET-like policy for
    /// engine tests).
    struct GreedyBest;

    impl Policy for GreedyBest {
        fn name(&self) -> String {
            "GreedyBest".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
            let mut taken: u64 = !view.idle_mask;
            for node in view.ready.iter() {
                if let Some((proc, _)) = view.best_proc(node) {
                    if taken & (1 << proc.index()) == 0 {
                        taken |= 1 << proc.index();
                        out.push(Assignment::new(node, proc));
                    }
                }
            }
        }
    }

    /// Queue everything onto processor 0 immediately (exercises FIFO queues).
    struct AllOnZero;

    impl Policy for AllOnZero {
        fn name(&self) -> String {
            "AllOnZero".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
            for n in view.ready.iter() {
                out.push(Assignment::new(n, ProcId::new(0)));
            }
        }
    }

    /// Never assigns anything (starvation probe).
    struct Lazy;

    impl Policy for Lazy {
        fn name(&self) -> String {
            "Lazy".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, _view: &SimView<'_>, _out: &mut AssignmentBuf) {}
    }

    fn nw() -> Kernel {
        Kernel::canonical(KernelKind::NeedlemanWunsch)
    }
    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    #[test]
    fn empty_graph_finishes_instantly() {
        let dfg = build_type1(&[]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        assert_eq!(res.makespan(), SimDuration::ZERO);
        assert!(res.trace.records.is_empty());
    }

    #[test]
    fn single_kernel_runs_on_best_proc() {
        let dfg = build_type1(&[bfs()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        assert_eq!(res.makespan(), SimDuration::from_ms(106)); // FPGA
        let r = &res.trace.records[0];
        assert_eq!(r.proc, ProcId::new(2));
        assert_eq!(r.lambda(), SimDuration::ZERO);
    }

    #[test]
    fn type1_respects_the_fan_in_dependency() {
        // nw, bfs independent; cd depends on both (transfers disabled).
        let dfg = build_type1(&[nw(), bfs(), cd()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        // Level 1 finishes at max(112 on CPU, 106 on FPGA) = 112; cd then
        // runs 0.093 on the FPGA.
        assert_eq!(res.makespan(), SimDuration::from_us(112_093));
        let cd_rec = res.trace.record(NodeId::new(2)).unwrap();
        assert_eq!(cd_rec.ready, SimTime::from_ms(112));
        assert_eq!(cd_rec.lambda(), SimDuration::ZERO);
    }

    #[test]
    fn transfers_occupy_the_consumer() {
        // One producer (bfs on FPGA) then a dependent cd; cd's input must
        // cross the link if it runs elsewhere, but GreedyBest runs cd on the
        // FPGA too, so the transfer is zero.
        let dfg = build_type1(&[bfs(), cd()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        let r = res.trace.record(NodeId::new(1)).unwrap();
        assert_eq!(r.proc, ProcId::new(2));
        assert_eq!(r.transfer_time(), SimDuration::ZERO);
        assert_eq!(res.makespan(), SimDuration::from_us(106_093));
    }

    #[test]
    fn queued_work_runs_fifo_and_counts_lambda() {
        let dfg = build_type1(&[bfs(), bfs(), bfs()]);
        // All three queue on processor 0 (CPU, 332 ms each); the third is the
        // fan-in sink and only becomes ready at t = 664.
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            apt_dfg::LookupTable::paper(),
            &mut AllOnZero,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.makespan(), SimDuration::from_ms(996));
        let r1 = res.trace.record(NodeId::new(1)).unwrap();
        // Node 1 was ready at 0 but started at 332 → λ = 332 ms.
        assert_eq!(r1.lambda(), SimDuration::from_ms(332));
        let r2 = res.trace.record(NodeId::new(2)).unwrap();
        assert_eq!(r2.ready, SimTime::from_ms(664));
        assert_eq!(r2.lambda(), SimDuration::ZERO);
        assert_eq!(res.trace.lambda_total(), SimDuration::from_ms(332));
        // All work accounted to processor 0.
        assert_eq!(res.trace.proc_stats[0].kernels, 3);
        assert_eq!(res.trace.proc_stats[0].busy, SimDuration::from_ms(996));
        assert_eq!(res.trace.proc_stats[1].kernels, 0);
    }

    #[test]
    fn starvation_is_reported() {
        let dfg = build_type1(&[bfs()]);
        let err = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut Lazy,
        )
        .unwrap_err();
        assert_eq!(err, BaseError::Starvation { unscheduled: 1 });
    }

    #[test]
    fn machine_over_max_procs_is_a_typed_error() {
        let config = (0..=crate::cost::MAX_PROCS)
            .fold(SystemConfig::empty(crate::LinkRate::gbps(4)), |s, _| {
                s.with_proc(apt_base::ProcKind::Cpu)
            });
        assert_eq!(config.len(), 65);
        assert!(matches!(
            config.validate(),
            Err(BaseError::InvalidSystem { .. })
        ));
        let dfg = build_type1(&[bfs()]);
        let err = simulate(
            &dfg,
            &config,
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::InvalidSystem { .. }));
    }

    #[test]
    fn machine_at_max_procs_simulates() {
        let config = (0..crate::cost::MAX_PROCS)
            .fold(SystemConfig::empty(crate::LinkRate::gbps(4)), |s, _| {
                s.with_proc(apt_base::ProcKind::Cpu)
            });
        assert_eq!(config.validate(), Ok(()));
        let dfg = build_type1(&[bfs(), bfs()]);
        let res = simulate(
            &dfg,
            &config,
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.proc_stats.len(), crate::cost::MAX_PROCS);
    }

    #[test]
    fn invalid_assignment_is_rejected() {
        struct BadNode;
        impl Policy for BadNode {
            fn name(&self) -> String {
                "BadNode".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, _v: &SimView<'_>, out: &mut AssignmentBuf) {
                out.push(Assignment::new(NodeId::new(99), ProcId::new(0)));
            }
        }
        let dfg = build_type1(&[bfs()]);
        let err = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut BadNode,
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::InvalidAssignment { .. }));
    }

    #[test]
    fn assignment_to_unrunnable_category_is_rejected() {
        struct ToAsic;
        impl Policy for ToAsic {
            fn name(&self) -> String {
                "ToAsic".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
                for n in view.ready.iter() {
                    out.push(Assignment::new(n, ProcId::new(0)));
                }
            }
        }
        let config = SystemConfig::empty(crate::LinkRate::gbps(4))
            .with_proc(apt_base::ProcKind::Asic)
            .with_proc(apt_base::ProcKind::Cpu);
        let dfg = build_type1(&[bfs()]);
        let err = simulate(&dfg, &config, apt_dfg::LookupTable::paper(), &mut ToAsic).unwrap_err();
        assert!(matches!(err, BaseError::InvalidAssignment { .. }));
    }

    #[test]
    fn streaming_arrivals_delay_submission() {
        // Two independent bfs (plus fan-in cd sink). The second bfs arrives
        // at t = 50 ms: even though the GPU-best policy below would start it
        // at 0, it cannot run before its arrival.
        struct Greedy;
        impl Policy for Greedy {
            fn name(&self) -> String {
                "Greedy".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
                for node in view.ready.iter() {
                    for p in view.idle_procs() {
                        if view.exec_time(node, p.id).is_some() {
                            out.push(Assignment::new(node, p.id));
                            return;
                        }
                    }
                }
            }
        }
        let dfg = build_type1(&[bfs(), bfs(), cd()]);
        let arrivals = vec![
            SimTime::ZERO,
            SimTime::from_ms(50),
            SimTime::ZERO, // sink arrives immediately but waits on preds
        ];
        let res = simulate_stream(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            apt_dfg::LookupTable::paper(),
            &mut Greedy,
            &arrivals,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        let r1 = res.trace.record(NodeId::new(1)).unwrap();
        assert_eq!(r1.ready, SimTime::from_ms(50));
        assert!(r1.start >= SimTime::from_ms(50));
        // λ is measured from arrival-adjusted readiness, so the forced wait
        // before 50 ms is not charged.
        assert_eq!(r1.lambda(), SimDuration::ZERO);
    }

    #[test]
    fn zero_arrivals_match_plain_simulate() {
        let kernels = generate_kernels(&StreamConfig::new(30, 4), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let a = simulate(&dfg, &cfg, apt_dfg::LookupTable::paper(), &mut GreedyBest).unwrap();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        let b = simulate_stream(
            &dfg,
            &cfg,
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &arrivals,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn arrival_vector_length_is_checked() {
        let dfg = build_type1(&[bfs()]);
        let err = simulate_stream(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::InvalidAssignment { .. }));
    }

    #[test]
    fn simulation_is_deterministic() {
        let kernels = generate_kernels(&StreamConfig::new(60, 77), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let a = simulate(&dfg, &cfg, apt_dfg::LookupTable::paper(), &mut GreedyBest).unwrap();
        let b = simulate(&dfg, &cfg, apt_dfg::LookupTable::paper(), &mut GreedyBest).unwrap();
        assert_eq!(a, b);
        a.trace.validate(&dfg).unwrap();
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_serial_time() {
        let kernels = generate_kernels(&StreamConfig::new(40, 5), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let lookup = apt_dfg::LookupTable::paper();
        let cfg = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &cfg, lookup, &mut GreedyBest).unwrap();
        // Lower bound: critical path using each kernel's *minimum* time.
        let lower = dfg
            .critical_path(|n| lookup.best_category(dfg.node(n)).unwrap().1.as_ns())
            .unwrap();
        // Upper bound: serial execution of every kernel at its *maximum* time.
        let upper: u64 = dfg
            .iter()
            .map(|(_, k)| lookup.row(k).unwrap().times.iter().max().unwrap().as_ns())
            .sum();
        let got = res.makespan().as_ns();
        assert!(got >= lower, "makespan {got} below critical path {lower}");
        assert!(got <= upper, "makespan {got} above serial bound {upper}");
    }

    #[test]
    fn recent_avg_rounds_to_nearest() {
        // Pin the ProcCore::push_history rounding: the windowed τ_k average
        // rounds to the nearest nanosecond instead of truncating.
        let mut core = ProcCore::new();
        // {1, 2} ns → average 1.5 → rounds to 2 (the seed truncated to 1).
        assert_eq!(
            core.push_history(SimDuration::from_ns(1)),
            SimDuration::from_ns(1)
        );
        assert_eq!(
            core.push_history(SimDuration::from_ns(2)),
            SimDuration::from_ns(2)
        );
        // {1, 2, 3} ns → exactly 2.
        assert_eq!(
            core.push_history(SimDuration::from_ns(3)),
            SimDuration::from_ns(2)
        );
        // {1, 2, 3, 5} → 2.75 → 3.
        assert_eq!(
            core.push_history(SimDuration::from_ns(5)),
            SimDuration::from_ns(3)
        );
        // Window eviction keeps the running sum exact.
        let mut core = ProcCore::new();
        for _ in 0..EXEC_HISTORY_WINDOW {
            core.push_history(SimDuration::from_ns(10));
        }
        // Evicts one 10, window = {10×9, 21} → sum 111 / 10 = 11.1 → 11.
        assert_eq!(
            core.push_history(SimDuration::from_ns(21)),
            SimDuration::from_ns(11)
        );
        assert_eq!(core.history.len(), EXEC_HISTORY_WINDOW);
        assert_eq!(core.history_sum, 111);
    }

    /// Pin one node per processor (node i → map[i]), emitting every ready
    /// node immediately (queueing if busy).
    struct Pin(Vec<usize>);
    impl Policy for Pin {
        fn name(&self) -> String {
            "Pin".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
            for n in view.ready.iter() {
                out.push(Assignment::new(n, ProcId::new(self.0[n.index()])));
            }
        }
    }

    #[test]
    fn per_link_contention_parallelizes_distinct_links() {
        use crate::topology::{LinkContention, Topology};
        // nw (p0) and bfs (p2) feed cd, forced onto p1: its two inputs
        // arrive over distinct directed links (p0→p1, p2→p1).
        let dfg = build_type1(&[nw(), bfs(), cd()]);
        let lookup = apt_dfg::LookupTable::paper();
        let serial = SystemConfig::paper_4gbps();
        let contended = SystemConfig::paper_4gbps().with_topology(
            Topology::uniform(3, crate::LinkRate::PCIE2_X8)
                .with_contention(LinkContention::PerLink),
        );
        let run = |cfg: &SystemConfig| {
            simulate(&dfg, cfg, lookup, &mut Pin(vec![0, 2, 1]))
                .unwrap()
                .trace
        };
        let a = run(&serial);
        let b = run(&contended);
        let nw_ns = 16_777_216u64 * 4 / 4; // 64 MB at 4 B/ns
        let bfs_ns = 2_034_736u64 * 4 / 4;
        let ra = a.record(NodeId::new(2)).unwrap();
        let rb = b.record(NodeId::new(2)).unwrap();
        // Serialized: the consumer pulls both inputs back to back.
        assert_eq!(ra.transfer_time(), SimDuration::from_ns(nw_ns + bfs_ns));
        // Per-link: both links run concurrently; the slower one gates.
        assert_eq!(rb.transfer_time(), SimDuration::from_ns(nw_ns.max(bfs_ns)));
        assert_eq!(ra.start, rb.start, "contention changes transfers only");
        assert!(rb.finish < ra.finish);
    }

    #[test]
    fn per_link_contention_serializes_same_link_transfers() {
        use crate::topology::{LinkContention, Topology};
        // Both of cd's inputs live on p0: they share the p0→p1 link, so
        // per-link contention must reproduce the serialized schedule
        // byte for byte.
        let dfg = build_type1(&[nw(), bfs(), cd()]);
        let lookup = apt_dfg::LookupTable::paper();
        let serial = SystemConfig::paper_4gbps();
        let contended = SystemConfig::paper_4gbps().with_topology(
            Topology::uniform(3, crate::LinkRate::PCIE2_X8)
                .with_contention(LinkContention::PerLink),
        );
        let run = |cfg: &SystemConfig| {
            simulate(&dfg, cfg, lookup, &mut Pin(vec![0, 0, 1]))
                .unwrap()
                .trace
        };
        assert_eq!(run(&serial), run(&contended));
    }

    #[test]
    fn idle_count_tracks_every_transition() {
        // Drive a run and assert the engine's running idle count stays equal
        // to a fresh scan at every decision edge.
        struct Auditor;
        impl Policy for Auditor {
            fn name(&self) -> String {
                "Auditor".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
                let scanned = view.procs.iter().filter(|p| p.is_idle()).count();
                assert_eq!(view.idle_count(), scanned, "idle count drifted");
                let scanned_mask = view
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.is_idle())
                    .fold(0u64, |m, (i, _)| m | 1 << i);
                assert_eq!(view.idle_mask, scanned_mask, "idle mask drifted");
                assert_eq!(view.any_idle(), scanned > 0);
                // Queue aggressively (AG-style) to exercise queue transitions.
                for n in view.ready.iter() {
                    out.push(Assignment::new(n, ProcId::new(n.index() % 3)));
                }
            }
        }
        let kernels = generate_kernels(&StreamConfig::new(25, 9), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut Auditor,
        );
        // Some kernels may be unrunnable on their round-robin target; only
        // fully runnable streams complete, but the audit above ran either way.
        if let Ok(res) = res {
            res.trace.validate(&dfg).unwrap();
        }
    }

    #[test]
    fn none_plan_is_byte_identical_and_counts_nothing() {
        let kernels = generate_kernels(&StreamConfig::new(40, 13), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        let plain = simulate_stream(
            &dfg,
            &cfg,
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &arrivals,
        )
        .unwrap();
        let (faulty, totals) = simulate_stream_faulty(
            &dfg,
            &cfg,
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &arrivals,
            FaultPlan::none(),
            RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(plain, faulty, "FaultPlan::none() perturbed the schedule");
        assert_eq!(totals, FaultTotals::default());
    }

    #[test]
    fn transient_failures_retry_and_still_complete() {
        let kernels = generate_kernels(&StreamConfig::new(30, 21), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        let clean = simulate_stream(&dfg, &cfg, lookup, &mut GreedyBest, &arrivals).unwrap();
        let plan = FaultPlan::seeded(5).with_transient(0.3);
        let retry = RetryPolicy {
            max_attempts: 20,
            ..RetryPolicy::default()
        };
        let (res, totals) =
            simulate_stream_faulty(&dfg, &cfg, lookup, &mut GreedyBest, &arrivals, plan, retry)
                .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.records.len(), dfg.len(), "every kernel finished");
        assert!(
            totals.kernel_failures > 0,
            "p=0.3 over 30 kernels was silent"
        );
        assert_eq!(totals.retries, totals.kernel_failures);
        assert!(totals.wasted_ns > 0, "failed attempts must waste work");
        assert_eq!(totals.crashes, 0);
        assert!(
            res.trace.makespan() > clean.trace.makespan(),
            "re-execution must cost wall-clock time"
        );
    }

    #[test]
    fn retries_exhausted_aborts_the_closed_run() {
        let dfg = build_type1(&[bfs()]);
        let plan = FaultPlan::seeded(1).with_transient(1.0);
        let err = simulate_stream_faulty(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &[SimTime::ZERO],
            plan,
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        )
        .unwrap_err();
        match err {
            BaseError::RetriesExhausted { node, attempts } => {
                assert_eq!(node, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn crashes_orphan_and_redispatch_without_losing_kernels() {
        let kernels = generate_kernels(&StreamConfig::new(40, 8), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        // MTTF well inside the fault-free makespan so crashes actually land
        // mid-run; quick repairs keep capacity recoverable.
        let plan =
            FaultPlan::seeded(17).with_crashes(SimDuration::from_ms(400), SimDuration::from_ms(50));
        let (res, totals) = simulate_stream_faulty(
            &dfg,
            &cfg,
            lookup,
            &mut GreedyBest,
            &arrivals,
            plan,
            RetryPolicy::default(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.records.len(), dfg.len(), "a kernel was lost");
        assert!(totals.crashes > 0, "MTTF 400ms never crashed this run");
        assert!(totals.down_ns > 0);
        assert!(
            totals.repairs >= totals.crashes.saturating_sub(3),
            "repairs must chase crashes (≤ nprocs may be pending at the end)"
        );
        // Crash orphans are re-dispatched without charging retry attempts,
        // so a default budget of 3 attempts never aborts the run.
        assert_eq!(totals.kernel_failures, 0);
    }

    #[test]
    fn link_degradation_stretches_cross_proc_transfers() {
        // nw on p0 feeds cd pinned to p1: 64 MB crosses the link. A
        // permanently-degraded fabric (episode far longer than the run)
        // must stretch exactly that transfer.
        let dfg = build_type1(&[nw(), cd()]);
        let lookup = apt_dfg::LookupTable::paper();
        let cfg = SystemConfig::paper_4gbps();
        let clean = simulate(&dfg, &cfg, lookup, &mut Pin(vec![0, 1])).unwrap();
        let plan = FaultPlan::seeded(2).with_link_degrade(LinkDegradeSpec {
            pair: None,
            slowdown: 4,
            mtbf: SimDuration::from_ns(1),
            duration: SimDuration::from_ms(3_600_000),
        });
        let (res, totals) = simulate_stream_faulty(
            &dfg,
            &cfg,
            lookup,
            &mut Pin(vec![0, 1]),
            &vec![SimTime::ZERO; dfg.len()],
            plan,
            RetryPolicy::default(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        let rc = clean.trace.record(NodeId::new(1)).unwrap();
        let rf = res.trace.record(NodeId::new(1)).unwrap();
        assert_eq!(
            rf.transfer_time(),
            SimDuration::from_ns(rc.transfer_time().as_ns() * 4),
            "slowdown 4 must scale the degraded transfer"
        );
        assert_eq!(totals.crashes, 0);
        assert_eq!(totals.kernel_failures, 0);
    }

    #[test]
    fn link_degradation_stretches_only_its_pair_under_per_link_contention() {
        use crate::topology::{LinkContention, Topology};
        // nw (p0) and bfs (p2) feed cd on p1 over distinct links. Only
        // p2→p1 is degraded: the small bfs input stretches ×16 past the
        // untouched nw input and gates the start alone.
        let dfg = build_type1(&[nw(), bfs(), cd()]);
        let lookup = apt_dfg::LookupTable::paper();
        let cfg = SystemConfig::paper_4gbps().with_topology(
            Topology::uniform(3, crate::LinkRate::PCIE2_X8)
                .with_contention(LinkContention::PerLink),
        );
        let plan = FaultPlan::seeded(2).with_link_degrade(LinkDegradeSpec {
            pair: Some((ProcId::new(2), ProcId::new(1))),
            slowdown: 16,
            mtbf: SimDuration::from_ns(1),
            duration: SimDuration::from_ms(3_600_000),
        });
        let (res, _) = simulate_stream_faulty(
            &dfg,
            &cfg,
            lookup,
            &mut Pin(vec![0, 2, 1]),
            &vec![SimTime::ZERO; dfg.len()],
            plan,
            RetryPolicy::default(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        // nw moves 16 777 216 ns at 4 B/ns; bfs 2 034 736 ns, ×16 = 32.6 ms.
        let bfs_ns = 2_034_736u64;
        let r = res.trace.record(NodeId::new(2)).unwrap();
        assert_eq!(r.transfer_time(), SimDuration::from_ns(bfs_ns * 16));
    }

    #[test]
    fn faulty_runs_replay_identically_under_one_seed() {
        let kernels = generate_kernels(&StreamConfig::new(35, 31), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let arrivals = vec![SimTime::ZERO; dfg.len()];
        let plan = FaultPlan::seeded(9)
            .with_transient(0.2)
            .with_crashes(SimDuration::from_ms(600), SimDuration::from_ms(40));
        let retry = RetryPolicy {
            max_attempts: 25,
            ..RetryPolicy::default()
        };
        let run = || {
            simulate_stream_faulty(&dfg, &cfg, lookup, &mut GreedyBest, &arrivals, plan, retry)
                .unwrap()
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb, "same fault seed must replay byte-identically");
        assert_eq!(ta, tb);
        // A different fault seed changes the outcome (same workload).
        let other = FaultPlan { seed: 10, ..plan };
        let (rc, _) =
            simulate_stream_faulty(&dfg, &cfg, lookup, &mut GreedyBest, &arrivals, other, retry)
                .unwrap();
        assert_ne!(ra, rc, "distinct fault seeds must diverge");
    }

    /// Closed arrivals given in descending time order, with shared instants,
    /// pop as one batch per instant in time order, in node order within it.
    #[test]
    fn closed_arrivals_pop_in_time_then_node_order() {
        let mut dfg = KernelDag::new();
        for _ in 0..7 {
            dfg.add_node(bfs());
        }
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let cost = CostModel::new(&dfg, lookup, &config);
        let ctx = EngineCtx {
            dfg: &dfg,
            config: &config,
            lookup,
            cost: &cost,
        };
        let ms = SimTime::from_ms;
        let arrivals = [
            ms(50),
            ms(50),
            ms(30),
            ms(30),
            ms(30),
            ms(10),
            SimTime::ZERO,
        ];
        let mut core = EngineCore::for_closed_workload(ctx, &arrivals);
        let mut batches = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = core.events.pop_batch(&mut batch) {
            batches.push((t, batch.clone()));
        }
        let arrive = |i| Event::Arrive(NodeId::new(i));
        assert_eq!(
            batches,
            vec![
                (ms(10), vec![arrive(5)]),
                (ms(30), vec![arrive(2), arrive(3), arrive(4)]),
                (ms(50), vec![arrive(0), arrive(1)]),
            ]
        );
    }

    /// A closed core starts with exactly the sources that have arrived at
    /// t = 0 ready; a source arriving later and a node with predecessors
    /// are not, and only the late arrival gets an event.
    #[test]
    fn closed_core_readies_only_arrived_sources() {
        // bfs, bfs, nw are sources; cd is the fan-in sink.
        let dfg = build_type1(&[bfs(), bfs(), nw(), cd()]);
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let cost = CostModel::new(&dfg, lookup, &config);
        let ctx = EngineCtx {
            dfg: &dfg,
            config: &config,
            lookup,
            cost: &cost,
        };
        let arrivals = [
            SimTime::ZERO,
            SimTime::from_ms(20),
            SimTime::ZERO,
            SimTime::ZERO,
        ];
        let core = EngineCore::for_closed_workload(ctx, &arrivals);
        let ready: Vec<NodeId> = core.ready.iter().collect();
        assert_eq!(ready, vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(core.events.len(), 1);
        assert_eq!(core.events.peek_time(), Some(SimTime::from_ms(20)));
    }

    /// The trace lists every kernel once, ordered by start time and by node
    /// id among kernels that start together.
    #[test]
    fn trace_records_are_ordered_by_start_then_node() {
        let kernels = generate_kernels(&StreamConfig::new(40, 9), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
        )
        .unwrap();
        let keys: Vec<(SimTime, NodeId)> = res
            .trace
            .records
            .iter()
            .map(|r| (r.start, r.node))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "records out of (start, node) order"
        );
        let mut nodes: Vec<NodeId> = keys.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, dfg.node_ids().collect::<Vec<_>>());
        // Several kernels start at t = 0, so the node tie-break is exercised.
        assert!(keys.iter().filter(|(t, _)| *t == SimTime::ZERO).count() > 1);
    }

    /// Arrivals scattered in descending time order, several per instant:
    /// no kernel becomes ready or starts before it arrives.
    #[test]
    fn scattered_arrivals_never_start_before_they_arrive() {
        let kernels = generate_kernels(&StreamConfig::new(30, 3), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let n = dfg.len() as u64;
        let arrivals: Vec<SimTime> = (0..n).map(|i| SimTime::from_ms((n - i) / 3 * 40)).collect();
        let res = simulate_stream(
            &dfg,
            &SystemConfig::paper_4gbps(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &arrivals,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        assert_eq!(res.trace.records.len(), dfg.len());
        for r in &res.trace.records {
            let arrival = arrivals[r.node.index()];
            assert!(r.ready >= arrival, "{} ready before it arrived", r.node);
            assert!(r.start >= r.ready, "{} started before ready", r.node);
        }
    }

    /// A kernel whose predecessors finish before it arrives becomes ready
    /// at its arrival, not at its last predecessor's finish.
    #[test]
    fn a_late_arrival_outlasts_finished_predecessors() {
        // nw (CPU, 112 ms) and bfs (FPGA, 106 ms) feed cd, which arrives
        // at 500 ms.
        let dfg = build_type1(&[nw(), bfs(), cd()]);
        let arrivals = [SimTime::ZERO, SimTime::ZERO, SimTime::from_ms(500)];
        let res = simulate_stream(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            apt_dfg::LookupTable::paper(),
            &mut GreedyBest,
            &arrivals,
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        let sink = res.trace.record(NodeId::new(2)).unwrap();
        assert_eq!(sink.ready, SimTime::from_ms(500));
        assert_eq!(sink.start, SimTime::from_ms(500));
        assert_eq!(res.makespan(), SimDuration::from_us(500_093));
    }

    /// When every kernel arrives at one instant `T`, the schedule is the
    /// all-at-zero schedule shifted by `T`: the arrival batch releases the
    /// same ready set the closed run starts with.
    #[test]
    fn one_shared_arrival_instant_shifts_the_closed_schedule() {
        let kernels = generate_kernels(&StreamConfig::new(25, 12), apt_dfg::LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let base = simulate(&dfg, &cfg, lookup, &mut GreedyBest).unwrap();
        let shift = SimDuration::from_ms(75);
        let arrivals = vec![SimTime::ZERO + shift; dfg.len()];
        let late = simulate_stream(&dfg, &cfg, lookup, &mut GreedyBest, &arrivals).unwrap();
        assert_eq!(late.trace.records.len(), base.trace.records.len());
        for (a, b) in base.trace.records.iter().zip(&late.trace.records) {
            assert_eq!((a.node, a.proc, a.alt), (b.node, b.proc, b.alt));
            assert_eq!(a.ready + shift, b.ready);
            assert_eq!(a.start + shift, b.start);
            assert_eq!(a.exec_start + shift, b.exec_start);
            assert_eq!(a.finish + shift, b.finish);
        }
    }
}
