//! Open-system simulation: incremental job admission over a recycled slot
//! arena.
//!
//! [`crate::simulate_stream`] is *closed-world*: every kernel of the
//! workload exists up front, so its per-node state is sized to the whole
//! stream. A production-scale open stream (millions of jobs arriving over
//! hours of simulated time) cannot afford that — memory must be bounded by
//! the jobs **in flight**, not by the jobs that will ever arrive.
//!
//! [`OpenEngine`] is the stepped counterpart built on the same
//! [`crate::engine`] core (shared fixpoint, event handling, calendar queue,
//! per-processor bookkeeping — the closed engine is a thin wrapper over the
//! identical code):
//!
//! * **Admission** ([`OpenEngine::admit`]) binds a job — a list of kernels
//!   plus intra-job dependency edges — onto arena *slots*: node ids of an
//!   owned [`KernelDag`] whose retired entries are recycled. Binding a slot
//!   rewires the graph, stamps that node's cost class in the owned
//!   [`CostModel`] and resets its engine state; nothing else is touched.
//!   The job's bookkeeping takes an entry of the *live-job slab*, a `Vec`
//!   whose retired entries are reused LIFO together with their slot lists,
//!   so the slab is bounded by the peak of in-flight jobs and admitting a
//!   job allocates nothing once the run has reached its peak. Arrivals past
//!   [`ARRIVAL_HORIZON`] are rejected with a typed error.
//! * **Arrival**: a job admitted at the current instant arrives at once. A
//!   job admitted for a later instant pushes **one** arrival event, which
//!   carries its slab entry; when it fires, the engine reads the entry's
//!   slot list and arrives the slots in that order. A Type-2 job of 24
//!   kernels therefore costs one queue push and pop instead of 24, and
//!   admission copies no slot list. Per-kernel events would have been
//!   pushed back to back and popped back to back, in the same slot order,
//!   so every same-instant order, and every schedule, is the one they gave.
//!   A job cannot retire or be shed before it arrives, so the entry is
//!   still the job's own when the event fires. The closed engine keeps one
//!   arrival event per node, since its arrivals are per node.
//! * **Stepping** ([`OpenEngine::step`]) runs one policy fixpoint and
//!   advances to the next event batch — exactly one iteration of the closed
//!   engine's loop.
//! * **Retirement**: when a job's last kernel finishes, its [`TaskRecord`]s
//!   are extracted (renumbered to job-local node ids) into a record buffer,
//!   its slots are detached and returned to the free list, its slab entry
//!   is freed, and a [`CompletedJob`] is queued for
//!   [`OpenEngine::drain_completed`]. Record buffers are recycled: each
//!   drain takes back the buffers of the jobs the caller's vector still
//!   holds from the previous drain, so a caller that drains into one
//!   long-lived vector retires jobs without touching the allocator.
//!
//! ## FCFS across recycled slots
//!
//! Dynamic policies iterate the ready set in "first-come-first-serve"
//! order, which the closed engine gets for free because node ids follow
//! stream order. Recycled slot ids do not — so the arena's ready set runs
//! in *ordered* mode ([`crate::ReadySet::new_ordered`]), carrying a global
//! admission sequence per slot. A finite stream admitted through this
//! engine therefore replays **byte-identically** (modulo the slot→local id
//! renumbering) against `simulate_stream` over the materialized workload —
//! pinned by the differential tests in the `apt-stream` crate.
//!
//! Static policies (HEFT, PEFT) need the entire DFG before execution and
//! are rejected by [`OpenEngine::prepare`]: an open system has no "entire
//! DFG".

use crate::cost::CostModel;
use crate::engine::{EngineCore, EngineCtx, Event};
use crate::policy::{AssignmentBuf, Policy, PolicyKind, PrepareCtx};
use crate::system::SystemConfig;
use crate::trace::{ProcStats, TaskRecord};
use apt_base::{BaseError, SimDuration, SimTime};
use apt_dfg::{Kernel, KernelDag, LookupTable, NodeId};
use apt_faults::{FaultPlan, FaultTotals, RetryPolicy};
use apt_trace::{TraceEvent, TraceSink};

/// The latest instant a job may arrive at: `u64::MAX >> 2` ns, about 146
/// years of simulated time. [`OpenEngine::admit_with_deadline`] rejects a
/// later arrival with a typed error, which leaves three quarters of the
/// clock's range as headroom for the execution times, transfers, retries
/// and deadlines that follow an admission, and keeps every arrival below
/// the `u64::MAX >> 1` sentinel a stream driver may use for "no window".
pub const ARRIVAL_HORIZON: SimTime = SimTime::from_ns(u64::MAX >> 2);

/// Identifier of one admitted job: its admission index (0, 1, 2, … in
/// admission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Iteration order of the open engine's ready set — the order dynamic
/// policies see ready kernels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadyOrder {
    /// First-come-first-serve by admission sequence (the closed engine's
    /// stream order; the default, and byte-identical to `simulate_stream`).
    #[default]
    Admission,
    /// Earliest absolute deadline first, FCFS within equal deadlines;
    /// deadline-free jobs sort last (still FCFS among themselves). Under
    /// this order even deadline-oblivious policies process urgent jobs
    /// first — running plain APT here equals EDF-APT under FCFS order.
    EarliestDeadline,
}

/// A fully executed job, handed out by [`OpenEngine::drain_completed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedJob {
    /// Which admission this was.
    pub job: JobId,
    /// The instant the job was submitted to the system.
    pub arrival: SimTime,
    /// The job's absolute deadline, if it carried one.
    pub deadline: Option<SimTime>,
    /// One record per kernel, renumbered to **job-local** node ids
    /// (`0..kernels.len()` in the order they were passed to `admit`).
    ///
    /// The buffer is the engine's: the next [`OpenEngine::drain_completed`]
    /// into the same vector takes it back for a later job. Move the job out
    /// of that vector to keep its records.
    ///
    /// For a [`failed`](CompletedJob::failed) job this is **partial**: only
    /// the kernels that completed before the job was shed have records, in
    /// job-local id order.
    pub records: Vec<TaskRecord>,
    /// True when the job was shed after a kernel exhausted its retry budget
    /// (or the job spent its whole per-job retry allowance) under an armed
    /// fault plan — it did *not* run to completion. Always false on
    /// fault-free runs.
    pub failed: bool,
}

impl CompletedJob {
    /// When the job's last kernel finished.
    pub fn finish(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.finish)
            .max()
            .unwrap_or(self.arrival)
    }

    /// How far past its deadline the job finished (zero when it met the
    /// deadline); `None` for deadline-free jobs.
    pub fn tardiness(&self) -> Option<SimDuration> {
        self.deadline.map(|d| self.finish().saturating_since(d))
    }

    /// True when the job carried a deadline and finished after it.
    pub fn missed_deadline(&self) -> bool {
        self.tardiness().is_some_and(|t| !t.is_zero())
    }
}

/// Validate one job's shape: at least one kernel, and edges ascending over
/// local indices (`from < to < kernel_count`, no duplicates). Ascending
/// edges structurally rule out cycles and self-loops; the duplicate scan
/// rules out the one remaining `Dag::add_edge` error — together this is
/// everything that could fail *mid-admission* (which would leak arena
/// slots and leave stray edges), caught up front instead. Shared with
/// `apt-stream`'s `JobTemplate::new`, so a template that constructs can
/// never fail admission.
///
/// Linear in the edge count for a sorted list (every generator's form):
/// an edge above every earlier one cannot repeat one, so only an edge at
/// or below the running maximum (a duplicate, or an out-of-order edge of
/// an interleaved list such as the diamond family's) scans the earlier
/// edges. The first offending edge in list order is the one reported.
pub fn validate_job(kernel_count: usize, edges: &[(u32, u32)]) -> Result<(), BaseError> {
    if kernel_count == 0 {
        return Err(BaseError::InvalidAssignment {
            reason: "a job needs at least one kernel".into(),
        });
    }
    let mut max = None;
    for (i, &(a, b)) in edges.iter().enumerate() {
        if a >= b || (b as usize) >= kernel_count {
            return Err(BaseError::InvalidAssignment {
                reason: format!(
                    "job edge ({a}, {b}) is not ascending within {kernel_count} kernels"
                ),
            });
        }
        if Some((a, b)) <= max && edges[..i].contains(&(a, b)) {
            return Err(BaseError::InvalidAssignment {
                reason: format!("duplicate job edge ({a}, {b})"),
            });
        }
        max = max.max(Some((a, b)));
    }
    Ok(())
}

/// One entry of the live-job slab: the bookkeeping of a job in flight, or
/// a retired entry (`!active`) waiting on the free list for reuse.
#[derive(Default)]
struct LiveJob {
    /// The admission this entry belongs to (the last one, once retired).
    job: u64,
    /// False once the job retired or was shed; a node whose entry is
    /// inactive belongs to a job that already left the system.
    active: bool,
    arrival: SimTime,
    /// Absolute deadline, if the job carries one.
    deadline: Option<SimTime>,
    /// Arena slots in template order (index = job-local node id). Kept,
    /// cleared and refilled when the entry is reused.
    slots: Vec<NodeId>,
    /// Kernels not yet finished.
    remaining: usize,
    /// Transient-failure retries charged against the job's retry budget.
    retries: u32,
}

/// The open-system engine. See the module docs.
pub struct OpenEngine<'a> {
    config: &'a SystemConfig,
    lookup: &'a LookupTable,
    /// The slot arena: an owned graph whose nodes are recycled across jobs.
    dag: KernelDag,
    /// Per-slot cost rows, rebound on admission.
    cost: CostModel,
    core: EngineCore,
    /// Slab index of each slot's owning job.
    slot_job: Vec<u32>,
    /// Free slots, reused LIFO.
    free: Vec<NodeId>,
    /// The live-job slab; bounded by the peak of in-flight jobs.
    live: Vec<LiveJob>,
    /// Retired slab entries, reused LIFO.
    free_jobs: Vec<u32>,
    /// Active slab entries: the jobs in flight.
    live_jobs: usize,
    next_job: u64,
    /// Global admission sequence feeding the ordered ready set.
    next_seq: u64,
    /// Whether [`OpenEngine::prepare`] has run (explicitly, or on the
    /// first [`OpenEngine::decide`]).
    prepared: bool,
    completed: Vec<CompletedJob>,
    /// Record buffers taken back by [`OpenEngine::drain_completed`], reused
    /// by the next retirements.
    record_pool: Vec<Vec<TaskRecord>>,
    /// Retry policy in force when a fault plan is armed (budget checks).
    retry: RetryPolicy,
    in_flight_kernels: usize,
    peak_in_flight_jobs: usize,
    peak_in_flight_kernels: usize,
    // Reusable step buffers (allocation-free steady state, like the closed
    // engine's run loop).
    out: AssignmentBuf,
    batch: Vec<Event>,
    finished_buf: Vec<NodeId>,
}

impl<'a> OpenEngine<'a> {
    /// A fresh open engine over `config`'s machine with the default FCFS
    /// ready order. Validates the machine once; jobs are admitted with
    /// [`OpenEngine::admit`].
    pub fn new(config: &'a SystemConfig, lookup: &'a LookupTable) -> Result<Self, BaseError> {
        OpenEngine::with_order(config, lookup, ReadyOrder::Admission)
    }

    /// A fresh open engine with an explicit ready-set iteration order.
    pub fn with_order(
        config: &'a SystemConfig,
        lookup: &'a LookupTable,
        order: ReadyOrder,
    ) -> Result<Self, BaseError> {
        config.validate()?;
        let mut core = EngineCore::for_machine(config, true);
        core.ready_order = order;
        Ok(OpenEngine {
            config,
            lookup,
            dag: KernelDag::new(),
            cost: CostModel::for_streaming(config),
            core,
            slot_job: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            free_jobs: Vec::new(),
            live_jobs: 0,
            next_job: 0,
            next_seq: 0,
            prepared: false,
            completed: Vec::new(),
            record_pool: Vec::new(),
            retry: RetryPolicy::default(),
            in_flight_kernels: 0,
            peak_in_flight_jobs: 0,
            peak_in_flight_kernels: 0,
            out: AssignmentBuf::with_capacity(config.len().max(4)),
            batch: Vec::with_capacity(config.len() + 2),
            finished_buf: Vec::new(),
        })
    }

    /// Run the policy's `prepare` hook against the (initially empty) arena.
    /// Static policies are rejected: they plan over the entire DFG, which an
    /// open system does not have.
    ///
    /// [`OpenEngine::decide`] calls this itself on its first call when the
    /// caller never did, so a policy instance that drove another engine
    /// before never decides against caches built for that engine's cost
    /// model (APT's per-class admissible-processor masks). A policy drives
    /// one engine at a time: interleaving engines needs a `prepare` at
    /// every switch.
    pub fn prepare(&mut self, policy: &mut dyn Policy) -> Result<(), BaseError> {
        if policy.kind() == PolicyKind::Static {
            return Err(BaseError::InvalidAssignment {
                reason: format!(
                    "static policy {} needs the whole DFG up front; \
                     open streams support dynamic policies only",
                    policy.name()
                ),
            });
        }
        policy.prepare(PrepareCtx {
            dfg: &self.dag,
            lookup: self.lookup,
            config: self.config,
            cost: &self.cost,
        })?;
        self.prepared = true;
        Ok(())
    }

    /// Arm a fault plan over this engine: transient kernel failures,
    /// processor crash/repair cycles, and link-degradation episodes drawn
    /// from the plan's own seeded RNG stream, with failed kernels retried
    /// under `retry`. Call once, before stepping; a [`FaultPlan::none()`]
    /// plan is a no-op and leaves the run byte-identical to a fault-free
    /// one.
    ///
    /// When a kernel exhausts `retry.max_attempts`, or a job spends more
    /// than `retry.job_retry_budget` retries in total, the **whole job** is
    /// shed: its unfinished kernels are withdrawn and its [`CompletedJob`]
    /// is delivered with [`CompletedJob::failed`] set (partial records).
    pub fn arm_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.retry = retry;
        self.core.arm_faults(plan, retry);
    }

    /// Fault counters as of the current instant (all zeros when no plan is
    /// armed). Downtime of processors still under repair is included.
    pub fn fault_totals(&self) -> FaultTotals {
        self.core.fault_totals()
    }

    /// Arm an event-trace sink. From here on every admission, dispatch,
    /// transfer, completion, fault, and APT decision record flows into the
    /// sink, stamped with simulation time. Tracing is purely observational:
    /// an armed sink never changes a schedule, and an unarmed engine pays a
    /// single branch per would-be event.
    pub fn arm_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.core.arm_trace(sink);
    }

    /// The armed trace sink, for driver-level events (job shed, window
    /// counters, control actions) that the engine itself cannot see.
    /// `None` when tracing is off.
    pub fn tracer_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.core.tracer_mut()
    }

    /// Disarm tracing and hand the sink back, typically at the end of a
    /// traced run to export its events.
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.core.take_trace()
    }

    /// Processors currently up (not crashed). Equal to the machine size on
    /// fault-free runs; admission gates scale their capacity model by this.
    #[inline]
    pub fn live_procs(&self) -> usize {
        self.core.up_mask.count_ones() as usize
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The [`JobId`] the *next* successful [`OpenEngine::admit`] will
    /// assign. Admission gates key their per-job reservations on this, so
    /// they never have to mirror the engine's id sequence themselves.
    #[inline]
    pub fn next_job_id(&self) -> JobId {
        JobId(self.next_job)
    }

    /// The instant of the next pending event (completion or arrival), if
    /// any. The driver uses this to admit each arrival just-in-time.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.core.events.peek_time()
    }

    /// Jobs admitted but not yet fully retired.
    #[inline]
    pub fn in_flight_jobs(&self) -> usize {
        self.live_jobs
    }

    /// Kernels belonging to in-flight jobs.
    #[inline]
    pub fn in_flight_kernels(&self) -> usize {
        self.in_flight_kernels
    }

    /// Size of the slot arena — the *peak* of in-flight kernels over the
    /// run, and the thing that stays bounded when millions of jobs stream
    /// through.
    #[inline]
    pub fn arena_slots(&self) -> usize {
        self.dag.len()
    }

    /// Most jobs ever simultaneously in flight.
    #[inline]
    pub fn peak_in_flight_jobs(&self) -> usize {
        self.peak_in_flight_jobs
    }

    /// Most kernels ever simultaneously in flight.
    #[inline]
    pub fn peak_in_flight_kernels(&self) -> usize {
        self.peak_in_flight_kernels
    }

    /// Cumulative per-processor aggregates so far.
    pub fn proc_stats(&self) -> Vec<ProcStats> {
        self.core.proc_stats()
    }

    /// Submit one job: `kernels` in stream order plus intra-job dependency
    /// `edges` over their local indices (`from < to`, which both rules out
    /// cycles and mirrors how the workload generators number kernels). The
    /// job enters the system at instant `at` (`≥ now`; every kernel of the
    /// job shares the arrival, exactly like `simulate_stream`'s per-node
    /// arrival vector would express it).
    pub fn admit(
        &mut self,
        kernels: &[Kernel],
        edges: &[(u32, u32)],
        at: SimTime,
    ) -> Result<JobId, BaseError> {
        self.admit_with_deadline(kernels, edges, at, None)
    }

    /// [`OpenEngine::admit`] with an absolute deadline: every kernel of the
    /// job is stamped with it (visible to policies through
    /// [`crate::SimView::deadline`]), the retired [`CompletedJob`] reports
    /// tardiness against it, and under [`ReadyOrder::EarliestDeadline`] it
    /// drives the ready set's iteration order. A deadline already in the
    /// past is allowed — the job is simply tardy from the start. An arrival
    /// after [`ARRIVAL_HORIZON`] is rejected.
    pub fn admit_with_deadline(
        &mut self,
        kernels: &[Kernel],
        edges: &[(u32, u32)],
        at: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<JobId, BaseError> {
        if at < self.core.now {
            return Err(BaseError::InvalidAssignment {
                reason: format!(
                    "job admitted at {at}, before the current instant {}",
                    self.core.now
                ),
            });
        }
        if at > ARRIVAL_HORIZON {
            return Err(BaseError::InvalidAssignment {
                reason: format!("job admitted at {at}, past the arrival horizon {ARRIVAL_HORIZON}"),
            });
        }
        validate_job(kernels.len(), edges)?;
        let job = self.next_job;
        self.next_job += 1;
        let deadline_at = deadline.unwrap_or(SimTime::MAX);
        let entry = self.free_jobs.pop().unwrap_or_else(|| {
            self.live.push(LiveJob::default());
            (self.live.len() - 1) as u32
        });
        let mut slots = std::mem::take(&mut self.live[entry as usize].slots);
        slots.clear();
        for &kernel in kernels {
            let slot = match self.free.pop() {
                Some(s) => {
                    debug_assert_eq!(self.dag.in_degree(s) + self.dag.out_degree(s), 0);
                    *self.dag.node_mut(s) = kernel;
                    s
                }
                None => {
                    let s = self.dag.add_node(kernel);
                    self.core.ready.grow(self.dag.len());
                    self.core.ready_time.push(SimTime::ZERO);
                    self.core.remaining_preds.push(0);
                    self.core.arrived.push(false);
                    self.core.locations.push(None);
                    self.core.deadlines.push(SimTime::MAX);
                    self.core.records.push(None);
                    self.slot_job.push(0);
                    s
                }
            };
            self.cost.bind_slot(slot, &kernel, self.lookup);
            self.core.ready.set_class(slot, self.cost.class_of(slot));
            self.core.fault_reset_slot(slot, self.dag.len());
            self.core.arrived[slot.index()] = false;
            self.core.locations[slot.index()] = None;
            self.core.deadlines[slot.index()] = deadline_at;
            debug_assert!(self.core.records[slot.index()].is_none());
            self.slot_job[slot.index()] = entry;
            self.core.ready.set_seq(slot, self.next_seq);
            if self.core.ready_order == ReadyOrder::EarliestDeadline {
                // EDF priority: the absolute deadline in ns (MAX for
                // deadline-free jobs, which therefore sort last). FCFS
                // within a priority comes from the admission sequence.
                self.core.ready.set_prio(slot, deadline_at.as_ns());
            }
            self.next_seq += 1;
            slots.push(slot);
        }
        for &(a, b) in edges {
            self.dag
                .add_edge(slots[a as usize], slots[b as usize])
                // apt-lint: allow(hot-path-panic, edge endpoints were bounds-checked before any
                // slot was allocated)
                .expect("edges fully validated above");
        }
        for &slot in &slots {
            self.core.remaining_preds[slot.index()] = self.dag.in_degree(slot);
            // Provisional readiness clock, finalized when the node becomes
            // ready — the same convention as the closed-world constructor.
            self.core.ready_time[slot.index()] = at;
        }
        if self.core.tracing() {
            // Bind slots to the job *before* any KernelReady fires (the
            // `at <= now` arrive path emits readiness immediately), so a
            // replayer always knows which job a recycled slot belongs to.
            self.core.trace(TraceEvent::JobAdmitted {
                job,
                at,
                kernels: kernels.len() as u32,
                deadline,
            });
            for &slot in &slots {
                self.core.trace(TraceEvent::KernelBound {
                    node: slot.index() as u32,
                    job,
                    at,
                });
            }
        }
        if at <= self.core.now {
            for &slot in &slots {
                self.core.arrive(slot);
            }
        } else {
            // One event for the whole job; it reads the slots from the slab
            // entry when it fires (module docs).
            self.core.events.push(at, Event::ArriveJob(entry));
        }
        self.in_flight_kernels += slots.len();
        self.live[entry as usize] = LiveJob {
            job,
            active: true,
            arrival: at,
            deadline,
            slots,
            remaining: kernels.len(),
            retries: 0,
        };
        self.live_jobs += 1;
        self.peak_in_flight_jobs = self.peak_in_flight_jobs.max(self.live_jobs);
        self.peak_in_flight_kernels = self.peak_in_flight_kernels.max(self.in_flight_kernels);
        Ok(JobId(job))
    }

    /// Run the policy to a fixpoint at the current instant (one half of
    /// [`OpenEngine::step`]). After this, [`OpenEngine::next_event_time`]
    /// reflects everything the policy scheduled — the streaming driver
    /// admits arrivals against that, so "due" means "nothing can happen
    /// before this arrival".
    pub fn decide(&mut self, policy: &mut dyn Policy) -> Result<(), BaseError> {
        if !self.prepared {
            self.prepare(policy)?;
        }
        let OpenEngine {
            config,
            lookup,
            dag,
            cost,
            core,
            out,
            ..
        } = self;
        let ctx = EngineCtx {
            dfg: dag,
            config,
            lookup,
            cost,
        };
        core.fixpoint(ctx, policy, out)
    }

    /// Advance to (and handle) the next event batch, retiring any jobs
    /// whose last kernel finished (the other half of [`OpenEngine::step`]).
    /// Returns the instant advanced to, or `None` when no event was
    /// pending — i.e. time cannot move until another job is admitted.
    pub fn advance(&mut self) -> Result<Option<SimTime>, BaseError> {
        let advanced = {
            let OpenEngine {
                config,
                lookup,
                dag,
                cost,
                core,
                batch,
                live,
                ..
            } = self;
            let ctx = EngineCtx {
                dfg: dag,
                config,
                lookup,
                cost,
            };
            core.advance(ctx, batch, &|entry| {
                let job = &live[entry as usize];
                debug_assert!(job.active, "a job arrives before it can retire");
                &job.slots
            })?
        };
        if advanced.is_some() {
            self.retire_finished();
            self.settle_faults()?;
        }
        Ok(advanced)
    }

    /// One engine step: [`OpenEngine::decide`] then [`OpenEngine::advance`]
    /// — exactly one iteration of the closed engine's loop.
    pub fn step(&mut self, policy: &mut dyn Policy) -> Result<Option<SimTime>, BaseError> {
        self.decide(policy)?;
        self.advance()
    }

    /// Move every job completed since the last drain into `out`, in
    /// completion order. The jobs `out` still holds are dropped first, and
    /// their record buffers go back to the engine for later retirements:
    /// drain into one long-lived vector and the steady state allocates no
    /// record buffer at all.
    pub fn drain_completed(&mut self, out: &mut Vec<CompletedJob>) {
        self.record_pool
            .extend(out.drain(..).map(|job| job.records));
        out.append(&mut self.completed);
    }

    /// An empty record buffer with room for `len` records: a recycled one
    /// when the pool has one.
    fn record_buf(pool: &mut Vec<Vec<TaskRecord>>, len: usize) -> Vec<TaskRecord> {
        let mut records = pool.pop().unwrap_or_default();
        records.clear();
        records.reserve(len);
        records
    }

    /// Free the slots of every job whose last kernel just finished and queue
    /// its [`CompletedJob`].
    fn retire_finished(&mut self) {
        let mut finished = std::mem::take(&mut self.finished_buf);
        self.core.take_finished(&mut finished);
        for &node in &finished {
            let entry = self.slot_job[node.index()];
            let live = &mut self.live[entry as usize];
            debug_assert!(live.active, "a finished node belongs to a live job");
            live.remaining -= 1;
            if live.remaining > 0 {
                continue;
            }
            live.active = false;
            let mut records = Self::record_buf(&mut self.record_pool, live.slots.len());
            for (local, &slot) in live.slots.iter().enumerate() {
                let mut record = self.core.records[slot.index()]
                    .take()
                    // apt-lint: allow(hot-path-panic, every kernel of the job wrote its record
                    // before the job completed)
                    .expect("every kernel of a finished job has a record");
                record.node = NodeId::new(local);
                records.push(record);
                self.dag.detach_node(slot);
                self.free.push(slot);
            }
            self.in_flight_kernels -= live.slots.len();
            self.completed.push(CompletedJob {
                job: JobId(live.job),
                arrival: live.arrival,
                deadline: live.deadline,
                records,
                failed: false,
            });
            self.free_jobs.push(entry);
            self.live_jobs -= 1;
        }
        self.finished_buf = finished;
    }

    /// Process fault outcomes of the latest event batch: charge retries
    /// against per-job budgets and shed every job with an exhausted kernel
    /// or a spent budget. A no-op (empty drains) when no plan is armed.
    fn settle_faults(&mut self) -> Result<(), BaseError> {
        if self.core.retried_nodes.is_empty() && self.core.failed_nodes.is_empty() {
            return Ok(());
        }
        let mut retried = std::mem::take(&mut self.core.retried_nodes);
        for &node in &retried {
            let entry = self.slot_job[node.index()];
            let live = &mut self.live[entry as usize];
            if !live.active {
                continue; // job already shed this batch
            }
            live.retries += 1;
            if live.retries > self.retry.job_retry_budget {
                self.cancel_job(entry)?;
            }
        }
        retried.clear();
        self.core.retried_nodes = retried;
        let mut failed = std::mem::take(&mut self.core.failed_nodes);
        for &node in &failed {
            let entry = self.slot_job[node.index()];
            if self.live[entry as usize].active {
                self.cancel_job(entry)?;
            }
        }
        failed.clear();
        self.core.failed_nodes = failed;
        Ok(())
    }

    /// Shed one in-flight job: withdraw its unfinished kernels from the
    /// engine (ready set, processor queues, in-flight execution, pending
    /// retries), free its slots, and deliver a [`CompletedJob`] with
    /// `failed: true` carrying the records of the kernels that did finish.
    fn cancel_job(&mut self, entry: u32) -> Result<(), BaseError> {
        let OpenEngine {
            config,
            lookup,
            dag,
            cost,
            core,
            free,
            live,
            free_jobs,
            live_jobs,
            completed,
            record_pool,
            in_flight_kernels,
            ..
        } = self;
        let live = &mut live[entry as usize];
        debug_assert!(live.active, "cancelling a live job");
        live.active = false;
        let mut records = Self::record_buf(record_pool, 0);
        for (local, &slot) in live.slots.iter().enumerate() {
            if let Some(mut record) = core.records[slot.index()].take() {
                record.node = NodeId::new(local);
                records.push(record);
            }
            let ctx = EngineCtx {
                dfg: dag,
                config,
                lookup,
                cost,
            };
            core.cancel_slot(ctx, slot)?;
            dag.detach_node(slot);
            free.push(slot);
        }
        *in_flight_kernels -= live.slots.len();
        core.note_job_failed();
        completed.push(CompletedJob {
            job: JobId(live.job),
            arrival: live.arrival,
            deadline: live.deadline,
            records,
            failed: true,
        });
        free_jobs.push(entry);
        *live_jobs -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Assignment, PolicyKind};
    use crate::view::SimView;
    use apt_base::SimDuration;
    use apt_dfg::KernelKind;

    /// Place each ready kernel on the first idle processor able to run it.
    struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
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

    /// The first error `validate_job` reports, as its message.
    fn job_error(kernel_count: usize, edges: &[(u32, u32)]) -> Option<String> {
        validate_job(kernel_count, edges)
            .err()
            .map(|e| e.to_string())
    }

    #[test]
    fn validate_job_names_the_first_offending_edge() {
        // Sorted lists: each edge tops the running maximum unless it
        // repeats the one before it.
        assert_eq!(job_error(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]), None);
        assert_eq!(
            job_error(4, &[(0, 1), (1, 2), (1, 2), (2, 3), (2, 3)]),
            Some("invalid assignment: duplicate job edge (1, 2)".into())
        );
        // Unsorted lists: an edge below the maximum scans, and its twin
        // need not be adjacent.
        assert_eq!(job_error(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]), None);
        assert_eq!(
            job_error(4, &[(0, 1), (1, 3), (0, 2), (1, 3), (0, 1)]),
            Some("invalid assignment: duplicate job edge (1, 3)".into())
        );
        // Non-ascending and out-of-range edges, sorted or not; an earlier
        // bad edge wins over a later duplicate and vice versa.
        let not_ascending = |a: u32, b: u32| {
            Some(format!(
                "invalid assignment: job edge ({a}, {b}) is not ascending within 4 kernels"
            ))
        };
        assert_eq!(job_error(4, &[(0, 1), (2, 2)]), not_ascending(2, 2));
        assert_eq!(job_error(4, &[(3, 1), (0, 1)]), not_ascending(3, 1));
        assert_eq!(job_error(4, &[(0, 4)]), not_ascending(0, 4));
        assert_eq!(job_error(4, &[(1, 2), (0, 9)]), not_ascending(0, 9));
        assert_eq!(
            job_error(4, &[(0, 1), (0, 1), (2, 1)]),
            Some("invalid assignment: duplicate job edge (0, 1)".into())
        );
        assert_eq!(job_error(4, &[(0, 1), (2, 1), (0, 1)]), not_ascending(2, 1));
        assert_eq!(
            job_error(0, &[]),
            Some("invalid assignment: a job needs at least one kernel".into())
        );
    }

    #[test]
    fn validate_job_matches_the_exact_scan_on_random_lists() {
        // The quadratic check every list used to take, as the oracle.
        fn exact(kernel_count: usize, edges: &[(u32, u32)]) -> Option<String> {
            for (i, &(a, b)) in edges.iter().enumerate() {
                if a >= b || (b as usize) >= kernel_count {
                    return Some(format!(
                        "invalid assignment: job edge ({a}, {b}) is not ascending within {kernel_count} kernels"
                    ));
                }
                if edges[..i].contains(&(a, b)) {
                    return Some(format!("invalid assignment: duplicate job edge ({a}, {b})"));
                }
            }
            None
        }
        let mut rng = apt_dfg::SplitMix64::new(17);
        for _ in 0..2_000 {
            let n = 1 + rng.gen_index(6);
            let mut edges: Vec<(u32, u32)> = (0..rng.gen_index(8))
                .map(|_| (rng.gen_range(7) as u32, rng.gen_range(7) as u32))
                .collect();
            if rng.gen_range(2) == 0 {
                edges.sort_unstable();
            }
            assert_eq!(
                job_error(n, &edges),
                exact(n, &edges),
                "{n} kernels, {edges:?}"
            );
        }
    }

    struct StaticStub;
    impl Policy for StaticStub {
        fn name(&self) -> String {
            "Static".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Static
        }
        fn decide(&mut self, _view: &SimView<'_>, _out: &mut AssignmentBuf) {}
    }

    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }

    fn run_to_completion(engine: &mut OpenEngine<'_>, policy: &mut dyn Policy) {
        while engine.step(policy).unwrap().is_some() {}
        assert_eq!(engine.in_flight_kernels(), 0);
    }

    #[test]
    fn single_job_runs_and_retires() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.prepare(&mut policy).unwrap();
        // A two-kernel chain arriving at t = 5 ms.
        engine
            .admit(&[bfs(), bfs()], &[(0, 1)], SimTime::from_ms(5))
            .unwrap();
        assert_eq!(engine.in_flight_jobs(), 1);
        run_to_completion(&mut engine, &mut policy);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        let job = &done[0];
        assert_eq!(job.job, JobId(0));
        assert_eq!(job.arrival, SimTime::from_ms(5));
        assert_eq!(job.records.len(), 2);
        // Records are job-local and respect the chain.
        assert_eq!(job.records[0].node, NodeId::new(0));
        assert_eq!(job.records[1].node, NodeId::new(1));
        assert!(job.records[0].ready >= SimTime::from_ms(5));
        assert!(job.records[1].start >= job.records[0].finish);
        assert_eq!(job.finish(), job.records[1].finish);
        assert_eq!(engine.in_flight_jobs(), 0);
    }

    /// A job admitted for a later instant takes one queue entry, however
    /// many kernels it has; when it fires, every kernel arrives, in slot
    /// order, ahead of the next job's.
    #[test]
    fn a_future_job_arrives_through_one_event() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let at = SimTime::from_ms(5);
        engine.admit(&[bfs(), bfs(), bfs()], &[], at).unwrap();
        engine.admit(&[bfs(), bfs()], &[(0, 1)], at).unwrap();
        assert_eq!(engine.core.events.len(), 2);
        assert_eq!(engine.advance().unwrap(), Some(at));
        assert!(engine.core.events.is_empty());
        assert!(engine.core.arrived.iter().all(|&a| a));
        let ready: Vec<NodeId> = engine.core.ready.iter().collect();
        assert_eq!(ready, [0, 1, 2, 3].map(NodeId::new));
    }

    #[test]
    fn slots_recycle_and_bound_the_arena() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        // 50 sequential one-kernel jobs spaced far apart: never more than
        // one in flight, so the arena must stay at one slot.
        for j in 0..50u64 {
            engine
                .admit(&[bfs()], &[], SimTime::from_ms(j * 10_000))
                .unwrap();
            while engine.in_flight_kernels() > 0 {
                engine.step(&mut policy).unwrap();
            }
        }
        assert_eq!(engine.arena_slots(), 1, "arena grew past in-flight peak");
        assert_eq!(engine.peak_in_flight_jobs(), 1);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 50);
        // Jobs retired in admission order here; each record renumbered.
        for (j, job) in done.iter().enumerate() {
            assert_eq!(job.job, JobId(j as u64));
            assert_eq!(job.records[0].node, NodeId::new(0));
        }
        let stats = engine.proc_stats();
        assert_eq!(stats.iter().map(|s| s.kernels).sum::<usize>(), 50);
    }

    #[test]
    fn drains_recycle_record_buffers() {
        // Drain after every step, as the stream driver does: the drain that
        // follows a delivery hands the delivered jobs' buffers back, and the
        // next retirement writes its records into one of them.
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        let mut done = Vec::new();
        let mut buffers = Vec::new();
        for j in 0..3u64 {
            engine
                .admit(&[bfs()], &[], SimTime::from_ms(j * 10_000))
                .unwrap();
            while engine.in_flight_jobs() > 0 {
                engine.step(&mut policy).unwrap();
                engine.drain_completed(&mut done);
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].job, JobId(j));
            assert_eq!(done[0].records.len(), 1);
            buffers.push(done[0].records.as_ptr());
        }
        assert_eq!(buffers[1], buffers[0]);
        assert_eq!(buffers[2], buffers[0]);
        // A caller that moves the jobs out keeps their records, and later
        // jobs get fresh buffers.
        let taken = std::mem::take(&mut done);
        engine.admit(&[bfs()], &[], engine.now()).unwrap();
        run_to_completion(&mut engine, &mut policy);
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(taken[0].records.len(), 1);
        assert_ne!(done[0].records.as_ptr(), taken[0].records.as_ptr());
    }

    #[test]
    fn the_job_slab_is_bounded_by_jobs_in_flight() {
        // One long-lived job, with short ones retiring one by one behind
        // it: the slab holds two entries, however far the job ids drift
        // apart.
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        let long = [Kernel::new(KernelKind::MatMul, 16_000_000); 3];
        engine
            .admit(&long, &[(0, 1), (1, 2)], SimTime::ZERO)
            .unwrap();
        let mut done = Vec::new();
        let mut short = 0;
        while done.iter().all(|j: &CompletedJob| j.job != JobId(0)) {
            engine.admit(&[bfs()], &[], engine.now()).unwrap();
            short += 1;
            assert_eq!(engine.in_flight_jobs(), 2);
            while engine.in_flight_jobs() == 2 {
                engine.step(&mut policy).unwrap();
            }
            engine.drain_completed(&mut done);
        }
        assert!(
            short >= 10,
            "only {short} short jobs ran beside the long one"
        );
        assert_eq!(engine.live.len(), 2);
        assert_eq!(engine.peak_in_flight_jobs(), 2);
    }

    #[test]
    fn arrivals_past_the_horizon_are_rejected() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let past = SimTime::from_ns(ARRIVAL_HORIZON.as_ns() + 1);
        assert!(engine.admit(&[bfs()], &[], past).is_err());
        assert_eq!(engine.arena_slots(), 0, "a rejected job consumed slots");
        assert_eq!(engine.in_flight_jobs(), 0);
        assert_eq!(engine.next_job_id(), JobId(0));
        engine.admit(&[bfs()], &[], ARRIVAL_HORIZON).unwrap();
        run_to_completion(&mut engine, &mut FirstFit);
        assert!(engine.now() > ARRIVAL_HORIZON);
    }

    #[test]
    fn static_policies_are_rejected() {
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        assert!(engine.prepare(&mut StaticStub).is_err());
    }

    #[test]
    fn malformed_jobs_are_rejected() {
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        // Non-ascending edge.
        assert!(engine
            .admit(&[bfs(), bfs()], &[(1, 0)], SimTime::ZERO)
            .is_err());
        // Edge out of range.
        assert!(engine.admit(&[bfs()], &[(0, 5)], SimTime::ZERO).is_err());
        // Duplicate edge: must be rejected up front, NOT discovered
        // mid-admission (which would leak slots and leave a stray edge).
        assert!(engine
            .admit(&[bfs(), bfs()], &[(0, 1), (0, 1)], SimTime::ZERO)
            .is_err());
        assert_eq!(engine.arena_slots(), 0, "rejected job consumed slots");
        assert_eq!(engine.in_flight_jobs(), 0);
        // Zero-kernel jobs have no completion event and are rejected.
        assert!(engine.admit(&[], &[], SimTime::from_ms(3)).is_err());
        // The engine is still fully usable after rejections.
        let mut policy = FirstFit;
        engine
            .admit(&[bfs(), bfs()], &[(0, 1)], SimTime::ZERO)
            .unwrap();
        run_to_completion(&mut engine, &mut policy);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].records.len(), 2);
    }

    #[test]
    fn admission_into_the_past_is_rejected() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.admit(&[bfs()], &[], SimTime::from_ms(10)).unwrap();
        run_to_completion(&mut engine, &mut policy);
        assert!(engine.now() > SimTime::ZERO);
        assert!(engine.admit(&[bfs()], &[], SimTime::ZERO).is_err());
    }

    #[test]
    fn fcfs_order_survives_slot_recycling() {
        // Job A retires, freeing low slot ids; jobs B (older) and C (newer)
        // are then ready at the same instant. The policy must see B first
        // even though C may occupy the recycled (lower) slot ids.
        struct RecordOrder(Vec<u64>);
        impl Policy for RecordOrder {
            fn name(&self) -> String {
                "RecordOrder".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
                let ready: Vec<NodeId> = view.ready.iter().collect();
                if let Some(&first) = ready.first() {
                    // Log the head's kernel size (stamps job identity).
                    self.0.push(view.kernel(first).data_size);
                    for p in view.idle_procs() {
                        if view.exec_time(first, p.id).is_some() {
                            out.push(Assignment::new(first, p.id));
                            return;
                        }
                    }
                }
            }
        }
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = RecordOrder(Vec::new());
        // Job 0: one quick kernel at t=0 (will retire and free slot 0).
        engine
            .admit(
                &[Kernel::new(KernelKind::Cholesky, 250_000)],
                &[],
                SimTime::ZERO,
            )
            .unwrap();
        while engine.in_flight_kernels() > 0 {
            engine.step(&mut policy).unwrap();
        }
        // Jobs 1 and 2 arrive at the same later instant; job 2 reuses the
        // freed slot 0 (lower id) but must iterate *after* job 1.
        let t = SimTime::from_ms(500);
        engine.admit(&[bfs(), bfs()], &[], t).unwrap(); // job 1: slots 1(?)…
        engine
            .admit(&[Kernel::new(KernelKind::MatMul, 4_000_000)], &[], t)
            .unwrap(); // job 2 reuses slot 0
        let mut run = |e: &mut OpenEngine<'_>| while e.step(&mut policy).unwrap().is_some() {};
        run(&mut engine);
        assert_eq!(engine.in_flight_kernels(), 0);
        // First head logged after the quick job is job 1's bfs — not job
        // 2's matmul, despite the lower slot id.
        let after: Vec<u64> = policy.0.iter().copied().skip(1).collect();
        assert_eq!(after.first(), Some(&bfs().data_size));
        assert!(after.contains(&4_000_000));
    }

    #[test]
    fn edf_order_and_deadlines_thread_through() {
        // Two jobs ready at the same instant, admitted FCFS 0 then 1, but
        // job 1 carries the *earlier* deadline: under EarliestDeadline the
        // policy must see job 1's kernel first, and the deadline must be
        // visible on the view.
        struct HeadLogger(Vec<(u64, Option<SimTime>)>);
        impl Policy for HeadLogger {
            fn name(&self) -> String {
                "HeadLogger".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Dynamic
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
                if let Some(first) = view.ready.first() {
                    self.0
                        .push((view.kernel(first).data_size, view.deadline(first)));
                    for p in view.idle_procs() {
                        if view.exec_time(first, p.id).is_some() {
                            out.push(Assignment::new(first, p.id));
                            return;
                        }
                    }
                }
            }
        }
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine =
            OpenEngine::with_order(&config, lookup, ReadyOrder::EarliestDeadline).unwrap();
        let mut policy = HeadLogger(Vec::new());
        let loose = SimTime::from_ms(10_000);
        let tight = SimTime::from_ms(200);
        engine
            .admit_with_deadline(&[bfs()], &[], SimTime::ZERO, Some(loose))
            .unwrap();
        engine
            .admit_with_deadline(
                &[Kernel::new(KernelKind::MatMul, 4_000_000)],
                &[],
                SimTime::ZERO,
                Some(tight),
            )
            .unwrap();
        run_to_completion(&mut engine, &mut policy);
        // The tight-deadline matmul iterated first despite later admission.
        assert_eq!(
            policy.0.first(),
            Some(&(4_000_000, Some(tight))),
            "EDF order ignored the deadline"
        );
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 2);
        for job in &done {
            assert!(job.deadline.is_some());
            // bfs best is 106 ms < 10 s → met; matmul runs multi-second
            // against a 200 ms deadline → tardy.
            if job.deadline == Some(tight) {
                assert!(job.missed_deadline());
                assert!(!job.tardiness().unwrap().is_zero());
            } else {
                assert!(!job.missed_deadline());
                assert_eq!(job.tardiness(), Some(SimDuration::ZERO));
            }
        }
        // Deadline-free admissions report no tardiness at all.
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut ff = FirstFit;
        engine.admit(&[bfs()], &[], SimTime::ZERO).unwrap();
        run_to_completion(&mut engine, &mut ff);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done[0].deadline, None);
        assert_eq!(done[0].tardiness(), None);
        assert!(!done[0].missed_deadline());
    }

    #[test]
    fn open_engine_matches_closed_stream_on_a_mixed_workload() {
        // Three overlapping jobs through the open engine vs the same
        // workload materialized for simulate_stream: identical records.
        use crate::engine::simulate_stream;
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        type JobSpec = (SimTime, Vec<Kernel>, Vec<(u32, u32)>);
        let jobs: Vec<JobSpec> = vec![
            (
                SimTime::ZERO,
                vec![bfs(), Kernel::new(KernelKind::MatMul, 4_000_000), bfs()],
                vec![(0, 1), (0, 2)],
            ),
            (
                SimTime::from_ms(40),
                vec![Kernel::canonical(KernelKind::Srad), bfs()],
                vec![(0, 1)],
            ),
            (SimTime::from_ms(40), vec![bfs()], vec![]),
        ];
        // Open run.
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.prepare(&mut policy).unwrap();
        let mut admitted = 0usize;
        loop {
            while admitted < jobs.len() {
                let due = match engine.next_event_time() {
                    None => true,
                    Some(t) => jobs[admitted].0 <= t,
                };
                if !due {
                    break;
                }
                let (at, kernels, edges) = &jobs[admitted];
                engine.admit(kernels, edges, *at).unwrap();
                admitted += 1;
            }
            if engine.step(&mut policy).unwrap().is_none() {
                assert_eq!(admitted, jobs.len());
                break;
            }
        }
        let mut open_done = Vec::new();
        engine.drain_completed(&mut open_done);
        // Closed-world reference over the merged DAG.
        let mut dag = KernelDag::new();
        let mut arrivals = Vec::new();
        let mut offsets = Vec::new();
        for (at, kernels, edges) in &jobs {
            let base = dag.len();
            offsets.push(base);
            for &k in kernels {
                dag.add_node(k);
                arrivals.push(*at);
            }
            for &(a, b) in edges {
                dag.add_edge(
                    NodeId::new(base + a as usize),
                    NodeId::new(base + b as usize),
                )
                .unwrap();
            }
        }
        let closed = simulate_stream(&dag, &config, lookup, &mut FirstFit, &arrivals).unwrap();
        assert_eq!(open_done.len(), jobs.len());
        for done in &open_done {
            let JobId(j) = done.job;
            let base = offsets[j as usize];
            for rec in &done.records {
                let global = closed
                    .trace
                    .record(NodeId::new(base + rec.node.index()))
                    .unwrap();
                assert_eq!(rec.kernel, global.kernel);
                assert_eq!(rec.proc, global.proc);
                assert_eq!(rec.ready, global.ready);
                assert_eq!(rec.start, global.start);
                assert_eq!(rec.exec_start, global.exec_start);
                assert_eq!(rec.finish, global.finish);
                assert_eq!(rec.alt, global.alt);
            }
        }
        assert_eq!(engine.proc_stats(), closed.trace.proc_stats);
        // λ accounting identical too.
        let open_lambda: SimDuration = open_done
            .iter()
            .flat_map(|d| d.records.iter().map(TaskRecord::lambda))
            .sum();
        assert_eq!(open_lambda, closed.trace.lambda_total());
    }

    #[test]
    fn retry_exhaustion_sheds_the_job_with_partial_records() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.prepare(&mut policy).unwrap();
        // Every execution fails and nothing retries: the chain's first
        // kernel fails once, the job is shed, the successor never runs.
        engine.arm_faults(
            FaultPlan::seeded(3).with_transient(1.0),
            RetryPolicy::no_retries(),
        );
        engine
            .admit(&[bfs(), bfs()], &[(0, 1)], SimTime::ZERO)
            .unwrap();
        run_to_completion(&mut engine, &mut policy);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert!(done[0].failed, "shed job must be marked failed");
        assert!(
            done[0].records.is_empty(),
            "no kernel completed, so no records"
        );
        let totals = engine.fault_totals();
        assert_eq!(totals.jobs_failed, 1);
        assert_eq!(totals.kernel_failures, 1);
        assert_eq!(totals.retries, 0, "no_retries must schedule no retry");
        assert!(totals.wasted_ns > 0, "the failed attempt wasted work");
        // The slot machinery survives the cancellation: a fresh admission
        // still flows (and fails again under p = 1, exercising reuse).
        engine.admit(&[bfs()], &[], engine.now()).unwrap();
        run_to_completion(&mut engine, &mut policy);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert!(done[0].failed);
        assert_eq!(engine.fault_totals().jobs_failed, 2);
    }

    #[test]
    fn job_retry_budget_bounds_thrash_before_shedding() {
        let config = SystemConfig::paper_no_transfers();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.prepare(&mut policy).unwrap();
        // p = 1 with a deep per-kernel attempt allowance: only the job
        // budget (2 retries) can stop the thrash — on the third retry the
        // job is over budget and shed.
        engine.arm_faults(
            FaultPlan::seeded(7).with_transient(1.0),
            RetryPolicy {
                max_attempts: 10,
                job_retry_budget: 2,
                ..RetryPolicy::default()
            },
        );
        engine.admit(&[bfs()], &[], SimTime::ZERO).unwrap();
        run_to_completion(&mut engine, &mut policy);
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert!(done[0].failed);
        let totals = engine.fault_totals();
        assert_eq!(totals.jobs_failed, 1);
        assert_eq!(totals.retries, 3, "retries 1, 2 within budget; 3 over");
        assert_eq!(totals.kernel_failures, 3);
    }

    #[test]
    fn crashes_mask_processors_but_jobs_still_finish() {
        let config = SystemConfig::paper_4gbps();
        let lookup = apt_dfg::LookupTable::paper();
        let mut engine = OpenEngine::new(&config, lookup).unwrap();
        let mut policy = FirstFit;
        engine.prepare(&mut policy).unwrap();
        assert_eq!(engine.live_procs(), 3);
        engine.arm_faults(
            FaultPlan::seeded(19).with_crashes(SimDuration::from_ms(500), SimDuration::from_ms(60)),
            RetryPolicy::default(),
        );
        // A batch of multi-second jobs so crashes land mid-run.
        for j in 0..6u64 {
            engine
                .admit(
                    &[Kernel::new(KernelKind::MatMul, 4_000_000), bfs()],
                    &[(0, 1)],
                    SimTime::from_ms(j),
                )
                .unwrap();
        }
        // The crash/repair calendar never drains, so loop on live work
        // instead of event exhaustion (the stream driver does the same).
        while engine.in_flight_jobs() > 0 {
            engine.step(&mut policy).unwrap();
        }
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|j| !j.failed), "crashes alone shed nothing");
        assert!(done.iter().all(|j| j.records.len() == 2));
        let totals = engine.fault_totals();
        assert!(totals.crashes > 0, "no crash landed in seconds of work");
        assert!(totals.down_ns > 0);
        assert_eq!(totals.kernel_failures, 0);
        assert!(engine.live_procs() <= 3);
    }
}
