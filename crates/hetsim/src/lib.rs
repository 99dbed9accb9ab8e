//! # apt-hetsim
//!
//! Discrete-event simulator for heterogeneous CPU/GPU/FPGA systems — the
//! experimental substrate of §3.2. "We have developed a software to simulate
//! the distributed hardware heterogeneous system, the incoming stream of
//! applications as a work load for the system and the different scheduling
//! policies." This crate is that software:
//!
//! * [`link`] — the PCI-Express link model (one link's rate; 4 GB/s for ×8
//!   lanes, 8 GB/s for ×16).
//! * [`topology`] — the machine's interconnect, in one of two forms: one
//!   rate between every processor pair (§3.2's model) or a per-pair matrix
//!   (clustered/NUMA-ish and host-staged star presets), plus optional
//!   per-link transfer contention (off by default).
//! * [`system`] — the simulated machine: a customizable set of processor
//!   instances plus its one [`Topology`] and the bytes-per-element
//!   convention.
//! * [`policy`] — the [`Policy`] trait every scheduling heuristic
//!   implements, and the [`Assignment`] type policies emit.
//! * [`view`] — the read-only snapshot of simulator state handed to dynamic
//!   policies on every decision edge.
//! * [`engine`] — the event loop: ready-set maintenance, per-processor
//!   queues, transfer+execute timing, λ-delay measurement.
//! * [`trace`] — the schedule log and the derived statistics of §3.2
//!   (makespan, per-processor busy/transfer/idle time, λ totals, Eq. 11–12).
//!
//! Determinism: time is integer nanoseconds, the event queue is totally
//! ordered by `(time, sequence number)`, and every argmin in the pipeline
//! breaks ties by the lowest index — two runs of the same configuration are
//! bit-identical.
//!
//! # Engine architecture & cost model
//!
//! The paper's core claim is that APT stays near HEFT/PEFT schedule quality
//! *without* their "intensive pre-computation" — so the per-decision cost of
//! the simulator is the experiment itself, and the decision path is built
//! around one principle: **nothing state-independent is computed on a
//! decision edge.**
//!
//! * [`cost::CostModel`] is precomputed once per
//!   `(KernelDag, LookupTable, SystemConfig)` at the top of
//!   [`simulate_stream`]. Per cost class (one lookup-table row) it holds a
//!   dense execution-time row over the machine's processors, the
//!   runnable-processor bitset, the `p_min` instance set with its tie mask
//!   and an `nprocs × nprocs` output-transfer row; per node only the class
//!   id. Every [`SimView`] cost query (`exec_time`, `placement_cost`,
//!   `best_proc`) and the engine's own admission/start bookkeeping are plain
//!   array reads against it — no `BTreeMap` walks, no allocation, no
//!   repeated `bytes / rate` division.
//! * The engine maintains its policy-visible state **incrementally**: the
//!   [`ProcView`] snapshots live in one `Vec` mutated as kernels start,
//!   finish and queue (with a running-sum windowed execution-time average,
//!   rounded to nearest); the ready set is an index-backed bitset
//!   ([`ready::ReadySet`]) with O(1) insert/remove/membership and
//!   deterministic ascending-id iteration (open streams add one sorted list
//!   per cost class, so a screened walk visits only the classes an idle
//!   processor can take); a running idle-processor bitset
//!   makes `SimView::any_idle` O(1).
//! * The event core is **allocation-free**: pending events live in a
//!   [`calendar::CalendarQueue`] (a deque sorted by `(time, push order)`,
//!   whole same-instant batches popped into a reused buffer) and every `Policy::decide` writes
//!   into a per-run [`policy::AssignmentBuf`] arena instead of returning a
//!   fresh `Vec` — so a steady-state fixpoint loop touches the allocator
//!   exactly zero times.
//! * Static policies get the same tables through [`PrepareCtx::cost`], so
//!   HEFT/PEFT plan construction shares the dense path.
//!
//! The differential test `tests/engine_equivalence.rs` (workspace root)
//! replays all twenty canonical workloads under every policy against a
//! straight port of the seed engine's naive bookkeeping and asserts
//! byte-identical traces, so this hot-path structure cannot silently change
//! schedules.
//!
//! # Failure model
//!
//! Both engines can optionally run under an `apt-faults` [`FaultPlan`]
//! (armed via [`simulate_stream_faulty`] or `OpenEngine::arm_faults`):
//! transient kernel failures abort a running kernel partway through and
//! re-execute it under a [`RetryPolicy`] (exponential backoff with jitter);
//! processor crashes (exponential MTTF/MTTR) kill the in-flight kernel,
//! flush the processor's queue, and mask the processor out of the idle set
//! until repair — [`ProcView::down`] is the policy-visible flag, and
//! [`SimView::up_mask`] / [`SimView::live_procs`] summarize surviving
//! capacity; link-degradation episodes scale transfer times on one (or
//! every) processor pair for a bounded interval. All fault draws come from
//! a dedicated salted RNG stream, so a disabled plan is byte-identical to a
//! fault-free run and workload generation never shifts under injection.
//! Orphaned and failed kernels re-enter the ordinary ready path, so any
//! dynamic policy fails over without fault-specific code — APT picks an
//! alternative processor within threshold while MET waits for its best
//! instance to be repaired, which is exactly the contrast the fault sweeps
//! measure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod cost;
pub mod engine;
pub mod link;
pub mod open;
pub mod policy;
pub mod ready;
#[cfg(test)]
mod shard_ready;
pub mod system;
pub mod topology;
pub mod trace;
pub mod view;

pub use apt_faults::{FaultPlan, FaultTotals, LinkDegradeSpec, RetryPolicy};
pub use apt_telemetry::LogHistogram;
pub use apt_trace::{DecisionMeta, DecisionRecord, NullSink, TraceEvent, TraceSink, VecSink};
pub use calendar::CalendarQueue;
pub use cost::{ClassId, CostModel};
pub use engine::{simulate, simulate_stream, simulate_stream_faulty};
pub use link::LinkRate;
pub use open::{validate_job, CompletedJob, JobId, OpenEngine, ReadyOrder, ARRIVAL_HORIZON};
pub use policy::{Assignment, AssignmentBuf, Policy, PolicyKind, PrepareCtx};
pub use ready::{ReadyEntry, ReadySet};
pub use system::{ProcSpec, SystemConfig};
pub use topology::{LinkContention, Topology};
pub use trace::{ProcStats, SimResult, TaskRecord, Trace};
pub use view::{ProcView, SimView};
