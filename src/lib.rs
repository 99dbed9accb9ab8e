//! # apt-suite
//!
//! Meta crate for the APT reproduction workspace: re-exports the full public
//! surface (via [`apt_core::prelude`]) and hosts the runnable examples and
//! the cross-crate integration tests.
//!
//! Start with `examples/quickstart.rs`:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! ## Observability
//!
//! The [`trace`] layer (`apt-trace`) records what the simulator *did*,
//! instant by instant, without perturbing it. Arm a
//! [`trace::TraceSink`] on a stream run with
//! [`apt_stream::StreamRun::trace`] — [`trace::VecSink`] to keep
//! everything, [`trace::RingSink`] to bound memory on long streams —
//! and every layer emits typed [`trace::TraceEvent`]s: kernel
//! dispatch/transfer/exec/completion on each processor, job
//! admission/shed/retirement, fault and retry instants, control-plane
//! actions, per-window counters (in-flight jobs, queue depth, live α/ρ,
//! miss rate), and a [`trace::DecisionRecord`] for every APT
//! alternative-processor choice with its full Eq.-8 provenance.
//!
//! Tracing is **off by default and free when off**: an untraced run
//! executes byte-identically to a run built before the trace layer
//! existed (pinned by the equivalence suites), and an armed
//! [`trace::NullSink`] isolates the cost of the emission sites.
//!
//! Render a recorded stream with [`trace::chrome::chrome_trace`]
//! (Chrome trace-event JSON — open it in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) or
//! [`trace::summary::render_summary`] (the §2.5.1 λ-delay decomposition:
//! dependency- vs scheduler- vs processor-wait per kernel). The same
//! exports are wired into the CLI as `apt-repro <scenario> --trace
//! <path>`, and `examples/traced_stream.rs` produces a loadable timeline
//! from a faulty, controlled diurnal stream:
//!
//! ```bash
//! cargo run --release -p apt-suite --example traced_stream trace.json
//! ```
//!
//! The [`telemetry`] layer (`apt-telemetry`) answers the *other*
//! observability question — not "what happened, instant by instant?" but
//! "how is the run doing, right now, in aggregate?". A
//! [`telemetry::Registry`] of counters, gauges and log-bucketed
//! histograms rides along a stream run
//! ([`apt_stream::StreamRun::telemetry`]), rendering three
//! surfaces: a Prometheus text exposition
//! ([`telemetry::render_prometheus`], re-checked by
//! [`telemetry::validate`]), a JSONL snapshot stream (one flat object per
//! closed metrics window), and a throttled stderr heartbeat for soak
//! runs. Its [`telemetry::LogHistogram`] is also the one quantile
//! estimator behind every latency and tardiness quantile a stream run
//! reports. Where the host time of a run goes is measured from the
//! outside, by perfbench's traced mode (`perfbench/run.py --trace 1`),
//! which calibrates its own span cost; the engine carries no profiler.
//!
//! Which layer to reach for:
//!
//! | | `trace` (apt-trace) | `telemetry` (apt-telemetry) |
//! |---|---|---|
//! | question | what did the machine do, instant by instant? | how is the run doing, in aggregate? |
//! | unit | typed event per occurrence | monotone counter / gauge / histogram bucket |
//! | memory | grows with events ([`trace::RingSink`] to bound) | fixed, independent of run length |
//! | mergeable | concat event streams | [`telemetry::Registry::merge`] across shards |
//! | exports | Chrome/Perfetto JSON, λ-delay summary | Prometheus text, JSONL windows, heartbeat |
//! | consumers | humans debugging one run | dashboards, CI gates, soak monitors |
//! | cost when off | zero (byte-identical runs) | zero (byte-identical runs) |
//!
//! Both are observers on the open driver's one event fan-out: every fact
//! the driver states — a job admitted, shed, retired or failed, a metrics
//! window closed, a control action, the end of the run — is built once
//! and handed to the metrics aggregator, the gate, the registry, the
//! trace and the per-job observer from one place, so the three views of
//! a run never disagree.
//!
//! Both ride the same run if you want both: `apt-repro stream-saturation
//! --trace t.json --progress --metrics m.prom` draws the timeline *and*
//! exports the registry from the same representative cell.
//! `examples/telemetry_soak.rs` is the soak-run shape — heartbeat on,
//! registry armed:
//!
//! ```bash
//! cargo run --release -p apt-suite --example telemetry_soak soak.prom
//! ```
//!
//! ## Invariants
//!
//! Three properties hold everywhere in this workspace, and `apt-lint`
//! (the workspace's own dependency-free static analyzer) enforces them
//! mechanically — in CI and in `apt-lint`'s `workspace_is_lint_clean`
//! test:
//!
//! * **Determinism** — same seed, same trace, byte for byte. Simulation
//!   crates never iterate a `HashMap`/`HashSet` (ordered containers or
//!   sorted key lists only; keyed lookup is fine) and never read the wall
//!   clock (`Instant::now`/`SystemTime` live only in the progress
//!   module). Time is the event clock; randomness is
//!   [`SplitMix64`].
//! * **RNG-stream discipline** — every RNG stream derives from a config
//!   seed or a named `*_STREAM_SALT` constant (e.g.
//!   `FAULT_STREAM_SALT`), never an inline magic number, so streams stay
//!   disjoint, greppable, and reproducible from the config alone.
//! * **Panic-freedom tiers** — on hot-path modules (the engine fixpoint,
//!   the open driver, policy decide paths) every `unwrap`/`expect`/panic
//!   macro either becomes a typed `apt_base` error or carries a reasoned
//!   escape comment — `// apt-lint: allow(rule, why the invariant
//!   holds)` — with the reason mandatory. All lib crates carry
//!   `#![forbid(unsafe_code)]`, inherited workspace-wide via
//!   `[workspace.lints]`.
//!
//! Run the linter locally with `cargo run -p apt-lint -- --check`
//! (`--json` for the stable `apt-lint-v1` machine schema). A fourth,
//! type-level invariant — engine and source state stay [`Send`] so the
//! sharded-streaming roadmap item can move whole engines onto worker
//! threads — is compile-time-asserted by the `shard_ready` test modules
//! in `apt-hetsim` and `apt-stream`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use apt_core::prelude;
pub use apt_core::prelude::*;

// The SLO layer (deadline-aware scheduling + admission control) keeps its
// own namespace: gates are stateful and lifetime-bound, so a flat glob
// would be more confusing than helpful.
pub use apt_slo as slo;

// Same for the adaptive control plane: controllers are built, configured
// and handed to the driver explicitly, so the namespace keeps the
// closed-loop surface discoverable as a unit.
pub use apt_control as control;

// And for observability: sinks, events and exporters form one opt-in
// surface (see the "Observability" section above).
pub use apt_trace as trace;

// The aggregate half of observability: the shard-mergeable metrics
// registry, its log-bucketed histogram and the Prometheus/JSONL
// exposition (see the decision table above for trace-vs-telemetry
// guidance).
pub use apt_telemetry as telemetry;

/// Workspace version, for the examples' banners.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reaches_every_layer() {
        use crate::prelude::*;
        let lookup = LookupTable::paper();
        let dfg = generate(DfgType::Type1, &StreamConfig::new(6, 1), lookup);
        let res = simulate(&dfg, &SystemConfig::paper_4gbps(), lookup, &mut Met::new()).unwrap();
        assert_eq!(res.trace.records.len(), 6);
    }
}
