//! # apt-telemetry
//!
//! Aggregate, wall-clock observability for the APT suite: a metrics
//! [`Registry`] of counters, gauges and log-bucketed histograms whose
//! instruments are plain structs — cheap to update on the hot path,
//! `Send`, and [`Registry::merge`]-able so a future per-core shard can
//! own a private registry and fold into a global one at a barrier.
//!
//! This is the *read side* companion to `apt-trace`: where the trace
//! layer records what the simulator did instant by instant (simulated
//! time, per-event provenance), this crate answers "how is the run
//! going" (aggregates, real time).
//!
//! The pieces:
//!
//! - [`Registry`] + [`LogHistogram`] — instruments keyed by
//!   name/labels, HDR-style log buckets with a configurable relative
//!   error bound γ (`quantile` estimates are within γ of the true
//!   sample, property-tested). [`LogHistogram`] is also the workspace's
//!   one quantile estimator: `apt-metrics`' streaming latency and
//!   tardiness quantiles use it through `apt-hetsim`'s re-export.
//! - [`render_prometheus`] / [`validate`] — Prometheus text exposition
//!   and a strict validator of the name/label/type contract.
//! - [`Heartbeat`] — a throttled stderr progress line (jobs/s,
//!   in-flight, miss rate, live α/ρ, ETA) for soak runs; the rate/ETA
//!   math is division-by-zero safe on first-window and zero-duration
//!   runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod expo;
mod hist;
mod progress;
mod registry;

pub use expo::{render_prometheus, validate};
pub use hist::LogHistogram;
pub use progress::{render_heartbeat, Heartbeat};
pub use registry::{CounterId, GaugeId, HistId, Registry};
