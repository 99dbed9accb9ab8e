//! # apt-metrics
//!
//! Evaluation metrics and reporting for the APT reproduction:
//!
//! * [`improvement`] — the paper's §4.4 improvement metrics (Eq. 13–14)
//!   against the second-best *dynamic* policy, plus the
//!   "number of occurrences of better solutions" counter (§3.2 metric 5).
//! * [`table`] — plain-text / markdown table rendering used by the
//!   experiment harness to print the same rows the paper reports.
//! * [`gantt`] — ASCII schedule visualizations: a per-processor Gantt chart
//!   and the Figure-5 state-log format
//!   (`CPU:0-nw   GPU:idle   FPGA:1-bfs      0.0`).
//! * [`summary`] — compact per-run summaries (makespan, λ statistics,
//!   per-processor utilization) extracted from traces.
//! * [`export`] — CSV export of traces and summaries for external analysis.
//! * [`quality`] — makespan lower bounds, schedule-length ratio, speedup.
//! * [`energy`] — per-category power model and schedule energy integration
//!   (the paper's power-efficiency motivation, quantified).
//! * [`online`] — streaming metrics for open-system runs: latency and
//!   tardiness quantiles within 1% (log-bucketed histograms),
//!   sliding-window throughput/utilization, and queue-depth tracking in
//!   bounded memory (the `apt-stream` driver's reporting layer).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod export;
pub mod gantt;
pub mod improvement;
pub mod online;
pub mod quality;
pub mod summary;
pub mod table;

pub use energy::{energy_report, EnergyReport, PowerModel};
pub use improvement::{better_solution_count, improvement_percent, second_best};
pub use online::{ratio, OnlineMetrics, StreamSnapshot, QUANTILE_GAMMA};
pub use quality::{quality_report, QualityReport};
pub use summary::RunSummary;
pub use table::TextTable;
