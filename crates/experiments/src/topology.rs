//! Multi-link topology scenarios: does APT's α advantage survive when
//! transfer cost is no longer a single scalar?
//!
//! The paper evaluates one uniform link (§3.2). `apt-repro topology-sweep`
//! re-runs the open-stream saturation question on a six-processor machine
//! (two CPU+GPU+FPGA pods) under four interconnects:
//!
//! * **uniform** — 4 GB/s between every pair (the §3.2 model, scaled up),
//! * **clustered** — NUMA-ish: 8 GB/s inside a pod, 0.5 GB/s across pods,
//! * **bottleneck** — host-staged star rooted at CPU0: 1 GB/s to the root,
//!   0.5 GB/s effective for every device↔device two-hop,
//! * **bottleneck+pl** — the same star with per-link contention enabled
//!   ([`LinkContention::PerLink`]): a starting kernel's inputs
//!   stream concurrently over distinct links instead of serializing on the
//!   consumer. Contention is keyed on logical `(src, dst)` pairs, so the
//!   star's shared root uplink is not itself serialized — this row is an
//!   optimistic bound on what link-level parallelism buys back (see the
//!   `Topology::star` docs).
//!
//! Each cell sweeps offered λ against achieved throughput, latency tails
//! and the transfer share of busy time, per dynamic policy at the paper's
//! best α — the saturation-knee comparison `stream-saturation` asks on the
//! paper machine, now with interconnect structure in the way. `--csv`
//! exports the windowed snapshots in long format for plotting.

use crate::runner::run_pool;
use crate::streaming::{stream_policy_factories, windows_csv, SWEEP_WINDOW};
use apt_core::prelude::*;
use apt_metrics::TextTable;
use apt_stream::{simulate_source, DriverOpts, JobFamily, PoissonSource, StreamOutcome};

/// Jobs per sweep cell. Smaller than the single-topology sweep's 600: the
/// grid is 4 topologies wide.
pub const TOPO_JOBS: u64 = 400;

/// Swept offered rates, jobs per simulated second. The six-processor
/// machine sustains roughly twice the paper machine's diamond-mix capacity
/// on a uniform link; the slow-link topologies saturate much earlier, so
/// the grid straddles both knees.
pub const TOPO_RATES: [f64; 4] = [0.1, 0.25, 0.4, 0.6];

/// In-flight cap marking a cell saturated (admission latches and drains).
pub const TOPO_CAP: usize = 256;

/// Seed for the arrival streams: every (topology, policy) cell at a given
/// λ sees the same arrivals.
pub const TOPO_SEED: u64 = 0x0070_9010;

/// Bytes per element for the sweep machine: 4× the paper's f32 setting,
/// so the diamond mix is genuinely transfer-heavy and the interconnect
/// structure (not just compute) shapes the knee.
pub const TOPO_BYTES_PER_ELEMENT: u64 = 16;

/// The six-processor base machine: two CPU+GPU+FPGA pods at the paper's
/// 4 GB/s uniform link (the baseline every topology row is compared to),
/// with a transfer-heavy 16 B/element convention.
fn six_proc_base() -> SystemConfig {
    SystemConfig::empty(LinkRate::PCIE2_X8)
        .with_proc(ProcKind::Cpu)
        .with_proc(ProcKind::Gpu)
        .with_proc(ProcKind::Fpga)
        .with_proc(ProcKind::Cpu)
        .with_proc(ProcKind::Gpu)
        .with_proc(ProcKind::Fpga)
        .with_bytes_per_element(TOPO_BYTES_PER_ELEMENT)
}

/// The compared interconnects over the same six processors (see the
/// module docs).
pub fn topology_variants() -> Vec<(&'static str, SystemConfig)> {
    let base = six_proc_base;
    let inter = LinkRate {
        bytes_per_sec: 500_000_000, // 0.5 GB/s across pods
    };
    vec![
        ("uniform", base()),
        (
            "clustered",
            base().with_topology(Topology::clustered(6, 3, LinkRate::PCIE2_X16, inter)),
        ),
        (
            "bottleneck",
            base().with_topology(Topology::star(6, ProcId::new(0), LinkRate::gbps(1))),
        ),
        (
            "bottleneck+pl",
            base().with_topology(
                Topology::star(6, ProcId::new(0), LinkRate::gbps(1))
                    .with_contention(LinkContention::PerLink),
            ),
        ),
    ]
}

/// One sweep cell: policy × offered λ on one topology, closing a metrics
/// window every [`SWEEP_WINDOW`].
pub fn topology_point(
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    rate: f64,
    config: &SystemConfig,
) -> StreamOutcome {
    let mut policy = make();
    let mut source = PoissonSource::new(
        LookupTable::paper(),
        rate,
        TOPO_JOBS,
        JobFamily::Diamond { width: 2 },
        TOPO_SEED,
    );
    simulate_source(
        &mut source,
        config,
        LookupTable::paper(),
        policy.as_mut(),
        &DriverOpts {
            snapshot_interval: Some(SWEEP_WINDOW),
            max_in_flight_jobs: Some(TOPO_CAP),
            ..DriverOpts::default()
        },
    )
    .expect("topology sweep point failed")
}

/// Flattened cell coordinates, in row order: `(topology index, λ, policy
/// index)`, topology-major.
fn grid() -> Vec<(usize, f64, usize)> {
    let npol = stream_policy_factories(PAPER_BEST_ALPHA).len();
    let mut cells = Vec::new();
    for t in 0..topology_variants().len() {
        for &rate in &TOPO_RATES {
            for p in 0..npol {
                cells.push((t, rate, p));
            }
        }
    }
    cells
}

/// Label `topology/policy/λ=r` of one grid cell.
fn cell_label(&(t, rate, p): &(usize, f64, usize)) -> String {
    format!(
        "{}/{}/λ={rate}",
        topology_variants()[t].0,
        stream_policy_factories(PAPER_BEST_ALPHA)[p].0
    )
}

/// The topology saturation sweep (see the module docs). Returns the table
/// and the long-format snapshot CSV (cells labelled `topology/policy/λ=r`),
/// both from one grid run.
pub fn topology_sweep() -> (TextTable, String) {
    let variants = topology_variants();
    let factories = stream_policy_factories(PAPER_BEST_ALPHA);
    let cells = grid();
    let outcomes = run_pool(cells.len(), |i| {
        let (t, rate, p) = cells[i];
        topology_point(factories[p].1.as_ref(), rate, &variants[t].1)
    });
    let mut table = TextTable::new(
        format!(
            "Topology sweep — {} Poisson diamond jobs/cell on 2×(CPU+GPU+FPGA), α = {} (sat = admission capped at {} in flight)",
            TOPO_JOBS, PAPER_BEST_ALPHA, TOPO_CAP
        ),
        &[
            "topology",
            "offered λ (j/s)",
            "policy",
            "achieved (j/s)",
            "p50 (ms)",
            "p99 (ms)",
            "xfer %",
            "util %",
            "sat",
        ],
    );
    for (&(t, rate, p), o) in cells.iter().zip(&outcomes) {
        let busy: f64 = o
            .proc_stats
            .iter()
            .map(|s| s.busy.as_ms_f64() + s.transfer.as_ms_f64())
            .sum();
        let xfer: f64 = o.proc_stats.iter().map(|s| s.transfer.as_ms_f64()).sum();
        let mean_util =
            o.utilization().iter().sum::<f64>() / o.proc_stats.len().max(1) as f64 * 100.0;
        table.push_row(vec![
            variants[t].0.to_string(),
            format!("{rate}"),
            factories[p].0.clone(),
            format!("{:.2}", o.throughput_jps),
            format!("{:.0}", o.latency_p50_ms),
            format!("{:.0}", o.latency_p99_ms),
            format!("{:.0}", if busy > 0.0 { xfer / busy * 100.0 } else { 0.0 }),
            format!("{mean_util:.0}"),
            if o.saturated { "yes" } else { "" }.to_string(),
        ]);
    }
    let labels: Vec<String> = cells.iter().map(cell_label).collect();
    (table, windows_csv(&labels, &outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_the_advertised_interconnects() {
        let v = topology_variants();
        assert_eq!(
            v.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec!["uniform", "clustered", "bottleneck", "bottleneck+pl"],
        );
        for (name, config) in &v {
            assert_eq!(config.len(), 6, "{name}");
            config.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(v[0].1.topology(), &Topology::uniform(LinkRate::PCIE2_X8));
        assert_ne!(v[1].1.topology(), v[0].1.topology());
        assert_eq!(v[3].1.contention(), LinkContention::PerLink);
    }

    #[test]
    fn slow_topologies_differ_measurably_from_uniform() {
        // One transfer-heavy cell per topology: same arrivals, same
        // policy — the bottleneck star must lose throughput or latency
        // against the uniform baseline (the knee the sweep exists to show).
        let variants = topology_variants();
        let factories = stream_policy_factories(PAPER_BEST_ALPHA);
        let (_, apt) = &factories[0];
        let uniform = topology_point(apt.as_ref(), 0.4, &variants[0].1);
        let star = topology_point(apt.as_ref(), 0.4, &variants[2].1);
        assert!(
            star.latency_p99_ms > uniform.latency_p99_ms
                || star.throughput_jps < uniform.throughput_jps
                || (star.saturated && !uniform.saturated),
            "bottleneck star indistinguishable from uniform: {} vs {} p99, {} vs {} j/s",
            star.latency_p99_ms,
            uniform.latency_p99_ms,
            star.throughput_jps,
            uniform.throughput_jps,
        );
        // Determinism: the same cell replays identically.
        let again = topology_point(apt.as_ref(), 0.4, &variants[2].1);
        assert_eq!(star.end, again.end);
        assert_eq!(star.proc_stats, again.proc_stats);
    }

    #[test]
    fn cell_labels_cover_the_grid_in_order() {
        let variants = topology_variants();
        let factories = stream_policy_factories(PAPER_BEST_ALPHA);
        let cells = grid();
        assert_eq!(
            cells.len(),
            variants.len() * TOPO_RATES.len() * factories.len()
        );
        assert_eq!(cell_label(&cells[0]), "uniform/APT/λ=0.1");
        assert_eq!(cell_label(&cells[1]), "uniform/MET/λ=0.1");
        assert_eq!(
            cell_label(&cells[cells.len() - 1]),
            format!("bottleneck+pl/AG/λ={}", TOPO_RATES[TOPO_RATES.len() - 1])
        );
    }
}
