//! Deadline-carrying job stream under EDF-APT, with per-window miss-rate
//! snapshots — the SLO view of the open system.
//!
//! Every Poisson-arriving diamond job is tagged with a relative deadline
//! proportional to its own minimum critical path (`D = tightness × CP`);
//! the run prints the online miss-rate/tardiness windows a dashboard
//! would read, then repeats the identical stream behind a
//! utilization-bound admission gate to show overload shedding instead of
//! universal lateness.
//!
//! ```bash
//! cargo run --release -p apt-suite --example slo_stream [jobs] [rate_jps] [tightness]
//! ```
//!
//! Try `slo_stream 2000 0.45 2` for a clearly overloaded machine.

use apt_slo::{AcceptAll, AdmissionPolicy, UtilizationBound};
use apt_stream::{simulate_source_gated, DeadlineSpec, DriverOpts, JobFamily, PoissonSource};
use apt_suite::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_500);
    let rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.3);
    let tightness: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3.0);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    println!(
        "SLO stream: {jobs} diamond jobs at {rate} jobs/s, D = {tightness} × critical path, \
         EDF-APT(α=4), seed 7\n"
    );

    for gated in [false, true] {
        // Same seed ⇒ both admission modes face identical deadline-tagged
        // arrivals.
        let mut source =
            PoissonSource::try_new(lookup, rate, jobs, JobFamily::Diamond { width: 3 }, 7)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2)
                })
                .with_deadlines(DeadlineSpec::ProportionalCp { factor: tightness });
        let mut policy = EdfApt::new(4.0);
        let mut accept_all = AcceptAll;
        let mut util;
        let admission: &mut dyn AdmissionPolicy = if gated {
            util = UtilizationBound::new(lookup, &system, 0.25);
            &mut util
        } else {
            &mut accept_all
        };
        let name = admission.name();
        let o = simulate_source_gated(
            &mut source,
            &system,
            lookup,
            &mut policy,
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(300_000)),
                ..DriverOpts::default()
            },
            admission,
            |_| {},
        )
        .expect("slo stream run");
        println!(
            "{name:>13}: admitted {} / shed {}   miss rate {:>5.1}%   tardiness p50/p99 {:.0}/{:.0} ms",
            o.jobs_admitted,
            o.jobs_shed,
            o.miss_rate() * 100.0,
            o.tardiness_p50_ms,
            o.tardiness_p99_ms,
        );
        // Per-window miss counts: the online SLO signal.
        for s in o.snapshots.iter().take(6) {
            println!(
                "{:>13}   t={:>6.0}s  {:>3} jobs/window  {:>3} missed  cum miss {:>5.1}%  tard p99 {:>8.0} ms  depth {:>3}",
                "",
                s.end.as_secs_f64(),
                s.window_jobs,
                s.window_missed,
                s.miss_rate() * 100.0,
                s.tardiness_p99_ms,
                s.depth_now,
            );
        }
        if o.snapshots.len() > 6 {
            println!("{:>13}   … {} more windows", "", o.snapshots.len() - 6);
        }
        println!();
    }

    println!("(the gate sheds arrivals whose deadline density would overcommit the");
    println!(" machine, so overload degrades into dropped jobs plus on-time");
    println!(" survivors instead of every job finishing tardy)");
}
