//! A job stream on a machine that breaks: transient kernel failures plus
//! processor crash/repair cycles, with retry/backoff and degraded-mode
//! scheduling.
//!
//! The same Poisson diamond stream runs four times — APT(4) and MET, each
//! on a healthy machine and then under a seeded [`FaultPlan`] — so the
//! fault bill is directly attributable. Watch the goodput-vs-throughput
//! gap (shed jobs), the wasted-work fraction (killed attempts), and the
//! availability column; APT's within-threshold alternatives double as
//! failover targets, while MET waits for its crashed favourite.
//!
//! ```bash
//! cargo run --release -p apt-suite --example faulty_stream [jobs] [rate_jps] [mttf_s]
//! ```
//!
//! Try `faulty_stream 800 0.25 20` for a machine that spends a fifth of
//! its life broken.

use apt_stream::{DriverOpts, JobFamily, PoissonSource};
use apt_suite::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(600);
    let rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.2);
    let mttf_s: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(45);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let plan = FaultPlan::seeded(0xFA17).with_transient(0.05).with_crashes(
        SimDuration::from_ms(mttf_s * 1_000),
        SimDuration::from_ms(4_000),
    );
    println!(
        "Faulty stream: {jobs} diamond jobs at {rate} jobs/s; faults = transient p=0.05 \
         + crashes (MTTF {mttf_s}s, MTTR 4s), 3 attempts/kernel with exponential backoff\n"
    );

    type MakePolicy = fn() -> Box<dyn Policy>;
    let policies: [(&str, MakePolicy); 2] = [
        ("APT(4)", || Box::new(Apt::new(4.0))),
        ("MET", || Box::new(Met::new())),
    ];
    for (name, make) in policies {
        for faulty in [false, true] {
            // Same arrival seed ⇒ the healthy and faulty runs face an
            // identical stream; only the fault plan differs.
            let mut source =
                PoissonSource::try_new(lookup, rate, jobs, JobFamily::Diamond { width: 2 }, 11)
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2)
                    });
            let mut policy = make();
            let o = apt_stream::simulate_source(
                &mut source,
                &system,
                lookup,
                policy.as_mut(),
                &DriverOpts {
                    snapshot_interval: Some(SimDuration::from_ms(600_000)),
                    faults: if faulty { plan } else { FaultPlan::none() },
                    retry: RetryPolicy::default(),
                    ..DriverOpts::default()
                },
            )
            .expect("faulty stream run");
            println!(
                "{name:>7} {}: goodput {:.3} j/s (thru {:.3})  failed {:>2}  \
                 waste {:>4.1}%  avail {:>5.1}%  crashes {:>3}  retries {:>3}",
                if faulty { "faulty " } else { "healthy" },
                o.goodput_jps,
                o.throughput_jps,
                o.jobs_failed,
                o.wasted_work_frac() * 100.0,
                o.availability() * 100.0,
                o.faults.crashes,
                o.faults.retries,
            );
            if faulty {
                // Per-window availability: the online health signal.
                for s in o.snapshots.iter().take(4) {
                    println!(
                        "{:>15} t={:>5.0}s  {:>2} jobs/window  {:>2} kernel failures  \
                         {:>2} retries  avail {:>5.1}%",
                        "",
                        s.end.as_secs_f64(),
                        s.window_jobs,
                        s.window_kernel_failures,
                        s.window_retries,
                        s.availability * 100.0,
                    );
                }
                if o.snapshots.len() > 4 {
                    println!("{:>15} … {} more windows", "", o.snapshots.len() - 4);
                }
            }
        }
        println!();
    }

    println!("(crash orphans re-enter the ready queue and reschedule on whatever is");
    println!(" still up — APT fails over within its threshold at no extra cost, while");
    println!(" MET's queue stalls until its preferred processor is repaired)");
}
