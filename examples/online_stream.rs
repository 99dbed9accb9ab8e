//! Online job stream, open-system edition: jobs arrive *forever* (well —
//! for as long as you ask), the arrival vector is never materialized, and
//! metrics are computed online.
//!
//! Each job is a small diamond DAG (decompose → parallel kernels →
//! combine) drawn from a seeded [`JobFamily`]; arrivals come from a bursty
//! on/off source — the traffic shape where APT's flexibility pays off over
//! MET's wait-for-the-best rule. The run streams through
//! `apt_stream::simulate_source`, which admits each job just-in-time and
//! recycles simulator state as jobs retire: memory is bounded by the jobs
//! in flight (reported as the arena size), not the stream length.
//!
//! ```bash
//! cargo run --release -p apt-suite --example online_stream [jobs] [burst_rate_jps]
//! ```

use apt_stream::{simulate_source, DriverOpts, JobFamily, OnOffSource};
use apt_suite::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let burst_rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.6);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    println!(
        "open stream: {jobs} diamond jobs, {burst_rate} jobs/s bursts (20 s ON / 60 s OFF), seed 7\n"
    );

    for mut policy in [
        Box::new(Met::new()) as Box<dyn Policy>,
        Box::new(Apt::new(4.0)),
    ] {
        // Same seed ⇒ both policies face the identical arrival sequence.
        let mut source = OnOffSource::try_new(
            lookup,
            burst_rate,
            SimDuration::from_ms(20_000),
            SimDuration::from_ms(60_000),
            jobs,
            JobFamily::Diamond { width: 3 },
            7,
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        let o = simulate_source(
            &mut source,
            &system,
            lookup,
            policy.as_mut(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(120_000)),
                max_in_flight_jobs: None,
                ..DriverOpts::default()
            },
        )
        .expect("stream run");
        println!(
            "{:10} {} jobs over {:.1} simulated minutes   latency p50/p99 {:.0}/{:.0} ms   λ {:.1} s",
            o.policy,
            o.jobs_completed,
            o.end.as_secs_f64() / 60.0,
            o.latency_p50_ms,
            o.latency_p99_ms,
            o.lambda_total.as_secs_f64(),
        );
        println!(
            "{:10} peak {} jobs / {} kernels in flight — arena {} slots (memory bound)",
            "", o.peak_in_flight_jobs, o.peak_in_flight_kernels, o.arena_slots,
        );
        // A few periodic snapshots: the online view a dashboard would read.
        let picks: Vec<usize> = [1usize, 4, 8]
            .into_iter()
            .filter(|&i| i < o.snapshots.len())
            .collect();
        for i in picks {
            let s = &o.snapshots[i];
            println!(
                "{:10}   t={:>6.0}s  {:>3} jobs/window  p99 {:>7.0} ms  depth {:>3}  util {}",
                "",
                s.end.as_secs_f64(),
                s.window_jobs,
                s.latency_p99_ms,
                s.depth_now,
                s.utilization
                    .iter()
                    .map(|u| format!("{:.0}%", u * 100.0))
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
        println!();
    }

    println!("(same seed ⇒ both policies saw the identical arrival sequence; the");
    println!(" arrival vector was never materialized — the driver pulls each job");
    println!(" from the source just-in-time and recycles its state on retirement)");
}
