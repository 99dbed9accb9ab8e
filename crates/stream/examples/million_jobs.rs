//! The acceptance run for the open-stream subsystem: one million Poisson
//! job arrivals through the bounded-memory streaming driver.
//!
//! The arrival vector is never materialized — the source yields jobs
//! lazily, the driver admits each one just-in-time, and retired jobs
//! recycle their arena slots — so simulator memory tracks the in-flight
//! peak (reported below), not the million-job stream.
//!
//! ```bash
//! cargo run --release -p apt-stream --example million_jobs [--progress] [jobs] [rate_jps]
//! ```
//!
//! `--progress` arms the telemetry heartbeat: a throttled stderr line with
//! live jobs/s, in-flight depth, miss rate, and ETA to the job target
//! (this run closes no metrics windows, so its α/ρ columns stay `-`).

use apt_core::Apt;
use apt_dfg::LookupTable;
use apt_hetsim::SystemConfig;
use apt_policies::Met;
use apt_stream::{DriverOpts, JobFamily, PoissonSource, StreamRun, StreamTelemetry};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let progress = if let Some(pos) = args.iter().position(|a| a == "--progress") {
        args.remove(pos);
        true
    } else {
        false
    };
    let mut args = args.into_iter();
    let jobs: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.5);

    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    println!("streaming {jobs} single-kernel jobs at {rate} jobs/s (Poisson, seed 42)\n");

    for mut policy in [
        Box::new(Met::new()) as Box<dyn apt_hetsim::Policy>,
        Box::new(Apt::new(4.0)),
    ] {
        let mut source = PoissonSource::try_new(lookup, rate, jobs, JobFamily::Single, 42)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            });
        let wall = std::time::Instant::now();
        let opts = DriverOpts::default();
        let mut tel = progress.then(|| StreamTelemetry::new().with_progress(Some(jobs)));
        let mut run = StreamRun::new(&mut source, &config, lookup, policy.as_mut(), &opts);
        if let Some(tel) = tel.as_mut() {
            run = run.telemetry(tel);
        }
        let (o, _) = run.run().expect("stream run");
        let wall = wall.elapsed();
        println!(
            "{:10}  {} jobs in {:.1} simulated hours  ({:.1}s wall, {:.2} Mjobs/s wall)",
            o.policy,
            o.jobs_completed,
            o.end.as_secs_f64() / 3600.0,
            wall.as_secs_f64(),
            o.jobs_completed as f64 / wall.as_secs_f64() / 1e6,
        );
        println!(
            "            latency p50/p90/p99 {:.1}/{:.1}/{:.1} ms   mean {:.1} ms   λ total {}",
            o.latency_p50_ms, o.latency_p90_ms, o.latency_p99_ms, o.mean_latency_ms, o.lambda_total,
        );
        println!(
            "            peak in flight: {} jobs / {} kernels   arena: {} slots (memory bound)\n",
            o.peak_in_flight_jobs, o.peak_in_flight_kernels, o.arena_slots,
        );
        assert_eq!(o.jobs_completed, jobs);
        assert!(
            o.arena_slots < 10_000,
            "arena exploded: {} slots",
            o.arena_slots
        );
    }
}
