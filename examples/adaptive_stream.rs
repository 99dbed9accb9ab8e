//! A diurnal job stream under closed-loop control: the `apt-control`
//! stack re-tunes admission (ρ, AIMD) and the APT threshold (α,
//! hill-climb) at every metrics-window close, against the same stream
//! under the static paper-tuned operating point.
//!
//! The load swings sinusoidally across the machine's ~0.3 j/s service
//! capacity, so no fixed (α, ρ) is right all day: an open bound drowns in
//! the peaks, a tight one starves the troughs. Watch the per-window trace
//! — the controller halves ρ when misses spike, creeps it back while
//! windows run clean but shedding persists, and walks α by ±0.5 per
//! epoch — then compare the final on-time goodput.
//!
//! ```bash
//! cargo run --release -p apt-suite --example adaptive_stream [jobs] [peak_jps]
//! ```
//!
//! Try `adaptive_stream 600 1.2` for a harsher peak.

use apt_stream::{DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, StreamRun};
use apt_suite::control::{
    AimdAdmission, AimdConfig, AlphaConfig, AlphaController, ControlAction, Controller,
    ControllerStack,
};
use apt_suite::prelude::*;
use apt_suite::slo::UtilizationBound;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let peak: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.8);

    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let window = SimDuration::from_ms(20_000);
    // 0.1 j/s troughs to `peak` j/s peaks over a 10-minute day, deadlines
    // 6× each job's critical path.
    let make_source = || {
        DiurnalSource::try_new(
            lookup,
            0.1,
            peak - 0.1,
            SimDuration::from_ms(600_000),
            jobs,
            JobFamily::Diamond { width: 2 },
            0xADA9,
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: 6.0 })
    };
    let opts = DriverOpts {
        snapshot_interval: Some(window),
        ..DriverOpts::default()
    };
    println!(
        "Adaptive stream: {jobs} diamond jobs, diurnal 0.1…{peak} j/s over a 10-minute day,\n\
         EDF-APT behind UtilizationBound; static (α = 4, ρ = 1) vs the same start point\n\
         under the AIMD + α-hill-climb stack, {}s control windows\n",
        window.as_ms_f64() / 1_000.0,
    );

    // Static run: the paper-tuned operating point, left alone.
    let mut source = make_source();
    let mut policy = EdfApt::new(4.0);
    let mut gate = UtilizationBound::new(lookup, &system, 1.0);
    let static_run = apt_stream::simulate_source_gated(
        &mut source,
        &system,
        lookup,
        &mut policy,
        &opts,
        &mut gate,
        |_| {},
    )
    .expect("static run");

    // Adaptive run: same stream, same start point, loop closed.
    let mut source = make_source();
    let mut policy = EdfApt::new(4.0);
    let mut gate = UtilizationBound::new(lookup, &system, 1.0);
    let mut stack = ControllerStack::new(vec![
        Box::new(AimdAdmission::new(
            1.0,
            AimdConfig {
                increase: 0.1,
                ..AimdConfig::default()
            },
        )),
        Box::new(AlphaController::new(4.0, AlphaConfig::default())),
    ]);
    println!("controller: {}", stack.name());
    let (adaptive, _) = StreamRun::new(&mut source, &system, lookup, &mut policy, &opts)
        .gate(&mut gate)
        .controller(&mut stack)
        .run()
        .expect("adaptive run");

    // The control trace: every applied (and refused) action, in window
    // order — the loop's entire history is in the outcome.
    println!("\ncontrol log ({} events):", adaptive.control_log.len());
    for e in &adaptive.control_log {
        let what = match e.action {
            ControlAction::SetAlpha(a) => format!("α ← {a:.2}"),
            ControlAction::SetAdmissionBound(b) => format!("ρ ← {b:.2}"),
            ControlAction::SwitchPolicy(i) => format!("policy ← #{i}"),
        };
        println!(
            "  t={:>5.0}s  {what:<12} {}",
            e.at.as_secs_f64(),
            if e.applied { "" } else { "(refused)" },
        );
    }

    let on_time = |o: &apt_stream::StreamOutcome| {
        (o.deadline_jobs - o.deadline_misses) as f64 / (o.end.as_ms_f64() / 1_000.0)
    };
    println!("\n{:>10}  on-time j/s   miss %   shed %", "");
    for (name, o) in [("static", &static_run), ("adaptive", &adaptive)] {
        println!(
            "{name:>10}  {:>11.3}  {:>6.1}  {:>6.1}",
            on_time(o),
            o.miss_rate() * 100.0,
            o.shed_rate() * 100.0,
        );
    }
    println!(
        "\n(final α = {:.2}, final ρ = {:.2} — the adaptive run sheds the peaks it cannot",
        Policy::alpha(&policy).unwrap_or(4.0),
        {
            use apt_stream::AdmissionGate as _;
            gate.utilization_bound().unwrap_or(1.0)
        },
    );
    println!(" serve and reopens for the troughs; the static point does neither)");
}
