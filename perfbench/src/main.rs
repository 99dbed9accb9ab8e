//! Host-time benchmark of the APT simulator.
//!
//! ```text
//! apt-perfbench --workload <stream-single|stream-backlog|closed-grid>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Normally driven by `run.py`, which builds this package first. Every
//! simulation runs single-threaded, one at a time. The last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}`; the lines before it are human-readable detail and a `meta`
//! line with the host and build.
//!
//! * `--trace 0` (bare): times whole repetitions and reports `jobs_per_s`,
//!   `peak_rss_mib` and `setup_s`. Set-up is timed from process start to
//!   the first timed call; after the timed phase the binary starts itself
//!   again with `--setup-only 1` a few times, each fresh process timing its
//!   own set-up the same way, and `setup_s` is the median over all of them.
//! * `--trace 1` (traced): alternates a bare repetition with a traced one
//!   (every layer call wrapped in a span, see `tracer.rs`) and reports the
//!   per-layer table, the tracing overhead and how well the layer self
//!   times reconcile with the bare wall time.
//!
//! Every repetition's schedule digest (see `check.rs`) must equal the first
//! repetition's, a traced repetition's must equal the bare one's, and at
//! the default seed the digest must equal the one recorded in
//! `workloads.rs`. A mismatch or an `Err` counts as a failed operation; a
//! traced run whose layer self times do not reconcile with the bare wall
//! time within [`RECONCILE_MARGIN`] is not correct.

#![forbid(unsafe_code)]

mod check;
mod reference;
mod replica;
mod tracer;
mod workloads;

use std::cell::RefCell;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tracer::{median, Tracer};
use workloads::{Kind, Rep, Workload};

/// The workload seed when `--seed` is not given; the recorded digests are
/// for this seed.
pub const DEFAULT_SEED: u64 = 42;
/// `setup_s` is the median over this many processes, each timed from its own
/// start, so every sample pays for process start, the lookup table and the
/// warm-up: the bare run itself and `SETUP_PROCS - 1` `--setup-only` runs.
const SETUP_PROCS: usize = 5;
/// At least this many measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// `|reconcile_error|` the traced run is expected to stay within: the
/// corrected traced wall time against the bare wall time of the same input.
const RECONCILE_MARGIN: f64 = 0.30;
/// The shadow run's extra spans must add at least this share of a traced
/// repetition's wall time for their measured cost to replace the
/// tight-loop one.
const SHADOW_RESOLVABLE: f64 = 0.25;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--setup-only" => setup_only = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Correctness bookkeeping over a run's repetitions.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Per-simulation digests of the first repetition.
    reference: Option<Vec<u64>>,
    digest: Option<u64>,
}

impl Checks {
    /// Count one operation that could not be carried out.
    fn error(&mut self, e: &dyn std::fmt::Display) {
        println!("error: {e}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Account the set-up's warm-up repetition; it is smaller than the
    /// measured ones, so it has no digest to compare.
    fn warm_up(&mut self, rep: &Result<Rep, apt_base::BaseError>) -> bool {
        match rep {
            Ok(rep) => {
                self.attempted += rep.keys.len() as u64;
                self.failed += rep.errors;
                rep.errors == 0
            }
            Err(e) => {
                self.error(e);
                false
            }
        }
    }

    /// Account one repetition against the first one; `Err` reps count as
    /// one failed operation.
    fn rep(&mut self, rep: &Result<Rep, apt_base::BaseError>) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => return self.error(e),
        };
        self.attempted += rep.keys.len() as u64;
        self.failed += rep.errors;
        let reference = self.reference.get_or_insert_with(|| rep.keys.clone());
        self.digest.get_or_insert(rep.digest());
        self.failed += reference
            .iter()
            .zip(&rep.keys)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }

    /// Whether a traced repetition reproduced the bare one exactly.
    fn same(
        &mut self,
        bare: &Result<Rep, apt_base::BaseError>,
        traced: &Result<Rep, apt_base::BaseError>,
    ) {
        if let (Ok(b), Ok(t)) = (bare, traced) {
            if b.keys != t.keys {
                println!(
                    "error: traced digest {:016x} != bare {:016x}",
                    t.digest(),
                    b.digest()
                );
                self.failed += 1;
            }
        }
    }

    /// Compare against the recorded digest at the default seed.
    fn digest_status(&self, kind: Kind, seed: u64) -> (&'static str, bool) {
        match self.digest {
            None => ("none", false),
            Some(_) if seed != DEFAULT_SEED => ("not-recorded-for-seed", true),
            Some(d) if d == kind.recorded_digest() => ("matches-recorded", true),
            Some(_) => ("MISMATCH-recorded", false),
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return setup_only(&args, process_start);
    }
    if args.trace {
        traced(&args);
    } else {
        bare(&args, process_start);
    }
    ExitCode::SUCCESS
}

/// Time one set-up from process start and print `setup_s <scaled> <raw>`.
fn setup_only(args: &Args, process_start: Instant) -> ExitCode {
    let w = Workload::new(args.kind, args.seed);
    if let Err(e) = w.warm_up() {
        eprintln!("apt-perfbench: warm-up: {e}");
        return ExitCode::FAILURE;
    }
    let raw = process_start.elapsed().as_secs_f64();
    let host = reference::time();
    println!("setup_s {:?} {raw:?}", raw * reference::NOMINAL_S / host);
    ExitCode::SUCCESS
}

/// Start `SETUP_PROCS - 1` fresh `--setup-only` processes one after the
/// other and return their (scaled, raw) set-up times.
fn setup_samples(args: &Args) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(SETUP_PROCS - 1);
    for _ in 1..SETUP_PROCS {
        let seed = args.seed.to_string();
        let out = Command::new(&exe)
            .args(["--workload", args.kind.name(), "--seed", &seed])
            .args(["--setup-only", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let line = String::from_utf8_lossy(&out.stdout);
        let mut fields = line.split_whitespace().skip(1).map(str::parse::<f64>);
        match (out.status.success(), fields.next(), fields.next()) {
            (true, Some(Ok(scaled)), Some(Ok(raw))) => samples.push((scaled, raw)),
            _ => return Err(format!("--setup-only run failed ({})", out.status)),
        }
    }
    Ok(samples)
}

fn bare(args: &Args, process_start: Instant) {
    // Set-up and each repetition are scaled by the reference kernel timed
    // right before and after them (see `reference.rs`).
    let w = Workload::new(args.kind, args.seed);
    let mut checks = Checks::default();
    let warm = checks.warm_up(&w.warm_up());
    let raw_setup = process_start.elapsed().as_secs_f64();
    let mut ref_before = reference::time();
    let mut setups = vec![(raw_setup * reference::NOMINAL_S / ref_before, raw_setup)];

    let (mut rates, mut raw_rates, mut ref_times) = (Vec::new(), Vec::new(), Vec::new());
    // `jobs_per_s` is all the work over the timed run's scaled host seconds.
    let (mut units, mut scaled_secs) = (0u64, 0.0);
    let start = Instant::now();
    while warm && (rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds) {
        let rep = w.bare();
        let ref_after = reference::time();
        checks.rep(&rep);
        let Ok(rep) = rep else { break };
        let host = (ref_before + ref_after) / 2.0;
        let raw = rep.units as f64 / rep.wall.as_secs_f64();
        units += rep.units;
        scaled_secs += rep.wall.as_secs_f64() * reference::NOMINAL_S / host;
        raw_rates.push(raw);
        rates.push(raw * host / reference::NOMINAL_S);
        ref_times.push(host);
        ref_before = ref_after;
    }
    let (status, digest_ok) = checks.digest_status(args.kind, args.seed);
    if rates.is_empty() {
        println!("error: no repetition completed");
        meta(args, 0, checks.digest, status);
        let metrics = [
            ("jobs_per_s", "1/s"),
            ("peak_rss_mib", "MiB"),
            ("setup_s", "s"),
        ];
        emit(
            false,
            &checks,
            &metrics.map(|(n, u)| (n.to_string(), 0.0, u)),
        );
        return;
    }
    let valid = w.validate_schedules();
    if let Err(e) = &valid {
        checks.error(&format!("schedule validation: {e}"));
    }
    match setup_samples(args) {
        Ok(samples) => setups.extend(samples),
        Err(e) => checks.error(&e),
    }
    let reps = rates.len();
    println!(
        "per-rep jobs_per_s (scaled to the nominal host): {}",
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let rate = units as f64 / scaled_secs;
    let [q1, med, q3] = quantiles(&mut rates, [0.25, 0.5, 0.75]);
    let [raw_q1, raw_med, raw_q3] = quantiles(&mut raw_rates, [0.25, 0.5, 0.75]);
    let (mut setup_s, mut raw_setups): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    println!(
        "{}: {reps} reps of {}; jobs_per_s {rate:.1}; per rep: median {med:.1} (q1 {q1:.1}, \
         q3 {q3:.1}), unscaled median {raw_med:.1} (q1 {raw_q1:.1}, q3 {raw_q3:.1}); reference kernel \
         median {:.3} ms vs nominal {:.3} ms; setup over {} processes: median {:.4} s, \
         unscaled {:.4} s",
        args.kind.name(),
        args.kind.unit_label(),
        median(&mut ref_times) * 1e3,
        reference::NOMINAL_S * 1e3,
        setup_s.len(),
        median(&mut setup_s),
        median(&mut raw_setups),
    );
    meta(args, reps, checks.digest, status);
    let metrics = [
        ("jobs_per_s", rate, "1/s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("setup_s", median(&mut setup_s), "s"),
    ];
    emit(
        checks.failed == 0 && digest_ok,
        &checks,
        &metrics.map(|(n, v, u)| (n.to_string(), v, u)),
    );
}

fn traced(args: &Args) {
    let w = Workload::new(args.kind, args.seed);
    let mut checks = Checks::default();
    let warm = checks.warm_up(&w.warm_up());
    let tracer = RefCell::new(Tracer::calibrated());
    let shadow = RefCell::new(Tracer::shadow());
    let (mut bare_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut span_cost, mut reconcile) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while warm && (bare_ns.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds) {
        let bare = w.bare();
        let traced = w.traced(&tracer);
        let doubled = w.traced(&shadow);
        checks.rep(&bare);
        checks.same(&bare, &traced);
        checks.same(&bare, &doubled);
        let (Ok(b), Ok(_), Ok(_)) = (bare, traced, doubled) else {
            checks.failed += 1;
            break;
        };
        let (wall, spans) = tracer.borrow().last_rep();
        let (shadow_wall, shadow_spans) = shadow.borrow().last_rep();
        bare_ns.push(b.wall.as_nanos() as f64);
        traced_ns.push(wall as f64);
        // The in-situ span cost, and the reconciliation, from this
        // iteration's three adjacent runs, so host-speed drift cancels.
        // Where the shadow's extra spans cost too little against the host's
        // noise to be resolved, the tight-loop cost stands.
        let extra = (shadow_spans - spans) as f64;
        let loop_cost = tracer.borrow().loop_span_cost_ns();
        let o = if extra * loop_cost >= SHADOW_RESOLVABLE * wall as f64 {
            (shadow_wall as f64 - wall as f64) / extra
        } else {
            loop_cost
        };
        span_cost.push(o);
        reconcile.push(tracer.borrow().corrected(wall, spans, o) / b.wall.as_nanos() as f64 - 1.0);
    }
    let (status, digest_ok) = checks.digest_status(args.kind, args.seed);
    if bare_ns.is_empty() {
        println!("error: no repetition completed");
        meta(args, 0, checks.digest, status);
        let mut metrics = tracer.borrow().report();
        metrics.push(("trace_overhead".into(), 0.0, "ratio"));
        metrics.push(("trace.reconcile_error".into(), 0.0, "ratio"));
        emit(false, &checks, &metrics);
        return;
    }
    tracer.borrow_mut().set_span_cost(median(&mut span_cost));
    let bare_med = median(&mut bare_ns);
    let overhead = median(&mut traced_ns) / bare_med - 1.0;
    let reconcile = median(&mut reconcile);
    let mut metrics = tracer.borrow().report();
    metrics.push(("trace_overhead".into(), overhead, "ratio"));
    metrics.push(("trace.reconcile_error".into(), reconcile, "ratio"));
    let reconciled = reconcile.abs() <= RECONCILE_MARGIN;

    println!(
        "{}: {} traced reps; bare {:.1} ms/rep; traced {:+.0}%; span cost {:.0} ns applied \
         ({:.0} ns in a tight loop); layer self times sum to {:+.1}% of bare (margin ±{:.0}%){}",
        args.kind.name(),
        bare_ns.len(),
        bare_med / 1e6,
        overhead * 100.0,
        metrics
            .iter()
            .find(|m| m.0 == "trace.span_cost_ns")
            .map_or(0.0, |m| m.1),
        tracer.borrow().loop_span_cost_ns(),
        reconcile * 100.0,
        RECONCILE_MARGIN * 100.0,
        if reconciled { "" } else { " OUTSIDE MARGIN" }
    );
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8}",
        "layer", "calls/rep", "p50 ns", "p99 ns", "share"
    );
    for chunk in metrics.chunks(4).take(tracer::Layer::ALL.len()) {
        let layer = chunk[0].0.trim_end_matches(".calls");
        println!(
            "{layer:<34} {:>12.0} {:>12.0} {:>12.0} {:>7.1}%",
            chunk[0].1,
            chunk[1].1,
            chunk[2].1,
            chunk[3].1 * 100.0
        );
    }
    for (name, value, unit) in &metrics[tracer::Layer::ALL.len() * 4..] {
        println!("{name:<34} {value:>12.4} {unit}");
    }
    meta(args, bare_ns.len(), checks.digest, status);
    emit(
        checks.failed == 0 && digest_ok && reconciled,
        &checks,
        &metrics,
    );
}

/// The `ps` quantiles of a non-empty sample, by the "exclusive" method of
/// Python's `statistics.quantiles` (sorts in place).
fn quantiles<const N: usize>(xs: &mut [f64], ps: [f64; N]) -> [f64; N] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    ps.map(|p| {
        let h = (n as f64 + 1.0) * p;
        let lo = (h.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        xs[lo - 1] + (h - h.floor()).min(1.0) * (xs[hi - 1] - xs[lo - 1])
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn meta(args: &Args, reps: usize, digest: Option<u64>, status: &str) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"reps\": {reps}, \
         \"digest\": \"{}\", \"digest_status\": \"{status}\", \"self_profile\": true, \"nproc\": {nproc}, \
         \"cpu_model\": \"{}\"}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        digest.map_or("none".into(), |d| format!("{d:016x}")),
        cpu.replace('"', "'"),
    );
}

/// Print the result line.
fn emit(correct: bool, checks: &Checks, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}
