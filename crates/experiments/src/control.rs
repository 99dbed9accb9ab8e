//! Adaptive control plane vs the static-tuned grid: `apt-repro
//! control-sweep`.
//!
//! Every other sweep in this harness fixes (α, ρ) up front and asks which
//! cell wins. That framing assumes someone re-tunes the system whenever
//! the workload drifts. `control-sweep` drops that assumption: the same
//! deadline-tagged streams run under a 3 × 3 grid of *fixed* (α,
//! admission-bound ρ) operating points **and** under one adaptive cell —
//! `apt-control`'s [`AimdAdmission`] + [`AlphaController`] stack closing
//! the loop on the driver's metrics windows, starting from the paper-tuned
//! defaults (α = 4, ρ = 1).
//!
//! The scenario axis is the point of the experiment:
//!
//! * **diurnal** — the gentle swing the static grid was tuned on
//!   (0.05…0.25 j/s over a 10-minute day). The adaptive cell must *match*
//!   the best fixed cell here: adaptivity may not tax the tuned regime.
//! * **diurnal-shift** — the same machine years later: the swing's floor
//!   and amplitude both moved (0.2…0.8 j/s, peaks past 2× the ~0.3 j/s
//!   service capacity). No fixed cell is right twice a day — open ρ
//!   drowns in the peaks, tight ρ starves the troughs — so the controller
//!   must *strictly beat every* fixed cell by re-tuning per phase.
//! * **bursty** — a two-state MMPP (3× capacity bursts, long quiet
//!   valleys) probing reaction time rather than slow tracking.
//! * **faulty** — crash/repair episodes shrink the machine itself;
//!   capacity, not load, is what drifts.
//!
//! Score is **on-time goodput** (deadline-met completions per second):
//! shedding too much and missing too much both lose. Each row also
//! reports where the controller ended up (final α, final ρ) and how many
//! control actions were applied. `--csv` exports one row per cell.

use crate::runner::run_pool;
use apt_control::{AimdAdmission, AimdConfig, AlphaController, ControlAction, ControllerStack};
use apt_core::prelude::*;
use apt_metrics::TextTable;
use apt_slo::UtilizationBound;
use apt_stream::{
    DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, OnOffSource, PoissonSource, Source,
    StreamOutcome, StreamRun,
};

/// Jobs per sweep cell.
pub const CONTROL_JOBS: u64 = 400;

/// Seed of every arrival/deadline stream (and of the faulty scenario's
/// fault plan, salted separately inside `apt-faults`).
pub const CONTROL_SEED: u64 = 0xC0117;

/// The controller's clock: metrics-window width of every cell.
pub const CONTROL_WINDOW: SimDuration = SimDuration::from_ms(20_000);

/// Deadline tightness: `D = 6 × critical_path_min(job)` — loose enough
/// that an *unloaded* machine meets it (so window miss rate is a load
/// signal the AIMD loop can actually regulate, not an intrinsic floor),
/// tight enough that queueing during overload shows up as misses.
pub const CONTROL_TIGHTNESS: f64 = 6.0;

/// The fixed grid's α axis (paper-tuned value in the middle).
pub const CONTROL_ALPHAS: [f64; 3] = [2.0, 4.0, 8.0];

/// The fixed grid's admission-bound (ρ) axis.
pub const CONTROL_BOUNDS: [f64; 3] = [0.5, 1.0, 2.0];

/// One stream shape of the scenario axis (see the module docs).
pub struct ControlScenario {
    /// Row label.
    pub name: &'static str,
    /// Fresh arrival source for one cell run.
    make: Box<dyn Fn() -> Box<dyn Source> + Send + Sync>,
    /// Fault plan of every cell of this scenario ([`FaultPlan::none`]
    /// except the faulty row).
    faults: FaultPlan,
}

fn deadline_spec() -> DeadlineSpec {
    DeadlineSpec::ProportionalCp {
        factor: CONTROL_TIGHTNESS,
    }
}

/// The scenario axis, in render order. Index 0 is the tuned trace, index
/// 1 the phase-shifted one the acceptance tests pivot on.
pub fn control_scenarios() -> Vec<ControlScenario> {
    vec![
        ControlScenario {
            name: "diurnal",
            make: Box::new(|| {
                // The tuned regime: 0.05…0.25 j/s over a 10-minute day.
                Box::new(
                    DiurnalSource::new(
                        LookupTable::paper(),
                        0.05,
                        0.2,
                        SimDuration::from_ms(600_000),
                        CONTROL_JOBS,
                        JobFamily::Diamond { width: 2 },
                        CONTROL_SEED,
                    )
                    .with_deadlines(deadline_spec()),
                ) as Box<dyn Source>
            }),
            faults: FaultPlan::none(),
        },
        ControlScenario {
            name: "diurnal-shift",
            make: Box::new(|| {
                // The drifted regime: 0.2…0.8 j/s — troughs near the old
                // peak, peaks past 2× service capacity.
                Box::new(
                    DiurnalSource::new(
                        LookupTable::paper(),
                        0.2,
                        0.6,
                        SimDuration::from_ms(600_000),
                        CONTROL_JOBS,
                        JobFamily::Diamond { width: 2 },
                        CONTROL_SEED,
                    )
                    .with_deadlines(deadline_spec()),
                ) as Box<dyn Source>
            }),
            faults: FaultPlan::none(),
        },
        ControlScenario {
            name: "bursty",
            make: Box::new(|| {
                // Two-state MMPP: 1 j/s bursts (≈3× capacity) for ~40 s,
                // then ~80 s quiet — ≈0.33 j/s average.
                Box::new(
                    OnOffSource::new(
                        LookupTable::paper(),
                        1.0,
                        SimDuration::from_ms(40_000),
                        SimDuration::from_ms(80_000),
                        CONTROL_JOBS,
                        JobFamily::Diamond { width: 2 },
                        CONTROL_SEED,
                    )
                    .with_deadlines(deadline_spec()),
                ) as Box<dyn Source>
            }),
            faults: FaultPlan::none(),
        },
        ControlScenario {
            name: "faulty",
            make: Box::new(|| {
                Box::new(
                    PoissonSource::new(
                        LookupTable::paper(),
                        0.2,
                        CONTROL_JOBS,
                        JobFamily::Diamond { width: 2 },
                        CONTROL_SEED,
                    )
                    .with_deadlines(deadline_spec()),
                ) as Box<dyn Source>
            }),
            // Crash episodes shrink the machine: MTTF 45 s, MTTR 10 s
            // per processor, plus a 5% transient kernel failure rate.
            faults: FaultPlan::seeded(CONTROL_SEED)
                .with_crashes(SimDuration::from_ms(45_000), SimDuration::from_ms(10_000))
                .with_transient(0.05),
        },
    ]
}

/// One column of the config axis: a fixed (α, ρ) operating point, or the
/// adaptive cell (paper defaults + the `apt-control` stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlCell {
    /// Statically tuned: `EDF-APT(α)` behind `UtilizationBound(ρ)`.
    Fixed {
        /// APT threshold factor.
        alpha: f64,
        /// Admission density budget (× processors).
        bound: f64,
    },
    /// Paper defaults (α = 4, ρ = 1) with the AIMD + hill-climb stack
    /// re-tuning both at every window close.
    Adaptive,
}

impl ControlCell {
    /// Row label.
    pub fn label(&self) -> String {
        match self {
            ControlCell::Fixed { alpha, bound } => format!("α={alpha} ρ={bound}"),
            ControlCell::Adaptive => "adaptive".to_string(),
        }
    }

    fn start(&self) -> (f64, f64) {
        match *self {
            ControlCell::Fixed { alpha, bound } => (alpha, bound),
            ControlCell::Adaptive => (PAPER_BEST_ALPHA, 1.0),
        }
    }
}

/// The config axis: the 3 × 3 fixed grid, then the adaptive cell.
pub fn control_cells() -> Vec<ControlCell> {
    let mut cells = Vec::new();
    for &alpha in &CONTROL_ALPHAS {
        for &bound in &CONTROL_BOUNDS {
            cells.push(ControlCell::Fixed { alpha, bound });
        }
    }
    cells.push(ControlCell::Adaptive);
    cells
}

/// The adaptive cell's controller stack. Deliberately scenario-agnostic:
/// the same construction runs on every trace, so nothing here is tuned to
/// the shifted regimes it must win on.
pub fn control_stack() -> ControllerStack {
    ControllerStack::new(vec![
        Box::new(AimdAdmission::new(
            1.0,
            AimdConfig {
                // Recover ρ a little faster than the crate default so a
                // 10-minute calm phase reopens what a peak closed.
                increase: 0.1,
                ..AimdConfig::default()
            },
        )),
        Box::new(AlphaController::new(
            PAPER_BEST_ALPHA,
            apt_control::AlphaConfig::default(),
        )),
    ])
}

/// One cell run's result: the stream outcome plus where the operating
/// point ended up.
pub struct ControlRun {
    /// The driver outcome (control log included).
    pub outcome: StreamOutcome,
    /// Final α of the policy (fixed cells: the configured α).
    pub final_alpha: f64,
    /// Final admission bound ρ (fixed cells: the configured ρ).
    pub final_bound: f64,
}

/// On-time goodput: deadline-met completions per simulated second — the
/// sweep's scalar score. Shedding and missing both lose.
pub fn on_time_jps(o: &StreamOutcome) -> f64 {
    let secs = o.end.as_ms_f64() / 1_000.0;
    if secs <= 0.0 {
        return 0.0;
    }
    (o.deadline_jobs - o.deadline_misses) as f64 / secs
}

/// Run one (scenario, cell) point.
pub fn control_point(scenario: &ControlScenario, cell: ControlCell) -> ControlRun {
    use apt_stream::AdmissionGate as _;
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let (alpha0, bound0) = cell.start();
    let mut policy = EdfApt::new(alpha0);
    let mut gate = UtilizationBound::new(lookup, &config, bound0);
    let mut source = (scenario.make)();
    let opts = DriverOpts {
        snapshot_interval: Some(CONTROL_WINDOW),
        faults: scenario.faults,
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..DriverOpts::default()
    };
    let mut stack = matches!(cell, ControlCell::Adaptive).then(control_stack);
    let mut run =
        StreamRun::new(source.as_mut(), &config, lookup, &mut policy, &opts).gate(&mut gate);
    if let Some(stack) = stack.as_mut() {
        run = run.controller(stack);
    }
    let (outcome, _) = run.run().expect("control sweep point failed");
    ControlRun {
        outcome,
        final_alpha: Policy::alpha(&policy).unwrap_or(alpha0),
        final_bound: gate.utilization_bound().unwrap_or(bound0),
    }
}

/// One grid cell's coordinates: `(scenario index, cell index)`.
type GridCell = (usize, usize);

/// Flattened coordinates, scenario-major so each trace's block renders
/// contiguously with its adaptive row last.
fn grid() -> Vec<GridCell> {
    let nscen = control_scenarios().len();
    let ncells = control_cells().len();
    let mut cells = Vec::new();
    for s in 0..nscen {
        for c in 0..ncells {
            cells.push((s, c));
        }
    }
    cells
}

/// Run the whole grid once.
fn run_grid() -> (Vec<GridCell>, Vec<ControlRun>) {
    let coords = grid();
    let runs = run_pool(coords.len(), |i| {
        let (s, c) = coords[i];
        let scenarios = control_scenarios();
        control_point(&scenarios[s], control_cells()[c])
    });
    (coords, runs)
}

fn applied_actions(run: &ControlRun) -> usize {
    run.outcome.control_log.iter().filter(|e| e.applied).count()
}

fn render_control_table(coords: &[GridCell], runs: &[ControlRun]) -> TextTable {
    let scenarios = control_scenarios();
    let cells = control_cells();
    let mut table = TextTable::new(
        format!(
            "Control sweep — {CONTROL_JOBS} deadline-tagged jobs/cell (D = {CONTROL_TIGHTNESS} \
             × CP_min), EDF-APT behind UtilizationBound, {}s windows; fixed (α, ρ) grid vs the \
             apt-control adaptive cell (start α = {PAPER_BEST_ALPHA}, ρ = 1)",
            CONTROL_WINDOW.as_ms_f64() / 1_000.0,
        ),
        &[
            "scenario",
            "config",
            "on-time (j/s)",
            "goodput (j/s)",
            "miss %",
            "shed %",
            "final α",
            "final ρ",
            "actions",
        ],
    );
    for (i, run) in runs.iter().enumerate() {
        let (s, c) = coords[i];
        let o = &run.outcome;
        table.push_row(vec![
            scenarios[s].name.to_string(),
            cells[c].label(),
            format!("{:.3}", on_time_jps(o)),
            format!("{:.3}", o.goodput_jps),
            format!("{:.1}", o.miss_rate() * 100.0),
            format!("{:.1}", o.shed_rate() * 100.0),
            format!("{:.2}", run.final_alpha),
            format!("{:.2}", run.final_bound),
            format!("{}", applied_actions(run)),
        ]);
    }
    table
}

/// Header of the per-cell summary CSV.
pub const CONTROL_CSV_HEADER: &str = "scenario,config,adaptive,alpha0,bound0,on_time_jps,\
     goodput_jps,throughput_jps,jobs_completed,jobs_shed,jobs_failed,miss_rate,shed_rate,\
     final_alpha,final_bound,actions_applied,end_ms";

fn render_control_csv(coords: &[GridCell], runs: &[ControlRun]) -> String {
    let scenarios = control_scenarios();
    let cells = control_cells();
    let mut csv = String::from(CONTROL_CSV_HEADER);
    csv.push('\n');
    for (i, run) in runs.iter().enumerate() {
        let (s, c) = coords[i];
        let o = &run.outcome;
        let (alpha0, bound0) = cells[c].start();
        csv.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{:.3}\n",
            scenarios[s].name,
            cells[c].label(),
            matches!(cells[c], ControlCell::Adaptive) as u8,
            alpha0,
            bound0,
            on_time_jps(o),
            o.goodput_jps,
            o.throughput_jps,
            o.jobs_completed,
            o.jobs_shed,
            o.jobs_failed,
            o.miss_rate(),
            o.shed_rate(),
            run.final_alpha,
            run.final_bound,
            applied_actions(run),
            o.end.as_ms_f64(),
        ));
    }
    csv
}

/// Header of the control-log block appended after the per-cell summary:
/// one row per logged control action across the grid — what each
/// controller asked for, when, and whether the run had the knob.
pub const CONTROL_LOG_CSV_HEADER: &str = "scenario,config,at_ms,action,value,applied";

fn render_control_log_csv(coords: &[GridCell], runs: &[ControlRun]) -> String {
    let scenarios = control_scenarios();
    let cells = control_cells();
    let mut csv = String::from(CONTROL_LOG_CSV_HEADER);
    csv.push('\n');
    for (i, run) in runs.iter().enumerate() {
        let (s, c) = coords[i];
        for e in &run.outcome.control_log {
            let (action, value) = match e.action {
                ControlAction::SetAlpha(v) => ("set-alpha", v),
                ControlAction::SetAdmissionBound(v) => ("set-admission-bound", v),
                ControlAction::SwitchPolicy(m) => ("switch-policy", m as f64),
            };
            csv.push_str(&format!(
                "{},{},{:.3},{},{:.6},{}\n",
                scenarios[s].name,
                cells[c].label(),
                e.at.as_ms_f64(),
                action,
                value,
                e.applied as u8,
            ));
        }
    }
    csv
}

/// Both CSV blocks of one grid run: the per-cell summary
/// ([`CONTROL_CSV_HEADER`]), one blank line, then the control-action log
/// ([`CONTROL_LOG_CSV_HEADER`]) — the adaptive cells' full decision
/// history rides along with the summary they produced.
fn render_control_csv_full(coords: &[GridCell], runs: &[ControlRun]) -> String {
    let mut csv = render_control_csv(coords, runs);
    csv.push('\n');
    csv.push_str(&render_control_log_csv(coords, runs));
    csv
}

/// The scenario × (fixed-grid ∪ adaptive) control sweep (module docs).
pub fn control_sweep() -> TextTable {
    let (coords, runs) = run_grid();
    render_control_table(&coords, &runs)
}

/// Per-cell summary CSV plus the control-log block over the same grid
/// (see [`render_control_csv_full`]'s two headers).
pub fn control_sweep_csv() -> String {
    let (coords, runs) = run_grid();
    render_control_csv_full(&coords, &runs)
}

/// One grid run rendered both ways, so `apt-repro control-sweep --csv
/// <path>` simulates the grid once.
pub fn control_sweep_with_csv() -> (TextTable, String) {
    let (coords, runs) = run_grid();
    (
        render_control_table(&coords, &runs),
        render_control_csv_full(&coords, &runs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_scenarios_by_fixed_grid_plus_adaptive() {
        let scenarios = control_scenarios();
        assert_eq!(
            scenarios.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["diurnal", "diurnal-shift", "bursty", "faulty"]
        );
        assert!(scenarios[3].faults != FaultPlan::none() || !scenarios[3].faults.is_none());
        let cells = control_cells();
        assert_eq!(cells.len(), CONTROL_ALPHAS.len() * CONTROL_BOUNDS.len() + 1);
        assert_eq!(cells.last(), Some(&ControlCell::Adaptive));
        assert_eq!(cells[0].label(), "α=2 ρ=0.5");
        assert_eq!(grid().len(), scenarios.len() * cells.len());
        use apt_control::Controller as _;
        assert!(control_stack().name().starts_with("stack[aimd"));
    }

    /// Replaying a cell — fixed or adaptive — is byte-identical: the
    /// control loop is a pure function of the observed windows.
    #[test]
    fn cells_replay_deterministically() {
        let scenarios = control_scenarios();
        for cell in [
            ControlCell::Fixed {
                alpha: 4.0,
                bound: 1.0,
            },
            ControlCell::Adaptive,
        ] {
            let a = control_point(&scenarios[1], cell);
            let b = control_point(&scenarios[1], cell);
            assert_eq!(a.outcome.end, b.outcome.end);
            assert_eq!(a.outcome.proc_stats, b.outcome.proc_stats);
            assert_eq!(a.outcome.control_log, b.outcome.control_log);
            assert_eq!(a.final_alpha, b.final_alpha);
            assert_eq!(a.final_bound, b.final_bound);
        }
    }

    /// On the trace the static grid was tuned for, adaptivity is ~free:
    /// the adaptive cell scores within 10% of the best fixed cell.
    #[test]
    fn adaptive_matches_the_best_fixed_cell_on_the_tuned_trace() {
        let scenarios = control_scenarios();
        let cells = control_cells();
        let runs: Vec<ControlRun> =
            run_pool(cells.len(), |c| control_point(&scenarios[0], cells[c]));
        let adaptive = on_time_jps(&runs.last().unwrap().outcome);
        let best_fixed = runs[..cells.len() - 1]
            .iter()
            .map(|r| on_time_jps(&r.outcome))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            adaptive >= 0.9 * best_fixed,
            "adaptive {adaptive:.3} j/s vs best fixed {best_fixed:.3} j/s on the tuned trace"
        );
    }

    /// On the phase-shifted trace — an operating point the grid (and the
    /// controller's own defaults) were never tuned for — the adaptive
    /// cell strictly beats *every* fixed cell: no static (α, ρ) is right
    /// in both the overloaded peaks and the still-busy troughs.
    #[test]
    fn adaptive_beats_every_fixed_cell_on_the_shifted_trace() {
        let scenarios = control_scenarios();
        let cells = control_cells();
        let runs: Vec<ControlRun> =
            run_pool(cells.len(), |c| control_point(&scenarios[1], cells[c]));
        let adaptive_run = runs.last().unwrap();
        let adaptive = on_time_jps(&adaptive_run.outcome);
        assert!(
            applied_actions(adaptive_run) > 0,
            "the shifted trace must actually exercise the controller"
        );
        for (c, run) in runs[..cells.len() - 1].iter().enumerate() {
            let fixed = on_time_jps(&run.outcome);
            assert!(
                adaptive > fixed,
                "adaptive {adaptive:.3} j/s must beat fixed {} ({fixed:.3} j/s)",
                cells[c].label()
            );
        }
    }

    /// The CSV carries one summary row per cell with the mandated
    /// columns, and flags the adaptive row.
    #[test]
    fn csv_has_one_row_per_cell_and_flags_the_adaptive_row() {
        let scenarios = control_scenarios();
        let coords = vec![(0, 0), (0, 9)];
        let runs = vec![
            control_point(&scenarios[0], control_cells()[0]),
            control_point(&scenarios[0], control_cells()[9]),
        ];
        let csv = render_control_csv(&coords, &runs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CONTROL_CSV_HEADER);
        for col in [
            "on_time_jps",
            "final_alpha",
            "final_bound",
            "actions_applied",
        ] {
            assert!(lines[0].contains(col), "missing column {col}");
        }
        assert!(lines[1].starts_with("diurnal,α=2 ρ=0.5,0,2,0.5,"));
        assert!(lines[2].starts_with("diurnal,adaptive,1,4,1,"));
        let fields: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(fields.len(), CONTROL_CSV_HEADER.split(',').count());

        // The full export appends the control-log block after one blank
        // line: every logged action of every cell becomes one row.
        let full = render_control_csv_full(&coords, &runs);
        let (summary, log) = full
            .split_once("\n\n")
            .expect("summary and log blocks separated by a blank line");
        assert_eq!(summary.lines().count(), 3);
        let log_lines: Vec<&str> = log.lines().collect();
        assert_eq!(log_lines[0], CONTROL_LOG_CSV_HEADER);
        let logged: usize = runs.iter().map(|r| r.outcome.control_log.len()).sum();
        assert_eq!(log_lines.len(), 1 + logged);
        assert!(logged > 0, "the adaptive cell logged no actions");
        for line in &log_lines[1..] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), CONTROL_LOG_CSV_HEADER.split(',').count());
            assert_eq!(fields[0], "diurnal");
            assert_eq!(fields[1], "adaptive", "a fixed cell has no controller");
            assert!(matches!(
                fields[3],
                "set-alpha" | "set-admission-bound" | "switch-policy"
            ));
            assert!(fields[5] == "0" || fields[5] == "1");
        }
    }
}
