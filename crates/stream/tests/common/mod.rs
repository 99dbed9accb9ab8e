//! The armed-run fixture shared by the traced and telemetered contracts.

use apt_base::SimDuration;
use apt_control::{ControlAction, Controller};
use apt_core::Apt;
use apt_dfg::LookupTable;
use apt_hetsim::{FaultPlan, SystemConfig};
use apt_metrics::StreamSnapshot;
use apt_stream::{
    DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamOutcome, StreamRun, StreamTelemetry,
};
use apt_trace::TraceSink;

/// Emits one action of each driver-visible kind on the first window.
struct OneShot {
    fired: bool,
}

impl Controller for OneShot {
    fn name(&self) -> String {
        "one-shot".into()
    }
    fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        if !self.fired {
            self.fired = true;
            out.push(ControlAction::SetAlpha(6.0));
            out.push(ControlAction::SetAdmissionBound(0.9));
        }
    }
}

/// A controlled, capacity-gated, faulty, deadline-carrying stream — every
/// driver emission path live at once — with the given observers armed.
/// `run(None, None)` is the bare run every armed one must equal.
pub fn run(
    tel: Option<&mut StreamTelemetry>,
    sink: Option<Box<dyn TraceSink>>,
) -> (StreamOutcome, Option<Box<dyn TraceSink>>) {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 2.0, 150, JobFamily::Chain { len: 2 }, 9)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(800)));
    let mut policy = Apt::new(8.0);
    let mut ctrl = OneShot { fired: false };
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(10_000)),
        max_in_flight_jobs: Some(6),
        shed_when_full: true,
        faults: FaultPlan::seeded(5).with_transient(0.05),
        ..DriverOpts::default()
    };
    let mut run =
        StreamRun::new(&mut source, &config, lookup, &mut policy, &opts).controller(&mut ctrl);
    if let Some(tel) = tel {
        run = run.telemetry(tel);
    }
    if let Some(sink) = sink {
        run = run.trace(sink);
    }
    run.run().unwrap()
}
