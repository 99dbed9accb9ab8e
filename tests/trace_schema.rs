//! Schema contract of the Chrome trace export, end to end: a real traced
//! stream run → `chrome_trace` → the field-contract validator → a
//! parse/write/parse round trip through the vendored-free JSON layer.
//!
//! The per-field rules (`ph` on every event, finite `ts`/`dur` and
//! integer `pid`/`tid` on spans, `args` on counters, monotone span
//! nesting per track) live in `apt_trace::chrome::validate`; this test
//! pins that a timeline produced by the actual driver satisfies them and
//! that the document survives re-serialization without semantic drift.

use apt_stream::{DeadlineSpec, DriverOpts, JobFamily, PoissonSource, StreamRun};
use apt_suite::prelude::*;
use apt_suite::trace::chrome::{chrome_trace, validate, ChromeConfig};
use apt_suite::trace::json::{parse, JsonValue};
use apt_suite::trace::VecSink;

/// One small but fully-featured traced run: saturating arrivals so APT
/// takes alternatives, deadlines and windows so counters appear,
/// transient faults so retries appear.
fn exported_trace() -> String {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let mut source = PoissonSource::new(lookup, 1.0, 120, JobFamily::Diamond { width: 2 }, 3)
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: 6.0 });
    let (_, sink) = StreamRun::new(
        &mut source,
        &config,
        lookup,
        &mut Apt::new(4.0),
        &DriverOpts {
            snapshot_interval: Some(SimDuration::from_ms(20_000)),
            max_in_flight_jobs: Some(8),
            shed_when_full: true,
            faults: FaultPlan::seeded(7).with_transient(0.03),
            retry: RetryPolicy::default(),
            ..DriverOpts::default()
        },
    )
    .trace(Box::new(VecSink::new()))
    .run()
    .expect("traced run");
    let events = sink
        .expect("the driver hands the armed sink back")
        .snapshot();
    let names = config.procs().iter().map(|p| p.name.clone()).collect();
    chrome_trace(&events, &ChromeConfig::with_proc_names(names))
}

#[test]
fn exported_chrome_json_round_trips_and_meets_the_field_contract() {
    let text = exported_trace();

    // Field contract: ph everywhere, span geometry, pid/tid integrality,
    // stack-disciplined nesting per track — all enforced by validate().
    let stats = validate(&text).expect("export violates the Chrome field contract");
    assert!(stats.spans > 0, "no kernel spans in the export");
    assert!(
        stats.alt_spans > 0,
        "no APT alternative placements recorded"
    );
    assert_eq!(
        stats.alt_decisions, stats.alt_spans,
        "every alt span carries exactly one DecisionRecord annotation"
    );
    assert!(!stats.counter_tracks.is_empty(), "no counter tracks");
    // The three paper processors each carry spans under this load.
    for tid in 1..=3u32 {
        assert!(stats.span_tracks.contains(&tid), "tid {tid} has no spans");
    }

    // Round trip: parse → write → parse reaches a fixed point, and the
    // re-serialized document still validates with identical stats.
    let doc = parse(&text).expect("export parses");
    let rewritten = doc.write();
    let redoc = parse(&rewritten).expect("re-serialized export parses");
    assert_eq!(doc, redoc, "write → parse is not an identity");
    let restats = validate(&rewritten).expect("re-serialized export still validates");
    assert_eq!(stats, restats);

    // Spot-check the members validate() doesn't fully pin: every event
    // object of the round-tripped doc keeps its `ph`, and span `ts`
    // values stay non-negative microseconds.
    let events = redoc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), stats.events);
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        if ph == "X" {
            let ts = ev.get("ts").and_then(JsonValue::as_num).expect("ts");
            assert!(ts >= 0.0);
        }
    }
}
