//! Differential tests: the open-system streaming path must be
//! *semantics-preserving*.
//!
//! A finite [`TraceSource`] replayed through the bounded-memory driver
//! (slot-recycling arena, just-in-time admission, ordered ready set) must
//! schedule **byte-identically** to `apt_hetsim::simulate_stream` over the
//! fully materialized workload — same records, same per-processor
//! aggregates — for every dynamic policy of the paper's roster, on
//! arbitrary job mixes and arrival patterns (including gaps of minutes
//! between arrivals). Plus: determinism under seed, and
//! the bounded-arena guarantee a long stream relies on.

use apt_core::prelude::*;
use apt_hetsim::TaskRecord;
use apt_stream::{
    simulate_source, DriverOpts, JobFamily, JobTemplate, PoissonSource, StreamRun, TraceSource,
};
use proptest::prelude::*;

/// A named fresh-policy constructor.
type PolicyMaker = Box<dyn Fn() -> Box<dyn Policy>>;

/// Dynamic-policy roster (static HEFT/PEFT are rejected by the driver —
/// covered separately below).
fn policies() -> Vec<(&'static str, PolicyMaker)> {
    vec![
        (
            "APT(4)",
            Box::new(|| Box::new(Apt::new(4.0)) as Box<dyn Policy>),
        ),
        (
            "APT(1.5)",
            Box::new(|| Box::new(Apt::new(1.5)) as Box<dyn Policy>),
        ),
        (
            "APT-R(4)",
            Box::new(|| Box::new(AptR::new(4.0)) as Box<dyn Policy>),
        ),
        // Deadline-aware variants: on deadline-free jobs both reduce to
        // plain APT, so the closed-world differential still applies.
        (
            "EDF-APT(4)",
            Box::new(|| Box::new(EdfApt::new(4.0)) as Box<dyn Policy>),
        ),
        (
            "LL-APT(4)",
            Box::new(|| Box::new(LlApt::new(4.0)) as Box<dyn Policy>),
        ),
        ("MET", Box::new(|| Box::new(Met::new()) as Box<dyn Policy>)),
        ("SPN", Box::new(|| Box::new(Spn::new()) as Box<dyn Policy>)),
        (
            "SS",
            Box::new(|| Box::new(SerialScheduling::new()) as Box<dyn Policy>),
        ),
        (
            "AG",
            Box::new(|| Box::new(AdaptiveGreedy::new()) as Box<dyn Policy>),
        ),
        // AR consumes RNG per decision, so it additionally pins that the
        // open driver issues *exactly* the closed engine's decide sequence.
        (
            "AR(7)",
            Box::new(|| Box::new(AdaptiveRandom::new(7)) as Box<dyn Policy>),
        ),
        ("OLB", Box::new(|| Box::new(Olb::new()) as Box<dyn Policy>)),
    ]
}

/// Materialize a job list as one closed-world DAG + per-node arrivals.
/// Returns the dag, arrivals, and each job's node-id offset.
fn materialize(jobs: &[(SimTime, JobTemplate)]) -> (KernelDag, Vec<SimTime>, Vec<usize>) {
    let mut dag = KernelDag::new();
    let mut arrivals = Vec::new();
    let mut offsets = Vec::new();
    for (at, job) in jobs {
        let base = dag.len();
        offsets.push(base);
        for &k in job.kernels() {
            dag.add_node(k);
            arrivals.push(*at);
        }
        for &(a, b) in job.edges() {
            dag.add_edge(
                NodeId::new(base + a as usize),
                NodeId::new(base + b as usize),
            )
            .expect("template edges are fresh and ascending");
        }
    }
    (dag, arrivals, offsets)
}

/// Run one job list through both paths under one policy and compare the
/// complete traces byte for byte.
fn assert_stream_equivalent(
    tag: &str,
    jobs: &[(SimTime, JobTemplate)],
    make: &dyn Fn() -> Box<dyn Policy>,
) {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let (dag, arrivals, offsets) = materialize(jobs);

    // Open path: collect every completed job's records, re-expanded to the
    // closed world's global node ids.
    let mut open_records: Vec<TaskRecord> = Vec::new();
    let mut open_policy = make();
    let mut source = TraceSource::new(jobs.to_vec());
    let (outcome, _) = StreamRun::new(
        &mut source,
        &config,
        lookup,
        open_policy.as_mut(),
        &DriverOpts::default(),
    )
    .observe(|done| {
        let base = offsets[done.job.0 as usize];
        for rec in &done.records {
            let mut global = *rec;
            global.node = NodeId::new(base + rec.node.index());
            open_records.push(global);
        }
    })
    .run()
    .unwrap_or_else(|e| panic!("{tag}: streaming run failed: {e}"));

    // Closed path over the materialized workload.
    let mut closed_policy = make();
    let closed = simulate_stream(&dag, &config, lookup, closed_policy.as_mut(), &arrivals)
        .unwrap_or_else(|e| panic!("{tag}: closed run failed: {e}"));

    // Byte-identical trace: same record set in the same canonical order,
    // same per-processor aggregates.
    open_records.sort_unstable_by_key(|r| (r.start, r.node));
    let open_trace = Trace {
        records: open_records,
        proc_stats: outcome.proc_stats.clone(),
    };
    assert_eq!(
        open_trace, closed.trace,
        "{tag}: open-stream trace diverged from simulate_stream"
    );
    assert_eq!(outcome.jobs_completed as usize, jobs.len(), "{tag}");
    assert_eq!(outcome.lambda_total, closed.trace.lambda_total(), "{tag}");
    open_trace.validate(&dag).unwrap();
}

/// Deterministic pseudo-random job list: families, sizes and arrival gaps
/// drawn from a seed, with gap choices spanning same-instant bursts,
/// sub-second spacing, and jumps of up to two minutes.
fn job_list(seed: u64, njobs: usize, gap_choices: &[u64]) -> Vec<(SimTime, JobTemplate)> {
    let lookup = LookupTable::paper();
    let mut rng = SplitMix64::new(seed);
    let families = [
        JobFamily::Single,
        JobFamily::Chain { len: 3 },
        JobFamily::Diamond { width: 2 },
        JobFamily::Type1 { len: 6 },
        JobFamily::Type2 { len: 9 },
    ];
    let mut t_ns = 0u64;
    (0..njobs)
        .map(|_| {
            t_ns += gap_choices[rng.gen_index(gap_choices.len())];
            let family = families[rng.gen_index(families.len())];
            (SimTime::from_ns(t_ns), family.instantiate(&mut rng, lookup))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline differential: arbitrary finite sources, every dynamic
    /// policy, byte-identical traces.
    #[test]
    fn finite_source_matches_simulate_stream(
        seed in 0u64..1_000_000,
        njobs in 1usize..9,
        burst in prop::bool::ANY,
    ) {
        // Burst mode clusters arrivals (exercising same-instant admission
        // batches); spread mode includes jumps of minutes (exercising
        // completions inserted ahead of far-future arrivals in the closed
        // side's event queue and just-in-time admission on the open side).
        let gaps: &[u64] = if burst {
            &[0, 0, 1_000, 50_000_000]
        } else {
            &[0, 400_000_000, 17_000_000_000, 120_000_000_000]
        };
        let jobs = job_list(seed, njobs, gaps);
        for (name, make) in policies() {
            assert_stream_equivalent(&format!("seed={seed}/{name}"), &jobs, make.as_ref());
        }
    }
}

/// Run one finite job list through the open driver under two system
/// configurations and require identical outcomes, record for record.
fn assert_configs_equivalent(
    tag: &str,
    jobs: &[(SimTime, JobTemplate)],
    a: &SystemConfig,
    b: &SystemConfig,
    make: &dyn Fn() -> Box<dyn Policy>,
) {
    let lookup = LookupTable::paper();
    let run = |config: &SystemConfig| {
        let mut records: Vec<TaskRecord> = Vec::new();
        let mut policy = make();
        let mut source = TraceSource::new(jobs.to_vec());
        let (outcome, _) = StreamRun::new(
            &mut source,
            config,
            lookup,
            policy.as_mut(),
            &DriverOpts::default(),
        )
        .observe(|done| records.extend(done.records.iter().copied()))
        .run()
        .unwrap_or_else(|e| panic!("{tag}: run failed: {e}"));
        (outcome.end, outcome.proc_stats.clone(), records)
    };
    let (end_a, stats_a, recs_a) = run(a);
    let (end_b, stats_b, recs_b) = run(b);
    assert_eq!(end_a, end_b, "{tag}: end instants diverged");
    assert_eq!(stats_a, stats_b, "{tag}: proc aggregates diverged");
    assert_eq!(recs_a, recs_b, "{tag}: records diverged");
}

/// The open-system half of the one-rate `Topology` differential: the
/// slot-recycling driver under `Topology::uniform` and under an
/// all-equal-rate per-pair matrix must both replay byte-identically
/// against the paper machine's config as built, for every dynamic policy.
#[test]
fn uniform_topology_streams_byte_identically_to_the_link_rate_path() {
    let jobs = job_list(0xD0_70B0, 14, &[0, 1_000_000, 900_000_000, 30_000_000_000]);
    let plain = SystemConfig::paper_4gbps();
    let uniform = SystemConfig::paper_4gbps().with_topology(Topology::uniform(LinkRate::PCIE2_X8));
    let matrix =
        SystemConfig::paper_4gbps().with_topology(Topology::from_fn(3, |_, _| LinkRate::PCIE2_X8));
    for (name, make) in policies() {
        assert_configs_equivalent(
            &format!("uniform/{name}"),
            &jobs,
            &plain,
            &uniform,
            make.as_ref(),
        );
        assert_configs_equivalent(
            &format!("equal-matrix/{name}"),
            &jobs,
            &plain,
            &matrix,
            make.as_ref(),
        );
    }
}

/// A *non-uniform* topology still preserves the open-vs-closed contract:
/// the streaming driver over a clustered matrix replays byte-identically
/// against `simulate_stream` over the materialized workload on the same
/// machine (the tentpole threads one `CostModel`, so both paths see the
/// same pair tables).
#[test]
fn clustered_topology_streams_match_the_closed_engine() {
    let jobs = job_list(0xC105, 10, &[0, 400_000_000, 17_000_000_000]);
    let config = SystemConfig::paper_4gbps().with_topology(Topology::clustered(
        3,
        2,
        LinkRate::gbps(8),
        LinkRate::gbps(1),
    ));
    let lookup = LookupTable::paper();
    let (dag, arrivals, offsets) = materialize(&jobs);
    for (name, make) in policies() {
        let mut open_records: Vec<TaskRecord> = Vec::new();
        let mut policy = make();
        let mut source = TraceSource::new(jobs.to_vec());
        let (outcome, _) = StreamRun::new(
            &mut source,
            &config,
            lookup,
            policy.as_mut(),
            &DriverOpts::default(),
        )
        .observe(|done| {
            let base = offsets[done.job.0 as usize];
            for rec in &done.records {
                let mut global = *rec;
                global.node = NodeId::new(base + rec.node.index());
                open_records.push(global);
            }
        })
        .run()
        .unwrap_or_else(|e| panic!("{name}: streaming run failed: {e}"));
        let mut closed_policy = make();
        let closed =
            simulate_stream(&dag, &config, lookup, closed_policy.as_mut(), &arrivals).unwrap();
        open_records.sort_unstable_by_key(|r| (r.start, r.node));
        let open_trace = Trace {
            records: open_records,
            proc_stats: outcome.proc_stats.clone(),
        };
        assert_eq!(
            open_trace, closed.trace,
            "{name}: clustered-topology stream diverged from simulate_stream"
        );
    }
}

/// Heavy pin: one larger mixed workload through the full roster (including
/// overlap-heavy arrivals that force deep slot recycling).
#[test]
fn large_mixed_workload_is_equivalent() {
    let jobs = job_list(0xA11CE, 30, &[0, 1_000_000, 900_000_000, 30_000_000_000]);
    for (name, make) in policies() {
        assert_stream_equivalent(&format!("large/{name}"), &jobs, make.as_ref());
    }
}

/// Identical seeds give identical outcomes end to end; different seeds
/// don't.
#[test]
fn streaming_is_deterministic_under_seed() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(60_000)),
        max_in_flight_jobs: None,
        ..DriverOpts::default()
    };
    let run = |seed: u64| {
        let mut source = PoissonSource::new(lookup, 0.4, 150, JobFamily::Chain { len: 2 }, seed);
        simulate_source(&mut source, &config, lookup, &mut Apt::new(4.0), &opts).unwrap()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.end, b.end);
    assert_eq!(a.lambda_total, b.lambda_total);
    assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    assert_eq!(a.latency_p99_ms, b.latency_p99_ms);
    assert_eq!(a.proc_stats, b.proc_stats);
    assert_eq!(a.snapshots, b.snapshots);
    let c = run(8);
    assert!(
        c.end != a.end || c.proc_stats != a.proc_stats,
        "different seeds produced identical runs"
    );
}

/// Deadline-tagged finite sources replay deterministically under seed for
/// the deadline-aware policies, and different seeds diverge — the SLO
/// counterpart of `streaming_is_deterministic_under_seed`.
#[test]
fn deadline_tagged_streams_replay_deterministically() {
    use apt_stream::DeadlineSpec;
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(60_000)),
        ..DriverOpts::default()
    };
    type Maker = fn() -> Box<dyn Policy>;
    let makers: [(&str, Maker); 2] = [
        ("EDF-APT", || Box::new(EdfApt::new(4.0)) as Box<dyn Policy>),
        ("LL-APT", || Box::new(LlApt::new(4.0)) as Box<dyn Policy>),
    ];
    for (name, make) in makers {
        let run = |seed: u64| {
            let mut source =
                PoissonSource::new(lookup, 0.4, 150, JobFamily::Diamond { width: 2 }, seed)
                    .with_deadlines(DeadlineSpec::ProportionalCp { factor: 3.0 });
            simulate_source(&mut source, &config, lookup, make().as_mut(), &opts).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.end, b.end, "{name}");
        assert_eq!(a.proc_stats, b.proc_stats, "{name}");
        assert_eq!(a.deadline_misses, b.deadline_misses, "{name}");
        assert_eq!(a.tardiness_p99_ms, b.tardiness_p99_ms, "{name}");
        assert_eq!(a.snapshots, b.snapshots, "{name}");
        assert_eq!(a.deadline_jobs, 150, "{name}: every job carried an SLO");
        let c = run(8);
        assert!(
            c.end != a.end || c.proc_stats != a.proc_stats,
            "{name}: different seeds produced identical runs"
        );
    }
}

/// Armed-but-inert fault machinery differential: a non-`none` plan that
/// can never inject (transient p = 0) arms the whole fault path — run
/// tokens, availability masks, per-execution failure draws — yet must
/// stream byte-identically to the fault-free driver across the full
/// dynamic roster. This pins that the machinery is schedule-invisible
/// until a fault actually fires (and that `FaultPlan::none()`, the
/// `DriverOpts` default, is the same schedule).
#[test]
fn inert_fault_plans_stream_byte_identically() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let jobs = job_list(0xFA17, 14, &[0, 1_000_000, 400_000_000, 17_000_000_000]);
    for (name, make) in policies() {
        let run = |faults: FaultPlan| {
            let mut records: Vec<TaskRecord> = Vec::new();
            let mut source = TraceSource::new(jobs.clone());
            let mut policy = make();
            let (outcome, _) = StreamRun::new(
                &mut source,
                &config,
                lookup,
                policy.as_mut(),
                &DriverOpts {
                    snapshot_interval: Some(SimDuration::from_ms(60_000)),
                    faults,
                    ..DriverOpts::default()
                },
            )
            .observe(|done| records.extend(done.records.iter().copied()))
            .run()
            .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
            (outcome, records)
        };
        let (plain, recs_plain) = run(FaultPlan::none());
        let (inert, recs_inert) = run(FaultPlan::seeded(3).with_transient(0.0));
        assert_eq!(recs_plain, recs_inert, "{name}: inert plan moved a kernel");
        assert_eq!(plain.end, inert.end, "{name}");
        assert_eq!(plain.proc_stats, inert.proc_stats, "{name}");
        assert_eq!(plain.snapshots, inert.snapshots, "{name}");
        assert_eq!(plain.jobs_completed, inert.jobs_completed, "{name}");
        assert_eq!(
            inert.faults,
            FaultTotals::default(),
            "{name}: phantom faults"
        );
        assert_eq!(inert.jobs_failed, 0, "{name}");
        assert_eq!(
            inert.goodput_jps, inert.throughput_jps,
            "{name}: goodput must equal throughput with nothing failing"
        );
    }
}

/// Faulty streams replay deterministically under `(workload seed, fault
/// seed)`, and changing only the fault seed diverges the run while the
/// offered load (arrival process) stays on its own RNG stream.
#[test]
fn faulty_streams_replay_deterministically_under_seed() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let run = |fault_seed: u64| {
        let mut source = PoissonSource::new(lookup, 0.4, 120, JobFamily::Chain { len: 2 }, 7);
        simulate_source(
            &mut source,
            &config,
            lookup,
            &mut Apt::new(4.0),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(60_000)),
                faults: FaultPlan::seeded(fault_seed)
                    .with_transient(0.05)
                    .with_crashes(SimDuration::from_ms(30_000), SimDuration::from_ms(2_000)),
                ..DriverOpts::default()
            },
        )
        .unwrap()
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.end, b.end);
    assert_eq!(a.proc_stats, b.proc_stats);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.jobs_failed, b.jobs_failed);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.snapshots, b.snapshots);
    assert!(
        a.faults.crashes > 0,
        "MTTF 30 s over a ~5 min stream never crashed"
    );
    let c = run(12);
    assert!(
        c.proc_stats != a.proc_stats || c.faults != a.faults,
        "different fault seeds produced identical runs"
    );
}

/// Armed-but-inert *controller* differential: running the controlled
/// driver with the no-op [`InertController`] arms the whole control path
/// — window delivery, action application, the control log — yet must
/// stream byte-identically to a controller-off run across the dynamic
/// roster. This pins that the control plane is schedule-invisible until a
/// controller actually acts.
#[test]
fn inert_controller_streams_byte_identically_to_controller_off() {
    use apt_control::InertController;
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let jobs = job_list(
        0x0C01_1701,
        14,
        &[0, 1_000_000, 400_000_000, 17_000_000_000],
    );
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(60_000)),
        ..DriverOpts::default()
    };
    for (name, make) in policies() {
        let mut recs_off: Vec<TaskRecord> = Vec::new();
        let mut source = TraceSource::new(jobs.clone());
        let mut policy = make();
        let (off, _) = StreamRun::new(&mut source, &config, lookup, policy.as_mut(), &opts)
            .observe(|done| recs_off.extend(done.records.iter().copied()))
            .run()
            .unwrap_or_else(|e| panic!("{name}: controller-off run failed: {e}"));

        let mut recs_inert: Vec<TaskRecord> = Vec::new();
        let mut source = TraceSource::new(jobs.clone());
        let mut policy = make();
        let (inert, _) = StreamRun::new(&mut source, &config, lookup, policy.as_mut(), &opts)
            .controller(&mut InertController)
            .observe(|done| recs_inert.extend(done.records.iter().copied()))
            .run()
            .unwrap_or_else(|e| panic!("{name}: inert-controller run failed: {e}"));

        assert_eq!(
            recs_off, recs_inert,
            "{name}: inert controller moved a kernel"
        );
        assert_eq!(off, inert, "{name}: inert controller changed the outcome");
        assert_eq!(off.end, inert.end, "{name}");
        assert_eq!(off.proc_stats, inert.proc_stats, "{name}");
        assert_eq!(off.snapshots, inert.snapshots, "{name}");
        assert_eq!(off.jobs_completed, inert.jobs_completed, "{name}");
        assert_eq!(off.lambda_total, inert.lambda_total, "{name}");
        assert!(inert.control_log.is_empty(), "{name}: phantom actions");
        assert!(off.control_log.is_empty(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism under seed with a *live* controller armed: the same
    /// seed must replay to an identical outcome and an identical action
    /// log — controllers are pure functions of the observed windows, so
    /// arming them adds no new nondeterminism.
    #[test]
    fn controlled_streams_replay_deterministically(seed in 0u64..100_000) {
        use apt_control::{
            AimdAdmission, AimdConfig, AlphaConfig, AlphaController, ControllerStack,
        };
        use apt_stream::DeadlineSpec;
        let config = SystemConfig::paper_4gbps();
        let lookup = LookupTable::paper();
        let run = || {
            let mut source =
                PoissonSource::new(lookup, 0.5, 120, JobFamily::Diamond { width: 2 }, seed)
                    .with_deadlines(DeadlineSpec::ProportionalCp { factor: 1.5 });
            let mut ctrl = ControllerStack::new(vec![
                Box::new(AimdAdmission::new(1.0, AimdConfig::default())),
                Box::new(AlphaController::new(
                    4.0,
                    AlphaConfig {
                        settle: 1,
                        ..AlphaConfig::default()
                    },
                )),
            ]);
            let opts = DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(30_000)),
                ..DriverOpts::default()
            };
            let mut policy = Apt::new(4.0);
            StreamRun::new(&mut source, &config, lookup, &mut policy, &opts)
                .controller(&mut ctrl)
                .run()
                .unwrap()
                .0
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.end, b.end);
        prop_assert_eq!(a.jobs_completed, b.jobs_completed);
        prop_assert_eq!(&a.proc_stats, &b.proc_stats);
        prop_assert_eq!(&a.snapshots, &b.snapshots);
        prop_assert_eq!(&a.control_log, &b.control_log);
        // The α climber emits every settled window, so a multi-window run
        // has a live (non-empty) log — this is a *live*-controller pin,
        // not a vacuous empty-log comparison.
        if a.snapshots.len() > 2 {
            prop_assert!(!a.control_log.is_empty());
        }
    }
}

/// A long stream's arena stays bounded by the in-flight peak — the
/// million-job guarantee, sized down to keep debug-mode CI fast (the full
/// 1e6 run lives in `examples/million_jobs.rs`).
#[test]
fn long_stream_memory_is_bounded_by_in_flight_jobs() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 0.5, 20_000, JobFamily::Single, 99);
    let outcome = simulate_source(
        &mut source,
        &config,
        lookup,
        &mut Met::new(),
        &DriverOpts::default(),
    )
    .unwrap();
    assert_eq!(outcome.jobs_completed, 20_000);
    assert_eq!(outcome.arena_slots, outcome.peak_in_flight_kernels);
    assert!(
        outcome.arena_slots < 200,
        "arena {} not bounded by in-flight work",
        outcome.arena_slots
    );
}

/// Static policies cannot run open streams — the driver says so up front.
#[test]
fn static_policies_are_rejected() {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    for make in [
        || Box::new(Heft::new()) as Box<dyn Policy>,
        || Box::new(Peft::new()) as Box<dyn Policy>,
    ] {
        let mut source = PoissonSource::new(lookup, 1.0, 2, JobFamily::Single, 1);
        let err = simulate_source(
            &mut source,
            &config,
            lookup,
            make().as_mut(),
            &DriverOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::InvalidAssignment { .. }));
    }
}
