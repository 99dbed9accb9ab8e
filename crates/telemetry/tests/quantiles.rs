//! Property tests for the telemetry quantile machinery: the log-bucket
//! relative error bound, `merge()` associativity/commutativity, and the
//! [`LogHistogram`]'s quantiles against the exact order statistics of
//! seeded sample streams.

use apt_telemetry::{render_prometheus, validate, LogHistogram, Registry};
use proptest::prelude::*;

/// Deterministic xorshift stream so the exact-quantile check is
/// reproducible without pulling a randomness dependency into the crate.
fn xorshift_stream(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Latency-shaped positive values spanning ~4 decades.
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            0.1 + 5000.0 * u * u
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The log-bucket estimate of any observed sample's own quantile is
    /// within the configured relative error γ of that sample: observe a
    /// single value, read it back.
    #[test]
    fn single_sample_relative_error_bounded(
        v in 1e-6f64..1e9,
        gamma in prop::sample::select(vec![0.001, 0.01, 0.05, 0.1]),
    ) {
        let mut h = LogHistogram::new(gamma);
        h.observe(v);
        let est = h.quantile(0.5).unwrap();
        let rel = (est - v).abs() / v;
        // Allow a hair of float slop on top of the analytic bound.
        prop_assert!(rel <= gamma * (1.0 + 1e-9) + 1e-12, "v={v} est={est} rel={rel} gamma={gamma}");
    }

    /// Against a full sorted sample set, every reported quantile is
    /// within γ of the exact order statistic at the same rank.
    #[test]
    fn quantiles_track_exact_order_statistics(
        mut values in prop::collection::vec(1e-3f64..1e6, 10..300),
        q in 0.01f64..0.999,
    ) {
        let gamma = 0.01;
        let mut h = LogHistogram::new(gamma);
        for &v in &values {
            h.observe(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = h.quantile(q).unwrap();
        let rel = (est - exact).abs() / exact;
        prop_assert!(rel <= gamma * (1.0 + 1e-9) + 1e-12, "q={q} exact={exact} est={est} rel={rel}");
    }

    /// Histogram merge is associative and commutative: (a⊕b)⊕c == a⊕(b⊕c)
    /// and a⊕b == b⊕a, exactly. Integer-valued samples keep the f64 sum
    /// addition exact so equality is bitwise, not approximate.
    #[test]
    fn histogram_merge_assoc_commut(
        xs in prop::collection::vec(1u32..1_000_000, 0..60),
        ys in prop::collection::vec(1u32..1_000_000, 0..60),
        zs in prop::collection::vec(1u32..1_000_000, 0..60),
    ) {
        let fill = |vals: &[u32]| {
            let mut h = LogHistogram::new(0.02);
            for &v in vals {
                h.observe(f64::from(v));
            }
            h
        };
        let (a, b, c) = (fill(&xs), fill(&ys), fill(&zs));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        prop_assert_eq!(&ab_c, &a_bc);

        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
    }

    /// Registry merge is associative and commutative over rendered
    /// exposition (the renderer sorts families, so instrument insertion
    /// order — the one thing merge order can permute — drops out).
    /// Shards register overlapping and disjoint instruments.
    #[test]
    fn registry_merge_assoc_commut(
        a_jobs in 0u64..1000,
        b_jobs in 0u64..1000,
        c_jobs in 0u64..1000,
        a_depth in 0u32..500,
        c_depth in 0u32..500,
        lat in prop::collection::vec(1u32..100_000, 0..40),
    ) {
        let shard = |jobs: u64, depth: Option<u32>, lat: &[u32]| {
            let mut r = Registry::new();
            let c = r.counter("jobs_completed_total", "jobs completed");
            r.add(c, jobs);
            if let Some(d) = depth {
                // Gauges add on merge; shards use integer values so the
                // float sums are exact.
                let g = r.gauge("queue_depth", "queued arrivals");
                r.set(g, f64::from(d));
            }
            let h = r.histogram("job_latency_ms", "latency", 0.01);
            for &v in lat {
                r.observe(h, f64::from(v));
            }
            r
        };
        let a = shard(a_jobs, Some(a_depth), &lat);
        let b = shard(b_jobs, None, &[]);
        let c = shard(c_jobs, Some(c_depth), &lat);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        prop_assert_eq!(render_prometheus(&ab_c), render_prometheus(&a_bc));

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(render_prometheus(&ab), render_prometheus(&ba));

        prop_assert_eq!(
            ab_c.counter_named("jobs_completed_total", &[]),
            Some(a_jobs + b_jobs + c_jobs)
        );

        // Merged output still honors the exposition contract.
        prop_assert!(validate(&render_prometheus(&ab_c)).is_ok());
    }
}

/// On seeded latency-shaped streams, every reported quantile sits within
/// γ of the exact nearest-rank order statistic. A systematic bucketing bug
/// (off-by-one bucket index, wrong representative point) shifts estimates
/// by whole bucket widths and fails this immediately.
#[test]
fn histogram_is_within_gamma_of_exact_on_seeded_streams() {
    for (seed, n) in [(0x5EED1, 5_000usize), (0x5EED2, 20_000), (0xAB1E3, 50_000)] {
        let stream = xorshift_stream(seed as u64, n);
        let mut h = LogHistogram::new(0.01);
        for &v in &stream {
            h.observe(v);
        }
        let mut sorted = stream.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let hist = h.quantile(q).unwrap();
            let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let rel_hist = (hist - exact).abs() / exact;
            assert!(
                rel_hist <= 0.0101,
                "seed {seed:x} q {q}: hist {hist} vs exact {exact}"
            );
        }
    }
}
