//! Stream jobs of the paper's DFG shapes equal the generated graphs.
//!
//! `JobFamily::{Type1, Type2}` build a job straight from the kernel series
//! and the shape's ascending edge list, with no `KernelDag` in between.
//! This suite pins that shortcut to the graph route it replaces: for every
//! length and RNG state, the job equals `JobTemplate::from_dag` of
//! `generator::generate` with the same per-job seed, and its
//! `critical_path_min` equals the graph's critical path weighted by each
//! kernel's best-category time.

use apt_dfg::generator::{generate, DfgType, StreamConfig};
use apt_dfg::{LookupTable, SplitMix64};
use apt_stream::{JobFamily, JobTemplate};

const LENS: [usize; 11] = [1, 2, 3, 4, 5, 8, 9, 11, 24, 46, 157];
const STATES: u64 = 500;

#[test]
fn type1_and_type2_jobs_equal_their_generated_graphs() {
    let lookup = LookupTable::paper();
    for len in LENS {
        for (family, ty) in [
            (JobFamily::Type1 { len }, DfgType::Type1),
            (JobFamily::Type2 { len }, DfgType::Type2),
        ] {
            for state in 0..STATES {
                let mut rng =
                    SplitMix64::new(state.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ len as u64);
                let mut graph_rng = rng.clone();
                let job = family.instantiate(&mut rng, lookup);

                // The per-job seed is the one draw `instantiate` takes.
                let seed = graph_rng.next_u64();
                let dag = generate(ty, &StreamConfig::new(len, seed), lookup);
                let expected = JobTemplate::from_dag(&dag).unwrap();
                assert_eq!(job, expected, "{family:?}, state {state}");
                assert_eq!(
                    rng.next_u64(),
                    graph_rng.next_u64(),
                    "{family:?}, state {state}: the draw consumed a different stream"
                );

                let cp = dag
                    .critical_path(|n| {
                        lookup
                            .best_category(dag.node(n))
                            .map_or(0, |(_, t)| t.as_ns())
                    })
                    .unwrap();
                assert_eq!(
                    job.critical_path_min(lookup).as_ns(),
                    cp,
                    "{family:?}, state {state}"
                );
            }
        }
    }
}
