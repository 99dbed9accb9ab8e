//! Job templates: the unit an arrival source yields.
//!
//! A *job* is a small DAG of kernels submitted to the system as one
//! arrival — the open-system generalization of the paper's fixed input
//! streams (§3.2). [`JobTemplate`] carries the kernels in stream order plus
//! intra-job dependency edges over their local indices, and optionally a
//! *relative deadline* (an SLO: the job should finish within this much time
//! of its arrival); [`JobFamily`] instantiates the DAG shapes the repo
//! already knows (Type-1/Type-2, plus the chain and diamond micro-shapes of
//! the examples) with per-job seeded kernel draws.
//!
//! A Type-1/Type-2 job is the kernel series of
//! [`generate_kernels`] plus the
//! shape's edge list from [`type1_edges`] / [`type2_edges`] — the same
//! single definition of each shape that the closed path's `build_type1` /
//! `build_type2` turn into a graph. No per-arrival `KernelDag` is built:
//! the lists are ascending, hence acyclic by construction, and the
//! template stores them as they are.
//!
//! A one-kernel template keeps its kernel inline, so a
//! [`JobFamily::Single`] arrival takes one lazy
//! [`kernel_draws`] draw and touches the
//! heap not at all.

use apt_base::{BaseError, SimDuration};
use apt_dfg::generator::{
    generate_kernels, kernel_draws, type1_edges, type2_edges, StreamConfig, Type2Config,
};
use apt_dfg::{Kernel, KernelDag, LookupTable, SplitMix64};

/// One job: kernels in stream order, ascending intra-job edges, and an
/// optional relative deadline.
///
/// A one-kernel job stores its kernel inline and an edge-free job's edge
/// list never allocates, so a single-kernel template lives on the stack.
/// [`JobTemplate::new`] picks the inline form for every one-kernel list,
/// so two templates are equal exactly when they describe the same job,
/// however they were built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTemplate {
    kernels: Kernels,
    edges: Vec<(u32, u32)>,
    deadline: Option<SimDuration>,
}

/// A template's kernels: one inline, or a series of two or more.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Kernels {
    One(Kernel),
    Many(Vec<Kernel>),
}

impl JobTemplate {
    /// Build a template. Jobs must carry at least one kernel, and edges
    /// must be ascending over local kernel indices
    /// (`from < to < kernels.len()`) with no duplicates — the numbering
    /// every generator in the workspace already produces, and a structural
    /// guarantee of acyclicity. Validation is the engine's own
    /// [`apt_hetsim::validate_job`], so a template that constructs can
    /// never fail admission mid-way.
    pub fn new(kernels: Vec<Kernel>, edges: Vec<(u32, u32)>) -> Result<JobTemplate, BaseError> {
        apt_hetsim::validate_job(kernels.len(), &edges)?;
        let kernels = match kernels[..] {
            [one] => Kernels::One(one),
            _ => Kernels::Many(kernels),
        };
        Ok(JobTemplate {
            kernels,
            edges,
            deadline: None,
        })
    }

    /// A one-kernel, edge-free job, built with no allocation.
    fn single(kernel: Kernel) -> JobTemplate {
        JobTemplate {
            kernels: Kernels::One(kernel),
            edges: Vec::new(),
            deadline: None,
        }
    }

    /// Tag this job with a relative deadline: it should finish within
    /// `deadline` of its arrival instant. The streaming driver converts
    /// this to an absolute deadline on admission.
    pub fn with_deadline(mut self, deadline: SimDuration) -> JobTemplate {
        self.deadline = Some(deadline);
        self
    }

    /// The job's relative deadline, if it carries one.
    pub fn deadline(&self) -> Option<SimDuration> {
        self.deadline
    }

    /// Lower bound on this job's response time: the critical path through
    /// the job DAG with every kernel at its table-minimum execution time
    /// (kernels without a table row weigh zero). This is the `CostModel`'s
    /// per-category minimum aggregated over the job — what
    /// proportional-deadline generators and feasibility-estimate admission
    /// gates scale from.
    pub fn critical_path_min(&self, lookup: &LookupTable) -> SimDuration {
        let exec: Vec<u64> = self
            .kernels()
            .iter()
            .map(|k| lookup.best_category(k).map(|(_, t)| t.as_ns()).unwrap_or(0))
            .collect();
        // Every edge ascends (`from < to`), so edges sorted by source form a
        // topological sweep: all edges *into* `a` (sources `< a`) are
        // processed before any edge *out of* `a`, making `start[a]` final by
        // the time it propagates. Most templates (chains, generator DAGs)
        // already list edges in that order — only the odd interleaved list
        // (diamonds) pays the clone+sort. This runs per arrival (deadline
        // tagging, feasibility gates), so the common case stays cheap.
        let sorted_edges;
        let edges: &[(u32, u32)] = if self.edges.is_sorted() {
            &self.edges
        } else {
            sorted_edges = {
                let mut e = self.edges.clone();
                e.sort_unstable();
                e
            };
            &sorted_edges
        };
        let mut start = vec![0u64; self.len()];
        for &(a, b) in edges {
            let fa = start[a as usize] + exec[a as usize];
            start[b as usize] = start[b as usize].max(fa);
        }
        let total = start
            .iter()
            .zip(&exec)
            .map(|(s, e)| s + e)
            .max()
            .unwrap_or(0);
        SimDuration::from_ns(total)
    }

    /// Convert a generated [`KernelDag`] (whose edges the generators number
    /// ascending) into a template.
    pub fn from_dag(dag: &KernelDag) -> Result<JobTemplate, BaseError> {
        let kernels = dag.iter().map(|(_, k)| *k).collect();
        let edges = dag
            .edges()
            .map(|(a, b)| (a.index() as u32, b.index() as u32))
            .collect();
        JobTemplate::new(kernels, edges)
    }

    /// The kernels, in stream order.
    pub fn kernels(&self) -> &[Kernel] {
        match &self.kernels {
            Kernels::One(kernel) => std::slice::from_ref(kernel),
            Kernels::Many(kernels) => kernels,
        }
    }

    /// The intra-job edges over local indices.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.kernels().len()
    }

    /// Always false — [`JobTemplate::new`] rejects zero-kernel jobs —
    /// but kept for API completeness next to [`JobTemplate::len`].
    pub fn is_empty(&self) -> bool {
        self.kernels().is_empty()
    }
}

/// DAG families an arrival source instantiates per job. Kernel kinds and
/// data sizes are drawn from the source's seeded RNG, so two sources with
/// the same seed produce identical job sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFamily {
    /// One kernel per job.
    Single,
    /// A dependent chain of `len` kernels.
    Chain {
        /// Chain length (≥ 1).
        len: usize,
    },
    /// A fork-join diamond: one source, `width` independent middles, one
    /// sink (`width + 2` kernels).
    Diamond {
        /// Number of independent middle kernels (≥ 1).
        width: usize,
    },
    /// A paper DFG Type-1 graph of `len` kernels (Figure 3), seeded per
    /// job.
    Type1 {
        /// Kernel count.
        len: usize,
    },
    /// A paper DFG Type-2 graph of `len` kernels (Figure 4), seeded per
    /// job.
    Type2 {
        /// Kernel count.
        len: usize,
    },
}

impl JobFamily {
    /// Number of kernels every job of this family has.
    pub fn kernels_per_job(self) -> usize {
        match self {
            JobFamily::Single => 1,
            JobFamily::Chain { len } => len.max(1),
            JobFamily::Diamond { width } => width.max(1) + 2,
            JobFamily::Type1 { len } | JobFamily::Type2 { len } => len,
        }
    }

    /// Draw one job instance. Deterministic in the RNG state.
    pub fn instantiate(self, rng: &mut SplitMix64, lookup: &LookupTable) -> JobTemplate {
        // Sub-seed per job: the family generators own their kind/size draw
        // streams, so family structure changes never shift the arrival
        // process draws (and vice versa).
        let seed = rng.next_u64();
        match self {
            JobFamily::Type1 { len } => {
                let kernels = generate_kernels(&StreamConfig::new(len, seed), lookup);
                JobTemplate::new(kernels, type1_edges(len)).expect("a Type-1 job needs len ≥ 1")
            }
            JobFamily::Type2 { len } => {
                let kernels = generate_kernels(&StreamConfig::new(len, seed), lookup);
                let edges = type2_edges(len, seed, &Type2Config::default());
                JobTemplate::new(kernels, edges).expect("a Type-2 job needs len ≥ 1")
            }
            JobFamily::Single => {
                let kernel = kernel_draws(&StreamConfig::uniform(1, seed), lookup)
                    .next()
                    .expect("a one-kernel series has one draw");
                JobTemplate::single(kernel)
            }
            JobFamily::Chain { len } => {
                let len = len.max(1);
                let kernels = draw_kernels(seed, len, lookup);
                let edges = (0..len.saturating_sub(1))
                    .map(|i| (i as u32, i as u32 + 1))
                    .collect();
                JobTemplate::new(kernels, edges).expect("chain edges ascend")
            }
            JobFamily::Diamond { width } => {
                let width = width.max(1);
                let kernels = draw_kernels(seed, width + 2, lookup);
                let sink = (width + 1) as u32;
                let mut edges = Vec::with_capacity(2 * width);
                for m in 1..=width as u32 {
                    edges.push((0, m));
                    edges.push((m, sink));
                }
                JobTemplate::new(kernels, edges).expect("diamond edges ascend")
            }
        }
    }
}

/// Seeded kernel series for the micro-shapes, matching the uniform-mix
/// stream generator's draw structure.
fn draw_kernels(seed: u64, len: usize, lookup: &LookupTable) -> Vec<Kernel> {
    generate_kernels(&StreamConfig::uniform(len, seed), lookup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup() -> &'static LookupTable {
        LookupTable::paper()
    }

    #[test]
    fn templates_validate_edges() {
        let ks = draw_kernels(1, 3, lookup());
        assert!(JobTemplate::new(ks.clone(), vec![(0, 1), (1, 2)]).is_ok());
        assert!(JobTemplate::new(ks.clone(), vec![(1, 1)]).is_err());
        assert!(JobTemplate::new(ks.clone(), vec![(2, 1)]).is_err());
        assert!(JobTemplate::new(ks.clone(), vec![(0, 9)]).is_err());
        assert!(JobTemplate::new(ks, vec![(0, 1), (0, 1)]).is_err());
        assert!(JobTemplate::new(Vec::new(), Vec::new()).is_err());
    }

    #[test]
    fn one_kernel_templates_are_equal_however_built() {
        let mut rng = SplitMix64::new(11);
        let mut twin = rng.clone();
        let single = JobFamily::Single.instantiate(&mut rng, lookup());
        let seed = twin.next_u64();
        let built = JobTemplate::new(draw_kernels(seed, 1, lookup()), vec![]).unwrap();
        assert_eq!(built, single);
        assert_eq!(built.kernels(), single.kernels());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn families_have_the_advertised_shapes() {
        let mut rng = SplitMix64::new(7);
        let single = JobFamily::Single.instantiate(&mut rng, lookup());
        assert_eq!(single.len(), 1);
        assert!(single.edges().is_empty());

        let chain = JobFamily::Chain { len: 4 }.instantiate(&mut rng, lookup());
        assert_eq!(chain.len(), 4);
        assert_eq!(chain.edges(), &[(0, 1), (1, 2), (2, 3)]);

        let diamond = JobFamily::Diamond { width: 3 }.instantiate(&mut rng, lookup());
        assert_eq!(diamond.len(), 5);
        assert_eq!(diamond.edges().len(), 6);

        let t1 = JobFamily::Type1 { len: 9 }.instantiate(&mut rng, lookup());
        assert_eq!(t1.len(), 9);
        assert_eq!(t1.edges().len(), 8);

        let t2 = JobFamily::Type2 { len: 20 }.instantiate(&mut rng, lookup());
        assert_eq!(t2.len(), 20);
        assert_eq!(JobFamily::Diamond { width: 3 }.kernels_per_job(), 5);
    }

    #[test]
    fn deadlines_tag_and_report() {
        let ks = draw_kernels(1, 2, lookup());
        let plain = JobTemplate::new(ks, vec![(0, 1)]).unwrap();
        assert_eq!(plain.deadline(), None);
        let tagged = plain.clone().with_deadline(SimDuration::from_ms(250));
        assert_eq!(tagged.deadline(), Some(SimDuration::from_ms(250)));
        // Tagging does not alter the structural identity inputs.
        assert_eq!(tagged.kernels(), plain.kernels());
        assert_eq!(tagged.edges(), plain.edges());
        assert_ne!(tagged, plain, "deadline participates in equality");
    }

    #[test]
    fn critical_path_uses_minimum_execution_times() {
        use apt_dfg::{Kernel, KernelKind};
        let bfs = Kernel::canonical(KernelKind::Bfs); // best 106 ms (FPGA)
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch); // best 112 ms (CPU)
                                                                 // Chain bfs → nw: CP = 106 + 112.
        let chain = JobTemplate::new(vec![bfs, nw], vec![(0, 1)]).unwrap();
        assert_eq!(chain.critical_path_min(lookup()), SimDuration::from_ms(218));
        // Independent pair: CP = max(106, 112).
        let par = JobTemplate::new(vec![bfs, nw], vec![]).unwrap();
        assert_eq!(par.critical_path_min(lookup()), SimDuration::from_ms(112));
        // Diamond with interleaved edge listing (the family generators'
        // push order) still sweeps topologically.
        let d = JobFamily::Diamond { width: 2 }.instantiate(&mut SplitMix64::new(5), lookup());
        let by_hand = {
            let e: Vec<u64> = d
                .kernels()
                .iter()
                .map(|k| {
                    lookup()
                        .best_category(k)
                        .map(|(_, t)| t.as_ns())
                        .unwrap_or(0)
                })
                .collect();
            e[0] + e[1].max(e[2]) + e[3]
        };
        assert_eq!(d.critical_path_min(lookup()).as_ns(), by_hand);
        // A kernel with no table row weighs zero rather than poisoning CP.
        let ghost = JobTemplate::new(vec![Kernel::new(KernelKind::MatMul, 123)], vec![]).unwrap();
        assert_eq!(ghost.critical_path_min(lookup()), SimDuration::ZERO);
    }

    #[test]
    fn instantiation_is_deterministic_per_rng_state() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for family in [
            JobFamily::Single,
            JobFamily::Chain { len: 3 },
            JobFamily::Diamond { width: 2 },
            JobFamily::Type2 { len: 15 },
        ] {
            assert_eq!(
                family.instantiate(&mut a, lookup()),
                family.instantiate(&mut b, lookup())
            );
        }
    }
}
