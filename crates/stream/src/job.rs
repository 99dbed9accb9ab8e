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
//! A Type-1/Type-2 job is the kernel series of [`kernel_draws`] plus the
//! shape's edge list from [`type1_edges_into`] / [`type2_edges_into`] — the
//! same single definition of each shape that the closed path's
//! `build_type1` / `build_type2` turn into a graph. No per-arrival
//! `KernelDag` is built: the lists are ascending, hence acyclic by
//! construction, and the template stores them as they are.
//!
//! A family builds a job into an existing template (`build_into`) and
//! reuses its kernel and edge buffers. The streaming driver builds every
//! admitted job into one template, so past the first admission a job costs
//! no allocation of its own. A one-kernel template keeps its kernel inline,
//! so a [`JobFamily::Single`] job takes one lazy [`kernel_draws`] draw and
//! touches the heap not at all.

use apt_base::{BaseError, SimDuration};
use apt_dfg::generator::{
    kernel_draws, type1_edges_into, type2_edges_into, StreamConfig, Type2Config,
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

    /// A template of no kernels and no allocation: a buffer for a build to
    /// fill, never a job.
    pub(crate) const fn empty() -> JobTemplate {
        JobTemplate {
            kernels: Kernels::Many(Vec::new()),
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

    /// Set or clear the relative deadline in place.
    pub(crate) fn set_deadline(&mut self, deadline: Option<SimDuration>) {
        self.deadline = deadline;
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
        self.critical_path_min_in(lookup, &mut Vec::new())
    }

    /// [`JobTemplate::critical_path_min`], computed in `buf`: a scratch
    /// buffer the caller may reuse from one job to the next.
    pub(crate) fn critical_path_min_in(
        &self,
        lookup: &LookupTable,
        buf: &mut Vec<u64>,
    ) -> SimDuration {
        // `exec` and `start` share one buffer, filled rather than zeroed:
        // `vec![0; 2 * n]` asks for zeroed memory, which on glibc raised
        // perfbench `stream-backlog`'s peak RSS by about 9%.
        let n = self.len();
        buf.clear();
        buf.reserve(2 * n);
        buf.extend(
            self.kernels()
                .iter()
                .map(|k| lookup.best_category(k).map_or(0, |(_, t)| t.as_ns())),
        );
        buf.resize(2 * n, 0);
        let (exec, start) = buf.split_at_mut(n);
        // Every edge ascends (`from < to`). When every edge into a node is
        // listed before every edge out of it, one sweep in list order is a
        // topological one: `start[a]` is final by the time it propagates.
        // Every family's list meets that (a diamond's interleaved pairs
        // too); any other list is swept sorted by source, which meets it.
        let sorted_edges;
        let edges: &[(u32, u32)] = if into_before_out(&self.edges, start) {
            &self.edges
        } else {
            sorted_edges = {
                let mut e = self.edges.clone();
                e.sort_unstable();
                e
            };
            &sorted_edges
        };
        start.fill(0);
        for &(a, b) in edges {
            let fa = start[a as usize] + exec[a as usize];
            start[b as usize] = start[b as usize].max(fa);
        }
        let total = start
            .iter()
            .zip(&*exec)
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

/// True when, in `edges`, every edge into a node comes before every edge
/// out of it. `seen` holds one zeroed slot per kernel; the check marks in
/// it each node whose out-edges have begun, and leaves it marked.
fn into_before_out(edges: &[(u32, u32)], seen: &mut [u64]) -> bool {
    edges.iter().all(|&(a, b)| {
        seen[a as usize] = 1;
        seen[b as usize] == 0
    })
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
        /// Chain length (0 counts as 1).
        len: usize,
    },
    /// A fork-join diamond: one source, `width` independent middles, one
    /// sink (`width + 2` kernels).
    Diamond {
        /// Number of independent middle kernels (0 counts as 1).
        width: usize,
    },
    /// A paper DFG Type-1 graph of `len` kernels (Figure 3), seeded per
    /// job.
    Type1 {
        /// Kernel count (≥ 1; [`JobFamily::validate`] refuses 0).
        len: usize,
    },
    /// A paper DFG Type-2 graph of `len` kernels (Figure 4), seeded per
    /// job.
    Type2 {
        /// Kernel count (≥ 1; [`JobFamily::validate`] refuses 0).
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

    /// Refuse a family with no job in it: a Type-1 or Type-2 graph of no
    /// kernels. Every stochastic source checks its family at construction,
    /// so no draw of an accepted source panics.
    pub fn validate(self) -> Result<(), BaseError> {
        if self.kernels_per_job() == 0 {
            return Err(BaseError::InvalidSystem {
                reason: format!("job family {self:?} has no kernels; its len must be ≥ 1"),
            });
        }
        Ok(())
    }

    /// Draw one job instance. Deterministic in the RNG state: it takes one
    /// draw, the job's sub-seed, and builds the job of that seed. A family
    /// [`JobFamily::validate`] refuses builds a kernel-free job, which
    /// admission refuses (debug builds panic here).
    pub fn instantiate(self, rng: &mut SplitMix64, lookup: &LookupTable) -> JobTemplate {
        let mut job = JobTemplate::empty();
        self.build_into(rng.next_u64(), lookup, &mut job);
        job
    }

    /// Build the job of sub-seed `seed` into `job`, replacing its contents
    /// (its deadline is cleared) and reusing its kernel and edge buffers.
    /// The family's generators own their kind/size draw streams, seeded
    /// from `seed`, so family structure changes never shift an arrival
    /// process's draws (and vice versa). The shape is not checked here
    /// outside debug builds: `OpenEngine::admit_with_deadline` checks
    /// every job it admits.
    pub(crate) fn build_into(self, seed: u64, lookup: &LookupTable, job: &mut JobTemplate) {
        let n = self.kernels_per_job();
        let edges = &mut job.edges;
        edges.clear();
        match self {
            JobFamily::Single => {}
            JobFamily::Chain { .. } => edges.extend((1..n as u32).map(|i| (i - 1, i))),
            JobFamily::Diamond { .. } => {
                // Each middle's in- and out-edge side by side.
                let sink = n as u32 - 1;
                for m in 1..sink {
                    edges.push((0, m));
                    edges.push((m, sink));
                }
            }
            JobFamily::Type1 { .. } => type1_edges_into(n, edges),
            JobFamily::Type2 { .. } => type2_edges_into(n, seed, &Type2Config::default(), edges),
        }
        // The engine checks every admitted job; this only pins the shapes.
        debug_assert_eq!(apt_hetsim::validate_job(n, edges), Ok(()));
        let series = StreamConfig {
            len: n,
            seed,
            // The paper graphs draw per-graph kind weights; the micro-shapes
            // draw kinds uniformly.
            weighted_mix: matches!(self, JobFamily::Type1 { .. } | JobFamily::Type2 { .. }),
        };
        let mut draws = kernel_draws(&series, lookup);
        job.kernels = if n == 1 {
            // apt-lint: allow(hot-path-panic, kernel_draws yields exactly `len` kernels and len is 1 here)
            Kernels::One(draws.next().expect("a one-kernel series has one draw"))
        } else {
            let mut kernels = match std::mem::replace(&mut job.kernels, Kernels::Many(Vec::new())) {
                Kernels::Many(kernels) => kernels,
                Kernels::One(_) => Vec::new(),
            };
            kernels.clear();
            kernels.extend(draws);
            Kernels::Many(kernels)
        };
        job.deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_dfg::generator::generate_kernels;

    fn lookup() -> &'static LookupTable {
        LookupTable::paper()
    }

    /// A uniform-mix series of `len` kernels, as the micro-shapes draw it.
    fn draw_kernels(seed: u64, len: usize, lookup: &LookupTable) -> Vec<Kernel> {
        generate_kernels(&StreamConfig::uniform(len, seed), lookup)
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

    /// `critical_path_min` equals a naive longest path (each kernel's
    /// finish is its cost plus the latest finish among its predecessors,
    /// found by scanning every edge) on random ascending DAGs of up to 150
    /// kernels and on diamonds, with edges listed sorted or not.
    #[test]
    fn critical_path_matches_a_naive_longest_path() {
        fn naive(job: &JobTemplate) -> u64 {
            let mut finish = vec![0u64; job.len()];
            for (b, k) in job.kernels().iter().enumerate() {
                let ready = job
                    .edges()
                    .iter()
                    .filter(|&&(_, to)| to as usize == b)
                    .map(|&(a, _)| finish[a as usize])
                    .max()
                    .unwrap_or(0);
                finish[b] = ready + lookup().best_category(k).map_or(0, |(_, t)| t.as_ns());
            }
            finish.into_iter().max().unwrap()
        }
        let mut rng = SplitMix64::new(29);
        let mut jobs = Vec::new();
        for width in [2, 5, 62, 63, 100] {
            let diamond = JobFamily::Diamond { width }.instantiate(&mut rng, lookup());
            assert!(!diamond.edges().is_sorted(), "a diamond interleaves");
            jobs.push(diamond);
        }
        for round in 0..200u64 {
            let n = 1 + rng.gen_range(if round % 4 == 0 { 150 } else { 40 }) as usize;
            let mut edges = Vec::new();
            for b in 1..n as u32 {
                for a in 0..b {
                    if rng.gen_range(n as u64) < 3 {
                        edges.push((a, b));
                    }
                }
            }
            if round % 2 == 1 {
                // Shuffle, so later sources often come first.
                for i in (1..edges.len()).rev() {
                    edges.swap(i, rng.gen_range(i as u64 + 1) as usize);
                }
            }
            jobs.push(JobTemplate::new(draw_kernels(round, n, lookup()), edges).unwrap());
        }
        for job in &jobs {
            assert_eq!(
                job.critical_path_min(lookup()).as_ns(),
                naive(job),
                "{} kernels",
                job.len()
            );
        }
    }

    /// The sweep's order check: a diamond's interleaved list and every
    /// sorted list pass it; a list that names an edge into a node after an
    /// edge out of it fails it, and its critical path still comes out right
    /// (swept sorted).
    #[test]
    fn the_sweep_order_check_accepts_interleaved_lists_and_refuses_late_inputs() {
        let check = |edges: &[(u32, u32)]| into_before_out(edges, &mut [0; 4]);
        assert!(check(&[(0, 1), (1, 3), (0, 2), (2, 3)]), "a diamond");
        assert!(check(&[(0, 1), (0, 2), (1, 3), (2, 3)]), "sorted");
        assert!(check(&[]));
        assert!(!check(&[(1, 2), (0, 1)]), "edge into 1 after edge out of 1");
        assert!(!check(&[(0, 3), (2, 3), (1, 3), (0, 2)]));

        use apt_dfg::KernelKind;
        let bfs = Kernel::canonical(KernelKind::Bfs); // best 106 ms (FPGA)
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch); // best 112 ms (CPU)
        let late = JobTemplate::new(vec![bfs, nw, bfs], vec![(1, 2), (0, 1)]).unwrap();
        assert_eq!(
            late.critical_path_min(lookup()),
            SimDuration::from_ms(106 + 112 + 106)
        );
    }

    /// Building into a used template — of another family, a deadline and
    /// spare capacity included — gives the job `instantiate` gives.
    #[test]
    fn build_into_a_used_template_equals_a_fresh_instantiation() {
        let families = [
            JobFamily::Type2 { len: 24 },
            JobFamily::Single,
            JobFamily::Diamond { width: 3 },
            JobFamily::Type1 { len: 9 },
            JobFamily::Chain { len: 1 },
            JobFamily::Chain { len: 4 },
            JobFamily::Type2 { len: 1 },
            JobFamily::Type2 { len: 5 },
        ];
        let mut job = JobTemplate::new(draw_kernels(3, 30, lookup()), vec![(0, 29)])
            .unwrap()
            .with_deadline(SimDuration::from_ms(5));
        let mut rng = SplitMix64::new(13);
        for round in 0..3 {
            for family in families {
                let mut twin = rng.clone();
                family.build_into(rng.next_u64(), lookup(), &mut job);
                assert_eq!(
                    job,
                    family.instantiate(&mut twin, lookup()),
                    "{family:?} #{round}"
                );
            }
        }
    }

    #[test]
    fn validate_refuses_exactly_the_kernel_free_families() {
        for bad in [JobFamily::Type1 { len: 0 }, JobFamily::Type2 { len: 0 }] {
            assert!(
                matches!(bad.validate(), Err(BaseError::InvalidSystem { .. })),
                "{bad:?}"
            );
        }
        for good in [
            JobFamily::Single,
            JobFamily::Chain { len: 0 },
            JobFamily::Diamond { width: 0 },
            JobFamily::Type1 { len: 1 },
            JobFamily::Type2 { len: 1 },
        ] {
            assert_eq!(good.validate(), Ok(()), "{good:?}");
            let job = good.instantiate(&mut SplitMix64::new(2), lookup());
            assert_eq!(job.len(), good.kernels_per_job());
        }
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
