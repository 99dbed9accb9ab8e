//! The precomputed per-run cost model (processor-instance level).
//!
//! Built once per `(KernelDag, LookupTable, SystemConfig)` triple at the top
//! of `simulate_stream`, then shared read-only by the engine, the
//! [`crate::SimView`] handed to dynamic policies, and the static planners'
//! [`crate::PrepareCtx`]. It precomputes everything about a decision that
//! does **not** depend on live simulator state.
//!
//! ## Cost classes
//!
//! Execution costs depend only on a kernel's lookup-table row, so they are
//! stored once per **cost class**: one `(kind, data_size)` row, interned
//! under a dense [`ClassId`]. A class's id is its row's index in the
//! [`LookupTable`] (25 classes for the paper table); a kernel without a row
//! gets an id after the table's rows on first sight. Per class the model
//! keeps:
//!
//! * the instance-level execution row (the lookup columns expanded over the
//!   machine's devices; [`UNRUNNABLE`] where a category has no entry),
//! * the runnable-processor bitset and the minimum-execution-time instance
//!   set (`p_min` of §3.1, with its tie mask),
//! * SS's lazily built `idle-mask → stddev` memo.
//!
//! Per node the model keeps only the class id plus the node's *output*
//! transfer time across the interconnect (so the engine's `transfer_in` and
//! the view's `transfer_in_time` sum precomputed summands instead of
//! re-deriving `bytes / rate` per query) — a scalar per node on uniform
//! machines, a dense `node × src × dst` table when a non-uniform
//! [`crate::Topology`] is in force. Rebinding an open-stream slot
//! ([`CostModel::bind_slot`]) therefore stamps a class id instead of
//! rebuilding an execution row, and policies can key their own per-class
//! tables on [`CostModel::class_of`] (APT's admissible-processor screen).
//!
//! Hot accessors are branch-light array reads; every former
//! `BTreeMap`-lookup and allocation on the decision path routes through
//! here. See the "Engine architecture & cost model" notes in the crate docs.

use crate::system::SystemConfig;
use apt_base::stats::stddev_population;
use apt_base::{ProcId, ProcKind, SimDuration};
use apt_dfg::lookup::LookupRow;
use apt_dfg::{Kernel, KernelDag, KernelKind, LookupTable, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

/// Sentinel for "kernel cannot run on this processor instance".
pub const UNRUNNABLE: u64 = u64::MAX;

/// Largest supported machine size (runnable sets are single-word bitsets).
pub const MAX_PROCS: usize = 64;

/// Largest machine size for which [`CostModel::idle_stddev`] memoizes its
/// per-(class, idle-mask) values in a *dense* table (2^nprocs entries per
/// class — 256 `f64`s per class at the cap; the paper's machine has 3
/// processors → 8 entries). Machines beyond this and up to [`MAX_PROCS`]
/// use a hashed per-class `idle-mask → stddev` cache instead (the dense
/// table would be 2^64 entries), so fleet-scale configurations are memoized
/// all the way to the 64-processor limit.
pub const SS_MEMO_MAX_PROCS: usize = 8;

/// Dense id of one cost class: one `(kind, data_size)` lookup row (module
/// docs). Ids below the table's row count are row indices.
pub type ClassId = u32;

/// Precomputed decision-cost tables for one simulation run.
#[derive(Debug)]
pub struct CostModel {
    nprocs: usize,
    /// Class of each node.
    class: Vec<ClassId>,
    /// Number of lookup-table rows interned (ids `0..table_rows`); `None`
    /// until the first kernel is bound, because a streaming model is built
    /// before it sees the table.
    table_rows: Option<usize>,
    /// Classes of kernels without a table row, keyed by `(kind, size)`.
    /// Only consulted on a row miss, never on the hot path.
    unlisted: BTreeMap<(KernelKind, u64), ClassId>,
    /// Flattened `class × nprocs` execution times in ns ([`UNRUNNABLE`]
    /// when the instance's category has no table entry).
    exec_ns: Vec<u64>,
    /// Per-class bitset of runnable processor instances.
    runnable: Vec<u64>,
    /// Per-class minimum execution time over instances ([`UNRUNNABLE`] when
    /// no instance can run the class).
    min_ns: Vec<u64>,
    /// Per-class bitset of the instances achieving `min_ns`.
    min_mask: Vec<u64>,
    /// Per-node output transfer time across the uniform link, in ns (what
    /// a *successor* pays when this node's result is resident elsewhere).
    /// On a non-uniform [`crate::Topology`] this holds the mean over
    /// ordered remote pairs (rounded to nearest; display/ranking use only)
    /// and the hot queries read `pair_ns` instead.
    transfer_ns: Vec<u64>,
    /// Per-pair transfer tables for non-uniform topologies: flattened
    /// `node × src × dst` output transfer times in ns (diagonal zero).
    /// Empty on uniform machines, where the scalar `transfer_ns` path is
    /// byte-identical to the seed and cheaper.
    pair_ns: Vec<u64>,
    /// True when the machine's topology is non-uniform and `pair_ns` is
    /// the authoritative transfer table (explicit so the open-stream
    /// engine's initially empty arena knows which rows to grow).
    pairwise: bool,
    /// Per-instance category, cached densely (avoids chasing the
    /// `ProcSpec` vec and its name strings on hot reads).
    kinds: Vec<ProcKind>,
    /// Per-class lazily built `idle-mask → stddev` tables backing
    /// [`CostModel::idle_stddev`] (empty when `nprocs > SS_MEMO_MAX_PROCS`).
    /// The values are pure functions of the class's execution row and the
    /// mask, so the cache never invalidates for the lifetime of the run.
    stddev_masks: Vec<OnceLock<Box<[f64]>>>,
    /// Per-class hashed `idle-mask → stddev` caches for machines past
    /// [`SS_MEMO_MAX_PROCS`] processors, where the dense 2^nprocs table is
    /// infeasible (empty when the dense tables are in use). Only the handful
    /// of masks the run actually visits are stored. Uncontended mutexes: one
    /// simulation runs on one thread; the lock only exists because
    /// `idle_stddev` memoizes through `&self`.
    // apt-lint: allow(nondet-container, keyed-only stddev memo — values are
    // pure functions of the mask key and the map is never iterated, so
    // insertion order cannot reach any simulation output)
    stddev_hashed: Vec<Mutex<HashMap<u64, f64>>>,
}

impl Clone for CostModel {
    fn clone(&self) -> CostModel {
        CostModel {
            nprocs: self.nprocs,
            class: self.class.clone(),
            table_rows: self.table_rows,
            unlisted: self.unlisted.clone(),
            exec_ns: self.exec_ns.clone(),
            runnable: self.runnable.clone(),
            min_ns: self.min_ns.clone(),
            min_mask: self.min_mask.clone(),
            transfer_ns: self.transfer_ns.clone(),
            pair_ns: self.pair_ns.clone(),
            pairwise: self.pairwise,
            kinds: self.kinds.clone(),
            stddev_masks: self.stddev_masks.clone(),
            stddev_hashed: self
                .stddev_hashed
                // apt-lint: allow(nondet-iter, iterates the outer per-class
                // Vec (deterministic order); the hashed map itself is only
                // cloned, never walked)
                .iter()
                .map(|m| Mutex::new(m.lock().expect("stddev cache poisoned").clone()))
                .collect(),
        }
    }
}

impl CostModel {
    /// Precompute the model. O(nodes + classes × procs) time and memory;
    /// called once per run, amortized over every decision edge of the
    /// simulation.
    ///
    /// Panics if the system has more than [`MAX_PROCS`] processors (the
    /// runnable sets are single-word bitsets; no evaluated configuration
    /// comes within an order of magnitude of the limit).
    pub fn new(dfg: &KernelDag, lookup: &LookupTable, config: &SystemConfig) -> CostModel {
        let mut model = CostModel::for_streaming(config);
        let n = dfg.len();
        model.class.reserve_exact(n);
        model.transfer_ns = vec![0; n];
        if model.pairwise {
            model.pair_ns = vec![0; n * model.nprocs * model.nprocs];
        }
        for (node, kernel) in dfg.iter() {
            let class = model.intern(kernel, lookup);
            model.class.push(class);
            model.write_transfer_row(
                node.index(),
                kernel.data_size * config.bytes_per_element,
                config,
            );
        }
        model
    }

    /// An empty model over `config`'s machine, to be populated one node at a
    /// time with [`CostModel::bind_slot`] — the open-stream engine's slot
    /// arena grows and recycles nodes as jobs arrive and retire.
    pub fn for_streaming(config: &SystemConfig) -> CostModel {
        let nprocs = config.len();
        assert!(
            nprocs <= MAX_PROCS,
            "CostModel supports at most {MAX_PROCS} processors, got {nprocs}"
        );
        CostModel {
            nprocs,
            class: Vec::new(),
            table_rows: None,
            unlisted: BTreeMap::new(),
            exec_ns: Vec::new(),
            runnable: Vec::new(),
            min_ns: Vec::new(),
            min_mask: Vec::new(),
            transfer_ns: Vec::new(),
            pair_ns: Vec::new(),
            pairwise: config.uniform_rate().is_none(),
            kinds: config.proc_ids().map(|p| config.kind_of(p)).collect(),
            stddev_masks: Vec::new(),
            stddev_hashed: Vec::new(),
        }
    }

    /// The class of `kernel` under `lookup`: its row index when the table
    /// has a row, else an id after the table's rows, interned on first
    /// sight. The first call interns every table row at once. One model is
    /// bound against one table for its whole life.
    fn intern(&mut self, kernel: &Kernel, lookup: &LookupTable) -> ClassId {
        if self.table_rows.is_none() {
            self.table_rows = Some(lookup.rows().len());
            for row in lookup.rows() {
                self.push_class(Some(row));
            }
        }
        debug_assert_eq!(
            self.table_rows,
            Some(lookup.rows().len()),
            "one model, one lookup table"
        );
        if let Some(i) = lookup.row_index(kernel.kind, kernel.data_size) {
            return i as ClassId;
        }
        let next = self.min_ns.len() as ClassId;
        let class = *self
            .unlisted
            .entry((kernel.kind, kernel.data_size))
            .or_insert(next);
        if class == next {
            self.push_class(None);
        }
        class
    }

    /// Append one class built from a lookup row (`None`: no row, so every
    /// instance is unrunnable).
    fn push_class(&mut self, row: Option<&LookupRow>) {
        let mut run_bits = 0u64;
        let mut best = UNRUNNABLE;
        let mut best_bits = 0u64;
        for (k, kind) in self.kinds.iter().enumerate() {
            let ns = match (kind.table_column(), row) {
                (Some(col), Some(row)) => row.times[col].as_ns(),
                _ => UNRUNNABLE,
            };
            self.exec_ns.push(ns);
            if ns != UNRUNNABLE {
                run_bits |= 1 << k;
                match ns.cmp(&best) {
                    std::cmp::Ordering::Less => {
                        best = ns;
                        best_bits = 1 << k;
                    }
                    std::cmp::Ordering::Equal => best_bits |= 1 << k,
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        self.runnable.push(run_bits);
        self.min_ns.push(best);
        self.min_mask.push(best_bits);
        if self.nprocs <= SS_MEMO_MAX_PROCS {
            self.stddev_masks.push(OnceLock::new());
        } else {
            self.stddev_hashed.push(Mutex::default());
        }
    }

    /// Fill node `i`'s transfer entry (and, on a non-uniform topology, its
    /// dense per-pair row) for an output of `bytes` bytes. The rows must
    /// already be sized; shared by the batch constructor and
    /// [`CostModel::bind_slot`] so the two paths cannot drift.
    fn write_transfer_row(&mut self, i: usize, bytes: u64, config: &SystemConfig) {
        if !self.pairwise {
            let rate = config
                .uniform_rate()
                .expect("scalar transfer path implies a uniform rate");
            self.transfer_ns[i] = rate.transfer_time(bytes).as_ns();
            return;
        }
        let np = self.nprocs;
        let row = &mut self.pair_ns[i * np * np..(i + 1) * np * np];
        let mut sum = 0u128;
        for s in 0..np {
            for d in 0..np {
                let ns = config
                    .pair_transfer_time(bytes, ProcId::new(s), ProcId::new(d))
                    .as_ns();
                row[s * np + d] = ns;
                if s != d {
                    sum += u128::from(ns);
                }
            }
        }
        // The scalar entry doubles as the matrix's remote-pair mean
        // (rounded to nearest ns) — ranking/display use, never the engine.
        let pairs = (np * np).saturating_sub(np) as u128;
        self.transfer_ns[i] = (sum + pairs / 2)
            .checked_div(pairs)
            .map_or(0, |mean| mean as u64);
    }

    /// Bind node `i` to `kernel` — growing the per-node tables by one row
    /// when `node` is the next fresh slot, overwriting when it recycles a
    /// retired one. The slot is stamped with the kernel's class (resolved
    /// by the table's binary search; a kernel without a row is interned on
    /// first sight) and its transfer row is rewritten. Produces values
    /// bit-identical to [`CostModel::new`] over a graph containing `kernel`
    /// at that node (pinned by `bind_slot_matches_batch_build` below).
    pub fn bind_slot(
        &mut self,
        node: NodeId,
        kernel: &Kernel,
        lookup: &LookupTable,
        config: &SystemConfig,
    ) {
        let i = node.index();
        assert!(i <= self.class.len(), "slots bind densely");
        let class = self.intern(kernel, lookup);
        if i == self.class.len() {
            self.class.push(class);
            self.transfer_ns.push(0);
            if self.pairwise {
                self.pair_ns
                    .resize(self.pair_ns.len() + self.nprocs * self.nprocs, 0);
            }
        } else {
            self.class[i] = class;
        }
        let bytes = kernel.data_size * config.bytes_per_element;
        self.write_transfer_row(i, bytes, config);
    }

    /// Number of processor instances in the modeled system.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of cost classes interned so far. Grows (never shrinks) as
    /// kernels without a table row are first bound; per-class tables kept
    /// outside the model extend themselves up to this count.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.min_ns.len()
    }

    /// The cost class of `node` (module docs).
    #[inline]
    pub fn class_of(&self, node: NodeId) -> ClassId {
        self.class[node.index()]
    }

    /// Raw nanosecond execution time of any kernel of `class` on `proc`
    /// ([`UNRUNNABLE`] when impossible).
    #[inline]
    pub fn class_exec_ns(&self, class: ClassId, proc: ProcId) -> u64 {
        self.exec_ns[class as usize * self.nprocs + proc.index()]
    }

    /// Minimum execution time of `class` over all instances in ns
    /// ([`UNRUNNABLE`] when no processor can run it).
    #[inline]
    pub fn class_min_ns(&self, class: ClassId) -> u64 {
        self.min_ns[class as usize]
    }

    /// Bitset of instances able to execute kernels of `class`.
    #[inline]
    pub fn class_runnable_mask(&self, class: ClassId) -> u64 {
        self.runnable[class as usize]
    }

    /// Raw nanosecond execution time ([`UNRUNNABLE`] when impossible).
    #[inline]
    pub fn exec_ns(&self, node: NodeId, proc: ProcId) -> u64 {
        self.class_exec_ns(self.class_of(node), proc)
    }

    /// Execution time of `node` on `proc`; `None` when the kernel cannot run
    /// on that instance's category.
    #[inline]
    pub fn exec_time(&self, node: NodeId, proc: ProcId) -> Option<SimDuration> {
        match self.exec_ns(node, proc) {
            UNRUNNABLE => None,
            ns => Some(SimDuration::from_ns(ns)),
        }
    }

    /// True when `proc` can execute `node`.
    #[inline]
    pub fn runnable(&self, node: NodeId, proc: ProcId) -> bool {
        proc.index() < self.nprocs && (self.runnable_mask(node) >> proc.index()) & 1 == 1
    }

    /// Bitset of instances able to execute `node` (bit i ⇔ processor i).
    #[inline]
    pub fn runnable_mask(&self, node: NodeId) -> u64 {
        self.class_runnable_mask(self.class_of(node))
    }

    /// Output transfer time of `node` across the uniform link — the cost a
    /// consumer pays per predecessor resident on another processor. On a
    /// non-uniform [`crate::Topology`] this is the mean over ordered remote
    /// pairs (rounded to nearest ns; ranking/display use) — pair-resolved
    /// queries go through [`CostModel::pair_transfer_time`].
    #[inline]
    pub fn transfer_time(&self, node: NodeId) -> SimDuration {
        SimDuration::from_ns(self.transfer_ns[node.index()])
    }

    /// Output transfer time of `node` from `src` to `dst` under the
    /// machine's interconnect; zero for same-processor moves. On uniform
    /// machines this reads the scalar table (byte-identical to the seed
    /// path), on non-uniform topologies the dense per-pair table.
    #[inline]
    pub fn pair_transfer_time(&self, node: NodeId, src: ProcId, dst: ProcId) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        let ns = if self.pairwise {
            self.pair_ns[(node.index() * self.nprocs + src.index()) * self.nprocs + dst.index()]
        } else {
            self.transfer_ns[node.index()]
        };
        SimDuration::from_ns(ns)
    }

    /// Input-transfer time if `node` were started on `proc` given the
    /// current residency of finished predecessors: the sum of precomputed
    /// output transfer times of predecessors resident on *other* processors
    /// (the Eq. 6 convention `c_ij = 0` when `p_w = p_k`). Unfinished
    /// predecessors (`None` location) contribute nothing; callers that
    /// require every input resident assert that themselves. This is the one
    /// shared implementation behind both the engine's start bookkeeping and
    /// `SimView::transfer_in_time`.
    pub fn transfer_in_time(
        &self,
        dfg: &KernelDag,
        locations: &[Option<ProcId>],
        node: NodeId,
        proc: ProcId,
    ) -> SimDuration {
        let mut total_ns = 0u64;
        if self.pairwise {
            let np = self.nprocs;
            for &pred in dfg.preds(node) {
                if let Some(loc) = locations[pred.index()] {
                    if loc != proc {
                        total_ns +=
                            self.pair_ns[(pred.index() * np + loc.index()) * np + proc.index()];
                    }
                }
            }
        } else {
            for &pred in dfg.preds(node) {
                if let Some(loc) = locations[pred.index()] {
                    if loc != proc {
                        total_ns += self.transfer_ns[pred.index()];
                    }
                }
            }
        }
        SimDuration::from_ns(total_ns)
    }

    /// Minimum execution time of `node` over all instances (`x` of §3.1);
    /// `None` when no processor can run it.
    #[inline]
    pub fn min_exec(&self, node: NodeId) -> Option<SimDuration> {
        match self.class_min_ns(self.class_of(node)) {
            UNRUNNABLE => None,
            ns => Some(SimDuration::from_ns(ns)),
        }
    }

    /// Bitset of the instances achieving [`CostModel::min_exec`].
    #[inline]
    pub fn min_mask(&self, node: NodeId) -> u64 {
        self.min_mask[self.class_of(node) as usize]
    }

    /// The lowest-id minimum-execution-time instance and its time
    /// (`p_min`, `x`), `None` when the node is unrunnable everywhere.
    #[inline]
    pub fn best_proc(&self, node: NodeId) -> Option<(ProcId, SimDuration)> {
        let class = self.class_of(node) as usize;
        let mask = self.min_mask[class];
        if mask == 0 {
            return None;
        }
        let proc = ProcId::new(mask.trailing_zeros() as usize);
        Some((proc, SimDuration::from_ns(self.min_ns[class])))
    }

    /// Cached category of one processor instance.
    #[inline]
    pub fn kind_of(&self, proc: ProcId) -> ProcKind {
        self.kinds[proc.index()]
    }

    /// Population standard deviation (fractional milliseconds, identical to
    /// `stddev_population` over ascending-id `as_ms_f64` times) of `node`'s
    /// execution times across the **runnable** processors in `idle_mask` —
    /// the quantity SS ranks ready kernels by (§2.5.3).
    ///
    /// The value depends only on the node's class and the mask, so it is
    /// memoized per class: machines up to [`SS_MEMO_MAX_PROCS`] processors
    /// use a lazily built dense table of all `2^nprocs` masks; larger
    /// machines (up to the [`MAX_PROCS`] limit) use a hashed `mask → stddev`
    /// cache holding only the masks the run visits. Every path returns
    /// bit-identical results.
    pub fn idle_stddev(&self, node: NodeId, idle_mask: u64) -> f64 {
        let class = self.class_of(node) as usize;
        if let Some(cell) = self.stddev_masks.get(class) {
            let table = cell.get_or_init(|| {
                (0..1u64 << self.nprocs)
                    .map(|mask| self.compute_idle_stddev(node, mask))
                    .collect()
            });
            return table[(idle_mask & ((1u64 << self.nprocs) - 1)) as usize];
        }
        if let Some(cell) = self.stddev_hashed.get(class) {
            // Only bits inside the machine contribute; canonicalize the key
            // so equivalent masks share one entry.
            let key = idle_mask & (u64::MAX >> (64 - self.nprocs as u32));
            let mut cache = cell.lock().expect("stddev cache poisoned");
            return *cache
                .entry(key)
                .or_insert_with(|| self.compute_idle_stddev(node, key));
        }
        self.compute_idle_stddev(node, idle_mask)
    }

    /// The uncached computation behind [`CostModel::idle_stddev`].
    fn compute_idle_stddev(&self, node: NodeId, idle_mask: u64) -> f64 {
        let mut times = [0f64; MAX_PROCS];
        let mut count = 0usize;
        let mut bits = idle_mask & self.runnable_mask(node);
        while bits != 0 {
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            times[count] = SimDuration::from_ns(self.exec_ns(node, ProcId::new(p))).as_ms_f64();
            count += 1;
        }
        stddev_population(&times[..count])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkRate;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind};

    fn fixture() -> (KernelDag, &'static LookupTable, SystemConfig) {
        (
            build_type1(&[
                Kernel::canonical(KernelKind::NeedlemanWunsch),
                Kernel::canonical(KernelKind::Bfs),
                Kernel::new(KernelKind::Cholesky, 250_000),
            ]),
            LookupTable::paper(),
            SystemConfig::paper_4gbps(),
        )
    }

    #[test]
    fn matrix_matches_map_based_lookup() {
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        for node in dfg.node_ids() {
            for proc in config.proc_ids() {
                assert_eq!(
                    cost.exec_time(node, proc),
                    lookup.exec_time(dfg.node(node), config.kind_of(proc)).ok()
                );
                assert_eq!(
                    cost.runnable(node, proc),
                    lookup
                        .exec_time(dfg.node(node), config.kind_of(proc))
                        .is_ok()
                );
            }
            let bytes = dfg.node(node).bytes(config.bytes_per_element);
            assert_eq!(cost.transfer_time(node), config.link.transfer_time(bytes));
        }
    }

    #[test]
    fn best_proc_matches_table7() {
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        // NW → CPU (112 ms), BFS → FPGA (106 ms), CD → FPGA (0.093 ms).
        let (p, t) = cost.best_proc(NodeId::new(0)).unwrap();
        assert_eq!(config.kind_of(p), ProcKind::Cpu);
        assert_eq!(t, SimDuration::from_ms(112));
        let (p, t) = cost.best_proc(NodeId::new(1)).unwrap();
        assert_eq!(config.kind_of(p), ProcKind::Fpga);
        assert_eq!(t, SimDuration::from_ms(106));
        assert_eq!(
            cost.min_exec(NodeId::new(1)),
            Some(SimDuration::from_ms(106))
        );
        assert_eq!(cost.min_mask(NodeId::new(1)), 0b100);
    }

    #[test]
    fn ties_keep_every_min_instance_in_the_mask() {
        let mut table = LookupTable::from_rows([]);
        table.insert(apt_dfg::lookup::LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::from_ms(5); 3],
        });
        let dfg = build_type1(&[Kernel::new(KernelKind::Bfs, 10)]);
        let config = SystemConfig::paper_4gbps();
        let cost = CostModel::new(&dfg, &table, &config);
        assert_eq!(cost.min_mask(NodeId::new(0)), 0b111);
        // Ties break to the lowest instance id, as everywhere else.
        assert_eq!(cost.best_proc(NodeId::new(0)).unwrap().0, ProcId::new(0));
    }

    #[test]
    fn unrunnable_categories_are_masked_out() {
        let config = SystemConfig::empty(LinkRate::gbps(4))
            .with_proc(ProcKind::Asic)
            .with_proc(ProcKind::Cpu);
        let dfg = build_type1(&[Kernel::canonical(KernelKind::Bfs)]);
        let cost = CostModel::new(&dfg, LookupTable::paper(), &config);
        let n = NodeId::new(0);
        assert!(!cost.runnable(n, ProcId::new(0)));
        assert!(cost.runnable(n, ProcId::new(1)));
        assert_eq!(cost.runnable_mask(n), 0b10);
        assert_eq!(cost.exec_time(n, ProcId::new(0)), None);
    }

    /// Decision-side differential: every derived field of the model
    /// (exec, runnable mask, min exec, min mask, best proc, transfer) must
    /// equal a naive scan through the raw lookup table — the logic the dense
    /// tables replaced — for **every** kernel of the paper's table (plus a
    /// missing-row kernel) on several machine shapes. The trace-level
    /// equivalence suite cannot catch regressions here (both engines would
    /// replay the same wrong decision); this test can.
    #[test]
    fn every_derived_field_matches_a_naive_lookup_scan() {
        let lookup = LookupTable::paper();
        let mut kernels = lookup.all_kernels();
        kernels.push(Kernel::new(KernelKind::MatMul, 123)); // no table row
        let dfg = build_type1(&kernels);
        let systems = [
            SystemConfig::paper_4gbps(),
            SystemConfig::paper_no_transfers(),
            SystemConfig::empty(LinkRate::gbps(8))
                .with_proc(ProcKind::Cpu)
                .with_proc(ProcKind::Cpu)
                .with_proc(ProcKind::Gpu)
                .with_proc(ProcKind::Fpga)
                .with_proc(ProcKind::Fpga)
                .with_proc(ProcKind::Asic),
            SystemConfig::empty(LinkRate::gbps(4))
                .with_proc(ProcKind::Asic)
                .with_proc(ProcKind::Gpu),
            SystemConfig::empty(LinkRate::gbps(4)).with_proc(ProcKind::Fpga),
        ];
        for config in systems {
            let cost = CostModel::new(&dfg, lookup, &config);
            for (node, kernel) in dfg.iter() {
                // Naive per-instance scan, as the seed's call sites did it.
                let naive: Vec<Option<SimDuration>> = config
                    .proc_ids()
                    .map(|p| lookup.exec_time(kernel, config.kind_of(p)).ok())
                    .collect();
                let mut naive_runnable = 0u64;
                let mut naive_min: Option<SimDuration> = None;
                for (i, t) in naive.iter().enumerate() {
                    if let Some(t) = t {
                        naive_runnable |= 1 << i;
                        if naive_min.is_none_or(|m| *t < m) {
                            naive_min = Some(*t);
                        }
                    }
                }
                let naive_mask = naive
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_some() && **t == naive_min)
                    .fold(0u64, |m, (i, _)| m | 1 << i);
                let naive_best = naive
                    .iter()
                    .position(|t| t.is_some() && *t == naive_min)
                    .map(|i| (ProcId::new(i), naive_min.unwrap()));

                for (i, t) in naive.iter().enumerate() {
                    assert_eq!(cost.exec_time(node, ProcId::new(i)), *t, "{kernel}");
                    assert_eq!(cost.runnable(node, ProcId::new(i)), t.is_some());
                }
                assert_eq!(cost.runnable_mask(node), naive_runnable, "{kernel}");
                assert_eq!(cost.min_exec(node), naive_min, "{kernel}");
                assert_eq!(cost.min_mask(node), naive_mask, "{kernel}");
                assert_eq!(cost.best_proc(node), naive_best, "{kernel}");
                let bytes = kernel.bytes(config.bytes_per_element);
                assert_eq!(
                    cost.transfer_time(node),
                    config.link.transfer_time(bytes),
                    "{kernel}"
                );
            }
        }
    }

    #[test]
    fn shared_transfer_in_matches_per_pred_sum() {
        // The engine and the view share CostModel::transfer_in_time; check it
        // against a by-hand sum for mixed residency.
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        // Node 2 depends on 0 (on p0) and 1 (on p2); unfinished preds free.
        let locations = vec![Some(ProcId::new(0)), None, None];
        let n2 = NodeId::new(2);
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(0)),
            SimDuration::ZERO
        );
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(1)),
            cost.transfer_time(NodeId::new(0))
        );
        let locations = vec![Some(ProcId::new(0)), Some(ProcId::new(2)), None];
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(1)),
            cost.transfer_time(NodeId::new(0)) + cost.transfer_time(NodeId::new(1))
        );
    }

    #[test]
    fn idle_stddev_matches_naive_for_every_mask() {
        use apt_base::stats::stddev_population;
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        for node in dfg.node_ids() {
            for mask in 0u64..(1 << config.len()) {
                // The logic SS used inline: ascending-id as_ms_f64 times of
                // runnable processors in the mask.
                let naive: Vec<f64> = config
                    .proc_ids()
                    .filter(|p| mask & (1 << p.index()) != 0)
                    .filter_map(|p| cost.exec_time(node, p))
                    .map(|d| d.as_ms_f64())
                    .collect();
                let expected = stddev_population(&naive);
                // Memoized path (≤ SS_MEMO_MAX_PROCS procs) — queried twice
                // to cover both the fill and the hit.
                assert_eq!(cost.idle_stddev(node, mask), expected);
                assert_eq!(cost.idle_stddev(node, mask), expected);
                // Uncached path must agree bit for bit.
                assert_eq!(cost.compute_idle_stddev(node, mask), expected);
            }
        }
    }

    #[test]
    fn idle_stddev_ignores_out_of_machine_bits() {
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        let n = NodeId::new(0);
        // Bits above the machine size must not change the answer (they can
        // appear in hand-built views over a larger universe).
        assert_eq!(
            cost.idle_stddev(n, 0b111),
            cost.idle_stddev(n, 0b111 | (1 << 20))
        );
    }

    #[test]
    fn idle_stddev_hashed_cache_matches_naive_past_the_dense_cap() {
        use apt_base::stats::stddev_population;
        // An 11-processor machine: beyond SS_MEMO_MAX_PROCS, so the hashed
        // per-node cache is in play.
        let mut config = SystemConfig::empty(LinkRate::gbps(4));
        for _ in 0..4 {
            config = config
                .with_proc(ProcKind::Cpu)
                .with_proc(ProcKind::Gpu)
                .with_proc(ProcKind::Fpga);
        }
        let config = config.with_proc(ProcKind::Asic);
        assert!(config.len() > SS_MEMO_MAX_PROCS);
        let dfg = build_type1(&[
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
        ]);
        let lookup = LookupTable::paper();
        let cost = CostModel::new(&dfg, lookup, &config);
        for node in dfg.node_ids() {
            for mask in [0u64, 0b1, 0b111, 0b101_0101_0101, (1 << 13) - 1, 1 << 12] {
                let naive: Vec<f64> = config
                    .proc_ids()
                    .filter(|p| mask & (1 << p.index()) != 0)
                    .filter_map(|p| cost.exec_time(node, p))
                    .map(|d| d.as_ms_f64())
                    .collect();
                let expected = stddev_population(&naive);
                // Fill, then hit — both must equal the direct computation.
                assert_eq!(cost.idle_stddev(node, mask), expected);
                assert_eq!(cost.idle_stddev(node, mask), expected);
                assert_eq!(cost.compute_idle_stddev(node, mask), expected);
            }
            // Out-of-machine bits canonicalize onto the same cache entry.
            assert_eq!(
                cost.idle_stddev(node, 0b111),
                cost.idle_stddev(node, 0b111 | (1 << 40))
            );
        }
        // The clone carries the cache contents over.
        let cloned = cost.clone();
        assert_eq!(cloned.idle_stddev(NodeId::new(0), 0b111), {
            cost.idle_stddev(NodeId::new(0), 0b111)
        });
    }

    /// Binding slots one at a time (fresh or recycled) reproduces exactly
    /// what the batch constructor computes — the invariant the open-stream
    /// arena relies on.
    #[test]
    fn bind_slot_matches_batch_build() {
        let lookup = LookupTable::paper();
        let mut kernels = lookup.all_kernels();
        kernels.push(Kernel::new(KernelKind::MatMul, 123)); // no table row
        for config in [
            SystemConfig::paper_4gbps(),
            SystemConfig::paper_no_transfers(),
            SystemConfig::empty(LinkRate::gbps(8))
                .with_proc(ProcKind::Asic)
                .with_proc(ProcKind::Fpga)
                .with_proc(ProcKind::Fpga),
        ] {
            let dfg = build_type1(&kernels);
            let batch = CostModel::new(&dfg, lookup, &config);
            let mut incremental = CostModel::for_streaming(&config);
            // Fresh binds, in order.
            for (node, kernel) in dfg.iter() {
                incremental.bind_slot(node, kernel, lookup, &config);
            }
            let assert_same = |inc: &CostModel| {
                for node in dfg.node_ids() {
                    for proc in config.proc_ids() {
                        assert_eq!(inc.exec_ns(node, proc), batch.exec_ns(node, proc));
                    }
                    assert_eq!(inc.runnable_mask(node), batch.runnable_mask(node));
                    assert_eq!(inc.min_exec(node), batch.min_exec(node));
                    assert_eq!(inc.min_mask(node), batch.min_mask(node));
                    assert_eq!(inc.best_proc(node), batch.best_proc(node));
                    assert_eq!(inc.transfer_time(node), batch.transfer_time(node));
                    assert_eq!(inc.idle_stddev(node, 0b11), batch.idle_stddev(node, 0b11));
                }
            };
            assert_same(&incremental);
            // Recycle every slot with a rotated kernel, then restore: the
            // stddev memo must follow the rebind, not the original kernel.
            for (node, _) in dfg.iter() {
                let other = kernels[(node.index() + 1) % kernels.len()];
                incremental.bind_slot(node, &other, lookup, &config);
                let _ = incremental.idle_stddev(node, 0b111); // warm the memo
            }
            for (node, kernel) in dfg.iter() {
                incremental.bind_slot(node, kernel, lookup, &config);
            }
            assert_same(&incremental);
        }
    }

    /// Classes are lookup rows: equal `(kind, size)` share one class whose
    /// id is the row's index, a kernel without a row gets one id after the
    /// table's rows (shared by every later kernel of that `(kind, size)`)
    /// with an empty runnable mask, and recycling a slot restamps it.
    #[test]
    fn classes_intern_lookup_rows() {
        let lookup = LookupTable::paper();
        let rows = lookup.rows().len();
        assert_eq!(rows, 25, "the paper table has 25 rows");
        let missing = Kernel::new(KernelKind::MatMul, 123);
        let other_missing = Kernel::new(KernelKind::Bfs, 5);
        let kernels = [
            Kernel::canonical(KernelKind::Bfs),
            missing,
            Kernel::new(KernelKind::Cholesky, 250_000),
            Kernel::canonical(KernelKind::Bfs),
            missing,
            other_missing,
        ];
        let dfg = build_type1(&kernels);
        let config = SystemConfig::paper_4gbps();
        for cost in [CostModel::new(&dfg, lookup, &config), {
            let mut inc = CostModel::for_streaming(&config);
            for (node, kernel) in dfg.iter() {
                inc.bind_slot(node, kernel, lookup, &config);
            }
            inc
        }] {
            let class = |i: usize| cost.class_of(NodeId::new(i));
            let bfs = Kernel::canonical(KernelKind::Bfs);
            assert_eq!(
                class(0) as usize,
                lookup.row_index(bfs.kind, bfs.data_size).unwrap()
            );
            assert_eq!(class(0), class(3), "equal rows, equal class");
            assert_ne!(class(0), class(2));
            assert_eq!(class(1) as usize, rows, "first unlisted kernel");
            assert_eq!(class(1), class(4));
            assert_eq!(class(5) as usize, rows + 1);
            assert_eq!(cost.class_count(), rows + 2);
            assert_eq!(cost.class_runnable_mask(class(1)), 0);
            assert_eq!(cost.class_min_ns(class(1)), UNRUNNABLE);
            assert_eq!(cost.runnable_mask(NodeId::new(1)), 0);
        }
        // Recycling slot 0 with the Cholesky kernel restamps it.
        let mut inc = CostModel::for_streaming(&config);
        for (node, kernel) in dfg.iter() {
            inc.bind_slot(node, kernel, lookup, &config);
        }
        inc.bind_slot(NodeId::new(0), &kernels[2], lookup, &config);
        assert_eq!(inc.class_of(NodeId::new(0)), inc.class_of(NodeId::new(2)));
        assert_eq!(inc.min_exec(NodeId::new(0)), inc.min_exec(NodeId::new(2)));
        inc.bind_slot(NodeId::new(0), &missing, lookup, &config);
        assert_eq!(inc.class_of(NodeId::new(0)), inc.class_of(NodeId::new(1)));
        assert_eq!(inc.class_count(), rows + 2, "no new class for a known miss");
    }

    #[test]
    fn pair_tables_match_the_config_per_pair_times() {
        use crate::topology::Topology;
        let (dfg, lookup, _) = fixture();
        let clustered = SystemConfig::paper_4gbps().with_topology(Topology::clustered(
            3,
            2,
            LinkRate::gbps(8),
            LinkRate::gbps(1),
        ));
        let cost = CostModel::new(&dfg, lookup, &clustered);
        for (node, kernel) in dfg.iter() {
            let bytes = kernel.bytes(clustered.bytes_per_element);
            for src in clustered.proc_ids() {
                for dst in clustered.proc_ids() {
                    assert_eq!(
                        cost.pair_transfer_time(node, src, dst),
                        clustered.pair_transfer_time(bytes, src, dst),
                        "{kernel} {src}->{dst}"
                    );
                }
            }
        }
        // transfer_in_time sums the pair entries of remote predecessors.
        let locations = vec![Some(ProcId::new(0)), Some(ProcId::new(2)), None];
        let n2 = NodeId::new(2);
        for dst in clustered.proc_ids() {
            let expected: SimDuration = dfg
                .preds(n2)
                .iter()
                .filter_map(|&p| locations[p.index()].map(|loc| (p, loc)))
                .map(|(p, loc)| cost.pair_transfer_time(p, loc, dst))
                .sum();
            assert_eq!(cost.transfer_in_time(&dfg, &locations, n2, dst), expected);
        }
        // On a uniform machine the pair accessor reads the scalar table.
        let uniform = SystemConfig::paper_4gbps();
        let ucost = CostModel::new(&dfg, lookup, &uniform);
        for node in dfg.node_ids() {
            assert_eq!(
                ucost.pair_transfer_time(node, ProcId::new(0), ProcId::new(1)),
                ucost.transfer_time(node)
            );
            assert_eq!(
                ucost.pair_transfer_time(node, ProcId::new(1), ProcId::new(1)),
                SimDuration::ZERO
            );
        }
    }

    #[test]
    fn bind_slot_matches_batch_build_under_a_nonuniform_topology() {
        use crate::topology::Topology;
        let lookup = LookupTable::paper();
        let kernels = lookup.all_kernels();
        let config = SystemConfig::paper_4gbps().with_topology(Topology::star(
            3,
            ProcId::new(0),
            LinkRate::gbps(2),
        ));
        let dfg = build_type1(&kernels);
        let batch = CostModel::new(&dfg, lookup, &config);
        let mut incremental = CostModel::for_streaming(&config);
        for (node, kernel) in dfg.iter() {
            incremental.bind_slot(node, kernel, lookup, &config);
        }
        for node in dfg.node_ids() {
            assert_eq!(incremental.transfer_time(node), batch.transfer_time(node));
            for src in config.proc_ids() {
                for dst in config.proc_ids() {
                    assert_eq!(
                        incremental.pair_transfer_time(node, src, dst),
                        batch.pair_transfer_time(node, src, dst)
                    );
                }
            }
        }
        // Recycling a slot rewrites its whole pair row.
        let other = kernels[1];
        incremental.bind_slot(NodeId::new(0), &other, lookup, &config);
        let bytes = other.bytes(config.bytes_per_element);
        assert_eq!(
            incremental.pair_transfer_time(NodeId::new(0), ProcId::new(1), ProcId::new(2)),
            config.pair_transfer_time(bytes, ProcId::new(1), ProcId::new(2))
        );
    }

    #[test]
    fn zero_bytes_per_element_disables_transfers() {
        let (dfg, lookup, _) = fixture();
        let config = SystemConfig::paper_no_transfers();
        let cost = CostModel::new(&dfg, lookup, &config);
        for node in dfg.node_ids() {
            assert_eq!(cost.transfer_time(node), SimDuration::ZERO);
        }
    }
}
