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
//! Every cost depends only on a kernel's lookup-table row and a processor
//! pair, so it is stored once per **cost class**: one `(kind, data_size)`
//! row, interned under a dense [`ClassId`]. A class's id is its row's index
//! in the [`LookupTable`] (25 classes for the paper table); a kernel without
//! a row gets an id after the table's rows on first sight.
//!
//! * Per class: the instance-level execution row (the lookup columns
//!   expanded over the machine's devices; [`UNRUNNABLE`] where a category
//!   has no entry), the runnable-processor bitset, the
//!   minimum-execution-time instance set (`p_min` of §3.1, with its tie
//!   mask), and one `nprocs × nprocs` output transfer row (zero diagonal)
//!   under the machine's interconnect, uniform or not.
//! * Per node: the class id.
//!
//! Rebinding an open-stream slot ([`CostModel::bind_slot`]) therefore only
//! stamps a class id, and policies can key their own per-class tables on
//! [`CostModel::class_of`] (APT's admissible-processor screen).
//!
//! Hot accessors are branch-light array reads; every former
//! `BTreeMap`-lookup and allocation on the decision path routes through
//! here. See the "Engine architecture & cost model" notes in the crate docs.

use crate::link::LinkRate;
use crate::system::SystemConfig;
use apt_base::{ProcId, ProcKind, SimDuration};
use apt_dfg::lookup::LookupRow;
use apt_dfg::{Kernel, KernelDag, KernelKind, LookupTable, NodeId};
use std::collections::BTreeMap;

/// Sentinel for "kernel cannot run on this processor instance".
pub const UNRUNNABLE: u64 = u64::MAX;

/// Largest supported machine size (runnable sets are single-word bitsets).
pub const MAX_PROCS: usize = 64;

/// Dense id of one cost class: one `(kind, data_size)` lookup row (module
/// docs). Ids below the table's row count are row indices.
pub type ClassId = u32;

/// Precomputed decision-cost tables for one simulation run.
#[derive(Debug, Clone)]
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
    /// Flattened `class × src × dst` output transfer times in ns (what a
    /// *successor* on `dst` pays when the output is resident on `src`);
    /// the diagonal is zero.
    pair_ns: Vec<u64>,
    /// Flattened `src × dst` link rates of the machine's interconnect,
    /// kept to fill the transfer row of a class interned later.
    rates: Vec<LinkRate>,
    /// Bytes moved per data element ([`SystemConfig::bytes_per_element`]).
    bytes_per_element: u64,
    /// Per-instance category, cached densely (avoids chasing the
    /// `ProcSpec` vec and its name strings on hot reads).
    kinds: Vec<ProcKind>,
}

impl CostModel {
    /// Precompute the model. O(nodes + classes × procs²) time and memory;
    /// called once per run, amortized over every decision edge of the
    /// simulation.
    ///
    /// Panics if the system has more than [`MAX_PROCS`] processors (the
    /// runnable sets are single-word bitsets; no evaluated configuration
    /// comes within an order of magnitude of the limit).
    pub fn new(dfg: &KernelDag, lookup: &LookupTable, config: &SystemConfig) -> CostModel {
        let mut model = CostModel::for_streaming(config);
        model.class.reserve_exact(dfg.len());
        for (node, kernel) in dfg.iter() {
            model.bind_slot(node, kernel, lookup);
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
        let ids = || config.proc_ids();
        // Sized up front: a `flat_map` reports no lower bound, so `collect`
        // would grow the `nprocs²` table by doubling.
        let mut rates = Vec::with_capacity(nprocs * nprocs);
        for s in ids() {
            rates.extend(ids().map(|d| config.pair_rate(s, d)));
        }
        CostModel {
            nprocs,
            class: Vec::new(),
            table_rows: None,
            unlisted: BTreeMap::new(),
            exec_ns: Vec::new(),
            runnable: Vec::new(),
            min_ns: Vec::new(),
            min_mask: Vec::new(),
            pair_ns: Vec::new(),
            rates,
            bytes_per_element: config.bytes_per_element,
            kinds: ids().map(|p| config.kind_of(p)).collect(),
        }
    }

    /// The class of `kernel` under `lookup`: its row index when the table
    /// has a row, else an id after the table's rows, interned on first
    /// sight. The first call interns every table row at once. One model is
    /// bound against one table for its whole life.
    fn intern(&mut self, kernel: &Kernel, lookup: &LookupTable) -> ClassId {
        if self.table_rows.is_none() {
            let rows = lookup.rows().len();
            self.table_rows = Some(rows);
            // One allocation per table: a closed run builds a model per
            // simulation, and growing them push by push shows up there.
            self.exec_ns.reserve(rows * self.nprocs);
            self.pair_ns.reserve(rows * self.nprocs * self.nprocs);
            self.runnable.reserve(rows);
            self.min_ns.reserve(rows);
            self.min_mask.reserve(rows);
            for row in lookup.rows() {
                self.push_class(Some(row), row.data_size);
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
            self.push_class(None, kernel.data_size);
        }
        class
    }

    /// Append one class built from a lookup row (`None`: no row, so every
    /// instance is unrunnable) whose kernels move `data_size` elements.
    fn push_class(&mut self, row: Option<&LookupRow>, data_size: u64) {
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
        let bytes = data_size * self.bytes_per_element;
        for s in 0..self.nprocs {
            for d in 0..self.nprocs {
                let ns = if s == d {
                    0
                } else {
                    self.rates[s * self.nprocs + d].transfer_time(bytes).as_ns()
                };
                self.pair_ns.push(ns);
            }
        }
    }

    /// Bind node `i` to `kernel` — growing the per-node table by one entry
    /// when `node` is the next fresh slot, overwriting when it recycles a
    /// retired one. The slot is stamped with the kernel's class (resolved
    /// by the table's binary search; a kernel without a row is interned on
    /// first sight). [`CostModel::new`] binds every node this way.
    pub fn bind_slot(&mut self, node: NodeId, kernel: &Kernel, lookup: &LookupTable) {
        let i = node.index();
        assert!(i <= self.class.len(), "slots bind densely");
        let class = self.intern(kernel, lookup);
        if i == self.class.len() {
            self.class.push(class);
        } else {
            self.class[i] = class;
        }
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

    /// The [`CostModel::min_mask`] of every class, indexed by class.
    #[inline]
    pub fn class_min_masks(&self) -> &[u64] {
        &self.min_mask
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

    /// Output transfer time of `node` from `src` to `dst` under the
    /// machine's interconnect; zero for same-processor moves. One read of
    /// the node's class transfer row.
    #[inline]
    pub fn pair_transfer_time(&self, node: NodeId, src: ProcId, dst: ProcId) -> SimDuration {
        SimDuration::from_ns(self.pair_entry(node, src, dst))
    }

    #[inline]
    fn pair_entry(&self, node: NodeId, src: ProcId, dst: ProcId) -> u64 {
        let np = self.nprocs;
        self.pair_ns[(self.class_of(node) as usize * np + src.index()) * np + dst.index()]
    }

    /// Input-transfer time if `node` were started on `proc` given the
    /// current residency of finished predecessors: the sum of precomputed
    /// output transfer times of predecessors resident on *other* processors
    /// (the Eq. 6 convention `c_ij = 0` when `p_w = p_k`, which the zero
    /// diagonal of each transfer row encodes). Unfinished predecessors
    /// (`None` location) contribute nothing; callers that require every
    /// input resident assert that themselves. This is the one shared
    /// implementation behind both the engine's start bookkeeping and
    /// `SimView::transfer_in_time`.
    pub fn transfer_in_time(
        &self,
        dfg: &KernelDag,
        locations: &[Option<ProcId>],
        node: NodeId,
        proc: ProcId,
    ) -> SimDuration {
        let mut total_ns = 0u64;
        for &pred in dfg.preds(node) {
            if let Some(loc) = locations[pred.index()] {
                total_ns += self.pair_entry(pred, loc, proc);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
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

    /// Every transfer entry of `cost` equals the config's own per-pair
    /// arithmetic for `node`'s output.
    fn assert_pair_rows_match(cost: &CostModel, dfg: &KernelDag, config: &SystemConfig) {
        for (node, kernel) in dfg.iter() {
            let bytes = kernel.bytes(config.bytes_per_element);
            for src in config.proc_ids() {
                for dst in config.proc_ids() {
                    assert_eq!(
                        cost.pair_transfer_time(node, src, dst),
                        config.pair_transfer_time(bytes, src, dst),
                        "{kernel} {src}->{dst}"
                    );
                }
            }
        }
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
            assert_eq!(
                cost.pair_transfer_time(node, ProcId::new(0), ProcId::new(1)),
                config
                    .pair_rate(ProcId::new(0), ProcId::new(1))
                    .transfer_time(bytes)
            );
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
    /// (exec, runnable mask, min exec, min mask, best proc, per-pair
    /// transfer) must equal a naive scan through the raw lookup table and
    /// the config's link arithmetic — the logic the dense tables replaced —
    /// for **every** kernel of the paper's table (plus a missing-row
    /// kernel) on several machine shapes, uniform and not. The trace-level
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
            SystemConfig::paper_4gbps().with_topology(Topology::star(
                3,
                ProcId::new(0),
                LinkRate::gbps(2),
            )),
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
            }
            assert_pair_rows_match(&cost, &dfg, &config);
        }
    }

    #[test]
    fn shared_transfer_in_matches_per_pred_sum() {
        // The engine and the view share CostModel::transfer_in_time; check it
        // against a by-hand sum for mixed residency.
        let (dfg, lookup, config) = fixture();
        let cost = CostModel::new(&dfg, lookup, &config);
        let link =
            |i: usize| cost.pair_transfer_time(NodeId::new(i), ProcId::new(0), ProcId::new(1));
        // Node 2 depends on 0 (on p0) and 1 (on p2); unfinished preds free.
        let locations = vec![Some(ProcId::new(0)), None, None];
        let n2 = NodeId::new(2);
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(0)),
            SimDuration::ZERO
        );
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(1)),
            link(0)
        );
        let locations = vec![Some(ProcId::new(0)), Some(ProcId::new(2)), None];
        assert_eq!(
            cost.transfer_in_time(&dfg, &locations, n2, ProcId::new(1)),
            link(0) + link(1)
        );
    }

    /// Binding slots one at a time (fresh or recycled) reproduces exactly
    /// what the batch constructor computes — the invariant the open-stream
    /// arena relies on — on uniform and non-uniform interconnects alike.
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
            SystemConfig::paper_4gbps().with_topology(Topology::star(
                3,
                ProcId::new(0),
                LinkRate::gbps(2),
            )),
        ] {
            let dfg = build_type1(&kernels);
            let batch = CostModel::new(&dfg, lookup, &config);
            let mut incremental = CostModel::for_streaming(&config);
            // Fresh binds, in order.
            for (node, kernel) in dfg.iter() {
                incremental.bind_slot(node, kernel, lookup);
            }
            let assert_same = |inc: &CostModel| {
                for node in dfg.node_ids() {
                    assert_eq!(inc.class_of(node), batch.class_of(node));
                    for src in config.proc_ids() {
                        assert_eq!(inc.exec_ns(node, src), batch.exec_ns(node, src));
                        for dst in config.proc_ids() {
                            assert_eq!(
                                inc.pair_transfer_time(node, src, dst),
                                batch.pair_transfer_time(node, src, dst)
                            );
                        }
                    }
                    assert_eq!(inc.runnable_mask(node), batch.runnable_mask(node));
                    assert_eq!(inc.min_exec(node), batch.min_exec(node));
                    assert_eq!(inc.min_mask(node), batch.min_mask(node));
                    assert_eq!(inc.best_proc(node), batch.best_proc(node));
                }
            };
            assert_same(&incremental);
            // Recycle every slot with a rotated kernel: each slot's costs
            // follow the rebind. Then restore the originals.
            let rotated = build_type1(
                &(0..kernels.len())
                    .map(|i| kernels[(i + 1) % kernels.len()])
                    .collect::<Vec<_>>(),
            );
            for (node, other) in rotated.iter() {
                incremental.bind_slot(node, other, lookup);
            }
            assert_pair_rows_match(&incremental, &rotated, &config);
            for (node, kernel) in dfg.iter() {
                incremental.bind_slot(node, kernel, lookup);
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
        let cost = CostModel::new(&dfg, lookup, &config);
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
        // Recycling slot 0 with the Cholesky kernel restamps it.
        let mut inc = cost.clone();
        inc.bind_slot(NodeId::new(0), &kernels[2], lookup);
        assert_eq!(inc.class_of(NodeId::new(0)), inc.class_of(NodeId::new(2)));
        assert_eq!(inc.min_exec(NodeId::new(0)), inc.min_exec(NodeId::new(2)));
        inc.bind_slot(NodeId::new(0), &missing, lookup);
        assert_eq!(inc.class_of(NodeId::new(0)), inc.class_of(NodeId::new(1)));
        assert_eq!(inc.class_count(), rows + 2, "no new class for a known miss");
    }

    #[test]
    fn pair_tables_match_the_config_per_pair_times() {
        let (dfg, lookup, _) = fixture();
        let clustered = SystemConfig::paper_4gbps().with_topology(Topology::clustered(
            3,
            2,
            LinkRate::gbps(8),
            LinkRate::gbps(1),
        ));
        let cost = CostModel::new(&dfg, lookup, &clustered);
        assert_pair_rows_match(&cost, &dfg, &clustered);
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
    }

    #[test]
    fn zero_bytes_per_element_disables_transfers() {
        let (dfg, lookup, _) = fixture();
        let config = SystemConfig::paper_no_transfers();
        let cost = CostModel::new(&dfg, lookup, &config);
        for node in dfg.node_ids() {
            for src in config.proc_ids() {
                for dst in config.proc_ids() {
                    assert_eq!(cost.pair_transfer_time(node, src, dst), SimDuration::ZERO);
                }
            }
        }
    }
}
