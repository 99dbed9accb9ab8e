//! The simulated heterogeneous machine.
//!
//! "The simulated heterogeneous system comprises of commercial-off-the-shelf
//! CPUs, GPUs and FPGAs and each communication link is based on PCI Express.
//! The number of processors of any type are customizable in the software and
//! so is the communication bandwidth" (§3.2). The paper's evaluation uses
//! one CPU, one GPU and one FPGA.

use crate::cost::MAX_PROCS;
use crate::link::LinkRate;
use crate::topology::{LinkContention, Topology};
use apt_base::{BaseError, ProcId, ProcKind, SimDuration};
use serde::{Deserialize, Serialize};

/// One processor instance in the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcSpec {
    /// Category (keys the lookup table).
    pub kind: ProcKind,
    /// Display name ("CPU0", "GPU0", ...).
    pub name: String,
}

impl ProcSpec {
    /// A processor of `kind` named `name`.
    pub fn new(kind: ProcKind, name: impl Into<String>) -> Self {
        ProcSpec {
            kind,
            name: name.into(),
        }
    }
}

/// Full description of a simulated system: processor instances, the
/// interconnect (one [`Topology`]: a single rate or a per-pair matrix), and
/// the bytes-per-element convention used to turn the lookup table's element
/// counts into transfer volumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    procs: Vec<ProcSpec>,
    /// Bytes moved per data element when a kernel's input crosses a link.
    /// 4 (f32) reproduces the paper's setting; 0 disables transfers entirely
    /// (used by the Figure-5 walk-through).
    pub bytes_per_element: u64,
    /// The interconnect; set with [`SystemConfig::with_link`] or
    /// [`SystemConfig::with_topology`], checked by
    /// [`SystemConfig::validate`].
    topology: Topology,
}

impl SystemConfig {
    /// The paper's evaluated system: 1 CPU + 1 GPU + 1 FPGA at 4 GB/s
    /// (PCIe 2.0 ×8), 4 bytes per element.
    pub fn paper_4gbps() -> Self {
        SystemConfig::cpu_gpu_fpga(LinkRate::PCIE2_X8)
    }

    /// The paper's faster variant: same processors at 8 GB/s (PCIe 2.0 ×16).
    pub fn paper_8gbps() -> Self {
        SystemConfig::cpu_gpu_fpga(LinkRate::PCIE2_X16)
    }

    /// The Figure-5 walk-through system: 1 CPU + 1 GPU + 1 FPGA with data
    /// transfers disabled ("to simplify the example, we do not consider
    /// transfer times").
    pub fn paper_no_transfers() -> Self {
        let mut cfg = SystemConfig::cpu_gpu_fpga(LinkRate::PCIE2_X8);
        cfg.bytes_per_element = 0;
        cfg
    }

    /// One processor of each evaluated category, every pair at `link`.
    pub fn cpu_gpu_fpga(link: LinkRate) -> Self {
        SystemConfig::empty(link)
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Gpu)
            .with_proc(ProcKind::Fpga)
    }

    /// An empty system, every pair at `link`, to be populated with
    /// [`SystemConfig::with_proc`].
    pub fn empty(link: LinkRate) -> Self {
        SystemConfig {
            procs: Vec::new(),
            bytes_per_element: 4,
            topology: Topology::uniform(link),
        }
    }

    /// Builder: append a processor instance.
    pub fn with_proc(mut self, kind: ProcKind) -> Self {
        let n = self.procs.iter().filter(|p| p.kind == kind).count();
        self.procs
            .push(ProcSpec::new(kind, format!("{}{}", kind.label(), n)));
        self
    }

    /// Builder: set the bytes-per-element convention.
    pub fn with_bytes_per_element(mut self, bytes: u64) -> Self {
        self.bytes_per_element = bytes;
        self
    }

    /// Builder: one rate between every pair ([`Topology::uniform`]),
    /// replacing any interconnect set before.
    pub fn with_link(self, link: LinkRate) -> Self {
        self.with_topology(Topology::uniform(link))
    }

    /// Builder: set the interconnect, replacing any set before. Size
    /// agreement with the processor set is checked by
    /// [`SystemConfig::validate`], so processors may be added after it.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The interconnect.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The rate of directed link `(src, dst)`.
    pub fn pair_rate(&self, src: ProcId, dst: ProcId) -> LinkRate {
        self.topology.rate(src, dst)
    }

    /// Time to move `bytes` from `src` to `dst`; zero for same-processor
    /// moves.
    pub fn pair_transfer_time(&self, bytes: u64, src: ProcId, dst: ProcId) -> SimDuration {
        self.topology.transfer_time(bytes, src, dst)
    }

    /// The transfer arbitration mode ([`LinkContention::Off`] unless the
    /// topology enables per-link clocks).
    pub fn contention(&self) -> LinkContention {
        self.topology.contention()
    }

    /// Mean transfer time of `bytes` over the machine's remote pairs, in
    /// fractional milliseconds — the static rankers' average communication
    /// cost `c̄_ij` (see [`Topology::mean_pair_transfer_ms`]).
    pub fn mean_pair_transfer_ms(&self, bytes: u64) -> f64 {
        self.topology.mean_pair_transfer_ms(bytes)
    }

    /// The processor instances, index = [`ProcId`].
    pub fn procs(&self) -> &[ProcSpec] {
        &self.procs
    }

    /// Number of processor instances (`n_p` in §2.5.1).
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if the system has no processors (always invalid to simulate).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The spec of one processor.
    pub fn proc(&self, id: ProcId) -> &ProcSpec {
        &self.procs[id.index()]
    }

    /// The category of one processor.
    pub fn kind_of(&self, id: ProcId) -> ProcKind {
        self.procs[id.index()].kind
    }

    /// Ids of all processors, in index order.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.procs.len()).map(ProcId::new)
    }

    /// Structural validation: a simulatable system needs between one and
    /// [`MAX_PROCS`] processors, at least one processor with lookup-table
    /// coverage (i.e. not ASIC-only), and an interconnect that fits it
    /// ([`Topology::validate`]).
    pub fn validate(&self) -> Result<(), BaseError> {
        if self.procs.is_empty() {
            return Err(BaseError::InvalidSystem {
                reason: "system has no processors".into(),
            });
        }
        if self.procs.len() > MAX_PROCS {
            return Err(BaseError::InvalidSystem {
                reason: format!(
                    "system has {} processors, at most {MAX_PROCS} are supported",
                    self.procs.len()
                ),
            });
        }
        if !self.procs.iter().any(|p| p.kind.table_column().is_some()) {
            return Err(BaseError::InvalidSystem {
                reason: "no processor has measured execution times".into(),
            });
        }
        self.topology.validate(self.procs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_shape() {
        let s = SystemConfig::paper_4gbps();
        assert_eq!(s.len(), 3);
        assert_eq!(s.kind_of(ProcId::new(0)), ProcKind::Cpu);
        assert_eq!(s.kind_of(ProcId::new(1)), ProcKind::Gpu);
        assert_eq!(s.kind_of(ProcId::new(2)), ProcKind::Fpga);
        assert_eq!(s.topology(), &Topology::uniform(LinkRate::PCIE2_X8));
        assert_eq!(s.bytes_per_element, 4);
        s.validate().unwrap();
    }

    #[test]
    fn no_transfer_variant_zeroes_bytes() {
        let s = SystemConfig::paper_no_transfers();
        assert_eq!(s.bytes_per_element, 0);
        s.validate().unwrap();
    }

    #[test]
    fn builder_names_instances_per_kind() {
        let s = SystemConfig::empty(LinkRate::gbps(4))
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Cpu)
            .with_proc(ProcKind::Gpu);
        assert_eq!(s.proc(ProcId::new(0)).name, "CPU0");
        assert_eq!(s.proc(ProcId::new(1)).name, "CPU1");
        assert_eq!(s.proc(ProcId::new(2)).name, "GPU0");
        assert_eq!(s.proc(ProcId::new(1)).kind, ProcKind::Cpu);
    }

    #[test]
    fn validation_catches_bad_systems() {
        let empty = SystemConfig::empty(LinkRate::gbps(4));
        assert!(matches!(
            empty.validate(),
            Err(BaseError::InvalidSystem { .. })
        ));
        let asic_only = SystemConfig::empty(LinkRate::gbps(4)).with_proc(ProcKind::Asic);
        assert!(matches!(
            asic_only.validate(),
            Err(BaseError::InvalidSystem { .. })
        ));
        let zero_link = SystemConfig::cpu_gpu_fpga(LinkRate { bytes_per_sec: 0 });
        assert!(zero_link.validate().is_err());
    }

    #[test]
    fn validation_admits_at_most_max_procs() {
        let mut s = SystemConfig::empty(LinkRate::gbps(4));
        for _ in 0..MAX_PROCS {
            s = s.with_proc(ProcKind::Gpu);
        }
        assert_eq!(s.validate(), Ok(()));
        let over = s.with_proc(ProcKind::Fpga);
        match over.validate() {
            Err(BaseError::InvalidSystem { reason }) => {
                assert!(reason.contains("65 processors"), "{reason}")
            }
            other => panic!("65 processors validated as {other:?}"),
        }
    }

    #[test]
    fn topology_overrides_the_uniform_link() {
        let plain = SystemConfig::paper_4gbps();
        assert_eq!(
            plain.pair_rate(ProcId::new(0), ProcId::new(2)),
            LinkRate::PCIE2_X8
        );
        assert_eq!(plain.contention(), LinkContention::Off);
        assert_eq!(
            plain.pair_transfer_time(4_000, ProcId::new(1), ProcId::new(1)),
            SimDuration::ZERO
        );

        // Clustered matrix: pair-resolved.
        let clustered = SystemConfig::paper_4gbps().with_topology(Topology::clustered(
            3,
            2,
            LinkRate::gbps(8),
            LinkRate::gbps(1),
        ));
        assert_eq!(
            clustered.pair_rate(ProcId::new(0), ProcId::new(1)),
            LinkRate::gbps(8)
        );
        assert_eq!(
            clustered.pair_rate(ProcId::new(0), ProcId::new(2)),
            LinkRate::gbps(1)
        );
        clustered.validate().unwrap();

        // The one-rate mean is exactly the link time; a matrix averages.
        let bytes = 64_000_000u64;
        assert_eq!(
            plain.mean_pair_transfer_ms(bytes),
            LinkRate::PCIE2_X8.transfer_time(bytes).as_ms_f64()
        );
        assert!(clustered.mean_pair_transfer_ms(bytes) > plain.mean_pair_transfer_ms(bytes));
    }

    #[test]
    fn the_last_interconnect_builder_wins() {
        let matrix = Topology::clustered(3, 2, LinkRate::gbps(8), LinkRate::gbps(1))
            .with_contention(LinkContention::PerLink);
        // A link after a topology replaces it, contention included.
        let link_last = SystemConfig::paper_4gbps()
            .with_topology(matrix.clone())
            .with_link(LinkRate::PCIE2_X16);
        assert_eq!(link_last, SystemConfig::paper_8gbps());
        assert_eq!(link_last.contention(), LinkContention::Off);
        // A topology after a link replaces it.
        let topology_last = SystemConfig::paper_8gbps()
            .with_link(LinkRate::gbps(2))
            .with_topology(matrix.clone());
        assert_eq!(topology_last.topology(), &matrix);
        assert_eq!(
            SystemConfig::paper_4gbps().with_topology(Topology::uniform(LinkRate::PCIE2_X16)),
            SystemConfig::paper_8gbps()
        );
    }

    #[test]
    fn one_rate_covers_processors_added_after_it() {
        let s = SystemConfig::empty(LinkRate::gbps(2))
            .with_link(LinkRate::gbps(3))
            .with_proc(ProcKind::Cpu);
        let s = (0..MAX_PROCS - 1).fold(s, |s, _| s.with_proc(ProcKind::Gpu));
        assert_eq!(s.validate(), Ok(()));
        let last = ProcId::new(MAX_PROCS - 1);
        assert_eq!(s.pair_rate(ProcId::new(0), last), LinkRate::gbps(3));
        assert_eq!(s.pair_rate(last, ProcId::new(1)), LinkRate::gbps(3));
        let one = SystemConfig::empty(LinkRate::gbps(3)).with_proc(ProcKind::Fpga);
        assert_eq!(one.validate(), Ok(()));
        let zero = one.with_link(LinkRate { bytes_per_sec: 0 });
        assert!(matches!(
            zero.validate(),
            Err(BaseError::InvalidSystem { .. })
        ));
    }

    #[test]
    fn topology_size_mismatch_fails_validation() {
        let s = SystemConfig::paper_4gbps()
            .with_topology(Topology::from_fn(5, |_, _| LinkRate::PCIE2_X8));
        assert!(matches!(s.validate(), Err(BaseError::InvalidSystem { .. })));
    }

    #[test]
    fn eight_gbps_doubles_the_link() {
        let a = SystemConfig::paper_4gbps();
        let b = SystemConfig::paper_8gbps();
        let (p, q) = (ProcId::new(0), ProcId::new(1));
        assert_eq!(
            b.pair_rate(p, q).bytes_per_sec,
            2 * a.pair_rate(p, q).bytes_per_sec
        );
        assert_eq!(a.procs(), b.procs());
    }
}
