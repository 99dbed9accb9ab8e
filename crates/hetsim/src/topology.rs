//! The machine's interconnect.
//!
//! The paper fixes "the data transfer rates between all processors to be
//! the same" (§3.2). Real heterogeneous nodes are not like that: NUMA
//! clusters keep fast links inside a socket and slow ones across it, and
//! PCIe trees route every device↔device move through a host bridge. A
//! [`Topology`] — the one interconnect every [`crate::SystemConfig`]
//! holds — therefore takes one of two forms:
//!
//! * **One rate** ([`Topology::uniform`]): §3.2's model. Every pair moves
//!   data at the same [`LinkRate`], whatever the machine's size, so
//!   processors added after the rate was set share it.
//! * **A matrix** ([`Topology::from_fn`] and the presets below): a dense
//!   per-(source, destination) rate matrix for exactly `nprocs`
//!   processors, so the transfer term APT's threshold α trades against can
//!   be stressed by a machine whose interconnect has *structure*. The
//!   equivalence suites pin a matrix whose rates are all equal
//!   byte-identical to the one-rate form, although the rankers' mean
//!   transfer time is averaged over its pairs instead of read off the one
//!   rate.
//!
//! ## Model
//!
//! * A directed link `(src, dst)` has its own [`LinkRate`]; moving `b`
//!   bytes across it takes `ceil(b / rate)` nanoseconds — the exact
//!   integer arithmetic of [`LinkRate::transfer_time`], per pair.
//!   Same-processor moves remain free (the Eq. 6 convention `c_ij = 0`
//!   when `p_w = p_k`).
//! * [`Topology::validate`] is the one check: the one rate must be
//!   positive; a matrix must match the machine's size and carry no
//!   zero-rate off-diagonal link.
//!
//! ## Presets
//!
//! * [`Topology::clustered`] — NUMA-ish: processors are grouped into
//!   consecutive clusters of `cluster_size`; intra-cluster pairs get the
//!   fast rate, inter-cluster pairs the slow one.
//! * [`Topology::star`] — host-staged PCIe tree: every device exchanges
//!   data with the root at the edge rate, and device↔device moves hop
//!   through the root, modeled as the effective two-hop rate (half the
//!   edge rate for equal hops — `b/r + b/r = 2b/r`). The root is the
//!   bottleneck every cross-device byte pays for.
//!
//! ## Contention
//!
//! By default ([`LinkContention::Off`]) the engine keeps the seed's
//! transfer semantics: a starting kernel's input transfers serialize on
//! the consumer (their durations sum), whatever the topology. With
//! [`LinkContention::PerLink`] the engine instead models each directed
//! link as a half-duplex channel with its own busy-until clock: a kernel's
//! input transfers proceed **concurrently across distinct links**, while
//! transfers on the *same* directed link serialize behind the clock, and
//! execution starts once the last input has landed. Policies keep seeing
//! the contention-free estimate through [`crate::SimView::transfer_in_time`]
//! — link occupancy is engine state a dynamic policy cannot observe ahead
//! of time, exactly like queueing delay behind other jobs.
//!
//! Contention is keyed on the matrix's *logical* `(src, dst)` pairs, not
//! on routed physical edges: presets that fold multi-hop paths into one
//! effective rate (the [`Topology::star`] two-hop) do not serialize the
//! shared segments those paths really traverse — see the star docs.
//!
//! ## Failure model
//!
//! The interconnect can also *degrade*: an armed
//! [`crate::FaultPlan`] with a [`crate::LinkDegradeSpec`] overlays
//! episodic slowdowns on whatever rates the topology supplies. During an
//! episode every affected transfer time is multiplied by the spec's
//! `slowdown` factor — either on one directed `(src, dst)` pair or, with
//! `pair: None`, across the whole fabric — and episodes alternate with
//! exponentially-drawn healthy intervals (`mtbf`) on the fault plan's own
//! RNG stream. Degradation composes with everything above: it scales the
//! *outcome* of the topology lookup (and, under
//! [`LinkContention::PerLink`], stretches the busy window the transfer
//! holds on its link), it never rewrites the matrix itself, and policies
//! still see the healthy estimate — a degraded link, like a busy one, is
//! engine state the scheduler discovers only through its consequences.
//! Processor crash/repair and transient kernel failures live one level
//! up in the engine; see the crate-level "Failure model" section.

use crate::link::LinkRate;
use apt_base::{BaseError, ProcId, SimDuration};
use serde::{Deserialize, Serialize};

/// How the engine arbitrates concurrent transfers on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LinkContention {
    /// Seed semantics (the default): a starting kernel's input transfers
    /// serialize on the consuming processor — their durations sum —
    /// regardless of which links they use.
    #[default]
    Off,
    /// Per-link busy-until clocks: input transfers run concurrently across
    /// distinct directed links; transfers on the same directed link
    /// serialize behind the link's clock. Execution starts when the last
    /// input lands.
    PerLink,
}

/// The machine's interconnect: one rate between every processor pair, or
/// a dense per-(source, destination) matrix, plus the transfer arbitration
/// mode. See the module docs for the two forms and the §3.2 departure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    rates: Rates,
    /// Transfer arbitration mode (off by default).
    contention: LinkContention,
}

/// The two forms of a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Rates {
    /// One rate between every pair, for a machine of any size.
    Uniform(LinkRate),
    /// Dense `src × nprocs + dst` rate matrix; the diagonal is stored but
    /// never read — same-processor moves are free.
    Matrix { nprocs: usize, rates: Vec<LinkRate> },
}

impl Topology {
    /// One rate between every pair — the §3.2 model, for a machine of any
    /// size (processors added after it is set share the rate too).
    pub fn uniform(rate: LinkRate) -> Topology {
        Topology {
            rates: Rates::Uniform(rate),
            contention: LinkContention::Off,
        }
    }

    /// NUMA-ish clusters: processors `[0, cluster_size)` form cluster 0,
    /// the next `cluster_size` cluster 1, and so on (a trailing partial
    /// cluster is fine). Pairs within a cluster use `intra`, pairs across
    /// clusters `inter`.
    ///
    /// Panics when `cluster_size` is zero.
    pub fn clustered(
        nprocs: usize,
        cluster_size: usize,
        intra: LinkRate,
        inter: LinkRate,
    ) -> Topology {
        assert!(cluster_size > 0, "cluster_size must be at least 1");
        Topology::from_fn(nprocs, |src, dst| {
            if src.index() / cluster_size == dst.index() / cluster_size {
                intra
            } else {
                inter
            }
        })
    }

    /// Host-staged star: `root`'s links to every device run at `edge`;
    /// device↔device pairs hop through the root and get the effective
    /// two-hop rate (`edge / 2` — `b/edge` up plus `b/edge` down).
    ///
    /// The staging is *rate-level only*: a device↔device pair is still one
    /// logical link of the matrix, so under
    /// [`LinkContention::PerLink`] two transfers out of the same device to
    /// different destinations claim distinct `(src, dst)` clocks — the
    /// shared physical root uplink they would really traverse is not
    /// serialized (routed per-edge claims are a finer model than the
    /// per-pair matrix expresses). Star + contention results are therefore
    /// optimistic about the root's aggregate bandwidth.
    ///
    /// Panics when `root` is outside the machine or `edge` would leave the
    /// two-hop rate at zero.
    pub fn star(nprocs: usize, root: ProcId, edge: LinkRate) -> Topology {
        assert!(root.index() < nprocs, "star root outside the machine");
        let staged = LinkRate {
            bytes_per_sec: edge.bytes_per_sec / 2,
        };
        assert!(
            nprocs < 3 || staged.bytes_per_sec > 0,
            "star edge rate too slow for a two-hop path"
        );
        Topology::from_fn(nprocs, |src, dst| {
            if src == root || dst == root {
                edge
            } else {
                staged
            }
        })
    }

    /// An arbitrary `nprocs × nprocs` matrix: `rate(src, dst)` for every
    /// directed pair. The diagonal is queried too (stored but never read).
    /// Always the matrix form, even when every rate is equal.
    pub fn from_fn(nprocs: usize, rate: impl Fn(ProcId, ProcId) -> LinkRate) -> Topology {
        let mut rates = Vec::with_capacity(nprocs * nprocs);
        for s in 0..nprocs {
            for d in 0..nprocs {
                rates.push(rate(ProcId::new(s), ProcId::new(d)));
            }
        }
        Topology {
            rates: Rates::Matrix { nprocs, rates },
            contention: LinkContention::Off,
        }
    }

    /// Builder: set the transfer arbitration mode (see [`LinkContention`]).
    pub fn with_contention(mut self, contention: LinkContention) -> Topology {
        self.contention = contention;
        self
    }

    /// The rate of directed link `(src, dst)`.
    #[inline]
    pub fn rate(&self, src: ProcId, dst: ProcId) -> LinkRate {
        match &self.rates {
            Rates::Uniform(rate) => *rate,
            Rates::Matrix { nprocs, rates } => rates[src.index() * nprocs + dst.index()],
        }
    }

    /// Time to move `bytes` from `src` to `dst`; zero for same-processor
    /// moves. Exact integer arithmetic, rounded up to whole nanoseconds —
    /// the same formula as [`LinkRate::transfer_time`], per pair.
    #[inline]
    pub fn transfer_time(&self, bytes: u64, src: ProcId, dst: ProcId) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        self.rate(src, dst).transfer_time(bytes)
    }

    /// The transfer arbitration mode.
    #[inline]
    pub fn contention(&self) -> LinkContention {
        self.contention
    }

    /// Mean off-diagonal transfer time of `bytes` in fractional
    /// milliseconds — the static rankers' `c̄_ij`. The one-rate form
    /// returns its single link time (no averaging); a matrix averages over
    /// its ordered remote pairs, even when every rate is equal.
    pub fn mean_pair_transfer_ms(&self, bytes: u64) -> f64 {
        let (nprocs, rates) = match &self.rates {
            Rates::Uniform(rate) => return rate.transfer_time(bytes).as_ms_f64(),
            Rates::Matrix { nprocs, rates } => (*nprocs, rates),
        };
        let mut sum = 0.0f64;
        let mut pairs = 0usize;
        for s in 0..nprocs {
            for d in 0..nprocs {
                if s != d {
                    sum += rates[s * nprocs + d].transfer_time(bytes).as_ms_f64();
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            sum / pairs as f64
        }
    }

    /// Structural validation against a machine of `nprocs` processors: the
    /// one rate must be positive; a matrix must cover exactly `nprocs`
    /// processors with every off-diagonal rate positive (a zero-rate link
    /// would make transfers across it infinite).
    pub fn validate(&self, nprocs: usize) -> Result<(), BaseError> {
        let invalid = |reason: String| Err(BaseError::InvalidSystem { reason });
        match &self.rates {
            Rates::Uniform(rate) if rate.bytes_per_sec == 0 => invalid("link rate is zero".into()),
            Rates::Uniform(_) => Ok(()),
            Rates::Matrix { nprocs: n, .. } if *n != nprocs => invalid(format!(
                "topology describes {n} processors but the system has {nprocs}"
            )),
            Rates::Matrix { rates, .. } => {
                for (i, rate) in rates.iter().enumerate() {
                    let (s, d) = (i / nprocs, i % nprocs);
                    if s != d && rate.bytes_per_sec == 0 {
                        return invalid(format!("topology link ({s} -> {d}) has zero rate"));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MAX_PROCS;

    #[test]
    fn uniform_rate_covers_every_pair() {
        let t = Topology::uniform(LinkRate::PCIE2_X8);
        assert_eq!(t.contention(), LinkContention::Off);
        for s in 0..3 {
            for d in 0..3 {
                let (s, d) = (ProcId::new(s), ProcId::new(d));
                assert_eq!(t.rate(s, d), LinkRate::PCIE2_X8);
                let expect = if s == d {
                    SimDuration::ZERO
                } else {
                    LinkRate::PCIE2_X8.transfer_time(1 << 20)
                };
                assert_eq!(t.transfer_time(1 << 20, s, d), expect);
            }
        }
    }

    #[test]
    fn uniform_rate_fits_any_machine_size_but_not_a_zero_rate() {
        let t = Topology::uniform(LinkRate::PCIE2_X8);
        for nprocs in [1, 3, MAX_PROCS] {
            assert_eq!(t.validate(nprocs), Ok(()), "{nprocs} processors");
        }
        let zero = Topology::uniform(LinkRate { bytes_per_sec: 0 });
        for nprocs in [1, MAX_PROCS] {
            assert!(matches!(
                zero.validate(nprocs),
                Err(BaseError::InvalidSystem { .. })
            ));
        }
    }

    #[test]
    fn equal_rate_matrix_is_not_the_uniform_preset() {
        // from_fn always builds the matrix form, even with equal rates: it
        // keeps its size, so it fits only a machine of that size.
        let t = Topology::from_fn(3, |_, _| LinkRate::PCIE2_X8);
        assert_ne!(t, Topology::uniform(LinkRate::PCIE2_X8));
        t.validate(3).unwrap();
        assert!(t.validate(4).is_err());
    }

    #[test]
    fn clustered_splits_intra_and_inter() {
        let intra = LinkRate::gbps(8);
        let inter = LinkRate::gbps(1);
        let t = Topology::clustered(6, 3, intra, inter);
        // {0,1,2} and {3,4,5} are clusters.
        assert_eq!(t.rate(ProcId::new(0), ProcId::new(2)), intra);
        assert_eq!(t.rate(ProcId::new(3), ProcId::new(5)), intra);
        assert_eq!(t.rate(ProcId::new(2), ProcId::new(3)), inter);
        assert_eq!(t.rate(ProcId::new(5), ProcId::new(0)), inter);
        t.validate(6).unwrap();
        // A slow inter link makes cross-cluster transfers slower.
        assert!(
            t.transfer_time(1 << 26, ProcId::new(0), ProcId::new(3))
                > t.transfer_time(1 << 26, ProcId::new(0), ProcId::new(1))
        );
    }

    #[test]
    fn star_halves_the_device_to_device_rate() {
        let edge = LinkRate::gbps(4);
        let t = Topology::star(4, ProcId::new(0), edge);
        assert_eq!(t.rate(ProcId::new(0), ProcId::new(3)), edge);
        assert_eq!(t.rate(ProcId::new(2), ProcId::new(0)), edge);
        assert_eq!(
            t.rate(ProcId::new(1), ProcId::new(2)).bytes_per_sec,
            edge.bytes_per_sec / 2
        );
        // Two-hop time = twice the edge time (for bytes divisible cleanly).
        assert_eq!(
            t.transfer_time(4_000_000_000, ProcId::new(1), ProcId::new(2)),
            edge.transfer_time(4_000_000_000) * 2
        );
    }

    #[test]
    fn mean_pair_transfer_is_exact_for_uniform_and_averages_otherwise() {
        let bytes = 64_000_000u64; // 16 ms at 4 GB/s
        let u = Topology::uniform(LinkRate::gbps(4));
        assert_eq!(
            u.mean_pair_transfer_ms(bytes),
            LinkRate::gbps(4).transfer_time(bytes).as_ms_f64()
        );
        // 2-proc matrix with 4 and 8 GB/s: mean of 16 ms and 8 ms.
        let m = Topology::from_fn(2, |s, _| {
            if s.index() == 0 {
                LinkRate::gbps(4)
            } else {
                LinkRate::gbps(8)
            }
        });
        assert!((m.mean_pair_transfer_ms(bytes) - 12.0).abs() < 1e-9);
        // Degenerate single-proc matrix has no pairs.
        assert_eq!(
            Topology::from_fn(1, |_, _| LinkRate::gbps(4)).mean_pair_transfer_ms(5),
            0.0
        );
    }

    #[test]
    fn validation_catches_size_and_zero_links() {
        let t = Topology::from_fn(3, |_, _| LinkRate::gbps(4));
        assert!(t.validate(4).is_err());
        let z = Topology::from_fn(2, |s, d| {
            if s.index() == 0 && d.index() == 1 {
                LinkRate { bytes_per_sec: 0 }
            } else {
                LinkRate::gbps(4)
            }
        });
        assert!(z.validate(2).is_err());
    }

    #[test]
    fn contention_builder_round_trips() {
        let t = Topology::uniform(LinkRate::gbps(4)).with_contention(LinkContention::PerLink);
        assert_eq!(t.contention(), LinkContention::PerLink);
        assert_eq!(LinkContention::default(), LinkContention::Off);
    }
}
