//! The PCI-Express interconnect model.
//!
//! §3.2: "Using PCIe 2.0 the data rate per lane is 500 MBps; we varied the
//! number of lanes to be 8 and 16 ... With 8 lanes this would achieve an
//! approximate throughput of 4 GBps and with 16 lanes 8 GBps. We maintain
//! the data transfer rates between all processors to be the same."
//!
//! A [`LinkRate`] is one link's throughput; transfer time is
//! `bytes / rate`, computed in exact integer arithmetic (rounded up to the
//! next nanosecond so transfers are never undercounted). A machine's
//! interconnect is a [`crate::Topology`]: one rate between every pair
//! (§3.2's model, [`crate::Topology::uniform`]) or a per-pair matrix of
//! rates — clusters, host-staged bottlenecks — and it applies this
//! arithmetic per directed pair.

use apt_base::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes per PCIe 2.0 lane per second (500 MB/s).
pub const PCIE2_BYTES_PER_LANE: u64 = 500_000_000;

/// The throughput of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkRate {
    /// Sustained throughput in bytes per second.
    pub bytes_per_sec: u64,
}

impl LinkRate {
    /// PCIe 2.0 ×8 — the paper's 4 GB/s configuration.
    pub const PCIE2_X8: LinkRate = LinkRate::lanes(8);
    /// PCIe 2.0 ×16 — the paper's 8 GB/s configuration.
    pub const PCIE2_X16: LinkRate = LinkRate::lanes(16);

    /// A PCIe 2.0 link with the given lane count.
    pub const fn lanes(n: u64) -> LinkRate {
        LinkRate {
            bytes_per_sec: n * PCIE2_BYTES_PER_LANE,
        }
    }

    /// An arbitrary rate in GB/s (decimal gigabytes, as in the paper).
    pub const fn gbps(g: u64) -> LinkRate {
        LinkRate {
            bytes_per_sec: g * 1_000_000_000,
        }
    }

    /// Time to move `bytes` across the link, rounded up to whole nanoseconds.
    /// Zero bytes take zero time (the Figure-5 example disables transfers by
    /// setting the byte volume to zero).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let num = bytes as u128 * 1_000_000_000u128;
        let den = self.bytes_per_sec as u128;
        SimDuration::from_ns(num.div_ceil(den) as u64)
    }

    /// The rate in fractional GB/s (reporting only).
    pub fn as_gbps_f64(&self) -> f64 {
        self.bytes_per_sec as f64 / 1e9
    }
}

impl fmt::Display for LinkRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}GB/s", self.as_gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_math_matches_paper() {
        assert_eq!(LinkRate::PCIE2_X8.bytes_per_sec, 4_000_000_000);
        assert_eq!(LinkRate::PCIE2_X16.bytes_per_sec, 8_000_000_000);
        assert_eq!(LinkRate::PCIE2_X8, LinkRate::gbps(4));
    }

    #[test]
    fn transfer_time_exact_division() {
        // 4 GB/s moves 4 bytes per nanosecond.
        let l = LinkRate::gbps(4);
        assert_eq!(l.transfer_time(4), SimDuration::from_ns(1));
        assert_eq!(
            l.transfer_time(4_000_000_000),
            SimDuration::from_ns(1_000_000_000)
        );
        // 64 MB at 4 GB/s = 16 ms.
        assert_eq!(l.transfer_time(64_000_000), SimDuration::from_ms(16));
    }

    #[test]
    fn transfer_time_rounds_up() {
        let l = LinkRate::gbps(4);
        assert_eq!(l.transfer_time(1), SimDuration::from_ns(1));
        assert_eq!(l.transfer_time(5), SimDuration::from_ns(2));
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(LinkRate::gbps(4).transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn doubling_lanes_halves_time() {
        let big = 512 * 1024 * 1024u64;
        let t8 = LinkRate::PCIE2_X8.transfer_time(big);
        let t16 = LinkRate::PCIE2_X16.transfer_time(big);
        assert_eq!(t8.as_ns(), t16.as_ns() * 2);
    }

    #[test]
    fn display_shows_gbps() {
        assert_eq!(LinkRate::PCIE2_X8.to_string(), "4GB/s");
    }
}
