//! The seven kernels of the paper's workload (Table 5) and their instances.
//!
//! An *application* in the paper decomposes into *kernels*; each kernel has a
//! computational objective captured by its dwarf (Figure 2, §2.4). A kernel
//! instance in an input stream carries a concrete data size (element count),
//! which keys into the lookup table of measured execution times.

use crate::dwarf::Dwarf;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The seven kernel types used in the paper's input streams (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Matrix-matrix multiplication (Skalicky et al.) — dense linear algebra.
    MatMul,
    /// Matrix inversion (Skalicky et al.) — dense linear algebra.
    MatInv,
    /// Cholesky decomposition (Skalicky et al.) — dense/sparse linear algebra.
    Cholesky,
    /// Needleman-Wunsch sequence alignment (Krommydas et al.) — dynamic programming.
    NeedlemanWunsch,
    /// Breadth-first search (Krommydas et al.) — graph traversal.
    Bfs,
    /// Speckle-reducing anisotropic diffusion (Krommydas et al.) — structured grids.
    Srad,
    /// Gaussian electrostatic model (Krommydas et al.) — N-body methods.
    Gem,
}

impl KernelKind {
    /// All seven kernel kinds, in Table-5 / Appendix-A order.
    pub const ALL: [KernelKind; 7] = [
        KernelKind::MatMul,
        KernelKind::MatInv,
        KernelKind::Cholesky,
        KernelKind::NeedlemanWunsch,
        KernelKind::Bfs,
        KernelKind::Srad,
        KernelKind::Gem,
    ];

    /// Dense index of this kind inside [`KernelKind::ALL`], used by the
    /// lookup table's per-kind row index and the cost matrices.
    pub const fn index(self) -> usize {
        match self {
            KernelKind::MatMul => 0,
            KernelKind::MatInv => 1,
            KernelKind::Cholesky => 2,
            KernelKind::NeedlemanWunsch => 3,
            KernelKind::Bfs => 4,
            KernelKind::Srad => 5,
            KernelKind::Gem => 6,
        }
    }

    /// The short lowercase tag used by the paper's Appendix-B analyses
    /// ("nw", "bfs", "srad", "mi", "gem", "mm", "cd").
    pub const fn tag(self) -> &'static str {
        match self {
            KernelKind::MatMul => "mm",
            KernelKind::MatInv => "mi",
            KernelKind::Cholesky => "cd",
            KernelKind::NeedlemanWunsch => "nw",
            KernelKind::Bfs => "bfs",
            KernelKind::Srad => "srad",
            KernelKind::Gem => "gem",
        }
    }

    /// Full human-readable name as used in Table 14.
    pub const fn full_name(self) -> &'static str {
        match self {
            KernelKind::MatMul => "Matrix Multiplication",
            KernelKind::MatInv => "Matrix Inverse",
            KernelKind::Cholesky => "Cholesky Decomposition",
            KernelKind::NeedlemanWunsch => "Needleman Wunsch",
            KernelKind::Bfs => "BFS",
            KernelKind::Srad => "SRAD",
            KernelKind::Gem => "GEM",
        }
    }

    /// The dwarf(s) this kernel belongs to (Table 5). The linear-algebra
    /// kernels are listed by the paper under "Dense and Sparse Linear
    /// Algebra", so they carry both memberships.
    pub const fn dwarfs(self) -> &'static [Dwarf] {
        match self {
            KernelKind::MatMul | KernelKind::MatInv | KernelKind::Cholesky => {
                &[Dwarf::DenseLinearAlgebra, Dwarf::SparseLinearAlgebra]
            }
            KernelKind::NeedlemanWunsch => &[Dwarf::DynamicProgramming],
            KernelKind::Bfs => &[Dwarf::GraphTraversal],
            KernelKind::Srad => &[Dwarf::StructuredGrids],
            KernelKind::Gem => &[Dwarf::NBody],
        }
    }

    /// Whether the lookup table provides multiple data sizes for this kernel.
    /// The linear-algebra kernels were measured at seven sizes; the OpenDwarfs
    /// kernels (NW, BFS, SRAD, GEM) at a single canonical size each.
    pub const fn has_size_sweep(self) -> bool {
        matches!(
            self,
            KernelKind::MatMul | KernelKind::MatInv | KernelKind::Cholesky
        )
    }

    /// The single measured data size for kernels without a size sweep
    /// (Table 14); `None` for the swept linear-algebra kernels.
    pub const fn canonical_size(self) -> Option<u64> {
        match self {
            KernelKind::NeedlemanWunsch => Some(16_777_216),
            KernelKind::Bfs => Some(2_034_736),
            KernelKind::Srad => Some(134_217_728),
            KernelKind::Gem => Some(2_070_376),
            _ => None,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A kernel *instance* inside an input stream: a kernel type plus the concrete
/// data size it operates on (an element count, e.g. `836 × 836 = 698896` for a
/// matrix kernel — §3.1's lookup-table example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Kernel {
    /// Which of the seven kernel types this is.
    pub kind: KernelKind,
    /// Number of data elements processed (lookup-table key).
    pub data_size: u64,
}

impl Kernel {
    /// Construct a kernel instance.
    pub const fn new(kind: KernelKind, data_size: u64) -> Self {
        Kernel { kind, data_size }
    }

    /// Construct a kernel at its canonical (single-measurement) size.
    /// Panics for swept kernels, which require an explicit size.
    pub fn canonical(kind: KernelKind) -> Self {
        let size = kind
            .canonical_size()
            .expect("kernel has a size sweep; pass an explicit data size");
        Kernel::new(kind, size)
    }

    /// Bytes moved when this kernel's input/output crosses a PCIe link.
    ///
    /// The paper reports element counts and GB/s link rates but never states
    /// bytes per element; we use 4 (single-precision floats, consistent with
    /// the GPU linear-algebra implementations the measurements come from).
    /// The factor is a parameter of the simulated system, so this helper takes
    /// it explicitly.
    pub const fn bytes(&self, bytes_per_element: u64) -> u64 {
        self.data_size * bytes_per_element
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind.tag(), self.data_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sizes_match_table14() {
        assert_eq!(
            KernelKind::NeedlemanWunsch.canonical_size(),
            Some(16_777_216)
        );
        assert_eq!(KernelKind::Bfs.canonical_size(), Some(2_034_736));
        assert_eq!(KernelKind::Srad.canonical_size(), Some(134_217_728));
        assert_eq!(KernelKind::Gem.canonical_size(), Some(2_070_376));
        assert_eq!(KernelKind::MatMul.canonical_size(), None);
    }

    #[test]
    fn swept_kernels_are_the_linear_algebra_ones() {
        let swept: Vec<_> = KernelKind::ALL
            .into_iter()
            .filter(|k| k.has_size_sweep())
            .collect();
        assert_eq!(
            swept,
            vec![KernelKind::MatMul, KernelKind::MatInv, KernelKind::Cholesky]
        );
    }

    #[test]
    fn dwarf_membership_matches_table5() {
        assert_eq!(
            KernelKind::NeedlemanWunsch.dwarfs(),
            &[Dwarf::DynamicProgramming]
        );
        assert_eq!(KernelKind::Bfs.dwarfs(), &[Dwarf::GraphTraversal]);
        assert_eq!(KernelKind::Srad.dwarfs(), &[Dwarf::StructuredGrids]);
        assert_eq!(KernelKind::Gem.dwarfs(), &[Dwarf::NBody]);
        assert!(KernelKind::MatMul
            .dwarfs()
            .contains(&Dwarf::DenseLinearAlgebra));
    }

    #[test]
    fn kernel_bytes_uses_element_factor() {
        let k = Kernel::canonical(KernelKind::Bfs);
        assert_eq!(k.bytes(4), 2_034_736 * 4);
        assert_eq!(k.bytes(8), 2_034_736 * 8);
    }

    #[test]
    #[should_panic(expected = "size sweep")]
    fn canonical_of_swept_kernel_panics() {
        let _ = Kernel::canonical(KernelKind::Cholesky);
    }

    #[test]
    fn display_matches_appendix_b_style() {
        let k = Kernel::new(KernelKind::MatInv, 698_896);
        assert_eq!(k.to_string(), "mi(698896)");
    }
}
