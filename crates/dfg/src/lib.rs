//! # apt-dfg
//!
//! The dataflow-graph substrate of the APT reproduction:
//!
//! * [`kernel`] — the seven kernels of Table 5 (Needleman-Wunsch, BFS, SRAD,
//!   GEM, Cholesky decomposition, matrix-matrix multiplication, matrix
//!   inversion) with their data sizes.
//! * [`dwarf`] — the thirteen Berkeley dwarfs (§2.4) and the application ↔
//!   dwarf membership of Table 1.
//! * [`lookup`] — the complete measured-execution-time lookup table of
//!   Appendix A (Table 14), embedded verbatim.
//! * [`graph`] — a small, dependency-free DAG container with precedence
//!   queries, Kahn topological ordering, and validation.
//! * [`rng`] — a SplitMix64 PRNG so that workload generation is bit-exact
//!   reproducible forever, independent of external crate versions.
//! * [`generator`] — the DFG Type-1 / Type-2 input-stream generators of §3.2
//!   (Figures 3 and 4).
//! * [`render`] — ASCII renderings of generated graphs (Figures 3/4 style).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dwarf;
pub mod generator;
pub mod graph;
pub mod kernel;
pub mod lookup;
pub mod render;
pub mod rng;

pub use dwarf::{Application, Dwarf};
pub use generator::{DfgType, StreamConfig, Type2Config};
pub use graph::{Dag, NodeId};
pub use kernel::{Kernel, KernelKind};
pub use lookup::{LookupTable, MM_MI_CD_SIZES};
pub use rng::SplitMix64;

/// A dataflow graph of kernels — the unit of work the scheduler consumes.
pub type KernelDag = Dag<Kernel>;
