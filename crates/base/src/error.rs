//! Shared error type.
//!
//! The workspace uses one small hand-rolled error enum rather than pulling in
//! an error-handling dependency; every failure in the pipeline is one of a
//! few structural problems (bad graph, missing lookup entry, bad config).

use std::fmt;

/// Errors surfaced by graph construction, lookup queries, system
/// configuration, and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseError {
    /// The dataflow graph contains a cycle (scheduling requires a DAG).
    CyclicGraph {
        /// A node id known to participate in (or be reachable from) a cycle.
        node: usize,
    },
    /// An edge referenced a node id that does not exist.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes actually in the graph.
        len: usize,
    },
    /// An edge was added twice.
    DuplicateEdge {
        /// Source node id.
        from: usize,
        /// Destination node id.
        to: usize,
    },
    /// A self-loop was requested.
    SelfLoop {
        /// The node id.
        node: usize,
    },
    /// The lookup table has no entry for a kernel/data-size/processor triple.
    MissingLookup {
        /// Kernel short name (e.g. "mm").
        kernel: &'static str,
        /// The data size requested.
        data_size: u64,
        /// Processor category label.
        proc: &'static str,
    },
    /// A system was configured without any processors, or without any
    /// processor able to execute some kernel.
    InvalidSystem {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A policy produced an invalid decision (unknown node, node not ready,
    /// or an assignment to a processor that cannot run the kernel).
    InvalidAssignment {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A simulation ended with unexecuted kernels (policy starvation).
    Starvation {
        /// Number of kernels that never ran.
        unscheduled: usize,
    },
    /// A source produced an arrival earlier than its predecessor. Streams
    /// must be replayed in non-decreasing arrival order; out-of-order
    /// records end the stream with this error instead of a panic.
    DisorderedArrival {
        /// Arrival timestamp of the offending record (ns).
        at_ns: u64,
        /// Arrival timestamp of the preceding record (ns).
        prev_ns: u64,
    },
    /// A kernel exhausted its retry budget after repeated injected
    /// failures (closed-system runs, where shedding the job is not an
    /// option).
    RetriesExhausted {
        /// Arena slot / node id of the kernel that kept failing.
        node: usize,
        /// Number of execution attempts made.
        attempts: u32,
    },
    /// A policy assigned work to a processor that is currently crashed
    /// (masked out of the availability set).
    ProcUnavailable {
        /// The down processor's id.
        proc: usize,
    },
}

impl fmt::Display for BaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseError::CyclicGraph { node } => {
                write!(f, "dataflow graph is cyclic (node {node} is on a cycle)")
            }
            BaseError::NodeOutOfRange { node, len } => {
                write!(f, "node id {node} out of range (graph has {len} nodes)")
            }
            BaseError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            BaseError::SelfLoop { node } => write!(f, "self loop on node {node}"),
            BaseError::MissingLookup {
                kernel,
                data_size,
                proc,
            } => write!(
                f,
                "no lookup entry for kernel {kernel} (data size {data_size}) on {proc}"
            ),
            BaseError::InvalidSystem { reason } => write!(f, "invalid system: {reason}"),
            BaseError::InvalidAssignment { reason } => {
                write!(f, "invalid assignment: {reason}")
            }
            BaseError::Starvation { unscheduled } => write!(
                f,
                "simulation starved: {unscheduled} kernels were never scheduled"
            ),
            BaseError::DisorderedArrival { at_ns, prev_ns } => write!(
                f,
                "disordered arrival: {at_ns} ns follows {prev_ns} ns (arrivals must be non-decreasing)"
            ),
            BaseError::RetriesExhausted { node, attempts } => write!(
                f,
                "kernel {node} exhausted its retry budget after {attempts} attempts"
            ),
            BaseError::ProcUnavailable { proc } => {
                write!(f, "processor {proc} is down (crashed and not yet repaired)")
            }
        }
    }
}

impl std::error::Error for BaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BaseError::MissingLookup {
            kernel: "mm",
            data_size: 42,
            proc: "ASIC",
        };
        let s = e.to_string();
        assert!(s.contains("mm") && s.contains("42") && s.contains("ASIC"));

        let e = BaseError::CyclicGraph { node: 3 };
        assert!(e.to_string().contains("cyclic"));

        let e = BaseError::DisorderedArrival {
            at_ns: 5,
            prev_ns: 9,
        };
        assert!(e.to_string().contains('5') && e.to_string().contains('9'));

        let e = BaseError::RetriesExhausted {
            node: 7,
            attempts: 3,
        };
        assert!(e.to_string().contains("retry"));

        let e = BaseError::ProcUnavailable { proc: 2 };
        assert!(e.to_string().contains("down"));
    }

    /// Every variant's message names the values it carries.
    #[test]
    fn every_variant_displays_its_fields() {
        let cases: Vec<(BaseError, &[&str])> = vec![
            (BaseError::CyclicGraph { node: 4 }, &["cyclic", "4"]),
            (
                BaseError::NodeOutOfRange { node: 12, len: 5 },
                &["12", "5 nodes"],
            ),
            (BaseError::DuplicateEdge { from: 3, to: 8 }, &["3 -> 8"]),
            (BaseError::SelfLoop { node: 6 }, &["self loop", "6"]),
            (
                BaseError::InvalidSystem {
                    reason: "no processors".into(),
                },
                &["invalid system", "no processors"],
            ),
            (
                BaseError::InvalidAssignment {
                    reason: "node 3 not ready".into(),
                },
                &["invalid assignment", "node 3 not ready"],
            ),
            (
                BaseError::Starvation { unscheduled: 17 },
                &["starved", "17"],
            ),
            (
                BaseError::RetriesExhausted {
                    node: 9,
                    attempts: 4,
                },
                &["kernel 9", "4 attempts"],
            ),
            (BaseError::ProcUnavailable { proc: 2 }, &["processor 2"]),
        ];
        for (err, needles) in cases {
            let text = err.to_string();
            for needle in needles {
                assert!(text.contains(needle), "{text:?} lacks {needle:?}");
            }
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            BaseError::SelfLoop { node: 1 },
            BaseError::SelfLoop { node: 1 }
        );
        assert_ne!(
            BaseError::SelfLoop { node: 1 },
            BaseError::SelfLoop { node: 2 }
        );
    }
}
