//! ASCII rendering of kernel dataflow graphs (Figures 3 and 4 style).
//!
//! Purely cosmetic: used by the examples and the experiment harness to show
//! what the generated workloads look like, in the spirit of the paper's
//! figures. The renderer prints the precedence levels of the DAG, one row per
//! level, each node as `id:tag`.

use crate::graph::Dag;
use crate::kernel::Kernel;
use std::fmt::Write as _;

/// Render a kernel DAG as one line per precedence level.
///
/// ```text
/// level 0 | n0:nw n1:bfs n2:bfs n3:bfs
/// level 1 | n4:cd   (preds: n0 n1 n2 n3)
/// ```
pub fn render_levels(g: &Dag<Kernel>) -> String {
    let mut out = String::new();
    let levels = match g.levels() {
        Ok(l) => l,
        Err(e) => return format!("<invalid graph: {e}>"),
    };
    for (i, level) in levels.iter().enumerate() {
        let _ = write!(out, "level {i} |");
        for &n in level {
            let _ = write!(out, " {n}:{}", g.node(n).kind.tag());
        }
        out.push('\n');
    }
    let _ = write!(
        out,
        "({} kernels, {} edges, {} levels)",
        g.len(),
        g.edge_count(),
        levels.len()
    );
    out
}

/// Render the edge list grouped by source (compact adjacency dump).
pub fn render_edges(g: &Dag<Kernel>) -> String {
    let mut out = String::new();
    for n in g.node_ids() {
        if g.out_degree(n) == 0 {
            continue;
        }
        let _ = write!(out, "{n}:{} ->", g.node(n).kind.tag());
        for &s in g.succs(n) {
            let _ = write!(out, " {s}");
        }
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("(no edges)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{build_type1, generate_kernels, StreamConfig};
    use crate::lookup::LookupTable;
    use crate::{Kernel, KernelKind};

    #[test]
    fn renders_type1_levels() {
        let kernels = generate_kernels(&StreamConfig::new(5, 1), LookupTable::paper());
        let g = build_type1(&kernels);
        let s = render_levels(&g);
        assert!(s.contains("level 0 |"));
        assert!(s.contains("level 1 |"));
        assert!(s.contains("5 kernels, 4 edges, 2 levels"));
    }

    #[test]
    fn a_cyclic_graph_renders_as_invalid() {
        let kernels = generate_kernels(&StreamConfig::new(3, 1), LookupTable::paper());
        let mut g = build_type1(&kernels);
        // Type-1 wires n0, n1 → n2; closing n2 → n0 makes a cycle.
        g.add_edge(crate::NodeId::new(2), crate::NodeId::new(0))
            .unwrap();
        let s = render_levels(&g);
        assert!(s.starts_with("<invalid graph:"), "{s}");
        assert!(s.contains("cyclic"), "{s}");
    }

    /// One line per level, each node as `id:tag` in id order, then a totals
    /// line.
    #[test]
    fn levels_render_one_line_each() {
        let kernels = [
            Kernel::canonical(KernelKind::NeedlemanWunsch),
            Kernel::canonical(KernelKind::Bfs),
            Kernel::new(KernelKind::Cholesky, 250_000),
        ];
        let g = build_type1(&kernels);
        assert_eq!(
            render_levels(&g),
            "level 0 | n0:nw n1:bfs\nlevel 1 | n2:cd\n(3 kernels, 2 edges, 2 levels)"
        );
        assert_eq!(render_edges(&g), "n0:nw -> n2\nn1:bfs -> n2\n");
    }

    #[test]
    fn renders_edges_and_handles_edgeless() {
        let kernels = generate_kernels(&StreamConfig::new(3, 1), LookupTable::paper());
        let g = build_type1(&kernels);
        assert!(render_edges(&g).contains("-> n2"));
        let lone = build_type1(&kernels[..1]);
        assert_eq!(render_edges(&lone), "(no edges)\n");
    }
}
