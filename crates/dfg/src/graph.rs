//! A small, dependency-free directed-acyclic-graph container.
//!
//! Scheduling consumes a dataflow graph `G = (V, E)` where `V` is the set of
//! kernels and `E` the data/computational dependencies (§2.5.1). The
//! container here is deliberately minimal: adjacency lists in both
//! directions, O(1) node payload access, Kahn topological ordering, and
//! validation. It is generic over the node payload so the simulator's tests
//! can use toy payloads, while production code uses [`crate::Kernel`].

use apt_base::BaseError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within one [`Dag`]. Dense indices starting at zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Construct from a raw index.
    #[inline]
    pub const fn new(idx: usize) -> Self {
        NodeId(idx as u32)
    }

    /// The raw index, widened for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph intended to be acyclic, with payload `T` per node.
///
/// Edges may be added freely; acyclicity is checked by [`Dag::validate`] /
/// [`Dag::topo_order`] (Kahn's algorithm), which the generators and the
/// simulator call before use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag<T> {
    nodes: Vec<T>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<T> Default for Dag<T> {
    fn default() -> Self {
        Dag::new()
    }
}

impl<T> Dag<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Dag {
            nodes: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            edge_count: 0,
        }
    }

    /// An empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Dag {
            nodes: Vec::with_capacity(n),
            preds: Vec::with_capacity(n),
            succs: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, payload: T) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(payload);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Add a dependency edge `from → to` (`to` consumes `from`'s output).
    ///
    /// Rejects out-of-range endpoints, self-loops, and duplicate edges.
    /// Cycle detection is deferred to [`Dag::validate`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), BaseError> {
        let len = self.nodes.len();
        for node in [from, to] {
            if node.index() >= len {
                return Err(BaseError::NodeOutOfRange {
                    node: node.index(),
                    len,
                });
            }
        }
        if from == to {
            return Err(BaseError::SelfLoop { node: from.index() });
        }
        if self.succs[from.index()].contains(&to) {
            return Err(BaseError::DuplicateEdge {
                from: from.index(),
                to: to.index(),
            });
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Payload of a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &T {
        &self.nodes[id.index()]
    }

    /// Mutable payload of a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.nodes[id.index()]
    }

    /// Remove every edge incident to `id` (both directions), leaving the
    /// node in place with no neighbors. Used by the streaming engine's slot
    /// arena to recycle the nodes of a retired job before rebinding them to
    /// the next arrival; the node's own adjacency capacity is kept so a
    /// recycled slot does not re-allocate.
    pub fn detach_node(&mut self, id: NodeId) {
        while let Some(s) = self.succs[id.index()].pop() {
            self.preds[s.index()].retain(|&p| p != id);
            self.edge_count -= 1;
        }
        while let Some(p) = self.preds[id.index()].pop() {
            self.succs[p.index()].retain(|&s| s != id);
            self.edge_count -= 1;
        }
    }

    /// Immediate predecessors (dependencies) of a node.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// Immediate successors (dependents) of a node.
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// In-degree of a node.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.preds[id.index()].len()
    }

    /// Out-degree of a node.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succs[id.index()].len()
    }

    /// Iterate `(id, payload)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, t)| (NodeId::new(i), t))
    }

    /// All node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, ss)| ss.iter().map(move |&t| (NodeId::new(i), t)))
    }

    /// Nodes with no predecessors (the initially ready set).
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Nodes with no successors (exit tasks).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }

    /// A topological order (Kahn's algorithm; within a frontier, smaller ids
    /// first, so the order is deterministic). Errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, BaseError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut in_deg: Vec<usize> = self.node_ids().map(|n| self.in_degree(n)).collect();
        // A min-heap frontier pops the smallest ready id in O(log F). (The
        // seed did a linear min-scan per pop — O(V·F), which on Type-1
        // graphs, whose frontier is nearly all of V, made validation as
        // expensive as generation itself.)
        let mut frontier: BinaryHeap<Reverse<NodeId>> = self
            .node_ids()
            .filter(|n| in_deg[n.index()] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(Reverse(n)) = frontier.pop() {
            order.push(n);
            for &s in self.succs(n) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    frontier.push(Reverse(s));
                }
            }
        }
        if order.len() != self.len() {
            let culprit = in_deg
                .iter()
                .position(|&d| d > 0)
                .expect("some node must remain");
            return Err(BaseError::CyclicGraph { node: culprit });
        }
        Ok(order)
    }

    /// Validate acyclicity.
    pub fn validate(&self) -> Result<(), BaseError> {
        // Ascending edges admit id order as a topological order, so such a
        // graph (every generated one) is acyclic without running Kahn.
        let ascending = self
            .succs
            .iter()
            .enumerate()
            .all(|(i, ss)| ss.iter().all(|s| s.index() > i));
        if ascending {
            return Ok(());
        }
        self.topo_order().map(|_| ())
    }

    /// Map payloads, preserving structure.
    pub fn map<U>(&self, mut f: impl FnMut(NodeId, &T) -> U) -> Dag<U> {
        Dag {
            nodes: self.iter().map(|(id, t)| f(id, t)).collect(),
            preds: self.preds.clone(),
            succs: self.succs.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Length (in accumulated node weight) of the longest weighted path,
    /// where each node contributes `weight(node)` and edges are free. This is
    /// the classic critical-path lower bound on any schedule's makespan when
    /// `weight` is the *minimum* execution time of each kernel.
    pub fn critical_path(&self, mut weight: impl FnMut(NodeId) -> u64) -> Result<u64, BaseError> {
        let order = self.topo_order()?;
        let mut dist = vec![0u64; self.len()];
        let mut best = 0u64;
        for &n in &order {
            let w = weight(n);
            let start = self
                .preds(n)
                .iter()
                .map(|p| dist[p.index()])
                .max()
                .unwrap_or(0);
            dist[n.index()] = start + w;
            best = best.max(dist[n.index()]);
        }
        Ok(best)
    }

    /// Partition nodes into precedence levels: level 0 = sources, level k =
    /// nodes whose longest predecessor chain has k edges. Used by the ASCII
    /// renderer and by structure tests.
    pub fn levels(&self) -> Result<Vec<Vec<NodeId>>, BaseError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.len()];
        let mut max_level = 0;
        for &n in &order {
            let l = self
                .preds(n)
                .iter()
                .map(|p| level[p.index()] + 1)
                .max()
                .unwrap_or(0);
            level[n.index()] = l;
            max_level = max_level.max(l);
        }
        let mut out = vec![Vec::new(); max_level + 1];
        for n in self.node_ids() {
            out[level[n.index()]].push(n);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag<&'static str> {
        // a → b, a → c, b → d, c → d
        let mut g = Dag::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        g
    }

    #[test]
    fn construction_and_queries() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.preds(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(*g.node(NodeId(2)), "c");
    }

    #[test]
    fn detach_node_removes_both_directions_and_allows_rewiring() {
        let mut g = diamond();
        g.detach_node(NodeId(1)); // b loses a→b and b→d
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.preds(NodeId(3)), &[NodeId(2)]);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert_eq!(g.out_degree(NodeId(1)), 0);
        // The slot can be reconnected freshly (arena reuse).
        g.add_edge(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(g.edge_count(), 3);
        g.validate().unwrap();
        // Detaching every node empties the edge set.
        for i in 0..4 {
            g.detach_node(NodeId(i));
        }
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Every edge points forward in the order.
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (i, n) in order.iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = diamond();
        g.add_edge(NodeId(3), NodeId(0)).unwrap();
        assert!(matches!(g.validate(), Err(BaseError::CyclicGraph { .. })));
    }

    /// Edges that point from a higher id to a lower one skip the
    /// ascending-edge shortcut; an acyclic such graph still validates.
    #[test]
    fn descending_acyclic_edges_validate() {
        let mut g = Dag::new();
        let ids: Vec<NodeId> = (0..4).map(|i| g.add_node(i)).collect();
        g.add_edge(ids[3], ids[1]).unwrap();
        g.add_edge(ids[1], ids[0]).unwrap();
        g.add_edge(ids[3], ids[2]).unwrap();
        g.add_edge(ids[2], ids[0]).unwrap();
        g.validate().unwrap();
        assert_eq!(
            g.topo_order().unwrap(),
            vec![NodeId(3), NodeId(1), NodeId(2), NodeId(0)]
        );
    }

    /// One descending edge among ascending ones is enough to close a cycle,
    /// and `validate` must then run the full check.
    #[test]
    fn one_back_edge_among_ascending_ones_is_a_cycle() {
        let mut g = Dag::new();
        for i in 0..6 {
            g.add_node(i);
        }
        for i in 0..5 {
            g.add_edge(NodeId(i), NodeId(i + 1)).unwrap();
        }
        g.validate().unwrap();
        g.add_edge(NodeId(4), NodeId(2)).unwrap();
        assert!(matches!(
            g.validate(),
            Err(BaseError::CyclicGraph { node: 2 })
        ));
    }

    /// `validate` accepts exactly the graphs `topo_order` can order, on
    /// random graphs with edges in both directions.
    #[test]
    fn validate_agrees_with_topo_order_on_random_graphs() {
        let mut rng = crate::rng::SplitMix64::new(0xDA6);
        let mut cyclic = 0;
        for round in 0..300 {
            let n = 2 + rng.gen_index(9);
            let mut g = Dag::new();
            for i in 0..n {
                g.add_node(i);
            }
            // Mostly ascending edges; a few rounds add descending ones.
            let back_edges = if round % 3 == 0 { rng.gen_index(3) } else { 0 };
            for _ in 0..rng.gen_index(2 * n) {
                let a = rng.gen_index(n);
                let b = rng.gen_index(n);
                if a < b {
                    let _ = g.add_edge(NodeId::new(a), NodeId::new(b));
                }
            }
            for _ in 0..back_edges {
                let a = rng.gen_index(n);
                let b = rng.gen_index(n);
                if a > b {
                    let _ = g.add_edge(NodeId::new(a), NodeId::new(b));
                }
            }
            let topo = g.topo_order();
            cyclic += usize::from(topo.is_err());
            assert_eq!(g.validate().is_ok(), topo.is_ok(), "round {round}");
        }
        assert!(cyclic > 0, "the rounds must include cyclic graphs");
    }

    #[test]
    fn path_queries_reject_a_cycle() {
        let mut g = diamond();
        g.add_edge(NodeId(3), NodeId(1)).unwrap();
        assert!(matches!(
            g.critical_path(|_| 1),
            Err(BaseError::CyclicGraph { .. })
        ));
        assert!(matches!(g.levels(), Err(BaseError::CyclicGraph { .. })));
    }

    #[test]
    fn edgeless_nodes_are_both_sources_and_sinks() {
        let mut g = Dag::new();
        for i in 0..3 {
            g.add_node(i);
        }
        let all = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(g.sources(), all);
        assert_eq!(g.sinks(), all);
        g.validate().unwrap();
        assert_eq!(g.levels().unwrap(), vec![all]);
    }

    #[test]
    fn edge_validation() {
        let mut g = diamond();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(9)),
            Err(BaseError::NodeOutOfRange { node: 9, len: 4 })
        ));
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(1)),
            Err(BaseError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1)),
            Err(BaseError::DuplicateEdge { from: 0, to: 1 })
        ));
    }

    #[test]
    fn critical_path_of_diamond() {
        let g = diamond();
        // All nodes weight 10: path a→b→d = 30.
        assert_eq!(g.critical_path(|_| 10).unwrap(), 30);
        // Heavier branch c: a→c→d = 10+50+10.
        assert_eq!(
            g.critical_path(|n| if n == NodeId(2) { 50 } else { 10 })
                .unwrap(),
            70
        );
    }

    #[test]
    fn levels_partition_nodes() {
        let g = diamond();
        let levels = g.levels().unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![NodeId(0)]);
        assert_eq!(levels[1], vec![NodeId(1), NodeId(2)]);
        assert_eq!(levels[2], vec![NodeId(3)]);
        let total: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn map_preserves_structure() {
        let g = diamond();
        let mapped = g.map(|id, s| format!("{}{}", s, id.index()));
        assert_eq!(mapped.node(NodeId(3)), "d3");
        assert_eq!(mapped.edge_count(), g.edge_count());
        assert_eq!(mapped.preds(NodeId(3)), g.preds(NodeId(3)));
    }

    #[test]
    fn empty_graph_behaves() {
        let g: Dag<()> = Dag::new();
        assert!(g.is_empty());
        assert!(g.topo_order().unwrap().is_empty());
        assert!(g.sources().is_empty());
        assert_eq!(g.critical_path(|_| 1).unwrap(), 0);
    }
}
