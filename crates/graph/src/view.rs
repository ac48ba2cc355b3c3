//! The read-only graph abstraction matchers are written against.
//!
//! Matching, ranking and compression never mutate the graph they query, and
//! the compression module needs to run the *same* matchers on its quotient
//! graphs. `GraphView` is the narrow interface both [`crate::DiGraph`] and
//! `CompressedGraph` (in `expfinder-compress`) implement. Node ids are
//! guaranteed dense: `0..node_count()`.

use crate::attrs::{Interner, Sym};
use crate::bitset::BitSet;
use crate::digraph::VertexData;
use crate::NodeId;

/// Read-only view of an attributed directed graph with dense node ids.
pub trait GraphView {
    /// Number of nodes; valid ids are exactly `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Number of directed edges.
    fn edge_count(&self) -> usize;

    /// Successors of `v`, sorted ascending.
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];

    /// Predecessors of `v`, sorted ascending.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// The content (label + attributes) of `v`.
    fn vertex(&self, v: NodeId) -> &VertexData;

    /// The symbol table labels and attribute keys are interned in.
    fn interner(&self) -> &Interner;

    /// Candidate index hook: the set of nodes carrying `label`, when the
    /// view maintains one (`None` = no index; callers fall back to a full
    /// scan). [`crate::csr::CsrGraph`] overrides this; the mutable
    /// [`crate::DiGraph`] does not pay for an index it would have to
    /// maintain on every update.
    fn nodes_with_label(&self, label: Sym) -> Option<&BitSet> {
        let _ = label;
        None
    }

    /// Iterate all node ids (provided).
    fn ids(&self) -> NodeIdRange {
        NodeIdRange {
            next: 0,
            end: self.node_count() as u32,
        }
    }

    /// |V| + |E|, the size measure used in the paper.
    fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }
}

/// Iterator over the dense node-id range of a [`GraphView`].
#[derive(Clone, Debug)]
pub struct NodeIdRange {
    next: u32,
    end: u32,
}

impl Iterator for NodeIdRange {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeIdRange {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    #[test]
    fn ids_covers_all_nodes() {
        let mut g = DiGraph::new();
        for _ in 0..4 {
            g.add_node("x", []);
        }
        let ids: Vec<u32> = g.ids().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(g.ids().len(), 4);
    }

    #[test]
    fn size_is_v_plus_e() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        g.add_edge(a, b);
        assert_eq!(GraphView::size(&g), 3);
    }
}
