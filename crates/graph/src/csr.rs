//! Immutable CSR (compressed sparse row) snapshot of a graph.
//!
//! [`DiGraph`] stores adjacency as one `Vec<NodeId>` per node — the right
//! shape for a *mutable* graph (`O(log d)` edge lookups, `O(d)` updates),
//! but every neighbor scan pays one pointer indirection per node and the
//! per-node vectors are scattered across the heap. The matching fixpoints
//! are nothing *but* neighbor scans, so for read-heavy execution the
//! engine snapshots a graph into a [`CsrGraph`]: both directions of
//! adjacency flattened into two contiguous arrays (`offsets` + targets),
//! plus a bitset-backed **candidate index** mapping each label to the set
//! of nodes carrying it.
//!
//! A snapshot is tied to the [`DiGraph::version`] it was built from and is
//! never mutated. The engine builds one lazily per graph version — only
//! for graphs large enough that the O(|V|+|E|) build amortizes against
//! evaluation — caches it next to the compression state, and drops it
//! when the version moves on (see `expfinder-engine`); updates therefore
//! cost nothing until the next read that wants the fast path, and small
//! or update-dominated graphs never pay for snapshots at all. Because
//! `CsrGraph` implements
//! [`GraphView`], every matcher runs on it unchanged — and via
//! [`GraphView::nodes_with_label`] the candidate index makes
//! predicate-driven candidate seeding `O(|label class|)` instead of
//! `O(|V|)`.

use crate::attrs::{Interner, Sym};
use crate::bitset::BitSet;
use crate::digraph::{DiGraph, VertexData};
use crate::view::GraphView;
use crate::NodeId;
use std::collections::HashMap;

/// Immutable, cache-friendly snapshot of a graph at one version.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `DiGraph::version` this snapshot was built from.
    version: u64,
    /// `out_targets[out_offsets[v]..out_offsets[v+1]]` = successors of `v`.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    /// `in_sources[in_offsets[v]..in_offsets[v+1]]` = predecessors of `v`.
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    vertices: Vec<VertexData>,
    interner: Interner,
    /// Candidate index: label symbol → set of nodes with that label.
    labels: HashMap<Sym, BitSet>,
}

impl CsrGraph {
    /// Snapshot a [`DiGraph`], capturing its current version.
    pub fn snapshot(g: &DiGraph) -> CsrGraph {
        Self::from_view(g, g.version())
    }

    /// Build from any [`GraphView`], tagging the snapshot with `version`.
    pub fn from_view<G: GraphView>(g: &G, version: u64) -> CsrGraph {
        let n = g.node_count();
        let e = g.edge_count();
        let offset = |x: usize| u32::try_from(x).expect("edge count exceeds u32::MAX");

        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(e);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(e);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in g.ids() {
            out_targets.extend_from_slice(g.out_neighbors(v));
            out_offsets.push(offset(out_targets.len()));
            in_sources.extend_from_slice(g.in_neighbors(v));
            in_offsets.push(offset(in_sources.len()));
        }

        let vertices: Vec<VertexData> = g.ids().map(|v| g.vertex(v).clone()).collect();
        let mut labels: HashMap<Sym, BitSet> = HashMap::new();
        for (i, data) in vertices.iter().enumerate() {
            labels
                .entry(data.label())
                .or_insert_with(|| BitSet::new(n))
                .insert(NodeId(i as u32));
        }

        CsrGraph {
            version,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            vertices,
            interner: g.interner().clone(),
            labels,
        }
    }

    /// The graph version this snapshot corresponds to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The candidate index entry for one label symbol, if any node has it.
    pub fn label_set(&self, label: Sym) -> Option<&BitSet> {
        self.labels.get(&label)
    }

    /// Number of distinct labels in the candidate index.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.vertices.len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    #[inline]
    fn vertex(&self, v: NodeId) -> &VertexData {
        &self.vertices[v.index()]
    }

    #[inline]
    fn interner(&self) -> &Interner {
        &self.interner
    }

    fn nodes_with_label(&self, label: Sym) -> Option<&BitSet> {
        self.label_set(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;

    fn sample() -> DiGraph {
        let mut g = DiGraph::new();
        let a = g.add_node("SA", [("experience", AttrValue::Int(7))]);
        let b = g.add_node("SD", [("experience", AttrValue::Int(3))]);
        let c = g.add_node("SD", []);
        let d = g.add_node("ST", []);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g.add_edge(d, a);
        g
    }

    #[test]
    fn adjacency_matches_source() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.version(), g.version());
        for v in g.ids() {
            assert_eq!(c.out_neighbors(v), g.out_neighbors(v), "out of {v}");
            assert_eq!(c.in_neighbors(v), g.in_neighbors(v), "in of {v}");
            assert_eq!(c.vertex(v).label(), g.vertex(v).label());
        }
    }

    #[test]
    fn label_index_partitions_nodes() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.label_count(), 3);
        let sd = g.interner().get("SD").unwrap();
        let set = c.label_set(sd).unwrap();
        assert_eq!(set.to_vec(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(c.nodes_with_label(sd), Some(set));
        // total membership covers every node exactly once
        let total: usize = ["SA", "SD", "ST"]
            .iter()
            .map(|l| c.label_set(g.interner().get(l).unwrap()).unwrap().count())
            .sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn attrs_survive_snapshot() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        let key = c.interner().get("experience").unwrap();
        assert_eq!(c.vertex(NodeId(0)).attr(key), Some(&AttrValue::Int(7)));
        assert_eq!(c.vertex(NodeId(3)).attr(key), None);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = DiGraph::new();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.label_count(), 0);
    }

    #[test]
    fn digraph_has_no_label_index() {
        let g = sample();
        let sd = g.interner().get("SD").unwrap();
        assert!(g.nodes_with_label(sd).is_none(), "default hook is None");
    }
}
