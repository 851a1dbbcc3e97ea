//! Structural graph diffs — the entry point for incremental index
//! patching.
//!
//! The live-update engine (bgi-ingest) re-materializes per-layer graphs
//! after every batch. Most batches touch a handful of vertices, yet the
//! per-layer search indexes used to be rebuilt from scratch whenever a
//! graph changed at all. A [`GraphDiff`] is the *structural delta*
//! between the old and new versions of one layer's graph — added
//! vertices and inserted/deleted edges — when that delta is
//! shape-compatible (vertex ids stable, labels unchanged, new vertices
//! appended at the end). The engine knows each layer's diff from the
//! rows it patched; [`diff_graphs`] derives the same delta from two
//! whole graphs, for callers (and tests) that only hold those.
//!
//! One index consumes the diff: [`crate::rclique::NeighborIndex::patched`]
//! drops each filled per-vertex ball that a changed edge of the
//! undirected view can move — a deleted edge on one of its shortest
//! paths whose far endpoint has no other way in at the same distance,
//! or an inserted edge that shortens one — judged from the old graph's
//! distances by a bit-parallel BFS per 32 changed edges, and
//! carries every other filled row over; dropped rows are recomputed on
//! first read. It is *exactly equivalent* to a rebuild, and returns
//! `None` when the index does not describe the graph the diff starts
//! from, so the caller rebuilds instead. BANKS and BLINKS keep no
//! index: they seed from the layer graph's label table, which
//! [`DiGraph::with_rows`] derives with the graph.

use bgi_graph::{DiGraph, LabelId, VId};

/// A small structural delta between two versions of a graph.
///
/// Produced by [`diff_graphs`]; vertex ids are shared between the two
/// versions (the new graph extends the old one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDiff {
    /// Labels of the appended vertices: the new graph's vertices
    /// `old_n .. old_n + added_labels.len()`.
    pub added_labels: Vec<LabelId>,
    /// Edges present in the new graph but not the old.
    pub inserted: Vec<(VId, VId)>,
    /// Edges present in the old graph but not the new.
    pub deleted: Vec<(VId, VId)>,
}

impl GraphDiff {
    /// Total number of edge operations in the delta.
    pub fn edge_ops(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// True when the delta is empty (the graphs are identical).
    pub fn is_empty(&self) -> bool {
        self.added_labels.is_empty() && self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Computes the structural delta from `old` to `new`, or `None` when
/// the two are not patch-compatible: the vertex set shrank, an existing
/// vertex changed label, or the edge delta exceeds `max_edge_ops`
/// (beyond which a rebuild is the better deal anyway).
pub fn diff_graphs(old: &DiGraph, new: &DiGraph, max_edge_ops: usize) -> Option<GraphDiff> {
    let n_old = old.num_vertices();
    let n_new = new.num_vertices();
    if n_new < n_old || new.labels()[..n_old] != *old.labels() {
        return None;
    }
    let added_labels = new.labels()[n_old..].to_vec();
    let mut inserted = Vec::new();
    let mut deleted = Vec::new();
    for v in 0..n_new as u32 {
        let src = VId(v);
        let old_row: &[VId] = if (v as usize) < n_old {
            old.out_neighbors(src)
        } else {
            &[]
        };
        let new_row = new.out_neighbors(src);
        // Both rows are sorted (CSR invariant): two-pointer sweep.
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_row.len() || j < new_row.len() {
            match (old_row.get(i), new_row.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    deleted.push((src, a));
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    inserted.push((src, b));
                    j += 1;
                }
                (Some(&a), None) => {
                    deleted.push((src, a));
                    i += 1;
                }
                (None, Some(&b)) => {
                    inserted.push((src, b));
                    j += 1;
                }
                (None, None) => {}
            }
            if inserted.len() + deleted.len() > max_edge_ops {
                return None;
            }
        }
    }
    Some(GraphDiff {
        added_labels,
        inserted,
        deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::GraphBuilder;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> DiGraph {
        GraphBuilder::from_edges(
            labels.iter().map(|&l| LabelId(l)).collect(),
            edges.iter().map(|&(u, v)| (VId(u), VId(v))).collect(),
        )
    }

    #[test]
    fn identical_graphs_diff_empty() {
        let a = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let d = diff_graphs(&a, &a, 8).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn edge_and_vertex_delta() {
        let old = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let new = g(&[0, 1, 2, 3], &[(0, 1), (0, 2), (3, 0)]);
        let d = diff_graphs(&old, &new, 8).unwrap();
        assert_eq!(d.added_labels, vec![LabelId(3)]);
        assert_eq!(d.inserted, vec![(VId(0), VId(2)), (VId(3), VId(0))]);
        assert_eq!(d.deleted, vec![(VId(1), VId(2))]);
        assert_eq!(d.edge_ops(), 3);
    }

    #[test]
    fn label_change_or_shrink_is_incompatible() {
        let old = g(&[0, 1], &[(0, 1)]);
        assert!(diff_graphs(&old, &g(&[0, 2], &[(0, 1)]), 8).is_none());
        assert!(diff_graphs(&old, &g(&[0], &[]), 8).is_none());
    }

    #[test]
    fn cap_bounds_the_delta() {
        let old = g(&[0; 10], &[]);
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let new = g(&[0; 10], &edges);
        assert!(diff_graphs(&old, &new, 4).is_none());
        assert!(diff_graphs(&old, &new, 9).is_some());
    }
}
