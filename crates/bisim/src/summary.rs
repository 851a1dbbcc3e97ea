//! Summary graph construction: `Bisim(G)` and its reverse `Bisim⁻¹`.
//!
//! Given a partition `B` of `G`, the summary graph (Sec. 2) has one
//! supernode per block with the block's (common) label, and an edge
//! `([u], [v])` for every original edge `(u, v)` (duplicates merged).
//! `Bisim⁻¹` — needed for answer generation — is the `members` table
//! mapping each supernode back to its original vertices.

use crate::partition::Partition;
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};

/// A summary graph plus the two-way vertex correspondence with the graph
/// it summarizes.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The summary graph `Bisim(G)`; vertex `b` is the supernode of
    /// block `b` of the partition.
    pub graph: DiGraph,
    /// `χ`: original vertex → supernode (`Bisim(v)` in the paper).
    supernode_of: Vec<VId>,
    /// `Bisim⁻¹`: supernode → original vertices, ascending.
    members: Vec<Vec<VId>>,
}

impl Summary {
    /// The supernode containing original vertex `v`.
    #[inline]
    pub fn supernode_of(&self, v: VId) -> VId {
        self.supernode_of[v.index()]
    }

    /// The original vertices summarized by supernode `s` (`Bisim⁻¹(s)`).
    #[inline]
    pub fn members(&self, s: VId) -> &[VId] {
        &self.members[s.index()]
    }

    /// Compression ratio `|Bisim(G)| / |G|` given the original size.
    pub fn compression_ratio(&self, original_size: usize) -> f64 {
        if original_size == 0 {
            1.0
        } else {
            self.graph.size() as f64 / original_size as f64
        }
    }
}

/// Builds the summary graph of `g` under partition `part`.
///
/// The partition must assign same-label vertices to each block (as any
/// bisimulation partition does); the supernode label is taken from the
/// first member. Asserted in debug builds.
pub fn summarize(g: &DiGraph, part: &Partition) -> Summary {
    let supernode_of = part.assignment().iter().map(|&b| VId(b)).collect();
    Summary {
        graph: quotient_graph(g, part),
        supernode_of,
        members: part.blocks(),
    }
}

/// The summary graph alone — [`summarize`]'s `graph`, without the
/// correspondence tables.
pub fn quotient_graph(g: &DiGraph, part: &Partition) -> DiGraph {
    let nb = part.num_blocks();
    // The label of each block's first (lowest) member.
    let mut labels: Vec<Option<LabelId>> = vec![None; nb];
    for v in g.vertices() {
        let slot = &mut labels[part.block_of(v) as usize];
        debug_assert!(
            slot.is_none_or(|l| l == g.label(v)),
            "partition mixes labels within a block"
        );
        slot.get_or_insert(g.label(v));
    }
    debug_assert!(
        labels.iter().all(Option::is_some),
        "partition blocks must be non-empty"
    );
    let mut b = GraphBuilder::with_capacity(nb, g.num_edges());
    for label in labels {
        b.add_vertex(label.unwrap_or(LabelId(0)));
    }
    for (u, v) in g.edges() {
        b.add_edge(VId(part.block_of(u)), VId(part.block_of(v)));
    }
    b.build()
}

/// `|Bisim(G)|` under `part` — blocks plus distinct block pairs joined
/// by an edge, i.e. `summarize(g, part).graph.size()` — counted without
/// building the summary graph.
pub fn quotient_size(g: &DiGraph, part: &Partition) -> usize {
    let mut pairs: Vec<u64> = g
        .edges()
        .map(|(u, v)| u64::from(part.block_of(u)) << 32 | u64::from(part.block_of(v)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    part.num_blocks() + pairs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{maximal_bisimulation, BisimDirection};
    use bgi_graph::{GraphBuilder, LabelId};

    /// 100 Person vertices all pointing at one Univ vertex which points at
    /// one Western vertex — the Fig. 1/3/4 motif.
    fn persons_univ_state() -> DiGraph {
        let mut b = GraphBuilder::new();
        let univ = b.add_vertex(LabelId(1));
        let state = b.add_vertex(LabelId(2));
        b.add_edge(univ, state);
        for _ in 0..100 {
            let p = b.add_vertex(LabelId(0));
            b.add_edge(p, univ);
        }
        b.build()
    }

    #[test]
    fn fig4_shape() {
        let g = persons_univ_state();
        let part = maximal_bisimulation(&g, BisimDirection::Forward);
        let s = summarize(&g, &part);
        // Person*, Univ, Western -> 3 supernodes, 2 edges.
        assert_eq!(s.graph.num_vertices(), 3);
        assert_eq!(s.graph.num_edges(), 2);
        let person_super = s.supernode_of(VId(2));
        assert_eq!(s.members(person_super).len(), 100);
    }

    #[test]
    fn members_partition_the_vertices() {
        let g = persons_univ_state();
        let part = maximal_bisimulation(&g, BisimDirection::Forward);
        let s = summarize(&g, &part);
        let mut all: Vec<VId> = (0..s.graph.num_vertices() as u32)
            .flat_map(|b| s.members(VId(b)).to_vec())
            .collect();
        all.sort_unstable();
        let expect: Vec<VId> = g.vertices().collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn supernode_labels_match_members() {
        let g = persons_univ_state();
        let part = maximal_bisimulation(&g, BisimDirection::Forward);
        let s = summarize(&g, &part);
        for v in g.vertices() {
            assert_eq!(s.graph.label(s.supernode_of(v)), g.label(v));
        }
    }

    #[test]
    fn every_edge_is_represented() {
        let g = bgi_graph::generate::uniform_random(120, 360, 3, 17);
        let part = maximal_bisimulation(&g, BisimDirection::Forward);
        let s = summarize(&g, &part);
        for (u, v) in g.edges() {
            assert!(
                s.graph.has_edge(s.supernode_of(u), s.supernode_of(v)),
                "edge ({u:?}, {v:?}) lost in summary"
            );
        }
    }

    #[test]
    fn compression_ratio_bounds() {
        let g = persons_univ_state();
        let part = maximal_bisimulation(&g, BisimDirection::Forward);
        let s = summarize(&g, &part);
        let ratio = s.compression_ratio(g.size());
        assert!(ratio > 0.0 && ratio < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn discrete_partition_is_isomorphic_copy() {
        let g = bgi_graph::generate::uniform_random(40, 100, 3, 2);
        let part = Partition::discrete(g.num_vertices());
        let s = summarize(&g, &part);
        assert_eq!(s.graph.num_vertices(), g.num_vertices());
        assert_eq!(s.graph.num_edges(), g.num_edges());
    }
}
