//! Signature-based partition refinement.
//!
//! Starting from the label partition, every round recomputes each
//! vertex's *signature* — its current block plus the sorted set of blocks
//! of its neighbors in the chosen direction(s) — and re-buckets vertices
//! by signature. The fixpoint is the coarsest stable partition, i.e. the
//! maximal bisimulation relation `B` of Sec. 2. Each round is `O(m log m)`
//! and the number of rounds is bounded by the graph's refinement depth
//! (≤ n, in practice close to the diameter).

use crate::partition::Partition;
use bgi_graph::DiGraph;
use rustc_hash::FxHashMap;

/// Which neighbors determine bisimilarity.
///
/// The paper's Sec. 2 definition matches edges out of both related
/// vertices (same-label vertices with matchable *successors*), which is
/// [`BisimDirection::Forward`]; it is the default used by BiG-index
/// because keyword search traverses paths and forward bisimulation
/// preserves them in both the summary's edge orientation senses (every
/// original edge has a summary edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisimDirection {
    /// Bisimilarity determined by out-neighbors (successors).
    Forward,
    /// Bisimilarity determined by in-neighbors (predecessors).
    Backward,
    /// Determined by both; the finest of the three.
    Both,
}

/// One refinement round: re-bucket vertices by
/// `(block, neighbor blocks)`. Returns the refined partition; the block
/// count is non-decreasing.
///
/// Every signature lives in one flat arena — own block, then the sorted
/// distinct neighbor blocks (under [`BisimDirection::Both`] the
/// out-blocks' count precedes them, so the out/in boundary is part of
/// the key) — and vertices are bucketed by hashing their arena slice:
/// a round allocates two vectors and a table, not two vectors per
/// vertex. Block ids are handed out in first-occurrence vertex order.
pub(crate) fn refine_round(g: &DiGraph, part: &Partition, dir: BisimDirection) -> Partition {
    let n = g.num_vertices();
    let forward = matches!(dir, BisimDirection::Forward | BisimDirection::Both);
    let backward = matches!(dir, BisimDirection::Backward | BisimDirection::Both);
    let per_edge = usize::from(forward) + usize::from(backward);
    let mut arena: Vec<u32> = Vec::with_capacity(2 * n + per_edge * g.num_edges());
    let mut starts: Vec<usize> = Vec::with_capacity(n + 1);
    for v in g.vertices() {
        starts.push(arena.len());
        arena.push(part.block_of(v));
        if forward {
            let count_slot = arena.len();
            if backward {
                arena.push(0);
            }
            let from = arena.len();
            arena.extend(g.out_neighbors(v).iter().map(|&t| part.block_of(t)));
            sort_dedup_from(&mut arena, from);
            if backward {
                arena[count_slot] = (arena.len() - from) as u32;
            }
        }
        if backward {
            let from = arena.len();
            arena.extend(g.in_neighbors(v).iter().map(|&s| part.block_of(s)));
            sort_dedup_from(&mut arena, from);
        }
    }
    starts.push(arena.len());
    // Densify signatures into new block ids.
    let mut ids: FxHashMap<&[u32], u32> =
        FxHashMap::with_capacity_and_hasher(part.num_blocks(), Default::default());
    let mut block_of = Vec::with_capacity(n);
    for span in starts.windows(2) {
        let next = ids.len() as u32;
        block_of.push(*ids.entry(&arena[span[0]..span[1]]).or_insert(next));
    }
    let num_blocks = ids.len();
    Partition::new(block_of, num_blocks)
}

/// Sorts `v[from..]` and drops its duplicates, in place.
fn sort_dedup_from(v: &mut Vec<u32>, from: usize) {
    v[from..].sort_unstable();
    let mut kept = from;
    for i in from..v.len() {
        if kept == from || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// Computes the maximal bisimulation of `g` as a [`Partition`]:
/// the coarsest partition where equivalent vertices share a label and
/// matching neighbor blocks in `dir`.
pub fn maximal_bisimulation(g: &DiGraph, dir: BisimDirection) -> Partition {
    coarsest_stable_refinement(g, Partition::from_labels(g.labels()), dir)
}

/// Refines `part` round by round until no block splits: the coarsest
/// partition that refines `part` and is stable in `dir`. With `part`
/// the partition by some labelling of `g`'s vertices — not necessarily
/// the one `g` stores — this is the maximal bisimulation of `g` under
/// that labelling, without copying the graph to relabel it.
pub fn coarsest_stable_refinement(
    g: &DiGraph,
    mut part: Partition,
    dir: BisimDirection,
) -> Partition {
    loop {
        let next = refine_round(g, &part, dir);
        if next.num_blocks() == part.num_blocks() {
            return next;
        }
        part = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId, VId};
    use proptest::prelude::*;

    /// The paper's motivating shape: many same-labeled vertices all
    /// pointing at one shared vertex.
    fn fan(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(1));
        for _ in 0..n {
            let p = b.add_vertex(LabelId(0));
            b.add_edge(p, hub);
        }
        b.build()
    }

    #[test]
    fn fan_collapses_to_two_blocks() {
        let g = fan(100);
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert_eq!(p.num_blocks(), 2);
        assert!(p.equivalent(VId(1), VId(100)));
        assert!(!p.equivalent(VId(0), VId(1)));
    }

    #[test]
    fn labels_always_split() {
        let mut b = GraphBuilder::new();
        b.add_vertex(LabelId(0));
        b.add_vertex(LabelId(1));
        let g = b.build();
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert_eq!(p.num_blocks(), 2);
    }

    #[test]
    fn chain_is_fully_discrete_forward() {
        // 0 -> 1 -> 2 with equal labels: distance-to-sink differs, so all
        // three vertices are distinguishable under forward bisim.
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(LabelId(0));
        }
        b.add_edge(VId(0), VId(1));
        b.add_edge(VId(1), VId(2));
        let g = b.build();
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert_eq!(p.num_blocks(), 3);
    }

    #[test]
    fn directions_differ() {
        // star out: hub -> leaves. Forward: leaves (no out-edges) collapse.
        // Backward: leaves have hub as predecessor, also collapse; hub has
        // none. Both agree here, so build an asymmetric case:
        // a -> b, c (labels: a=0, b=0, c=0), edges: a->b only.
        // Forward: a has successor, b/c have none -> {a}, {b, c}.
        // Backward: b has predecessor, a/c have none -> {a, c}, {b}.
        let mut bld = GraphBuilder::new();
        let a = bld.add_vertex(LabelId(0));
        let b = bld.add_vertex(LabelId(0));
        let c = bld.add_vertex(LabelId(0));
        bld.add_edge(a, b);
        let g = bld.build();
        let fwd = maximal_bisimulation(&g, BisimDirection::Forward);
        let bwd = maximal_bisimulation(&g, BisimDirection::Backward);
        assert!(fwd.equivalent(b, c) && !fwd.equivalent(a, b));
        assert!(bwd.equivalent(a, c) && !bwd.equivalent(a, b));
        let both = maximal_bisimulation(&g, BisimDirection::Both);
        assert_eq!(both.num_blocks(), 3);
    }

    #[test]
    fn cycle_vertices_collapse() {
        // A directed 3-cycle with one label: all vertices bisimilar.
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(LabelId(0));
        }
        b.add_edge(VId(0), VId(1));
        b.add_edge(VId(1), VId(2));
        b.add_edge(VId(2), VId(0));
        let g = b.build();
        let p = maximal_bisimulation(&g, BisimDirection::Both);
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn result_refines_label_partition() {
        let g = bgi_graph::generate::uniform_random(200, 600, 4, 11);
        let labels = Partition::from_labels(g.labels());
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert!(labels.is_refined_by(&p));
    }

    #[test]
    fn fixpoint_is_stable() {
        let g = bgi_graph::generate::uniform_random(150, 450, 3, 5);
        for dir in [
            BisimDirection::Forward,
            BisimDirection::Backward,
            BisimDirection::Both,
        ] {
            let p = maximal_bisimulation(&g, dir);
            let again = refine_round(&g, &p, dir);
            assert_eq!(again.num_blocks(), p.num_blocks());
        }
    }

    /// The round as it was before the flat arena: two cloned vectors
    /// per vertex, bucketed through a map keyed by the tuple. Kept here
    /// as the reference the rewrite must match id for id.
    fn refine_round_reference(g: &DiGraph, part: &Partition, dir: BisimDirection) -> Partition {
        let n = g.num_vertices();
        let mut sigs: Vec<(u32, Vec<u32>, Vec<u32>)> = Vec::with_capacity(n);
        let mut out_scratch: Vec<u32> = Vec::new();
        let mut in_scratch: Vec<u32> = Vec::new();
        for v in g.vertices() {
            out_scratch.clear();
            in_scratch.clear();
            if matches!(dir, BisimDirection::Forward | BisimDirection::Both) {
                out_scratch.extend(g.out_neighbors(v).iter().map(|&t| part.block_of(t)));
                out_scratch.sort_unstable();
                out_scratch.dedup();
            }
            if matches!(dir, BisimDirection::Backward | BisimDirection::Both) {
                in_scratch.extend(g.in_neighbors(v).iter().map(|&s| part.block_of(s)));
                in_scratch.sort_unstable();
                in_scratch.dedup();
            }
            sigs.push((part.block_of(v), out_scratch.clone(), in_scratch.clone()));
        }
        let mut ids: FxHashMap<&(u32, Vec<u32>, Vec<u32>), u32> = FxHashMap::default();
        let mut block_of = Vec::with_capacity(n);
        for sig in &sigs {
            let next = ids.len() as u32;
            let id = *ids.entry(sig).or_insert(next);
            block_of.push(id);
        }
        let num_blocks = ids.len();
        Partition::new(block_of, num_blocks)
    }

    /// The greatest bisimulation straight from Sec. 2's definition, with
    /// no partition refinement: start from every same-label pair and
    /// drop `(u, v)` while some neighbor of one (successor, predecessor,
    /// or both, per `dir`) has no related neighbor at the other. Returns
    /// the relation as an `n × n` matrix.
    fn bisimilarity_reference(g: &DiGraph, dir: BisimDirection) -> Vec<Vec<bool>> {
        let n = g.num_vertices();
        let mut rel: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..n).map(|v| g.labels()[u] == g.labels()[v]).collect())
            .collect();
        // Every `a` in `from` has some related `b` in `to`.
        let matched = |rel: &[Vec<bool>], from: &[VId], to: &[VId]| {
            from.iter()
                .all(|a| to.iter().any(|b| rel[a.index()][b.index()]))
        };
        let forward = matches!(dir, BisimDirection::Forward | BisimDirection::Both);
        let backward = matches!(dir, BisimDirection::Backward | BisimDirection::Both);
        loop {
            let mut changed = false;
            for (u, v) in g.vertices().flat_map(|u| g.vertices().map(move |v| (u, v))) {
                if !rel[u.index()][v.index()] {
                    continue;
                }
                let both_ways = |adj: fn(&DiGraph, VId) -> &[VId]| {
                    matched(&rel, adj(g, u), adj(g, v)) && matched(&rel, adj(g, v), adj(g, u))
                };
                let keep = (!forward || both_ways(DiGraph::out_neighbors))
                    && (!backward || both_ways(DiGraph::in_neighbors));
                if !keep {
                    rel[u.index()][v.index()] = false;
                    rel[v.index()][u.index()] = false;
                    changed = true;
                }
            }
            if !changed {
                return rel;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every round of the rewrite, from the label partition to the
        /// fixpoint, returns the reference's partition assignment for
        /// assignment, in all three directions; the fixpoint relates
        /// exactly the pairs the definition-level greatest fixpoint
        /// relates; and the counted quotient size is the built
        /// summary's size.
        #[test]
        fn rounds_match_the_reference_id_for_id(
            n in 1usize..48,
            num_labels in 1u32..5,
            labels in proptest::collection::vec(0u32..1000, 48),
            edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..160),
        ) {
            // Self-loops and parallel edges stay in: both are legal
            // input and both reach the signature.
            let labels: Vec<LabelId> = labels[..n].iter().map(|l| LabelId(l % num_labels)).collect();
            let edges = edges
                .iter()
                .map(|&(u, v)| (VId(u % n as u32), VId(v % n as u32)))
                .collect();
            let g = GraphBuilder::from_edges(labels, edges);
            for dir in [
                BisimDirection::Forward,
                BisimDirection::Backward,
                BisimDirection::Both,
            ] {
                let mut part = Partition::from_labels(g.labels());
                loop {
                    let next = refine_round(&g, &part, dir);
                    let expect = refine_round_reference(&g, &part, dir);
                    prop_assert_eq!(next.assignment(), expect.assignment());
                    prop_assert_eq!(next.num_blocks(), expect.num_blocks());
                    let done = next.num_blocks() == part.num_blocks();
                    part = next;
                    if done {
                        break;
                    }
                }
                prop_assert_eq!(&part, &maximal_bisimulation(&g, dir));
                let rel = bisimilarity_reference(&g, dir);
                for (u, v) in g.vertices().flat_map(|u| g.vertices().map(move |v| (u, v))) {
                    prop_assert_eq!(rel[u.index()][v.index()], part.equivalent(u, v));
                }
                prop_assert_eq!(
                    crate::quotient_size(&g, &part),
                    crate::summarize(&g, &part).graph.size()
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert_eq!(p.num_blocks(), 0);
        assert_eq!(p.num_vertices(), 0);
    }
}
