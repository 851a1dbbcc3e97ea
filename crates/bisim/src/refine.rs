//! Signature-based partition refinement, driven by a frontier of dirty
//! blocks.
//!
//! A vertex's *signature* is its current block plus the sorted set of
//! blocks of its neighbors in the chosen direction(s). A round re-signs
//! the members of every *dirty* block and splits each by signature. A
//! block is dirty when its members' signatures may disagree: in a full
//! build every block of the starting partition is; in a commit, the
//! blocks of the changed edges' endpoints are; after a round, every
//! block holding a predecessor (`Forward`), a successor (`Backward`) or
//! either (`Both`) of a member of a split block's fragments, all but the
//! largest, is. (If two members of a block disagree after a split, one
//! of them points into a fragment other than the largest.) A block no
//! round marks keeps identical signatures, so skipping it replays the
//! full signature rounds exactly. The fixpoint is the coarsest
//! stable refinement of the starting partition — from the label
//! partition, the maximal bisimulation `B` of Sec. 2 — which is unique,
//! and its numbering is canonical, so it does not depend on the order
//! splits were found in.
//!
//! A round costs `O(Σ deg · log deg)` over the members of the blocks it
//! re-signs, not over the graph: a full build's first round signs every
//! vertex, later rounds only the neighborhoods of what moved, and a
//! commit that splits nothing signs only the blocks of its endpoints.

use crate::partition::Partition;
use bgi_graph::{DiGraph, VId};
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

impl BisimDirection {
    fn forward(self) -> bool {
        matches!(self, BisimDirection::Forward | BisimDirection::Both)
    }

    fn backward(self) -> bool {
        matches!(self, BisimDirection::Backward | BisimDirection::Both)
    }
}

/// A partition under refinement: every vertex's block, plus every
/// block's members as one contiguous segment of `order`, in ascending
/// vertex order. A split lays its block's segment out again as one run
/// per signature — a stable distribution, so every run stays ascending
/// — and gives each run but the first a fresh id, so members stay
/// addressable per block without a vector per block, and a block's
/// lowest vertex is the head of its segment.
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    part: Partition,
    order: Vec<VId>,
    start: Vec<u32>,
    len: Vec<u32>,
}

impl Blocks {
    /// Groups `part`'s vertices by block.
    pub(crate) fn new(part: Partition) -> Blocks {
        let nb = part.num_blocks;
        let mut len = vec![0u32; nb];
        for &b in &part.block_of {
            len[b as usize] += 1;
        }
        let mut start = Vec::with_capacity(nb);
        let mut at = 0u32;
        for &l in &len {
            start.push(at);
            at += l;
        }
        let mut cursor = start.clone();
        let mut order = vec![VId(0); part.block_of.len()];
        for (v, &b) in part.block_of.iter().enumerate() {
            order[cursor[b as usize] as usize] = VId(v as u32);
            cursor[b as usize] += 1;
        }
        Blocks {
            part,
            order,
            start,
            len,
        }
    }

    pub(crate) fn partition(&self) -> &Partition {
        &self.part
    }

    pub(crate) fn into_partition(self) -> Partition {
        self.part
    }

    /// The members of block `b`, ascending.
    pub(crate) fn members(&self, b: u32) -> &[VId] {
        let s = self.start[b as usize] as usize;
        &self.order[s..s + self.len[b as usize] as usize]
    }

    /// Appends one vertex (id = the current vertex count) in a fresh
    /// singleton block.
    pub(crate) fn push_singleton(&mut self) {
        let v = self.part.block_of.len() as u32;
        self.start.push(self.order.len() as u32);
        self.len.push(1);
        self.order.push(VId(v));
        self.part.block_of.push(self.part.num_blocks as u32);
        self.part.num_blocks += 1;
    }

    /// Splits blocks until the partition is stable in `dir`, starting
    /// with the blocks listed in `dirty` (see the module docs). Every split
    /// keeps the fragment holding the block's lowest vertex under the
    /// block's id; the other fragments get fresh ids past the current
    /// count.
    pub(crate) fn refine(&mut self, g: &DiGraph, dir: BisimDirection, mut dirty: Vec<u32>) {
        let (forward, backward) = (dir.forward(), dir.backward());
        // `marked[b] == round` ⇔ block `b` is already on `dirty`.
        let mut round = 1u32;
        let mut marked = vec![0u32; self.part.num_blocks];
        dirty.retain(|&b| std::mem::replace(&mut marked[b as usize], round) != round);
        let mut arena: Vec<u32> = Vec::new();
        let mut spans: Vec<usize> = Vec::new();
        let mut sigs: Vec<u32> = Vec::new();
        let mut split = Splitter::default();
        while !dirty.is_empty() {
            // A singleton cannot split.
            dirty.retain(|&b| self.len[b as usize] >= 2);
            // Sign every member of every dirty block in one flat arena:
            // own block, then the sorted distinct neighbor blocks (under
            // `Both` the out-blocks' count precedes them, so the out/in
            // boundary is part of the key).
            arena.clear();
            spans.clear();
            for &b in &dirty {
                for &v in self.members(b) {
                    spans.push(arena.len());
                    arena.push(b);
                    if forward {
                        let count_slot = arena.len();
                        if backward {
                            arena.push(0);
                        }
                        let from = arena.len();
                        arena.extend(g.out_neighbors(v).iter().map(|&t| self.part.block_of(t)));
                        sort_dedup_from(&mut arena, from);
                        if backward {
                            arena[count_slot] = (arena.len() - from) as u32;
                        }
                    }
                    if backward {
                        let from = arena.len();
                        arena.extend(g.in_neighbors(v).iter().map(|&s| self.part.block_of(s)));
                        sort_dedup_from(&mut arena, from);
                    }
                }
            }
            spans.push(arena.len());
            // Densify signatures into ids (dense over this round).
            let mut ids: FxHashMap<&[u32], u32> =
                FxHashMap::with_capacity_and_hasher(spans.len(), Default::default());
            sigs.clear();
            for span in spans.windows(2) {
                let next = ids.len() as u32;
                sigs.push(*ids.entry(&arena[span[0]..span[1]]).or_insert(next));
            }
            split.reserve(ids.len());
            drop(ids);
            // Split every dirty block whose members disagree.
            split.moved.clear();
            let mut at = 0usize;
            for &b in &dirty {
                let k = self.len[b as usize] as usize;
                let block_sigs = &sigs[at..at + k];
                at += k;
                if block_sigs.iter().any(|&s| s != block_sigs[0]) {
                    split.split(self, b, block_sigs);
                }
            }
            // Mark the blocks whose signatures the moves can change.
            round += 1;
            marked.resize(self.part.num_blocks, 0);
            dirty.clear();
            for &(s, l) in &split.moved {
                for &v in &self.order[s as usize..(s + l) as usize] {
                    let mut mark = |w: VId| {
                        let b = self.part.block_of(w);
                        if marked[b as usize] != round {
                            marked[b as usize] = round;
                            dirty.push(b);
                        }
                    };
                    if forward {
                        g.in_neighbors(v).iter().for_each(|&p| mark(p));
                    }
                    if backward {
                        g.out_neighbors(v).iter().for_each(|&q| mark(q));
                    }
                }
            }
        }
    }

    /// Renumbers the blocks numbered `first..` in order of their lowest
    /// vertex, leaving every block below `first` as it is — the ids a
    /// refinement of a partition with `first` blocks hands its new
    /// fragments. `O(Σ |fragment|)`.
    pub(crate) fn renumber_from(&mut self, first: usize) {
        let nb = self.part.num_blocks;
        if nb - first < 2 {
            return;
        }
        let mut fresh: Vec<(u32, u32)> = (first..nb)
            .map(|b| (self.order[self.start[b] as usize].0, b as u32))
            .collect();
        fresh.sort_unstable();
        if fresh
            .iter()
            .enumerate()
            .all(|(i, &(_, b))| b as usize == first + i)
        {
            return;
        }
        let (start, len) = (self.start[first..].to_vec(), self.len[first..].to_vec());
        for (i, &(_, old)) in fresh.iter().enumerate() {
            self.start[first + i] = start[old as usize - first];
            self.len[first + i] = len[old as usize - first];
        }
        for new in first..nb {
            let s = self.start[new] as usize;
            for &v in &self.order[s..s + self.len[new] as usize] {
                self.part.block_of[v.index()] = new as u32;
            }
        }
    }
}

/// Scratch for splitting one block into its signature runs.
#[derive(Default)]
struct Splitter {
    /// Per signature id: run size, then run cursor; zero between uses.
    count: Vec<u32>,
    /// Distinct signatures of the block, in first-occurrence order.
    distinct: Vec<u32>,
    members: Vec<VId>,
    /// `(start, len)` segments of `order` holding the fragments this
    /// round's splits made, all but each split's largest: their
    /// neighbors' blocks are dirty in the next round.
    moved: Vec<(u32, u32)>,
}

impl Splitter {
    fn reserve(&mut self, num_sigs: usize) {
        if self.count.len() < num_sigs {
            self.count.resize(num_sigs, 0);
        }
    }

    /// Splits block `b` into one run per distinct signature (`sigs` is
    /// parallel to its segment), in first-occurrence order: the first
    /// run holds the block's lowest vertex and keeps its id.
    fn split(&mut self, blocks: &mut Blocks, b: u32, sigs: &[u32]) {
        let seg = blocks.start[b as usize] as usize;
        self.distinct.clear();
        self.members.clear();
        self.members
            .extend_from_slice(&blocks.order[seg..seg + sigs.len()]);
        for &s in sigs {
            if self.count[s as usize] == 0 {
                self.distinct.push(s);
            }
            self.count[s as usize] += 1;
        }
        // Lay the runs out in first-occurrence order; `count` turns
        // from run size into write cursor.
        let mut at = seg as u32;
        let mut largest = (0u32, 0usize);
        for (k, &s) in self.distinct.iter().enumerate() {
            let size = self.count[s as usize];
            if size > largest.0 {
                largest = (size, k);
            }
            self.count[s as usize] = at;
            at += size;
        }
        for (&s, &v) in sigs.iter().zip(&self.members) {
            blocks.order[self.count[s as usize] as usize] = v;
            self.count[s as usize] += 1;
        }
        // Cursors now sit at each run's end; walk the runs again. Every
        // run but the largest marks its neighbors (see the module docs).
        let mut run_start = seg as u32;
        for (k, &s) in self.distinct.iter().enumerate() {
            let end = self.count[s as usize];
            self.count[s as usize] = 0;
            let size = end - run_start;
            let id = if k == 0 {
                b
            } else {
                let id = blocks.part.num_blocks as u32;
                blocks.part.num_blocks += 1;
                blocks.start.push(0);
                blocks.len.push(0);
                for &v in &blocks.order[run_start as usize..end as usize] {
                    blocks.part.block_of[v.index()] = id;
                }
                id
            };
            blocks.start[id as usize] = run_start;
            blocks.len[id as usize] = size;
            if k != largest.1 {
                self.moved.push((run_start, size));
            }
            run_start = end;
        }
    }
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

/// The coarsest partition that refines `part` and is stable in `dir`,
/// numbered canonically (blocks in first-occurrence order of their
/// lowest vertex). With `part` the partition by some labelling of `g`'s
/// vertices — not necessarily the one `g` stores — this is the maximal
/// bisimulation of `g` under that labelling, without copying the graph
/// to relabel it.
pub fn coarsest_stable_refinement(g: &DiGraph, part: Partition, dir: BisimDirection) -> Partition {
    let nb = part.num_blocks() as u32;
    let mut blocks = Blocks::new(part);
    blocks.refine(g, dir, (0..nb).collect());
    canonical(blocks.into_partition())
}

/// `part` numbered canonically: blocks in first-occurrence order of
/// their lowest vertex, empty blocks dropped.
fn canonical(mut part: Partition) -> Partition {
    let mut map = vec![u32::MAX; part.num_blocks];
    let mut next = 0u32;
    for b in &mut part.block_of {
        if map[*b as usize] == u32::MAX {
            map[*b as usize] = next;
            next += 1;
        }
        *b = map[*b as usize];
    }
    part.num_blocks = next as usize;
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::is_stable;
    use bgi_graph::{GraphBuilder, LabelId};

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
        // a -> b, c isolated, all one label.
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
    fn fixpoint_is_stable_and_canonical() {
        let g = bgi_graph::generate::uniform_random(150, 450, 3, 5);
        for dir in [
            BisimDirection::Forward,
            BisimDirection::Backward,
            BisimDirection::Both,
        ] {
            let p = maximal_bisimulation(&g, dir);
            assert!(is_stable(&g, &p, dir));
            // Refining a stable partition splits nothing and numbers it
            // canonically: block ids appear in vertex order.
            assert_eq!(coarsest_stable_refinement(&g, p.clone(), dir), p);
            let mut next = 0;
            for &b in p.assignment() {
                assert!(b <= next);
                next = next.max(b + 1);
            }
        }
    }

    #[test]
    fn segments_track_blocks_through_splits() {
        let g = bgi_graph::generate::uniform_random(120, 300, 2, 9);
        let mut blocks = Blocks::new(Partition::from_labels(g.labels()));
        let nb = blocks.partition().num_blocks() as u32;
        blocks.refine(&g, BisimDirection::Both, (0..nb).collect());
        let part = blocks.partition().clone();
        let mut seen = vec![false; g.num_vertices()];
        for b in 0..part.num_blocks() as u32 {
            let members = blocks.members(b);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
            for &v in members {
                assert_eq!(part.block_of(v), b);
                assert!(!std::mem::replace(&mut seen[v.index()], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(
            canonical(part),
            maximal_bisimulation(&g, BisimDirection::Both)
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let p = maximal_bisimulation(&g, BisimDirection::Forward);
        assert_eq!(p.num_blocks(), 0);
        assert_eq!(p.num_vertices(), 0);
    }
}
