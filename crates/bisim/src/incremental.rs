//! Incremental maintenance of a bisimulation partition under edge
//! updates (Sec. 3.2, "Maintenance of BiG-index").
//!
//! Inserting or deleting an edge can *split* blocks (vertices that were
//! equivalent no longer are) and, in principle, also *merge* them. Like
//! the practical algorithm the paper adopts (Deng et al. [7]), we apply
//! splits eagerly and defer merges: [`IncrementalBisim::apply_batch`]
//! refines the current partition until it is stable again. The result
//! is a valid (stable) bisimulation — hence label- and path-preserving,
//! so queries stay correct — but possibly finer than the maximal one;
//! callers rebuild periodically to restore maximal compression, exactly
//! as the paper prescribes ("BiG-index can be recomputed occasionally").
//!
//! The partition does not own a graph: the caller keeps one graph and
//! hands it to every call, so several partitions of one vertex set —
//! the ingest engine keeps one per hierarchy layer — share it. Labels
//! never enter refinement (the blocks already separate them), so one
//! base graph serves partitions of differently generalized labellings.
//! A batch seeds the frontier kernel ([`crate::refine`]) with the
//! blocks of the changed edges' endpoints, so a commit costs the
//! neighborhoods of what it splits, not the graph.
//!
//! [`IncrementalBisim::drift`] exposes how far the maintained partition
//! has drifted since the last rebuild (updates applied and block-count
//! growth) so a policy layer — bgi-ingest's staleness tracker — can
//! decide when "occasionally" is now.

use crate::partition::Partition;
use crate::refine::{maximal_bisimulation, BisimDirection, Blocks};
use bgi_graph::{DiGraph, VId};

/// A partition maintained under edge updates of a caller-owned graph.
#[derive(Debug, Clone)]
pub struct IncrementalBisim {
    blocks: Blocks,
    dir: BisimDirection,
    updates_since_rebuild: usize,
    blocks_at_rebuild: usize,
}

/// An edge-level update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Insert edge `(u, v)`.
    InsertEdge(VId, VId),
    /// Delete edge `(u, v)` (no-op if absent).
    DeleteEdge(VId, VId),
    /// Add an isolated vertex. It starts in a fresh singleton block
    /// (split-only maintenance never merges it; a rebuild will).
    AddVertex,
}

/// How far the maintained partition has drifted from the last full
/// rebuild. Split-only maintenance is monotone: blocks only get finer,
/// so `blocks - blocks_at_rebuild` bounds the compression lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drift {
    /// Updates applied since the last rebuild.
    pub updates: usize,
    /// Current number of blocks.
    pub blocks: usize,
    /// Block count right after the last rebuild (or construction).
    pub blocks_at_rebuild: usize,
}

impl Drift {
    /// Blocks gained since the last rebuild — the compression the
    /// deferred merges would win back. (Vertex additions legitimately
    /// add blocks too; the policy layer treats growth as a proxy.)
    pub fn block_growth(&self) -> usize {
        self.blocks.saturating_sub(self.blocks_at_rebuild)
    }
}

impl IncrementalBisim {
    /// Starts from `g`'s maximal bisimulation (under `g`'s labels).
    pub fn new(g: &DiGraph, dir: BisimDirection) -> Self {
        Self::adopt(Blocks::new(maximal_bisimulation(g, dir)), dir)
    }

    /// Starts from a caller-supplied partition — e.g. one recovered
    /// from a served index's `χ` table — instead of recomputing the
    /// maximal bisimulation. The partition is adopted as given, ids
    /// included, so the caller's tables keep matching it. Returns
    /// `None` when it does not cover `g`'s vertices, has an empty
    /// block, or is not stable in `dir`: repairing an unstable
    /// partition would renumber blocks the caller's tables still name.
    /// Label uniformity is the caller's to check (the labelling is
    /// theirs). Stability costs one refinement round over every block.
    pub fn from_partition(g: &DiGraph, partition: Partition, dir: BisimDirection) -> Option<Self> {
        if partition.num_vertices() != g.num_vertices() {
            return None;
        }
        let nb = partition.num_blocks() as u32;
        let mut blocks = Blocks::new(partition);
        if (0..nb).any(|b| blocks.members(b).is_empty()) {
            return None;
        }
        blocks.refine(g, dir, (0..nb).collect());
        (blocks.partition().num_blocks() == nb as usize).then(|| Self::adopt(blocks, dir))
    }

    fn adopt(blocks: Blocks, dir: BisimDirection) -> Self {
        let nb = blocks.partition().num_blocks();
        IncrementalBisim {
            blocks,
            dir,
            updates_since_rebuild: 0,
            blocks_at_rebuild: nb,
        }
    }

    /// The current (stable, possibly non-maximal) partition.
    pub fn partition(&self) -> &Partition {
        self.blocks.partition()
    }

    /// The vertices of block `b`, ascending.
    pub fn members(&self, b: u32) -> &[VId] {
        self.blocks.members(b)
    }

    /// Drift from the last rebuild — what a staleness policy consults.
    pub fn drift(&self) -> Drift {
        Drift {
            updates: self.updates_since_rebuild,
            blocks: self.partition().num_blocks(),
            blocks_at_rebuild: self.blocks_at_rebuild,
        }
    }

    /// Restores stability after `updates` turned the graph this
    /// partition describes into `g` (splits only; merges are deferred
    /// to a rebuild). Vertices `g` has beyond the partition enter as
    /// fresh singleton blocks, in id order; edge updates seed the
    /// refinement with their endpoints' blocks, and edge updates naming
    /// a vertex `g` lacks are ignored. Ids stay stable: untouched blocks
    /// keep their number, and within each block that splits the
    /// fragment holding its lowest vertex inherits the id while the
    /// others get fresh ids past the old count, in order of their
    /// lowest vertex. The ingest engine's summary patching and
    /// per-layer index patching depend on this to localize their work.
    pub fn apply_batch(&mut self, g: &DiGraph, updates: &[Update]) {
        let n = g.num_vertices();
        while self.partition().num_vertices() < n {
            self.blocks.push_singleton();
        }
        let parent = self.partition().num_blocks();
        let part = self.partition();
        let mut seeds: Vec<u32> = Vec::new();
        for u in updates {
            if let Update::InsertEdge(a, b) | Update::DeleteEdge(a, b) = *u {
                if a.index() >= n || b.index() >= n {
                    continue;
                }
                if self.dir != BisimDirection::Backward {
                    seeds.push(part.block_of(a));
                }
                if self.dir != BisimDirection::Forward {
                    seeds.push(part.block_of(b));
                }
            }
        }
        self.blocks.refine(g, self.dir, seeds);
        self.blocks.renumber_from(parent);
        self.updates_since_rebuild += updates.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::is_stable;
    use bgi_graph::{GraphBuilder, LabelId};

    fn fan(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(1));
        for _ in 0..n {
            let p = b.add_vertex(LabelId(0));
            b.add_edge(p, hub);
        }
        b.build()
    }

    /// `g` with `updates` applied, the way a caller keeping the graph
    /// would: vertex additions append with `label`.
    fn applied(g: &DiGraph, updates: &[Update], label: LabelId) -> DiGraph {
        let mut labels = g.labels().to_vec();
        let mut edges: Vec<(VId, VId)> = g.edges().collect();
        for u in updates {
            match *u {
                Update::InsertEdge(a, b) => {
                    if a.index() < labels.len() && b.index() < labels.len() {
                        edges.push((a, b));
                    }
                }
                Update::DeleteEdge(a, b) => edges.retain(|&e| e != (a, b)),
                Update::AddVertex => labels.push(label),
            }
        }
        GraphBuilder::from_edges(labels, edges)
    }

    /// Applies `updates` to both the graph and the partition.
    fn apply(inc: &mut IncrementalBisim, g: &mut DiGraph, updates: &[Update]) {
        *g = applied(g, updates, LabelId(0));
        inc.apply_batch(g, updates);
    }

    #[test]
    fn split_keeps_untouched_block_ids_stable() {
        // 10 bisimilar persons plus hub and other: splitting one person
        // off must leave every untouched block's id unchanged and put
        // the fragment at the end — the contract summary patching and
        // per-layer index patching rely on.
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(1));
        let other = b.add_vertex(LabelId(2));
        let mut persons = vec![];
        for _ in 0..10 {
            let p = b.add_vertex(LabelId(0));
            b.add_edge(p, hub);
            persons.push(p);
        }
        let mut g = b.build();
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        let before = inc.partition().assignment().to_vec();
        let old_blocks = inc.partition().num_blocks();
        // Split a person that is NOT the lowest-id member of its block.
        apply(&mut inc, &mut g, &[Update::InsertEdge(persons[3], other)]);
        let after = inc.partition().assignment();
        for v in 0..before.len() {
            if VId(v as u32) == persons[3] {
                assert_eq!(after[v] as usize, old_blocks, "fragment gets a fresh id");
            } else {
                assert_eq!(after[v], before[v], "untouched vertex {v} moved blocks");
            }
        }
        assert_eq!(inc.partition().num_blocks(), old_blocks + 1);
        assert_eq!(inc.members(old_blocks as u32), &[persons[3]]);
    }

    #[test]
    fn insert_splits_affected_block() {
        // 10 bisimilar persons; give one of them an extra edge to a new
        // target — it must split off.
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(1));
        let other = b.add_vertex(LabelId(2));
        let mut persons = vec![];
        for _ in 0..10 {
            let p = b.add_vertex(LabelId(0));
            b.add_edge(p, hub);
            persons.push(p);
        }
        let mut g = b.build();
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        assert_eq!(inc.partition().num_blocks(), 3);

        apply(&mut inc, &mut g, &[Update::InsertEdge(persons[0], other)]);
        assert_eq!(inc.partition().num_blocks(), 4);
        assert!(!inc.partition().equivalent(persons[0], persons[1]));
        assert!(is_stable(&g, inc.partition(), BisimDirection::Forward));
    }

    #[test]
    fn delete_keeps_partition_stable() {
        let mut g = fan(5);
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        apply(&mut inc, &mut g, &[Update::DeleteEdge(VId(1), VId(0))]);
        assert!(is_stable(&g, inc.partition(), BisimDirection::Forward));
        // The person who lost its edge is no longer like the others.
        assert!(!inc.partition().equivalent(VId(1), VId(2)));
    }

    #[test]
    fn merges_are_deferred_and_drift_counts_them() {
        let mut g = fan(6);
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        // Delete and reinsert the same edge: the graph is back to the
        // original, but the incremental partition stays split.
        apply(&mut inc, &mut g, &[Update::DeleteEdge(VId(1), VId(0))]);
        apply(&mut inc, &mut g, &[Update::InsertEdge(VId(1), VId(0))]);
        assert!(inc.partition().num_blocks() > 2);
        let drift = inc.drift();
        assert_eq!(drift.updates, 2);
        assert!(drift.block_growth() > 0);
        // A fresh start is maximal again.
        let rebuilt = IncrementalBisim::new(&g, BisimDirection::Forward);
        assert_eq!(rebuilt.partition().num_blocks(), 2);
        assert_eq!(rebuilt.drift().block_growth(), 0);
    }

    #[test]
    fn incremental_refines_maximal() {
        // After any update sequence the incremental partition must refine
        // the true maximal bisimulation of the current graph.
        let mut g = fan(8);
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        apply(&mut inc, &mut g, &[Update::InsertEdge(VId(2), VId(3))]);
        apply(&mut inc, &mut g, &[Update::DeleteEdge(VId(4), VId(0))]);
        let maximal = maximal_bisimulation(&g, BisimDirection::Forward);
        assert!(maximal.is_refined_by(inc.partition()));
    }

    #[test]
    fn add_vertex_gets_singleton_block_and_can_be_wired() {
        let mut g = fan(4);
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        let n = g.num_vertices();
        apply(
            &mut inc,
            &mut g,
            &[Update::AddVertex, Update::InsertEdge(VId(n as u32), VId(0))],
        );
        assert_eq!(inc.partition().num_vertices(), n + 1);
        assert!(is_stable(&g, inc.partition(), BisimDirection::Forward));
        // The new person is bisimilar to the old ones but stays in its
        // own (finer) block until a rebuild merges it back.
        assert!(!inc.partition().equivalent(VId(n as u32), VId(1)));
        let rebuilt = IncrementalBisim::new(&g, BisimDirection::Forward);
        assert!(rebuilt.partition().equivalent(VId(n as u32), VId(1)));
    }

    #[test]
    fn edge_to_unknown_vertex_is_ignored() {
        let g = fan(3);
        let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
        let before = inc.partition().clone();
        inc.apply_batch(&g, &[Update::InsertEdge(VId(0), VId(999))]);
        assert_eq!(inc.partition(), &before);
    }

    #[test]
    fn from_partition_adopts_stable_and_rejects_the_rest() {
        let g = fan(5);
        let maximal = maximal_bisimulation(&g, BisimDirection::Forward);
        let inc = IncrementalBisim::from_partition(&g, maximal.clone(), BisimDirection::Forward)
            .expect("matching partition accepted");
        assert_eq!(inc.partition(), &maximal);
        assert_eq!(inc.drift().block_growth(), 0);

        // A stable but non-maximal partition keeps its ids.
        let discrete = Partition::discrete(g.num_vertices());
        let inc = IncrementalBisim::from_partition(&g, discrete.clone(), BisimDirection::Forward)
            .expect("stable partition accepted");
        assert_eq!(inc.partition(), &discrete);

        // Unstable → rejected, not repaired: the chain 0 → 1 → 2 → 3
        // with {0, 1, 2}, {3}.
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(LabelId(0));
        }
        for v in 0..3 {
            b.add_edge(VId(v), VId(v + 1));
        }
        let chain = b.build();
        let unstable = Partition::new(vec![0, 0, 0, 1], 2);
        assert!(
            IncrementalBisim::from_partition(&chain, unstable, BisimDirection::Forward).is_none()
        );

        // Wrong vertex count → rejected.
        let small = Partition::discrete(2);
        assert!(IncrementalBisim::from_partition(&g, small, BisimDirection::Forward).is_none());

        // An empty block (a supernode nothing maps to) → rejected.
        let mut holey: Vec<u32> = maximal.assignment().to_vec();
        holey.iter_mut().for_each(|b| *b += 1);
        let holey = Partition::new(holey, maximal.num_blocks() + 1);
        assert!(IncrementalBisim::from_partition(&g, holey, BisimDirection::Forward).is_none());
    }
}
