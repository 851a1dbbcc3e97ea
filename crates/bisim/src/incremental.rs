//! Incremental maintenance of a bisimulation partition under edge
//! updates (Sec. 3.2, "Maintenance of BiG-index").
//!
//! Inserting or deleting an edge can *split* blocks (vertices that were
//! equivalent no longer are) and, in principle, also *merge* them. Like
//! the practical algorithm the paper adopts (Deng et al. [7]), we apply
//! splits eagerly and defer merges: [`IncrementalBisim::apply`] refines
//! the current partition until it is stable again. The result is a valid
//! (stable) bisimulation — hence label- and path-preserving, so queries
//! stay correct — but possibly finer than the maximal one; callers
//! rebuild periodically to restore maximal compression, exactly as the
//! paper prescribes ("BiG-index can be recomputed occasionally").
//!
//! [`IncrementalBisim::drift`] exposes how far the maintained partition
//! has drifted since the last rebuild (updates applied and block-count
//! growth) so a policy layer — bgi-ingest's staleness tracker — can
//! decide when "occasionally" is now.

use crate::partition::Partition;
use crate::refine::{coarsest_stable_refinement, maximal_bisimulation, BisimDirection};
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use std::collections::BTreeSet;

/// A graph/partition pair maintained under edge updates.
#[derive(Debug, Clone)]
pub struct IncrementalBisim {
    graph: DiGraph,
    partition: Partition,
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
    /// Add an isolated vertex with the given label. It starts in a
    /// fresh singleton block (split-only maintenance never merges it;
    /// a rebuild will).
    AddVertex(LabelId),
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
    /// Starts from `g`'s maximal bisimulation.
    pub fn new(g: DiGraph, dir: BisimDirection) -> Self {
        let partition = maximal_bisimulation(&g, dir);
        let blocks = partition.num_blocks();
        IncrementalBisim {
            graph: g,
            partition,
            dir,
            updates_since_rebuild: 0,
            blocks_at_rebuild: blocks,
        }
    }

    /// Starts from a caller-supplied partition — e.g. one recovered
    /// from a served index's `χ` table — instead of recomputing the
    /// maximal bisimulation. The partition is adopted as given, ids
    /// included, so the caller's tables keep matching it. Returns
    /// `None` when it does not cover `g`'s vertices, fails to separate
    /// labels, or is not stable in `dir`: repairing an unstable
    /// partition would renumber blocks the caller's tables still name.
    /// Stability costs one refinement round — the fixpoint loop stops
    /// after the first when no block splits.
    pub fn from_partition(g: DiGraph, partition: Partition, dir: BisimDirection) -> Option<Self> {
        if partition.num_vertices() != g.num_vertices() {
            return None;
        }
        for block in partition.blocks() {
            let mut labels = block.iter().map(|&v| g.label(v));
            let Some(first) = labels.next() else {
                continue;
            };
            if labels.any(|l| l != first) {
                return None;
            }
        }
        let blocks = partition.num_blocks();
        if coarsest_stable_refinement(&g, partition.clone(), dir).num_blocks() != blocks {
            return None;
        }
        Some(IncrementalBisim {
            graph: g,
            partition,
            dir,
            updates_since_rebuild: 0,
            blocks_at_rebuild: blocks,
        })
    }

    /// The current graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The current (stable, possibly non-maximal) partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of updates applied since the last full rebuild.
    pub fn updates_since_rebuild(&self) -> usize {
        self.updates_since_rebuild
    }

    /// Drift from the last rebuild — what a staleness policy consults.
    pub fn drift(&self) -> Drift {
        Drift {
            updates: self.updates_since_rebuild,
            blocks: self.partition.num_blocks(),
            blocks_at_rebuild: self.blocks_at_rebuild,
        }
    }

    /// Applies one update and restores stability by re-refining from the
    /// current partition (splits only; merges deferred to [`Self::rebuild`]).
    pub fn apply(&mut self, update: Update) {
        self.apply_batch(std::slice::from_ref(&update));
    }

    /// Applies a batch of updates with **one** graph rebuild and **one**
    /// re-stabilization — the amortization that makes sustained update
    /// streams affordable (rebuilding the CSR is `O(V + E)` regardless
    /// of batch size). Updates apply in order; edge updates naming a
    /// vertex that does not exist (even after the batch's additions)
    /// are ignored.
    pub fn apply_batch(&mut self, updates: &[Update]) {
        if updates.is_empty() {
            return;
        }
        let mut labels: Vec<LabelId> = self.graph.labels().to_vec();
        let mut edges: BTreeSet<(VId, VId)> = self.graph.edges().collect();
        for u in updates {
            match *u {
                Update::InsertEdge(a, b) => {
                    if a.index() < labels.len() && b.index() < labels.len() {
                        edges.insert((a, b));
                    }
                }
                Update::DeleteEdge(a, b) => {
                    edges.remove(&(a, b));
                }
                Update::AddVertex(l) => labels.push(l),
            }
        }
        let old_n = self.graph.num_vertices();
        let new_n = labels.len();
        self.graph = GraphBuilder::from_edges(labels, edges.into_iter().collect());
        // New vertices enter as fresh singleton blocks (finer is always
        // safe); existing assignments carry over, then one fixpoint
        // restores stability for the whole batch.
        if new_n > old_n {
            let mut assignment = self.partition.assignment().to_vec();
            let mut next = self.partition.num_blocks() as u32;
            for _ in old_n..new_n {
                assignment.push(next);
                next += 1;
            }
            self.partition = Partition::new(assignment, next as usize);
        }
        self.partition = stabilize(&self.graph, self.partition.clone(), self.dir);
        self.updates_since_rebuild += updates.len();
    }

    /// Recomputes the maximal bisimulation from scratch, restoring
    /// maximal compression after a batch of updates.
    pub fn rebuild(&mut self) {
        self.partition = maximal_bisimulation(&self.graph, self.dir);
        self.updates_since_rebuild = 0;
        self.blocks_at_rebuild = self.partition.num_blocks();
    }
}

/// Runs split-only refinement to its fixpoint. Because refinement only
/// splits, the result refines `part` and is a stable bisimulation of
/// `g`. Block ids are renumbered onto `part`'s ids (see
/// [`remap_onto_parent`]) so that incremental maintenance keeps ids
/// stable: untouched blocks keep their number, split-off fragments get
/// fresh ids past the old count. Downstream consumers (the ingest
/// engine's summary patching, per-layer index patching) depend on this
/// to localize their work to the touched blocks.
fn stabilize(g: &DiGraph, part: Partition, dir: BisimDirection) -> Partition {
    let refined = coarsest_stable_refinement(g, part.clone(), dir);
    remap_onto_parent(&part, &refined)
}

/// Renumbers `refined` — a refinement of `parent` — so ids are stable
/// across maintenance rounds: within each parent block, the fragment
/// containing the parent block's lowest-id vertex inherits the parent's
/// id, and every other fragment gets a fresh id `≥ parent.num_blocks()`,
/// assigned in order of each fragment's lowest vertex. When refinement
/// split nothing the result is bit-identical to `parent`.
fn remap_onto_parent(parent: &Partition, refined: &Partition) -> Partition {
    let n = refined.num_vertices();
    // Lowest-id vertex of each parent block.
    let mut parent_first = vec![u32::MAX; parent.num_blocks()];
    for v in (0..n as u32).rev() {
        parent_first[parent.block_of(VId(v)) as usize] = v;
    }
    let mut map = vec![u32::MAX; refined.num_blocks()];
    let mut next = parent.num_blocks() as u32;
    for v in 0..n as u32 {
        let rb = refined.block_of(VId(v)) as usize;
        if map[rb] != u32::MAX {
            continue; // not this fragment's lowest vertex
        }
        let pb = parent.block_of(VId(v));
        map[rb] = if parent_first[pb as usize] == v {
            pb
        } else {
            next += 1;
            next - 1
        };
    }
    let assignment = (0..n as u32)
        .map(|v| map[refined.block_of(VId(v)) as usize])
        .collect();
    Partition::new(assignment, next as usize)
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
        let g = b.build();
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        let before = inc.partition().assignment().to_vec();
        let old_blocks = inc.partition().num_blocks();
        // Split a person that is NOT the lowest-id member of its block.
        inc.apply(Update::InsertEdge(persons[3], other));
        let after = inc.partition().assignment();
        for v in 0..before.len() {
            if VId(v as u32) == persons[3] {
                assert_eq!(after[v] as usize, old_blocks, "fragment gets a fresh id");
            } else {
                assert_eq!(after[v], before[v], "untouched vertex {v} moved blocks");
            }
        }
        assert_eq!(inc.partition().num_blocks(), old_blocks + 1);
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
        let g = b.build();
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        assert_eq!(inc.partition().num_blocks(), 3);

        inc.apply(Update::InsertEdge(persons[0], other));
        assert_eq!(inc.partition().num_blocks(), 4);
        assert!(!inc.partition().equivalent(persons[0], persons[1]));
        assert!(is_stable(
            inc.graph(),
            inc.partition(),
            BisimDirection::Forward
        ));
    }

    #[test]
    fn delete_keeps_partition_stable() {
        let g = fan(5);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        inc.apply(Update::DeleteEdge(VId(1), VId(0)));
        assert!(is_stable(
            inc.graph(),
            inc.partition(),
            BisimDirection::Forward
        ));
        // The person who lost its edge is no longer like the others.
        assert!(!inc.partition().equivalent(VId(1), VId(2)));
    }

    #[test]
    fn rebuild_recovers_maximal_compression() {
        let g = fan(6);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        // Delete and reinsert the same edge: the graph is back to the
        // original, but the incremental partition stays split.
        inc.apply(Update::DeleteEdge(VId(1), VId(0)));
        inc.apply(Update::InsertEdge(VId(1), VId(0)));
        assert!(inc.partition().num_blocks() > 2);
        assert_eq!(inc.updates_since_rebuild(), 2);
        let drift = inc.drift();
        assert_eq!(drift.updates, 2);
        assert!(drift.block_growth() > 0);
        inc.rebuild();
        assert_eq!(inc.partition().num_blocks(), 2);
        assert_eq!(inc.updates_since_rebuild(), 0);
        assert_eq!(inc.drift().block_growth(), 0);
    }

    #[test]
    fn incremental_refines_maximal() {
        // After any update sequence the incremental partition must refine
        // the true maximal bisimulation of the current graph.
        let g = fan(8);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        inc.apply(Update::InsertEdge(VId(2), VId(3)));
        inc.apply(Update::DeleteEdge(VId(4), VId(0)));
        let maximal = maximal_bisimulation(inc.graph(), BisimDirection::Forward);
        assert!(maximal.is_refined_by(inc.partition()));
    }

    #[test]
    fn delete_missing_edge_is_noop_on_graph() {
        let g = fan(3);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        let edges_before = inc.graph().num_edges();
        inc.apply(Update::DeleteEdge(VId(0), VId(1)));
        assert_eq!(inc.graph().num_edges(), edges_before);
    }

    #[test]
    fn add_vertex_gets_singleton_block_and_can_be_wired() {
        let g = fan(4);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        let n = inc.graph().num_vertices();
        inc.apply_batch(&[
            Update::AddVertex(LabelId(0)),
            Update::InsertEdge(VId(n as u32), VId(0)),
        ]);
        assert_eq!(inc.graph().num_vertices(), n + 1);
        assert_eq!(inc.graph().label(VId(n as u32)), LabelId(0));
        assert!(inc.graph().has_edge(VId(n as u32), VId(0)));
        assert!(is_stable(
            inc.graph(),
            inc.partition(),
            BisimDirection::Forward
        ));
        // The new person is bisimilar to the old ones but stays in its
        // own (finer) block until rebuild merges it back.
        inc.rebuild();
        assert!(inc.partition().equivalent(VId(n as u32), VId(1)));
    }

    #[test]
    fn batch_equals_one_by_one() {
        let g = fan(7);
        let updates = [
            Update::InsertEdge(VId(2), VId(3)),
            Update::DeleteEdge(VId(4), VId(0)),
            Update::AddVertex(LabelId(2)),
            Update::InsertEdge(VId(8), VId(1)),
        ];
        let mut one = IncrementalBisim::new(g.clone(), BisimDirection::Forward);
        for u in updates {
            one.apply(u);
        }
        let mut batched = IncrementalBisim::new(g, BisimDirection::Forward);
        batched.apply_batch(&updates);
        assert_eq!(one.graph(), batched.graph());
        // Both are stable refinements; block *counts* can differ only
        // through refinement order, and the refiner is deterministic,
        // so the partitions agree up to renumbering — compare via
        // mutual refinement.
        assert!(
            one.partition().is_refined_by(batched.partition()) || {
                batched.partition().is_refined_by(one.partition())
            }
        );
        assert_eq!(batched.updates_since_rebuild(), 4);
    }

    #[test]
    fn edge_to_unknown_vertex_is_ignored() {
        let g = fan(3);
        let mut inc = IncrementalBisim::new(g, BisimDirection::Forward);
        let edges_before = inc.graph().num_edges();
        inc.apply(Update::InsertEdge(VId(0), VId(999)));
        assert_eq!(inc.graph().num_edges(), edges_before);
    }

    #[test]
    fn from_partition_adopts_stable_and_rejects_the_rest() {
        let g = fan(5);
        let maximal = maximal_bisimulation(&g, BisimDirection::Forward);
        let inc =
            IncrementalBisim::from_partition(g.clone(), maximal.clone(), BisimDirection::Forward)
                .expect("matching partition accepted");
        assert_eq!(inc.partition(), &maximal);
        assert_eq!(inc.drift().block_growth(), 0);

        // A stable but non-maximal partition keeps its ids.
        let discrete = Partition::discrete(g.num_vertices());
        let inc =
            IncrementalBisim::from_partition(g.clone(), discrete.clone(), BisimDirection::Forward)
                .expect("stable partition accepted");
        assert_eq!(inc.partition(), &discrete);

        // Label-uniform but unstable → rejected, not repaired: the
        // chain 0 → 1 → 2 → 3 with {0, 1, 2}, {3}.
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
            IncrementalBisim::from_partition(chain, unstable, BisimDirection::Forward).is_none()
        );

        // Wrong vertex count → rejected.
        let small = Partition::discrete(2);
        assert!(
            IncrementalBisim::from_partition(g.clone(), small, BisimDirection::Forward).is_none()
        );

        // One block mixing both labels → rejected.
        let mixed = Partition::new(vec![0; g.num_vertices()], 1);
        assert!(IncrementalBisim::from_partition(g, mixed, BisimDirection::Forward).is_none());
    }
}
