//! The BLINKS bi-level index.
//!
//! For every keyword `ℓ` appearing in the graph, a backward BFS bounded
//! by `τ_prune` computes `dist(v → nearest ℓ-node)` for every vertex `v`
//! that can reach an `ℓ`-node within the bound. The results are stored
//! three ways, mirroring He et al.'s structures:
//!
//! - **keyword-node list** `KNL[ℓ]`: `(dist, v)` pairs sorted by
//!   distance (and block, so entries of one block are adjacent within
//!   each distance band) — drives backward expansion in sorted order;
//! - **node-keyword map** `NKM[(v, ℓ)] = dist` — completes candidate
//!   roots with exact distances in O(1);
//! - **keyword-block list** `KBL[ℓ]`: blocks containing a matched
//!   vertex — block-level pruning.

use super::partition::{bfs_partition, GraphPartition};
use crate::banks::backward_reach;
use bgi_graph::{DiGraph, LabelId, VId};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Tuning parameters for the bi-level index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlinksParams {
    /// Target partition block size (the paper's experiments use 1000).
    pub block_size: usize,
    /// Pruning threshold `τ_prune`: maximum indexed keyword distance
    /// (the paper's experiments use 5, equal to `d_max`).
    pub prune_dist: u32,
}

impl Default for BlinksParams {
    fn default() -> Self {
        BlinksParams {
            block_size: 1000,
            prune_dist: 5,
        }
    }
}

/// The bi-level index over one graph. Clones share the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlinksIndex {
    tables: Arc<Tables>,
}

#[derive(Debug, PartialEq, Eq)]
struct Tables {
    partition: GraphPartition,
    prune_dist: u32,
    /// `KNL[ℓ]`: entries sorted by (dist, block, vertex).
    knl: FxHashMap<LabelId, Vec<(u16, VId)>>,
    /// `NKM[(v, ℓ)]`: exact bounded distance from `v` to nearest ℓ-node.
    nkm: FxHashMap<(VId, LabelId), u16>,
    /// `KBL[ℓ]`: sorted blocks containing a vertex within the bound.
    kbl: FxHashMap<LabelId, Vec<u32>>,
}

impl BlinksIndex {
    /// Builds the index for `g`.
    pub fn build(g: &DiGraph, params: &BlinksParams) -> Self {
        let partition = bfs_partition(g, params.block_size.max(1));
        Self::build_with_partition(g, partition, params.prune_dist)
    }

    /// Builds the index for `g` over a caller-supplied partition.
    ///
    /// The partition only drives block-level pruning; any partition
    /// covering `g`'s vertices yields a correct index. This is the
    /// reference constructor the incremental [`BlinksIndex::patched`]
    /// path is equivalent to.
    pub fn build_with_partition(g: &DiGraph, partition: GraphPartition, prune_dist: u32) -> Self {
        let mut knl: FxHashMap<LabelId, Vec<(u16, VId)>> = FxHashMap::default();
        let mut nkm: FxHashMap<(VId, LabelId), u16> = FxHashMap::default();
        let mut kbl: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();

        // Group vertices by label once.
        let mut by_label: FxHashMap<LabelId, Vec<VId>> = FxHashMap::default();
        for v in g.vertices() {
            by_label.entry(g.label(v)).or_default().push(v);
        }

        for (&label, sources) in &by_label {
            let reach = backward_reach(g, sources, prune_dist);
            let mut entries: Vec<(u16, VId)> =
                reach.iter().map(|(&v, &(d, _))| (d as u16, v)).collect();
            // Sort by distance, then block, then vertex: within a
            // distance band the entries of one block are adjacent.
            entries.sort_unstable_by_key(|&(d, v)| (d, partition.block_of(v), v));
            let mut blocks: Vec<u32> = entries
                .iter()
                .map(|&(_, v)| partition.block_of(v))
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &(d, v) in &entries {
                nkm.insert((v, label), d);
            }
            knl.insert(label, entries);
            kbl.insert(label, blocks);
        }

        BlinksIndex {
            tables: Arc::new(Tables {
                partition,
                prune_dist,
                knl,
                nkm,
                kbl,
            }),
        }
    }

    /// Reassembles an index from its partition and keyword-node lists
    /// (the persistence path). `NKM` and `KBL` are fully derivable from
    /// `KNL` and the partition, so only those two need to be stored;
    /// the derived maps are rebuilt here. Entries of each list must
    /// already be in the build's `(dist, block, vertex)` order —
    /// persisting and restoring them verbatim preserves it.
    pub fn from_parts(
        partition: GraphPartition,
        prune_dist: u32,
        knl: FxHashMap<LabelId, Vec<(u16, VId)>>,
    ) -> Self {
        let mut nkm: FxHashMap<(VId, LabelId), u16> = FxHashMap::default();
        let mut kbl: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();
        for (&label, entries) in &knl {
            let mut blocks: Vec<u32> = entries
                .iter()
                .map(|&(_, v)| partition.block_of(v))
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &(d, v) in entries {
                nkm.insert((v, label), d);
            }
            kbl.insert(label, blocks);
        }
        BlinksIndex {
            tables: Arc::new(Tables {
                partition,
                prune_dist,
                knl,
                nkm,
                kbl,
            }),
        }
    }

    /// Incrementally patched copy of this index for the graph described
    /// by `diff` (see [`crate::patch`]).
    ///
    /// The partition is kept (appended vertices become fresh singleton
    /// blocks) — it only drives block-level pruning, so any partition
    /// yields exact answers. A vertex's keyword distances can change
    /// only if a bounded path from it crosses a changed edge, which
    /// requires reaching that edge's source within `τ_prune − 1` hops;
    /// the *affected set* is the union of those backward balls in the
    /// old and new graphs plus all appended vertices. Affected
    /// distances are recomputed by bounded relaxation against boundary
    /// distances (provably unchanged — a non-affected vertex cannot
    /// route a bounded path over a changed edge in either graph), and
    /// per-label lists are spliced in `(dist, block, vertex)` order.
    /// The result equals [`BlinksIndex::build_with_partition`] on the
    /// new graph with the extended partition. Returns `None` when the
    /// affected set covers half the graph or more — rebuild instead.
    pub fn patched(
        &self,
        old_g: &DiGraph,
        new_g: &DiGraph,
        diff: &crate::patch::GraphDiff,
    ) -> Option<BlinksIndex> {
        let n_new = new_g.num_vertices();
        let n_old = n_new - diff.added_labels.len();
        let prune = self.tables.prune_dist;

        // Extend the partition: appended vertices get fresh singleton
        // blocks, existing assignments are untouched.
        let mut block_of = self.tables.partition.block_table().to_vec();
        let mut num_blocks = self.tables.partition.num_blocks();
        for _ in n_old..n_new {
            block_of.push(num_blocks as u32);
            num_blocks += 1;
        }
        let partition = GraphPartition::from_parts(block_of, num_blocks);

        // Affected set: backward balls of radius τ_prune − 1 around
        // changed-edge sources, in both graph versions, plus appended
        // vertices. A bounded path using edge (a, b) reaches `a` in at
        // most τ_prune − 1 hops, so every vertex whose distances can
        // change is marked.
        let mut in_a = vec![false; n_new];
        let mut sources: Vec<VId> = diff
            .inserted
            .iter()
            .chain(diff.deleted.iter())
            .map(|&(u, _)| u)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let back = prune.saturating_sub(1);
        for g in [old_g, new_g] {
            for &s in &sources {
                if s.index() >= g.num_vertices() {
                    continue;
                }
                for &v in backward_reach(g, &[s], back).keys() {
                    in_a[v.index()] = true;
                }
            }
        }
        for a in in_a.iter_mut().skip(n_old) {
            *a = true;
        }
        let a_list: Vec<VId> = (0..n_new as u32)
            .map(VId)
            .filter(|v| in_a[v.index()])
            .collect();
        if a_list.len() * 2 > n_new {
            return None;
        }

        // Boundary: out-neighbors of affected vertices outside the set.
        let mut boundary: Vec<VId> = Vec::new();
        for &v in &a_list {
            for &w in new_g.out_neighbors(v) {
                if !in_a[w.index()] {
                    boundary.push(w);
                }
            }
        }
        boundary.sort_unstable();
        boundary.dedup();

        // Candidate labels: anything an affected vertex carries in the
        // new graph (fresh 0-distance entries), plus any label with an
        // old entry on an affected vertex (stale entries to revise) or
        // a boundary vertex (distances that may now extend inward).
        let mut candidates: Vec<LabelId> = a_list.iter().map(|&v| new_g.label(v)).collect();
        for &l in self.tables.knl.keys() {
            if a_list
                .iter()
                .chain(boundary.iter())
                .any(|&v| self.tables.nkm.contains_key(&(v, l)))
            {
                candidates.push(l);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        // The relaxation below costs |candidates| × |affected| × deg;
        // a rebuild costs roughly one bounded BFS per label, ~the entry
        // count it produces. When the patch would approach rebuild cost
        // (coalesced group-commit diffs can push the affected set near
        // the n/2 cap, where nearly every label is a candidate), decline
        // and let the caller rebuild — the 2× margin keeps the write
        // path on the predictable side of the crossover.
        if candidates.len() * a_list.len() * 2 > self.tables.nkm.len() + n_new {
            return None;
        }

        let mut knl = self.tables.knl.clone();
        let mut nkm = self.tables.nkm.clone();
        let mut kbl = self.tables.kbl.clone();
        const INF: u32 = u32::MAX;
        let mut dist = vec![INF; n_new];
        for &l in &candidates {
            // Exact bounded distances for affected vertices: seed with
            // own-label zeros and boundary hops, then relax within the
            // set. A path leaving the set is covered by its first
            // boundary vertex's term (a true shortest distance, even if
            // the path re-enters the set later).
            for &v in &a_list {
                let mut d = if new_g.label(v) == l { 0 } else { INF };
                for &w in new_g.out_neighbors(v) {
                    if !in_a[w.index()] {
                        if let Some(&dw) = self.tables.nkm.get(&(w, l)) {
                            let c = dw as u32 + 1;
                            if c <= prune && c < d {
                                d = c;
                            }
                        }
                    }
                }
                dist[v.index()] = d;
            }
            loop {
                let mut changed = false;
                for &v in &a_list {
                    let mut d = dist[v.index()];
                    for &w in new_g.out_neighbors(v) {
                        if in_a[w.index()] && dist[w.index()] != INF {
                            let c = dist[w.index()] + 1;
                            if c <= prune && c < d {
                                d = c;
                            }
                        }
                    }
                    if d < dist[v.index()] {
                        dist[v.index()] = d;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut fresh: Vec<(u16, VId)> = a_list
                .iter()
                .filter(|&&v| dist[v.index()] != INF)
                .map(|&v| (dist[v.index()] as u16, v))
                .collect();
            let old_count = a_list
                .iter()
                .filter(|&&v| nkm.contains_key(&(v, l)))
                .count();
            let unchanged = fresh.len() == old_count
                && fresh.iter().all(|&(d, v)| nkm.get(&(v, l)) == Some(&d));
            if unchanged {
                continue;
            }
            for &v in &a_list {
                nkm.remove(&(v, l));
            }
            for &(d, v) in &fresh {
                nkm.insert((v, l), d);
            }
            // Splice: retained entries stay in their original relative
            // order (already sorted by this key — block ids of old
            // vertices are unchanged), fresh ones merge in.
            fresh.sort_unstable_by_key(|&(d, v)| (d, partition.block_of(v), v));
            let retained: Vec<(u16, VId)> = knl
                .remove(&l)
                .unwrap_or_default()
                .into_iter()
                .filter(|&(_, v)| !in_a[v.index()])
                .collect();
            let mut merged = Vec::with_capacity(retained.len() + fresh.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < retained.len() && j < fresh.len() {
                let ki = (
                    retained[i].0,
                    partition.block_of(retained[i].1),
                    retained[i].1,
                );
                let kj = (fresh[j].0, partition.block_of(fresh[j].1), fresh[j].1);
                if ki <= kj {
                    merged.push(retained[i]);
                    i += 1;
                } else {
                    merged.push(fresh[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&retained[i..]);
            merged.extend_from_slice(&fresh[j..]);
            if merged.is_empty() {
                kbl.remove(&l);
            } else {
                let mut blocks: Vec<u32> =
                    merged.iter().map(|&(_, v)| partition.block_of(v)).collect();
                blocks.sort_unstable();
                blocks.dedup();
                kbl.insert(l, blocks);
                knl.insert(l, merged);
            }
        }

        Some(BlinksIndex {
            tables: Arc::new(Tables {
                partition,
                prune_dist: prune,
                knl,
                nkm,
                kbl,
            }),
        })
    }

    /// The full keyword-node-list table (persistence export;
    /// [`BlinksIndex::keyword_node_list`] is the per-label lookup).
    pub fn knl_table(&self) -> &FxHashMap<LabelId, Vec<(u16, VId)>> {
        &self.tables.knl
    }

    /// The pruning threshold the index was built with.
    pub fn prune_dist(&self) -> u32 {
        self.tables.prune_dist
    }

    /// The underlying partition.
    pub fn partition(&self) -> &GraphPartition {
        &self.tables.partition
    }

    /// The keyword-node list for `l` (sorted by distance), if any vertex
    /// can reach the keyword within the bound.
    pub fn keyword_node_list(&self, l: LabelId) -> Option<&[(u16, VId)]> {
        self.tables.knl.get(&l).map(Vec::as_slice)
    }

    /// `dist(v → nearest l-node)` within the bound, if reachable.
    pub fn node_keyword_distance(&self, v: VId, l: LabelId) -> Option<u32> {
        self.tables.nkm.get(&(v, l)).map(|&d| d as u32)
    }

    /// Blocks containing at least one vertex within the bound of `l`.
    pub fn keyword_blocks(&self, l: LabelId) -> &[u32] {
        self.tables.kbl.get(&l).map_or(&[], Vec::as_slice)
    }

    /// Total number of (vertex, keyword) entries — the index's dominant
    /// space cost.
    pub fn num_entries(&self) -> usize {
        self.tables.nkm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};

    /// 0(R) -> 1(A); 2(R) -> 3(C) -> 1(A)
    fn sample() -> DiGraph {
        let mut b = GraphBuilder::new();
        let r0 = b.add_vertex(LabelId(0));
        let a = b.add_vertex(LabelId(1));
        let r2 = b.add_vertex(LabelId(0));
        let c = b.add_vertex(LabelId(2));
        b.add_edge(r0, a);
        b.add_edge(r2, c);
        b.add_edge(c, a);
        b.build()
    }

    #[test]
    fn nkm_distances_are_exact() {
        let g = sample();
        let idx = BlinksIndex::build(&g, &BlinksParams::default());
        assert_eq!(idx.node_keyword_distance(VId(0), LabelId(1)), Some(1));
        assert_eq!(idx.node_keyword_distance(VId(2), LabelId(1)), Some(2));
        assert_eq!(idx.node_keyword_distance(VId(1), LabelId(1)), Some(0));
        assert_eq!(idx.node_keyword_distance(VId(0), LabelId(2)), None);
        assert_eq!(idx.node_keyword_distance(VId(2), LabelId(2)), Some(1));
    }

    #[test]
    fn knl_sorted_by_distance() {
        let g = sample();
        let idx = BlinksIndex::build(&g, &BlinksParams::default());
        let list = idx.keyword_node_list(LabelId(1)).unwrap();
        assert!(list.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(list[0], (0, VId(1)));
        assert_eq!(list.len(), 4); // every vertex reaches A within 5
    }

    #[test]
    fn prune_dist_bounds_entries() {
        let g = sample();
        let idx = BlinksIndex::build(
            &g,
            &BlinksParams {
                block_size: 2,
                prune_dist: 1,
            },
        );
        // At bound 1, vertex 2 (distance 2 from A) is not indexed for A.
        assert_eq!(idx.node_keyword_distance(VId(2), LabelId(1)), None);
        let list = idx.keyword_node_list(LabelId(1)).unwrap();
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn keyword_blocks_cover_matched_vertices() {
        let g = sample();
        let idx = BlinksIndex::build(
            &g,
            &BlinksParams {
                block_size: 2,
                prune_dist: 5,
            },
        );
        for (d, v) in idx.keyword_node_list(LabelId(1)).unwrap() {
            let _ = d;
            let b = idx.partition().block_of(*v);
            assert!(idx.keyword_blocks(LabelId(1)).contains(&b));
        }
    }

    #[test]
    fn entry_count_matches_reach() {
        let g = sample();
        let idx = BlinksIndex::build(&g, &BlinksParams::default());
        // A: 4 entries, R: {0,2} at 0 = 2 entries, C: {3 at 0, 2 at 1}.
        assert_eq!(idx.num_entries(), 4 + 2 + 2);
    }
}
