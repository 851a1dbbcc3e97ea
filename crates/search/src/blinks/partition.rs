//! BFS-grown graph partitioning, a stand-in for METIS.
//!
//! BLINKS' original system partitions with METIS at an average block
//! size of 1000; this partitioner targets a block size with decent edge
//! locality and no external dependency (see DESIGN.md, "Substitutions").
//! Its one consumer is `bgi-shard`'s planner, which folds the blocks
//! onto shards. Blocks are grown one at a time by undirected BFS from
//! the lowest-id unassigned vertex until the target size is reached.

use bgi_graph::{DiGraph, VId};
use std::collections::VecDeque;

/// A partition of graph vertices into contiguous blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPartition {
    block_of: Vec<u32>,
    num_blocks: usize,
}

impl GraphPartition {
    /// The block containing `v`.
    #[inline]
    pub fn block_of(&self, v: VId) -> u32 {
        self.block_of[v.index()]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Materializes block member lists.
    pub fn members(&self) -> Vec<Vec<VId>> {
        let mut blocks = vec![Vec::new(); self.num_blocks];
        for (i, &b) in self.block_of.iter().enumerate() {
            blocks[b as usize].push(VId(i as u32));
        }
        blocks
    }

    /// Number of edges of `g` crossing block boundaries (a locality
    /// quality measure; lower is better).
    pub fn crossing_edges(&self, g: &DiGraph) -> usize {
        g.edges()
            .filter(|&(u, v)| self.block_of(u) != self.block_of(v))
            .count()
    }
}

/// Partitions `g` into blocks of roughly `target_size` vertices by
/// repeated undirected BFS growth.
pub fn bfs_partition(g: &DiGraph, target_size: usize) -> GraphPartition {
    assert!(target_size > 0, "block size must be positive");
    let n = g.num_vertices();
    const UNASSIGNED: u32 = u32::MAX;
    let mut block_of = vec![UNASSIGNED; n];
    let mut num_blocks = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n as u32 {
        if block_of[start as usize] != UNASSIGNED {
            continue;
        }
        let block = num_blocks as u32;
        num_blocks += 1;
        let mut size = 0usize;
        queue.clear();
        queue.push_back(VId(start));
        block_of[start as usize] = block;
        size += 1;
        while size < target_size {
            let Some(v) = queue.pop_front() else { break };
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if block_of[u.index()] == UNASSIGNED {
                    block_of[u.index()] = block;
                    size += 1;
                    queue.push_back(u);
                    if size >= target_size {
                        break;
                    }
                }
            }
        }
    }
    GraphPartition {
        block_of,
        num_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::generate::uniform_random;
    use bgi_graph::{GraphBuilder, LabelId};

    #[test]
    fn covers_all_vertices() {
        let g = uniform_random(500, 1500, 4, 1);
        let p = bfs_partition(&g, 50);
        for v in g.vertices() {
            assert!((p.block_of(v) as usize) < p.num_blocks());
        }
        let total: usize = p.members().iter().map(Vec::len).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn blocks_stay_near_the_target_size() {
        let g = uniform_random(1000, 3000, 4, 2);
        let p = bfs_partition(&g, 100);
        for m in p.members() {
            assert!(m.len() <= 100);
            assert!(!m.is_empty());
        }
        // At least n / target blocks; fragmentation from greedy growth is
        // allowed but the mean block size must stay reasonable.
        assert!(p.num_blocks() >= 10);
        let mean = 1000.0 / p.num_blocks() as f64;
        assert!(mean >= 8.0, "mean block size {mean}");
    }

    #[test]
    fn locality_beats_random_assignment() {
        // On a long chain, BFS partitioning should cut far fewer edges
        // than round-robin.
        let mut b = GraphBuilder::new();
        for _ in 0..400 {
            b.add_vertex(LabelId(0));
        }
        for i in 0..399u32 {
            b.add_edge(VId(i), VId(i + 1));
        }
        let g = b.build();
        let p = bfs_partition(&g, 50);
        // Chain of 400 in blocks of 50 -> exactly 7 cuts.
        assert_eq!(p.crossing_edges(&g), 7);
    }

    #[test]
    fn singleton_blocks_for_isolated_vertices() {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(LabelId(0));
        }
        let g = b.build();
        let p = bfs_partition(&g, 10);
        // No edges: BFS cannot grow, 3 singleton blocks.
        assert_eq!(p.num_blocks(), 3);
    }
}
