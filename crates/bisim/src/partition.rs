//! Vertex partitions: the output of bisimulation refinement.
//!
//! A [`Partition`] assigns every vertex a dense block id. Blocks are the
//! paper's equivalence classes `[v]_equiv`; the partition is the
//! equivalence relation `B`.

use bgi_graph::VId;

/// A partition of `0..n` vertices into dense blocks `0..num_blocks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    pub(crate) block_of: Vec<u32>,
    pub(crate) num_blocks: usize,
}

impl Partition {
    /// Creates a partition from a raw block assignment. Block ids must be
    /// dense (`0..num_blocks` all occupied); use [`Partition::from_labels`]
    /// to densify arbitrary assignments.
    pub fn new(block_of: Vec<u32>, num_blocks: usize) -> Self {
        debug_assert!(block_of.iter().all(|&b| (b as usize) < num_blocks));
        Partition {
            block_of,
            num_blocks,
        }
    }

    /// Creates a partition by densifying an arbitrary assignment of
    /// "colors" (e.g. label ids) to vertices.
    pub fn from_labels<T: Copy + Ord>(colors: &[T]) -> Self {
        let mut sorted: Vec<T> = colors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let block_of = colors
            .iter()
            .map(|c| sorted.binary_search(c).unwrap() as u32)
            .collect();
        Partition {
            block_of,
            num_blocks: sorted.len(),
        }
    }

    /// The singleton partition: every vertex its own block.
    pub fn discrete(n: usize) -> Self {
        Partition {
            block_of: (0..n as u32).collect(),
            num_blocks: n,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks (equivalence classes).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// The block containing `v` (the paper's `[v]_equiv`).
    #[inline]
    pub fn block_of(&self, v: VId) -> u32 {
        self.block_of[v.index()]
    }

    /// Raw block assignment, indexed by vertex.
    pub fn assignment(&self) -> &[u32] {
        &self.block_of
    }

    /// Materializes the members of each block, in vertex order.
    pub fn blocks(&self) -> Vec<Vec<VId>> {
        let mut blocks = vec![Vec::new(); self.num_blocks];
        for (i, &b) in self.block_of.iter().enumerate() {
            blocks[b as usize].push(VId(i as u32));
        }
        blocks
    }

    /// True if `u` and `v` are equivalent (`(u, v) ∈ B`).
    pub fn equivalent(&self, u: VId, v: VId) -> bool {
        self.block_of(u) == self.block_of(v)
    }

    /// True if `other` refines `self`: every block of `other` is contained
    /// in a block of `self`.
    pub fn is_refined_by(&self, other: &Partition) -> bool {
        if self.block_of.len() != other.block_of.len() {
            return false;
        }
        // For each block of `other`, all members must share a `self` block.
        let mut rep: Vec<Option<u32>> = vec![None; other.num_blocks];
        for (i, &b) in other.block_of.iter().enumerate() {
            match rep[b as usize] {
                None => rep[b as usize] = Some(self.block_of[i]),
                Some(r) => {
                    if r != self.block_of[i] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_densifies() {
        let p = Partition::from_labels(&[10, 20, 10, 30]);
        assert_eq!(p.num_blocks(), 3);
        assert!(p.equivalent(VId(0), VId(2)));
        assert!(!p.equivalent(VId(0), VId(1)));
    }

    #[test]
    fn discrete_partition() {
        let p = Partition::discrete(4);
        assert_eq!(p.num_blocks(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(p.equivalent(VId(i), VId(j)), i == j);
            }
        }
    }

    #[test]
    fn blocks_materialization() {
        let p = Partition::from_labels(&[1, 0, 1]);
        let blocks = p.blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], vec![VId(1)]);
        assert_eq!(blocks[1], vec![VId(0), VId(2)]);
    }

    #[test]
    fn refinement_relation() {
        let coarse = Partition::from_labels(&[0, 0, 1, 1]);
        let fine = Partition::from_labels(&[0, 1, 2, 2]);
        assert!(coarse.is_refined_by(&fine));
        assert!(!fine.is_refined_by(&coarse));
        assert!(coarse.is_refined_by(&coarse));
    }

    #[test]
    fn refinement_rejects_size_mismatch() {
        let a = Partition::discrete(3);
        let b = Partition::discrete(4);
        assert!(!a.is_refined_by(&b));
    }
}
