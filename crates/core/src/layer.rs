//! One layer of the BiG-index hierarchy.
//!
//! Layer `i` records everything needed to move between `G^{i-1}` and
//! `G^i = χ(G^{i-1}, C^i) = Bisim(Gen(G^{i-1}, C^i))`:
//! the configuration `C^i`, its dense label map, the summary graph, and
//! the two-way vertex correspondence (`χ` upward, `Spec`/`Bisim⁻¹`
//! downward, implemented as tables — the paper's hash tables).

use crate::config::GenConfig;
use bgi_graph::{DiGraph, LabelId, VId};

/// `Bisim⁻¹` as one flat table: the members of supernode `s` are
/// `ids[offsets[s]..offsets[s + 1]]`. Two allocations for the whole
/// layer, not one per supernode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberTable {
    offsets: Vec<u32>,
    ids: Vec<VId>,
}

impl MemberTable {
    /// The table inverting `χ` over `n` supernodes: each supernode's
    /// members are the lower vertices `supernode_of` maps to it,
    /// ascending — what summarizing a partition produces. One counting
    /// sort.
    pub fn from_chi(supernode_of: &[VId], n: usize) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for s in supernode_of {
            offsets[s.index() + 1] += 1;
        }
        for s in 0..n {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![VId(0); supernode_of.len()];
        for (v, s) in supernode_of.iter().enumerate() {
            ids[cursor[s.index()] as usize] = VId(v as u32);
            cursor[s.index()] += 1;
        }
        MemberTable { offsets, ids }
    }

    /// The table holding exactly `lists`, in order.
    pub fn from_lists(lists: &[Vec<VId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let mut ids = Vec::new();
        for list in lists {
            ids.extend_from_slice(list);
            offsets.push(ids.len() as u32);
        }
        MemberTable { offsets, ids }
    }

    /// The members of supernode `s`.
    #[inline]
    pub fn get(&self, s: VId) -> &[VId] {
        let i = s.index();
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of member lists (supernodes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table has no list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every member list, in supernode order.
    pub fn lists(&self) -> impl ExactSizeIterator<Item = &[VId]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }
}

/// Layer `i ≥ 1` of a BiG-index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// The configuration `C^i` applied to `G^{i-1}`.
    pub config: GenConfig,
    /// Dense label map of `C^i` over the full alphabet.
    pub label_map: Vec<LabelId>,
    /// The summary graph `G^i`.
    pub graph: DiGraph,
    /// `χ`: vertex of `G^{i-1}` → its supernode in `G^i`.
    supernode_of: Vec<VId>,
    /// `Bisim⁻¹ ∘ Spec`: supernode of `G^i` → vertices of `G^{i-1}`.
    members: MemberTable,
}

impl Layer {
    /// Assembles a layer from its parts.
    pub fn new(
        config: GenConfig,
        label_map: Vec<LabelId>,
        graph: DiGraph,
        supernode_of: Vec<VId>,
        members: Vec<Vec<VId>>,
    ) -> Self {
        Self::from_table(
            config,
            label_map,
            graph,
            supernode_of,
            MemberTable::from_lists(&members),
        )
    }

    /// [`Layer::new`] with the `Bisim⁻¹` table already flat.
    pub fn from_table(
        config: GenConfig,
        label_map: Vec<LabelId>,
        graph: DiGraph,
        supernode_of: Vec<VId>,
        members: MemberTable,
    ) -> Self {
        debug_assert_eq!(graph.num_vertices(), members.len());
        Layer {
            config,
            label_map,
            graph,
            supernode_of,
            members,
        }
    }

    /// Maps a `G^{i-1}` vertex up to its `G^i` supernode.
    #[inline]
    pub fn up(&self, v: VId) -> VId {
        self.supernode_of[v.index()]
    }

    /// Specializes a `G^i` supernode down to its `G^{i-1}` members.
    #[inline]
    pub fn down(&self, s: VId) -> &[VId] {
        self.members.get(s)
    }

    /// Number of vertices in the layer below.
    pub fn num_lower_vertices(&self) -> usize {
        self.supernode_of.len()
    }

    /// The full `χ` table: `table[v] = supernode of v` for every vertex
    /// of `G^{i-1}` (persistence export; [`Layer::up`] is the lookup).
    pub fn supernode_table(&self) -> &[VId] {
        &self.supernode_of
    }

    /// The full `Bisim⁻¹ ∘ Spec` table (persistence export;
    /// [`Layer::down`] is the lookup).
    pub fn member_table(&self) -> &MemberTable {
        &self.members
    }

    /// The layer's size `|G^i|` (`|V| + |E|`).
    pub fn size(&self) -> usize {
        self.graph.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};

    fn tiny_layer() -> Layer {
        // Lower graph has 3 vertices collapsing to 2 supernodes.
        let mut b = GraphBuilder::new();
        b.add_vertex(LabelId(0));
        b.add_vertex(LabelId(1));
        let graph = b.build();
        Layer::new(
            GenConfig::empty(),
            vec![LabelId(0), LabelId(1)],
            graph,
            vec![VId(0), VId(0), VId(1)],
            vec![vec![VId(0), VId(1)], vec![VId(2)]],
        )
    }

    #[test]
    fn up_down_roundtrip() {
        let l = tiny_layer();
        assert_eq!(l.up(VId(0)), VId(0));
        assert_eq!(l.up(VId(2)), VId(1));
        assert_eq!(l.down(VId(0)), &[VId(0), VId(1)]);
        for v in 0..3u32 {
            assert!(l.down(l.up(VId(v))).contains(&VId(v)));
        }
    }

    #[test]
    fn member_table_inverts_chi_ascending() {
        let t = MemberTable::from_chi(&[VId(1), VId(0), VId(1), VId(0)], 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(VId(0)), &[VId(1), VId(3)]);
        assert_eq!(t.get(VId(1)), &[VId(0), VId(2)]);
        assert_eq!(t.get(VId(2)), &[] as &[VId]);
        let lists: Vec<Vec<VId>> = t.lists().map(<[VId]>::to_vec).collect();
        assert_eq!(MemberTable::from_lists(&lists), t);
    }

    #[test]
    fn sizes() {
        let l = tiny_layer();
        assert_eq!(l.num_lower_vertices(), 3);
        assert_eq!(l.size(), 2);
    }
}
