//! Ontology graph `G_Ont`: a DAG of labels whose edges `(ℓ', ℓ)` state
//! that `ℓ'` is a direct supertype of `ℓ` (Sec. 2 of the paper).
//!
//! The ontology drives label generalization: a generalization configuration
//! maps each label either to one of its direct supertypes or to itself
//! when it has none. We store both directions of the subtype relation in
//! CSR form and precompute a topological order so supertype-closure and
//! reachability queries are cheap.

use crate::error::GraphError;
use crate::ids::LabelId;
use rustc_hash::FxHashSet;

/// An immutable ontology DAG over [`LabelId`]s.
///
/// Labels not mentioned in any subtype edge are valid "isolated" types:
/// they have no supertypes and generalize only to themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ontology {
    num_labels: usize,
    // CSR: direct supertypes of each label (parents).
    sup_offsets: Vec<u32>,
    sup_targets: Vec<LabelId>,
    // CSR: direct subtypes of each label (children).
    sub_offsets: Vec<u32>,
    sub_targets: Vec<LabelId>,
    // Labels in topological order: supertypes before subtypes.
    topo_order: Vec<LabelId>,
    // depth[l] = longest path from a root to l (roots have depth 0).
    depth: Vec<u32>,
}

impl Ontology {
    /// Number of labels the ontology covers (the alphabet size).
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of subtype edges.
    pub fn num_edges(&self) -> usize {
        self.sup_targets.len()
    }

    /// The direct supertypes of `l` (may be empty).
    pub fn direct_supertypes(&self, l: LabelId) -> &[LabelId] {
        let i = l.index();
        &self.sup_targets[self.sup_offsets[i] as usize..self.sup_offsets[i + 1] as usize]
    }

    /// The direct subtypes of `l` (may be empty).
    pub fn direct_subtypes(&self, l: LabelId) -> &[LabelId] {
        let i = l.index();
        &self.sub_targets[self.sub_offsets[i] as usize..self.sub_offsets[i + 1] as usize]
    }

    /// True if `l` has no supertype (it is a root / topmost type).
    pub fn is_root(&self, l: LabelId) -> bool {
        self.direct_supertypes(l).is_empty()
    }

    /// True if `l` has no subtype (it is a leaf / most specific type).
    pub fn is_leaf(&self, l: LabelId) -> bool {
        self.direct_subtypes(l).is_empty()
    }

    /// All root labels.
    pub fn roots(&self) -> Vec<LabelId> {
        (0..self.num_labels as u32)
            .map(LabelId)
            .filter(|&l| self.is_root(l))
            .collect()
    }

    /// All leaf labels.
    pub fn leaves(&self) -> Vec<LabelId> {
        (0..self.num_labels as u32)
            .map(LabelId)
            .filter(|&l| self.is_leaf(l))
            .collect()
    }

    /// Depth of `l`: length of the longest supertype chain above it.
    /// Roots have depth 0.
    pub fn depth(&self, l: LabelId) -> u32 {
        self.depth[l.index()]
    }

    /// Height of the ontology: the maximum depth over all labels.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Labels in topological order (every supertype precedes its subtypes).
    pub fn topological_order(&self) -> &[LabelId] {
        &self.topo_order
    }

    /// True if `sup` is a (transitive, reflexive) supertype of `sub`:
    /// `sup == sub` or there is a supertype path from `sub` up to `sup`.
    /// This is the relation used for candidate filtering (Prop. 4.1).
    pub fn is_supertype_of(&self, sup: LabelId, sub: LabelId) -> bool {
        if sup == sub {
            return true;
        }
        // Upward DFS from `sub`. Ontologies are shallow (height ~7 in the
        // paper's datasets), so this is fast without a closure matrix.
        let mut stack = vec![sub];
        let mut seen = FxHashSet::default();
        while let Some(l) = stack.pop() {
            for &p in self.direct_supertypes(l) {
                if p == sup {
                    return true;
                }
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Iterator over all subtype edges as `(supertype, subtype)` pairs.
    pub fn subtype_edges(&self) -> impl Iterator<Item = (LabelId, LabelId)> + '_ {
        (0..self.num_labels as u32)
            .map(LabelId)
            .flat_map(move |l| self.direct_subtypes(l).iter().map(move |&sub| (l, sub)))
    }
}

/// Builder for [`Ontology`]; validates acyclicity on `build`.
#[derive(Debug, Default, Clone)]
pub struct OntologyBuilder {
    num_labels: usize,
    // (supertype, subtype) pairs.
    edges: Vec<(LabelId, LabelId)>,
}

impl OntologyBuilder {
    /// Creates a builder for an alphabet of `num_labels` labels
    /// (ids `0..num_labels`).
    pub fn new(num_labels: usize) -> Self {
        OntologyBuilder {
            num_labels,
            edges: Vec::new(),
        }
    }

    /// Declares `sup` to be a direct supertype of `sub`
    /// (the paper's edge `(ℓ', ℓ) ∈ E_Ont`).
    pub fn add_subtype(&mut self, sup: LabelId, sub: LabelId) -> &mut Self {
        debug_assert!(sup.index() < self.num_labels);
        debug_assert!(sub.index() < self.num_labels);
        self.edges.push((sup, sub));
        self
    }

    /// Validates the DAG property and builds the [`Ontology`].
    pub fn build(mut self) -> Result<Ontology, GraphError> {
        let n = self.num_labels;
        self.edges.sort_unstable();
        self.edges.dedup();

        // sup CSR: for each subtype, its parents. Group by subtype.
        let mut sup_offsets = vec![0u32; n + 1];
        for &(_, sub) in &self.edges {
            sup_offsets[sub.index() + 1] += 1;
        }
        for i in 0..n {
            sup_offsets[i + 1] += sup_offsets[i];
        }
        let mut cursor = sup_offsets.clone();
        let mut sup_targets = vec![LabelId(0); self.edges.len()];
        for &(sup, sub) in &self.edges {
            let slot = cursor[sub.index()];
            sup_targets[slot as usize] = sup;
            cursor[sub.index()] += 1;
        }

        // sub CSR: for each supertype, its children. Edges are sorted by
        // supertype already.
        let mut sub_offsets = vec![0u32; n + 1];
        for &(sup, _) in &self.edges {
            sub_offsets[sup.index() + 1] += 1;
        }
        for i in 0..n {
            sub_offsets[i + 1] += sub_offsets[i];
        }
        let sub_targets: Vec<LabelId> = self.edges.iter().map(|&(_, sub)| sub).collect();

        // Kahn's algorithm: process labels whose supertypes are all done.
        // in_deg[l] = number of direct supertypes of l.
        let mut in_deg: Vec<u32> = (0..n)
            .map(|i| sup_offsets[i + 1] - sup_offsets[i])
            .collect();
        let mut queue: Vec<LabelId> = (0..n as u32)
            .map(LabelId)
            .filter(|l| in_deg[l.index()] == 0)
            .collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut depth = vec![0u32; n];
        let mut head = 0;
        while head < queue.len() {
            let l = queue[head];
            head += 1;
            topo_order.push(l);
            let i = l.index();
            for &c in &sub_targets[sub_offsets[i] as usize..sub_offsets[i + 1] as usize] {
                depth[c.index()] = depth[c.index()].max(depth[i] + 1);
                in_deg[c.index()] -= 1;
                if in_deg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo_order.len() != n {
            let on_label = (0..n).find(|&i| in_deg[i] > 0).map_or(0, |i| i as u32);
            return Err(GraphError::OntologyCycle { on_label });
        }

        Ok(Ontology {
            num_labels: n,
            sup_offsets,
            sup_targets,
            sub_offsets,
            sub_targets,
            topo_order,
            depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2-like ontology:
    ///   Thing(0) -> Person(1), Organization(2), Location(3)
    ///   Person(1) -> Academics(4), Investor(5)
    ///   Location(3) -> Eastern(6), Western(7)
    fn sample() -> Ontology {
        let mut b = OntologyBuilder::new(8);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.add_subtype(LabelId(0), LabelId(3));
        b.add_subtype(LabelId(1), LabelId(4));
        b.add_subtype(LabelId(1), LabelId(5));
        b.add_subtype(LabelId(3), LabelId(6));
        b.add_subtype(LabelId(3), LabelId(7));
        b.build().unwrap()
    }

    #[test]
    fn direct_relations() {
        let o = sample();
        assert_eq!(o.direct_supertypes(LabelId(4)), &[LabelId(1)]);
        assert_eq!(o.direct_subtypes(LabelId(1)), &[LabelId(4), LabelId(5)]);
        assert!(o.is_root(LabelId(0)));
        assert!(o.is_leaf(LabelId(4)));
        assert!(!o.is_leaf(LabelId(1)));
    }

    #[test]
    fn transitive_supertype() {
        let o = sample();
        assert!(o.is_supertype_of(LabelId(0), LabelId(4)));
        assert!(o.is_supertype_of(LabelId(1), LabelId(4)));
        assert!(o.is_supertype_of(LabelId(4), LabelId(4)));
        assert!(!o.is_supertype_of(LabelId(4), LabelId(1)));
        assert!(!o.is_supertype_of(LabelId(2), LabelId(4)));
    }

    #[test]
    fn depth_and_height() {
        let o = sample();
        assert_eq!(o.depth(LabelId(0)), 0);
        assert_eq!(o.depth(LabelId(1)), 1);
        assert_eq!(o.depth(LabelId(4)), 2);
        assert_eq!(o.height(), 2);
    }

    #[test]
    fn topo_order_respects_edges() {
        let o = sample();
        let pos: Vec<usize> = {
            let mut p = vec![0; o.num_labels()];
            for (i, &l) in o.topological_order().iter().enumerate() {
                p[l.index()] = i;
            }
            p
        };
        for l in 0..o.num_labels() as u32 {
            for &sub in o.direct_subtypes(LabelId(l)) {
                assert!(pos[l as usize] < pos[sub.index()]);
            }
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = OntologyBuilder::new(2);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(1), LabelId(0));
        assert!(matches!(b.build(), Err(GraphError::OntologyCycle { .. })));
    }

    #[test]
    fn diamond_is_allowed() {
        // A DAG, not a tree: 0 -> {1,2} -> 3.
        let mut b = OntologyBuilder::new(4);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.add_subtype(LabelId(1), LabelId(3));
        b.add_subtype(LabelId(2), LabelId(3));
        let o = b.build().unwrap();
        assert_eq!(o.direct_supertypes(LabelId(3)).len(), 2);
        assert_eq!(o.depth(LabelId(3)), 2);
    }

    #[test]
    fn isolated_labels_are_roots_and_leaves() {
        let b = OntologyBuilder::new(3);
        let o = b.build().unwrap();
        for l in 0..3u32 {
            assert!(o.is_root(LabelId(l)));
            assert!(o.is_leaf(LabelId(l)));
            assert_eq!(o.depth(LabelId(l)), 0);
        }
    }

    #[test]
    fn duplicate_edges_deduped() {
        let mut b = OntologyBuilder::new(2);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(1));
        let o = b.build().unwrap();
        assert_eq!(o.num_edges(), 1);
    }
}
