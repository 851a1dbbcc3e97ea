//! The immutable directed, vertex-labeled graph.
//!
//! [`DiGraph`] stores adjacency in compressed sparse row (CSR) form in
//! *both* directions: backward keyword search (BANKS, BLINKS) walks
//! in-edges, while bisimulation refinement and forward verification walk
//! out-edges. Both are offset/target arrays, so neighbor iteration is a
//! contiguous slice with no per-vertex allocation. A third CSR groups
//! vertices by label: every plug-in `f` is label-based (Def. 2.3), so
//! "the vertices carrying keyword `q`" is a slice of the graph itself,
//! derived by every constructor and never stored.

use crate::error::GraphError;
use crate::ids::{LabelId, VId};

/// A directed graph with one label per vertex, stored as dual CSR.
///
/// Construct via [`crate::GraphBuilder`]; the graph itself is immutable.
/// `|G| = |V| + |E|` as in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    labels: Vec<LabelId>,
    // Out-CSR: edges (u -> v) grouped by u.
    out_offsets: Vec<u32>,
    out_targets: Vec<VId>,
    // In-CSR: edges (u -> v) grouped by v, storing u.
    in_offsets: Vec<u32>,
    in_sources: Vec<VId>,
    num_labels: usize,
    // Label CSR: vertices grouped by label, ascending id within each
    // label; `label_offsets` has `num_labels + 1` entries. Derived from
    // `labels` by every constructor.
    label_offsets: Vec<u32>,
    label_vertices: Vec<VId>,
}

impl DiGraph {
    pub(crate) fn from_parts(
        labels: Vec<LabelId>,
        out_offsets: Vec<u32>,
        out_targets: Vec<VId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<VId>,
        num_labels: usize,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), labels.len() + 1);
        debug_assert_eq!(in_offsets.len(), labels.len() + 1);
        debug_assert_eq!(out_targets.len(), in_sources.len());
        let (label_offsets, label_vertices) = label_csr(&labels, num_labels);
        DiGraph {
            labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            num_labels,
            label_offsets,
            label_vertices,
        }
    }

    /// Reassembles a graph from raw dual-CSR arrays, as produced by
    /// [`DiGraph::csr_parts`] — the persistence path
    /// (`bgi-store`) round-trips graphs through this so a loaded graph
    /// is bit-identical to the saved one. All structural invariants are
    /// re-validated; inconsistent input (torn or corrupted on-disk
    /// data) is refused with a typed error, never a panic.
    pub fn from_csr(
        labels: Vec<LabelId>,
        out_offsets: Vec<u32>,
        out_targets: Vec<VId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<VId>,
        num_labels: usize,
    ) -> Result<Self, GraphError> {
        let n = labels.len();
        let malformed = |message: &str| GraphError::Parse {
            line: 0,
            message: format!("inconsistent CSR graph: {message}"),
        };
        if out_offsets.len() != n + 1 || in_offsets.len() != n + 1 {
            return Err(malformed("offset array length != |V| + 1"));
        }
        if out_offsets.first() != Some(&0) || in_offsets.first() != Some(&0) {
            return Err(malformed("offsets must start at 0"));
        }
        if out_offsets.windows(2).any(|w| w[0] > w[1]) || in_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(malformed("offsets must be non-decreasing"));
        }
        if out_offsets[n] as usize != out_targets.len()
            || in_offsets[n] as usize != in_sources.len()
        {
            return Err(malformed("final offset != edge array length"));
        }
        for &l in &labels {
            if l.index() >= num_labels {
                return Err(GraphError::LabelOutOfRange {
                    label: l.0,
                    num_labels,
                });
            }
        }
        for &v in out_targets.iter().chain(&in_sources) {
            if v.index() >= n {
                return Err(GraphError::VertexOutOfRange {
                    vid: v.0,
                    num_vertices: n,
                });
            }
        }
        let g = DiGraph::from_parts(
            labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            num_labels,
        );
        // Mirror check: every out-edge has its in-edge and vice versa.
        if !g.check_consistency() {
            return Err(malformed("in/out adjacency is not a mirror pair"));
        }
        Ok(g)
    }

    /// The raw dual-CSR arrays backing this graph, in
    /// [`DiGraph::from_csr`] argument order:
    /// `(labels, out_offsets, out_targets, in_offsets, in_sources)`.
    #[allow(clippy::type_complexity)]
    pub fn csr_parts(&self) -> (&[LabelId], &[u32], &[VId], &[u32], &[VId]) {
        (
            &self.labels,
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
        )
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Graph size `|G| = |V| + |E|` as defined in Sec. 2 of the paper.
    #[inline]
    pub fn size(&self) -> usize {
        self.num_vertices() + self.num_edges()
    }

    /// Number of distinct labels the graph was built against (the size of
    /// its label alphabet `Σ`, which may exceed the labels actually used).
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.num_labels
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: VId) -> LabelId {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VId> + '_ {
        (0..self.labels.len() as u32).map(VId)
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: VId) -> &[VId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VId) -> &[VId] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Checks whether edge `(u, v)` exists. `O(out_degree(u))`.
    pub fn has_edge(&self, u: VId, v: VId) -> bool {
        self.out_neighbors(u).contains(&v)
    }

    /// Iterator over all edges `(u, v)` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VId, VId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Vertices carrying label `l` (`V_q` in the paper), in ascending
    /// id order; empty for a label outside the alphabet.
    #[inline]
    pub fn vertices_with(&self, l: LabelId) -> &[VId] {
        match self.label_offsets.get(l.index()..=l.index() + 1) {
            Some(&[lo, hi]) => &self.label_vertices[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Number of vertices carrying label `l` (`|V_ℓ|`); 0 outside the
    /// alphabet.
    #[inline]
    pub fn label_count(&self, l: LabelId) -> u32 {
        self.vertices_with(l).len() as u32
    }

    /// Counts occurrences of every label; result is indexed by `LabelId`.
    pub fn label_counts(&self) -> Vec<u32> {
        self.label_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Returns a copy of this graph with labels rewritten through `map`
    /// (`map[old_label] = new_label`). The adjacency structure is shared
    /// logic with the original; only the label table changes, and the
    /// alphabet grows to hold every label `map` produces. This is the
    /// primitive behind graph generalization `Gen(G, C)`.
    pub fn relabel(&self, map: &[LabelId]) -> DiGraph {
        let labels: Vec<LabelId> = self.labels.iter().map(|l| map[l.index()]).collect();
        let num_labels = labels
            .iter()
            .map(|l| l.index() + 1)
            .fold(self.num_labels, usize::max);
        DiGraph::from_parts(
            labels,
            self.out_offsets.clone(),
            self.out_targets.clone(),
            self.in_offsets.clone(),
            self.in_sources.clone(),
            num_labels,
        )
    }

    /// A copy of this graph with `new_labels` appended as vertices and
    /// some rows replaced — the splice behind every incremental update.
    /// `out_rows` lists `(v, targets)` pairs, sorted by `v`, giving the
    /// complete new out-row of each listed vertex; `in_rows` does the
    /// same for in-rows. Every other row is copied over unchanged, and
    /// appended vertices not listed start with empty rows. Listed rows
    /// must be sorted and duplicate-free, and the caller keeps the two
    /// directions mirror images of each other (checked in debug
    /// builds). `O(|V| + |E|)` copying, with no sort and no per-row
    /// allocation.
    pub fn with_rows(
        &self,
        new_labels: &[LabelId],
        out_rows: &[(VId, Vec<VId>)],
        in_rows: &[(VId, Vec<VId>)],
    ) -> DiGraph {
        let n = self.num_vertices() + new_labels.len();
        let mut labels = Vec::with_capacity(n);
        labels.extend_from_slice(&self.labels);
        labels.extend_from_slice(new_labels);
        let num_labels = new_labels
            .iter()
            .map(|l| l.index() + 1)
            .fold(self.num_labels, usize::max);
        let (out_offsets, out_targets) =
            splice_rows(&self.out_offsets, &self.out_targets, n, out_rows);
        let (in_offsets, in_sources) = splice_rows(&self.in_offsets, &self.in_sources, n, in_rows);
        let g = DiGraph::from_parts(
            labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            num_labels,
        );
        debug_assert!(g.check_consistency(), "spliced rows are not mirror images");
        g
    }

    /// Validates internal invariants; used by tests and debug assertions.
    pub fn check_consistency(&self) -> bool {
        let n = self.num_vertices();
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return false;
        }
        if self.out_offsets[n] as usize != self.out_targets.len() {
            return false;
        }
        if self.in_offsets[n] as usize != self.in_sources.len() {
            return false;
        }
        // Every out-edge must be mirrored by an in-edge and vice versa.
        let mut out_pairs: Vec<(u32, u32)> = self.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut in_pairs: Vec<(u32, u32)> = self
            .vertices()
            .flat_map(|v| self.in_neighbors(v).iter().map(move |&u| (u.0, v.0)))
            .collect();
        out_pairs.sort_unstable();
        in_pairs.sort_unstable();
        out_pairs == in_pairs
    }
}

/// The label CSR of `labels` over an alphabet of `num_labels`: one
/// counting pass, a prefix sum, and a scatter in vertex order, so each
/// label's vertices come out ascending. `O(|V| + |Σ|)`.
fn label_csr(labels: &[LabelId], num_labels: usize) -> (Vec<u32>, Vec<VId>) {
    let mut offsets = vec![0u32; num_labels + 1];
    for &l in labels {
        offsets[l.index() + 1] += 1;
    }
    for i in 0..num_labels {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets.clone();
    let mut vertices = vec![VId(0); labels.len()];
    for (v, &l) in labels.iter().enumerate() {
        let slot = &mut next[l.index()];
        vertices[*slot as usize] = VId(v as u32);
        *slot += 1;
    }
    (offsets, vertices)
}

/// One direction of [`DiGraph::with_rows`]: the CSR arrays of `n`
/// vertices whose rows are `replaced` where listed and copied from
/// `(offsets, targets)` elsewhere (empty past the old vertex count).
fn splice_rows(
    offsets: &[u32],
    targets: &[VId],
    n: usize,
    replaced: &[(VId, Vec<VId>)],
) -> (Vec<u32>, Vec<VId>) {
    let old_n = offsets.len() - 1;
    debug_assert!(replaced.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(replaced.last().is_none_or(|(v, _)| v.index() < n));
    let old_row = |v: usize| {
        if v < old_n {
            offsets[v] as usize..offsets[v + 1] as usize
        } else {
            0..0
        }
    };
    let removed: usize = replaced.iter().map(|(v, _)| old_row(v.index()).len()).sum();
    let added: usize = replaced.iter().map(|(_, row)| row.len()).sum();
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_targets = Vec::with_capacity(targets.len() + added - removed);
    new_offsets.push(0);
    let mut next = replaced.iter().peekable();
    // Unlisted rows are copied run by run: one slice copy per stretch
    // between two listed vertices.
    let mut v = 0usize;
    while v < n {
        let stop = next.peek().map_or(n, |(w, _)| w.index());
        if v < stop {
            let copied = v.min(old_n)..stop.min(old_n);
            let shift = new_targets.len() as i64 - offsets[copied.start] as i64;
            new_targets.extend_from_slice(
                &targets[offsets[copied.start] as usize..offsets[copied.end] as usize],
            );
            new_offsets.extend(
                offsets[copied.start + 1..=copied.end]
                    .iter()
                    .map(|&o| (o as i64 + shift) as u32),
            );
            // Appended vertices in the stretch have empty rows.
            new_offsets.resize(stop + 1, new_targets.len() as u32);
            v = stop;
        } else if let Some((_, row)) = next.next() {
            new_targets.extend_from_slice(row);
            new_offsets.push(new_targets.len() as u32);
            v += 1;
        }
    }
    (new_offsets, new_targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(LabelId(0));
        let x = b.add_vertex(LabelId(1));
        let y = b.add_vertex(LabelId(1));
        let z = b.add_vertex(LabelId(2));
        b.add_edge(a, x);
        b.add_edge(a, y);
        b.add_edge(x, z);
        b.add_edge(y, z);
        b.build()
    }

    #[test]
    fn counts_and_size() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        assert_eq!(g.out_neighbors(VId(0)), &[VId(1), VId(2)]);
        assert_eq!(g.in_neighbors(VId(3)), &[VId(1), VId(2)]);
        assert_eq!(g.in_neighbors(VId(0)), &[] as &[VId]);
        assert_eq!(g.out_neighbors(VId(3)), &[] as &[VId]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(VId(0)), 2);
        assert_eq!(g.in_degree(VId(0)), 0);
    }

    #[test]
    fn has_edge_checks() {
        let g = diamond();
        assert!(g.has_edge(VId(0), VId(1)));
        assert!(!g.has_edge(VId(1), VId(0)));
        assert!(!g.has_edge(VId(0), VId(3)));
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = diamond();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 4);
        assert!(es.contains(&(VId(0), VId(1))));
        assert!(es.contains(&(VId(2), VId(3))));
    }

    #[test]
    fn label_counts_and_lookup() {
        let g = diamond();
        assert_eq!(g.label(VId(1)), LabelId(1));
        let counts = g.label_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[2], 1);
        assert_eq!(g.vertices_with(LabelId(1)), &[VId(1), VId(2)]);
        assert_eq!(g.label_count(LabelId(1)), 2);
        // Keywords arrive from the wire: outside the alphabet is empty.
        assert_eq!(g.vertices_with(LabelId(3)), &[] as &[VId]);
        assert_eq!(g.label_count(LabelId(u32::MAX)), 0);
    }

    #[test]
    fn relabel_rewrites_labels_only() {
        let g = diamond();
        // Map label 1 -> 2, identity elsewhere.
        let map = vec![LabelId(0), LabelId(2), LabelId(2)];
        let g2 = g.relabel(&map);
        assert_eq!(g2.label(VId(1)), LabelId(2));
        assert_eq!(g2.label(VId(2)), LabelId(2));
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.out_neighbors(VId(0)), g.out_neighbors(VId(0)));
    }

    #[test]
    fn with_rows_splices_rows_and_appends_vertices() {
        let g = diamond();
        // Drop 0 -> 2, add 3 -> 0 and a new vertex 4 with 4 -> 3.
        let spliced = g.with_rows(
            &[LabelId(7)],
            &[
                (VId(0), vec![VId(1)]),
                (VId(3), vec![VId(0)]),
                (VId(4), vec![VId(3)]),
            ],
            &[
                (VId(0), vec![VId(3)]),
                (VId(2), vec![]),
                (VId(3), vec![VId(1), VId(2), VId(4)]),
            ],
        );
        let expect = GraphBuilder::from_edges(
            vec![LabelId(0), LabelId(1), LabelId(1), LabelId(2), LabelId(7)],
            vec![
                (VId(0), VId(1)),
                (VId(1), VId(3)),
                (VId(2), VId(3)),
                (VId(3), VId(0)),
                (VId(4), VId(3)),
            ],
        );
        assert_eq!(spliced, expect);
        // Nothing listed and nothing appended: an identical copy.
        assert_eq!(g.with_rows(&[], &[], &[]), g);
    }

    #[test]
    fn consistency_holds() {
        assert!(diamond().check_consistency());
    }

    #[test]
    fn csr_roundtrip_is_identical() {
        let g = diamond();
        let (labels, oo, ot, io, is) = g.csr_parts();
        let g2 = DiGraph::from_csr(
            labels.to_vec(),
            oo.to_vec(),
            ot.to_vec(),
            io.to_vec(),
            is.to_vec(),
            g.alphabet_size(),
        )
        .expect("round-trip");
        assert_eq!(g, g2);
    }

    #[test]
    fn from_csr_rejects_torn_input() {
        let g = diamond();
        let (labels, oo, ot, io, is) = g.csr_parts();
        // Truncated edge array (simulates a short write).
        assert!(DiGraph::from_csr(
            labels.to_vec(),
            oo.to_vec(),
            ot[..ot.len() - 1].to_vec(),
            io.to_vec(),
            is.to_vec(),
            g.alphabet_size(),
        )
        .is_err());
        // Out-of-range vertex id.
        let mut bad = ot.to_vec();
        bad[0] = VId(99);
        assert!(DiGraph::from_csr(
            labels.to_vec(),
            oo.to_vec(),
            bad,
            io.to_vec(),
            is.to_vec(),
            g.alphabet_size(),
        )
        .is_err());
        // Mirror violation: swap two in-sources so adjacency no longer
        // matches.
        let mut bad_in = is.to_vec();
        bad_in[0] = VId(3);
        assert!(DiGraph::from_csr(
            labels.to_vec(),
            oo.to_vec(),
            ot.to_vec(),
            io.to_vec(),
            bad_in,
            g.alphabet_size(),
        )
        .is_err());
        // Label beyond the declared alphabet.
        assert!(DiGraph::from_csr(
            labels.to_vec(),
            oo.to_vec(),
            ot.to_vec(),
            io.to_vec(),
            is.to_vec(),
            1,
        )
        .is_err());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.check_consistency());
        assert_eq!(g.vertices().count(), 0);
    }
}
