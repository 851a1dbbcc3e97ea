//! Graph statistics: label support, degree distribution summaries.
//!
//! `sup(ℓ) = |V_ℓ| / |V|` (Sec. 3.2) weights the distortion model;
//! `sup(q, G)` also appears in the query-layer cost model (Formula 4).

use crate::graph::DiGraph;
use crate::ids::LabelId;

/// Per-label supports of a graph: a view over the graph's own label
/// table ([`DiGraph::label_count`]), so it holds no counts of its own.
#[derive(Debug, Clone, Copy)]
pub struct LabelSupport<'g> {
    g: &'g DiGraph,
}

impl<'g> LabelSupport<'g> {
    /// The supports of `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        LabelSupport { g }
    }

    /// Number of vertices carrying `l` (`|V_ℓ|`).
    pub fn count(&self, l: LabelId) -> u32 {
        self.g.label_count(l)
    }

    /// Support `sup(ℓ) = |V_ℓ| / |V|`, in `[0, 1]`.
    pub fn support(&self, l: LabelId) -> f64 {
        if self.g.num_vertices() == 0 {
            0.0
        } else {
            self.count(l) as f64 / self.g.num_vertices() as f64
        }
    }
}

/// Summary of a graph's degree structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Mean out-degree (== mean in-degree).
    pub mean_out: f64,
    /// Maximum out-degree.
    pub max_out: usize,
    /// Maximum in-degree.
    pub max_in: usize,
}

/// Computes degree statistics for `g`.
pub fn degree_stats(g: &DiGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            mean_out: 0.0,
            max_out: 0,
            max_in: 0,
        };
    }
    DegreeStats {
        mean_out: g.num_edges() as f64 / n as f64,
        max_out: g.vertices().map(|v| g.out_degree(v)).max().unwrap_or(0),
        max_in: g.vertices().map(|v| g.in_degree(v)).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::VId;

    fn star() -> DiGraph {
        // hub(0, label 0) -> 4 leaves (label 1)
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(0));
        for _ in 0..4 {
            let leaf = b.add_vertex(LabelId(1));
            b.add_edge(hub, leaf);
        }
        b.build()
    }

    #[test]
    fn supports_sum_to_one() {
        let g = star();
        let s = LabelSupport::new(&g);
        assert!((s.support(LabelId(0)) - 0.2).abs() < 1e-12);
        assert!((s.support(LabelId(1)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unknown_label_has_zero_support() {
        let g = star();
        let s = LabelSupport::new(&g);
        assert_eq!(s.count(LabelId(99)), 0);
        assert_eq!(s.support(LabelId(99)), 0.0);
    }

    #[test]
    fn degree_summary() {
        let g = star();
        let d = degree_stats(&g);
        assert_eq!(d.max_out, 4);
        assert_eq!(d.max_in, 1);
        assert!((d.mean_out - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new().build();
        let s = LabelSupport::new(&g);
        assert_eq!(s.support(LabelId(0)), 0.0);
        let d = degree_stats(&g);
        assert_eq!(d.mean_out, 0.0);
        let _ = VId(0); // silence unused import in cfg(test)
    }
}
