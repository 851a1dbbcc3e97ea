//! Random graph generators.
//!
//! Generic building blocks used by tests, property tests, and the
//! dataset crate. All generators are deterministic in their seed.

use crate::builder::GraphBuilder;
use crate::graph::DiGraph;
use crate::ids::{LabelId, VId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `G(n, m)`-style random digraph: `n` vertices with uniformly random
/// labels from `0..num_labels` and `m` uniformly random directed edges
/// (duplicates merged, so the result may have slightly fewer than `m`).
pub fn uniform_random(n: usize, m: usize, num_labels: usize, seed: u64) -> DiGraph {
    assert!(num_labels > 0, "need at least one label");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        b.add_vertex(LabelId(rng.gen_range(0..num_labels as u32)));
    }
    if n > 0 {
        for _ in 0..m {
            let u = VId(rng.gen_range(0..n as u32));
            let v = VId(rng.gen_range(0..n as u32));
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Preferential-attachment digraph: each new vertex draws `out_degree`
/// out-edges whose targets are chosen proportionally to in-degree + 1,
/// giving the heavy-tailed in-degree distribution typical of knowledge
/// graphs. Labels are uniform over `0..num_labels`.
pub fn preferential_attachment(
    n: usize,
    out_degree: usize,
    num_labels: usize,
    seed: u64,
) -> DiGraph {
    assert!(num_labels > 0, "need at least one label");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * out_degree);
    // Target pool: vertex v appears once per incoming edge, plus once
    // unconditionally, approximating P(target = v) ∝ in_deg(v) + 1.
    let mut pool: Vec<VId> = Vec::with_capacity(n * (out_degree + 1));
    for i in 0..n {
        let v = b.add_vertex(LabelId(rng.gen_range(0..num_labels as u32)));
        if i > 0 {
            for _ in 0..out_degree.min(i) {
                let t = pool[rng.gen_range(0..pool.len())];
                if t != v {
                    b.add_edge(v, t);
                    pool.push(t);
                }
            }
        }
        pool.push(VId(i as u32));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts() {
        let g = uniform_random(100, 300, 5, 1);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 300);
        assert!(g.num_edges() > 250); // few collisions at this density
        assert!(g.check_consistency());
    }

    #[test]
    fn uniform_deterministic() {
        let a = uniform_random(50, 100, 3, 9);
        let b = uniform_random(50, 100, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_labels_in_range() {
        let g = uniform_random(200, 100, 4, 2);
        assert!(g.labels().iter().all(|l| l.0 < 4));
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(500, 3, 5, 3);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 0);
        assert!(g.check_consistency());
        // Heavy tail: some vertex should have in-degree much larger than
        // the mean (~3).
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        assert!(max_in >= 10, "max in-degree {max_in}");
    }

    #[test]
    fn zero_vertices() {
        let g = uniform_random(0, 10, 3, 0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
