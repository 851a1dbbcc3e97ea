//! The two cost models.
//!
//! **Index construction** (Formula 3):
//! `cost(G, C) = α·compress(G, C) + (1 − α)·distort(G, C)` —
//! both terms in `[0, 1]`, both "smaller is better", traded off by `α`.
//!
//! **Query generalization** (Formula 4): the cost of evaluating a query
//! at layer `m` combines the layer's compression ratio with the growth
//! of the generalized keywords' supports:
//!
//! `cost_q(m) = β·(|G^m|/|G⁰|) + (1−β)·(Σᵢ sup(Genᵐ(qᵢ), Gᵐ)) / (Σᵢ sup(qᵢ, G⁰))`
//!
//! Note on the first term: the published formula prints it as
//! `β(1 − |χᵐ(G)|/|G|)`, which *increases* as summaries shrink and
//! would always select `m = 0` — contradicting the surrounding text
//! ("the smaller the summary graph, the more efficient the query
//! processing") and Fig. 19. We use the orientation consistent with the
//! text: smaller summaries reduce the first term. See DESIGN.md.

use crate::compress::CompressEstimator;
use crate::config::GenConfig;
use crate::distort::graph_distortion;
use bgi_graph::stats::LabelSupport;

/// Weights and thresholds for index construction.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// `α`: weight of `compress` vs `distort` in Formula 3.
    pub alpha: f64,
    /// `θ`: greedy acceptance threshold in Algo. 1.
    pub theta: f64,
    /// `Π`: maximum number of generalizations per configuration.
    pub pi: usize,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            alpha: 0.5,
            theta: 1.0, // the paper's default: "a large value of θ"
            pi: usize::MAX,
        }
    }
}

/// Formula 3 with an estimated compression ratio (all of the
/// estimator's samples).
pub fn construction_cost(
    estimator: &CompressEstimator,
    support: &LabelSupport,
    config: &GenConfig,
    alpha: f64,
) -> f64 {
    debug_assert!((0.0..=1.0).contains(&alpha));
    construction_cost_with_compress(estimator.estimate(config), support, config, alpha)
}

/// Formula 3 with a precomputed compression ratio (exact or estimated).
pub fn construction_cost_with_compress(
    compress: f64,
    support: &LabelSupport,
    config: &GenConfig,
    alpha: f64,
) -> f64 {
    alpha * compress + (1.0 - alpha) * graph_distortion(config, support)
}

/// Formula 4: query-generalization cost of evaluating at layer `m`.
///
/// - `size_ratio` = `|G^m| / |G⁰|`;
/// - `keyword_support_ratio` = `Σᵢ sup(Genᵐ(qᵢ), Gᵐ) / Σᵢ sup(qᵢ, G⁰)`,
///   clamped below at 1 (a generalized keyword never has fewer matches),
///   then squashed to `[0, 1]` as `1 − 1/ratio` so both terms share a
///   scale;
/// - `beta` trades them off.
pub fn query_cost(size_ratio: f64, keyword_support_ratio: f64, beta: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&beta));
    let support_penalty = if keyword_support_ratio <= 1.0 {
        0.0
    } else {
        1.0 - 1.0 / keyword_support_ratio
    };
    beta * size_ratio + (1.0 - beta) * support_penalty
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_bisim::BisimDirection;
    use bgi_graph::sampling::SamplingParams;
    use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder};

    #[test]
    fn construction_cost_bounds() {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(0));
        for i in 0..20 {
            let v = gb.add_vertex(LabelId(1 + (i % 2) as u32));
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(3), LabelId(1));
        ob.add_subtype(LabelId(3), LabelId(2));
        let o = ob.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(3)), (LabelId(2), LabelId(3))], &o).unwrap();
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 2,
                num_samples: 20,
                max_ball: 256,
                seed: 1,
            },
            BisimDirection::Forward,
        );
        let support = bgi_graph::stats::LabelSupport::new(&g);
        for alpha in [0.0, 0.3, 0.5, 1.0] {
            let cost = construction_cost(&est, &support, &c, alpha);
            assert!((0.0..=1.0 + 1e-9).contains(&cost), "alpha {alpha}: {cost}");
        }
    }

    #[test]
    fn alpha_extremes_isolate_terms() {
        let mut gb = GraphBuilder::new();
        gb.add_vertex(LabelId(1));
        gb.add_vertex(LabelId(2));
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(3), LabelId(1));
        ob.add_subtype(LabelId(3), LabelId(2));
        let o = ob.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(3)), (LabelId(2), LabelId(3))], &o).unwrap();
        let support = bgi_graph::stats::LabelSupport::new(&g);
        // alpha = 0: pure distortion.
        let d = construction_cost_with_compress(0.9, &support, &c, 0.0);
        assert!((d - graph_distortion(&c, &support)).abs() < 1e-12);
        // alpha = 1: pure compression.
        let cmp = construction_cost_with_compress(0.9, &support, &c, 1.0);
        assert!((cmp - 0.9).abs() < 1e-12);
    }

    #[test]
    fn query_cost_prefers_compression_when_beta_high() {
        // Layer A: small summary, high keyword support growth.
        let a = query_cost(0.2, 10.0, 0.9);
        // Layer B: big summary, no keyword growth.
        let b = query_cost(0.9, 1.0, 0.9);
        assert!(a < b);
    }

    #[test]
    fn query_cost_prefers_selectivity_when_beta_low() {
        let a = query_cost(0.2, 10.0, 0.1);
        let b = query_cost(0.9, 1.0, 0.1);
        assert!(b < a);
    }

    #[test]
    fn query_cost_bounds() {
        for &(sr, kr, beta) in &[
            (0.0, 1.0, 0.5),
            (1.0, 1.0, 0.5),
            (0.5, 100.0, 0.3),
            (0.8, 0.5, 0.7), // ratio < 1 clamps to no penalty
        ] {
            let c = query_cost(sr, kr, beta);
            assert!((0.0..=1.0 + 1e-9).contains(&c), "{sr} {kr} {beta} -> {c}");
        }
    }
}
