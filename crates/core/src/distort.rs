//! Semantic distortion of a configuration (Sec. 3.2, part (ii) of the
//! cost model).
//!
//! Generalizing `ℓ` to `ℓ'` costs nothing to undo when `ℓ` is the only
//! label mapped to `ℓ'`; when `|X_ℓ|` labels share the target, a query
//! touching `ℓ'` must later distinguish `ℓ` from `|X_ℓ| − 1` siblings:
//! `distort(ℓ) = 1 − 1/|X_ℓ|`. The graph-level distortion weights each
//! label by its support `sup(ℓ) = |V_ℓ|/|V|` so that distorting frequent
//! labels costs more:
//!
//! `distort(G, C) = (Σ_ℓ distort(ℓ)·sup(ℓ)) / (|X| · Σ_ℓ sup(ℓ))`.

use crate::config::GenConfig;
use bgi_graph::stats::LabelSupport;
use bgi_graph::LabelId;
use rustc_hash::FxHashMap;

/// `1 − 1/|X_ℓ|` for a cohort of `cohort` labels; 0 for none.
fn cohort_distortion(cohort: usize) -> f64 {
    if cohort == 0 {
        0.0
    } else {
        1.0 - 1.0 / cohort as f64
    }
}

/// Per-label distortion `1 − 1/|X_ℓ|`; 0 for unmapped labels.
pub fn label_distortion(config: &GenConfig, l: LabelId) -> f64 {
    cohort_distortion(config.cohort_size(l))
}

/// Unweighted ("basic") distortion: mean of per-label distortions over
/// the configuration's domain.
pub fn basic_distortion(config: &GenConfig) -> f64 {
    if config.is_empty() {
        return 0.0;
    }
    let sum: f64 = config.domain().map(|l| label_distortion(config, l)).sum();
    sum / config.len() as f64
}

/// Support-weighted distortion `distort(G, C)` of Sec. 3.2.
///
/// Labels absent from the graph (support 0) contribute nothing; when the
/// whole domain has zero support the distortion is 0 (generalizing
/// unused labels is free).
pub fn graph_distortion(config: &GenConfig, support: &LabelSupport) -> f64 {
    if config.is_empty() {
        return 0.0;
    }
    // Cohort sizes counted once per target: Algo. 1 asks for this sum
    // once per accepted mapping, over a configuration that keeps growing.
    let mut cohorts: FxHashMap<LabelId, usize> = FxHashMap::default();
    for &(_, to) in config.mappings() {
        *cohorts.entry(to).or_insert(0) += 1;
    }
    let mut weighted = 0.0;
    let mut total_support = 0.0;
    for &(l, to) in config.mappings() {
        let s = support.support(l);
        weighted += cohort_distortion(cohorts[&to]) * s;
        total_support += s;
    }
    if total_support == 0.0 {
        return 0.0;
    }
    weighted / (config.len() as f64 * total_support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{DiGraph, GraphBuilder, LabelId, OntologyBuilder};

    fn setup() -> (GenConfig, DiGraph) {
        // Ontology: 0 -> {1, 2, 3}; config maps 1, 2, 3 -> 0.
        let mut b = OntologyBuilder::new(4);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.add_subtype(LabelId(0), LabelId(3));
        let o = b.build().unwrap();
        let c = GenConfig::new(
            [
                (LabelId(1), LabelId(0)),
                (LabelId(2), LabelId(0)),
                (LabelId(3), LabelId(0)),
            ],
            &o,
        )
        .unwrap();
        // Graph: 6 vertices of label 1, 2 of label 2, 2 of label 3.
        let mut gb = GraphBuilder::new();
        for _ in 0..6 {
            gb.add_vertex(LabelId(1));
        }
        for _ in 0..2 {
            gb.add_vertex(LabelId(2));
        }
        for _ in 0..2 {
            gb.add_vertex(LabelId(3));
        }
        (c, gb.build())
    }

    #[test]
    fn example_3_1_two_to_one_target() {
        // Two labels to one target: distort = 1/2 each (Example 3.1).
        let mut b = OntologyBuilder::new(3);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        let o = b.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        assert!((label_distortion(&c, LabelId(1)) - 0.5).abs() < 1e-12);
        assert!((label_distortion(&c, LabelId(2)) - 0.5).abs() < 1e-12);
        assert!((basic_distortion(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn singleton_mapping_has_zero_distortion() {
        let mut b = OntologyBuilder::new(2);
        b.add_subtype(LabelId(0), LabelId(1));
        let o = b.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(0))], &o).unwrap();
        assert_eq!(label_distortion(&c, LabelId(1)), 0.0);
        assert_eq!(basic_distortion(&c), 0.0);
    }

    #[test]
    fn three_way_cohort() {
        let (c, _) = setup();
        for l in [1u32, 2, 3] {
            assert!((label_distortion(&c, LabelId(l)) - 2.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_distortion_in_unit_interval() {
        let (c, g) = setup();
        let d = graph_distortion(&c, &LabelSupport::new(&g));
        assert!(d > 0.0 && d <= 1.0, "d = {d}");
    }

    #[test]
    fn empty_config_zero() {
        let (_, g) = setup();
        let s = LabelSupport::new(&g);
        assert_eq!(graph_distortion(&GenConfig::empty(), &s), 0.0);
    }

    #[test]
    fn unsupported_labels_are_free() {
        // Config over labels that never occur in the graph.
        let mut b = OntologyBuilder::new(6);
        b.add_subtype(LabelId(4), LabelId(5));
        let o = b.build().unwrap();
        let c = GenConfig::new([(LabelId(5), LabelId(4))], &o).unwrap();
        let mut gb = GraphBuilder::new();
        gb.add_vertex(LabelId(0));
        let g = gb.build();
        assert_eq!(graph_distortion(&c, &LabelSupport::new(&g)), 0.0);
    }
}
