//! Algo. 1: one-step greedy heuristic for a maximal configuration.
//!
//! Computing the cost-optimal configuration is NP-hard (Thm. 3.1, by
//! reduction from maxSAT), so construction is greedy: estimate the cost
//! of every single-mapping candidate `(ℓ → ℓ')` (for labels `ℓ` present
//! in the graph with a direct supertype `ℓ'`), process candidates in
//! ascending estimated cost, and accept each whose addition keeps the
//! combined cost within the threshold `θ`, stopping at the budget `Π`.

use crate::compress::CompressEstimator;
use crate::config::GenConfig;
use crate::cost::{construction_cost_with_compress, CostParams};
use bgi_graph::par::par_map;
use bgi_graph::stats::LabelSupport;
use bgi_graph::{DiGraph, LabelId, Ontology};

/// Samples Algo. 1 reads, for ranking and for acceptance alike: the
/// first this many of the estimator's (ordering is all the greedy
/// search needs of the estimate, and a capped sample set keeps the
/// loop linear in practice).
pub const ALGO1_SAMPLES: usize = 64;

/// What one run of Algo. 1 did, counted rather than timed: the numbers
/// repeat exactly across runs, machines and thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Algo1Work {
    /// Single-mapping candidates `(ℓ → ℓ′)` ranked.
    pub candidates: usize,
    /// Sample bisimulations computed: one per distinct sample up front,
    /// then one per (trial, distinct sample the trial can change).
    pub sample_evals: usize,
    /// Sample bisimulations a from-scratch pass over the samples would
    /// have run and this one did not: repeats of a sample, and samples
    /// whose cached `|χ(s, C)|` a trial leaves valid.
    pub sample_evals_skipped: usize,
}

impl Algo1Work {
    /// The field-wise sum over `layers` (a build runs Algo. 1 once per
    /// layer).
    pub fn total(layers: &[Algo1Work]) -> Algo1Work {
        layers
            .iter()
            .fold(Algo1Work::default(), |sum, w| Algo1Work {
                candidates: sum.candidates + w.candidates,
                sample_evals: sum.sample_evals + w.sample_evals,
                sample_evals_skipped: sum.sample_evals_skipped + w.sample_evals_skipped,
            })
    }
}

/// Runs Algo. 1: returns the greedy configuration for one layer and
/// the work it took.
///
/// `estimator` carries the sampled subgraphs used for compression
/// estimates; `support` the label supports of `g`.
pub fn greedy_configuration(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
) -> (GenConfig, Algo1Work) {
    greedy_configuration_threaded(g, ontology, estimator, support, params, 1)
}

/// [`greedy_configuration`] with the candidate-ranking pass — one
/// compression estimate per `(ℓ → ℓ')` pair — fanned out over up to
/// `threads` scoped workers.
///
/// Each candidate's estimated cost is independent of every other's, and
/// results are collected back in candidate order before the (inherently
/// sequential) greedy acceptance loop runs, so the returned
/// configuration is identical for every thread count.
pub fn greedy_configuration_threaded(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
    threads: usize,
) -> (GenConfig, Algo1Work) {
    greedy_observed(g, ontology, estimator, support, params, threads, |_| {})
}

/// One Formula 3 cost Algo. 1 computed, in the order it computed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Costed {
    /// `{ℓ → ℓ′}` alone, in the ranking pass (reported in rank order).
    Ranked(LabelId, LabelId, f64),
    /// The accepted configuration plus `ℓ → ℓ′`, in the acceptance loop.
    Tried(LabelId, LabelId, f64),
}

/// [`greedy_configuration_threaded`], reporting every cost to
/// `observe` (the differential test's window; a no-op in production).
pub(crate) fn greedy_observed(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
    threads: usize,
    mut observe: impl FnMut(Costed),
) -> (GenConfig, Algo1Work) {
    debug_assert!((0.0..=1.0).contains(&params.alpha));
    // Candidate single-mapping generalizations: every label present in
    // the graph paired with each of its direct supertypes.
    let counts = g.label_counts();
    let mut pairs: Vec<(LabelId, LabelId)> = Vec::new();
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let l = LabelId(i as u32);
        if l.index() >= ontology.num_labels() {
            continue;
        }
        for &sup in ontology.direct_supertypes(l) {
            pairs.push((l, sup));
        }
    }
    let mut estimate = estimator.incremental(ALGO1_SAMPLES);
    let samples = estimate.num_samples();
    let mut work = Algo1Work {
        candidates: pairs.len(),
        sample_evals: estimate.num_distinct(),
        sample_evals_skipped: samples - estimate.num_distinct(),
    };
    let mut count = |evaluated: usize| {
        work.sample_evals += evaluated;
        work.sample_evals_skipped += samples - evaluated;
    };

    let ranked = par_map(threads, pairs.len(), |i| {
        let (l, sup) = pairs[i];
        let trial = estimate.trial(l, sup);
        // Every pair is a direct-supertype edge of the ontology, so the
        // one-mapping configuration needs no validation.
        let mut single = GenConfig::empty();
        single.insert(l, sup);
        let cost = construction_cost_with_compress(trial.ratio, support, &single, params.alpha);
        (cost, trial.evaluated())
    });
    let mut candidates: Vec<(f64, LabelId, LabelId)> = Vec::with_capacity(pairs.len());
    for (&(l, sup), (cost, evaluated)) in pairs.iter().zip(ranked) {
        count(evaluated);
        candidates.push((cost, l, sup));
    }
    // Priority order: ascending estimated cost (ties by label for
    // determinism; the sort is stable, so a label's supertypes keep the
    // ontology's order).
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for &(cost, l, sup) in &candidates {
        observe(Costed::Ranked(l, sup, cost));
    }

    let mut config = GenConfig::empty();
    for (_, l, sup) in candidates {
        if config.len() >= params.pi {
            break;
        }
        // A label may appear with several supertypes; keep the first
        // (cheapest) accepted mapping.
        if config.apply(l) != l {
            continue;
        }
        let trial = estimate.trial(l, sup);
        count(trial.evaluated());
        config.insert(l, sup);
        let cost = construction_cost_with_compress(trial.ratio, support, &config, params.alpha);
        observe(Costed::Tried(l, sup, cost));
        if cost <= params.theta {
            estimate.accept(l, sup, trial);
        } else {
            // Algo. 1 returns as soon as a candidate overshoots θ.
            config.remove(l);
            break;
        }
    }
    (config, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_bisim::BisimDirection;
    use bgi_graph::sampling::SamplingParams;
    use bgi_graph::{GraphBuilder, OntologyBuilder};

    /// Two person subtypes pointing at a hub; generalizing them enables
    /// compression.
    fn setup() -> (DiGraph, Ontology) {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(3));
        for i in 0..40 {
            let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        let o = ob.build().unwrap();
        (g, o)
    }

    fn estimator(g: &DiGraph) -> CompressEstimator {
        CompressEstimator::new(
            g,
            &SamplingParams {
                radius: 2,
                num_samples: 40,
                max_ball: 256,
                seed: 1,
            },
            BisimDirection::Forward,
        )
    }

    #[test]
    fn greedy_finds_compressing_mappings() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let (config, _) = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert_eq!(config.apply(LabelId(1)), LabelId(0));
        assert_eq!(config.apply(LabelId(2)), LabelId(0));
    }

    #[test]
    fn threaded_greedy_matches_serial() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let serial = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        for threads in [2usize, 4, 8] {
            let parallel = greedy_configuration_threaded(
                &g,
                &o,
                &est,
                &support,
                &CostParams::default(),
                threads,
            );
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn pi_budget_caps_config_size() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let params = CostParams {
            pi: 1,
            ..CostParams::default()
        };
        let (config, _) = greedy_configuration(&g, &o, &est, &support, &params);
        assert_eq!(config.len(), 1);
    }

    #[test]
    fn tight_theta_rejects_everything() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let params = CostParams {
            theta: 0.0,
            ..CostParams::default()
        };
        let (config, _) = greedy_configuration(&g, &o, &est, &support, &params);
        assert!(config.is_empty());
    }

    #[test]
    fn no_supertypes_means_empty_config() {
        let g = bgi_graph::generate::uniform_random(30, 60, 3, 2);
        let o = OntologyBuilder::new(3).build().unwrap(); // flat ontology
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let (config, _) = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert!(config.is_empty());
    }

    #[test]
    fn absent_labels_not_considered() {
        // Graph uses only label 3 (the hub label has no supertype);
        // labels 1, 2 absent -> nothing to generalize.
        let mut gb = GraphBuilder::new();
        gb.add_vertex(LabelId(3));
        let g = gb.build();
        let (_, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let (config, _) = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert!(config.is_empty());
    }
}
