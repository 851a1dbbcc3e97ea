//! Fig. 16 and Exp-4: cost-model effectiveness.
//!
//! 1. **Sampling stability** (Fig. 16): the estimated compression ratio
//!    vs. the number of sampled subgraphs — stable past n ≈ 400.
//! 2. **Estimate fidelity**: Spearman rank correlation between
//!    estimated and exact compression over random configurations
//!    (paper: r_s = 0.541 > 0.326 critical value).
//! 3. **Optimal-layer prediction**: how often the Formula 4 model picks
//!    the empirically fastest layer (paper: 75%), with a β sweep.

use crate::harness::{spearman, TableWriter};
use crate::setup::Workbench;
use bgi_datasets::DatasetSpec;
use bgi_graph::sampling::SamplingParams;
use bgi_search::blinks::{Blinks, BlinksParams};
use big_index::compress::{exact_compress, CompressEstimator};
use big_index::{Boosted, EvalOptions, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 16: estimate vs. sample count.
pub fn sampling_stability(scale: usize) -> String {
    let ds = DatasetSpec::yago_like(scale).generate();
    let config = crate::setup::full_step_config(&ds.graph, &ds.ontology);
    let exact = exact_compress(&ds.graph, &config, bgi_bisim::BisimDirection::Forward);
    let mut t = TableWriter::new(&["samples n", "estimated compress", "exact"]);
    for n in [25usize, 50, 100, 200, 400, 800] {
        let est = CompressEstimator::new(
            &ds.graph,
            &SamplingParams {
                radius: 2,
                num_samples: n,
                max_ball: 256,
                seed: 7,
            },
            bgi_bisim::BisimDirection::Forward,
        );
        t.row(&[
            n.to_string(),
            format!("{:.4}", est.estimate(&config)),
            format!("{exact:.4}"),
        ]);
    }
    format!(
        "## Fig. 16 — estimated compress vs sample size (yago-like)\n\n{}",
        t.render()
    )
}

/// Spearman correlation between estimated and exact compression over
/// random configurations (Exp-4's r_s).
pub fn estimate_correlation(scale: usize) -> (String, f64) {
    let ds = DatasetSpec::yago_like(scale).generate();
    let est = CompressEstimator::new(
        &ds.graph,
        &SamplingParams {
            radius: 2,
            num_samples: 400,
            max_ball: 256,
            seed: 11,
        },
        bgi_bisim::BisimDirection::Forward,
    );
    let full = crate::setup::full_step_config(&ds.graph, &ds.ontology);
    let all = full.mappings().to_vec();
    let mut rng = StdRng::seed_from_u64(23);
    let mut estimated = Vec::new();
    let mut exact = Vec::new();
    for _ in 0..40 {
        // Random subset of the one-step mappings.
        let subset: Vec<_> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let config = GenConfig::new(subset, &ds.ontology).unwrap();
        estimated.push(est.estimate(&config));
        exact.push(exact_compress(
            &ds.graph,
            &config,
            bgi_bisim::BisimDirection::Forward,
        ));
    }
    let r = spearman(&estimated, &exact);
    (
        format!(
            "## Exp-4 — Spearman correlation of estimated vs exact compress\n\n\
             r_s = {r:.3} over 40 random configurations \
             (paper: 0.541, critical value 0.326 at α = 0.001)\n"
        ),
        r,
    )
}

/// Optimal-layer prediction accuracy with a β sweep (Exp-4 / Fig. 19's
/// companion table).
pub fn layer_prediction(scale: usize) -> (String, f64) {
    let wb = Workbench::prepare(&DatasetSpec::yago_like(scale), 7, 5);
    let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
    let mut out = String::new();
    let mut best_accuracy = 0.0f64;
    let mut t = TableWriter::new(&["beta", "accuracy (predicted = fastest layer)"]);
    for beta in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let opts = EvalOptions {
            beta,
            ..EvalOptions::default()
        };
        let boosted = Boosted::new(&wb.index, blinks, opts);
        let mut hits = 0usize;
        for q in &wb.queries {
            let query = q.to_query();
            // Empirical best layer.
            let mut best_layer = 0;
            let mut best_time = std::time::Duration::MAX;
            for m in 0..=wb.index.num_layers() {
                if big_index::query_gen::generalize_query(&wb.index, &query, m).len() != query.len()
                {
                    continue;
                }
                let time = crate::harness::median_time(2, || {
                    boosted.query_at_layer(&query, 10, m).answers
                });
                if time < best_time {
                    best_time = time;
                    best_layer = m;
                }
            }
            if boosted.chosen_layer(&query) == best_layer {
                hits += 1;
            }
        }
        let acc = 100.0 * hits as f64 / wb.queries.len().max(1) as f64;
        best_accuracy = best_accuracy.max(acc);
        t.row(&[format!("{beta:.1}"), format!("{acc:.0}%")]);
    }
    out.push_str("## Exp-4 — optimal query layer prediction (yago-like, Blinks)\n\n");
    out.push_str(&t.render());
    out.push_str("\npaper: 75% accuracy at beta = 0.5.\n");
    (out, best_accuracy)
}

/// All of Exp-4 + Fig. 16.
pub fn run(scale: usize) -> String {
    let mut out = sampling_stability(scale);
    out.push('\n');
    let (corr, _) = estimate_correlation(scale.min(10_000));
    out.push_str(&corr);
    out.push('\n');
    let (pred, _) = layer_prediction(scale);
    out.push_str(&pred);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_stability_renders() {
        let r = sampling_stability(2000);
        assert!(r.contains("400"));
    }

    #[test]
    fn correlation_is_positive() {
        let (_, r) = estimate_correlation(4000);
        assert!(r > 0.3, "spearman r = {r}");
    }
}
