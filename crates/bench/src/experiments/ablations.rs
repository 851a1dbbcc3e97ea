//! Ablations of BiG-index's design choices (beyond the paper's own
//! Exp-5): estimation vs. exact compression, the bisimulation
//! direction, and Algo. 1 vs. full-step configurations.

use crate::harness::{fmt_duration, TableWriter};
use crate::setup::full_step_config;
use bgi_bisim::BisimDirection;
use bgi_datasets::DatasetSpec;
use bgi_graph::sampling::SamplingParams;
use big_index::compress::{exact_compress, CompressEstimator};
use big_index::heuristic::Algo1Work;
use big_index::BiGIndex;

use std::time::Instant;

/// Ablation A: sampled vs. exact compression estimation — the sampling
/// estimator exists because exact evaluation of every Algo. 1 candidate
/// would bisimulate the whole graph per candidate.
pub fn sampling_vs_exact(scale: usize) -> String {
    let ds = DatasetSpec::yago_like(scale).generate();
    let config = full_step_config(&ds.graph, &ds.ontology);

    let t = Instant::now();
    let exact = exact_compress(&ds.graph, &config, BisimDirection::Forward);
    let exact_time = t.elapsed();

    let t = Instant::now();
    let est = CompressEstimator::new(
        &ds.graph,
        &SamplingParams {
            radius: 2,
            num_samples: 400,
            max_ball: 256,
            seed: 5,
        },
        BisimDirection::Forward,
    );
    let setup_time = t.elapsed();
    let t = Instant::now();
    let estimate = est.estimate(&config);
    let estimate_time = t.elapsed();

    let mut t = TableWriter::new(&["method", "compress", "time"]);
    t.row(&[
        "exact (full χ)".into(),
        format!("{exact:.4}"),
        fmt_duration(exact_time),
    ]);
    t.row(&[
        "sampled (n=400, r=2)".into(),
        format!("{estimate:.4}"),
        format!(
            "{} (+{} sampling)",
            fmt_duration(estimate_time),
            fmt_duration(setup_time)
        ),
    ]);
    format!(
        "## Ablation A — sampled vs exact compression estimation (yago-like/{scale})\n\n{}",
        t.render()
    )
}

/// Ablation C: bisimulation direction — forward (the default, aligned
/// with the traversal direction of the search semantics) vs. backward
/// vs. both.
pub fn direction_ablation(scale: usize) -> String {
    let ds = DatasetSpec::yago_like(scale).generate();
    let config = full_step_config(&ds.graph, &ds.ontology);
    let mut t = TableWriter::new(&["direction", "layer-1 size", "ratio"]);
    for (name, dir) in [
        ("forward", BisimDirection::Forward),
        ("backward", BisimDirection::Backward),
        ("both", BisimDirection::Both),
    ] {
        let index = BiGIndex::build_with_configs(
            ds.graph.clone(),
            ds.ontology.clone(),
            vec![config.clone()],
            dir,
        );
        t.row(&[
            name.into(),
            index.graph_at(1).size().to_string(),
            format!("{:.4}", index.size_ratio(1)),
        ]);
    }
    format!(
        "## Ablation C — bisimulation direction (yago-like/{scale})\n\n{}",
        t.render()
    )
}

/// Ablation D: Algo. 1 greedy configurations vs. the "default index"
/// full-step configurations — the greedy search trades compression for
/// lower semantic distortion per its cost model, so it departs from
/// full-step exactly when `θ` (or `Π`) binds. The work columns are
/// Algo. 1's own counters, summed over layers: they repeat exactly.
pub fn greedy_vs_full_step(scale: usize) -> String {
    use big_index::cost::CostParams;
    use big_index::BuildParams;
    let ds = DatasetSpec::yago_like(scale).generate();
    let mut t = TableWriter::new(&[
        "construction",
        "layers",
        "layer-1 ratio",
        "|C¹|",
        "build time",
        "candidates",
        "sample bisimulations",
        "skipped",
    ]);

    let (full, full_time) = crate::setup::default_index(&ds, 3);
    t.row(&[
        "full-step (default)".into(),
        full.num_layers().to_string(),
        format!("{:.4}", full.size_ratio(1)),
        full.layer(1).config.len().to_string(),
        fmt_duration(full_time),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);

    for theta in [1.0, 0.6, 0.3] {
        let started = Instant::now();
        let (greedy, work) = BiGIndex::build_counted(
            ds.graph.clone(),
            ds.ontology.clone(),
            &BuildParams {
                cost: CostParams {
                    alpha: 0.5,
                    theta,
                    pi: usize::MAX,
                },
                sampling: SamplingParams {
                    radius: 2,
                    num_samples: 200,
                    max_ball: 256,
                    seed: 3,
                },
                direction: BisimDirection::Forward,
                max_layers: 3,
                min_gain_ratio: 0.98,
                threads: 1,
            },
        );
        let greedy_time = started.elapsed();
        if greedy.num_layers() == 0 {
            continue;
        }
        let work = Algo1Work::total(&work);
        t.row(&[
            format!("greedy (Algo. 1, θ={theta})"),
            greedy.num_layers().to_string(),
            format!("{:.4}", greedy.size_ratio(1)),
            greedy.layer(1).config.len().to_string(),
            fmt_duration(greedy_time),
            work.candidates.to_string(),
            work.sample_evals.to_string(),
            work.sample_evals_skipped.to_string(),
        ]);
    }
    format!(
        "## Ablation D — Algo. 1 greedy vs full-step configurations (yago-like/{scale})

{}",
        t.render()
    )
}

/// All ablations.
pub fn run(scale: usize) -> String {
    let scale = scale.min(10_000);
    let mut out = sampling_vs_exact(scale);
    out.push('\n');
    out.push_str(&direction_ablation(scale));
    out.push('\n');
    out.push_str(&greedy_vs_full_step(scale.min(5_000)));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_render() {
        let report = super::run(1500);
        assert!(report.contains("Ablation A"));
        assert!(report.contains("Ablation C"));
        assert!(report.contains("Ablation D"));
    }
}
