//! Keyword search on an IMDB-like synthetic knowledge graph: generate
//! the dataset, build the default BiG-index and a Tab. 4-style workload,
//! and compare boosted BLINKS against the unboosted baseline per query.
//!
//! ```sh
//! cargo run --release --example movie_search
//! ```

use big_index_repro::datasets::{benchmark_queries, DatasetSpec};
use big_index_repro::index::{Boosted, EvalOptions};
use big_index_repro::search::blinks::{Blinks, BlinksParams};
use std::time::Instant;

fn main() {
    let scale = std::env::var("BGI_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let ds = DatasetSpec::imdb_like(scale).generate();
    println!(
        "{}: |V| = {}, |E| = {}, ontology: {} types",
        ds.name,
        ds.num_vertices(),
        ds.num_edges(),
        ds.ontology.num_labels()
    );

    let t = Instant::now();
    let (index, _) = bench_index(&ds);
    println!(
        "BiG-index: {} layers in {:?}; sizes {:?}",
        index.num_layers(),
        t.elapsed(),
        index.layer_sizes()
    );

    let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
    let boosted = Boosted::new(&index, blinks, EvalOptions::default());
    let queries = benchmark_queries(&ds, 5, (scale / 100).max(3) as u32, 7);
    for q in &queries {
        let query = q.to_query();
        let names: Vec<&str> = q.keywords.iter().map(|&l| ds.labels.name(l)).collect();
        let t = Instant::now();
        let (baseline, _) = boosted.baseline(&query, 10);
        let base_t = t.elapsed();
        let t = Instant::now();
        let result = boosted.query(&query, 10);
        let boost_t = t.elapsed();
        println!(
            "{}: {:?} -> layer {}, {} answers (baseline {}); baseline {:?} vs boosted {:?}",
            q.id,
            names,
            result.layer,
            result.answers.len(),
            baseline.len(),
            base_t,
            boost_t
        );
        assert!(result.answers.len() <= 10);
        assert!(baseline.len() <= 10);
    }
}

/// Builds the paper's default index (one generalization step per layer).
fn bench_index(
    ds: &big_index_repro::datasets::Dataset,
) -> (big_index_repro::index::BiGIndex, std::time::Duration) {
    use big_index_repro::bisim::BisimDirection;
    use big_index_repro::index::{BiGIndex, GenConfig};
    let t = Instant::now();
    let mut configs: Vec<GenConfig> = Vec::new();
    let mut current = ds.graph.clone();
    for _ in 0..7 {
        let counts = current.label_counts();
        let mappings: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .filter_map(|(i, _)| {
                let l = big_index_repro::graph::LabelId(i as u32);
                ds.ontology
                    .direct_supertypes(l)
                    .first()
                    .map(|&sup| (l, sup))
            })
            .collect();
        let config = GenConfig::new(mappings, &ds.ontology).expect("valid");
        if config.is_empty() {
            break;
        }
        let probe = BiGIndex::build_with_configs(
            current.clone(),
            ds.ontology.clone(),
            vec![config.clone()],
            BisimDirection::Forward,
        );
        configs.push(config);
        let next = probe.graph_at(1).clone();
        if next.size() == current.size() {
            break;
        }
        current = next;
    }
    let index = BiGIndex::build_with_configs(
        ds.graph.clone(),
        ds.ontology.clone(),
        configs,
        BisimDirection::Forward,
    );
    (index, t.elapsed())
}
