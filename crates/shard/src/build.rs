//! Per-shard hierarchy construction: cut the base graph along a
//! [`ShardPlan`], then build one independent BiG-index bundle per
//! shard, optionally fanned out over threads.

use crate::plan::ShardPlan;
use bgi_graph::par::par_map;
use bgi_graph::subgraph::InducedSubgraph;
use bgi_graph::{induced_subgraph, DiGraph, Ontology};
use bgi_search::blinks::BlinksParams;
use bgi_search::rclique::RClique;
use bgi_store::IndexBundle;
use big_index::BiGIndex;

/// Knobs for per-shard index construction.
#[derive(Debug, Clone)]
pub struct ShardBuildParams {
    /// Maximum generalization layers per shard hierarchy.
    pub max_layers: usize,
    /// BLINKS parameters for every shard's layer indexes.
    pub blinks: BlinksParams,
    /// r-clique parameters for every shard's layer indexes.
    pub rclique: RClique,
    /// Fan-out width for building shards in parallel. The bundles are
    /// byte-identical at any thread count: each shard's build is fully
    /// self-contained and `par_map` returns results in index order.
    pub threads: usize,
}

impl Default for ShardBuildParams {
    fn default() -> Self {
        ShardBuildParams {
            max_layers: 3,
            blinks: BlinksParams::default(),
            rclique: RClique::default(),
            threads: 1,
        }
    }
}

/// Cuts `g` into per-shard universe subgraphs. Universes are sorted,
/// so shard-local ids are monotone in the global ids and
/// `InducedSubgraph::original` equals the plan's universe slice.
pub fn shard_graphs(g: &DiGraph, plan: &ShardPlan) -> Vec<InducedSubgraph> {
    (0..plan.num_shards())
        .map(|s| induced_subgraph(g, plan.universe(s)))
        .collect()
}

/// Builds one [`IndexBundle`] per shard: induced universe subgraph,
/// greedy full-step generalization ladder, then every layer index.
/// Fanned out over up to `params.threads` workers; deterministic for
/// any thread count.
pub fn build_shard_bundles(
    g: &DiGraph,
    ontology: &Ontology,
    plan: &ShardPlan,
    params: &ShardBuildParams,
) -> Vec<IndexBundle> {
    par_map(params.threads, plan.num_shards(), |s| {
        let sub = induced_subgraph(g, plan.universe(s));
        let configs = big_index::greedy_full_step_configs(
            &sub.graph,
            ontology,
            params.max_layers,
            bgi_bisim::BisimDirection::Forward,
        );
        let index = BiGIndex::build_with_configs(
            sub.graph,
            ontology.clone(),
            configs,
            bgi_bisim::BisimDirection::Forward,
        );
        IndexBundle::build(index, params.blinks, params.rclique, 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ShardPlan, ShardSpec};
    use bgi_datasets::DatasetSpec;

    fn spec(shards: usize) -> ShardSpec {
        ShardSpec {
            shards,
            dmax_ceiling: 2,
            partition_block: 0,
        }
    }

    #[test]
    fn shard_graphs_match_universes() {
        let ds = DatasetSpec::yago_like(600).generate();
        let plan = ShardPlan::build(&ds.graph, &spec(3)).unwrap();
        let subs = shard_graphs(&ds.graph, &plan);
        assert_eq!(subs.len(), 3);
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(sub.original, plan.universe(s));
            assert_eq!(sub.graph.num_vertices(), plan.universe(s).len());
            // Labels survive the cut.
            for v in sub.graph.vertices() {
                assert_eq!(sub.graph.label(v), ds.graph.label(sub.to_original(v)));
            }
        }
    }

    #[test]
    fn bundles_deterministic_across_thread_counts() {
        let ds = DatasetSpec::yago_like(500).generate();
        let plan = ShardPlan::build(&ds.graph, &spec(2)).unwrap();
        let serial =
            build_shard_bundles(&ds.graph, &ds.ontology, &plan, &ShardBuildParams::default());
        let threaded = build_shard_bundles(
            &ds.graph,
            &ds.ontology,
            &plan,
            &ShardBuildParams {
                threads: 4,
                ..ShardBuildParams::default()
            },
        );
        assert_eq!(serial.len(), 2);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn each_bundle_covers_its_universe() {
        let ds = DatasetSpec::yago_like(400).generate();
        let plan = ShardPlan::build(&ds.graph, &spec(2)).unwrap();
        let bundles =
            build_shard_bundles(&ds.graph, &ds.ontology, &plan, &ShardBuildParams::default());
        for (s, b) in bundles.iter().enumerate() {
            assert_eq!(b.index.graph_at(0).num_vertices(), plan.universe(s).len());
            assert!(b.num_layers() >= 1);
        }
    }
}
