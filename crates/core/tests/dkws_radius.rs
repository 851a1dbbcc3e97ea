//! Boosted dkws answers stay within the r-clique radius on `G⁰`.
//!
//! r-clique bounds every keyword pair by `min(d_max, r)`, so a query
//! whose `d_max` exceeds the radius has no baseline answer with a pair
//! farther apart than `r`. Algo. 2 must verify realized cliques at the
//! same bound, under the served realizer (structural, with the distance
//! fallback) and under distance verification alone.

use bgi_bisim::BisimDirection;
use bgi_datasets::{benchmark_queries, BenchQuery, DatasetSpec};
use bgi_graph::DiGraph;
use bgi_search::rclique::undirected_distances;
use bgi_search::{AnswerGraph, KeywordQuery, RClique};
use big_index::eval::RealizerKind;
use big_index::query_gen::generalize_query;
use big_index::{greedy_full_step_configs, BiGIndex, Boosted, EvalOptions};

/// True when two of `a`'s keyword nodes are more than `r` apart on `g`.
fn has_pair_beyond(g: &DiGraph, a: &AnswerGraph, r: u32) -> bool {
    let picked: Vec<_> = a.keyword_matches.iter().map(|m| m[0]).collect();
    picked.iter().enumerate().any(|(i, &u)| {
        let ball = undirected_distances(g, u, r);
        (picked[i + 1..].iter()).any(|&v| v != u && ball.binary_search_by_key(&v, |e| e.0).is_err())
    })
}

#[test]
fn boosted_dkws_keeps_every_pair_within_the_radius() {
    let ds = DatasetSpec::yago_like(3000).generate();
    let dir = BisimDirection::Forward;
    let configs = greedy_full_step_configs(&ds.graph, &ds.ontology, 3, dir);
    let index = BiGIndex::build_with_configs(ds.graph.clone(), ds.ontology.clone(), configs, dir);
    let rc = RClique::default();
    let queries: Vec<KeywordQuery> = (benchmark_queries(&ds, rc.radius + 1, 40, 3).iter())
        .map(BenchQuery::to_query)
        .collect();
    for realizer in [RealizerKind::VertexAtATime, RealizerKind::DistanceVerify] {
        let opts = EvalOptions {
            realizer,
            ..EvalOptions::default()
        };
        let boosted = Boosted::new(&index, rc, opts);
        let mut answers = 0;
        for q in &queries {
            for m in 1..=index.num_layers() {
                if generalize_query(&index, q, m).len() != q.len() {
                    continue;
                }
                for a in boosted.query_at_layer(q, 50, m).answers {
                    assert!(
                        !has_pair_beyond(index.base(), &a, rc.radius),
                        "{realizer:?} at layer {m}: {q:?} returned {:?}",
                        a.keyword_matches
                    );
                    answers += 1;
                }
            }
        }
        assert!(answers > 500, "{realizer:?}: only {answers} answers");
    }
}
