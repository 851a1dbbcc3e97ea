//! Cross-algorithm equivalence on generated datasets: BANKS, BLINKS,
//! and bidirectional expansion all implement the distinct-root
//! semantics, so their full answer sets must agree — and r-clique's
//! answers must satisfy its own distance semantics — on realistic
//! knowledge-graph inputs (not just the small random graphs of the
//! per-crate unit tests).

use big_index_repro::datasets::{benchmark_queries, DatasetSpec};
use big_index_repro::search::blinks::{Blinks, BlinksParams};
use big_index_repro::search::rclique::NeighborIndex;
use big_index_repro::search::{AnswerGraph, Banks, Bidirectional, KeywordSearch, RClique};

fn root_scores(answers: &[AnswerGraph]) -> Vec<(Option<bgi_graph::VId>, u64)> {
    let mut v: Vec<_> = answers.iter().map(|a| (a.root, a.score)).collect();
    v.sort_unstable();
    v
}

#[test]
fn banks_blinks_bidirectional_agree_on_yago_like() {
    let ds = DatasetSpec::yago_like(4000).generate();
    let queries = benchmark_queries(&ds, 4, 40, 3);
    assert!(queries.len() >= 4);
    let blinks = Blinks::new(BlinksParams { prune_dist: 4 });
    for q in queries.iter().take(5) {
        let query = q.to_query();
        let a = Banks.search(&ds.graph, &(), &query, 100_000);
        let b = blinks.search(&ds.graph, &(), &query, 100_000);
        let c = Bidirectional::default().search(&ds.graph, &(), &query, 100_000);
        assert_eq!(
            root_scores(&a),
            root_scores(&b),
            "{}: banks vs blinks",
            q.id
        );
        assert_eq!(root_scores(&a), root_scores(&c), "{}: banks vs bidir", q.id);
    }
}

#[test]
fn blinks_top_k_prefix_matches_banks_ranking() {
    let ds = DatasetSpec::imdb_like(3000).generate();
    let queries = benchmark_queries(&ds, 4, 30, 11);
    let blinks = Blinks::new(BlinksParams { prune_dist: 4 });
    for q in queries.iter().take(4) {
        let query = q.to_query();
        let top = blinks.search(&ds.graph, &(), &query, 5);
        let all = Banks.search_fresh(&ds.graph, &query, 100_000);
        // The top-5 scores must equal the best 5 scores overall (root
        // sets may differ on ties).
        let top_scores: Vec<u64> = top.iter().map(|a| a.score).collect();
        let best_scores: Vec<u64> = all.iter().take(top.len()).map(|a| a.score).collect();
        assert_eq!(top_scores, best_scores, "{}", q.id);
    }
}

#[test]
fn rclique_answers_satisfy_distance_semantics_on_dataset() {
    let ds = DatasetSpec::yago_like(2000).generate();
    let queries = benchmark_queries(&ds, 3, 20, 17);
    let rc = RClique { radius: 3 };
    let index = rc.build_index(&ds.graph);
    let ni = NeighborIndex::build(&ds.graph, 3);
    for q in queries.iter().take(4) {
        let query = q.to_query();
        let answers = rc.search(&ds.graph, &index, &query, 10);
        for a in &answers {
            assert!(a.validate(&ds.graph, &query.keywords), "{}", q.id);
            let picked: Vec<_> = a.keyword_matches.iter().map(|m| m[0]).collect();
            for i in 0..picked.len() {
                for j in i + 1..picked.len() {
                    let d = ni.distance(picked[i], picked[j]);
                    assert!(d.is_some() && d.unwrap() <= 3, "{}: pair beyond r", q.id);
                }
            }
        }
        // Weights are non-decreasing in rank order.
        assert!(answers.windows(2).all(|w| w[0].score <= w[1].score));
    }
}

#[test]
fn search_is_deterministic_across_runs() {
    let ds = DatasetSpec::dbpedia_like(2500).generate();
    let queries = benchmark_queries(&ds, 4, 25, 23);
    let blinks = Blinks::new(BlinksParams { prune_dist: 4 });
    for q in queries.iter().take(3) {
        let query = q.to_query();
        let a = blinks.search(&ds.graph, &(), &query, 20);
        let b = blinks.search(&ds.graph, &(), &query, 20);
        assert_eq!(root_scores(&a), root_scores(&b));
    }
}
