//! Cross-algorithm equivalence on generated datasets: BANKS and BLINKS
//! both implement the distinct-root semantics, so their full answer
//! sets must equal a brute-force oracle's; r-clique's full answer set
//! must equal a brute-force clique enumeration, and its top-k answers
//! must satisfy its own distance semantics — on realistic
//! knowledge-graph and road inputs (not just the small random graphs of
//! the per-crate unit tests).

use bgi_graph::{DiGraph, VId};
use big_index_repro::datasets::{benchmark_queries, DatasetSpec};
use big_index_repro::search::blinks::{Blinks, BlinksParams};
use big_index_repro::search::rclique::NeighborIndex;
use big_index_repro::search::{AnswerGraph, Banks, KeywordQuery, KeywordSearch, RClique};
use std::collections::VecDeque;

fn root_scores(answers: &[AnswerGraph]) -> Vec<(Option<VId>, u64)> {
    let mut v: Vec<_> = answers.iter().map(|a| (a.root, a.score)).collect();
    v.sort_unstable();
    v
}

/// Every distinct-root answer of `query`, by brute force: a plain
/// forward BFS to `d_max` from every vertex `r`, over the out-neighbour
/// lists and nothing else. `r` is a root when it reaches every keyword;
/// its score is the sum over keywords of the nearest matching vertex's
/// distance.
fn oracle_root_scores(g: &DiGraph, query: &KeywordQuery) -> Vec<(Option<VId>, u64)> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut out = Vec::new();
    for r in (0..n as u32).map(VId) {
        let mut nearest = vec![u32::MAX; query.len()];
        let mut visited = vec![r];
        let mut queue = VecDeque::from([r]);
        dist[r.index()] = 0;
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            for (i, &q) in query.keywords.iter().enumerate() {
                if g.label(u) == q {
                    nearest[i] = nearest[i].min(d);
                }
            }
            if d == query.dmax {
                continue;
            }
            for &w in g.out_neighbors(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = d + 1;
                    visited.push(w);
                    queue.push_back(w);
                }
            }
        }
        for v in visited {
            dist[v.index()] = u32::MAX;
        }
        if nearest.iter().all(|&d| d != u32::MAX) {
            out.push((Some(r), nearest.iter().map(|&d| u64::from(d)).sum()));
        }
    }
    out
}

/// Every r-clique of `query` at distance bound `r`, by brute force: a
/// plain BFS over the in- and out-neighbour lists from every keyword
/// node, then every tuple of one node per keyword whose pairwise
/// distances are all at most `r`, with the sum of those distances.
fn oracle_cliques(g: &DiGraph, query: &KeywordQuery, r: u32) -> Vec<(Vec<VId>, u64)> {
    let content: Vec<&[VId]> = query.keywords.iter().map(|&q| g.vertices_with(q)).collect();
    let mut dist: Vec<Vec<u32>> = vec![Vec::new(); g.num_vertices()];
    for &s in content.iter().copied().flatten() {
        let d = &mut dist[s.index()];
        d.resize(g.num_vertices(), u32::MAX);
        d[s.index()] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            if d[u.index()] == r {
                continue;
            }
            for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if d[w.index()] == u32::MAX {
                    d[w.index()] = d[u.index()] + 1;
                    queue.push_back(w);
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut tuple = Vec::new();
    extend_cliques(&content, &dist, &mut tuple, 0, &mut out);
    out.sort_unstable();
    out
}

/// Extends `tuple` by one node of keyword `tuple.len()` in every way
/// that keeps it within `r` of the nodes already in it (`dist` holds
/// only distances up to `r`).
fn extend_cliques(
    content: &[&[VId]],
    dist: &[Vec<u32>],
    tuple: &mut Vec<VId>,
    weight: u64,
    out: &mut Vec<(Vec<VId>, u64)>,
) {
    let Some(&nodes) = content.get(tuple.len()) else {
        out.push((tuple.clone(), weight));
        return;
    };
    for &v in nodes {
        let ds: Vec<u32> = tuple.iter().map(|u| dist[u.index()][v.index()]).collect();
        if ds.iter().all(|&d| d != u32::MAX) {
            tuple.push(v);
            let added: u64 = ds.iter().map(|&d| u64::from(d)).sum();
            extend_cliques(content, dist, tuple, weight + added, out);
            tuple.pop();
        }
    }
}

#[test]
fn banks_and_blinks_match_a_brute_force_oracle_on_yago_like() {
    let ds = DatasetSpec::yago_like(4000).generate();
    let queries = benchmark_queries(&ds, 4, 40, 3);
    assert!(queries.len() >= 4);
    let blinks = Blinks::new(BlinksParams { prune_dist: 4 });
    for q in queries.iter().take(5) {
        // Every bound up to the query's own: these queries' roots sit
        // within 1–3 hops of their keywords, so at `d_max` alone a
        // search that stopped one level short would still agree.
        let full = q.to_query();
        for dmax in 1..=full.dmax {
            let query = KeywordQuery::new(full.keywords.clone(), dmax);
            let oracle = oracle_root_scores(&ds.graph, &query);
            assert!(dmax < full.dmax || !oracle.is_empty(), "{}: no root", q.id);
            let a = Banks.search(&ds.graph, &(), &query, 100_000);
            let b = blinks.search(&ds.graph, &(), &query, 100_000);
            assert_eq!(root_scores(&a), oracle, "{} d_max {dmax}: banks", q.id);
            assert_eq!(root_scores(&b), oracle, "{} d_max {dmax}: blinks", q.id);
        }
    }
}

#[test]
fn rclique_matches_a_brute_force_clique_enumeration() {
    let rc = RClique::default();
    for ds in [
        DatasetSpec::yago_like(2000).generate(),
        DatasetSpec::road_like(2000).generate(),
    ] {
        let index = rc.build_index(&ds.graph);
        let mut seen = Vec::new();
        let mut queries = benchmark_queries(&ds, 4, 20, 5);
        queries.retain(|q| {
            let mut set = q.keywords.clone();
            set.sort_unstable();
            q.keywords.len() <= 4 && !seen.contains(&set) && {
                seen.push(set);
                true
            }
        });
        assert!(queries.len() >= 4, "{}: too few queries", ds.name);
        for q in &queries {
            let full = q.to_query();
            for dmax in 1..=4 {
                let query = KeywordQuery::new(full.keywords.clone(), dmax);
                let oracle = oracle_cliques(&ds.graph, &query, dmax.min(rc.radius));
                assert!(dmax < 4 || !oracle.is_empty(), "{}: no clique", q.id);
                let answers = rc.search(&ds.graph, &index, &query, oracle.len() + 1);
                let mut found: Vec<(Vec<VId>, u64)> = (answers.iter())
                    .map(|a| (a.keyword_matches.iter().map(|m| m[0]).collect(), a.score))
                    .collect();
                found.sort_unstable();
                assert_eq!(found, oracle, "{} {} d_max {dmax}", ds.name, q.id);
            }
        }
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
