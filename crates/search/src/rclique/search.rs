//! r-clique search: greedy best answer + top-k search-space
//! decomposition (Sec. 5.2 of the BiG-index paper), implemented on the
//! interruptible anytime engine in `super::search_space`.
//!
//! The best answer of a search space `SP = (V_q1, …, V_qn)` is
//! approximated greedily: for each content node `u` of the most
//! selective keyword, take the nearest content node of every other
//! keyword (`u'_j = argmin dist(u, u_j)`), keep the candidate only if
//! all pairwise distances are ≤ r, and return the minimum-weight valid
//! candidate (weight = sum of pairwise distances). Top-k answers are
//! enumerated Lawler-style: when `(SP, a)` is popped, `SP` is split into
//! disjoint subspaces by fixing a prefix of `a` and excluding one node,
//! each subspace queued with its own best answer. Spaces whose greedy
//! scan comes up empty are binary-branched rather than dropped, so a
//! full run enumerates every feasible answer.
//!
//! The index is the [`NeighborIndex`] alone: each `V_qi` is a slice of
//! the layer graph's label table ([`DiGraph::vertices_with`]).
//!
//! Under a [`Budget`], [`RClique::search_anytime`] returns best-so-far
//! answers with a sound optimality bound instead of failing; see the
//! engine module for the search-space shape and the bound derivation.

use super::neighbor_index::{clique_answer, NeighborIndex};
use super::search_space::AnytimeSearch;
use crate::answer::{rank_and_truncate, AnswerGraph};
use crate::cancel::{Budget, Interrupted};
use crate::outcome::SearchOutcome;
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::{DiGraph, VId};

/// The r-clique keyword search algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RClique {
    /// Distance bound `r` used for the neighbor index (experiments: 4).
    pub radius: u32,
}

impl Default for RClique {
    fn default() -> Self {
        RClique { radius: 4 }
    }
}

impl KeywordSearch for RClique {
    type Index = NeighborIndex;

    fn name(&self) -> &'static str {
        "dkws"
    }

    /// `O(n + m)`: a neighbor index whose balls are each computed on
    /// first read. The content node lists are the graph's label table.
    fn build_index(&self, g: &DiGraph) -> NeighborIndex {
        NeighborIndex::build(g, self.radius)
    }

    /// `min(d_max, r)`: the neighbor index knows no distance beyond `r`.
    fn distance_bound(&self, query: &KeywordQuery) -> Option<u32> {
        Some(query.dmax.min(self.radius))
    }

    fn search_anytime(
        &self,
        g: &DiGraph,
        index: &NeighborIndex,
        query: &KeywordQuery,
        k: usize,
        budget: &Budget,
    ) -> Result<SearchOutcome, Interrupted> {
        if query.is_empty() || k == 0 {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        // `Some` for r-clique: Algo. 2 verifies realized cliques at this bound.
        let r = self.distance_bound(query).unwrap_or(query.dmax);
        // Per-query content node lists (the search space SP).
        let content: Vec<&[VId]> = query.keywords.iter().map(|&q| g.vertices_with(q)).collect();
        if content.iter().any(|c| c.is_empty()) {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        let engine = AnytimeSearch {
            content,
            neighbor: index,
            r,
        };
        let run = engine.run(k, budget);
        if run.answers.is_empty() {
            return if run.completeness.is_exact() {
                Ok(SearchOutcome::exact(Vec::new()))
            } else {
                // Nothing usable was found before the budget ran out.
                Err(Interrupted)
            };
        }
        // Bounded wrap-up: rank the discovered node sets first so only
        // the k best are materialized (an interrupted run's frontier
        // sweep can return many more).
        let mut found = run.answers;
        found.sort();
        found.truncate(k);
        let answers: Vec<AnswerGraph> = found
            .iter()
            .map(|(weight, picked)| clique_answer(g, r, picked, *weight))
            .collect();
        Ok(SearchOutcome {
            answers: rank_and_truncate(answers, k),
            completeness: run.completeness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Completeness;
    use bgi_graph::generate::uniform_random;
    use bgi_graph::{GraphBuilder, LabelId};

    /// hub(0, H) -> a(1, A); hub -> b(2, B); far(3, A) isolated-ish:
    /// 4(C) -> 3.
    fn sample() -> DiGraph {
        let mut bld = GraphBuilder::new();
        let h = bld.add_vertex(LabelId(0));
        let a = bld.add_vertex(LabelId(1));
        let b = bld.add_vertex(LabelId(2));
        let fa = bld.add_vertex(LabelId(1));
        let c = bld.add_vertex(LabelId(3));
        bld.add_edge(h, a);
        bld.add_edge(h, b);
        bld.add_edge(c, fa);
        bld.build()
    }

    #[test]
    fn finds_min_weight_clique() {
        let g = sample();
        let rc = RClique { radius: 4 };
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(2)], 4);
        let answers = rc.search_fresh(&g, &q, 10);
        assert!(!answers.is_empty());
        // Best: a and b, undirected distance 2 via hub.
        assert_eq!(answers[0].score, 2);
        assert_eq!(answers[0].keyword_matches[0], vec![VId(1)]);
        assert_eq!(answers[0].keyword_matches[1], vec![VId(2)]);
        assert!(answers[0].is_weakly_connected());
    }

    #[test]
    fn respects_distance_bound() {
        let g = sample();
        let rc = RClique { radius: 1 };
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(2)], 1);
        // a and b are 2 apart: no clique at r = 1.
        assert!(rc.search_fresh(&g, &q, 10).is_empty());
    }

    #[test]
    fn top_k_weights_nondecreasing() {
        let g = uniform_random(150, 450, 4, 5);
        let rc = RClique::default();
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
        let answers = rc.search_fresh(&g, &q, 10);
        assert!(answers.windows(2).all(|w| w[0].score <= w[1].score));
    }

    #[test]
    fn answers_are_distinct() {
        let g = uniform_random(150, 450, 4, 6);
        let rc = RClique::default();
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(2)], 4);
        let answers = rc.search_fresh(&g, &q, 10);
        let mut ids: Vec<_> = answers
            .iter()
            .map(crate::answer::AnswerGraph::identity)
            .collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn all_pairs_within_r() {
        let g = uniform_random(120, 360, 3, 7);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1), LabelId(2)], 4);
        for a in rc.search(&g, &idx, &q, 5) {
            let picked: Vec<VId> = a.keyword_matches.iter().map(|m| m[0]).collect();
            for i in 0..picked.len() {
                for j in i + 1..picked.len() {
                    let d = idx.distance(picked[i], picked[j]);
                    assert!(d.is_some() && d.unwrap() <= 4);
                }
            }
            assert!(a.validate(&g, &q.keywords));
        }
    }

    #[test]
    fn missing_keyword_empty() {
        let g = sample();
        let rc = RClique::default();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(9)], 4);
        assert!(rc.search_fresh(&g, &q, 5).is_empty());
    }

    #[test]
    fn second_best_found_by_decomposition() {
        let g = sample();
        let rc = RClique::default();
        let q = KeywordQuery::new(vec![LabelId(1)], 4);
        // Single keyword: both A-nodes are answers (weight 0 each).
        let answers = rc.search_fresh(&g, &q, 10);
        assert_eq!(answers.len(), 2);
        let mut nodes: Vec<VId> = answers.iter().map(|a| a.keyword_matches[0][0]).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![VId(1), VId(3)]);
    }

    #[test]
    fn zero_budget_still_returns_the_greedy_seed() {
        let g = uniform_random(150, 450, 4, 5);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
        // A spent budget still returns the greedy seed (computed under
        // its own deterministic op slice), never marked exact, with a
        // finite bound.
        let outcome = rc
            .search_anytime(&g, &idx, &q, 10, &Budget::with_check_limit(0))
            .expect("seed answer expected on a populated query");
        assert!(!outcome.answers.is_empty());
        match outcome.completeness {
            Completeness::Anytime { bound } => {
                // The seed's weight can exceed the true optimum by at
                // most the reported gap.
                let exact = rc.search(&g, &idx, &q, 10);
                assert!(outcome.answers[0].score <= exact[0].score + bound);
            }
            other => panic!("expected an anytime marker, got {other}"),
        }
    }

    #[test]
    fn unlimited_anytime_matches_plain_search_and_is_exact() {
        let g = uniform_random(150, 450, 4, 6);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(2)], 4);
        let plain = rc.search(&g, &idx, &q, 10);
        let outcome = rc
            .search_anytime(&g, &idx, &q, 10, &Budget::unlimited())
            .unwrap();
        assert!(outcome.completeness.is_exact());
        let scores: Vec<u64> = outcome.answers.iter().map(|a| a.score).collect();
        let plain_scores: Vec<u64> = plain.iter().map(|a| a.score).collect();
        assert_eq!(scores, plain_scores);
    }

    #[test]
    fn exhaustive_enumeration_is_complete() {
        // Run to completion with a huge k, the engine must enumerate
        // every feasible r-clique: cross-check against brute force over
        // the content-list product.
        let g = uniform_random(60, 150, 3, 11);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
        let answers = rc.search(&g, &idx, &q, 100_000);
        let mut expect = 0usize;
        for &u in g.vertices_with(LabelId(0)) {
            for &v in g.vertices_with(LabelId(1)) {
                if idx.distance(u, v).is_some_and(|d| d <= 4) {
                    expect += 1;
                }
            }
        }
        assert_eq!(answers.len(), expect);
    }
}
