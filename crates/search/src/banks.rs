//! `bkws`: backward keyword search (Sec. 5.1), after BANKS
//! (Bhalotia et al. [1]) with the distinct-root refinement of He et al.
//!
//! Answers are subtrees `T = {r, p_1, …, p_n}` where each leaf `p_i`
//! contains keyword `q_i` and `dist(r, p_i) ≤ d_max`, ranked by
//! `Σ_i dist(r, p_i)` (Formula 1 of Sec. 2). The search expands
//! *backward* (over in-edges) from each keyword's vertex set; a vertex
//! reached from every keyword set within the bound is an answer root.

use crate::answer::AnswerGraph;
use crate::cancel::{Budget, Interrupted};
use crate::outcome::{Completeness, SearchOutcome};
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::traversal::{with_slots, Direction, Slot};
use bgi_graph::{DiGraph, VId};
use std::ops::ControlFlow;

/// The backward keyword search algorithm (no parameters). It keeps no
/// index: each keyword's vertex set is the layer graph's own label
/// table ([`DiGraph::vertices_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Banks;

/// Seeds `slot` with `sources` and expands it backward to `dmax`,
/// polling `budget` once per dequeued vertex.
fn expand_backward(
    slot: &mut Slot,
    g: &DiGraph,
    sources: &[VId],
    dmax: u32,
    budget: &Budget,
) -> Result<(), Interrupted> {
    slot.seed(g, sources);
    let poll = |_| match budget.check() {
        Ok(()) => ControlFlow::Continue(()),
        Err(e) => ControlFlow::Break(e),
    };
    match slot.run(g, Direction::Backward, dmax, poll, |_, _| {
        ControlFlow::Continue(())
    }) {
        ControlFlow::Continue(()) => Ok(()),
        ControlFlow::Break(e) => Err(e),
    }
}

impl KeywordSearch for Banks {
    type Index = ();

    fn name(&self) -> &'static str {
        "bkws"
    }

    fn build_index(&self, _g: &DiGraph) {}

    /// Each keyword's vertex set is expanded backward to `d_max` on one
    /// traversal slot ([`bgi_graph::traversal`]), smallest set first.
    /// Every candidate root is scored from the slots' distances first,
    /// one read per keyword; answer trees are then built for the `k`
    /// least `(score, root)` only, following each slot's parents, so the
    /// cost of path building follows `k`, not the candidate count.
    ///
    /// Best-effort under `budget`, polled once per dequeued vertex of
    /// every expansion and once per scored root. Interruption during the
    /// expansions means no candidate root is known yet, so nothing usable
    /// exists and the whole search fails with [`Interrupted`];
    /// interruption during the root-scoring loop returns the best `k` of
    /// the roots scored so far marked [`Completeness::Truncated`]. Roots
    /// are scored in the discovery order of the smallest keyword set's
    /// expansion, not in weight order, so no optimality bound is
    /// available.
    fn search_anytime(
        &self,
        g: &DiGraph,
        _index: &(),
        query: &KeywordQuery,
        k: usize,
        budget: &Budget,
    ) -> Result<SearchOutcome, Interrupted> {
        if query.is_empty() || k == 0 {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        // Backward expansion from every keyword's vertex set, smallest
        // set first (BANKS' strategy); if any keyword is absent there is
        // no answer at all.
        let mut keyword_sets: Vec<(usize, &[VId])> = query
            .keywords
            .iter()
            .enumerate()
            .map(|(i, &q)| (i, g.vertices_with(q)))
            .collect();
        if keyword_sets.iter().any(|(_, s)| s.is_empty()) {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        keyword_sets.sort_by_key(|(_, s)| s.len());

        // `slots[j]` expands `keyword_sets[j]`.
        with_slots(keyword_sets.len(), |slots| {
            // Candidate roots: the smallest set's reach in discovery
            // order, narrowed by every later reach.
            let mut candidates: Vec<VId> = Vec::new();
            for (j, (&(_, sources), slot)) in keyword_sets.iter().zip(&mut *slots).enumerate() {
                expand_backward(slot, g, sources, query.dmax, budget)?;
                if j == 0 {
                    candidates.extend_from_slice(slot.discovered());
                } else {
                    candidates.retain(|&v| slot.reached(v));
                }
                if candidates.is_empty() {
                    return Ok(SearchOutcome::exact(Vec::new()));
                }
            }

            // Score every root (one read per keyword), then build
            // answers for the k best only.
            let mut scored: Vec<(u64, VId)> = Vec::new();
            let mut truncated = false;
            for root in candidates {
                if budget.is_exhausted() {
                    // Surface the roots already scored instead of
                    // discarding them.
                    truncated = true;
                    break;
                }
                let score = slots.iter().map(|s| u64::from(s.dist(root))).sum();
                scored.push((score, root));
            }
            if truncated && scored.is_empty() {
                return Err(Interrupted);
            }
            // Roots are distinct, so `(score, root)` is
            // `rank_and_truncate`'s `(score, identity)` order with no tie
            // to break.
            if scored.len() > k {
                scored.select_nth_unstable(k);
                scored.truncate(k);
            }
            scored.sort_unstable();
            let answers = scored
                .into_iter()
                .map(|(score, root)| {
                    let mut vertices = Vec::new();
                    let mut edges = Vec::new();
                    let mut keyword_matches = vec![Vec::new(); query.len()];
                    // budget-exempt: |query| walks of at most d_max hops, k times
                    for (&(i, _), slot) in keyword_sets.iter().zip(&*slots) {
                        let path = slot.path_to_source(root);
                        for w in path.windows(2) {
                            edges.push((w[0], w[1]));
                        }
                        keyword_matches[i].extend(path.last().copied());
                        vertices.extend(path);
                    }
                    AnswerGraph::new(vertices, edges, keyword_matches, Some(root), score)
                })
                .collect();
            Ok(SearchOutcome {
                answers,
                completeness: if truncated {
                    Completeness::Truncated
                } else {
                    Completeness::Exact
                },
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};

    /// Fig. 1 in miniature:
    ///   root(0, "R") -> a(1, "A"), root -> b(2, "B"),
    ///   far(3, "R") -> c(4, "C") -> a.
    fn sample() -> DiGraph {
        let mut bld = GraphBuilder::new();
        let root = bld.add_vertex(LabelId(0)); // R
        let a = bld.add_vertex(LabelId(1)); // A
        let b = bld.add_vertex(LabelId(2)); // B
        let far = bld.add_vertex(LabelId(0)); // R
        let c = bld.add_vertex(LabelId(3)); // C
        bld.add_edge(root, a);
        bld.add_edge(root, b);
        bld.add_edge(far, c);
        bld.add_edge(c, a);
        bld.build()
    }

    #[test]
    fn finds_rooted_tree() {
        let g = sample();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(2)], 3);
        let answers = Banks.search_fresh(&g, &q, 10);
        assert_eq!(answers.len(), 1);
        let a = &answers[0];
        assert_eq!(a.root, Some(VId(0)));
        assert_eq!(a.score, 2); // dist 1 to each keyword
        assert!(a.validate(&g, &q.keywords));
    }

    #[test]
    fn respects_dmax() {
        let g = sample();
        // far reaches A only at distance 2 (far -> c -> a).
        let q = KeywordQuery::new(vec![LabelId(1)], 1);
        let answers = Banks.search_fresh(&g, &q, 10);
        let roots: Vec<_> = answers.iter().map(|a| a.root.unwrap()).collect();
        assert!(roots.contains(&VId(0)));
        assert!(!roots.contains(&VId(3)));

        let q2 = KeywordQuery::new(vec![LabelId(1)], 2);
        let answers2 = Banks.search_fresh(&g, &q2, 10);
        let roots2: Vec<_> = answers2.iter().map(|a| a.root.unwrap()).collect();
        assert!(roots2.contains(&VId(3)));
    }

    #[test]
    fn ranking_is_by_total_distance() {
        let g = sample();
        let q = KeywordQuery::new(vec![LabelId(1)], 3);
        let answers = Banks.search_fresh(&g, &q, 10);
        // Roots by score: a itself (0), root and c (1), far (2).
        assert_eq!(answers[0].root, Some(VId(1)));
        assert_eq!(answers[0].score, 0);
        let scores: Vec<u64> = answers.iter().map(|a| a.score).collect();
        let mut sorted = scores.clone();
        sorted.sort_unstable();
        assert_eq!(scores, sorted);
    }

    #[test]
    fn missing_keyword_yields_no_answers() {
        let g = sample();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(9)], 3);
        assert!(Banks.search_fresh(&g, &q, 10).is_empty());
    }

    #[test]
    fn k_truncation() {
        let g = sample();
        let q = KeywordQuery::new(vec![LabelId(1)], 3);
        let answers = Banks.search_fresh(&g, &q, 2);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn keyword_node_can_be_root() {
        let g = sample();
        let q = KeywordQuery::new(vec![LabelId(1)], 0);
        let answers = Banks.search_fresh(&g, &q, 10);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].root, Some(VId(1)));
        assert_eq!(answers[0].vertices, vec![VId(1)]);
    }

    #[test]
    fn answer_trees_are_paths_in_graph() {
        let g = bgi_graph::generate::uniform_random(150, 500, 5, 33);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1), LabelId(2)], 3);
        for a in Banks.search_fresh(&g, &q, 20) {
            assert!(a.validate(&g, &q.keywords));
            // Score equals the sum of shortest distances from root.
            let root = a.root.unwrap();
            let mut total = 0;
            for &kw in &q.keywords {
                let best = g
                    .vertices()
                    .filter(|&v| g.label(v) == kw)
                    .filter_map(|v| bgi_graph::traversal::shortest_distance(&g, root, v, q.dmax))
                    .min()
                    .expect("keyword reachable");
                total += best as u64;
            }
            assert_eq!(a.score, total);
        }
    }

    #[test]
    fn empty_query_or_zero_k() {
        let g = sample();
        assert!(Banks
            .search_fresh(&g, &KeywordQuery::new(Vec::<LabelId>::new(), 3), 5)
            .is_empty());
        let q = KeywordQuery::new(vec![LabelId(1)], 3);
        assert!(Banks.search_fresh(&g, &q, 0).is_empty());
    }
}
