//! BLINKS query processing: backward expansion with top-k early
//! termination.
//!
//! The query expands backward (over in-edges) from each keyword's
//! vertex set in round-robin BFS levels — the paper's "expanding
//! backward … in a round-robin manner". A vertex reached by all
//! keywords is a candidate root with exact score `Σ_i dist(v, q_i)`.
//! The search stops when the k-th best score is no larger than the
//! lower bound on any root not yet completed. BANKS' label table seeds
//! the expansion, and the expansion's own per-keyword distances both
//! score the roots and lead each answer path back down to its keyword,
//! so query cost is proportional to the traversed region — exactly the
//! cost BiG-index shrinks by evaluating on summary graphs.

use crate::answer::{rank_and_truncate, AnswerGraph};
use crate::cancel::{Budget, Interrupted};
use crate::outcome::{Completeness, SearchOutcome};
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::traversal::{with_slots, Direction, Slot};
use bgi_graph::{DiGraph, VId};
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// BLINKS' search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlinksParams {
    /// Pruning threshold `τ_prune`: the largest root-to-keyword distance
    /// a search considers, whatever a query's `d_max` (the paper's
    /// experiments use 5, equal to `d_max`).
    pub prune_dist: u32,
}

impl Default for BlinksParams {
    fn default() -> Self {
        BlinksParams { prune_dist: 5 }
    }
}

/// The BLINKS ranked keyword search algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blinks {
    /// Search parameters.
    pub params: BlinksParams,
}

impl Blinks {
    /// BLINKS with the given parameters ([`BlinksParams::default`] is the
    /// paper's experimental setting, `τ_prune` 5).
    pub fn new(params: BlinksParams) -> Self {
        Blinks { params }
    }

    /// The shortest path from `root` to the nearest keyword node, read
    /// off one keyword's expansion: from each vertex, the first
    /// out-neighbor one step closer. The expansion completed every BFS
    /// level below the root's, so such a neighbor always exists.
    fn descend_path(g: &DiGraph, expansion: &Slot, root: VId) -> Vec<VId> {
        let mut path = vec![root];
        let mut cur = root;
        while let Some(d) = expansion.dist(cur).checked_sub(1) {
            let Some(&next) = (g.out_neighbors(cur).iter()).find(|&&w| expansion.dist(w) == d)
            else {
                break;
            };
            path.push(next);
            cur = next;
        }
        path
    }
}

impl KeywordSearch for Blinks {
    type Index = ();

    fn name(&self) -> &'static str {
        "rkws"
    }

    /// Nothing: the expansion needs only each keyword's vertex set,
    /// which the graph's label table holds.
    fn build_index(&self, _g: &DiGraph) {}

    /// Best-effort under `budget`. Interruption during round-robin
    /// expansion surfaces the roots already *completed* (their scores
    /// are exact) marked [`Completeness::Anytime`]: the expansion's own
    /// termination bound — every not-yet-completed root still owes at
    /// least `min_i(depth_i + 1)` from some active keyword — also
    /// bounds how far the best completed root can sit above the true
    /// optimum. With no completed root there is nothing usable and the
    /// search fails with [`Interrupted`].
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
        let dmax = query.dmax.min(self.params.prune_dist);
        let n = query.len();

        // One backward expansion per keyword, seeded with the vertices
        // containing it. An absent keyword means no answer at all.
        with_slots(n, |slots| {
            // budget-exempt: one pass over each keyword's label list
            for (&q, slot) in query.keywords.iter().zip(&mut *slots) {
                let seeds = g.vertices_with(q);
                if seeds.is_empty() {
                    return Ok(SearchOutcome::exact(Vec::new()));
                }
                slot.seed(g, seeds);
            }

            // A vertex completes when the last keyword reaches it: its
            // exact score is then the sum of the expansions' distances.
            let mut roots: Vec<(u64, VId)> = Vec::new();
            let mut best_k: BinaryHeap<u64> = BinaryHeap::new();
            let complete = |roots: &mut Vec<_>, best_k: &mut BinaryHeap<_>, score, v| {
                roots.push((score, v));
                best_k.push(score);
                if best_k.len() > k {
                    best_k.pop();
                }
            };
            // Seeds that are already complete (single-keyword queries).
            if n == 1 {
                // budget-exempt: seeds only
                for &v in slots[0].discovered() {
                    complete(&mut roots, &mut best_k, 0, v);
                }
            }

            // Round-robin backward BFS, one level of one keyword at a
            // time, always advancing the keyword with the smallest current
            // depth. On interruption, `frontier_lb` holds the last computed
            // lower bound on any root not yet completed.
            let mut frontier_lb: Option<u64> = None;
            loop {
                // Termination: every unfinished root is missing at least
                // one *active* keyword i, which will contribute at least
                // depth_i + 1 to its score (keywords that already reached
                // it contributed exact, non-negative sums). The sound lower
                // bound on any future completion is therefore
                // min_i(depth_i + 1), not Σ_i depth_i — a root sitting at
                // distance 0 from all other keywords only needs one more
                // level from the nearest unfinished frontier.
                let active: Vec<usize> = (0..n)
                    .filter(|&i| !slots[i].frontier().is_empty() && slots[i].depth() < dmax)
                    .collect();
                if active.is_empty() {
                    break;
                }
                let bound: u64 = active
                    .iter()
                    .map(|&i| slots[i].depth() as u64 + 1)
                    .min()
                    .unwrap_or(u64::MAX);
                if best_k.len() >= k && *best_k.peek().unwrap() <= bound {
                    break;
                }
                let i = *active
                    .iter()
                    .min_by_key(|&&i| (slots[i].depth(), slots[i].frontier().len()))
                    .unwrap();
                // Expand one full BFS level of keyword i; the others are
                // read to see who completes.
                let (before, rest) = slots.split_at_mut(i);
                let (slot, after) = rest.split_first_mut().unwrap();
                let others = || before.iter().chain(&*after);
                let poll = |_| {
                    if budget.is_exhausted() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                };
                let reach = |w: VId, d: u32| {
                    if others().all(|o| o.reached(w)) {
                        let score = others().map(|o| u64::from(o.dist(w))).sum::<u64>();
                        complete(&mut roots, &mut best_k, score + u64::from(d), w);
                    }
                    ControlFlow::Continue(())
                };
                if slot
                    .expand_level(g, Direction::Backward, poll, reach)
                    .is_break()
                {
                    // Depths only grow within a level, so the bound
                    // computed at the loop head still lower-bounds every
                    // future completion.
                    frontier_lb = Some(bound);
                    break;
                }
            }

            if frontier_lb.is_some() && roots.is_empty() {
                // Nothing completed before the budget ran out.
                return Err(Interrupted);
            }
            // Materialize answers for the best roots.
            roots.sort_unstable();
            roots.truncate(k);
            let completeness = match (frontier_lb, roots.first()) {
                (Some(lb), Some(&(best, _))) => Completeness::Anytime {
                    bound: best.saturating_sub(lb),
                },
                _ => Completeness::Exact,
            };
            let mut answers = Vec::with_capacity(roots.len());
            // budget-exempt: bounded wrap-up — at most k short path descents
            for (score, root) in roots {
                let mut vertices = Vec::new();
                let mut edges = Vec::new();
                let mut keyword_matches = vec![Vec::new(); n];
                for (i, slot) in slots.iter().enumerate() {
                    let path = Self::descend_path(g, slot, root);
                    for w in path.windows(2) {
                        edges.push((w[0], w[1]));
                    }
                    keyword_matches[i].push(*path.last().unwrap());
                    vertices.extend(path);
                }
                answers.push(AnswerGraph::new(
                    vertices,
                    edges,
                    keyword_matches,
                    Some(root),
                    score,
                ));
            }
            Ok(SearchOutcome {
                answers: rank_and_truncate(answers, k),
                completeness,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::Banks;
    use bgi_graph::generate::uniform_random;
    use bgi_graph::{GraphBuilder, LabelId};

    #[test]
    fn matches_banks_on_random_graphs() {
        // BLINKS implements the same distinct-root semantics as our
        // Banks baseline; top-k roots and scores must agree.
        for seed in 0..8 {
            let g = uniform_random(120, 360, 5, seed);
            let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
            let a = Blinks::default().search_fresh(&g, &q, 1000);
            let b = Banks.search_fresh(&g, &q, 1000);
            let key = |ans: &AnswerGraph| (ans.root, ans.score);
            let mut ka: Vec<_> = a.iter().map(key).collect();
            let mut kb: Vec<_> = b.iter().map(key).collect();
            ka.sort_unstable();
            kb.sort_unstable();
            assert_eq!(ka, kb, "seed {seed}");
        }
    }

    #[test]
    fn top_k_early_termination_is_exact() {
        for seed in 0..5 {
            let g = uniform_random(200, 600, 4, seed + 100);
            let q = KeywordQuery::new(vec![LabelId(0), LabelId(2)], 5);
            let blinks = Blinks::default();
            let top3 = blinks.search(&g, &(), &q, 3);
            let all = blinks.search(&g, &(), &q, usize::MAX / 2);
            assert_eq!(
                top3.iter().map(|a| a.score).collect::<Vec<_>>(),
                all.iter().take(3).map(|a| a.score).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn answers_validate() {
        let g = uniform_random(150, 450, 4, 7);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1), LabelId(3)], 4);
        for a in Blinks::default().search_fresh(&g, &q, 10) {
            assert!(a.validate(&g, &q.keywords));
            assert!(a.score <= (q.dmax as u64) * q.len() as u64);
        }
    }

    #[test]
    fn prune_dist_clamps_dmax() {
        // Chain 0 -> 1 -> 2 -> 3(A): with prune_dist 2 the search cannot
        // see roots at distance 3.
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(LabelId(0));
        }
        b.add_vertex(LabelId(1));
        b.add_edge(VId(0), VId(1));
        b.add_edge(VId(1), VId(2));
        b.add_edge(VId(2), VId(3));
        let g = b.build();
        let blinks = Blinks::new(BlinksParams { prune_dist: 2 });
        let q = KeywordQuery::new(vec![LabelId(1)], 5);
        let answers = blinks.search_fresh(&g, &q, 10);
        let roots: Vec<_> = answers.iter().map(|a| a.root.unwrap()).collect();
        assert!(roots.contains(&VId(1)));
        assert!(!roots.contains(&VId(0)), "beyond τ_prune");
    }

    #[test]
    fn missing_keyword_returns_empty() {
        let g = uniform_random(50, 100, 2, 3);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(42)], 3);
        assert!(Blinks::default().search_fresh(&g, &q, 5).is_empty());
    }

    #[test]
    fn single_keyword_best_root_is_keyword_node() {
        let g = uniform_random(80, 200, 3, 11);
        let q = KeywordQuery::new(vec![LabelId(1)], 3);
        let answers = Blinks::default().search_fresh(&g, &q, 1);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].score, 0);
        assert_eq!(g.label(answers[0].root.unwrap()), LabelId(1));
    }

    #[test]
    fn a_root_reached_by_more_than_255_keywords_completes() {
        // A hub pointing at 300 leaves, each with its own label: the
        // 300-keyword query's only root is the hub, one hop from each.
        const LEAVES: u32 = 300;
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(LEAVES));
        for l in 0..LEAVES {
            let leaf = b.add_vertex(LabelId(l));
            b.add_edge(hub, leaf);
        }
        let g = b.build();
        let q = KeywordQuery::new((0..LEAVES).map(LabelId).collect::<Vec<_>>(), 1);
        let rkws = Blinks::default().search_fresh(&g, &q, 10);
        assert_eq!(rkws.len(), 1);
        assert_eq!((rkws[0].root, rkws[0].score), (Some(hub), LEAVES as u64));
        assert_eq!(rkws, Banks.search_fresh(&g, &q, 10));
    }
}
