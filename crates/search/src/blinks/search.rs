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
use crate::banks::{Banks, BanksIndex};
use crate::cancel::{Budget, Interrupted};
use crate::outcome::{Completeness, SearchOutcome};
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::{DiGraph, VId};
use rustc_hash::FxHashMap;

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
    /// off one keyword's expansion distances `dist`: from each vertex,
    /// the first out-neighbor one step closer. The expansion completed
    /// every BFS level below the root's, so such a neighbor always
    /// exists.
    fn descend_path(g: &DiGraph, dist: &FxHashMap<VId, u32>, root: VId) -> Vec<VId> {
        let mut path = vec![root];
        let mut cur = root;
        while let Some(d) = dist.get(&cur).and_then(|d| d.checked_sub(1)) {
            let Some(&next) = g
                .out_neighbors(cur)
                .iter()
                .find(|w| dist.get(w) == Some(&d))
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
    type Index = BanksIndex;

    fn name(&self) -> &'static str {
        "rkws"
    }

    /// BANKS' label table: the expansion needs only each keyword's
    /// vertex set.
    fn build_index(&self, g: &DiGraph) -> BanksIndex {
        Banks.build_index(g)
    }

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
        index: &BanksIndex,
        query: &KeywordQuery,
        k: usize,
        budget: &Budget,
    ) -> Result<SearchOutcome, Interrupted> {
        if query.is_empty() || k == 0 {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        let dmax = query.dmax.min(self.params.prune_dist);
        let n = query.len();

        // Seeds: the vertices containing each keyword. An absent
        // keyword means no answer at all.
        let mut frontiers: Vec<std::collections::VecDeque<VId>> = Vec::with_capacity(n);
        let mut dists: Vec<FxHashMap<VId, u32>> = vec![FxHashMap::default(); n];
        // budget-exempt: one pass over each keyword's label list
        for (i, &q) in query.keywords.iter().enumerate() {
            let seeds = index.vertices_with(q);
            if seeds.is_empty() {
                return Ok(SearchOutcome::exact(Vec::new()));
            }
            dists[i].extend(seeds.iter().map(|&v| (v, 0)));
            frontiers.push(seeds.iter().copied().collect());
        }

        // Backward expansion state: how many keywords reached each
        // candidate and its accumulated score.
        let mut hit_count: FxHashMap<VId, (u32, u64)> = FxHashMap::default();
        // budget-exempt: one pass over the seed frontiers
        for &v in frontiers.iter().flatten() {
            hit_count.entry(v).or_insert((0, 0)).0 += 1;
        }
        let mut depth = vec![0u32; n];
        let mut roots: Vec<(u64, VId)> = Vec::new();
        let mut best_k: std::collections::BinaryHeap<u64> = std::collections::BinaryHeap::new();
        // Record completed roots (exact scores known on completion).
        let complete = |entry: (u32, u64),
                        v: VId,
                        roots: &mut Vec<(u64, VId)>,
                        best_k: &mut std::collections::BinaryHeap<u64>| {
            if entry.0 as usize == n {
                roots.push((entry.1, v));
                best_k.push(entry.1);
                if best_k.len() > k {
                    best_k.pop();
                }
            }
        };
        // Seeds that are already complete (single-keyword queries).
        if n == 1 {
            // budget-exempt: seeds only
            for (&v, &e) in &hit_count {
                complete(e, v, &mut roots, &mut best_k);
            }
        }

        // Round-robin backward BFS, one level of one keyword at a time,
        // always advancing the keyword with the smallest current depth.
        // On interruption, `frontier_lb` holds the last computed lower
        // bound on any root not yet completed.
        let mut frontier_lb: Option<u64> = None;
        'expand: loop {
            // Termination: every unfinished root is missing at least one
            // *active* keyword i, which will contribute at least
            // depth[i] + 1 to its score (keywords that already reached
            // it contributed exact, non-negative sums). The sound lower
            // bound on any future completion is therefore
            // min_i(depth[i] + 1), not Σ_i depth_i — a root sitting at
            // distance 0 from all other keywords only needs one more
            // level from the nearest unfinished frontier.
            let active: Vec<usize> = (0..n)
                .filter(|&i| !frontiers[i].is_empty() && depth[i] < dmax)
                .collect();
            if active.is_empty() {
                break;
            }
            let bound: u64 = active
                .iter()
                .map(|&i| depth[i] as u64 + 1)
                .min()
                .unwrap_or(u64::MAX);
            if best_k.len() >= k && *best_k.peek().unwrap() <= bound {
                break;
            }
            let i = *active
                .iter()
                .min_by_key(|&&i| (depth[i], frontiers[i].len()))
                .unwrap();
            // Expand one full BFS level of keyword i.
            let level = frontiers[i].len();
            let next_depth = depth[i] + 1;
            for _ in 0..level {
                if budget.is_exhausted() {
                    // Depths only grow within a level, so the bound
                    // computed at the loop head still lower-bounds
                    // every future completion.
                    frontier_lb = Some(bound);
                    break 'expand;
                }
                let u = frontiers[i].pop_front().unwrap();
                for &w in g.in_neighbors(u) {
                    if dists[i].contains_key(&w) {
                        continue;
                    }
                    dists[i].insert(w, next_depth);
                    frontiers[i].push_back(w);
                    let e = hit_count.entry(w).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += next_depth as u64;
                    if e.0 as usize == n {
                        complete(*e, w, &mut roots, &mut best_k);
                    }
                }
            }
            depth[i] = next_depth;
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
            for (i, dist) in dists.iter().enumerate() {
                let path = Self::descend_path(g, dist, root);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let idx = blinks.build_index(&g);
            let top3 = blinks.search(&g, &idx, &q, 3);
            let all = blinks.search(&g, &idx, &q, usize::MAX / 2);
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
