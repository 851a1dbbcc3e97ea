//! Bidirectional expansion keyword search, after Kacholia et al.
//! (VLDB'05) — listed by the BiG-index paper among the algorithms its
//! framework supports (Sec. 5, "e.g., [12], [15], [1], [14], [32]").
//!
//! Answers follow the same distinct-root semantics as [`crate::Banks`],
//! so the two implementations cross-validate each other; the *strategy*
//! differs: expansion runs backward from keyword nodes prioritized by
//! *spreading activation* (keyword nodes inject `1/|V_q|`, activation
//! decays by `μ` per edge), and a vertex reached by some — but not all —
//! keywords is *forward-validated* by a bounded forward BFS instead of
//! waiting for every backward frontier to arrive. High-activation hubs
//! therefore complete early, which is exactly Kacholia et al.'s case
//! for bidirectional search.

use crate::answer::{rank_and_truncate, AnswerGraph};
use crate::banks::{backward_reach_budgeted, path_to_keyword};
use crate::cancel::{Budget, Interrupted};
use crate::outcome::SearchOutcome;
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::traversal::{BfsScratch, Direction};
use bgi_graph::{DiGraph, VId};
use rustc_hash::FxHashMap;

/// Bidirectional expansion search.
#[derive(Debug, Clone, Copy)]
pub struct Bidirectional {
    /// Activation decay per edge (`μ`); Kacholia et al. suggest values
    /// well below 1 so distant matches contribute little.
    pub decay: f64,
}

impl Default for Bidirectional {
    fn default() -> Self {
        Bidirectional { decay: 0.5 }
    }
}

impl KeywordSearch for Bidirectional {
    type Index = ();

    fn name(&self) -> &'static str {
        "bidir"
    }

    fn build_index(&self, _g: &DiGraph) {}

    /// All-or-nothing under `budget`: candidates are validated in
    /// activation order, not score order, so an interrupted run has no
    /// ranked prefix worth returning and fails with [`Interrupted`].
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
        let n = query.len();
        // Bidirectional split: the most selective keyword expands
        // backward the full d_max (every root must appear in its reach);
        // the others expand only half-way and are completed by forward
        // validation from the candidates — the bidirectional meeting in
        // the middle.
        let pivot = (0..n)
            .min_by_key(|&i| g.vertices_with(query.keywords[i]).len())
            .unwrap();
        let half = query.dmax.div_ceil(2);
        let mut reaches = Vec::with_capacity(n);
        for (i, &q) in query.keywords.iter().enumerate() {
            let sources = g.vertices_with(q);
            if sources.is_empty() {
                return Ok(SearchOutcome::exact(Vec::new()));
            }
            let bound = if i == pivot { query.dmax } else { half };
            reaches.push(backward_reach_budgeted(g, sources, bound, budget)?);
        }

        // Activation: Σ_i decay^{dist_i(v)} / |V_{q_i}| over keywords
        // that reached v — the spreading-activation score.
        let mut activation: FxHashMap<VId, f64> = FxHashMap::default();
        let mut hits: FxHashMap<VId, usize> = FxHashMap::default();
        // budget-exempt: one pass over the reach tables just built
        for (i, reach) in reaches.iter().enumerate() {
            let denom = g.vertices_with(query.keywords[i]).len().max(1) as f64;
            for (&v, &(d, _)) in reach {
                *activation.entry(v).or_insert(0.0) += self.decay.powi(d as i32) / denom;
                *hits.entry(v).or_insert(0) += 1;
            }
        }

        // Candidates ordered by activation, highest first: hub-like
        // vertices are validated before the fringe. Every valid root is
        // a candidate because the pivot keyword's reach is complete.
        let mut order: Vec<(VId, f64)> = activation.into_iter().collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        let mut scratch = BfsScratch::new(g.num_vertices());
        let mut answers = Vec::new();
        for (v, _act) in order {
            budget.check()?;
            if !reaches[pivot].contains_key(&v) {
                continue; // cannot reach the pivot keyword within d_max
            }
            let hit = hits[&v];
            if hit == 0 {
                continue;
            }
            // Forward validation: one bounded forward BFS from v gives
            // the distances to every keyword the backward frontiers have
            // not (yet) established.
            let mut dists = vec![None; n];
            let mut need_forward = false;
            for (i, reach) in reaches.iter().enumerate() {
                match reach.get(&v) {
                    Some(&(d, _)) => dists[i] = Some(d),
                    None => need_forward = true,
                }
            }
            if need_forward {
                scratch.run(g, &[v], Direction::Forward, query.dmax, |_, _| true);
                for (i, dist) in dists.iter_mut().enumerate() {
                    if dist.is_none() {
                        let best = g
                            .vertices_with(query.keywords[i])
                            .iter()
                            .map(|&t| scratch.dist(t))
                            .min()
                            .unwrap_or(u32::MAX);
                        if best <= query.dmax {
                            *dist = Some(best);
                        }
                    }
                }
            }
            if dists.iter().any(Option::is_none) {
                continue;
            }
            // Build the answer tree: backward-reach paths where known,
            // forward shortest paths otherwise.
            let mut vertices = Vec::new();
            let mut edges = Vec::new();
            let mut keyword_matches = vec![Vec::new(); n];
            let mut score = 0u64;
            let mut ok = true;
            for (i, reach) in reaches.iter().enumerate() {
                score += dists[i].unwrap() as u64;
                let path = if reach.contains_key(&v) {
                    path_to_keyword(reach, v)
                } else {
                    match forward_path(g, v, g.vertices_with(query.keywords[i]), query.dmax) {
                        Some(p) => p,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                };
                for w in path.windows(2) {
                    edges.push((w[0], w[1]));
                }
                keyword_matches[i].push(*path.last().unwrap());
                vertices.extend(path);
            }
            if ok {
                answers.push(AnswerGraph::new(
                    vertices,
                    edges,
                    keyword_matches,
                    Some(v),
                    score,
                ));
            }
        }
        Ok(SearchOutcome::exact(rank_and_truncate(answers, k)))
    }
}

/// Shortest forward path from `root` to the nearest of `targets` within
/// `dmax`, via parent pointers.
fn forward_path(g: &DiGraph, root: VId, targets: &[VId], dmax: u32) -> Option<Vec<VId>> {
    use std::collections::VecDeque;
    let target_set: rustc_hash::FxHashSet<VId> = targets.iter().copied().collect();
    if target_set.contains(&root) {
        return Some(vec![root]);
    }
    let mut parent: FxHashMap<VId, VId> = FxHashMap::default();
    let mut dist: FxHashMap<VId, u32> = FxHashMap::default();
    let mut queue = VecDeque::new();
    dist.insert(root, 0);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d >= dmax {
            continue;
        }
        for &w in g.out_neighbors(u) {
            if dist.contains_key(&w) {
                continue;
            }
            dist.insert(w, d + 1);
            parent.insert(w, u);
            if target_set.contains(&w) {
                let mut path = vec![w];
                let mut cur = w;
                while cur != root {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(w);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::Banks;
    use bgi_graph::generate::uniform_random;
    use bgi_graph::LabelId;

    #[test]
    fn matches_banks_on_random_graphs() {
        for seed in 0..8 {
            let g = uniform_random(120, 360, 5, seed);
            let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
            let a = Bidirectional::default().search_fresh(&g, &q, 1000);
            let b = Banks.search_fresh(&g, &q, 1000);
            let key = |x: &AnswerGraph| (x.root, x.score);
            let mut ka: Vec<_> = a.iter().map(key).collect();
            let mut kb: Vec<_> = b.iter().map(key).collect();
            ka.sort_unstable();
            kb.sort_unstable();
            assert_eq!(ka, kb, "seed {seed}");
        }
    }

    #[test]
    fn answers_validate() {
        let g = uniform_random(150, 450, 4, 31);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(2), LabelId(3)], 3);
        for a in Bidirectional::default().search_fresh(&g, &q, 20) {
            assert!(a.validate(&g, &q.keywords));
        }
    }

    #[test]
    fn missing_keyword_is_empty() {
        let g = uniform_random(60, 120, 2, 3);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(7)], 3);
        assert!(Bidirectional::default().search_fresh(&g, &q, 5).is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let g = uniform_random(100, 300, 3, 5);
        let q = KeywordQuery::new(vec![LabelId(0)], 3);
        let a = Bidirectional::default().search_fresh(&g, &q, 3);
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0].score <= w[1].score));
    }
}
