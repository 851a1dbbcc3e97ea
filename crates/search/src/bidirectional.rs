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
use crate::banks::expand_backward;
use crate::cancel::{Budget, Interrupted};
use crate::outcome::SearchOutcome;
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::traversal::{with_slots, Direction};
use bgi_graph::{DiGraph, VId};

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
        // One backward slot per keyword, then the forward validator.
        with_slots(n + 1, |slots| {
            let (reaches, forward) = slots.split_at_mut(n);
            let forward = &mut forward[0];
            for (i, (&q, reach)) in query.keywords.iter().zip(&mut *reaches).enumerate() {
                let sources = g.vertices_with(q);
                if sources.is_empty() {
                    return Ok(SearchOutcome::exact(Vec::new()));
                }
                let bound = if i == pivot { query.dmax } else { half };
                expand_backward(reach, g, sources, bound, budget)?;
            }

            // Activation: Σ_i decay^{dist_i(v)} / |V_{q_i}| over keywords
            // that reached v — the spreading-activation score — for every
            // vertex some keyword reached, listed once.
            let denoms: Vec<f64> = (query.keywords.iter())
                .map(|&q| g.vertices_with(q).len().max(1) as f64)
                .collect();
            let mut order: Vec<(VId, f64)> = Vec::new();
            // budget-exempt: one pass over the reaches just expanded
            for (i, reach) in reaches.iter().enumerate() {
                for &v in reach.discovered() {
                    if reaches[..i].iter().any(|r| r.reached(v)) {
                        continue;
                    }
                    let activation = (reaches.iter().zip(&denoms))
                        .filter(|(r, _)| r.reached(v))
                        .fold(0.0, |a, (r, denom)| {
                            a + self.decay.powi(r.dist(v) as i32) / denom
                        });
                    order.push((v, activation));
                }
            }

            // Candidates ordered by activation, highest first: hub-like
            // vertices are validated before the fringe. Every valid root
            // is a candidate because the pivot keyword's reach is
            // complete.
            order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

            let mut answers = Vec::new();
            'candidates: for (v, _act) in order {
                budget.check()?;
                if !reaches[pivot].reached(v) {
                    continue; // cannot reach the pivot keyword within d_max
                }
                // Each keyword's distance and root-to-keyword path: the
                // backward reach's where it got to v; otherwise forward
                // validation, one bounded forward BFS from v, whose first
                // discovered keyword node is the nearest.
                let mut validated = false;
                let mut score = 0u64;
                let mut vertices = Vec::new();
                let mut edges = Vec::new();
                let mut keyword_matches = vec![Vec::new(); n];
                for (i, (&q, reach)) in query.keywords.iter().zip(&*reaches).enumerate() {
                    let (dist, path) = if reach.reached(v) {
                        (reach.dist(v), reach.path_to_source(v))
                    } else {
                        if !validated {
                            forward.seed(g, &[v]);
                            forward.fill(g, Direction::Forward, query.dmax);
                            validated = true;
                        }
                        let nearest = forward.discovered().iter().find(|&&t| g.label(t) == q);
                        let Some(&t) = nearest else {
                            continue 'candidates;
                        };
                        let mut path = forward.path_to_source(t);
                        path.reverse();
                        (forward.dist(t), path)
                    };
                    score += u64::from(dist);
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
                    Some(v),
                    score,
                ));
            }
            Ok(SearchOutcome::exact(rank_and_truncate(answers, k)))
        })
    }
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
