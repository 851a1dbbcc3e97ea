//! Answer graphs: the uniform answer shape shared by all semantics.
//!
//! Every algorithm returns [`AnswerGraph`]s: a small connected subgraph
//! of the data graph together with, per query keyword, the vertices that
//! matched it. BiG-index's answer generation (Algos. 3 and 4) consumes
//! exactly this: the vertex set, the topological structure (edges), and
//! the keyword-match bookkeeping (`isKey` in Sec. 4.3.1).

use bgi_graph::{LabelId, VId};

/// A query answer: a connected subgraph plus keyword matches and a score
/// (lower is better — total distance under both Blinks' and r-clique's
/// scoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerGraph {
    /// All vertices of the answer subgraph, deduplicated, sorted.
    pub vertices: Vec<VId>,
    /// Edges of the answer subgraph (each present in the data graph).
    pub edges: Vec<(VId, VId)>,
    /// `keyword_matches[i]` = the answer vertices matching query keyword
    /// `q_i` (vertices whose label equals `q_i`).
    pub keyword_matches: Vec<Vec<VId>>,
    /// Distinguished root for rooted-tree semantics (BANKS/BLINKS).
    pub root: Option<VId>,
    /// Ranking score; lower is better.
    pub score: u64,
}

impl AnswerGraph {
    /// Builds an answer from raw parts, normalizing vertex/edge order.
    pub fn new(
        mut vertices: Vec<VId>,
        mut edges: Vec<(VId, VId)>,
        keyword_matches: Vec<Vec<VId>>,
        root: Option<VId>,
        score: u64,
    ) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        edges.sort_unstable();
        edges.dedup();
        AnswerGraph {
            vertices,
            edges,
            keyword_matches,
            root,
            score,
        }
    }

    /// Checks structural sanity against a graph: every answer edge exists
    /// in `g`, every keyword match has the right label, the subgraph is
    /// weakly connected (when non-empty).
    pub fn validate(&self, g: &bgi_graph::DiGraph, keywords: &[LabelId]) -> bool {
        if self.keyword_matches.len() != keywords.len() {
            return false; // every query keyword needs a match list
        }
        if !self.edges.iter().all(|&(u, v)| g.has_edge(u, v)) {
            return false;
        }
        for (i, matches) in self.keyword_matches.iter().enumerate() {
            if matches.is_empty() {
                return false; // every keyword must be covered
            }
            if !matches.iter().all(|&v| g.label(v) == keywords[i]) {
                return false;
            }
            if !matches.iter().all(|v| self.vertices.contains(v)) {
                return false;
            }
        }
        self.is_weakly_connected()
    }

    /// True if the answer subgraph is weakly connected (single vertex
    /// answers count as connected; empty answers do not).
    pub fn is_weakly_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return false;
        }
        let idx = |v: VId| {
            self.vertices
                .binary_search(&v)
                .expect("edge endpoint not in vertex set")
        };
        let n = self.vertices.len();
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            let (ui, vi) = (idx(u), idx(v));
            adj[ui].push(vi);
            adj[vi].push(ui);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    count += 1;
                    stack.push(y);
                }
            }
        }
        count == n
    }

    /// A canonical identity for deduplication across algorithms:
    /// `(root, sorted keyword nodes)`.
    pub fn identity(&self) -> (Option<VId>, Vec<VId>) {
        let mut kw: Vec<VId> = self
            .keyword_matches
            .iter()
            .flat_map(|m| m.iter().copied())
            .collect();
        kw.sort_unstable();
        kw.dedup();
        (self.root, kw)
    }
}

/// Sorts answers by `(score, identity)` for a stable ranking, and
/// truncates to `k`.
pub fn rank_and_truncate(mut answers: Vec<AnswerGraph>, k: usize) -> Vec<AnswerGraph> {
    answers.sort_by(|a, b| {
        a.score
            .cmp(&b.score)
            .then_with(|| a.identity().cmp(&b.identity()))
    });
    answers.dedup_by(|a, b| a.identity() == b.identity());
    answers.truncate(k);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};

    fn tiny() -> bgi_graph::DiGraph {
        let mut b = GraphBuilder::new();
        let r = b.add_vertex(LabelId(0));
        let x = b.add_vertex(LabelId(1));
        let y = b.add_vertex(LabelId(2));
        b.add_edge(r, x);
        b.add_edge(r, y);
        b.build()
    }

    fn tiny_answer() -> AnswerGraph {
        AnswerGraph::new(
            vec![VId(0), VId(1), VId(2)],
            vec![(VId(0), VId(1)), (VId(0), VId(2))],
            vec![vec![VId(1)], vec![VId(2)]],
            Some(VId(0)),
            2,
        )
    }

    #[test]
    fn validates_against_graph() {
        let g = tiny();
        let a = tiny_answer();
        assert!(a.validate(&g, &[LabelId(1), LabelId(2)]));
        // Wrong keyword label fails.
        assert!(!a.validate(&g, &[LabelId(2), LabelId(1)]));
    }

    #[test]
    fn connectivity_detects_disconnection() {
        let a = AnswerGraph::new(
            vec![VId(0), VId(1)],
            vec![],
            vec![vec![VId(0)], vec![VId(1)]],
            None,
            0,
        );
        assert!(!a.is_weakly_connected());
        let single = AnswerGraph::new(vec![VId(0)], vec![], vec![vec![VId(0)]], None, 0);
        assert!(single.is_weakly_connected());
    }

    #[test]
    fn empty_answer_not_connected() {
        let a = AnswerGraph::new(vec![], vec![], vec![], None, 0);
        assert!(!a.is_weakly_connected());
    }

    #[test]
    fn uncovered_keyword_fails_validation() {
        let g = tiny();
        let a = AnswerGraph::new(
            vec![VId(0), VId(1)],
            vec![(VId(0), VId(1))],
            vec![vec![VId(1)], vec![]],
            Some(VId(0)),
            1,
        );
        assert!(!a.validate(&g, &[LabelId(1), LabelId(2)]));
    }

    #[test]
    fn rank_orders_by_score_then_identity() {
        let mk = |root: u32, score: u64| {
            AnswerGraph::new(
                vec![VId(root)],
                vec![],
                vec![vec![VId(root)]],
                Some(VId(root)),
                score,
            )
        };
        let ranked = rank_and_truncate(vec![mk(3, 5), mk(1, 2), mk(2, 2)], 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].root, Some(VId(1)));
        assert_eq!(ranked[1].root, Some(VId(2)));
    }

    #[test]
    fn rank_dedups_identical_answers() {
        let a = tiny_answer();
        let ranked = rank_and_truncate(vec![a.clone(), a], 10);
        assert_eq!(ranked.len(), 1);
    }
}
