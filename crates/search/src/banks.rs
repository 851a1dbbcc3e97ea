//! `bkws`: backward keyword search (Sec. 5.1), after BANKS
//! (Bhalotia et al. [1]) with the distinct-root refinement of He et al.
//!
//! Answers are subtrees `T = {r, p_1, …, p_n}` where each leaf `p_i`
//! contains keyword `q_i` and `dist(r, p_i) ≤ d_max`, ranked by
//! `Σ_i dist(r, p_i)` (Formula 1 of Sec. 2). The search expands
//! *backward* (over in-edges) from each keyword's vertex set; a vertex
//! reached from every keyword set within the bound is an answer root.

use crate::answer::{rank_and_truncate, AnswerGraph};
use crate::cancel::{Budget, Interrupted};
use crate::outcome::{Completeness, SearchOutcome};
use crate::query::KeywordQuery;
use crate::semantics::KeywordSearch;
use bgi_graph::{DiGraph, LabelId, VId};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// The backward keyword search algorithm (no parameters).
#[derive(Debug, Clone, Copy, Default)]
pub struct Banks;

/// BANKS' only index: the inverted label → vertices table. Clones
/// share the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BanksIndex {
    label_vertices: Arc<Vec<Vec<VId>>>,
}

impl BanksIndex {
    /// Vertices containing label `l` (`V_q` in the paper).
    pub fn vertices_with(&self, l: LabelId) -> &[VId] {
        self.label_vertices
            .get(l.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The full inverted table, indexed by label (persistence export).
    pub fn label_lists(&self) -> &[Vec<VId>] {
        &self.label_vertices
    }

    /// Reassembles an index from a previously built inverted table
    /// (the persistence path).
    pub fn from_parts(label_vertices: Vec<Vec<VId>>) -> Self {
        BanksIndex {
            label_vertices: Arc::new(label_vertices),
        }
    }

    /// Incrementally patched copy of this index for the graph described
    /// by `diff` (see [`crate::patch`]). Edge changes do not touch the
    /// inverted table; appended vertices are pushed onto their label's
    /// list in id order, which is exactly the order a rebuild visits
    /// them — the result equals `build_index` on the new graph. A diff
    /// that adds no vertex shares this index's table.
    pub fn patched(&self, new_g: &DiGraph, diff: &crate::patch::GraphDiff) -> BanksIndex {
        let mut patched = self.clone();
        if diff.added_labels.is_empty() && self.label_vertices.len() >= new_g.alphabet_size() {
            return patched;
        }
        let label_vertices = Arc::make_mut(&mut patched.label_vertices);
        if label_vertices.len() < new_g.alphabet_size() {
            label_vertices.resize(new_g.alphabet_size(), Vec::new());
        }
        let n_old = new_g.num_vertices() - diff.added_labels.len();
        for (k, &l) in diff.added_labels.iter().enumerate() {
            label_vertices[l.index()].push(VId((n_old + k) as u32));
        }
        patched
    }
}

/// Per-keyword backward BFS result: for each reached vertex, its
/// distance to the nearest keyword node and the out-neighbor on a
/// shortest path toward it (`None` at keyword nodes themselves).
pub(crate) type ReachTable = FxHashMap<VId, (u32, Option<VId>)>;

pub(crate) fn backward_reach_budgeted(
    g: &DiGraph,
    sources: &[VId],
    dmax: u32,
    budget: &Budget,
) -> Result<ReachTable, Interrupted> {
    let mut reach: ReachTable = FxHashMap::default();
    let mut queue = VecDeque::new();
    // budget-exempt: linear seeding of the BFS queue
    for &s in sources {
        if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(s) {
            e.insert((0, None));
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        budget.check()?;
        let d = reach[&v].0;
        if d >= dmax {
            continue;
        }
        for &u in g.in_neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(u) {
                e.insert((d + 1, Some(v)));
                queue.push_back(u);
            }
        }
    }
    Ok(reach)
}

/// Reconstructs the root-to-keyword path from a `backward_reach_budgeted`
/// table.
pub(crate) fn path_to_keyword(reach: &ReachTable, root: VId) -> Vec<VId> {
    let mut path = vec![root];
    let mut cur = root;
    while let Some(&(_, Some(next))) = reach.get(&cur) {
        path.push(next);
        cur = next;
    }
    path
}

impl KeywordSearch for Banks {
    type Index = BanksIndex;

    fn name(&self) -> &'static str {
        "bkws"
    }

    fn build_index(&self, g: &DiGraph) -> BanksIndex {
        let mut label_vertices = vec![Vec::new(); g.alphabet_size()];
        for v in g.vertices() {
            label_vertices[g.label(v).index()].push(v);
        }
        BanksIndex::from_parts(label_vertices)
    }

    /// Best-effort under `budget`. Interruption during the per-keyword
    /// backward expansions means no candidate root is known yet, so
    /// nothing usable exists and the whole search fails with
    /// [`Interrupted`]; interruption during the root-scoring loop
    /// returns the roots scored so far marked
    /// [`Completeness::Truncated`] (candidate roots are not visited in
    /// weight order, so no optimality bound is available).
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
        // Backward expansion from every keyword's vertex set, smallest
        // set first (BANKS' strategy); if any keyword is absent there is
        // no answer at all.
        let mut keyword_sets: Vec<(usize, &[VId])> = query
            .keywords
            .iter()
            .enumerate()
            .map(|(i, &q)| (i, index.vertices_with(q)))
            .collect();
        if keyword_sets.iter().any(|(_, s)| s.is_empty()) {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        keyword_sets.sort_by_key(|(_, s)| s.len());

        let mut reaches: Vec<Option<ReachTable>> = vec![None; query.len()];
        // Candidate roots: intersection of reach sets; seed from the
        // smallest keyword set's reach and intersect incrementally.
        let mut candidates: Option<Vec<VId>> = None;
        for &(i, sources) in &keyword_sets {
            let reach = backward_reach_budgeted(g, sources, query.dmax, budget)?;
            candidates = Some(match candidates {
                None => reach.keys().copied().collect(),
                Some(prev) => prev.into_iter().filter(|v| reach.contains_key(v)).collect(),
            });
            reaches[i] = Some(reach);
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return Ok(SearchOutcome::exact(Vec::new()));
            }
        }

        let mut answers = Vec::new();
        let mut truncated = false;
        for root in candidates.unwrap_or_default() {
            if budget.is_exhausted() {
                // Surface the roots already scored instead of
                // discarding them.
                truncated = true;
                break;
            }
            let mut vertices = Vec::new();
            let mut edges = Vec::new();
            let mut keyword_matches = vec![Vec::new(); query.len()];
            let mut score = 0u64;
            for (i, reach) in reaches.iter().enumerate() {
                let reach = reach.as_ref().unwrap();
                let (d, _) = reach[&root];
                score += d as u64;
                let path = path_to_keyword(reach, root);
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
        if truncated && answers.is_empty() {
            return Err(Interrupted);
        }
        Ok(SearchOutcome {
            answers: rank_and_truncate(answers, k),
            completeness: if truncated {
                Completeness::Truncated
            } else {
                Completeness::Exact
            },
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
