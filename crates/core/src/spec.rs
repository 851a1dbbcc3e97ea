//! Answer specialization and candidate pruning — Steps 2–4 of Algo. 2.
//!
//! A generalized answer `aᵐ` found at layer `m` is specialized one layer
//! at a time: every answer vertex expands to its members in the layer
//! below, and vertices matched to a query keyword are filtered by
//! Prop. 4.1 — a specialization survives only if its label at layer
//! `l` equals `Gen^l(q_k)`. Intermediate answers are *node sets*
//! (`E = ∅` until the data-graph layer) to avoid materializing
//! intermediate answer graphs, exactly as the paper prescribes.
//!
//! The `isKey` early-specialization optimization (Sec. 4.3.1) is the
//! per-layer filtering itself; disabling it (for the ablation bench)
//! defers all label checks to layer 0, which is equally correct but
//! carries larger candidate sets down the hierarchy.

use crate::index::BiGIndex;
use bgi_search::{AnswerGraph, Budget, Interrupted, KeywordQuery};

/// A generalized answer specialized down to the data graph: per
/// generalized-answer vertex, its surviving layer-0 candidates.
#[derive(Debug, Clone)]
pub struct SpecializedAnswer {
    /// `candidates[i]` = layer-0 vertices that `answer.vertices[i]`
    /// specializes to (keyword vertices already filtered by label).
    pub candidates: Vec<Vec<bgi_graph::VId>>,
    /// `key_of[i]` = the query keyword index the generalized vertex was
    /// matched to, if any (the `isKey` attribute).
    pub key_of: Vec<Option<usize>>,
    /// Number of candidate vertices pruned by Prop. 4.1 filtering.
    pub pruned: usize,
}

impl SpecializedAnswer {
    /// Total number of surviving layer-0 candidates.
    pub fn total_candidates(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }
}

/// Specializes `answer` (found at layer `m` for the generalized query)
/// down to layer 0. Returns `None` when some keyword vertex loses all
/// candidates — the whole generalized answer is pruned (Sec. 4.3.1).
///
/// `query` is the *original* (layer-0) query; `early_keyword_spec`
/// toggles per-layer label filtering vs. filtering only at layer 0.
/// The walk down the hierarchy checks `budget` per answer vertex per
/// layer, so a deadline interrupts even when supernodes expand to huge
/// member sets.
pub fn specialize_answer(
    index: &BiGIndex,
    query: &KeywordQuery,
    answer: &AnswerGraph,
    m: usize,
    early_keyword_spec: bool,
    budget: &Budget,
) -> Result<Option<SpecializedAnswer>, Interrupted> {
    let nverts = answer.vertices.len();
    // isKey: which keyword does each generalized vertex match?
    let mut key_of: Vec<Option<usize>> = vec![None; nverts];
    // budget-exempt: one pass over the answer's keyword matches
    for (kw, matches) in answer.keyword_matches.iter().enumerate() {
        for v in matches {
            if let Ok(pos) = answer.vertices.binary_search(v) {
                key_of[pos] = Some(kw);
            }
        }
    }

    let mut candidates: Vec<Vec<bgi_graph::VId>> =
        answer.vertices.iter().map(|&v| vec![v]).collect();
    let mut pruned = 0usize;

    // Walk down: layer m -> m-1 -> … -> 0.
    for l in (1..=m).rev() {
        let lower = index.graph_at(l - 1);
        for (i, cands) in candidates.iter_mut().enumerate() {
            let mut next = Vec::with_capacity(cands.len());
            for &s in cands.iter() {
                budget.check()?;
                next.extend_from_slice(index.spec_step(s, l));
            }
            // Prop. 4.1: keyword vertices must specialize to labels that
            // are still on the keyword's generalization chain.
            if let Some(kw) = key_of[i] {
                let apply_filter = early_keyword_spec || l == 1;
                if apply_filter {
                    let want = index.generalize_label(query.keywords[kw], l - 1);
                    let before = next.len();
                    next.retain(|&v| lower.label(v) == want);
                    pruned += before - next.len();
                    if next.is_empty() {
                        return Ok(None); // the whole answer is unrealizable
                    }
                }
            }
            *cands = next;
        }
    }
    Ok(Some(SpecializedAnswer {
        candidates,
        key_of,
        pruned,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use bgi_bisim::BisimDirection;
    use bgi_graph::{GraphBuilder, LabelId, Ontology, OntologyBuilder, VId};
    use bgi_search::{Banks, KeywordSearch};

    /// Labels: 0=Person(super), 1=Prof, 2=Student, 3=Univ.
    /// 4 Profs and 4 Students all point at the hub Univ.
    fn setup() -> (bgi_graph::DiGraph, Ontology) {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(3));
        for i in 0..8 {
            let l = if i < 4 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        (g, ob.build().unwrap())
    }

    fn indexed() -> BiGIndex {
        let (g, o) = setup();
        let c = GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        BiGIndex::build_with_configs(g, o, vec![c], BisimDirection::Forward)
    }

    /// `super::specialize_answer` with no budget.
    fn specialize_answer(
        index: &BiGIndex,
        query: &KeywordQuery,
        answer: &AnswerGraph,
        m: usize,
        early_keyword_spec: bool,
    ) -> Option<SpecializedAnswer> {
        super::specialize_answer(
            index,
            query,
            answer,
            m,
            early_keyword_spec,
            &Budget::unlimited(),
        )
        .expect("an unlimited budget never interrupts")
    }

    /// Run Banks on layer 1 for the generalized query {Person, Univ}.
    fn generalized_answer(idx: &BiGIndex) -> AnswerGraph {
        let gq = bgi_search::KeywordQuery::new(vec![LabelId(0), LabelId(3)], 2);
        let answers = Banks.search_fresh(idx.graph_at(1), &gq, 10);
        assert!(!answers.is_empty());
        answers.into_iter().next().unwrap()
    }

    #[test]
    fn keyword_candidates_filtered_by_label() {
        let idx = indexed();
        // Original query asks for Prof (1), not Student (2).
        let q = bgi_search::KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let ga = generalized_answer(&idx);
        let spec = specialize_answer(&idx, &q, &ga, 1, true).unwrap();
        // The Person supernode matched keyword 0; only the 4 Profs survive.
        let kw_pos = spec
            .key_of
            .iter()
            .position(|&k| k == Some(0))
            .expect("keyword vertex present");
        assert_eq!(spec.candidates[kw_pos].len(), 4);
        assert!(spec.pruned >= 4); // the 4 Students were pruned
        for &v in &spec.candidates[kw_pos] {
            assert_eq!(idx.base().label(v), LabelId(1));
        }
    }

    #[test]
    fn late_filtering_gives_same_survivors() {
        let idx = indexed();
        let q = bgi_search::KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let ga = generalized_answer(&idx);
        let early = specialize_answer(&idx, &q, &ga, 1, true).unwrap();
        let late = specialize_answer(&idx, &q, &ga, 1, false).unwrap();
        assert_eq!(early.candidates, late.candidates);
    }

    #[test]
    fn unrealizable_answer_is_pruned_entirely() {
        let idx = indexed();
        // Query a label (5) that nothing in the graph carries but whose
        // generalization chain is itself; craft an answer claiming a
        // keyword match on the Person supernode.
        let q = bgi_search::KeywordQuery::new(vec![LabelId(5), LabelId(3)], 2);
        let mut ga = generalized_answer(&idx);
        // Rewrite: pretend keyword 0 matched the Person supernode; since
        // no member has label 5, specialization must prune everything.
        ga.keyword_matches[0] = ga.keyword_matches[0].clone();
        let spec = specialize_answer(&idx, &q, &ga, 1, true);
        assert!(spec.is_none());
    }

    #[test]
    fn non_keyword_vertices_not_filtered() {
        let idx = indexed();
        let q = bgi_search::KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let ga = generalized_answer(&idx);
        let spec = specialize_answer(&idx, &q, &ga, 1, true).unwrap();
        for (i, key) in spec.key_of.iter().enumerate() {
            if key.is_none() {
                // Unfiltered: candidate count equals full member count.
                let s = ga.vertices[i];
                assert_eq!(spec.candidates[i].len(), idx.spec_to_base(s, 1).len());
            }
        }
    }

    #[test]
    fn layer0_answers_specialize_to_themselves() {
        let idx = indexed();
        let q = bgi_search::KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let answers = Banks.search_fresh(idx.base(), &q, 3);
        for a in answers {
            let spec = specialize_answer(&idx, &q, &a, 0, true).unwrap();
            for (i, c) in spec.candidates.iter().enumerate() {
                assert_eq!(c, &vec![a.vertices[i]]);
            }
            assert_eq!(spec.pruned, 0);
        }
    }

    #[test]
    fn candidate_counts_accumulate() {
        let idx = indexed();
        let q = bgi_search::KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let ga = generalized_answer(&idx);
        let spec = specialize_answer(&idx, &q, &ga, 1, true).unwrap();
        assert_eq!(
            spec.total_candidates(),
            spec.candidates.iter().map(Vec::len).sum::<usize>()
        );
        let _ = VId(0);
    }
}
