//! Algo. 3: vertex-at-a-time answer graph generation (`ans_graph_gen`).
//!
//! Given a generalized answer `aᵐ` and the layer-0 candidate sets from
//! [`crate::spec`], enumerate every assignment of one concrete vertex
//! per generalized vertex such that every generalized edge is realized
//! by a data-graph edge (vertex qualification, Def. 4.2). Candidates are
//! processed in *specialization order* (Sec. 4.3.2): positions with
//! fewer specializations first, which keeps the set of partial answers
//! small (Example 4.2).

use crate::spec::SpecializedAnswer;
use bgi_graph::{DiGraph, VId};
use bgi_search::{AnswerGraph, Budget, Interrupted};

/// Statistics of one generation run (for the optimization experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Partial answers created during enumeration (Fig. 17's metric).
    pub partials_created: usize,
    /// Complete answers produced.
    pub answers: usize,
}

/// Enumerates realized answers of `answer` (a generalized answer at any
/// layer) over the data graph `base`.
///
/// * `use_spec_order` — process positions in ascending candidate-count
///   order (the Sec. 4.3.2 optimization) instead of natural order.
/// * `limit` — stop after producing this many answers (top-k early
///   termination, Sec. 4.3.4).
///
/// The DFS checks `budget` once per enumeration step, so a deadline
/// interrupts even when the candidate cross-product explodes.
pub fn vertex_answer_generation(
    base: &DiGraph,
    answer: &AnswerGraph,
    spec: &SpecializedAnswer,
    use_spec_order: bool,
    limit: usize,
    budget: &Budget,
) -> Result<(Vec<AnswerGraph>, GenStats), Interrupted> {
    let n = answer.vertices.len();
    let mut stats = GenStats::default();
    if n == 0 || limit == 0 {
        return Ok((Vec::new(), stats));
    }

    // Specialization order O (Sec. 4.3.2): ascending |χ⁻¹(aᵢ)|.
    let mut order: Vec<usize> = (0..n).collect();
    if use_spec_order {
        order.sort_by_key(|&i| spec.candidates[i].len());
    }

    // Generalized edges as position pairs, made resolvable per position:
    // for each position, the generalized edges touching it whose other
    // endpoint comes earlier in the order.
    let pos_of = |v: VId| answer.vertices.binary_search(&v).expect("answer vertex");
    let rank: Vec<usize> = {
        let mut r = vec![0; n];
        // budget-exempt: one pass over the answer's positions
        for (step, &p) in order.iter().enumerate() {
            r[p] = step;
        }
        r
    };
    // checks[step] = list of (earlier position, edge direction) to verify
    // when assigning the position at `step`. Direction: true = edge goes
    // earlier -> current, false = current -> earlier.
    let mut checks: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    // budget-exempt: one pass over the answer's edges
    for &(u, v) in &answer.edges {
        let (pu, pv) = (pos_of(u), pos_of(v));
        if rank[pu] < rank[pv] {
            checks[rank[pv]].push((pu, true));
        } else {
            checks[rank[pu]].push((pv, false));
        }
    }

    // DFS over positions in order; assignment[pos] = chosen vertex.
    let mut assignment: Vec<Option<VId>> = vec![None; n];
    let mut results = Vec::new();
    let mut stack: Vec<usize> = vec![0]; // candidate cursor per depth
    'dfs: loop {
        budget.check()?;
        let depth = stack.len() - 1;
        let pos = order[depth];
        let cursor = &mut stack[depth];
        let cands = &spec.candidates[pos];
        let mut advanced = false;
        while *cursor < cands.len() {
            let v = cands[*cursor];
            *cursor += 1;
            // Vertex qualification (Def. 4.2) against assigned neighbors.
            let ok = checks[depth].iter().all(|&(earlier_pos, incoming)| {
                let u = assignment[earlier_pos].expect("earlier position assigned");
                if incoming {
                    base.has_edge(u, v)
                } else {
                    base.has_edge(v, u)
                }
            });
            if ok {
                assignment[pos] = Some(v);
                stats.partials_created += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            // Exhausted this depth: backtrack.
            assignment[pos] = None;
            stack.pop();
            if stack.is_empty() {
                break 'dfs;
            }
            continue;
        }
        if depth + 1 == n {
            // Complete assignment: materialize.
            results.push(materialize_assignment(answer, spec, &assignment));
            stats.answers += 1;
            if results.len() >= limit {
                break 'dfs;
            }
            assignment[pos] = None; // keep enumerating siblings
        } else {
            stack.push(0);
        }
    }
    Ok((results, stats))
}

/// Builds the concrete [`AnswerGraph`] for a complete assignment.
fn materialize_assignment(
    answer: &AnswerGraph,
    spec: &SpecializedAnswer,
    assignment: &[Option<VId>],
) -> AnswerGraph {
    let n = answer.vertices.len();
    let pos_of = |v: VId| answer.vertices.binary_search(&v).expect("answer vertex");
    let vertices: Vec<VId> = (0..n).map(|i| assignment[i].unwrap()).collect();
    let edges: Vec<(VId, VId)> = answer
        .edges
        .iter()
        .map(|&(u, v)| {
            (
                assignment[pos_of(u)].unwrap(),
                assignment[pos_of(v)].unwrap(),
            )
        })
        .collect();
    let mut keyword_matches = vec![Vec::new(); answer.keyword_matches.len()];
    for (i, key) in spec.key_of.iter().enumerate() {
        if let Some(kw) = key {
            keyword_matches[*kw].push(assignment[i].unwrap());
        }
    }
    let root = answer.root.map(|r| assignment[pos_of(r)].unwrap());
    AnswerGraph::new(vertices, edges, keyword_matches, root, answer.score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};

    /// Hand-built scenario mirroring Example 4.1/4.2:
    /// generalized answer: Univ -> Eastern, Univ -> Organization,
    /// Academics -> Univ. Base graph (Fig. 7): three universities with
    /// different state/org attachments.
    struct Scenario {
        base: DiGraph,
        answer: AnswerGraph,
        spec: SpecializedAnswer,
    }

    /// `super::vertex_answer_generation` with no budget.
    fn vertex_answer_generation(
        base: &DiGraph,
        answer: &AnswerGraph,
        spec: &SpecializedAnswer,
        use_spec_order: bool,
        limit: usize,
    ) -> (Vec<AnswerGraph>, GenStats) {
        super::vertex_answer_generation(
            base,
            answer,
            spec,
            use_spec_order,
            limit,
            &Budget::unlimited(),
        )
        .expect("an unlimited budget never interrupts")
    }

    fn scenario() -> Scenario {
        // Base vertices:
        // 0 = S.Idreos(Academics), 1 = Harvard, 2 = Cornell, 3 = Columbia,
        // 4 = Massachusetts(Eastern), 5 = NewYork(Eastern),
        // 6 = IvyLeague(Org).
        let mut b = GraphBuilder::new();
        for l in [0u32, 1, 1, 1, 2, 2, 3] {
            b.add_vertex(LabelId(l));
        }
        b.add_edge(VId(0), VId(1)); // Idreos -> Harvard
        b.add_edge(VId(1), VId(4)); // Harvard -> Massachusetts
        b.add_edge(VId(2), VId(5)); // Cornell -> NewYork
        b.add_edge(VId(3), VId(5)); // Columbia -> NewYork
        b.add_edge(VId(1), VId(6)); // Harvard -> IvyLeague
        b.add_edge(VId(2), VId(6)); // Cornell -> IvyLeague
        let base = b.build();

        // Generalized answer graph over supernodes 10..13 (ids arbitrary):
        // 10=Academics, 11=Univ, 12=Eastern, 13=Organization.
        let answer = AnswerGraph::new(
            vec![VId(10), VId(11), VId(12), VId(13)],
            vec![(VId(10), VId(11)), (VId(11), VId(12)), (VId(11), VId(13))],
            vec![vec![VId(12)], vec![VId(13)]], // keywords: Eastern, Org
            Some(VId(10)),
            3,
        );
        // Candidate sets per generalized vertex (positions follow sorted
        // vertices [10, 11, 12, 13]).
        let spec = SpecializedAnswer {
            candidates: vec![
                vec![VId(0)],                 // Academics
                vec![VId(1), VId(2), VId(3)], // Univ
                vec![VId(4), VId(5)],         // Eastern
                vec![VId(6)],                 // Organization
            ],
            key_of: vec![None, None, Some(0), Some(1)],
            pruned: 0,
        };
        Scenario { base, answer, spec }
    }

    #[test]
    fn example_4_1_generation() {
        let s = scenario();
        let (answers, _) = vertex_answer_generation(&s.base, &s.answer, &s.spec, true, usize::MAX);
        // Only Harvard satisfies all three edges (Idreos->U, U->Eastern,
        // U->Org): {Idreos, Harvard, Massachusetts, IvyLeague}.
        assert_eq!(answers.len(), 1);
        let a = &answers[0];
        assert_eq!(a.vertices, vec![VId(0), VId(1), VId(4), VId(6)]);
        assert_eq!(a.root, Some(VId(0)));
        assert_eq!(a.keyword_matches[0], vec![VId(4)]);
        assert_eq!(a.keyword_matches[1], vec![VId(6)]);
        assert!(a.validate(&s.base, &[LabelId(2), LabelId(3)]));
    }

    #[test]
    fn spec_order_reduces_partials() {
        // Example 4.2's point: starting from the widest candidate set
        // (Univ) creates more partials than starting from the most
        // selective. Give Univ the smallest generalized id so natural
        // order starts with it, then compare with the ordered run.
        let s = scenario();
        let answer = AnswerGraph::new(
            vec![VId(10), VId(11), VId(12), VId(13)], // 10=Univ, 11=Academics
            vec![(VId(11), VId(10)), (VId(10), VId(12)), (VId(10), VId(13))],
            vec![vec![VId(12)], vec![VId(13)]],
            Some(VId(11)),
            3,
        );
        let spec = SpecializedAnswer {
            candidates: vec![
                vec![VId(1), VId(2), VId(3)], // Univ: widest
                vec![VId(0)],                 // Academics
                vec![VId(4), VId(5)],         // Eastern
                vec![VId(6)],                 // Organization
            ],
            key_of: vec![None, None, Some(0), Some(1)],
            pruned: 0,
        };
        let (a_ord, with_order) =
            vertex_answer_generation(&s.base, &answer, &spec, true, usize::MAX);
        let (a_nat, without) = vertex_answer_generation(&s.base, &answer, &spec, false, usize::MAX);
        assert!(
            with_order.partials_created <= without.partials_created,
            "ordered {} vs natural {}",
            with_order.partials_created,
            without.partials_created
        );
        assert_eq!(with_order.answers, without.answers);
        assert_eq!(a_ord.len(), a_nat.len());
    }

    #[test]
    fn order_does_not_change_answers() {
        let s = scenario();
        let (a, _) = vertex_answer_generation(&s.base, &s.answer, &s.spec, true, usize::MAX);
        let (b, _) = vertex_answer_generation(&s.base, &s.answer, &s.spec, false, usize::MAX);
        let mut ia: Vec<_> = a.iter().map(bgi_search::AnswerGraph::identity).collect();
        let mut ib: Vec<_> = b.iter().map(bgi_search::AnswerGraph::identity).collect();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib);
    }

    #[test]
    fn limit_truncates_enumeration() {
        // Make all three universities valid by dropping the Eastern and
        // root constraints: answer = single Univ vertex.
        let s = scenario();
        let answer = AnswerGraph::new(vec![VId(11)], vec![], vec![vec![VId(11)]], None, 0);
        let spec = SpecializedAnswer {
            candidates: vec![vec![VId(1), VId(2), VId(3)]],
            key_of: vec![Some(0)],
            pruned: 0,
        };
        let (all, _) = vertex_answer_generation(&s.base, &answer, &spec, true, usize::MAX);
        assert_eq!(all.len(), 3);
        let (two, _) = vertex_answer_generation(&s.base, &answer, &spec, true, 2);
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn unrealizable_edge_yields_nothing() {
        let s = scenario();
        // Force the Univ candidate to Columbia only: Columbia has no edge
        // to IvyLeague.
        let spec = SpecializedAnswer {
            candidates: vec![
                vec![VId(0)],
                vec![VId(3)],
                vec![VId(4), VId(5)],
                vec![VId(6)],
            ],
            key_of: s.spec.key_of.clone(),
            pruned: 0,
        };
        let (answers, _) = vertex_answer_generation(&s.base, &s.answer, &spec, true, usize::MAX);
        assert!(answers.is_empty());
    }

    #[test]
    fn empty_answer_graph() {
        let s = scenario();
        let answer = AnswerGraph::new(vec![], vec![], vec![], None, 0);
        let spec = SpecializedAnswer {
            candidates: vec![],
            key_of: vec![],
            pruned: 0,
        };
        let (answers, _) = vertex_answer_generation(&s.base, &answer, &spec, true, usize::MAX);
        assert!(answers.is_empty());
    }
}
