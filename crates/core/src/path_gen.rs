//! Algo. 4: path-based answer graph generation (`p_ans_graph_gen`,
//! Sec. 4.3.3).
//!
//! The generalized answer graph is decomposed into a canonical path set
//! at its *joint vertices* (vertices of degree > 2). Each path is
//! specialized as a unit — avoiding the duplicated per-vertex checks of
//! Algo. 3 — and the answer graphs are reassembled by joining paths on
//! their shared joint vertices (path qualification, Def. 4.3: two paths
//! join only if they agree on the concrete value of every shared joint).

use crate::ans_gen::GenStats;
use crate::spec::SpecializedAnswer;
use bgi_graph::{DiGraph, VId};
use bgi_search::{AnswerGraph, Budget, Interrupted};
use std::ops::ControlFlow;

/// A decomposed path: positions (indices into the answer's vertex list)
/// plus the orientation of each step (`true` = edge follows path
/// direction `p[i] -> p[i+1]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenPath {
    /// Vertex positions along the path.
    pub positions: Vec<usize>,
    /// `forward[i]` orients the generalized edge between `positions[i]`
    /// and `positions[i+1]`.
    pub forward: Vec<bool>,
}

/// Decomposes the generalized answer graph into paths at joint vertices
/// (`answer_decomposition` of Algo. 4). Isolated vertices come back as
/// single-position paths so every position is covered.
pub fn answer_decomposition(answer: &AnswerGraph) -> Vec<GenPath> {
    let n = answer.vertices.len();
    let pos_of = |v: VId| answer.vertices.binary_search(&v).expect("answer vertex");
    // Undirected incidence: per position, (edge index, is_source).
    let mut incident: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for (e, &(u, v)) in answer.edges.iter().enumerate() {
        incident[pos_of(u)].push((e, true));
        incident[pos_of(v)].push((e, false));
    }
    // Break vertices: joints (degree > 2) and endpoints (degree != 2).
    let is_break = |p: usize| incident[p].len() != 2;
    let mut edge_used = vec![false; answer.edges.len()];
    let mut paths = Vec::new();

    let walk = |start: usize,
                first: (usize, bool),
                edge_used: &mut Vec<bool>,
                incident: &[Vec<(usize, bool)>]|
     -> GenPath {
        let mut positions = vec![start];
        let mut forward = Vec::new();
        let (mut e, mut from_source) = first;
        loop {
            edge_used[e] = true;
            let (u, v) = answer.edges[e];
            let (pu, pv) = (pos_of(u), pos_of(v));
            let next = if from_source { pv } else { pu };
            forward.push(from_source);
            positions.push(next);
            if is_break(next) {
                break;
            }
            // Continue through the degree-2 vertex on its other edge.
            let cont = incident[next]
                .iter()
                .copied()
                .find(|&(e2, _)| !edge_used[e2]);
            match cont {
                Some((e2, fs2)) => {
                    e = e2;
                    from_source = fs2;
                }
                None => break, // closed a cycle
            }
        }
        GenPath { positions, forward }
    };

    // Start from break vertices.
    for p in 0..n {
        if !is_break(p) {
            continue;
        }
        // Copy incident list to appease the borrow checker.
        let edges_here: Vec<(usize, bool)> = incident[p].clone();
        for (e, fs) in edges_here {
            if !edge_used[e] {
                paths.push(walk(p, (e, fs), &mut edge_used, &incident));
            }
        }
    }
    // Remaining unused edges belong to pure cycles of degree-2 vertices.
    for e in 0..answer.edges.len() {
        if !edge_used[e] {
            let start = pos_of(answer.edges[e].0);
            paths.push(walk(start, (e, true), &mut edge_used, &incident));
        }
    }
    // Isolated vertices (degree 0) as trivial paths.
    for (p, inc) in incident.iter().enumerate() {
        if inc.is_empty() {
            paths.push(GenPath {
                positions: vec![p],
                forward: vec![],
            });
        }
    }
    paths
}

/// Enumerates the concrete realizations of one path against the base
/// graph (the `ans_graph_gen(pᵢ, A¹)` step of Algo. 4), checking
/// `budget` once per partial path grown.
pub fn specialize_path(
    base: &DiGraph,
    spec: &SpecializedAnswer,
    path: &GenPath,
    budget: &Budget,
) -> Result<Vec<Vec<VId>>, Interrupted> {
    let mut partial: Vec<Vec<VId>> = spec.candidates[path.positions[0]]
        .iter()
        .map(|&v| vec![v])
        .collect();
    for (i, &fwd) in path.forward.iter().enumerate() {
        let next_pos = path.positions[i + 1];
        let mut grown = Vec::new();
        for p in &partial {
            budget.check()?;
            let last = *p.last().unwrap();
            for &c in &spec.candidates[next_pos] {
                let ok = if fwd {
                    base.has_edge(last, c)
                } else {
                    base.has_edge(c, last)
                };
                // A path may revisit a position only in cycles; concrete
                // vertices must then agree (handled by the join step for
                // shared joints; inside one path positions are distinct
                // except a possible cycle closure).
                if ok {
                    let mut q = p.clone();
                    q.push(c);
                    grown.push(q);
                }
            }
        }
        partial = grown;
        if partial.is_empty() {
            break;
        }
    }
    // Cycle closure: first and last positions equal -> concrete values
    // must match.
    if path.positions.len() > 1 && path.positions[0] == *path.positions.last().unwrap() {
        partial.retain(|p| p[0] == *p.last().unwrap());
    }
    Ok(partial)
}

/// Full Algo. 4: decompose, specialize each path, and join on shared
/// joint vertices (Def. 4.3). Returns the first `limit` realized answers
/// and generation statistics comparable to Algo. 3's. `budget` is
/// checked inside the per-path specialization and the join.
///
/// The join is depth-first over the paths, most selective first, and
/// each path's realizations in order: answers come out in the
/// lexicographic order of their realization indices, and the join stops
/// at the `limit`-th, so it builds no partial answer past it.
pub fn path_answer_generation(
    base: &DiGraph,
    answer: &AnswerGraph,
    spec: &SpecializedAnswer,
    limit: usize,
    budget: &Budget,
) -> Result<(Vec<AnswerGraph>, GenStats), Interrupted> {
    let n = answer.vertices.len();
    let stats = GenStats::default();
    if n == 0 || limit == 0 {
        return Ok((Vec::new(), stats));
    }
    let paths = answer_decomposition(answer);
    // Specialize every path, then join the most selective first.
    let mut realized: Vec<(GenPath, Vec<Vec<VId>>)> = Vec::with_capacity(paths.len());
    for p in paths {
        let r = specialize_path(base, spec, &p, budget)?;
        realized.push((p, r));
    }
    if realized.iter().any(|(_, r)| r.is_empty()) {
        return Ok((Vec::new(), stats));
    }
    realized.sort_by_key(|(_, r)| r.len());

    let mut join = Join {
        answer,
        spec,
        limit,
        budget,
        assignment: vec![None; n],
        answers: Vec::new(),
        stats,
    };
    // A break only says `limit` answers are out.
    let _ = join.extend(&realized)?;
    Ok((join.answers, join.stats))
}

/// The depth-first join's state: the partial answer being extended,
/// position by position, and the answers emitted so far.
struct Join<'a> {
    answer: &'a AnswerGraph,
    spec: &'a SpecializedAnswer,
    limit: usize,
    budget: &'a Budget,
    assignment: Vec<Option<VId>>,
    answers: Vec<AnswerGraph>,
    stats: GenStats,
}

impl Join<'_> {
    /// Joins every qualifying realization of `paths[0]` onto the
    /// assignment and recurses on the rest; with no path left, emits the
    /// assignment. Breaks once `limit` answers are out.
    fn extend(
        &mut self,
        paths: &[(GenPath, Vec<Vec<VId>>)],
    ) -> Result<ControlFlow<()>, Interrupted> {
        let Some(((path, realizations), rest)) = paths.split_first() else {
            return self.emit();
        };
        let mut fresh = Vec::with_capacity(path.positions.len());
        for r in realizations {
            self.budget.check()?;
            // Path qualification (Def. 4.3): every position shared with
            // the partial must agree.
            let agrees = (path.positions.iter().zip(r))
                .all(|(&pos, &v)| self.assignment[pos].is_none_or(|u| u == v));
            if !agrees {
                continue;
            }
            for (&pos, &v) in path.positions.iter().zip(r) {
                if self.assignment[pos].is_none() {
                    fresh.push(pos);
                }
                self.assignment[pos] = Some(v);
            }
            self.stats.partials_created += 1;
            let flow = self.extend(rest);
            for pos in fresh.drain(..) {
                self.assignment[pos] = None;
            }
            if flow?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    fn emit(&mut self) -> Result<ControlFlow<()>, Interrupted> {
        self.budget.check()?;
        if self.assignment.iter().any(Option::is_none) {
            // Uncovered positions (cannot happen post-decomposition).
            return Ok(ControlFlow::Continue(()));
        }
        (self.answers).push(crate::ans_gen::materialize_assignment(
            self.answer,
            self.spec,
            &self.assignment,
        ));
        self.stats.answers += 1;
        Ok(if self.answers.len() >= self.limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ans_gen::vertex_answer_generation;
    use bgi_graph::{GraphBuilder, LabelId};

    /// The Example 4.3 scenario (same base as ans_gen's tests).
    struct Scenario {
        base: DiGraph,
        answer: AnswerGraph,
        spec: SpecializedAnswer,
    }

    fn scenario() -> Scenario {
        let mut b = GraphBuilder::new();
        for l in [0u32, 1, 1, 1, 2, 2, 3] {
            b.add_vertex(LabelId(l));
        }
        b.add_edge(VId(0), VId(1));
        b.add_edge(VId(1), VId(4));
        b.add_edge(VId(2), VId(5));
        b.add_edge(VId(3), VId(5));
        b.add_edge(VId(1), VId(6));
        b.add_edge(VId(2), VId(6));
        let base = b.build();
        let answer = AnswerGraph::new(
            vec![VId(10), VId(11), VId(12), VId(13)],
            vec![(VId(10), VId(11)), (VId(11), VId(12)), (VId(11), VId(13))],
            vec![vec![VId(12)], vec![VId(13)]],
            Some(VId(10)),
            3,
        );
        let spec = SpecializedAnswer {
            candidates: vec![
                vec![VId(0)],
                vec![VId(1), VId(2), VId(3)],
                vec![VId(4), VId(5)],
                vec![VId(6)],
            ],
            key_of: vec![None, None, Some(0), Some(1)],
            pruned: 0,
        };
        Scenario { base, answer, spec }
    }

    #[test]
    fn decomposition_splits_at_joint() {
        let s = scenario();
        let paths = answer_decomposition(&s.answer);
        // Univ (position 1) has degree 3 -> three length-1 paths.
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(p.positions.len(), 2);
            assert!(p.positions.contains(&1), "every path touches the joint");
        }
    }

    #[test]
    fn path_specialization_example_4_3() {
        let s = scenario();
        let paths = answer_decomposition(&s.answer);
        // The Academics–Univ path realizes only as (Idreos, Harvard);
        // find it by its endpoint set.
        let p1 = paths
            .iter()
            .find(|p| p.positions.contains(&0))
            .expect("Academics path");
        let r = specialize_path(&s.base, &s.spec, p1, &Budget::unlimited()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains(&VId(0)) && r[0].contains(&VId(1)));
        // The Univ–Organization path realizes as Harvard–Ivy and
        // Cornell–Ivy.
        let p3 = paths
            .iter()
            .find(|p| p.positions.contains(&3))
            .expect("Organization path");
        let r3 = specialize_path(&s.base, &s.spec, p3, &Budget::unlimited()).unwrap();
        assert_eq!(r3.len(), 2);
    }

    #[test]
    fn join_agrees_with_vertex_generation() {
        let s = scenario();
        let (via_paths, _) = path_answer_generation(
            &s.base,
            &s.answer,
            &s.spec,
            usize::MAX,
            &Budget::unlimited(),
        )
        .unwrap();
        let (via_vertices, _) = vertex_answer_generation(
            &s.base,
            &s.answer,
            &s.spec,
            true,
            usize::MAX,
            &Budget::unlimited(),
        )
        .unwrap();
        let mut a: Vec<_> = via_paths
            .iter()
            .map(bgi_search::AnswerGraph::identity)
            .collect();
        let mut b: Vec<_> = via_vertices
            .iter()
            .map(bgi_search::AnswerGraph::identity)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(via_paths.len(), 1);
        assert_eq!(via_paths[0].vertices, vec![VId(0), VId(1), VId(4), VId(6)]);
    }

    #[test]
    fn isolated_vertex_answers() {
        let s = scenario();
        let answer = AnswerGraph::new(vec![VId(11)], vec![], vec![vec![VId(11)]], None, 0);
        let spec = SpecializedAnswer {
            candidates: vec![vec![VId(1), VId(2)]],
            key_of: vec![Some(0)],
            pruned: 0,
        };
        let (answers, _) =
            path_answer_generation(&s.base, &answer, &spec, usize::MAX, &Budget::unlimited())
                .unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn limit_respected() {
        let s = scenario();
        let answer = AnswerGraph::new(vec![VId(11)], vec![], vec![vec![VId(11)]], None, 0);
        let spec = SpecializedAnswer {
            candidates: vec![vec![VId(1), VId(2), VId(3)]],
            key_of: vec![Some(0)],
            pruned: 0,
        };
        let (answers, _) =
            path_answer_generation(&s.base, &answer, &spec, 1, &Budget::unlimited()).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn chain_answer_is_single_path() {
        // 20 -> 21 -> 22: no joints, one path of 3 positions.
        let answer = AnswerGraph::new(
            vec![VId(20), VId(21), VId(22)],
            vec![(VId(20), VId(21)), (VId(21), VId(22))],
            vec![vec![VId(22)]],
            Some(VId(20)),
            2,
        );
        let paths = answer_decomposition(&answer);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].positions.len(), 3);
    }

    #[test]
    fn cycle_decomposition_covers_all_edges() {
        // 30 -> 31 -> 32 -> 30: a pure cycle.
        let answer = AnswerGraph::new(
            vec![VId(30), VId(31), VId(32)],
            vec![(VId(30), VId(31)), (VId(31), VId(32)), (VId(32), VId(30))],
            vec![vec![VId(30)]],
            None,
            0,
        );
        let paths = answer_decomposition(&answer);
        let covered: usize = paths.iter().map(|p| p.forward.len()).sum();
        assert_eq!(covered, 3);
    }
}
