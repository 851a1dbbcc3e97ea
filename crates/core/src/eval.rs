//! `eval_Ont` (Algo. 2): hierarchical query processing.
//!
//! 1. generalize the query to the chosen layer `m`;
//! 2. evaluate the plugged-in algorithm `f` on `Gᵐ`;
//! 3. specialize each generalized answer down the hierarchy with
//!    candidate filtering ([`crate::spec`]);
//! 4. materialize final answers at layer 0 — structurally, vertex at a
//!    time (Algo. 3); a plug-in whose answers are constrained only by
//!    keyword distances ([`KeywordSearch::distance_bound`], the r-clique
//!    semantics) falls back per answer to re-verifying pairwise
//!    distances within that bound when its witness paths do not
//!    realize;
//! 5. rank and truncate to `k`.
//!
//! Every step is timed separately so the query-performance breakdown of
//! Figs. 10–14 (summary-graph exploration vs. pruning vs. answer
//! generation) can be reproduced.
//!
//! ## Correctness contract
//!
//! Final answers are always *sound*: they satisfy the original query
//! semantics on `G⁰` (realized edges exist; keyword labels match
//! exactly). They are *complete* (Thm. 4.2, `eval_Ont = eval`) whenever
//! the query keywords generalize injectively at the chosen layer — i.e.
//! no *other* label shares a keyword's generalized image — which is
//! exactly the situation the distortion term of the cost model steers
//! construction toward. With distorted keywords the pipeline can prune
//! roots whose only realizations end at wrong-label nodes, as the
//! paper's candidate filtering does; the integration tests pin down both
//! regimes.

use crate::ans_gen::{vertex_answer_generation, GenStats};
use crate::index::BiGIndex;
use crate::query_gen::{generalize_query, optimal_layer};
use crate::spec::{specialize_answer, SpecializedAnswer};
use bgi_graph::{DiGraph, VId};
use bgi_search::answer::rank_and_truncate;
use bgi_search::rclique::{clique_answer, undirected_distances};
use bgi_search::{AnswerGraph, Budget, Completeness, Interrupted, KeywordQuery, KeywordSearch};
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// How final answers are materialized from specialized candidates.
///
/// Serving always uses the default, the one structural realizer;
/// [`RealizerKind::DistanceVerify`] is the experiment and golden-test
/// reference for clique semantics. Whether a distance re-check backs up
/// the structural realizer is the plug-in's declaration
/// ([`KeywordSearch::distance_bound`]), not a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RealizerKind {
    /// Algo. 3: vertex-at-a-time structural realization (the default).
    #[default]
    VertexAtATime,
    /// Keyword-nodes-only specialization with pairwise bounded-distance
    /// verification on `G⁰` only, no structural attempt — for distance
    /// semantics (r-clique). The bound is the plug-in's
    /// [`KeywordSearch::distance_bound`], `d_max` if it declares none.
    DistanceVerify,
}

/// What an experiment varies in `eval_Ont`; serving evaluates with
/// [`EvalOptions::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// `β` of the query-generalization cost model (Formula 4).
    pub beta: f64,
    /// Materialization strategy.
    pub realizer: RealizerKind,
    /// Use the specialization-order optimization (Sec. 4.3.2).
    pub use_spec_order: bool,
    /// Use early keyword specialization / `isKey` pruning (Sec. 4.3.1).
    pub early_keyword_spec: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            beta: 0.4,
            realizer: RealizerKind::VertexAtATime,
            use_spec_order: true,
            early_keyword_spec: true,
        }
    }
}

/// When fewer than `k` final answers survive pruning, refetch
/// `OVERFETCH ×` more generalized answers and retry (until the
/// generalized answer stream is exhausted or three rounds ran).
const OVERFETCH: usize = 4;

/// Op allowance for the post-exhaustion wrap-up slice: when the summary
/// search comes back best-effort (its budget ran out), the already-found
/// generalized answers are still specialized and realized under
/// [`Budget::grace`] with this many checks, so a deadline never discards
/// work the summary layer already paid for.
const GRACE_OPS: u64 = 200_000;

/// Wall-clock breakdown of one `eval_Ont` run (Figs. 10–14).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Evaluating `f` on the summary graph.
    pub search: Duration,
    /// Specializing and pruning candidates down the hierarchy.
    pub spec_prune: Duration,
    /// Final answer generation at the data-graph layer.
    pub answer_gen: Duration,
}

impl StepTimings {
    /// Total time across all steps.
    pub fn total(&self) -> Duration {
        self.search + self.spec_prune + self.answer_gen
    }

    /// Accumulates another run's times (used when a failed summary-layer
    /// attempt falls back to the data graph: the wasted work is charged
    /// to the final result).
    pub fn absorb(&mut self, other: &StepTimings) {
        self.search += other.search;
        self.spec_prune += other.spec_prune;
        self.answer_gen += other.answer_gen;
    }
}

/// Counters from one `eval_Ont` run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Generalized answers returned by `f` at layer `m`.
    pub generalized_answers: usize,
    /// Generalized answers discarded entirely during specialization.
    pub answers_pruned: usize,
    /// Candidate vertices pruned by Prop. 4.1 filtering.
    pub vertices_pruned: usize,
    /// Partial answers created during generation.
    pub partials_created: usize,
}

/// The outcome of one `eval_Ont` run.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Final answers, ranked best-first.
    pub answers: Vec<AnswerGraph>,
    /// The layer the query was evaluated at.
    pub layer: usize,
    /// Per-step wall-clock times.
    pub timings: StepTimings,
    /// Candidate/pruning counters.
    pub stats: EvalStats,
    /// True if a summary-layer attempt produced nothing and the query
    /// was re-evaluated on the data graph (see [`eval_query`]).
    pub fell_back: bool,
    /// Whether the run finished exactly or returned best-effort answers
    /// after its budget ran out (see [`Completeness`]).
    pub completeness: Completeness,
}

/// Runs `eval_Ont` at an explicit layer `m` (Algo. 2 with `m` given)
/// under a cooperative [`Budget`]: every pipeline step (plugged-in
/// search, specialization, answer generation, distance verification)
/// checks the budget inside its loops. The pipeline is *anytime*: on
/// budget exhaustion the run returns whatever final answers it has,
/// marked with a non-exact [`Completeness`], instead of discarding
/// them; the strict all-or-nothing view is
/// `result.completeness.is_exact()`.
///
/// * `m == 0` — the plugged-in algorithm's own anytime search runs and
///   its completeness (including the r-clique optimality bound) passes
///   straight through.
/// * `m > 0` — the summary-layer search runs anytime; if it was cut
///   short, its best-effort generalized answers are still specialized
///   and realized under a [`Budget::grace`] slice of
///   [`GRACE_OPS`] checks, and the result is marked
///   [`Completeness::Truncated`] (a summary-layer bound does not
///   translate through specialization). An interruption during
///   specialization or realization likewise keeps the finals produced so
///   far. The overfetch loop only runs while everything is exact.
///
/// `Err(Interrupted)` means the budget ran out before *any* final
/// answer was produced.
#[allow(clippy::too_many_arguments)]
pub fn eval_at_layer<F: KeywordSearch>(
    index: &BiGIndex,
    algo: &F,
    layer_index: &F::Index,
    query: &KeywordQuery,
    k: usize,
    m: usize,
    opts: &EvalOptions,
    budget: &Budget,
) -> Result<EvalResult, Interrupted> {
    let mut timings = StepTimings::default();
    let mut stats = EvalStats::default();

    // Step 1: evaluate f on the summary graph with the generalized query.
    let gq = generalize_query(index, query, m);
    // Def. 4.1 condition 1: a layer where two keywords generalize to one
    // label cannot evaluate the query without modifying f; the layer
    // chooser never selects such a layer, and calling this directly with
    // one is a contract violation.
    assert!(
        gq.len() == query.len(),
        "query keywords merge at layer {m}; pick a layer where \
         |Gen^m(Q)| = |Q| (Def. 4.1) or use Boosted::query"
    );

    if m == 0 {
        // Evaluating on the data graph *is* the baseline; no translation
        // and no overfetch — the algorithm's completeness is the run's.
        let t = Instant::now();
        let outcome = algo.search_anytime(index.graph_at(0), layer_index, &gq, k, budget)?;
        timings.search = t.elapsed();
        stats.generalized_answers = outcome.answers.len();
        return Ok(EvalResult {
            answers: rank_and_truncate(outcome.answers, k),
            layer: 0,
            timings,
            stats,
            fell_back: false,
            completeness: outcome.completeness,
        });
    }

    // Fetch k generalized answers first; if pruning leaves fewer than k
    // final answers, refetch a growing multiple (the paper's Sec. 4.3.4
    // specializes one generalized answer at a time until k finals — the
    // refetch loop is the batched equivalent for a top-k `f`).
    let mut fetch = k;
    let mut rounds = 0usize;
    let mut finals: Vec<AnswerGraph> = Vec::new();
    let mut truncated = false;
    // Distance cache for distance verification: bounded undirected
    // BFS balls on G⁰, shared across every generalized answer (and
    // refetch round) of this evaluation — hub balls are expensive and
    // heavily reused.
    let mut dist_cache: DistCache = FxHashMap::default();
    loop {
        rounds += 1;
        let t = Instant::now();
        let summary = algo.search_anytime(index.graph_at(m), layer_index, &gq, fetch, budget)?;
        timings.search += t.elapsed();
        let generalized = summary.answers;
        stats.generalized_answers = generalized.len();
        let exhausted = generalized.len() < fetch;

        // When the summary search came back best-effort, its budget is
        // spent: walk the answers it found down the hierarchy under a
        // bounded grace slice so the paid-for summary work still yields
        // data-graph answers.
        let grace;
        let step_budget: &Budget = if summary.completeness.is_exact() {
            budget
        } else {
            truncated = true;
            grace = budget.grace(GRACE_OPS);
            &grace
        };

        // Steps 2-5: specialize in rank order, realize, stop at k answers.
        finals.clear();
        stats.answers_pruned = 0;
        stats.vertices_pruned = 0;
        stats.partials_created = 0;
        for ga in &generalized {
            let t = Instant::now();
            let spec = specialize_answer(index, query, ga, m, opts.early_keyword_spec, step_budget);
            timings.spec_prune += t.elapsed();
            let spec = match spec {
                Ok(s) => s,
                Err(Interrupted) => {
                    truncated = true;
                    break;
                }
            };
            let Some(spec) = spec else {
                stats.answers_pruned += 1;
                continue;
            };
            stats.vertices_pruned += spec.pruned;

            let remaining = k.saturating_sub(finals.len()).max(1);
            let t = Instant::now();
            let realized = realize_one(
                index,
                algo,
                query,
                ga,
                &spec,
                remaining,
                opts,
                &mut dist_cache,
                step_budget,
            );
            timings.answer_gen += t.elapsed();
            let (realized, gen_stats) = match realized {
                Ok(r) => r,
                Err(Interrupted) => {
                    truncated = true;
                    break;
                }
            };
            stats.partials_created += gen_stats.partials_created;
            finals.extend(realized);
            if finals.len() >= k {
                break;
            }
        }
        // Cap the refetch rounds: re-running f is the batched stand-in
        // for the paper's one-at-a-time specialization, and unbounded
        // growth on heavily distorted layers would dwarf the baseline.
        // A truncated round never refetches: the budget is already gone.
        if truncated || finals.len() >= k || exhausted || rounds >= 3 {
            break;
        }
        fetch = fetch.saturating_mul(OVERFETCH);
    }

    if truncated && finals.is_empty() {
        return Err(Interrupted);
    }
    Ok(EvalResult {
        answers: rank_and_truncate(finals, k),
        layer: m,
        timings,
        stats,
        fell_back: false,
        completeness: if truncated {
            Completeness::Truncated
        } else {
            Completeness::Exact
        },
    })
}

/// Materializes one specialized generalized answer (Step 4) with the
/// realizer `opts` names. When `algo` bounds its answers by keyword
/// distances alone ([`KeywordSearch::distance_bound`]) and the
/// structural realizer finds nothing — clique witness paths are often
/// not edge-realizable even though the keyword nodes qualify — the
/// answer falls back to distance verification within that bound
/// instead of being dropped (boost-dkws, Sec. 5.2).
#[allow(clippy::too_many_arguments)]
fn realize_one<F: KeywordSearch>(
    index: &BiGIndex,
    algo: &F,
    query: &KeywordQuery,
    ga: &AnswerGraph,
    spec: &SpecializedAnswer,
    remaining: usize,
    opts: &EvalOptions,
    dist_cache: &mut DistCache,
    budget: &Budget,
) -> Result<(Vec<AnswerGraph>, GenStats), Interrupted> {
    let base = index.base();
    let bound = algo.distance_bound(query);
    let (structural, st) = match opts.realizer {
        RealizerKind::VertexAtATime => {
            vertex_answer_generation(base, ga, spec, opts.use_spec_order, remaining, budget)?
        }
        RealizerKind::DistanceVerify => {
            let bound = bound.unwrap_or(query.dmax);
            return distance_verify(base, query, bound, spec, remaining, dist_cache, budget);
        }
    };
    let Some(bound) = bound.filter(|_| structural.is_empty()) else {
        return Ok((structural, st));
    };
    let (verified, vt) = distance_verify(base, query, bound, spec, remaining, dist_cache, budget)?;
    Ok((
        verified,
        GenStats {
            partials_created: st.partials_created + vt.partials_created,
            answers: vt.answers,
        },
    ))
}

/// The full Algo. 2 for one query: at `layer` if one is given (Fig. 19's
/// sweep — the caller vouches that it keeps the keywords distinct),
/// otherwise at the cost-optimal layer (Def. 4.1) with the empty-answer
/// fallback.
///
/// If the *chosen* layer's evaluation ran to completion and realized no
/// final answer — heavy distortion can prune every candidate (see the
/// correctness contract above) — the query is re-evaluated on the data
/// graph so no baseline-findable answer is ever lost; the wasted
/// summary work is charged to the returned timings and
/// [`EvalResult::fell_back`] is set. An explicit layer never falls
/// back (a sweep wants the layer it asked for), and neither does a
/// best-effort attempt: its budget is spent, and best-effort answers
/// beat an empty retry.
#[allow(clippy::too_many_arguments)]
pub fn eval_query<F: KeywordSearch>(
    index: &BiGIndex,
    algo: &F,
    layer_indexes: &[F::Index],
    query: &KeywordQuery,
    k: usize,
    layer: Option<usize>,
    opts: &EvalOptions,
    budget: &Budget,
) -> Result<EvalResult, Interrupted> {
    let m = layer.unwrap_or_else(|| optimal_layer(index, query, opts.beta));
    let attempt = eval_at_layer(index, algo, &layer_indexes[m], query, k, m, opts, budget)?;
    if layer.is_some() || m == 0 || !attempt.answers.is_empty() || !attempt.completeness.is_exact()
    {
        return Ok(attempt);
    }
    let mut fallback = eval_at_layer(index, algo, &layer_indexes[0], query, k, 0, opts, budget)?;
    fallback.timings.absorb(&attempt.timings);
    fallback.fell_back = true;
    Ok(fallback)
}

/// Memoized bounded undirected BFS balls, keyed by source vertex:
/// each row sorted by vertex id, read by binary search.
type DistCache = FxHashMap<VId, Vec<(VId, u32)>>;

/// The distance realizer for clique semantics: specialize keyword nodes
/// only, then verify all pairwise *undirected* distances on `G⁰` within
/// `bound`, scoring by the sum of pairwise distances (boost-dkws,
/// Sec. 5.2).
fn distance_verify(
    base: &DiGraph,
    query: &KeywordQuery,
    bound: u32,
    spec: &SpecializedAnswer,
    limit: usize,
    cache: &mut DistCache,
    budget: &Budget,
) -> Result<(Vec<AnswerGraph>, GenStats), Interrupted> {
    let mut stats = GenStats::default();
    let n = query.len();
    // Candidate sets per keyword: union over the generalized answer's
    // keyword vertices.
    let mut cands: Vec<Vec<VId>> = vec![Vec::new(); n];
    // budget-exempt: one pass over the answer's positions
    for (i, key) in spec.key_of.iter().enumerate() {
        if let Some(kw) = key {
            cands[*kw].extend_from_slice(&spec.candidates[i]);
        }
    }
    if cands.iter().any(Vec::is_empty) {
        return Ok((Vec::new(), stats));
    }
    // budget-exempt: |query| candidate lists
    for c in &mut cands {
        c.sort_unstable();
        c.dedup();
    }

    // Memoized bounded undirected distances (cache shared by the
    // caller across generalized answers).
    let mut dist = |u: VId, v: VId| -> Option<u32> {
        if u == v {
            return Some(0);
        }
        // One bounded BFS ball between `rec`'s polls.
        let row = cache
            .entry(u)
            .or_insert_with(|| undirected_distances(base, u, bound));
        row.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| row[i].1)
    };

    // Enumerate combinations depth-first with pairwise pruning; `weight`
    // is the sum of the pairwise distances among `picked`.
    let mut picked: Vec<VId> = Vec::with_capacity(n);
    let mut results: Vec<AnswerGraph> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn rec(
        base: &DiGraph,
        bound: u32,
        cands: &[Vec<VId>],
        picked: &mut Vec<VId>,
        weight: u64,
        dist: &mut dyn FnMut(VId, VId) -> Option<u32>,
        results: &mut Vec<AnswerGraph>,
        stats: &mut GenStats,
        limit: usize,
        budget: &Budget,
    ) -> Result<(), Interrupted> {
        if results.len() >= limit {
            return Ok(());
        }
        let depth = picked.len();
        if depth == cands.len() {
            results.push(clique_answer(base, bound, picked, weight));
            stats.answers += 1;
            return Ok(());
        }
        for &v in &cands[depth] {
            budget.check()?;
            let added: Option<u64> = picked.iter().map(|&u| dist(u, v).map(u64::from)).sum();
            if let Some(added) = added {
                picked.push(v);
                stats.partials_created += 1;
                rec(
                    base,
                    bound,
                    cands,
                    picked,
                    weight + added,
                    dist,
                    results,
                    stats,
                    limit,
                    budget,
                )?;
                picked.pop();
                if results.len() >= limit {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
    rec(
        base,
        bound,
        &cands,
        &mut picked,
        0,
        &mut dist,
        &mut results,
        &mut stats,
        limit,
        budget,
    )?;
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use bgi_bisim::BisimDirection;
    use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder};
    use bgi_search::{Banks, RClique};

    /// Labels: 0=Person, 1=Prof, 2=Student, 3=Univ. Profs and Students
    /// fan onto a Univ hub; ontology merges 1,2 -> 0.
    fn indexed() -> BiGIndex {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(3));
        for i in 0..12 {
            let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        let o = ob.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        BiGIndex::build_with_configs(g, o, vec![c], BisimDirection::Forward)
    }

    /// `super::eval_at_layer` with no budget.
    fn eval_at_layer<F: KeywordSearch>(
        index: &BiGIndex,
        algo: &F,
        layer_index: &F::Index,
        query: &KeywordQuery,
        k: usize,
        m: usize,
        opts: &EvalOptions,
    ) -> EvalResult {
        super::eval_at_layer(
            index,
            algo,
            layer_index,
            query,
            k,
            m,
            opts,
            &Budget::unlimited(),
        )
        .expect("an unlimited budget never interrupts")
    }

    #[test]
    fn boosted_banks_matches_baseline() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let baseline = Banks.search_fresh(idx.base(), &q, 1000);
        let result = eval_at_layer(&idx, &Banks, &(), &q, 1000, 1, &EvalOptions::default());
        let key = |a: &AnswerGraph| (a.root, a.score);
        let mut b: Vec<_> = baseline.iter().map(key).collect();
        let mut o: Vec<_> = result.answers.iter().map(key).collect();
        b.sort_unstable();
        o.sort_unstable();
        assert_eq!(b, o);
        assert!(result
            .answers
            .iter()
            .all(|a| a.validate(idx.base(), &q.keywords)));
    }

    #[test]
    fn top_k_early_termination() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let r = eval_at_layer(&idx, &Banks, &(), &q, 2, 1, &EvalOptions::default());
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn layer0_is_plain_baseline() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let r = eval_at_layer(&idx, &Banks, &(), &q, 5, 0, &EvalOptions::default());
        assert_eq!(r.layer, 0);
        assert_eq!(r.answers.len(), 5);
        assert!(r.timings.spec_prune.is_zero());
    }

    #[test]
    fn distance_realizer_matches_rclique_baseline() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 4);
        let rc = RClique::default();
        let baseline = rc.search_fresh(idx.base(), &q, 1000);
        let layer_index = rc.build_index(idx.graph_at(1));
        let opts = EvalOptions {
            realizer: RealizerKind::DistanceVerify,
            ..EvalOptions::default()
        };
        let r = eval_at_layer(&idx, &rc, &layer_index, &q, 1000, 1, &opts);
        // Same keyword-node sets and weights.
        let key = |a: &AnswerGraph| {
            let mut kw: Vec<VId> = a.keyword_matches.iter().map(|m| m[0]).collect();
            kw.sort_unstable();
            (kw, a.score)
        };
        let mut b: Vec<_> = baseline.iter().map(key).collect();
        let mut o: Vec<_> = r.answers.iter().map(key).collect();
        b.sort();
        o.sort();
        assert_eq!(b, o);
    }

    /// A Prof 3 hops from one Univ and 5 from another, which is bisimilar
    /// to the first: on the summary layer both Univs are one vertex, 3
    /// hops from the Prof. Labels: 0=Person, 1=Prof, 3=Univ, 4=Mid,
    /// 5=Other; the ontology lifts Prof to Person.
    ///
    /// `p -> a1 -> a2 -> near`, and `far <- c4 <- c3 <- c2 <- c1 -> p`.
    fn univ_beyond_radius() -> (BiGIndex, [VId; 3]) {
        let mut gb = GraphBuilder::new();
        let p = gb.add_vertex(LabelId(1));
        let near = gb.add_vertex(LabelId(3));
        let far = gb.add_vertex(LabelId(3));
        let a = [gb.add_vertex(LabelId(4)), gb.add_vertex(LabelId(4))];
        let c: Vec<VId> = (0..4).map(|_| gb.add_vertex(LabelId(5))).collect();
        for (u, v) in [(p, a[0]), (a[0], a[1]), (a[1], near), (c[0], p)] {
            gb.add_edge(u, v);
        }
        for w in c.windows(2) {
            gb.add_edge(w[0], w[1]);
        }
        gb.add_edge(c[3], far);
        let g = gb.build();
        let mut ob = OntologyBuilder::new(6);
        ob.add_subtype(LabelId(0), LabelId(1));
        let o = ob.build().unwrap();
        let cfg = GenConfig::new([(LabelId(1), LabelId(0))], &o).unwrap();
        let idx = BiGIndex::build_with_configs(g, o, vec![cfg], BisimDirection::Forward);
        (idx, [p, near, far])
    }

    /// r-clique bounds every keyword pair by `min(d_max, radius)`; a
    /// boosted dkws query with `d_max` above the radius must verify at
    /// that bound too, or it returns a clique the baseline cannot.
    #[test]
    fn distance_realizer_verifies_at_the_plug_in_radius() {
        let (idx, [p, near, far]) = univ_beyond_radius();
        let ball = undirected_distances(idx.base(), p, 5);
        assert!(ball.contains(&(near, 3)) && ball.contains(&(far, 5)));
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 5);
        let rc = RClique { radius: 4 };
        let baseline = rc.search_fresh(idx.base(), &q, 10);
        let opts = EvalOptions {
            realizer: RealizerKind::DistanceVerify,
            ..EvalOptions::default()
        };
        let r = eval_at_layer(
            &idx,
            &rc,
            &rc.build_index(idx.graph_at(1)),
            &q,
            10,
            1,
            &opts,
        );
        let keyword_nodes = |answers: &[AnswerGraph]| {
            let kw = answers.iter().map(|a| (a.keyword_matches.clone(), a.score));
            kw.collect::<Vec<_>>()
        };
        assert_eq!(
            keyword_nodes(&baseline),
            vec![(vec![vec![p], vec![near]], 3)]
        );
        assert_eq!(keyword_nodes(&r.answers), keyword_nodes(&baseline));
    }

    #[test]
    fn eval_query_picks_valid_layer() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let r = eval_query(
            &idx,
            &Banks,
            &[(), ()],
            &q,
            5,
            None,
            &EvalOptions::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.layer <= idx.num_layers());
        assert!(!r.answers.is_empty());
    }

    #[test]
    fn zero_budget_interrupts_pipeline() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let expired = Budget::with_timeout(Duration::ZERO);
        let r = super::eval_at_layer(
            &idx,
            &Banks,
            &(),
            &q,
            10,
            1,
            &EvalOptions::default(),
            &expired,
        );
        assert!(
            !r.is_ok_and(|r| r.completeness.is_exact()),
            "an expired budget must interrupt Algo. 2"
        );
        // The same call with an unlimited budget succeeds, exactly.
        let ok = super::eval_at_layer(
            &idx,
            &Banks,
            &(),
            &q,
            10,
            1,
            &EvalOptions::default(),
            &Budget::unlimited(),
        );
        assert!(ok.is_ok_and(|r| !r.answers.is_empty() && r.completeness.is_exact()));
    }

    #[test]
    fn anytime_eval_surfaces_best_effort_answers() {
        let idx = indexed();
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 4);
        let rc = RClique::default();
        let layer_index = rc.build_index(idx.graph_at(1));
        let opts = EvalOptions {
            realizer: RealizerKind::DistanceVerify,
            ..EvalOptions::default()
        };
        // A zero-check budget cannot produce an exact run, but the
        // pipeline still delivers: the greedy seed's own op slice finds
        // a generalized answer and the grace slice specializes it down
        // to the data graph.
        let spent = Budget::with_check_limit(0);
        let r = super::eval_at_layer(&idx, &rc, &layer_index, &q, 5, 1, &opts, &spent)
            .expect("best-effort answers survive a spent budget");
        assert!(!r.answers.is_empty());
        assert!(!r.completeness.is_exact());
        assert!(r
            .answers
            .iter()
            .all(|a| a.validate(idx.base(), &q.keywords)));
        // An unlimited run is exact.
        let r = eval_at_layer(&idx, &rc, &layer_index, &q, 5, 1, &opts);
        assert_eq!(r.completeness, Completeness::Exact);
    }

    #[test]
    fn pruning_stats_recorded() {
        let idx = indexed();
        // Query Prof: the Person supernode's Students get pruned.
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let r = eval_at_layer(&idx, &Banks, &(), &q, 1000, 1, &EvalOptions::default());
        assert!(r.stats.generalized_answers > 0);
        assert!(r.stats.vertices_pruned > 0);
    }
}
