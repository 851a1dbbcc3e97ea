//! Property-based tests (proptest) for the core invariants:
//!
//! - summarization is label- and path-preserving (Defs. 2.1–2.2) and the
//!   refinement fixpoint is stable;
//! - `χ` / `Spec` are mutually inverse and partition the vertex set;
//! - Prop. 5.2: summary distances lower-bound data-graph distances;
//! - `eval_Ont` soundness: every boosted answer validates on `G⁰`;
//! - Algo. 3 equals a brute-force realization oracle: the cross
//!   product of the candidate sets, filtered by Def. 4.2.

use big_index_repro::bisim::properties::{
    has_no_phantom_edges, is_label_preserving, is_path_preserving, is_stable,
};
use big_index_repro::bisim::{maximal_bisimulation, summarize, BisimDirection};
use big_index_repro::graph::traversal::shortest_distance;
use big_index_repro::graph::{DiGraph, GraphBuilder, LabelId, Ontology, OntologyBuilder, VId};
use big_index_repro::index::ans_gen::vertex_answer_generation;
use big_index_repro::index::query_gen::{generalize_query, keywords_stay_distinct};
use big_index_repro::index::spec::{specialize_answer, SpecializedAnswer};
use big_index_repro::index::{BiGIndex, Boosted, EvalOptions, GenConfig};
use big_index_repro::search::{AnswerGraph, Banks, Budget, KeywordQuery, KeywordSearch};
use proptest::prelude::*;

/// Number of base labels; each label `i` has supertype `NUM_LABELS + i/2`
/// (pairs of siblings), giving a 2-level ontology.
const NUM_LABELS: u32 = 6;

fn ontology() -> Ontology {
    let mut b = OntologyBuilder::new((NUM_LABELS + NUM_LABELS / 2) as usize);
    for i in 0..NUM_LABELS {
        b.add_subtype(LabelId(NUM_LABELS + i / 2), LabelId(i));
    }
    b.build().unwrap()
}

fn full_config(ont: &Ontology) -> GenConfig {
    GenConfig::new(
        (0..NUM_LABELS).map(|i| (LabelId(i), LabelId(NUM_LABELS + i / 2))),
        ont,
    )
    .unwrap()
}

prop_compose! {
    /// A random directed labeled graph of up to 60 vertices.
    fn arb_graph()(
        n in 2usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..150),
        labels in proptest::collection::vec(0u32..NUM_LABELS, 60),
    ) -> DiGraph {
        let mut b = GraphBuilder::new();
        for &l in labels.iter().take(n) {
            b.add_vertex(LabelId(l));
        }
        for (u, v) in edges {
            if u < n && v < n {
                b.add_edge(VId(u as u32), VId(v as u32));
            }
        }
        b.build()
    }
}

/// A realized answer as the oracle spells it: root, the matches of each
/// keyword (sorted), and the sorted vertex and edge sets.
type Realization = (Option<VId>, Vec<Vec<VId>>, Vec<VId>, Vec<(VId, VId)>);

/// The same spelling read off an answer a realizer built.
fn realization_of(a: &AnswerGraph) -> Realization {
    let mut matches = a.keyword_matches.clone();
    matches.iter_mut().for_each(|m| m.sort_unstable());
    (a.root, matches, a.vertices.clone(), a.edges.clone())
}

/// Every realization of `answer` over `base`, by brute force: walk the
/// whole cross product of `spec.candidates` and keep each assignment
/// under which every generalized edge `(u, v)` is a data-graph edge from
/// `u`'s vertex to `v`'s (Def. 4.2). Sorted, one entry per assignment.
fn oracle_realizations(
    base: &DiGraph,
    answer: &AnswerGraph,
    spec: &SpecializedAnswer,
) -> Vec<Realization> {
    let n = answer.vertices.len();
    let sizes: Vec<usize> = spec.candidates.iter().map(Vec::len).collect();
    if n == 0 || sizes.contains(&0) {
        return Vec::new();
    }
    let pos = |v: VId| answer.vertices.iter().position(|&w| w == v).unwrap();
    let edges: Vec<(usize, usize)> = answer
        .edges
        .iter()
        .map(|&(u, v)| (pos(u), pos(v)))
        .collect();
    let root = answer.root.map(pos);
    let mut digits = vec![0usize; n];
    let mut out = Vec::new();
    loop {
        let a: Vec<VId> = (0..n).map(|i| spec.candidates[i][digits[i]]).collect();
        if edges
            .iter()
            .all(|&(pu, pv)| base.out_neighbors(a[pu]).contains(&a[pv]))
        {
            let mut matches = vec![Vec::new(); answer.keyword_matches.len()];
            for (i, key) in spec.key_of.iter().enumerate() {
                if let Some(kw) = key {
                    matches[*kw].push(a[i]);
                }
            }
            matches.iter_mut().for_each(|m| m.sort_unstable());
            let mut vertices = a.clone();
            vertices.sort_unstable();
            vertices.dedup();
            let mut realized: Vec<(VId, VId)> =
                edges.iter().map(|&(pu, pv)| (a[pu], a[pv])).collect();
            realized.sort_unstable();
            realized.dedup();
            out.push((root.map(|r| a[r]), matches, vertices, realized));
        }
        // Next assignment, odometer style.
        let mut i = 0;
        loop {
            if i == n {
                out.sort();
                return out;
            }
            digits[i] += 1;
            if digits[i] < sizes[i] {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// Algo. 3 against the oracle, in both position orders: everything at an
/// unbounded limit, and at a smaller limit as many realizations as the
/// limit allows, each one the oracle lists (as often as it lists it).
fn assert_matches_the_oracle(base: &DiGraph, answer: &AnswerGraph, spec: &SpecializedAnswer) {
    let want = oracle_realizations(base, answer, spec);
    let budget = Budget::unlimited();
    for use_spec_order in [true, false] {
        let run = |limit| {
            let (got, _) =
                vertex_answer_generation(base, answer, spec, use_spec_order, limit, &budget)
                    .expect("an unlimited budget never interrupts");
            got.iter().map(realization_of).collect::<Vec<_>>()
        };
        let mut all = run(usize::MAX);
        all.sort();
        prop_assert_eq!(&all, &want, "use_spec_order {}", use_spec_order);
        for limit in [1, 2, 3, want.len() / 2] {
            let got = run(limit);
            prop_assert_eq!(got.len(), limit.min(want.len()));
            let mut left = want.clone();
            for r in got {
                let at = left.iter().position(|w| *w == r);
                prop_assert!(
                    at.is_some(),
                    "limit {}: {:?} is not a realization",
                    limit,
                    r
                );
                left.swap_remove(at.unwrap());
            }
        }
    }
}

prop_compose! {
    /// A small data graph and a generalized answer of up to five
    /// positions over it: edges between distinct positions in either
    /// direction (both at once too), up to two keywords, maybe a root,
    /// and a candidate set of data vertices per position.
    fn arb_realization_case()(
        n in 1usize..10,
        base_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..45),
        k in 1usize..6,
        answer_edges in proptest::collection::vec((0usize..5, 0usize..5), 0..8),
        candidates in proptest::collection::vec(proptest::collection::vec(0usize..10, 1..5), 5),
        keys in proptest::collection::vec(0usize..4, 5),
        root in 0usize..7,
    ) -> (DiGraph, AnswerGraph, SpecializedAnswer) {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(LabelId(0));
        }
        for (u, v) in base_edges {
            b.add_edge(VId((u % n) as u32), VId((v % n) as u32));
        }
        let gen = |p: usize| VId(100 + (p % k) as u32);
        let edges: Vec<(VId, VId)> = answer_edges
            .iter()
            .filter(|&&(u, v)| u % k != v % k)
            .map(|&(u, v)| (gen(u), gen(v)))
            .collect();
        // Keys 2 and 3 mean "no keyword"; roots 5 and 6 mean "no root".
        let key_of: Vec<Option<usize>> =
            keys[..k].iter().map(|&kw| (kw < 2).then_some(kw)).collect();
        let keyword_matches: Vec<Vec<VId>> = (0..2)
            .map(|kw| (0..k).filter(|&p| key_of[p] == Some(kw)).map(gen).collect())
            .collect();
        let root = (root < 5).then(|| gen(root));
        let answer = AnswerGraph::new((0..k).map(gen).collect(), edges, keyword_matches, root, 0);
        let candidates = candidates[..k]
            .iter()
            .map(|c| {
                let mut c: Vec<VId> = c.iter().map(|&v| VId((v % n) as u32)).collect();
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        let spec = SpecializedAnswer { candidates, key_of, pruned: 0 };
        (b.build(), answer, spec)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summary_preserves_labels_paths_and_stability(g in arb_graph()) {
        for dir in [BisimDirection::Forward, BisimDirection::Backward, BisimDirection::Both] {
            let part = maximal_bisimulation(&g, dir);
            let s = summarize(&g, &part);
            prop_assert!(is_label_preserving(&g, &s));
            prop_assert!(is_path_preserving(&g, &s));
            prop_assert!(has_no_phantom_edges(&g, &s));
            prop_assert!(is_stable(&g, &part, dir));
        }
    }

    #[test]
    fn chi_and_spec_partition_the_graph(g in arb_graph()) {
        let ont = ontology();
        let config = full_config(&ont);
        let index = BiGIndex::build_with_configs(
            g.clone(), ont, vec![config], BisimDirection::Forward);
        let m = index.num_layers();
        // Every vertex is in the spec of its chi image.
        for v in g.vertices() {
            prop_assert!(index.spec_to_base(index.chi(v, m), m).contains(&v));
        }
        // Specs of all supernodes form a partition of V.
        let mut all: Vec<VId> = index
            .graph_at(m)
            .vertices()
            .flat_map(|s| index.spec_to_base(s, m))
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, g.vertices().collect::<Vec<_>>());
    }

    #[test]
    fn prop_5_2_distance_contraction(g in arb_graph(), pairs in proptest::collection::vec((0usize..60, 0usize..60), 10)) {
        let ont = ontology();
        let config = full_config(&ont);
        let index = BiGIndex::build_with_configs(
            g.clone(), ont, vec![config], BisimDirection::Forward);
        let gm = index.graph_at(1);
        for (u, v) in pairs {
            if u >= g.num_vertices() || v >= g.num_vertices() {
                continue;
            }
            let (u, v) = (VId(u as u32), VId(v as u32));
            if let Some(d) = shortest_distance(&g, u, v, 8) {
                let ds = shortest_distance(gm, index.chi(u, 1), index.chi(v, 1), 8);
                prop_assert!(ds.is_some(), "reachability lost in summary");
                prop_assert!(ds.unwrap() <= d, "summary distance must not exceed");
            }
        }
    }

    #[test]
    fn eval_ont_is_sound(g in arb_graph(), kw in proptest::collection::vec(0u32..NUM_LABELS, 1..3), dmax in 1u32..4) {
        let ont = ontology();
        let config = full_config(&ont);
        let index = BiGIndex::build_with_configs(
            g.clone(), ont, vec![config], BisimDirection::Forward);
        let boosted = Boosted::new(&index, Banks, EvalOptions::default());
        let q = KeywordQuery::new(kw.iter().map(|&i| LabelId(i)).collect::<Vec<_>>(), dmax);
        let r = boosted.query(&q, 10);
        for a in &r.answers {
            prop_assert!(a.validate(&g, &q.keywords), "invalid answer at layer {}", r.layer);
            // Scores respect the distance bound per keyword.
            prop_assert!(a.score <= (q.dmax as u64) * q.len() as u64);
        }
    }

    #[test]
    fn boosted_subset_of_baseline_roots(g in arb_graph(), kw in proptest::collection::vec(0u32..NUM_LABELS, 1..3)) {
        // Soundness at the root level: any boosted root+score pair must
        // be exactly reproducible by the baseline's answer for that root.
        let ont = ontology();
        let config = full_config(&ont);
        let index = BiGIndex::build_with_configs(
            g.clone(), ont, vec![config], BisimDirection::Forward);
        let boosted = Boosted::new(&index, Banks, EvalOptions::default());
        let q = KeywordQuery::new(kw.iter().map(|&i| LabelId(i)).collect::<Vec<_>>(), 3);
        let (baseline, _) = boosted.baseline(&q, 100_000);
        let m = if index.num_layers() >= 1 && keywords_stay_distinct(&index, &q, 1) { 1 } else { 0 };
        let r = boosted.query_at_layer(&q, 100_000, m);
        for a in &r.answers {
            let base = baseline.iter().find(|b| b.root == a.root);
            prop_assert!(base.is_some(), "boosted root absent from baseline");
            // The baseline's per-root answer is the best one; the boosted
            // realization can't beat it.
            prop_assert!(base.unwrap().score <= a.score);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algo. 3 (the served realizer) returns exactly the realizations a
    /// brute-force walk of the candidates' cross product finds, on
    /// random scenarios and on every specialized answer of a Banks
    /// query at layer 1 of a random graph.
    #[test]
    fn vertex_generation_matches_a_brute_force_oracle(
        case in arb_realization_case(),
        g in arb_graph(),
        kw in proptest::collection::vec(0u32..NUM_LABELS, 1..3),
    ) {
        let (base, answer, spec) = case;
        assert_matches_the_oracle(&base, &answer, &spec);

        let ont = ontology();
        let config = full_config(&ont);
        let index = BiGIndex::build_with_configs(g, ont, vec![config], BisimDirection::Forward);
        let q = KeywordQuery::new(kw.iter().map(|&i| LabelId(i)).collect::<Vec<_>>(), 3);
        let summary_answers = if index.num_layers() >= 1 && keywords_stay_distinct(&index, &q, 1) {
            Banks.search_fresh(index.graph_at(1), &generalize_query(&index, &q, 1), 100)
        } else {
            Vec::new()
        };
        let budget = Budget::unlimited();
        for ga in summary_answers {
            let spec = specialize_answer(&index, &q, &ga, 1, true, &budget)
                .expect("an unlimited budget never interrupts");
            if let Some(spec) = spec {
                assert_matches_the_oracle(index.base(), &ga, &spec);
            }
        }
    }
}
