//! End-to-end correctness of `eval_Ont` (Def. 2.3 / Thm. 4.2) on
//! generated knowledge graphs for all three plugged-in semantics.

use big_index_repro::datasets::{benchmark_queries, DatasetSpec};
use big_index_repro::index::{boost_dkws, BiGIndex, Boosted, EvalOptions, GenConfig};
use big_index_repro::search::blinks::{Blinks, BlinksParams};
use big_index_repro::search::{AnswerGraph, Banks, KeywordQuery, RClique};

fn default_index(ds: &big_index_repro::datasets::Dataset, max_layers: usize) -> BiGIndex {
    use big_index_repro::bisim::BisimDirection;
    let mut configs: Vec<GenConfig> = Vec::new();
    let mut current = ds.graph.clone();
    for _ in 0..max_layers {
        let counts = current.label_counts();
        let mappings: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .filter_map(|(i, _)| {
                let l = big_index_repro::graph::LabelId(i as u32);
                ds.ontology.direct_supertypes(l).first().map(|&s| (l, s))
            })
            .collect();
        let config = GenConfig::new(mappings, &ds.ontology).unwrap();
        if config.is_empty() {
            break;
        }
        let probe = BiGIndex::build_with_configs(
            current.clone(),
            ds.ontology.clone(),
            vec![config.clone()],
            BisimDirection::Forward,
        );
        configs.push(config);
        current = probe.graph_at(1).clone();
    }
    let index = BiGIndex::build_with_configs(
        ds.graph.clone(),
        ds.ontology.clone(),
        configs,
        BisimDirection::Forward,
    );
    // Every index these tests query must first survive the full
    // invariant suite (Defs. 2.1/2.2 and the χ tables).
    let report = index.verify();
    assert!(report.is_clean(), "index failed verification:\n{report}");
    index
}

#[test]
fn built_index_passes_full_verification_with_witness_free_report() {
    use big_index_repro::verify::{Invariant, Status};
    let ds = DatasetSpec::dbpedia_like(2000).generate();
    let index = default_index(&ds, 4);
    let report = index.verify();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.total_violations(), 0);
    // Every invariant applies, and every one passes.
    for inv in Invariant::ALL {
        let c = report.check(inv).expect("all invariants reported");
        assert_eq!(c.status, Status::Pass, "{inv:?} not Pass:\n{report}");
        assert!(c.witnesses.is_empty());
    }
}

#[test]
fn boosted_banks_is_sound_on_generated_kg() {
    let ds = DatasetSpec::yago_like(3000).generate();
    let index = default_index(&ds, 4);
    let boosted = Boosted::new(&index, Banks, EvalOptions::default());
    let queries = benchmark_queries(&ds, 4, 30, 5);
    assert!(!queries.is_empty());
    for q in &queries {
        let query = q.to_query();
        let r = boosted.query(&query, 20);
        for a in &r.answers {
            assert!(
                a.validate(&ds.graph, &query.keywords),
                "{}: invalid answer at layer {}",
                q.id,
                r.layer
            );
        }
    }
}

#[test]
fn boosted_blinks_is_sound_and_never_empty_when_baseline_has_answers() {
    let ds = DatasetSpec::imdb_like(3000).generate();
    let index = default_index(&ds, 4);
    let blinks = Blinks::new(BlinksParams {
        block_size: 100,
        prune_dist: 5,
    });
    let boosted = Boosted::new(&index, blinks, EvalOptions::default());
    let queries = benchmark_queries(&ds, 4, 30, 6);
    for q in &queries {
        let query = q.to_query();
        let (baseline, _) = boosted.baseline(&query, 10);
        let r = boosted.query(&query, 10);
        for a in &r.answers {
            assert!(a.validate(&ds.graph, &query.keywords), "{}", q.id);
        }
        // The layer-0 fallback guarantees we never lose everything.
        assert_eq!(
            r.answers.is_empty(),
            baseline.is_empty(),
            "{}: boosted {} answers, baseline {}",
            q.id,
            r.answers.len(),
            baseline.len()
        );
    }
}

#[test]
fn boosted_rclique_answers_are_valid_cliques() {
    let ds = DatasetSpec::yago_like(1500).generate();
    let index = default_index(&ds, 3);
    let rc = RClique { radius: 3 };
    let boosted = boost_dkws(&index, rc, EvalOptions::default());
    let queries = benchmark_queries(&ds, 3, 15, 7);
    for q in queries.iter().take(4) {
        let query = q.to_query();
        let r = boosted.query(&query, 5);
        for a in &r.answers {
            assert!(a.validate(&ds.graph, &query.keywords), "{}", q.id);
            // Keyword nodes pairwise within r (undirected), verified
            // against a freshly built neighbor index.
            let ni = big_index_repro::search::rclique::NeighborIndex::build(&ds.graph, 3);
            let picked: Vec<_> = a.keyword_matches.iter().map(|m| m[0]).collect();
            for i in 0..picked.len() {
                for j in i + 1..picked.len() {
                    assert!(
                        ni.distance(picked[i], picked[j]).is_some(),
                        "{}: pair out of range",
                        q.id
                    );
                }
            }
        }
    }
}

/// Exact equality under injective keyword generalization (the Thm. 4.2
/// regime; see the correctness contract in `big_index::eval`).
#[test]
fn exact_equality_with_injective_keywords() {
    use big_index_repro::bisim::BisimDirection;
    use big_index_repro::graph::{GraphBuilder, LabelId, OntologyBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Labels 0..4 are "keyword" labels each with its own supertype
    // (5..9): injective generalization. Label 10 is shared filler with
    // supertype 11.
    let mut ob = OntologyBuilder::new(12);
    for i in 0..5u32 {
        ob.add_subtype(LabelId(5 + i), LabelId(i));
    }
    ob.add_subtype(LabelId(11), LabelId(10));
    let ont = ob.build().unwrap();

    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..5 {
        let mut gb = GraphBuilder::new();
        let n = 150;
        for _ in 0..n {
            let l = if rng.gen_bool(0.4) {
                LabelId(rng.gen_range(0..5))
            } else {
                LabelId(10)
            };
            gb.add_vertex(l);
        }
        for _ in 0..n * 3 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            gb.add_edge(
                big_index_repro::graph::VId(u),
                big_index_repro::graph::VId(v),
            );
        }
        let g = gb.build();
        let config = GenConfig::new(
            (0..5u32)
                .map(|i| (LabelId(i), LabelId(5 + i)))
                .chain([(LabelId(10), LabelId(11))]),
            &ont,
        )
        .unwrap();
        let index = BiGIndex::build_with_configs(
            g.clone(),
            ont.clone(),
            vec![config],
            BisimDirection::Forward,
        );
        let boosted = Boosted::new(&index, Banks, EvalOptions::default());
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 3);
        let (baseline, _) = boosted.baseline(&q, 100_000);
        let r = boosted.query_at_layer(&q, 100_000, 1);
        let key = |a: &AnswerGraph| (a.root, a.score);
        let mut want: Vec<_> = baseline.iter().map(key).collect();
        let mut got: Vec<_> = r.answers.iter().map(key).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got, "trial {trial}");
    }
}

/// Lemma 4.1: every baseline answer vertex has its χ-image in some
/// generalized answer (candidate completeness), regardless of
/// distortion.
#[test]
fn lemma_4_1_candidate_completeness() {
    use big_index_repro::search::KeywordSearch;
    let ds = DatasetSpec::yago_like(2000).generate();
    let index = default_index(&ds, 3);
    let queries = benchmark_queries(&ds, 3, 20, 9);
    for q in queries.iter().take(4) {
        let query = q.to_query();
        let baseline = Banks.search_fresh(&ds.graph, &query, 50);
        if baseline.is_empty() {
            continue;
        }
        let m = 1;
        let gq = big_index_repro::index::query_gen::generalize_query(&index, &query, m);
        if gq.len() != query.len() {
            continue;
        }
        let generalized = Banks.search_fresh(index.graph_at(m), &gq, usize::MAX / 2);
        // Every baseline root's image must appear as the root of some
        // generalized answer.
        for a in baseline.iter().take(10) {
            let root_img = index.chi(a.root.unwrap(), m);
            assert!(
                generalized.iter().any(|ga| ga.root == Some(root_img)),
                "{}: root image {:?} missing among {} generalized answers",
                q.id,
                root_img,
                generalized.len()
            );
        }
    }
}
