//! Integration test: the paper's running example (Figs. 1–5,
//! Examples I.1, 2.1, 4.1–4.3) reproduced end to end.

use big_index_repro::bisim::{maximal_bisimulation, summarize, BisimDirection};
use big_index_repro::graph::{
    DiGraph, GraphBuilder, LabelInterner, Ontology, OntologyBuilder, VId,
};
use big_index_repro::index::{BiGIndex, Boosted, EvalOptions, GenConfig};
use big_index_repro::search::{Banks, KeywordQuery};

struct PaperWorld {
    labels: LabelInterner,
    graph: DiGraph,
    ontology: Ontology,
    config: GenConfig,
}

fn build_world() -> PaperWorld {
    let mut labels = LabelInterner::new();
    let person = labels.intern("Person");
    let academics = labels.intern("Academics");
    let univ = labels.intern("Univ.");
    let org = labels.intern("Organization");
    let location = labels.intern("Location");
    let eastern = labels.intern("Eastern");
    let western = labels.intern("Western");
    let p_graham = labels.intern("P.Graham");
    let anon = labels.intern("Anon");
    let harvard = labels.intern("Harvard");
    let cornell = labels.intern("Cornell");
    let berkeley = labels.intern("Berkeley");
    let ivy = labels.intern("IvyLeague");
    let ma = labels.intern("Massachusetts");
    let ny = labels.intern("NewYork");
    let ca = labels.intern("California");

    let mut ont = OntologyBuilder::new(labels.len());
    ont.add_subtype(person, academics);
    ont.add_subtype(academics, p_graham);
    ont.add_subtype(person, anon);
    ont.add_subtype(univ, harvard);
    ont.add_subtype(univ, cornell);
    ont.add_subtype(univ, berkeley);
    ont.add_subtype(org, ivy);
    ont.add_subtype(location, eastern);
    ont.add_subtype(location, western);
    ont.add_subtype(eastern, ma);
    ont.add_subtype(eastern, ny);
    ont.add_subtype(western, ca);
    let ontology = ont.build().unwrap();

    let mut g = GraphBuilder::new();
    let v_graham = g.add_vertex(p_graham); // v0
    let v_harvard = g.add_vertex(harvard); // v1
    let v_cornell = g.add_vertex(cornell); // v2
    let v_berkeley = g.add_vertex(berkeley); // v3
    let v_ivy = g.add_vertex(ivy); // v4
    let v_ma = g.add_vertex(ma); // v5
    let v_ny = g.add_vertex(ny); // v6
    let v_ca = g.add_vertex(ca); // v7
    g.add_edge(v_graham, v_harvard);
    g.add_edge(v_graham, v_cornell);
    g.add_edge(v_graham, v_berkeley);
    g.add_edge(v_harvard, v_ivy);
    g.add_edge(v_cornell, v_ivy);
    g.add_edge(v_harvard, v_ma);
    g.add_edge(v_cornell, v_ny);
    g.add_edge(v_berkeley, v_ca);
    for _ in 0..100 {
        let p = g.add_vertex(anon);
        g.add_edge(p, v_berkeley);
    }
    let graph = g.build();

    let config = GenConfig::new(
        [
            (p_graham, academics),
            (anon, person),
            (harvard, univ),
            (cornell, univ),
            (berkeley, univ),
            (ivy, org),
            (ma, eastern),
            (ny, eastern),
            (ca, western),
        ],
        &ontology,
    )
    .unwrap();

    PaperWorld {
        labels,
        graph,
        ontology,
        config,
    }
}

#[test]
fn hundred_persons_collapse_to_one_supernode() {
    let w = build_world();
    let gen = w.graph.relabel(&w.config.label_map(w.labels.len()));
    let part = maximal_bisimulation(&gen, BisimDirection::Forward);
    let summary = summarize(&gen, &part);
    // The anon persons (vertices 8..108) are all in one block.
    let class = summary.supernode_of(VId(8));
    assert_eq!(summary.members(class).len(), 100);
    // Far fewer supernodes than vertices.
    assert!(summary.graph.num_vertices() < 12);
}

#[test]
fn paper_example_index_passes_verification() {
    use big_index_repro::verify::{Invariant, Status};
    let w = build_world();
    let index = BiGIndex::build_with_configs(
        w.graph.clone(),
        w.ontology,
        vec![w.config],
        BisimDirection::Forward,
    );
    let report = index.verify();
    assert!(report.is_clean(), "{report}");
    // Each layer is the maximal bisimulation, so its partition is
    // stable.
    let stable = report.check(Invariant::PartitionStable).unwrap();
    assert_eq!(stable.status, Status::Pass, "{report}");
}

#[test]
fn example_i1_query_answered_through_summary() {
    let w = build_world();
    let ma = w.labels.get("Massachusetts").unwrap();
    let ivy = w.labels.get("IvyLeague").unwrap();
    let ca = w.labels.get("California").unwrap();
    let index = BiGIndex::build_with_configs(
        w.graph.clone(),
        w.ontology,
        vec![w.config],
        BisimDirection::Forward,
    );
    let boosted = Boosted::new(&index, Banks, EvalOptions::default());
    let q1 = KeywordQuery::new(vec![ma, ivy, ca], 3);

    // Layer 1 must find the P. Graham-rooted tree.
    let r = boosted.query_at_layer(&q1, 10, 1);
    assert_eq!(r.answers.len(), 1);
    let a = &r.answers[0];
    assert_eq!(a.root, Some(VId(0)));
    assert!(a.validate(&w.graph, &q1.keywords));

    // And it equals the baseline evaluation.
    let (baseline, _) = boosted.baseline(&q1, 10);
    assert_eq!(baseline.len(), 1);
    assert_eq!(baseline[0].root, a.root);
    assert_eq!(baseline[0].score, a.score);
}

#[test]
fn example_q3_generalized_keywords_have_answers() {
    // Q3-style query with generalized keywords (Example 1.1's third
    // query): they match nothing on the data graph, whose labels are
    // specific, but do match on the summary.
    let w = build_world();
    let academics = w.labels.get("Academics").unwrap();
    let univ = w.labels.get("Univ.").unwrap();
    let org = w.labels.get("Organization").unwrap();
    let index = BiGIndex::build_with_configs(
        w.graph.clone(),
        w.ontology,
        vec![w.config],
        BisimDirection::Forward,
    );
    let q3 = KeywordQuery::new(vec![academics, univ, org], 3);
    // On the data graph the answer set is empty (labels are specific).
    let baseline = {
        use big_index_repro::search::KeywordSearch;
        Banks.search_fresh(&w.graph, &q3, 10)
    };
    assert!(baseline.is_empty());
    // On the summary graph, the generalized subtree exists.
    use big_index_repro::search::KeywordSearch;
    let summary_answers = Banks.search_fresh(index.graph_at(1), &q3, 10);
    assert!(!summary_answers.is_empty());
}

#[test]
fn the_served_realizer_reproduces_the_baseline_answer() {
    let w = build_world();
    let ma = w.labels.get("Massachusetts").unwrap();
    let ivy = w.labels.get("IvyLeague").unwrap();
    let index = BiGIndex::build_with_configs(
        w.graph.clone(),
        w.ontology,
        vec![w.config],
        BisimDirection::Forward,
    );
    let q = KeywordQuery::new(vec![ma, ivy], 3);
    let boosted = Boosted::new(&index, Banks, EvalOptions::default());
    let r = boosted.query_at_layer(&q, 100, 1);
    let (baseline, _) = boosted.baseline(&q, 100);
    let key = |a: &big_index_repro::search::AnswerGraph| (a.root, a.score);
    let mut got: Vec<_> = r.answers.iter().map(key).collect();
    let mut want: Vec<_> = baseline.iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}
