//! Property test: at every prefix of a random update sequence, the
//! incrementally maintained hierarchy answers keyword queries exactly
//! like an index rebuilt from scratch on the same graph.
//!
//! The incremental partition may be *finer* than the maximal
//! bisimulation (splits are eager, merges are deferred — Sec. 3.2), so
//! the summary graphs themselves can differ. What must not differ is
//! what a user can observe: the specialized answers on the data graph.
//! Small graphs and a generous `k` make the plugged-in search
//! exhaustive, so answer sets are compared exactly (sorted, deduped).

use bgi_graph::{DiGraph, GraphBuilder, LabelId, Ontology, OntologyBuilder};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate};
use bgi_search::blinks::BlinksParams;
use bgi_search::{Banks, Budget, KeywordQuery, KeywordSearch, RClique};
use bgi_store::IndexBundle;
use big_index::{eval_at_layer, BiGIndex, EvalOptions, GenConfig};
use proptest::prelude::*;

/// Fig. 1-like instance: person subtypes → univ subtypes → state.
/// Labels: 0=Person, 1=Prof, 2=Student, 3=Univ, 4=PubUniv, 5=PrivUniv,
/// 6=State.
fn setup() -> (DiGraph, Ontology) {
    let mut gb = GraphBuilder::new();
    let pub_u = gb.add_vertex(LabelId(4));
    let priv_u = gb.add_vertex(LabelId(5));
    let state = gb.add_vertex(LabelId(6));
    gb.add_edge(pub_u, state);
    gb.add_edge(priv_u, state);
    for i in 0..24 {
        let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
        let v = gb.add_vertex(l);
        gb.add_edge(v, if i % 3 == 0 { pub_u } else { priv_u });
    }
    let g = gb.build();
    let mut ob = OntologyBuilder::new(7);
    ob.add_subtype(LabelId(0), LabelId(1));
    ob.add_subtype(LabelId(0), LabelId(2));
    ob.add_subtype(LabelId(3), LabelId(4));
    ob.add_subtype(LabelId(3), LabelId(5));
    let o = ob.build().unwrap();
    (g, o)
}

fn step_config(o: &Ontology) -> GenConfig {
    GenConfig::new(
        [
            (LabelId(1), LabelId(0)),
            (LabelId(2), LabelId(0)),
            (LabelId(4), LabelId(3)),
            (LabelId(5), LabelId(3)),
        ],
        o,
    )
    .unwrap()
}

/// All answers of `query` on `index` at layer `m`, rendered, sorted and
/// deduplicated — order- and multiplicity-insensitive.
fn answer_set(index: &BiGIndex, m: usize, query: &KeywordQuery) -> Vec<String> {
    let banks = Banks.build_index(index.graph_at(m));
    let result = eval_at_layer(
        index,
        &Banks,
        &banks,
        query,
        200,
        m,
        &EvalOptions::default(),
        &Budget::unlimited(),
    )
    .expect("an unlimited budget never interrupts");
    let mut rendered: Vec<String> = result.answers.iter().map(|a| format!("{a:?}")).collect();
    rendered.sort();
    rendered.dedup();
    rendered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_prefix_answers_like_a_scratch_rebuild(
        ops in proptest::collection::vec((0u8..3, 0u32..1_000_000, 0u32..1_000_000), 1..14),
    ) {
        let (g, o) = setup();
        let config = step_config(&o);
        let index = BiGIndex::build_with_configs(
            g,
            o.clone(),
            vec![config.clone()],
            bgi_bisim::BisimDirection::Forward,
        );
        let bundle = IndexBundle::build(
            index,
            BlinksParams::default(),
            RClique::default(),
            EvalOptions::default(),
        );
        let mut engine = Engine::new(bundle, EngineConfig::default()).unwrap();

        let queries = [
            KeywordQuery::new(vec![LabelId(1), LabelId(4)], 3),
            KeywordQuery::new(vec![LabelId(2), LabelId(6)], 4),
            KeywordQuery::new(vec![LabelId(6)], 2),
        ];

        for &(kind, a, b) in &ops {
            let n = engine.index().base().num_vertices() as u32;
            let update = match kind {
                0 => IngestUpdate::InsertEdge { src: a % n, dst: b % n },
                1 => IngestUpdate::DeleteEdge { src: a % n, dst: b % n },
                _ => IngestUpdate::AddVertex { label: b % 7 },
            };
            // Fill every r-clique ball row first, so the batch has rows
            // to carry over and a wrongly kept one can be seen below.
            for (m, rc) in engine.bundle().rclique.iter().enumerate() {
                for v in engine.index().graph_at(m).vertices() {
                    rc.neighbor.neighbors(v);
                }
            }
            engine.apply_batch(&[update]).unwrap();

            // The maintained hierarchy stays a valid BiG-index…
            prop_assert!(engine.index().verify().is_clean(), "{}", engine.index().verify());

            // …and answers every query at every layer exactly like an
            // index rebuilt from scratch on the updated graph.
            let scratch = BiGIndex::build_with_configs(
                engine.index().base().clone(),
                o.clone(),
                vec![config.clone()],
                bgi_bisim::BisimDirection::Forward,
            );
            prop_assert_eq!(scratch.num_layers(), engine.index().num_layers());
            for m in 0..=scratch.num_layers() {
                for query in &queries {
                    let incremental = answer_set(engine.index(), m, query);
                    let rebuilt = answer_set(&scratch, m, query);
                    prop_assert_eq!(
                        &incremental,
                        &rebuilt,
                        "layer {} answers diverged for {:?}",
                        m,
                        query
                    );
                }
            }

            // The *served* per-layer search indexes — whether reused,
            // incrementally patched, or rebuilt — must be exactly what a
            // fresh build on the served graph produces.
            let bundle = engine.bundle();
            for m in 0..=engine.index().num_layers() {
                let g = engine.index().graph_at(m);
                prop_assert!(
                    bundle.banks[m] == Banks.build_index(g),
                    "layer {} served BANKS index diverged from a fresh build", m
                );
                let fresh = bundle.rclique_params.build_index(g);
                prop_assert!(
                    bundle.rclique[m] == fresh,
                    "layer {} served r-clique index diverged from a fresh build", m
                );
                // `==` is radius + graph and never reads a row; the rows
                // the batch carried over are compared one by one.
                for v in g.vertices() {
                    prop_assert_eq!(
                        bundle.rclique[m].neighbor.neighbors(v),
                        fresh.neighbor.neighbors(v),
                        "layer {} served r-clique row {:?} is stale", m, v
                    );
                }
            }
        }
    }
}
