//! The label CSR every `DiGraph` derives: whichever constructor made
//! the graph — the builder, `from_csr`, `relabel` or a chain of
//! `with_rows` splices that append vertices and grow the alphabet —
//! `vertices_with(l)` is the linear filter over `labels()`, ascending,
//! and a label outside the alphabet (a keyword from the wire) is empty.

use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use proptest::collection::vec;
use proptest::prelude::*;

fn assert_label_csr(g: &DiGraph) {
    let counts = g.label_counts();
    assert_eq!(counts.len(), g.alphabet_size());
    for l in 0..g.alphabet_size() as u32 + 2 {
        let l = LabelId(l);
        let expect: Vec<VId> = g.vertices().filter(|&v| g.label(v) == l).collect();
        assert_eq!(g.vertices_with(l), expect.as_slice(), "label {l:?}");
        assert_eq!(g.label_count(l) as usize, expect.len());
        if l.index() < g.alphabet_size() {
            assert_eq!(counts[l.index()] as usize, expect.len());
        }
    }
    assert!(g.vertices_with(LabelId(u32::MAX)).is_empty());
    assert_eq!(g.label_count(LabelId(u32::MAX)), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_constructor_derives_the_label_csr(
        labels in vec(0u32..6, 0..40),
        edges in vec((0u32..40, 0u32..40), 0..80),
        map in vec(0u32..9, 6),
        appends in vec((0u32..10, 0u32..40, 1usize..4), 0..6),
    ) {
        let n = labels.len() as u32;
        let labels: Vec<LabelId> = labels.into_iter().map(LabelId).collect();
        let edges: Vec<(VId, VId)> = if n == 0 {
            Vec::new()
        } else {
            edges.iter().map(|&(u, v)| (VId(u % n), VId(v % n))).collect()
        };
        let g = GraphBuilder::from_edges(labels, edges);
        assert_label_csr(&g);

        // The store's load path, at the saved alphabet and a wider one.
        let (l, oo, ot, io, is) = g.csr_parts();
        for alphabet in [g.alphabet_size(), g.alphabet_size() + 3] {
            let loaded = DiGraph::from_csr(
                l.to_vec(),
                oo.to_vec(),
                ot.to_vec(),
                io.to_vec(),
                is.to_vec(),
                alphabet,
            )
            .expect("a built graph's arrays load");
            assert_label_csr(&loaded);
        }

        // Generalization: labels rewritten, some past the alphabet.
        let map: Vec<LabelId> = map.into_iter().map(LabelId).collect();
        let relabeled = g.relabel(&map);
        assert!(relabeled.labels().iter().all(|l| l.index() < relabeled.alphabet_size()));
        assert_label_csr(&relabeled);

        // The write path: each splice appends vertices, some with labels
        // past the alphabet, and gives the first an edge into an
        // existing vertex, so one out-row and one in-row are replaced.
        let mut cur = g;
        for &(label, target, count) in &appends {
            let n = cur.num_vertices() as u32;
            let new_labels: Vec<LabelId> = (0..count as u32).map(|i| LabelId(label + i)).collect();
            let (out_rows, in_rows) = if n == 0 {
                (Vec::new(), Vec::new())
            } else {
                let (w, t) = (VId(n), VId(target % n));
                let mut in_row = cur.in_neighbors(t).to_vec();
                in_row.push(w);
                (vec![(w, vec![t])], vec![(t, in_row)])
            };
            cur = cur.with_rows(&new_labels, &out_rows, &in_rows);
            assert!(cur.check_consistency());
            assert_label_csr(&cur);
        }
    }
}
