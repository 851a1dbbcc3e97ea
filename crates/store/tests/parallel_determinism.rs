//! The determinism contract of parallel construction (DESIGN.md §8):
//! for any thread count, the greedy build, the per-layer index builds,
//! and the store's parallel section encode all produce *byte-identical*
//! results to the serial path — checked down to the MANIFEST, whose
//! checksums cover every data file of a generation.

mod common;

use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_store::bundle::encode_index;
use bgi_store::{IndexBundle, Store};
use big_index::{BiGIndex, BuildParams};
use common::TempDir;
use std::fs;
use std::path::Path;

/// A graph big enough that the sampling estimator and Algo. 1 really
/// run (several labels generalizable, a few hundred vertices).
fn dataset() -> (bgi_graph::DiGraph, bgi_graph::Ontology) {
    use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder, VId};
    let mut ob = OntologyBuilder::new(12);
    for leaf in 2..7u32 {
        ob.add_subtype(LabelId(0), LabelId(leaf));
    }
    for leaf in 7..12u32 {
        ob.add_subtype(LabelId(1), LabelId(leaf));
    }
    let ontology = ob.build().unwrap();
    let mut b = GraphBuilder::new();
    let n = 400u32;
    for i in 0..n {
        b.add_vertex(LabelId(2 + (i % 10)));
    }
    for i in 0..n {
        b.add_edge(VId(i), VId((i * 7 + 1) % n));
        b.add_edge(VId(i), VId((i * 13 + 5) % n));
        if i % 3 == 0 {
            b.add_edge(VId((i * 5 + 2) % n), VId(i));
        }
    }
    (b.build(), ontology)
}

fn greedy_params(threads: usize) -> BuildParams {
    BuildParams {
        max_layers: 3,
        threads,
        ..BuildParams::default()
    }
}

fn bundle_with(threads: usize) -> IndexBundle {
    let (g, ontology) = dataset();
    let index = BiGIndex::build(g, ontology, &greedy_params(threads));
    IndexBundle::build(index, BlinksParams::default(), RClique::default(), threads)
}

#[test]
fn parallel_greedy_build_is_byte_identical_to_serial() {
    let serial = bundle_with(1);
    assert!(serial.index.verify().is_clean());
    for threads in [2usize, 4, 8] {
        let parallel = bundle_with(threads);
        assert!(parallel.index.verify().is_clean());
        assert_eq!(serial, parallel, "{threads}-thread bundle diverged");
        // Equality could in principle hold while encodings differ
        // (e.g. map iteration order leaking into the codec) — the
        // on-disk contract is about bytes, so compare those too.
        assert_eq!(encode_index(&serial.index), encode_index(&parallel.index));
    }
}

/// Every file of a generation directory, sorted by name.
fn generation_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let dir = root.join("gen-00000001");
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn parallel_save_produces_identical_generation_and_manifest() {
    let bundle = bundle_with(1);
    let serial_dir = TempDir::new("det-serial");
    let parallel_dir = TempDir::new("det-parallel");
    let serial_store = Store::open(serial_dir.path()).unwrap();
    let parallel_store = Store::open(parallel_dir.path()).unwrap();
    assert_eq!(serial_store.save(&bundle).unwrap(), 1);
    assert_eq!(parallel_store.save_with_threads(&bundle, 4).unwrap(), 1);

    let serial_files = generation_files(serial_dir.path());
    let parallel_files = generation_files(parallel_dir.path());
    assert_eq!(serial_files, parallel_files, "generation contents differ");
    assert!(serial_files.iter().any(|(name, _)| name == "MANIFEST"));
    assert!(
        !serial_files
            .iter()
            .any(|(name, _)| name.contains("rclique")),
        "r-clique indexes are rebuilt on load, never saved"
    );

    // And the parallel-saved generation recovers to the exact bundle.
    let (generation, loaded) = parallel_store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, bundle);
}
