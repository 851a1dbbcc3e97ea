//! "A commit produces the same bytes" as a test, not a claim: 300
//! seeded single-op commits go through `Engine::apply_batch` on two
//! generated graphs under two bisimulation directions, and the served
//! bundle — the encoded hierarchy plus every layer's label table — is
//! pinned by checksum after commits 1, 50 and 300. A change
//! to the write path (refinement, summary patching, index patching)
//! that is meant to be output-preserving must leave this file
//! untouched; one that is meant to change what a commit serves
//! re-pins it and says so.

use bgi_bisim::BisimDirection;
use bgi_datasets::{update_stream, DatasetSpec, UpdateMix, UpdateOp};
use bgi_graph::LabelId;
use bgi_ingest::{Engine, EngineConfig, IngestUpdate};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_store::bundle::encode_index;
use bgi_store::codec::fnv1a64;
use bgi_store::IndexBundle;
use big_index::{greedy_full_step_configs, BiGIndex};

// Every pinned value below was measured on 7111f0e, the last commit
// whose bundles held a BANKS index, with the label lists read from that
// index instead of from the layer graphs.

/// Commits after which the served bundle is fingerprinted.
const CHECKPOINTS: [usize; 3] = [1, 50, 300];
/// Seed of the update stream (`update_stream`, default 6:3:1 mix).
const STREAM_SEED: u64 = 0x5eed_c0de;

/// FNV-1a-64 over `encode_index` followed by every layer's label
/// table, in layer order: for each label of the layer's alphabet, the
/// list length and then its vertex ids, all `u32` LE.
fn fingerprint(bundle: &IndexBundle) -> u64 {
    let mut bytes = encode_index(&bundle.index);
    for m in 0..=bundle.index.num_layers() {
        let g = bundle.index.graph_at(m);
        for l in 0..g.alphabet_size() as u32 {
            let list = g.vertices_with(LabelId(l));
            bytes.extend((list.len() as u32).to_le_bytes());
            for v in list {
                bytes.extend(v.0.to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

/// The fingerprints after each of [`CHECKPOINTS`], for `spec` built
/// with three full-step layers in direction `dir`.
fn run(spec: DatasetSpec, dir: BisimDirection) -> Vec<u64> {
    let ds = spec.generate();
    let configs = greedy_full_step_configs(&ds.graph, &ds.ontology, 3, dir);
    let index = BiGIndex::build_with_configs(ds.graph.clone(), ds.ontology.clone(), configs, dir);
    let bundle = IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1);
    let mut engine = Engine::new(bundle, EngineConfig::default()).expect("a built index seeds");
    let stream = update_stream(&ds.graph, STREAM_SEED, 300, UpdateMix::default());
    let mut out = Vec::new();
    for (i, op) in stream.iter().enumerate() {
        let update = match *op {
            UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
            UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
            UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
        };
        engine
            .apply_batch(&[update])
            .expect("a generated op applies");
        if CHECKPOINTS.contains(&(i + 1)) {
            out.push(fingerprint(engine.bundle()));
        }
    }
    out
}

#[test]
fn yago_like_forward_commits_are_pinned() {
    let got = run(DatasetSpec::yago_like(500), BisimDirection::Forward);
    assert_eq!(
        got,
        [
            0x0d66_6548_346c_1ba7,
            0x3d88_c73a_ddbf_f86d,
            0x3d09_e940_e22d_5b59,
        ],
        "got {got:#018x?}"
    );
}

#[test]
fn yago_like_both_commits_are_pinned() {
    let got = run(DatasetSpec::yago_like(500), BisimDirection::Both);
    assert_eq!(
        got,
        [
            0xb911_a4f0_6f32_996f,
            0xf2c9_560a_3df0_b23d,
            0x8f9f_0df1_359b_8d01,
        ],
        "got {got:#018x?}"
    );
}

#[test]
fn dbpedia_like_forward_commits_are_pinned() {
    let got = run(DatasetSpec::dbpedia_like(500), BisimDirection::Forward);
    assert_eq!(
        got,
        [
            0x437c_dad4_3740_0387,
            0xb443_1cd1_7524_cf98,
            0xb42e_a05a_5691_f050,
        ],
        "got {got:#018x?}"
    );
}

#[test]
fn dbpedia_like_both_commits_are_pinned() {
    let got = run(DatasetSpec::dbpedia_like(500), BisimDirection::Both);
    assert_eq!(
        got,
        [
            0x1d63_376b_bdc8_1f7c,
            0x4d39_ea5e_a209_c722,
            0xd5c6_63b2_6d85_4f27,
        ],
        "got {got:#018x?}"
    );
}
