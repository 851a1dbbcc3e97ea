//! "A commit produces the same bytes" as a test, not a claim: 300
//! seeded single-op commits go through `Engine::apply_batch` on two
//! generated graphs under two bisimulation directions, and the served
//! bundle — the encoded hierarchy plus every layer's BANKS frame — is
//! pinned by checksum after commits 1, 50 and 300. A change
//! to the write path (refinement, summary patching, index patching)
//! that is meant to be output-preserving must leave this file
//! untouched; one that is meant to change what a commit serves
//! re-pins it and says so.

use bgi_bisim::BisimDirection;
use bgi_datasets::{update_stream, DatasetSpec, UpdateMix, UpdateOp};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_store::bundle::{encode_banks, encode_index};
use bgi_store::codec::fnv1a64;
use bgi_store::IndexBundle;
use big_index::{greedy_full_step_configs, BiGIndex, EvalOptions};

// Every pinned value below was measured on 21b3820, the last commit
// whose bundles held a BLINKS index, by this fingerprint without its
// frames.

/// Commits after which the served bundle is fingerprinted.
const CHECKPOINTS: [usize; 3] = [1, 50, 300];
/// Seed of the update stream (`update_stream`, default 6:3:1 mix).
const STREAM_SEED: u64 = 0x5eed_c0de;

/// FNV-1a-64 over `encode_index` followed by every layer's BANKS frame,
/// in layer order.
fn fingerprint(bundle: &IndexBundle) -> u64 {
    let mut bytes = encode_index(&bundle.index);
    for m in 0..=bundle.index.num_layers() {
        bytes.extend(encode_banks(&bundle.banks[m]));
    }
    fnv1a64(&bytes)
}

/// The fingerprints after each of [`CHECKPOINTS`], for `spec` built
/// with three full-step layers in direction `dir`.
fn run(spec: DatasetSpec, dir: BisimDirection) -> Vec<u64> {
    let ds = spec.generate();
    let configs = greedy_full_step_configs(&ds.graph, &ds.ontology, 3, dir);
    let index = BiGIndex::build_with_configs(ds.graph.clone(), ds.ontology.clone(), configs, dir);
    let bundle = IndexBundle::build(
        index,
        BlinksParams::default(),
        RClique::default(),
        EvalOptions::default(),
    );
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
            0x99db_f5bb_dd9c_d782,
            0x18ce_d9ae_c810_a4d8,
            0xb129_518f_1220_bc19,
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
            0xc30c_f4f2_2a17_5c15,
            0x9188_bd57_b4ec_092f,
            0x411f_feb2_c055_7840,
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
            0x88d0_d1ef_a2d4_74e3,
            0x29ac_4f29_9e1c_7ebc,
            0xd511_54d8_f05e_e250,
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
            0x5342_82be_66e7_fd08,
            0x868e_3c32_e849_3276,
            0xeeb9_c97b_8d62_85b4,
        ],
        "got {got:#018x?}"
    );
}
