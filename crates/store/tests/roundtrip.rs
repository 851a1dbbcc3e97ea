//! Round-trip, corruption, and retry behavior of the store: a loaded
//! bundle equals the saved one bit for bit (so serving can skip
//! hierarchy construction entirely), corrupt generations surface as
//! quarantined typed errors, and transient I/O is retried with backoff.

mod common;

use bgi_search::{Blinks, KeywordQuery, KeywordSearch};
use bgi_store::codec::{fnv1a64, Dec, Enc, Section};
use bgi_store::{FailAction, Failpoints, IndexBundle, RetryPolicy, Store, StoreError};
use common::{bundle_a, bundle_b, TempDir};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[test]
fn save_load_roundtrip_is_equal() {
    let a = bundle_a();
    let dir = TempDir::new("rt");
    let store = Store::open(dir.path()).unwrap();
    let generation = store.save(&a).unwrap();
    assert_eq!(generation, 1);
    let (loaded_gen, loaded) = store.load_latest().unwrap();
    assert_eq!(loaded_gen, 1);
    // Exact equality: the hierarchy, every per-layer index, and the
    // parameters — nothing drifts (the r-clique indexes, which have no
    // file, are rebuilt from the loaded layer graphs; BLINKS searches
    // the BANKS files and has none of its own).
    assert_eq!(loaded, a);
    assert!(!generation_files(dir.path(), 1).iter().any(|p| {
        let name = p.file_name().unwrap().to_string_lossy();
        name.contains("rclique") || name.starts_with("blinks")
    }));
    assert!(loaded.index.verify().is_clean());
}

#[test]
fn newest_complete_generation_wins() {
    let a = bundle_a();
    let b = bundle_b();
    let dir = TempDir::new("newest");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    store.save(&b).unwrap();
    assert_eq!(store.generations().unwrap(), vec![1, 2]);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(loaded, b);
}

#[test]
fn empty_store_is_typed_error() {
    let dir = TempDir::new("empty");
    let store = Store::open(dir.path()).unwrap();
    assert!(matches!(store.load_latest(), Err(StoreError::NoGeneration)));
}

/// All data files of a generation, for corruption targeting.
fn generation_files(root: &Path, generation: u64) -> Vec<PathBuf> {
    let dir = root.join(format!("gen-{generation:08}"));
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

#[test]
fn corrupt_newest_falls_back_to_older() {
    let a = bundle_a();
    let b = bundle_b();
    let dir = TempDir::new("fallback");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    store.save(&b).unwrap();
    // Flip one byte in one data file of generation 2.
    let victim = generation_files(dir.path(), 2)
        .into_iter()
        .find(|p| p.file_name().is_some_and(|n| n == "index.bin"))
        .unwrap();
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&victim, &bytes).unwrap();

    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    assert_eq!(store.quarantined().len(), 1);
}

#[test]
fn corrupt_only_generation_is_typed_error() {
    let a = bundle_a();
    let dir = TempDir::new("corrupt-only");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    let victim = generation_files(dir.path(), 1).pop().unwrap();
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap(); // truncate
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, .. }) => assert_eq!(generation, 1),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(store.quarantined().len(), 1);
}

/// Re-frames every file of `generation` the way a build speaking codec
/// `version` would have: same payload, that version in the header, the
/// checksum recomputed — intact files, just not this build's.
fn reframe_generation(root: &Path, generation: u64, version: u16) {
    for path in generation_files(root, generation) {
        let mut bytes = fs::read(&path).unwrap();
        let body = bytes.len() - 8;
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, bytes).unwrap();
    }
}

#[test]
fn generation_of_another_codec_version_is_typed_and_quarantined() {
    // Version 2 kept `rclique-NNN.bin` files and one more params field;
    // its generations must be refused by version, never mis-parsed.
    let a = bundle_a();
    let dir = TempDir::new("old-version");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    store.save(&bundle_b()).unwrap();
    reframe_generation(dir.path(), 2, 2);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1, "falls back to the readable generation");
    assert_eq!(loaded, a);
    assert_eq!(store.quarantined().len(), 1);

    reframe_generation(dir.path(), 1, 2);
    match store.load_latest() {
        Err(StoreError::UnsupportedVersion { generation, found }) => {
            assert_eq!((generation, found), (1, 2));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert_eq!(store.quarantined().len(), 2);
    assert!(matches!(store.load_latest(), Err(StoreError::NoGeneration)));
}

/// Rewrites `generation`'s `index.bin` the way a build that still wrote
/// k-bounded summaries framed one: tag 1 and `k` in the reserved pair
/// after the direction byte, the frame checksum and the manifest entry
/// recomputed — an intact file, just not one this build reads.
fn retag_index_as_k_bounded(root: &Path, generation: u64, k: u32) {
    let dir = root.join(format!("gen-{generation:08}"));
    let path = dir.join("index.bin");
    let mut bytes = fs::read(&path).unwrap();
    // An 8-byte header (magic, version, section), the direction byte,
    // then the reserved pair this build writes as 0/0.
    assert_eq!(bytes[9..14], [0; 5], "reserved pair is written 0/0");
    bytes[9] = 1;
    bytes[10..14].copy_from_slice(&k.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bytes).unwrap();

    let manifest = dir.join("MANIFEST");
    let old = fs::read(&manifest).unwrap();
    let mut d = Dec::open(&old, Section::Manifest).unwrap();
    let mut e = Enc::new(Section::Manifest);
    let entries = d.seq_len().unwrap();
    e.u64(entries as u64);
    for _ in 0..entries {
        let name = d.bytes().unwrap();
        let len = d.u64().unwrap();
        let checksum = d.u64().unwrap();
        e.bytes(name);
        e.u64(len);
        e.u64(if name == b"index.bin" {
            fnv1a64(&bytes)
        } else {
            checksum
        });
    }
    fs::write(&manifest, e.finish()).unwrap();
}

#[test]
fn generation_with_a_k_bounded_index_is_refused_and_quarantined() {
    let a = bundle_a();
    let dir = TempDir::new("k-bounded");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    store.save(&bundle_b()).unwrap();
    retag_index_as_k_bounded(dir.path(), 2, 2);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1, "falls back to the readable generation");
    assert_eq!(loaded, a);
    assert_eq!(store.quarantined().len(), 1);

    retag_index_as_k_bounded(dir.path(), 1, 1);
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, detail }) => {
            assert_eq!(generation, 1);
            assert!(detail.starts_with("index.bin: k-bounded"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(store.quarantined().len(), 2);
    assert!(matches!(store.load_latest(), Err(StoreError::NoGeneration)));
}

/// Rewrites `generation` into the layout of builds that kept BLINKS'
/// bi-level index on disk: a block size of 1000 in `params.bin`'s first
/// slot and a `blinks-000.bin` frame (section 4: one partition block, no
/// keyword lists) listed in the MANIFEST, every checksum recomputed.
/// Returns the BLINKS file's path.
fn rewrite_in_bi_level_layout(root: &Path, generation: u64, n: usize) -> PathBuf {
    let dir = root.join(format!("gen-{generation:08}"));
    let reframe = |bytes: &mut Vec<u8>| {
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    };

    let params_path = dir.join("params.bin");
    let mut params = fs::read(&params_path).unwrap();
    let mut d = Dec::open(&params, Section::Params).unwrap();
    assert_eq!(d.u64().unwrap(), 0, "the block-size slot is written 0");
    // An 8-byte header (magic, version, section), then that slot.
    params[8..16].copy_from_slice(&1000u64.to_le_bytes());
    reframe(&mut params);
    fs::write(&params_path, &params).unwrap();

    let mut e = Enc::new(Section::Banks);
    e.u32_slice(&vec![0; n]);
    e.u64(1);
    e.u32(4);
    e.u64(0);
    let mut blinks = e.finish();
    blinks[6..8].copy_from_slice(&4u16.to_le_bytes());
    reframe(&mut blinks);
    let blinks_path = dir.join("blinks-000.bin");
    fs::write(&blinks_path, &blinks).unwrap();

    let manifest = dir.join("MANIFEST");
    let old = fs::read(&manifest).unwrap();
    let mut d = Dec::open(&old, Section::Manifest).unwrap();
    let mut e = Enc::new(Section::Manifest);
    let entries = d.seq_len().unwrap();
    e.u64(entries as u64 + 1);
    for _ in 0..entries {
        let name = d.bytes().unwrap();
        let (len, checksum) = (d.u64().unwrap(), d.u64().unwrap());
        e.bytes(name);
        if name == b"params.bin" {
            e.u64(params.len() as u64);
            e.u64(fnv1a64(&params));
        } else {
            e.u64(len);
            e.u64(checksum);
        }
    }
    e.bytes(b"blinks-000.bin");
    e.u64(blinks.len() as u64);
    e.u64(fnv1a64(&blinks));
    fs::write(&manifest, e.finish()).unwrap();
    blinks_path
}

/// Every layer's BLINKS answers to a few fixed queries.
fn rkws_answers(bundle: &IndexBundle) -> Vec<Vec<bgi_search::AnswerGraph>> {
    let blinks = Blinks::new(bundle.blinks_params);
    let mut out = Vec::new();
    for m in 0..=bundle.num_layers() {
        let g = bundle.index.graph_at(m);
        for keywords in [vec![0, 1], vec![1, 2], vec![2, 4, 5]] {
            let labels = keywords.into_iter().map(bgi_graph::LabelId);
            let q = KeywordQuery::new(labels.collect::<Vec<_>>(), 3);
            out.push(blinks.search(g, &bundle.banks[m], &q, 10));
        }
    }
    out
}

#[test]
fn generation_with_a_blinks_index_loads_and_answers_alike() {
    let a = bundle_a();
    let dir = TempDir::new("bi-level");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    let n = a.index.graph_at(0).num_vertices();
    let blinks_file = rewrite_in_bi_level_layout(dir.path(), 1, n);

    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    assert!(rkws_answers(&a).iter().any(|answers| !answers.is_empty()));
    assert_eq!(rkws_answers(&loaded), rkws_answers(&a));

    // The old entry is ignored, not trusted: a damaged file still fails
    // its manifest check.
    let mut bytes = fs::read(&blinks_file).unwrap();
    bytes[8] ^= 0xff;
    fs::write(&blinks_file, &bytes).unwrap();
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, detail }) => {
            assert_eq!(generation, 1);
            assert!(detail.starts_with("blinks-000.bin: checksum"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn missing_manifest_file_is_corrupt_not_panic() {
    let a = bundle_a();
    let dir = TempDir::new("missing-file");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    // Delete a data file the manifest still lists.
    let victim = generation_files(dir.path(), 1)
        .into_iter()
        .find(|p| p.file_name().is_some_and(|n| n == "banks-000.bin"))
        .unwrap();
    fs::remove_file(&victim).unwrap();
    // The read error is NotFound — not transient, and the generation
    // is provably incomplete. It must not be served.
    assert!(store.load_latest().is_err());
}

#[test]
fn transient_read_errors_are_retried_with_backoff() {
    let a = bundle_a();
    let dir = TempDir::new("retry");
    let fp = Failpoints::enabled();
    let policy = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
    };
    let store = Store::open_with(dir.path(), fp.clone(), policy).unwrap();
    store.save(&a).unwrap();
    fp.reset();

    // Two transient failures fit inside three attempts.
    fp.arm("load.read_manifest", 1, FailAction::Transient);
    fp.arm("load.read_manifest", 2, FailAction::Transient);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    assert_eq!(fp.hits("load.read_manifest"), 3);

    // A persistent transient fault exhausts the budget and surfaces as
    // an I/O error — and does NOT quarantine the (healthy) generation.
    fp.reset();
    for nth in 1..=3 {
        fp.arm("load.read_manifest", nth, FailAction::Transient);
    }
    match store.load_latest() {
        Err(e @ StoreError::Io { .. }) => assert!(e.is_transient()),
        other => panic!("expected transient Io, got {other:?}"),
    }
    assert!(store.quarantined().is_empty());
    assert_eq!(store.generations().unwrap(), vec![1]);
}

#[test]
fn transient_data_file_reads_are_retried_too() {
    let a = bundle_a();
    let dir = TempDir::new("retry-file");
    let fp = Failpoints::enabled();
    let policy = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
    };
    let store = Store::open_with(dir.path(), fp.clone(), policy).unwrap();
    store.save(&a).unwrap();
    fp.reset();

    // A single transient fault on a data-file read must be absorbed by
    // the retry budget, not quarantine the generation.
    fp.arm("load.read_file", 1, FailAction::Transient);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    assert!(fp.hits("load.read_file") > 1);
    assert!(store.quarantined().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary single-byte corruption anywhere in the newest
    /// generation: recovery either falls back to the old generation or
    /// (if the flip hit slack the checksum does not cover — impossible
    /// with this codec, but the property must not assume it) returns
    /// the new one intact. It never panics and never returns a mix.
    #[test]
    fn random_byte_flip_never_serves_torn_data(file_pick in 0usize..64, byte_pick in 0usize..8192, bit in 0u8..8) {
        let a = bundle_a();
        let b = bundle_b();
        let dir = TempDir::new("prop-flip");
        let store = Store::open(dir.path()).unwrap();
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        let files = generation_files(dir.path(), 2);
        let victim = &files[file_pick % files.len()];
        let mut bytes = fs::read(victim).unwrap();
        let idx = byte_pick % bytes.len();
        bytes[idx] ^= 1 << bit;
        fs::write(victim, &bytes).unwrap();

        let (generation, loaded) = store.load_latest().unwrap();
        prop_assert!(generation == 1 || generation == 2);
        if generation == 1 {
            prop_assert_eq!(&loaded, &a);
        } else {
            prop_assert_eq!(&loaded, &b);
        }
        prop_assert!(loaded.index.verify().is_clean());
    }
}
