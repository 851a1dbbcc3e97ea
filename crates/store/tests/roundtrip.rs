//! Round-trip, corruption, and retry behavior of the store: a loaded
//! bundle equals the saved one bit for bit (so serving can skip
//! hierarchy construction entirely), corrupt generations surface as
//! quarantined typed errors, and transient I/O is retried with backoff.

mod common;

use bgi_graph::LabelId;
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Banks, Blinks, KeywordQuery, KeywordSearch, RClique};
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
    // parameters — nothing drifts. No search index has a file: the
    // r-clique indexes are rebuilt from the loaded layer graphs, and
    // BANKS and BLINKS search the graphs' own label tables.
    assert_eq!(loaded, a);
    let names: Vec<String> = generation_files(dir.path(), 1)
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["MANIFEST", "index.bin", "params.bin"]);
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
    let path = root.join(format!("gen-{generation:08}")).join("index.bin");
    let mut bytes = fs::read(path).unwrap();
    // An 8-byte header (magic, version, section), the direction byte,
    // then the reserved pair this build writes as 0/0.
    assert_eq!(bytes[9..14], [0; 5], "reserved pair is written 0/0");
    bytes[9] = 1;
    bytes[10..14].copy_from_slice(&k.to_le_bytes());
    reframe(&mut bytes);
    commit_file(root, generation, "index.bin", &bytes);
}

/// Recomputes a frame's trailing checksum over its (edited) body.
fn reframe(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Replaces `generation`'s file `name` with `bytes` and rewrites its
/// MANIFEST entry (length and checksum) to match: an intact file, just
/// not the one this build wrote.
fn commit_file(root: &Path, generation: u64, name: &str, bytes: &[u8]) {
    let dir = root.join(format!("gen-{generation:08}"));
    fs::write(dir.join(name), bytes).unwrap();
    let manifest = dir.join("MANIFEST");
    let old = fs::read(&manifest).unwrap();
    let mut d = Dec::open(&old, Section::Manifest).unwrap();
    let mut e = Enc::new(Section::Manifest);
    let entries = d.seq_len().unwrap();
    e.u64(entries as u64);
    for _ in 0..entries {
        let entry = d.bytes().unwrap();
        let (len, checksum) = (d.u64().unwrap(), d.u64().unwrap());
        e.bytes(entry);
        if entry == name.as_bytes() {
            e.u64(bytes.len() as u64);
            e.u64(fnv1a64(bytes));
        } else {
            e.u64(len);
            e.u64(checksum);
        }
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

/// Rewrites `generation`'s stored r-clique radius to `radius`, the frame
/// checksum and the manifest entry recomputed: an intact `params.bin`
/// whose radius may be one no neighbor row can hold.
fn store_radius(root: &Path, generation: u64, radius: u32) {
    let path = root.join(format!("gen-{generation:08}")).join("params.bin");
    let mut bytes = fs::read(path).unwrap();
    // An 8-byte header (magic, version, section), the reserved u64 and
    // BLINKS' u32 `prune_dist`, then the radius.
    bytes[20..24].copy_from_slice(&radius.to_le_bytes());
    reframe(&mut bytes);
    commit_file(root, generation, "params.bin", &bytes);
}

#[test]
fn generation_with_a_radius_no_row_can_hold_is_corrupt() {
    let a = bundle_a();
    let dir = TempDir::new("radius");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    // The largest radius a row holds still loads.
    store_radius(dir.path(), 1, u32::from(u16::MAX));
    let (_, loaded) = store.load_latest().unwrap();
    assert_eq!(loaded.rclique_params.radius, u32::from(u16::MAX));

    store_radius(dir.path(), 1, u32::from(u16::MAX) + 1);
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, detail }) => {
            assert_eq!(generation, 1);
            assert!(
                detail.starts_with("params.bin: r-clique radius 65536 exceeds"),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(store.quarantined().len(), 1);
}

/// `params.bin` of a bundle with default BLINKS and r-clique parameters,
/// as the builds that persisted evaluation options wrote it with their
/// defaults: header, the reserved u64, `prune_dist` 5, radius 4, then
/// 27 bytes of options (β 0.4, realizer tag 1, both flags set, overfetch
/// 4, grace 200 000), then the checksum. Those bytes are now a reserved
/// block, still written exactly so.
const DEFAULT_PARAMS_FRAME: [u8; 59] = [
    66, 71, 73, 83, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 154, 153, 153, 153,
    153, 153, 217, 63, 1, 1, 1, 4, 0, 0, 0, 0, 0, 0, 0, 64, 13, 3, 0, 0, 0, 0, 0, 56, 64, 3, 130,
    169, 137, 244, 243,
];

/// The same frame written by such a build with other options: β 0.7,
/// realizer tag 3 (its structural-then-distance hybrid), spec order
/// off, isKey on, overfetch 2, grace 123 456.
const OTHER_OPTIONS_PARAMS_FRAME: [u8; 59] = [
    66, 71, 73, 83, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 102, 102, 102, 102,
    102, 102, 230, 63, 3, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 64, 226, 1, 0, 0, 0, 0, 0, 20, 89, 169, 42,
    158, 88, 61, 24,
];

#[test]
fn params_frame_is_pinned_and_its_reserved_block_ignored() {
    let a = bundle_a();
    let bundle = IndexBundle::build(a.index, BlinksParams::default(), RClique::default(), 1);
    let dir = TempDir::new("params-pin");
    let store = Store::open(dir.path()).unwrap();
    store.save(&bundle).unwrap();
    let params = dir.path().join("gen-00000001").join("params.bin");
    assert_eq!(fs::read(&params).unwrap(), DEFAULT_PARAMS_FRAME);

    // Whatever options an older build stored there, the block is
    // skipped and the generation loads as the same bundle.
    commit_file(dir.path(), 1, "params.bin", &OTHER_OPTIONS_PARAMS_FRAME);
    let (_, loaded) = store.load_latest().unwrap();
    assert_eq!(loaded, bundle);

    // A frame that ends inside the reserved block is still corrupt.
    let mut cut = DEFAULT_PARAMS_FRAME[..24 + 10 + 8].to_vec();
    reframe(&mut cut);
    commit_file(dir.path(), 1, "params.bin", &cut);
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, detail }) => {
            assert_eq!(generation, 1);
            assert!(
                detail.starts_with("params.bin: truncated payload"),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(store.quarantined().len(), 1);
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

    let mut e = Enc::new(Section::Index);
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

/// Every layer's answers of `algo` to a few fixed queries, each
/// checked to match every keyword at a vertex carrying it.
fn answers<F: KeywordSearch<Index = ()>>(bundle: &IndexBundle, algo: &F) -> Vec<Vec<AnswerGraph>> {
    let mut out = Vec::new();
    for m in 0..=bundle.num_layers() {
        let g = bundle.index.graph_at(m);
        for keywords in [vec![0, 1], vec![1, 2], vec![2, 4, 5]] {
            let q = KeywordQuery::new(keywords.into_iter().map(LabelId).collect::<Vec<_>>(), 3);
            let found = algo.search(g, &(), &q, 10);
            for a in &found {
                for (matches, &kw) in a.keyword_matches.iter().zip(&q.keywords) {
                    assert!(matches.iter().all(|&v| g.label(v) == kw), "layer {m} {q:?}");
                }
            }
            out.push(found);
        }
    }
    out
}

/// Every layer's BLINKS answers to a few fixed queries.
fn rkws_answers(bundle: &IndexBundle) -> Vec<Vec<AnswerGraph>> {
    answers(bundle, &Blinks::new(bundle.blinks_params))
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

/// Rewrites `generation` into the layout of builds that stored BANKS'
/// label table: a `banks-NNN.bin` frame per layer (section 3: the label
/// count, then each label's vertex list) listed in the MANIFEST with its
/// checksum. Layer 0's frame lies — labels 1 and 2 trade lists — yet it
/// is framed and listed as soundly as the others. Returns its path.
fn rewrite_in_banks_layout(root: &Path, generation: u64, bundle: &IndexBundle) -> PathBuf {
    let dir = root.join(format!("gen-{generation:08}"));
    let mut frames = Vec::new();
    for m in 0..=bundle.num_layers() {
        let g = bundle.index.graph_at(m);
        let mut lists: Vec<Vec<u32>> = (0..g.alphabet_size() as u32)
            .map(|l| g.vertices_with(LabelId(l)).iter().map(|v| v.0).collect())
            .collect();
        if m == 0 {
            assert_ne!(lists[1], lists[2]);
            lists.swap(1, 2);
        }
        let mut e = Enc::new(Section::Index);
        e.u64(lists.len() as u64);
        for list in &lists {
            e.u32_slice(list);
        }
        let mut bytes = e.finish();
        bytes[6..8].copy_from_slice(&3u16.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let name = format!("banks-{m:03}.bin");
        fs::write(dir.join(&name), &bytes).unwrap();
        frames.push((name, bytes));
    }

    let manifest = dir.join("MANIFEST");
    let old = fs::read(&manifest).unwrap();
    let mut d = Dec::open(&old, Section::Manifest).unwrap();
    let mut e = Enc::new(Section::Manifest);
    let entries = d.seq_len().unwrap();
    e.u64((entries + frames.len()) as u64);
    for _ in 0..entries {
        e.bytes(d.bytes().unwrap());
        e.u64(d.u64().unwrap());
        e.u64(d.u64().unwrap());
    }
    for (name, bytes) in &frames {
        e.bytes(name.as_bytes());
        e.u64(bytes.len() as u64);
        e.u64(fnv1a64(bytes));
    }
    fs::write(&manifest, e.finish()).unwrap();
    dir.join("banks-000.bin")
}

#[test]
fn generation_with_banks_files_loads_and_answers_alike() {
    let a = bundle_a();
    let dir = TempDir::new("banks-layout");
    let store = Store::open(dir.path()).unwrap();
    store.save(&a).unwrap();
    let banks_file = rewrite_in_banks_layout(dir.path(), 1, &a);

    // The lying table is checked against the manifest, then ignored:
    // what loads is the saved bundle, and it answers from the graphs'
    // own label tables.
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    for algo_answers in [answers(&a, &Banks), rkws_answers(&a)] {
        assert!(algo_answers.iter().any(|found| !found.is_empty()));
    }
    assert_eq!(answers(&loaded, &Banks), answers(&a, &Banks));
    assert_eq!(rkws_answers(&loaded), rkws_answers(&a));

    // A damaged file still fails its manifest check.
    let mut bytes = fs::read(&banks_file).unwrap();
    bytes[8] ^= 0xff;
    fs::write(&banks_file, &bytes).unwrap();
    match store.load_latest() {
        Err(StoreError::Corrupt { generation, detail }) => {
            assert_eq!(generation, 1);
            assert!(detail.starts_with("banks-000.bin: checksum"), "{detail}");
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
        .find(|p| p.file_name().is_some_and(|n| n == "params.bin"))
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
