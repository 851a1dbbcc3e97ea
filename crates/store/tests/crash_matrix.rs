//! The crash-matrix property: for every labeled failpoint in the save
//! path and every hit of it, killing the write exactly there and
//! reopening the store yields a verified bundle equal to either the
//! pre-write generation or the post-write one — never a torn index —
//! with the partial generation quarantined, not served and not
//! panicking.

mod common;

use bgi_store::{FailAction, Failpoints, IndexBundle, RetryPolicy, Store, StoreError};
use common::{bundle_a, bundle_b, TempDir};

/// Every label the save path can hit (the `fsio` catalog).
const WRITE_LABELS: &[&str] = &[
    "save.create_dir",
    "save.write_file",
    "save.fsync_file",
    "save.rename_file",
    "save.write_manifest",
    "save.fsync_manifest",
    "save.rename_manifest",
    "save.fsync_dir",
];

/// Runs one reference save of `next` on top of `prev` and returns each
/// write label's hit count — the coordinates the matrix enumerates.
fn reference_hits(prev: &IndexBundle, next: &IndexBundle) -> Vec<(String, u64)> {
    let dir = TempDir::new("ref");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    store.save(prev).unwrap();
    fp.reset();
    store.save(next).unwrap();
    let seen = fp.labels_seen();
    for label in WRITE_LABELS {
        assert!(
            seen.iter().any(|s| s == label),
            "failpoint {label} never hit by a full save — catalog out of date"
        );
    }
    seen.into_iter().map(|l| (l.clone(), fp.hits(&l))).collect()
}

/// Kills the save of `next` at `(label, nth)` with `action`, then
/// reopens and asserts the old-or-new invariant.
fn kill_and_recover(
    prev: &IndexBundle,
    next: &IndexBundle,
    label: &str,
    nth: u64,
    action: FailAction,
) {
    let dir = TempDir::new("kill");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    let gen_a = store.save(prev).unwrap();
    fp.reset();
    fp.arm(label, nth, action);
    let outcome = store.save(next);
    drop(store);

    // Reopen as a fresh process would: no failpoints, default retries.
    let store = Store::open(dir.path()).unwrap();
    let (generation, loaded) = store
        .load_latest()
        .unwrap_or_else(|e| panic!("recovery after {action:?} at {label}#{nth} failed: {e}"));
    if outcome.is_ok() {
        // The armed point was never reached before the save finished —
        // only possible for plans beyond the last hit, which the matrix
        // does not generate.
        assert_eq!(generation, gen_a + 1);
        assert_eq!(&loaded, next, "completed save must read back as new");
        return;
    }
    if generation == gen_a {
        assert_eq!(
            &loaded, prev,
            "{action:?} at {label}#{nth}: old generation torn"
        );
    } else {
        assert_eq!(
            &loaded, next,
            "{action:?} at {label}#{nth}: new generation torn"
        );
    }
    assert!(loaded.index.verify().is_clean());
}

#[test]
fn crash_matrix_old_or_new_never_torn() {
    let a = bundle_a();
    let b = bundle_b();
    let hits = reference_hits(&a, &b);
    let mut points = 0u32;
    for (label, count) in &hits {
        for nth in 1..=*count {
            kill_and_recover(&a, &b, label, nth, FailAction::Crash);
            points += 1;
        }
    }
    assert!(
        points >= WRITE_LABELS.len() as u32,
        "matrix fired only {points} crash points"
    );
}

#[test]
fn torn_write_matrix_old_or_new_never_torn() {
    let a = bundle_a();
    let b = bundle_b();
    for (label, count) in reference_hits(&a, &b) {
        // Torn actions only make sense where bytes are written.
        if label != "save.write_file" && label != "save.write_manifest" {
            continue;
        }
        for nth in 1..=count {
            kill_and_recover(&a, &b, &label, nth, FailAction::Torn);
        }
    }
}

#[test]
fn crash_before_first_manifest_leaves_empty_store() {
    // Kill the *first* save before its manifest commit: recovery has
    // nothing to serve and must say so with a typed error.
    let dir = TempDir::new("first");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    fp.arm("save.rename_manifest", 1, FailAction::Crash);
    assert!(store.save(&bundle_a()).is_err());
    drop(store);

    let store = Store::open(dir.path()).unwrap();
    match store.load_latest() {
        Err(StoreError::Partial { generation }) => assert_eq!(generation, 1),
        other => panic!("expected Partial, got {other:?}"),
    }
    // The partial generation was quarantined for post-mortem.
    assert_eq!(store.quarantined().len(), 1);
    assert!(store.generations().unwrap().is_empty());
}

#[test]
fn partial_generation_is_quarantined_and_older_served() {
    let a = bundle_a();
    let b = bundle_b();
    let dir = TempDir::new("quarantine");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    store.save(&a).unwrap();
    fp.reset();
    // Die on the new generation's second (last) data file.
    fp.arm("save.write_file", 2, FailAction::Torn);
    assert!(store.save(&b).is_err());
    drop(store);

    let store = Store::open(dir.path()).unwrap();
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded, a);
    assert_eq!(store.quarantined().len(), 1);
    // Quarantining freed the dead number; a re-save lands cleanly.
    let next = store.save(&b).unwrap();
    assert_eq!(next, 2);
    let (generation, loaded) = store.load_latest().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(loaded, b);
}

// ---------------------------------------------------------------------
// WAL crash matrix: kill every labeled WAL write site at every hit and
// assert recovery replays exactly a committed prefix — every fsynced
// batch survives unless a *successful* truncation removed it, a failed
// truncation leaves old-or-new, and nothing ever replays torn.
// ---------------------------------------------------------------------

use bgi_store::GraphUpdate;

/// Write-path WAL labels (the `wal.*` half of the `fsio` catalog;
/// `wal.read` is recovery-side and exercised separately below).
const WAL_WRITE_LABELS: &[&str] = &[
    "wal.append",
    "wal.fsync",
    "wal.truncate_write",
    "wal.truncate_fsync",
    "wal.truncate_rename",
    "wal.truncate_fsync_dir",
];

fn wal_batch(k: u32) -> Vec<GraphUpdate> {
    vec![
        GraphUpdate::InsertEdge { src: k, dst: k + 1 },
        GraphUpdate::DeleteEdge { src: k + 1, dst: k },
        GraphUpdate::AddVertex {
            label: k % 5,
            expected: 100 + k,
        },
    ]
}

/// The reference WAL workload's commits, as index ranges into its six
/// equal-sized batches: a two-record group (half its image ends on the
/// record boundary), a single append, and a three-record group (half
/// its image ends mid-record). A truncation of the first batch follows.
const WAL_COMMITS: [std::ops::Range<usize>; 3] = [0..2, 2..3, 3..6];

fn wal_batches() -> Vec<Vec<GraphUpdate>> {
    (0..6).map(|i| wal_batch(10 * i)).collect()
}

/// Runs the reference WAL workload unarmed and returns each write
/// label's hit count.
fn wal_reference_hits() -> Vec<(String, u64)> {
    let dir = TempDir::new("wal-ref");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    let (mut wal, replayed) = store.open_wal().unwrap();
    assert!(replayed.is_empty());
    let batches = wal_batches();
    for commit in WAL_COMMITS {
        wal.append_group(&batches[commit]).unwrap();
    }
    wal.truncate_through(1).unwrap();
    drop(wal);
    // Recovery-side label coverage: a reopen under the same failpoint
    // registry must route through `wal.read`.
    let (_, replayed) = store.open_wal().unwrap();
    assert_eq!(replayed.len(), batches.len() - 1);
    let seen = fp.labels_seen();
    for label in WAL_WRITE_LABELS {
        assert!(
            seen.iter().any(|s| s == label),
            "failpoint {label} never hit by the WAL workload — catalog out of date"
        );
    }
    assert!(
        seen.iter().any(|s| s == "wal.read"),
        "wal.read never hit during replay — catalog out of date"
    );
    WAL_WRITE_LABELS
        .iter()
        .map(|&l| (l.to_string(), fp.hits(l)))
        .collect()
}

/// Runs the reference workload with `(label, nth, action)` armed,
/// stopping at the first failure like a real writer, then reopens and
/// checks the committed-prefix invariant.
fn wal_kill_and_recover(label: &str, nth: u64, action: FailAction) {
    let dir = TempDir::new("wal-kill");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    let (mut wal, _) = store.open_wal().unwrap();
    fp.arm(label, nth, action);

    let batches = wal_batches();
    let mut committed: Vec<(u64, Vec<GraphUpdate>)> = Vec::new();
    // Records of the commit in flight when the kill hit (0 = none did).
    let mut in_flight = 0u64;
    for commit in WAL_COMMITS {
        match wal.append_group(&batches[commit.clone()]) {
            Ok(seqs) => committed.extend(seqs.zip(batches[commit].iter().cloned())),
            Err(_) => {
                in_flight = commit.len() as u64;
                break;
            }
        }
    }
    let truncated = if in_flight > 0 {
        None
    } else {
        let first = committed[0].0;
        Some((first, wal.truncate_through(first).is_ok()))
    };
    drop(wal);
    drop(store);

    // Reopen as a fresh process: no failpoints, default retries.
    let store = Store::open(dir.path()).unwrap();
    let (_, replayed) = store
        .open_wal()
        .unwrap_or_else(|e| panic!("recovery after {action:?} at {label}#{nth} failed: {e}"));

    // Every replayed batch must match what was written for that seq —
    // never torn content.
    for r in &replayed {
        let (_, expected) = batches
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64 + 1, b))
            .find(|(s, _)| *s == r.seq)
            .unwrap_or_else(|| panic!("{action:?} at {label}#{nth}: unknown seq {}", r.seq));
        assert_eq!(
            &r.updates, expected,
            "{action:?} at {label}#{nth}: torn batch replayed"
        );
    }
    let replayed_seqs: Vec<u64> = replayed.iter().map(|b| b.seq).collect();

    match truncated {
        // Truncation committed: exactly the suffix survives.
        Some((through, true)) => {
            let want: Vec<u64> = committed
                .iter()
                .map(|(s, _)| *s)
                .filter(|&s| s > through)
                .collect();
            assert_eq!(
                replayed_seqs, want,
                "{action:?} at {label}#{nth}: truncation committed but wrong suffix"
            );
        }
        // Truncation died midway: old log or new log, nothing else.
        Some((through, false)) => {
            let all: Vec<u64> = committed.iter().map(|(s, _)| *s).collect();
            let suffix: Vec<u64> = all.iter().copied().filter(|&s| s > through).collect();
            assert!(
                replayed_seqs == all || replayed_seqs == suffix,
                "{action:?} at {label}#{nth}: replay {replayed_seqs:?} is neither \
                 pre-truncation {all:?} nor post-truncation {suffix:?}"
            );
        }
        // An append died: every fsynced batch must survive, and beyond
        // them at most a prefix of the in-flight commit's records may
        // have reached the disk whole (the fsync or the torn cut raced
        // the kill).
        None => {
            let durable: Vec<u64> = committed.iter().map(|(s, _)| *s).collect();
            let next = durable.len() as u64 + 1;
            let ok = (0..=in_flight).any(|extra| {
                let want: Vec<u64> = durable.iter().copied().chain(next..next + extra).collect();
                replayed_seqs == want
            });
            assert!(
                ok,
                "{action:?} at {label}#{nth}: replay {replayed_seqs:?} lost a \
                 committed batch (durable {durable:?})"
            );
        }
    }

    // Append-after-recovery: whatever residue the kill left behind, the
    // recovered log must commit a fresh batch without losing anything
    // already replayed — a torn tail truncated on open means the new
    // append can never land beyond an undecodable frame.
    let (mut wal, _) = store.open_wal().unwrap();
    let extra = wal_batch(90);
    let extra_seq = wal.append(&extra).unwrap();
    drop(wal);
    let (_, after) = store.open_wal().unwrap();
    let after_seqs: Vec<u64> = after.iter().map(|b| b.seq).collect();
    let mut want = replayed_seqs;
    want.push(extra_seq);
    assert_eq!(
        after_seqs, want,
        "{action:?} at {label}#{nth}: append after recovery lost a batch"
    );
    assert_eq!(
        after.last().map(|b| b.updates.clone()),
        Some(extra),
        "{action:?} at {label}#{nth}: post-recovery append replayed torn"
    );
}

#[test]
fn wal_crash_matrix_replays_committed_prefix() {
    let mut points = 0u32;
    for (label, count) in wal_reference_hits() {
        for nth in 1..=count {
            wal_kill_and_recover(&label, nth, FailAction::Crash);
            points += 1;
            // Torn bytes only make sense where bytes are written.
            if label == "wal.append" || label == "wal.truncate_write" {
                wal_kill_and_recover(&label, nth, FailAction::Torn);
                points += 1;
            }
        }
    }
    assert!(
        points >= WAL_WRITE_LABELS.len() as u32,
        "WAL matrix fired only {points} points"
    );
}
