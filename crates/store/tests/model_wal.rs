//! Model-checked concurrency tests for the WAL append/truncate path
//! and the group-commit queue.
//!
//! The WAL itself is single-writer (`&mut self`), so concurrent use
//! goes through a mutex — these tests drive that pattern through the
//! `bgi-check` facade and explore the interleavings. Every run gets a
//! fresh temp directory built *inside* the closure, so schedules never
//! share on-disk state.
//!
//! The commit-queue tests model leader failure through the *error*
//! path (an armed `wal.fsync` failpoint): under simulation a
//! panic aborts the whole schedule, so the panic-unwinding
//! `DeathGuard` path is covered by plain-thread tests in
//! `bgi_store::group` instead, and the model checker's job here is the
//! protocol itself — every caller returns under every interleaving
//! (follower timeouts may fire at any schedule point), failed leaders
//! hand over, and nothing durable is lost.

use bgi_check::sync::{thread, Mutex, PoisonError};
use bgi_check::{model, Config};
use bgi_store::{CommitQueue, FailAction, Failpoints, GraphUpdate, Wal};
use std::sync::Arc;

mod common;
use common::TempDir;

fn lock<T>(m: &Mutex<T>) -> bgi_check::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn edge(src: u32, dst: u32) -> GraphUpdate {
    GraphUpdate::InsertEdge { src, dst }
}

/// Two appenders interleaved arbitrarily: every batch survives a
/// reopen, sequence numbers stay strictly increasing, and each
/// thread's own batches land in the order it wrote them.
#[test]
fn concurrent_appenders_preserve_order_and_seqs() {
    let report = model(Config::exhaustive(2), || {
        let dir = TempDir::new("model-append");
        let (wal, recovered) = Wal::open(dir.path(), Failpoints::disabled()).unwrap();
        assert!(recovered.is_empty());
        let wal = Arc::new(Mutex::new(wal));

        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    for i in 0..2u32 {
                        lock(&wal).append(&[edge(100 * (t + 1), i)]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(wal);

        let (_, batches) = Wal::open(dir.path(), Failpoints::disabled()).unwrap();
        assert_eq!(batches.len(), 4, "an append was lost");
        for pair in batches.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "seqs not strictly increasing");
        }
        for t in 1..=2u32 {
            let dsts: Vec<u32> = batches
                .iter()
                .filter_map(|b| match b.updates[..] {
                    [GraphUpdate::InsertEdge { src, dst }] if src == 100 * t => Some(dst),
                    _ => None,
                })
                .collect();
            assert_eq!(dsts, vec![0, 1], "thread {t}'s batches out of order");
        }
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

/// An appender racing `truncate_through` — as two single appends (two
/// lock acquisitions the truncation can land between) or as one group of
/// two. Truncation drops exactly the prefix it names, never in-flight
/// batches with later seqs: the reopened log holds the appender's two
/// batches, in order, under every interleaving.
#[test]
fn truncate_races_append_without_losing_later_batches() {
    let appenders: [fn(&Mutex<Wal>); 2] = [
        |wal| {
            lock(wal).append(&[edge(3, 4)]).unwrap();
            lock(wal).append(&[edge(5, 6)]).unwrap();
        },
        |wal| {
            let group = [vec![edge(3, 4)], vec![edge(5, 6)]];
            lock(wal).append_group(&group).unwrap();
        },
    ];
    for append in appenders {
        let report = model(Config::exhaustive(2), move || {
            let dir = TempDir::new("model-truncate");
            let (mut wal, _) = Wal::open(dir.path(), Failpoints::disabled()).unwrap();
            let seq1 = wal.append(&[edge(1, 2)]).unwrap();
            let wal = Arc::new(Mutex::new(wal));

            let appender = {
                let wal = Arc::clone(&wal);
                thread::spawn(move || append(&wal))
            };
            let truncator = {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    lock(&wal).truncate_through(seq1).unwrap();
                })
            };
            appender.join().unwrap();
            truncator.join().unwrap();
            drop(wal);

            let (_, batches) = Wal::open(dir.path(), Failpoints::disabled()).unwrap();
            let payloads: Vec<_> = batches.iter().map(|b| b.updates.clone()).collect();
            assert_eq!(
                payloads,
                vec![vec![edge(3, 4)], vec![edge(5, 6)]],
                "truncation must drop exactly the seq-1 prefix"
            );
            assert!(batches[0].seq > seq1);
        });
        assert!(report.schedules > 1, "exhaustive run explored one schedule");
    }
}

/// The commit queue alone, under the model checker: two callers push
/// one item each through [`CommitQueue::commit`]. Under simulation the
/// follower's `wait_timeout` can fire at any schedule point, so this
/// explores both coalesced groups and timeout-driven takeovers. Every
/// caller must get its own result back, every item must be processed
/// exactly once, and group boundaries must partition the items.
#[test]
fn commit_queue_callers_always_get_results_under_any_interleaving() {
    let report = model(Config::exhaustive(2), || {
        let queue = Arc::new(CommitQueue::<u32, u32>::new());
        let groups = Arc::new(Mutex::new(Vec::<Vec<u32>>::new()));

        let handles: Vec<_> = (1..=2u32)
            .map(|item| {
                let queue = Arc::clone(&queue);
                let groups = Arc::clone(&groups);
                thread::spawn(move || {
                    queue.commit(item, move |items: Vec<u32>| {
                        lock(&groups).push(items.clone());
                        items.iter().map(|x| x * 10).collect()
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for (i, r) in results.iter().enumerate() {
            let item = i as u32 + 1;
            assert_eq!(
                *r,
                Some(item * 10),
                "caller {item} must receive its own result"
            );
        }
        let mut seen: Vec<u32> = lock(&groups).iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2], "items must be processed exactly once");
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

/// Leader failure and takeover, modeled through the error path: the
/// first `wal.fsync` is armed `Transient`, so whichever caller
/// leads the first group commit fails and must hand leadership back
/// (under simulation a panicking leader would abort the whole
/// schedule, so the panic path is covered by the plain-thread
/// `DeathGuard` tests in `bgi_store::group`). Under every
/// interleaving: no caller hangs, every `Ok` seq is durable on reopen,
/// and nothing but the two submitted batches ever reaches the log.
#[test]
fn failed_group_leader_hands_over_and_commits_stay_durable() {
    let report = model(Config::exhaustive(2), || {
        let dir = TempDir::new("model-group-leader");
        let fp = Failpoints::enabled();
        fp.arm("wal.fsync", 1, FailAction::Transient);
        let (wal, _) = Wal::open(dir.path(), fp).unwrap();
        let wal = Arc::new(Mutex::new(wal));
        let queue = Arc::new(CommitQueue::<Vec<GraphUpdate>, Result<u64, String>>::new());

        let handles: Vec<_> = (1..=2u32)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let batch = vec![edge(100 * t, t)];
                    queue.commit(batch, move |batches: Vec<Vec<GraphUpdate>>| {
                        let mut w = lock(&wal);
                        match w.append_group(&batches) {
                            Ok(seqs) => seqs.into_iter().map(Ok).collect(),
                            Err(e) => batches.iter().map(|_| Err(e.to_string())).collect(),
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        drop(queue);
        drop(wal);

        // No sim thread panics, so the queue never reports a dead
        // leader: every caller gets a Some (deadlock-freedom is the
        // takeover property — a failed leader must release followers).
        let mut committed = Vec::new();
        for (i, r) in results.iter().enumerate() {
            let t = i as u32 + 1;
            match r {
                Some(Ok(seq)) => committed.push((*seq, vec![edge(100 * t, t)])),
                Some(Err(_)) => {}
                None => panic!("caller {t} saw a dead leader without any panic"),
            }
        }

        let (_, batches) = Wal::open(dir.path(), Failpoints::disabled()).unwrap();
        for pair in batches.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "seqs not strictly increasing");
        }
        // Every successful commit is durable with its exact payload...
        for (seq, updates) in &committed {
            assert!(
                batches
                    .iter()
                    .any(|b| b.seq == *seq && b.updates == *updates),
                "seq {seq} was acknowledged Ok but is missing after reopen"
            );
        }
        // ...and the log never contains anything but submitted batches
        // (a failed group may leave an unsynced-but-readable residue,
        // which idempotent replay tolerates — but never invents data).
        for b in &batches {
            assert!(
                (1..=2u32).any(|t| b.updates == vec![edge(100 * t, t)]),
                "replayed batch {:?} was never submitted",
                b.updates
            );
        }
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}
