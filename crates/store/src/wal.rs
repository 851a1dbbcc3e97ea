//! Durable write-ahead log for live graph updates.
//!
//! Generations (see `crate::store`) persist a *full* index bundle and
//! are expensive to write, so the ingest path commits each update batch
//! to an append-only log first and folds the batches into a generation
//! only occasionally. `wal.log` lives next to the generation
//! directories in the store root and is a concatenation of records:
//!
//! ```text
//! [len u32 le][frame]  [len u32 le][frame]  ...
//! ```
//!
//! where each frame is a standard checksummed [`Section::Wal`] codec
//! frame carrying `{seq u64, updates [(tag u8, a u32, b u32)]}`.
//!
//! There is one write routine, [`Wal::append_group`]: it lays any
//! number of records out as one image and commits them with one
//! positioned write and one fsync ([`Wal::append`] is the group of one
//! record). A batch is *committed* once that fsync has returned; a crash
//! mid-append leaves a torn tail that replay detects (short or
//! checksum-failing frame) and discards, yielding exactly the committed
//! prefix — old-or-new, never torn, same contract as generation saves.
//! A torn *group* can additionally persist whole leading records before
//! the cut; those replay, which idempotence (below) makes safe.
//!
//! The committed prefix is also the *write position*: [`Wal::open`]
//! truncates any torn tail off the file before returning, and
//! an append writes at the committed end rather than at the file
//! end. Both are load-bearing. Without the truncation, an append after
//! a torn-tail recovery would land beyond the torn frame, and the next
//! replay — which stops decoding at that frame — would silently drop
//! the new (fsynced!) batch. Without the positioned write, an append
//! retried after a failed one (say `write_all` succeeded but the fsync
//! errored) would stack a second record with the same sequence number
//! after the first, which the next recovery rejects as
//! [`StoreError::WalCorrupt`].
//!
//! Replay is idempotent: edge inserts/deletes are natural no-ops when
//! already applied, and [`GraphUpdate::AddVertex`] carries the vertex id
//! it is expected to create so a second replay can recognize and skip
//! it. Idempotence is what makes the crash window between "generation
//! saved" and "log truncated" safe — the doubly-covered batches replay
//! onto the new generation without changing it.
//!
//! Truncation ([`Wal::truncate_through`]) rewrites the surviving suffix
//! through the same tmp+fsync+rename path data files use. All labels
//! (`wal.*`, see the catalog table in `crate::fsio`) route through the
//! store's [`Failpoints`] registry and are exercised by the crash
//! matrix.

use crate::codec::{frame_version, Dec, Enc, Section, VERSION};
use crate::error::StoreError;
use crate::failpoint::{FailAction, Failpoints};
use crate::fsio;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File name of the log inside a store root.
pub const WAL_FILE: &str = "wal.log";

/// One graph mutation, as logged and replayed.
///
/// Vertex ids are the base graph's `VId` values as raw `u32`s (the
/// store crate does not depend on graph types beyond what the bundle
/// codec already needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert edge `src → dst`. Idempotent: the graph deduplicates.
    InsertEdge {
        /// Source vertex id.
        src: u32,
        /// Destination vertex id.
        dst: u32,
    },
    /// Delete edge `src → dst`. Idempotent: deleting an absent edge is
    /// a no-op.
    DeleteEdge {
        /// Source vertex id.
        src: u32,
        /// Destination vertex id.
        dst: u32,
    },
    /// Add an isolated vertex with label `label`. `expected` is the id
    /// the new vertex receives (`num_vertices` at apply time), which is
    /// what lets a replay skip the record when the vertex already
    /// exists.
    AddVertex {
        /// Label of the new vertex.
        label: u32,
        /// Vertex id the addition is expected to produce.
        expected: u32,
    },
}

/// One committed batch: a sequence number plus its updates, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Strictly increasing across the log.
    pub seq: u64,
    /// The batch's updates, applied in order.
    pub updates: Vec<GraphUpdate>,
}

/// An open write-ahead log. Create with [`Wal::open`], which also
/// replays whatever the log already holds.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    fp: Failpoints,
    next_seq: u64,
    /// Byte length of the committed prefix — where the next append
    /// writes. Everything past it is the residue of a failed append.
    end: u64,
    /// Successful commit fsyncs over this handle's lifetime. Group
    /// commit exists to keep this far below the batch count; the soak
    /// tests assert exactly that.
    fsyncs: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `root/wal.log` and decodes
    /// its committed prefix. A torn tail — the residue of a crash
    /// mid-append — is discarded *and truncated off the file*, so a
    /// later append can never land beyond it; a *committed* record that
    /// is structurally inconsistent (sequence going backwards) or was
    /// written in another codec version is [`StoreError::WalCorrupt`],
    /// and the file is left as found.
    pub fn open(root: &Path, fp: Failpoints) -> Result<(Wal, Vec<UpdateBatch>), StoreError> {
        let path = root.join(WAL_FILE);
        let (batches, end) = if path.exists() {
            let bytes = fsio::read_file(&fp, "wal.read", &path)?;
            let (batches, end) = decode_log(&bytes)?;
            if end < bytes.len() {
                // Crash-safe without a label of its own: dying before
                // (or during) this set_len leaves the same torn bytes
                // for the next open to discard again.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| fsio::io_err("opening", &path, e))?;
                f.set_len(end as u64)
                    .map_err(|e| fsio::io_err("truncating", &path, e))?;
                f.sync_all()
                    .map_err(|e| fsio::io_err("fsyncing", &path, e))?;
            }
            (batches, end as u64)
        } else {
            (Vec::new(), 0)
        };
        let next_seq = batches.last().map_or(1, |b| b.seq + 1);
        Ok((
            Wal {
                path,
                fp,
                next_seq,
                end,
                fsyncs: 0,
            },
            batches,
        ))
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number the next [`Wal::append`] will commit.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Successful commit fsyncs performed by this handle — one per
    /// [`Wal::append_group`] call, however many records it carried;
    /// truncation rewrites are not counted. Group commit's whole point
    /// is that this grows far slower than the number of committed
    /// batches.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Opens the log positioned at the committed end. Writes must land
    /// there, not at the file end: a failed append may have left bytes
    /// past `end` (a torn frame, or a whole record whose fsync errored),
    /// and appending after them would either hide the new record behind
    /// the torn frame or stack a duplicate sequence number. Clamp first
    /// — a truncation whose rename committed but whose dir-fsync didn't
    /// leaves the file shorter than `end` — then drop the residue.
    fn open_at_committed_end(&self) -> Result<(std::fs::File, u64), StoreError> {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&self.path)
            .map_err(|e| fsio::io_err("opening", &self.path, e))?;
        let len = f
            .metadata()
            .map_err(|e| fsio::io_err("inspecting", &self.path, e))?
            .len();
        let end = self.end.min(len);
        f.set_len(end)
            .map_err(|e| fsio::io_err("truncating", &self.path, e))?;
        f.seek(SeekFrom::Start(end))
            .map_err(|e| fsio::io_err("seeking", &self.path, e))?;
        Ok((f, end))
    }

    /// Appends one batch and fsyncs it — the batch is durable when this
    /// returns `Ok`. Returns the committed sequence number. This is
    /// [`Wal::append_group`] of one record.
    pub fn append(&mut self, updates: &[GraphUpdate]) -> Result<u64, StoreError> {
        self.append_group(&[updates]).map(|seqs| seqs.start)
    }

    /// Appends `batches` as consecutive records and commits them all
    /// with **one** write and **one** fsync. Returns the committed
    /// sequence numbers (consecutive, in batch order). On `Err` nothing
    /// is committed from this handle's point of view (`next_seq` and
    /// the write position are unchanged, so a retry overwrites the
    /// residue); on disk the usual prefix-durability contract holds — a
    /// crash can persist a prefix of the records, which replay picks up
    /// and idempotence makes safe. Labels: `wal.append` (torn-able:
    /// persists a strict prefix of the whole image), `wal.fsync` (the
    /// commit point).
    pub fn append_group(
        &mut self,
        batches: &[impl AsRef<[GraphUpdate]>],
    ) -> Result<Range<u64>, StoreError> {
        let seqs = self.next_seq..self.next_seq + batches.len() as u64;
        if batches.is_empty() {
            return Ok(seqs);
        }
        let mut image = Vec::new();
        for (seq, updates) in seqs.clone().zip(batches) {
            encode_record(&mut image, seq, updates.as_ref());
        }
        let (mut f, end) = self.open_at_committed_end()?;

        match self.fp.check("wal.append") {
            Some(FailAction::Transient) => return Err(fsio::transient("appending", &self.path)),
            Some(FailAction::Crash) => return Err(fsio::injected("wal.append")),
            Some(FailAction::Torn) => {
                // Persist a strict prefix of the image, then die. The
                // cut can land mid-record (torn tail, discarded on
                // replay) or on a record boundary (a committed prefix
                // of the group — safe by idempotent replay).
                let torn = &image[..image.len() / 2];
                f.write_all(torn)
                    .map_err(|e| fsio::io_err("appending", &self.path, e))?;
                let _ = f.sync_all();
                return Err(fsio::injected("wal.append"));
            }
            None => {}
        }
        f.write_all(&image)
            .map_err(|e| fsio::io_err("appending", &self.path, e))?;

        match self.fp.check("wal.fsync") {
            Some(FailAction::Transient) => return Err(fsio::transient("fsyncing", &self.path)),
            Some(FailAction::Torn | FailAction::Crash) => return Err(fsio::injected("wal.fsync")),
            None => {}
        }
        f.sync_all()
            .map_err(|e| fsio::io_err("fsyncing", &self.path, e))?;

        self.fsyncs += 1;
        self.end = end + image.len() as u64;
        self.next_seq = seqs.end;
        Ok(seqs)
    }

    /// Drops every committed batch with `seq <= through` by atomically
    /// rewriting the surviving suffix (tmp + fsync + rename, labels
    /// `wal.truncate_*`). Called after the batches were folded into a
    /// persisted generation; a crash anywhere in here leaves either the
    /// old log or the new one, and replaying the old log is safe by
    /// idempotence.
    pub fn truncate_through(&mut self, through: u64) -> Result<(), StoreError> {
        let bytes = if self.path.exists() {
            fsio::read_file(&self.fp, "wal.read", &self.path)?
        } else {
            Vec::new()
        };
        // Only the committed prefix participates: bytes past `end` are
        // the residue of a failed append and must not be resurrected
        // into the rewritten log as committed records.
        let committed = &bytes[..(self.end as usize).min(bytes.len())];
        let (batches, _) = decode_log(committed)?;
        let mut keep = Vec::new();
        for b in &batches {
            if b.seq > through {
                encode_record(&mut keep, b.seq, &b.updates);
            }
        }
        let dir = self
            .path
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        fsio::write_atomic(
            &self.fp,
            &dir,
            WAL_FILE,
            &keep,
            "wal.truncate_write",
            "wal.truncate_fsync",
            "wal.truncate_rename",
        )?;
        fsio::fsync_dir(&self.fp, "wal.truncate_fsync_dir", &dir)?;
        self.end = keep.len() as u64;
        Ok(())
    }
}

/// Appends one `[len][frame]` record to `image`.
fn encode_record(image: &mut Vec<u8>, seq: u64, updates: &[GraphUpdate]) {
    let mut e = Enc::new(Section::Wal);
    e.u64(seq);
    e.u64(updates.len() as u64);
    for u in updates {
        match *u {
            GraphUpdate::InsertEdge { src, dst } => {
                e.u8(0);
                e.u32(src);
                e.u32(dst);
            }
            GraphUpdate::DeleteEdge { src, dst } => {
                e.u8(1);
                e.u32(src);
                e.u32(dst);
            }
            GraphUpdate::AddVertex { label, expected } => {
                e.u8(2);
                e.u32(label);
                e.u32(expected);
            }
        }
    }
    let frame = e.finish();
    image.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    image.extend_from_slice(&frame);
}

/// Decodes the committed prefix of a log image, returning the batches
/// plus the prefix's byte length. A short or checksum-failing record at
/// the end is a torn tail and terminates the prefix; a committed record
/// whose sequence fails to increase, or whose checksum holds but whose
/// codec version is not this build's, is an error — never a tail to cut.
fn decode_log(bytes: &[u8]) -> Result<(Vec<UpdateBatch>, usize), StoreError> {
    let mut out: Vec<UpdateBatch> = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 4 {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let start = pos + 4;
        if len == 0 || bytes.len() - start < len {
            break; // torn tail: length prefix without its record
        }
        let frame = &bytes[start..start + len];
        let Ok(batch) = decode_frame(frame) else {
            match frame_version(frame) {
                // Intact, just written by another build: acknowledged
                // updates, not residue. Refuse, so `open` leaves them.
                Ok(found) if found != VERSION => {
                    return Err(StoreError::WalCorrupt {
                        detail: format!(
                            "record at byte {pos} is in codec version {found}, \
                             this build reads {VERSION}"
                        ),
                    })
                }
                _ => break, // torn tail: frame fails checksum/framing
            }
        };
        if let Some(last) = out.last() {
            if batch.seq <= last.seq {
                return Err(StoreError::WalCorrupt {
                    detail: format!(
                        "sequence number {} follows {} (must strictly increase)",
                        batch.seq, last.seq
                    ),
                });
            }
        }
        out.push(batch);
        pos = start + len;
    }
    Ok((out, pos))
}

fn decode_frame(frame: &[u8]) -> Result<UpdateBatch, crate::codec::CodecError> {
    let mut d = Dec::open(frame, Section::Wal)?;
    let seq = d.u64()?;
    let n = d.u64()? as usize;
    let mut updates = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tag = d.u8()?;
        let a = d.u32()?;
        let b = d.u32()?;
        updates.push(match tag {
            0 => GraphUpdate::InsertEdge { src: a, dst: b },
            1 => GraphUpdate::DeleteEdge { src: a, dst: b },
            2 => GraphUpdate::AddVertex {
                label: a,
                expected: b,
            },
            t => {
                return Err(crate::codec::CodecError {
                    detail: format!("unknown wal update tag {t}"),
                })
            }
        });
    }
    d.finish()?;
    Ok(UpdateBatch { seq, updates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bgi-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(k: u32) -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::InsertEdge { src: k, dst: k + 1 },
            GraphUpdate::DeleteEdge { src: k, dst: k + 2 },
            GraphUpdate::AddVertex {
                label: 3,
                expected: 100 + k,
            },
        ]
    }

    #[test]
    fn commits_of_any_size_replay_in_order_with_one_fsync_each() {
        // Record counts per commit: single appends, one group, a mix
        // (with an empty group, which must be a complete no-op).
        for (tag, commits) in [
            ("rt", &[1usize, 1][..]),
            ("group-rt", &[3]),
            ("group-mixed", &[1, 0, 2, 1]),
        ] {
            let d = tmpdir(tag);
            let fp = Failpoints::disabled();
            let (mut wal, replayed) = Wal::open(&d, fp.clone()).unwrap();
            assert!(replayed.is_empty());
            let mut k = 0u32;
            for &n in commits {
                let group: Vec<_> = (k..k + n as u32).map(batch).collect();
                let first = k as u64 + 1;
                match n {
                    1 => assert_eq!(wal.append(&group[0]).unwrap(), first),
                    _ => assert_eq!(wal.append_group(&group).unwrap(), first..first + n as u64),
                }
                k += n as u32;
            }
            let fsyncs = commits.iter().filter(|&&n| n > 0).count() as u64;
            assert_eq!(
                wal.fsyncs(),
                fsyncs,
                "{tag}: one fsync per non-empty commit"
            );

            let (wal2, replayed) = Wal::open(&d, fp).unwrap();
            assert_eq!(replayed.len(), k as usize, "{tag}");
            for (i, b) in replayed.iter().enumerate() {
                assert_eq!(b.seq, i as u64 + 1, "{tag}");
                assert_eq!(b.updates, batch(i as u32), "{tag}");
            }
            assert_eq!(wal2.next_seq(), k as u64 + 1, "{tag}");
            let _ = fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn log_of_another_codec_version_is_refused_and_left_untouched() {
        let d = tmpdir("old-version");
        let fp = Failpoints::disabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.append(&batch(1)).unwrap();

        // Re-frame every record the way a version-2 build wrote it:
        // same payload, that version in the header, checksum recomputed.
        let mut bytes = fs::read(wal.path()).unwrap();
        let mut pos = 0;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let frame = &mut bytes[pos + 4..pos + 4 + len];
            frame[4..6].copy_from_slice(&2u16.to_le_bytes());
            let sum = crate::codec::fnv1a64(&frame[..len - 8]);
            frame[len - 8..].copy_from_slice(&sum.to_le_bytes());
            pos += 4 + len;
        }
        fs::write(wal.path(), &bytes).unwrap();

        match Wal::open(&d, fp) {
            Err(StoreError::WalCorrupt { detail }) => {
                assert!(detail.contains("codec version 2"), "{detail}");
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        assert_eq!(fs::read(wal.path()).unwrap(), bytes, "log not truncated");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_append_replays_exactly_the_whole_records_before_the_cut() {
        // `batch(k)` records are all the same size, so half of a
        // two-record image ends on a record boundary, and half of a
        // one- or three-record image ends mid-record.
        for (n, on_boundary) in [(1u32, false), (2, true), (3, false)] {
            let d = tmpdir(&format!("torn-{n}"));
            let fp = Failpoints::enabled();
            let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
            wal.append(&batch(9)).unwrap();
            let record = fs::metadata(wal.path()).unwrap().len();
            fp.arm("wal.append", 2, FailAction::Torn);
            let group: Vec<_> = (0..n).map(batch).collect();
            let err = wal.append_group(&group).unwrap_err();
            assert!(matches!(err, StoreError::Injected { .. }));
            let torn_len = fs::metadata(wal.path()).unwrap().len();
            assert_eq!(torn_len % record == 0, on_boundary, "group of {n}");

            // Prefix-or-less, never torn, never reordered: exactly the
            // group's whole records before the cut replay.
            let (_, replayed) = Wal::open(&d, fp).unwrap();
            assert_eq!(replayed.len() as u64, torn_len / record, "group of {n}");
            assert_eq!(replayed[0].updates, batch(9));
            for (i, b) in replayed.iter().enumerate().skip(1) {
                assert_eq!(b.updates, batch(i as u32 - 1));
            }
            let _ = fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn failed_fsync_retry_does_not_duplicate_sequences() {
        for n in [1u32, 2] {
            let d = tmpdir(&format!("fsync-retry-{n}"));
            let fp = Failpoints::enabled();
            let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
            let group: Vec<_> = (0..n).map(batch).collect();
            fp.arm("wal.fsync", 1, FailAction::Crash);
            // The records are fully written before the fsync dies…
            assert!(wal.append_group(&group).is_err());
            assert_eq!(wal.next_seq(), 1, "nothing committed on error");
            // …so the retry must overwrite them, not stack records with
            // the same sequence numbers (which the next recovery would
            // reject as corruption, losing the whole log).
            assert_eq!(wal.append_group(&group).unwrap(), 1..n as u64 + 1);
            let (wal2, replayed) = Wal::open(&d, fp).unwrap();
            assert_eq!(replayed.len(), n as usize);
            for (i, b) in replayed.iter().enumerate() {
                assert_eq!((b.seq, &b.updates), (i as u64 + 1, &batch(i as u32)));
            }
            assert_eq!(wal2.next_seq(), n as u64 + 1);
            let _ = fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn append_after_torn_recovery_keeps_later_batches() {
        let d = tmpdir("torn-retry");
        let fp = Failpoints::enabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        wal.append(&batch(0)).unwrap();
        fp.arm("wal.append", 2, FailAction::Torn);
        assert!(wal.append(&batch(1)).is_err());

        // A fresh open truncates the torn tail, so the retried append
        // lands right after the committed prefix…
        let (mut wal, replayed) = Wal::open(&d, fp.clone()).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(wal.append(&batch(1)).unwrap(), 2);
        // …and the next recovery replays *both* batches instead of
        // stopping at the (formerly leftover) torn frame.
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert_eq!(
            replayed.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(replayed[1].updates, batch(1));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn same_handle_retry_after_torn_append_overwrites_the_residue() {
        let d = tmpdir("torn-same");
        let fp = Failpoints::enabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        wal.append(&batch(0)).unwrap();
        fp.arm("wal.append", 2, FailAction::Torn);
        assert!(wal.append(&batch(1)).is_err());
        // Same handle: the retry writes at the committed end, over the
        // torn residue, instead of after it.
        assert_eq!(wal.append(&batch(1)).unwrap(), 2);
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].updates, batch(1));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn truncation_does_not_resurrect_a_failed_append() {
        let d = tmpdir("trunc-residue");
        let fp = Failpoints::enabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        let s1 = wal.append(&batch(0)).unwrap();
        wal.append(&batch(1)).unwrap();
        fp.arm("wal.fsync", 3, FailAction::Crash);
        // Fully written but uncommitted (fsync failed, seq 3 not
        // advanced): truncation must not re-encode it as committed.
        assert!(wal.append(&batch(2)).is_err());
        wal.truncate_through(s1).unwrap();
        // A post-truncation append reuses seq 3 cleanly.
        assert_eq!(wal.append(&batch(3)).unwrap(), 3);
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert_eq!(
            replayed.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(replayed[1].updates, batch(3));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_before_fsync_is_old_or_new() {
        // A crash at the fsync point may or may not have persisted the
        // record (here the bytes are written, so replay sees it) — the
        // contract is only old-or-new, never torn.
        let d = tmpdir("fsync");
        let fp = Failpoints::enabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        fp.arm("wal.fsync", 1, FailAction::Crash);
        assert!(wal.append(&batch(0)).is_err());
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert!(replayed.len() <= 1);
        for b in &replayed {
            assert_eq!(b.updates, batch(0));
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn truncate_drops_exactly_the_prefix() {
        let d = tmpdir("trunc");
        let fp = Failpoints::disabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        for k in 0..5 {
            wal.append(&batch(k)).unwrap();
        }
        wal.truncate_through(3).unwrap();
        let (wal2, replayed) = Wal::open(&d, fp).unwrap();
        assert_eq!(
            replayed.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(wal2.next_seq(), 6);
        // Appending after truncation continues the sequence.
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn truncate_everything_leaves_empty_log() {
        let d = tmpdir("trunc-all");
        let fp = Failpoints::disabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.truncate_through(u64::MAX).unwrap();
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert!(replayed.is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn non_monotonic_seq_is_corrupt() {
        let d = tmpdir("seq");
        let mut image = Vec::new();
        encode_record(&mut image, 2, &batch(0));
        encode_record(&mut image, 1, &batch(1));
        fs::write(d.join(WAL_FILE), &image).unwrap();
        let err = Wal::open(&d, Failpoints::disabled()).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { .. }));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn bitflip_in_last_record_is_torn_tail_in_earlier_record_would_lose_suffix() {
        let d = tmpdir("flip");
        let fp = Failpoints::disabled();
        let (mut wal, _) = Wal::open(&d, fp.clone()).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.append(&batch(1)).unwrap();
        let mut bytes = fs::read(wal.path()).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10; // inside the last record's checksum
        fs::write(wal.path(), &bytes).unwrap();
        let (_, replayed) = Wal::open(&d, fp).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].updates, batch(0));
        let _ = fs::remove_dir_all(&d);
    }
}
