//! Generation directories, the manifest-last commit protocol, and the
//! quarantining recovery path.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   gen-00000001/
//!     index.bin        # the BiG-index hierarchy
//!     params.bin       # BlinksParams + RClique (+ a reserved block)
//!     MANIFEST         # committed last; lists every file + checksum
//!   gen-00000002/
//!   quarantine/
//!     gen-00000003/    # partial or corrupt, moved aside by recovery
//! ```
//!
//! A generation *exists* iff its `MANIFEST` is committed and every
//! listed file matches its recorded length and checksum. [`Store::save`]
//! writes data files first (each tmp + fsync + rename), the manifest
//! last, then fsyncs the directory — so a crash at any point leaves
//! either no manifest (partial → quarantined) or a fully valid
//! generation. [`Store::load_latest`] scans newest-first, retries
//! transient I/O with capped exponential backoff, quarantines bad
//! generations with typed errors, and verifies the survivor through
//! `bgi_verify::check_index` before returning it. No search index is a
//! file. BANKS and BLINKS search each layer graph's label table, which
//! the graph derives as it loads. The per-layer r-clique indexes are
//! rebuilt from the loaded layer graphs, which costs `O(n + m)` per
//! layer and no BFS. Generations saved by older builds still list a
//! `banks-NNN.bin` (and maybe a `blinks-NNN.bin`) per layer: those
//! entries are size- and checksum-checked like any other, then ignored,
//! so a stale or lying label table on disk is never served.

use crate::bundle::{decode_index, decode_params, encode_index, encode_params, IndexBundle};
use crate::codec::{fnv1a64, frame_version, CodecError, Dec, Enc, Section, VERSION};
use crate::error::{RetryPolicy, StoreError};
use crate::failpoint::Failpoints;
use crate::fsio;
use std::fs;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "MANIFEST";
const GEN_PREFIX: &str = "gen-";
const QUARANTINE: &str = "quarantine";

/// A handle to an on-disk store directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    fp: Failpoints,
    retry: RetryPolicy,
}

/// One manifest entry: a data file with its committed size and
/// checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    len: u64,
    checksum: u64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(root, Failpoints::disabled(), RetryPolicy::default())
    }

    /// [`Store::open`] with explicit fault injection and retry policy
    /// (the test-harness entry point).
    pub fn open_with(
        root: impl Into<PathBuf>,
        fp: Failpoints,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        fsio::create_dir(&fp, "save.create_dir", &root)?;
        Ok(Store { root, fp, retry })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fault-injection registry this store threads through its I/O.
    pub fn failpoints(&self) -> &Failpoints {
        &self.fp
    }

    /// Opens the store's write-ahead log (`wal.log` in the root),
    /// replaying its committed prefix. The log shares this store's
    /// failpoint registry, so the crash matrix covers its I/O sites
    /// alongside the generation save path.
    pub fn open_wal(&self) -> Result<(crate::wal::Wal, Vec<crate::wal::UpdateBatch>), StoreError> {
        crate::wal::Wal::open(&self.root, self.fp.clone())
    }

    /// Numbers of all complete generations (committed manifest present),
    /// ascending. Does not validate checksums.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let mut out: Vec<u64> = self
            .scan_generation_dirs()?
            .into_iter()
            .filter(|(_, dir)| dir.join(MANIFEST).is_file())
            .map(|(n, _)| n)
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Saves `bundle` as a new generation and returns its number.
    ///
    /// On error the partially written generation is left in place — a
    /// crash could leave the same state — and the next
    /// [`Store::load_latest`] quarantines it.
    pub fn save(&self, bundle: &IndexBundle) -> Result<u64, StoreError> {
        self.save_with_threads(bundle, 1)
    }

    /// [`Store::save`] with the per-section encodes fanned out over up
    /// to `threads` scoped workers.
    ///
    /// Only the *encoding* (pure CPU, no I/O, no failpoints) is
    /// parallel. The writes themselves — and therefore every labeled
    /// failpoint hit, the on-disk file order, and the manifest-last
    /// commit point — run in exactly the serial order, so the
    /// crash-matrix guarantees are untouched and the saved bytes are
    /// identical for every thread count.
    pub fn save_with_threads(
        &self,
        bundle: &IndexBundle,
        threads: usize,
    ) -> Result<u64, StoreError> {
        let generation = self.next_generation_number()?;
        let dir = self.generation_dir(generation);
        fsio::create_dir(&self.fp, "save.create_dir", &dir)?;

        // Fixed file layout: index, then params. Task i always encodes
        // the same section.
        let files: Vec<(String, Vec<u8>)> = bgi_graph::par::par_map(threads, 2, |i| {
            if i == 0 {
                ("index.bin".to_string(), encode_index(&bundle.index))
            } else {
                (
                    "params.bin".to_string(),
                    encode_params(&bundle.blinks_params, &bundle.rclique_params),
                )
            }
        });

        let mut entries: Vec<ManifestEntry> = Vec::with_capacity(files.len());
        for (name, bytes) in files {
            fsio::write_atomic(
                &self.fp,
                &dir,
                &name,
                &bytes,
                "save.write_file",
                "save.fsync_file",
                "save.rename_file",
            )?;
            entries.push(ManifestEntry {
                checksum: fnv1a64(&bytes),
                len: bytes.len() as u64,
                name,
            });
        }

        // The commit point: until this rename lands, the generation
        // does not exist.
        fsio::write_atomic(
            &self.fp,
            &dir,
            MANIFEST,
            &encode_manifest(&entries),
            "save.write_manifest",
            "save.fsync_manifest",
            "save.rename_manifest",
        )?;
        fsio::fsync_dir(&self.fp, "save.fsync_dir", &dir)?;
        Ok(generation)
    }

    /// Recovery: loads the newest complete, checksum-clean, verified
    /// generation. Partial or corrupt newer generations are moved to
    /// `quarantine/` (the typed reason is carried in the returned error
    /// only when *nothing* loadable remains). Transient I/O errors are
    /// retried under the store's [`RetryPolicy`] and never cause
    /// quarantining.
    pub fn load_latest(&self) -> Result<(u64, IndexBundle), StoreError> {
        let mut dirs = self.scan_generation_dirs()?;
        dirs.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
        let mut first_failure: Option<StoreError> = None;
        for (generation, dir) in dirs {
            match self.retry.run(|| self.load_generation(generation, &dir)) {
                Ok(bundle) => return Ok((generation, bundle)),
                Err(e @ (StoreError::Io { .. } | StoreError::Injected { .. })) => {
                    // The data may be fine; do not quarantine on I/O
                    // failure that survived retrying.
                    return Err(e);
                }
                Err(e) => {
                    self.quarantine(generation, &dir)?;
                    first_failure.get_or_insert(e);
                }
            }
        }
        Err(first_failure.unwrap_or(StoreError::NoGeneration))
    }

    /// Loads one generation end to end: manifest, checksums, decode,
    /// structural validation, invariant verification.
    fn load_generation(&self, generation: u64, dir: &Path) -> Result<IndexBundle, StoreError> {
        let manifest_path = dir.join(MANIFEST);
        if !manifest_path.is_file() {
            return Err(StoreError::Partial { generation });
        }
        let corrupt = |detail: String| StoreError::Corrupt { generation, detail };
        let manifest_bytes = fsio::read_file(&self.fp, "load.read_manifest", &manifest_path)?;
        // One build writes every file of a generation, so the
        // manifest's version is the generation's.
        if let Ok(found) = frame_version(&manifest_bytes) {
            if found != VERSION {
                return Err(StoreError::UnsupportedVersion { generation, found });
            }
        }
        let entries =
            decode_manifest(&manifest_bytes).map_err(|e| corrupt(format!("manifest: {e}")))?;

        let mut files: Vec<(String, Vec<u8>)> = Vec::with_capacity(entries.len());
        for entry in &entries {
            let bytes = fsio::read_file(&self.fp, "load.read_file", &dir.join(&entry.name))?;
            if bytes.len() as u64 != entry.len {
                return Err(corrupt(format!(
                    "{}: {} bytes on disk, manifest says {}",
                    entry.name,
                    bytes.len(),
                    entry.len
                )));
            }
            let sum = fnv1a64(&bytes);
            if sum != entry.checksum {
                return Err(corrupt(format!(
                    "{}: checksum {sum:#x} does not match manifest {:#x}",
                    entry.name, entry.checksum
                )));
            }
            files.push((entry.name.clone(), bytes));
        }
        let get = |name: &str| -> Result<&[u8], StoreError> {
            files
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.as_slice())
                .ok_or_else(|| corrupt(format!("manifest lists no {name}")))
        };

        let index =
            decode_index(get("index.bin")?).map_err(|e| corrupt(format!("index.bin: {e}")))?;
        let (blinks_params, rclique_params) =
            decode_params(get("params.bin")?).map_err(|e| corrupt(format!("params.bin: {e}")))?;

        // The verification gate: structural decoding succeeded, but the
        // hierarchy must also satisfy the paper's invariants before a
        // serving process may answer from it.
        let report = bgi_verify::check_index(&index);
        if !report.is_clean() {
            return Err(StoreError::VerifyFailed {
                generation,
                violations: report.total_violations(),
            });
        }
        Ok(IndexBundle::build(index, blinks_params, rclique_params, 1))
    }

    /// Moves a bad generation into `quarantine/` so it is never
    /// considered again but remains available for post-mortem.
    fn quarantine(&self, generation: u64, dir: &Path) -> Result<(), StoreError> {
        let qdir = self.root.join(QUARANTINE);
        fsio::create_dir(&self.fp, "save.create_dir", &qdir)?;
        let mut target = qdir.join(format!("{GEN_PREFIX}{generation:08}"));
        // A generation may be quarantined more than once across
        // re-saves; keep every specimen.
        let mut suffix = 0u32;
        while target.exists() {
            suffix += 1;
            target = qdir.join(format!("{GEN_PREFIX}{generation:08}.{suffix}"));
        }
        fs::rename(dir, &target).map_err(|e| StoreError::Io {
            context: format!("quarantining {}", dir.display()),
            source: e,
        })
    }

    /// Paths currently sitting in `quarantine/`.
    pub fn quarantined(&self) -> Vec<PathBuf> {
        let qdir = self.root.join(QUARANTINE);
        let Ok(rd) = fs::read_dir(&qdir) else {
            return Vec::new();
        };
        let mut out: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
        out.sort();
        out
    }

    fn generation_dir(&self, generation: u64) -> PathBuf {
        self.root.join(format!("{GEN_PREFIX}{generation:08}"))
    }

    /// All `gen-*` directories under the root (complete or not), with
    /// their parsed numbers.
    fn scan_generation_dirs(&self) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        let rd = fs::read_dir(&self.root).map_err(|e| StoreError::Io {
            context: format!("listing {}", self.root.display()),
            source: e,
        })?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| StoreError::Io {
                context: format!("listing {}", self.root.display()),
                source: e,
            })?;
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(number) = name.strip_prefix(GEN_PREFIX) else {
                continue;
            };
            let Ok(n) = number.parse::<u64>() else {
                continue;
            };
            out.push((n, path));
        }
        Ok(out)
    }

    /// Max over every generation directory — partial ones included, so
    /// a crashed save never gets its number reused.
    fn next_generation_number(&self) -> Result<u64, StoreError> {
        let max = self
            .scan_generation_dirs()?
            .into_iter()
            .map(|(n, _)| n)
            .max()
            .unwrap_or(0);
        Ok(max + 1)
    }
}

fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
    let mut e = Enc::new(Section::Manifest);
    e.u64(entries.len() as u64);
    for entry in entries {
        e.bytes(entry.name.as_bytes());
        e.u64(entry.len);
        e.u64(entry.checksum);
    }
    e.finish()
}

fn decode_manifest(bytes: &[u8]) -> Result<Vec<ManifestEntry>, CodecError> {
    let mut d = Dec::open(bytes, Section::Manifest)?;
    let n = d.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = String::from_utf8(d.bytes()?.to_vec()).map_err(|_| CodecError {
            detail: "non-UTF-8 manifest entry name".to_string(),
        })?;
        if name.contains('/') || name.contains('\\') || name == ".." {
            return Err(CodecError {
                detail: format!("manifest entry name {name:?} escapes the generation directory"),
            });
        }
        let len = d.u64()?;
        let checksum = d.u64()?;
        out.push(ManifestEntry {
            name,
            len,
            checksum,
        });
    }
    d.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let entries = vec![
            ManifestEntry {
                name: "index.bin".into(),
                len: 123,
                checksum: 0xdead,
            },
            ManifestEntry {
                name: "banks-000.bin".into(),
                len: 0,
                checksum: 0,
            },
        ];
        let bytes = encode_manifest(&entries);
        assert_eq!(decode_manifest(&bytes).unwrap(), entries);
    }

    #[test]
    fn manifest_rejects_path_escapes() {
        let entries = vec![ManifestEntry {
            name: "../evil".into(),
            len: 1,
            checksum: 2,
        }];
        let bytes = encode_manifest(&entries);
        assert!(decode_manifest(&bytes).is_err());
    }
}
