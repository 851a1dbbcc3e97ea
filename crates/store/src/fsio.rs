//! Filesystem primitives with fault injection.
//!
//! Every operation the store performs on disk lives here, takes a
//! [`Failpoints`] registry plus a label, and translates armed actions
//! into the corresponding failure: `Transient` becomes a retryable
//! `ErrorKind::Interrupted`, `Torn` writes a prefix of the buffer and
//! dies, `Crash` dies before the operation. "Dying" means returning
//! [`StoreError::Injected`] with *no cleanup* — the caller propagates
//! it straight out, so the on-disk state is exactly what a real crash
//! at that instant would leave.
//!
//! Failpoint labels (the catalog `tests/crash_matrix.rs` enumerates):
//!
//! | label                  | operation                              |
//! |------------------------|----------------------------------------|
//! | `save.create_dir`      | create the new generation directory    |
//! | `save.write_file`      | write a data file's `.tmp`             |
//! | `save.fsync_file`      | fsync a data file's `.tmp`             |
//! | `save.rename_file`     | rename `.tmp` into place               |
//! | `save.write_manifest`  | write `MANIFEST.tmp`                   |
//! | `save.fsync_manifest`  | fsync `MANIFEST.tmp`                   |
//! | `save.rename_manifest` | rename `MANIFEST.tmp` (the commit)     |
//! | `save.fsync_dir`       | fsync the generation directory         |
//! | `load.read_manifest`   | read a generation's `MANIFEST`         |
//! | `load.read_file`       | read a data file                       |
//! | `wal.read`             | read `wal.log` during recovery         |
//! | `wal.append`           | append a group of records to `wal.log` |
//! | `wal.fsync`            | fsync `wal.log` (the commit point)     |
//! | `wal.truncate_write`   | write the truncated log's `.tmp`       |
//! | `wal.truncate_fsync`   | fsync the truncated log's `.tmp`       |
//! | `wal.truncate_rename`  | rename the truncated log into place    |
//! | `wal.truncate_fsync_dir` | fsync the store root after the rename |
//!
//! The `wal.*` labels live in `crate::wal`; they route through the same
//! registry and the same crash matrix as the `save.*`/`load.*` sites.

use crate::error::StoreError;
use crate::failpoint::{FailAction, Failpoints};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

pub(crate) fn io_err(context: &str, path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        context: format!("{context} {}", path.display()),
        source,
    }
}

pub(crate) fn injected(label: &str) -> StoreError {
    StoreError::Injected {
        label: label.to_string(),
    }
}

pub(crate) fn transient(context: &str, path: &Path) -> StoreError {
    io_err(
        context,
        path,
        io::Error::new(io::ErrorKind::Interrupted, "injected transient I/O error"),
    )
}

/// Creates a directory (and missing parents). Label: `save.create_dir`.
pub fn create_dir(fp: &Failpoints, label: &str, path: &Path) -> Result<(), StoreError> {
    match fp.check(label) {
        Some(FailAction::Transient) => return Err(transient("creating", path)),
        Some(FailAction::Torn | FailAction::Crash) => return Err(injected(label)),
        None => {}
    }
    fs::create_dir_all(path).map_err(|e| io_err("creating", path, e))
}

/// Writes `bytes` to `<name>.tmp` in `dir`, fsyncs, and renames to
/// `<name>`. The three steps carry `write_label`, `fsync_label`, and
/// `rename_label` respectively; a `Torn` action on the write step
/// leaves a half-written `.tmp` behind, exactly like a crash mid-write.
pub fn write_atomic(
    fp: &Failpoints,
    dir: &Path,
    name: &str,
    bytes: &[u8],
    write_label: &str,
    fsync_label: &str,
    rename_label: &str,
) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);

    match fp.check(write_label) {
        Some(FailAction::Transient) => return Err(transient("writing", &tmp)),
        Some(FailAction::Crash) => return Err(injected(write_label)),
        Some(FailAction::Torn) => {
            // Persist a strict prefix, then die mid-write.
            let torn = &bytes[..bytes.len() / 2];
            let mut f = fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
            f.write_all(torn).map_err(|e| io_err("writing", &tmp, e))?;
            let _ = f.sync_all();
            return Err(injected(write_label));
        }
        None => {}
    }
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err("writing", &tmp, e))?;

    match fp.check(fsync_label) {
        Some(FailAction::Transient) => return Err(transient("fsyncing", &tmp)),
        Some(FailAction::Torn | FailAction::Crash) => return Err(injected(fsync_label)),
        None => {}
    }
    f.sync_all().map_err(|e| io_err("fsyncing", &tmp, e))?;
    drop(f);

    match fp.check(rename_label) {
        Some(FailAction::Transient) => return Err(transient("renaming", &tmp)),
        Some(FailAction::Torn | FailAction::Crash) => return Err(injected(rename_label)),
        None => {}
    }
    fs::rename(&tmp, &fin).map_err(|e| io_err("renaming", &tmp, e))
}

/// Fsyncs a directory so renames inside it are durable.
/// Label: `save.fsync_dir`.
pub fn fsync_dir(fp: &Failpoints, label: &str, dir: &Path) -> Result<(), StoreError> {
    match fp.check(label) {
        Some(FailAction::Transient) => return Err(transient("fsyncing", dir)),
        Some(FailAction::Torn | FailAction::Crash) => return Err(injected(label)),
        None => {}
    }
    let f = fs::File::open(dir).map_err(|e| io_err("opening", dir, e))?;
    f.sync_all().map_err(|e| io_err("fsyncing", dir, e))
}

/// Reads a whole file. Labels: `load.read_manifest`, `load.read_file`.
pub fn read_file(fp: &Failpoints, label: &str, path: &Path) -> Result<Vec<u8>, StoreError> {
    match fp.check(label) {
        Some(FailAction::Transient) => return Err(transient("reading", path)),
        Some(FailAction::Torn | FailAction::Crash) => return Err(injected(label)),
        None => {}
    }
    fs::read(path).map_err(|e| io_err("reading", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bgi-store-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_roundtrip() {
        let d = tmpdir("rt");
        let fp = Failpoints::disabled();
        write_atomic(&fp, &d, "a.bin", b"hello", "w", "s", "r").unwrap();
        assert_eq!(fs::read(d.join("a.bin")).unwrap(), b"hello");
        assert!(!d.join("a.bin.tmp").exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_write_leaves_partial_tmp_only() {
        let d = tmpdir("torn");
        let fp = Failpoints::enabled();
        fp.arm("w", 1, FailAction::Torn);
        let err = write_atomic(&fp, &d, "a.bin", b"0123456789", "w", "s", "r").unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }));
        assert!(!d.join("a.bin").exists());
        assert_eq!(fs::read(d.join("a.bin.tmp")).unwrap(), b"01234");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_before_rename_leaves_full_tmp() {
        let d = tmpdir("crash");
        let fp = Failpoints::enabled();
        fp.arm("r", 1, FailAction::Crash);
        let err = write_atomic(&fp, &d, "a.bin", b"abc", "w", "s", "r").unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }));
        assert!(!d.join("a.bin").exists());
        assert_eq!(fs::read(d.join("a.bin.tmp")).unwrap(), b"abc");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn transient_is_retryable() {
        let d = tmpdir("trans");
        let fp = Failpoints::enabled();
        fp.arm("load.read_file", 1, FailAction::Transient);
        fs::write(d.join("x.bin"), b"ok").unwrap();
        let err = read_file(&fp, "load.read_file", &d.join("x.bin")).unwrap_err();
        assert!(err.is_transient());
        // Second attempt (plan consumed) succeeds.
        assert_eq!(
            read_file(&fp, "load.read_file", &d.join("x.bin")).unwrap(),
            b"ok"
        );
        let _ = fs::remove_dir_all(&d);
    }
}
