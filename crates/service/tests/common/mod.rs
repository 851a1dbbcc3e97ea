//! Fixtures shared by the service's integration tests.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use bgi_datasets::Dataset;
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec, ShardedStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A scratch directory of its own for every call — tests of one binary
/// run on parallel threads and may share a tag — removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        // Relaxed: the counter only has to hand out distinct numbers.
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("bgi-service-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cuts `ds` into `shards` two-layer hierarchies and persists them as
/// generation 1 of a fresh sharded root.
pub fn save_sharded_store(ds: &Dataset, root: &Path, shards: usize, dmax: u32) -> ShardedStore {
    let spec = ShardSpec {
        shards,
        dmax_ceiling: dmax,
        partition_block: 0,
    };
    let plan = ShardPlan::build(&ds.graph, &spec).expect("plan builds");
    let params = ShardBuildParams {
        max_layers: 2,
        ..ShardBuildParams::default()
    };
    let bundles = build_shard_bundles(&ds.graph, &ds.ontology, &plan, &params);
    let store = ShardedStore::create(root.to_path_buf(), plan).expect("sharded root");
    store.save_all(&bundles, 1).expect("initial generations");
    store
}
