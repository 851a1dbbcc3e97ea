//! Fixtures shared by the write-path soak tests.

use bgi_datasets::Dataset;
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec, ShardedStore};
use std::path::{Path, PathBuf};

/// A per-process scratch directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bgi-soak-{tag}-{}", std::process::id()));
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
