//! Shared fixtures for store integration tests: two small but
//! non-trivial bundles (distinct graphs, same ontology) and unique
//! temp directories.

// Each integration-test binary compiles its own copy of this module
// and none uses every fixture.
#![allow(dead_code)]

use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder, VId};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_store::IndexBundle;
use big_index::{BiGIndex, BuildParams, EvalOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn build_bundle(edge_stride: u32) -> IndexBundle {
    let mut ob = OntologyBuilder::new(6);
    ob.add_subtype(LabelId(0), LabelId(1));
    ob.add_subtype(LabelId(0), LabelId(2));
    ob.add_subtype(LabelId(3), LabelId(4));
    ob.add_subtype(LabelId(3), LabelId(5));
    let ontology = ob.build().unwrap();
    let mut b = GraphBuilder::new();
    for i in 0..24u32 {
        b.add_vertex(LabelId(1 + (i % 2)));
    }
    for i in 0..24u32 {
        b.add_vertex(LabelId(4 + (i % 2)));
    }
    for i in 0..47u32 {
        b.add_edge(VId(i), VId(i + 1));
        b.add_edge(VId(i + 1), VId(i % edge_stride));
    }
    let g = b.build();
    let index = BiGIndex::build(g, ontology, &BuildParams::default());
    IndexBundle::build(
        index,
        BlinksParams { prune_dist: 4 },
        RClique { radius: 3 },
        EvalOptions::default(),
    )
}

/// The "old" generation's content.
pub fn bundle_a() -> IndexBundle {
    build_bundle(7)
}

/// The "new" generation's content — a different graph, so the two
/// bundles compare unequal.
pub fn bundle_b() -> IndexBundle {
    build_bundle(5)
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A unique, empty temp directory; removed by [`TempDir::drop`].
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("bgi-store-test-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        TempDir(d)
    }

    pub fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
